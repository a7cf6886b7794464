"""The plan search of the polynomial Schinzel engine, pinned.

Every plan search of `schinzel.polyschinzel` composes through one ring map
(`MPoly.substitute` into the codomain registry) and certifies through one
loop (`_certificates`); the sharpness counterexample composes on integer
rows.  The tables below fix the plans, certificates, `tried` counts,
generic families and counterexample samples that the engine gives for a
few small inputs, so a change to the search shows as a changed plan.  A
certificate is pinned as (verdict, method, prime, point, factor, detail).
"""

import ast
import pathlib

import pytest

from schinzel.polyring import PolyError, VarSplit, parse_poly
from schinzel.polyschinzel import (
    generic_substitution,
    iterated_composition,
    sharpness_counterexample,
    solve_polynomial_schinzel,
    strong_pipeline,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "schinzel"


def _cert(c):
    factor = None if c.factor is None else str(c.factor)
    return (c.verdict, c.method, c.prime, c.point, factor, c.detail)


def _plan(plan):
    confirmed = None if plan.fixdiv_report is None else plan.fixdiv_report.confirmed
    return (plan.theta, tuple(map(str, plan.Ms)), tuple(map(_cert, plan.certificates)),
            confirmed, plan.base, plan.omega, plan.bad_primes, plan.tried)


# (polys, registry, params, d, exact_degree, plan)
SOLVER = [
    (['Y^2 - T'], ('T', 'Y'), ('T',), ((1,),), True,
     (((-1, -1),), ('-Y - 1',), (('irreducible', 'mod-p', 2, None, None, ''),), None, None, None, None, 2)),
    (['Y^2 - T^2 - 1'], ('T', 'Y'), ('T',), ((1,),), True,
     (((-2, -1),), ('-Y - 2',), (('irreducible', 'mod-p', 3, None, None, ''),), None, None, None, None, 11)),
    (['T^2 + Y^2 + 1'], ('T', 'Y'), ('T',), ((1,),), True,
     (((0, -1),), ('-Y',), (('irreducible', 'mod-p', 5, None, None, ''),), None, None, None, None, 5)),
    (['T^3 - Y'], ('T', 'Y'), ('T',), ((2,),), True,
     (((-1, -1, 1),), ('Y^2 - Y - 1',), (('irreducible', 'mod-p', 3, None, None, ''),), None, None, None, None, 4)),
    (['T*Y + 1', 'T + Y^2'], ('T', 'Y'), ('T',), ((1,),), True,
     (((-1, -1),), ('-Y - 1',), (('irreducible', 'mod-p', 2, None, None, ''), ('irreducible', 'mod-p', 2, None, None, '')), None, None, None, None, 2)),
    (['T + U*Y^2 + 1'], ('T', 'U', 'Y'), ('T', 'U'), ((1,), (1,)), True,
     (((0, -1), (-1, -1)), ('-Y', '-Y - 1'), (('irreducible', 'mod-p', 3, None, None, ''),), None, None, None, None, 29)),
]

# (polys, variables, d, monic, plan)
STRONG = [
    (['T^2 + 1'], ('Y',), (1,), False,
     (((0,),), ('2*Y',), (('irreducible', 'mod-p', 3, None, None, ''),), (), 0, 2, (2,), 1)),
    (['T^2 + 1', 'T^2 + T + 1'], ('Y',), (1,), False,
     (((0,),), ('6*Y',), (('irreducible', 'mod-p', 7, None, None, ''), ('irreducible', 'mod-p', 5, None, None, '')), (), 0, 6, (2, 3), 1)),
    (['T'], ('Y',), (2,), False,
     (((0, 0),), ('2*Y^2 + 1',), (('irreducible', 'mod-p', 5, None, None, ''),), (), 1, 2, (2,), 1)),
    (['T^3 + 2'], ('Y',), (2,), False,
     (((0, 0),), ('30*Y^2 + 15',), (('irreducible', 'kronecker', None, None, None, ''),), (), 15, 30, (2, 3, 5), 1)),
    (['T^2 - 3'], ('Y', 'Z'), (1, 1), False,
     (((0, 0, 0),), ('6*Y*Z + 4',), (('irreducible', 'evaluation', 5, {'Z': -1}, None, 'image method mod-p'),), (), 4, 6, (2, 3), 1)),
    (['T^2 + 1'], ('Y',), (1,), True,
     (((0, 1),), ('Y',), (('irreducible', 'mod-p', 3, None, None, ''),), (), None, None, None, 1)),
    (['T + 1'], ('Y',), (3,), True,
     (((0, -1, 0, 1),), ('Y^3 - Y',), (('irreducible', 'mod-p', 2, None, None, ''),), (), None, None, None, 12)),
    (['T^2 - 3'], ('Y', 'Z'), (1, 1), True,
     (((0, 0, 0, 1),), ('Y*Z',), (('irreducible', 'evaluation', 5, {'Z': -1}, None, 'image method mod-p'),), (), None, None, None, 1)),
]

# (polys, degrees, monic, stage plans, Ms, composition, family)
COMPOSE = [
    (['T^2 + 1'], (1, 1), False,
     ((((0,),), ('2*Y',), (('irreducible', 'mod-p', 3, None, None, ''),), (), 0, 2, (2,), 1), (((0,),), ('2*Y',), (('irreducible', 'mod-p', 3, None, None, ''),), (), 0, 2, (2,), 1)),
     ('2*T', '2*T'), '4*T', ('16*T^2 + 1',)),
    (['T'], (2,), False,
     ((((0, 0),), ('2*Y^2 + 1',), (('irreducible', 'mod-p', 5, None, None, ''),), (), 1, 2, (2,), 1),),
     ('2*T^2 + 1',), '2*T^2 + 1', ('2*T^2 + 1',)),
    (['T^2 + 1'], (), False,
     (),
     (), 'T', ('T^2 + 1',)),
    (['T^2 + T + 1'], (1,), False,
     ((((0,),), ('2*Y',), (('irreducible', 'mod-p', 5, None, None, ''),), (), 0, 2, (2,), 1),),
     ('2*T',), '2*T', ('4*T^2 + 2*T + 1',)),
    (['T^2 + 1', 'T + 3'], (1,), False,
     ((((0,),), ('6*Y + 4',), (('irreducible', 'mod-p', 7, None, None, ''), ('irreducible', 'mod-p', 5, None, None, '')), (), 4, 6, (2, 3), 1),),
     ('6*T + 4',), '6*T + 4', ('36*T^2 + 48*T + 17', '6*T + 7')),
    (['T^2 + 1'], (1,), True,
     ((((0, 1),), ('Y',), (('irreducible', 'mod-p', 3, None, None, ''),), (), None, None, None, 1),),
     ('T',), 'T', ('T^2 + 1',)),
]

# (polys, registry, params, d, generic registry, Ms, Fs)
GENERIC = [
    (['Y^2 - T'], ('T', 'Y'), ('T',), ((1,),),
     ('lam0q0', 'lam0q1', 'Y'), ('lam0q1*Y + lam0q0',),
     ('-lam0q1*Y + Y^2 - lam0q0',)),
    (['T'], ('T', 'Y'), ('T',), ((1,),),
     ('lam0q0', 'lam0q1', 'Y'), ('lam0q1*Y + lam0q0',),
     ('lam0q1*Y + lam0q0',)),
    (['T^2 - T + 2'], ('T', 'Y'), ('T',), ((0,),),
     ('lam0q0', 'Y'), ('lam0q0',),
     ('lam0q0^2 - lam0q0 + 2',)),
    (['T + Y1*Y2'], ('T', 'Y1', 'Y2'), ('T',), ((1, 1),),
     ('lam0q0', 'lam0q1', 'lam0q2', 'lam0q3', 'Y1', 'Y2'), ('lam0q3*Y1*Y2 + lam0q1*Y2 + lam0q2*Y1 + lam0q0',),
     ('lam0q3*Y1*Y2 + lam0q1*Y2 + lam0q2*Y1 + Y1*Y2 + lam0q0',)),
    (['T + U*Y', 'T*U - Y'], ('T', 'U', 'Y'), ('T', 'U'), ((1,), (0,)),
     ('lam0q0', 'lam0q1', 'lam1q0', 'Y'), ('lam0q1*Y + lam0q0', 'lam1q0'),
     ('lam0q1*Y + lam1q0*Y + lam0q0', 'lam0q1*lam1q0*Y + lam0q0*lam1q0 - Y')),
]

# (d, samples, seed, m, certificate, samples as (M, content, family index), all_even)
SHARPNESS = [
    (0, 4, 0, 1, ('irreducible', 'mod-p', 3, None, None, ''),
     (('2', 4, 0), ('3', 8, 1), ('-9', 92, 1), ('-2', 8, 0)), True),
    (1, 4, 7, 1, ('irreducible', 'evaluation', 5, {'Y': 0}, None, 'image method mod-p'),
     (('-6*Y', 2, 0), ('10*Y + 2', 2, 0), ('-8*Y - 9', 2, 2), ('-7*Y + 7', 2, 3)), True),
    (0, 1, 0, 1, ('irreducible', 'mod-p', 3, None, None, ''), (('2', 4, 0),), True),
    (2, 3, 1, 1, ('irreducible', 'evaluation', 5, {'T': -1}, None, 'image method mod-p'),
     (('-8*Y^2 + 8*Y - 6', 2, 0), ('5*Y^2 - 7*Y - 2', 2, 3), ('10*Y^2 + 5*Y + 4', 2, 2)), True),
]


@pytest.mark.parametrize("polys,reg,params,d,exact,want", SOLVER)
def test_solver_plans(polys, reg, params, d, exact, want):
    split = VarSplit(params, tuple(n for n in reg if n not in params))
    plan = solve_polynomial_schinzel([parse_poly(e, reg) for e in polys], split, d,
                                     exact_degree=exact)
    assert _plan(plan) == want


def test_solver_skips_a_constant_composition_before_certifying():
    # At the first spiral point M = 0: T - 1 composes to the constant -1, and
    # the first member to Y^16 + 1, which the oracle refuses (degree 16 > 12).
    # The candidate is skipped before any certificate is computed, so the
    # search goes on to M = -Y - 1 instead of stopping at a budget exit.
    reg = ("T", "Y")
    polys = [parse_poly("T*Y^17 - T + Y^16 + 1", reg), parse_poly("T - 1", reg)]
    plan = solve_polynomial_schinzel(polys, VarSplit(("T",), ("Y",)), ((1,),),
                                     exact_degree=False)
    assert _plan(plan) == (
        ((-1, -1),), ("-Y - 1",),
        (("irreducible", "mod-p", 29, None, None, ""), ("irreducible", "mod-p", 2, None, None, "")),
        None, None, None, None, 2,
    )


@pytest.mark.parametrize("polys,variables,d,monic,want", STRONG)
def test_strong_plans(polys, variables, d, monic, want):
    plan = strong_pipeline([parse_poly(e, ("T",)) for e in polys], variables, d, monic=monic)
    assert _plan(plan) == want


@pytest.mark.parametrize("polys,degrees,monic,stages,Ms,composition,family", COMPOSE)
def test_compose_plans(polys, degrees, monic, stages, Ms, composition, family):
    plan = iterated_composition([parse_poly(e, ("T",)) for e in polys], degrees, monic=monic)
    assert tuple(map(_plan, plan.stages)) == stages
    assert tuple(map(str, plan.Ms)) == Ms
    assert str(plan.composition) == composition
    assert tuple(map(str, plan.family)) == family


@pytest.mark.parametrize("polys,reg,params,d,registry,Ms,Fs", GENERIC)
def test_generic_families(polys, reg, params, d, registry, Ms, Fs):
    split = VarSplit(params, tuple(n for n in reg if n not in params))
    gs = generic_substitution([parse_poly(e, reg) for e in polys], split, d)
    assert gs.registry == registry
    assert tuple(M.registry for M in gs.Ms) == (registry,) * len(params)
    assert tuple(map(str, gs.Ms)) == Ms
    assert tuple(map(str, gs.Fs)) == Fs


@pytest.mark.parametrize("d,samples,seed,m,certificate,log,all_even", SHARPNESS)
def test_sharpness_bundles(d, samples, seed, m, certificate, log, all_even):
    b = sharpness_counterexample(d, samples=samples, seed=seed)
    assert b.m == m and b.P == b.P0 + 2 * m
    assert _cert(b.certificate) == certificate
    assert tuple((str(M), c, i) for M, c, i in b.samples) == log
    assert b.all_even == all_even


def test_sharpness_rejects_no_samples():
    # an empty sample log would make all_even true with no evidence
    for samples in (0, -1):
        with pytest.raises(PolyError, match="samples must be at least 1"):
            sharpness_counterexample(0, samples=samples)


def test_no_bridge_registry_in_polyschinzel():
    # every composition is one `substitute` into its codomain registry: no
    # bridge name, no substitute between two renames, and a rename only
    # renames a name (it passes a mapping)
    tree = ast.parse((SRC / "polyschinzel.py").read_text())

    def called(node, attr):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == attr)

    for node in ast.walk(tree):
        assert not (isinstance(node, ast.Name) and "bridge" in node.id), f"line {node.lineno}"
        assert not (isinstance(node, ast.FunctionDef) and node.name == "_compose")
        if called(node, "rename"):
            assert len(node.args) + len(node.keywords) == 2, f"line {node.lineno}"
            assert not called(node.func.value, "substitute"), f"line {node.lineno}"
        if called(node, "substitute"):
            assert not called(node.func.value, "rename"), f"line {node.lineno}"
