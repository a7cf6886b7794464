import collections

import pytest

from schinzel import polyschinzel
from schinzel.factorlab import is_irreducible_z, kronecker_factor
from schinzel.fixdiv import BudgetExceeded, fixed_prime_divisors, is_fixed_prime
from schinzel.polyring import MPoly, PolyError, VarSplit, parse_poly
from schinzel.polyschinzel import (
    SchinzelRefusal,
    check_degree_conditions,
    ell,
    generic_substitution,
    iterated_composition,
    sharpness_counterexample,
    solve_polynomial_schinzel,
    strong_pipeline,
    verify_no_fixed_divisor_generic,
)
from schinzel.schinzelcore import HypothesisError

REG = ("T", "Y")
SPLIT = VarSplit(("T",), ("Y",))


def P(expr, reg=REG):
    return parse_poly(expr, reg)


def T1(expr):
    return parse_poly(expr, ("T",))


# -- ell and degree conditions ---------------------------------------


def test_ell():
    assert ell((1, 2)) == 6
    assert ell((0,)) == 1
    assert ell((3,)) == 4


def test_degree_conditions_basic():
    c = check_degree_conditions([P("Y^2 - T")], SPLIT, ((1,),))
    assert c.star and c.a and c.b and c.c is False
    assert c.admissible


def test_degree_conditions_sharpness():
    # deg_T = 2 = 2^{ell((0,))}: (b) fails with equality
    c = check_degree_conditions([P("T^2 - T + 2")], SPLIT, ((0,),))
    assert not c.star and not c.a and not c.b and c.c is False
    assert not c.admissible
    assert "(b)" in c.failed()


def test_degree_conditions_star():
    c = check_degree_conditions([P("T")], SPLIT, ((0,),))
    assert not c.star


def test_degree_conditions_near_ufd():
    polys = [P("Y^2 - T"), P("Y^2 - T - 1")]
    gen = check_degree_conditions(polys, SPLIT, ((3,),), mode="general")
    ufd = check_degree_conditions(polys, SPLIT, ((3,),), mode="near-ufd")
    assert gen.c is False  # 3 > 2+2 fails
    assert ufd.c is True  # 3 > max(2,2)


# -- generic substitution --------------------------------------------


def test_generic_substitution_linear():
    gs = generic_substitution([P("Y^2 - T")], SPLIT, ((1,),))
    lam0, lam1 = gs.lam_names[0]
    reg = gs.registry
    M = gs.Ms[0]
    Y = MPoly.var(reg, "Y")
    assert M == MPoly.var(reg, lam1) * Y + MPoly.var(reg, lam0)
    assert gs.Fs[0] == Y * Y - M


def test_generic_substitution_constant_poly():
    gs = generic_substitution([P("T")], SPLIT, ((1,),))
    assert str(gs.Fs[0]) == "lam0q1*Y + lam0q0"


def test_generic_substitution_d0():
    gs = generic_substitution([P("T^2 - T + 2")], SPLIT, ((0,),))
    lam = MPoly.var(gs.registry, "lam0q0")
    assert gs.Fs[0] == lam * lam - lam + MPoly.const(gs.registry, 2)


def test_generic_monomial_counts():
    split = VarSplit(("T",), ("Y1", "Y2"))
    gs = generic_substitution([parse_poly("T + Y1*Y2", ("T", "Y1", "Y2"))],
                              split, ((1, 2),))
    assert len(gs.monomials[0]) == ell((1, 2)) == 6
    # constant first, top monomial last
    assert gs.monomials[0][0] == (0, 0)
    assert gs.monomials[0][-1] == (1, 2)


def test_generic_budget():
    split = VarSplit(("T",), ("Y1", "Y2"))
    # (8 + 1) * (7 + 1) = 72 lambdas; the budget is LAM_BUDGET = 64
    with pytest.raises(BudgetExceeded, match="72 lambda indeterminates exceed the budget 64"):
        generic_substitution([parse_poly("T + Y1", ("T", "Y1", "Y2"))],
                             split, ((8, 7),))
    gs = generic_substitution([parse_poly("T + Y1", ("T", "Y1", "Y2"))], split, ((7, 7),))
    assert len(gs.lam_flat) == 64


def test_generic_members_stay_irreducible():
    # for random small irreducible inputs with deg_Y >= 1 or d != 0, the
    # substituted F_i stay irreducible over Q with deg_Y >= 1
    import random

    from schinzel.factorlab import is_irreducible_q

    rng = random.Random(45)
    done = 0
    while done < 20:
        a = rng.randint(-3, 3) or 1
        b = rng.randint(-3, 3)
        c = rng.randint(-3, 3)
        q = P(f"Y^2 + ({a})*T + ({b})*Y + ({c})")
        if not is_irreducible_q(q).irreducible:
            continue
        gs = generic_substitution([q], SPLIT, ((1,),))
        F = gs.Fs[0]
        assert F.degree_in("Y") >= 1
        assert is_irreducible_q(F).irreducible
        done += 1


# -- generic fixed-divisor verification ------------------------------


def test_generic_fixdiv_clean():
    gs = generic_substitution([P("Y^2 - T")], SPLIT, ((1,),))
    rep = verify_no_fixed_divisor_generic(gs)
    assert rep.confirmed == ()


def test_generic_fixdiv_confirms_two():
    gs = generic_substitution([P("T^2 - T + 2")], SPLIT, ((0,),))
    rep = verify_no_fixed_divisor_generic(gs)
    assert rep.confirmed == (2,)


def test_shortcut_agrees_with_exhaustion():
    # small Lambda: exhaust directly and compare against the report
    gs = generic_substitution([P("Y^2 - T")], SPLIT, ((1,),))
    product = gs.Fs[0]
    for p in (2, 3):
        fixed, _ = is_fixed_prime(product, gs.lam_flat, p)
        rep = verify_no_fixed_divisor_generic(gs)
        assert (p in rep.confirmed) == fixed


# -- solver -----------------------------------------------------------


def test_solver_basic():
    plan = solve_polynomial_schinzel([P("Y^2 - T")], SPLIT, ((1,),))
    M = plan.Ms[0]
    assert M.degree_in("Y") == 1
    comp = P("Y^2 - T").rename(REG).substitute({"T": M.rename(REG)})
    flag, _ = is_irreducible_z(comp.rename(("Y",)))
    assert flag


def test_solver_exact_degree():
    plan = solve_polynomial_schinzel([P("Y^2 - T")], SPLIT, ((2,),))
    assert plan.Ms[0].degree_in("Y") == 2


def test_solver_refuses_sharpness():
    with pytest.raises(SchinzelRefusal) as exc:
        solve_polynomial_schinzel([P("T^2 - T + 2")], SPLIT, ((0,),))
    err = exc.value
    assert err.condition == "(b)"
    assert "(b)" in err.conditions.failed()
    assert err.generic_report.confirmed == (2,)
    assert "fixed prime 2" in err.detail


def test_solver_refuses_reducible_input():
    with pytest.raises(SchinzelRefusal) as exc:
        solve_polynomial_schinzel([P("Y^2 - T^2")], SPLIT, ((1,),))
    assert exc.value.condition == "Irred"


def test_solver_refuses_imprimitive_product():
    with pytest.raises(SchinzelRefusal) as exc:
        solve_polynomial_schinzel([P("2*Y^2 - 2*T - 2")], SPLIT, ((1,),))
    assert exc.value.condition in ("Irred", "Prim")


# -- strong pipeline --------------------------------------------------


def test_strong_single():
    plan = strong_pipeline([T1("T^2 + 1")], ("Y",), (1,))
    assert plan.bad_primes == (2,)
    assert plan.base == 0
    assert plan.omega == 2
    assert str(plan.Ms[0]) == "2*Y"
    assert plan.fixdiv_report.confirmed == ()


def test_strong_pair_desk_run():
    plan = strong_pipeline([T1("T^2 + 1"), T1("T^2 + T + 1")], ("Y",), (1,))
    assert plan.bad_primes == (2, 3)
    assert plan.base == 0
    assert plan.omega == 6
    assert str(plan.Ms[0]) == "6*Y"
    comps = [str(Q.rename(("T", "Y")).substitute(
        {"T": plan.Ms[0].rename(("T", "Y"))}).rename(("Y",)))
        for Q in (T1("T^2 + 1"), T1("T^2 + T + 1"))]
    assert comps == ["36*Y^2 + 1", "36*Y^2 + 6*Y + 1"]
    assert plan.fixdiv_report.confirmed == ()


def test_strong_refuses_fixed_divisor():
    with pytest.raises(HypothesisError) as exc:
        strong_pipeline([T1("T^2 - T + 2")], ("Y",), (1,))
    assert "fixed prime 2" in str(exc.value)


def test_strong_monic_mode():
    plan = strong_pipeline([T1("T^2 + 1")], ("Y",), (1,), monic=True)
    M = plan.Ms[0]
    assert M.degree_in("Y") == 1
    i = M.registry.index("Y")
    assert M.terms[tuple(1 if j == i else 0 for j in range(len(M.registry)))] == 1
    assert plan.fixdiv_report.confirmed == ()


@pytest.mark.parametrize("poly,d,theta,M,tried", [
    ("T^2 + 1", (1,), ((0, 1),), "Y", 1),
    ("T", (2,), ((-1, -1, 1),), "Y^2 - Y - 1", 2),
    ("T - 1", (3,), ((-1, -1, 1, 1),), "Y^3 + Y^2 - Y - 1", 4),
    ("T + 1", (3,), ((0, -1, 0, 1),), "Y^3 - Y", 12),
    ("T^2 - 3", (1, 1), ((0, 0, 0, 1),), "Y*Z", 1),
])
def test_strong_monic_plans(poly, d, theta, M, tried):
    # monic mode is the construction with S empty, theta 0 and omega 1;
    # the first plan in spiral order is part of the contract
    variables = ("Y", "Z")[:len(d)]
    plan = strong_pipeline([T1(poly)], variables, d, monic=True)
    assert (plan.theta, str(plan.Ms[0]), plan.tried) == (theta, M, tried)
    assert (plan.base, plan.omega, plan.bad_primes) == (None, None, None)
    assert plan.fixdiv_report.confirmed == ()


def test_strong_rejects_zero_d():
    with pytest.raises(PolyError):
        strong_pipeline([T1("T^2 + 1")], ("Y",), (0,))


@pytest.mark.parametrize("d, detail", [
    ((-1,), "negative degree bound"),
    ((), r"degree row \(\) does not match 1 variable\(s\)"),
    ((1, 1), r"degree row \(1, 1\) does not match 1 variable\(s\)"),
])
def test_strong_rejects_malformed_d(d, detail):
    # checked by the solver's own degree matrix, before any monomial is listed
    with pytest.raises(PolyError, match=detail):
        strong_pipeline([T1("T^2 + 1")], ("Y",), d)


def test_negative_budget_is_used_up_at_once():
    with pytest.raises(BudgetExceeded, match="no plan within 0 shape tuples"):
        strong_pipeline([T1("T^2 + 1")], ("Y",), (1,), budget=-1)
    with pytest.raises(BudgetExceeded, match="no plan within 0 coefficient tuples"):
        solve_polynomial_schinzel([P("Y^2 - T")], SPLIT, ((1,),), budget=-1)


# -- iterated composition ---------------------------------------------


def test_compose_two_stages():
    plan = iterated_composition([T1("T^2 + 1")], (1, 1))
    assert len(plan.stages) == 2
    final = plan.family[0]
    flag, _ = is_irreducible_z(final)
    assert flag
    assert fixed_prime_divisors(final, ("T",)).confirmed == ()
    # C is the actual tower: P(C(T)) == final
    assert T1("T^2 + 1").substitute({"T": plan.composition}) == final


def test_compose_degree_two_stage():
    plan = iterated_composition([T1("T")], (2,))
    M = plan.Ms[0]
    assert M.degree_in("T") == 2
    flag, _ = is_irreducible_z(plan.family[0])
    assert flag


@pytest.mark.parametrize("degrees", [(2, 2), (1, 1, 1)])
def test_compose_decides_each_tower_polynomial_once(monkeypatch, degrees):
    # a stage's plan certifies the next stage's family, so no polynomial of
    # the tower is decided or given a fixed-prime report a second time
    decided, reported = collections.Counter(), collections.Counter()

    def key(Q):  # one key for a polynomial, whether its name is T or Y
        return tuple(sorted(Q.terms.items()))

    def counting(name, counter):
        inner = getattr(polyschinzel, name)

        def wrapper(Q, *args, **kwargs):
            counter[key(Q)] += 1
            return inner(Q, *args, **kwargs)

        monkeypatch.setattr(polyschinzel, name, wrapper)

    counting("is_irreducible_q", decided)
    counting("is_irreducible_z", decided)
    counting("fixed_prime_divisors", reported)
    plan = iterated_composition([T1("T^2 + 1")], degrees)
    tower = [T1("T^2 + 1")]
    for M in plan.Ms:
        tower.append(tower[-1].substitute({"T": M}))
    assert tower[-1] == plan.family[0]
    assert [(decided[key(Q)], reported[key(Q)]) for Q in tower] == [(1, 1)] * len(tower)
    assert max(decided.values()) == max(reported.values()) == 1


def test_compose_empty():
    plan = iterated_composition([T1("T^2 + 1")], ())
    assert plan.stages == ()
    assert plan.family[0] == T1("T^2 + 1")


# -- sharpness counterexamples ---------------------------------------


def test_sharpness_d0():
    b = sharpness_counterexample(0, samples=50)
    assert b.m == 1
    assert str(b.P) == "T^2 - T + 2"
    assert b.P.degree_in("T") == 2
    assert b.all_even
    # oracle agrees with the certificate
    fact = kronecker_factor(b.P)
    assert len(fact.factors) == 1 and fact.factors[0][1] == 1


def test_sharpness_d1():
    b = sharpness_counterexample(1, samples=50, seed=7)
    assert b.P.degree_in("T") == 4  # 2^{d+1}
    assert len(b.family) == 4
    assert b.all_even
    # every sampled M matched a mod-2 residue in the family
    assert all(idx is not None for _, _, idx in b.samples)


def test_sharpness_negative_d():
    with pytest.raises(PolyError):
        sharpness_counterexample(-1)
