import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schinzel.polyring import (
    MPoly,
    ParseError,
    PolyError,
    RegistryMismatch,
    VarSplit,
    dense,
    parse_poly,
    reduce_mod,
    undense,
)

REG = ("T", "Y")


def P(expr, reg=REG):
    return parse_poly(expr, reg)


# -- parser -----------------------------------------------------------


def test_parse_basic():
    assert str(P("T^2 - T + 2")) == "T^2 - T + 2"
    assert str(P("(T^2-T)*Y + T^2 - T - 2")) == "T^2*Y + T^2 - T*Y - T - 2"


def test_parse_unary_minus_and_parens():
    assert P("-(T - Y)") == P("Y - T")
    assert P("-T^2") == -P("T^2")
    assert P("2 - -3") == MPoly.const(REG, 5)


@pytest.mark.parametrize("expr, want", [
    ("+T", "T"),
    ("--T", "T"),
    ("T +- Y", "T - Y"),
    ("T - - - Y", "T - Y"),
    ("-T^2 + +Y", "-T^2 + Y"),
    ("T +", ParseError("unexpected end of expression", 3)),
    ("+", ParseError("unexpected end of expression", 1)),
])
def test_parse_sign_runs(expr, want):
    # a run of signs before any term; a term after the first needs a nonempty run
    if isinstance(want, ParseError):
        with pytest.raises(ParseError, match=f"^{re.escape(str(want))}$"):
            P(expr)
    else:
        assert str(P(expr)) == want


def test_parse_explicit_multiplication_required():
    with pytest.raises(ParseError):
        P("2T")
    with pytest.raises(ParseError):
        P("T Y")


def test_parse_unknown_name():
    with pytest.raises(ParseError):
        P("T + Z")


def test_parse_ascii_digits_only():
    # "²" and the Arabic-Indic "٣" pass str.isdigit but are not integers here
    for expr in ["T^²", "T^2 + 1٣", "٣ + T", "T^٣"]:
        with pytest.raises(ParseError):
            P(expr)
    assert P("T^2 + 13") == P("13 + T*T")


def test_parse_deep_nesting_is_a_parse_error():
    # each parenthesis costs the parser four frames: 3,000 levels pass the default limit
    with pytest.raises(ParseError, match="expression nested too deeply"):
        P("(" * 3000 + "T" + ")" * 3000)
    assert P("(" * 100 + "T" + ")" * 100) == P("T")


def test_parse_power():
    assert P("(T+1)^3") == P("T^3 + 3*T^2 + 3*T + 1")


def test_str_parse_roundtrip():
    for expr in ["T^2*Y - 3*Y + 7", "-T + 1", "0", "-12", "T*Y*T"]:
        q = P(expr)
        assert P(str(q)) == q


# -- arithmetic -------------------------------------------------------

coeffs = st.integers(-9, 9)


def rand_poly(draw_terms):
    terms = {}
    for (a, b), c in draw_terms:
        if c:
            terms[(a, b)] = terms.get((a, b), 0) + c
    return MPoly(REG, {e: c for e, c in terms.items() if c})


polys = st.lists(
    st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)), coeffs),
    max_size=6,
).map(rand_poly)


@given(polys, polys, polys)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == MPoly.zero(REG)
    assert a * MPoly.const(REG, 1) == a


@given(polys, polys)
@settings(max_examples=100, deadline=None)
def test_degree_of_product(a, b):
    if not a.is_zero() and not b.is_zero():
        assert a.total_degree() + b.total_degree() == (a * b).total_degree()


@given(polys, st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_power_is_repeated_product(a, n):
    expected = MPoly.const(REG, 1)
    for _ in range(n):
        expected = expected * a
    assert a**n == expected


def test_registry_mismatch():
    with pytest.raises(RegistryMismatch):
        P("T") + parse_poly("T", ("T",))


def test_immutable():
    q = P("T + 1")
    with pytest.raises(Exception):
        q.terms = {}


def test_degrees():
    q = P("T^2*Y - Y^3")
    assert q.degree_in("T") == 2
    assert q.degree_in("Y") == 3
    assert q.total_degree() == 3
    assert MPoly.zero(REG).degree_in("T") == -1


def test_content_primitive():
    q = P("6*T - 4")
    assert q.content() == 2
    assert q.primitive_part() == P("3*T - 2")
    assert MPoly.zero(REG).content() == 0


def test_substitute_and_evaluate():
    q = P("T^2*Y + 3")
    assert q.substitute({"T": 2}) == P("4*Y + 3")
    assert q.substitute({"T": P("Y")}) == P("Y^3 + 3")
    assert q.evaluate({"T": 2, "Y": -1}) == -1


def test_substitute_is_homomorphism():
    a, b = P("T^2 - Y"), P("T*Y + 2")
    bind = {"T": P("Y + 1")}
    assert (a * b).substitute(bind) == a.substitute(bind) * b.substitute(bind)
    assert (a + b).substitute(bind) == a.substitute(bind) + b.substitute(bind)


def test_evaluate_unknown_variable():
    q = parse_poly("x^2+y", ("x", "y"))
    with pytest.raises(PolyError, match="unknown variable 'z'"):
        q.evaluate({"x": 1, "y": 2, "z": 3})


# -- substitution against evaluation -----------------------------------

REG3 = ("T", "U", "Y")
small = st.integers(-4, 4)


def terms_over(reg, max_exp, max_size):
    expos = st.tuples(*[st.integers(0, max_exp) for _ in reg])
    return st.lists(st.tuples(expos, coeffs), max_size=max_size).map(
        lambda pairs: MPoly(reg, dict(pairs))
    )


polys3 = terms_over(REG3, 3, 6)
points3 = st.fixed_dictionaries({name: small for name in REG3})


@given(polys3)
@settings(max_examples=150, deadline=None)
def test_leading_coefficient_is_first_sorted_term(a):
    # the graded-lex maximum, read without sorting every term
    want = a.sorted_terms()[0][1] if a.terms else 0
    assert a.leading_coefficient() == want


@given(polys3, points3)
@settings(max_examples=150, deadline=None)
def test_substitute_full_integer_point_is_evaluate(a, point):
    value = a.substitute(point)
    assert value.is_constant()
    assert value.constant_value() == a.evaluate(point)


@given(polys3, small, st.one_of(small, terms_over(REG3, 2, 3)))
@settings(max_examples=150, deadline=None)
def test_substitute_at_once_equals_successive(a, t, u):
    if isinstance(u, MPoly):
        u = u.substitute({"T": 1, "U": 1})  # a value in Y alone
    at_once = a.substitute({"T": t, "U": u})
    assert at_once == a.substitute({"T": t}).substitute({"U": u})
    assert at_once == a.substitute({"U": u}).substitute({"T": t})


@given(polys3, small, small)
@settings(max_examples=150, deadline=None)
def test_substitute_int_equals_constant_polynomial(a, t, u):
    as_ints = a.substitute({"T": t, "U": u})
    as_consts = a.substitute({"T": MPoly.const(REG3, t), "U": MPoly.const(REG3, u)})
    assert as_ints == as_consts


@given(polys3, small, terms_over(REG3, 2, 3), points3)
@settings(max_examples=150, deadline=None)
def test_substitute_mixed_bindings_then_point(a, t, q, point):
    image = a.substitute({"T": t, "U": q}).substitute(point)
    expected = a.evaluate({"T": t, "U": q.evaluate(point), "Y": point["Y"]})
    assert image.constant_value() == expected


@given(polys3, polys3, small, terms_over(REG3, 2, 3))
@settings(max_examples=150, deadline=None)
def test_results_are_canonical(a, b, t, q):
    results = [a + b, a - b, a * b, -a, a + 3, 2 * a,
               a.substitute({"T": t}), a.substitute({"U": q, "Y": t})]
    for r in results:
        assert all(type(v) is int and v != 0 for v in r.terms.values())
        rebuilt = MPoly(r.registry, r.terms)
        assert rebuilt == r and hash(rebuilt) == hash(r)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    assert hash(a - a) == hash(MPoly.zero(REG3))


@given(polys3, st.integers(-6, 6))
@settings(max_examples=150, deadline=None)
def test_primitive_part_is_canonical(a, k):
    for q in (a, k * a):
        pp = q.primitive_part()
        assert all(type(v) is int and v != 0 for v in pp.terms.values())
        rebuilt = MPoly(pp.registry, pp.terms)
        assert rebuilt == pp and hash(rebuilt) == hash(pp)
        if not q.is_zero():
            assert pp.content() == 1
            assert q.content() * pp == q


def test_cancellation_leaves_no_zero_term():
    x = parse_poly("x", ("x",))
    assert (x - x).terms == {}
    assert x - x == MPoly.zero(("x",))
    q = P("T*Y - 2*Y")
    assert q.substitute({"T": 2}).terms == {}
    assert q.substitute({"T": P("Y") - P("Y") + 2}).terms == {}


def test_rename():
    q = parse_poly("Y^2 + Y", ("Y",))
    r = q.rename(REG, {"Y": "T"})
    assert r == P("T^2 + T")


def test_rename_checks_only_occurring_names():
    q = P("T^2 + 1")  # Y is in the registry but does not occur
    assert q.rename(("T",)) == parse_poly("T^2 + 1", ("T",))
    assert q.rename(("S",), {"T": "S", "Y": "W"}) == parse_poly("S^2 + 1", ("S",))
    with pytest.raises(PolyError, match="variable 'T' missing from target registry"):
        q.rename(("Y",))
    with pytest.raises(PolyError, match="variable 'S' missing from target registry"):
        q.rename(("Y",), {"T": "S"})


# -- substitution into another registry --------------------------------


def test_substitute_into_another_registry():
    q = P("T^2*Y + 3")
    M = parse_poly("Y + 1", ("Y",))
    assert q.substitute({"T": M}, ("Y",)) == parse_poly("Y^3 + 2*Y^2 + Y + 3", ("Y",))
    assert q.substitute({"T": 2}, ("S", "Y")) == parse_poly("4*Y + 3", ("S", "Y"))
    with pytest.raises(PolyError, match="variable 'Y' missing from target registry"):
        q.substitute({"T": 2}, ("T",))
    assert P("T + 1").substitute({}, ("T",)) == parse_poly("T + 1", ("T",))


def test_substitute_value_on_a_third_registry_raises():
    q = P("T^2*Y + 3")
    with pytest.raises(RegistryMismatch):
        q.substitute({"T": parse_poly("Z + 1", ("Z",))}, ("Y", "W"))
    with pytest.raises(RegistryMismatch):  # on the source registry, not the target
        q.substitute({"T": P("Y")}, ("Y",))


def _rename_by_loop(q, registry):
    """Copy q onto registry, name for name, by the exponent loop itself."""
    pos = {}
    for i, name in enumerate(q.registry):
        if any(e[i] for e in q.terms):
            if name not in registry:
                raise PolyError(f"variable {name!r} missing from target registry")
            pos[i] = registry.index(name)
    terms = {}
    for expo, coeff in q.terms.items():
        new = [0] * len(registry)
        for i, e in enumerate(expo):
            if e:
                new[pos[i]] += e
        terms[tuple(new)] = coeff
    return MPoly(registry, terms)


def _bridge_compose(q, bindings, registry):
    """q with its bound names replaced, composed through a bridge registry.

    Both sides are copied onto the bound names followed by the rest of
    `registry`, substituted there on one registry, and copied back.
    """
    bridge = tuple(bindings) + tuple(n for n in registry if n not in bindings)
    bound = {t: v if isinstance(v, int) else _rename_by_loop(v, bridge)
             for t, v in bindings.items()}
    return _rename_by_loop(_rename_by_loop(q, bridge).substitute(bound), registry)


@st.composite
def ring_maps(draw):
    """(P on REG3, bindings, target registry) with values on the target."""
    a = draw(polys3)
    target = tuple(draw(st.lists(st.sampled_from(REG3 + ("Z",)), unique=True, max_size=4)))
    names = draw(st.lists(st.sampled_from(REG3), unique=True, max_size=3))
    values = st.one_of(small, terms_over(target, 2, 3))
    return a, {name: draw(values) for name in names}, target


@given(ring_maps())
@settings(max_examples=300, deadline=None)
def test_substitute_into_a_registry_is_the_bridge_composition(case):
    a, bindings, target = case
    try:
        want = _bridge_compose(a, bindings, target)
    except PolyError as exc:
        with pytest.raises(PolyError, match=re.escape(str(exc))):
            a.substitute(bindings, target)
        return
    got = a.substitute(bindings, target)
    assert got == want and got.registry == target
    assert all(type(v) is int and v != 0 for v in got.terms.values())


# -- splits and profiles ---------------------------------------------


def test_varsplit_invariants():
    s = VarSplit(("T",), ("Y",))
    assert s.k == 1 and s.n == 1
    with pytest.raises(PolyError):
        VarSplit(("T",), ())
    with pytest.raises(PolyError):
        VarSplit(("T",), ("T",))


def test_repeated_names_are_rejected():
    with pytest.raises(PolyError, match="repeated name 'Y'"):
        VarSplit(("T",), ("Y", "Y"))
    with pytest.raises(PolyError, match="repeated name 'T'"):
        parse_poly("T + Y", ("T", "Y", "T"))


# -- coefficient view -------------------------------------------------


@given(polys3, st.lists(st.sampled_from(REG3), unique=True))
@settings(max_examples=200, deadline=None)
def test_coefficients_reassemble(a, names):
    view = a.coefficients(names)
    assert list(view) == sorted(view)
    total = MPoly.zero(REG3)
    for key, c in view.items():
        assert c.registry == REG3 and not c.is_zero()
        assert all(c.degree_in(n) == 0 for n in names)
        expo = tuple(key[names.index(n)] if n in names else 0 for n in REG3)
        total = total + c * MPoly(REG3, {expo: 1})
    assert total == a
    assert a.coefficients(()) == ({(): a} if not a.is_zero() else {})


def test_dense():
    assert dense(P("3*Y^2 - 1"), "Y") == [-1, 0, 3]
    assert dense(P("5"), "Y") == [5]
    assert dense(MPoly.zero(REG), "Y") == []
    assert dense(reduce_mod(P("3*Y^2 - 1"), 3), "Y") == [2]
    for f in ("3*Y^2 - 1", "5", "0", "Y^7 - 2*Y^3"):
        assert undense(dense(P(f), "Y"), REG, "Y") == P(f)


# -- residues ---------------------------------------------------------


def test_reduce_mod():
    q = P("6*T + 4*Y + 3")
    r = reduce_mod(q, 2)
    assert r.terms == {(0, 0): 1}
    assert reduce_mod(P("2*T"), 2).is_zero()
    # the queries see the reduced terms only: 4*Y vanishes mod 2
    assert r.variables() == [] and r.degree_in("Y") == 0
    r = reduce_mod(P("3*T^2 + 4*Y + 1"), 3)
    assert r.variables() == ["Y"] and r.degree_in("T") == 0 and r.degree_in("Y") == 1
    assert reduce_mod(P("2*T"), 2).degree_in("T") == -1


@given(polys3, st.integers(2, 12))
@settings(max_examples=100, deadline=None)
def test_reduce_mod_is_the_mpoly_of_residues(a, m):
    assert reduce_mod(a, m) == MPoly(a.registry, {e: c % m for e, c in a.terms.items()})


def test_reduce_mod_invalid_modulus():
    with pytest.raises(PolyError):
        reduce_mod(P("T"), 1)
