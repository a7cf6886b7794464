import random
import time
from fractions import Fraction
from itertools import zip_longest
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schinzel import fixdiv
from schinzel.polyring import PolyError, VarSplit, parse_poly, undense
from schinzel.schinzelcore import (
    HypothesisError,
    bad_prime_set,
    bezout_constant,
    nonvanishing_point,
    progression_witness,
    verify_progression,
)
from schinzel.upoly import mul, trim

REG = ("T", "Y")
SPLIT = VarSplit(("T",), ("Y",))


def P(expr, reg=REG):
    return parse_poly(expr, reg)


def T1(expr):
    return parse_poly(expr, ("T",))


# -- Bezout constants -------------------------------------------------


def test_bezout_examples():
    assert bezout_constant([T1("T"), T1("2")]) == 2
    assert bezout_constant([T1("T"), T1("T + 1")]) == 1
    assert bezout_constant([T1("T^2 + 1"), T1("T")]) == 1


def test_bezout_not_coprime():
    with pytest.raises(PolyError):
        bezout_constant([T1("T"), T1("T^2")])


# Extended Euclid over Q with Fraction coefficients, and the Bezout constant
# that folded it, as `upoly.ext_gcd` and `bezout_constant` ran before their
# arithmetic moved to integer lists; kept here as the reference.


def _divmod(a, b):
    """(q, r) with a = q*b + r and deg r < deg b, over a field; b nonzero."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = c
        for j in range(len(b)):
            a[k + j] -= c * b[j]
        trim(a)
    return q, a


def _sub_mul(a, q, b):
    """a - q*b."""
    return trim([x - y for x, y in zip_longest(a, mul(q, b), fillvalue=0)])


def ext_gcd(a, b):
    """(g, s, t) with s*a + t*b = g, g monic (or zero); Fraction coefficients."""
    r0, r1 = a, b
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mul(s0, q, s1)
        t0, t1 = t1, _sub_mul(t0, q, t1)
    if r0:
        lead = r0[-1]
        r0 = [c / lead for c in r0]
        s0 = [c / lead for c in s0]
        t0 = [c / lead for c in t0]
    return r0, s0, t0


def _fraction_bezout_constant(rows):
    """The Bezout constant of the integer lists `rows` over Q, with PolyError as before."""
    rows = [[Fraction(x) for x in row] for row in rows if any(row)]
    if not rows:
        raise PolyError("all coefficients are zero")
    g = rows[0]
    combo = [[Fraction(1)]] + [[] for _ in rows[1:]]
    for i in range(1, len(rows)):
        g2, s, t = ext_gcd(g, rows[i])
        combo = [mul(s, u) for u in combo]
        combo[i] = t
        g = g2
    if len(g) != 1:
        raise PolyError("inputs are not coprime over the rationals")
    unit = g[0]
    combo = [[c / unit for c in u] for u in combo]
    denoms = [c.denominator for u in combo for c in u]
    return lcm(*denoms) if denoms else 1


def _outcome(f, *args):
    try:
        return f(*args)
    except PolyError as exc:
        return type(exc).__name__, str(exc)


def _int_list(max_degree, bound=9):
    return st.lists(st.integers(-bound, bound), max_size=max_degree + 1).map(trim)


@st.composite
def _bezout_rows(draw):
    """1 to 3 integer lists in T: constants and zeros among them, a common factor
    planted in the first pair (a fold whose first gcd is not 1) or in every row."""
    rows = draw(st.lists(_int_list(4), min_size=1, max_size=3))
    common = draw(_int_list(2, 4).filter(lambda f: len(f) > 1))
    planted = draw(st.sampled_from(["none", "first pair", "all"]))
    if planted != "none":
        k = 2 if planted == "first pair" else len(rows)
        rows = [mul(f, common) if i < k else f for i, f in enumerate(rows)]
    return rows


@settings(max_examples=300, deadline=None)
@given(_bezout_rows())
def test_bezout_constant_matches_the_fraction_fold(rows):
    polys = [undense(f, ("T",), "T") for f in rows]
    assert _outcome(bezout_constant, polys) == _outcome(_fraction_bezout_constant, rows)


def test_bezout_errors_are_unchanged():
    with pytest.raises(PolyError, match="empty coefficient list"):
        bezout_constant([])
    with pytest.raises(PolyError, match=r"several variables: \['S', 'T'\]"):
        bezout_constant([parse_poly("T", ("S", "T")), parse_poly("S", ("S", "T"))])


@pytest.mark.parametrize("degree", [40, 60])
def test_bezout_constant_of_a_large_pair_matches_sympy_gcdex(degree):
    # two random coprime polynomials with coefficients up to 20; sympy's gcdex
    # over QQ gives Euclid's cofactors, whose denominators make delta
    sympy = pytest.importorskip("sympy")
    rng = random.Random(degree)
    a, b = ([rng.randint(-20, 20) for _ in range(degree)] + [rng.randint(1, 20)]
            for _ in range(2))
    x = sympy.Symbol("x")
    s, t, h = sympy.Poly(a[::-1], x, domain="QQ").gcdex(sympy.Poly(b[::-1], x, domain="QQ"))
    assert h.as_expr() == 1
    want = lcm(*[int(sympy.Rational(c).q) for c in s.all_coeffs() + t.all_coeffs()])
    assert bezout_constant([undense(a, ("T",), "T"), undense(b, ("T",), "T")]) == want


def test_bezout_divisibility_property():
    # delta lies in the ideal: delta is an integer combination of values
    delta = bezout_constant([T1("T^2 - 2"), T1("T")])
    assert delta % 1 == 0 and delta >= 1
    # gcd of the two values divides delta at every integer
    import math

    for t in range(-20, 21):
        g = math.gcd(t * t - 2, t)
        assert delta % g == 0


# -- bad primes and CRT point ----------------------------------------


def test_bad_prime_set():
    primes = bad_prime_set(P("T*Y + 2"), SPLIT, 2)
    assert primes == [2]
    primes = bad_prime_set(P("T^3*Y + 2"), SPLIT, 10)
    assert primes == [2, 3, 5]


def test_nonvanishing_point_spec_example():
    # mod 2 only T=1 works; mod 5 every residue works, so no constraint
    assert nonvanishing_point(P("T*Y + 2"), SPLIT, [2, 5]) == (1,)


def test_nonvanishing_point_unconstrained():
    assert nonvanishing_point(P("T*Y + 1"), SPLIT, [2, 3]) == (0,)


def test_nonvanishing_point_fixed_prime():
    with pytest.raises(HypothesisError):
        nonvanishing_point(P("2*T*Y + 2"), SPLIT, [2])


def test_nonvanishing_point_property():
    from schinzel.polyring import reduce_mod

    q = P("(T - 1)*Y + 3")
    v = nonvanishing_point(q, SPLIT, [2, 3, 5])
    for p in (2, 3, 5):
        assert not reduce_mod(q.substitute({"T": v[0]}), p).is_zero()


def test_nonvanishing_point_large_prime_is_fast():
    # t = 0 vanishes, so t = 1 is the witness and p constrains the point
    # without a count of the other residues
    t0 = time.perf_counter()
    assert nonvanishing_point(P("T*Y + T - 1000003"), SPLIT, [1000003]) == (1,)
    assert time.perf_counter() - t0 < 1


def test_nonvanishing_point_root_test_on_the_last_coordinate():
    # T*Y + T + 1 vanishes at no residue: the gcd of its rows over F_p, the
    # constant 1, has no root, so no walk over the p residues is needed
    t0 = time.perf_counter()
    assert nonvanishing_point(P("T*Y + T + 1"), SPLIT, [1000003]) == (0,)
    assert time.perf_counter() - t0 < 0.05


def test_nonvanishing_point_skips_vanishing_prefixes():
    # all 1000003 tuples with T = 0 vanish; the descent settles that prefix
    # with one specialized table instead of a walk over U
    split = VarSplit(("T", "U"), ("Y",))
    q = parse_poly("T*Y + (T - 1000003)*U*Y^2", ("T", "U", "Y"))
    t0 = time.perf_counter()
    assert nonvanishing_point(q, split, [1000003]) == (1, 0)
    assert time.perf_counter() - t0 < 0.05


def test_nonvanishing_point_builds_one_table_per_prime(monkeypatch):
    # mod 3 the witness t = 0 is zero and t = 1 vanishes, so 3 constrains the
    # point; mod 5 the witness is t = 2; mod 2 and 7 no residue vanishes
    built = []
    table = fixdiv._fermat_table

    def counted(split, p):
        built.append(p)
        return table(split, p)

    monkeypatch.setattr(fixdiv, "_fermat_table", counted)
    q = P("(T - 1)*(T - 5)*Y + 15")
    assert nonvanishing_point(q, SPLIT, [2, 3, 5, 7]) == (12,)
    assert built == [2, 3, 5, 7]


# -- progressions -----------------------------------------------------


def test_progression_witness_basic():
    w = progression_witness([P("T*Y + 2")], SPLIT)
    assert w.delta >= 1
    assert w.omega % 2 == 0  # 2 is a bad prime of TY+2
    checks = verify_progression([P("T*Y + 2")], SPLIT, w, range(-3, 4))
    assert all(c.ok for c in checks)


def test_progression_witness_two_params():
    reg = ("T1", "T2", "Y")
    split = VarSplit(("T1", "T2"), ("Y",))
    polys = [parse_poly("T1*Y + T2", reg)]
    w = progression_witness(polys, split)
    checks = verify_progression(polys, split, w, range(-2, 3))
    # t1 = 0 degenerates to the constant-in-Y polynomial T2: the one
    # exceptional point ("all but finitely many") in this range
    bad = [c for c in checks if not c.ok]
    assert [c.t1 for c in bad] == [0]


def test_progression_rejects_fixed_divisor():
    with pytest.raises(HypothesisError) as exc:
        progression_witness([P("(T^2-T)*Y + T^2 - T - 2")], SPLIT)
    assert exc.value.condition == "NoFixDiv"


def test_progression_rejects_imprimitive():
    with pytest.raises(HypothesisError) as exc:
        progression_witness([P("T*Y + T")], SPLIT)
    assert exc.value.condition in ("Prim", "Prim/Q[T]")
