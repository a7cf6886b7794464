"""The dense univariate kernel (`schinzel.upoly`) against sympy's `Poly`.

Every operation is checked over Z, over Q or over F_p (`modulus=p`), on
Hypothesis-drawn coefficient lists, constant term first.
"""

import itertools
from fractions import Fraction
from itertools import zip_longest
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schinzel.numutil import is_prime, primes_upto
from schinzel.polyring import PolyError
from schinzel.upoly import (
    _iroot,
    _packed,
    binomial_irreducible,
    discriminant,
    evaluate,
    exact_quotient,
    fp_coprime,
    fp_gcd,
    fp_distinct_degree,
    fp_has_root,
    fp_irreducible,
    fp_powmod,
    fp_rem,
    gcd,
    mul,
    parity_allows,
    trim,
    xgcd,
)
from test_schinzelcore import ext_gcd  # the Fraction Euclid, kept as a reference

sympy = pytest.importorskip("sympy")
x = sympy.Symbol("x")

PRIMES = primes_upto(60)
# fp_irreducible scans for roots below 256 only; these primes take the powering alone
LARGE_PRIMES = [257, 263, 509, 1009]
SMALL_PRIMES = primes_upto(31)  # small enough to test every residue
# proved primes whose packed slots are wider than 8 bytes
WIDE_PRIMES = [2**64 + 13, 2**80 - 65]
INTS = st.integers(-40, 40)
RATS = st.fractions(min_value=-12, max_value=12, max_denominator=9)


def _lists(coeff, max_size=8):
    return st.lists(coeff, max_size=max_size).map(trim)


def _nonzero(coeff, max_size=8):
    return _lists(coeff, max_size).filter(bool)


def _poly(f, **opts):
    return sympy.Poly(list(reversed(f)), x, **opts)


def _ints(poly):
    return trim([int(c) for c in reversed(poly.all_coeffs())])


def _rats(poly):
    return trim([Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())])


def _mod(poly, p):
    return trim([int(c) % p for c in reversed(poly.all_coeffs())])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=8))
def test_trim_matches_sympy_in_place(f):
    before = list(f)
    out = trim(f)
    assert out is f
    assert out == _ints(_poly(before, domain="ZZ"))


@settings(max_examples=200, deadline=None)
@given(_lists(INTS), _lists(INTS))
def test_mul_over_z(a, b):
    assert mul(a, b) == _ints(_poly(a, domain="ZZ") * _poly(b, domain="ZZ"))


@settings(max_examples=100, deadline=None)
@given(_lists(RATS, 6), _lists(RATS, 6))
def test_mul_over_q(a, b):
    assert mul(a, b) == _rats(_poly(a, domain="QQ") * _poly(b, domain="QQ"))


@settings(max_examples=200, deadline=None)
@given(_lists(INTS), st.integers(-30, 30))
def test_evaluate_over_z(f, v):
    assert evaluate(f, v) == int(_poly(f, domain="ZZ").eval(v))


@settings(max_examples=200, deadline=None)
@given(_lists(INTS, 6), _nonzero(st.integers(-6, 6), 4), _lists(st.integers(-2, 2), 3),
       st.booleans())
def test_exact_quotient_over_z(a, g, noise, multiple):
    # half the dividends are multiples of g, so both outcomes are reached
    f = mul(a, g)
    if not multiple:
        f = trim([x + y for x, y in zip_longest(f, noise, fillvalue=0)])
    snapshot = list(f)
    q, r = _poly(f, domain="QQ").div(_poly(g, domain="QQ"))
    want = _rats(q)
    if not r.is_zero or any(c.denominator != 1 for c in want):
        want = None
    assert exact_quotient(f, g) == want
    assert f == snapshot  # the dividend is not changed


@settings(max_examples=150, deadline=None)
@given(_nonzero(RATS, 6), _nonzero(RATS, 6), _lists(RATS, 3))
def test_ext_gcd_over_q(a, b, common):
    # a common factor makes the gcd nontrivial in a share of the cases
    a, b = mul(a, common) or a, mul(b, common) or b
    g, s, t = ext_gcd(a, b)
    want_s, want_t, want_g = _poly(a, domain="QQ").gcdex(_poly(b, domain="QQ"))
    assert g == _rats(want_g)
    assert s == _rats(want_s)
    assert t == _rats(want_t)


@settings(max_examples=200, deadline=None)
@given(_lists(INTS, 6), _lists(INTS, 6), _lists(st.integers(-5, 5), 3))
def test_gcd_over_z(a, b, common):
    a, b = mul(a, common) or a, mul(b, common) or b
    if not a and not b:
        with pytest.raises(PolyError):
            gcd(a, b)
        return
    want = sympy.gcd(_poly(a, domain="ZZ"), _poly(b, domain="ZZ"))
    assert gcd(a, b) == _ints(want.primitive()[1])  # sympy's lead is positive


@settings(max_examples=200, deadline=None)
@given(_lists(INTS, 7), _lists(INTS, 7), _lists(st.integers(-5, 5), 3))
def test_xgcd_is_euclid_over_q_times_the_lead(a, b, common):
    a, b = mul(a, common) or a, mul(b, common) or b
    if not a and not b:
        return
    g, s, t = xgcd(a, b)
    combo = [u + v for u, v in zip_longest(mul(s, a), mul(t, b), fillvalue=0)]
    assert trim(combo) == g  # exactly, over Z
    want = ext_gcd([Fraction(c) for c in a], [Fraction(c) for c in b])
    assert [[Fraction(c, g[-1]) for c in f] for f in (g, s, t)] == list(want)


@st.composite
def _fp_divisor(draw, primes=PRIMES):
    """(p, integer list whose leading coefficient p does not divide)."""
    p = draw(st.sampled_from(primes))
    b = draw(_nonzero(INTS, 7))
    lead = draw(INTS.filter(lambda c: c % p))
    return p, b[:-1] + [lead]


@settings(max_examples=200, deadline=None)
@given(_lists(INTS, 12), _fp_divisor())
def test_fp_rem_matches_sympy(a, pb):
    p, b = pb
    want = _mod(_poly(a, modulus=p).rem(_poly(b, modulus=p)), p)
    assert fp_rem(list(a), b, p) == want


def _monic(m, p):
    inv = pow(m[-1], -1, p)
    return [c * inv % p for c in m]


@settings(max_examples=200, deadline=None)
@given(_lists(INTS), _lists(INTS), _fp_divisor(PRIMES + LARGE_PRIMES + WIDE_PRIMES))
def test_packed_mul_matches_sympy(a, b, pm):
    p, m = pm
    if len(m) < 2:
        m = [1] + m
    want = _mod((_poly(a, modulus=p) * _poly(b, modulus=p)).rem(_poly(m, modulus=p)), p)
    pack, unpack, mulmod, _ = _packed(_monic(m, p), p)
    a, b = pack(fp_rem(list(a), m, p)), pack(fp_rem(list(b), m, p))
    assert trim(unpack(mulmod(a, b))) == want


@settings(max_examples=300, deadline=None)
@given(_fp_divisor())
def test_fp_irreducible_matches_sympy(pf):
    p, f = pf
    if len(f) < 2:
        f = [1] + f
    assert fp_irreducible(f, p) == _poly(f, modulus=p).is_irreducible


@st.composite
def _fp_poly(draw, degree):
    """(p, integer list of the given degree whose leading coefficient p does not divide).

    Half of them are products of two factors, so reducible cases are common
    at every prime.
    """
    p = draw(st.sampled_from(PRIMES + LARGE_PRIMES))
    lead = draw(INTS.filter(lambda c: c % p))
    if degree > 1 and draw(st.booleans()):
        k = draw(st.integers(1, degree - 1))
        g = draw(st.lists(INTS, min_size=k, max_size=k)) + [1]
        h = draw(st.lists(INTS, min_size=degree - k, max_size=degree - k)) + [lead]
        return p, mul(g, h)
    return p, draw(st.lists(INTS, min_size=degree, max_size=degree)) + [lead]


@pytest.mark.parametrize("degree", range(1, 11))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fp_irreducible_both_sides_of_the_root_scan(degree, data):
    p, f = data.draw(_fp_poly(degree))
    assert fp_irreducible(f, p) == _poly(f, modulus=p).is_irreducible


@pytest.mark.parametrize("degree", range(2, 7))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fp_irreducible_tells_its_root_exit(degree, data):
    # below 256 a root mod p exits with False, like every other reducible verdict
    p, f = data.draw(_fp_poly(degree))
    verdict = fp_irreducible(f, p)
    assert verdict is True or verdict is False
    assert verdict == _poly(f, modulus=p).is_irreducible


@st.composite
def _quadratic(draw, primes):
    """(p, [c, b, a]) with p not dividing a; half of them with b^2 - 4ac = 0 mod p."""
    p = draw(st.sampled_from(primes))
    a = draw(INTS.filter(lambda v: v % p))  # negative and non-unit leads included
    b, c = draw(INTS), draw(INTS)
    if draw(st.booleans()):
        if p == 2:
            b -= b % 2
        else:  # c = b^2 / 4a mod p, shifted by a multiple of p
            c = b * b * pow(4 * a, -1, p) % p + p * draw(st.integers(-3, 3))
        assert (b * b - 4 * a * c) % p == 0
    return p, [c, b, a]


@pytest.mark.parametrize("primes", [
    [2],  # Euler's criterion needs an odd p: 2 keeps the root scan
    primes_upto(255)[1:],  # odd p below the root scan's bound
    [p for p in primes_upto(300) if p > 256],  # above it
])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fp_irreducible_decides_quadratics(primes, data):
    p, f = data.draw(_quadratic(primes))
    assert fp_irreducible(f, p) == _poly(f, modulus=p).is_irreducible


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fp_irreducible_decides_every_cubic_mod_small_primes(p):
    # a cubic is irreducible iff it has no root; the discriminant test must agree
    for d, c, b, a in itertools.product(range(p), range(p), range(p), range(1, p)):
        f = [d, c, b, a]
        assert fp_irreducible(f, p) == all(evaluate(f, r) % p for r in range(p)), f


@st.composite
def _cubic(draw, primes):
    """(p, [d, c, b, a]) with p not dividing a; half of them with discriminant 0 mod p."""
    p = draw(st.sampled_from(primes))
    a = draw(INTS.filter(lambda v: v % p))  # negative and non-unit leads included
    if draw(st.booleans()):  # a*(x - r)^2*(x - s), shifted by multiples of p
        r, s = draw(INTS), draw(INTS)
        f = mul(mul([-r, 1], [-r, 1]), [-a * s, a])
        f = [v + p * draw(st.integers(-3, 3)) for v in f]
        assert discriminant(f) % p == 0
        return p, f
    return p, draw(st.lists(INTS, min_size=3, max_size=3)) + [a]


@pytest.mark.parametrize("primes", [
    [2],  # Stickelberger's test needs an odd p: 2 keeps the root scan
    primes_upto(255)[1:],  # odd p below the root scan's bound
    [p for p in primes_upto(300) if p > 256],  # above it
])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fp_irreducible_decides_cubics(primes, data):
    p, f = data.draw(_cubic(primes))
    assert discriminant(f) == _poly(f).discriminant()
    assert fp_irreducible(f, p) == _poly(f, modulus=p).is_irreducible


def _reducible_quartics(p):
    """Every quartic mod p with a factor of degree 1 or 2, as a tuple in [0, p), by products."""
    monic = {k: [list(c) + [1] for c in itertools.product(range(p), repeat=k)] for k in (1, 2, 3)}
    return {tuple(c * a % p for c in mul(g, h))
            for k in (1, 2) for g in monic[k] for h in monic[4 - k] for a in range(1, p)}


@pytest.mark.parametrize("p", [3, 5])
def test_fp_irreducible_decides_every_quartic_mod_small_primes(p):
    # against a brute-force factor search; the discriminant's rule must agree everywhere
    reducible = _reducible_quartics(p)
    seen = {"D = 0": 0, "root-free": 0, "irreducible": 0}
    for f in itertools.product(range(p), repeat=5):
        if not f[-1]:
            continue
        f, want = list(f), f not in reducible
        assert fp_irreducible(f, p) is want, f
        seen["D = 0"] += discriminant(f) % p == 0
        if all(evaluate(f, r) % p for r in range(p)):  # fp_distinct_degree's precondition
            seen["root-free"] += 1
            assert fp_distinct_degree(f, p) is want, f
        seen["irreducible"] += want
    # 2*(p^4 - p^2)/4 monic irreducible quartics per lead, and repeated factors among the rest
    assert seen["irreducible"] == (p - 1) * (p**4 - p**2) // 4
    assert min(seen.values()) > 0


@st.composite
def _quartic(draw, primes):
    """(p, [e, d, c, b, a]) with p not dividing a; a third with discriminant 0 mod p.

    Another third are products of two quadratics, whose discriminant is a
    square mod p when they are squarefree and root-free.
    """
    p = draw(st.sampled_from(primes))
    a = draw(INTS.filter(lambda v: v % p))  # negative and non-unit leads included
    kind = draw(st.sampled_from(["D = 0", "two quadratics", "any"]))
    if kind == "D = 0":  # a*(x - r)^2*(x^2 + s*x + t), shifted by multiples of p
        r = draw(INTS)
        f = mul(mul([-r, 1], [-r, 1]), [a * draw(INTS), a * draw(INTS), a])
        f = [v + p * draw(st.integers(-3, 3)) for v in f]
        assert discriminant(f) % p == 0
        return p, f
    if kind == "two quadratics":
        return p, mul([draw(INTS), draw(INTS), 1], [draw(INTS), draw(INTS), a])
    return p, draw(st.lists(INTS, min_size=4, max_size=4)) + [a]


@pytest.mark.parametrize("primes", [
    [2],  # Stickelberger's test needs an odd p: 2 keeps the root scan and the powering
    primes_upto(255)[1:],  # odd p below the root scan's bound
    [p for p in primes_upto(300) if p > 256],  # above it
])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fp_irreducible_decides_quartics(primes, data):
    p, f = data.draw(_quartic(primes))
    want = _poly(f, modulus=p).is_irreducible
    assert fp_irreducible(f, p) == want
    if p > 256 or all(evaluate(f, r) % p for r in range(p)):
        assert fp_distinct_degree(f, p) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**30, 10**30), min_size=4, max_size=4),
       st.integers(-10**30, 10**30).filter(bool))
def test_quartic_discriminant_matches_sympy(low, lead):
    f = low + [lead]
    assert discriminant(f) == _poly(f).discriminant()


@st.composite
def _discriminant_case(draw):
    """(f, square): f of degree 1..12 with coefficients up to 10^30, or square = True and g^2 * h.

    Negative and non-unit leads, and f(0) = 0, are included; g^2 * h has D = 0.
    Sparse coefficients make remainder sequences that skip degrees.
    """
    sparse = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    coeff = draw(st.sampled_from([INTS, st.integers(-10**30, 10**30), sparse]))
    lead = coeff.filter(bool)
    if draw(st.booleans()):
        g = draw(st.lists(coeff, min_size=1, max_size=3)) + [draw(lead)]
        dh = draw(st.integers(0, 12 - 2 * (len(g) - 1)))
        return mul(mul(g, g), draw(st.lists(coeff, min_size=dh, max_size=dh)) + [draw(lead)]), True
    n = draw(st.integers(1, 12))
    f = draw(st.lists(coeff, min_size=n, max_size=n)) + [draw(lead)]
    if draw(st.booleans()):
        f[0] = 0
    return f, False


@settings(max_examples=300, deadline=None)
@given(_discriminant_case())
def test_discriminant_matches_sympy_at_every_degree(case):
    f, square = case
    want = _poly(f).discriminant()
    assert discriminant(f) == want
    assert want == 0 or not square


@st.composite
def _parity_case(draw, primes):
    """(p, f) with 5 <= deg f <= 12 and p not dividing f's lead; a third with D = 0 mod p.

    Another third are products of two factors, so that f mod p often splits
    into an even or odd number of irreducible factors.
    """
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(5, 12))
    a = draw(INTS.filter(lambda v: v % p))  # negative and non-unit leads included
    kind = draw(st.sampled_from(["D = 0", "product", "any"]))
    if kind == "D = 0":  # (x - r)^2 * h, shifted by multiples of p
        r = draw(INTS)
        f = mul(mul([-r, 1], [-r, 1]), draw(st.lists(INTS, min_size=n - 2, max_size=n - 2)) + [a])
        return p, [v + p * draw(st.integers(-3, 3)) for v in f]
    if kind == "product":
        k = draw(st.integers(1, n - 1))
        g = draw(st.lists(INTS, min_size=k, max_size=k)) + [1]
        return p, mul(g, draw(st.lists(INTS, min_size=n - k, max_size=n - k)) + [a])
    return p, draw(st.lists(INTS, min_size=n, max_size=n)) + [a]


@pytest.mark.parametrize("primes", [
    [3, 5, 7, 11],  # each divides some degree from 5 to 12
    primes_upto(255)[5:],  # odd p below the root scan's bound
    [p for p in primes_upto(300) if p > 256],  # above it
])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parity_rule_matches_the_factorization_mod_p(primes, data):
    # Stickelberger: D = 0 mod p iff f has a repeated factor mod p, else (D/p) = (-1)^(n - r)
    p, f = data.draw(_parity_case(primes))
    n, D = len(f) - 1, discriminant(f)
    _, factors = _poly(f, modulus=p).factor_list()
    irreducible = len(factors) == 1 and factors[0][1] == 1
    if any(e > 1 for _, e in factors):
        assert D % p == 0
    else:
        assert pow(D, (p - 1) // 2, p) == (1 if (n - len(factors)) % 2 == 0 else p - 1)
    if irreducible:  # no f irreducible mod p is rejected, so every rejected f is reducible
        assert parity_allows(D, n, p)


def test_parity_rule_passes_every_irreducible_quintic_mod_3():
    # against a brute-force factor search: (3^5 - 3)/5 = 48 monic irreducible quintics
    p, n = 3, 5
    monic = {k: [list(c) + [1] for c in itertools.product(range(p), repeat=k)] for k in range(1, n)}
    reducible = {tuple(c % p for c in mul(g, h)) for k in (1, 2) for g in monic[k]
                 for h in monic[n - k]}
    irreducible = [list(c) + [1] for c in itertools.product(range(p), repeat=n)
                   if c + (1,) not in reducible]
    assert len(irreducible) == 48 and len(reducible) == p**n - 48
    assert all(parity_allows(discriminant(f), n, p) for f in irreducible)
    assert not all(parity_allows(discriminant(list(f)), n, p) for f in reducible)


def test_a_quartic_at_odd_p_below_the_scan_bound_is_never_packed(monkeypatch):
    from schinzel import upoly

    calls = []
    monkeypatch.setattr(upoly, "_packed", lambda m, p: calls.append(p) or _packed(m, p))
    quartics = [[2, 0, 0, 0, 1], [7, 0, 3, 0, 1], [1, 1, 0, 0, -3], [5, -2, 4, 9, 6]]
    for p in primes_upto(255)[1:]:
        for f in quartics:
            if f[-1] % p:
                fp_irreducible(f, p)
                if all(evaluate(f, r) % p for r in range(p)):
                    fp_distinct_degree(f, p)
    assert calls == []
    # p = 2 and p above the bound keep the Frobenius test
    fp_distinct_degree([1, 1, 0, 0, 1], 2)
    fp_irreducible([3, 1, 0, 0, 1], 257)  # D = 3^4 * 5 * 17, a non-square mod 257
    assert calls == [2, 257]


@pytest.mark.parametrize("degree", range(2, 9))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fp_distinct_degree_after_a_root_free_scan(degree, data):
    # below 256 it takes i = 1 as settled by a scan; above, it tests i = 1 itself
    p, f = data.draw(_fp_poly(degree))
    root = any(evaluate(f, r) % p == 0 for r in range(p))
    if p < 256 and root:
        return
    assert fp_distinct_degree(f, p) is (not root and _poly(f, modulus=p).is_irreducible)


@st.composite
def _equal_degree_product(draw, degree):
    """(p, integer list of the given degree): a product of factors of one degree k < degree."""
    p = draw(st.sampled_from(PRIMES + LARGE_PRIMES + WIDE_PRIMES))
    k = draw(st.sampled_from([k for k in range(1, degree) if degree % k == 0]))
    f = [draw(INTS.filter(lambda c: c % p))]
    for _ in range(degree // k):
        f = mul(f, draw(st.lists(INTS, min_size=k, max_size=k)) + [1])
    return p, f


@pytest.mark.parametrize("degree", range(11, 25))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_fp_irreducible_at_higher_degrees(degree, data):
    p, f = data.draw(st.one_of(_fp_poly(degree), _equal_degree_product(degree)))
    assert fp_irreducible(f, p) == _poly(f, modulus=p).is_irreducible


@pytest.mark.parametrize("p", PRIMES + LARGE_PRIMES + WIDE_PRIMES)
def test_fp_irreducible_on_equal_degree_products(p):
    # x^16 + 1 splits into factors of one degree mod every odd prime
    quadratics = mul(mul([1, 0, 1], [2, 0, 1]), [3, 0, 1])
    for f in ([1] + [0] * 15 + [1], mul([2, 0, 1, 1], [3, 1, 0, 1]), quadratics):
        assert fp_irreducible(f, p) == _poly(f, modulus=p).is_irreducible


@pytest.mark.parametrize("p", WIDE_PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fp_irreducible_at_wide_primes(p, data):
    degree = data.draw(st.integers(2, 8))
    f = data.draw(st.lists(INTS, min_size=degree, max_size=degree)) + [data.draw(INTS) or 1]
    if data.draw(st.booleans()):
        f = mul(f, [data.draw(INTS), 1])
    assert fp_irreducible(f, p) == _poly(f, modulus=p).is_irreducible


@settings(max_examples=300, deadline=None)
@given(_lists(INTS, 8), _fp_divisor(PRIMES + LARGE_PRIMES), _lists(INTS, 4))
def test_fp_coprime_matches_sympy_gcd(a, pb, common):
    p, b = pb
    # p must not divide the common factor's lead, so it keeps off b's lead too
    if common and common[-1] % p:
        a, b = mul(a, common), mul(b, common)
    a_in, b_in = list(a), list(b)
    want = _poly(a, modulus=p).gcd(_poly(b, modulus=p)).degree() == 0
    assert fp_coprime(a, b, p) == want
    assert (a, b) == (a_in, b_in)  # the inputs are not changed


@settings(max_examples=200, deadline=None)
@given(_lists(INTS, 12), _fp_divisor(PRIMES + LARGE_PRIMES + WIDE_PRIMES), st.integers(1, 3000))
def test_fp_powmod_matches_sympy(h, pm, n):
    p, m = pm  # h may be longer than m: fp_powmod reduces it first
    if len(m) < 2:
        m = [1] + m
    gf_pow_mod = sympy.polys.galoistools.gf_pow_mod
    want = gf_pow_mod([c % p for c in reversed(h)], n, [c % p for c in reversed(m)], p, sympy.ZZ)
    assert fp_powmod(h, n, m, p) == trim([int(c) for c in reversed(want)])


def test_fp_powmod_first_power_is_the_remainder():
    h, m = [5, 0, 3, 1, 4, 1, 2], [2, 1, 3]  # h longer than m
    for p in (7, 257, 2**64 + 13):
        assert fp_powmod(h, 1, m, p) == fp_rem(list(h), m, p) == _mod(
            _poly(h, modulus=p).rem(_poly(m, modulus=p)), p)
    assert fp_powmod([3, 1], 1, [4], 7) == []  # everything is 0 mod a constant


def _slot_boundary_primes(d):
    """For k = 1 .. 11: the largest prime p with 2d(p-1)^2 < 2^(8k), and the next prime."""
    out = []
    for k in range(1, 12):
        p = isqrt((2 ** (8 * k) - 1) // (2 * d)) + 1
        while not is_prime(p):
            p -= 1
        q = p + 1
        while not is_prime(q):
            q += 1
        out += [p, q]
    return out


@pytest.mark.parametrize("d", [2, 5, 11])
def test_all_top_coefficients_at_slot_boundaries(d):
    # every coefficient of f and of h at p - 1, on both sides of each slot width
    for p in _slot_boundary_primes(d):
        f = [p - 1] * (d + 1)
        want = _poly(f, modulus=p)
        assert fp_irreducible(f, p) == want.is_irreducible, p
        h = [p - 1] * d
        sq = _mod((_poly(h, modulus=p) ** 2).rem(want), p)
        assert fp_powmod(h, 2, f, p) == sq, p
        pack, unpack, mulmod, _ = _packed(_monic(f, p), p)
        assert trim(unpack(mulmod(pack(h), pack(h)))) == sq, p
        bound = 2 * d * (p - 1) ** 2 - 1  # a slot holds every sum below 2d(p-1)^2
        assert unpack(pack([bound] * d)) == [bound % p] * d, p


# x^n mod m is a slot for n < d, a fold row for d <= n <= 2d - 2, and powered beyond
ROW_CASES = {
    "slot": lambda d: (1, d - 1),
    "row": lambda d: (d, 2 * d - 2),
    "powered": lambda d: (2 * d - 1, 300),
}


@pytest.mark.parametrize("case", ROW_CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_x_powers_read_off_the_rows_match_sympy(case, data):
    d = data.draw(st.integers(4, 24))
    lo, hi = ROW_CASES[case](d)
    # n for fp_powmod and the prime for fp_irreducible, whose x^p is the same lookup
    n = data.draw(st.integers(lo, hi))
    p = data.draw(st.sampled_from([q for q in primes_upto(300) if lo <= q <= hi]))
    lead = data.draw(INTS.filter(lambda c: c % p))
    if data.draw(st.booleans()):  # a product of two factors: reducible at every prime
        k = data.draw(st.integers(1, d - 1))
        f = mul(data.draw(st.lists(INTS, min_size=k, max_size=k)) + [1],
                data.draw(st.lists(INTS, min_size=d - k, max_size=d - k)) + [lead])
    else:
        f = data.draw(st.lists(INTS, min_size=d, max_size=d)) + [lead]
    assert fp_irreducible(f, p) == _poly(f, modulus=p).is_irreducible
    want = _mod(_poly([0] * n + [1], modulus=p).rem(_poly(f, modulus=p)), p)
    assert fp_powmod([0, 1], n, f, p) == want
    pack, unpack, _, power = _packed(_monic(f, p), p)
    assert trim(unpack(power(pack([0, 1]), n))) == want


def _roots(f, p):
    return {r for r in range(p) if evaluate(f, r) % p == 0}


@settings(max_examples=300, deadline=None)
@given(_lists(INTS, 6), _fp_divisor(SMALL_PRIMES), _lists(INTS, 3),
       st.lists(st.integers(0, 30), max_size=3))
def test_fp_gcd_against_brute_force(a, pb, common, shared_roots):
    p, b = pb
    # common factors and shared roots make nonconstant gcds frequent
    for r in shared_roots:
        a, b = mul(a, [-r, 1]), mul(b, [-r, 1])
    if common and common[-1] % p:
        a, b = mul(a, common), mul(b, common)
    a_in, b_in = list(a), list(b)
    g = fp_gcd(a, b, p)
    assert (a, b) == (a_in, b_in)  # the inputs are not changed
    assert g and g[-1] % p
    want = _poly(a, modulus=p).gcd(_poly(b, modulus=p))
    assert len(g) - 1 == want.degree()
    # a gcd divides both inputs and has exactly their common roots
    assert fp_rem(list(a), g, p) == fp_rem(list(b), g, p) == []
    assert _roots(g, p) == _roots(a, p) & _roots(b, p)
    assert fp_coprime(a, b, p) == (len(g) == 1)


@settings(max_examples=300, deadline=None)
@given(_fp_divisor(SMALL_PRIMES), st.lists(st.integers(0, 30), max_size=2))
def test_fp_has_root_against_brute_force(pf, roots):
    p, f = pf  # a nonzero constant has no root
    for r in roots:
        f = mul(f, [-r, 1])
    assert fp_has_root(f, p) == bool(_roots(f, p))


@pytest.mark.parametrize("p", [1000003, 2**64 + 13])
@settings(max_examples=60, deadline=None)
@given(f=_nonzero(INTS, 6), roots=st.lists(st.integers(-10**6, 10**6), max_size=2))
def test_fp_has_root_at_large_primes(p, f, roots):
    for r in roots:
        f = mul(f, [-r, 1])
    _, factors = _poly(f, modulus=p).factor_list()
    assert fp_has_root(f, p) == any(g.degree() == 1 for g, _ in factors)


# -- binomials ----------------------------------------------------------

CAPELLI_BOUND = 10**30


@st.composite
def _binomial(draw):
    """(a, c, n) with a*c != 0, |a|, |c| <= 10^30 and 2 <= n <= 32.

    Besides random pairs, -c/a is made a q-th power for a prime q | n, or
    -4w^4 when 4 | n.  Both a and c carry a common factor m, so -c/a is
    such a power only in lowest terms, and a flipped sign gives negative leads.
    """
    n, m = draw(st.integers(2, 32)), draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "power", "-4w^4"]))
    if kind == "power":
        q = draw(st.sampled_from(sympy.primefactors(n)))
        top = sympy.integer_nthroot(CAPELLI_BOUND // m, q)[0]
        s, t = draw(st.integers(-top, top).filter(bool)), draw(st.integers(1, top))
        a, c = m * t**q, -m * s**q  # -c/a = (s/t)^q
    elif kind == "-4w^4" and n % 4 == 0:
        top = sympy.integer_nthroot(CAPELLI_BOUND // (4 * m), 4)[0]
        s, t = draw(st.integers(1, top)), draw(st.integers(1, top))
        a, c = m * t**4, 4 * m * s**4  # -c/a = -4(s/t)^4
    else:
        a, c = (draw(st.integers(-CAPELLI_BOUND, CAPELLI_BOUND).filter(bool)) for _ in "ac")
    sign = draw(st.sampled_from([1, -1]))
    return sign * a, sign * c, n


@settings(max_examples=300, deadline=None)
@given(_binomial())
def test_capelli_matches_sympy(binomial):
    a, c, n = binomial
    assert binomial_irreducible(a, c, n) == _poly([c] + [0] * (n - 1) + [a]).is_irreducible


@pytest.mark.parametrize("x, k", [(0, 2), (1, 5), (2**64 - 1, 2), (2**64, 2), (3**40, 5),
                                  (3**40 - 1, 5), (10**30, 3), (10**30 + 1, 3), (7, 31)])
def test_iroot_is_the_floor_of_the_real_root(x, k):
    r = _iroot(x, k)
    assert r**k <= x < (r + 1) ** k


def _frobenius_irreducible(f, p):
    """f irreducible in F_p[x] iff gcd(f, x^(p^i) - x) is constant for each i <= deg(f)/2."""
    for i in range(1, (len(f) - 1) // 2 + 1):
        h = fp_powmod([0, 1], p**i, f, p) + [0, 0]
        h[1] -= 1
        if not fp_coprime(trim([v % p for v in h]), f, p):
            return False
    return True


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_fp_binomial_rule_matches_the_frobenius_test(p):
    # every a*x^n + c mod p with 2 <= n <= 12, c = 0 included
    for n, a, c in itertools.product(range(2, 13), range(1, p), range(p)):
        f = [c] + [0] * (n - 1) + [a]
        want = _frobenius_irreducible(f, p)
        assert fp_irreducible(f, p) is want, (f, p)
        assert fp_distinct_degree(f, p) is want, (f, p)
