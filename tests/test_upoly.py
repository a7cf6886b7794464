"""The dense univariate kernel (`schinzel.upoly`) against sympy's `Poly`.

Every operation is checked over Z, over Q or over F_p (`modulus=p`), on
Hypothesis-drawn coefficient lists, constant term first.
"""

from fractions import Fraction
from itertools import zip_longest
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schinzel.numutil import is_prime, primes_upto
from schinzel.upoly import (
    _packed,
    evaluate,
    exact_quotient,
    ext_gcd,
    fp_coprime,
    fp_gcd,
    fp_distinct_degree,
    fp_has_root,
    fp_irreducible,
    fp_powmod,
    fp_rem,
    mul,
    trim,
)

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
