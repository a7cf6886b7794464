import random

import pytest

from schinzel.numutil import (
    MR_EXACT_BOUND,
    UnprovedPrimeError,
    divisors,
    factorize,
    prime_factors,
)

LIMIT = 5000


def _brute_divisors():
    out = [[] for _ in range(LIMIT + 1)]
    for d in range(1, LIMIT + 1):
        for m in range(d, LIMIT + 1, d):
            out[m].append(d)
    return out


def _brute_factorize(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_small_integers_against_brute_force():
    divs = _brute_divisors()
    for n in range(1, LIMIT + 1):
        fac = factorize(n)
        assert fac == _brute_factorize(n)
        assert list(fac) == sorted(fac)
        assert divisors(n) == divs[n]
        assert divisors(-n) == divs[n]
        assert prime_factors(-n) == sorted(fac)


def test_degenerate_inputs():
    assert factorize(0) == factorize(1) == factorize(-1) == {}
    assert prime_factors(0) == prime_factors(1) == prime_factors(-1) == []
    with pytest.raises(ValueError):
        divisors(0)


def test_large_integers_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(24)
    cases = [rng.randrange(2, 10**24) for _ in range(25)]
    # squares and products of primes above the trial-division range
    p, q = sympy.prevprime(10**9), sympy.nextprime(10**11)
    cases += [p * p, p * q, p**2 * q, 1009 * 1013, 2**80 * 3, MR_EXACT_BOUND + 1]
    for n in cases:
        assert factorize(n) == dict(sorted(sympy.factorint(n).items())), n
    assert divisors(p * q * 12) == sympy.divisors(p * q * 12)


def test_unproved_prime_is_refused():
    # the bound itself is a strong pseudoprime to every base; ...2123 is a prime above it
    for n in (MR_EXACT_BOUND, 3317044064679887385962123, 6 * 3317044064679887385962123):
        with pytest.raises(UnprovedPrimeError, match="exact-primality bound"):
            factorize(n)
