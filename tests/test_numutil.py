import itertools
import random
import time

import pytest

from schinzel import numutil
from schinzel.numutil import (
    MR_EXACT_BOUND,
    RhoBudgetError,
    UnprovedPrimeError,
    divisors,
    factorize,
    is_prime,
    prime_factors,
    primes,
    primes_upto,
    spiral,
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


def test_rho_gives_up_after_its_step_budget(monkeypatch):
    # two primes near 10^9 take rho tens of thousands of steps to split
    n = 999999937 * 1000000007
    assert factorize(n) == {999999937: 1, 1000000007: 1}
    monkeypatch.setattr(numutil, "RHO_STEPS", 64)
    with pytest.raises(RhoBudgetError, match=f"no factor of {n} in 64 steps"):
        factorize(n)


class _CountingPrimes(list):
    """The trial primes, counting the passes made over them."""

    passes = 0

    def __iter__(self):
        _CountingPrimes.passes += 1
        return super().__iter__()


def test_factorize_makes_one_trial_pass(monkeypatch):
    sympy = pytest.importorskip("sympy")
    monkeypatch.setattr(numutil, "_TRIAL_PRIMES", _CountingPrimes(numutil._TRIAL_PRIMES))
    p, q = sympy.prevprime(10**9), sympy.nextprime(10**11)
    unproved = 3317044064679887385962123  # a prime above the exact-primality bound
    cases = [2**40 * 3, 1009 * 1013, p, 7 * q, p * q, p**2 * q * 6, 7 * 999999999989, unproved * 6]
    for n in cases + list(range(10**6 - 50, 10**6 + 50)):
        _CountingPrimes.passes = 0
        if n % unproved == 0:
            with pytest.raises(UnprovedPrimeError, match="exact-primality bound"):
                factorize(n)
        else:
            assert factorize(n) == dict(sorted(sympy.factorint(n).items())), n
        assert _CountingPrimes.passes == 1, n


def test_is_prime_agrees_with_the_sieve():
    sieved = set(primes_upto(10**5))
    assert [n for n in range(-5, 10**5 + 1) if is_prime(n)] == sorted(sieved)


def test_is_prime_rejects_pseudoprimes():
    # Carmichael numbers, then the least strong pseudoprimes to the prime bases up to 7 and 31
    for n in (561, 41041, 3215031751, 3825123056546413051):
        assert not is_prime(n), n


def test_is_prime_is_fast_and_exact_below_the_bound():
    start = time.monotonic()
    assert is_prime(10**18 + 9)
    assert time.monotonic() - start < 0.01
    assert is_prime(10**14 + 31) and not is_prime((10**9 + 7) * (10**9 + 9))
    assert not is_prime((10**18 + 9) ** 2)  # above the bound, refuted by Miller-Rabin


def test_is_prime_refuses_an_unproved_prime():
    # the bound itself is a strong pseudoprime to every base; ...2123 is a prime above it
    for n in (MR_EXACT_BOUND, 3317044064679887385962123):
        with pytest.raises(UnprovedPrimeError, match="exact-primality bound"):
            is_prime(n)


def test_primes_continue_the_sieve():
    assert list(itertools.islice(primes(), 700)) == primes_upto(5279)


def _spiral_by_filtering(k):
    """Every tuple of the cube [-r, r]^k, kept when its max-norm is r."""
    if k == 0:
        yield ()
        return
    yield (0,) * k
    for r in itertools.count(1):
        for t in itertools.product(range(-r, r + 1), repeat=k):
            if max(abs(c) for c in t) == r:
                yield t


@pytest.mark.parametrize("k, shells", [(0, 0), (1, 40), (2, 12), (3, 5)])
def test_spiral_matches_the_filtered_cube(k, shells):
    n = (2 * shells + 1) ** k
    assert list(itertools.islice(spiral(k), n)) == list(itertools.islice(_spiral_by_filtering(k), n))
    if k == 0:
        assert list(spiral(0)) == [()]


def test_spiral_is_linear_in_its_length():
    start = time.monotonic()
    points = list(itertools.islice(spiral(1), 200_001))
    assert time.monotonic() - start < 2.0
    assert points[-2:] == [(-100_000,), (100_000,)]
