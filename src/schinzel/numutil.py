"""Small integer-arithmetic helpers: primes, divisors, CRT, spiral enumeration."""

import itertools
import math


def primes_upto(n):
    """Ascending list of primes <= n (simple sieve)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, n + 1) if sieve[i]]


# Miller-Rabin with these bases decides primality exactly below
# MR_EXACT_BOUND, the least strong pseudoprime to all of them
# (Sorenson and Webster, Math. Comp. 86, 2017).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_EXACT_BOUND = 3317044064679887385961981
_TRIAL_PRIMES = primes_upto(1000)


class UnprovedPrimeError(ArithmeticError):
    """A number passes Miller-Rabin but is too large for it to prove prime."""


def is_prime(n):
    """Exact primality of the integer n.

    Trial division by the primes below 1000, then `_miller_rabin`, which
    raises UnprovedPrimeError for an n of at least MR_EXACT_BOUND that
    passes, since its primality is not proved.
    """
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
        if p * p > n:
            return True
    return _miller_rabin(n)


def _miller_rabin(n):
    """`is_prime` of an n > 1000 with no prime factor below 1000: every base in MR_BASES."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_EXACT_BOUND:
        raise UnprovedPrimeError(
            f"cofactor {n} passes Miller-Rabin but is not below "
            f"the exact-primality bound {MR_EXACT_BOUND}"
        )
    return True


class RhoBudgetError(ArithmeticError):
    """Pollard rho took RHO_STEPS steps and found no factor of a composite."""


# steps of y -> y^2 + c in one `_rho` call, over every c; a prime factor q
# takes about sqrt(q) of them
RHO_STEPS = 1 << 19


def primes():
    """2, 3, 5, 7, ... endless: the sieved primes below 1000, then `is_prime`."""
    yield from _TRIAL_PRIMES
    yield from filter(is_prime, itertools.count(_TRIAL_PRIMES[-1] + 1))


def _rho(n):
    """A proper factor of the odd composite n: Pollard rho, Brent's cycle search.

    Raises RhoBudgetError instead of starting a round that could take the
    search past RHO_STEPS steps.
    """
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r  # r steps to move x on, at most r more to the next x
            if steps > RHO_STEPS:
                raise RhoBudgetError(f"Pollard rho found no factor of {n} in {RHO_STEPS} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batched product hit 0 mod n: redo the last batch one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n):
    """Prime factorization of |n| as {prime: exponent}, primes ascending.

    0 and +-1 give {}.  One trial pass below 1000, then `_miller_rabin` and
    Pollard-Brent rho on the cofactors; raises UnprovedPrimeError, as
    `is_prime` does, for a cofactor whose primality is not proved, and
    RhoBudgetError for a composite cofactor that rho cannot split.
    """
    n = abs(n)
    out = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    # n is now 1, a prime below 1000^2, or free of prime factors below 1000;
    # so a pending m below 1000^2 is prime
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m < 1000 * 1000 or _miller_rabin(m):
            out[m] = out.get(m, 0) + 1
        else:
            p = _rho(m)
            pending += [p, m // p]
    return dict(sorted(out.items()))


def prime_factors(n):
    """Sorted list of distinct prime factors of |n| (0 and +-1 give [])."""
    return sorted(factorize(n))


def divisors(n):
    """All positive divisors of |n|, ascending. n must be nonzero."""
    n = abs(n)
    if n == 0:
        raise ValueError("divisors of 0")
    out = [1]
    for p, e in factorize(n).items():
        out += [d * p**k for k in range(1, e + 1) for d in out]
    out.sort()
    return out


def prime_powers_upto(n):
    """Prime powers q = p^r with q <= n, ascending."""
    return sorted(p**r for p in primes_upto(n) for r in range(1, n.bit_length()) if p**r <= n)


def crt(residues, moduli):
    """Least non-negative x with x = r_i mod m_i, for pairwise coprime m_i."""
    x, m = 0, 1
    for r, mi in zip(residues, moduli):
        g = math.gcd(m, mi)
        if g != 1:
            raise ValueError("moduli not coprime")
        # x + m*t = r (mod mi)
        t = ((r - x) * pow(m, -1, mi)) % mi
        x += m * t
        m *= mi
    return x % m


def signed_ints():
    """0, 1, -1, 2, -2, ... endless."""
    yield 0
    for n in itertools.count(1):
        yield n
        yield -n


def spiral(k):
    """Tuples of Z^k graded by max-norm, lexicographic within each shell."""
    yield (0,) * k
    if k == 0:
        return
    for r in itertools.count(1):
        cube, edge = range(-r, r + 1), (-r, r)
        for head in itertools.product(cube, repeat=k - 1):
            # a head of norm r takes every last coordinate, any other only -r and r
            for c in cube if r in head or -r in head else edge:
                yield head + (c,)
