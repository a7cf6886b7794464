"""Small integer-arithmetic helpers: primes, divisors, CRT, spiral enumeration."""

import itertools
import math


def primes_upto(n):
    """Ascending list of primes <= n (simple sieve)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, n + 1) if sieve[i]]


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# Miller-Rabin with these bases decides primality exactly below
# MR_EXACT_BOUND, the least strong pseudoprime to all of them
# (Sorenson and Webster, Math. Comp. 86, 2017).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_EXACT_BOUND = 3317044064679887385961981
_TRIAL_PRIMES = primes_upto(1000)


class UnprovedPrimeError(ArithmeticError):
    """A cofactor passes Miller-Rabin but is too large for it to prove prime."""


def _strong_probable_prime(n):
    """Miller-Rabin on odd n > 37 with every base in MR_BASES."""
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
    return True


def _rho(n):
    """A proper factor of the odd composite n: Pollard rho, Brent's cycle search."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
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

    0 and +-1 give {}.  Trial division below 1000, then Miller-Rabin and
    Pollard-Brent rho.  Raises UnprovedPrimeError for a cofactor of at least
    MR_EXACT_BOUND that passes Miller-Rabin, since its primality is not proved.
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
        if m >= 1000 * 1000 and not _strong_probable_prime(m):
            p = _rho(m)
            pending += [p, m // p]
            continue
        if m >= MR_EXACT_BOUND:
            raise UnprovedPrimeError(
                f"cofactor {m} passes Miller-Rabin but is not below "
                f"the exact-primality bound {MR_EXACT_BOUND}"
            )
        out[m] = out.get(m, 0) + 1
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
    out = []
    for p in primes_upto(n):
        q = p
        while q <= n:
            out.append(q)
            q *= p
    return sorted(out)


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
    if k == 0:
        yield ()
        return
    yield (0,) * k
    for r in itertools.count(1):
        for t in itertools.product(range(-r, r + 1), repeat=k):
            if max(abs(c) for c in t) == r:
                yield t
