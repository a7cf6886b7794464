"""Dense univariate polynomials as coefficient lists.

A polynomial is a list of integers, constant term first.  A list is
trimmed when it is empty (the zero polynomial) or its last entry is
nonzero, so a trimmed f has degree len(f) - 1.  Every function here
expects trimmed lists and returns trimmed lists.  Gcds over Q run over Z;
the F_p functions reduce mod p only where it keeps the numbers small, and
powering mod a polynomial packs each residue into one int (`_packed`).
Binomials a*x^n + c are decided in closed form, over Q and over F_p.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from itertools import zip_longest

from .numutil import UnprovedPrimeError, is_prime, prime_factors
from .polyring import PolyError


def require_prime(p):
    """Raise PolyError unless the modulus p is proved prime."""
    try:
        prime = is_prime(p)
    except UnprovedPrimeError as exc:
        raise PolyError(f"modulus {p} is not proved prime: {exc}") from exc
    if not prime:
        raise PolyError(f"modulus {p} is not prime")


def trim(f):
    """Drop the trailing zeros of f, in place; returns f."""
    while f and not f[-1]:
        f.pop()
    return f


def mul(a, b):
    """The product a * b."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    n = len(b)
    for i, x in enumerate(a):
        if x:
            out[i : i + n] = [o + x * y for o, y in zip(out[i : i + n], b)]
    return out


def evaluate(f, x):
    """f(x) by Horner's rule."""
    v = 0
    for a in reversed(f):
        v = v * x + a
    return v


def exact_quotient(f, g):
    """f / g over Z, or None if g does not divide f in Z[x]."""
    if not g:
        raise PolyError("division by zero")
    f = list(f)  # the remainder is computed in place
    df, dg = len(f) - 1, len(g) - 1
    if df < dg:
        return None if f else []
    q = [0] * (df - dg + 1)
    for k in range(df - dg, -1, -1):
        c, r = divmod(f[k + dg], g[dg])
        if r:
            return None
        q[k] = c
        if c:
            for j in range(dg + 1):
                f[k + j] -= c * g[j]
    if any(f):
        return None
    return q


# -- gcd and extended Euclid over Z ----------------------------------


def _pdivmod(a, b):
    """(q, r) with lead(b)^len(q) * a = q*b + r and deg r < deg b, over Z; b nonzero.

    The pseudo-division: q has deg a - deg b + 1 entries, none when deg a < deg b.
    """
    a, db, lead, low = list(a), len(b) - 1, b[-1], b[:-1]
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1, db - 1, -1):
        c, s = a[k], k - db
        a = [v * lead for v in a[:k]]
        a[s:] = [v - c * w for v, w in zip(a[s:], low)]
        q[s + 1 :] = [v * lead for v in q[s + 1 :]]
        q[s] = c
    return q, trim(a)


def _primitive(f):
    """The nonzero integer list f over its content, with a positive lead."""
    c = math.gcd(*f)
    return [v // c for v in f] if f[-1] > 0 else [-v // c for v in f]


def gcd(a, b):
    """The primitive gcd over Q of the integer lists a and b, with positive lead.

    The primitive PRS (Collins 1967; Brown 1971): each pseudo-remainder is
    divided by its content.  A constant gcd is [1]; both zero is an error.
    """
    if len(a) < len(b):
        a, b = b, a
    if not a:
        raise PolyError("gcd of two zero polynomials")
    while len(b) > 1:
        r = _pdivmod(a, b)[1]
        a, b = b, r and _primitive(r)
    return [1] if b else _primitive(a)


def xgcd(a, b):
    """(g, s, t) with s*a + t*b = g over Z, g a gcd over Q of the integer lists a and b.

    The primitive extended PRS: each pseudo-remainder step carries the
    cofactors, and divides the triple (r, s, t) by the gcd of all its
    coefficients.  Every triple is a rational multiple of the one Euclid's
    algorithm over Q has at the same step, so g, s and t over lead(g) are
    Euclid's monic gcd and its cofactors.  a or b must be nonzero.
    """
    u, v = (a, [1], []), (b, [], [1])
    while v[0]:
        q, r = _pdivmod(u[0], v[0])
        alpha = v[0][-1] ** len(q)
        w = [r] + [trim([alpha * x - y for x, y in zip_longest(x0, mul(q, x1), fillvalue=0)])
                   for x0, x1 in zip(u[1:], v[1:])]
        c = math.gcd(*w[0], *w[1], *w[2])
        u, v = v, [[x // c for x in f] for f in w]
    return tuple(u)


# -- F_p --------------------------------------------------------------


def fp_rem(a, b, p):
    """Remainder of the integer list a by b in F_p[x], reduced and trimmed.

    p must not divide b's leading coefficient.  a is used as scratch space:
    its coefficients accumulate in plain integers, each reduced once, when
    it leads.
    """
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    low = b[:-1]
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k] * inv % p
        if c:
            s = k - db
            a[s:k] = [x - c * y for x, y in zip(a[s:k], low)]
    r = [x % p for x in a[:db]]
    while r and not r[-1]:
        r.pop()
    return r


# array's codes by item size; its items are in host order, so big-endian hosts cut bytes
_ITEM_CODES = {array(c).itemsize: c for c in "BHIQ"} if array("H", b"\1\0")[0] == 1 else {}


def slot_codec(bound):
    """(w, pack, slots) for integers in [0, bound], each in a byte-aligned slot of one int.

    Slot j of an int is its j-th run of w bytes, little-endian first: w is
    the least array item size that holds bound, else just enough bytes.
    pack(cs) is the int whose slot j is cs[j]; slots(v, n) lists the first n
    slots of an int v below 2^(8wn).
    """
    need = -(-bound.bit_length() // 8) or 1
    w = next((k for k in _ITEM_CODES if k >= need), need)
    code = _ITEM_CODES.get(w)

    def pack(cs):
        if code:
            return int.from_bytes(array(code, cs).tobytes(), "little")
        return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in cs]), "little")

    def slots(v, n):
        b = v.to_bytes(n * w, "little")
        if code:
            return array(code, b).tolist()
        return [int.from_bytes(b[i : i + w], "little") for i in range(0, len(b), w)]

    return w, pack, slots


def _packed(m, p):
    """Arithmetic mod the monic integer list m of degree d in F_p[x], a residue per int.

    Coefficient j, in [0, p), fills byte-aligned slot j (`slot_codec`).  A
    slot holds 2d(p-1)^2, a bound on every slot of a product of two residues
    once each slot k >= d is folded back, taken mod p, times the row x^k mod m.
    Returns (pack, unpack, mulmod, power); unpack gives the d coefficients of
    a product or a sum of residues, and power(x, n) for d <= n <= 2d - 2 is
    the row x^n mod m itself (for n < d, x^n is slot n).
    """
    d = len(m) - 1
    w, pack, slots = slot_codec(2 * d * (p - 1) ** 2)
    split = 8 * w * d

    def unpack(v):
        high = v >> split
        if high:
            high, v = [c % p for c in slots(high, d - 1)], v - (high << split)
            v += sum(map(operator.mul, high, rows))
        return [c % p for c in slots(v, d)]

    def mulmod(a, b):
        return pack(unpack(a * b))

    def power(h, n):  # n >= 1, left-to-right binary powering
        if h == x and n <= 2 * d - 2:  # x is slot 1 only when d >= 2
            return 1 << 8 * w * n if n < d else rows[n - d]
        out = h
        for bit in bin(n)[3:]:
            out = mulmod(out, out)
            if bit == "1":
                out = mulmod(out, h)
        return out

    x, rows, row = 1 << 8 * w, [], [0] * (d - 1) + [1]  # row starts at x^(d-1)
    while len(rows) < d - 1:  # x^d mod m, x^(d+1) mod m, ...: each is x times the one before
        row = [(a - row[-1] * c) % p for a, c in zip([0] + row[:-1], m)]
        rows.append(pack(row))
    return pack, unpack, mulmod, power


def fp_powmod(h, n, m, p):
    """h^n mod m in F_p[x] for n >= 1, h first reduced mod m; p must not divide m's lead."""
    inv = pow(m[-1], -1, p)
    pack, unpack, _, power = _packed([c * inv % p for c in m], p)
    return trim(unpack(power(pack(fp_rem(list(h), m, p)), n)))


def fp_gcd(a, b, p):
    """A gcd of the integer lists a and b in F_p[x], not made monic.

    p must not divide b's leading coefficient.  Euclid stops as soon as a
    remainder is constant: a nonzero constant is returned as it is, and
    after a zero remainder the last divisor.  a and b are not changed.
    """
    a, b = list(a), list(b)  # fp_rem works in place on its dividend
    while len(b) > 1:
        a, b = b, fp_rem(a, b, p)
    return b or a


def fp_coprime(a, b, p):
    """True iff gcd(a, b) in F_p[x] is a nonzero constant; see `fp_gcd`."""
    return len(fp_gcd(a, b, p)) == 1


def fp_has_root(f, p):
    """True iff the nonzero integer list f has a root in F_p.

    p must not divide f's leading coefficient, and a constant has no root.
    Else f has one iff gcd(f, x^p - x), whose roots are F_p, is not constant.
    """
    return len(f) > 1 and not fp_coprime(f, _minus_x(fp_powmod([0, 1], p, f, p), p), p)


def _minus_x(h, p):
    """h - x in F_p[x], for a reduced list h."""
    b = h + [0] * (2 - len(h))
    b[1] = (b[1] - 1) % p
    return trim(b)


_ROOT_SCAN_BELOW = 256  # a scan costs p evaluations, x^p mod f O(log p) products


def _resultant(a, b):
    """Res(a, b) over Z for integer lists with deg a >= deg b >= 1, by the subresultant PRS.

    Collins (J. ACM 14, 1967); Cohen, GTM 138, Alg. 3.3.7 without its content
    reduction: each division by g*h^delta and each update of h is exact over Z.
    """
    s = g = h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            s = -s
        r = _pdivmod(a, b)[1]
        if not r:
            return 0
        a, b = b, [c // (g * h**delta) for c in r]
        g = a[-1]
        h = g**delta // h ** (delta - 1) if delta else h
        if len(b) == 1:
            d = len(a) - 1
            return s * b[0] ** d // h ** (d - 1)


def discriminant(f):
    """The discriminant of the integer list f of degree n >= 1, exact over Z.

    Closed forms give the quadratic [c, b, a], the cubic [d, c, b, a] and the
    quartic [e, d, c, b, a], whose D is (4I^3 - J^2)/27 from its invariants I
    and J.  Degree n >= 5 takes (-1)^(n(n-1)/2) * Res(f, f') / lead(f) from the
    subresultant PRS, tens of times the cost of a closed form; degree 1 gives 1.
    """
    if len(f) == 3:
        c, b, a = f
        return b * b - 4 * a * c
    if len(f) == 4:
        d, c, b, a = f
        return b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d + 18 * a * b * c * d
    if len(f) == 5:
        e, d, c, b, a = f
        i = 12 * a * e - 3 * b * d + c * c
        j = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * b * b * e - 2 * c**3
        return (4 * i**3 - j * j) // 27
    if len(f) == 2:
        return 1
    n = len(f) - 1
    res = _resultant(f, [i * c for i, c in enumerate(f)][1:])
    return (-1) ** (n * (n - 1) // 2 % 2) * res // f[-1]


def parity_allows(D, n, p):
    """False iff Stickelberger's rule shows a polynomial f of degree n reducible mod p.

    D is f's discriminant, p an odd prime not dividing f's lead.  By
    Stickelberger's parity theorem (Swan 1962), a squarefree f with r
    irreducible factors mod p has D a square mod p iff n - r is even, and
    D = 0 mod p means a repeated factor.  So f irreducible mod p (r = 1) has
    (D/p) = (-1)^(n-1), which Euler's criterion tells with one modular power.
    """
    return pow(D, (p - 1) // 2, p) == (1 if n % 2 else p - 1)


# -- binomials ---------------------------------------------------------

@functools.cache
def _prime_factors(n):
    """The primes dividing a binomial's degree n: few and small, so each n is factored once."""
    return tuple(prime_factors(n))


def _iroot(x, k):
    """The k-th root of the integer x >= 0, rounded down, by Newton's method over Z."""
    if x < 2:
        return x
    y = 1 << -(-x.bit_length() // k)  # above the root; each step falls until it passes it
    while (z := ((k - 1) * y + x // y ** (k - 1)) // k) < y:
        y = z
    return y


def _is_power(u, v, k):
    """Whether the rational u/v, v > 0, is the k-th power of a rational."""
    g = math.gcd(u, v)
    u, v = u // g, v // g
    if u < 0:
        if not k % 2:
            return False
        u = -u
    return _iroot(u, k) ** k == u and _iroot(v, k) ** k == v


def binomial_irreducible(a, c, n):
    """Whether a*x^n + c, a*c != 0, is irreducible over Q: Capelli's theorem.

    Lang, Algebra (GTM 211), VI Thm 9.1: x^n - A is irreducible iff A is no
    q-th power for each prime q | n, and A is not -4w^4 when 4 | n.  With
    A = -c/a, each test asks for exact integer roots of a numerator and a
    denominator in lowest terms (`_iroot`).
    """
    u, v = (-c, a) if a > 0 else (c, -a)  # A = u/v, v > 0
    if any(_is_power(u, v, q) for q in _prime_factors(n)):
        return False
    return n % 4 != 0 or not _is_power(-u, 4 * v, 4)


def _fp_binomial(f, p):
    """Whether the binomial f = a*x^n + c, n >= 2, is irreducible in F_p[x], p not dividing a.

    Lidl and Niederreiter, Finite Fields, Thm 3.75: with A = -c/a != 0 mod p,
    x^n - A is irreducible iff each prime r | n divides p - 1 and A is no
    r-th power, A^((p-1)/r) != 1, and 4 | p - 1 when 4 | n.  A = 0 leaves a*x^n.
    """
    A, n = -f[0] * pow(f[-1], -1, p) % p, len(f) - 1
    return A != 0 and (n % 4 != 0 or p % 4 == 1) and all(
        not (p - 1) % r and pow(A, (p - 1) // r, p) != 1 for r in _prime_factors(n))


def fp_roots(f, p):
    """The roots in F_p of the integer list f, in increasing order, lazily.

    p must not divide f's leading coefficient, which may be negative.  The
    scan costs p evaluations of the monic image: use it for p < _ROOT_SCAN_BELOW.
    """
    inv = pow(f[-1], -1, p)
    m = [c * inv % p for c in f]
    return (x for x in range(p) if evaluate(m, x) % p == 0)


def fp_irreducible(f, p):
    """True iff the integer list f is irreducible in F_p[x], p prime not dividing its lead.

    At odd p, f of degree n <= 4 is reducible unless its discriminant passes
    Stickelberger's rule (`parity_allows`, inlined on this hot path): a
    non-square (n = 2 or 4) or a nonzero square (n = 3), and a quadratic that
    passes is irreducible (Modern Computer Algebra, ch. 14).  Else, for small
    p, a root scan comes first: a root mod p is a linear factor, and a cubic
    without one, or a quartic that passed at odd p (r odd, so 1 or 3 with a
    root), is irreducible.  A binomial a*x^n + c of degree n >= 3 takes the
    binomial rule of Lidl and Niederreiter (`_fp_binomial`): one modular power
    per prime factor of n.  The rest is `fp_distinct_degree`.
    """
    if len(f) == 3 and p > 2:
        return pow(discriminant(f), (p - 1) // 2, p) == p - 1
    if len(f) > 3 and not any(f[1:-1]):
        return _fp_binomial(f, p)
    parity = p > 2 and len(f) in (4, 5)  # a cubic or quartic that Stickelberger's test sees
    if parity and pow(discriminant(f), (p - 1) // 2, p) != (1 if len(f) == 4 else p - 1):
        return False
    if p < _ROOT_SCAN_BELOW and len(f) > 2:
        if next(fp_roots(f, p), None) is not None:
            return False
        if len(f) <= 4 or parity:
            return True
    return len(f) == 2 or fp_distinct_degree(f, p)


def fp_distinct_degree(f, p):
    """Distinct-degree test for the integer list f of degree >= 2 in F_p[x], p prime.

    p must not divide f's lead, and below _ROOT_SCAN_BELOW f must have no
    root mod p, which settles i = 1.  True iff f mod p is irreducible:
    gcd(f, x^(p^i) - x) is constant for every i <= deg(f)/2, so one gcd with
    their product mod f decides.  Each x^(p^i) past x^p combines the Frobenius
    rows x^(pj) mod f, j < deg(f), as (sum c_j x^j)^p = sum c_j x^(pj) (Modern
    Computer Algebra, 14.2).  A quartic at odd p below _ROOT_SCAN_BELOW has 1 or 2
    irreducible factors, and by Stickelberger's theorem it is irreducible iff its
    discriminant is a non-square mod p (`parity_allows`): one modular power.  A
    binomial a*x^n + c takes the binomial rule of Lidl and Niederreiter (`_fp_binomial`).
    """
    if not any(f[1:-1]):
        return _fp_binomial(f, p)
    if len(f) == 5 and 2 < p < _ROOT_SCAN_BELOW:
        return pow(discriminant(f), (p - 1) // 2, p) == p - 1
    d = len(f) - 1
    inv = pow(f[-1], -1, p)
    m = [c * inv % p for c in f]
    pack, unpack, mulmod, power = _packed(m, p)
    x = pack([0, 1])
    frobenius = [1, power(x, p)]  # a row x^(pj) up to x^(2d-2) is read off, not multiplied
    while len(frobenius) < d:
        n = p * len(frobenius)
        frobenius.append(power(x, n) if n <= 2 * d - 2 else mulmod(frobenius[-1], frobenius[1]))
    hs = [unpack(frobenius[1])]  # x^(p^i) mod m, i = 1 .. d/2
    while len(hs) < d // 2:
        hs.append(unpack(sum(map(operator.mul, hs[-1], frobenius))))
    factors = [pack(_minus_x(h, p)) for h in hs[p < _ROOT_SCAN_BELOW :]]  # i = 1 when unscanned
    return not factors or fp_coprime(m, trim(unpack(functools.reduce(mulmod, factors))), p)
