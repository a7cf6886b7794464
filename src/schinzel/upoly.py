"""Dense univariate polynomials as coefficient lists.

A polynomial is a list of integers (or of Fractions), constant term first.
A list is trimmed when it is empty (the zero polynomial) or its last entry
is nonzero, so a trimmed f has degree len(f) - 1.  Every function here
expects trimmed lists and returns trimmed lists.  The F_p functions work on
integer lists and reduce mod p only where it keeps the numbers small;
powering mod a polynomial packs each residue into one int (`_packed`).
"""

from __future__ import annotations

import functools
import operator
from array import array
from itertools import zip_longest

from .numutil import UnprovedPrimeError, is_prime
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


# -- extended Euclid over Q ------------------------------------------


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


def _packed(m, p):
    """Arithmetic mod the monic integer list m of degree d in F_p[x], a residue per int.

    Coefficient j, in [0, p), fills byte-aligned slot j.  A slot holds
    2d(p-1)^2, a bound on every slot of a product of two residues once each
    slot k >= d is folded back, taken mod p, times the row x^k mod m.
    Returns (pack, unpack, mulmod, power); unpack gives the d coefficients of
    a product or a sum of residues, and power(x, n) for d <= n <= 2d - 2 is
    the row x^n mod m itself (for n < d, x^n is slot n).
    """
    d = len(m) - 1
    need = -(-(2 * d * (p - 1) ** 2).bit_length() // 8) or 1
    w = next((k for k in _ITEM_CODES if k >= need), need)
    code, split = _ITEM_CODES.get(w), 8 * w * d

    def pack(cs):
        if code:
            return int.from_bytes(array(code, cs).tobytes(), "little")
        return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in cs]), "little")

    def slots(v, n):
        b = v.to_bytes(n * w, "little")
        if code:
            return array(code, b).tolist()
        return [int.from_bytes(b[i : i + w], "little") for i in range(0, len(b), w)]

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

    A quadratic a*x^2 + b*x + c at odd p is irreducible iff its discriminant
    b^2 - 4ac is not a square mod p, which Euler's criterion decides with one
    modular power (Modern Computer Algebra, ch. 14).  Else, for small p, a root
    scan comes first: a root mod p is a linear factor, and degree 2 or 3
    without one is irreducible.  The rest is `fp_distinct_degree`.
    """
    if len(f) == 3 and p > 2:
        c, b, a = f
        return pow(b * b - 4 * a * c, (p - 1) // 2, p) == p - 1
    if p < _ROOT_SCAN_BELOW and len(f) > 2:
        if next(fp_roots(f, p), None) is not None:
            return False
        if len(f) <= 4:
            return True
    return len(f) == 2 or fp_distinct_degree(f, p)


def fp_distinct_degree(f, p):
    """Distinct-degree test for the integer list f of degree >= 2 in F_p[x], p prime.

    p must not divide f's lead, and below _ROOT_SCAN_BELOW f must have no
    root mod p, which settles i = 1.  True iff f mod p is irreducible:
    gcd(f, x^(p^i) - x) is constant for every i <= deg(f)/2, so one gcd with
    their product mod f decides.  Each x^(p^i) past x^p combines the Frobenius
    rows x^(pj) mod f, j < deg(f), as (sum c_j x^j)^p = sum c_j x^(pj) (Modern
    Computer Algebra, 14.2).
    """
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
