"""Constructive specialization machinery for the first parameter.

Given a family with primitive members and no fixed prime divisor, builds a
Bezout constant, the finite bad-prime set, a CRT nonvanishing point and an
arithmetic progression along which the first parameter can be specialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .fixdiv import (
    ResidueTables,
    candidate_fixed_primes,
    fixed_prime_divisors,
    proved_prime_factors,
)
from .factorlab import is_primitive_wrt
from .numutil import crt
from .polyring import PolyError, VarSplit, dense
from .upoly import mul, require_prime, xgcd


class HypothesisError(PolyError):
    """A required hypothesis fails; carries the condition name and a witness."""

    def __init__(self, condition, detail):
        super().__init__(f"hypothesis {condition} fails: {detail}")
        self.condition = condition
        self.detail = detail


@dataclass(frozen=True)
class ProgressionWitness:
    param_index: int  # 1-based index of the specialized parameter
    delta: int  # Bezout constant
    bad_primes: tuple
    omega: int
    base_point: tuple

    @property
    def progression(self):
        return (self.omega, self.base_point[0])


# -- Bezout constant over Q[T] ---------------------------------------


def bezout_constant(coeffs):
    """Nonzero integer in the ideal generated by univariate polynomials.

    The inputs must be coprime over the rationals.  A left fold of extended
    Euclid over Z (`upoly.xgcd`) writes D, the last gcd, as an integer
    combination of them, and delta is |D|, the lcm of the denominators of
    the rational one for 1: no prime p divides D and every cofactor, as each
    xgcd triple has content 1, so where s*a + t*b = r with r and t zero mod p,
    s is not, nor is a, the gcd before, whose own cofactors then are not all.
    """
    if not coeffs:
        raise PolyError("empty coefficient list")
    names = set()
    for c in coeffs:
        names |= set(c.variables())
    if len(names) > 1:
        raise PolyError(f"coefficients involve several variables: {sorted(names)}")
    name = names.pop() if names else None
    rows = [dense(c, name) if name is not None else [c.constant_value()] for c in coeffs]
    rows = [row for row in rows if any(row)]
    if not rows:
        raise PolyError("all coefficients are zero")

    g = rows[0]
    combo = [[1]] + [[] for _ in rows[1:]]
    for i in range(1, len(rows)):
        g, s, t = xgcd(g, rows[i])
        combo = [mul(s, u) for u in combo]
        combo[i] = t
    if len(g) != 1:
        raise PolyError("inputs are not coprime over the rationals")
    return abs(g[0])


# -- bad primes and CRT point ----------------------------------------


def bad_prime_set(P, split, delta):
    """`candidate_fixed_primes(P, split)` plus the primes dividing delta; ascending.

    delta is the Bezout constant, not the parameter degree Delta.
    """
    if P.is_zero() or delta == 0:
        raise PolyError("nonzero product and delta required")
    split.check_registry(P.registry)
    return sorted(set(proved_prime_factors(delta)).union(candidate_fixed_primes(P, split)))


def nonvanishing_point(P, split, primes, tables=None):
    """Point v in Z^k with P(v, Y) nonzero mod every listed prime.

    Per prime, `fixdiv.residue_scan` gives the lexicographically least
    nonvanishing residue tuple and whether some tuple vanishes; primes
    where every residue tuple works impose no congruence.  One
    `ResidueTables` of P serves every prime: `tables` when given, such as
    a `fixed_prime_divisors(P, split)` report's, so that no prime is
    tabled twice.  The coordinates are the least non-negative CRT
    representatives.
    """
    k = split.k
    if tables is None:
        tables = ResidueTables([P], split.params)
    constrained = {}
    for p in primes:
        require_prime(p)
        hit, vanishes = tables.residue_scan(p)
        if hit is None:
            raise HypothesisError(
                "NoFixDiv", f"prime {p} is a fixed prime of the product"
            )
        if vanishes:
            constrained[p] = hit[0]
    if not constrained:
        return (0,) * k
    mods = sorted(constrained)
    coords = []
    for i in range(k):
        coords.append(crt([constrained[p][i] for p in mods], mods))
    return tuple(coords)


def progression_witness(polys, split):
    """Arithmetic progression for T1 preserving primitivity and NoFixDiv.

    Checks the hypotheses first and raises HypothesisError naming the
    violated condition otherwise.
    """
    if split.k < 1:
        raise PolyError("at least one parameter required")
    if not polys:
        raise PolyError("empty family")
    for i, P in enumerate(polys):
        if P.is_zero():
            raise HypothesisError("Nonzero", f"polynomial #{i + 1} is zero")
        if not is_primitive_wrt(P, split):
            raise HypothesisError(
                "Prim/Q[T]", f"polynomial #{i + 1} is not primitive w.r.t. Q[T]"
            )
    product = prod(polys)
    report = fixed_prime_divisors(product, split)
    if report.confirmed:
        raise HypothesisError(
            "NoFixDiv",
            f"fixed prime divisor {report.confirmed[0]} of the product",
        )
    # the coefficients in Z[T1] of the product viewed in the remaining names
    others = [n for n in product.registry if n != split.params[0]]
    delta = bezout_constant(list(product.coefficients(others).values()))
    bad = bad_prime_set(product, split, delta)
    v = nonvanishing_point(product, split, bad, report.tables)
    return ProgressionWitness(1, delta, tuple(bad), prod(bad), v)


@dataclass(frozen=True)
class ProgressionCheck:
    ell: int
    t1: int
    ok: bool
    failures: tuple  # (condition, detail)


def verify_progression(polys, split, witness, ell_values):
    """Specialize T1 along the progression and recheck both conditions."""
    t1_name = split.params[0]
    rest_params = split.params[1:]
    reduced = VarSplit(rest_params, split.variables) if rest_params else None
    out = []
    for ell in ell_values:
        t1 = witness.omega * ell + witness.base_point[0]
        failures = []
        specialized = [P.substitute({t1_name: t1}) for P in polys]
        for i, S in enumerate(specialized):
            if S.is_zero():
                failures.append(("Nonzero", f"polynomial #{i + 1} vanishes"))
                continue
            if reduced is not None and not is_primitive_wrt(S, reduced):
                failures.append(("Prim/Q[T']", f"polynomial #{i + 1}"))
        if not any(f[0] == "Nonzero" for f in failures):
            report = fixed_prime_divisors(prod(specialized), rest_params)
            if report.confirmed:
                failures.append(
                    ("NoFixDiv", f"fixed prime {report.confirmed[0]}")
                )
        out.append(ProgressionCheck(ell, t1, not failures, tuple(failures)))
    return out
