"""Detection, certification and removal of fixed prime divisors.

A prime p is fixed for P w.r.t. the parameters T when every specialization
P(t, Y) with integer t vanishes mod p.  Candidates are finite: p <= Delta
(the max parameter degree) or p dividing the content.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .numutil import RhoBudgetError, UnprovedPrimeError, prime_factors, prime_powers_upto
from .numutil import primes_upto
from .polyring import BudgetExceeded, PolyError, _names
from .upoly import fp_gcd, fp_has_root, require_prime


def proved_prime_factors(n):
    """prime_factors(n); a cofactor that cannot be proved prime or split is a budget exit."""
    try:
        return prime_factors(n)
    except (UnprovedPrimeError, RhoBudgetError) as exc:
        raise BudgetExceeded(str(exc)) from exc


def _params_of(split_or_params):
    """Accept a VarSplit or a bare tuple of parameter names."""
    return _names(getattr(split_or_params, "params", split_or_params))


def _fermat_table(polys, params, p):
    """The family mod p as a table with every parameter exponent below p.

    Keys are (group, parameter exponents), where a group numbers one
    (member, exponents in the other names) pair; `owner[group]` is its
    member.  Since t^e = t^(((e - 1) mod (p - 1)) + 1) for every t in F_p
    and e >= 1, the reduction changes no value, and a polynomial whose
    exponents are all below p vanishes on all of F_p^k only if every
    coefficient is 0 mod p (Alon, Combinatorial Nullstellensatz).  So the
    family vanishes at every tuple iff the table is empty.  As in
    `substitute`, a repeated parameter takes its last value.  p must be
    prime; the public entry points check it.
    """
    where = {name: j for j, name in enumerate(params)}
    table, groups = {}, {}
    for i, P in enumerate(polys):
        for name in where:
            if name not in P.registry:
                raise PolyError(f"unknown variable {name!r} in substitution")
        slots = [where.get(name) for name in P.registry]
        for expo, c in P.terms.items():
            if not c % p:
                continue
            mono, rest = [0] * len(params), []
            for j, e in zip(slots, expo):
                if j is None:
                    rest.append(e)
                else:
                    mono[j] += e
            mono = tuple([e if e < p else (e - 1) % (p - 1) + 1 for e in mono])
            key = (groups.setdefault((i, tuple(rest)), len(groups)), mono)
            table[key] = table.get(key, 0) + c
    owner = [i for i, _ in groups]
    return {key: c % p for key, c in table.items() if c % p}, owner


def _fix_first(table, h, p):
    """The table with its first remaining coordinate set to h, zeros dropped."""
    out = {}
    for (g, mono), c in table.items():
        key = (g, mono[1:])
        out[key] = (out.get(key, 0) + c * pow(h, mono[0], p)) % p
    return {key: c for key, c in out.items() if c}


def least_witness(polys, params, p):
    """The lex-least residue tuple mod p at which some member is nonzero.

    Returns (t, i), with i the index of the first member that is nonzero
    mod p at t, or None when p is fixed.  The descent fixes one coordinate
    at a time at the least h whose specialization leaves a nonempty table.
    Some h <= deg works: the table is nonzero as a polynomial, and a
    nonzero coefficient of degree <= deg in the coordinate has at most deg
    roots.
    """
    require_prime(p)
    return _descend(*_fermat_table(polys, params, p), len(params), p)


def _descend(table, owner, k, p):
    """`least_witness` over a built table of k coordinates."""
    if not table:
        return None
    t = []
    for _ in range(k):
        for h in range(max(mono[0] for _, mono in table) + 1):
            rest = _fix_first(table, h, p)
            if rest:
                break
        t.append(h)
        table = rest
    return tuple(t), min(owner[g] for g, _ in table)


def _common_root(table, p):
    """True iff the groups of a one-coordinate table share a root in F_p."""
    rows = {}
    for (g, (e,)), c in table.items():
        row = rows.setdefault(g, [])
        row += [0] * (e + 1 - len(row))
        row[e] = c
    common = functools.reduce(lambda a, b: fp_gcd(a, b, p), rows.values())
    return fp_has_root(common, p)


def residue_scan(polys, params, p):
    """(least_witness(polys, params, p), whether all members vanish at one tuple).

    One table serves both.  Every tuple before the witness vanishes, so a
    fixed prime or a nonzero witness settles the second value; only a zero
    witness runs the vanishing walk: depth-first with the descent's step,
    stopping at the first empty table.  A group whose polynomial no longer
    depends on the coordinates left never vanishes, so its subtree is
    skipped, and a coordinate that no term uses is fixed once.  On the last
    coordinate every group is a nonconstant univariate polynomial, and they
    vanish together iff their gcd over F_p has a root.
    """

    def walk(table, left):
        if not table:
            return True
        varying = {g for g, mono in table if any(mono)}
        if any(g not in varying for g, _ in table):
            return False
        if left == 1:
            return _common_root(table, p)
        hs = range(p) if any(mono[0] for _, mono in table) else (0,)
        return any(walk(_fix_first(table, h, p), left - 1) for h in hs)

    require_prime(p)
    table, owner = _fermat_table(polys, params, p)
    hit = _descend(table, owner, len(params), p)
    return hit, hit is None or any(hit[0]) or walk(table, len(params))


@dataclass(frozen=True)
class FixedDivisorReport:
    candidates: tuple
    confirmed: tuple
    witnesses: dict  # refuted prime -> residue tuple with nonvanishing reduction
    delta: int
    content: int

    @property
    def has_fixed_divisor(self):
        return bool(self.confirmed)


def param_degree(P, split):
    """Delta: the largest degree of P in a parameter, 0 with none."""
    return max((P.degree_in(t) for t in _params_of(split)), default=0)


def candidate_fixed_primes(P, split):
    """Primes <= Delta plus primes dividing the content, ascending.

    Every fixed prime of P w.r.t. the parameters lies in this list.
    """
    if P.is_zero():
        raise PolyError("zero polynomial has every divisor fixed")
    cands = set(primes_upto(param_degree(P, split))) | set(proved_prime_factors(P.content()))
    return sorted(cands)


def is_fixed_prime(P, split, p):
    """Decide whether p is fixed, by `least_witness`.

    Returns (True, None) if p is fixed, else (False, witness) with the
    lexicographically least residue tuple where P(t, Y) does not vanish
    mod p.
    """
    if P.is_zero():
        raise PolyError("zero polynomial")
    hit = least_witness([P], _params_of(split), p)
    return (True, None) if hit is None else (False, hit[0])


def fixed_prime_divisors(P, split):
    """Full report: candidates, confirmed fixed primes, per-prime witnesses.

    Over Z an empty confirmed set is equivalent to having no fixed divisor
    among all nonunits: a fixed composite would force a fixed prime.
    Every candidate is a proved prime, so the loop runs `least_witness`'s
    descent without proving it again.
    """
    candidates = candidate_fixed_primes(P, split)
    params = _params_of(split)
    confirmed, witnesses = [], {}
    for p in candidates:
        hit = _descend(*_fermat_table([P], params, p), len(params), p)
        if hit is None:
            confirmed.append(p)
        else:
            witnesses[p] = hit[0]
    return FixedDivisorReport(
        tuple(candidates), tuple(confirmed), witnesses, param_degree(P, split), P.content()
    )


def removal_scalar(P, split):
    """Product of the confirmed fixed primes; P has no fixed prime over Z[1/phi]."""
    return math.prod(fixed_prime_divisors(P, split).confirmed)


def gamma_b_witness(B):
    """Positive integer divisible by every prime <= B.

    Product of 2^q - 2 over prime powers q <= B; each prime p <= B divides
    the q = p factor by Fermat's little theorem.
    """
    if B < 1:
        raise PolyError("B must be >= 1")
    return math.prod(2**q - 2 for q in prime_powers_upto(B))
