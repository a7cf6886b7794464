"""Detection, certification and removal of fixed prime divisors.

A prime p is fixed for P w.r.t. the parameters T when every specialization
P(t, Y) with integer t vanishes mod p.  Candidates are finite: p <= Delta
(the max parameter degree) or p dividing the content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .numutil import UnprovedPrimeError, prime_factors, prime_powers_upto, primes_upto
from .polyring import BudgetExceeded, PolyError

EXHAUSTION_BUDGET = 10**6


def proved_prime_factors(n):
    """prime_factors(n); a cofactor that cannot be proved prime is a budget exit."""
    try:
        return prime_factors(n)
    except UnprovedPrimeError as exc:
        raise BudgetExceeded(str(exc)) from exc


def _params_of(split_or_params):
    """Accept a VarSplit or a bare tuple of parameter names."""
    if hasattr(split_or_params, "params"):
        return tuple(split_or_params.params)
    return tuple(split_or_params)


def _nonzero_mod(polys, params, p):
    """The residue scan: which member stays nonzero mod p at a parameter tuple.

    One pass over each member's terms groups them by their exponents in the
    other names and reduces each coefficient mod p, so P(t, .) vanishes mod
    p iff every group sums to 0 mod p.  The distinct parameter monomials are
    numbered once and evaluated once per tuple.  Returns `first(t)`, the
    index of the first member that is nonzero mod p at the residue tuple t,
    or None.  As in `substitute`, a repeated parameter takes its last value.
    """
    where = {name: j for j, name in enumerate(params)}
    monos, members = {}, []
    for P in polys:
        for name in where:
            if name not in P.registry:
                raise PolyError(f"unknown variable {name!r} in substitution")
        slots = [where.get(name) for name in P.registry]
        groups = {}
        for expo, c in P.terms.items():
            c %= p
            if c:
                mono, rest = [0] * len(params), []
                for j, e in zip(slots, expo):
                    if j is None:
                        rest.append(e)
                    else:
                        mono[j] += e
                m = monos.setdefault(tuple(mono), len(monos))
                groups.setdefault(tuple(rest), []).append((c, m))
        members.append(list(groups.values()))
    mods = (p,) * len(params)

    def first(t):
        values = [math.prod(map(pow, t, m, mods)) for m in monos]
        for i, groups in enumerate(members):
            for g in groups:
                if sum([c * values[m] for c, m in g]) % p:
                    return i
        return None

    return first


def _residue_tuples(p, k):
    """The residue tuples mod p of length k, lexicographically and lazily.

    `product` turns range(p) into a tuple before its first tuple, which
    costs O(p) even when t = 0 settles a prime; for one parameter `zip`
    yields the 1-tuples without it.
    """
    return zip(range(p)) if k == 1 else product(range(p), repeat=k)


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


def candidate_fixed_primes(P, split):
    """Primes <= Delta plus primes dividing the content, ascending.

    Every fixed prime of P w.r.t. the parameters lies in this list.
    """
    if P.is_zero():
        raise PolyError("zero polynomial has every divisor fixed")
    params = _params_of(split)
    delta = max((P.degree_in(t) for t in params), default=0)
    cands = set(primes_upto(delta)) | set(proved_prime_factors(P.content()))
    return sorted(cands)


def is_fixed_prime(P, split, p, budget=EXHAUSTION_BUDGET):
    """Exhaustive check over all residue tuples mod p.

    Returns (True, None) if p is fixed, else (False, witness) with the
    lexicographically least residue tuple where P(t, Y) does not vanish
    mod p.
    """
    if P.is_zero():
        raise PolyError("zero polynomial")
    params = _params_of(split)
    k = len(params)
    if p**k > budget:
        raise BudgetExceeded(f"{p}^{k} residue tuples exceed the budget {budget}")
    nonzero = _nonzero_mod([P], params, p)
    witness = next((t for t in _residue_tuples(p, k) if nonzero(t) is not None), None)
    return witness is None, witness


def fixed_prime_divisors(P, split, budget=EXHAUSTION_BUDGET):
    """Full report: candidates, confirmed fixed primes, per-prime witnesses.

    Over Z an empty confirmed set is equivalent to having no fixed divisor
    among all nonunits: a fixed composite would force a fixed prime.
    """
    candidates = candidate_fixed_primes(P, split)
    delta = max((P.degree_in(t) for t in _params_of(split)), default=0)
    confirmed, witnesses = [], {}
    for p in candidates:
        fixed, witness = is_fixed_prime(P, split, p, budget=budget)
        if fixed:
            confirmed.append(p)
        else:
            witnesses[p] = witness
    return FixedDivisorReport(
        tuple(candidates), tuple(confirmed), witnesses, delta, P.content()
    )


def removal_scalar(P, split, budget=EXHAUSTION_BUDGET):
    """Product of the confirmed fixed primes; P has no fixed prime over Z[1/phi]."""
    return math.prod(fixed_prime_divisors(P, split, budget=budget).confirmed)


def gamma_b_witness(B):
    """Positive integer divisible by every prime <= B.

    Product of 2^q - 2 over prime powers q <= B; each prime p <= B divides
    the q = p factor by Fermat's little theorem.
    """
    if B < 1:
        raise PolyError("B must be >= 1")
    return math.prod(2**q - 2 for q in prime_powers_upto(B))
