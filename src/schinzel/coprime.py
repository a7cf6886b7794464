"""Coprime Schinzel search over the integers.

Verifies the local condition (no prime divides every value of every Q_i)
and finds integer points where the values are globally coprime.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .factorlab import gcd_q_fold
from .fixdiv import ResidueTables, candidate_fixed_primes
from .polyring import BudgetExceeded, PolyError
from .numutil import spiral


@dataclass(frozen=True)
class CopschReport:
    verdict: bool
    candidates: tuple
    refuted: dict  # prime -> (residue tuple, index of the nonvanishing Q)
    violations: tuple  # primes dividing all values at every point


@dataclass(frozen=True)
class CoprimeReport:
    local: CopschReport
    m: tuple
    values: tuple
    gcd: int
    tried: int


def _params(Qs):
    reg = Qs[0].registry
    for Q in Qs:
        if Q.registry != reg:
            raise PolyError("family members use different registries")
        if Q.is_zero():
            raise PolyError("zero polynomial in the family")
    return reg


def check_copsch_local(Qs):
    """Local condition: every candidate prime misses some value somewhere.

    A violating prime must be a fixed prime of every Q_i at once, so the
    candidates of Q_1 suffice.  The inputs must be coprime over the
    rationals.
    """
    if len(Qs) < 2:
        raise PolyError("at least two polynomials required")
    params = _params(Qs)
    g = gcd_q_fold(Qs)
    if not g.is_constant():
        raise PolyError(f"inputs share the rational factor {g}")

    candidates = candidate_fixed_primes(Qs[0], params)  # proved primes
    violations, refuted = ResidueTables(Qs, params).partition(candidates)
    return CopschReport(not violations, tuple(candidates), refuted, violations)


def coprime_search(Qs, budget=10**5):
    """First point (spiral order) where the values have gcd 1."""
    params = _params(Qs)
    local = check_copsch_local(Qs)
    if not local.verdict:
        raise PolyError(
            f"local condition fails at prime {local.violations[0]}: "
            "no point can make the values coprime"
        )
    tried = 0
    for tried, m in enumerate(itertools.islice(spiral(len(params)), max(budget, 0)), 1):
        point = dict(zip(params, m))
        values = tuple(Q.evaluate(point) for Q in Qs)
        if math.gcd(*values) == 1:
            return CoprimeReport(local, m, values, 1, tried)
    raise BudgetExceeded(f"no coprime point within {tried} candidates")
