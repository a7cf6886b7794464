"""Search and verification of irreducibility-preserving specializations.

A parameter point t belongs to the target set when every family member
specialized at t stays irreducible over Q and the specialized product has
unit content.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .factorlab import content_q, exact_div, is_irreducible_q, is_primitive_wrt
from .fixdiv import fixed_prime_divisors
from .polyring import BudgetExceeded, PolyError
from .numutil import spiral


@dataclass(frozen=True)
class SpecializationPoint:
    t: tuple
    certificates: tuple
    content: int
    member: bool
    reason: str | None = None


@dataclass(frozen=True)
class HypothesesReport:
    irreducible: tuple  # per polynomial: (bool, IrredCertificate or reason string)
    primitive: tuple  # per polynomial: bool
    fixdiv: object  # FixedDivisorReport of the product

    @property
    def all_pass(self):
        return (
            all(flag for flag, _ in self.irreducible)
            and all(self.primitive)
            and not self.fixdiv.confirmed
        )


def _irred_over_param_field(P, split):
    """Irreducibility in Q(T)[Y], via the primitive part w.r.t. the parameters."""
    if P.total_degree(split.variables) < 1:
        return False, "degree 0 in the variables"
    g = content_q(P, split.variables)
    core = P if g.is_constant() else exact_div(P, g)
    if core is None or core.is_constant():
        return False, "degenerate after removing the parameter content"
    cert = is_irreducible_q(core)
    return cert.irreducible, cert


def hypotheses_check(polys, split):
    """Diagnostic for the three standing conditions on the family."""
    if not polys:
        raise PolyError("empty family")
    irred, prim = [], []
    for P in polys:
        if P.is_zero():
            raise PolyError("zero polynomial in the family")
        irred.append(_irred_over_param_field(P, split))
        prim.append(is_primitive_wrt(P, split))
    report = fixed_prime_divisors(math.prod(polys), split)
    return HypothesesReport(tuple(irred), tuple(prim), report)


def specialization_check(polys, split, t):
    """Full membership evidence for one parameter point."""
    bindings = dict(zip(split.params, t))
    certificates = []
    content = 1  # of the product: content(fg) = content(f) * content(g) (Gauss)
    member = True
    reason = None
    for i, P in enumerate(polys):
        S = P.substitute(bindings)
        if S.is_zero() or S.is_constant():
            return SpecializationPoint(
                tuple(t),
                tuple(certificates),
                0,
                False,
                f"degenerate: polynomial #{i + 1} is constant at t",
            )
        cert = is_irreducible_q(S)
        certificates.append(cert)
        content *= S.content()
        if not cert.irreducible and member:
            member = False
            reason = f"reducible: polynomial #{i + 1}"
    if member and content != 1:
        member = False
        reason = f"content {content}"
    return SpecializationPoint(tuple(t), tuple(certificates), content, member, reason)


def hilbert_search(polys, split, budget=10**6):
    """Lazy stream of members in spiral order.

    Raises BudgetExceeded when the budget runs out before the first member.
    """
    found = 0
    examined = 0
    for t in spiral(split.k):
        if examined >= budget:
            break
        examined += 1
        sp = specialization_check(polys, split, t)
        if sp.member:
            found += 1
            yield sp
    if found == 0:
        raise BudgetExceeded(
            f"no member within {examined} points (enlarge the budget)"
        )


@dataclass(frozen=True)
class DensityReport:
    N: int
    total: int
    members: int
    non_members: int
    reasons: dict  # reason label -> count


def density_report(polys, split, N, budget=10**7):
    """Exact member counts over the box [-N, N]^k."""
    total = (2 * N + 1) ** split.k
    if total > budget:
        raise BudgetExceeded(f"{total} points exceed the budget {budget}")
    members = 0
    reasons = {}
    for t in itertools.product(range(-N, N + 1), repeat=split.k):
        sp = specialization_check(polys, split, t)
        if sp.member:
            members += 1
        else:
            label = (sp.reason or "unknown").split(":")[0]
            reasons[label] = reasons.get(label, 0) + 1
    return DensityReport(N, total, members, total - members, dict(sorted(reasons.items())))
