"""Search and verification of irreducibility-preserving specializations.

A parameter point t belongs to the target set when every family member
specialized at t stays irreducible over Q and the specialized product has
unit content.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .factorlab import (
    content_q,
    exact_div,
    is_irreducible_q,
    is_primitive_wrt,
    univariate_certificate,
)
from .fixdiv import fixed_prime_divisors
from .polyring import BudgetExceeded, PolyError
from .numutil import spiral
from .upoly import fp_irreducible, trim


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


def _evidence(images):
    """Membership evidence (certificates, content, member, reason) of one point.

    `images` yields one (content, certificate) pair per member, lazily;
    None stands for a member that is constant at the point and ends it.
    """
    certificates = []
    content = 1  # of the product: content(fg) = content(f) * content(g) (Gauss)
    member = True
    reason = None
    for i, image in enumerate(images):
        if image is None:
            reason = f"degenerate: polynomial #{i + 1} is constant at t"
            return tuple(certificates), 0, False, reason
        c, cert = image
        certificates.append(cert)
        content *= c
        if not cert.irreducible and member:
            member = False
            reason = f"reducible: polynomial #{i + 1}"
    if member and content != 1:
        member = False
        reason = f"content {content}"
    return tuple(certificates), content, member, reason


def _images(polys, split, t):
    """The (content, certificate) pair of each member substituted at t, lazily."""
    bindings = dict(zip(split.params, t))
    for P in polys:
        S = P.substitute(bindings)
        yield None if S.is_zero() or S.is_constant() else (S.content(), is_irreducible_q(S))


def specialization_check(polys, split, t):
    """Full membership evidence for one parameter point."""
    return SpecializationPoint(tuple(t), *_evidence(_images(polys, split, t)))


def _residue_class_check(polys, split):
    """The fields (certificates, content, member, reason) of `specialization_check`, per t.

    For one variable Y, each image's primitive part g goes to the
    `univariate_certificate` that `is_irreducible_q` calls, with one table
    of distinct-degree verdicts as its F_p test, keyed by
    (p, *[x % p for x in g]): no scheduled p divides g's lead, so g mod p
    fixes the verdict.  As t mod p and the content fix g mod p, a mod-p
    certificate covers a residue class.  A point that no prime certifies
    goes to the root route, then the oracle, so results are identical.
    The verdicts live as long as the returned function.
    """
    names = split.params + split.variables
    if split.n != 1 or any(
        not set(names) <= set(P.registry) or not set(P.variables()) <= set(names)
        for P in polys
    ):
        return lambda t: _evidence(_images(polys, split, t))

    # per member and Y-degree, the coefficient as [(integer, monomial index)];
    # monos numbers the parameter monomials, evaluated once per point
    y = split.variables[0]
    monos = {}
    members = []
    for P in polys:
        rows = [[] for _ in range(P.degree_in(y) + 1)]
        for expo, C in P.coefficients(names).items():
            j = monos.setdefault(expo[:-1], len(monos))
            rows[expo[-1]].append((C.constant_value(), j))
        members.append((rows, P.registry))
    verdicts = {}

    def irreducible_mod(g, p):
        key = (p, *[x % p for x in g])
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = fp_irreducible(g, p)
        return verdict

    def images(t):
        values = [math.prod(map(pow, t, m)) for m in monos]
        for rows, registry in members:
            f = trim([sum([c * values[j] for c, j in row]) for row in rows])
            if len(f) < 2:
                yield None
                return
            c = math.gcd(*f)
            g = f if c == 1 else [x // c for x in f]
            yield c, univariate_certificate(g, registry, y, irreducible_mod)

    return lambda t: _evidence(images(t))


def hilbert_search(polys, split, budget=10**6):
    """Lazy stream of members in spiral order.

    Raises BudgetExceeded when the budget runs out before the first member.
    """
    check = _residue_class_check(polys, split)
    found = 0
    examined = 0
    for examined, t in enumerate(itertools.islice(spiral(split.k), budget), 1):
        evidence = check(t)
        if evidence[2]:  # member
            found += 1
            yield SpecializationPoint(tuple(t), *evidence)
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
    """Exact member counts over the box [-N, N]^k, N >= 0."""
    if N < 0:
        raise PolyError(f"box half-width N = {N} is negative")
    total = (2 * N + 1) ** split.k
    if total > budget:
        raise BudgetExceeded(f"{total} points exceed the budget {budget}")
    members = 0
    reasons = {}
    check = _residue_class_check(polys, split)
    for t in itertools.product(range(-N, N + 1), repeat=split.k):
        _, _, member, reason = check(t)
        if member:
            members += 1
        else:
            label = (reason or "unknown").split(":")[0]
            reasons[label] = reasons.get(label, 0) + 1
    return DensityReport(N, total, members, total - members, dict(sorted(reasons.items())))
