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
    MODP_TRIES,
    content_q,
    exact_div,
    is_irreducible_q,
    is_primitive_wrt,
    modp_certificate,
    root_verdict,
)
from .fixdiv import fixed_prime_divisors
from .polyring import BudgetExceeded, PolyError, coefficient_rows
from .numutil import primes, spiral
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

    `images` yields one sequence (content, ..., certificate) per member,
    lazily; None stands for a member that is constant at the point and ends it.
    """
    certificates = []
    content = 1  # of the product: content(fg) = content(f) * content(g) (Gauss)
    member = True
    reason = None
    for i, image in enumerate(images):
        if image is None:
            reason = f"degenerate: polynomial #{i + 1} is constant at t"
            return tuple(certificates), 0, False, reason
        c, cert = image[0], image[-1]
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


_BLOCK = 1024  # points per block at most: the engine's memory does not grow with the box


def _modp_pass(groups, verdicts):
    """Give each image of one member F its mod-p certificate of `univariate_certificate`, or None.

    `groups` maps (length, content) to the records (image, t) of F's
    primitive images [content, g, None] with that length of g and content.
    `verdicts`, shared by the blocks, memoizes their F_p tests: verdicts[p]
    maps an image's key at p to 0 if p divides the lead (p is skipped), 1 if
    the image is reducible mod p (one of MODP_TRIES tries), or else the
    certificate.  The key is t mod p where t is not None and p does not
    divide the content: content * g = F(t, Y) then keeps F's degree in Y, so
    g is F(t mod p, Y) mod p up to a unit, and one column per prime decides
    whole residue classes.  Any other key is the tuple g mod p; a record
    without t has content 0, which every p divides.  The schedule is walked one
    prime at a time, by key columns of a group's uncertified images.
    """
    for (_, c), records in groups.items():
        tries = [0] * len(records)
        for p in primes():
            cert, memo = modp_certificate(p), verdicts.setdefault(p, {})
            if c % p:
                keys = [t % p for _, t in records]
            else:
                keys = zip(*[[x % p for x in coeffs] for coeffs in zip(*[e[1] for e, _ in records])])
            kept = []
            for record, key, n in zip(records, keys, tries):
                step = memo.get(key)
                if step is None:
                    g = record[0][1]
                    step = memo[key] = 0 if not g[-1] % p else cert if fp_irreducible(g, p) else 1
                if step is cert:
                    record[0][2] = cert
                elif n + step < MODP_TRIES:
                    kept.append((record, n + step))
            if not kept:
                break
            records, tries = zip(*kept)


def _evidence_stream(polys, split, points, size=_BLOCK):
    """(t, the fields of `specialization_check` at t) for each t of `points`, in order.

    For one variable Y, blocks of `size` points, doubling up to _BLOCK, are
    evaluated at once and go to `_modp_pass` a member at a time, with one F_p
    verdict table per member and call.  With one parameter, an image of the
    member's full degree in Y passes its t, so its verdicts are keyed by
    t mod p.  That pass cannot raise.  An image no prime certifies
    goes to `root_verdict` only as the consumer reaches its point, in
    (point, member) order, so every result and BudgetExceeded is pointwise.
    Its reducible certificates carry no factor: callers report members only.
    """
    names = split.params + split.variables
    if split.n != 1 or any(
        not set(names) <= set(P.registry) or not set(P.variables()) <= set(names)
        for P in polys
    ):
        for t in points:
            yield t, _evidence(_images(polys, split, t))
        return

    # monos numbers the parameter monomials, evaluated once per block
    y, monos = split.variables[0], {}
    members = [coefficient_rows(P, split.params, y, monos) for P in polys]
    tables = [{} for _ in polys]  # a member's F_p verdicts, shared by the blocks
    points = iter(points)
    while block := list(itertools.islice(points, size)):
        size = min(2 * size, _BLOCK)
        values = [[math.prod(map(pow, t, m)) for t in block] for m in monos]
        # per point, [content, g, certificate] per member, up to one constant there (None)
        images = [[] for _ in block]
        for rows, verdicts in zip(members, tables):
            columns = []
            for row in rows:
                column = [0] * len(block)
                for c, j in row:
                    column = [a + c * v for a, v in zip(column, values[j])]
                columns.append(column)
            groups, full = {}, len(rows) if split.k == 1 else 0
            for t, image, f in zip(block, images, zip(*columns)):
                if image and image[-1] is None:
                    continue
                f = trim(list(f))
                if len(f) < 2:
                    image.append(None)
                    continue
                c = math.gcd(*f)
                image.append(e := [c, f if c == 1 else [x // c for x in f], None])
                # with one parameter, an image of the member's full degree in Y passes its t
                t1 = t[0] if len(f) == full else None
                groups.setdefault((len(f), 0 if t1 is None else c), []).append((e, t1))
            _modp_pass(groups, verdicts)
        for t, image in zip(block, images):
            for i, e in enumerate(image):
                if e is not None and e[2] is None:
                    e[2] = root_verdict(e[1], polys[i].registry, y)
            yield t, _evidence(image)


def hilbert_search(polys, split, budget=10**6):
    """Lazy stream of members in spiral order, in blocks of 16 points doubling up to _BLOCK.

    Raises BudgetExceeded when the budget (none if negative) runs out
    before the first member.
    """
    points = itertools.islice(spiral(split.k), max(budget, 0))
    found = 0
    examined = 0
    for examined, (t, evidence) in enumerate(_evidence_stream(polys, split, points, 16), 1):
        if evidence[2]:  # member
            found += 1
            yield SpecializationPoint(tuple(t), *evidence)
    if found == 0:
        raise BudgetExceeded(f"no member within {examined} points (enlarge the budget)")


@dataclass(frozen=True)
class DensityReport:
    N: int
    total: int
    members: int
    non_members: int
    reasons: dict  # reason label -> count


def density_report(polys, split, N, budget=10**7):
    """Exact member counts over the box [-N, N]^k, N >= 0, in memory that does not grow with N."""
    if N < 0:
        raise PolyError(f"box half-width N = {N} is negative")
    total = (2 * N + 1) ** split.k
    if total > budget:
        raise BudgetExceeded(f"{total} points exceed the budget {budget}")
    members = 0
    reasons = {}
    axis = range(-N, N + 1)  # zip(axis) pools no 2N + 1 values, unlike product
    points = zip(axis) if split.k == 1 else itertools.product(axis, repeat=split.k)
    for _, (_, _, member, reason) in _evidence_stream(polys, split, points):
        if member:
            members += 1
        else:
            label = (reason or "unknown").split(":")[0]
            reasons[label] = reasons.get(label, 0) + 1
    return DensityReport(N, total, members, total - members, dict(sorted(reasons.items())))
