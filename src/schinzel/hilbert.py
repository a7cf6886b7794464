"""Search and verification of irreducibility-preserving specializations.

A parameter point t belongs to the target set when every family member
specialized at t stays irreducible over Q and the specialized product has
unit content.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
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


def _engine_applies(polys, split):
    """True iff the block engine serves the family: one variable, and no member has other names."""
    names = split.params + split.variables
    return split.n == 1 and all(
        set(names) <= set(P.registry) and set(P.variables()) <= set(names) for P in polys
    )


def _block_columns(members, monos, block):
    """Each member's Y-coefficient columns over the points of `block`.

    `members` holds the members' `coefficient_rows`, whose parameter
    monomials `monos` numbers; each monomial is evaluated once per block.
    """
    axes, values = list(zip(*block)), []
    for m in monos:
        value = [1] * len(block)
        for axis, e in zip(axes, m):
            if e:
                value = [v * x**e for v, x in zip(value, axis)]
        values.append(value)
    out = []
    for rows in members:
        columns = []
        for row in rows:
            column = [0] * len(block)
            for c, j in row:
                column = [a + c * v for a, v in zip(column, values[j])]
            columns.append(column)
        out.append(columns)
    return out


def _evidence_stream(polys, split, points, size=_BLOCK, tables=None):
    """(t, the fields of `specialization_check` at t) for each t of `points`, in order.

    For one variable Y, blocks of `size` points, doubling up to _BLOCK, are
    evaluated at once and go to `_modp_pass` a member at a time, with one F_p
    verdict table per member, from `tables` or new for the call.  With one
    parameter, an image of the member's full degree in Y passes its t, so its
    verdicts are keyed by t mod p.  That pass cannot raise.  An image no prime
    certifies goes to `root_verdict` only as the consumer reaches its point, in
    (point, member) order, so every result and BudgetExceeded is pointwise.
    Its reducible certificates carry no factor: callers report members only.
    """
    if not _engine_applies(polys, split):
        for t in points:
            yield t, _evidence(_images(polys, split, t))
        return

    # monos numbers the parameter monomials, evaluated once per block
    y, monos = split.variables[0], {}
    members = [coefficient_rows(P, split.params, y, monos) for P in polys]
    tables = tables if tables is not None else [{} for _ in polys]
    points = iter(points)
    while block := list(itertools.islice(points, size)):
        size = min(2 * size, _BLOCK)
        # per point, [content, g, certificate] per member, up to one constant there (None)
        images = [[] for _ in block]
        for rows, columns, verdicts in zip(members, _block_columns(members, monos, block), tables):
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


def _sieve(polys, split, points, tables, counts):
    """The points of `points`, consecutive one-parameter (t,), that the class sieve leaves.

    Per block of _BLOCK points and member, each class r mod p of the first
    MODP_TRIES primes that still holds an uncertified point is decided once,
    from the member's Y-coefficients at its first point in the block, into
    the member's table of `tables` under the key r, as `_modp_pass` would
    write it.  A certifying class marks all its points at once.  Where p
    does not divide lead(F(r, Y)), no point of the class drops in degree or
    has content divisible by p, and p is in its schedule unless an earlier
    prime certifies it, so the engine certifies every marked point too.  A
    point that every member marks is tallied in `counts`, under None (a
    member) if the product of the members' contents is 1, else under
    `content c`; the rest are yielded, in order, for the engine.
    """
    y, monos = split.variables[0], {}
    members = [coefficient_rows(P, split.params, y, monos) for P in polys]
    if any(len(rows) < 2 for rows in members):  # a member without Y is constant everywhere
        yield from points
        return
    sieve = [(p, modp_certificate(p)) for p in itertools.islice(primes(), MODP_TRIES)]
    points = iter(points)
    while block := list(itertools.islice(points, _BLOCK)):
        t0, size = block[0][0], len(block)
        # a byte per point, 1 where every member so far is marked
        everywhere, contents = (1 << 8 * size) - 1, itertools.repeat(1)
        for columns, verdicts in zip(_block_columns(members, monos, block), tables):
            marked = bytearray(size)
            for p, cert in sieve:
                memo = verdicts.setdefault(p, {})
                for o in range(min(p, size)):
                    if 0 not in marked[o::p]:
                        continue
                    step = memo.get(key := (t0 + o) % p)
                    if step is None:
                        f = [column[o] for column in columns]
                        step = memo[key] = 0 if not f[-1] % p else cert if fp_irreducible(f, p) else 1
                    if step is cert:
                        marked[o::p] = b"\x01" * len(range(o, size, p))
                if 0 not in marked:
                    break
            everywhere &= int.from_bytes(marked, "little")
            contents = map(operator.mul, contents, map(math.gcd, *columns))
        certified = everywhere.to_bytes(size, "little")
        for c, n in collections.Counter(itertools.compress(contents, certified)).items():
            counts[None if c == 1 else f"content {c}"] += n
        yield from (t for t, done in zip(block, certified) if not done)


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
    counts = collections.Counter()  # reason label -> points, None for members
    tables = [{} for _ in polys]  # each member's F_p verdicts, shared by the sieve and the engine
    axis = range(-N, N + 1)  # zip(axis) pools no 2N + 1 values, unlike product
    points = zip(axis) if split.k == 1 else itertools.product(axis, repeat=split.k)
    if split.k == 1 and _engine_applies(polys, split):
        points = _sieve(polys, split, points, tables, counts)
    for _, (_, _, member, reason) in _evidence_stream(polys, split, points, tables=tables):
        counts[None if member else (reason or "unknown").split(":")[0]] += 1
    members = counts.pop(None, 0)
    return DensityReport(N, total, members, total - members, dict(sorted(counts.items())))
