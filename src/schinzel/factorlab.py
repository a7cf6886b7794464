"""Irreducibility decisions and factorization over Z and Q.

Two routes are kept strictly separate: cheap certificates (mod-p, rational
root and evaluation witnesses) and the exhaustive Kronecker oracle, which
serves as desk-scale ground truth for everything the certificates claim.
A univariate input's prime walk also lifts its rational roots p-adically.
Every decision here is on a single polynomial: `hilbert` keys the F_p
verdicts of a family's images by residue class itself, with the shared
`modp_certificate` and `MODP_TRIES` from here.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .numutil import RhoBudgetError, UnprovedPrimeError, divisors, primes, signed_ints
from .numutil import spiral
from .polyring import BudgetExceeded, MPoly, PolyError, coefficient_rows, dense, reduce_mod
from .polyring import undense
from .upoly import _ROOT_SCAN_BELOW, evaluate, exact_quotient, fp_distinct_degree, fp_gcd
from .upoly import fp_irreducible, fp_roots, mul, require_prime, trim

MODP_TRIES = 10
EVAL_POINT_TRIES = 40
_IMAGE_PRIME = 10007  # gcd_q's coprimality image lives in F_p[x] for this p
_IMAGE_POINTS = 4  # spiral points tried for one where both leading coefficients survive
MAX_VARS = 3  # the Kronecker oracle packs at most this many variables into one
MAX_TOTAL_DEGREE = 12  # and factors at most this total degree


BudgetError = BudgetExceeded  # the name callers of the Kronecker oracle know


@dataclass(frozen=True)
class IrredCertificate:
    """Evidence for an irreducibility verdict.

    method is one of 'mod-p', 'root', 'evaluation', 'kronecker', 'content'.
    For mod-p the witness is the prime; for root, a linear factor or, at
    degree <= 3, the absence of a rational root; for evaluation the point
    plus the inner certificate of the univariate image; for reducible
    verdicts the witness is a nontrivial factor dividing the input exactly.
    """

    verdict: str
    method: str
    prime: int | None = None
    point: dict | None = None
    factor: MPoly | None = None
    detail: str = ""

    @property
    def irreducible(self):
        return self.verdict == "irreducible"


@dataclass(frozen=True)
class Factorization:
    unit: int
    content: int
    factors: tuple  # ((MPoly, multiplicity), ...) primitive, positive leading coeff

    def product(self, registry=None):
        if registry is None:
            if not self.factors:
                raise PolyError("registry required for a factorless product")
            registry = self.factors[0][0].registry
        return math.prod(
            (f**m for f, m in self.factors),
            start=MPoly.const(registry, self.unit * self.content),
        )


# -- finite field univariate -----------------------------------------


def is_irreducible_fp(P, p):
    """Distinct-degree irreducibility test of P mod p in F_p[x].

    P reduced mod p must involve exactly one variable.  True iff that
    reduction is irreducible: gcd(f, x^(p^i) - x) is constant for every
    i <= deg(f)/2.
    """
    require_prime(p)
    R = reduce_mod(P, p)
    names = R.variables()
    if len(names) != 1:
        raise PolyError("univariate polynomial required")
    return fp_irreducible(dense(R, names[0]), p)


# -- Kronecker oracle ------------------------------------------------


def _signed_divisors(v, positive_only=False):
    try:
        ds = divisors(v)
    except (UnprovedPrimeError, RhoBudgetError) as exc:
        raise BudgetExceeded(f"kronecker oracle cannot list the divisors of {v}: {exc}")
    if positive_only:
        return ds
    return [d for a in ds for d in (a, -a)]


def _agreeing(values, x, pts, chosen):
    """The values v with (v - chosen[j]) divisible by (x - pts[j]) for every j."""
    steps = [(x - xj, cj) for xj, cj in zip(pts, chosen)]
    out = []
    for v in values:
        for step, c in steps:
            if (v - c) % step:
                break
        else:
            out.append(v)
    return out


def _newton_row(prev, pts, y):
    """Divided differences f[x_k], f[x_k-1, x_k], ..., f[x_0..x_k] with f(x_k) = y.

    k = len(prev) and prev is the row of x_k-1.  None if one is not an integer.
    """
    k = len(prev)
    row = [y]
    for i in range(1, k + 1):
        q, r = divmod(row[-1] - prev[i - 1], pts[k] - pts[k - i])
        if r:
            return None
        row.append(q)
    return row


def _from_newton(coeffs, pts):
    """Dense coefficients of sum_k coeffs[k] * (x - pts[0]) ... (x - pts[k-1])."""
    g = [coeffs[-1]]
    for c, a in zip(reversed(coeffs[:-1]), reversed(pts[: len(coeffs) - 1])):
        # g <- g * (x - a) + c
        g = [c - a * g[0]] + [g[i - 1] - a * g[i] for i in range(1, len(g))] + [g[-1]]
    return g


def _search_degree(f, pts, divlists, combos, combo_budget):
    """Divisor search for a factor of f of degree d = len(pts) - 1.

    Depth first, one value per point from its divisor list, in list order.
    A value is kept only if it differs from each earlier one by a multiple
    of the point spacing; each complete choice of d + 1 values is one
    candidate against combo_budget, counted on from combos.  Each level
    extends a row of Newton divided differences.  Once one of them is not an
    integer, no polynomial in Z[x] takes the chosen values, and the
    candidates below are counted without arithmetic.  Returns the first
    candidate that divides f exactly, or None, with the updated count;
    raises BudgetExceeded once the count passes combo_budget.
    """
    d = len(pts) - 1
    lead = f[-1]
    chosen = [0] * d
    rows = [None] * d  # Newton row per level, None below a fractional entry
    opts = [divlists[0]] + [None] * (d - 1)
    pos = [0] * d
    level = 0
    while level >= 0:
        if pos[level] == len(opts[level]):
            level -= 1
            continue
        e = chosen[level] = opts[level][pos[level]]
        pos[level] += 1
        prev = rows[level - 1] if level else []
        rows[level] = None if prev is None else _newton_row(prev, pts, e)
        nxt = _agreeing(divlists[level + 1], pts[level + 1], pts, chosen[: level + 1])
        if level + 1 < d:
            level += 1
            opts[level], pos[level] = nxt, 0
            continue
        last = rows[level]
        room = combo_budget - combos  # candidates checked before the budget runs out
        for i, v in enumerate(nxt[:room] if last is not None else ()):
            row = _newton_row(last, pts, v)
            # row[-1] is the leading coefficient; pts[0] = 0, so g(0) = chosen[0] divides f(0)
            if row is None or row[-1] == 0 or lead % row[-1]:
                continue
            g = _from_newton([r[-1] for r in rows] + [row[-1]], pts)
            if exact_quotient(f, g) is not None:
                return g, combos + i + 1
        combos += len(nxt)
        if combos > combo_budget:
            raise BudgetExceeded(
                f"kronecker oracle exceeded {combo_budget} interpolation candidates"
            )
    return None, combos


def _find_dense_factor(f, combo_budget):
    """Smallest-degree proper factor of a primitive dense poly, or None.

    Divisor interpolation: a degree-d factor is determined by its values at
    d+1 points, and those values divide the values of f there.
    """
    max_d = (len(f) - 1) // 2
    # gather sample points, splitting off roots immediately
    points, values = [], []
    for x in signed_ints():
        v = evaluate(f, x)
        if v == 0:
            return [-x, 1]
        points.append(x)
        values.append(v)
        if len(points) > max_d:
            break
    # divisor lists are made the first time a degree needs the point
    divlists = []
    combos = 0
    for d in range(1, max_d + 1):
        while len(divlists) <= d:
            i = len(divlists)
            divlists.append(_signed_divisors(values[i], positive_only=(i == 0)))
        g, combos = _search_degree(f, points[: d + 1], divlists, combos, combo_budget)
        if g is not None:
            return g
    return None


def _factor_dense(f, combo_budget):
    """Irreducible factors (with multiplicity) of a primitive dense poly."""
    out = []
    cur = trim(list(f))
    if cur[-1] < 0:
        cur = [-a for a in cur]
    while len(cur) > 1:
        g = _find_dense_factor(cur, combo_budget)
        if g is None:
            out.append(cur)
            break
        if g[-1] < 0:
            g = [-a for a in g]
        c = math.gcd(*g)
        g = [a // c for a in g]
        out.append(g)
        cur = exact_quotient(cur, g)
    out.sort(key=lambda c: (len(c), c))
    return out


def exact_div(f, g):
    """f/g in Z[registry] if the division is exact, else None."""
    if g.is_zero():
        raise PolyError("division by zero polynomial")
    if f.is_zero():
        return f
    if g.registry != f.registry:
        raise PolyError("registry mismatch in division")
    gterms = sorted(g.terms.items(), reverse=True)  # lex order
    glead_e, glead_c = gterms[0]
    rem = dict(f.terms)
    quot = {}
    while rem:
        e = max(rem)
        qe = tuple(a - b for a, b in zip(e, glead_e))
        if any(x < 0 for x in qe):
            return None
        # an exact quotient over Z leaves a lead divisible by g's at every step
        qc, r = divmod(rem[e], glead_c)
        if r:
            return None
        quot[qe] = qc
        for ge, gc in gterms:
            re = tuple(a + b for a, b in zip(qe, ge))
            nv = rem.get(re, 0) - qc * gc
            if nv:
                rem[re] = nv
            else:
                rem.pop(re, None)
    return MPoly(f.registry, quot)


def _normalize_sign(P):
    """Flip sign so the graded-lex leading coefficient is positive."""
    return -P if P.leading_coefficient() < 0 else P


def kronecker_factor(P, combo_budget=2_000_000):
    """Complete factorization over Z by the Kronecker method.

    Returns Factorization(unit, content, factors).  Multivariate inputs are
    packed into one variable by Kronecker substitution, the image is
    factored by divisor interpolation, and candidate factors are lifted
    back with exact division checks.  Raises BudgetExceeded beyond desk scale:
    MAX_VARS variables, total degree MAX_TOTAL_DEGREE, `combo_budget` candidates.
    """
    if P.is_zero():
        raise PolyError("cannot factor the zero polynomial")
    content = P.content()
    pp = P.primitive_part()
    unit = 1
    if pp.leading_coefficient() < 0:
        unit = -1
        pp = -pp
    names = pp.variables()
    if not names:
        return Factorization(unit, content, ())
    if len(names) > MAX_VARS:
        raise BudgetExceeded(f"{len(names)} variables exceeds the {MAX_VARS}-variable budget")
    if pp.total_degree() > MAX_TOTAL_DEGREE:
        raise BudgetExceeded(
            f"total degree {pp.total_degree()} exceeds the degree-{MAX_TOTAL_DEGREE} budget"
        )

    try:
        if len(names) == 1:
            name = names[0]
            dense_factors = _factor_dense(dense(pp, name), combo_budget)
            collected = [undense(df, P.registry, name) for df in dense_factors]
        else:
            collected = _kronecker_multivar(pp, names, combo_budget)
    except BudgetExceeded as exc:
        detail = str(exc)
    else:
        counted = {}
        for fct in collected:
            counted[fct] = counted.get(fct, 0) + 1
        ordered = sorted(
            counted.items(), key=lambda kv: (kv[0].total_degree(), str(kv[0]))
        )
        return Factorization(unit, content, tuple(ordered))
    # raised here, once the search has unwound, so the traceback holds no search state
    raise BudgetExceeded(detail)


def _kronecker_multivar(pp, names, combo_budget):
    """Lift the univariate factorization of the Kronecker image."""
    degs = [pp.degree_in(n) for n in names]
    weights = []
    w = 1
    for d in degs:
        weights.append(w)
        w *= d + 1
    idx = [pp.registry.index(n) for n in names]

    def unpack(dense):
        terms = {}
        for e, c in enumerate(dense):
            if not c:
                continue
            expo = [0] * len(pp.registry)
            rest = e
            for i, d in zip(idx, degs):
                expo[i] = rest % (d + 1)
                rest //= d + 1
            if rest:
                return None  # exponent overflow: not the image of a bounded-degree poly
            terms[tuple(expo)] = c
        return MPoly(pp.registry, terms)

    x = MPoly.var(pp.registry, names[0])
    packed = pp.substitute({n: x**w for n, w in zip(names, weights)})  # weights[0] is 1
    image_factors = _factor_dense(dense(packed, names[0]), combo_budget)
    remaining = pp
    out = []
    pool = list(range(len(image_factors)))
    size = 1
    while pool and not remaining.is_constant():
        found = False
        for combo in itertools.combinations(pool, size):
            cand = unpack(functools.reduce(mul, (image_factors[i] for i in combo), [1]))
            if cand is None or cand.is_constant():
                continue
            cand = _normalize_sign(cand.primitive_part())
            quo = exact_div(remaining, cand)
            if quo is not None:
                out.append(cand)
                remaining = quo
                pool = [i for i in pool if i not in combo]
                found = True
                break
        if not found:
            size += 1
            if size > max(len(pool), 1):
                break
    if not remaining.is_constant():
        out.append(_normalize_sign(remaining.primitive_part()))
    return out


# -- certificates ----------------------------------------------------


def _prime_schedule(lead):
    """First MODP_TRIES primes not dividing the leading coefficient, lazily."""
    return itertools.islice((p for p in primes() if lead % p), MODP_TRIES)


@functools.cache
def modp_certificate(p):
    """The mod-p certificate with witness p: one frozen object per prime, shared by every input."""
    return IrredCertificate("irreducible", "mod-p", prime=p)


def _lift(g, dg, r, p):
    """The rational root (a, b), b > 0, of the dense g that the root r mod p lifts to, or None.

    g(0) != 0, dg = g', and r is simple: dg(r) != 0 mod p.  Newton's step runs
    mod p^(2^j), and a root a/b has b | lead and a | g(0), so lead*a/b is the
    symmetric residue of lead*r once p^(2^j) passes 2*|lead*g(0)|; it is tested exactly.
    """
    lead, q, bound = g[-1], p, 2 * abs(g[-1] * g[0])
    while q <= bound:
        q *= q
        r = (r - evaluate(g, r) * pow(evaluate(dg, r), -1, q)) % q
    c = (lead * r + q // 2) % q - q // 2  # the symmetric residue
    h = math.gcd(c, lead) if lead > 0 else -math.gcd(c, lead)
    a, b = c // h, lead // h
    if sum(ci * a**i * b ** (len(g) - 1 - i) for i, ci in enumerate(g)) == 0:
        return a, b


def univariate_certificate(f, registry, name, **oracle_opts):
    """Irreducibility over Q of a primitive univariate: mod-p, roots, then the oracle.

    `f` is the dense integer coefficient list of a primitive polynomial of
    degree >= 1 in `name`.  The first scheduled prime p (one not dividing
    the leading coefficient, so f mod p keeps its degree) modulo which f is
    irreducible is the certificate.  The walk's root scans settle the
    rational roots on the way, lifted at the first prime whose roots mod p
    are all simple: a rational root ends it, with the `str`-least b*x - a as
    the factor (method `root`); see `_walk`.
    """
    return _walk(f, registry, name, oracle_opts, tests=True, witness=True)


def root_verdict(f, registry, name, **oracle_opts):
    """The verdict on a primitive univariate f that no scheduled prime certifies.

    The walk of `univariate_certificate` without the F_p tests: degree 1 keeps
    its first-prime mod-p certificate, and the root scans alone settle the
    rational roots.  A rational root makes f reducible, with a `root`
    certificate that carries no factor, so the settling prime's roots are
    lifted only up to the first rational one; a degree <= 3 without one is
    irreducible.  Everything else goes to the Kronecker oracle, which decides
    `undense(f, registry, name)`.
    """
    return _walk(f, registry, name, oracle_opts, tests=False, witness=False)


def _walk(f, registry, name, oracle_opts, tests, witness):
    """The verdict on f from its scheduled primes p, its F_p tests if `tests`, and its roots.

    Degree 1 takes the first p as its mod-p certificate.  Else f = x^k * g,
    g(0) != 0, and f irreducible mod p, tested while f may lack a rational
    root, is the mod-p certificate.  Until f's rational roots are settled,
    each p below _ROOT_SCAN_BELOW scans g mod p once, and a p with a multiple
    root mod p moves on.  The first p whose roots mod p are all simple settles
    them: `_lift` lifts each rational root of f from its root mod p, so a root
    (0 if k > 0) ends the walk with a reducible `root` certificate, with the
    `str`-least b*x - a as the factor if `witness`; with no root mod p, f is
    tested at p by `fp_distinct_degree`.  After the walk, degree <= 3 without a
    rational root is irreducible, and the rest goes to the Kronecker oracle.
    """
    schedule = _prime_schedule(f[-1])
    if len(f) == 2:
        return modp_certificate(next(schedule))
    k = next(i for i, c in enumerate(f) if c)
    g, dg = f[k:], [i * c for i, c in enumerate(f[k:])][1:]
    settled = False  # f's rational roots are all known, and f has none
    for p in schedule:
        if settled or p >= _ROOT_SCAN_BELOW:
            if tests and not k and fp_irreducible(f, p):
                return modp_certificate(p)
            continue
        scan = list(fp_roots(g, p)) if dg else []  # x^k has no root but 0
        if not all(evaluate(dg, r) % p for r in scan):
            continue  # a multiple root mod p settles nothing
        settled = True
        roots = itertools.chain([(0, 1)] if k else [],
                                filter(None, (_lift(g, dg, r, p) for r in scan)))
        root = next(roots, None)
        if root:
            if not witness:
                return IrredCertificate("reducible", "root")
            factors = (undense([-a, b], registry, name) for a, b in itertools.chain([root], roots))
            return IrredCertificate("reducible", "root", factor=min(factors, key=str))
        if tests and not scan and (len(f) <= 4 or fp_distinct_degree(f, p)):
            return modp_certificate(p)
    if settled and len(f) <= 4:
        return IrredCertificate("irreducible", "root")
    return _kronecker_certificate(undense(f, registry, name), **oracle_opts)


def _kronecker_certificate(P, **oracle_opts):
    """Verdict of the Kronecker oracle, with a factor as the reducible witness."""
    fac = kronecker_factor(P, **oracle_opts)
    if len(fac.factors) == 1 and fac.factors[0][1] == 1:
        return IrredCertificate("irreducible", "kronecker")
    return IrredCertificate("reducible", "kronecker", factor=fac.factors[0][0])


def is_irreducible_q(P, **oracle_opts):
    """Irreducibility in Q[registry], with a certificate.

    Univariate: the mod-p schedule with the root route, then the Kronecker
    oracle (see `univariate_certificate`).  Multivariate:
    primitivity in a main variable plus a degree-preserving integer
    evaluation with irreducible univariate image at one of the first
    EVAL_POINT_TRIES spiral points (a reducible image, or one the oracle
    cannot decide, tries the next point); full oracle as fallback.
    """
    if P.is_zero() or P.is_constant():
        raise PolyError("irreducibility undefined for constants")
    pp = _normalize_sign(P.primitive_part())
    names = pp.variables()
    if len(names) == 1:
        return univariate_certificate(dense(pp, names[0]), pp.registry, names[0], **oracle_opts)

    # main variable: largest degree, ties broken by registry order
    main = max(names, key=lambda n: pp.degree_in(n))
    others = [n for n in names if n != main]
    g = content_q(pp, (main,))
    if not g.is_constant():
        return IrredCertificate(
            "reducible", "evaluation", factor=g, detail=f"common factor in {main}-coefficients"
        )
    for point, f in _spiral_images(pp, others, main, EVAL_POINT_TRIES):
        if not f[-1]:
            continue
        c = math.gcd(*f)
        f = [a // c for a in f]
        try:
            inner = _walk(f, pp.registry, main, oracle_opts, tests=True, witness=False)
        except BudgetExceeded:
            continue
        if inner.irreducible:
            return IrredCertificate(
                "irreducible",
                "evaluation",
                prime=inner.prime,
                point=dict(zip(others, point)),
                detail=f"image method {inner.method}",
            )
        # a reducible or undecided image is inconclusive for the multivariate input
    return _kronecker_certificate(pp, **oracle_opts)


def content_certificate(P):
    """The reducible-over-Z certificate of a content c != 1, or None when c is 1."""
    c = P.content()
    if c != 1:
        factor = MPoly.const(P.registry, c)
        return IrredCertificate("reducible", "content", factor=factor, detail=f"content {c}")


def is_irreducible_z(P, **opts):
    """True iff P is irreducible in Z[registry]: Q-irreducible with unit content."""
    if P.is_zero() or P.is_constant():
        raise PolyError("irreducibility undefined for constants")
    cert = content_certificate(P) or is_irreducible_q(P, **opts)
    return cert.irreducible, cert


# -- gcd over the rationals ------------------------------------------


def _prem(A, B, name):
    """Pseudo-remainder of A by B in `name`: lc(B)·A − lc(A)·x^(da−db)·B until da < db."""
    db = B.degree_in(name)
    lb = B.coefficients((name,))[(db,)]
    while (da := A.degree_in(name)) >= db:
        la = A.coefficients((name,))[(da,)]
        A = lb * A - la * MPoly.var(A.registry, name, da - db) * B
    return A


def _spiral_images(P, others, main, count):
    """(point, P there as a list in `main`) at the first `count` spiral points of `others`.

    The images are evaluated from P's `coefficient_rows`, not substituted.
    Each has deg_main(P) + 1 entries, so its last is 0 where the degree drops.
    """
    if not others:  # the one point is ()
        yield (), dense(P, main)
        return
    monos = {}
    rows = coefficient_rows(P, others, main, monos)
    for point in itertools.islice(spiral(len(others)), count):
        values = [math.prod(map(pow, point, m)) for m in monos]
        yield point, [sum([c * values[j] for c, j in row]) for row in rows]


def _coprime_image(polys, name, others):
    """True if one F_p image proves that the gcd of `polys` has degree 0 in `name`.

    `others`, the other variables of `polys`, are bound at the first of a few spiral
    points where every leading coefficient in `name` survives mod p.  A common factor
    of positive degree in `name` keeps its degree there and divides every image, so a
    constant `fp_gcd` fold of the images excludes it.  False is inconclusive.
    """
    for images in zip(*[_spiral_images(P, others, name, _IMAGE_POINTS) for P in polys]):
        fs = [[c % _IMAGE_PRIME for c in f] for _, f in images]
        if all(f[-1] for f in fs):
            return len(functools.reduce(lambda g, f: fp_gcd(f, g, _IMAGE_PRIME), fs)) == 1
    return False


def _gcd_q_raw(A, B):
    """gcd up to units in Q[registry]; constants are treated as units.

    In the main variable, the last present name in registry order, the gcd is
    the gcd of the contents times the gcd of the primitive parts (Brown 1971),
    and the primitive PRS finds the latter.
    """
    A = A.primitive_part()
    B = B.primitive_part()
    if A.is_constant() or B.is_constant():
        return MPoly.const(A.registry, 1)
    present = set(A.variables()) | set(B.variables())
    *others, name = [n for n in A.registry if n in present]
    contA, contB = content_q(A, (name,)), content_q(B, (name,))
    cg = _gcd_q_raw(contA, contB)
    if min(A.degree_in(name), B.degree_in(name)) == 0 or _coprime_image([A, B], name, others):
        return cg  # the gcd of the primitive parts is 1
    ppA, ppB = exact_div(A, contA), exact_div(B, contB)
    while not ppB.is_zero():
        R = _prem(ppA, ppB, name)
        ppA, ppB = ppB, R if R.is_zero() else exact_div(R, content_q(R, (name,))).primitive_part()
    return cg * ppA


def gcd_q(P, Q):
    """Primitive gcd over the rationals, positive leading coefficient."""
    if P.is_zero() and Q.is_zero():
        raise PolyError("gcd of two zero polynomials")
    if P.is_zero():
        return _normalize_sign(Q.primitive_part())
    if Q.is_zero():
        return _normalize_sign(P.primitive_part())
    if P.registry != Q.registry:
        raise PolyError("registry mismatch in gcd")
    return _normalize_sign(_gcd_q_raw(P, Q))


def gcd_q_fold(polys):
    """gcd over Q of nonzero polynomials, folded left to right with gcd_q.

    The constant 1 as soon as the gcd is a constant, at once when `_coprime_image`
    proves it for polynomials in one name; a single polynomial comes back as it is.
    """
    polys = list(polys)
    names = {n for c in polys for n in c.variables()}
    if len(polys) > 1 and len(names) == 1 and _coprime_image(polys, names.pop(), ()):
        return MPoly.const(polys[0].registry, 1)
    g = None
    for c in polys:
        g = c if g is None else gcd_q(g, c)
        if g.is_constant():
            return MPoly.const(g.registry, 1)
    return g


def content_q(P, names):
    """Q-content of P as a polynomial in `names`: the gcd of its coefficients."""
    return gcd_q_fold(P.coefficients(names).values())


def is_primitive_wrt(P, split):
    """True iff the variable-monomial coefficients of P have unit gcd over Q."""
    if P.is_zero():
        raise PolyError("primitivity undefined for the zero polynomial")
    split.check_registry(P.registry)
    return content_q(P, split.variables).is_constant()
