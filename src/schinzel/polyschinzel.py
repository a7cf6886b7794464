"""Polynomial Schinzel engine.

Degree-condition diagnostics, generic substitution with indeterminate
coefficients, fixed-divisor verification of the substituted family, the
specialization solver, the strong (no-fixed-divisor) pipeline, iterated
composition, and the sharpness counterexample generator.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import prod

from .factorlab import is_irreducible_q, is_irreducible_z
from .fixdiv import fixed_prime_divisors, least_witness, proved_prime_factors
from .numutil import crt, primes_upto, spiral
from .polyring import BudgetExceeded, MPoly, PolyError, VarSplit, dense
from .schinzelcore import HypothesisError

LAM_BUDGET = 64  # most lambda indeterminates a generic substitution may use
SAMPLE_COEFF_BOUND = 10  # |coefficient| bound of the counterexample's sample M


def ell(d):
    """Number of monic monomials with per-variable degree bounded by d."""
    return prod(dj + 1 for dj in d)


def _degree_matrix(d, k, n):
    """Normalize d into a k-row matrix of n-tuples of non-negative ints."""
    rows = []
    for row in d:
        row = (row,) if isinstance(row, int) else tuple(row)
        if len(row) != n:
            raise PolyError(f"degree row {row} does not match {n} variable(s)")
        if any(x < 0 for x in row):
            raise PolyError("negative degree bound")
        rows.append(row)
    if len(rows) != k:
        raise PolyError(f"{len(rows)} degree rows for {k} parameter(s)")
    return tuple(rows)


@dataclass(frozen=True)
class DegreeConditions:
    star: bool
    a: bool
    b: bool
    c: bool | None  # None when k != 1
    mode: str

    @property
    def admissible(self):
        return self.star and (self.a or self.b or bool(self.c))

    def failed(self):
        out = []
        if not self.star:
            out.append("(*)")
        if not self.a:
            out.append("(a)")
        if not self.b:
            out.append("(b)")
        if self.c is False:
            out.append("(c)")
        return tuple(out)


def check_degree_conditions(polys, split, d, mode="general"):
    """Diagnostic verdicts for conditions (*), (a), (b) and (when k=1) (c)."""
    if mode not in ("general", "near-ufd"):
        raise PolyError(f"unknown mode {mode!r}")
    d = _degree_matrix(d, split.k, split.n)
    star = all(P.total_degree(split.variables) >= 1 for P in polys) or all(
        any(x > 0 for x in row) for row in d
    )
    a = b = True
    for i, t in enumerate(split.params):
        total = sum(max(P.degree_in(t), 0) for P in polys)
        li = ell(d[i])
        a = a and li > total
        b = b and 2**li > total
    c = None
    if split.k == 1:
        degs = [max(P.total_degree(split.variables), 0) for P in polys]
        bound = max(degs) if mode == "near-ufd" else sum(degs)
        c = sum(d[0]) > bound
    return DegreeConditions(star, a, b, c, mode)


# -- generic substitution --------------------------------------------


def _monomials_upto(d):
    """Exponent tuples e <= d componentwise, graded-lex ascending.

    The constant comes first and the top monomial Y^d last.
    """
    mons = list(itertools.product(*(range(x + 1) for x in d)))
    mons.sort(key=lambda e: (sum(e), e))
    return tuple(mons)


@dataclass(frozen=True)
class GenericSubstitution:
    split: VarSplit
    d: tuple
    registry: tuple  # lambda names followed by the variables
    lam_names: tuple  # per parameter, tuple of lambda names
    monomials: tuple  # per parameter, tuple of exponent tuples over the variables
    Ms: tuple  # generic M_{Q_i} over `registry`
    Fs: tuple  # substituted family over `registry`

    @property
    def lam_flat(self):
        return tuple(name for row in self.lam_names for name in row)


def generic_substitution(polys, split, d):
    """Replace each parameter by a generic polynomial in the variables."""
    d = _degree_matrix(d, split.k, split.n)
    monomials = tuple(_monomials_upto(row) for row in d)
    lam_names = tuple(
        tuple(f"lam{i}q{l}" for l in range(len(mons))) for i, mons in enumerate(monomials)
    )
    flat = [name for row in lam_names for name in row]
    if len(flat) > LAM_BUDGET:
        raise BudgetExceeded(f"{len(flat)} lambda indeterminates exceed the budget {LAM_BUDGET}")
    if set(flat) & set(polys[0].registry):
        raise PolyError("input names collide with the lambda indeterminates")

    registry = tuple(flat) + tuple(split.variables)
    lam_expo = {name: tuple(int(n == name) for n in flat) for name in flat}
    Ms = tuple(
        MPoly(registry, {lam_expo[lam] + mon: 1 for lam, mon in zip(names, mons)})
        for names, mons in zip(lam_names, monomials)
    )
    bindings = dict(zip(split.params, Ms))
    Fs = tuple(P.substitute(bindings, registry) for P in polys)
    return GenericSubstitution(split, d, registry, lam_names, monomials, Ms, Fs)


def verify_no_fixed_divisor_generic(gs):
    """Fixed-prime report of prod(F_i) with Lambda as the parameter tuple."""
    return fixed_prime_divisors(prod(gs.Fs), gs.lam_flat)


# -- the solver -------------------------------------------------------


@dataclass(frozen=True)
class SubstitutionPlan:
    theta: tuple  # per parameter, the integer coefficient tuple
    Ms: tuple  # concrete substitution polynomials over the variables
    certificates: tuple  # per polynomial, the composition certificate
    fixdiv_report: object = None  # composed product w.r.t. the variables
    base: int | None = None  # theta of the strong pipeline
    omega: int | None = None
    bad_primes: tuple | None = None
    tried: int = 0


class SchinzelRefusal(HypothesisError):
    """Precondition failure of the solver, with the collected diagnosis."""

    def __init__(self, condition, detail, conditions=None, generic_report=None):
        super().__init__(condition, detail)
        self.conditions = conditions
        self.generic_report = generic_report


def _certificates(comps):
    """The is_irreducible_z certificates of comps, or None if one fails.

    A constant composition rules the candidate out before any certificate
    is computed, so an oracle budget exit never comes from a candidate
    that would have been skipped anyway.
    """
    if any(c.is_constant() for c in comps):
        return None
    certs = []
    for c in comps:
        flag, cert = is_irreducible_z(c)
        if not flag:
            return None
        certs.append(cert)
    return tuple(certs)


def _require_irreducible(polys, error):
    """Raise error("Irred", ...) for the first input reducible over Q."""
    for i, P in enumerate(polys):
        if not is_irreducible_q(P).irreducible:
            raise error("Irred", f"polynomial #{i + 1} is reducible over the rationals")


def solve_polynomial_schinzel(polys, split, d, budget=5000, exact_degree=True):
    """First Theta (spiral order) whose compositions are irreducible in Z[Y].

    Refuses, with a full diagnosis, whenever the hypotheses fail: rational
    irreducibility of each input, unit content of the product, condition
    (*), one of (a)/(b)/(c), and no fixed prime for the generic family.
    """
    d = _degree_matrix(d, split.k, split.n)
    _require_irreducible(polys, SchinzelRefusal)
    product = prod(polys)
    if product.content() != 1:
        raise SchinzelRefusal("Prim", f"product has content {product.content()}")

    conds = check_degree_conditions(polys, split, d)
    gs = generic_substitution(polys, split, d)
    report = verify_no_fixed_divisor_generic(gs)
    if not conds.admissible or report.confirmed:
        parts, condition = [], "NoFixDiv"
        if not conds.admissible:
            failures = conds.failed()  # never empty here
            parts.append(f"degree conditions {', '.join(failures)} fail")
            condition = "(b)" if "(b)" in failures else failures[-1]
        if report.confirmed:
            primes = ", ".join(str(p) for p in report.confirmed)
            parts.append(f"generic family has fixed prime {primes}")
        raise SchinzelRefusal(
            condition, "; ".join(parts), conditions=conds, generic_report=report
        )

    ends = list(itertools.accumulate(len(mons) for mons in gs.monomials))
    tried = 0
    for tried, theta in enumerate(itertools.islice(spiral(ends[-1]), max(budget, 0)), 1):
        chunks = [theta[a:b] for a, b in zip([0] + ends, ends)]
        if exact_degree and any(chunk[-1] == 0 for chunk in chunks):
            continue
        Ms = {
            t: MPoly(split.variables, {mon: c for c, mon in zip(chunk, mons) if c})
            for t, chunk, mons in zip(split.params, chunks, gs.monomials)
        }
        certs = _certificates([P.substitute(Ms, split.variables) for P in polys])
        if certs is not None:
            return SubstitutionPlan(
                theta=tuple(tuple(chunk) for chunk in chunks),
                Ms=tuple(Ms[t] for t in split.params),
                certificates=certs,
                tried=tried,
            )
    raise BudgetExceeded(f"no plan within {tried} coefficient tuples")


# -- the strong pipeline ----------------------------------------------


def _as_univariate(polys):
    """Validate a family of univariate polynomials sharing one name."""
    reg = polys[0].registry
    name = None
    for P in polys:
        if P.registry != reg:
            raise PolyError("family members use different registries")
        used = P.variables()
        if len(used) > 1:
            raise PolyError(f"polynomial {P} is not univariate")
        if used:
            if name is None:
                name = used[0]
            elif used[0] != name:
                raise PolyError("family members use different parameter names")
    if name is None:
        raise PolyError("constant family")
    return name


def strong_pipeline(polys, variables, d, budget=2000, monic=False):
    """Substitution M(Y) whose compositions are irreducible with no fixed divisor.

    Follows the constructive argument: theta handles the bad primes S (those
    dividing the leading coefficient or at most r*(d_1+...+d_n)), omega is
    their product, and M = theta + omega*R with R ranging over monic shape
    polynomials.  The composed product's fixed-prime set w.r.t. the
    variables is recomputed from scratch, not assumed.

    With monic=True the construction runs with no bad primes (S empty,
    theta 0, omega 1), so M ranges over the monic shapes themselves; nothing
    then rules out fixed primes of the compositions, so this mode may
    exhaust the budget.
    """
    return _stage(polys, tuple(variables), d, budget, monic, None)


def _stage(polys, variables, d, budget, monic, report):
    """`strong_pipeline` (report None), or a later stage given prod(polys)'s report."""
    (d,) = _degree_matrix((d,), 1, len(variables))
    if all(x == 0 for x in d):
        raise PolyError("d must be nonzero")
    t1 = _as_univariate(polys)
    product = prod(polys)
    if report is None:
        _require_irreducible(polys, HypothesisError)
        report = fixed_prime_divisors(product, (t1,))
        if report.confirmed:
            raise HypothesisError("NoFixDiv", f"fixed prime {report.confirmed[0]} in input")

    monomials = _monomials_upto(d)  # ascending; top monomial last

    # monic mode is the construction with no bad primes: theta 0, omega 1
    S = []
    if not monic:
        a_r = dense(product, t1)[-1]
        r = product.degree_in(t1)
        delta = r * sum(d)
        S = sorted(set(primes_upto(delta)) | set(proved_prime_factors(abs(a_r))))

    # every fixed prime is one of the report's candidates, and it confirms none
    seen = report.witnesses
    residues = [(seen[p] if p in seen else least_witness([product], (t1,), p)[0])[0] for p in S]
    theta = crt(residues, S)
    omega = prod(S)

    tried = 0
    zero = (0,) * len(variables)
    for tried, v in enumerate(itertools.islice(spiral(len(monomials) - 1), max(budget, 0)), 1):
        terms = {monomials[-1]: omega}
        terms.update((mon, omega * c) for c, mon in zip(v, monomials) if c)
        terms[zero] = terms.get(zero, 0) + theta
        M = MPoly(variables, terms)
        comps = [P.substitute({t1: M}, variables) for P in polys]
        certs = _certificates(comps)
        if certs is None:
            continue
        rep = fixed_prime_divisors(prod(comps), variables)
        if rep.confirmed:
            continue
        if monic:
            shape, extra = tuple(v) + (1,), {}
        else:
            shape, extra = tuple(v), dict(base=theta, omega=omega, bad_primes=tuple(S))
        return SubstitutionPlan(
            theta=(shape,), Ms=(M,), certificates=certs, fixdiv_report=rep, tried=tried, **extra
        )
    if monic:
        raise BudgetExceeded(f"no monic plan within {tried} coefficient tuples")
    raise BudgetExceeded(f"no plan within {tried} shape tuples")


# -- iterated composition ---------------------------------------------


@dataclass(frozen=True)
class IteratedPlan:
    stages: tuple  # SubstitutionPlan per stage
    Ms: tuple  # M_1, ..., M_m as univariate polynomials in the parameter
    composition: object  # C_m = C_{m-1} o M_m (MPoly in the parameter)
    family: tuple  # P_i(C_m(T)) for every family member


def iterated_composition(polys, degrees, budget=2000, monic=False):
    """Run the pipeline stage by stage on the family it composed so far.

    Only stage 1 checks the hypotheses.  Each stage's plan is the next
    stage's: its certificates and fixed-prime report cover its
    compositions, the new family with the variable renamed back to the
    parameter, so that family is not verified a second time.
    """
    t1 = _as_univariate(polys)
    reg = polys[0].registry
    yname = "Y" if t1 != "Y" else "Z"
    current = list(polys)
    C = MPoly.var(reg, t1)
    stages, Ms, report = [], [], None
    for stage, dm in enumerate(degrees, start=1):
        try:
            plan = _stage(current, (yname,), (dm,), budget, monic, report)
        except HypothesisError as exc:
            raise HypothesisError(exc.condition, f"stage {stage}: {exc.detail}") from exc
        report = plan.fixdiv_report
        M = plan.Ms[0].rename(reg, {yname: t1})
        stages.append(plan)
        Ms.append(M)
        current = [P.substitute({t1: M}) for P in current]
        C = C.substitute({t1: M})
    return IteratedPlan(tuple(stages), tuple(Ms), C, tuple(current))


# -- sharpness counterexample -----------------------------------------


@dataclass(frozen=True)
class CounterexampleBundle:
    d: int
    family: tuple  # the {0,1}-coefficient polynomials of degree <= d
    P0: object
    m: int
    P: object
    certificate: object
    samples: tuple  # (M, content of the composition, index of M mod 2 in family)
    all_even: bool


def sharpness_counterexample(d, m_budget=200, samples=100, seed=0):
    """P of T-degree 2^(d+1) whose compositions with every degree-d M are even.

    P = prod over {0,1}-polynomials p of degree <= d of (T - p(Y)), shifted
    by the least even constant 2m making it irreducible.  Any M of degree d
    is congruent mod 2 to one member p, so T - p(Y) kills P(M(Y), Y) mod 2.
    """
    if d < 0:
        raise PolyError("d must be non-negative")
    if samples < 1:
        raise PolyError("samples must be at least 1")
    reg = ("T", "Y")
    T = MPoly.var(reg, "T")
    family = []
    for bits in itertools.product((0, 1), repeat=d + 1):
        family.append(MPoly(reg, {(0, j): b for j, b in enumerate(bits) if b}))
    P0 = prod(T - p for p in family)

    for m in range(1, m_budget + 1):
        P = P0 + MPoly.const(reg, 2 * m)
        flag, cert = is_irreducible_z(P)
        if flag:
            break
    else:
        raise BudgetExceeded(f"no irreducible shift with m <= {m_budget}")

    rng = random.Random(seed)
    yreg = ("Y",)
    log = []
    residues = {
        tuple(sorted((e[1], c % 2) for e, c in p.terms.items())): idx
        for idx, p in enumerate(family)
    }
    for _ in range(samples):
        coeffs = [rng.randint(-SAMPLE_COEFF_BOUND, SAMPLE_COEFF_BOUND) for _ in range(d)]
        lead = 0
        while lead == 0:
            lead = rng.randint(-SAMPLE_COEFF_BOUND, SAMPLE_COEFF_BOUND)
        coeffs.append(lead)
        M = MPoly(yreg, {(j,): c for j, c in enumerate(coeffs) if c})
        comp = P.substitute({"T": M}, yreg)
        key = tuple(sorted((e[0], c % 2) for e, c in M.terms.items() if c % 2))
        log.append((M, comp.content(), residues.get(key)))
    all_even = all(content % 2 == 0 for _, content, _ in log)
    return CounterexampleBundle(d, tuple(family), P0, m, P, cert, tuple(log), all_even)
