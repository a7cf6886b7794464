"""Detection, certification and removal of fixed prime divisors.

A prime p is fixed for P w.r.t. the parameters T when every specialization
P(t, Y) with integer t vanishes mod p.  Candidates are finite: p <= Delta
(the max parameter degree) or p dividing the content.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .numutil import RhoBudgetError, UnprovedPrimeError, prime_factors, prime_powers_upto
from .numutil import primes_upto
from .polyring import BudgetExceeded, PolyError, _names
from .upoly import fp_gcd, fp_has_root, require_prime, slot_codec


def proved_prime_factors(n):
    """prime_factors(n); a cofactor that cannot be proved prime or split is a budget exit."""
    try:
        return prime_factors(n)
    except (UnprovedPrimeError, RhoBudgetError) as exc:
        raise BudgetExceeded(str(exc)) from exc


def _params_of(split_or_params):
    """Accept a VarSplit or a bare tuple of parameter names."""
    return _names(getattr(split_or_params, "params", split_or_params))


def _split_terms(polys, params):
    """(terms, owner): each member's terms as (group, parameter exponents, coefficient).

    A group numbers one (member, exponents in the other names) pair;
    `owner[group]` is its member.  As in `substitute`, a repeated parameter
    takes its last value, and an unknown one is a PolyError.
    """
    where = {name: j for j, name in enumerate(params)}
    terms, groups = [], {}
    for i, P in enumerate(polys):
        for name in where:
            if name not in P.registry:
                raise PolyError(f"unknown variable {name!r} in substitution")
        at = {name: n for n, name in enumerate(P.registry)}
        picks = [at[name] if where[name] == j else None for j, name in enumerate(params)]
        others = [n for n, name in enumerate(P.registry) if name not in where]
        for expo, c in P.terms.items():
            mono = tuple([0 if n is None else expo[n] for n in picks])
            g = groups.setdefault((i, tuple([expo[n] for n in others])), len(groups))
            terms.append((g, mono, c))
    return terms, [i for i, _ in groups]


def _fermat_table(split, p):
    """The family mod p as a table with every parameter exponent below p.

    split is `_split_terms`'s; keys are (group, parameter exponents).
    Since t^e = t^(((e - 1) mod (p - 1)) + 1) for every t in F_p and e >= 1,
    the reduction changes no value, and a polynomial whose exponents are all
    below p vanishes on all of F_p^k only if every coefficient is 0 mod p
    (Alon, Combinatorial Nullstellensatz).  So the family vanishes at every
    tuple iff the table is empty.  p must be prime; the public entry points
    check it.
    """
    terms, owner = split
    table = {}
    for g, mono, c in terms:
        if not c % p:
            continue
        mono = tuple([e if e < p else (e - 1) % (p - 1) + 1 for e in mono])
        key = (g, mono)
        table[key] = table.get(key, 0) + c
    return {key: c % p for key, c in table.items() if c % p}, owner


def _fix_first(table, h, p):
    """The table with its first remaining coordinate set to h, zeros dropped."""
    if not h:  # 0^e = 0 for e >= 1: the terms free of the coordinate stay, unchanged
        return {(g, mono[1:]): c for (g, mono), c in table.items() if not mono[0]}
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
    return ResidueTables(polys, params).least_witness(p)


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


def _walk(table, k, p):
    """True iff the groups of a table of k coordinates vanish together at some tuple.

    Depth-first with the descent's step, stopping at the first empty table.
    A group whose polynomial no longer depends on the coordinates left never
    vanishes, so its subtree is skipped, and a coordinate that no term uses
    is fixed once.  On the last coordinate every group is a nonconstant
    univariate polynomial, and they vanish together iff their gcd over F_p
    has a root.
    """
    if not table:
        return True
    varying = {g for g, mono in table if any(mono)}
    if any(g not in varying for g, _ in table):
        return False
    if k == 1:
        return _common_root(table, p)
    hs = range(p) if any(mono[0] for _, mono in table) else (0,)
    return any(_walk(_fix_first(table, h, p), k - 1, p) for h in hs)


_GRID_SLOTS = 1 << 14  # the most tuples that `_grid_vanishes` evaluates at once


def _grid_vanishes(table, k, p):
    """`_walk`'s answer from the values of every group on all of F_p^k at once.

    A monomial's grid is one int whose slot i (`upoly.slot_codec`) holds its
    value at the i-th tuple in lex order, as a product of one residue in
    [0, p) per coordinate: the grid of t^e * m, with t the first coordinate,
    is p blocks, the grid of m times h^e mod p for h = 0 .. p - 1.  A group's
    grid is the sum of its coefficients times its monomials' grids, so no
    slot exceeds T(p - 1)^(k + 1) for a table of T terms, and every group
    vanishes at a tuple iff its slot there is 0 mod p.
    """
    w, pack, slots = slot_codec(len(table) * (p - 1) ** (k + 1))
    rows, grids = {}, {}  # exponent -> its values on F_p; monomial -> grid

    def grid(mono):  # over the last len(mono) coordinates
        out = grids.get(mono)
        if out is None:
            e = mono[0]
            row = rows.get(e) or rows.setdefault(e, [pow(h, e, p) for h in range(p)])
            if len(mono) == 1:
                out = pack(row)
            else:
                rest, size = grid(mono[1:]), p ** (len(mono) - 1) * w
                blocks = [(a * rest).to_bytes(size, "little") for a in row]
                out = int.from_bytes(b"".join(blocks), "little")
            grids[mono] = out
        return out

    sums = {}
    for (g, mono), c in table.items():
        sums[g] = sums.get(g, 0) + c * grid(mono)
    zeros = range(p**k)  # tuples where every group so far vanishes
    for v in sums.values():
        values = slots(v, p**k)
        zeros = [i for i in zeros if not values[i] % p]
        if not zeros:
            return False
    return True


def residue_scan(polys, params, p):
    """(least_witness(polys, params, p), whether all members vanish at one tuple).

    One table serves both.  Every tuple before the witness vanishes, so a
    fixed prime or a nonzero witness settles the second value.  A zero
    witness with one parameter asks whether the groups' gcd over F_p has a
    root; with k >= 2 parameters, the groups are evaluated on all of F_p^k
    at once, as packed ints (`_grid_vanishes`), when p^k <= _GRID_SLOTS, and
    walked depth-first beyond that (`_walk`).
    """
    require_prime(p)
    return ResidueTables(polys, params).residue_scan(p)


class ResidueTables:
    """The Fermat tables of one family w.r.t. the parameters, at most one per prime.

    The members' terms are split once, when the first table is built, so an
    unknown parameter is a PolyError there and then.  Each prime's lex-least
    witness is kept for the next question about that prime, and its table
    too when the witness is the zero tuple, the one case `residue_scan`
    reads it.  p must be prime: the module's entry points and
    `nonvanishing_point` check it, `fixed_prime_divisors` takes proved
    candidates.
    """

    def __init__(self, polys, params):
        self.polys, self.params = polys, params
        self._split = None
        self._built = {}  # p -> (table or None, least witness)

    def _entry(self, p):
        entry = self._built.get(p)
        if entry is None:
            if self._split is None:
                self._split = _split_terms(self.polys, self.params)
            table, owner = _fermat_table(self._split, p)
            hit = _descend(table, owner, len(self.params), p)
            zero = hit is not None and not any(hit[0])
            entry = self._built[p] = table if zero else None, hit
        return entry

    def least_witness(self, p):
        """`least_witness(polys, params, p)`."""
        return self._entry(p)[1]

    def partition(self, candidates):
        """(the candidates without a witness, {each other candidate: its least witness})."""
        fixed, refuted = [], {}
        for p in candidates:
            hit = self.least_witness(p)
            if hit is None:
                fixed.append(p)
            else:
                refuted[p] = hit
        return tuple(fixed), refuted

    def residue_scan(self, p):
        """`residue_scan(polys, params, p)`."""
        table, hit = self._entry(p)
        k = len(self.params)
        if hit is None or any(hit[0]):
            return hit, True
        if k < 2 or p**k > _GRID_SLOTS:
            return hit, _walk(table, k, p)
        return hit, _grid_vanishes(table, k, p)


@dataclass(frozen=True)
class FixedDivisorReport:
    candidates: tuple
    confirmed: tuple
    witnesses: dict  # refuted prime -> residue tuple with nonvanishing reduction
    delta: int
    content: int
    # the candidates' Fermat tables, for the CRT point of the same polynomial
    tables: ResidueTables = field(default=None, compare=False, repr=False)

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
    Every candidate is a proved prime, so `least_witness`'s descent runs
    without proving it again, on tables that the report keeps.
    """
    candidates = candidate_fixed_primes(P, split)
    tables = ResidueTables([P], _params_of(split))
    confirmed, refuted = tables.partition(candidates)
    witnesses = {p: t for p, (t, _) in refuted.items()}
    return FixedDivisorReport(
        tuple(candidates), confirmed, witnesses, param_degree(P, split), P.content(), tables
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
