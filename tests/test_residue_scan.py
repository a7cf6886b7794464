"""The residue decisions of `fixdiv` against a brute-force reference.

`least_witness` and `residue_scan` reduce parameter exponents by
Fermat and descend one coordinate at a time, and `residue_scan` evaluates a
zero witness's family on the whole grid F_p^k; every reference here instead
specializes with `MPoly.substitute` and reduces with `reduce_mod`, tuple by
tuple in lexicographic order: the definition, with no coefficient table.
"""

import itertools
import math
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schinzel import fixdiv
from schinzel.coprime import check_copsch_local
from schinzel.factorlab import gcd_q_fold
from schinzel.fixdiv import (
    candidate_fixed_primes,
    is_fixed_prime,
    least_witness,
    residue_scan,
)
from schinzel.numutil import crt
from schinzel.polyring import MPoly, PolyError, VarSplit, parse_poly, reduce_mod
from schinzel.polyschinzel import generic_substitution, verify_no_fixed_divisor_generic
from schinzel.schinzelcore import HypothesisError, nonvanishing_point

# "A" is in every registry but in no split
REG = ("A", "T", "U", "Y", "Z")
PRIMES = (2, 3, 5, 7)


def _vanishes(Q, params, t, p):
    return reduce_mod(Q.substitute(dict(zip(params, t))), p).is_zero()


def _reference_first(polys, params, p, tuples):
    """(tuple, member index) of the first nonvanishing member, or None."""
    for t in tuples:
        for i, Q in enumerate(polys):
            if not _vanishes(Q, params, t, p):
                return t, i
    return None


def _lex(p, k):
    return itertools.product(range(p), repeat=k)


def _poly(names, max_deg=3, max_terms=5, bound=6):
    """Small polynomials in `names` over REG, some with a forced fixed prime."""
    idx = [REG.index(n) for n in names]

    def build(terms):
        out = {}
        for expo, c in terms.items():
            full = [0] * len(REG)
            for i, e in zip(idx, expo):
                full[i] = e
            out[tuple(full)] = c
        return MPoly(REG, out)

    expo = st.tuples(*[st.integers(0, max_deg)] * len(names))
    plain = st.dictionaries(expo, st.integers(-bound, bound), min_size=1,
                            max_size=max_terms).map(build)
    # (T^q - T)*A + q*B vanishes mod q at every t when T is a parameter
    T = MPoly.var(REG, "T")
    forced = st.tuples(st.sampled_from((2, 3)), plain, plain).map(
        lambda x: (T ** x[0] - T) * x[1] + x[0] * x[2])
    return st.one_of(plain, forced).filter(lambda Q: not Q.is_zero())


splits = st.sampled_from([
    VarSplit((), ("Y",)),
    VarSplit(("T",), ("Y",)),
    VarSplit(("T",), ("Y", "Z")),
    VarSplit(("T", "U"), ("Y",)),
    VarSplit(("U", "T"), ("Y", "Z")),
])


@st.composite
def split_and_poly(draw):
    split = draw(splits)
    names = ("A", "T") + split.params + split.variables
    return split, draw(_poly(tuple(dict.fromkeys(names))))


@given(split_and_poly(), st.sampled_from(PRIMES))
@settings(max_examples=150, deadline=None)
def test_is_fixed_prime_matches_reference(case, p):
    split, Q = case
    hit = _reference_first([Q], split.params, p, _lex(p, split.k))
    want = (True, None) if hit is None else (False, hit[0])
    assert is_fixed_prime(Q, split, p) == want
    assert is_fixed_prime(Q, split.params, p) == want


def _reference_point(Q, split, primes):
    constrained = {}
    for p in primes:
        good = [t for t in _lex(p, split.k) if not _vanishes(Q, split.params, t, p)]
        if not good:
            return p
        if len(good) < p**split.k:
            constrained[p] = good[0]
    mods = sorted(constrained)
    if not mods:
        return (0,) * split.k
    return tuple(crt([constrained[p][i] for p in mods], mods) for i in range(split.k))


@st.composite
def vanishing_family(draw):
    """(split, Q) with Q = (Y + b) * prod (param - a) + c.

    Q vanishes mod p exactly at the residues of the roots a when p | c, so
    the zero tuple can be the witness while a later tuple vanishes.
    """
    split = draw(st.sampled_from([VarSplit(("T",), ("Y",)), VarSplit(("T", "U"), ("Y",))]))
    Q = MPoly.var(REG, "Y") + MPoly.const(REG, draw(st.integers(-3, 3)))
    for name in draw(st.lists(st.sampled_from(split.params), max_size=3)):
        Q = Q * (MPoly.var(REG, name) - MPoly.const(REG, draw(st.integers(-7, 7))))
    return split, Q + MPoly.const(REG, draw(st.sampled_from([0, 2, 3, 6, 35])))


@given(st.one_of(split_and_poly(), vanishing_family()),
       st.lists(st.sampled_from(PRIMES), unique=True, max_size=3))
@settings(max_examples=200, deadline=None)
def test_nonvanishing_point_matches_reference(case, primes):
    split, Q = case
    want = _reference_point(Q, split, primes)
    if isinstance(want, int):
        with pytest.raises(HypothesisError, match=f"prime {want} is a fixed prime"):
            nonvanishing_point(Q, split, primes)
    else:
        assert nonvanishing_point(Q, split, primes) == want


copsch_registries = st.sampled_from([("T",), ("T", "U"), ("U", "T")])


@st.composite
def copsch_family(draw):
    reg = draw(copsch_registries)
    names = tuple(n for n in REG if n in reg)
    Qs = draw(st.lists(_poly(names, max_deg=2, max_terms=4), min_size=2, max_size=3))
    return [Q.rename(reg) for Q in Qs]


@given(copsch_family())
@settings(max_examples=80, deadline=None)
def test_check_copsch_local_matches_reference(Qs):
    assume(gcd_q_fold(Qs).is_constant())
    reg = Qs[0].registry
    refuted, violations = {}, []
    for p in candidate_fixed_primes(Qs[0], reg):
        hit = _reference_first(Qs, reg, p, _lex(p, len(reg)))
        if hit is None:
            violations.append(p)
        else:
            refuted[p] = hit
    report = check_copsch_local(Qs)
    assert report.refuted == refuted
    assert report.violations == tuple(violations)
    assert report.verdict == (not violations)


def _reference_generic(gs):
    product = math.prod(gs.Fs)
    lam = gs.lam_flat
    confirmed, witnesses = [], {}
    for p in candidate_fixed_primes(product, lam):
        hit = _reference_first([product], lam, p, _lex(p, len(lam)))
        if hit is None:
            confirmed.append(p)
        else:
            witnesses[p] = hit[0]
    return tuple(confirmed), witnesses


generic_cases = st.sampled_from([
    (VarSplit(("T",), ("Y",)), ((1,),)),
    (VarSplit(("T",), ("Y",)), ((2,),)),
    (VarSplit(("T",), ("Y", "Z")), ((1, 1),)),
    (VarSplit(("T", "U"), ("Y",)), ((0,), (1,))),
    (VarSplit(("U", "T"), ("Y",)), ((1,), (1,))),
])


@given(generic_cases, st.data())
@settings(max_examples=80, deadline=None)
def test_verify_no_fixed_divisor_generic_matches_reference(case, data):
    split, d = case
    names = split.params + split.variables
    polys = data.draw(st.lists(_poly(names, max_deg=2, max_terms=4), min_size=1,
                               max_size=2))
    gs = generic_substitution(polys, split, d)
    lam = gs.lam_flat
    # keep the exhaustive reference small
    assume(all(p ** len(lam) <= 3000
               for p in candidate_fixed_primes(math.prod(gs.Fs), lam)))
    report = verify_no_fixed_divisor_generic(gs)
    assert (report.confirmed, report.witnesses) == _reference_generic(gs)


def test_bare_parameter_tuples():
    Q = parse_poly("T*Y + T", ("T", "Y"))
    # a repeated name takes its last value, as `substitute` binds it
    assert _reference_first([Q], ("T", "T"), 2, _lex(2, 2)) == ((0, 1), 0)
    assert is_fixed_prime(Q, ("T", "T"), 2) == (False, (0, 1))
    with pytest.raises(PolyError, match="unknown variable 'U' in substitution"):
        is_fixed_prime(Q, ("T", "U"), 2)


# -- least_witness and residue_scan ------------------------------------

LW_REG = ("T", "U", "V", "Y")


@st.composite
def witness_case(draw):
    """(p, params, members): exponents up to 2p + 1, repeated and unknown names.

    A member is R times some (name - a), so that leading tuples vanish, and
    maybe forced to vanish mod p: p*R, or (T^p - T)*R, which vanishes when
    T is a parameter.
    """
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    params = tuple(draw(st.lists(st.sampled_from(("T", "U", "V", "W")), max_size=3)))
    expo = st.tuples(*[st.integers(0, 2 * p + 1)] * len(LW_REG))
    T = MPoly.var(LW_REG, "T")
    members = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(expo, st.integers(-2 * p, 2 * p), min_size=1,
                                     max_size=5))
        Q = MPoly(LW_REG, terms) * draw(st.sampled_from((1, 1, p, T**p - T)))
        for name in draw(st.lists(st.sampled_from(("T", "U", "V")), max_size=2)):
            Q = Q * (MPoly.var(LW_REG, name) - draw(st.integers(0, p - 1)))
        members.append(Q)
    return p, params, members


@given(witness_case())
@settings(max_examples=150, deadline=None)
def test_least_witness_matches_lex_enumeration(case):
    p, params, members = case
    if "W" in params:
        with pytest.raises(PolyError, match="unknown variable 'W' in substitution"):
            least_witness(members, params, p)
        return
    tuples = list(_lex(p, len(params)))
    first = _reference_first(members, params, p, tuples)
    assert least_witness(members, params, p) == first
    vanishing = any(all(_vanishes(Q, params, t, p) for Q in members) for t in tuples)
    assert residue_scan(members, params, p) == (first, vanishing)


def test_least_witness_cases():
    reg = ("T", "U", "Y")
    Q = parse_poly("T^7*Y - T*Y + 7", reg)
    # T^7 = T on F_7 and the constant is 0 mod 7: p = 7 is fixed
    assert least_witness([Q], ("T",), 7) is None
    assert least_witness([Q, parse_poly("U^8 - U^2", reg)], ("T", "U"), 7) is None
    assert least_witness([Q, parse_poly("U^8 - U", reg)], ("T", "U"), 7) == ((0, 2), 1)
    # the last of a repeated name binds it; no parameters leave the empty tuple
    assert least_witness([parse_poly("U*Y", reg)], ("U", "T", "U"), 5) == ((0, 0, 1), 0)
    assert least_witness([parse_poly("7*T*Y + 14", reg), Q], (), 7) == ((), 1)
    assert not residue_scan([parse_poly("U*Y + 1", reg)], ("T", "U"), 10007)[1]
    assert residue_scan([parse_poly("(U - 3)*(T - 9)*Y", reg)], ("T", "U"), 10007)[1]
    # the only vanishing tuple has the last residue, p - 1
    assert residue_scan([parse_poly("(T + 1)*(U + 1)*Y", reg)], ("T", "U"), 5)[1]
    assert not residue_scan([parse_poly("(T + 1)*Y + 1 + 2*T", reg)], ("T",), 5)[1]


def test_vanishes_somewhere_fixes_an_unused_coordinate_once():
    # no tuple vanishes, so every U is tried, but under one T, not 1009
    Q = parse_poly("U*Y + U + 1", ("T", "U", "Y"))
    t0 = time.perf_counter()
    assert not residue_scan([Q], ("T", "U"), 1009)[1]
    assert time.perf_counter() - t0 < 0.5


@st.composite
def last_coordinate_case(draw):
    """(p, params, members) with p <= 31, sharing roots in the last parameter often."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)))
    params = draw(st.sampled_from((("T",), ("U", "T"))))
    expo = st.tuples(*[st.integers(0, p + 2)] * len(LW_REG))
    roots = draw(st.lists(st.integers(0, p - 1), max_size=2))
    members = []
    for _ in range(draw(st.integers(1, 3))):
        Q = MPoly(LW_REG, draw(st.dictionaries(expo, st.integers(-p, p), min_size=1,
                                               max_size=4)))
        for a in roots + draw(st.lists(st.integers(0, p - 1), max_size=1)):
            Q = Q * (MPoly.var(LW_REG, "T") - a)
        members.append(Q)
    return p, params, members


@given(last_coordinate_case())
@settings(max_examples=150, deadline=None)
def test_vanishes_somewhere_root_test_matches_enumeration(case):
    # the last coordinate is settled by a gcd over F_p and a root test
    p, params, members = case
    want = any(all(_vanishes(Q, params, t, p) for Q in members)
               for t in _lex(p, len(params)))
    assert residue_scan(members, params, p)[1] == want


GRID_TERMS = 4  # the most terms `grid_case` draws per member, before its root factors
GRID_MEMBERS = 3


def _grid_agrees(p, params, members):
    """The grid, the depth-first walk and `_lex` enumeration give one answer."""
    k = len(params)
    table, _ = fixdiv._fermat_table(fixdiv._split_terms(members, params), p)
    want = any(all(_vanishes(Q, params, t, p) for Q in members) for t in _lex(p, k))
    assert fixdiv._walk(table, k, p) == want
    assert fixdiv._grid_vanishes(table, k, p) == want
    hit = _reference_first(members, params, p, _lex(p, k))
    assert residue_scan(members, params, p) == (hit, want)


@st.composite
def grid_case(draw):
    """(p, params, members) with two or three parameters, sharing roots often."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    params = tuple(draw(st.permutations(("T", "U", "V")))[: draw(st.integers(2, 3))])
    expo = st.tuples(*[st.integers(0, p + 2)] * len(LW_REG))
    roots = draw(st.lists(st.tuples(st.sampled_from(params), st.integers(0, p - 1)),
                          max_size=2))
    members = []
    for _ in range(draw(st.integers(1, GRID_MEMBERS))):
        Q = MPoly(LW_REG, draw(st.dictionaries(expo, st.integers(-p, p), min_size=1,
                                               max_size=GRID_TERMS)))
        for name, a in roots:
            Q = Q * (MPoly.var(LW_REG, name) - a)
        members.append(Q)
    return p, params, members


@given(grid_case())
@settings(max_examples=120, deadline=None)
def test_grid_matches_walk_and_enumeration(case):
    _grid_agrees(*case)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_grid_slots_hold_the_widest_values(p, k):
    # every coefficient is p - 1 and every exponent odd, GRID_TERMS terms per
    # member where p leaves that many monomials: at t = (p - 1, ..., p - 1)
    # each slot is a sum of products (p - 1)^(k + 1), the most a slot holds
    # (p = 7, k = 2: 4 * 216 needs two bytes where one product needs one)
    params = ("T", "U", "V")[:k]
    odd = [e for e in range(1, p) if e % 2]
    monos = list(itertools.islice(itertools.product(odd, repeat=k), GRID_TERMS))
    members = [MPoly(LW_REG, {m + (0,) * (3 - k) + (i,): p - 1 for m in monos})
               for i in range(GRID_MEMBERS)]
    _grid_agrees(p, params, members)
    # and with a factor U - 1, every member vanishes at U = 1
    _grid_agrees(p, params, [Q * (MPoly.var(LW_REG, "U") - 1) for Q in members])


def test_three_parameter_scan_makes_no_root_test(monkeypatch):
    calls = []
    common_root = fixdiv._common_root

    def counted(table, p):
        calls.append(p)
        return common_root(table, p)

    monkeypatch.setattr(fixdiv, "_common_root", counted)
    Q = parse_poly("(T + 1)*(U + 2)*(V + 3)*Y", LW_REG)
    # nonzero at (0, 0, 0), zero wherever T = 6: the zero witness asks the grid
    assert residue_scan([Q], ("T", "U", "V"), 7) == (((0, 0, 0), 0), True)
    assert calls == []
    table, _ = fixdiv._fermat_table(fixdiv._split_terms([Q], ("T", "U", "V")), 7)
    assert fixdiv._walk(table, 3, 7)
    assert calls  # the walk settles its last coordinate by the root test
