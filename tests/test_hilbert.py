import itertools
import math
import os
import pathlib
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schinzel import factorlab, hilbert
from schinzel.factorlab import _prime_schedule
from schinzel.fixdiv import BudgetExceeded
from schinzel.hilbert import (
    DensityReport,
    SpecializationPoint,
    _evidence_stream,
    density_report,
    hilbert_search,
    hypotheses_check,
    specialization_check,
)
from schinzel.numutil import primes_upto, spiral
from schinzel.polyring import MPoly, PolyError, VarSplit, parse_poly

REG = ("T", "Y")
SPLIT = VarSplit(("T",), ("Y",))


def P(expr, reg=REG):
    return parse_poly(expr, reg)


def test_hypotheses_check_passes():
    rep = hypotheses_check([P("Y^2 - T")], SPLIT)
    assert rep.all_pass


def test_hypotheses_check_catches_fixed_divisor():
    rep = hypotheses_check([P("(T^2-T)*Y + T^2 - T - 2")], SPLIT)
    assert not rep.all_pass
    assert rep.fixdiv.confirmed == (2,)


def test_hypotheses_check_reducible_over_param_field():
    rep = hypotheses_check([P("Y^2 - T^2")], SPLIT)
    assert not rep.irreducible[0][0]


def test_specialization_member():
    sp = specialization_check([P("Y^2 - T")], SPLIT, (2,))
    assert sp.member and sp.content == 1
    sp = specialization_check([P("Y^2 - T")], SPLIT, (4,))
    assert not sp.member and "reducible" in sp.reason


def test_specialization_degenerate():
    sp = specialization_check([P("T*Y + 1")], SPLIT, (0,))
    assert not sp.member and sp.reason.startswith("degenerate")


def test_specialization_content():
    # (t^2+t)Y + 2: at t=1 gives 2Y+2, content 2
    sp = specialization_check([P("(T^2+T)*Y + 2")], SPLIT, (1,))
    assert not sp.member and "content" in sp.reason


def _poly(reg, pairs):
    terms = {}
    for expo, c in pairs:
        terms[expo] = terms.get(expo, 0) + c
    return MPoly(reg, terms)


# members of degree 1-3 in Y, times a scalar so the content is often not 1
members = st.builds(
    lambda pairs, lead, k: k * _poly(REG, pairs + [((0, lead[0]), lead[1])]),
    st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-6, 6)),
             max_size=3),
    st.tuples(st.integers(1, 3), st.sampled_from([-3, -2, -1, 1, 2, 3])),
    st.sampled_from([1, 1, 2, 3, 6]),
)
families = st.one_of(
    st.lists(members, min_size=1, max_size=3),
    st.just([P("2*Y^2 - 4*T")]),
    st.just([P("2*Y^2 - 4*T"), P("3*Y + 3*T^2")]),
)


@given(families, st.integers(-6, 6))
@settings(max_examples=120, deadline=None)
def test_specialization_content_is_content_of_product(polys, t):
    sp = specialization_check(polys, SPLIT, (t,))
    images = [q.substitute({"T": t}) for q in polys]
    if any(q.is_constant() for q in images):
        assert sp.content == 0 and sp.reason.startswith("degenerate")
        return
    product = MPoly.const(REG, 1)
    for q in images:
        product = product * q
    assert sp.content == product.content()
    assert not sp.member or sp.content == 1


# -- the per-call residue-class table against a pointwise reference --------

REG2 = ("T", "U", "Y")
SPLIT2 = VarSplit(("T", "U"), ("Y",))
PRIMORIAL_16 = math.prod(primes_upto(53))  # 16 primes <= 100: the schedule passes 100
PRIMORIAL_1000 = math.prod(primes_upto(1000))  # every sieved prime: the schedule passes 1000


def _reference_density(polys, split, N):
    points = [specialization_check(polys, split, t)
              for t in itertools.product(range(-N, N + 1), repeat=split.k)]
    members = sum(sp.member for sp in points)
    reasons = Counter(sp.reason.split(":")[0] for sp in points if not sp.member)
    return members, len(points) - members, dict(reasons)


def _reference_search(polys, split, L, budget):
    found = []
    for t in itertools.islice(spiral(split.k), budget):
        sp = specialization_check(polys, split, t)
        if sp.member:
            found.append(sp)
            if len(found) == L:
                break
    return found


def _search(polys, split, L, budget):
    try:
        return list(itertools.islice(hilbert_search(polys, split, budget=budget), L))
    except BudgetExceeded:  # no member within the budget
        return []


def _witness_free(cert):
    # the stream's root route builds no factor for a reducible image: only members are reported
    return replace(cert, factor=None) if cert.method == "root" and not cert.irreducible else cert


def _assert_matches_reference(polys, split, N, L, budget=60):
    # every point, certificates of non-members included, over blocks of 3, 6, 12, ...
    box = list(itertools.product(range(-N, N + 1), repeat=split.k))
    stream = list(_evidence_stream(polys, split, box, 3))
    assert [t for t, _ in stream] == box
    for t, evidence in stream:
        want = specialization_check(polys, split, t)
        want = replace(want, certificates=tuple(map(_witness_free, want.certificates)))
        assert SpecializationPoint(t, *evidence) == want
    rep = density_report(polys, split, N)
    assert (rep.members, rep.non_members, rep.reasons) == _reference_density(polys, split, N)
    assert _search(polys, split, L, budget) == _reference_search(polys, split, L, budget)


one_param_families = st.one_of(
    st.lists(members, min_size=1, max_size=3),
    st.sampled_from([
        [P("(T^2-T)*Y^2 + 3*T*Y + T + 1")],  # the lead vanishes at t = 0 and 1
        [P("(2*T + 1)*Y^2 + Y + T")],  # never over Z, but mod each odd p on one class
        [P("Y^2 - T"), P("T*Y + 1")],  # Kronecker, then degenerate at t = 0
        [P("(T^2+T)*Y + 2")],  # content 2 at every t, and 2 is often scheduled
        [P("2*Y^2 - 4*T"), P("3*Y + 3*T^2")],
        [P("6*Y^3 - 6*T*Y + 12*T^2")],
        [P("T + 1"), P("Y^2 - T")],  # a member without Y: always degenerate
        [P(f"{PRIMORIAL_16}*Y^2 + Y - T^2 - 1")],
        [P(f"{PRIMORIAL_16}*Y^3 + 2*Y - T"), P("Y^2 - 2*T")],
    ]),
)

# members of Y-degree 1-3 in two parameters, scaled so the content is often not 1
two_param_members = st.builds(
    lambda pairs, lead, k: k * _poly(REG2, pairs + [((0, 0, lead[0]), lead[1])]),
    st.lists(st.tuples(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 2)),
                       st.integers(-4, 4)), max_size=3),
    st.tuples(st.integers(1, 3), st.sampled_from([-2, -1, 1, 3])),
    st.sampled_from([1, 1, 2, 6]),
)
two_param_families = st.one_of(
    st.lists(two_param_members, min_size=1, max_size=2),
    st.sampled_from([
        [P("(T-U)*Y^2 + T*Y + U + 1", REG2)],  # the lead vanishes on the diagonal
        [P("Y^2 - T*U", REG2), P("T*Y + U", REG2)],  # degenerate at (0, 0)
        [P("2*Y^2 - 2*T - 4*U", REG2)],  # content 2 at every point: no member
        [P(f"{PRIMORIAL_16}*Y^2 - T - U", REG2)],
    ]),
)


@given(one_param_families, st.integers(0, 6), st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_residue_table_matches_pointwise_reference(polys, N, L):
    _assert_matches_reference(polys, SPLIT, N, L)


@given(two_param_families, st.integers(0, 2), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_residue_table_matches_pointwise_reference_two_params(polys, N, L):
    _assert_matches_reference(polys, SPLIT2, N, L)


def test_a_lead_that_vanishes_on_one_class_mod_p_skips_p_there():
    # 2t + 1 is never 0, but it is 0 mod each odd p where t = (p - 1)/2 mod p: such a
    # point skips p without a try.  At t = 1, 3Y^2 - 2302 skips 3 and splits mod 2
    # and mod 5 to 29, so 31 is its tenth try and its certificate
    polys = [P("(2*T + 1)*Y^2 - 2302")]
    _assert_matches_reference(polys, SPLIT, 40, 4)
    assert specialization_check(polys, SPLIT, (1,)).certificates[0].prime == 31


def test_an_image_whose_degree_drops_keeps_its_tuple_key():
    # at t = 0, T*Y^2 + Y + 1 drops to Y + 1, which 2 certifies.  The full-degree
    # images of class 0 mod 2 (t = +-2, +-4, +-6) skip 2, as their lead is even, so
    # a t mod 2 key would hand Y + 1 their skip and a later prime
    polys = [P("T*Y^2 + Y + 1")]
    _assert_matches_reference(polys, SPLIT, 6, 2)
    stream = dict(_evidence_stream(polys, SPLIT, [(t,) for t in range(-6, 7)], 3))
    assert stream[(0,)][0][0].prime == 2


def test_residue_table_serves_lead_divisible_by_every_sieved_prime():
    assert list(_prime_schedule(PRIMORIAL_1000))[0] > 1000
    polys = [P(f"{PRIMORIAL_1000}*Y^2 + Y - T^2 - 1")]
    _assert_matches_reference(polys, SPLIT, 12, 6, budget=150)
    primes = {c.prime for sp in _search(polys, SPLIT, 6, 150) for c in sp.certificates}
    assert primes and min(primes) > 1000


def test_residue_table_substitutes_nothing(monkeypatch):
    # t = 0 and the squares reach the Kronecker oracle; no point is rebuilt by substitute
    calls = []
    substitute = MPoly.substitute
    monkeypatch.setattr(MPoly, "substitute", lambda *a: calls.append(a) or substitute(*a))
    report = density_report([P("Y^2 - T"), P("2*Y^3 + T*Y + 1")], SPLIT, 30)
    assert calls == []
    assert report.reasons["reducible"] >= 6  # t = 0, 1, 4, 9, 16, 25


@pytest.mark.parametrize("expr, reducible", [
    ("Y^2 - T", 6),  # t = 0, 1, 4, 9, 16, 25
    ("Y^3 - T", 7),  # t = 0, +-1, +-8, +-27
    ("(2*T + 1)*Y + (T - 3)", 0),
])
def test_residue_table_never_calls_the_oracle(monkeypatch, expr, reducible):
    # no prime certifies a reducible point, and a cubic image may split mod every
    # scheduled prime; the root route decides both before the oracle
    calls = []
    oracle = factorlab.kronecker_factor
    monkeypatch.setattr(factorlab, "kronecker_factor",
                        lambda *a, **k: calls.append(a) or oracle(*a, **k))
    report = density_report([P(expr)], SPLIT, 30)
    assert calls == []
    assert report.reasons.get("reducible", 0) == reducible


@pytest.mark.parametrize("expr, non_members", [
    ("Y^2 - T", 45),  # the squares 0, 1, ..., 44^2
    ("6*Y^2 - 6*T", 4001),  # content 6 everywhere; 2 and 3 still key on Y^2 - t
    ("Y^3 - T", 25),  # the cubes 0, +-1, ..., +-12^3
])
def test_density_tables_one_fp_verdict_per_image_mod_p(monkeypatch, expr, non_members):
    # a member's verdict at p is keyed by t mod p, or by its primitive image mod p
    # where p divides the content; either way the ten scheduled primes need at most
    # one verdict per (p, t mod p), 129 over 4001 points
    calls = []
    fp_irreducible = hilbert.fp_irreducible
    monkeypatch.setattr(hilbert, "fp_irreducible",
                        lambda g, p: calls.append((p, *[x % p for x in g])) or fp_irreducible(g, p))
    report = density_report([P(expr)], SPLIT, 2000)
    assert (report.total, report.non_members) == (4001, non_members)
    assert calls and len(set(calls)) == len(calls) <= sum(_prime_schedule(1)) == 129


def _built_points(monkeypatch):
    built = []
    monkeypatch.setattr(hilbert, "SpecializationPoint",
                        lambda *a: built.append(a[0]) or SpecializationPoint(*a))
    return built


def test_density_builds_no_specialization_point(monkeypatch):
    built = _built_points(monkeypatch)
    report = density_report([P("Y^2 - T"), P("2*Y^3 + T*Y + 1")], SPLIT, 30)
    assert report.members > 0 and report.non_members > 0
    assert built == []


@pytest.mark.parametrize("polys, split", [
    ([P("Y^2 - T")], SPLIT),
    ([P("X^2 + Y^2 - T", ("T", "X", "Y"))], VarSplit(("T",), ("X", "Y"))),  # pointwise route
])
def test_search_builds_one_specialization_point_per_member(monkeypatch, polys, split):
    built = _built_points(monkeypatch)
    found = _search(polys, split, 4, 150)
    assert len(found) == 4 and built == [sp.t for sp in found]


def test_other_names_keep_the_pointwise_route():
    # Z is neither a parameter nor a variable: P(t, Y, Z) is bivariate
    reg = ("T", "Y", "Z")
    polys = [P("Y^2 - T*Z", reg)]
    found = _search(polys, SPLIT, 4, 150)
    assert found == _reference_search(polys, SPLIT, 4, 150)
    assert {c.method for sp in found for c in sp.certificates} == {"evaluation"}
    assert density_report(polys, SPLIT, 6).members == _reference_density(polys, SPLIT, 6)[0]


def test_repeated_parameter_is_rejected():
    # no split binds one name to two coordinates of t
    with pytest.raises(PolyError, match="repeated name 'T'"):
        VarSplit(("T", "T"), ("Y",))


def test_two_variables_keep_the_pointwise_route():
    reg = ("T", "X", "Y")
    split = VarSplit(("T",), ("X", "Y"))
    polys = [P("X^2 + Y^2 - T", reg), P("X*Y + T", reg)]
    _assert_matches_reference(polys, split, 5, 3)
    found = _search(polys, split, 3, 150)
    assert found and all(c.method != "mod-p" for sp in found for c in sp.certificates)


def test_search_first_member_is_minus_one():
    first = next(hilbert_search([P("Y^2 - T")], SPLIT))
    assert first.t == (-1,)


def test_search_pair():
    pair = [P("Y^2 - T"), P("Y^2 - T - 1")]
    first = next(hilbert_search(pair, SPLIT))
    # spiral order 0, -1, 1, -2: t = 0, -1 and 1 each make one of T, T+1 a
    # square, so Y^2 + 2 and Y^2 + 1 at t = -2 are the first pair
    assert first.t == (-2,)
    assert first.member
    for Q in pair:
        assert specialization_check([Q], SPLIT, first.t).member


def test_search_budget_exhaustion():
    # t^2 + t is even, so every specialization has content 2: no point is a
    # member and the search examines exactly `budget` points
    for budget in (1, 5):
        gen = hilbert_search([P("(T^2+T)*Y + 2")], SPLIT, budget=budget)
        with pytest.raises(BudgetExceeded, match=f"no member within {budget} points"):
            next(gen)


def test_search_budget_exit_for_a_no_member_family_is_quick():
    # the spiral builds each shell directly, so 20,000 points cost O(1) each
    start = time.monotonic()
    with pytest.raises(BudgetExceeded, match="no member within 20000 points"):
        next(hilbert_search([P("(T^2+T)*Y + 2")], SPLIT, budget=20000))
    assert time.monotonic() - start < 5.0


def test_search_negative_budget_is_used_up_before_the_first_point():
    for budget in (0, -1):
        with pytest.raises(BudgetExceeded, match="^no member within 0 points"):
            next(hilbert_search([P("Y^2 - T")], SPLIT, budget=budget))


def _outcome(monkeypatch, consume):
    """What `consume` returns or the BudgetExceeded it raises, with the oracle's inputs."""
    calls = []
    oracle = factorlab.kronecker_factor
    monkeypatch.setattr(factorlab, "kronecker_factor",
                        lambda *a, **k: calls.append(str(a[0])) or oracle(*a, **k))
    seen = []
    try:
        result = consume(seen)
    except BudgetExceeded as exc:
        result = str(exc)
    return seen, result, list(calls)  # a later _outcome's spy calls through this one


def _pointwise_search(polys, split):
    for t in spiral(split.k):
        sp = specialization_check(polys, split, t)
        if sp.member:
            yield sp


@pytest.mark.parametrize("expr, prefix, oracle", [
    ("Y^16 - T", [], ["Y^16 + 1"]),  # t = 0 goes to the root route, t = -1 to the oracle
    ("Y^16 - T - 3", [(0,), (-1,)], ["Y^16 - 4"]),  # two members, then t = 1 to the oracle
])
def test_fallbacks_are_lazy_and_in_order(monkeypatch, expr, prefix, oracle):
    # Y^16 + 1 and Y^16 - 4 split mod every prime and exceed the oracle's degree budget
    polys = [P(expr)]

    def search(stream):
        return lambda seen: seen.extend(stream)

    got = _outcome(monkeypatch, search(hilbert_search(polys, SPLIT)))
    assert got == _outcome(monkeypatch, search(_pointwise_search(polys, SPLIT)))
    assert [sp.t for sp in got[0]] == prefix and got[2] == oracle
    assert got[1] == "total degree 16 exceeds the degree-12 budget"
    got = _outcome(monkeypatch, lambda seen: density_report(polys, SPLIT, 2))
    assert got == _outcome(monkeypatch, lambda seen: _reference_density(polys, SPLIT, 2))
    assert got[1:] == ("total degree 16 exceeds the degree-12 budget", oracle)
    # a consumer that stops at the last member before the oracle's point never reaches it
    stream = itertools.islice(hilbert_search(polys, SPLIT), len(prefix))
    seen, result, calls = _outcome(monkeypatch, search(stream))
    assert [sp.t for sp in seen] == prefix and calls == []


def test_engine_matches_reference_across_blocks():
    # 1201 points and 1100 members: more than one block of hilbert._BLOCK points
    assert hilbert._BLOCK < 1100
    polys = [P("Y^2 - T"), P("(T^2 - T)*Y^2 + 3*T*Y + T + 1")]
    rep = density_report(polys, SPLIT, 600)
    assert (rep.members, rep.non_members, rep.reasons) == _reference_density(polys, SPLIT, 600)
    assert _search(polys, SPLIT, 1100, 2000) == _reference_search(polys, SPLIT, 1100, 2000)
    # a budget that ends inside a block is still counted point by point
    with pytest.raises(BudgetExceeded, match="^no member within 1500 points"):
        next(hilbert_search([P("(T^2+T)*Y + 2")], SPLIT, budget=1500))


_DENSITY_PEAK = """
import sys, tracemalloc
from schinzel.hilbert import density_report
from schinzel.polyring import VarSplit, parse_poly
F = parse_poly("Y^2 - T", ("T", "Y"))
tracemalloc.start()
density_report([F], VarSplit(("T",), ("Y",)), int(sys.argv[1]))
print(tracemalloc.get_traced_memory()[1])
"""


def test_density_memory_does_not_grow_with_the_box():
    # each peak is taken in a fresh interpreter: in this one it would count the
    # free lists that earlier tests filled
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(hilbert.__file__).parents[1])}

    def peak(N):
        run = subprocess.run([sys.executable, "-c", _DENSITY_PEAK, str(N)], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        return int(run.stdout)

    # one block's working set, about 0.7 MB, at both sizes (a block at N = 1000 holds
    # small ints Python caches, so it peaks a little lower); a pool of the box's 2N + 1
    # values alone would add 0.7 MB at N = 10000
    small, large = peak(1_000), peak(10_000)
    assert large - small < 128 * 1024


def test_density_exact_small():
    rep = density_report([P("Y^2 - T")], SPLIT, 10)
    # non-members in [-10,10] are exactly the squares 0,1,4,9
    assert rep.total == 21
    assert rep.non_members == 4
    assert rep.members == 17
    assert rep.reasons == {"reducible": 4}


def test_density_budget():
    with pytest.raises(BudgetExceeded):
        density_report([P("Y^2 - T")], SPLIT, 10**9)


def test_density_rejects_a_negative_half_width():
    for N in (-1, -2):
        with pytest.raises(PolyError, match="negative"):
            density_report([P("Y^2 - T")], SPLIT, N)
    with pytest.raises(PolyError, match="negative"):
        density_report([P("Y^2 - T*U", ("T", "U", "Y"))], VarSplit(("T", "U"), ("Y",)), -1)


# -- the class sieve of density_report against the block engine alone -----------


def _engine_density(polys, split, N):
    """density_report's fields from the engine stream over the box, without the sieve."""
    counts = Counter()
    for _, (_, _, member, reason) in _evidence_stream(polys, split, zip(range(-N, N + 1))):
        counts[None if member else reason.split(":")[0]] += 1
    members = counts.pop(None, 0)
    return DensityReport(N, 2 * N + 1, members, 2 * N + 1 - members, dict(sorted(counts.items())))


def _fallback_outcome(consume, memo):
    """consume()'s result or BudgetExceeded text, with root_verdict's inputs in order.

    `memo` shares the verdicts between runs: root_verdict depends on its input only.
    """
    calls = []
    root_verdict = hilbert.root_verdict

    def spy(f, *args):
        calls.append(key := tuple(f))
        if key not in memo:
            try:
                memo[key] = root_verdict(f, *args)
            except BudgetExceeded as exc:
                memo[key] = exc
        if isinstance(memo[key], BudgetExceeded):
            raise memo[key]
        return memo[key]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hilbert, "root_verdict", spy)
        try:
            result = consume()
        except BudgetExceeded as exc:
            result = str(exc)
    return result, calls


# Each Y-coefficient is M*b + m*c: with (T - r, p), every coefficient is 0 mod p on
# the class t = r mod p, a forced content class; with (T^2 - T, 2) and (T^3 - T, 3),
# p divides the member at every t, a fixed prime.  Different classes in different
# members make a fixed prime of the product only
_FORCED = [(P("1"), 0)] * 4 + [(P("T"), 2), (P("T - 1"), 3), (P("T + 1"), 2),
           (P("T^2 - T"), 2), (P("T^3 - T"), 3)]


def _in_t(coeffs):
    return _poly(REG, [((i, 0), c) for i, c in enumerate(coeffs)])


@st.composite
def sieved_members(draw):
    """A member of degree <= 4 in T and in Y, often with content classes or a fixed prime.

    The lead may get an integer root s, where the point is degenerate or drops in
    degree, and the member a common integer factor k.
    """
    M, m = draw(st.sampled_from(_FORCED))
    root = draw(st.none() | st.integers(-3, 3))
    room = 4 - M.degree_in("T") - (root is not None)
    dy = draw(st.sampled_from([0, 1, 1, 2, 2, 3, 3, 4]))  # few quartics: their fallbacks are slow
    member = MPoly.zero(REG)
    for j in range(dy + 1):
        b = draw(st.lists(st.integers(-4, 4), max_size=room + 1))
        c = draw(st.lists(st.integers(-4, 4), max_size=4 - (root is not None)))
        a = M * _in_t(b) + m * _in_t(c)
        if j in (0, dy):  # Y does not divide the member
            a = a + draw(st.sampled_from([-2, -1, 1, 3]))
        if j == dy and root is not None:
            a = a * P(f"T - ({root})")
        member = member + a * P(f"Y^{j}")
    assume(not member.is_zero())
    return draw(st.sampled_from([1, 1, 1, 2, 3, 6])) * member


@given(st.lists(sieved_members(), min_size=1, max_size=3), st.integers(0, 300))
@settings(max_examples=15, deadline=None)
def test_sieve_matches_the_block_engine(polys, N):
    # the same report or exit, from the same fallbacks in the same order
    memo = {}
    want = _fallback_outcome(lambda: _engine_density(polys, SPLIT, N), memo)
    assert _fallback_outcome(lambda: density_report(polys, SPLIT, N), memo) == want


@pytest.mark.parametrize("exprs, N", [
    (["Y^2 - T", "2*Y^3 + T*Y + 1"], 600),  # two blocks of the box
    (["Y^3 - (2*T + 1)"], 600),  # a cubic splits mod 2 and mod every p = 2 mod 3
])
def test_sieve_sends_the_engine_its_fallbacks_in_order(exprs, N):
    polys, memo = [P(e) for e in exprs], {}
    want = _fallback_outcome(lambda: _engine_density(polys, SPLIT, N), memo)
    got = _fallback_outcome(lambda: density_report(polys, SPLIT, N), memo)
    assert got == want and want[1]


def test_sieve_leaves_few_points_to_the_engine(monkeypatch):
    # of the 4,001 points of Y^2 - T, the sieve passes on only those that reach root_verdict
    sent = []
    stream = hilbert._evidence_stream

    def spy(polys, split, points, *args, **kwargs):
        return stream(polys, split, (sent.append(t) or t for t in points), *args, **kwargs)

    monkeypatch.setattr(hilbert, "_evidence_stream", spy)
    report, calls = _fallback_outcome(lambda: density_report([P("Y^2 - T")], SPLIT, 2000), {})
    assert report.non_members == 45 and len(sent) == len(calls) <= 50
