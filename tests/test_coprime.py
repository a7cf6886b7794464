import math
import random

import pytest

from schinzel.coprime import check_copsch_local, coprime_search
from schinzel.fixdiv import BudgetExceeded
from schinzel.polyring import PolyError, parse_poly

R1 = ("T1",)
R2 = ("T1", "T2")


def Q(expr, reg=R1):
    return parse_poly(expr, reg)


def test_local_consecutive():
    rep = check_copsch_local([Q("T1"), Q("T1 + 1")])
    assert rep.verdict and rep.violations == ()


def test_local_even_pair_fails():
    # coprime over Q, but both always even
    rep = check_copsch_local([Q("2*T1"), Q("2*T1 + 2")])
    assert not rep.verdict
    assert rep.violations == (2,)


def test_local_parity_violation():
    rep = check_copsch_local([Q("T1^2 + T1"), Q("T1^2 + T1 + 2")])
    assert not rep.verdict and 2 in rep.violations


def test_local_requires_rational_coprimality():
    with pytest.raises(PolyError):
        check_copsch_local([Q("T1^2"), Q("T1^3")])


def test_local_requires_two():
    with pytest.raises(PolyError):
        check_copsch_local([Q("T1")])


def test_local_violation_means_always_divisible():
    rep = check_copsch_local([Q("T1^2 + T1"), Q("T1^2 + T1 + 2")])
    rng = random.Random(0)
    for _ in range(100):
        t = rng.randint(-10**6, 10**6)
        for q in (Q("T1^2 + T1"), Q("T1^2 + T1 + 2")):
            assert q.evaluate({"T1": t}) % 2 == 0


def test_search_shifted_pair():
    rep = coprime_search([Q("T1"), Q("T1 + 2")])
    assert math.gcd(*rep.values) == 1
    assert rep.values == tuple(q.evaluate({"T1": rep.m[0]})
                               for q in (Q("T1"), Q("T1 + 2")))


def test_search_two_params():
    Qs = [Q("T1*T2 + 1", R2), Q("T1 + T2", R2)]
    rep = coprime_search(Qs)
    assert rep.m == (0, 0)
    assert rep.values == (1, 0)
    assert math.gcd(*rep.values) == 1


def test_search_zero_value_handled_by_gcd():
    # gcd(1, 0) = 1: a zero value is fine when another value is a unit
    rep = coprime_search([Q("T1*T2 + 1", R2), Q("T1 + T2", R2)])
    assert 0 in rep.values


def test_search_rejects_local_failure():
    with pytest.raises(PolyError):
        coprime_search([Q("2*T1"), Q("2*T1 + 2")])


def test_search_budget():
    for budget in (0, -1):  # a negative budget is used up before the first point
        with pytest.raises(BudgetExceeded, match="no coprime point within 0 candidates"):
            coprime_search([Q("T1 + 4"), Q("T1 + 2")], budget=budget)
    # the values are coprime at odd points only: m = -1 is the second
    with pytest.raises(BudgetExceeded, match="no coprime point within 1 candidates"):
        coprime_search([Q("T1 + 4"), Q("T1 + 2")], budget=1)
    assert coprime_search([Q("T1 + 4"), Q("T1 + 2")], budget=2).tried == 2


def test_density_of_odd_points():
    # gcd(m, m+2) = 1 exactly at odd m
    N = 10**3
    qs = [Q("T1"), Q("T1 + 2")]
    count = sum(
        1
        for m in range(-N, N + 1)
        if math.gcd(qs[0].evaluate({"T1": m}), qs[1].evaluate({"T1": m})) == 1
    )
    odd = sum(1 for m in range(-N, N + 1) if m % 2)
    assert count == odd
