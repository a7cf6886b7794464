import time

import pytest

from schinzel import fixdiv
from schinzel.polyring import PolyError, VarSplit, parse_poly
from schinzel.schinzelcore import (
    HypothesisError,
    bad_prime_set,
    bezout_constant,
    nonvanishing_point,
    progression_witness,
    verify_progression,
)

REG = ("T", "Y")
SPLIT = VarSplit(("T",), ("Y",))


def P(expr, reg=REG):
    return parse_poly(expr, reg)


def T1(expr):
    return parse_poly(expr, ("T",))


# -- Bezout constants -------------------------------------------------


def test_bezout_examples():
    assert bezout_constant([T1("T"), T1("2")]) == 2
    assert bezout_constant([T1("T"), T1("T + 1")]) == 1
    assert bezout_constant([T1("T^2 + 1"), T1("T")]) == 1


def test_bezout_not_coprime():
    with pytest.raises(PolyError):
        bezout_constant([T1("T"), T1("T^2")])


def test_bezout_divisibility_property():
    # delta lies in the ideal: delta is an integer combination of values
    delta = bezout_constant([T1("T^2 - 2"), T1("T")])
    assert delta % 1 == 0 and delta >= 1
    # gcd of the two values divides delta at every integer
    import math

    for t in range(-20, 21):
        g = math.gcd(t * t - 2, t)
        assert delta % g == 0


# -- bad primes and CRT point ----------------------------------------


def test_bad_prime_set():
    primes = bad_prime_set(P("T*Y + 2"), SPLIT, 2)
    assert primes == [2]
    primes = bad_prime_set(P("T^3*Y + 2"), SPLIT, 10)
    assert primes == [2, 3, 5]


def test_nonvanishing_point_spec_example():
    # mod 2 only T=1 works; mod 5 every residue works, so no constraint
    assert nonvanishing_point(P("T*Y + 2"), SPLIT, [2, 5]) == (1,)


def test_nonvanishing_point_unconstrained():
    assert nonvanishing_point(P("T*Y + 1"), SPLIT, [2, 3]) == (0,)


def test_nonvanishing_point_fixed_prime():
    with pytest.raises(HypothesisError):
        nonvanishing_point(P("2*T*Y + 2"), SPLIT, [2])


def test_nonvanishing_point_property():
    from schinzel.polyring import reduce_mod

    q = P("(T - 1)*Y + 3")
    v = nonvanishing_point(q, SPLIT, [2, 3, 5])
    for p in (2, 3, 5):
        assert not reduce_mod(q.substitute({"T": v[0]}), p).is_zero()


def test_nonvanishing_point_large_prime_is_fast():
    # t = 0 vanishes, so t = 1 is the witness and p constrains the point
    # without a count of the other residues
    t0 = time.perf_counter()
    assert nonvanishing_point(P("T*Y + T - 1000003"), SPLIT, [1000003]) == (1,)
    assert time.perf_counter() - t0 < 1


def test_nonvanishing_point_root_test_on_the_last_coordinate():
    # T*Y + T + 1 vanishes at no residue: the gcd of its rows over F_p, the
    # constant 1, has no root, so no walk over the p residues is needed
    t0 = time.perf_counter()
    assert nonvanishing_point(P("T*Y + T + 1"), SPLIT, [1000003]) == (0,)
    assert time.perf_counter() - t0 < 0.05


def test_nonvanishing_point_skips_vanishing_prefixes():
    # all 1000003 tuples with T = 0 vanish; the descent settles that prefix
    # with one specialized table instead of a walk over U
    split = VarSplit(("T", "U"), ("Y",))
    q = parse_poly("T*Y + (T - 1000003)*U*Y^2", ("T", "U", "Y"))
    t0 = time.perf_counter()
    assert nonvanishing_point(q, split, [1000003]) == (1, 0)
    assert time.perf_counter() - t0 < 0.05


def test_nonvanishing_point_builds_one_table_per_prime(monkeypatch):
    # mod 3 the witness t = 0 is zero and t = 1 vanishes, so 3 constrains the
    # point; mod 5 the witness is t = 2; mod 2 and 7 no residue vanishes
    built = []
    table = fixdiv._fermat_table

    def counted(polys, params, p):
        built.append(p)
        return table(polys, params, p)

    monkeypatch.setattr(fixdiv, "_fermat_table", counted)
    q = P("(T - 1)*(T - 5)*Y + 15")
    assert nonvanishing_point(q, SPLIT, [2, 3, 5, 7]) == (12,)
    assert built == [2, 3, 5, 7]


# -- progressions -----------------------------------------------------


def test_progression_witness_basic():
    w = progression_witness([P("T*Y + 2")], SPLIT)
    assert w.delta >= 1
    assert w.omega % 2 == 0  # 2 is a bad prime of TY+2
    checks = verify_progression([P("T*Y + 2")], SPLIT, w, range(-3, 4))
    assert all(c.ok for c in checks)


def test_progression_witness_two_params():
    reg = ("T1", "T2", "Y")
    split = VarSplit(("T1", "T2"), ("Y",))
    polys = [parse_poly("T1*Y + T2", reg)]
    w = progression_witness(polys, split)
    checks = verify_progression(polys, split, w, range(-2, 3))
    # t1 = 0 degenerates to the constant-in-Y polynomial T2: the one
    # exceptional point ("all but finitely many") in this range
    bad = [c for c in checks if not c.ok]
    assert [c.t1 for c in bad] == [0]


def test_progression_rejects_fixed_divisor():
    with pytest.raises(HypothesisError) as exc:
        progression_witness([P("(T^2-T)*Y + T^2 - T - 2")], SPLIT)
    assert exc.value.condition == "NoFixDiv"


def test_progression_rejects_imprimitive():
    with pytest.raises(HypothesisError) as exc:
        progression_witness([P("T*Y + T")], SPLIT)
    assert exc.value.condition in ("Prim", "Prim/Q[T]")
