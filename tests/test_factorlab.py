import ast
import functools
import gc
import itertools
import math
import pathlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schinzel import factorlab, upoly
from schinzel.factorlab import (
    _IMAGE_PRIME,
    EVAL_POINT_TRIES,
    MODP_TRIES,
    BudgetError,
    IrredCertificate,
    _coprime_image,
    _find_dense_factor,
    _prem,
    _prime_schedule,
    _signed_divisors,
    _spiral_images,
    content_q,
    exact_div,
    gcd_q,
    is_irreducible_fp,
    is_irreducible_q,
    is_irreducible_z,
    is_primitive_wrt,
    kronecker_factor,
    root_verdict,
    univariate_certificate,
)
from schinzel.numutil import divisors, is_prime, primes_upto, signed_ints, spiral
from schinzel.polyring import (
    MPoly,
    PolyError,
    VarSplit,
    coefficient_rows,
    dense,
    parse_poly,
    undense,
)
from schinzel.upoly import evaluate as _eval_dense
from schinzel.upoly import exact_quotient as _dense_exact_div
from schinzel.upoly import fp_coprime, fp_irreducible, fp_roots, gcd, mul, trim

REG = ("T", "Y")
X = ("x",)


def U(expr):
    return parse_poly(expr, X)


def P(expr):
    return parse_poly(expr, REG)


def _deg(c):
    """Degree of a coefficient list that may end in zeros; -1 for zero."""
    return len(trim(list(c))) - 1


# -- finite-field test ------------------------------------------------


def test_fp_irreducible_quadratics():
    assert is_irreducible_fp(U("x^2 + x + 1"), 2)
    assert not is_irreducible_fp(U("x^2 + 1"), 2)  # (x+1)^2
    assert is_irreducible_fp(U("x^2 + 1"), 3)


def test_fp_linear_and_errors():
    assert is_irreducible_fp(U("x + 1"), 5)
    with pytest.raises(PolyError):
        is_irreducible_fp(U("x^2 + 1"), 4)


def test_fp_unproved_modulus_is_refused_at_once():
    # a prime above the exact Miller-Rabin bound cannot be proved prime
    q = 3317044064679887385962123
    start = time.monotonic()
    with pytest.raises(PolyError, match=f"modulus {q} is not proved prime"):
        is_irreducible_fp(U("x^2 + 1"), q)
    assert time.monotonic() - start < 0.5


def test_fp_reduces_before_it_decides():
    # the verdict is the one of P mod p, whatever P is over Z
    assert is_irreducible_fp(parse_poly("2*x*y + x + 1", ("x", "y")), 2)  # x + 1
    assert is_irreducible_fp(U("3*x^2 + x + 1"), 3)  # x + 1
    with pytest.raises(PolyError):
        is_irreducible_fp(U("2*x"), 2)  # zero mod 2
    with pytest.raises(PolyError):
        is_irreducible_fp(U("2*x + 1"), 4)
    with pytest.raises(PolyError):
        is_irreducible_fp(parse_poly("x*y + 1", ("x", "y")), 5)


FP_PRIMES = primes_upto(101)


def _poly_from(coeffs):
    return MPoly(X, {(e,): c for e, c in enumerate(coeffs) if c})


def _fp_cases(seed, count):
    """Seeded (coefficients, p) pairs: degree 1-12, p in 2..101, p not dividing the lead."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        p = rng.choice(FP_PRIMES)
        c = [rng.randint(-60, 60) for _ in range(rng.randint(1, 12))]
        c.append(rng.choice([1, -1, rng.randint(2, 999)]))
        if c[-1] % p:
            cases.append((c, p))
    # squares and products with a repeated factor
    for expr, p in [("(x^2+1)^2", 3), ("(x^2+1)^2", 7), ("(x^2+x+1)^2", 2),
                    ("(x^3+x+1)^2*(x+1)", 2), ("(x^2+2)^3", 5), ("(x^4+1)^2", 11)]:
        f = U(expr)
        cases.append(([f.terms.get((e,), 0) for e in range(f.degree_in("x") + 1)], p))
    return cases


def test_fp_irreducible_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    seen = set()
    for c, p in _fp_cases(41, 600):
        want = sympy.Poly(list(reversed(c)), x, modulus=p).is_irreducible
        assert is_irreducible_fp(_poly_from(c), p) == want, (c, p)
        seen.add(want)
    assert seen == {True, False}


def test_prime_schedule_matches_counting_loop():
    def counting(lead, tries=MODP_TRIES):
        out, p = [], 2
        while len(out) < tries:
            if is_prime(p) and lead % p != 0:
                out.append(p)
            p += 1
        return out

    # a lead divisible by every sieved prime (those below 1000) walks the is_prime tail
    primorial = math.prod(primes_upto(1050))
    nxt = next(p for p in range(1051, 10**4) if is_prime(p))
    for lead in (1, 6, -6, primorial, primorial * nxt, -primorial * nxt):
        assert list(_prime_schedule(lead)) == counting(lead), lead
    assert list(_prime_schedule(primorial))[0] > 1050


def test_modp_certificate_is_first_schedule_prime_sympy_accepts():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(43)
    routes = set()
    for _ in range(150):
        c = [rng.randint(-20, 20) for _ in range(rng.randint(2, 10))]
        c.append(rng.choice([1, 2, 3, 6, 30, -1, rng.randint(1, 200)]))
        g = math.gcd(*c)
        pc = [a // g for a in reversed(c)]  # primitive, leading coefficient first
        first = next((p for p in _prime_schedule(pc[0])
                      if sympy.Poly(pc, x, modulus=p).is_irreducible), None)
        try:
            cert = is_irreducible_q(_poly_from(c), combo_budget=2000)
        except BudgetError:
            assert first is None
            continue
        routes.add(cert.method)
        if first is None:
            assert cert.method in ("root", "kronecker"), c
        else:
            assert (cert.method, cert.prime) == ("mod-p", first), c
    assert routes == {"mod-p", "root", "kronecker"}


# -- root route -------------------------------------------------------


@st.composite
def _root_cases(draw):
    """Dense sign * x^k * prod (b*x - a)^m * cofactors, degree 2..10.

    Negative leads, root 0 with multiplicity and repeated roots come up often.
    """
    f = [0] * draw(st.integers(0, 2)) + [draw(st.sampled_from([1, -1]))]
    for a, b, m in draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 6),
                                           st.integers(1, 2)), max_size=3)):
        for _ in range(m):
            f = mul(f, [-a, b])
    for _ in range(2):  # two cofactors, so some reducible f have no linear factor
        f = mul(f, draw(st.lists(st.integers(-9, 9), max_size=2)) + [draw(st.integers(1, 9))])
    assume(2 <= len(f) - 1 <= 10)
    return f


@given(_root_cases())
@settings(max_examples=150, deadline=None)
def test_root_route_matches_sympy(f):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(f)), x).factor_list()
    c = math.gcd(*f)  # the primitive part keeps a negative lead, as hilbert's images do
    cert = univariate_certificate([a // c for a in f], X, "x")
    assert cert.irreducible == (len(factors) == 1 and factors[0][1] == 1)
    linear = [_poly_from([int(c) * (1 if g.LC() > 0 else -1) for c in reversed(g.all_coeffs())])
              for g, _ in factors if g.degree() == 1]
    if linear:
        # the oracle's first factor, whichever route answered
        assert cert.factor == min(linear, key=str)
        k = next(i for i, c in enumerate(f) if c)
        if sympy.Poly(list(reversed(f[k:])), x).is_sqf:
            assert cert.method == "root"
    elif cert.method == "root":
        assert len(f) <= 4 and cert.irreducible


def test_root_route_decides_a_quadratic_no_prime_certifies():
    # x^2 - 399 splits mod each of the ten scheduled primes
    assert is_irreducible_q(U("x^2 - 399")) == IrredCertificate("irreducible", "root")


def test_root_route_declines_a_repeated_root():
    # (x - 1)^2 * (x + 2) is squarefree mod no prime; the oracle decides
    cert = is_irreducible_q(U("(x - 1)^2*(x + 2)"))
    assert (cert.method, cert.factor) == ("kronecker", U("x + 2"))
    # a repeated root 0 is stripped first, so the route answers
    cert = is_irreducible_q(U("-x^3*(3*x + 2)*(x - 5)"))
    assert (cert.method, cert.factor) == ("root", U("3*x + 2"))


def test_root_route_exits_at_once_on_the_composed_degree_16_input():
    # its lead has millions of divisors; there is no root mod 17, so the oracle gets it at once
    f = parse_poly("46304408123581315537404746737842276000000000000*Y^16 + 1", REG)
    t0 = time.perf_counter()
    with pytest.raises(BudgetError, match="total degree 16 exceeds the degree-12 budget"):
        is_irreducible_q(f)
    assert time.perf_counter() - t0 < 0.05


# -- Kronecker oracle -------------------------------------------------


def test_oracle_univariate_products():
    f = U("(x^2+1)*(x-3)*(x-3)")
    fact = kronecker_factor(f)
    assert fact.product() == f
    got = sorted((str(g), m) for g, m in fact.factors)
    assert got == [("x - 3", 2), ("x^2 + 1", 1)]


def test_oracle_content_and_unit():
    fact = kronecker_factor(U("-6*x + 6"))
    assert fact.unit == -1
    assert fact.content == 6
    assert fact.product() == U("-6*x + 6")


def test_oracle_irreducible_stays_whole():
    fact = kronecker_factor(U("x^4 + x + 1"))
    assert len(fact.factors) == 1 and fact.factors[0][1] == 1


def test_oracle_multivariate():
    f = P("(T + Y)*(T - Y)")
    fact = kronecker_factor(f)
    assert fact.product() == f
    assert len(fact.factors) == 2


def test_oracle_budget():
    with pytest.raises(BudgetError):
        kronecker_factor(U("x^13 + x + 1"))


@pytest.mark.parametrize("expr, reg", [
    ("(x^2+1)*(x^2+2)", ("x",)),
    ("(x^2+y)*(x^2+y+1)", ("x", "y")),
])
def test_oracle_options_reach_the_oracle(expr, reg):
    # no prime certifies a reducible input, so the oracle runs with the caller's budget
    with pytest.raises(BudgetError, match="exceeded 1 interpolation candidates"):
        is_irreducible_q(parse_poly(expr, reg), combo_budget=1)


@pytest.mark.parametrize("call", [
    lambda: is_irreducible_q(U("x^2 + 1"), combo_budgt=5),
    lambda: is_irreducible_z(U("x^2 + 1"), combo_budgt=5),
    lambda: univariate_certificate([1, 0, 1], X, "x", combo_budgt=5),
    lambda: root_verdict([1, 0, 1], X, "x", combo_budgt=5),
], ids=["is_irreducible_q", "is_irreducible_z", "univariate_certificate", "root_verdict"])
def test_a_misspelled_oracle_option_is_a_type_error(call):
    # x^2 + 1 is irreducible mod 3 and has no rational root: no oracle runs to notice it
    with pytest.raises(TypeError, match="combo_budgt"):
        call()


def test_oracle_unproved_prime_is_a_budget_exit():
    # the constant is prime and above the bound below which Miller-Rabin is exact
    start = time.monotonic()
    with pytest.raises(BudgetError, match="exact-primality bound"):
        kronecker_factor(U("x^2 + 3317044064679887385962123"))
    assert time.monotonic() - start < 1.0


def test_oracle_unsplit_divisor_is_a_quick_budget_exit():
    # (x + 2)(P x + 1), P the product of the primes below 256: every scheduled prime
    # sees its roots, and f(1) = 3(P + 1) leaves rho a 335-bit cofactor it cannot split
    f = mul([2, 1], [1, math.prod(primes_upto(255))])
    start = time.process_time()
    with pytest.raises(BudgetError, match="cannot list the divisors .* Pollard rho"):
        univariate_certificate(f, X, "x", combo_budget=200)
    assert time.process_time() - start < 2.0


@pytest.mark.parametrize(
    "expr, opts",
    [
        ("x^13 + x + 1", {"combo_budget": 100}),
        ("x^2 + 3317044064679887385962123", {}),
    ],
)
def test_budget_error_pins_no_search_frame(monkeypatch, expr, opts):
    monkeypatch.setattr(factorlab, "MAX_TOTAL_DEGREE", 13)  # x^13 + x + 1 reaches the search
    with pytest.raises(BudgetError) as info:
        kronecker_factor(U(expr), **opts)
    tb = info.value.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    assert tb.tb_frame.f_code is kronecker_factor.__code__
    assert info.value.__context__ is None


def test_successful_factorization_makes_no_cycles():
    f = U("(x^3 - 2*x + 5)*(x^3 + 7*x^2 - 1)*(x^2 + 3)")
    g = P("(T^2 + Y)*(T - Y^2 + 1)")
    gc.collect()
    gc.disable()
    try:
        kronecker_factor(f)
        kronecker_factor(g)
        leaked = gc.collect()
    finally:
        gc.enable()
    assert leaked == 0


# -- the divisor search against Fraction-based Lagrange interpolation --


def _reference_interp(points, values):
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, vi) in enumerate(zip(points, values)):
        basis = [Fraction(1)]
        denom = 1
        for j, xj in enumerate(points):
            if j == i:
                continue
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k + 1] += c
                nxt[k] -= c * xj
            basis = nxt
            denom *= xi - xj
        scale = Fraction(vi, denom)
        for k, c in enumerate(basis):
            coeffs[k] += c * scale
    return coeffs


def _reference_exact_div(f, g):
    f = [Fraction(a) for a in f[: _deg(f) + 1]]
    g = g[: _deg(g) + 1]
    df, dg = len(f) - 1, len(g) - 1
    if df < dg:
        return None
    q = [Fraction(0)] * (df - dg + 1)
    for k in range(df - dg, -1, -1):
        c = f[k + dg] / g[dg]
        q[k] = c
        if c:
            for j in range(dg + 1):
                f[k + j] -= c * g[j]
    if any(f) or any(c.denominator != 1 for c in q):
        return None
    return [int(c) for c in q]


def _reference_find_dense_factor(f, combo_budget):
    """The divisor search as it was before its integer-only rewrite."""
    n = _deg(f)
    max_d = n // 2
    points, values = [], []
    for x in signed_ints():
        v = _eval_dense(f, x)
        if v == 0:
            return [-x, 1]
        points.append(x)
        values.append(v)
        if len(points) > max_d:
            break
    combos = 0
    for d in range(1, max_d + 1):
        pts = points[: d + 1]
        divlists = [
            _signed_divisors(values[i], positive_only=(i == 0)) for i in range(d + 1)
        ]
        lead_f = f[n]
        const_f = f[0]
        chosen = [0] * (d + 1)

        def search(level):
            nonlocal combos
            if level == d + 1:
                combos += 1
                if combos > combo_budget:
                    raise BudgetError(
                        f"kronecker oracle exceeded {combo_budget} interpolation candidates"
                    )
                cand = _reference_interp(pts, chosen)
                if any(c.denominator != 1 for c in cand):
                    return None
                g = [int(c) for c in cand]
                if _deg(g) != d:
                    return None
                if lead_f % g[d] != 0:
                    return None
                if g[0] != 0 and const_f % g[0] != 0:
                    return None
                if _reference_exact_div(f, g) is not None:
                    return g
                return None
            for e in divlists[level]:
                ok = True
                for j in range(level):
                    step = pts[level] - pts[j]
                    if (e - chosen[j]) % step != 0:
                        ok = False
                        break
                if ok:
                    chosen[level] = e
                    hit = search(level + 1)
                    if hit is not None:
                        return hit
            return None

        hit = search(0)
        if hit is not None:
            return hit
    return None


def _random_dense(rng, deg, bound):
    c = [rng.randint(-bound, bound) for _ in range(deg)]
    return c + [rng.choice([-1, 1]) * rng.randint(1, bound)]


def _mul_dense(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _outcome(search, f, budget):
    try:
        return search(f, budget)
    except BudgetError as exc:
        return str(exc)


def test_search_matches_lagrange_reference():
    rng = random.Random(20251)
    other = random.Random(7)
    outcomes = set()
    for _ in range(40):
        deg = rng.randint(2, 10)
        if rng.random() < 0.4:
            a = rng.randint(1, deg - 1)
            left = _random_dense(rng, a, 4)
            f = _mul_dense(left, _random_dense(rng, deg - a, 4))
        else:
            left = None
            f = _random_dense(rng, deg, 20)
        for budget in (100, 2000):
            want = _outcome(_reference_find_dense_factor, f, budget)
            assert _outcome(_find_dense_factor, f, budget) == want, (f, budget)
            outcomes.add(type(want))
        # exact division by a known factor and by an unrelated polynomial
        for g in (left, _random_dense(other, other.randint(1, deg), 4)):
            if g is not None:
                assert _dense_exact_div(f, g) == _reference_exact_div(f, g), (f, g)
    # the inputs reach factors, irreducible verdicts and budget exits alike
    assert outcomes == {list, type(None), str}


# -- certificates -----------------------------------------------------


def test_modp_certificate():
    cert = is_irreducible_q(U("x^2 - x - 1"))
    assert cert.irreducible and cert.method == "mod-p"


def test_oracle_fallback_certificate():
    # reducible over Q: every mod-p try fails, the oracle produces a factor
    cert = is_irreducible_q(U("x^2 - 1"))
    assert not cert.irreducible
    assert cert.factor is not None


def test_oracle_factor_keeps_the_variable():
    # Y is not the first name of the registry; the oracle's factor is still in Y.
    # No rational root, so the root route declines at degree 4
    cert = is_irreducible_q(P("Y^4 + 3*Y^2 + 2"))
    assert cert.method == "kronecker" and cert.factor == P("Y^2 + 1")


def test_root_factor_keeps_the_variable():
    cert = is_irreducible_q(P("Y^2 - 1"))
    assert cert.method == "root" and cert.factor == P("Y + 1")


def test_evaluation_image_is_certified_by_its_primitive_part():
    # the image at T = 0 is 2*(Y^2 + Y + 1); 2 divides only its content, so 2 certifies
    cert = is_irreducible_q(P("T*Y^2 + 2*Y^2 + 2*Y + 2"))
    assert (cert.method, cert.point, cert.prime) == ("evaluation", {"T": 0}, 2)


def test_undecided_evaluation_image_moves_on_to_the_next_point():
    # x is the main variable; the y = -1 image has degree 4 and no rational root,
    # and the oracle cannot decide it within 100 candidates; y = 1 is certified mod 3
    expr = ("14*x^4*y^3 - 12*x^4*y^2 - 10*x^3*y^3 + 10*x^4*y - 19*x^3*y^2 + 10*x^2*y^3"
            " - 13*x^4 + 8*x^3 + 4*x^2*y + 2*y^3 + 8*y")
    with pytest.raises(BudgetError):
        univariate_certificate([-10, 0, -14, -1, -49], ("x", "y"), "x", combo_budget=100)
    flag, cert = is_irreducible_z(parse_poly(expr, ("x", "y")), combo_budget=100)
    assert flag and (cert.method, cert.point, cert.prime) == ("evaluation", {"y": 1}, 3)


def test_modp_certificate_is_one_object_per_prime():
    certs = [is_irreducible_q(U(f"x^2 - {a}*x - 1")) for a in range(1, 40)]
    by_prime = {}
    for cert in certs:
        if cert.method == "mod-p":
            assert by_prime.setdefault(cert.prime, cert) is cert
    assert len(by_prime) >= 2


def test_swinnerton_dyer_needs_oracle():
    # (x^2-2)(x^2-3)(x^2-6) splits mod every prime but x^2-2 is Q-irreducible
    cert = is_irreducible_q(U("x^2 - 2"))
    assert cert.irreducible


def test_multivariate_evaluation_witness(monkeypatch):
    cert = is_irreducible_q(P("Y^2 - T"))
    assert cert.irreducible
    # T = 0 gives the reducible Y^2; T = -1, the second spiral point, Y^2 + 1
    assert (cert.method, cert.point) == ("evaluation", {"T": -1})
    monkeypatch.setattr(factorlab, "EVAL_POINT_TRIES", 2)
    assert is_irreducible_q(P("Y^2 - T")).method == "evaluation"
    monkeypatch.setattr(factorlab, "EVAL_POINT_TRIES", 1)
    assert is_irreducible_q(P("Y^2 - T")).method == "kronecker"


def test_multivariate_reducible():
    cert = is_irreducible_q(P("(Y - T)*(Y + T)"))
    assert not cert.irreducible


def test_z_irreducibility_content():
    flag, cert = is_irreducible_z(U("2*x^2 + 2"))
    assert not flag and cert.method == "content"
    flag, _ = is_irreducible_z(U("x^2 + 1"))
    assert flag


def test_constant_rejected():
    with pytest.raises(PolyError):
        is_irreducible_q(U("5"))


# -- gcd over Q -------------------------------------------------------


def test_gcd_basic():
    a = P("(T + Y)*(T - Y)")
    b = P("(T + Y)*(T + 1)")
    assert gcd_q(a, b) == P("T + Y")


def test_gcd_constants_are_units():
    # integer contents do not count: gcd over Q of 2T and 2T+2 is 1
    assert gcd_q(P("2*T"), P("2*T + 2")) == P("1")
    assert gcd_q(P("2"), P("4*T")) == P("1")


def test_gcd_coprime():
    assert gcd_q(P("T^2 + 1"), P("T")) == P("1")


@given(st.integers(1, 4), st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=50, deadline=None)
def test_gcd_divides_both(e, a, b):
    g = U(f"x^{e}") + MPoly.const(X, a)
    f1 = g * (U("x") + MPoly.const(X, b))
    f2 = g * U("x^2 + 1")
    d = gcd_q(f1, f2)
    assert d.degree_in("x") >= g.primitive_part().degree_in("x") or g.is_constant()


def test_gcd_inconclusive_image_falls_back():
    # x and x + 10007 agree mod the image prime, so the image proves nothing
    a, b = U("x"), U("x + 10007")
    assert not _coprime_image([a, b], "x", [])
    assert gcd_q(a, b) == U("1")


@pytest.mark.parametrize("reg, a, b, g", [
    # at y = 0 the common factor drops to 1 and the images x + 2, x + 3 are coprime
    (("y", "x"), "(x*y + 1)*(x + 2)", "(x*y + 1)*(x + 3)", "x*y + 1"),
    # mod 10007 the common factor drops to 1
    (("x",), "(10007*x + 1)*(x + 2)", "(10007*x + 1)*(x + 3)", "10007*x + 1"),
])
def test_gcd_image_keeps_both_leading_coefficients(reg, a, b, g):
    a, b = parse_poly(a, reg), parse_poly(b, reg)
    assert not _coprime_image([a, b], "x", [n for n in reg if n != "x"])
    assert gcd_q(a, b) == parse_poly(g, reg)


def test_gcd_dense_bivariate_coprime_pair_is_fast():
    rng = random.Random(3)
    reg = ("x", "y")

    def dense(deg):
        return MPoly(reg, {(i, j): rng.randint(-9, 9)
                           for i in range(deg + 1) for j in range(deg + 1 - i)})

    a, b = dense(9), dense(9)
    t0 = time.perf_counter()
    g = gcd_q(a, b)
    assert time.perf_counter() - t0 < 0.5
    assert g == MPoly.const(reg, 1)


GCD_REG = ("x", "y", "z")


def _small_poly(names, max_terms=3):
    idx = [GCD_REG.index(n) for n in names]

    def build(terms):
        out = {}
        for expo, c in terms.items():
            full = [0] * len(GCD_REG)
            for i, e in zip(idx, expo):
                full[i] = e
            out[tuple(full)] = c
        return MPoly(GCD_REG, out)

    expo = st.tuples(*[st.integers(0, 2)] * len(names))
    return st.dictionaries(expo, st.integers(-4, 4).filter(bool), min_size=1,
                           max_size=max_terms).map(build)


@st.composite
def _gcd_pair(draw):
    """(A, B) in 1-3 of the names: coprime, with a planted common factor,
    with a common factor only in the names other than the last one, which
    is gcd_q's main variable, or, for "free", that too with A free of the
    last name."""
    names = GCD_REG[: draw(st.integers(1, 3))]
    kind = draw(st.sampled_from(["coprime", "planted", "content", "free"]))
    a_names = names[:-1] if kind == "free" and len(names) > 1 else names
    a, b = draw(_small_poly(a_names)), draw(_small_poly(names))
    if kind == "planted":
        c = draw(_small_poly(names))
    elif kind in ("content", "free") and len(names) > 1:
        c = draw(_small_poly(names[:-1]))
    else:
        c = MPoly.const(GCD_REG, 1)
    return a * c, b * c


def _dense_wrt(P, name):
    """P as a list of coefficients in `name`, each an MPoly; the reference
    that gcd_q's pseudo-remainder used before it worked on MPoly."""
    coeffs = P.coefficients((name,))
    zero = MPoly.zero(P.registry)
    return [coeffs.get((e,), zero) for e in range(P.degree_in(name) + 1)]


def _from_dense_wrt(coeffs, registry, name):
    x = MPoly.var(registry, name)
    out = MPoly.zero(registry)
    for e, c in enumerate(coeffs):
        out = out + c * x**e
    return out


def _reference_prem(A, B, name):
    """The list-based pseudo-remainder that `_prem` replaced."""
    a = _dense_wrt(A, name)
    b = _dense_wrt(B, name)
    db = len(b) - 1
    lb = b[db]
    while len(a) - 1 >= db:
        da = len(a) - 1
        lead = a[da]
        a = [lb * c for c in a]
        for j in range(db + 1):
            a[da - db + j] = a[da - db + j] - lead * b[j]
        while a and a[-1].is_zero():
            a.pop()
        if not a:
            break
    if not a:
        return MPoly.zero(A.registry)
    return _from_dense_wrt(a, A.registry, name)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    _small_poly(GCD_REG[:k]), _small_poly(GCD_REG[:k]), st.sampled_from(GCD_REG[:k]))))
def test_prem_matches_list_reference(case):
    a, b, name = case
    assert _prem(a, b, name) == _reference_prem(a, b, name)


def _to_sympy(f, syms):
    sympy = pytest.importorskip("sympy")
    return sympy.Add(*[c * sympy.Mul(*[s**e for s, e in zip(syms, expo)])
                       for expo, c in f.terms.items()])


@settings(max_examples=150, deadline=None)
@given(_gcd_pair())
def test_gcd_q_matches_sympy(pair):
    sympy = pytest.importorskip("sympy")
    a, b = pair
    syms = sympy.symbols(GCD_REG)
    g = sympy.Poly(sympy.gcd(_to_sympy(a, syms), _to_sympy(b, syms)), *syms)
    want = MPoly(GCD_REG, {e: int(c) for e, c in g.terms()}).primitive_part()
    if want.leading_coefficient() < 0:
        want = -want
    assert gcd_q(a, b) == want


def _reference_content(P, names):
    """The pairwise gcd_q fold that content_q ran before its F_p image."""
    g = None
    for c in P.coefficients(names).values():
        g = c if g is None else gcd_q(g, c)
        if g.is_constant():
            return MPoly.const(P.registry, 1)
    return g


@st.composite
def _content_case(draw):
    """(g*h, main) in 2 or 3 names, g free of main: constant, linear, a monomial or any.

    h is sometimes a single main-variable coefficient times a power of main,
    and sometimes carries a factor whose leads are multiples of the image prime.
    """
    names = GCD_REG[: draw(st.integers(2, 3))]
    main = draw(st.sampled_from(names))
    rest = [n for n in names if n != main]
    var = {n: MPoly.var(GCD_REG, n) for n in names}
    kind = draw(st.sampled_from(["constant", "linear", "monomial", "any"]))
    c = draw(st.integers(-6, 6).filter(bool))
    if kind == "constant":
        g = MPoly.const(GCD_REG, c)
    elif kind == "linear":
        g = sum((draw(st.integers(-3, 3)) * var[n] for n in rest), MPoly.const(GCD_REG, c))
    elif kind == "monomial":
        g = c * math.prod((var[n] ** draw(st.integers(0, 2)) for n in rest), start=1)
    else:
        g = draw(_small_poly(rest))
    if draw(st.booleans()):
        h = draw(_small_poly(rest)) * var[main] ** draw(st.integers(0, 2))
    else:
        h = draw(_small_poly(names))
    if draw(st.booleans()):
        h = h * (_IMAGE_PRIME * var[draw(st.sampled_from(rest))] + draw(st.integers(-2, 2)))
    return g * h, main


@settings(max_examples=200, deadline=None)
@given(_content_case())
def test_content_q_matches_the_pairwise_fold(case):
    P, main = case
    assume(not P.is_zero())
    assert content_q(P, (main,)) == _reference_content(P, (main,))


@pytest.mark.parametrize("expr, main, want", [
    ("-2*x*y - x", "x", "-2*y - 1"),  # one coefficient comes back as it is
    ("(10007*y + 1)*x + 10007*y + 1", "x", "10007*y + 1"),
    ("(10007*y^2 + 1)*x + 10007*y^2 + 2", "x", "1"),  # leads vanish mod 10007: exact fold
    ("(y + 1)*x^2 + (y^2 - 1)*x + 3*y + 3", "x", "y + 1"),
])
def test_content_q_examples(expr, main, want):
    P = parse_poly(expr, GCD_REG)
    assert content_q(P, (main,)) == parse_poly(want, GCD_REG) == _reference_content(P, (main,))


def test_unit_content_in_one_name_calls_no_gcd_q(monkeypatch):
    # the image in F_10007[y] of the three coefficients has a constant gcd
    calls = []
    monkeypatch.setattr(factorlab, "gcd_q", lambda *a: calls.append(a) or gcd_q(*a))
    P = parse_poly("(y^2 + 1)*x^2 + (y^2 - 1)*x + y*(y + 1)", GCD_REG)
    assert content_q(P, ("x",)) == MPoly.const(GCD_REG, 1)
    assert calls == []


@st.composite
def _image_case(draw):
    """(P, main) in 2 or 3 names whose lead in main vanishes where a name is a small a."""
    names = GCD_REG[: draw(st.integers(2, 3))]
    main = draw(st.sampled_from(names))
    rest = [n for n in names if n != main]
    d = draw(st.integers(1, 3))
    low = draw(_small_poly(names, max_terms=5))
    low = sum((c for (e,), c in low.coefficients((main,)).items() if e < d),
              MPoly.zero(GCD_REG))
    a = draw(st.integers(-2, 2))
    lead = MPoly.var(GCD_REG, draw(st.sampled_from(rest))) - a
    return lead * MPoly.var(GCD_REG, main, d) + low, main


@settings(max_examples=150, deadline=None)
@given(_image_case())
def test_spiral_images_match_substitute(case):
    P, main = case
    others = [n for n in P.variables() if n != main]
    images = list(_spiral_images(P, others, main, EVAL_POINT_TRIES))
    assert len(images) == EVAL_POINT_TRIES
    assert [point for point, _ in images] == list(itertools.islice(spiral(len(others)),
                                                                   EVAL_POINT_TRIES))
    for point, f in images:
        assert len(f) == P.degree_in(main) + 1
        assert trim(list(f)) == dense(P.substitute(dict(zip(others, point))), main)


def test_spiral_images_keep_a_dropped_degree():
    P = parse_poly("(y - 1)*x^2 + x + y", GCD_REG)
    images = dict(_spiral_images(P, ["y"], "x", 3))
    assert images == {(0,): [0, 1, -1], (-1,): [-1, 1, -2], (1,): [1, 1, 0]}


@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=5),
    st.integers(-9, 9).filter(bool),
    st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 4)), max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_root_verdict_matches_the_walk_that_builds_the_factor(low, lead, roots):
    f = low + [lead]
    for a, b in roots:  # linear factors b*x - a make the root route decide often
        f = mul(f, [-a, b])
    c = math.gcd(*f)
    f = [v // c for v in f]

    def verdict(route):
        try:
            return route()
        except BudgetError as exc:
            return str(exc)

    got = verdict(lambda: root_verdict(f, X, "x", combo_budget=200))
    want = verdict(lambda: factorlab._walk(f, X, "x", {"combo_budget": 200}, tests=False,
                                           witness=True))
    if isinstance(want, str):
        assert got == want
    elif want.method == "root" and not want.irreducible:
        assert got == IrredCertificate("reducible", "root")
    else:
        assert got == want


_SCHEDULED = math.prod(primes_upto(29))  # the ten primes scheduled for a lead of 1


@st.composite
def _low_degree_cases(draw):
    """(kind, primitive dense f of degree 2 or 3) for the discriminant route against the walk."""
    big = st.integers(-10**30, 10**30)
    small = st.integers(-9, 9)
    kind = draw(st.sampled_from(["factors", "large", "discriminant", "repeated", "x^k",
                                 "lead 256", "one interval"]))
    if kind == "factors":  # a linear factor times a linear or quadratic one, or one factor
        linear = [draw(small), draw(st.integers(1, 12))]
        f = mul(linear, _dense_poly(draw, draw(st.integers(1, 2))))
        if draw(st.booleans()):
            f = _dense_poly(draw, draw(st.integers(2, 3)), draw(st.integers(1, 40)))
    elif kind == "large":
        f = draw(st.lists(big, min_size=2, max_size=3)) + [draw(big.filter(bool))]
        if draw(st.booleans()):
            f = mul([draw(big), draw(big.filter(bool))], f[1:])
    elif kind == "discriminant":  # (x - r)^2 * (x - s) mod each of the ten scheduled primes
        r, s = draw(small), draw(small)
        square = mul([-r, 1], [-r, 1])
        f = square if draw(st.booleans()) else mul(square, [-s, 1])
        f = [v + _SCHEDULED * draw(small) for v in f[:-1]] + [1]
    elif kind == "repeated":
        g = [draw(small), draw(st.integers(1, 9))]
        f = mul(mul(g, g), [draw(small), draw(st.integers(1, 9))][: draw(st.integers(1, 2))])
    elif kind == "x^k":
        f = [0] + _dense_poly(draw, draw(st.integers(1, 2)))
    elif kind == "lead 256":  # the oracle samples the roots 0 and 1 before it lists divisors
        cofactor = draw(st.sampled_from([[0, 1], [-1, 1], [0, 0, 1], [0, -1, 1]]))
        f = mul(cofactor, [draw(st.sampled_from([1, -1])), _PRIMORIAL * draw(st.integers(1, 3))])
    else:  # x^3 + (B - 1)x^2 - Bx + 1 at x - n: two real roots in (n, n + 1), none rational
        n, B = draw(st.integers(-20, 20)), draw(st.integers(5, 30))
        f = mul(mul([-n, 1], [-n - 1, 1]), [B - n, 1])
        f[0] += 1
    assume(f[-1] and len(f) in (3, 4))
    c = math.gcd(*f) * (1 if f[-1] > 0 else -1)
    return kind, [a // c for a in f]


@given(_low_degree_cases())
@settings(max_examples=300, deadline=None)
def test_root_verdict_decides_quadratics_and_cubics_as_the_walk(case):
    kind, f = case
    want = _outcome_of(lambda: factorlab._walk(f, X, "x", {"combo_budget": 200}, tests=False,
                                               witness=False))
    assert _outcome_of(lambda: root_verdict(f, X, "x", combo_budget=200)) == want
    if kind == "one interval":  # two real roots in one unit interval: the integer rule decides
        assert IrredCertificate(factorlab._discriminant_verdict(f), "root") == want


@st.composite
def _cubics(draw):
    """Primitive dense cubics with f(0) != 0, of coefficients up to 9, 2^60 or 10^30."""
    size = draw(st.sampled_from([9, 2**60, 10**30]))
    num, positive = st.integers(-size, size), st.integers(1, size)
    kind = draw(st.sampled_from(["linear x quadratic", "three roots", "repeated",
                                 "one interval", "random"]))

    def linear():
        return [draw(num), draw(positive)]

    if kind == "linear x quadratic":
        f = mul(linear(), [draw(num), draw(num), draw(positive)])
    elif kind == "three roots":
        f = mul(mul(linear(), linear()), linear())
    elif kind == "repeated":
        g = linear()
        f = mul(mul(g, g), linear())
    elif kind == "one interval":  # x^3 + (B - 1)x^2 - Bx + 1 at x - n: D > 0, no rational root
        n, B = draw(num), draw(st.integers(5, max(size, 5)))
        f = mul(mul([-n, 1], [-n - 1, 1]), [B - n, 1])
        f[0] += 1
    else:
        f = [draw(num) for _ in range(3)] + [draw(positive)]
    assume(f[0] and f[-1])
    c = math.gcd(*f) * draw(st.sampled_from([1, -1]))  # negative leads too
    return [a // c for a in f]


@given(_cubics())
@settings(max_examples=300, deadline=None)
def test_discriminant_verdict_matches_sympy_on_cubics(f):
    sympy = pytest.importorskip("sympy")
    verdict = factorlab._discriminant_verdict(f)
    if verdict is None:  # only where the walk's root scans would not settle f either
        scanned = itertools.takewhile(lambda p: p < 256, _prime_schedule(f[-1]))
        assert all(upoly.discriminant(f) % p == 0 for p in scanned)
    else:
        irreducible = sympy.Poly(list(reversed(f)), sympy.Symbol("x")).is_irreducible
        assert verdict == ("irreducible" if irreducible else "reducible")


def test_discriminant_verdict_matches_the_divisors_on_small_monic_cubics():
    # every y^3 + b*y^2 + c*y + d with |b|, |c|, |d| <= 12 against its integer roots,
    # which divide d; some lie beyond half the bound M
    decided = 0
    for d, c, b in itertools.product(range(-12, 13), repeat=3):
        verdict = factorlab._discriminant_verdict([d, c, b, 1]) if d else None
        if verdict is not None:
            decided += 1
            root = any(_eval_dense([d, c, b, 1], r) == 0 for a in divisors(d) for r in (a, -a))
            assert verdict == ("reducible" if root else "irreducible"), (d, c, b)
    assert decided > 14000


# -- the prime walk against the route it replaced ---------------------


def _reference_rational_roots(f):
    """The rational roots of f, lifted at the first scheduled p < 256 that leaves f squarefree.

    The root route before the prime walk; None when no such prime exists.
    """
    k = next(i for i, c in enumerate(f) if c)
    g, roots = f[k:], ([(0, 1)] if k else [])
    if len(g) == 1:
        return iter(roots)
    lead, d = g[-1], len(g) - 1
    dg = [i * c for i, c in enumerate(g)][1:]
    scheduled = itertools.takewhile(lambda p: p < 256, _prime_schedule(lead))
    p = next((p for p in scheduled if fp_coprime(dg, g, p)), None)
    if p is None:
        return None
    bound = 2 * abs(lead * g[0])

    def lifted(r):
        q = p
        while q <= bound:
            q *= q
            r = (r - _eval_dense(g, r) * pow(_eval_dense(dg, r), -1, q)) % q
        c = (lead * r + q // 2) % q - q // 2
        h = math.gcd(c, lead) if lead > 0 else -math.gcd(c, lead)
        a, b = c // h, lead // h
        if sum(ci * a**i * b ** (d - i) for i, ci in enumerate(g)) == 0:
            return a, b
    return itertools.chain(roots, filter(None, map(lifted, fp_roots(g, p))))


def _reference_univariate(f, registry, name, witness=True, **oracle_opts):
    """The ten scheduled F_p tests, then the root route, then the oracle."""
    for p in _prime_schedule(f[-1]):
        if fp_irreducible(f, p):
            return IrredCertificate("irreducible", "mod-p", prime=p)
    roots = _reference_rational_roots(f)
    if root := roots and next(roots, None):
        if not witness:
            return IrredCertificate("reducible", "root")
        factors = (undense([-a, b], registry, name) for a, b in itertools.chain([root], roots))
        return IrredCertificate("reducible", "root", factor=min(factors, key=str))
    if roots is not None and len(f) <= 4:
        return IrredCertificate("irreducible", "root")
    return factorlab._kronecker_certificate(undense(f, registry, name), **oracle_opts)


def _walk_univariate(f, registry, name, witness=True, **oracle_opts):
    """The walk of `univariate_certificate`, called as `_reference_univariate` is."""
    return factorlab._walk(f, registry, name, oracle_opts, tests=True, witness=witness)


def _reference_irreducible_q(P, univariate=_reference_univariate, **oracle_opts):
    """`is_irreducible_q` with `univariate` for its univariate verdicts and `content_q` first.

    With `_walk_univariate` it is the route as it stood before the content
    was proven from the evaluation route's coefficient rows.
    """
    pp = factorlab._normalize_sign(P.primitive_part())
    names = pp.variables()
    if len(names) == 1:
        return univariate(dense(pp, names[0]), pp.registry, names[0], **oracle_opts)
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
            inner = univariate(f, pp.registry, main, witness=False, **oracle_opts)
        except BudgetError:
            continue
        if inner.irreducible:
            return IrredCertificate("irreducible", "evaluation", prime=inner.prime,
                                    point=dict(zip(others, point)),
                                    detail=f"image method {inner.method}")
    return factorlab._kronecker_certificate(pp, **oracle_opts)


def _outcome_of(call):
    try:
        return call()
    except BudgetError as exc:
        return str(exc)


_PRIMORIAL = math.prod(primes_upto(255))


def _dense_poly(draw, degree, lead=None):
    low = draw(st.lists(st.integers(-9, 9), min_size=degree, max_size=degree))
    return low + [lead if lead is not None else draw(st.integers(1, 9))]


@st.composite
def _walk_cases(draw):
    """A primitive dense f of degree 1..10 that stresses the walk's root scans.

    Products with a linear factor b*x - a, |b| > 1, x^k times a cofactor,
    degree 1, leads divisible by 2*3*5*7 (so the schedule starts at 11),
    leads divisible by every prime below 256 (so nothing is scanned), and
    repeated factors.
    """
    kind = draw(st.sampled_from(["linear", "x^k", "degree 1", "lead 210", "lead 256",
                                 "repeated"]))
    if kind == "degree 1":
        f = _dense_poly(draw, 1, draw(st.integers(-40, 40).filter(bool)))
    elif kind == "linear":
        b = draw(st.integers(2, 12)) * draw(st.sampled_from([1, -1]))
        f = mul([draw(st.integers(-9, 9)), b], _dense_poly(draw, draw(st.integers(1, 4))))
    elif kind == "x^k":
        f = [0] * draw(st.integers(1, 3)) + _dense_poly(draw, draw(st.integers(0, 4)))
    elif kind == "lead 210":
        f = _dense_poly(draw, draw(st.integers(2, 5)), 210 * draw(st.integers(1, 3)))
        if draw(st.booleans()):
            f = mul(f, [draw(st.integers(-5, 5)), 1])
    elif kind == "lead 256":
        # x^k, x - 1 or 1 times P*c*x +- 1: the oracle samples the roots 0 and 1 before it
        # lists divisors, so it never factors a value near P
        cofactor = [0] * draw(st.integers(0, 2)) + draw(st.sampled_from([[0, 1], [-1, 1], [1]]))
        f = mul(cofactor, [draw(st.sampled_from([1, -1])), _PRIMORIAL * draw(st.integers(1, 3))])
    else:
        g = _dense_poly(draw, draw(st.integers(1, 2)))
        f = mul(mul(g, g), _dense_poly(draw, draw(st.integers(0, 3))))
    assume(len(f) >= 2 and f[-1])
    c = math.gcd(*f) * (1 if f[-1] > 0 else -1)
    return [a // c for a in f]


def _repeated_factor_and_root(f, cert):
    """True if f has a repeated factor over Q and the linear factor of `cert` divides it."""
    g = gcd(f, [i * c for i, c in enumerate(f)][1:])
    return len(g) > 1 and _dense_exact_div(f, dense(cert.factor, "x")) is not None


@given(_walk_cases())
@settings(max_examples=300, deadline=None)
def test_univariate_walk_matches_the_route_it_replaced(f):
    got = _outcome_of(lambda: univariate_certificate(f, X, "x", combo_budget=200))
    want = _outcome_of(lambda: _reference_univariate(f, X, "x", combo_budget=200))
    assert got == _outcome_of(lambda: is_irreducible_q(undense(f, X, "x"), combo_budget=200))
    if got != want:
        # no prime below 256 leaves such an f squarefree, so the oracle used to decide it
        assert want == "kronecker oracle exceeded 200 interpolation candidates" or (
            want.method, want.verdict) == ("kronecker", "reducible")
        assert (got.method, got.verdict) == ("root", "reducible")
        assert _repeated_factor_and_root(f, got)
        assert isinstance(want, str) or got.factor == want.factor


@st.composite
def _bivariate_walk_cases(draw):
    """g * (b*x + a*y + c) with b >= 2, g^2, or a polynomial linear in x (degree-1 images)."""
    reg = ("x", "y")
    small = st.integers(-4, 4)
    kind = draw(st.sampled_from(["linear factor", "repeated", "degree 1"]))
    if kind == "degree 1":
        P = parse_poly(f"({draw(small)}*y + {draw(small)})*x + {draw(small)}*y + "
                       f"{draw(small)}", reg)
    else:
        g = parse_poly(f"{draw(st.integers(1, 4))}*x^{draw(st.integers(1, 3))} + "
                       f"{draw(small)}*x*y + {draw(small)}*y^2 + {draw(small)}", reg)
        if kind == "linear factor":
            h = parse_poly(f"{draw(st.integers(2, 6))}*x + {draw(small)}*y + {draw(small)}",
                           reg)
        else:
            h = g
        P = g * h
    assume(len(P.variables()) == 2)
    return P


@given(_bivariate_walk_cases())
@settings(max_examples=100, deadline=None)
def test_evaluation_walk_matches_the_route_it_replaced(P):
    got = _outcome_of(lambda: is_irreducible_q(P, combo_budget=200))
    assert got == _outcome_of(lambda: _reference_irreducible_q(P, combo_budget=200))


def _row_content(P, main):
    """(`factorlab._row_content` of P's rows, whether it called the integer gcd)."""
    others = [n for n in P.variables() if n != main]
    monos = {}
    rows = coefficient_rows(P, others, main, monos)
    calls, gcd_z = [], factorlab.gcd
    factorlab.gcd = lambda *a: calls.append(a) or gcd_z(*a)
    try:
        return factorlab._row_content(rows, monos), bool(calls)
    finally:
        factorlab.gcd = gcd_z


def _rows_prove_a_unit(P, main):
    """True if a nonzero constant row or the F_p fold of P's rows proves its content a unit."""
    content, exact = _row_content(P, main)
    return content == [1] and not exact


@st.composite
def _row_content_case(draw):
    """(P, main) in 2 or 3 names with coefficients up to 10^30: c * g * h, g free of main.

    g is 1 or a polynomial in the other names (a common factor of the rows);
    h may have rows (coefficients of powers of main) that are zero, and one
    that is a nonzero constant.
    """
    names = GCD_REG[: draw(st.integers(2, 3))]
    main = draw(st.sampled_from(names))
    rest = [n for n in names if n != main]
    coeff = st.one_of(st.integers(-4, 4), st.integers(-10**30, 10**30)).filter(bool)
    i = GCD_REG.index(main)

    def poly(vars_, max_terms):
        expo = st.tuples(*[st.integers(0, 3 if n == main else 2) for n in GCD_REG])
        expo = expo.map(lambda e: tuple(a if n in vars_ else 0 for a, n in zip(e, GCD_REG)))
        return draw(st.dictionaries(expo, coeff, min_size=1, max_size=max_terms))

    terms = poly(names, 8)
    dropped = draw(st.sets(st.integers(0, 3), max_size=2))  # zero rows
    terms = {e: c for e, c in terms.items() if e[i] not in dropped}
    if draw(st.booleans()):  # a nonzero constant row
        k = draw(st.integers(0, 3))
        terms = {e: c for e, c in terms.items() if e[i] != k}
        terms[tuple(k if j == i else 0 for j in range(len(GCD_REG)))] = draw(coeff)
    g = MPoly(GCD_REG, poly(rest, 3)) if draw(st.booleans()) else 1
    P = draw(coeff) * g * MPoly(GCD_REG, terms)
    assume(main in P.variables() and len(P.variables()) > 1)
    return P, main


@settings(max_examples=300, deadline=None)
@given(_row_content_case())
def test_the_row_content_proof_claims_only_unit_contents(case):
    P, main = case
    pp = P.primitive_part()
    if _rows_prove_a_unit(pp, main):
        assert content_q(pp, (main,)).is_constant()


@settings(max_examples=200, deadline=None)
@given(_row_content_case())
def test_the_row_content_matches_sympy(case):
    # with one other variable the rows give the content in main: primitive, positive lead
    sympy = pytest.importorskip("sympy")
    P, main = case
    pp = P.primitive_part()
    content, _ = _row_content(pp, main)
    others = [n for n in pp.variables() if n != main]
    if len(others) > 1:
        assert content in ([1], None)  # a constant row, else inconclusive
        return
    other, = others
    y = sympy.Symbol(other)
    coeffs = [sympy.Poly(dense(c, other)[::-1], y) for c in pp.coefficients((main,)).values()]
    # one coefficient is the content as it is
    want = coeffs[0] if len(coeffs) == 1 else functools.reduce(sympy.gcd, coeffs).primitive()[1]
    assert content == [int(c) for c in want.all_coeffs()[::-1]]


@pytest.mark.parametrize("expr, proven", [
    ("(y + 1)*x^2 + 3*x + y", True),  # the row of x is a nonzero constant
    ("(y^2 + 1)*x^2 + (y^2 - 1)*x + y*(y + 1)", True),  # a constant gcd mod 10007
    ("(y + 1)*x^2 + (y^2 - 1)*x + 3*y + 3", False),  # the content y + 1
    ("(10007*y + 1)*x + y", False),  # a lead vanishes mod 10007: content_q decides
    ("(y + z)*x^2 + (y - z)*x + y*z + 1", False),  # three names and no constant row
    ("(y + z)*x^2 + 5*x + y*z + 1", True),
])
def test_the_row_content_proof_on_examples(expr, proven):
    P = parse_poly(expr, GCD_REG)
    assert _rows_prove_a_unit(P, "x") is proven
    assert content_q(P, ("x",)).is_constant() or not proven


@settings(max_examples=150, deadline=None)
@given(_row_content_case())
def test_is_irreducible_q_keeps_the_certificates_of_content_q_first(case):
    P, _ = case
    got = _outcome_of(lambda: is_irreducible_q(P, combo_budget=100))
    assert got == _outcome_of(lambda: _reference_irreducible_q(
        P, univariate=_walk_univariate, combo_budget=100))


def test_a_proven_unit_content_calls_no_content_q(monkeypatch):
    calls = []
    monkeypatch.setattr(factorlab, "content_q", lambda *a: calls.append(a) or content_q(*a))
    cert = is_irreducible_q(parse_poly("x^3 + y*x + y^2 + 1", GCD_REG))
    assert (cert.method, cert.point, calls) == ("evaluation", {"y": -1}, [])
    P = parse_poly("(y + 1)*x^3 + (y + 1)*x + y^2 - 1", GCD_REG)
    cert = is_irreducible_q(P)
    assert (cert.verdict, cert.factor) == ("reducible", parse_poly("y + 1", GCD_REG))
    assert calls == []  # the integer gcd of the rows as lists in y
    P = parse_poly("(y + z)*x^3 + (y + z)*x + y^2 - z^2", GCD_REG)
    cert = is_irreducible_q(P)
    assert (cert.verdict, cert.factor) == ("reducible", parse_poly("y + z", GCD_REG))
    assert calls[0] == (P, ("x",))  # three names: the exact content, which recurses through gcd_q


def test_a_repeated_factor_with_a_rational_root_is_now_decided_by_its_roots():
    # seed-5 irred op 16.7: x * (x - 1) * (2x^2 + 2x + 1)^2 * (3x^3 + 3x^2 + 3x + 4); no
    # prime below 256 leaves it squarefree, but mod 7 its roots are all simple
    f = dense(U("12*x^9 + 24*x^8 + 24*x^7 + 16*x^6 - 5*x^5 - 24*x^4 - 28*x^3 - 15*x^2 - 4*x"),
              "x")
    want = _reference_univariate(f, X, "x", combo_budget=100)
    got = univariate_certificate(f, X, "x", combo_budget=100)
    assert (want.method, want.factor) == ("kronecker", U("x"))
    assert (got.method, got.verdict, got.factor) == ("root", "reducible", U("x"))


def _counted(monkeypatch, names, modules=(factorlab,)):
    """The prime of each call of the functions `names` of `modules`, in call order."""
    calls = []
    for module, name in itertools.product(modules, names):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real: calls.append(a[-1]) or real(*a))
    return calls


def _walk_counts(monkeypatch):
    """The primes of the walk's root scans, of its F_p tests and of its lifts."""
    return (_counted(monkeypatch, ["fp_roots"], (factorlab, upoly)),
            _counted(monkeypatch, ["fp_irreducible", "fp_distinct_degree"]),
            _counted(monkeypatch, ["_lift"]))


def test_a_known_rational_root_ends_the_f_p_tests_at_each_point(monkeypatch):
    # every image (x + c)*(x^2 + c^2 + 1) is (x + c)*(x + c + 1)^2 mod 2, with a
    # double root, so nothing lifts at 2: no scheduled prime is tested, and each is
    # scanned once, up to one at which the image's roots are all simple and -c lifts
    scans, tests, lifts = _walk_counts(monkeypatch)
    cert = is_irreducible_q(parse_poly("(x + y)*(x^2 + y^2 + 1)", ("x", "y")))
    assert (cert.method, cert.factor) == ("kronecker", parse_poly("x + y", ("x", "y")))
    assert tests == []
    assert (scans.count(2), len(scans)) == (EVAL_POINT_TRIES, 117)
    assert 2 not in lifts


@pytest.mark.parametrize("expr, reg, tests, method, factor", [
    ("x^2 + x + 1", X, ([2], [], []), "mod-p", None),  # no root mod 2 at degree 2
    ("x*y + x + 1", ("x", "y"), ([], [], []), "evaluation", None),  # x + 1 at y = 0
    ("(2*x - 3)*(x^2 + 1)", X, ([3], [], [3]), "root", "2*x - 3"),
    ("x^4 + x + 1", X, ([2], [2], []), "mod-p", None),  # the scan's own prime is tested once
    # mod 2 and mod 3 a root is double; 5 settles the roots, and only there do they lift
    ("(x + 1)*(x^2 + 2)", X, ([2, 3, 5], [], [5]), "root", "x + 1"),
])
def test_first_prime_decisions(monkeypatch, expr, reg, tests, method, factor):
    # tests: the primes of the root scans, of the F_p tests and of the lifts
    counts = _walk_counts(monkeypatch)
    cert = is_irreducible_q(parse_poly(expr, reg))
    assert (counts, cert.method) == (tests, method)
    assert cert.factor == (factor and U(factor))
    if method == "evaluation":
        assert (cert.point, cert.detail, cert.prime) == ({"y": 0}, "image method mod-p", 2)


def test_degree_1_takes_the_first_scheduled_prime_on_every_route():
    want = IrredCertificate("irreducible", "mod-p", prime=3)  # 2 divides the lead
    for route in (univariate_certificate, root_verdict):
        assert route([3, 2], X, "x") == want
    assert factorlab._walk([3, 2], X, "x", {}, tests=False, witness=True) == want
    assert root_verdict([0, 1], X, "x").prime == 2


def test_a_lead_divisible_by_every_prime_below_256_runs_unscanned(monkeypatch):
    # the root 1 of (x - 1)*(P*x + 1) is a root mod each scheduled prime, all above 256,
    # and no scan has excluded it: the distinct-degree test must find it
    scans, tests, lifts = _walk_counts(monkeypatch)
    cert = univariate_certificate(mul([-1, 1], [1, _PRIMORIAL]), X, "x")
    assert (cert.verdict, cert.method) == ("reducible", "kronecker")
    assert tests == list(itertools.islice(_prime_schedule(_PRIMORIAL), MODP_TRIES))
    assert tests[0] == 257 and (scans, lifts) == ([], [])


def test_a_rational_root_of_an_unsettled_scan_skips_the_f_p_tests(monkeypatch):
    # mod 2, (x - 1)*(L*x^2 + 2*x + 2) is x^2*(x + 1): 0 is double, so 2 settles nothing,
    # and every later scheduled prime is above 256; the simple root 1 lifts to a rational
    # root, so no F_p test can succeed, and the walk ends in the oracle as before
    f = mul([-1, 1], [2, 2, math.prod(primes_upto(255)[1:])])
    with pytest.raises(BudgetError) as oracle:
        kronecker_factor(undense(f, X, "x"))
    scans, tests, lifts = _walk_counts(monkeypatch)
    with pytest.raises(BudgetError) as walk:
        univariate_certificate(f, X, "x")
    assert str(walk.value) == str(oracle.value)
    assert (scans, tests, lifts) == ([2], [], [2])


@st.composite
def _screened_cases(draw):
    """A primitive dense f of degree 5..12: any, a product of two factors, or g^2 * h (D = 0)."""
    n = draw(st.integers(5, 12))
    kind = draw(st.sampled_from(["any", "product", "square"]))
    if kind == "any":
        f = _dense_poly(draw, n, draw(st.integers(-12, 12).filter(bool)))
    elif kind == "product":
        k = draw(st.integers(1, n - 1))
        f = mul(_dense_poly(draw, k), _dense_poly(draw, n - k))
    else:
        g = _dense_poly(draw, draw(st.integers(1, 2)))
        f = mul(mul(g, g), _dense_poly(draw, n - 2 * (len(g) - 1)))
    c = math.gcd(*f) * (1 if f[-1] > 0 else -1)
    return [a // c for a in f]


@given(_screened_cases())
@settings(max_examples=150, deadline=None)
def test_the_parity_screen_keeps_every_certificate(f):
    # the walk that runs every F_p test is the reference: a screened-out prime never certifies
    got = _outcome_of(lambda: univariate_certificate(f, X, "x", combo_budget=200))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factorlab, "_PARITY_DEGREES", range(0))
        want = _outcome_of(lambda: univariate_certificate(f, X, "x", combo_budget=200))
    assert got == want


@pytest.mark.parametrize("expr, tests, factor", [
    # (x^2 + 1)(x^3 + x + 1): after the first test, only 11 and 23 of 7..29 pass the rule
    ("x^5 + 2*x^3 + x^2 + x + 1", [5, 11, 23], "x^2 + 1"),
    # (x^4 + 1)(x^4 + 4x^2 + 1) has a square D, and n = 8 asks for a non-square: no p passes
    ("x^8 + 4*x^6 + 2*x^4 + 4*x^2 + 1", [5], "x^4 + 1"),
])
def test_the_parity_screen_skips_the_f_p_tests_that_cannot_certify(monkeypatch, expr, tests,
                                                                   factor):
    discs = _counted(monkeypatch, ["discriminant"])
    counts = _walk_counts(monkeypatch)
    cert = is_irreducible_q(U(expr))
    assert (counts[1], len(discs)) == (tests, 1)
    assert (cert.method, cert.verdict, cert.factor) == ("kronecker", "reducible", U(factor))


def test_the_parity_screen_computes_no_discriminant_it_cannot_use(monkeypatch):
    # x^5 + x^2 + 1 is certified by its first F_p test; x^16 + 1, past MAX_TOTAL_DEGREE,
    # runs its tests unscreened, where one dense D can cost more than all of them
    discs = _counted(monkeypatch, ["discriminant"])
    _, tests, _ = _walk_counts(monkeypatch)
    assert univariate_certificate(dense(U("x^5 + x^2 + 1"), "x"), X, "x").prime == 2
    assert (tests, discs) == ([2], [])
    with pytest.raises(BudgetError, match="total degree 16"):
        univariate_certificate(dense(U("x^16 + 1"), "x"), X, "x")
    assert (tests[1:], discs) == (list(itertools.islice(_prime_schedule(1), 1, MODP_TRIES)), [])


# -- primitivity ------------------------------------------------------


def test_primitivity_wrt_params():
    split = VarSplit(("T",), ("Y",))
    assert is_primitive_wrt(P("T*Y + 2"), split)
    assert not is_primitive_wrt(P("T*Y + T"), split)  # common factor T


# -- exact division over Z --------------------------------------------

DIV_REG = ("x", "y", "z")


def _fraction_exact_div(f, g):
    """exact_div as it was with Fraction arithmetic, the reference."""
    gterms = sorted(g.terms.items(), reverse=True)
    glead_e, glead_c = gterms[0]
    rem = {e: Fraction(c) for e, c in f.terms.items()}
    quot = {}
    while rem:
        e = max(rem)
        qe = tuple(a - b for a, b in zip(e, glead_e))
        if any(x < 0 for x in qe):
            return None
        qc = rem[e] / glead_c
        quot[qe] = qc
        for ge, gc_ in gterms:
            re = tuple(a + b for a, b in zip(qe, ge))
            nv = rem.get(re, Fraction(0)) - qc * gc_
            if nv:
                rem[re] = nv
            else:
                rem.pop(re, None)
    if any(c.denominator != 1 for c in quot.values()):
        return None
    return MPoly(f.registry, {e: int(c) for e, c in quot.items()})


_div_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), st.integers(-6, 6),
                             max_size=5).map(lambda t: MPoly(DIV_REG, t))


@settings(max_examples=300, deadline=None)
@given(_div_polys, _div_polys.filter(lambda g: not g.is_zero()), _div_polys,
       st.sampled_from(("any", "multiple", "near")))
def test_exact_div_matches_fraction_reference(f, g, noise, kind):
    # a third of the dividends are multiples of g, a third multiples plus noise
    if kind != "any":
        f = f * g
    if kind == "near":
        f = f + noise
    got = exact_div(f, g)
    assert got == _fraction_exact_div(f, g)
    if got is not None:
        assert got * g == f


def test_no_src_module_imports_fractions():
    # gcds and Bezout constants over Q are computed over Z (upoly.gcd, upoly.xgcd)
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "schinzel"
    importers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "fractions" or (
                    isinstance(node, ast.Import)
                    and any(a.name == "fractions" for a in node.names)):
                importers.add(path.stem)
    assert importers == set()


@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=8),
    st.integers(-12, 12).filter(bool),
)
@settings(max_examples=150, deadline=None)
def test_univariate_certificate_matches_is_irreducible_q(low, lead):
    f = low + [lead]
    c = math.gcd(*f)
    f = [a // c for a in f]

    def verdict(call):
        try:
            return call()
        except BudgetError as exc:
            return str(exc)

    got = verdict(lambda: univariate_certificate(f, X, "x", combo_budget=500))
    assert got == verdict(lambda: is_irreducible_q(undense(f, X, "x"), combo_budget=500))


def test_no_module_imports_private_factorlab_names():
    # the univariate verdict path stays behind factorlab's public functions
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "schinzel"
    leaks = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if module == "factorlab" and node.level == 1 or module == "schinzel.factorlab":
                leaks += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
    assert leaks == []


def test_kronecker_variable_budget():
    reg = ("w", "x", "y", "z")
    with pytest.raises(BudgetError, match="^4 variables exceeds the 3-variable budget$"):
        kronecker_factor(parse_poly("w*x*y*z + 1", reg))
