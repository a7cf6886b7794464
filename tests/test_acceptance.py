"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line so the suite
doubles as a checklist when run with `pytest -s`.
"""

import math
import random
import time

import pytest

from schinzel.coprime import check_copsch_local, coprime_search
from schinzel.factorlab import is_irreducible_q, kronecker_factor
from schinzel.fixdiv import fixed_prime_divisors
from schinzel.hilbert import specialization_check
from schinzel.polyring import MPoly, PolyError, VarSplit, parse_poly, reduce_mod
from schinzel.polyschinzel import (
    SchinzelRefusal,
    sharpness_counterexample,
    solve_polynomial_schinzel,
    strong_pipeline,
)
from schinzel.schinzelcore import HypothesisError, nonvanishing_point
from schinzel.cli import run

REG = ("T", "Y")
SPLIT = VarSplit(("T",), ("Y",))


def P(expr, reg=REG):
    return parse_poly(expr, reg)


def report(n, ok, note):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {note}")
    assert ok, f"criterion {n}: {note}"


def test_criterion_1_fixed_divisor_example():
    start = time.monotonic()
    q = P("(T^2-T)*Y + T^2 - T - 2")
    rep = fixed_prime_divisors(q, SPLIT)
    hits = sum(
        1 for t in range(-50, 51) if q.substitute({"T": t}).content() % 2 == 0
    )
    elapsed = time.monotonic() - start
    ok = rep.candidates == (2,) and rep.confirmed == (2,) and hits == 101 and elapsed < 1
    report(1, ok, f"candidates={rep.candidates} confirmed={rep.confirmed} "
                  f"divisible {hits}/101 in {elapsed:.2f}s")


def test_criterion_2_sharpness():
    start = time.monotonic()
    rng_ok = True
    notes = []
    for d in (0, 1):
        b = sharpness_counterexample(d, samples=1)
        deg_ok = b.P.degree_in("T") == 2 ** (d + 1)
        # cross-check the certificate with the Kronecker oracle on the
        # univariate image it names
        cert = b.certificate
        image = b.P.substitute(cert.point or {}) if cert.point else b.P
        used = image.variables()
        fact = kronecker_factor(image)
        oracle_ok = len(fact.factors) == 1 and fact.factors[0][1] == 1
        failures = 0
        rng = random.Random(100 + d)
        for _ in range(1000):
            coeffs = [rng.randint(-20, 20) for _ in range(d)]
            lead = 0
            while lead == 0:
                lead = rng.randint(-20, 20)
            coeffs.append(lead)
            M = MPoly(REG, {(0, j): c for j, c in enumerate(coeffs) if c})
            comp = b.P.substitute({"T": M})
            if comp.content() % 2:
                failures += 1
        rng_ok = rng_ok and deg_ok and oracle_ok and failures == 0
        notes.append(f"d={d}: deg_T={b.P.degree_in('T')} oracle={oracle_ok} "
                     f"failures={failures}/1000")
    elapsed = time.monotonic() - start
    ok = rng_ok and elapsed < 30
    report(2, ok, "; ".join(notes) + f" in {elapsed:.1f}s")


def test_criterion_3_pipeline_desk_run():
    start = time.monotonic()
    P1, P2 = parse_poly("T^2+1", ("T",)), parse_poly("T^2+T+1", ("T",))
    plan = strong_pipeline([P1, P2], ("Y",), (1,))
    pi_theta = P1.evaluate({"T": plan.base}) * P2.evaluate({"T": plan.base})
    comps = []
    for Q in (P1, P2):
        comps.append(Q.rename(REG).substitute(
            {"T": plan.Ms[0].rename(REG)}).rename(("Y",)))
    irr = all(is_irreducible_q(c).irreducible and c.content() == 1 for c in comps)
    product = comps[0] * comps[1]
    fix = fixed_prime_divisors(product, ("Y",))
    elapsed = time.monotonic() - start
    ok = (
        plan.bad_primes == (2, 3)
        and math.gcd(pi_theta, 6) == 1
        and plan.omega == 6
        and irr
        and fix.confirmed == ()
        and all(p <= 4 for p in fix.candidates)
        and elapsed < 5
    )
    report(3, ok, f"S={plan.bad_primes} Pi(theta)={pi_theta} omega={plan.omega} "
                  f"M={plan.Ms[0]} fixY={fix.confirmed} in {elapsed:.2f}s")


def test_criterion_4_hilbert_exactness():
    start = time.monotonic()
    q = P("Y^2 - T")
    counts = {}
    for N in (10**2, 10**4):
        non = sum(
            1
            for t in range(0, N + 1)
            if not specialization_check([q], SPLIT, (t,)).member
        )
        counts[N] = non
    elapsed = time.monotonic() - start
    ok = counts[10**2] == 11 and counts[10**4] == 101 and elapsed < 60
    report(4, ok, f"non-members {counts[10**2]}/exp 11 at N=1e2, "
                  f"{counts[10**4]}/exp 101 at N=1e4 in {elapsed:.1f}s")


def test_criterion_5_crt_nonvanishing():
    rng = random.Random(5)
    primes = [2, 3, 5, 7, 11, 13]
    passes = trials = 0
    while trials < 1000:
        k = rng.randint(1, 2)
        params = tuple(f"T{i+1}" for i in range(k))
        reg = params + ("Y",)
        split = VarSplit(params, ("Y",))
        terms = {}
        for _ in range(rng.randint(2, 4)):
            expo = tuple(rng.randint(0, 2) for _ in reg)
            c = rng.randint(-6, 6)
            if c:
                terms[expo] = terms.get(expo, 0) + c
        q = MPoly(reg, {e: c for e, c in terms.items() if c})
        if q.is_zero():
            continue
        S = sorted(rng.sample(primes, rng.randint(1, 3)))
        try:
            v = nonvanishing_point(q, split, S)
        except HypothesisError:
            continue  # fixed prime in S: outside the criterion's scope
        trials += 1
        spec = q.substitute(dict(zip(params, v)))
        if all(not reduce_mod(spec, p).is_zero() for p in S):
            passes += 1
    report(5, passes == 1000, f"{passes}/1000 CRT points nonvanishing")


def test_criterion_6_oracle_agreement():
    rng = random.Random(6)
    X = ("x",)
    agree = 0
    for _ in range(500):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-50, 50) for _ in range(deg)]
        lead = 0
        while lead == 0:
            lead = rng.randint(-50, 50)
        coeffs.append(lead)
        f = MPoly(X, {(j,): c for j, c in enumerate(coeffs) if c})
        cert = is_irreducible_q(f)
        fact = kronecker_factor(f)
        oracle = len(fact.factors) == 1 and fact.factors[0][1] == 1
        if cert.irreducible == oracle:
            agree += 1
    report(6, agree == 500, f"{agree}/500 certificates agree with the oracle")


def test_criterion_7_gauss_and_homomorphism():
    rng = random.Random(7)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            expo = (rng.randint(0, 3), rng.randint(0, 3))
            c = rng.randint(-9, 9)
            if c:
                terms[expo] = terms.get(expo, 0) + c
        q = MPoly(REG, {e: c for e, c in terms.items() if c})
        return q if not q.is_zero() else MPoly.const(REG, rng.randint(1, 9))

    gauss = 0
    for _ in range(10**4):
        f, g = rand_poly(), rand_poly()
        pf, pg = f.primitive_part(), g.primitive_part()
        if (pf * pg).content() == 1 and (f * g).content() == f.content() * g.content():
            gauss += 1
    homo = 0
    for _ in range(10**4):
        f, g = rand_poly(), rand_poly()
        bind = {"T": rand_poly()}
        if (f * g).substitute(bind) == f.substitute(bind) * g.substitute(bind):
            homo += 1
    report(7, gauss == 10**4 and homo == 10**4,
           f"Gauss {gauss}/10000, substitution homomorphism {homo}/10000")


def test_criterion_8_coprime_search():
    rng = random.Random(8)
    found = trials = 0
    while trials < 100:
        k = rng.randint(1, 2)
        reg = tuple(f"T{i+1}" for i in range(k))

        def rand_q():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                expo = tuple(rng.randint(0, 3 // k if k == 2 else 3)
                             for _ in reg)
                c = rng.randint(-5, 5)
                if c:
                    terms[expo] = terms.get(expo, 0) + c
            q = MPoly(reg, {e: c for e, c in terms.items() if c})
            return q

        q1, q2 = rand_q(), rand_q()
        if q1.is_zero() or q2.is_zero() or q1.is_constant() or q2.is_constant():
            continue
        try:
            local = check_copsch_local([q1, q2])
        except PolyError:
            continue  # not coprime over Q
        if not local.verdict:
            continue
        trials += 1
        try:
            rep = coprime_search([q1, q2])
        except Exception:
            continue
        if math.gcd(*rep.values) == 1:
            found += 1
    report(8, found == 100, f"{found}/100 coprime points found within the budget")


def test_criterion_9_negative_inputs(capsys):
    code_strong = run(["strong", "--poly", "T^2 - T + 2",
                       "--params", "T", "--vars", "Y", "--d", "1"])
    out_strong = capsys.readouterr().out
    strong_ok = code_strong == 1 and "2" in out_strong and "NoFixDiv" in out_strong

    with pytest.raises(SchinzelRefusal) as exc:
        solve_polynomial_schinzel([P("T^2 - T + 2")], SPLIT, ((0,),))
    err = exc.value
    schinzel_ok = (
        err.condition == "(b)"
        and "(b)" in err.conditions.failed()
        and err.generic_report.confirmed == (2,)
        and "fixed prime 2" in err.detail
    )
    report(9, strong_ok and schinzel_ok,
           f"strong exit={code_strong} names prime 2; "
           f"schinzel condition={err.condition} generic primes="
           f"{err.generic_report.confirmed}")
