"""Seeded input generators for the four benchmark workloads.

Pure standard library: nothing here imports `schinzel`, so the worker, the
checker and the tests all see the same inputs for the same seed.

A workload is an endless sequence of *rounds*.  Each round has a fixed
schedule of op kinds and sizes (its strata); the seed picks only the
coefficients.  A run executes whole rounds, so every run carries the same
mix of work whatever its seed, and the seed varies what the library sees.

Polynomials are handed over as text in the library's own syntax
(`3*x^2*y - 5`); the worker parses them outside the timed region.
"""

import random

WORKLOADS = ("irred", "residues", "hilbert", "cli")

# Oracle budget per irreducibility verdict (the public `combo_budget` keyword).
IRRED_COMBO_BUDGET = 100

# Generator parameters, recorded beside every result.
PARAMS = {
    "irred": {
        "round": "12 univariate + 8 bivariate verdicts, 6 of 20 built as products",
        "univariate_degrees": [2, 3, 4, 5, 6, 7, 8, 9, 10, 6, 8, 10],
        "univariate_product_slots": [3, 5, 7, 11],
        "bivariate_shapes": [[1, 1], [2, 1], [2, 2], [3, 2], [3, 3], [4, 2], [4, 3], [2, 3]],
        "bivariate_product_slots": [1, 2],
        "coeff_bound": 20,
        "factor_coeff_bound": 4,
        "combo_budget": IRRED_COMBO_BUDGET,
    },
    "residues": {
        "round": "fixdiv x5, nonvanishing x3, generic x2, copsch x2, progression x2",
        "fixdiv_k_delta_forced": [[1, 11, 11], [2, 9, 7], [3, 7, 7], [3, 11, None], [2, 7, 5]],
        "nonvanishing_k_delta_forced": [[2, 7, 3], [3, 7, None], [2, 11, None]],
        "nonvanishing_primes": "primes <= delta, plus 13 when k <= 2",
        "generic_delta_d": [[5, 1], [4, 2]],
        "copsch_and_progression_param_degree": 3,
        "coeff_bound": 9,
    },
    "hilbert": {
        "round": "density boxes x6, hilbert_search streams x3",
        # two lin boxes put the median op inside the lin cluster, not in the gap above it
        "density": [["sq", 120], ["cube", 120], ["lin", 100], ["pair", 80], ["sq2", 6],
                    ["lin", 100]],
        "search": [["sq", 10], ["cube", 10], ["sq2", 6]],
        "families": "Y^2-(aT+b), Y^3-(aT+b), (aT+b)Y+(cT+d), pair of squares, Y^2-(aT1+bT2+c)",
    },
    "cli": {
        "round": "10 README jobs, 5 baseline jobs, 90 seeded jobs",
        "seeded": ["fixdiv", "coprime", "strong", "schinzel", "progression"] * 18,
    },
}

WHY = {
    "irred": "factorlab decider and numutil.divisors do the work; the Kronecker fallback "
             "(combo_budget 100) gives the heavy tail and budget exhaustion that "
             "Musser/Zassenhaus must move",
    "residues": "p^k residue enumeration (polyring.substitute+reduce_mod) does the work, "
                "factorlab idle. Known defect kept out: copsch/progression at param "
                "degree 7 run >5 s in gcd_q/bezout_constant",
    "hilbert": "thousands of tiny specialization_check calls: per-call overhead of "
               "factorlab and polyring on small inputs dominates; the lean-MPoly item "
               "shows here",
    "cli": "only workload with CLI parse/render and polyschinzel composition (substitute "
           "with polynomial bindings); README jobs plus the ROADMAP baseline jobs",
}


# -- sparse integer polynomials as {exponent tuple: coefficient} ---------


def render(terms, names):
    """Text in the library's syntax, graded by total degree, highest first."""
    items = sorted(((e, c) for e, c in terms.items() if c),
                   key=lambda ec: (-sum(ec[0]), tuple(-x for x in ec[0])))
    if not items:
        return "0"
    out = ""
    for expo, coeff in items:
        factors = []
        for name, e in zip(names, expo):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not out:
            out = ("-" if coeff < 0 else "") + body
        else:
            out += (" - " if coeff < 0 else " + ") + body
    return out


def mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _nz(rng, bound):
    c = 0
    while c == 0:
        c = rng.randint(-bound, bound)
    return c


def _dense_shape(rng, degs, bound, density=0.6):
    """Random polynomial whose degree in variable i is exactly degs[i]."""
    n = len(degs)
    terms = {}

    def grid(i):
        if i == n:
            yield ()
            return
        for e in range(degs[i] + 1):
            for rest in grid(i + 1):
                yield (e,) + rest

    for expo in grid(0):
        if rng.random() < density:
            terms[expo] = rng.randint(-bound, bound)
    for i, d in enumerate(degs):
        if d:
            expo = tuple(d if j == i else rng.randint(0, degs[j]) for j in range(n))
            terms[expo] = _nz(rng, bound)
    return {e: c for e, c in terms.items() if c}


def _univar(rng, deg, bound):
    terms = {(i,): rng.randint(-bound, bound) for i in range(deg)}
    terms[(deg,)] = _nz(rng, bound)
    return {e: c for e, c in terms.items() if c}


def _rng(workload, seed, r):
    return random.Random(f"{workload}:{seed}:{r}")


# -- irred --------------------------------------------------------------


def irred_round(seed, r):
    p = PARAMS["irred"]
    rng = _rng("irred", seed, r)
    ops = []
    for slot, deg in enumerate(p["univariate_degrees"]):
        if slot in p["univariate_product_slots"]:
            a = rng.randint(1, deg - 1)
            f = mul(_univar(rng, a, p["factor_coeff_bound"]),
                    _univar(rng, deg - a, p["factor_coeff_bound"]))
        else:
            f = _univar(rng, deg, p["coeff_bound"])
        ops.append({"kind": "irred", "names": ["x"], "poly": render(f, ("x",)),
                    "product": slot in p["univariate_product_slots"]})
    for slot, (dx, dy) in enumerate(p["bivariate_shapes"]):
        product = slot in p["bivariate_product_slots"]
        if product:
            splits = [(ax, ay) for ax in range(dx + 1) for ay in range(dy + 1)
                      if (ax, ay) not in ((0, 0), (dx, dy))]
            ax, ay = rng.choice(splits)
            f = mul(_dense_shape(rng, (ax, ay), p["factor_coeff_bound"]),
                    _dense_shape(rng, (dx - ax, dy - ay), p["factor_coeff_bound"]))
        else:
            f = _dense_shape(rng, (dx, dy), p["coeff_bound"])
        ops.append({"kind": "irred", "names": ["x", "y"], "poly": render(f, ("x", "y")),
                    "product": product})
    for op in ops:
        op["combo_budget"] = p["combo_budget"]
    return ops


# -- residues -------------------------------------------------------------


def _params(k):
    return [f"T{i + 1}" for i in range(k)]


def _residue_poly(rng, k, delta, bound, force_prime=None):
    """P(T1..Tk, Y) of Y-degree <= 2 and degree delta in T1.

    With force_prime p, P = (T1^p - T1)*A + p*B, so p divides every value.
    """
    names = tuple(_params(k)) + ("Y",)
    n = k + 1
    if force_prime is None:
        terms = {}
        for _ in range(3 + 2 * k):
            expo = tuple(rng.randint(0, delta) for _ in range(k)) + (rng.randint(0, 2),)
            terms[expo] = terms.get(expo, 0) + rng.randint(-bound, bound)
        terms[(delta,) + (0,) * (k - 1) + (rng.randint(0, 2),)] = _nz(rng, bound)
        terms[(0,) * k + (1,)] = _nz(rng, bound)
        return names, {e: c for e, c in terms.items() if c}
    p = force_prime
    lift = {(p,) + (0,) * (n - 1): 1, (1,) + (0,) * (n - 1): -1}
    a_deg = max(delta - p, 0)
    A = {}
    for _ in range(2 + k):
        expo = (rng.randint(0, a_deg),) + tuple(rng.randint(0, 2) for _ in range(k - 1)) \
            + (rng.randint(0, 2),)
        A[expo] = A.get(expo, 0) + _nz(rng, bound)
    A[(a_deg,) + (0,) * (k - 1) + (1,)] = _nz(rng, bound)
    B = {}
    for _ in range(2 + k):
        expo = tuple(rng.randint(0, min(delta, 3)) for _ in range(k)) + (rng.randint(0, 2),)
        B[expo] = B.get(expo, 0) + p * _nz(rng, 3)
    return names, add(mul(lift, {e: c for e, c in A.items() if c}), B)


def _small_params_poly(rng, names, max_deg, bound, terms_range=(1, 3)):
    terms = {}
    for _ in range(rng.randint(*terms_range)):
        expo = tuple(rng.randint(0, max_deg) for _ in names)
        terms[expo] = terms.get(expo, 0) + rng.randint(-bound, bound)
    terms[tuple(max_deg if i == 0 else 0 for i in range(len(names)))] = _nz(rng, bound)
    return {e: c for e, c in terms.items() if c}


def residues_round(seed, r):
    p = PARAMS["residues"]
    rng = _rng("residues", seed, r)
    bound = p["coeff_bound"]
    ops = []
    for k, delta, force in p["fixdiv_k_delta_forced"]:
        names, f = _residue_poly(rng, k, delta, bound, force)
        ops.append({"kind": "fixdiv", "names": list(names), "params": _params(k),
                    "poly": render(f, names)})
    for k, delta, force in p["nonvanishing_k_delta_forced"]:
        names, f = _residue_poly(rng, k, delta, bound, force)
        primes = [q for q in (2, 3, 5, 7, 11) if q <= delta] + ([13] if k <= 2 else [])
        ops.append({"kind": "nonvanishing", "names": list(names), "params": _params(k),
                    "poly": render(f, names), "primes": primes})
    for delta, d in p["generic_delta_d"]:
        names, f = _residue_poly(rng, 1, delta, bound)
        ops.append({"kind": "generic", "names": list(names), "params": ["T1"],
                    "poly": render(f, names), "d": [d]})
    pd = p["copsch_and_progression_param_degree"]
    for k in (1, 2):
        names = tuple(_params(k))
        q1 = _small_params_poly(rng, names, pd if k == 1 else 2, 5)
        # Q2 = Q1*A + c is coprime to Q1 over Q for every nonzero c.
        a = _small_params_poly(rng, names, 0 if k == 1 else 1, 3, (1, 2))
        q2 = add(mul(q1, a), {(0,) * k: _nz(rng, 6)})
        ops.append({"kind": "copsch", "names": list(names),
                    "polys": [render(q1, names), render(q2, names)]})
    for count in (1, 2):
        names = ("T1", "Y")
        polys = []
        for _ in range(count):
            f = {}
            for _ in range(rng.randint(2, 4)):
                e = (rng.randint(0, pd), rng.randint(0, 2))
                f[e] = f.get(e, 0) + rng.randint(-5, 5)
            f[(rng.randint(0, pd), 1)] = _nz(rng, 5)
            f[(pd, rng.randint(0, 1))] = _nz(rng, 5)
            polys.append(render({e: c for e, c in f.items() if c}, names))
        ops.append({"kind": "progression", "names": list(names), "params": ["T1"],
                    "polys": polys})
    return ops


# -- hilbert ----------------------------------------------------------------


def hilbert_family(rng, shape):
    """A family with a closed-form membership rule (see check.hilbert_member)."""
    a, c = _nz(rng, 5), _nz(rng, 5)
    b, d = rng.randint(-20, 20), rng.randint(-20, 20)
    if shape == "sq":
        return {"shape": shape, "coef": [a, b], "params": ["T"],
                "polys": [f"Y^2 - ({a}*T + {b})"]}
    if shape == "cube":
        return {"shape": shape, "coef": [a, b], "params": ["T"],
                "polys": [f"Y^3 - ({a}*T + {b})"]}
    if shape == "lin":
        return {"shape": shape, "coef": [a, b, c, d], "params": ["T"],
                "polys": [f"({a}*T + {b})*Y + ({c}*T + {d})"]}
    if shape == "pair":
        return {"shape": shape, "coef": [a, b, c, d], "params": ["T"],
                "polys": [f"Y^2 - ({a}*T + {b})", f"Y^2 - ({c}*T + {d})"]}
    if shape == "sq2":
        return {"shape": shape, "coef": [a, c, b], "params": ["T1", "T2"],
                "polys": [f"Y^2 - ({a}*T1 + {c}*T2 + {b})"]}
    raise ValueError(shape)


def hilbert_round(seed, r):
    p = PARAMS["hilbert"]
    rng = _rng("hilbert", seed, r)
    ops = []
    for shape, N in p["density"]:
        fam = hilbert_family(rng, shape)
        ops.append(dict(fam, kind="density", N=N, names=fam["params"] + ["Y"]))
    for shape, L in p["search"]:
        fam = hilbert_family(rng, shape)
        ops.append(dict(fam, kind="search", L=L, names=fam["params"] + ["Y"]))
    return ops


# -- cli --------------------------------------------------------------------

README_JOBS = [
    ["fixdiv", "--poly", "(T^2-T)*Y + T^2 - T - 2", "--params", "T", "--vars", "Y"],
    ["irred", "--poly", "Y^2 - Y - 1", "--factor"],
    ["hilbert", "--polys", "Y^2 - T", "--params", "T", "--vars", "Y", "--limit", "3"],
    ["progression", "--polys", "T*Y + 2", "--params", "T", "--vars", "Y"],
    ["schinzel", "--polys", "Y^2 - T", "--params", "T", "--vars", "Y", "--d", "1"],
    ["strong", "--poly", "T^2+1", "--poly", "T^2+T+1", "--params", "T", "--vars", "Y",
     "--d", "1"],
    ["compose", "--poly", "T^2+1", "--d", "1,1"],
    ["counterexample", "--d", "1"],
    ["coprime", "--polys", "T1", "--polys", "T1+2", "--params", "T1"],
    ["density", "--polys", "Y^2 - T", "--params", "T", "--vars", "Y", "--N", "100"],
]

BASELINE_JOBS = {
    "compose_d22": ["compose", "--poly", "T^2+1", "--d", "2,2"],
    "compose_d222": ["compose", "--poly", "T^2+1", "--d", "2,2,2"],
    "hilbert_y16": ["hilbert", "--polys", "Y^16 - T", "--params", "T", "--vars", "Y"],
    "irred_x16": ["irred", "--poly", "x^16+1"],
    "density_n2000": ["density", "--polys", "Y^2 - T", "--params", "T", "--vars", "Y",
                      "--N", "2000"],
}


def _arg(text):
    """A polynomial as a command-line value: argparse reads a leading '-' as a flag."""
    return f"({text})" if text.startswith("-") else text


def _cli_seeded(rng, command):
    if command == "fixdiv":
        k = 1
        names, f = _residue_poly(rng, k, rng.randint(3, 6), 6,
                                 rng.choice([None, 2, 3]))
        return ["fixdiv", "--poly", _arg(render(f, names)), "--params", ",".join(_params(k)),
                "--vars", "Y"]
    if command == "coprime":
        names = ("T1",)
        q1 = _small_params_poly(rng, names, rng.randint(1, 3), 5)
        q2 = add(mul(q1, _small_params_poly(rng, names, 0, 3, (1, 1))),
                 {(0,): _nz(rng, 6)})
        return ["coprime", "--polys", _arg(render(q1, names)), "--polys", _arg(render(q2, names)),
                "--params", "T1"]
    if command == "strong":
        # monic quadratics are irreducible when the discriminant is not a square
        polys = []
        while len(polys) < rng.randint(1, 2):
            b, c = rng.randint(-4, 4), rng.randint(1, 6)
            if b * b - 4 * c < 0:
                polys.append(render({(2,): 1, (1,): b, (0,): c}, ("T",)))
        argv = ["strong"]
        for q in polys:
            argv += ["--poly", q]
        return argv + ["--params", "T", "--vars", "Y", "--d", "1"]
    if command == "schinzel":
        a, b = _nz(rng, 4), rng.randint(-6, 6)
        e = rng.choice([2, 3])
        return ["schinzel", "--polys", f"Y^{e} - ({a}*T + {b})", "--params", "T",
                "--vars", "Y", "--d", "1"]
    if command == "progression":
        names = ("T", "Y")
        f = {(1, 1): _nz(rng, 4), (0, 0): _nz(rng, 6)}
        f[(rng.randint(0, 2), 0)] = f.get((0, 0), 0) + rng.randint(-3, 3)
        return ["progression", "--polys", _arg(render({e: c for e, c in f.items() if c}, names)),
                "--params", "T", "--vars", "Y"]
    raise ValueError(command)


def cli_round(seed, r):
    rng = _rng("cli", seed, r)
    ops = [{"kind": "cli", "job": f"readme{i + 1}", "argv": argv}
           for i, argv in enumerate(README_JOBS)]
    ops += [{"kind": "cli", "job": name, "argv": argv, "baseline": True}
            for name, argv in BASELINE_JOBS.items()]
    for i, command in enumerate(PARAMS["cli"]["seeded"]):
        ops.append({"kind": "cli", "job": f"seeded{i + 1}.{command}",
                    "argv": _cli_seeded(rng, command)})
    return ops


ROUNDS = {
    "irred": irred_round,
    "residues": residues_round,
    "hilbert": hilbert_round,
    "cli": cli_round,
}


def round_ops(workload, seed, r):
    """The ops of round r (0-based) of a workload, numbered within the round."""
    ops = ROUNDS[workload](seed, r)
    for i, op in enumerate(ops):
        op["id"] = f"{r}.{i}"
    return ops
