"""Correctness gate, run in the parent process after the timed region.

Checks are independent of the code under test wherever that is cheap:
sympy decides irreducibility and exact division, residues are enumerated
here by plain modular arithmetic, Hilbert families are counted from their
closed forms, and spiral order is rebuilt from its definition.  Fixed CLI
jobs are compared with the expected reports in `expected/cli_reports.json`
(with `elapsed_ms` masked).

`check(op, out)` returns a list of problems; an empty list means correct.
A budget exhaustion or an unexpected error is not judged wrong here: the
caller counts it as failed.
"""

import itertools
import json
import math
import os
import re

import sympy

HERE = os.path.dirname(os.path.abspath(__file__))
ENUM_LIMIT = 3000  # brute-force residue tuples only up to this many

_expected = None


def expected_reports():
    global _expected
    if _expected is None:
        with open(os.path.join(HERE, "expected", "cli_reports.json")) as fh:
            _expected = json.load(fh)
    return _expected


# -- polynomials ----------------------------------------------------------


def sym(text, names):
    syms = {n: sympy.Symbol(n) for n in names}
    return sympy.sympify(text.replace("^", "**"), locals=syms), [syms[n] for n in names]


def poly(text, names, **kw):
    expr, gens = sym(text, names)
    return sympy.Poly(expr, *gens, **kw)


def int_terms(text, names):
    """{exponent tuple: int coefficient} of a polynomial written in `names`."""
    return {tuple(e): int(c) for e, c in poly(text, names).as_dict().items()}


def by_tail(terms, k):
    """Group terms by the exponents after the first k (the variables)."""
    groups = {}
    for expo, c in terms.items():
        groups.setdefault(expo[k:], []).append((expo[:k], c))
    return list(groups.values())


def vanishes(groups, point, p):
    """True iff P(point, Y) is zero mod p, for P grouped by `by_tail`."""
    for group in groups:
        total = 0
        for expo, c in group:
            v = c
            for t, e in zip(point, expo):
                v = v * pow(t, e, p) % p
            total += v
        if total % p:
            return False
    return True


def prime_factors(n):
    return sorted(sympy.primefactors(abs(n))) if n else []


def primes_upto(n):
    return list(sympy.primerange(2, n + 1)) if n >= 2 else []


def content(terms):
    return math.gcd(*terms.values()) if terms else 0


def candidates(terms, k):
    delta = max((e[i] for e in terms for i in range(k)), default=0)
    return delta, sorted(set(primes_upto(delta)) | set(prime_factors(content(terms))))


def tuples(p, k):
    return itertools.product(range(p), repeat=k)


def irreducible_z(expr_poly):
    c, factors = expr_poly.factor_list()
    return abs(c) == 1 and len(factors) == 1 and factors[0][1] == 1


def irreducible_mod(expr, gen, p):
    P = sympy.Poly(expr, gen)
    return (P.LC() % p != 0 and sympy.Poly(expr, gen, modulus=p).is_irreducible)


# -- per-kind checks ------------------------------------------------------------


def check_irred(op, out):
    P = poly(op["poly"], op["names"])
    truth = irreducible_z(P)
    if out["status"] != "ok":
        return []
    problems = []
    if out["flag"] != truth:
        return [f"verdict {out['flag']} but sympy says irreducible={truth}"]
    method, gens = out["method"], P.gens
    if method == "content":
        if int(out["factor"]) != content(P.as_dict()) or int(out["factor"]) == 1:
            problems.append("content certificate does not match the content")
    elif out["verdict"] == "reducible":
        F = poly(out["factor"], op["names"], domain="QQ")
        Pq = P.set_domain("QQ")
        if not (0 < F.total_degree() < Pq.total_degree()) or not Pq.rem(F).is_zero:
            problems.append(f"factor {out['factor']} does not divide properly")
    elif method == "mod-p":
        if len(gens) != 1 or not irreducible_mod(P.as_expr(), gens[0], out["prime"]):
            problems.append(f"mod-{out['prime']} certificate fails")
    elif method == "evaluation":
        point = {sympy.Symbol(k): v for k, v in out["point"].items()}
        main = [g for g in gens if g not in point]
        image = P.as_expr().subs(point)
        if len(main) != 1 or sympy.degree(image, main[0]) != P.degree(main[0]):
            problems.append("evaluation certificate does not preserve the degree")
        elif out["detail"] == "image method mod-p":
            image = sympy.Poly(image, main[0]).primitive()[1].as_expr()
            if not irreducible_mod(image, main[0], out["prime"]):
                problems.append(f"image not irreducible mod {out['prime']}")
        elif not irreducible_z(sympy.Poly(image, main[0]).primitive()[1]):
            problems.append("evaluation image is reducible")
    return problems


def check_fixed_report(terms, k, out, what="P", lex_least=True):
    """A fixed-prime report: candidates, witnesses and confirmed primes.

    Witnesses must be lexicographically least unless lex_least is False
    (the generic check may refute a prime with a monomial-selection point).
    """
    delta, cands = candidates(terms, k)
    problems = []
    if list(out["candidates"]) != cands:
        problems.append(f"candidates {out['candidates']} != {cands}")
    if out.get("delta") is not None and out["delta"] != delta:
        problems.append(f"delta {out['delta']} != {delta}")
    if out.get("content") is not None and out["content"] != content(terms):
        problems.append(f"content {out['content']} != {content(terms)}")
    groups = by_tail(terms, k)
    witnesses = {int(p): tuple(w) for p, w in out["witnesses"].items()}
    if sorted(set(out["confirmed"]) | set(witnesses)) != cands:
        problems.append("confirmed and refuted primes do not cover the candidates")
    for p, w in witnesses.items():
        if vanishes(groups, w, p):
            problems.append(f"witness {w} for {p} vanishes mod {p}")
        elif lex_least and p ** k <= ENUM_LIMIT:
            for t in tuples(p, k):
                if t >= w:
                    break
                if not vanishes(groups, t, p):
                    problems.append(f"witness {w} for {p} is not lex-least ({t})")
                    break
    for p in out["confirmed"]:
        if p ** k <= ENUM_LIMIT and not all(vanishes(groups, t, p) for t in tuples(p, k)):
            problems.append(f"{p} confirmed fixed for {what} but some tuple survives")
    return problems


def _fixed_prime_refusal(terms, k, detail):
    m = re.search(r"(?:prime|divisor) (\d+)", detail)
    if not m:
        return [f"refusal names no prime: {detail}"]
    p = int(m.group(1))
    groups = by_tail(terms, k)
    if p ** k <= ENUM_LIMIT and not all(vanishes(groups, t, p) for t in tuples(p, k)):
        return [f"refusal names {p}, which is not a fixed prime"]
    return []


def check_fixdiv(op, out):
    if out["status"] != "ok":
        return []
    return check_fixed_report(int_terms(op["poly"], op["names"]), len(op["params"]), out)


def check_nonvanishing(op, out):
    k = len(op["params"])
    terms = int_terms(op["poly"], op["names"])
    if out["status"] == "refused":
        return _fixed_prime_refusal(terms, k, out["detail"])
    if out["status"] != "ok":
        return []
    groups = by_tail(terms, k)
    v = out["point"]
    return [f"point {v} vanishes mod {p}" for p in op["primes"]
            if vanishes(groups, [c % p for c in v], p)]


def check_generic(op, out):
    if out["status"] != "ok":
        return []
    (d,) = op["d"]
    lams = [f"lam0q{i}" for i in range(d + 1)]
    expr, gens = sym(op["poly"], op["names"])
    Y = sympy.Symbol("Y")
    M = sum(sympy.Symbol(l) * Y ** i for i, l in enumerate(lams))
    F = sympy.Poly(sympy.expand(expr.subs(gens[0], M)), *[sympy.Symbol(l) for l in lams], Y)
    terms = {tuple(e): int(c) for e, c in F.as_dict().items()}
    return check_fixed_report(terms, len(lams), dict(out, delta=None), "generic family",
                              lex_least=False)


def check_copsch(op, out):
    if out["status"] != "ok":
        return []
    names = op["names"]
    k = len(names)
    values = [int_terms(q, names) for q in op["polys"]]
    _, cands = candidates(values[0], k)
    problems = []
    if out["candidates"] != cands:
        problems.append(f"candidates {out['candidates']} != {cands}")
    groups = [by_tail(q, k) for q in values]
    for p, (t, i) in out["refuted"].items():
        if vanishes(groups[i], t, int(p)):
            problems.append(f"refutation of {p} at {t} vanishes")
    for p in out["violations"]:
        if p ** k <= ENUM_LIMIT and not all(vanishes(g, t, p) for t in tuples(p, k)
                                            for g in groups):
            problems.append(f"violation {p} is refuted by some tuple")
    if out["verdict"] != (not out["violations"]):
        problems.append("verdict disagrees with the violations")
    return problems


def _product_terms(polys, names):
    expr = sympy.Integer(1)
    for q in polys:
        expr *= sym(q, names)[0]
    return {tuple(e): int(c) for e, c in
            sympy.Poly(sympy.expand(expr), *[sympy.Symbol(n) for n in names]).as_dict().items()}


def check_progression_result(polys, names, k, out):
    terms = _product_terms(polys, names)
    if out["status"] == "refused":
        if out["condition"] == "NoFixDiv":
            return _fixed_prime_refusal(terms, k, out["detail"])
        if out["condition"].startswith("Prim"):
            i = int(re.search(r"#(\d+)", out["detail"]).group(1)) - 1
            P = poly(polys[i], names)
            Ys = P.gens[k:]
            coeffs = sympy.Poly(P.as_expr(), *Ys).coeffs()
            g = sympy.gcd_list(coeffs)
            if not sympy.Poly(g, *P.gens[:k]).total_degree() > 0:
                return [f"polynomial #{i + 1} is primitive, refusal is wrong"]
            return []
        return [f"unexpected refusal {out['condition']}"]
    if out["status"] != "ok":
        return []
    problems = []
    bad = out["bad_primes"]
    if out["omega"] != math.prod(bad):
        problems.append("omega is not the product of the bad primes")
    delta, cands = candidates(terms, k)
    need = set(cands) | set(prime_factors(int(out["delta"])))
    if not need <= set(bad):
        problems.append(f"bad primes {bad} miss {sorted(need - set(bad))}")
    groups = by_tail(terms, k)
    v = out["base_point"]
    for p in bad:
        if vanishes(groups, [c % p for c in v], p):
            problems.append(f"base point {v} vanishes mod {p}")
    return problems


def check_progression(op, out):
    return check_progression_result(op["polys"], op["names"], len(op["params"]), out)


# -- hilbert: closed forms ---------------------------------------------------------


def is_square(s):
    return s >= 0 and math.isqrt(s) ** 2 == s


def is_cube(s):
    r = round(abs(s) ** (1 / 3))
    return any((r + e) ** 3 == abs(s) for e in (-1, 0, 1))


def hilbert_member(shape, coef, t):
    """(member, reason label) of a family from workloads.hilbert_family."""
    if shape == "sq":
        a, b = coef
        return (False, "reducible") if is_square(a * t[0] + b) else (True, None)
    if shape == "cube":
        a, b = coef
        return (False, "reducible") if is_cube(a * t[0] + b) else (True, None)
    if shape == "lin":
        a, b, c, d = coef
        u, w = a * t[0] + b, c * t[0] + d
        if u == 0:
            return False, "degenerate"
        g = math.gcd(u, w)
        return (True, None) if g == 1 else (False, f"content {g}")
    if shape == "pair":
        a, b, c, d = coef
        if is_square(a * t[0] + b) or is_square(c * t[0] + d):
            return False, "reducible"
        return True, None
    if shape == "sq2":
        a, c, b = coef
        return (False, "reducible") if is_square(a * t[0] + c * t[1] + b) else (True, None)
    raise ValueError(shape)


def spiral(k):
    yield (0,) * k
    for r in itertools.count(1):
        for t in itertools.product(range(-r, r + 1), repeat=k):
            if max(abs(c) for c in t) == r:
                yield t


def check_density(op, out):
    if out["status"] != "ok":
        return []
    k, N = len(op["params"]), op["N"]
    members, reasons = 0, {}
    for t in itertools.product(range(-N, N + 1), repeat=k):
        ok, why = hilbert_member(op["shape"], op["coef"], t)
        members += ok
        if not ok:
            reasons[why] = reasons.get(why, 0) + 1
    total = (2 * N + 1) ** k
    got = (out["total"], out["members"], out["non_members"], out["reasons"])
    want = (total, members, total - members, dict(sorted(reasons.items())))
    return [] if got == want else [f"density {got} != closed form {want}"]


def check_search(op, out):
    if out["status"] != "ok":
        return []
    k = len(op["params"])
    want = []
    for t in spiral(k):
        if hilbert_member(op["shape"], op["coef"], t)[0]:
            want.append(list(t))
            if len(want) == op["L"]:
                break
    got = [m["t"] for m in out["members"]]
    if got != want:
        return [f"members {got} != closed form {want}"]
    problems = []
    Y = sympy.Symbol("Y")
    for m in out["members"]:
        point = {sympy.Symbol(n): v for n, v in zip(op["params"], m["t"])}
        for text, cert in zip(op["polys"], m["certs"]):
            image = sym(text, op["names"])[0].subs(point)
            if cert["verdict"] != "irreducible":
                problems.append(f"member {m['t']} has a reducible certificate")
            elif cert["method"] == "mod-p" and not irreducible_mod(image, Y, cert["prime"]):
                problems.append(f"member {m['t']}: mod-{cert['prime']} certificate fails")
        if m["content"] != 1:
            problems.append(f"member {m['t']} has content {m['content']}")
    return problems


# -- cli ------------------------------------------------------------------------


def report_dict(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def ints(text):
    inner = text.strip().strip("[]()")
    return [int(x) for x in inner.split(",") if x.strip()]


def _argv_polys(argv):
    return [argv[i + 1] for i, a in enumerate(argv) if a in ("--poly", "--polys")]


def _argv_opt(argv, flag, default=""):
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_cli_seeded(op, out):
    argv, rep = op["argv"], report_dict(out["report"])
    command = argv[0]
    polys = _argv_polys(argv)
    params = [p for p in _argv_opt(argv, "--params").split(",") if p]
    if out["exit"] not in (0, 1):
        return []
    if rep.get("exit") != str(out["exit"]):
        return ["report exit line disagrees with the exit code"]
    if command == "fixdiv":
        names = params + ["Y"]
        witnesses = {k[len("witness.p"):]: ints(v) for k, v in rep.items()
                     if k.startswith("witness.p")}
        res = {"candidates": ints(rep["candidates"]), "confirmed": ints(rep["confirmed"]),
               "witnesses": witnesses, "delta": int(rep["delta"]),
               "content": int(rep["content"])}
        problems = check_fixed_report(int_terms(polys[0], names), len(params), res)
        if int(rep["scalar"]) != math.prod(res["confirmed"]):
            problems.append("scalar is not the product of the confirmed primes")
        if (out["exit"] == 0) != (not res["confirmed"]):
            problems.append("exit code disagrees with the confirmed primes")
        return problems
    if command == "coprime":
        terms = [int_terms(q, params) for q in polys]
        if out["exit"] == 1:
            m = re.search(r"local condition fails at prime (\d+)", rep.get("detail", ""))
            if not m:
                return [f"unexpected coprime refusal: {rep.get('detail')}"]
            p = int(m.group(1))
            if any(not vanishes(by_tail(q, len(params)), t, p)
                   for q in terms for t in tuples(p, len(params))):
                return [f"coprime refusal names {p}, but some value is nonzero mod {p}"]
            return []
        for tried, m in enumerate(spiral(len(params)), start=1):
            values = [sum(c * math.prod(x ** e for x, e in zip(m, expo))
                          for expo, c in q.items()) for q in terms]
            if math.gcd(*values) == 1:
                break
        got = (ints(rep["m"]), ints(rep["values"]), int(rep["tried"]))
        want = (list(m), values, tried)
        return [] if got == want else [f"coprime {got} != {want}"]
    if command == "progression":
        if out["exit"] == 1:
            res = {"status": "refused", "condition": rep["condition"], "detail": rep["detail"]}
        else:
            res = {"status": "ok", "bad_primes": ints(rep["bad_primes"]),
                   "omega": int(rep["omega"]), "base_point": ints(rep["base_point"]),
                   "delta": rep["delta"]}
        return check_progression_result(polys, params + ["Y"], len(params), res)
    if command in ("strong", "schinzel"):
        T, Y = sympy.Symbol("T"), sympy.Symbol("Y")
        if out["exit"] == 1:
            if rep.get("condition") == "NoFixDiv" and command == "strong":
                return _fixed_prime_refusal(_product_terms(polys, ["T"]), 1, rep["detail"])
            if rep.get("condition") == "Irred":
                i = int(re.search(r"#(\d+)", rep["detail"]).group(1)) - 1
                names = ["T"] if command == "strong" else ["T", "Y"]
                if irreducible_z(poly(polys[i], names).primitive()[1]):
                    return [f"refusal Irred but polynomial #{i + 1} is irreducible"]
                return []
            if rep.get("condition") in ("Prim", "(*)", "(a)", "(b)", "(c)", "NoFixDiv"):
                return []
            return [f"unexpected refusal {rep.get('condition')}"]
        M = sym(rep["M"] if command == "strong" else rep["M.T"], ["Y"])[0]
        comps = []
        for q in polys:
            expr = sym(q, ["T", "Y"])[0]
            comps.append(sympy.expand(expr.subs(T, M)))
        problems = [f"composition {c} is not irreducible over Z" for c in comps
                    if not irreducible_z(sympy.Poly(c, Y))]
        if command == "strong":
            prod = sympy.Poly(sympy.expand(math.prod(comps)), Y)
            terms = {tuple(e): int(c) for e, c in prod.as_dict().items()}
            groups = by_tail({(e[0],): c for e, c in terms.items()}, 1)
            for p in primes_upto(prod.degree()):
                if all(vanishes(groups, (y,), p) for y in range(p)):
                    problems.append(f"composed product has fixed prime {p}")
            if int(rep["omega"]) != math.prod(ints(rep["bad_primes"])):
                problems.append("omega is not the product of the bad primes")
        return problems
    return [f"no check for seeded command {command}"]


def check_cli(op, out):
    if "exit" not in out:
        return []
    want = expected_reports().get(op["job"])
    if want is not None:
        if out["exit"] != want["exit"] or out["report"] != want["report"]:
            return [f"report of {op['job']} differs from the expected report"]
        return []
    return check_cli_seeded(op, out)


CHECKS = {
    "irred": check_irred,
    "fixdiv": check_fixdiv,
    "nonvanishing": check_nonvanishing,
    "generic": check_generic,
    "copsch": check_copsch,
    "progression": check_progression,
    "density": check_density,
    "search": check_search,
    "cli": check_cli,
}


def check(op, out):
    return CHECKS[op["kind"]](op, out)
