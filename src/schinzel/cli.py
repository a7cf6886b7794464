"""Command-line interface.

Every subcommand runs one library operation and prints a structured
`key = value` report with stable key order, suitable for golden-file
comparison (timing lines are the only nondeterministic fields).

Exit codes: 0 verdict-true / success, 1 verdict-false / refusal,
2 usage error, 3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

from . import __version__
from .coprime import coprime_search
from .factorlab import content_certificate, is_irreducible_q, kronecker_factor
from .fixdiv import fixed_prime_divisors
from .hilbert import density_report, hilbert_search
from .polyring import BudgetExceeded, ParseError, PolyError, VarSplit, identifiers, parse_poly
from .polyschinzel import (
    iterated_composition,
    sharpness_counterexample,
    solve_polynomial_schinzel,
    strong_pipeline,
)
from .schinzelcore import HypothesisError, progression_witness

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class _Report:
    """Ordered key/value accumulator."""

    def __init__(self):
        self.lines = []

    def add(self, key, value):
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, (list, tuple)):
            value = "[" + ", ".join(str(v) for v in value) + "]"
        self.lines.append(f"{key} = {value}")

    def render(self):
        return "\n".join(self.lines) + "\n"


def _positive_int(text):
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text} is below 1")
    return int(text)


def _split_csv(text):
    return tuple(t.strip() for t in text.split(",") if t.strip())


def _parse_d(text):
    """Degree matrix: commas within a parameter, semicolons across."""
    try:
        return tuple(tuple(int(t) for t in _split_csv(chunk))
                     for chunk in text.split(";") if chunk.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a list of integers") from None


def _parse_row(text):
    """One degree row: a degree matrix of at most one `;` block."""
    rows = _parse_d(text)
    if len(rows) > 1:
        raise argparse.ArgumentTypeError(f"{text!r} has more than one ';' block")
    return rows[0] if rows else ()  # strong_pipeline rejects a row of the wrong length


def _load_job(path):
    """key = value job file -> argv tokens (command line, minus the program)."""
    tokens = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "command":
                tokens.insert(0, value)
            elif value == "true":
                tokens.append(f"--{key}")
            else:
                for part in value.split("\x1f"):
                    tokens.extend([f"--{key}", part])
    return tokens


@functools.cache  # built on the first run, not at import; parsing leaves it unchanged
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="schinzel", description="Fixed divisors, Hilbert specializations "
        "and Schinzel-type polynomial searches over the integers."
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    def common(p, polys=True, names=("--params", "--vars"), budget=None):
        if polys:
            p.add_argument("--poly", "--polys", action="append", dest="polys",
                           required=True, metavar="EXPR")
        for name in names:  # only the name lists the command reads
            p.add_argument(name, default="", metavar="NAMES")
        if budget is not None:  # the default applies only when --budget is absent
            p.add_argument("--budget", type=int, default=budget)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    p = sub.add_parser("fixdiv", help="fixed prime divisors w.r.t. the parameters")
    common(p)
    p = sub.add_parser("irred", help="irreducibility over Q and over Z")
    common(p, names=())
    p.add_argument("--factor", action="store_true",
                   help="also run the Kronecker oracle")
    p = sub.add_parser("hilbert", help="search irreducibility-preserving points")
    common(p, budget=10**6)
    p.add_argument("--limit", type=_positive_int, default=1)
    p = sub.add_parser("progression", help="Schinzel progression for the first parameter")
    common(p)
    p = sub.add_parser("schinzel", help="substitute polynomials for the parameters")
    common(p, budget=5000)
    p.add_argument("--d", type=_parse_d, required=True, metavar="MATRIX")
    p.add_argument("--no-exact-degree", action="store_true")
    p = sub.add_parser("strong", help="no-fixed-divisor substitution pipeline")
    common(p, budget=2000)
    p.add_argument("--d", type=_parse_row, required=True, metavar="TUPLE")
    p.add_argument("--monic", action="store_true")
    p = sub.add_parser("compose", help="iterated composition of pipeline stages")
    common(p, names=(), budget=2000)
    p.add_argument("--d", type=_parse_row, required=True, metavar="SEQUENCE")
    p.add_argument("--monic", action="store_true")
    p = sub.add_parser("counterexample", help="sharpness counterexample bundle")
    common(p, polys=False, names=(), budget=200)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=_positive_int, default=100, help="number of sampled M")
    p = sub.add_parser("coprime", help="coprime values of a polynomial family")
    common(p, names=("--params",), budget=10**5)
    p = sub.add_parser("density", help="member counts over a box")
    common(p, budget=10**7)
    p.add_argument("--N", type=int, required=True)
    return parser


def _family(args):
    """The parameter/variable split of the command line and the family over it."""
    split = VarSplit(_split_csv(args.params), _split_csv(args.vars))
    return split, _polys(args, split.params + split.variables)


def _inferred_registry(exprs, params=()):
    """`params` if given, else every name in the expressions, sorted."""
    return params or tuple(sorted({name for e in exprs for name in identifiers(e)}))


def _polys(args, registry):
    return [parse_poly(expr, registry) for expr in args.polys]


def _echo(rep, args):
    rep.add("tool", "schinzel")
    rep.add("version", __version__)
    rep.add("command", args.command)
    if getattr(args, "polys", None):
        for i, expr in enumerate(args.polys):
            rep.add(f"poly{i + 1}", expr)
    rep.add("seed", getattr(args, "seed", 0))


def _cert_lines(rep, prefix, cert):
    rep.add(f"{prefix}.verdict", cert.verdict)
    rep.add(f"{prefix}.method", cert.method)
    if cert.prime is not None:
        rep.add(f"{prefix}.prime", cert.prime)
    if cert.point is not None:
        rep.add(f"{prefix}.point", cert.point)
    if cert.factor is not None:
        rep.add(f"{prefix}.factor", cert.factor)


def _cmd_fixdiv(args, rep):
    split, polys = _family(args)
    P = polys[0]
    report = fixed_prime_divisors(P, split)
    rep.add("delta", report.delta)
    rep.add("content", report.content)
    rep.add("candidates", report.candidates)
    rep.add("confirmed", report.confirmed)
    for p in sorted(report.witnesses):
        rep.add(f"witness.p{p}", report.witnesses[p])
    rep.add("scalar", math.prod(report.confirmed))
    rep.add("verdict", not report.confirmed)
    return EXIT_OK if not report.confirmed else EXIT_FALSE


def _cmd_irred(args, rep):
    P = parse_poly(args.polys[0], _inferred_registry(args.polys))
    cert_q = is_irreducible_q(P)
    _cert_lines(rep, "q", cert_q)
    cert_z = content_certificate(P) or cert_q  # Z-irreducible: Q-irreducible, content 1
    _cert_lines(rep, "z", cert_z)
    if args.factor:
        fact = kronecker_factor(P)
        rep.add("factorization.unit", fact.unit)
        rep.add("factorization.content", fact.content)
        for i, (f, mult) in enumerate(fact.factors):
            rep.add(f"factorization.f{i + 1}", f"({f})^{mult}")
    rep.add("verdict", cert_z.irreducible)
    return EXIT_OK if cert_z.irreducible else EXIT_FALSE


def _cmd_hilbert(args, rep):
    split, polys = _family(args)
    found = 0
    for sp in hilbert_search(polys, split, budget=args.budget):
        found += 1
        rep.add(f"member{found}.t", sp.t)
        for j, cert in enumerate(sp.certificates):
            rep.add(f"member{found}.poly{j + 1}.method", cert.method)
        rep.add(f"member{found}.content", sp.content)
        if found >= args.limit:
            break
    rep.add("members", found)
    rep.add("verdict", found > 0)
    return EXIT_OK


def _cmd_progression(args, rep):
    split, polys = _family(args)
    w = progression_witness(polys, split)
    rep.add("param", split.params[w.param_index - 1])
    rep.add("delta", w.delta)
    rep.add("bad_primes", w.bad_primes)
    rep.add("omega", w.omega)
    rep.add("base_point", w.base_point)
    rep.add("progression", w.progression)
    rep.add("verdict", True)
    return EXIT_OK


def _cmd_schinzel(args, rep):
    split, polys = _family(args)
    plan = solve_polynomial_schinzel(
        polys, split, args.d, budget=args.budget,
        exact_degree=not args.no_exact_degree,
    )
    for i, (t, M) in enumerate(zip(split.params, plan.Ms)):
        rep.add(f"M.{t}", M)
    rep.add("theta", [str(chunk) for chunk in plan.theta])
    for i, cert in enumerate(plan.certificates):
        _cert_lines(rep, f"comp{i + 1}", cert)
    rep.add("tried", plan.tried)
    rep.add("verdict", True)
    return EXIT_OK


def _cmd_strong(args, rep):
    polys = _polys(args, _inferred_registry(args.polys, _split_csv(args.params)))
    variables = _split_csv(args.vars) or ("Y",)
    plan = strong_pipeline(polys, variables, args.d, budget=args.budget, monic=args.monic)
    if plan.bad_primes is not None:
        rep.add("bad_primes", plan.bad_primes)
        rep.add("theta", plan.base)
        rep.add("omega", plan.omega)
    rep.add("M", plan.Ms[0])
    for i, cert in enumerate(plan.certificates):
        _cert_lines(rep, f"comp{i + 1}", cert)
    rep.add("fixed_primes_wrt_vars", plan.fixdiv_report.confirmed)
    rep.add("tried", plan.tried)
    rep.add("verdict", True)
    return EXIT_OK


def _cmd_compose(args, rep):
    polys = _polys(args, _inferred_registry(args.polys))
    plan = iterated_composition(polys, args.d, budget=args.budget, monic=args.monic)
    for i, M in enumerate(plan.Ms):
        rep.add(f"stage{i + 1}.M", M)
    rep.add("composition", plan.composition)
    for i, Q in enumerate(plan.family):
        rep.add(f"final{i + 1}", Q)
    rep.add("stages", len(plan.stages))
    rep.add("verdict", True)
    return EXIT_OK


def _cmd_counterexample(args, rep):
    bundle = sharpness_counterexample(
        args.d, m_budget=args.budget, samples=args.N, seed=args.seed
    )
    rep.add("d", bundle.d)
    rep.add("family_size", len(bundle.family))
    rep.add("m", bundle.m)
    rep.add("P", bundle.P)
    rep.add("deg_T", bundle.P.degree_in("T"))
    _cert_lines(rep, "cert", bundle.certificate)
    rep.add("samples", len(bundle.samples))
    rep.add("all_even", bundle.all_even)
    rep.add("verdict", bundle.all_even)
    return EXIT_OK if bundle.all_even else EXIT_FALSE


def _cmd_coprime(args, rep):
    Qs = _polys(args, _inferred_registry(args.polys, _split_csv(args.params)))
    try:
        report = coprime_search(Qs, budget=args.budget)
    except PolyError as exc:
        if isinstance(exc, BudgetExceeded):
            raise
        rep.add("refused", True)
        rep.add("detail", str(exc))
        rep.add("verdict", False)
        return EXIT_FALSE
    rep.add("local_candidates", report.local.candidates)
    rep.add("m", report.m)
    rep.add("values", report.values)
    rep.add("gcd", report.gcd)
    rep.add("tried", report.tried)
    rep.add("verdict", True)
    return EXIT_OK


def _cmd_density(args, rep):
    split, polys = _family(args)
    report = density_report(polys, split, args.N, budget=args.budget)
    rep.add("N", report.N)
    rep.add("total", report.total)
    rep.add("members", report.members)
    rep.add("non_members", report.non_members)
    for label, count in report.reasons.items():
        rep.add(f"reason.{label}", count)
    rep.add("verdict", True)
    return EXIT_OK


_COMMANDS = {
    "fixdiv": _cmd_fixdiv,
    "irred": _cmd_irred,
    "hilbert": _cmd_hilbert,
    "progression": _cmd_progression,
    "schinzel": _cmd_schinzel,
    "strong": _cmd_strong,
    "compose": _cmd_compose,
    "counterexample": _cmd_counterexample,
    "coprime": _cmd_coprime,
    "density": _cmd_density,
}


def run(argv):
    """Execute one job; returns the exit code and prints the report."""
    argv = list(argv)
    if "--job" in argv:
        i = argv.index("--job")
        try:
            path = argv[i + 1]
        except IndexError:
            print("error = --job requires a path", file=sys.stderr)
            return EXIT_USAGE
        try:
            job = _load_job(path)
        except (OSError, UnicodeDecodeError) as exc:  # unreadable, or not text
            print(f"error = {exc}", file=sys.stderr)
            return EXIT_USAGE
        argv = argv[:i] + job + argv[i + 2:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    rep = _Report()
    _echo(rep, args)
    start = time.monotonic()
    try:
        code = _COMMANDS[args.command](args, rep)
    except BudgetExceeded as exc:
        rep.add("budget_exceeded", True)
        rep.add("detail", str(exc))
        code = EXIT_BUDGET
    except ParseError as exc:
        print(f"error = {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisError as exc:
        rep.add("refused", True)
        rep.add("condition", exc.condition)
        rep.add("detail", exc.detail)
        if getattr(exc, "conditions", None) is not None:  # a SchinzelRefusal's diagnosis
            rep.add("failed_conditions", exc.conditions.failed())
        if getattr(exc, "generic_report", None) is not None:
            rep.add("generic_fixed_primes", exc.generic_report.confirmed)
        rep.add("verdict", False)
        code = EXIT_FALSE
    except PolyError as exc:
        print(f"error = {exc}", file=sys.stderr)
        return EXIT_USAGE
    rep.add("elapsed_ms", int((time.monotonic() - start) * 1000))
    rep.add("exit", code)
    text = rep.render()
    sys.stdout.write(text)
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error = {exc}", file=sys.stderr)
            return EXIT_USAGE
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
