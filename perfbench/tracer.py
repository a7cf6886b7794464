"""Spans around the library's public functions, patched in from outside.

Every traced function is replaced, in every `schinzel` module that binds
it (for example `hilbert.is_irreducible_q`, `factorlab.divisors`), by a
wrapper that records a span: name, start, end and parent.  Spans are folded
into per-(parent, name) aggregates as they close, so memory stays flat;
`summary()` turns them into the per-layer metrics.

Self time is a span's duration minus the time covered by its direct
children.  Busy time counts only the outermost span of a name, so a
function that re-enters itself is not counted twice.
"""

import contextlib
import sys
import time

# (metric name, module, attribute); "MPoly.x" names a method of MPoly.
TARGETS = [
    ("numutil.divisors", "numutil", "divisors"),
    ("numutil.is_prime", "numutil", "is_prime"),
    ("numutil.primes_upto", "numutil", "primes_upto"),
    ("polyring.substitute", "polyring", "MPoly.substitute"),
    ("polyring.mul", "polyring", "MPoly.__mul__"),
    ("polyring.mul", "polyring", "MPoly.__rmul__"),
    ("polyring.evaluate", "polyring", "MPoly.evaluate"),
    ("polyring.reduce_mod", "polyring", "reduce_mod"),
    ("polyring.parse_poly", "polyring", "parse_poly"),
    ("factorlab.is_irreducible_z", "factorlab", "is_irreducible_z"),
    ("factorlab.is_irreducible_q", "factorlab", "is_irreducible_q"),
    ("factorlab.kronecker_factor", "factorlab", "kronecker_factor"),
    ("factorlab.is_irreducible_fp", "factorlab", "is_irreducible_fp"),
    ("factorlab.gcd_q", "factorlab", "gcd_q"),
    ("factorlab.is_primitive_wrt", "factorlab", "is_primitive_wrt"),
    ("fixdiv.fixed_prime_divisors", "fixdiv", "fixed_prime_divisors"),
    ("fixdiv.is_fixed_prime", "fixdiv", "is_fixed_prime"),
    ("schinzelcore.nonvanishing_point", "schinzelcore", "nonvanishing_point"),
    ("schinzelcore.progression_witness", "schinzelcore", "progression_witness"),
    ("schinzelcore.bezout_constant", "schinzelcore", "bezout_constant"),
    ("hilbert.specialization_check", "hilbert", "specialization_check"),
    ("hilbert.density_report", "hilbert", "density_report"),
    ("hilbert.hilbert_search", "hilbert", "hilbert_search"),
    ("polyschinzel.strong_pipeline", "polyschinzel", "strong_pipeline"),
    ("polyschinzel.solve_polynomial_schinzel", "polyschinzel", "solve_polynomial_schinzel"),
    ("polyschinzel.iterated_composition", "polyschinzel", "iterated_composition"),
    ("polyschinzel.generic_substitution", "polyschinzel", "generic_substitution"),
    ("polyschinzel.verify_no_fixed_divisor_generic", "polyschinzel",
     "verify_no_fixed_divisor_generic"),
    ("coprime.check_copsch_local", "coprime", "check_copsch_local"),
    ("coprime.coprime_search", "coprime", "coprime_search"),
    ("cli.run", "cli", "run"),
]

GENERATORS = {"hilbert.hilbert_search"}

# Which of calls / busy_s / self_s each function reports.
CBS = ("calls", "busy_s", "self_s")
REPORTED = {
    "numutil.divisors": ("calls", "self_s"),
    "numutil.is_prime": ("calls", "self_s"),
    "numutil.primes_upto": ("calls", "self_s"),
    "polyring.substitute": ("calls", "self_s"),
    "polyring.mul": ("calls", "self_s"),
    "polyring.evaluate": ("calls", "self_s"),
    "polyring.reduce_mod": ("calls", "self_s"),
    "polyring.parse_poly": ("calls", "self_s"),
    "factorlab.is_irreducible_q": CBS,
    "factorlab.kronecker_factor": CBS,
    "factorlab.is_irreducible_fp": CBS,
    "factorlab.gcd_q": CBS,
    "factorlab.is_primitive_wrt": CBS,
    "fixdiv.fixed_prime_divisors": CBS,
    "fixdiv.is_fixed_prime": CBS,
    "schinzelcore.nonvanishing_point": CBS,
    "schinzelcore.progression_witness": CBS,
    "schinzelcore.bezout_constant": CBS,
    "hilbert.specialization_check": CBS,
    "hilbert.density_report": ("busy_s",),
    "hilbert.hilbert_search": ("busy_s",),
    "polyschinzel.strong_pipeline": ("busy_s",),
    "polyschinzel.solve_polynomial_schinzel": ("busy_s",),
    "polyschinzel.iterated_composition": ("busy_s",),
    "polyschinzel.generic_substitution": ("busy_s",),
    "polyschinzel.verify_no_fixed_divisor_generic": CBS,
    "coprime.check_copsch_local": ("calls", "busy_s"),
    "coprime.coprime_search": ("calls", "busy_s"),
    "cli.run": CBS,
}

ROUTES = ("mod-p", "evaluation", "kronecker", "content")

# Counters read from results, and residue tuples as substitute calls per parent.
COUNTERS = (
    [f"factorlab.route.{r}" for r in ROUTES]
    + ["factorlab.budget_errors", "fixdiv.candidates", "fixdiv.confirmed",
       "hilbert.members", "polyschinzel.tried", "coprime.tried"]
    + [f"cli.exit.{c}" for c in range(4)]
)
RESIDUE_PARENTS = {
    "fixdiv.residue_tuples": "fixdiv.is_fixed_prime",
    "schinzelcore.residue_tuples": "schinzelcore.nonvanishing_point",
    "polyschinzel.residue_tuples": "polyschinzel.verify_no_fixed_divisor_generic",
}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name, kinds in REPORTED.items():
        for kind in kinds:
            out[f"{name}.{kind}"] = "count" if kind == "calls" else "s"
    for name in COUNTERS:
        if name != "hilbert.members":
            out[name] = "count"
    out["factorlab.kronecker_share"] = "ratio"
    out["hilbert.member_ratio"] = "ratio"
    for name in RESIDUE_PARENTS:
        out[name] = "count"
    return out


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.on = False
        self.stack = []  # open spans: [name, time covered by children]
        self.depth = {}  # name -> open spans of that name
        self.agg = {}  # (parent, name) -> [calls, seconds, self seconds]
        self.busy = {}  # name -> seconds in outermost spans
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op_self = None  # name -> self seconds, while an op is detailed
        self.details = {}  # baseline CLI job -> its own self-time table
        self.patched = []  # (owner, attribute, original)
        self.hooks = {
            "factorlab.is_irreducible_q": self._route_q,
            "factorlab.is_irreducible_z": self._route_z,
            "fixdiv.fixed_prime_divisors": self._fixdiv,
            "hilbert.specialization_check": self._member,
            "polyschinzel.strong_pipeline": self._tried,
            "polyschinzel.solve_polynomial_schinzel": self._tried,
            "coprime.coprime_search": self._coprime,
            "cli.run": self._exit,
        }

    # -- counters read from results -------------------------------------

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _route_q(self, cert):
        self._count(f"factorlab.route.{cert.method}")

    def _route_z(self, result):
        if result[1].method == "content":
            self._count("factorlab.route.content")

    def _fixdiv(self, report):
        self._count("fixdiv.candidates", len(report.candidates))
        self._count("fixdiv.confirmed", len(report.confirmed))

    def _member(self, sp):
        self._count("hilbert.members", int(sp.member))

    def _tried(self, plan):
        self._count("polyschinzel.tried", plan.tried)

    def _coprime(self, report):
        self._count("coprime.tried", report.tried)

    def _exit(self, code):
        self._count(f"cli.exit.{code}")

    # -- spans -----------------------------------------------------------

    def _enter(self, name):
        parent = self.stack[-1][0] if self.stack else None
        frame = [name, 0.0]
        self.stack.append(frame)
        self.depth[name] = self.depth.get(name, 0) + 1
        return parent, frame, time.perf_counter()

    def _exit_span(self, name, parent, frame, t0, count):
        dt = time.perf_counter() - t0
        self.stack.pop()
        if self.stack:
            self.stack[-1][1] += dt
        self.depth[name] -= 1
        if not self.depth[name]:
            self.busy[name] = self.busy.get(name, 0.0) + dt
        rec = self.agg.get((parent, name))
        if rec is None:
            rec = self.agg[(parent, name)] = [0, 0.0, 0.0]
        rec[0] += count
        rec[1] += dt
        rec[2] += dt - frame[1]
        if self.op_self is not None:
            self.op_self[name] = self.op_self.get(name, 0.0) + dt - frame[1]

    def wrap(self, name, fn):
        tracer = self
        hook = self.hooks.get(name)
        budget_error = self.lib.factorlab.BudgetError

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            span = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                if name == "factorlab.kronecker_factor":
                    tracer._count("factorlab.budget_errors")
                raise
            finally:
                tracer._exit_span(name, *span, 1)
            if hook is not None:
                hook(result)
            return result

        def traced_generator(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            span = tracer._enter(name)
            try:
                inner = fn(*args, **kwargs)
            finally:
                tracer._exit_span(name, *span, 1)
            return tracer._resume_spans(name, inner)

        traced.__wrapped__ = fn
        traced_generator.__wrapped__ = fn
        return traced_generator if name in GENERATORS else traced

    def _resume_spans(self, name, inner):
        """Re-yield a generator's items, timing each resumption as a span."""
        try:
            while True:
                span = self._enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit_span(name, *span, 0)
                yield item
        finally:
            inner.close()

    # -- patching ----------------------------------------------------------

    def install(self):
        """Patch every schinzel namespace that binds a traced function."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "schinzel" or key.startswith("schinzel.")]
        for name, modname, attr in TARGETS:
            module = getattr(self.lib, modname)
            if attr.startswith("MPoly."):
                cls = module.MPoly
                meth = attr.split(".", 1)[1]
                self._patch(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, key, value):
        self.patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self.patched):
            setattr(owner, key, original)
        self.patched = []

    @contextlib.contextmanager
    def op(self, op):
        """Trace one op; baseline CLI jobs also keep their own self-time table."""
        detail = bool(op.get("baseline"))
        self.op_self = {} if detail else None
        self.on = True
        try:
            yield
        finally:
            self.on = False
            if detail:
                self.details[op["job"]] = self.op_self
            self.op_self = None

    # -- results -------------------------------------------------------------

    def summary(self):
        calls, self_s = {}, {}
        for (parent, name), (n, _, own) in self.agg.items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + own
        metrics = {}
        for name, kinds in REPORTED.items():
            for kind in kinds:
                value = {"calls": calls.get(name, 0), "busy_s": self.busy.get(name, 0.0),
                         "self_s": self_s.get(name, 0.0)}[kind]
                metrics[f"{name}.{kind}"] = value
        for key in COUNTERS:
            if key != "hilbert.members":
                metrics[key] = self.counts.get(key, 0)
        verdicts = sum(self.counts[f"factorlab.route.{r}"] for r in ROUTES)
        metrics["factorlab.kronecker_share"] = (
            self.counts["factorlab.route.kronecker"] / verdicts if verdicts else 0.0)
        checks = calls.get("hilbert.specialization_check", 0)
        metrics["hilbert.member_ratio"] = (
            self.counts["hilbert.members"] / checks if checks else 0.0)
        for key, parent in RESIDUE_PARENTS.items():
            rec = self.agg.get((parent, "polyring.substitute"))
            metrics[key] = rec[0] if rec else 0
        return {"metrics": metrics, "self_s": self_s, "details": self.details,
                "spans": [[p, n, c, s, o] for (p, n), (c, s, o) in sorted(
                    self.agg.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))]}
