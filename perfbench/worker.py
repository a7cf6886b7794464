"""Run one workload's ops against a source tree and stream the results.

    python3 perfbench/worker.py --src SRC --workload W --seed N --rounds R --seconds S
    python3 perfbench/worker.py --src SRC --workload W --seed N --rounds R --trace

The corpus is the first R rounds of the seed's input stream.  This process
holds only the library, the generators and (when tracing) the tracer, so
its peak RSS is the workload's.  It writes one JSON line per op execution
(`{"pass", "id", "ms", "probe_ms", "out"}`, no `probe_ms` when tracing)
and a last line with the run totals.
Correctness is judged by the parent process, never here.

Load is a closed loop from one thread: each op starts when the previous
one returns.  An op is one public library call, or one in-process
`schinzel.cli.run(argv)` job; parsing the inputs happens before the op.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import re
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from probe import Sampler  # noqa: E402

_ELAPSED = re.compile(r"^elapsed_ms = \d+$", re.M)
MIN_PASSES = 3  # an untraced run takes the median of at least three passes


def import_library(src):
    """Import `schinzel` from `src` and nowhere else."""
    if not os.path.isfile(os.path.join(src, "schinzel", "__init__.py")):
        raise SystemExit(f"no schinzel package under {src}")
    sys.path.insert(0, src)
    import schinzel
    import schinzel.cli  # noqa: F401  (imports every layer)

    where = os.path.dirname(os.path.dirname(os.path.abspath(schinzel.__file__)))
    if where != os.path.abspath(src):
        raise SystemExit(f"schinzel imported from {where}, not {src}")
    return schinzel


class Ops:
    """Prepares each op (parse, outside the timed region) and encodes results."""

    def __init__(self, lib):
        self.lib = lib
        self.budget_errors = (lib.factorlab.BudgetError, lib.fixdiv.BudgetExceeded)
        self.refusals = (lib.schinzelcore.HypothesisError,)

    def parse(self, text, names):
        return self.lib.polyring.parse_poly(text, tuple(names))

    def split(self, op):
        return self.lib.polyring.VarSplit(tuple(op["params"]), ("Y",))

    def prepare(self, op):
        """A zero-argument callable that performs exactly the op."""
        lib = self.lib
        kind = op["kind"]
        if kind == "irred":
            P = self.parse(op["poly"], op["names"])
            budget = op["combo_budget"]
            return lambda: lib.factorlab.is_irreducible_z(P, combo_budget=budget)
        if kind == "fixdiv":
            P, split = self.parse(op["poly"], op["names"]), self.split(op)
            return lambda: lib.fixdiv.fixed_prime_divisors(P, split)
        if kind == "nonvanishing":
            P, split, primes = self.parse(op["poly"], op["names"]), self.split(op), op["primes"]
            return lambda: lib.schinzelcore.nonvanishing_point(P, split, primes)
        if kind == "generic":
            P, split, d = self.parse(op["poly"], op["names"]), self.split(op), tuple(op["d"])
            ps = lib.polyschinzel
            return lambda: ps.verify_no_fixed_divisor_generic(
                ps.generic_substitution([P], split, (d,)))
        if kind == "copsch":
            Qs = [self.parse(q, op["names"]) for q in op["polys"]]
            return lambda: lib.coprime.check_copsch_local(Qs)
        if kind == "progression":
            polys = [self.parse(q, op["names"]) for q in op["polys"]]
            split = self.split(op)
            return lambda: lib.schinzelcore.progression_witness(polys, split)
        if kind == "density":
            polys = [self.parse(q, op["names"]) for q in op["polys"]]
            split, N = self.split(op), op["N"]
            return lambda: lib.hilbert.density_report(polys, split, N)
        if kind == "search":
            polys = [self.parse(q, op["names"]) for q in op["polys"]]
            split, L = self.split(op), op["L"]

            def search():
                stream = lib.hilbert.hilbert_search(polys, split)
                try:
                    return list(itertools.islice(stream, L))
                finally:
                    stream.close()
            return search
        if kind == "cli":
            argv = list(op["argv"])

            def job():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = lib.cli.run(argv)
                return code, out.getvalue(), err.getvalue()
            return job
        raise ValueError(f"unknown op kind {kind!r}")

    def run(self, call):
        """Time one op; returns (start, end, raw result or exception)."""
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # recorded and judged by the parent
            result = exc
        return t0, time.perf_counter(), result

    def encode(self, op, result):
        """JSON-ready view of an op's result, with a status."""
        if isinstance(result, self.budget_errors):
            return {"status": "budget", "detail": str(result)}
        if isinstance(result, self.refusals):
            return {"status": "refused", "condition": result.condition,
                    "detail": result.detail}
        if isinstance(result, Exception):
            return {"status": "error", "detail": f"{type(result).__name__}: {result}"}
        kind = op["kind"]
        if kind == "irred":
            flag, cert = result
            return {"status": "ok", "flag": flag, **_cert(cert)}
        if kind in ("fixdiv", "generic"):
            return {"status": "ok", "candidates": list(result.candidates),
                    "confirmed": list(result.confirmed),
                    "witnesses": {str(p): list(w) for p, w in result.witnesses.items()},
                    "delta": result.delta, "content": result.content}
        if kind == "nonvanishing":
            return {"status": "ok", "point": list(result)}
        if kind == "copsch":
            return {"status": "ok", "verdict": result.verdict,
                    "candidates": list(result.candidates),
                    "refuted": {str(p): [list(t), i] for p, (t, i) in result.refuted.items()},
                    "violations": list(result.violations)}
        if kind == "progression":
            return {"status": "ok", "delta": str(result.delta),
                    "bad_primes": list(result.bad_primes), "omega": result.omega,
                    "base_point": list(result.base_point)}
        if kind == "density":
            return {"status": "ok", "total": result.total, "members": result.members,
                    "non_members": result.non_members, "reasons": result.reasons}
        if kind == "search":
            return {"status": "ok", "members": [
                {"t": list(sp.t), "content": sp.content,
                 "certs": [_cert(c) for c in sp.certificates]} for sp in result]}
        if kind == "cli":
            code, out, err = result
            status = {0: "ok", 1: "refused", 3: "budget"}.get(code, "error")
            return {"status": status, "exit": code,
                    "report": _ELAPSED.sub("elapsed_ms = X", out), "stderr": err}
        raise ValueError(kind)


def _cert(cert):
    return {"verdict": cert.verdict, "method": cert.method, "prime": cert.prime,
            "point": cert.point, "detail": cert.detail,
            "factor": None if cert.factor is None else str(cert.factor)}


def peak_rss_mb():
    """This process's peak RSS.

    Linux carries ru_maxrss across fork and exec, so a worker started by a
    parent that has loaded sympy would report the parent's size.  VmHWM
    belongs to the address space that exec created.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_corpus(ops, workload, seed, rounds, emit, seconds=0.0, min_passes=1, tracer=None,
               tag="run"):
    """Run the corpus (rounds 0..rounds-1) in passes until `seconds` of op time.

    Inputs are prepared once, before the first pass.  At least `min_passes`
    passes are made, and a run stops only between passes, so every op of
    the corpus is timed equally often.  An untraced run is timed under a
    probe.Sampler: each op is emitted with its time less the probe time
    inside it (`ms`) and the probe it is scaled by (`probe_ms`).  With a
    tracer no probes are taken, so none falls inside a span.  Returns (ops
    run, summed op seconds, passes).
    """
    batch = [op for r in range(rounds) for op in workloads.round_ops(workload, seed, r)]
    calls = [ops.prepare(op) for op in batch]
    sampler = Sampler() if tracer is None else None
    wall, passes = 0.0, 0
    with sampler or contextlib.nullcontext():
        while passes < min_passes or wall < seconds:
            timed = []
            for op, call in zip(batch, calls):
                if tracer is not None:
                    with tracer.op(op):
                        timed.append(ops.run(call))
                else:
                    timed.append(ops.run(call))
            if sampler is not None:
                sampler.tick()  # a probe after the last op
            for op, (t0, t1, result) in zip(batch, timed):
                record = {"pass": f"{tag}{passes}", "id": op["id"],
                          "out": ops.encode(op, result)}
                if sampler is not None:
                    dt, record["probe_ms"] = sampler.op(t0, t1)
                else:
                    dt = t1 - t0
                record["ms"] = dt * 1e3
                wall += dt
                emit(record)
            passes += 1
    return len(batch) * passes, wall, passes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True, help="corpus size in rounds")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    lib = import_library(args.src)
    ops = Ops(lib)
    out = sys.stdout

    def emit(record):
        out.write(json.dumps(record, sort_keys=True) + "\n")

    if not args.trace:
        count, wall, passes = run_corpus(ops, args.workload, args.seed, args.rounds, emit,
                                         seconds=args.seconds, min_passes=MIN_PASSES)
        emit({"done": True, "ops": count, "wall_s": wall, "passes": passes,
              "rss_mb": peak_rss_mb()})
        return 0

    import tracer as tracing

    # One pass untraced, then one traced: the wall ratio is the overhead.
    count, plain, _ = run_corpus(ops, args.workload, args.seed, args.rounds, emit,
                                 tag="plain")
    tr = tracing.Tracer(lib)
    tr.install()
    try:
        _, traced, _ = run_corpus(ops, args.workload, args.seed, args.rounds, emit,
                                  tracer=tr, tag="traced")
    finally:
        tr.uninstall()
    emit({"done": True, "ops": count, "wall_s": traced, "plain_wall_s": plain,
          "passes": 1, "trace": tr.summary()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
