"""Benchmark of the exact verdict path: irred, residues, hilbert and cli.

One run of one workload, the command BENCHMARK.json names:

    python3 perfbench/run.py --workload irred --seed 1 --seconds 10 --trace 0

With `--trace 0` it measures the end-to-end metrics with tracing off; with
`--trace 1` it runs the corpus once untraced and once traced, and
reports the per-layer metrics and the tracing overhead.  Every op's result
is checked (see check.py); a wrong result makes the command exit 1.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.

All four workloads, with a table of every metric:

    python3 perfbench/run.py --all --seed 1 [--trace 1] [--out results.json]

A/B comparison of two source trees with identical benchmark code, in
pairs that alternate which side runs first:

    python3 perfbench/run.py --ab ../parent-checkout --workload irred

The library is imported from `src/` of the checkout that holds this file
(or `--src`), never from an installed copy.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import probe  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 7
AB_PAIRS = 10
# Corpus size in rounds.  An untraced run repeats the corpus in passes for
# --seconds; a traced run makes one untraced and one traced pass.
CORPUS_ROUNDS = {"irred": 40, "residues": 12, "hilbert": 16, "cli": 1}
TAIL_BLOCK = 80  # op_tail_ms is taken per block of this many corpus ops
WORKER_TIMEOUT_S = 170
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run (missing tree, worker crash)."""


def worker_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # identical set orders, so traced call counts repeat
    return env


def setup_seconds(src):
    """Median time of a fresh process that imports schinzel and schinzel.cli.

    Returns (scaled to the nominal machine speed, raw).
    """
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import schinzel, schinzel.cli")
    raw, scaled = [], []
    for rep in range(SETUP_REPS + 1):
        before = probe.probe_ms()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, src], env=worker_env(),
                              capture_output=True, text=True, timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"importing schinzel failed:\n{proc.stderr}")
        if rep:  # the first import may compile bytecode; users pay that once
            raw.append(dt)
            scaled.append(probe.scale(dt, (before + probe.probe_ms()) / 2))
    return statistics.median(scaled), statistics.median(raw)


def run_worker(src, workload, seed, seconds=0.0, trace=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--src", src,
           "--workload", workload, "--seed", str(seed),
           "--rounds", str(CORPUS_ROUNDS[workload]), "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    if not lines or not lines[-1].get("done"):
        raise BenchError("worker ended without its summary line")
    return lines[:-1], lines[-1]


def block_tail(latencies):
    """`tail` of each block of TAIL_BLOCK consecutive ops (the last block takes
    the remainder); the median over blocks, the percentile, ops beyond."""
    n_blocks = max(1, len(latencies) // TAIL_BLOCK)
    size = len(latencies) // n_blocks
    tails = [tail(latencies[i * size:(i + 1) * size if i < n_blocks - 1 else None])
             for i in range(n_blocks)]
    return statistics.median(t[0] for t in tails), tails[0][1], tails[0][2]


def tail(latencies):
    """Highest percentile with at least 10 ops beyond it.

    Returns (value, percentile, ops beyond).  With 10 ops or fewer no
    percentile qualifies and the maximum is returned with 0 beyond.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def corpus_outcomes(records):
    """Each corpus op's result from its first pass, in corpus order.

    An untraced run repeats the corpus for as many passes as fit in its
    time, and check_records requires every pass to repeat the first.  So
    the corpus op, not the pass, is the unit of `attempted` and `failed`:
    the counts depend on the seed alone, not on the machine's speed.
    """
    first = {}
    for rec in records:
        first.setdefault(rec["id"], rec["out"])
    return list(first.values())


def accounting(outs):
    """Counts by outcome.  An op fails on budget exhaustion, CLI exit 2 or 3, or
    an unexpected exception.  A refusal is an answer, not a failure."""
    statuses = [o["status"] for o in outs]
    failed = statuses.count("error") + statuses.count("budget")
    return {
        "attempted": len(outs),
        "failed": failed,
        "errors": statuses.count("error"),
        "budget": statuses.count("budget"),
        "refused": statuses.count("refused"),
        "failed_ratio": failed / len(outs),
    }


def check_records(workload, seed, records):
    """Check the first pass against regenerated inputs; later passes must repeat it.

    Returns the problems found.
    """
    import check

    ops = {}
    for r in range(CORPUS_ROUNDS[workload]):
        for op in workloads.round_ops(workload, seed, r):
            ops[op["id"]] = op
    problems, first = [], {}
    for rec in records:
        if rec["id"] not in first:
            first[rec["id"]] = rec["out"]
            for problem in check.check(ops[rec["id"]], rec["out"]):
                problems.append(f"op {rec['id']}: {problem}")
        elif rec["out"] != first[rec["id"]]:
            problems.append(f"op {rec['id']} ({rec['pass']}): result differs from the first pass")
    if set(first) != set(ops):
        problems.append("some ops of the corpus produced no result")
    return problems


def end_to_end(latencies, setup, rss_mb):
    """The end-to-end metrics from per-op latencies (ms) in corpus order."""
    value, pct, beyond = block_tail(latencies)
    metrics = {
        "setup_s": setup,
        "ops_per_s": len(latencies) / (sum(latencies) / 1e3),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": value,
        "peak_rss_mb": rss_mb,
    }
    return metrics, pct, beyond


def measure(src, workload, seed, seconds):
    """One untraced run: end-to-end metrics, accounting and check problems.

    The corpus repeats for the whole run.  An op's latency is the median of
    its passes, each scaled to the nominal machine speed by the probes
    taken while it ran (see probe.py).  The unscaled figures are returned
    in `info`.
    """
    setup, setup_raw = setup_seconds(src)
    records, done = run_worker(src, workload, seed, seconds=seconds)
    scaled, raw = {}, {}
    for r in records:
        scaled.setdefault(r["id"], []).append(probe.scale(r["ms"], r["probe_ms"]))
        raw.setdefault(r["id"], []).append(r["ms"])
    latency = {k: statistics.median(v) for k, v in scaled.items()}
    raw_latency = {k: statistics.median(v) for k, v in raw.items()}
    metrics, pct, beyond = end_to_end(list(latency.values()), setup, done["rss_mb"])
    raw_metrics, _, _ = end_to_end(list(raw_latency.values()), setup_raw, done["rss_mb"])
    info = dict(accounting(corpus_outcomes(records)), tail_percentile=pct,
                tail_ops_beyond=beyond, corpus=len(scaled), passes=done["passes"],
                wall_s=done["wall_s"], raw=raw_metrics,
                probe_ms=statistics.median(r["probe_ms"] for r in records),
                latency_ms=latency, raw_latency_ms=raw_latency)
    return metrics, info, check_records(workload, seed, records)


def measure_traced(src, workload, seed):
    """One traced run: per-layer metrics, overhead ratio, check problems."""
    records, done = run_worker(src, workload, seed, trace=True)
    traced = [r for r in records if r["pass"].startswith("traced")]
    problems = check_records(workload, seed, traced + [
        r for r in records if r["pass"].startswith("plain")])
    info = accounting(corpus_outcomes(traced))
    metrics = dict(done["trace"]["metrics"])
    metrics["trace.overhead_ratio"] = done["wall_s"] / done["plain_wall_s"]
    metrics["ops.failed_ratio"] = info["failed_ratio"]
    return metrics, info, problems, done["trace"]


def per_layer_units():
    units = tracer.metric_units()
    units["trace.overhead_ratio"] = "ratio"
    units["ops.failed_ratio"] = "ratio"
    return units


def resolve_src(args):
    src = os.path.abspath(args.src or os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(src, "schinzel", "__init__.py")):
        raise BenchError(f"no schinzel package under {src}; run from a source checkout")
    return src


def single_run(args, src):
    """One workload run; prints the result line and returns the exit code."""
    if args.trace:
        metrics, info, problems, _ = measure_traced(src, args.workload, args.seed)
        units = per_layer_units()
    else:
        metrics, info, problems = measure(src, args.workload, args.seed, args.seconds)
        units = END_TO_END
        print(f"# {args.workload} seed={args.seed}: corpus of {info['corpus']} ops, "
              f"{info['passes']} passes, op_tail_ms is p{info['tail_percentile']:.2f} "
              f"({info['tail_ops_beyond']} ops beyond, per block of up to "
              f"{2 * TAIL_BLOCK - 1} ops), failed_ratio={info['failed_ratio']:.4f} "
              f"(budget {info['budget']}, errors {info['errors']}, "
              f"refusals {info['refused']})")
        print(f"# unscaled (probe median {info['probe_ms']:.3f} ms, nominal "
              f"{probe.NOMINAL_MS} ms): " + ", ".join(
                  f"{k}={v:.4g}" for k, v in info["raw"].items()))
    for p in problems[:20]:
        print(f"# WRONG {p}")
    result = {
        "correct": not problems,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


def environment(src):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        proc = subprocess.run(["git", "-C", os.path.dirname(src), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "platform": platform.platform()}


def baseline_readout(seed, latency, raw_latency, traced):
    """The ROADMAP baseline jobs of the cli workload: time, exit code and, when
    traced, the share of the job's traced time that each function's self
    time takes (its top five)."""
    import check

    expected = check.expected_reports()
    out = {}
    for op in workloads.round_ops("cli", seed, 0):
        if not op.get("baseline"):
            continue
        job = {"argv": op["argv"], "exit": expected[op["job"]]["exit"],
               "ms": latency[op["id"]], "raw_ms": raw_latency[op["id"]]}
        if traced is not None:
            table = traced["details"].get(op["job"], {})
            total = sum(table.values())
            job["self_share"] = {name: v / total for name, v in sorted(
                table.items(), key=lambda kv: -kv[1])[:5]} if total else {}
        out[op["job"]] = job
    return out


def all_run(args, src):
    """Every workload, untraced and (with --trace 1) traced; a table and a JSON file."""
    results = {"environment": environment(src), "seed": args.seed,
               "seconds": args.seconds, "params": workloads.PARAMS,
               "why": workloads.WHY, "workloads": {}}
    wrong = False
    print(f"{'workload':9} {'setup_s':>8} {'ops_per_s':>10} {'op_p50_ms':>10} "
          f"{'op_tail_ms':>18} {'failed_ratio':>13} {'peak_rss_mb':>12}")
    for w in workloads.WORKLOADS:
        metrics, info, problems = measure(src, w, args.seed, args.seconds)
        latency, raw_latency = info.pop("latency_ms"), info.pop("raw_latency_ms")
        entry = {"metrics": metrics, "info": info, "problems": problems}
        tail_label = f"{metrics['op_tail_ms']:.1f} (p{info['tail_percentile']:.1f})"
        print(f"{w:9} {metrics['setup_s']:8.3f} {metrics['ops_per_s']:10.2f} "
              f"{metrics['op_p50_ms']:10.2f} {tail_label:>18} "
              f"{info['failed_ratio']:13.4f} {metrics['peak_rss_mb']:12.1f}")
        if args.trace:
            layer, tinfo, tproblems, trace = measure_traced(src, w, args.seed)
            entry["traced"] = {"metrics": layer, "info": tinfo, "problems": tproblems,
                               "self_s": trace["self_s"], "details": trace["details"],
                               "spans": trace["spans"]}
            problems = problems + tproblems
        if w == "cli":
            results["baseline"] = baseline_readout(args.seed, latency, raw_latency,
                                                   entry.get("traced"))
        wrong = wrong or bool(problems)
        for p in problems[:20]:
            print(f"# WRONG {w}: {p}")
        results["workloads"][w] = entry
    print("units: setup_s s, ops_per_s 1/s, op_p50_ms ms, op_tail_ms ms "
          "(percentile in brackets), failed_ratio ratio, peak_rss_mb MB")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if wrong else 0


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def ab_run(args, src):
    """Pairs of runs of two source trees, alternating which runs first.

    A pair counts as a win for A only if A has no more failed ops than B, so
    a change that fails more ops (say, gives up earlier) gains nothing.
    """
    other = os.path.abspath(os.path.join(args.ab, "src"))
    if not os.path.isfile(os.path.join(other, "schinzel", "__init__.py")):
        raise BenchError(f"no schinzel package under {other}")
    sides = {"A": src, "B": other}
    runs = {"A": [], "B": []}
    failed = {"A": [], "B": []}
    wrong = False
    for i in range(AB_PAIRS):
        seed = args.seed + i
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for side in order:
            metrics, info, problems = measure(sides[side], args.workload, seed,
                                              args.seconds)
            wrong = wrong or bool(problems)
            runs[side].append(metrics)
            failed[side].append(info["failed_ratio"])
            print(f"# pair {i + 1} seed {seed} side {side}: failed {info['failed']} "
                  f"of {info['attempted']} " + json.dumps(
                      {k: round(v, 4) for k, v in metrics.items()}))
    print(f"A = {src}\nB = {other}")
    fair = [fa <= fb for fa, fb in zip(failed["A"], failed["B"])]
    print(f"failed_ratio A median {statistics.median(failed['A']):.4f}  "
          f"B median {statistics.median(failed['B']):.4f}  "
          f"A fails more ops in {fair.count(False)}/{len(fair)} pairs")
    for name in END_TO_END:
        a = [m[name] for m in runs["A"]]
        b = [m[name] for m in runs["B"]]
        better_lower = name != "ops_per_s"
        wins = sum(ok and ((x < y) if better_lower else (x > y))
                   for ok, x, y in zip(fair, a, b))
        qa, qb = quartiles(a), quartiles(b)
        print(f"{name:12} A median {qa[1]:.4f} [{qa[0]:.4f}, {qa[2]:.4f}]  "
              f"B median {qb[1]:.4f} [{qb[0]:.4f}, {qb[2]:.4f}]  "
              f"A better in {wins}/{len(a)} pairs")
    return 1 if wrong else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", help="source tree holding the schinzel package")
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--out", help="with --all: write the results as JSON here")
    ap.add_argument("--ab", metavar="CHECKOUT", help="compare with another checkout")
    args = ap.parse_args(argv)
    try:
        src = resolve_src(args)
        if args.all:
            return all_run(args, src)
        if not args.workload:
            ap.error("--workload is required unless --all is given")
        if args.ab:
            return ab_run(args, src)
        return single_run(args, src)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
