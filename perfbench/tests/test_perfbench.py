"""Tests of the benchmark itself: run with `python3 -m pytest perfbench/tests -q`."""

import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import check  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return worker.import_library(SRC)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(name):
    first = [workloads.round_ops(name, 7, r) for r in range(2)]
    again = [workloads.round_ops(name, 7, r) for r in range(2)]
    other = [workloads.round_ops(name, 8, r) for r in range(2)]
    assert first == again
    assert first != other
    assert first[0] != first[1]
    # the strata of a round do not depend on the seed
    assert [op["kind"] for op in first[0]] == [op["kind"] for op in other[0]]


def test_generated_polynomials_parse(lib):
    for name in ("irred", "residues", "hilbert"):
        for op in workloads.round_ops(name, 3, 0):
            texts = [op["poly"]] if "poly" in op else op["polys"]
            for text in texts:
                assert not lib.polyring.parse_poly(text, tuple(op["names"])).is_zero()


def test_tail_is_highest_percentile_with_ten_ops_beyond():
    assert run.tail(list(range(1, 101))) == (90, 90.0, 10)
    value, pct, beyond = run.tail(list(range(1, 12)))
    assert (value, beyond) == (1, 10) and pct == pytest.approx(100 / 11)
    assert run.tail([5.0, 1.0, 3.0]) == (5.0, 100.0, 0)
    # order of the samples does not matter
    assert run.tail(list(range(200, 0, -1)))[0] == 190


def test_tail_over_blocks_is_the_median_of_block_tails():
    # 250 ops make blocks of 83, 83 and 84; their tails are 73, 156 and 240
    value, pct, beyond = run.block_tail(list(range(1, 251)))
    assert value == 156
    assert beyond == 10 and pct == pytest.approx(100 * 73 / 83)
    assert run.block_tail(list(range(1, 31)))[0] == 20  # one block below TAIL_BLOCK ops


def test_probe_scaling():
    assert probe.scale(10.0, 2 * probe.NOMINAL_MS) == pytest.approx(5.0)
    assert probe.probe_ms() > 0


def test_sampler_takes_probe_time_out_and_integrates_speed():
    s = probe.Sampler()
    # probes of 1 ms every second; an op from 2.5 s to 6.5 s holds four of them
    for k in range(10):
        s.starts.append(float(k))
        s.ends.append(k + 0.001)
        s.probes.append(1.0 if k < 4 else 0.5)
    dt, ms = s.op(2.5, 6.5)
    assert dt == pytest.approx(4.0 - 4 * 0.001)
    # all ten count: three on each side and the four inside
    assert ms == pytest.approx(10 / (4 / 1.0 + 6 / 0.5))


def test_sampler_probes_during_an_op():
    with probe.Sampler() as s:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3.5 * probe.PROBE_EVERY_S:
            pass
        t1 = time.perf_counter()
        s.tick()
    dt, ms = s.op(t0, t1)
    assert len(s.probes) >= 4  # the first, two or more inside, the last
    assert 0 < dt < t1 - t0 and ms > 0


def test_failure_versus_refusal_accounting():
    outs = [{"status": s} for s in ("ok", "ok", "refused", "budget", "error", "ok")]
    acc = run.accounting(outs)
    assert acc["attempted"] == 6
    assert acc["refused"] == 1
    assert acc["errors"] == 1
    assert acc["failed"] == 2  # the budget exhaustion and the error
    assert acc["failed_ratio"] == pytest.approx(2 / 6)
    # repeated passes over the corpus count each op once
    records = [{"pass": f"plain{k}", "id": str(i), "out": out}
               for k in range(4) for i, out in enumerate(outs)]
    assert run.accounting(run.corpus_outcomes(records)) == acc


def test_worker_classifies_outcomes(lib):
    ops = worker.Ops(lib)
    budget = lib.factorlab.BudgetError("over")
    refusal = lib.polyschinzel.SchinzelRefusal("(b)", "detail")
    assert ops.encode({"kind": "irred"}, budget)["status"] == "budget"
    assert ops.encode({"kind": "irred"}, lib.fixdiv.BudgetExceeded("x"))["status"] == "budget"
    assert ops.encode({"kind": "irred"}, refusal)["status"] == "refused"
    assert ops.encode({"kind": "irred"}, ValueError("bug"))["status"] == "error"
    for code, status in ((0, "ok"), (1, "refused"), (2, "error"), (3, "budget")):
        out = ops.encode({"kind": "cli"}, (code, "elapsed_ms = 12\n", ""))
        assert out["status"] == status
        assert out["report"] == "elapsed_ms = X\n"


def test_checker_rejects_wrong_results(lib):
    ops = worker.Ops(lib)
    for op in workloads.round_ops("irred", 2, 0)[:6]:
        out = ops.encode(op, ops.run(ops.prepare(op))[-1])
        assert check.check(op, out) == []
        if out["status"] == "ok":
            assert check.check(op, dict(out, flag=not out["flag"])) != []
    density = workloads.round_ops("hilbert", 2, 0)[0]
    out = ops.encode(density, ops.run(ops.prepare(density))[-1])
    assert check.check(density, out) == []
    assert check.check(density, dict(out, members=out["members"] + 1)) != []
    fixdiv = workloads.round_ops("residues", 2, 0)[1]
    out = ops.encode(fixdiv, ops.run(ops.prepare(fixdiv))[-1])
    assert check.check(fixdiv, out) == []
    assert check.check(fixdiv, dict(out, confirmed=[], witnesses={
        str(p): [0] * len(fixdiv["params"]) for p in out["candidates"]})) != []


def test_cli_expected_reports_match_their_jobs():
    expected = check.expected_reports()
    jobs = {op["job"]: op["argv"] for op in workloads.cli_round(0, 0)}
    for job, want in expected.items():
        assert jobs[job] == want["argv"]
    assert {expected[j]["exit"] for j in ("compose_d222", "hilbert_y16", "irred_x16")} == {3}


def test_tracer_patches_import_sites_and_restores(lib):
    import tracer

    original = lib.hilbert.is_irreducible_q
    tr = tracer.Tracer(lib)
    tr.install()
    try:
        assert lib.hilbert.is_irreducible_q is not original
        assert lib.hilbert.is_irreducible_q is lib.factorlab.is_irreducible_q
        assert lib.is_irreducible_q is lib.factorlab.is_irreducible_q
    finally:
        tr.uninstall()
    assert lib.hilbert.is_irreducible_q is original


def test_tracer_self_time_excludes_children(lib):
    import tracer

    tr = tracer.Tracer(lib)
    tr.install()
    try:
        P = lib.parse_poly("(T^2-T)*Y + T^2 - T - 2", ("T", "Y"))
        with tr.op({}):
            lib.fixed_prime_divisors(P, lib.VarSplit(("T",), ("Y",)))
    finally:
        tr.uninstall()
    m = tr.summary()["metrics"]
    assert m["fixdiv.fixed_prime_divisors.calls"] == 1
    assert m["fixdiv.is_fixed_prime.calls"] == 1
    assert m["fixdiv.residue_tuples"] == 2  # residues 0 and 1 mod 2
    assert m["fixdiv.confirmed"] == 1
    busy = m["fixdiv.fixed_prime_divisors.busy_s"]
    assert 0 <= m["fixdiv.fixed_prime_divisors.self_s"] < busy
    assert m["fixdiv.is_fixed_prime.busy_s"] <= busy


def _traced_calls():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--src", SRC,
         "--workload", "residues", "--seed", "4", "--rounds", "1", "--trace"],
        capture_output=True, text=True, timeout=120, env=run.worker_env())
    assert proc.returncode == 0, proc.stderr
    import json

    done = json.loads(proc.stdout.splitlines()[-1])
    return {k: v for k, v in done["trace"]["metrics"].items()
            if not k.endswith(("_s", "_ratio", "_share"))}


def test_traced_call_counts_repeat_exactly():
    first = _traced_calls()
    assert first["polyring.substitute.calls"] > 0
    assert first == _traced_calls()


def test_missing_source_tree_fails(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "irred",
         "--seed", "1", "--seconds", "1", "--trace", "0", "--src", str(tmp_path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
