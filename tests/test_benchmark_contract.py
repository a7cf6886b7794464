"""The benchmark's tracer and gate know the library's names and certificates."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import schinzel
from schinzel.factorlab import is_irreducible_z
from schinzel.polyring import parse_poly

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for metric, modname, attr in _load("tracer").TARGETS:
        module = importlib.import_module(f"schinzel.{modname}")
        assert getattr(schinzel, modname) is module, metric
        if attr.startswith("MPoly."):
            # the tracer wraps the entry of the class dict itself
            assert attr.split(".", 1)[1] in module.MPoly.__dict__, metric
        else:
            assert callable(getattr(module, attr, None)), metric


@pytest.mark.parametrize("text, verdict", [("x^2 - 1", "reducible"), ("x^2 - 399", "irreducible")])
def test_gate_accepts_root_certificates(monkeypatch, text, verdict):
    pytest.importorskip("sympy")
    monkeypatch.setattr(sys, "path", list(sys.path))  # the worker puts its directory first
    check, worker = _load("check"), _load("worker")
    flag, cert = is_irreducible_z(parse_poly(text, ("x",)))
    assert (cert.verdict, cert.method) == (verdict, "root")
    op = {"kind": "irred", "poly": text, "names": ["x"]}
    assert check.check(op, {"status": "ok", "flag": flag, **worker._cert(cert)}) == []


def test_gate_accepts_hilbert_results(monkeypatch):
    # what the benchmark reads of a search member (t, content, certificates)
    # and of a density report passes the closed-form gate
    pytest.importorskip("sympy")
    monkeypatch.setattr(sys, "path", list(sys.path))
    check, worker, workloads = _load("check"), _load("worker"), _load("workloads")
    ops = worker.Ops(schinzel)
    seen = set()
    for op in workloads.hilbert_round(1, 0):
        out = ops.encode(op, ops.prepare(op)())
        assert out["status"] == "ok", out
        assert check.check(op, out) == [], op
        if op["kind"] == "search":
            assert out["members"] and all(m["certs"] for m in out["members"])
        seen.add(op["kind"])
    assert seen == {"density", "search"}
