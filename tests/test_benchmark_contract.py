"""The benchmark's tracer patches library functions by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

import schinzel

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for metric, modname, attr in _tracer().TARGETS:
        module = importlib.import_module(f"schinzel.{modname}")
        assert getattr(schinzel, modname) is module, metric
        if attr.startswith("MPoly."):
            # the tracer wraps the entry of the class dict itself
            assert attr.split(".", 1)[1] in module.MPoly.__dict__, metric
        else:
            assert callable(getattr(module, attr, None)), metric
