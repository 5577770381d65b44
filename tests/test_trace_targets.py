"""The traced benchmark run (``perfbench/run.py --trace 1``) finds every function it wraps."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_resolves_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked out
    importlib.import_module("toruseig.cli")
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    wrapped = {(mod.__name__, attr) for mod, attr, _, _ in tracer._swaps}
    for module_name, func_name, _, _ in spans.TARGETS:
        assert (module_name, func_name) in wrapped
