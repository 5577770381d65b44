"""Spans around the public functions of each ``toruseig`` module.

The tracer replaces a function at every module attribute that holds it, so
both the command layer (``toruseig.cli.from_series``) and a module's own
internal calls (``toruseig.eigensolver.determinant`` from the scan) go
through the wrapper.  Private ``_`` functions are never wrapped; work they do
is derived from the arguments of the public call that drives them.

Spans are kept in flat in-memory arrays (name, start, end, parent,
operation) and written out once, when the run ends.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter

from toruseig.oracles import OracleConfig


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rk_steps_per_half_loop(args, kwargs, index):
    config = _arg(args, kwargs, index, "config") or OracleConfig()
    return config.rk_step_count


def _march_coeffs(counters, args, kwargs, _result):
    # march_five_safe(alpha, m, beta, parity, order, seeds)
    counters["recursion.march.coeffs"] += _arg(args, kwargs, 4, "order") + 1


def _march_three_coeffs(counters, args, kwargs, _result):
    # march_three_safe(alpha, beta, parity, order, seed)
    counters["recursion.march.coeffs"] += _arg(args, kwargs, 3, "order") + 1


def _scan_outcome(counters, _args, _kwargs, result):
    accepted, rejected = result
    counters["eigensolver.accepted"] += len(accepted)
    counters["eigensolver.rejected"] += len(rejected)


def _mismatch_steps(counters, args, kwargs, _result):
    # two fixed-step integrations (forward and backward) per mismatch
    counters["oracles.rk.steps"] += 2 * _rk_steps_per_half_loop(args, kwargs, 4)


def _sample_steps(counters, args, kwargs, _result):
    # rk_sample integrates from the launch point -pi/2 to each theta, with
    # steps proportional to the arc length
    per_half = _rk_steps_per_half_loop(args, kwargs, 5)
    steps = 0
    for theta in _arg(args, kwargs, 4, "thetas"):
        span = abs(theta + math.pi / 2)
        if span != 0.0:
            steps += max(2, int(round(per_half * span / math.pi)))
    counters["oracles.rk_sample.steps"] += steps
    counters["oracles.rk.steps"] += steps


def _fd_bytes(counters, args, kwargs, _result):
    # dense float64 matrices at the grid and at its half
    n = _arg(args, kwargs, 2, "grid_size", 1024)
    counters["oracles.fd_spectrum.matrix_bytes"] += 8 * (n * n + (n // 2) ** 2)


# (module, function, span name, counter hook)
TARGETS = (
    ("toruseig.cli", "main", "cli.main", None),
    ("toruseig.eigensolver", "find_eigenvalues", "eigensolver.find_eigenvalues", None),
    ("toruseig.eigensolver", "determinant_scan", "eigensolver.determinant_scan", _scan_outcome),
    ("toruseig.eigensolver", "determinant", "eigensolver.determinant", None),
    ("toruseig.eigensolver", "coefficient_polynomials", "eigensolver.coefficient_polynomials", None),
    ("toruseig.eigensolver", "roots_warm_started", "eigensolver.roots_warm_started", None),
    ("toruseig.recursion", "march_five_safe", "recursion.march", _march_coeffs),
    ("toruseig.recursion", "march_three_safe", "recursion.march", _march_three_coeffs),
    ("toruseig.recursion", "residual", "recursion.residual", None),
    ("toruseig.recursion", "reconstruct", "recursion.reconstruct", None),
    ("toruseig.oracles", "rk_find_eigenvalue", "oracles.rk_find_eigenvalue", None),
    ("toruseig.oracles", "rk_mismatch", "oracles.rk_mismatch", _mismatch_steps),
    ("toruseig.oracles", "rk_sample", "oracles.rk_sample", _sample_steps),
    ("toruseig.oracles", "fd_spectrum", "oracles.fd_spectrum", _fd_bytes),
    ("toruseig.wavefunction", "from_series", "wavefunction.from_series", None),
    ("toruseig.wavefunction", "normalize", "wavefunction.normalize", None),
    ("toruseig.wavefunction", "evaluate", "wavefunction.evaluate", None),
    ("toruseig.wavefunction", "compare_scaled", "wavefunction.compare_scaled", None),
)


class Tracer:
    """Records spans while installed; install() and uninstall() swap the
    wrapped functions in and out of every ``toruseig`` module."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._swaps: list[tuple[object, str, object, object]] = []
        name_ids: dict[str, int] = {}
        for module_name, func_name, span_name, hook in TARGETS:
            original = getattr(sys.modules[module_name], func_name)
            if span_name not in name_ids:
                name_ids[span_name] = len(self.names)
                self.names.append(span_name)
            wrapper = self._wrap(original, name_ids[span_name], hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "toruseig" and not mod_name.startswith("toruseig."):
                    continue
                for attr, value in vars(mod).items():
                    if value is original:
                        self._swaps.append((mod, attr, original, wrapper))

    def _wrap(self, fn, name_id, hook):
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod, attr, _, wrapper in self._swaps:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._swaps:
            setattr(mod, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name."""
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        return {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(own[i])}
                for i, n in enumerate(self.names)}

    def write(self, path: str, ops: list[list[str]]) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            op_argv=np.array([" ".join(a) for a in ops]),
        )
