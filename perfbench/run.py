"""Benchmark for toruseig: one workload per run, in a fresh worker process.

    python3 perfbench/run.py --workload {tables,sweep,verify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.

Per run this script (1) checks its own output checker, (2) generates the
pass and its reference answers from the seed, outside any timing, (3)
launches set-up probes and then the worker with BLAS thread pools capped
at the CPUs available, and (4) checks every output and prints the
metrics.  The last stdout line is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics from a traced
run (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import selftest  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _fail(msg: str, code: int) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return code


def _worker_env(src: str, nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, HERE])
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env


def _launch(job: dict, env: dict, timeout: float) -> tuple[float, dict]:
    """Start a worker, feed it the job, return (launch time, its report)."""
    launched = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, text=True)
    try:
        out, err = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-800:]}")
    return launched, json.loads(out.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """Value with ten samples beyond it, and its percentile.

    With fewer than eleven samples no value has ten beyond it; the
    smallest is returned with percentile 0.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (n - 10) / n if n > 10 else 0.0


def end_to_end(report: dict, setups: list[float], quality: dict,
               pass_len: int) -> dict:
    times = [r["seconds"] for r in report["records"]]
    by_index: dict[int, list[float]] = {}
    for r in report["records"]:
        by_index.setdefault(r["index"], []).append(r["seconds"])
    tail_s, _ = tail(times)
    # Each operation of the pass counts once, as in wall_s, so the share of
    # cheap and costly operations in a partly repeated pass cannot move it.
    op_medians = [statistics.median(by_index[i]) for i in range(pass_len)]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(op_medians), "s"),
        "ops_per_s": (len(times) / report["elapsed"], "1/s"),
        "op_p50_ms": (1e3 * statistics.median(op_medians), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "ok_frac": (quality["ok_frac"], "ratio"),
        "states_found_frac": (quality["states_found_frac"], "ratio"),
    }


def _safe_ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(report: dict, quality: dict) -> dict:
    tracing = report["tracing"]
    passes = tracing["passes"]
    spans = tracing["spans"]
    counters = tracing["counters"]

    def calls(name):
        return spans[name]["calls"] / passes

    def self_s(name):
        return spans[name]["self_s"] / passes

    def module_self(prefix):
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(prefix)) / passes

    def counter(name):
        return counters.get(name, 0.0) / passes

    wall = {True: 0.0, False: 0.0}
    for r in report["records"]:
        wall[r["traced"]] += r["seconds"]
    accepted = counters.get("eigensolver.accepted", 0.0)
    out = {
        "eigensolver.find_eigenvalues.calls": (calls("eigensolver.find_eigenvalues"), "count"),
        "eigensolver.find_eigenvalues.self_s": (self_s("eigensolver.find_eigenvalues"), "s"),
        "eigensolver.determinant_scan.calls": (calls("eigensolver.determinant_scan"), "count"),
        "eigensolver.determinant_scan.self_s": (self_s("eigensolver.determinant_scan"), "s"),
        "eigensolver.determinant.calls": (calls("eigensolver.determinant"), "count"),
        "eigensolver.determinant.self_s": (self_s("eigensolver.determinant"), "s"),
        "eigensolver.determinant.per_state": (
            _safe_ratio(spans["eigensolver.determinant"]["calls"], accepted), "ratio"),
        "eigensolver.rejected_per_state": (
            _safe_ratio(counters.get("eigensolver.rejected", 0.0), accepted), "ratio"),
        "eigensolver.self_s": (module_self("eigensolver."), "s"),
        "recursion.march.calls": (calls("recursion.march"), "count"),
        "recursion.march.self_s": (self_s("recursion.march"), "s"),
        "recursion.march.coeffs": (counter("recursion.march.coeffs"), "count"),
        "recursion.residual.calls": (calls("recursion.residual"), "count"),
        "recursion.residual.self_s": (self_s("recursion.residual"), "s"),
        "recursion.reconstruct.calls": (calls("recursion.reconstruct"), "count"),
        "recursion.reconstruct.self_s": (self_s("recursion.reconstruct"), "s"),
        "recursion.self_s": (module_self("recursion."), "s"),
        "oracles.rk_find_eigenvalue.calls": (calls("oracles.rk_find_eigenvalue"), "count"),
        "oracles.rk_find_eigenvalue.self_s": (self_s("oracles.rk_find_eigenvalue"), "s"),
        "oracles.rk_mismatch.calls": (calls("oracles.rk_mismatch"), "count"),
        "oracles.rk_mismatch.self_s": (self_s("oracles.rk_mismatch"), "s"),
        "oracles.rk_mismatch.per_root": (
            _safe_ratio(spans["oracles.rk_mismatch"]["calls"],
                        spans["oracles.rk_find_eigenvalue"]["calls"]), "ratio"),
        "oracles.rk.steps": (counter("oracles.rk.steps"), "count"),
        "oracles.rk_sample.calls": (calls("oracles.rk_sample"), "count"),
        "oracles.rk_sample.self_s": (self_s("oracles.rk_sample"), "s"),
        "oracles.rk_sample.steps": (counter("oracles.rk_sample.steps"), "count"),
        "oracles.fd_spectrum.calls": (calls("oracles.fd_spectrum"), "count"),
        "oracles.fd_spectrum.self_s": (self_s("oracles.fd_spectrum"), "s"),
        "oracles.fd_spectrum.matrix_bytes": (counter("oracles.fd_spectrum.matrix_bytes"), "bytes"),
        "oracles.self_s": (module_self("oracles."), "s"),
        "wavefunction.calls": (
            sum(v["calls"] for k, v in spans.items() if k.startswith("wavefunction.")) / passes,
            "count"),
        "wavefunction.self_s": (module_self("wavefunction."), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "trace.overhead_s": ((wall[True] - wall[False]) / passes, "s"),
        "fail_frac": (quality["fail_frac"], "ratio"),
        "states_missing": (quality["states_missing"], "count"),
        "states_wrong_unflagged": (quality["states_wrong_unflagged"], "count"),
    }
    return out


def _print_human(args, env_record, metrics, quality, ops, extra):
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(env_record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    for line in extra:
        print("  " + line)
    print(f"  checks: {quality['attempted']} ops, fail_frac {quality['fail_frac']:.4f}, "
          f"states_missing {quality['states_missing']} of {quality['states_required']}, "
          f"states_wrong_unflagged {quality['states_wrong_unflagged']}, "
          f"harness failures {quality['harness_failed']}")
    for index, reason in quality["failing"]:
        print(f"  failing op {index} [{' '.join(ops[index])}]: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    problems = selftest.run()
    if problems:
        return _fail("self-test failed: " + "; ".join(problems), 3)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "toruseig", "__init__.py")):
        return _fail(f"no toruseig package under {src}; run from the repository root", 2)

    t0 = time.monotonic()
    ops, expect = workloads.generate(args.workload, args.seed)
    reference_s = time.monotonic() - t0

    nproc = len(os.sched_getaffinity(0))
    env = _worker_env(src, nproc)
    job = {"ops": ops, "mode": "setup"}
    setups = []
    try:
        for _ in range(SETUP_PROBES):
            launched, rep = _launch(job, env, timeout=60)
            setups.append(rep["ready"] - launched)
        job.update(mode="trace" if args.trace else "run", seconds=args.seconds)
        if args.trace:
            trace_dir = os.path.join(HERE, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            job["trace_path"] = os.path.join(
                trace_dir, f"{args.workload}-seed{args.seed}.npz")
        remaining = DEADLINE_S - (time.monotonic() - started)
        launched, report = _launch(job, env, timeout=remaining)
    except RuntimeError as exc:
        return _fail(str(exc), 1)
    setups.append(report["ready"] - launched)
    if not report["package"].startswith(src + os.sep):
        return _fail(f"worker imported {report['package']}, not the package under {src}", 1)

    quality = workloads.summarize_checks(report["records"], expect)
    env_record = {"python": report["python"], "numpy": report["numpy"],
                  "nproc": nproc, "blas_threads_cap": nproc,
                  "pass_ops": len(ops), "reference_s": round(reference_s, 3)}
    times = [r["seconds"] for r in report["records"]]
    if args.trace:
        metrics = per_layer(report, quality)
        idle = sorted(name for name, v in report["tracing"]["spans"].items() if not v["calls"])
        extra = [f"traced passes {report['tracing']['passes']}, "
                 f"spans {report['tracing']['span_count']}, written to {job['trace_path']}",
                 "functions this workload never calls (their metrics read 0): "
                 + (", ".join(idle) or "none")]
    else:
        metrics = end_to_end(report, setups, quality, len(ops))
        _, pct = tail(times)
        extra = [f"op_tail_ms is p{pct:.1f} of {len(times)} samples (10 beyond it)",
                 f"setup_s is the median of {len(setups)} launches",
                 f"fail_frac {quality['fail_frac']:.6g} ratio",
                 f"states_missing {quality['states_missing']} count",
                 f"states_wrong_unflagged {quality['states_wrong_unflagged']} count"]
    _print_human(args, env_record, metrics, quality, ops, extra)
    failed = quality["harness_failed"]
    result = {
        "correct": failed == 0 and quality["states_wrong_unflagged"] == 0,
        "attempted": quality["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
