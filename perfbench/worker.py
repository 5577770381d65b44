"""The workload process: imports the package, runs the operations, reports.

Reads one JSON job from stdin and writes one JSON report to stdout.  Every
operation is an in-process ``toruseig.cli.main(argv)`` call with stdout and
stderr captured.  The job's ``mode`` is one of

* ``setup``: stop once the first operation could be issued and report the
  monotonic clock, so the parent can time set-up from its launch;
* ``run``: cycle through the pass until ``seconds`` have passed, finishing
  at least one full pass;
* ``trace``: run every operation of a pass once untraced and once traced
  (alternating which goes first) until ``seconds`` have passed, in whole
  passes, then summarise the spans and write them to ``trace_path``.

Run it only through ``run.py``, which sets the thread caps and the import
path before this interpreter starts.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def _run_op(cli_module, argv):
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_module.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
        error = f"SystemExit({exc.code})"
    except Exception as exc:  # any escape from main is a harness failure
        rc = -1
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return {"rc": rc, "seconds": elapsed, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-400:], "error": error}


def _run(cli_module, ops, seconds):
    records = []
    n = len(ops)
    t0 = time.perf_counter()
    i = 0
    while i < n or time.perf_counter() - t0 < seconds:
        rec = _run_op(cli_module, ops[i % n])
        rec["index"] = i % n
        records.append(rec)
        i += 1
    return records, time.perf_counter() - t0


def _trace(cli_module, ops, seconds, trace_path):
    import spans

    tracer = spans.Tracer()
    records = []
    t0 = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - t0 < seconds:
        for j, argv in enumerate(ops):
            order = (False, True) if j % 2 == 0 else (True, False)
            for traced in order:
                if traced:
                    tracer.op_id = passes * len(ops) + j
                    tracer.install()
                try:
                    rec = _run_op(cli_module, argv)
                finally:
                    tracer.uninstall()
                rec["index"] = j
                rec["traced"] = traced
                records.append(rec)
        passes += 1
    elapsed = time.perf_counter() - t0
    tracer.write(trace_path, ops)
    return records, elapsed, {"passes": passes, "spans": tracer.summary(),
                              "counters": dict(tracer.counters),
                              "span_count": len(tracer.start)}


def main() -> int:
    job = json.loads(sys.stdin.read())
    import numpy
    import toruseig
    import toruseig.cli

    toruseig.cli.golden_tables()
    ops = job["ops"]
    ready = time.monotonic()
    report = {"ready": ready}
    if job["mode"] == "setup":
        print(json.dumps(report))
        return 0
    if job["mode"] == "trace":
        records, elapsed, tracing = _trace(toruseig.cli, ops, job["seconds"],
                                           job["trace_path"])
        report["tracing"] = tracing
    else:
        records, elapsed = _run(toruseig.cli, ops, job["seconds"])
    report.update({
        "records": records,
        "elapsed": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "package": toruseig.__file__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
