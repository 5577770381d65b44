"""Checks that the reference and the output checks can fail.

Runs before every benchmark run, and alone with
``python3 perfbench/selftest.py``.  The reference solver must reproduce
eigenvalues printed in the source paper, and a spectrum that is truncated
or perturbed must raise ``states_missing``, ``states_wrong_unflagged`` and
``fail_frac`` and lower ``states_found_frac``, so the checks cannot pass
silently.
"""

from __future__ import annotations

import json

import reference
import workloads

# Shooting ("DE") eigenvalues printed in the paper's tables 1-3, alpha = 0.5,
# even states, to six decimals; plus the odd m = 0 ground state.
PAPER_STATES = {
    (0, "even"): (1.122286, 4.051722, 9.04107),
    (1, "even"): (0.249368, 1.663015, 4.476693),
    (5, "even"): (3.705428, 8.85364, 15.164615),
    (0, "odd"): (0.976731,),
}
PAPER_TOL = 5e-6


def _spectrum_stdout(betas, converged=True) -> str:
    records = [{"eigenvalues": [{"beta": b, "trivial": b == 0.0, "residual": 0.0,
                                 "converged": converged} for b in betas]}]
    return json.dumps({"records": records})


def _record(index: int, rc: int, stdout: str) -> dict:
    return {"index": index, "rc": rc, "stdout": stdout, "error": "", "seconds": 0.0}


def run() -> list[str]:
    """Return the problems found; empty means the checks work."""
    problems = []
    for (m, parity), printed in PAPER_STATES.items():
        got = [b for b in reference.states_below(0.5, m, parity, 20.0) if b > 0.0]
        for i, b in enumerate(printed):
            if abs(got[i] - b) > PAPER_TOL:
                problems.append(f"reference m={m} {parity} state {i + 1}: "
                                f"{got[i]:.7f} vs paper {b}")

    alpha, m, beta_max = 0.1, 1, 25.0
    ref = sorted(reference.states_below(alpha, m, "even", beta_max + 1)
                 + reference.states_below(alpha, m, "odd", beta_max + 1))
    expect = [{"kind": "spectrum", "reference": ref, "beta_max": beta_max}]
    exact = [b for b in ref if b <= beta_max]
    cases = {
        "exact": (exact, 0, 0),
        "truncated": (exact[1:], 1, 0),
        "perturbed": ([exact[0] + 1e-3] + exact[1:], 1, 1),
    }
    for name, (betas, want_missing, want_wrong) in cases.items():
        q = workloads.summarize_checks([_record(0, 0, _spectrum_stdout(betas))], expect)
        if (q["states_missing"], q["states_wrong_unflagged"]) != (want_missing, want_wrong):
            problems.append(f"{name} spectrum: missing {q['states_missing']}, "
                            f"wrong {q['states_wrong_unflagged']}")
        if (q["fail_frac"] > 0) != (name != "exact"):
            problems.append(f"{name} spectrum: fail_frac {q['fail_frac']}")
        if (q["states_found_frac"] < 1.0) != (name != "exact"):
            problems.append(f"{name} spectrum: states_found_frac {q['states_found_frac']}")
    flagged = workloads.summarize_checks(
        [_record(0, 0, _spectrum_stdout([exact[0] * 1.001] + exact[1:], converged=False))],
        expect)
    if flagged["states_missing"] or flagged["states_wrong_unflagged"]:
        problems.append("a flagged, slightly-off state was not accepted as reported")

    target = ref[3]
    compare = [{"kind": "compare", "beta": target}]
    off = json.dumps({"beta": {"fourier": target + 1e-3, "rk": target + 1e-3},
                      "pass": True})
    q = workloads.summarize_checks([_record(0, 0, off)], compare)
    if not (q["states_missing"] == 1 and q["states_wrong_unflagged"] == 1
            and q["fail_frac"] == 1.0):
        problems.append(f"compare off the reference state was not caught: {q}")
    return problems


if __name__ == "__main__":
    found = run()
    print("\n".join(found) if found else "ok")
