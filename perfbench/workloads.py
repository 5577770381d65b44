"""Workload generators and output checks.

Each generator turns a seed into one pass: a fixed list of ``toruseig``
argument vectors plus, for each, what the check expects.  The expectations
come from the benchmark's own Galerkin solver (``reference.py``) and from
constants printed in the source paper, never from the package under test.

Why these three workloads (each optimisation has one that leans on its
mechanism and one that bypasses it):

* ``tables``: the paper's reproduction, ``repro --table 1..5``.  Dominated
  by RK4 shooting (``oracles.rk_mismatch``); the determinant scan is a small
  share, so an oracle change shows here and an eigensolver change barely
  does.
* ``sweep``: ``spectrum`` over m = 0..6 at three truncation orders and one
  aspect ratio from each of three strata.  Pure eigensolver and recursion
  work, no oracle call; order 40 shows how cost grows with truncation.
* ``verify``: three-method ``compare`` (fourier, rk, fd).  The only workload
  that runs the dense finite-difference oracle, which sets its peak memory,
  and the one that samples RK eigenfunctions.

The aspect ratios are fixed, not drawn from the seed: which operations pass
depends on alpha, and the correctness metrics are gated tighter than the
step of one failing operation, so they must read the same for every seed.
The seed picks where in the pass a run starts.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import reference

GOLDEN_ALPHA = 0.5
# (m, parity) of the paper's eigenvalue tables 1-3; all list even states,
# three each, so each table has three DE cells
TABLE_SECTORS = {1: (0, "even"), 2: (1, "even"), 3: (5, "even")}
TABLE_DE_CELLS = 3

# Alphas from the strata low [0.05, 0.12], mid [0.4, 0.6] and high
# [0.8, 0.95].  At 0.1 the m = 1 ground state (beta ~ 0.0100) lies below the
# scan step.  The mid stratum has two, each with a state next to a marching
# pole: at 0.5 the even m = 4 state at beta ~ 12.0127, at 0.551591 the odd
# m = 2 state at beta ~ 6.0013.
SWEEP_ALPHAS = (0.1, 0.5, 0.551591, 0.9)
SWEEP_MS = tuple(range(7))
SWEEP_ORDERS = (10, 20, 40)
SWEEP_BETA_MAX = 25.0

# Twelve aspect ratios evenly spaced in [0.2, 0.8], one per operation.
VERIFY_ALPHAS = tuple(0.2 + 0.6 * (k + 0.5) / 12 for k in range(12))
VERIFY_MS = (0, 1, 3)
VERIFY_ORDERS = (10, 20)
VERIFY_GRIDS = (1024, 2048)
VERIFY_STATES = (1, 2, 3)

# A state reported converged must sit this close to a reference state; the
# program calls a state converged when its order N and N+2 values differ
# by less than 1e-6.
MATCH_TOL = 1e-5
# A state reported as not converged still counts as reporting a reference
# state (with notice) when it is this close, relative to max(1, beta).
FLAGGED_TOL = 1e-2
# The program's own tolerance for its finite-difference oracle.
FD_TOL = 1e-4
# Reference states this close to --beta-max may legitimately fall outside.
EDGE = 0.01

WORKLOADS = ("tables", "sweep", "verify")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    missing: int = 0
    wrong_unflagged: int = 0
    required: int = 0
    reason: str = ""


def _fmt(alpha: float) -> str:
    return f"{alpha:.6f}"


def generate(workload: str, seed: int) -> tuple[list[list[str]], list[dict]]:
    """One pass of ``workload``: argument vectors and check expectations."""
    if workload == "tables":
        return _tables()
    if workload == "sweep":
        ops, expect = _sweep()
    elif workload == "verify":
        ops, expect = _verify()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    start = random.Random(seed).randrange(len(ops))
    return ops[start:] + ops[:start], expect[start:] + expect[:start]


def _tables():
    ops, expect = [], []
    for table in (1, 2, 3, 4, 5):
        ops.append(["repro", "--table", str(table), "--format", "json"])
        exp = {"kind": "repro", "table": table}
        if table in TABLE_SECTORS:
            m, parity = TABLE_SECTORS[table]
            exp["reference"] = reference.states_below(GOLDEN_ALPHA, m, parity, 30.0)
            exp["de_cells"] = TABLE_DE_CELLS
        expect.append(exp)
    return ops, expect


def _sweep():
    ops, expect = [], []
    for alpha in SWEEP_ALPHAS:
        for m in SWEEP_MS:
            ref = sorted(
                reference.states_below(alpha, m, "even", SWEEP_BETA_MAX + EDGE)
                + reference.states_below(alpha, m, "odd", SWEEP_BETA_MAX + EDGE))
            for order in SWEEP_ORDERS:
                ops.append(["spectrum", "--alpha", _fmt(alpha), "--m", str(m),
                            "--parity", "both", "--order", str(order),
                            "--beta-max", f"{SWEEP_BETA_MAX:g}"])
                expect.append({"kind": "spectrum", "reference": ref,
                               "beta_max": SWEEP_BETA_MAX})
    # Step k runs alpha k mod 4 and (m, order) k mod 21, so every run of 21
    # operations holds each (m, order) once and a partly repeated pass keeps
    # the mix of cheap and costly operations.  The two counts must be
    # coprime for this to visit every operation once.
    per_alpha = len(SWEEP_MS) * len(SWEEP_ORDERS)
    assert math.gcd(len(SWEEP_ALPHAS), per_alpha) == 1
    order = [(k % len(SWEEP_ALPHAS)) * per_alpha + k % per_alpha
             for k in range(len(ops))]
    return [ops[i] for i in order], [expect[i] for i in order]


def _verify():
    """Twelve operations: every (m, parity, order) once.

    ``VERIFY_ALPHAS`` falls into three bands of four (low, middle, high).
    Operation (m number i, combination j) takes value j of band
    (i + j) mod 3, so every (parity, order) meets all three bands across
    the three m, and every m meets all three bands.  States run
    1, 2, 3, 1, 2, ... so each appears four times.  One operation per m,
    each time a different (parity, order), runs on the 2048 grid and the
    rest on 1024: with a quarter of the pass on the slow grid the median
    and the tail stay inside one mode of the op-time distribution.  The
    slow operations sit at positions 1, 5 and 9, so a partly repeated pass
    keeps the same mix.
    """
    combos = [(parity, order) for parity in ("even", "odd") for order in VERIFY_ORDERS]
    fast, slow = [], []
    for i, m in enumerate(VERIFY_MS):
        for j, (parity, order) in enumerate(combos):
            k = len(combos) * i + j
            alpha = float(_fmt(VERIFY_ALPHAS[len(combos) * ((i + j) % 3) + j]))
            state = VERIFY_STATES[k % len(VERIFY_STATES)]
            grid = VERIFY_GRIDS[1] if j == i + 1 else VERIFY_GRIDS[0]
            ref = [b for b in reference.states_below(alpha, m, parity, 200.0) if b > 0.0]
            target = ref[state - 1]
            beta_max = target + min(0.5, 0.5 * (ref[state] - target))
            op = (["compare", "--methods", "fourier,rk,fd", "--alpha", _fmt(alpha),
                   "--m", str(m), "--parity", parity, "--state", str(state),
                   "--order", str(order), "--fd-grid", str(grid),
                   "--beta-max", f"{beta_max:.6f}"],
                  {"kind": "compare", "beta": target})
            (slow if grid == VERIFY_GRIDS[1] else fast).append(op)
    pass_ops = []
    while slow:
        pass_ops += [fast.pop(0), slow.pop(0), fast.pop(0), fast.pop(0)]
    return [argv for argv, _ in pass_ops], [exp for _, exp in pass_ops]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check(expect: dict, rc: int, stdout: str) -> Verdict:
    """Judge one operation's exit code and output against its expectation."""
    judge = {"spectrum": _check_spectrum, "compare": _check_compare,
             "repro": _check_repro}[expect["kind"]]
    try:
        return judge(expect, rc, stdout)
    except (KeyError, TypeError, AttributeError) as exc:
        req = required_states(expect)
        return Verdict(False, missing=req, required=req,
                       reason=f"exit {rc}, report not in the expected shape: {exc!r}")


def required_states(expect: dict) -> int:
    """Reference states an operation must report."""
    if expect["kind"] == "spectrum":
        return sum(1 for b in expect["reference"] if b <= expect["beta_max"] - EDGE)
    if expect["kind"] == "compare":
        return 1
    return expect.get("de_cells", 0)


def match_states(reference_betas: list[float], reported: list[dict],
                 beta_max: float) -> tuple[int, int]:
    """One-to-one match of reported states to reference states.

    Returns (missing, wrong_unflagged): reference states below
    beta_max - EDGE that no reported state claims, and states reported
    converged that claim no reference state.
    """
    pairs = []
    for j, rep in enumerate(reported):
        b = rep["beta"]
        converged = rep["converged"] or rep.get("trivial", False)
        tol = MATCH_TOL if converged else FLAGGED_TOL * max(1.0, abs(b))
        for i, ref in enumerate(reference_betas):
            d = abs(b - ref)
            if d <= tol:
                pairs.append((d, i, j))
    pairs.sort()
    used_ref, used_rep = set(), set()
    for _, i, j in pairs:
        if i not in used_ref and j not in used_rep:
            used_ref.add(i)
            used_rep.add(j)
    missing = sum(1 for i, ref in enumerate(reference_betas)
                  if i not in used_ref and ref <= beta_max - EDGE)
    wrong = sum(1 for j, rep in enumerate(reported)
                if j not in used_rep and (rep["converged"] or rep.get("trivial")))
    return missing, wrong


def _parse(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _check_spectrum(expect, rc, stdout) -> Verdict:
    payload = _parse(stdout)
    required = required_states(expect)
    if rc != 0 or payload is None:
        return Verdict(False, missing=required, required=required, reason=f"exit {rc}")
    reported = [ev for rec in payload["records"] for ev in rec["eigenvalues"]]
    missing, wrong = match_states(expect["reference"], reported, expect["beta_max"])
    reason = f"{missing} missing, {wrong} wrong" if missing or wrong else ""
    return Verdict(missing == 0 and wrong == 0, missing, wrong, required, reason)


def _check_compare(expect, rc, stdout) -> Verdict:
    target = expect["beta"]
    payload = _parse(stdout)
    if payload is None:
        return Verdict(False, missing=1, required=1, reason=f"exit {rc}, no report")
    bad = [name for name, b in payload["beta"].items()
           if abs(b - target) > (FD_TOL if name == "fd" else MATCH_TOL)]
    fourier = payload["beta"].get("fourier")
    missing = int(fourier is None or abs(fourier - target) > MATCH_TOL)
    wrong = int(rc == 0 and bool(bad))
    ok = rc == 0 and not bad
    own = [k for k, v in payload.get("pairwise", {}).items() if not v["pass"]]
    if not payload.get("eigenfunction", {"pass": True})["pass"]:
        own.append("eigenfunction")
    reason = "" if ok else (f"exit {rc}, own checks failed: {','.join(own) or 'none'}"
                            + (f", off reference: {','.join(bad)}" if bad else ""))
    return Verdict(ok, missing, wrong, 1, reason)


def _check_repro(expect, rc, stdout) -> Verdict:
    payload = _parse(stdout)
    required = required_states(expect)
    if payload is None:
        return Verdict(False, missing=required, required=required,
                       reason=f"exit {rc}, no report")
    failed_cells = [r["label"] for r in payload["rows"] if not r["pass"]]
    found = wrong = 0
    for row in payload["rows"]:
        if "reference" not in expect or not row["label"].endswith("/DE"):
            continue
        b = row["computed"]
        if b is None or min(abs(b - r) for r in expect["reference"]) > MATCH_TOL:
            wrong += int(row["pass"])
        else:
            found += 1
    missing = max(0, required - found)
    ok = rc == 0 and payload["pass"] and not failed_cells and missing == 0
    reason = "" if ok else f"exit {rc}, failed cells {failed_cells[:3]}, DE off reference {missing}"
    return Verdict(ok, missing, wrong, required, reason)


def harness_failure(rec: dict) -> bool:
    """The operation could not be carried out: an exception escaped
    ``main``, or it exited with a usage error.  Exit 1 is the program's own
    verdict and is judged by the checks instead."""
    return bool(rec["error"]) or rec["rc"] not in (0, 1)


def _severity(v: Verdict) -> tuple:
    return (not v.ok, v.missing, v.wrong_unflagged)


def summarize_checks(records: list[dict], expect: list[dict]) -> dict:
    """Check every record and aggregate per pass.

    Each operation of the pass counts once: it fails if any of its
    repetitions failed, and its state counts are the worst over them, so
    a partly repeated pass does not weight some operations twice.
    """
    verdicts: dict[tuple, Verdict] = {}
    per_index: dict[int, Verdict] = {}
    harness = 0
    for rec in records:
        key = (rec["index"], rec["rc"], rec["stdout"])
        if key not in verdicts:
            verdicts[key] = check(expect[rec["index"]], rec["rc"], rec["stdout"])
        v = verdicts[key]
        if harness_failure(rec):
            harness += 1
            v = Verdict(False, v.missing, v.wrong_unflagged, v.required,
                        rec["error"] or f"exit {rec['rc']}")
        seen = per_index.get(rec["index"])
        if seen is None or _severity(v) > _severity(seen):
            per_index[rec["index"]] = v
    failed = sum(1 for v in per_index.values() if not v.ok)
    missing = sum(v.missing for v in per_index.values())
    required = sum(v.required for v in per_index.values())
    return {
        "attempted": len(records),
        "harness_failed": harness,
        "fail_frac": failed / len(per_index),
        "ok_frac": 1.0 - failed / len(per_index),
        "states_missing": missing,
        "states_required": required,
        "states_found_frac": 1.0 - missing / required if required else 1.0,
        "states_wrong_unflagged": sum(v.wrong_unflagged for v in per_index.values()),
        "failing": sorted((i, v.reason) for i, v in per_index.items() if not v.ok),
    }
