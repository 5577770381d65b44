"""The paper's checks as library calls: golden-table reproduction and the
three-method cross-check, with the state lookup they share.

* ``find_state``       solve one (m, parity) sector and pick a state in it
* ``reproduce_table``  recompute golden table 1-5 and diff it cell by cell
* ``compare_state``    cross-check one state between fourier, rk and fd

Nothing here parses arguments or writes output: ``TableReport`` renders
itself, and ``compare_state`` returns the JSON payload with its verdict
under ``"pass"``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np

from . import eigensolver, oracles
from .recursion import ModeSpec
from .wavefunction import Eigenfunction, compare_scaled, evaluate, from_series, normalize

TABLE_IDS = (1, 2, 3, 4, 5)

FOURIER_RK_TOL = 5e-6
FD_TOL = 1e-4
EIGENFUNCTION_TOL = 1e-3

__all__ = [
    "TABLE_IDS",
    "ReportRow",
    "TableReport",
    "compare_state",
    "find_state",
    "golden_tables",
    "reproduce_table",
]


def golden_tables() -> dict:
    with resources.files("toruseig.data").joinpath("tables.json").open("r") as fh:
        return json.load(fh)


def find_state(alpha: float, m: int, parity: str, lam, order: int,
               beta_max: float) -> tuple[list[eigensolver.Eigenpair], int]:
    """Solve the (m, parity) sector and locate state ``lam``, a 1-based index
    among its non-trivial states or 'trivial'.  Returns the sector's states
    and the position of ``lam`` in them (the trivial state counted); raises
    LookupError, listing the states there are, when it is absent."""
    states = eigensolver.find_eigenvalues(alpha, ModeSpec(m, parity), order=order,
                                          beta_max=beta_max)
    nontrivial = [i for i, p in enumerate(states) if not p.trivial]
    if lam == "trivial":
        index = next((i for i, p in enumerate(states) if p.trivial), None)
    else:
        index = nontrivial[lam - 1] if 1 <= lam <= len(nontrivial) else None
    if index is None:
        available = ", ".join(str(i + 1) for i in range(len(nontrivial)))
        trivial_note = " plus 'trivial'" if len(nontrivial) < len(states) else ""
        raise LookupError(
            f"no state {lam} for m={m} parity={parity} within beta_max={beta_max}; "
            f"available: {available or 'none'}{trivial_note}")
    return states, index


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _rk_bracket(states, index: int) -> tuple[float, float]:
    """Shooting bracket: +/-0.15 around a state, cut half-way to its
    neighbours in the sector and at beta = 0."""
    beta = states[index].beta
    lo, hi = max(0.0, beta - 0.15), beta + 0.15
    if index > 0:
        lo = max(lo, 0.5 * (states[index - 1].beta + beta))
    if index + 1 < len(states):
        hi = min(hi, 0.5 * (beta + states[index + 1].beta))
    return lo, hi


def compare_state(alpha: float, m: int, parity: str, state, order: int,
                  beta_max: float, methods: list[str], rk_steps: int,
                  fd_grid: int) -> dict:
    """Cross-check one state between two or three of fourier, rk and fd:
    pairwise eigenvalue differences, the Fourier value's own convergence and,
    with fourier and rk, the eigenfunction shape."""
    states, index = find_state(alpha, m, parity, state, order, beta_max)
    pair = states[index]
    betas: dict[str, float] = {}
    payload = {"alpha": alpha, "m": m, "parity": parity, "state": state,
               "beta": betas}
    ok = True
    if "fourier" in methods:
        betas["fourier"] = pair.beta
        payload["convergence"] = {"estimate": pair.diagnostics.convergence_estimate,
                                  "tolerance": eigensolver.CONVERGED_TOL,
                                  "pass": pair.converged}
        ok = pair.converged
    cfg = oracles.OracleConfig(rk_step_count=rk_steps)
    if "rk" in methods:
        betas["rk"] = oracles.rk_find_eigenvalue(
            alpha, m, parity, _rk_bracket(states, index), cfg).beta
    if "fd" in methods:
        spectrum = oracles.fd_spectrum(alpha, m, grid_size=fd_grid,
                                       k_lowest=index + 1, parity=parity)
        betas["fd"] = spectrum[index].beta
    diffs = {}
    for x, y in itertools.combinations(sorted(betas), 2):
        d = abs(betas[x] - betas[y])
        tol = FD_TOL if "fd" in (x, y) else FOURIER_RK_TOL
        diffs[f"{x}-{y}"] = {"abs_diff": d, "tolerance": tol, "pass": d <= tol}
        ok = ok and d <= tol
    payload["pairwise"] = diffs
    if "fourier" in methods and "rk" in methods:
        psi = from_series(pair.series, pair.beta, pair.mode)
        thetas = [2.0 * math.pi * j / 24 for j in range(24)]
        rk_vals = oracles.rk_sample(alpha, m, betas["rk"], parity, thetas, cfg)
        fs_vals = list(zip(thetas, evaluate(psi, np.array(thetas)).tolist()))
        cmp = compare_scaled(fs_vals, rk_vals)
        ref = max(abs(v) for _, v in rk_vals)
        dev = cmp.max_abs_deviation / ref if ref > 0 else math.inf
        payload["eigenfunction"] = {"max_rel_deviation": dev, "tolerance": EIGENFUNCTION_TOL,
                                    "pass": dev <= EIGENFUNCTION_TOL}
        ok = ok and dev <= EIGENFUNCTION_TOL
    payload["pass"] = ok
    return payload


# ---------------------------------------------------------------------------
# golden-table reproduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportRow:
    label: str
    computed: float | None
    paper: float | None
    abs_diff: float | None
    passed: bool
    note: str = ""

    @classmethod
    def diff(cls, label: str, computed: float | None, paper: float,
             tol: float) -> ReportRow:
        """A cell that passes within ``tol`` of ``paper``; None fails."""
        d = None if computed is None else abs(computed - paper)
        return cls(label, computed, paper, d, d is not None and d <= tol)


@dataclass
class TableReport:
    table_id: int
    tolerance: float
    rows: list[ReportRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def payload(self) -> dict:
        return {
            "table": self.table_id,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "rows": [
                {"label": r.label, "computed": r.computed, "paper": r.paper,
                 "abs_diff": r.abs_diff, "pass": r.passed, "note": r.note}
                for r in self.rows
            ],
            "notes": self.notes,
        }

    def render_text(self) -> str:
        lines = [f"table {self.table_id}  (tolerance {self.tolerance:g})"]
        lines.append(f"{'cell':<22}{'computed':>16}{'reference':>16}{'|diff|':>12}  status")
        for r in self.rows:
            comp = "-" if r.computed is None else f"{r.computed:.7f}"
            ref = "-" if r.paper is None else f"{r.paper:.7f}"
            diff = "-" if r.abs_diff is None else f"{r.abs_diff:.1e}"
            status = "pass" if r.passed else "FAIL"
            note = f"  ({r.note})" if r.note else ""
            lines.append(f"{r.label:<22}{comp:>16}{ref:>16}{diff:>12}  {status}{note}")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append("RESULT: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


def reproduce_table(table_id: int, rk_steps: int = 4096) -> TableReport:
    """Recompute golden table ``table_id`` (1-5) at the paper's alpha."""
    data = golden_tables()
    alpha = data["alpha"]
    cfg = oracles.OracleConfig(rk_step_count=rk_steps)
    if table_id == 4:
        return _table4(data["table4"], alpha, cfg)
    if table_id == 5:
        return _table5(data["table5"], alpha)
    return _eigenvalue_table(table_id, data["eigenvalue_tables"][str(table_id)],
                             alpha, cfg)


def _eigenvalue_table(table_id: int, table: dict, alpha: float,
                      cfg: oracles.OracleConfig) -> TableReport:
    tol = table["tolerance"]
    report = TableReport(table_id=table_id, tolerance=tol)
    m = table["m"]
    parity = table["parity"]
    roots: dict[str, list[float]] = {}  # non-trivial roots per column
    for column, order in table["column_orders"].items():
        accepted, _ = eigensolver.determinant_scan(
            alpha, ModeSpec(m, parity), order=order,
            beta_max=table["scan_max"], scan_step=table["scan_step"],
        )
        roots[column] = [p.beta for p in accepted if not p.trivial]
    for row in table["rows"]:
        label = row["label"]
        for column, ref in row["cells"].items():
            if ref is not None:
                nearest = min(roots[column], key=lambda b: abs(b - ref), default=None)
                report.rows.append(ReportRow.diff(f"{label}/{column}", nearest, ref, tol))
        de_ref = row["de"]
        bracket = (de_ref - 0.15, de_ref + 0.15)
        try:
            de_comp = oracles.rk_find_eigenvalue(alpha, m, parity, bracket, cfg).beta
            report.rows.append(ReportRow.diff(f"{label}/DE", de_comp, de_ref, tol))
        except oracles.OracleError as exc:
            report.rows.append(ReportRow(f"{label}/DE", None, de_ref, None, False,
                                         note=str(exc)))
    for absent in table["absent"]:
        lo, hi = absent["window"]
        hits = [b for b in roots[absent["column"]] if lo <= b <= hi]
        report.rows.append(ReportRow(f"{absent['row']}/{absent['column']} absent",
                                     hits[0] if hits else None, None, None, not hits,
                                     note=f"no root expected in [{lo}, {hi}]"))
    return report


def _scaled_rows(report: TableReport, method: str, samples, printed) -> float:
    """One row per sample of ``method``, after the single least-squares scale
    that best fits the printed column; returns that scale."""
    fit = compare_scaled(samples, [(t, ref) for (t, _), ref in zip(samples, printed)])
    for (t, v), ref in zip(samples, printed):
        report.rows.append(ReportRow.diff(f"{method} theta={t:+.4f}", fit.scale * v,
                                          ref, report.tolerance))
    return fit.scale


def _table4(table: dict, alpha: float, cfg: oracles.OracleConfig) -> TableReport:
    report = TableReport(table_id=4, tolerance=table["tolerance"])
    thetas = [t * math.pi for t in table["theta_over_pi"]]
    state = table["state"]
    try:
        states, index = find_state(alpha, state["m"], state["parity"], state["lambda"],
                                   table["order"], table["scan_max"])
    except LookupError:
        report.rows.append(ReportRow("state", None, None, None, False,
                                     note="state not found"))
        return report
    pair = states[index]
    psi = from_series(pair.series, pair.beta, pair.mode)
    k = min(table["series_truncation"], psi.max_harmonic)
    psi = replace(psi, a=psi.a[: k + 1], b=psi.b[: k + 1])
    fs_scale = _scaled_rows(report, "FS", list(zip(thetas, evaluate(psi, thetas).tolist())),
                            table["psi_fs"])
    beta_de = oracles.rk_find_eigenvalue(alpha, state["m"], state["parity"],
                                         tuple(table["de_bracket"]), cfg).beta
    rk = oracles.rk_sample(alpha, state["m"], beta_de, state["parity"], thetas, cfg)
    de_scale = _scaled_rows(report, "DE", rk, table["psi_de"])
    report.notes.append(f"single least-squares scale: FS {fs_scale:.6g}, DE {de_scale:.6g}")
    return report


def _coeff(psi: Eigenfunction, key: str) -> float:
    """The coefficient a printed key names: "a2" is psi.a[2]."""
    return getattr(psi, key[0])[int(key[1:])]


def _table5(table: dict, alpha: float) -> TableReport:
    tol = table["ratio_tolerance"]
    report = TableReport(table_id=5, tolerance=tol)
    for row in table["rows"]:
        state = row["state"]
        try:
            states, index = find_state(alpha, state["m"], state["parity"],
                                       state["lambda"], table["order"], row["scan_max"])
        except LookupError:
            report.rows.append(ReportRow(row["label"], None, None, None, False,
                                         note="state not found"))
            continue
        pair = states[index]
        psi = normalize(from_series(pair.series, pair.beta, pair.mode), alpha)
        printed = row["printed"]
        ref_key, ref_printed = next(iter(printed.items()))
        ref_computed = _coeff(psi, ref_key)
        for key, value in list(printed.items())[1:]:
            comp_ratio = abs(_coeff(psi, key) / ref_computed)
            ref_ratio = abs(value / ref_printed)
            rel = abs(comp_ratio - ref_ratio) / abs(ref_ratio)
            report.rows.append(ReportRow(f"{row['label']} |{key}/{ref_key}|", comp_ratio,
                                         ref_ratio, rel, rel <= tol, note="relative"))
        # tail dominance, reported per state: unprinted harmonics against the
        # smallest printed one, in the same scale
        scale = ref_printed / ref_computed
        keys = (f"{arr}{k}" for k in range(psi.max_harmonic + 1) for arr in "ab")
        worst = max((abs(_coeff(psi, key) * scale) for key in keys
                     if key not in printed and key != "b0"), default=0.0)
        smallest_printed = min(abs(v) for v in printed.values())
        factor = smallest_printed / worst if worst > 0 else math.inf
        meets = factor >= table["tail_factor"]
        report.notes.append(
            f"{row['label']}: largest unprinted coefficient is {factor:.2f}x "
            f"below the smallest printed one"
            + ("" if meets else f" (below the {table['tail_factor']:g}x margin)")
        )
        if row.get("note"):
            report.notes.append(f"{row['label']}: {row['note']}")
    return report
