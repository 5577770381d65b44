"""Command-line surface: spectra, golden-table reproduction, exports.

Subcommands:

* ``spectrum``  eigenvalues per (m, parity) sector, JSON or CSV
* ``repro``     recompute one golden reference table and diff it cell by cell
* ``wavefn``    export one eigenfunction (trig coefficients plus samples)
* ``compare``   cross-check a state between the fourier, rk, and fd methods
* ``embed``     (theta, phi, x, y, z) surface mesh for external plotting

Exit codes: 0 all checks pass, 1 computation or tolerance failure, 2 usage
error.  Machine output is deterministic: no timestamps, sorted JSON keys,
9-significant-digit CSV.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field, replace
from importlib import resources

from . import eigensolver, oracles
from .geometry import TorusShape, embed
from .recursion import ModeSpec
from .wavefunction import Eigenfunction, compare_scaled, evaluate, from_series, normalize

TABLE_IDS = (1, 2, 3, 4, 5)

__all__ = [
    "main",
    "TableReport",
    "ReportRow",
    "cmd_spectrum",
    "cmd_repro",
    "cmd_wavefn",
    "cmd_compare",
    "cmd_embed",
    "golden_tables",
    "spectrum_payload",
    "eigenfunction_record",
    "parse_spectrum",
    "parse_eigenfunction",
    "render_json",
    "render_csv_rows",
]


def golden_tables() -> dict:
    with resources.files("toruseig.data").joinpath("tables.json").open("r") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# deterministic rendering / parsing
# ---------------------------------------------------------------------------

def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fmt9(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def render_csv_rows(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt9(v) for v in row])
    return buf.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def _pair_record(pair: eigensolver.Eigenpair) -> dict:
    return {
        "beta": pair.beta,
        "trivial": pair.trivial,
        "residual": pair.diagnostics.residual,
        "converged": pair.converged,
    }


def spectrum_payload(alpha: float, m: int, parity: str, order: int,
                     beta_max: float) -> dict:
    pairs = eigensolver.find_eigenvalues(
        alpha, ModeSpec(m, parity), order=order, beta_max=beta_max)
    return {
        "alpha": alpha,
        "m": m,
        "parity": parity,
        "order": order,
        "eigenvalues": [_pair_record(p) for p in pairs],
    }


def parse_spectrum(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        payload = json.loads(text)
        return payload["records"]
    records: dict[tuple, dict] = {}
    for row in csv.DictReader(io.StringIO(text)):
        key = (row["alpha"], row["m"], row["parity"], row["order"])
        rec = records.setdefault(key, {
            "alpha": float(row["alpha"]), "m": int(row["m"]),
            "parity": row["parity"], "order": int(row["order"]),
            "eigenvalues": [],
        })
        rec["eigenvalues"].append({
            "beta": float(row["beta"]),
            "trivial": row["trivial"] == "true",
            "residual": float(row["residual"]),
            "converged": row["converged"] == "true",
        })
    return list(records.values())


def cmd_spectrum(args) -> int:
    records = [
        spectrum_payload(args.alpha, m, parity, args.order, args.beta_max)
        for m in args.m
        for parity in _parities(args.parity)
    ]
    if args.format == "json":
        _emit(render_json({"records": records}), args.out)
    else:
        rows = [
            [r["alpha"], r["m"], r["parity"], r["order"], ev["beta"],
             ev["trivial"], ev["residual"], ev["converged"]]
            for r in records for ev in r["eigenvalues"]
        ]
        _emit(render_csv_rows(
            ["alpha", "m", "parity", "order", "beta", "trivial", "residual",
             "converged"], rows), args.out)
    return 0


def _parities(choice: str) -> list[str]:
    return ["even", "odd"] if choice == "both" else [choice]


# ---------------------------------------------------------------------------
# state selection shared by wavefn / compare / repro
# ---------------------------------------------------------------------------

def _select_state(states, lam) -> int | None:
    """Position in ``states`` (the trivial state counted) of state ``lam``, a
    1-based index among non-trivial states or 'trivial'; None if absent."""
    if lam == "trivial":
        return next((i for i, p in enumerate(states) if p.trivial), None)
    nontrivial = [i for i, p in enumerate(states) if not p.trivial]
    return nontrivial[lam - 1] if 1 <= lam <= len(nontrivial) else None


def eigenfunction_record(alpha: float, psi: Eigenfunction, lam) -> dict:
    return {
        "alpha": alpha,
        "m": psi.mode.m,
        "lambda": 0 if lam == "trivial" else lam,
        "beta": psi.beta,
        "a": list(psi.a),
        "b": list(psi.b),
        "normalization": psi.normalization,
    }


def parse_eigenfunction(text: str, fmt: str) -> dict:
    if fmt == "json":
        rec = dict(json.loads(text))
        rec.pop("parity", None)
        rec.pop("samples", None)
        return rec
    rows = list(csv.DictReader(io.StringIO(text)))
    first = rows[0]
    rec = {
        "alpha": float(first["alpha"]), "m": int(first["m"]),
        "lambda": int(first["lambda"]), "beta": float(first["beta"]),
        "normalization": first["normalization"],
        "a": [0.0] * len(rows), "b": [0.0] * len(rows),
    }
    for row in rows:
        k = int(row["k"])
        rec["a"][k] = float(row["a_k"])
        rec["b"][k] = float(row["b_k"])
    return rec


def cmd_wavefn(args) -> int:
    lam = args.state
    states = eigensolver.find_eigenvalues(
        args.alpha, ModeSpec(args.m, args.parity), order=args.order,
        beta_max=args.beta_max)
    index = _select_state(states, lam)
    if index is None:
        available = ", ".join(str(i + 1) for i in range(sum(not p.trivial for p in states)))
        trivial_note = " plus 'trivial'" if any(p.trivial for p in states) else ""
        sys.stderr.write(
            f"error: no state {lam} for m={args.m} parity={args.parity} within "
            f"beta_max={args.beta_max}; available: {available or 'none'}{trivial_note}\n"
        )
        return 1
    pair = states[index]
    psi = normalize(from_series(pair.series, pair.beta, pair.mode,
                                lambda_index=None if lam == "trivial" else lam),
                    args.alpha)
    record = eigenfunction_record(args.alpha, psi, lam)
    if args.format == "json":
        record_out = dict(record)
        record_out["parity"] = args.parity
        thetas = [2.0 * math.pi * j / args.samples for j in range(args.samples)]
        record_out["samples"] = [[t, float(evaluate(psi, t))] for t in thetas]
        _emit(render_json(record_out), args.out)
    else:
        rows = [
            [record["alpha"], record["m"], record["lambda"], record["beta"],
             record["normalization"], k, record["a"][k], record["b"][k]]
            for k in range(len(record["a"]))
        ]
        _emit(render_csv_rows(
            ["alpha", "m", "lambda", "beta", "normalization", "k", "a_k", "b_k"],
            rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

FOURIER_RK_TOL = 5e-6
FD_TOL = 1e-4
EIGENFUNCTION_TOL = 1e-3


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


def cmd_compare(args) -> int:
    methods = args.methods
    if len(set(methods)) < 2:
        sys.stderr.write("error: compare needs at least two of fourier, rk, fd\n")
        return 2
    states = eigensolver.find_eigenvalues(
        args.alpha, ModeSpec(args.m, args.parity), order=args.order,
        beta_max=args.beta_max)
    index = _select_state(states, args.state)
    if index is None:
        sys.stderr.write(f"error: no state {args.state} for m={args.m}\n")
        return 1
    pair = states[index]
    betas: dict[str, float] = {}
    payload = {"alpha": args.alpha, "m": args.m, "parity": args.parity,
               "state": args.state, "beta": betas}
    ok = True
    if "fourier" in methods:
        betas["fourier"] = pair.beta
        payload["convergence"] = {"estimate": pair.diagnostics.convergence_estimate,
                                  "tolerance": eigensolver.CONVERGED_TOL,
                                  "pass": pair.converged}
        ok = pair.converged
    cfg = oracles.OracleConfig(rk_step_count=args.rk_steps)
    if "rk" in methods:
        betas["rk"] = oracles.rk_find_eigenvalue(
            args.alpha, args.m, args.parity, _rk_bracket(states, index), cfg).beta
    if "fd" in methods:
        spectrum = oracles.fd_spectrum(args.alpha, args.m, grid_size=args.fd_grid,
                                       k_lowest=index + 1, parity=args.parity)
        betas["fd"] = spectrum[index].beta
    diffs = {}
    names = sorted(betas)
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            d = abs(betas[x] - betas[y])
            tol = FD_TOL if "fd" in (x, y) else FOURIER_RK_TOL
            diffs[f"{x}-{y}"] = {"abs_diff": d, "tolerance": tol, "pass": d <= tol}
            ok = ok and d <= tol
    payload["pairwise"] = diffs
    if "fourier" in methods and "rk" in methods:
        psi = from_series(pair.series, pair.beta, pair.mode)
        thetas = [2.0 * math.pi * j / 24 for j in range(24)]
        rk_vals = oracles.rk_sample(args.alpha, args.m, betas["rk"],
                                    args.parity, thetas, cfg)
        fs_vals = [(t, float(evaluate(psi, t))) for t in thetas]
        cmp = compare_scaled(fs_vals, rk_vals)
        ref = max(abs(v) for _, v in rk_vals)
        dev = cmp.max_abs_deviation / ref if ref > 0 else math.inf
        payload["eigenfunction"] = {
            "max_rel_deviation": dev, "tolerance": EIGENFUNCTION_TOL,
            "pass": dev <= EIGENFUNCTION_TOL,
        }
        ok = ok and dev <= EIGENFUNCTION_TOL
    payload["pass"] = ok
    _emit(render_json(payload), args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# repro
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportRow:
    label: str
    computed: float | None
    paper: float | None
    abs_diff: float | None
    passed: bool
    note: str = ""


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


def _nearest(values: list[float], target: float) -> float | None:
    if not values:
        return None
    return min(values, key=lambda v: abs(v - target))


def _repro_eigenvalue_table(table_id: int, data: dict, alpha: float,
                            rk_steps: int) -> TableReport:
    table = data["eigenvalue_tables"][str(table_id)]
    tol = table["tolerance"]
    report = TableReport(table_id=table_id, tolerance=tol)
    m = table["m"]
    parity = table["parity"]
    roots_by_column: dict[str, list[float]] = {}
    for column, order in table["column_orders"].items():
        accepted, _ = eigensolver.determinant_scan(
            alpha, ModeSpec(m, parity), order=order,
            beta_max=table["scan_max"], scan_step=table["scan_step"],
        )
        roots_by_column[column] = [p.beta for p in accepted if not p.trivial]
    for row in table["rows"]:
        for column, ref in row["cells"].items():
            label = f"{row['label']}/{column}"
            if ref is None:
                continue
            comp = _nearest(roots_by_column[column], ref)
            diff = None if comp is None else abs(comp - ref)
            report.rows.append(ReportRow(
                label=label, computed=comp, paper=ref, abs_diff=diff,
                passed=diff is not None and diff <= tol,
            ))
        de_ref = row["de"]
        bracket = (de_ref - 0.15, de_ref + 0.15)
        cfg = oracles.OracleConfig(rk_step_count=rk_steps)
        try:
            de_comp = oracles.rk_find_eigenvalue(alpha, m, parity, bracket, cfg).beta
            diff = abs(de_comp - de_ref)
            report.rows.append(ReportRow(
                label=f"{row['label']}/DE", computed=de_comp, paper=de_ref,
                abs_diff=diff, passed=diff <= tol,
            ))
        except oracles.OracleError as exc:
            report.rows.append(ReportRow(
                label=f"{row['label']}/DE", computed=None, paper=de_ref,
                abs_diff=None, passed=False, note=str(exc),
            ))
    for absent in table["absent"]:
        lo, hi = absent["window"]
        hits = [b for b in roots_by_column[absent["column"]] if lo <= b <= hi]
        report.rows.append(ReportRow(
            label=f"{absent['row']}/{absent['column']} absent",
            computed=hits[0] if hits else None, paper=None,
            abs_diff=None, passed=not hits,
            note=f"no root expected in [{lo}, {hi}]",
        ))
    return report


def _truncated(psi: Eigenfunction, kmax: int) -> Eigenfunction:
    k = min(kmax, psi.max_harmonic)
    return replace(psi, a=psi.a[: k + 1], b=psi.b[: k + 1])


def _repro_table4(data: dict, alpha: float, rk_steps: int) -> TableReport:
    table = data["table4"]
    tol = table["tolerance"]
    report = TableReport(table_id=4, tolerance=tol)
    thetas = [t * math.pi for t in table["theta_over_pi"]]
    state = table["state"]
    states = eigensolver.find_eigenvalues(
        alpha, ModeSpec(state["m"], state["parity"]), order=table["order"],
        beta_max=table["scan_max"])
    index = _select_state(states, state["lambda"])
    if index is None:
        report.rows.append(ReportRow("state", None, None, None, False,
                                     note="state not found"))
        return report
    pair = states[index]
    psi = _truncated(from_series(pair.series, pair.beta, pair.mode),
                     table["series_truncation"])
    fs = [(t, float(evaluate(psi, t))) for t in thetas]
    fs_cmp = compare_scaled(fs, list(zip(thetas, table["psi_fs"])))
    for (t, v), ref in zip(fs, table["psi_fs"]):
        scaled = fs_cmp.scale * v
        report.rows.append(ReportRow(
            label=f"FS theta={t:+.4f}", computed=scaled, paper=ref,
            abs_diff=abs(scaled - ref), passed=abs(scaled - ref) <= tol,
        ))
    cfg = oracles.OracleConfig(rk_step_count=rk_steps)
    beta_de = oracles.rk_find_eigenvalue(alpha, state["m"], state["parity"],
                                         tuple(table["de_bracket"]), cfg).beta
    rk = oracles.rk_sample(alpha, state["m"], beta_de, state["parity"], thetas, cfg)
    rk_cmp = compare_scaled(rk, list(zip(thetas, table["psi_de"])))
    for (t, v), ref in zip(rk, table["psi_de"]):
        scaled = rk_cmp.scale * v
        report.rows.append(ReportRow(
            label=f"DE theta={t:+.4f}", computed=scaled, paper=ref,
            abs_diff=abs(scaled - ref), passed=abs(scaled - ref) <= tol,
        ))
    report.notes.append(
        f"single least-squares scale: FS {fs_cmp.scale:.6g}, DE {rk_cmp.scale:.6g}"
    )
    return report


_COEFF_KEYS = {"a0": ("a", 0), "b1": ("b", 1), "a2": ("a", 2), "b3": ("b", 3),
               "a4": ("a", 4), "b5": ("b", 5)}


def _repro_table5(data: dict, alpha: float) -> TableReport:
    table = data["table5"]
    tol = table["ratio_tolerance"]
    report = TableReport(table_id=5, tolerance=tol)
    for row in table["rows"]:
        state = row["state"]
        states = eigensolver.find_eigenvalues(
            alpha, ModeSpec(state["m"], state["parity"]), order=table["order"],
            beta_max=row["scan_max"])
        index = _select_state(states, state["lambda"])
        if index is None:
            report.rows.append(ReportRow(row["label"], None, None, None, False,
                                         note="state not found"))
            continue
        pair = states[index]
        psi = normalize(from_series(pair.series, pair.beta, pair.mode), alpha)
        printed = row["printed"]
        ref_key = next(iter(printed))
        ref_printed = printed[ref_key]
        arr_r, k_r = _COEFF_KEYS[ref_key]
        ref_computed = getattr(psi, arr_r)[k_r]
        for key, value in printed.items():
            if key == ref_key:
                continue
            arr, k = _COEFF_KEYS[key]
            comp_ratio = abs(getattr(psi, arr)[k] / ref_computed)
            ref_ratio = abs(value / ref_printed)
            rel = abs(comp_ratio - ref_ratio) / abs(ref_ratio)
            report.rows.append(ReportRow(
                label=f"{row['label']} |{key}/{ref_key}|", computed=comp_ratio,
                paper=ref_ratio, abs_diff=rel, passed=rel <= tol,
                note="relative",
            ))
        # tail dominance, reported per state: unprinted harmonics against the
        # smallest printed one, in the same scale
        scale = ref_printed / ref_computed
        printed_slots = {(_COEFF_KEYS[k]) for k in printed}
        smallest_printed = min(abs(v) for v in printed.values())
        worst = 0.0
        for k in range(psi.max_harmonic + 1):
            for arr_name, coeff in (("a", psi.a[k]), ("b", psi.b[k])):
                if (arr_name, k) in printed_slots or (arr_name == "b" and k == 0):
                    continue
                worst = max(worst, abs(coeff * scale))
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


def cmd_repro(args) -> int:
    data = golden_tables()
    alpha = data["alpha"]
    if args.table in (1, 2, 3):
        report = _repro_eigenvalue_table(args.table, data, alpha, args.rk_steps)
    elif args.table == 4:
        report = _repro_table4(data, alpha, args.rk_steps)
    else:
        report = _repro_table5(data, alpha)
    if args.format == "json":
        _emit(render_json(report.payload()), args.out)
    else:
        _emit(report.render_text(), args.out)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------

def cmd_embed(args) -> int:
    shape = TorusShape(minor_radius=args.minor_radius,
                       major_radius=args.major_radius)
    rows = []
    for i in range(args.grid):
        theta = 2.0 * math.pi * i / args.grid
        for j in range(args.grid):
            phi = 2.0 * math.pi * j / args.grid
            x, y, z = embed(theta, phi, shape)
            rows.append([theta, phi, x, y, z])
    _emit(render_csv_rows(["theta", "phi", "x", "y", "z"], rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"empty integer list {text!r}")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _state_arg(text: str):
    return "trivial" if text == "trivial" else _positive_int(text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.5,
                        help="aspect ratio a/R (default 0.5)")
    parser.add_argument("--order", type=_positive_int, default=10,
                        help="series truncation order (default 10)")
    parser.add_argument("--beta-max", type=float, default=25.0,
                        help="upper end of the eigenvalue search (default 25)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toruseig",
        description="Eigenvalues and eigenfunctions of a quantum particle "
                    "on a torus surface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="compute eigenvalue spectra")
    _add_common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--m", type=_int_list, default=[0],
                   help="comma-separated azimuthal indices (default 0)")
    p.add_argument("--parity", choices=("even", "odd", "both"), default="both")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("repro", help="recompute a golden reference table")
    p.add_argument("--table", type=int, choices=TABLE_IDS, required=True)
    p.add_argument("--rk-steps", type=int, default=4096)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_repro)

    p = sub.add_parser("wavefn", help="export one eigenfunction")
    _add_common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--state", type=_state_arg, required=True,
                   help="1-based index within the parity sector, or 'trivial'")
    p.add_argument("--parity", choices=("even", "odd"), default="even")
    p.add_argument("--samples", type=_positive_int, default=64)
    p.set_defaults(func=cmd_wavefn)

    p = sub.add_parser("compare", help="cross-check a state between methods")
    _add_common(p)
    p.add_argument("--rk-steps", type=int, default=4096,
                   help="RK4 steps per half-loop (default 4096)")
    p.add_argument("--fd-grid", type=int, default=1024,
                   help="finite-difference grid size (default 1024)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--state", type=_state_arg, required=True)
    p.add_argument("--parity", choices=("even", "odd"), default="even")
    p.add_argument("--methods", type=lambda s: [x for x in s.split(",") if x],
                   default=["fourier", "rk"],
                   help="comma-separated subset of fourier,rk,fd")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("embed", help="emit a surface mesh as CSV")
    p.add_argument("--minor-radius", type=float, default=1.0)
    p.add_argument("--major-radius", type=float, default=2.0)
    p.add_argument("--grid", type=_positive_int, default=32)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_embed)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "methods"):
        bad = [x for x in args.methods if x not in ("fourier", "rk", "fd")]
        if bad:
            parser.error(f"unknown methods: {', '.join(bad)}")
    try:
        return args.func(args)
    except (oracles.OracleError, ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
