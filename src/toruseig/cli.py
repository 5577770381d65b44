"""Command-line surface: argument parsing and rendering.

Subcommands:

* ``spectrum``  eigenvalues per (m, parity) sector, JSON or CSV
* ``repro``     recompute one golden reference table and diff it cell by cell
* ``wavefn``    export one eigenfunction (trig coefficients plus samples)
* ``compare``   cross-check a state between the fourier, rk, and fd methods
* ``embed``     (theta, phi, x, y, z) surface mesh for external plotting

The checks behind ``repro`` and ``compare``, and the state lookup ``wavefn``
shares with them, live in ``toruseig.checks``: a handler calls, renders and
returns the exit code.

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

from . import checks, eigensolver, oracles
from .checks import ReportRow, TableReport, golden_tables
from .geometry import TorusShape, embed
from .recursion import ModeSpec
from .wavefunction import Eigenfunction, evaluate, from_series, normalize

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

# CSV columns: four per sector record, then four per eigenvalue, each with the
# parser of its text
_SPECTRUM_COLUMNS = ("alpha", "m", "parity", "order", "beta", "trivial", "residual",
                     "converged")
_SPECTRUM_PARSERS = (float, int, str, int, float, "true".__eq__, float, "true".__eq__)


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
        values = [parse(row[c]) for c, parse in zip(_SPECTRUM_COLUMNS, _SPECTRUM_PARSERS)]
        rec = records.setdefault(tuple(values[:4]),
                                 dict(zip(_SPECTRUM_COLUMNS[:4], values[:4]), eigenvalues=[]))
        rec["eigenvalues"].append(dict(zip(_SPECTRUM_COLUMNS[4:], values[4:])))
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
        rows = [[r[c] for c in _SPECTRUM_COLUMNS[:4]] + [ev[c] for c in _SPECTRUM_COLUMNS[4:]]
                for r in records for ev in r["eigenvalues"]]
        _emit(render_csv_rows(list(_SPECTRUM_COLUMNS), rows), args.out)
    return 0


def _parities(choice: str) -> list[str]:
    return ["even", "odd"] if choice == "both" else [choice]


# ---------------------------------------------------------------------------
# wavefn
# ---------------------------------------------------------------------------

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
    states, index = checks.find_state(args.alpha, args.m, args.parity, lam,
                                      args.order, args.beta_max)
    pair = states[index]
    psi = normalize(from_series(pair.series, pair.beta, pair.mode,
                                lambda_index=None if lam == "trivial" else lam),
                    args.alpha)
    record = eigenfunction_record(args.alpha, psi, lam)
    if args.format == "json":
        record_out = dict(record)
        record_out["parity"] = args.parity
        thetas = [2.0 * math.pi * j / args.samples for j in range(args.samples)]
        record_out["samples"] = [[t, v] for t, v in zip(thetas, evaluate(psi, thetas).tolist())]
        _emit(render_json(record_out), args.out)
    else:
        columns = ["alpha", "m", "lambda", "beta", "normalization"]
        rows = [[record[c] for c in columns] + [k, record["a"][k], record["b"][k]]
                for k in range(len(record["a"]))]
        _emit(render_csv_rows(columns + ["k", "a_k", "b_k"], rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# compare and repro: the checks live in toruseig.checks
# ---------------------------------------------------------------------------

def cmd_compare(args) -> int:
    payload = checks.compare_state(args.alpha, args.m, args.parity, args.state,
                                   args.order, args.beta_max, args.methods,
                                   args.rk_steps, args.fd_grid)
    _emit(render_json(payload), args.out)
    return 0 if payload["pass"] else 1


def cmd_repro(args) -> int:
    report = checks.reproduce_table(args.table, args.rk_steps)
    text = render_json(report.payload()) if args.format == "json" else report.render_text()
    _emit(text, args.out)
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

def _m_list(text: str) -> list[int]:
    values = [_m_value(part) for part in text.split(",") if part != ""]
    if not values:
        raise argparse.ArgumentTypeError(f"empty integer list {text!r}")
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
    return values


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _m_value(text: str) -> int:
    return _int_at_least(text, 0)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from exc
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def _methods(text: str) -> list[str]:
    methods = [x for x in text.split(",") if x]
    bad = [x for x in methods if x not in ("fourier", "rk", "fd")]
    if bad:
        raise argparse.ArgumentTypeError(f"unknown methods: {', '.join(bad)}")
    if len(set(methods)) < 2:
        raise argparse.ArgumentTypeError("compare needs at least two of fourier, rk, fd")
    return methods


def _rk_steps(text: str) -> int:
    return _int_at_least(text, 100)


def _fd_grid(text: str) -> int:
    value = _int_at_least(text, 64)
    if value % 2 or value > oracles.FD_GRID_CAP:
        raise argparse.ArgumentTypeError(
            f"must be even and in [64, {oracles.FD_GRID_CAP}], got {value}")
    return value


def _state_arg(text: str):
    return "trivial" if text == "trivial" else _positive_int(text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.5,
                        help="aspect ratio a/R (default 0.5)")
    parser.add_argument("--order", type=_positive_int, default=10,
                        help="series truncation order (default 10)")
    parser.add_argument("--beta-max", type=_positive_float, default=25.0,
                        help="upper end of the eigenvalue search (default 25)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.set_defaults(usage_error=parser.error)


def _add_state(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=_m_value, required=True)
    parser.add_argument("--state", type=_state_arg, required=True,
                        help="1-based index within the parity sector, or 'trivial'")
    parser.add_argument("--parity", choices=("even", "odd"), default="even")


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
    p.add_argument("--m", type=_m_list, default=[0],
                   help="comma-separated azimuthal indices (default 0)")
    p.add_argument("--parity", choices=("even", "odd", "both"), default="both")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("repro", help="recompute a golden reference table")
    p.add_argument("--table", type=int, choices=checks.TABLE_IDS, required=True)
    p.add_argument("--rk-steps", type=_rk_steps, default=4096)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_repro)

    p = sub.add_parser("wavefn", help="export one eigenfunction")
    _add_common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_state(p)
    p.add_argument("--samples", type=_positive_int, default=64)
    p.set_defaults(func=cmd_wavefn)

    p = sub.add_parser("compare", help="cross-check a state between methods")
    _add_common(p)
    p.add_argument("--rk-steps", type=_rk_steps, default=4096,
                   help="RK4 steps per half-loop (default 4096)")
    p.add_argument("--fd-grid", type=_fd_grid, default=1024,
                   help="finite-difference grid size (default 1024)")
    _add_state(p)
    p.add_argument("--methods", type=_methods,
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


_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # built once per process: the handlers never mutate a parsed default
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    parser = _PARSER
    args = parser.parse_args(argv)
    # the m != 0 tail determinant (eigensolver.determinant) needs order >= 2
    if getattr(args, "order", 2) < 2:
        ms = args.m if isinstance(args.m, list) else [args.m]
        if any(ms):
            args.usage_error(f"argument --order: must be >= 2 when m != 0, got {args.order}")
    try:
        return args.func(args)
    except (oracles.OracleError, ValueError, ArithmeticError, LookupError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
