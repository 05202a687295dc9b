"""Command-line front-end: experiment orchestration and CSV/JSON emission.

Design contract: exit 0 on success (and all-pass for ``verify``), exit 1 on
a failed verification check, exit 2 on configuration, IO, domain or
floating-point errors.  Bad arguments, descriptors and output paths raise
``ValueError``, the one input-error type.  Output files are written
atomically (temp file + rename).  A CSV cell is an int (``m``, ``j``) or a
float printed ``%.17g``, so every CSV round-trips to identical doubles.  The
parser is built once per process and keeps no state between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from .curvature import holo_sectional_curvature, sup_sectional_curvature
from .density import grauert_curvature, u_jet
from .divisors import (
    CompactGrid,
    DivisorFamily,
    curvature_gap,
    liminf_check,
    sup_metric_gap,
)
from .errors import GrauertError
from .foliation import VectorField, divisor_approach, geometric_path, leaf_curvature
from .holomorphic import HoloMap
from .metric import metric_det, metric_eval, metric_matrix
from .verify import DEFAULT_SEED, SUITES, run_suite

FLOAT_FMT = "%.17g"

#: printf conversion of each CSV cell type; a cell of any other type is refused
_CELL_FMT = {float: FLOAT_FMT, np.float64: FLOAT_FMT, int: "%d"}


def _parse_complex(tok: str) -> complex:
    try:
        return complex(tok.replace(" ", ""))
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number {tok!r}") from exc


def _parse_vector(toks: list[str]) -> list[complex]:
    return [_parse_complex(t) for t in toks]


def _load(path: str, what: str, from_json):
    """Read the ``what`` descriptor at ``path`` and build it with ``from_json``,
    which checks the descriptor's schema."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON file {path}: {exc}") from exc
    try:
        return from_json(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"bad {what} descriptor {path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    """Print to stdout, or write atomically to ``out``."""
    if out is None:
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(out))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".grauertlab-")
        try:
            with os.fdopen(fd, "w", newline="") as fh:
                fh.write(text)
            os.replace(tmp, out)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from exc


def emit_grid(rows: list, schema: list[str], out: str | None) -> None:
    """CSV of ``rows``, each in ``schema`` order, LF-terminated: float cells
    print as FLOAT_FMT, int cells as ``str`` does, one format string a row."""
    lines = [",".join(schema)]
    for row in rows:
        if len(row) != len(schema):
            raise ValueError(f"row of {len(row)} values for schema {schema}")
        try:
            fmt = ",".join([_CELL_FMT[type(x)] for x in row])
        except KeyError as exc:
            raise ValueError(f"CSV cells are floats or ints, not {exc.args[0].__name__}") from None
        lines.append(fmt % tuple(row))
    lines.append("")
    _emit("\n".join(lines), out)


def _emit_json(obj: dict, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _point_columns(n: int) -> list[str]:
    """CSV columns re1..reN, im1..imN of a point of C^n, filled by _point_values."""
    return [f"re{i+1}" for i in range(n)] + [f"im{i+1}" for i in range(n)]


def _point_values(p) -> list[float]:
    return [z.real for z in p] + [z.imag for z in p]


# -- subcommands -------------------------------------------------------------

def _cmd_u_table(a) -> int:
    if a.points < 2 or not 0 < a.t_min < a.t_max < math.inf:
        raise ValueError("need points >= 2 and 0 < t-min < t-max")
    rows = [u_jet(float(t)) for t in np.geomspace(a.t_min, a.t_max, a.points)]
    emit_grid(rows, ["t", "u", "up", "upp"], a.out)
    return 0


def _cmd_kg_grid(a) -> int:
    if not 0 < a.rmin < a.rmax < math.inf or a.angles < 1 or a.radii < 1:
        raise ValueError("need 0 < rmin < rmax, angles >= 1, radii >= 1")
    turns = [np.exp(2j * np.pi * q / a.angles) for q in range(a.angles)]
    zs = (r * w for r in np.geomspace(a.rmin, a.rmax, a.radii) for w in turns)
    rows = [(float(z.real), float(z.imag), grauert_curvature(z)) for z in zs]
    emit_grid(rows, ["re", "im", "Kg"], a.out)
    return 0


def _cmd_metric_eval(a) -> int:
    f = _load(a.f, "map", HoloMap.from_json)
    z = _parse_vector(a.z)
    V = _parse_vector(a.V)
    G = metric_matrix(f, z)
    _emit_json(
        {
            "phi": metric_eval(f, z, V),
            "G": [[[x.real, x.imag] for x in row] for row in G],
            "detG": metric_det(f, z),
        },
        a.out,
    )
    return 0


def _cmd_hsc(a) -> int:
    f = _load(a.f, "map", HoloMap.from_json)
    K = holo_sectional_curvature(f, _parse_vector(a.p), _parse_vector(a.V))
    _emit_json({"K": K}, a.out)
    return 0


def _cmd_kplus(a) -> int:
    f = _load(a.f, "map", HoloMap.from_json)
    best, V = sup_sectional_curvature(
        f, _parse_vector(a.p), samples=a.samples, seed=a.seed, return_direction=True
    )
    _emit_json(
        {
            "k_plus": best,
            "direction": [[v.real, v.imag] for v in V],
            "samples": a.samples,
            "seed": a.seed,
        },
        a.out,
    )
    return 0


def _cmd_curvature_grid(a) -> int:
    f = _load(a.f, "map", HoloMap.from_json)
    grid = _load(a.grid, "grid", CompactGrid.from_json)
    V = _parse_vector(a.V)
    rows = [(*_point_values(p), holo_sectional_curvature(f, p, V)) for p in grid.points(f)]
    emit_grid(rows, _point_columns(f.n) + ["K"], a.out)
    return 0


def _cmd_leaf_curvature(a) -> int:
    f = _load(a.f, "map", HoloMap.from_json)
    X = _load(a.X, "field", VectorField.from_json)
    K = leaf_curvature(f, X, _parse_vector(a.p))
    _emit_json({"K": K}, a.out)
    return 0


def _cmd_leaf_approach(a) -> int:
    f = _load(a.f, "map", HoloMap.from_json)
    base = _parse_vector(a.base)
    direction = _parse_vector(a.direction)
    path = geometric_path(base, direction, start=a.start, ratio=a.ratio, steps=a.steps)
    rows = [(r["m"], *_point_values(r["z"]), r["K"], r["gap"])
            for r in divisor_approach(f, base, path)]
    emit_grid(rows, ["m"] + _point_columns(f.n) + ["K", "gap"], a.out)
    return 0


def _cmd_converge_metric(a) -> int:
    fam = _load(a.family, "family", DivisorFamily.from_json)
    grid = _load(a.grid, "grid", CompactGrid.from_json)
    rows = [(j, gap, grid.delta)
            for j, gap in zip(fam.J, sup_metric_gap(fam, grid, *fam.J))]
    emit_grid(rows, ["j", "gap", "delta"], a.out)
    return 0


def _cmd_converge_curvature(a) -> int:
    fam = _load(a.family, "family", DivisorFamily.from_json)
    grid = _load(a.grid, "grid", CompactGrid.from_json)
    X = _load(a.X, "field", VectorField.from_json)
    rows = [(j, gap, grid.delta)
            for j, gap in zip(fam.J, curvature_gap(fam, X, grid, *fam.J))]
    emit_grid(rows, ["j", "gap", "delta"], a.out)
    return 0


def _cmd_liminf(a) -> int:
    fam = _load(a.family, "family", DivisorFamily.from_json)
    rep = liminf_check(fam, _parse_vector(a.p), _parse_vector(a.V), a.tail)
    _emit_json(
        {"K0": rep["K0"], "Kj_min": rep["Kj_min"], "margin": rep["margin"]}, a.out
    )
    return 0 if rep["passed"] else 1


def _cmd_verify(a) -> int:
    rep = run_suite(a.suite, seed=a.seed)
    _emit_json(rep, a.out)
    return 0 if rep["pass"] else 1


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts like a negative number as a value, so that
    coordinates such as ``-1e-3``, ``-2j`` and ``-1+2j`` are not taken for
    options; argparse alone accepts only ``-1`` and ``-0.5`` forms.  No
    option of this parser starts with a digit.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="grauertlab",
        description="Grauert-metric experiments on complements of principal divisors.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        return p

    p = add("u-table", _cmd_u_table, help="CSV table of the metric profile u")
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)

    p = add("kg-grid", _cmd_kg_grid, help="CSV grid of the Grauert curvature")
    p.add_argument("--rmin", type=float, required=True)
    p.add_argument("--rmax", type=float, required=True)
    p.add_argument("--angles", type=int, required=True)
    p.add_argument("--radii", type=int, default=16)

    p = add("metric-eval", _cmd_metric_eval, help="metric value, matrix, determinant")
    p.add_argument("--f", required=True, help="map JSON file")
    p.add_argument("--z", nargs="+", required=True, help="point coordinates")
    p.add_argument("--V", nargs="+", required=True, help="direction coordinates")

    p = add("hsc", _cmd_hsc, help="holomorphic sectional curvature at (p, V)")
    p.add_argument("--f", required=True)
    p.add_argument("--p", nargs="+", required=True)
    p.add_argument("--V", nargs="+", required=True)

    p = add("kplus", _cmd_kplus, help="sampled supremum of sectional curvature")
    p.add_argument("--f", required=True)
    p.add_argument("--p", nargs="+", required=True)
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("curvature-grid", _cmd_curvature_grid, help="CSV grid of hsc values")
    p.add_argument("--f", required=True)
    p.add_argument("--grid", required=True, help="grid JSON file")
    p.add_argument("--V", nargs="+", required=True)

    p = add("leaf-curvature", _cmd_leaf_curvature, help="leaf curvature of a field")
    p.add_argument("--f", required=True)
    p.add_argument("--X", required=True, help="vector-field JSON file")
    p.add_argument("--p", nargs="+", required=True)

    p = add("leaf-approach", _cmd_leaf_approach,
            help="transverse-field curvature along a geometric path into the divisor")
    p.add_argument("--f", required=True)
    p.add_argument("--base", nargs="+", required=True, help="divisor point")
    p.add_argument("--direction", nargs="+", required=True)
    p.add_argument("--start", type=float, default=1.0)
    p.add_argument("--ratio", type=float, default=0.1)
    p.add_argument("--steps", type=int, default=9)

    p = add("converge-metric", _cmd_converge_metric, help="CSV of metric gaps per j")
    p.add_argument("--family", required=True, help="family JSON file")
    p.add_argument("--grid", required=True)

    p = add("converge-curvature", _cmd_converge_curvature,
            help="CSV of leaf-curvature gaps per j")
    p.add_argument("--family", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--X", required=True)

    p = add("liminf", _cmd_liminf, help="liminf inequality report")
    p.add_argument("--family", required=True)
    p.add_argument("--p", nargs="+", required=True)
    p.add_argument("--V", nargs="+", required=True)
    p.add_argument("--tail", type=int, required=True)

    p = add("verify", _cmd_verify, help="run a bundled verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (GrauertError, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
