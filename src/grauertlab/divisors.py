"""Convergence experiments for families of principal divisors.

A family is a sequence of defining functions f_j with a declared limit f_0,
convergence supplied as data (coefficient paths in 1/j, and twisting units).
Metric and leaf-curvature gaps are measured as sups over a fixed compact
grid with an exclusion margin around the limit divisor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .curvature import holo_sectional_curvature
from .density import DIVISOR_TOL
from .errors import GridTouchesDivisor, UnitVanishes
from .foliation import VectorField, leaf_curvature
from .holomorphic import HoloMap, Polynomial, _json_int, _json_object
from .metric import metric_matrix

#: slack allowed in the liminf inequality K_{f0} <= min over the tail of K_{fj}
LIMINF_TOL = 1e-6


@dataclass(frozen=True)
class DivisorFamily:
    """Defining functions f_j = h (base + per_j / j) -> f_0, indexed by J;
    ``base`` and ``per_j`` are (exponent, coefficient) pairs in template
    order, ``units`` the polynomial twists h, innermost first."""

    f0: HoloMap
    base: tuple[tuple[tuple[int, ...], complex], ...]
    per_j: tuple[tuple[tuple[int, ...], complex], ...]
    J: tuple[int, ...]
    units: tuple[Polynomial, ...] = ()

    def __post_init__(self):
        if not self.J:
            raise ValueError("index list J must be nonempty")
        if any(j < 1 for j in self.J):
            raise ValueError("family indices must be >= 1")
        Polynomial(self.f0.n, dict(self.per_j))  # exponents fit the dimension of f0

    def member(self, j: int) -> HoloMap:
        terms = dict(self.base)
        for exp, c in self.per_j:
            terms[exp] = terms.get(exp, 0) + c / j
        p = Polynomial(self.f0.n, terms)
        for h in self.units:
            p = h * p
        return HoloMap(p)

    @staticmethod
    def from_template(
        f0: Polynomial, base: dict, per_j: dict, J: Sequence[int]
    ) -> "DivisorFamily":
        """Family with coefficients base[exp] + per_j[exp] / j; base must be f0."""
        if Polynomial(f0.n, base) != f0:
            raise ValueError("the family template's base is not f0")
        return DivisorFamily(HoloMap(f0), tuple(base.items()), tuple(per_j.items()), tuple(J))

    @staticmethod
    def from_json(obj) -> "DivisorFamily":
        """Descriptor {"f0": poly, "fj": {"template": poly-with-1/j-terms},
        "J": [...]}.

        Template terms carry the constant part in ("re", "im") and the 1/j
        coefficient in ("re_j", "im_j").
        """
        _json_object(obj, {"f0", "fj", "J"}, "family")
        f0 = Polynomial.from_json(obj["f0"])
        fj = _json_object(obj["fj"], {"template"}, "family fj")
        template = _json_object(fj["template"], {"terms"}, "family template")
        base: dict = {}
        per_j: dict = {}
        for t in template["terms"]:
            exp, (c0, cj) = Polynomial.term_from_json(t, ("", "_j"))
            if c0 != 0:
                base[exp] = base.get(exp, 0) + c0
            if cj != 0:
                per_j[exp] = per_j.get(exp, 0) + cj
        return DivisorFamily.from_template(f0, base, per_j, [_json_int(j) for j in obj["J"]])


@dataclass(frozen=True)
class CompactGrid:
    """Finite grid on a box in C^n, minus a margin around the limit divisor.

    ``box`` holds per-axis (re_min, re_max, im_min, im_max); points with
    |f_0| < delta are dropped.
    """

    box: tuple[tuple[float, float, float, float], ...]
    resolution: int
    delta: float

    def __post_init__(self):
        if self.delta < 1e-6:
            raise ValueError("exclusion margin delta must be >= 1e-6")
        if self.resolution < 2:
            raise ValueError("resolution must be >= 2")

    def points(self, f0: HoloMap) -> list[tuple[complex, ...]]:
        """Deterministically ordered grid points off the delta-tube of f0."""
        axes = []
        for re_min, re_max, im_min, im_max in self.box:
            re = np.linspace(re_min, re_max, self.resolution)
            im = np.linspace(im_min, im_max, self.resolution)
            axes.append([complex(a, b) for a in re for b in im])
        pts = [p for p in itertools.product(*axes) if abs(f0(p)) >= self.delta]
        if not pts:
            raise ValueError("grid is empty after divisor exclusion")
        return pts

    def to_json(self) -> dict:
        return {
            "box": [list(b) for b in self.box],
            "resolution": self.resolution,
            "delta": self.delta,
        }

    @staticmethod
    def from_json(obj) -> "CompactGrid":
        _json_object(obj, {"box", "resolution", "delta"}, "grid")
        return CompactGrid(
            tuple(tuple(float(v) for v in b) for b in obj["box"]),
            _json_int(obj["resolution"]),
            float(obj["delta"]),
        )


def _op_norm(diff: np.ndarray) -> float:
    """||diff||_2, the largest singular value: the LAPACK call of
    np.linalg.norm(diff, 2), or |d| for a finite real 1 x 1 matrix d (the
    symmetrized diagonal of a metric matrix is exactly real)."""
    if len(diff) == 1:
        d = diff[0, 0]
        if d.imag == 0 and math.isfinite(d.real):
            return float(abs(d.real))
    return float(np.linalg.svd(diff, compute_uv=False)[0])


def _sup_gaps(fam: DivisorFamily, grid: CompactGrid, js, side, norm) -> list[float]:
    """For each j in js, the sup over the grid of norm(side(f_j, z) - side(f_0, z)).

    The f_0 side is computed at every grid point before any f_j; each f_j
    must stay off its divisor at every grid point (GridTouchesDivisor).
    """
    pts = grid.points(fam.f0)
    limit = [side(fam.f0, p) for p in pts]
    gaps = []
    for j in js:
        fj = fam.member(j)
        touching = [p for p in pts if abs(fj(p)) < DIVISOR_TOL]
        if touching:
            raise GridTouchesDivisor(j, touching)
        gap = 0.0
        for p, s0 in zip(pts, limit):
            gap = max(gap, norm(side(fj, p) - s0))
        gaps.append(gap)
    return gaps


def sup_metric_gap(fam: DivisorFamily, grid: CompactGrid, *js: int) -> list[float]:
    """For each j in js, in order, the sup over the grid of the operator norm
    ||G_j(z) - G_0(z)||_2; G_0 is computed once for all of them."""
    return _sup_gaps(fam, grid, js, metric_matrix, _op_norm)


def curvature_gap(
    fam: DivisorFamily, X: VectorField, grid: CompactGrid, *js: int
) -> list[float]:
    """For each j in js, in order, the sup over the grid of the leaf-curvature
    gap of the foliation of X; the f_0 leaf curvatures are computed once."""
    return _sup_gaps(fam, grid, js, lambda f, p: leaf_curvature(f, X, p), abs)


def twisted_family(fam: DivisorFamily, unit: HoloMap, grid: CompactGrid) -> DivisorFamily:
    """Family h*f_j with the same divisors, twisted by a nonvanishing unit.

    The unit is checked to stay above 1e-8 on the grid.
    """
    low = min(abs(unit(p)) for p in grid.points(fam.f0))
    if low <= 1e-8:
        raise UnitVanishes(f"min |h| = {low:.3e} on the grid")
    if unit.den is not None:
        raise ValueError("twisting unit must be polynomial")
    return replace(
        fam, f0=HoloMap(unit.num * fam.f0.num, fam.f0.den), units=(*fam.units, unit.num)
    )


def liminf_check(fam: DivisorFamily, p, V, tail: int) -> dict:
    """Limit-inferior inequality report for the sectional curvature at (p, V).

    Asserts K_{f0}(p, V) <= min over the tail of K_{fj}(p, V) + LIMINF_TOL.
    """
    K0 = holo_sectional_curvature(fam.f0, p, V)
    tail_js = [j for j in fam.J if j >= tail]
    if not tail_js:
        raise ValueError(f"no family indices >= {tail}")
    Kj = {j: holo_sectional_curvature(fam.member(j), p, V) for j in tail_js}
    Kj_min = min(Kj.values())
    return {
        "K0": K0,
        "Kj_min": Kj_min,
        "margin": Kj_min - K0,
        "tail": tail,
        "passed": K0 <= Kj_min + LIMINF_TOL,
    }
