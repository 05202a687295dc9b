"""Convergence experiments for families of principal divisors.

A family is a sequence of defining functions f_j with a declared limit f_0,
convergence supplied as data (closed-form coefficient paths in 1/j).
Metric and leaf-curvature gaps are measured as sups over a fixed compact
grid with an exclusion margin around the limit divisor.

The f_0 side of a gap -- G_0 or the f_0 leaf curvature at every grid point --
is the same for every j, so a family memoizes it: the first gap call over a
grid (and, for leaf curvature, a field X) computes it in the point loop, as
every call did before, and stores it once that whole loop has run; later
calls for other j read it.  Within a point f_j is evaluated before f_0, and
an f_0 side that raised is never stored, so every call raises the same first
exception as a call on a fresh family, and every gap is the same bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .curvature import holo_sectional_curvature
from .density import DIVISOR_TOL
from .errors import GridTouchesDivisor, UnitVanishes
from .foliation import VectorField, leaf_curvature
from .holomorphic import HoloMap, Polynomial
from .metric import metric_matrix

#: slack allowed in the liminf inequality K_{f0} <= min over the tail of K_{fj}
LIMINF_TOL = 1e-6


@dataclass(frozen=True)
class DivisorFamily:
    """Defining functions f_j -> f_0, indexed by a finite list J."""

    f0: HoloMap
    member_fn: Callable[[int], HoloMap]
    J: tuple[int, ...]
    #: the f_0 sides of the gaps, one entry per gap and grid; see the module
    #: docstring
    _limit_sides: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        if not self.J:
            raise ValueError("index list J must be nonempty")
        if any(j < 1 for j in self.J):
            raise ValueError("family indices must be >= 1")
        n = self.f0.n
        if self.member_fn(self.J[0]).n != n:
            raise ValueError("family members must share the dimension of f0")

    @property
    def n(self) -> int:
        return self.f0.n

    def member(self, j: int) -> HoloMap:
        return self.member_fn(j)

    @staticmethod
    def from_template(
        f0: Polynomial, base: dict, per_j: dict, J: Sequence[int]
    ) -> "DivisorFamily":
        """Family with coefficients base[exp] + per_j[exp] / j; base must be f0."""
        n = f0.n
        if Polynomial(n, base) != f0:
            raise ValueError("the family template's base is not f0")

        def member(j: int) -> HoloMap:
            terms = dict(base)
            for exp, c in per_j.items():
                terms[exp] = terms.get(exp, 0) + c / j
            return HoloMap(Polynomial(n, terms))

        return DivisorFamily(HoloMap(f0), member, tuple(J))

    @staticmethod
    def from_json(obj: dict) -> "DivisorFamily":
        """Descriptor {"f0": poly, "fj": {"template": poly-with-1/j-terms},
        "J": [...]}.

        Template terms carry the constant part in ("re", "im") and the 1/j
        coefficient in ("re_j", "im_j").
        """
        f0 = Polynomial.from_json(obj["f0"])
        base: dict = {}
        per_j: dict = {}
        for t in obj["fj"]["template"]["terms"]:
            exp = tuple(int(e) for e in t["exp"])
            c0 = complex(float(t.get("re", 0.0)), float(t.get("im", 0.0)))
            cj = complex(float(t.get("re_j", 0.0)), float(t.get("im_j", 0.0)))
            if c0 != 0:
                base[exp] = base.get(exp, 0) + c0
            if cj != 0:
                per_j[exp] = per_j.get(exp, 0) + cj
        return DivisorFamily.from_template(f0, base, per_j, [int(j) for j in obj["J"]])


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

    @property
    def n(self) -> int:
        return len(self.box)

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
    def from_json(obj: dict) -> "CompactGrid":
        return CompactGrid(
            tuple(tuple(float(v) for v in b) for b in obj["box"]),
            int(obj["resolution"]),
            float(obj["delta"]),
        )


def _checked_points(fam: DivisorFamily, grid: CompactGrid, j: int):
    pts = grid.points(fam.f0)
    fj = fam.member(j)
    touching = [p for p in pts if abs(fj(p)) < DIVISOR_TOL]
    if touching:
        raise GridTouchesDivisor(j, touching)
    return pts, fj


def _sides(fam: DivisorFamily, grid: CompactGrid, j: int, side, X=None):
    """(f_j side, f_0 side) at each grid point, the f_j side computed first.

    The f_0 sides are read from the family's memo when its entry for this
    ``side`` and grid was computed for this very field ``X`` (a field is not
    hashable); otherwise they are computed here, and stored once every point
    has been yielded.
    """
    pts, fj = _checked_points(fam, grid, j)
    # repr, not the grid: equal grids can differ in the sign of a zero bound,
    # and so in the signs of zero coordinates of their points
    key = (side, repr(grid))
    entry = fam._limit_sides.get(key)
    if entry is not None and entry[0] is X:
        for p, v0 in zip(pts, entry[1]):
            yield side(fj, p, X), v0
        return
    limit = []
    for p in pts:
        vj = side(fj, p, X)
        limit.append(side(fam.f0, p, X))
        yield vj, limit[-1]
    fam._limit_sides[key] = (X, limit)


def _metric_side(f: HoloMap, p, X) -> np.ndarray:
    return metric_matrix(f, p)


def _leaf_side(f: HoloMap, p, X: VectorField) -> float:
    return leaf_curvature(f, X, p)


def _op_norm(diff: np.ndarray) -> float:
    """||diff||_2, the largest singular value: the LAPACK call of
    np.linalg.norm(diff, 2), or |d| for a finite real 1 x 1 matrix d (the
    symmetrized diagonal of a metric matrix is exactly real)."""
    if len(diff) == 1:
        d = diff[0, 0]
        if d.imag == 0 and math.isfinite(d.real):
            return float(abs(d.real))
    return float(np.linalg.svd(diff, compute_uv=False)[0])


def sup_metric_gap(fam: DivisorFamily, grid: CompactGrid, j: int) -> float:
    """sup over the grid of the operator norm ||G_j(z) - G_0(z)||_2."""
    gap = 0.0
    for Gj, G0 in _sides(fam, grid, j, _metric_side):
        gap = max(gap, _op_norm(Gj - G0))
    return gap


def curvature_gap(
    fam: DivisorFamily, X: VectorField, grid: CompactGrid, j: int
) -> float:
    """sup over the grid of the leaf-curvature gap of the foliation of X."""
    gap = 0.0
    for kj, k0 in _sides(fam, grid, j, _leaf_side, X):
        gap = max(gap, abs(kj - k0))
    return gap


def twisted_family(
    fam: DivisorFamily, unit: HoloMap, grid: CompactGrid | None = None
) -> DivisorFamily:
    """Family h*f_j with the same divisors, twisted by a nonvanishing unit.

    If a grid is supplied the unit is checked to stay above 1e-8 on it.
    """
    if grid is not None:
        low = min(abs(unit(p)) for p in grid.points(fam.f0))
        if low <= 1e-8:
            raise UnitVanishes(f"min |h| = {low:.3e} on the grid")
    if unit.den is not None:
        raise ValueError("twisting unit must be polynomial")

    def member(j: int) -> HoloMap:
        fj = fam.member(j)
        return HoloMap(unit.num * fj.num, fj.den)

    f0 = HoloMap(unit.num * fam.f0.num, fam.f0.den)
    return DivisorFamily(f0, member, fam.J)


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
