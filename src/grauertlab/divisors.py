"""Convergence experiments for families of principal divisors.

A family is a sequence of defining functions f_j with a declared limit f_0,
convergence supplied as data (closed-form coefficient paths in 1/j).
Metric and leaf-curvature gaps are measured as sups over a fixed compact
grid with an exclusion margin around the limit divisor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .curvature import holo_sectional_curvature
from .errors import GridTouchesDivisor, UnitVanishes
from .foliation import VectorField, leaf_curvature
from .holomorphic import HoloMap, Polynomial
from .metric import DIVISOR_TOL, metric_matrix

#: slack allowed in the liminf inequality K_{f0} <= min over the tail of K_{fj}
LIMINF_TOL = 1e-6


@dataclass(frozen=True)
class DivisorFamily:
    """Defining functions f_j -> f_0, indexed by a finite list J."""

    f0: HoloMap
    member_fn: Callable[[int], HoloMap]
    J: tuple[int, ...]

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
        """Family with coefficients base[exp] + per_j[exp] / j."""
        n = f0.n

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


def sup_metric_gap(fam: DivisorFamily, grid: CompactGrid, j: int) -> float:
    """sup over the grid of the operator norm ||G_j(z) - G_0(z)||_2."""
    pts, fj = _checked_points(fam, grid, j)
    gap = 0.0
    for p in pts:
        diff = metric_matrix(fj, p) - metric_matrix(fam.f0, p)
        # the largest singular value: the LAPACK call of np.linalg.norm(diff, 2)
        gap = max(gap, float(np.linalg.svd(diff, compute_uv=False)[0]))
    return gap


def curvature_gap(
    fam: DivisorFamily, X: VectorField, grid: CompactGrid, j: int
) -> float:
    """sup over the grid of the leaf-curvature gap of the foliation of X."""
    pts, fj = _checked_points(fam, grid, j)
    gap = 0.0
    for p in pts:
        kj = leaf_curvature(fj, X, p)
        k0 = leaf_curvature(fam.f0, X, p)
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
