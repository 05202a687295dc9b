"""Holomorphic vector fields, order-2 leaf charts, and the curvature of the
metric restricted to leaves.

A leaf chart is the order-2 Taylor solution of Z'(T) = X(Z(T)), Z(0) = p,
read off the 1-jet of the field X at p.  The leaf-restricted density h(T)
depends on f o Z, its derivative, and the field along the leaf, which is
Z', so its Wirtinger jet at T = 0 -- and hence the leaf curvature -- follows
by the chain rule from the 2-jet of f and the chart.  Maps are evaluated
only through :func:`grauertlab.holomorphic.eval_jet`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DensityJet, gaussian_conformal, pullback_density_jet
from .errors import DegenerateDirection, DomainOverflow, SingularField
from .holomorphic import HoloMap, Polynomial, _as_point, _json_object, eval_jet

#: |X(p)| below this counts as a singular point of the field
FIELD_TOL = 1e-10


# -- vector fields and leaf charts ------------------------------------------

@dataclass(frozen=True)
class VectorField:
    """Holomorphic vector field on C^n with HoloMap components."""

    components: tuple[HoloMap, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("vector field needs at least one component")
        n = self.components[0].n
        if any(c.n != n for c in self.components):
            raise ValueError("component dimension mismatch")
        if len(self.components) != n:
            raise ValueError("need exactly n components in dimension n")

    @property
    def n(self) -> int:
        return len(self.components)

    def __call__(self, z) -> np.ndarray:
        return np.array([c(z) for c in self.components])

    @staticmethod
    def constant(V) -> "VectorField":
        V = np.atleast_1d(np.asarray(V, dtype=complex))
        n = V.size
        return VectorField(tuple(HoloMap.constant(n, v) for v in V))

    def to_json(self) -> dict:
        return {"components": [c.to_json() for c in self.components]}

    @staticmethod
    def from_json(obj) -> "VectorField":
        _json_object(obj, {"components"}, "vector field")
        return VectorField(tuple(HoloMap.from_json(c) for c in obj["components"]))


@dataclass(frozen=True)
class LeafChart:
    """Order-2 Taylor parametrization of a leaf through its base point."""

    base: tuple[complex, ...]
    coeffs: np.ndarray  # row j is c_j, so coeffs[0] = base; shape (3, n)

    @property
    def n(self) -> int:
        return len(self.base)


def integrate_leaf(X: VectorField, p) -> LeafChart:
    """Taylor coefficients c_0, c_1, c_2 of Z'(T) = X(Z(T)), Z(0) = p.

    From the 1-jet of X at p: c_1 = X(p) and c_2 = J_X(p) X(p) / 2, where
    J_X stacks the gradients of the components.
    """
    jets = [eval_jet(comp, p, 1) for comp in X.components]
    p = jets[0].point
    c1 = np.array([jet.value for jet in jets])
    # |X(p)| without squaring a part, which would overflow from ~1.3e154
    if math.hypot(*c1.real, *c1.imag) <= FIELD_TOL:
        raise SingularField(f"|X({p})| <= {FIELD_TOL}")
    JX = np.array([jet.gradient() for jet in jets])
    return LeafChart(p, np.array([p, c1, (JX @ c1) / 2]))


# -- leaf-restricted density and curvature ----------------------------------

def leaf_density_jet(f: HoloMap, chart: LeafChart) -> DensityJet:
    """Wirtinger jet of h(T) at T = 0, from the 2-jet of f and the chart.

    With g = f o Z the pullback satisfies dg/dT = df(Z)(X(Z)), so
    h(T) = gamma(|g|^2) |g'|^2 + |X(Z)|^2.  The field along the leaf is
    chi(T) = X(Z(T)) = Z'(T), so chi(0) = c_1 and chi'(0) = 2 c_2; by the
    chain rule g'(0) = a . c_1 and g''(0) = c_1^T H c_1 + a . chi'(0), with
    a and H the gradient and Hessian of f at the base point.
    """
    jet = eval_jet(f, chart.base, 2)
    a, H = jet.gradient(), jet.hessian()
    c = chart.coeffs
    chi1 = 2.0 * c[2]
    return pullback_density_jet(chart.base, jet.value, a @ c[1], c[1] @ H @ c[1] + a @ chi1,
                                c[1], chi1)


def leaf_curvature(f: HoloMap, X: VectorField, p) -> float:
    """Leaf curvature of the metric along the foliation of X at p: the guarded
    :func:`gaussian_conformal` of the closed-form jet of the leaf density."""
    return gaussian_conformal(leaf_density_jet(f, integrate_leaf(X, p)))


def transverse_field(f: HoloMap, p) -> VectorField:
    """Field X with df(X) = 1: e_i / f_{z_i} with i = 0 where |f_{z_0}| >
    FIELD_TOL at p, else i for the strongest partial at p."""
    jet = eval_jet(f, p, 1)
    grad = jet.gradient()
    i = 0 if abs(grad[0]) > FIELD_TOL else int(np.argmax(np.abs(grad)))
    if abs(grad[i]) <= FIELD_TOL:
        raise DegenerateDirection(f"no partial of f exceeds {FIELD_TOL} at {jet.point}")
    one = Polynomial.constant(f.n, 1.0)
    if f.den is None:
        di = f.num.partial(i)
        comp = HoloMap(one, di)
    else:
        # (num/den)' = (num' den - num den') / den^2
        di_num = f.num.partial(i) * f.den + f.num.scaled(-1.0) * f.den.partial(i)
        comp = HoloMap(f.den * f.den, di_num)
    zero = HoloMap.constant(f.n, 0.0)
    return VectorField(tuple(comp if j == i else zero for j in range(f.n)))


def divisor_approach(f: HoloMap, p, path) -> list[dict]:
    """Leaf curvatures of the transverse field along a path toward p in |D|.

    Returns one record per path point with the curvature and its gap to the
    limit value -4.
    """
    X = transverse_field(f, p)
    out = []
    for m, zm in enumerate(path):
        K = leaf_curvature(f, X, zm)
        out.append({"m": m, "z": _as_point(zm, f.n), "K": K, "gap": abs(K + 4.0)})
    return out


def geometric_path(base, direction, start: float = 1.0, ratio: float = 0.1,
                   steps: int = 9) -> list[tuple[complex, ...]]:
    """Points base + start * ratio^m * direction, m = 1..steps.

    DomainOverflow where a point overflows, ratio^m included.
    """
    base = np.asarray(base, dtype=complex)
    direction = np.asarray(direction, dtype=complex)
    path = []
    for m in range(1, steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                scale = start * ratio**m
            except OverflowError:
                scale = math.inf
            z = base + scale * direction
        if np.isinf(z).any():
            raise DomainOverflow(
                f"path point m = {m} overflows (start = {start!r}, ratio = {ratio!r})")
        path.append(tuple(z))
    return path
