"""Holomorphic vector fields, power-series leaf integration, and the
curvature of the metric restricted to leaves.

A leaf chart is the truncated Taylor solution of Z'(T) = X(Z(T)), Z(0) = p.
The leaf-restricted density h(T) factors through holomorphic series
(f o Z, its derivative, and the field along the leaf, which is Z'), so its
Wirtinger jet at T = 0 -- and hence the leaf curvature -- is computed in
closed form from an order-2 chart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityJet, gaussian_conformal, pullback_density_jet
from .errors import (DegenerateDirection, DenominatorVanishes, LeafIllConditioned,
                     OnDivisor, SingularField)
from .holomorphic import HoloMap, Polynomial, _as_point, eval_jet
from .metric import DIVISOR_TOL

#: |X(p)| below this counts as a singular point of the field
FIELD_TOL = 1e-10

#: a leaf curvature whose rounding-error bound exceeds this times
#: max(1, |K|) is rejected
LEAF_ROUNDING_TOL = 1e-10


# -- truncated power series in one variable, complex coefficients -----------

def _series_mul(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    out = np.zeros(m + 1, dtype=complex)
    for i, ai in enumerate(a[: m + 1]):
        if ai == 0:
            continue
        top = min(m - i, len(b) - 1)
        out[i : i + top + 1] += ai * b[: top + 1]
    return out


def _series_div(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    out = np.zeros(m + 1, dtype=complex)
    for i in range(m + 1):
        acc = a[i] if i < len(a) else 0.0
        for j in range(1, i + 1):
            if j < len(b):
                acc -= b[j] * out[i - j]
        out[i] = acc / b[0]
    return out


def _poly_on_series(p: Polynomial, Z: list[np.ndarray], m: int) -> np.ndarray:
    """Compose a polynomial with component series, truncated at order m."""
    powers: list[dict[int, np.ndarray]] = [dict() for _ in range(p.n)]
    one = np.zeros(m + 1, dtype=complex)
    one[0] = 1.0

    def power(i: int, e: int) -> np.ndarray:
        if e == 0:
            return one
        cache = powers[i]
        if e not in cache:
            cache[e] = _series_mul(power(i, e - 1), Z[i], m)
        return cache[e]

    out = np.zeros(m + 1, dtype=complex)
    for exp, c in p.terms.items():
        term = one
        for i, e in enumerate(exp):
            if e:
                term = _series_mul(term, power(i, e), m)
        out += c * term
    return out


def _map_on_series(f: HoloMap, Z: list[np.ndarray], m: int) -> np.ndarray:
    num = _poly_on_series(f.num, Z, m)
    if f.den is None:
        return num
    den = _poly_on_series(f.den, Z, m)
    if den[0] == 0:
        # the series can cancel to 0 where the map's own evaluation does not
        base = tuple(complex(s[0]) for s in Z)
        raise DenominatorVanishes(f"denominator vanishes at {base}")
    return _series_div(num, den, m)


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
    def from_json(obj: dict) -> "VectorField":
        return VectorField(tuple(HoloMap.from_json(c) for c in obj["components"]))


@dataclass(frozen=True)
class LeafChart:
    """Truncated Taylor parametrization of a leaf through its base point."""

    base: tuple[complex, ...]
    order: int
    coeffs: np.ndarray  # shape (order + 1, n); coeffs[0] = base

    @property
    def n(self) -> int:
        return len(self.base)


def integrate_leaf(X: VectorField, p, order: int = 2) -> LeafChart:
    """Taylor coefficients of Z'(T) = X(Z(T)), Z(0) = p, up to ``order``.

    Coefficient recursion c_{j+1} = [T^j] X(Z(T)) / (j + 1).
    """
    if not 1 <= order <= 24:
        raise ValueError("order must be in 1..24")
    p = _as_point(p, X.n)
    if float(np.linalg.norm(X(p))) <= FIELD_TOL:
        raise SingularField(f"|X({p})| <= {FIELD_TOL}")
    n = X.n
    coeffs = np.zeros((order + 1, n), dtype=complex)
    coeffs[0] = p
    for j in range(order):
        Z = [coeffs[: j + 1, i].copy() for i in range(n)]
        for i, comp in enumerate(X.components):
            rhs = _map_on_series(comp, Z, j)
            coeffs[j + 1, i] = rhs[j] / (j + 1)
    return LeafChart(p, order, coeffs)


# -- leaf-restricted density and curvature ----------------------------------

def leaf_density_jet(f: HoloMap, chart: LeafChart) -> DensityJet:
    """Wirtinger jet of h(T) at T = 0, assembled from holomorphic series.

    With g = f o Z the pullback satisfies dg/dT = df(Z)(X(Z)), so
    h(T) = gamma(|g|^2) |g'|^2 + |X(Z)|^2.  The field along the leaf is
    X(Z(T)) = Z'(T), so its value and derivative at 0 are c_1 and 2 c_2 of
    the chart, which needs order >= 2.
    """
    c = chart.coeffs
    Z = [c[:3, i].copy() for i in range(chart.n)]
    g = _map_on_series(f, Z, 2)
    if abs(g[0]) < DIVISOR_TOL:
        raise OnDivisor(f"f vanishes along the leaf at {chart.base}")
    return pullback_density_jet(0j, g[0], g[1], 2.0 * g[2], c[1], 2.0 * c[2])


def leaf_curvature(f: HoloMap, X: VectorField, p) -> float:
    """Leaf curvature of the metric along the foliation of X at p: the
    Gaussian curvature of the closed-form jet of the leaf density.

    Rounding in K = -2 (h ddbar - |d|^2) / h^3 is bounded by
    2 eps (h |ddbar| + |d|^2) / h^3, the size of the terms that cancel; when
    the bound exceeds LEAF_ROUNDING_TOL max(1, |K|) the value is not
    returned and LeafIllConditioned is raised.
    """
    chart = integrate_leaf(X, p)
    jet = leaf_density_jet(f, chart)
    K = gaussian_conformal(jet)
    eps = np.finfo(float).eps
    bound = 2.0 * eps * (jet.h * abs(jet.ddbar) + abs(jet.d) ** 2) / jet.h**3
    if bound > LEAF_ROUNDING_TOL * max(1.0, abs(K)):
        raise LeafIllConditioned(
            f"rounding bound {bound:.3e} on leaf curvature {K:.6g} at {chart.base}"
        )
    return K


def transverse_field(f: HoloMap, p) -> VectorField:
    """Field X with df(X) = 1: e_i / f_{z_i} for the strongest partial at p."""
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
    """Points base + start * ratio^m * direction, m = 1..steps."""
    base = np.asarray(base, dtype=complex)
    direction = np.asarray(direction, dtype=complex)
    return [
        tuple(base + start * ratio**m * direction) for m in range(1, steps + 1)
    ]
