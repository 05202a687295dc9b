"""Finite-difference oracles for the tests.

:func:`wirtinger_fd` is the stencil oracle for first and mixed-second
Wirtinger derivatives of real-smooth scalar fields on C.  The leaf helpers
evaluate an order-16 leaf chart and the leaf-restricted density away from
T = 0, inside a radius estimated from the chart's tail growth, so
:func:`stencil_leaf_curvature` checks the closed-form 2-jet path of
:func:`grauertlab.foliation.leaf_curvature` independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from grauertlab.density import DensityJet, gaussian_conformal
from grauertlab.errors import GrauertError
from grauertlab.foliation import LeafChart, VectorField, integrate_leaf
from grauertlab.holomorphic import HoloMap, eval_jet
from grauertlab.metric import metric_eval


#: truncation order of the leaf charts the oracles evaluate away from T = 0
CHART_ORDER = 16


class NonFiniteSample(GrauertError):
    """A finite-difference stencil hit a non-finite sample."""


@dataclass(frozen=True)
class WirtingerJet2:
    """Value, first Wirtinger derivatives and the mixed second at a point of C.

    Conventions: d = (d_x - i d_y)/2, dbar = (d_x + i d_y)/2,
    ddbar = Laplacian/4.  For real-valued fields dbar = conj(d) by
    construction.
    """

    point: complex
    value: float
    d: complex
    dbar: complex
    ddbar: float


def default_fd_step(t0: complex) -> float:
    """Balanced truncation/roundoff step for the densities in play."""
    return 1e-5 * max(1.0, abs(t0))


def wirtinger_fd(
    F: Callable[[complex], float], t0: complex, step: float | None = None
) -> WirtingerJet2:
    """Second-order central-difference Wirtinger jet of a real-smooth field.

    Uses the 3x3 stencil around ``t0``; the mixed second derivative comes
    from the 9-point Laplacian.
    """
    if step is None:
        step = default_fd_step(t0)
    if step <= 0:
        raise ValueError("step must be positive")
    t0 = complex(t0)
    s = np.empty((3, 3))
    for ix, dx in enumerate((-1, 0, 1)):
        for iy, dy in enumerate((-1, 0, 1)):
            v = F(t0 + step * (dx + 1j * dy))
            if not np.isfinite(v):
                raise NonFiniteSample(
                    f"non-finite sample at {t0 + step * (dx + 1j * dy)}"
                )
            s[ix, iy] = v
    fx = (s[2, 1] - s[0, 1]) / (2 * step)
    fy = (s[1, 2] - s[1, 0]) / (2 * step)
    # 9-point Laplacian: 4th-order cross + corner correction
    lap = (
        4 * (s[0, 1] + s[2, 1] + s[1, 0] + s[1, 2])
        + (s[0, 0] + s[0, 2] + s[2, 0] + s[2, 2])
        - 20 * s[1, 1]
    ) / (6 * step**2)
    d = 0.5 * (fx - 1j * fy)
    dbar = 0.5 * (fx + 1j * fy)
    return WirtingerJet2(t0, s[1, 1], d, dbar, lap / 4.0)


def chart_radius(chart: LeafChart) -> float:
    """Half the convergence radius estimated from tail coefficient growth."""
    m = chart.order
    vals = []
    for j in range(max(1, m // 2), m + 1):
        mag = float(np.max(np.abs(chart.coeffs[j])))
        if mag > 0:
            vals.append(mag ** (-1.0 / j))
    if not vals:
        return 1e6  # polynomial leaf: effectively unbounded chart
    return 0.5 * min(vals)


def chart_value(chart: LeafChart, T: complex) -> np.ndarray:
    """Z(T) of a leaf chart, from its Taylor coefficients."""
    z = np.zeros(chart.n, dtype=complex)
    for c in chart.coeffs[::-1]:
        z = z * T + c
    return z


def chart_derivative(chart: LeafChart, T: complex) -> np.ndarray:
    """Z'(T) of a leaf chart, from its Taylor coefficients."""
    z = np.zeros(chart.n, dtype=complex)
    for j in range(chart.order, 0, -1):
        z = z * T + j * chart.coeffs[j]
    return z


def leaf_density(f: HoloMap, X: VectorField, p, T: complex,
                 chart: LeafChart | None = None) -> float:
    """Density h(T) of the leaf-restricted metric at parameter T."""
    if chart is None:
        chart = integrate_leaf(X, p, order=CHART_ORDER)
    radius = chart_radius(chart)
    if abs(T) >= radius:
        raise ValueError(f"|T| = {abs(T):.3e} outside chart radius {radius:.3e}")
    zT = chart_value(chart, T)
    return metric_eval(f, zT, X(zT))


def _stencil_step(f: HoloMap, X: VectorField, chart: LeafChart) -> float:
    """Stencil step: inside the chart and well short of the divisor crossing.

    Along the leaf f(Z(T)) moves at rate |df(X)|, so the divisor sits at
    parameter distance ~ |f(p)| / |df(p)(X(p))|; the step stays a factor
    100 inside that.
    """
    p = chart.base
    step = min(1e-4, chart_radius(chart) / 10.0)
    Xp = X(p)
    dfX = abs(np.dot(eval_jet(f, p, 1).gradient(), Xp))
    if dfX > 0:
        step = min(step, 0.01 * abs(f(p)) / dfX)
    return step


def stencil_leaf_curvature(f: HoloMap, X: VectorField, p) -> float:
    """Leaf curvature from finite differences of h(T), Richardson-extrapolated."""
    chart = integrate_leaf(X, p, order=CHART_ORDER)

    def F(T: complex) -> float:
        return leaf_density(f, X, p, T, chart=chart)

    step = _stencil_step(f, X, chart)
    j1 = wirtinger_fd(F, 0j, step)
    j2 = wirtinger_fd(F, 0j, step / 2.0)
    # second-order stencils: Richardson-combine for fourth-order accuracy
    d = (4.0 * j2.d - j1.d) / 3.0
    ddbar = (4.0 * j2.ddbar - j1.ddbar) / 3.0
    jet = DensityJet(0j, j2.value, d, np.conj(d), ddbar)
    return gaussian_conformal(jet)
