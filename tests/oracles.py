"""Reference oracles for the tests.

:func:`symbolic_jet` evaluates a map's partials the long way, through the
derivative polynomials, as the reference for :func:`grauertlab.holomorphic.eval_jet`.
:func:`wirtinger_fd` is the stencil oracle for first and mixed-second
Wirtinger derivatives of real-smooth scalar fields on C.  :func:`series_chart`
integrates a leaf to any order by composing the field with truncated power
series, independently of the jets the order-2
:func:`grauertlab.foliation.integrate_leaf` reads.  The leaf helpers evaluate
an order-16 series chart and the leaf-restricted density away from T = 0,
inside a radius estimated from the chart's tail growth, so
:func:`stencil_leaf_curvature` checks the closed-form 2-jet path of
:func:`grauertlab.foliation.leaf_curvature` independently, and
:func:`mp_leaf_curvature` checks its rounding against 50-digit arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
import numpy as np

from grauertlab.density import DensityJet, gaussian_conformal
from grauertlab.errors import GrauertError
from grauertlab.foliation import LeafChart, VectorField
from grauertlab.holomorphic import HoloMap, Polynomial, _as_point, eval_jet, multi_indices
from grauertlab.metric import metric_eval


#: truncation order of the leaf charts the oracles evaluate away from T = 0
CHART_ORDER = 16


def symbolic_value(p: Polynomial, z) -> complex:
    """p(z) by the monomial loop, terms in order."""
    total = 0.0 + 0.0j
    for exp, c in p.terms.items():
        m = c
        for zi, e in zip(z, exp):
            if e:
                m *= zi**e
        total += m
    return total


def symbolic_jet(f: HoloMap, z, order: int) -> dict:
    """Partials d^alpha f(z), |alpha| <= order, from symbolic derivatives.

    A polynomial's partial is the value of the derivative polynomial that
    ``Polynomial.partial`` builds, variable 0 first.  A quotient's value is
    num(z) / den(z), and its higher partials follow from num = q den by
    Leibniz inversion.  ``z`` is a tuple of complex coordinates.
    """
    def poly_jet(p: Polynomial) -> dict:
        out = {}
        for alpha in multi_indices(p.n, order):
            q = p
            for i, a in enumerate(alpha):
                for _ in range(a):
                    q = q.partial(i)
            out[alpha] = symbolic_value(q, z)
        return out

    return _quotient_jet(f, poly_jet, order)


def _quotient_jet(f: HoloMap, poly_jet: Callable[[Polynomial], dict], order: int) -> dict:
    """Jet of f from ``poly_jet`` of its numerator and denominator: a
    quotient's partials follow from num = q den by Leibniz inversion."""
    num = poly_jet(f.num)
    if f.den is None:
        return num
    den = poly_jet(f.den)
    q: dict = {}
    for alpha in multi_indices(f.n, order):
        acc = num[alpha]
        for beta in itertools.product(*(range(a + 1) for a in alpha)):
            if beta != alpha:
                binom = math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
                diff = tuple(a - b for a, b in zip(alpha, beta))
                acc -= binom * q[beta] * den[diff]
        q[alpha] = acc / den[(0,) * f.n]
    return q


def mp_jet(f: HoloMap, z, order: int) -> dict:
    """Partials d^alpha f(z), |alpha| <= order, in mpmath at the working
    precision: the map's double coefficients and ``z`` are taken as exact."""
    z = [mp.mpc(v) for v in _as_point(z, f.n)]

    def poly_jet(p: Polynomial) -> dict:
        out = {}
        for alpha in multi_indices(p.n, order):
            total = mp.mpc(0)
            for exp, c in p.terms.items():
                if all(e >= a for e, a in zip(exp, alpha)):
                    term = mp.mpc(c)
                    for zi, e, a in zip(z, exp, alpha):
                        term *= mp.ff(e, a) * zi ** (e - a)
                    total += term
            out[alpha] = total
        return out

    return _quotient_jet(f, poly_jet, order)


def _mp_gamma(t):
    """gamma(t) = 1 + t u(t)^2 with u(t) = (t - 1)/(t log t), u(1) = 1."""
    u = mp.mpf(1) if t == 1 else (t - 1) / (t * mp.log(t))
    return 1 + t * u**2


def mp_leaf_curvature(f: HoloMap, X: VectorField, p, dps: int = 50):
    """Leaf curvature at ``p`` from the chain-rule density jet at ``dps``
    digits, with gamma' and gamma'' from ``mpmath.diff``: the same formulas
    as :func:`grauertlab.foliation.leaf_curvature` with no rounding to speak
    of, so its distance from this value is the double path's rounding error.
    """
    n = X.n
    with mp.workdps(dps):
        units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        Xj = [mp_jet(comp, p, 1) for comp in X.components]
        fj = mp_jet(f, p, 2)
        c1 = [jet[(0,) * n] for jet in Xj]
        chi1 = [sum(jet[e] * c for e, c in zip(units, c1)) for jet in Xj]
        a = [fj[e] for e in units]
        g0 = fj[(0,) * n]
        g1 = sum(ai * ci for ai, ci in zip(a, c1))
        g2 = sum(fj[tuple(x + y for x, y in zip(ei, ek))] * c1[i] * c1[k]
                 for i, ei in enumerate(units) for k, ek in enumerate(units))
        g2 += sum(ai * ci for ai, ci in zip(a, chi1))
        t = abs(g0) ** 2
        step = t * mp.ldexp(1, -mp.mp.prec - 10)  # relative: t may be tiny
        g, gp, gpp = (mp.diff(_mp_gamma, t, k, h=step) for k in range(3))
        s = abs(g1) ** 2
        h = g * s + sum(abs(c) ** 2 for c in c1)
        d = (gp * g1 * mp.conj(g0) * s + g * g2 * mp.conj(g1)
             + sum(x * mp.conj(y) for x, y in zip(chi1, c1)))
        ddbar = (gpp * t * s**2 + gp * s**2
                 + 2 * mp.re(gp * g1**2 * mp.conj(g0 * g2))
                 + g * abs(g2) ** 2 + sum(abs(c) ** 2 for c in chi1))
        return -2 * (h * ddbar - abs(d) ** 2) / h**3


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
    return _series_div(num, _poly_on_series(f.den, Z, m), m)


def series_chart(X: VectorField, p, order: int = CHART_ORDER) -> LeafChart:
    """Leaf chart of Z'(T) = X(Z(T)), Z(0) = p, to any ``order``, by the
    coefficient recursion c_{j+1} = [T^j] X(Z(T)) / (j + 1) on truncated
    power series: an evaluation path independent of the jets.
    """
    p = _as_point(p, X.n)
    coeffs = np.zeros((order + 1, X.n), dtype=complex)
    coeffs[0] = p
    for j in range(order):
        Z = [coeffs[: j + 1, i].copy() for i in range(X.n)]
        for i, comp in enumerate(X.components):
            coeffs[j + 1, i] = _map_on_series(comp, Z, j)[j] / (j + 1)
    return LeafChart(p, coeffs)


def chart_radius(chart: LeafChart) -> float:
    """Half the convergence radius estimated from tail coefficient growth."""
    m = chart.coeffs.shape[0] - 1
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
    for j in range(chart.coeffs.shape[0] - 1, 0, -1):
        z = z * T + j * chart.coeffs[j]
    return z


def leaf_density(f: HoloMap, X: VectorField, p, T: complex,
                 chart: LeafChart | None = None) -> float:
    """Density h(T) of the leaf-restricted metric at parameter T."""
    if chart is None:
        chart = series_chart(X, p)
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
    chart = series_chart(X, p)

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
