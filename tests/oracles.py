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
:func:`critical_point_curvature` is the closed form of the one-variable
curvature at a critical point, independent of the conformal formula, and
:func:`raw_conformal` is that formula without its rounding guard.
:func:`loop_metric_matrix_jet` and :func:`loop_kahler_tensor` are the plain
loop forms of the metric blocks and the curvature tensor, with ``np.outer``
and every product written out inside the loops, and :func:`loop_hsc` is the
sectional curvature on them: the shipped forms batch the blocks over k, l
and must match them bit for bit.  :func:`errstate_u_jet`,
:func:`numpy_gamma_jet`, :func:`outer_metric_matrix` and
:func:`norm_sup_metric_gap` are the numpy forms of the profile jet, the
gamma jet, the metric matrix and the sup metric gap (one fresh f_0 side per
call, no memo), which the shipped forms, free of per-call numpy overhead,
must also match bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
import numpy as np

from grauertlab.curvature import REAL_RESIDUE_TOL
from grauertlab.density import (
    SERIES_RADIUS,
    T_MAX,
    T_MIN,
    DensityJet,
    UJet,
    _finite_gamma,
    u_jet,
)
from grauertlab.divisors import CompactGrid, DivisorFamily
from grauertlab.errors import GrauertError, SolveFailure
from grauertlab.foliation import LeafChart, VectorField
from grauertlab.holomorphic import HoloMap, Polynomial, _as_point, _multi_indices, eval_jet
from grauertlab.metric import (
    COND_LIMIT,
    MetricDerivatives,
    _gradient_and_gamma,
    _identity,
    metric_eval,
    metric_matrix,
)


#: truncation order of the leaf charts the oracles evaluate away from T = 0
CHART_ORDER = 16

#: maps with two points p, q off the divisor and a direction V, for the
#: per-map memo tests: an n = 1 polynomial, z1 z2 - 1, and the quotient map
#: and n = 3 polynomial of the direction-sweep benchmark workload
MEMO_CASES = {
    "poly1": (HoloMap.poly(1, {(2,): 1, (1,): 0.3 - 0.2j, (0,): -1}),
              (0.7 + 0.3j,), (-0.4 + 0.9j,), (1.0,)),
    "poly2": (HoloMap.poly(2, {(1, 1): 1, (0, 0): -1}),
              (0.7 + 0.3j, 0.5 + 0.6j), (-0.4 + 0.9j, -0.4 + 0.4j), (1.0, 0.5j)),
    "quot2": (HoloMap(Polynomial(2, {(1, 1): 1, (2, 0): 0.5, (0, 0): -1}),
                      Polynomial(2, {(0, 1): 1, (0, 0): 2.5})),
              (0.7 + 0.3j, 0.5 + 0.6j), (-0.4 + 0.9j, -0.4 + 0.4j), (1.0, 0.5j)),
    "poly3": (HoloMap.poly(3, {(1, 1, 0): 1, (0, 1, 1): 1, (0, 0, 2): 1, (0, 0, 0): -1}),
              (0.7 + 0.3j, 0.5 + 0.6j, 0.3 + 0.9j), (-0.4 + 0.9j, -0.4 + 0.4j, -0.4 - 0.1j),
              (1.0, 0.5j, -0.25)),
}


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
        for alpha in _multi_indices(p.n, order):
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
    for alpha in _multi_indices(f.n, order):
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
        for alpha in _multi_indices(p.n, order):
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


def loop_metric_matrix_jet(f: HoloMap, z) -> MetricDerivatives:
    """:func:`grauertlab.metric.metric_matrix_jet` with every block built
    inside the k, l loops."""
    n = f.n
    jet = eval_jet(f, z, 2)
    fz = jet.value
    t, (g, gp, gpp) = _finite_gamma(fz, 2, jet.point)
    a = jet.gradient()
    H = jet.hessian()

    aa = np.outer(a, np.conj(a))
    G = g * aa + np.eye(n)

    dG = np.empty((n, n, n), dtype=complex)
    for k in range(n):
        dG[k] = gp * a[k] * np.conj(fz) * aa + g * np.outer(H[:, k], np.conj(a))

    ddG = np.empty((n, n, n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            ddG[k, l] = (
                (gpp * t + gp) * a[k] * np.conj(a[l]) * aa
                + gp * a[k] * np.conj(fz) * np.outer(a, np.conj(H[:, l]))
                + gp * fz * np.conj(a[l]) * np.outer(H[:, k], np.conj(a))
                + g * np.outer(H[:, k], np.conj(H[:, l]))
            )

    na2 = float(np.vdot(a, a).real)
    cond = 1.0 + g * na2
    if cond > COND_LIMIT:
        raise SolveFailure(
            f"metric conditioning {cond:.3e} exceeds {COND_LIMIT:.0e} at {jet.point}"
        )
    Ginv = np.eye(n) - (g / cond) * aa
    return MetricDerivatives(jet.point, G, dG, ddG, Ginv)


def loop_kahler_tensor(md: MetricDerivatives) -> np.ndarray:
    """:func:`grauertlab.curvature.kahler_tensor` with both matrix products
    and the conjugate block formed for every k, l."""
    n = md.G.shape[0]
    R = np.empty((n, n, n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            dbarG = np.conj(md.dG[l]).T
            R[:, :, k, l] = -md.ddG[k, l] + md.dG[k] @ md.Ginv @ dbarG
    return R


def loop_hsc(f: HoloMap, p, V: np.ndarray) -> float:
    """:func:`grauertlab.curvature.holo_sectional_curvature` at a nonzero
    complex direction ``V``, on the loop forms."""
    R = loop_kahler_tensor(loop_metric_matrix_jet(f, p))
    num = np.einsum("ijkl,i,j,k,l->", R, V, np.conj(V), V, np.conj(V))
    if abs(num.imag) > REAL_RESIDUE_TOL * max(1.0, abs(num.real)):
        raise ArithmeticError(f"sectional numerator not real: {num}")
    return float(2.0 * num.real / metric_eval(f, p, V) ** 2)


def _errstate_u_coeffs(order: int = 10) -> np.ndarray:
    # the Taylor coefficients of u about t = 1 as a numpy array, so the
    # series branch below runs on numpy scalars
    c = np.zeros(order + 1)
    c[0] = 1.0
    for k in range(1, order + 1):
        c[k] = (-1.0) ** (k + 1) / (k * (k + 1))
    a = np.zeros(order + 1)
    a[0] = 1.0
    for m in range(1, order + 1):
        a[m] = -sum(c[k] * a[m - k] for k in range(1, m + 1))
    return a


_ERRSTATE_U_COEFFS = _errstate_u_coeffs()


def errstate_u_jet(t: float) -> UJet:
    """:func:`grauertlab.density.u_jet` on numpy scalars, with the overflow
    of u' and u'' silenced by ``np.errstate``."""
    t = float(t)
    s = t - 1.0
    if abs(s) < SERIES_RADIUS:
        a = _ERRSTATE_U_COEFFS
        u = up = upp = 0.0
        for k in range(len(a) - 1, -1, -1):
            u = u * s + a[k]
        for k in range(len(a) - 1, 0, -1):
            up = up * s + k * a[k]
        for k in range(len(a) - 1, 1, -1):
            upp = upp * s + k * (k - 1) * a[k]
        return UJet(t, u, up, upp)
    L = np.log(t)
    D = t * L
    u = s / D
    with np.errstate(over="ignore", divide="ignore"):
        up = (D - s * (L + 1.0)) / D / D
        upp = -s / t / D / D - 2.0 * (L + 1.0) * up / D
    return UJet(t, u, up, upp)


def numpy_gamma_jet(t: float) -> tuple:
    """:func:`grauertlab.density.gamma_jet` on :func:`grauertlab.density.u_jet`'s
    values as numpy scalars, with their overflow and invalid-value warnings
    silenced by ``np.errstate``."""
    t, u, up, upp = (np.float64(x) for x in u_jet(t))
    with np.errstate(over="ignore", invalid="ignore"):
        g = 1.0 + t * u**2
        gp = u**2 + 2.0 * t * u * up
        gpp = 4.0 * u * up + 2.0 * t * (up**2 + u * upp)
    return g, gp, gpp


def profile_sweep(strata: int = 4000, seed: int = 0) -> list[float]:
    """t over [T_MIN, T_MAX]: one seeded point in each of ``strata`` equal
    slices of log10 t, 1000 on the seam |t - 1| <= 2 SERIES_RADIUS, both
    ends, t = 1 and the neighbours of the series radius."""
    rng = np.random.default_rng(seed)
    lo, hi = math.log10(T_MIN), math.log10(T_MAX)
    edges = np.linspace(lo, hi, strata + 1)
    ts = [float(10.0 ** rng.uniform(a, b)) for a, b in zip(edges[:-1], edges[1:])]
    ts += [float(1.0 + x) for x in rng.uniform(-2 * SERIES_RADIUS, 2 * SERIES_RADIUS, 1000)]
    for r in (1.0 - SERIES_RADIUS, 1.0 + SERIES_RADIUS):
        ts += [float(np.nextafter(r, 0.0)), r, float(np.nextafter(r, 2.0))]
    return ts + [T_MIN, T_MAX, 1.0]


def outer_metric_matrix(f: HoloMap, z) -> np.ndarray:
    """:func:`grauertlab.metric.metric_matrix` with ``np.outer`` and an
    out-of-place symmetrization."""
    a, g = _gradient_and_gamma(f, z)
    G = g * np.outer(a, np.conj(a)) + _identity(f.n)
    return 0.5 * (G + G.conj().T)


def norm_sup_metric_gap(fam: DivisorFamily, grid: CompactGrid, j: int) -> float:
    """:func:`grauertlab.divisors.sup_metric_gap` at one ``j``, through
    ``np.linalg.norm(diff, 2)``."""
    fj = fam.member(j)
    gap = 0.0
    for p in grid.points(fam.f0):
        diff = metric_matrix(fj, p) - metric_matrix(fam.f0, p)
        gap = max(gap, float(np.linalg.norm(diff, 2)))
    return gap


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


def critical_point_curvature(f: HoloMap, p) -> float:
    """K(p) = -2 |f''(p)|^2 gamma(|f(p)|^2) at a critical point p of a
    one-variable map; zero exactly when f''(p) = 0."""
    jet = eval_jet(f, p, 2)
    assert f.n == 1 and abs(jet.d(0)) < 1e-12, "not a critical point of a one-variable map"
    _, (g,) = _finite_gamma(jet.value, 0, jet.point)
    return float(-2.0 * abs(jet.d2(0, 0)) ** 2 * g)


def raw_conformal(j: DensityJet) -> float:
    """K = -2 (h ddbar - |d|^2) / h^3 with no rounding bound or overflow check."""
    return float(-2.0 * (j.h * j.ddbar - (j.d * j.dbar).real) / j.h**3)


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
    return raw_conformal(DensityJet(0j, j2.value, d, np.conj(d), ddbar))
