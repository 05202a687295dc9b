"""The one-variable heart of the Grauert metric on C*.

Profile function u(t) = (t-1)/(t log t) with first and second derivatives,
the conformal density 1 + |w|^2 u^2(|w|^2), its k-th power-pullback family,
the closed-form Gaussian curvatures of both, the pullback-density jet behind
the one-variable and leaf curvatures, and the guarded conformal curvature.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainOverflow,
    DomainUnderflow,
    LeafIllConditioned,
    NonFiniteInput,
    NonPositiveDensity,
    OnDivisor,
)

#: representable argument range: t*log^2 t stays inside double precision
T_MIN = 1e-280
T_MAX = 1e280

#: |f(p)| below this counts as "on the divisor": exactly where |f|^2 would
#: fall below the profile's domain floor T_MIN
DIVISOR_TOL = math.sqrt(T_MIN)

#: switch to the Taylor branch inside this distance of the removable
#: singularity at t = 1 (the closed form loses ~8 digits there)
SERIES_RADIUS = 1e-3

_SERIES_ORDER = 10

#: a conformal curvature whose rounding bound exceeds this x max(1, |K|) is rejected
ROUNDING_TOL = 1e-10

_EPS = float(np.finfo(float).eps)
_LOG_DOMAIN = "a log-domain form of the profile would lift this limit"
_H3_OVERFLOWS = "K = -2 (h ddbar - |d|^2) / h^3 overflows at {}; " + _LOG_DOMAIN


def _u_taylor_coeffs(order: int) -> tuple[float, ...]:
    # u(1+s) = 1 / (1 + sum_{k>=1} c_k s^k) with c_k = (-1)^{k+1}/(k(k+1)),
    # from (1+s)log(1+s)/s; invert the power series by recurrence.
    c = [1.0] + [(-1.0) ** (k + 1) / (k * (k + 1)) for k in range(1, order + 1)]
    a = [1.0]
    for m in range(1, order + 1):
        a.append(-sum(c[k] * a[m - k] for k in range(1, m + 1)))
    return tuple(a)


_U_COEFFS = _u_taylor_coeffs(_SERIES_ORDER)

#: Horner rows of u, u' and u'' in s = t - 1, highest power first: the
#: coefficients k a_k and k (k-1) a_k, each rounded once
_U_HORNER = tuple(
    tuple(math.perm(k, m) * a for k, a in enumerate(_U_COEFFS) if k >= m)[::-1]
    for m in range(3)
)


class UJet(NamedTuple):
    """u(t), u'(t), u''(t) at a positive argument."""

    t: float
    u: float
    up: float
    upp: float


def u_jet(t: float) -> UJet:
    """Profile jet as Python floats: Taylor branch near t = 1, closed form elsewhere."""
    t = float(t)
    if not t >= T_MIN:
        if math.isnan(t):
            raise NonFiniteInput(f"t={t} is not a number")
        raise DomainUnderflow(f"t={t} below domain floor {T_MIN}")
    if t > T_MAX:
        raise DomainOverflow(f"t={t} above domain ceiling {T_MAX}")
    s = t - 1.0
    if abs(s) < SERIES_RADIUS:
        u, up, upp = (_horner(row, s) for row in _U_HORNER)
    else:
        # np.log, not math.log: the two differ in the last bit for some t.
        # The rest is Python float arithmetic, the same IEEE operations as on
        # numpy scalars; u stays finite on the whole domain, and u' ~ 1/(t^2 L)
        # and u'' saturate to +-inf within ~1e-150 of the edges, silently
        # (Python float / and * never raise or warn there)
        L = float(np.log(t))
        D = t * L
        u = s / D
        up = (D - s * (L + 1.0)) / D / D
        upp = -s / t / D / D - 2.0 * (L + 1.0) * up / D
    return UJet(t, u, up, upp)


def _horner(row: tuple[float, ...], s: float) -> float:
    acc = 0.0
    for c in row:
        acc = acc * s + c
    return acc


def _pow(x: float, n: int) -> float:
    """x**n >= 0 on a Python float, saturating to inf, as numpy's ** does, without a warning."""
    try:
        return x**n
    except OverflowError:
        return math.inf


def _abs(c: complex) -> float:
    """|c|, saturating to inf where it overflows a double, as numpy's abs
    does; Python's abs raises OverflowError there."""
    try:
        return abs(c)
    except OverflowError:
        return math.inf


def gamma_jet(t: float) -> tuple[float, float, float]:
    """gamma(t) = 1 + t u^2(t) with first and second derivatives, as Python floats."""
    t, u, up, upp = u_jet(t)
    u2 = _pow(u, 2)
    g = 1.0 + t * u2
    gp = u2 + 2.0 * t * u * up
    gpp = 4.0 * u * up + 2.0 * t * (_pow(up, 2) + u * upp)
    return g, gp, gpp


def _finite_gamma(fz: complex, order: int, point) -> tuple[float, tuple]:
    """t = |f(p)|^2 and gamma(t) with its first ``order`` derivatives, from
    the value ``fz`` of f at ``point``: the one divisor guard.
    The point counts as on the divisor where |f(p)| < DIVISOR_TOL or where
    any of them overflows (gamma itself for f = z: 1e-140 < |z| < 4.55e-79);
    where t itself overflows (|f| > ~1.3e154) it is above the profile's domain.
    """
    if abs(fz) < DIVISOR_TOL:
        raise OnDivisor(f"f vanishes at {point} (|f| = {abs(fz):.3e})")
    try:
        t = abs(fz) ** 2
    except OverflowError:
        raise DomainOverflow(f"|f|^2 overflows at {point} (|f| = {abs(fz):.3e})") from None
    gj = gamma_jet(t)[: order + 1]
    if not all(map(math.isfinite, gj)):
        what = "gamma(|f|^2)" if order == 0 else f"the {order}-jet of gamma(|f|^2)"
        raise OnDivisor(f"{what} overflows at {point} (|f| = {abs(fz):.3e})")
    return t, gj


class DensityJet(NamedTuple):
    """Wirtinger jet of a positive conformal density at ``z``, a point of C or C^n;
    the density is real, so dbar h = conj(d)."""

    z: complex | tuple
    h: float
    d: complex
    ddbar: float


def gaussian_conformal(j: DensityJet) -> float:
    """Gaussian curvature of h |dT|^2: K = -2 (h ddbar h - dh dbar h) / h^3.

    Rounding in K is bounded by 2 eps (h |ddbar| + |d|^2) / h^3, the size of
    the terms that cancel: LeafIllConditioned where the bound exceeds
    ROUNDING_TOL max(1, |K|), DomainOverflow where h^3 or K is not finite.
    """
    if not j.h > 0:
        raise NonPositiveDensity(f"density {j.h} at {j.z} is not positive")
    num = j.h * j.ddbar - (j.d * j.d.conjugate()).real
    h3 = _pow(j.h, 3)
    K = float(-2.0 * num / h3)
    if math.isinf(h3) or not math.isfinite(K):
        raise DomainOverflow(_H3_OVERFLOWS.format(j.z))
    bound = 2.0 * _EPS * (j.h * abs(j.ddbar) + _pow(abs(j.d), 2)) / h3
    if bound > ROUNDING_TOL * max(1.0, abs(K)):
        raise LeafIllConditioned(f"rounding bound {bound:.3e} on curvature {K:.6g} at {j.z}")
    return K


def pullback_density_jet(z: complex, g0: complex, g1: complex, g2: complex,
                         chi0, chi1) -> DensityJet:
    """Wirtinger jet of h = gamma(|g|^2) |g'|^2 + |chi|^2 at the point ``z``.

    ``g0, g1, g2`` are a holomorphic function g and its first two
    derivatives at ``z``; ``chi0`` and ``chi1`` are the components of a
    holomorphic vector chi and their first derivatives.  The jet follows
    from the chain rule through gamma; chi = (1) gives the one-variable
    pullback density, chi = the field along a leaf gives the leaf density.
    Where :func:`_finite_gamma` puts g0 on the divisor, OnDivisor names ``z``;
    where h^3 >= |g'|^6 overflows, DomainOverflow does, before d and ddbar.
    """
    t, (g, gp, gpp) = _finite_gamma(g0, 2, z)
    # the leaf path passes numpy scalars: as Python complex they round as
    # numpy scalars do without numpy's per-operation dispatch; the chi dots
    # stay in numpy, where for n >= 2 the BLAS sum order is part of the bits
    g0, g1, g2 = complex(g0), complex(g1), complex(g2)
    s = _pow(_abs(g1), 2)
    h = g * s + float(np.vdot(chi0, chi0).real)
    if math.isinf(_pow(h, 3)):
        raise DomainOverflow(_H3_OVERFLOWS.format(z))
    d = (gp * g1 * g0.conjugate() * s + g * g2 * g1.conjugate()
         + complex(np.dot(chi1, np.conj(chi0))))
    s2 = _pow(s, 2)
    ddbar = (
        gpp * t * s2
        + gp * s2
        # g1 * g1 is numpy's g1**2; Python's complex ** raises OverflowError
        # where the square overflows, which numpy's does not
        + 2.0 * (gp * (g1 * g1) * (g0 * g2).conjugate()).real
        + g * _pow(_abs(g2), 2)
        + float(np.vdot(chi1, chi1).real)
    )
    return DensityJet(z, h, d, ddbar)


def hk_density_jet(k: int, z: complex) -> DensityJet:
    """Density k^2 |z|^{2(k-1)} (1 + |z|^{2k} u^2(|z|^{2k})) with derivatives.

    Closed forms for the Wirtinger jet; reduces to the Grauert density at
    k = 1.  DomainOverflow where a power of |z|^2 overflows a Python float.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    z = complex(z)
    if z == 0:
        raise ValueError("density undefined at z = 0")
    try:
        s = abs(z) ** 2
        t = s**k
        _, u, up, upp = u_jet(t)
        u2 = _pow(u, 2)
        k2 = float(k * k)
        h = k2 * (s ** (k - 1)) * (1.0 + t * u2)
        d = (
            k2
            * z.conjugate()
            * (
                (k - 1) * s ** (k - 2)
                + (2 * k - 1) * s ** (2 * k - 2) * u2
                + 2 * k * s ** (3 * k - 2) * u * up
            )
        )
        ddbar = k2 * (
            (k - 1) ** 2 * s ** (k - 2)
            + (2 * k - 1) ** 2 * s ** (2 * k - 2) * u2
            + 2 * k * (5 * k - 2) * s ** (3 * k - 2) * u * up
            + 2 * k2 * s ** (4 * k - 2) * (_pow(up, 2) + u * upp)
        )
    except OverflowError:
        raise DomainOverflow(f"the density jet of h_{k} overflows at {z}; {_LOG_DOMAIN}") from None
    return DensityJet(z, h, d, ddbar)


def m_factor(t: float) -> float:
    """Numerator factor of the Grauert curvature as a function of t = |z|^2.

    DomainOverflow where 2 t^3 overflows a Python float (t >~ 4.48e102, so
    |z| >~ 2.1165e51), checked before the terms can meet inf - inf.
    """
    return _gamma_and_m(u_jet(t))[1]


def _gamma_and_m(j: UJet) -> tuple[float, float]:
    """gamma(t) and M(t) from one profile jet: the one evaluation path of M."""
    t, u, up, upp = j
    try:
        t2, t3 = t**2, t**3
        if math.isinf(2.0 * t3):
            raise OverflowError
    except OverflowError:
        raise DomainOverflow(
            f"M(t) overflows at t = {t!r} (|z| = {math.sqrt(t):.3e}) in its t-domain"
            f" form; {_LOG_DOMAIN}"
        ) from None
    u2, u3, up2 = _pow(u, 2), _pow(u, 3), _pow(up, 2)
    M = (
        u2
        + 6.0 * t * u * up
        + 2.0 * t2 * up2
        + 2.0 * t2 * u * upp
        + 2.0 * t2 * u3 * up
        - 2.0 * t3 * u2 * up2
        + 2.0 * t3 * u3 * upp
    )
    return 1.0 + t * u2, M


def grauert_curvature(z: complex) -> float:
    """Gaussian curvature of the Grauert metric: -2 M(|z|^2) / gamma^3.

    Non-positive on all of C*; tends to -4 as z -> 0 and to 0 as |z| -> oo.
    DomainOverflow from |z| ~ 2.1165e51, where M(t) overflows (see m_factor).
    """
    z = complex(z)
    if z == 0:
        raise ValueError("curvature undefined at z = 0")
    try:
        t = abs(z) ** 2
    except OverflowError:
        raise DomainOverflow(f"|z|^2 overflows at z = {z!r} (|z| = {abs(z):.3e})") from None
    g, M = _gamma_and_m(u_jet(t))
    return -2.0 * M / _pow(g, 3)


def power_curvature(k: int, z: complex) -> float:
    """Curvature of the k-th power-pullback density via the conformal formula.

    Independent code path from :func:`grauert_curvature`; the two are tied
    by the identity K_k(z) = K_g(z^k).
    """
    return gaussian_conformal(hk_density_jet(k, z))
