"""The one-variable heart of the Grauert metric on C*.

Profile function u(t) = (t-1)/(t log t) with first and second derivatives,
the conformal density 1 + |w|^2 u^2(|w|^2), its k-th power-pullback family,
the closed-form Gaussian curvatures of both, and the pullback-density jet
behind the one-variable and leaf curvatures.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainOverflow,
    DomainUnderflow,
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


def _u_taylor_coeffs(order: int) -> tuple[float, ...]:
    # u(1+s) = 1 / (1 + sum_{k>=1} c_k s^k) with c_k = (-1)^{k+1}/(k(k+1)),
    # from (1+s)log(1+s)/s; invert the power series by recurrence.
    c = np.zeros(order + 1)
    c[0] = 1.0
    for k in range(1, order + 1):
        c[k] = (-1.0) ** (k + 1) / (k * (k + 1))
    a = np.zeros(order + 1)
    a[0] = 1.0
    for m in range(1, order + 1):
        a[m] = -sum(c[k] * a[m - k] for k in range(1, m + 1))
    return tuple(a.tolist())


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
    """Profile jet, Taylor branch near t = 1, closed form elsewhere."""
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
    # numpy scalars, because the consumers square them with **: on Python
    # floats that raises OverflowError where numpy saturates to inf
    return UJet(t, np.float64(u), np.float64(up), np.float64(upp))


def _horner(row: tuple[float, ...], s: float) -> float:
    acc = 0.0
    for c in row:
        acc = acc * s + c
    return acc


def _sq(x: float) -> float:
    """x**2 on a Python float, saturating to inf where it overflows."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def gamma_jet(t: float) -> tuple[float, float, float]:
    """gamma(t) = 1 + t u^2(t) with first and second derivatives.

    Python float arithmetic, with _sq for the squares: the same IEEE
    operations (** included) as on numpy scalars, without their overflow
    warnings, which -W error turns into exceptions.  The values are returned
    as numpy scalars, which keep saturating when a caller cubes them.
    """
    j = u_jet(t)
    t, u, up, upp = j.t, float(j.u), float(j.up), float(j.upp)
    u2 = _sq(u)
    g = 1.0 + t * u2
    gp = u2 + 2.0 * t * u * up
    gpp = 4.0 * u * up + 2.0 * t * (_sq(up) + u * upp)
    return np.float64(g), np.float64(gp), np.float64(gpp)


def _finite_gamma(fz: complex, order: int, where) -> tuple[float, tuple]:
    """t = |f(p)|^2 and gamma(t) with its first ``order`` derivatives, from
    the value ``fz`` of f at the point ``where``: the one divisor guard.
    The point counts as on the divisor where |f(p)| < DIVISOR_TOL or where
    any of them overflows (gamma itself for f = z: 1e-140 < |z| < 4.55e-79);
    where t itself overflows (|f| > ~1.3e154) it is above the profile's domain.
    """
    if abs(fz) < DIVISOR_TOL:
        raise OnDivisor(f"f vanishes at {where} (|f| = {abs(fz):.3e})")
    try:
        t = abs(fz) ** 2
    except OverflowError:
        raise DomainOverflow(f"|f|^2 overflows at {where} (|f| = {abs(fz):.3e})") from None
    gj = gamma_jet(t)[: order + 1]
    if not all(map(math.isfinite, gj)):
        what = "gamma(|f|^2)" if order == 0 else f"the {order}-jet of gamma(|f|^2)"
        raise OnDivisor(f"{what} overflows at {where} (|f| = {abs(fz):.3e})")
    return t, gj


class DensityJet(NamedTuple):
    """Wirtinger jet of a positive conformal density at a point of C."""

    z: complex
    h: float
    d: complex
    dbar: complex
    ddbar: float


def gaussian_conformal(j: DensityJet) -> float:
    """Gaussian curvature of h |dT|^2: K = -2 (h ddbar h - dh dbar h) / h^3."""
    if not j.h > 0:
        raise NonPositiveDensity(f"density {j.h} at {j.z} is not positive")
    num = j.h * j.ddbar - (j.d * j.dbar).real
    return float(-2.0 * num / j.h**3)


def pullback_density_jet(z: complex, g0: complex, g1: complex, g2: complex,
                         chi0, chi1, where=None) -> DensityJet:
    """Wirtinger jet of h = gamma(|g|^2) |g'|^2 + |chi|^2 at ``z``.

    ``g0, g1, g2`` are a holomorphic function g and its first two
    derivatives at ``z``; ``chi0`` and ``chi1`` are the components of a
    holomorphic vector chi and their first derivatives.  The jet follows
    from the chain rule through gamma; chi = (1) gives the one-variable
    pullback density, chi = the field along a leaf gives the leaf density.
    Where :func:`_finite_gamma` puts g0 on the divisor, OnDivisor names the
    point ``where`` (default ``z``).
    """
    t, (g, gp, gpp) = _finite_gamma(g0, 2, z if where is None else where)
    s = abs(g1) ** 2
    h = g * s + float(np.vdot(chi0, chi0).real)
    d = gp * g1 * g0.conjugate() * s + g * g2 * g1.conjugate() + np.dot(chi1, np.conj(chi0))
    ddbar = (
        gpp * t * s**2
        + gp * s**2
        + 2.0 * (gp * g1**2 * (g0 * g2).conjugate()).real
        + g * abs(g2) ** 2
        + float(np.vdot(chi1, chi1).real)
    )
    d = complex(d)
    return DensityJet(complex(z), float(h), d, d.conjugate(), float(ddbar))


def hk_density_jet(k: int, z: complex) -> DensityJet:
    """Density k^2 |z|^{2(k-1)} (1 + |z|^{2k} u^2(|z|^{2k})) with derivatives.

    Closed forms for the Wirtinger jet; reduces to the Grauert density at
    k = 1.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    z = complex(z)
    if z == 0:
        raise ValueError("density undefined at z = 0")
    s = abs(z) ** 2
    t = s**k
    j = u_jet(t)
    u, up, upp = j.u, j.up, j.upp
    k2 = float(k * k)
    h = k2 * (s ** (k - 1)) * (1.0 + t * u**2)
    d = (
        k2
        * np.conj(z)
        * (
            (k - 1) * s ** (k - 2)
            + (2 * k - 1) * s ** (2 * k - 2) * u**2
            + 2 * k * s ** (3 * k - 2) * u * up
        )
    )
    ddbar = k2 * (
        (k - 1) ** 2 * s ** (k - 2)
        + (2 * k - 1) ** 2 * s ** (2 * k - 2) * u**2
        + 2 * k * (5 * k - 2) * s ** (3 * k - 2) * u * up
        + 2 * k2 * s ** (4 * k - 2) * (up**2 + u * upp)
    )
    return DensityJet(z, float(h), complex(d), complex(np.conj(d)), float(ddbar))


def m_factor(t: float) -> float:
    """Numerator factor of the Grauert curvature as a function of t = |z|^2.

    DomainOverflow where 2 t^3 overflows a Python float (t >~ 4.48e102, so
    |z| >~ 2.1165e51), checked before the numpy terms can meet inf - inf.
    """
    try:
        t2, t3 = t**2, t**3
        if math.isinf(2.0 * t3):
            raise OverflowError
    except OverflowError:
        raise DomainOverflow(
            f"M(t) overflows at t = {t!r} (|z| = {math.sqrt(t):.3e}) in its t-domain"
            " form; a log-domain form of the profile would lift this limit"
        ) from None
    j = u_jet(t)
    u, up, upp = j.u, j.up, j.upp
    return (
        u**2
        + 6.0 * t * u * up
        + 2.0 * t2 * up**2
        + 2.0 * t2 * u * upp
        + 2.0 * t2 * u**3 * up
        - 2.0 * t3 * u**2 * up**2
        + 2.0 * t3 * u**3 * upp
    )


def grauert_curvature(z: complex) -> float:
    """Gaussian curvature of the Grauert metric: -2 M(|z|^2) / gamma^3.

    Non-positive on all of C*; tends to -4 as z -> 0 and to 0 as |z| -> oo.
    DomainOverflow from |z| ~ 2.1165e51, where M(t) overflows (see m_factor).
    """
    z = complex(z)
    if z == 0:
        raise ValueError("curvature undefined at z = 0")
    t = abs(z) ** 2
    g, _, _ = gamma_jet(t)
    return -2.0 * m_factor(t) / g**3


def power_curvature(k: int, z: complex) -> float:
    """Curvature of the k-th power-pullback density via the conformal formula.

    Independent code path from :func:`grauert_curvature`; the two are tied
    by the identity K_k(z) = K_g(z^k).
    """
    return gaussian_conformal(hk_density_jet(k, z))
