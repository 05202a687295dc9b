"""The one-variable heart of the Grauert metric on C*.

Profile function u(t) = (t-1)/(t log t) with first and second derivatives,
the conformal density 1 + |w|^2 u^2(|w|^2), its k-th power-pullback family,
the closed-form Gaussian curvatures of both, and the pullback-density jet
behind the one-variable and leaf curvatures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainOverflow, DomainUnderflow, NonPositiveDensity

#: representable argument range: t*log^2 t stays inside double precision
T_MIN = 1e-280
T_MAX = 1e280

#: switch to the Taylor branch inside this distance of the removable
#: singularity at t = 1 (the closed form loses ~8 digits there)
SERIES_RADIUS = 1e-3

_SERIES_ORDER = 10


def _u_series_coeffs(order: int) -> np.ndarray:
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
    return a


_U_COEFFS = _u_series_coeffs(_SERIES_ORDER)


@dataclass(frozen=True)
class UJet:
    """u(t), u'(t), u''(t) at a positive argument."""

    t: float
    u: float
    up: float
    upp: float


def u_jet(t: float) -> UJet:
    """Profile jet, Taylor branch near t = 1, closed form elsewhere."""
    t = float(t)
    if not t >= T_MIN:
        raise DomainUnderflow(f"t={t} below domain floor {T_MIN}")
    if t > T_MAX:
        raise DomainOverflow(f"t={t} above domain ceiling {T_MAX}")
    s = t - 1.0
    if abs(s) < SERIES_RADIUS:
        a = _U_COEFFS
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
    # u stays finite on the whole domain, but u' ~ 1/(t^2 L) and u'' blow up
    # faster than double precision within ~1e-150 of the edges; saturate to
    # +-inf there instead of warning (all curvature experiments stay inside)
    with np.errstate(over="ignore", divide="ignore"):
        up = (D - s * (L + 1.0)) / D / D
        upp = -s / t / D / D - 2.0 * (L + 1.0) * up / D
    return UJet(t, u, up, upp)


def gamma_jet(t: float) -> tuple[float, float, float]:
    """gamma(t) = 1 + t u^2(t) with first and second derivatives."""
    j = u_jet(t)
    g = 1.0 + t * j.u**2
    gp = j.u**2 + 2.0 * t * j.u * j.up
    gpp = 4.0 * j.u * j.up + 2.0 * t * (j.up**2 + j.u * j.upp)
    return g, gp, gpp


@dataclass(frozen=True)
class DensityJet:
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
                         chi0, chi1) -> DensityJet:
    """Wirtinger jet of h = gamma(|g|^2) |g'|^2 + |chi|^2 at ``z``.

    ``g0, g1, g2`` are a holomorphic function g and its first two
    derivatives at ``z``; ``chi0`` and ``chi1`` are the components of a
    holomorphic vector chi and their first derivatives.  The jet follows
    from the chain rule through gamma; chi = (1) gives the one-variable
    pullback density, chi = the field along a leaf gives the leaf density.
    """
    t = abs(g0) ** 2
    g, gp, gpp = gamma_jet(t)
    s = abs(g1) ** 2
    h = g * s + float(np.vdot(chi0, chi0).real)
    d = gp * g1 * np.conj(g0) * s + g * g2 * np.conj(g1) + np.dot(chi1, np.conj(chi0))
    ddbar = (
        gpp * t * s**2
        + gp * s**2
        + 2.0 * (gp * g1**2 * np.conj(g0 * g2)).real
        + g * abs(g2) ** 2
        + float(np.vdot(chi1, chi1).real)
    )
    return DensityJet(complex(z), float(h), complex(d), complex(np.conj(d)), float(ddbar))


def grauert_density_jet(w: complex) -> DensityJet:
    """Density 1 + |w|^2 u^2(|w|^2) of the Grauert metric, with derivatives."""
    return hk_density_jet(1, w)


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
    """Numerator factor of the Grauert curvature as a function of t = |z|^2."""
    j = u_jet(t)
    u, up, upp = j.u, j.up, j.upp
    return (
        u**2
        + 6.0 * t * u * up
        + 2.0 * t**2 * up**2
        + 2.0 * t**2 * u * upp
        + 2.0 * t**2 * u**3 * up
        - 2.0 * t**3 * u**2 * up**2
        + 2.0 * t**3 * u**3 * upp
    )


def grauert_curvature(z: complex) -> float:
    """Gaussian curvature of the Grauert metric: -2 M(|z|^2) / gamma^3.

    Non-positive on all of C*; tends to -4 as z -> 0 and to 0 as |z| -> oo.
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
