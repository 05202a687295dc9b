"""mpmath oracles for the benchmark's output checks.

Each oracle works from the definitions, not from the library's formulas:

* the profile jet ``u, u', u''`` and every radial curvature are derivatives
  in ``x = log t`` taken by ``mpmath.diff``, which stays well conditioned
  over the whole documented domain ``t in [1e-280, 1e280]``;
* the holomorphic sectional curvature differentiates the metric matrix
  ``G = gamma(|f|^2) df df^* + I`` by central differences in high precision
  and assembles the Kahler curvature tensor from them.

All oracles run at ``DPS`` significant digits.
"""

from __future__ import annotations

import math
import sys

import mpmath as mp

DPS = 50

#: largest and smallest positive normal doubles
DBL_MAX = sys.float_info.max
DBL_MIN = sys.float_info.min


def rel_err(value: float, ref) -> float:
    """Relative error of a double against an mpmath reference.

    A reference beyond the double range is met exactly by an infinity of the
    same sign (the correctly rounded result); below the normal range the
    error is measured against ``DBL_MIN``.  Non-finite values otherwise give
    ``inf``.
    """
    if abs(ref) > DBL_MAX:
        return 0.0 if math.isinf(value) and (value > 0) == (ref > 0) else math.inf
    if not math.isfinite(value):
        return math.inf
    return float(abs(mp.mpf(value) - ref) / max(abs(ref), DBL_MIN))


def _u_of_x(x):
    # u(t) = (t - 1) / (t log t) with t = e^x, written with expm1 so that the
    # removable singularity at x = 0 costs no digits
    if x == 0:
        return mp.mpf(1)
    return mp.expm1(x) / (mp.exp(x) * x)


def _log_gamma_of_x(x):
    # log gamma(e^x), gamma(t) = 1 + t u(t)^2
    if x == 0:
        return mp.log(2)
    return mp.log(1 + mp.expm1(x) ** 2 / (mp.exp(x) * x * x))


def u_jet(t: float):
    """(u, u', u'') at ``t`` as mpmath numbers."""
    with mp.workdps(DPS):
        x = mp.log(mp.mpf(t))
        u, ux, uxx = mp.diffs(_u_of_x, x, 2)
        tm = mp.exp(x)
        return +u, ux / tm, (uxx - ux) / tm**2


def _radial_curvature(log_h, rho):
    """Gaussian curvature of the radial density ``h(|z|^2)`` at ``|z|^2 = rho``.

    With ``y = log rho`` one has ``ddbar F(|z|^2) = (1/rho) d^2F/dy^2``, so
    ``K = -2 ddbar log h / h = -2 (log h)''(y) / (h rho)``.
    """
    y = mp.log(rho)
    lh, _, lyy = mp.diffs(log_h, y, 2)
    return -2 * lyy / (mp.exp(lh) * rho)


def grauert_curvature(re: float, im: float):
    """K_g at ``z = re + i im``: density gamma(|z|^2)."""
    with mp.workdps(DPS):
        rho = mp.mpf(re) ** 2 + mp.mpf(im) ** 2
        return _radial_curvature(lambda y: _log_gamma_of_x(y), rho)


def power_curvature(k: int, z: complex):
    """Curvature of the density k^2 |z|^{2(k-1)} gamma(|z|^{2k})."""
    with mp.workdps(DPS):
        rho = mp.mpf(z.real) ** 2 + mp.mpf(z.imag) ** 2
        return _radial_curvature(
            lambda y: 2 * mp.log(k) + (k - 1) * y + _log_gamma_of_x(k * y), rho
        )


def monomial_line_curvature(k: int, z: complex):
    """Curvature of h = gamma(|z^k|^2) |k z^{k-1}|^2 + 1, the one-variable
    pullback density of f = z^k."""
    with mp.workdps(DPS):
        rho = mp.mpf(z.real) ** 2 + mp.mpf(z.imag) ** 2

        def log_h(y):
            return mp.log(
                mp.exp(_log_gamma_of_x(k * y) + (k - 1) * y) * k * k + 1
            )

        return _radial_curvature(log_h, rho)


def shifted_line_curvature(w: complex):
    """Curvature of h = gamma(|w|^2) + 1: any map f with f' = 1, at f = w."""
    with mp.workdps(DPS):
        rho = mp.mpf(w.real) ** 2 + mp.mpf(w.imag) ** 2
        return _radial_curvature(lambda y: mp.log(mp.exp(_log_gamma_of_x(y)) + 1), rho)


def gamma(w: complex):
    """gamma(|w|^2)."""
    with mp.workdps(DPS):
        rho = mp.mpf(w.real) ** 2 + mp.mpf(w.imag) ** 2
        return mp.exp(_log_gamma_of_x(mp.log(rho)))


# -- holomorphic sectional curvature ------------------------------------------

def _poly_terms(obj: dict):
    return [
        (tuple(int(e) for e in t["exp"]), mp.mpc(t.get("re", 0.0), t.get("im", 0.0)))
        for t in obj["terms"]
    ]


def _poly_value_grad(terms, z):
    n = len(z)
    val = mp.mpc(0)
    grad = [mp.mpc(0)] * n
    for exp, c in terms:
        val += c * mp.fprod(zi**e for zi, e in zip(z, exp))
        for i in range(n):
            if exp[i]:
                grad[i] += c * exp[i] * mp.fprod(
                    zk ** (e - (k == i)) for k, (zk, e) in enumerate(zip(z, exp))
                )
    return val, grad


def _map_value_grad(desc: dict, z):
    """Value and gradient of a map descriptor (polynomial or quotient)."""
    if "num" not in desc:
        return _poly_value_grad(_poly_terms(desc), z)
    nv, ng = _poly_value_grad(_poly_terms(desc["num"]), z)
    dv, dg = _poly_value_grad(_poly_terms(desc["den"]), z)
    return nv / dv, [(a * dv - nv * b) / dv**2 for a, b in zip(ng, dg)]


def _metric(desc: dict, x):
    n = len(x) // 2
    z = [mp.mpc(x[2 * k], x[2 * k + 1]) for k in range(n)]
    fz, a = _map_value_grad(desc, z)
    g = mp.exp(_log_gamma_of_x(mp.log(abs(fz) ** 2)))
    return mp.matrix(
        [[g * a[i] * mp.conj(a[j]) + (i == j) for j in range(n)] for i in range(n)]
    )


def holo_sectional_curvature(desc: dict, p, V):
    """K(p, V) = 2 R(V, V., V, V.) / (V^* G V)^2 for the map descriptor ``desc``.

    R_{ij.kl.} = -dbar_l d_k G_{ij.} + sum_{qp} d_k G_{iq.} G^{qp.} dbar_l G_{pj.},
    with the Wirtinger derivatives taken from second-order central differences
    of G in the real coordinates (step 1e-12 at 50 digits: truncation and
    roundoff both stay near 1e-24 relative).
    """
    n = len(p)
    with mp.workdps(DPS):
        h = mp.mpf("1e-12")
        x0 = []
        for v in p:
            x0 += [mp.mpf(v.real), mp.mpf(v.imag)]
        m = 2 * n

        def G_at(*shifts):
            x = list(x0)
            for a, s in shifts:
                x[a] += s * h
            return _metric(desc, x)

        G0 = G_at()
        plus = [G_at((a, 1)) for a in range(m)]
        minus = [G_at((a, -1)) for a in range(m)]
        d1 = [(plus[a] - minus[a]) / (2 * h) for a in range(m)]
        d2 = {}
        for a in range(m):
            d2[a, a] = (plus[a] - 2 * G0 + minus[a]) / h**2
            for b in range(a + 1, m):
                d2[a, b] = d2[b, a] = (
                    G_at((a, 1), (b, 1)) - G_at((a, 1), (b, -1))
                    - G_at((a, -1), (b, 1)) + G_at((a, -1), (b, -1))
                ) / (4 * h**2)
        dG = [(d1[2 * k] - 1j * d1[2 * k + 1]) / 2 for k in range(n)]
        dbarG = [(d1[2 * k] + 1j * d1[2 * k + 1]) / 2 for k in range(n)]
        Ginv = G0**-1
        Vm = [mp.mpc(v.real, v.imag) for v in V]
        num = mp.mpc(0)
        for k in range(n):
            xk, yk = 2 * k, 2 * k + 1
            for l in range(n):
                xl, yl = 2 * l, 2 * l + 1
                ddG = (d2[xk, xl] + 1j * d2[xk, yl] - 1j * d2[yk, xl] + d2[yk, yl]) / 4
                R = -ddG + dG[k] * Ginv * dbarG[l]
                w = Vm[k] * mp.conj(Vm[l])
                for i in range(n):
                    for j in range(n):
                        num += R[i, j] * Vm[i] * mp.conj(Vm[j]) * w
        phi = mp.fsum(
            G0[i, j] * Vm[i] * mp.conj(Vm[j]) for i in range(n) for j in range(n)
        )
        return 2 * num.real / phi.real**2
