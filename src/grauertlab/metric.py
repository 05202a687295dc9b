"""Pullback Hermitian metric fields on the complement of a principal divisor.

The metric is G_{ik}(z) = gamma(|f|^2) f_{z_i} conj(f_{z_k}) + delta_{ik}
with gamma(t) = 1 + t u^2(t): a rank-one update of the Euclidean identity.
Derivative blocks are assembled by the chain rule from the holomorphic jet
of f and the profile jet of u.

Convention: phi(V) = V^T G conj(V) = sum_ik G[i, k] V_i conj(V_k), so
G[i, k] pairs with V_i conj(V_k).  In this convention V^* G V is the
quadratic form of G^T, not phi(V).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import T_MIN, gamma_jet
from .errors import OnDivisor, SolveFailure
from .holomorphic import HoloMap, Jet, eval_jet

#: |f(z)| below this counts as "on the divisor": exactly where |f|^2 would
#: fall below the profile's domain floor T_MIN
DIVISOR_TOL = math.sqrt(T_MIN)

#: Sherman-Morrison conditioning guard before declaring failure
COND_LIMIT = 1e12


def _off_divisor_value(jet: Jet) -> complex:
    """The value f(p) held by ``jet``; OnDivisor when |f(p)| < DIVISOR_TOL."""
    v = jet.value
    if abs(v) < DIVISOR_TOL:
        raise OnDivisor(f"f vanishes at {jet.point} (|f| = {abs(v):.3e})")
    return v


def _gradient_and_gamma(f: HoloMap, z) -> tuple[np.ndarray, float]:
    """grad f(z) and gamma(|f(z)|^2) from one 1-jet of f.  Where gamma
    overflows (for f = z: 1e-140 < |z| < 4.55e-79) z counts as on the divisor.
    """
    jet = eval_jet(f, z, 1)
    fz = _off_divisor_value(jet)
    g, _, _ = gamma_jet(abs(fz) ** 2)
    if not math.isfinite(g):
        raise OnDivisor(
            f"gamma(|f|^2) overflows at {jet.point} (|f| = {abs(fz):.3e})"
        )
    return jet.gradient(), g


def metric_eval(f: HoloMap, z, V) -> float:
    """Metric value phi(z, V) = gamma(|f|^2) |df(z)(V)|^2 + |V|^2."""
    V = np.asarray(V, dtype=complex)
    a, g = _gradient_and_gamma(f, z)
    dfv = np.dot(a, V)
    return float(g * abs(dfv) ** 2 + np.vdot(V, V).real)


def metric_matrix(f: HoloMap, z) -> np.ndarray:
    """Matrix G(z) of the metric; Hermitian, eigenvalues >= 1."""
    a, g = _gradient_and_gamma(f, z)
    G = g * np.outer(a, np.conj(a)) + np.eye(f.n)
    return 0.5 * (G + G.conj().T)  # Hermitian by construction


@dataclass(frozen=True)
class MetricDerivatives:
    """G, its first and mixed-second Wirtinger derivative blocks, and G^-1.

    ``dG[k]`` is the matrix of d_k G_{ij}, ``ddG[k, l]`` of dbar_l d_k G_{ij};
    the anti-holomorphic first block is the conjugate transpose of ``dG``.
    """

    z: tuple[complex, ...]
    G: np.ndarray
    dG: np.ndarray  # shape (n, n, n): dG[k][i, j]
    ddG: np.ndarray  # shape (n, n, n, n): ddG[k][l][i, j]
    Ginv: np.ndarray


def metric_matrix_jet(f: HoloMap, z) -> MetricDerivatives:
    """Exact analytic derivative blocks of the metric matrix at ``z``.

    The inverse uses the Sherman-Morrison rank-one form; its condition
    number 1 + gamma |grad f|^2 must stay below the guard.
    """
    n = f.n
    jet = eval_jet(f, z, 2)
    fz = _off_divisor_value(jet)
    a = jet.gradient()
    H = jet.hessian()
    t = abs(fz) ** 2
    g, gp, gpp = gamma_jet(t)

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


def metric_det(f: HoloMap, z) -> float:
    """det G(z) = 1 + gamma(|f|^2) |grad f|^2 (matrix determinant lemma)."""
    a, g = _gradient_and_gamma(f, z)
    return float(1.0 + g * np.vdot(a, a).real)
