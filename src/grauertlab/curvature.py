"""Curvature machinery: the Kahler curvature tensor of the pullback metric,
holomorphic sectional curvature, its sampled supremum, and the one-variable
closed forms.
"""

from __future__ import annotations

import numpy as np

from .density import DensityJet, _finite_gamma, gaussian_conformal, pullback_density_jet
from .errors import NotCritical, ZeroVector
from .holomorphic import HoloMap, _as_point, eval_jet
from .metric import MetricDerivatives, _as_direction, metric_eval, metric_matrix_jet

#: |f'(p)| below this counts as a critical point
CRITICAL_TOL = 1e-12

#: imaginary residue allowed on algebraically-real quantities
REAL_RESIDUE_TOL = 1e-8


def kahler_tensor(md: MetricDerivatives) -> np.ndarray:
    """Kahler curvature tensor R[i, j, k, l] ~ R_{i jbar k lbar} at md.z:
    R_{ij.kl.} = -dbar_l d_k G_{ij.} + G^{q.p} (d_k G_{iq.})(dbar_l G_{pj.}).
    """
    n = md.G.shape[0]
    # dbar_l G_{pj.} = conj(d_l G_{jp.})
    dbarG = np.conj(md.dG).transpose(0, 2, 1)
    R = np.empty((n, n, n, n), dtype=complex)
    # written through a [k, l, i, j] view so R stays C-contiguous in
    # [i, j, k, l]: the einsum in hsc rounds by memory layout
    np.add(-md.ddG, (md.dG @ md.Ginv)[:, None] @ dbarG[None, :],
           out=R.transpose(2, 3, 0, 1))
    return R


def holo_sectional_curvature(f: HoloMap, p, V) -> float:
    """Holomorphic sectional curvature K(p, V) = 2 R(V,V.,V,V.) / phi(p,V)^2.

    Scale-invariant in V; normalized so the n = 1 value is the Gaussian
    curvature of the conformal density.  Repeated calls at one point, as in
    :func:`sup_sectional_curvature`, reuse the map's record of the point and
    its curvature tensor.
    """
    V = _as_direction(V)
    if not V.any():
        raise ZeroVector("direction V must be nonzero")
    md = metric_matrix_jet(f, p)
    # metric_matrix_jet leaves the map's record at p, so a tensor it holds is md's
    R = f._memo.get("R")
    if R is None:
        R = kahler_tensor(md)
        R.setflags(write=False)
        f._memo["R"] = R
    num = np.einsum("ijkl,i,j,k,l->", R, V, np.conj(V), V, np.conj(V))
    if abs(num.imag) > REAL_RESIDUE_TOL * max(1.0, abs(num.real)):
        raise ArithmeticError(f"sectional numerator not real: {num}")
    denom = metric_eval(f, p, V) ** 2
    return float(2.0 * num.real / denom)


hsc = holo_sectional_curvature


def _sphere_samples(n: int, samples: int, seed: int) -> np.ndarray:
    """Deterministic low-discrepancy directions on the unit sphere of C^n."""
    # scipy.stats takes about 1.2 s to import, and only direction sampling
    # needs it, so commands that never sample do not pay for it
    from scipy.stats import norm, qmc

    sob = qmc.Sobol(d=2 * n, scramble=True, seed=seed)
    u = sob.random(samples)
    x = norm.ppf(np.clip(u, 1e-12, 1 - 1e-12))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x[:, :n] + 1j * x[:, n:]


def _golden_polish(f, x0: np.ndarray):
    """Coordinate-wise golden-section maximization around ``x0``: 32 steps
    per coordinate in a window of half-width 0.25."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x = x0.copy()
    best = f(x)
    for c in range(x.size):
        a, b = x[c] - 0.25, x[c] + 0.25

        def g(v, c=c):
            y = x.copy()
            y[c] = v
            return f(y), y

        lo, hi = a, b
        u1 = hi - invphi * (hi - lo)
        u2 = lo + invphi * (hi - lo)
        f1, y1 = g(u1)
        f2, y2 = g(u2)
        for _ in range(32):
            if f1 < f2:
                lo, u1, f1 = u1, u2, f2
                u2 = lo + invphi * (hi - lo)
                f2, y2 = g(u2)
            else:
                hi, u2, f2 = u2, u1, f1
                u1 = hi - invphi * (hi - lo)
                f1, y1 = g(u1)
        cand, ycand = (f1, y1) if f1 >= f2 else (f2, y2)
        if cand > best:
            best = cand
            x = ycand
    return best, x


def sup_sectional_curvature(
    f: HoloMap, p, samples: int = 256, seed: int = 0, return_direction: bool = False
):
    """Sampled lower bound for sup_V K(p, V).

    Low-discrepancy sphere sample plus coordinate-wise golden-section polish
    around the best direction.  Deterministic for a fixed seed.
    """
    if samples < 64:
        raise ValueError("need at least 64 samples")
    p = _as_point(p, f.n)
    n = f.n
    dirs = _sphere_samples(n, samples, seed)

    def k_of_real(x: np.ndarray) -> float:
        V = x[:n] + 1j * x[n:]
        if not V.any():
            return -np.inf
        return holo_sectional_curvature(f, p, V)

    vals = [holo_sectional_curvature(f, p, V) for V in dirs]
    ibest = int(np.argmax(vals))
    x0 = np.concatenate([dirs[ibest].real, dirs[ibest].imag])
    best, xbest = _golden_polish(k_of_real, x0)
    best = max(best, vals[ibest])
    if return_direction:
        return best, xbest[:n] + 1j * xbest[n:]
    return best


k_plus = sup_sectional_curvature


def critical_point_curvature(f: HoloMap, p: complex) -> float:
    """Curvature at a critical point of a one-variable map, in closed form:
    K(p) = -2 |f''(p)|^2 gamma(|f(p)|^2); zero exactly when f''(p) = 0.
    """
    if f.n != 1:
        raise ValueError("critical_point_curvature expects a one-variable map")
    jet = eval_jet(f, p, 2)
    if abs(jet.d(0)) >= CRITICAL_TOL:
        raise NotCritical(
            f"|f'({jet.point[0]})| = {abs(jet.d(0)):.3e} >= {CRITICAL_TOL}"
        )
    _, (g,) = _finite_gamma(jet.value, 0, jet.point)
    return float(-2.0 * abs(jet.d2(0, 0)) ** 2 * g)


def line_density_jet(f: HoloMap, z: complex) -> DensityJet:
    """Wirtinger jet of the one-variable metric density
    h(z) = gamma(|f|^2) |f'|^2 + 1, assembled from the holomorphic jet of f.
    """
    if f.n != 1:
        raise ValueError("line_density_jet expects a one-variable map")
    jet = eval_jet(f, z, 2)
    return pullback_density_jet(z, jet.value, jet.d(0), jet.d2(0, 0), [1.0], [0.0],
                                where=jet.point)


def line_curvature(f: HoloMap, z: complex) -> float:
    """Full Gaussian curvature of the one-variable metric at ``z``.

    Conformal-formula path; stays accurate arbitrarily close to the divisor,
    unlike the tensor path whose rank-one solve degrades there.
    """
    return gaussian_conformal(line_density_jet(f, z))
