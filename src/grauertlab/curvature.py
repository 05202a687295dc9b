"""Curvature machinery: the Kahler curvature tensor of the pullback metric,
holomorphic sectional curvature, its sampled supremum, and the one-variable
curvature, which is the guarded conformal curvature of the pullback density.
"""

from __future__ import annotations

import math

import numpy as np

from .density import gaussian_conformal, pullback_density_jet
from .errors import LeafIllConditioned, ZeroVector
from .holomorphic import HoloMap, _as_point, eval_jet
from .metric import MetricDerivatives, _as_direction, _phi, metric_matrix_jet

#: imaginary residue allowed on algebraically-real quantities
REAL_RESIDUE_TOL = 1e-8

#: hsc takes V as given where max |V_i| lies here; with the conditioning guard
#: on G, phi(p, V) then lies in [2^-400, 2^443], so phi^2 is a normal double
_V_BAND = (2.0**-200, 2.0**180)


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
    np.subtract((md.dG @ md.Ginv)[:, None] @ dbarG[None, :], md.ddG,
                out=R.transpose(2, 3, 0, 1))
    return R


def holo_sectional_curvature(f: HoloMap, p, V) -> float:
    """Holomorphic sectional curvature K(p, V) = 2 R(V,V.,V,V.) / phi(p,V)^2.

    Scale-invariant in V: V with max |V_i| outside _V_BAND is first scaled
    by the power of two that puts it in [1, 2), V is checked once, and
    phi(p, V) is evaluated once.  Where the imaginary residue of the
    numerator R(V,V.,V,V.) exceeds REAL_RESIDUE_TOL x max(|its real part|,
    phi^2), both of which scale as |V|^4, LeafIllConditioned rejects the
    point at every scale of V.  Normalized so the n = 1 value is the
    Gaussian curvature of the conformal density.

    Every call converts p once and evaluates two jets of f at that tuple,
    the 2-jet behind the metric blocks and the 1-jet behind phi, which
    reads the gradient and gamma from the map's record of it.  Repeated
    calls with one converted tuple, as in :func:`sup_sectional_curvature`,
    also read the metric blocks and curvature tensor from the record, so
    such a call computes the two jets, phi and the contraction of the
    tensor with V.
    """
    V, m = _as_direction(V, f.n)
    if m == 0:
        raise ZeroVector("direction V must be nonzero")
    if not _V_BAND[0] <= m <= _V_BAND[1]:
        # two halves of k, so neither power of two overflows; an inf m is in [2^1024, 2^1025)
        k = 1 - (math.frexp(m)[1] if m < math.inf else 1025)
        V = V * math.ldexp(1.0, k // 2) * math.ldexp(1.0, k - k // 2)
        m = 1.0  # max |V_i| now lies in [1, 2)
    p = _as_point(p, f.n)
    md = metric_matrix_jet(f, p)
    # metric_matrix_jet leaves the map's record at p, so a tensor it holds is md's
    R = f._memo.get("R")
    if R is None:
        R = kahler_tensor(md)
        R.setflags(write=False)
        f._memo["R"] = R
    phi = _phi(f, p, V, m)
    phi2 = phi * phi
    cV = np.conj(V)
    num = complex(np.einsum("ijkl,i,j,k,l->", R, V, cV, V, cV))
    if abs(num.imag) > REAL_RESIDUE_TOL * max(abs(num.real), phi2):
        raise LeafIllConditioned(
            f"sectional numerator {num} at {p} has an imaginary residue above "
            f"{REAL_RESIDUE_TOL:.0e} x max(|its real part|, phi^2 = {phi2:.6e})")
    return 2.0 * num.real / phi2


hsc = holo_sectional_curvature


def _sphere_samples(n: int, samples: int, seed: int) -> np.ndarray:
    """Deterministic low-discrepancy directions on the unit sphere of C^n,
    as rows (Re V, Im V) of 2n reals."""
    # scipy.stats takes about 1.2 s to import, and only direction sampling
    # needs it, so commands that never sample do not pay for it
    from scipy.stats import norm, qmc

    sob = qmc.Sobol(d=2 * n, scramble=True, seed=seed)
    u = sob.random(samples)
    x = norm.ppf(np.clip(u, 1e-12, 1 - 1e-12))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x


def _golden_polish(f, x0: np.ndarray):
    """Coordinate-wise golden-section maximization around ``x0``: 32 steps
    per coordinate in a window of half-width 0.25.  Returns the best value
    and the point it was evaluated at."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x = x0.copy()
    best = f(x)
    xbest = x
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
        # v1, v2 are the points f1, f2 were evaluated at; y1, y2 are the
        # last evaluations on each side, which a swap leaves in place
        v1, v2 = y1, y2
        for _ in range(32):
            if f1 < f2:
                lo, u1, f1, v1 = u1, u2, f2, v2
                u2 = lo + invphi * (hi - lo)
                f2, y2 = g(u2)
                v2 = y2
            else:
                hi, u2, f2, v2 = u2, u1, f1, v1
                u1 = hi - invphi * (hi - lo)
                f1, y1 = g(u1)
                v1 = y1
        cand, ycand, vcand = (f1, y1, v1) if f1 >= f2 else (f2, y2, v2)
        if cand > best:
            best, xbest = cand, vcand
            # the next coordinates search around ycand, not vcand: the
            # sampled values, thm11's pinned report among them, follow
            # this search path
            x = ycand
    return best, xbest


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

    def k_of_real(x: np.ndarray) -> float:
        return holo_sectional_curvature(f, p, x[:n] + 1j * x[n:])

    xs = _sphere_samples(n, samples, seed)
    # every row at once: the conversion is elementwise, so the same bits
    ibest = int(np.argmax([holo_sectional_curvature(f, p, V)
                           for V in xs[:, :n] + 1j * xs[:, n:]]))
    best, xbest = _golden_polish(k_of_real, xs[ibest])
    if return_direction:
        return best, xbest[:n] + 1j * xbest[n:]
    return best


k_plus = sup_sectional_curvature


def line_curvature(f: HoloMap, z: complex) -> float:
    """Gaussian curvature of the one-variable metric gamma(|f|^2) |f'|^2 + 1
    at ``z``: :func:`gaussian_conformal` of its 2-jet, so a value within its
    rounding bound or LeafIllConditioned, and OnDivisor next to the divisor.
    """
    if f.n != 1:
        raise ValueError("line_curvature expects a one-variable map")
    jet = eval_jet(f, z, 2)
    return gaussian_conformal(pullback_density_jet(
        jet.point, jet.value, jet.d(0), jet.d2(0, 0), [1.0], [0.0]))
