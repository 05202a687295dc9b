"""Pullback Hermitian metric fields on the complement of a principal divisor.

The metric is G_{ik}(z) = gamma(|f|^2) f_{z_i} conj(f_{z_k}) + delta_{ik}
with gamma(t) = 1 + t u^2(t): a rank-one update of the Euclidean identity.
Derivative blocks are assembled by the chain rule from the holomorphic jet
of f and the profile jet of u.

Convention: phi(V) = V^T G conj(V) = sum_ik G[i, k] V_i conj(V_k), so
G[i, k] pairs with V_i conj(V_k).  In this convention V^* G V is the
quadratic form of G^T, not phi(V).

The divisor guard is :func:`grauertlab.density._finite_gamma`, which every
path from the jet of f to gamma(|f|^2) goes through.

A map keeps one record, ``HoloMap._memo``: the last point
:func:`metric_matrix_jet` built, as a dict with

- ``"a"`` and ``"g"``: the gradient of f and gamma(|f|^2);
- ``"md"``: the :class:`MetricDerivatives`;
- ``"R"``: the curvature tensor, once :func:`grauertlab.curvature.hsc`
  builds it.

Every array is held read-only, and a hit returns the very objects the miss
built.  A point is at the record only when it is the very tuple the record
was built from, ``md.z``: :func:`grauertlab.curvature.hsc` passes one
converted tuple to both of its jets, and
:func:`grauertlab.curvature.k_plus` one to every call.  Any other tuple,
even one with the same bits, is a miss that builds the same bits anew.  A
new record replaces the old one whole.  :func:`metric_eval`,
:func:`metric_matrix` and :func:`metric_det` read the gradient and gamma
from the record at its point and store nothing themselves;
:func:`grauertlab.curvature.hsc` takes phi through :func:`_phi`, which is
:func:`metric_eval` past its direction check.  Each function still
evaluates its jet first, so a point that raises keeps raising, and an
error stores nothing.  The record assumes one thread per map, as the
library is single-threaded.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .density import _finite_gamma, _pow
from .errors import DomainOverflow, NonFiniteInput, SolveFailure
from .holomorphic import HoloMap, eval_jet

#: Sherman-Morrison conditioning guard before declaring failure
COND_LIMIT = 1e12


@functools.cache
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity, built once per n."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _as_direction(V, n: int) -> tuple[np.ndarray, float]:
    """V as a flat complex array of n entries and m = max |V_i| (inf above the
    largest double); NonFiniteInput when an entry is NaN or infinite."""
    V = np.asarray(V, dtype=complex).ravel()
    entries = V.tolist()
    if len(entries) != n:
        raise ValueError(f"direction has {len(entries)} coordinates, map expects {n}")
    if not all(map(cmath.isfinite, entries)):
        raise NonFiniteInput(f"direction {V} is not finite")
    try:
        m = max(map(abs, entries))
    except OverflowError:
        m = math.inf
    return V, m


def _gradient_and_gamma(f: HoloMap, z) -> tuple[np.ndarray, float]:
    """grad f(z) and gamma(|f(z)|^2) from one 1-jet of f, read from the
    map's record when it was built at this point."""
    jet = eval_jet(f, z, 1)
    rec = f._memo
    if rec and rec["md"].z is jet.point:
        return rec["a"], rec["g"]
    _, (g,) = _finite_gamma(jet.value, 0, jet.point)
    return jet.gradient(), g


def metric_eval(f: HoloMap, z, V) -> float:
    """phi(z, V) = gamma(|f|^2) |df(z)(V)|^2 + |V|^2; DomainOverflow where not finite."""
    return _phi(f, z, *_as_direction(V, f.n))


def _phi(f: HoloMap, z, V: np.ndarray, m: float) -> float:
    """:func:`metric_eval` at a direction ``V`` that :func:`_as_direction` has
    checked; ``m`` is its max |V_i|, or any value on the same side of 2^512."""
    a, g = _gradient_and_gamma(f, z)
    phi = math.inf if m >= 2.0**512 else (  # |V|^2 overflows: no numpy product
        g * _pow(float(abs(np.dot(a, V))), 2) + float(np.vdot(V, V).real))
    if not math.isfinite(phi):
        raise DomainOverflow(f"phi(z, V) = gamma |df(z)(V)|^2 + |V|^2 overflows at {z}")
    return phi


def _det(a: np.ndarray, g: float, z) -> float:
    """det G = 1 + gamma |a|^2 for the gradient a of f at z (matrix determinant
    lemma); DomainOverflow where it is not finite."""
    det = 1.0 + g * float(np.vdot(a, a).real)
    if not math.isfinite(det):
        raise DomainOverflow(f"det G = 1 + gamma |grad f|^2 overflows at {z}")
    return det


def metric_matrix(f: HoloMap, z) -> np.ndarray:
    """Matrix G(z) of the metric; Hermitian, eigenvalues >= 1.  DomainOverflow
    where det G = 1 + gamma |grad f|^2 is not finite, before a a^* is formed."""
    a, g = _gradient_and_gamma(f, z)
    _det(a, g, z)
    # np.outer's product, then G = G/2 + G^*/2 in place: Hermitian by construction,
    # finite up to the det G limit, and 0.5 * (G + G^*) bit for bit above subnormals
    G = g * (a[:, None] * a.conj()[None, :]) + _identity(f.n)
    G *= 0.5
    G += G.conj().T
    return G


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
    number 1 + gamma |grad f|^2 must stay below the guard.  The blocks are
    read-only: they become the map's record (see the module docstring).
    """
    n = f.n
    jet = eval_jet(f, z, 2)
    rec = f._memo
    if rec and rec["md"].z is jet.point:
        return rec["md"]
    fz = jet.value
    t, (g, gp, gpp) = _finite_gamma(fz, 2, jet.point)
    a = jet.gradient()
    # before any block is formed, so no product overflows; NaN fails too
    na2 = float(np.vdot(a, a).real)
    cond = 1.0 + g * na2
    if not cond <= COND_LIMIT:
        raise SolveFailure(f"metric conditioning {cond:.3e} exceeds {COND_LIMIT:.0e} "
                           f"at {jet.point}")
    H = jet.hessian()

    # numpy's complex array loop rounds a product the same way at every length
    # and under broadcasting, but a scalar product, or one that reads a strided
    # view, can round differently.  So the array products are batched over
    # k, l on fresh arrays and their broadcasts, while the scalar coefficients
    # stay scalar chains, on Python floats and complex numbers, which round as
    # numpy scalars do without numpy's per-operation dispatch; every value is
    # the same bits as the loop forms (tests/oracles.py).  H[k] is the column
    # H[:, k] (H[i, j] and H[j, i] read one partial).
    ca, cH, cfz = np.conj(a), np.conj(H), fz.conjugate()
    aa = a[:, None] * ca[None, :]
    G = g * aa + _identity(n)

    al, cal = a.tolist(), ca.tolist()
    s = np.array([gp * ak * cfz for ak in al])  # d_k gamma = gp a_k conj(f)
    w = gpp * t + gp
    waa = np.array([[w * ak * cl for cl in cal] for ak in al])
    gpfz_ca = np.array([gp * fz * cl for cl in cal])
    Hca = H[:, :, None] * ca[None, None, :]  # Hca[k][i, j] = H[i, k] conj(a_j)

    dG = s[:, None, None] * aa[None] + g * Hca
    ddG = waa[:, :, None, None] * aa[None, None]
    ddG += s[:, None, None, None] * (a[None, None, :, None] * cH[None, :, None, :])
    ddG += gpfz_ca[None, :, None, None] * Hca[:, None]
    ddG += g * (H[:, None, :, None] * cH[None, :, None, :])

    Ginv = _identity(n) - (g / cond) * aa
    for block in (a, G, dG, ddG, Ginv):
        block.setflags(write=False)
    md = MetricDerivatives(jet.point, G, dG, ddG, Ginv)
    rec.clear()
    rec.update(a=a, g=g, md=md)
    return md


def metric_det(f: HoloMap, z) -> float:
    """det G(z) = 1 + gamma(|f|^2) |grad f|^2 (matrix determinant lemma);
    DomainOverflow where it is not finite."""
    return _det(*_gradient_and_gamma(f, z), z)
