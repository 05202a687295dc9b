"""Tests for the pullback metric field and its derivative blocks."""

import numpy as np
import pytest

from grauertlab.curvature import hsc, line_curvature
from grauertlab.errors import NonFiniteInput, OnDivisor
from grauertlab.holomorphic import HoloMap
from grauertlab.metric import (
    metric_det,
    metric_eval,
    metric_matrix,
    metric_matrix_jet,
)
from oracles import wirtinger_fd


def _rand_map(rng, n=2):
    exps = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    return HoloMap.poly(n, {e: complex(*rng.normal(size=2)) for e in exps})


def test_kernel_direction_trivial():
    f = HoloMap.poly(2, {(1, 0): 1})  # f = z1
    assert abs(metric_eval(f, (2.0, 0.0), (0, 1)) - 1.0) < 1e-12


def test_metric_eval_substitution():
    # f = z1 at |z1|^2 = e, V = e1: phi = gamma(e) + 1 = (1 + (e-1)^2/e) + 1
    e = float(np.e)
    f = HoloMap.poly(2, {(1, 0): 1})
    phi = metric_eval(f, (np.sqrt(e), 1.0), (1, 0))
    assert abs(phi - (1 + (e - 1) ** 2 / e + 1)) < 1e-12


def test_metric_eval_equals_quadratic_form():
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = _rand_map(rng)
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        if abs(f(z)) < 1e-3:
            continue
        V = rng.normal(size=2) + 1j * rng.normal(size=2)
        G = metric_matrix(f, z)
        # phi = sum_ik G[i,k] V_i conj(V_k)
        form = float(np.real(V @ G @ np.conj(V)))
        assert abs(metric_eval(f, z, V) - form) < 1e-10 * max(1.0, form)


def test_rank_one_spectrum():
    # f = z1 z2 - 1 at (2, 1): f = 1, so c = 1 + u^2(1) = 2 and the
    # eigenvalues are {1, 1 + c (|z1|^2 + |z2|^2)} = {1, 11}
    f = HoloMap.poly(2, {(1, 1): 1, (0, 0): -1})
    w = np.linalg.eigvalsh(metric_matrix(f, (2.0, 1.0)))
    assert np.allclose(sorted(w), [1.0, 11.0], atol=1e-10)


def test_hermitian_and_positive():
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = _rand_map(rng)
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        if abs(f(z)) < 1e-3:
            continue
        G = metric_matrix(f, z)
        assert np.array_equal(G, G.conj().T)
        assert np.linalg.eigvalsh(G).min() >= 1 - 1e-12


def test_determinant_lemma():
    rng = np.random.default_rng(2)
    for _ in range(20):
        f = _rand_map(rng)
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        if abs(f(z)) < 1e-3:
            continue
        d1 = metric_det(f, z)
        d2 = float(np.linalg.det(metric_matrix(f, z)).real)
        assert abs(d1 - d2) < 1e-10 * max(1.0, abs(d1))


def test_constant_map_flat():
    f = HoloMap.constant(2, 3.0)
    md = metric_matrix_jet(f, (0.5, -0.2))
    assert np.allclose(md.G, np.eye(2))
    assert np.allclose(md.dG, 0) and np.allclose(md.ddG, 0)
    assert np.allclose(md.Ginv, np.eye(2))


def test_ddG_matches_grauert_density():
    # n = 1, f = z: ddG[0][0] is the mixed second of 1 + |z|^2 u^2(|z|^2)
    from grauertlab.density import grauert_density_jet

    f = HoloMap.poly(1, {(1,): 1})
    for z in (0.7, 1.0 + 0.5j, 2.0):
        md = metric_matrix_jet(f, z)
        j = grauert_density_jet(z)
        assert abs(md.ddG[0, 0][0, 0] - j.ddbar) < 1e-10 * max(1.0, abs(j.ddbar))


def _fd_complex(F, step=1e-5):
    """Wirtinger d and dbar of a complex-valued field via two real stencils."""
    jr = wirtinger_fd(lambda T: F(T).real, 0j, step)
    ji = wirtinger_fd(lambda T: F(T).imag, 0j, step)
    return jr.d + 1j * ji.d, jr.dbar + 1j * ji.dbar


def test_derivative_blocks_match_stencil():
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = _rand_map(rng)
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        if abs(f(z)) < 0.05:
            continue
        md = metric_matrix_jet(f, z)
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    def Gij(T, k=k, i=i, j=j):
                        q = list(z)
                        q[k] += T
                        return metric_matrix(f, q)[i, j]

                    d, _ = _fd_complex(Gij)
                    assert abs(d - md.dG[k][i, j]) < 1e-5 * max(
                        1.0, abs(md.dG[k][i, j])
                    )
        # mixed second blocks: dbar_l of the analytic first block
        for k in range(2):
            for l in range(2):
                for i in range(2):
                    for j in range(2):
                        def dGk(T, k=k, l=l, i=i, j=j):
                            q = list(z)
                            q[l] += T
                            return metric_matrix_jet(f, q).dG[k][i, j]

                        _, dbar = _fd_complex(dGk, step=1e-4)
                        assert abs(dbar - md.ddG[k, l][i, j]) < 1e-4 * max(
                            1.0, abs(md.ddG[k, l][i, j])
                        )


def test_inverse_consistency():
    rng = np.random.default_rng(4)
    for _ in range(10):
        f = _rand_map(rng)
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        if abs(f(z)) < 0.05:
            continue
        md = metric_matrix_jet(f, z)
        assert np.max(np.abs(md.G @ md.Ginv - np.eye(2))) < 1e-10


def test_on_divisor_error():
    f = HoloMap.poly(2, {(1, 1): 1, (0, 0): -1})
    with pytest.raises(OnDivisor):
        metric_eval(f, (1.0, 1.0), (1, 0))
    # |f| below sqrt(T_MIN) = 1e-140 is on the divisor, not a profile underflow
    with pytest.raises(OnDivisor):
        line_curvature(HoloMap.poly(1, {(3,): 1}), 1e-50)
    with pytest.raises(OnDivisor):
        hsc(HoloMap.poly(2, {(1, 0): 1}), (1e-200, 1.0), (1, 0))


# gamma_jet's overflow warns before the metric rejects the point
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_gamma_overflow_is_on_divisor():
    # for f = z, gamma(|f|^2) overflows for 1e-140 < |z| < 4.55e-79, above
    # the divisor tolerance: no NaN or inf metric value is returned there
    f = HoloMap.poly(1, {(1,): 1})
    for z in (1e-139, 1e-100, 1e-80):
        with pytest.raises(OnDivisor):
            metric_matrix(f, z)
        with pytest.raises(OnDivisor):
            metric_eval(f, z, [1.0])
        with pytest.raises(OnDivisor):
            metric_det(f, z)
    assert np.all(np.isfinite(metric_matrix(f, 1e-78)))
    assert np.isfinite(metric_eval(f, 1e-78, [1.0]))
    assert np.isfinite(metric_det(f, 1e-78))


@pytest.mark.parametrize("V", [(np.nan, 0), (np.inf, 0), (1, complex(0, np.inf))])
def test_non_finite_direction_rejected(V):
    f = HoloMap.poly(2, {(1, 1): 1, (0, 0): -1})
    with pytest.raises(NonFiniteInput):
        metric_eval(f, (2.0, 1.0), V)
    with pytest.raises(NonFiniteInput):
        hsc(f, (2.0, 1.0), V)
    # the direction is checked before the jet: on the divisor too
    with pytest.raises(NonFiniteInput):
        metric_eval(f, (1.0, 1.0), V)
    with pytest.raises(NonFiniteInput):
        hsc(f, (1.0, 1.0), V)
