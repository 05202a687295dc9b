"""Tests for conformal Gaussian curvature, the Kahler tensor, holomorphic
sectional curvature, its sampled supremum, and the critical-point formula."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grauertlab.curvature import (
    critical_point_curvature,
    gaussian_conformal,
    hsc,
    k_plus,
    kahler_tensor,
    line_curvature,
    line_density_jet,
)
from grauertlab.density import DensityJet
from grauertlab.errors import GrauertError, NotCritical, OnDivisor, ZeroVector
from grauertlab.holomorphic import HoloMap, Polynomial, eval_jet
from grauertlab.metric import metric_matrix_jet
from oracles import loop_hsc, loop_kahler_tensor, loop_metric_matrix_jet, wirtinger_fd


def _jet_of(F, z):
    """DensityJet of a positive scalar field from the stencil oracle."""
    j = wirtinger_fd(F, 0j, 1e-5)
    return DensityJet(z, j.value, j.d, j.dbar, j.ddbar)


def test_constant_density_flat():
    assert gaussian_conformal(DensityJet(0j, 3.0, 0j, 0j, 0.0)) == 0.0


def test_modulus_squared_of_holomorphic_is_flat():
    # h = |1 + w|^2 has curvature 0 away from w = -1: exact jet
    # (h, d, dbar, ddbar) = (|1+w|^2, conj(1+w), 1+w, 1), plus stencil check
    for w in (0.0, 0.3 + 0.2j, -0.5j):
        j = DensityJet(w, abs(1 + w) ** 2, np.conj(1 + w), 1 + w, 1.0)
        assert abs(gaussian_conformal(j)) < 1e-10
        fd = _jet_of(lambda T, w=w: abs(1 + w + T) ** 2, w)
        assert abs(gaussian_conformal(fd)) < 1e-5


def test_poincare_disk_curvature():
    # h = (1 - |z|^2)^{-2} is the curvature -4 metric on the disk
    z = 0.3
    j = _jet_of(lambda T: (1 - abs(z + T) ** 2) ** -2.0, z)
    assert abs(gaussian_conformal(j) + 4.0) < 1e-5


def test_flat_tensor():
    md = metric_matrix_jet(HoloMap.constant(2, 2.0), (0.1, 0.2))
    assert np.max(np.abs(kahler_tensor(md))) == 0.0


def test_tensor_symmetries():
    rng = np.random.default_rng(6)
    for _ in range(10):
        exps = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
        f = HoloMap.poly(2, {e: complex(*rng.normal(size=2)) for e in exps})
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        if abs(f(z)) < 0.05:
            continue
        R = kahler_tensor(metric_matrix_jet(f, z))
        scale = max(1.0, float(np.max(np.abs(R))))
        assert np.max(np.abs(R - R.transpose(2, 1, 0, 3))) < 1e-8 * scale
        assert np.max(np.abs(R - R.transpose(0, 3, 2, 1))) < 1e-8 * scale
        assert np.max(np.abs(R - np.conj(R.transpose(1, 0, 3, 2)))) < 1e-8 * scale


def test_n1_tensor_equals_conformal():
    rng = np.random.default_rng(7)
    f = HoloMap.poly(1, {(1,): 1})
    for _ in range(20):
        z = complex(*rng.normal(size=2))
        if abs(z) < 0.1:
            z += 1.0
        assert abs(hsc(f, z, [1.0]) - line_curvature(f, z)) < 1e-8


def test_product_flat_factor():
    # f = z1: the metric is a product with flat second factor
    f = HoloMap.poly(2, {(1, 0): 1})
    assert abs(hsc(f, (0.7, 0.3), (0, 1))) < 1e-8
    R = kahler_tensor(metric_matrix_jet(f, (0.7, 0.3)))
    assert np.max(np.abs(R[1, :, :, :])) < 1e-12
    assert np.max(np.abs(R[:, 1, :, :])) < 1e-12


def test_kernel_direction_sign():
    f = HoloMap.poly(2, {(1, 1): 1, (0, 0): -1})
    p = (2.0, 1.0)
    g = eval_jet(f, p, 1).gradient()
    V = (-g[1], g[0])
    assert hsc(f, p, V) <= 1e-8


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_scale_invariance(salt):
    rng = np.random.default_rng(salt)
    exps = [(0, 0), (1, 0), (0, 1), (1, 1)]
    f = HoloMap.poly(2, {e: complex(*rng.normal(size=2)) for e in exps})
    p = rng.normal(size=2) + 1j * rng.normal(size=2)
    if abs(f(p)) < 0.05:
        return
    V = rng.normal(size=2) + 1j * rng.normal(size=2)
    base = hsc(f, p, V)
    for lam in (2.0, 1j, 1 + 1j):
        assert abs(hsc(f, p, lam * np.asarray(V)) - base) < 1e-10 * max(1, abs(base))


def test_zero_vector_rejected():
    f = HoloMap.poly(2, {(1, 0): 1})
    with pytest.raises(ZeroVector):
        hsc(f, (1.0, 0.0), (0, 0))


def test_k_plus_rank_zero():
    f = HoloMap.poly(2, {(2, 0): 1, (0, 2): 1, (0, 0): -1})
    assert k_plus(f, (0.0, 0.0)) <= 1e-6


def test_k_plus_n1_equals_hsc():
    f = HoloMap.poly(1, {(1,): 1})
    assert abs(k_plus(f, [1.5]) - hsc(f, [1.5], [1.0])) < 1e-9


def test_k_plus_sample_monotonicity():
    rng = np.random.default_rng(8)
    f = HoloMap.poly(2, {(1, 1): 1, (0, 0): -1})
    for _ in range(3):
        p = rng.normal(size=2) * 1.5 + 1j * rng.normal(size=2)
        if abs(f(p)) < 0.1:
            continue
        assert k_plus(f, p, samples=1024) >= k_plus(f, p, samples=64) - 1e-12


def test_k_plus_rejects_tiny_sample():
    f = HoloMap.poly(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        k_plus(f, (1.0, 0.0), samples=32)


def test_critical_point_inflection():
    f = HoloMap.poly(1, {(3,): 1, (0,): 1})  # f'' (0) = 0
    assert abs(critical_point_curvature(f, 0.0)) < 1e-12


def test_critical_point_values():
    e = float(np.e)
    f = HoloMap.poly(1, {(2,): 1, (0,): np.sqrt(e)})
    expect = -8 * (1 + (e - 1) ** 2 / e)
    assert abs(critical_point_curvature(f, 0.0) - expect) < 1e-9
    f = HoloMap.poly(1, {(2,): 1, (0,): 1j})  # |c|^2 = 1
    assert abs(critical_point_curvature(f, 0.0) + 16.0) < 1e-9


def test_critical_point_guard():
    f = HoloMap.poly(1, {(2,): 1, (1,): 1, (0,): 1})
    with pytest.raises(NotCritical):
        critical_point_curvature(f, 1.0)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_critical_point_gamma_overflow_is_on_divisor():
    # gamma(|f|^2) overflows at |f| = 1e-100: -inf was returned
    with pytest.raises(OnDivisor):
        critical_point_curvature(HoloMap.poly(1, {(2,): 1, (0,): 1e-100}), 0.0)


def test_line_curvature_nonpositive_random():
    rng = np.random.default_rng(9)
    for _ in range(25):
        terms = {(d,): complex(*rng.normal(size=2)) for d in range(6)}
        f = HoloMap.poly(1, terms)
        for _ in range(5):
            z = complex(*rng.normal(size=2)) * 1.5
            if abs(f([z])) < 1e-3:
                continue
            assert line_curvature(f, z) <= 1e-8


def test_line_density_jet_matches_stencil():
    rng = np.random.default_rng(10)
    f = HoloMap.poly(1, {(2,): 1, (1,): -0.5, (0,): 0.3j})
    for _ in range(5):
        z = complex(*rng.normal(size=2))
        if abs(f([z])) < 0.1:
            continue
        j = line_density_jet(f, z)
        fd = _jet_of(lambda T: line_density_jet(f, z + T).h, z)
        assert abs(fd.d - j.d) < 1e-5 * max(1.0, abs(j.d))
        assert abs(fd.ddbar - j.ddbar) < 1e-4 * max(1.0, abs(j.ddbar))


@st.composite
def _map_point_direction(draw):
    """A polynomial or quotient map in n = 1..3 variables, a point, a direction."""
    n = draw(st.integers(1, 3))
    cs = st.complex_numbers(
        min_magnitude=0.1, max_magnitude=3, allow_nan=False, allow_infinity=False
    )

    def poly(max_exp):
        exps = draw(st.lists(st.tuples(*([st.integers(0, max_exp)] * n)),
                             min_size=1, max_size=5, unique=True))
        return Polynomial(n, {e: draw(cs) for e in exps})

    den = poly(2) + Polynomial.constant(n, 4.0) if draw(st.booleans()) else None
    f = HoloMap(poly(3), den)
    vec = st.lists(st.complex_numbers(max_magnitude=1.5, allow_nan=False,
                                      allow_infinity=False), min_size=n, max_size=n)
    V = np.array(draw(vec), dtype=complex)
    if not np.any(V):
        V[0] = 1.0
    return f, tuple(draw(vec)), V


def _outcome(fn):
    try:
        return fn()
    except (GrauertError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


# draws near the divisor overflow gamma before the conditioning guard raises
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(_map_point_direction())
def test_blocks_bit_identical_to_loop_forms(case):
    # the shipped metric blocks and tensor hoist what the loop forms rebuild
    # for every k, l; every value must come out the same bits
    f, p, V = case
    md = _outcome(lambda: metric_matrix_jet(f, p))
    ref = _outcome(lambda: loop_metric_matrix_jet(f, p))
    if isinstance(ref, str):
        assert md == ref
        return
    for name in ("G", "dG", "ddG", "Ginv"):
        got, want = getattr(md, name), getattr(ref, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    R, R_ref = kahler_tensor(md), loop_kahler_tensor(ref)
    assert R.shape == R_ref.shape and R.tobytes() == R_ref.tobytes()
    got, want = _outcome(lambda: hsc(f, p, V)), _outcome(lambda: loop_hsc(f, p, V))
    assert np.array(got).tobytes() == np.array(want).tobytes()


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_complex_array_products_round_alike_when_batched():
    # metric_matrix_jet batches its array products over k and l.  That keeps
    # every bit of the loop forms only while numpy's complex multiply rounds a
    # product the same way at every array length and under broadcasting; on a
    # CPU or numpy build where it does not, this names the cause of a mismatch
    # in test_blocks_bit_identical_to_loop_forms
    rng = np.random.default_rng(6)
    for _ in range(50):
        a, b = _complex(rng, 16), _complex(rng, 16)
        ab = a * b
        for L in range(1, 17):
            assert (a[:L] * b[:L]).tobytes() == ab[:L].tobytes(), f"length {L}"
        x, Y = _complex(rng, 3), _complex(rng, 3, 3)
        xY = x[:, None, None] * Y[None]
        for k in range(3):
            assert (x[k] * Y).tobytes() == xY[k].tobytes(), f"broadcast over k = {k}"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kahler_tensor_is_c_contiguous(n):
    # hsc's einsum rounds by memory layout, which tobytes() cannot see: R must
    # stay C-contiguous in [i, j, k, l] like the loop form's
    f = HoloMap.poly(n, {(1,) * n: 1, (0,) * n: -1, (2,) + (0,) * (n - 1): 0.5})
    p = tuple(0.7 + 0.2j * i for i in range(n))
    assert kahler_tensor(metric_matrix_jet(f, p)).flags.c_contiguous
