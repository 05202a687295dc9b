"""Tests for conformal Gaussian curvature, the Kahler tensor, holomorphic
sectional curvature, its sampled supremum, and the one-variable curvature."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grauertlab.curvature import (
    gaussian_conformal,
    hsc,
    k_plus,
    kahler_tensor,
    line_curvature,
)
from grauertlab.density import DensityJet, pullback_density_jet
from grauertlab.errors import (
    DomainOverflow,
    GrauertError,
    LeafIllConditioned,
    OnDivisor,
    ZeroVector,
)
from grauertlab.foliation import VectorField, integrate_leaf, leaf_curvature, leaf_density_jet
from grauertlab.holomorphic import HoloMap, Polynomial, eval_jet
from grauertlab.metric import metric_matrix_jet
from oracles import (
    MEMO_CASES,
    critical_point_curvature,
    loop_hsc,
    loop_k_plus,
    loop_kahler_tensor,
    loop_metric_matrix_jet,
    mp_leaf_curvature,
    wirtinger_fd,
)


def _jet_of(F, z):
    """DensityJet of a positive scalar field from the stencil oracle."""
    j = wirtinger_fd(F, 0j, 1e-5)
    return DensityJet(z, j.value, j.d, j.ddbar)


def test_constant_density_flat():
    assert gaussian_conformal(DensityJet(0j, 3.0, 0j, 0.0)) == 0.0


def test_modulus_squared_of_holomorphic_is_flat():
    # h = |1 + w|^2 has curvature 0 away from w = -1: exact jet
    # (h, d, ddbar) = (|1+w|^2, conj(1+w), 1), plus stencil check
    for w in (0.0, 0.3 + 0.2j, -0.5j):
        j = DensityJet(w, abs(1 + w) ** 2, np.conj(1 + w), 1.0)
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


@pytest.mark.parametrize("scale", [1.0, 1.75])
@pytest.mark.parametrize("case", list(MEMO_CASES))
def test_hsc_bit_identical_at_power_of_two_scalings(case, scale):
    # max |V_i| in [1, 2): |V|^4 underflows to 0 at V 2^-300, phi^2 overflows
    # a Python float at V 2^300 and |V|^2 overflows at V 2^512; hsc takes V
    # as given for max |V_i| in [2^-200, 2^180], so each edge is on both sides
    f, p, _, V = MEMO_CASES[case]
    V = scale * np.array(V)
    K = hsc(f, p, V)
    for e in (-300, -201, -200, 180, 181, 200, 300, 512):
        assert float.hex(hsc(f, p, V * 2.0**e)) == float.hex(K)


def test_hsc_bit_identical_at_every_power_of_two_inside_the_band():
    # inside the band V is taken as given, so phi(p, V) scales by 2^(2e)
    # exactly; phi * phi then scales exactly too, where libm's pow(phi, 2)
    # moved the last bit at 61 of these 381 exponents
    f = HoloMap.poly(1, {(2,): 1, (0,): -1})
    K = float.hex(hsc(f, 0.3 + 0.2j, [-1.75]))
    assert [e for e in range(-200, 181)
            if float.hex(hsc(f, 0.3 + 0.2j, [math.ldexp(-1.75, e)])) != K] == []


def test_hsc_takes_a_direction_whose_modulus_exceeds_the_largest_double():
    # |V_1| = 1.5 sqrt(2) 2^1023 overflows a double while its parts do not;
    # it was rejected as a non-finite direction
    f, p, _, _ = MEMO_CASES["poly2"]
    V = np.array([0.75 + 0.75j, 0.25])
    assert float.hex(hsc(f, p, V * 2.0**512 * 2.0**512)) == float.hex(hsc(f, p, V))


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
    K = line_curvature(f, 0.0)
    assert abs(K) < 1e-12
    assert float.hex(K) == float.hex(critical_point_curvature(f, 0.0)) == "-0x0.0p+0"


def test_critical_point_values():
    # line_curvature at a critical point against the oracle's closed form
    # K(p) = -2 |f''(p)|^2 gamma(|f(p)|^2)
    e = float(np.e)
    f = HoloMap.poly(1, {(2,): 1, (0,): np.sqrt(e)})
    expect = -8 * (1 + (e - 1) ** 2 / e)
    assert abs(line_curvature(f, 0.0) - expect) < 1e-9
    assert abs(line_curvature(f, 0.0) - critical_point_curvature(f, 0.0)) < 1e-12
    f = HoloMap.poly(1, {(2,): 1, (0,): 1j})  # |c|^2 = 1
    assert abs(line_curvature(f, 0.0) + 16.0) < 1e-9
    assert float.hex(line_curvature(f, 0.0)) == float.hex(critical_point_curvature(f, 0.0))


def test_critical_point_gamma_overflow_is_on_divisor():
    # gamma(|f|^2) overflows at |f| = 1e-100: -inf was returned
    with pytest.raises(OnDivisor):
        line_curvature(HoloMap.poly(1, {(2,): 1, (0,): 1e-100}), 0.0)


@pytest.mark.parametrize("terms, z", [
    ({(3,): 1}, 1e40),  # |f'|^4 overflows a Python float, and h^3 >= |f'|^6 with it
    ({(1,): 1e80}, 1.0),  # |f'|^2 overflows
    ({(2,): 1e200, (0,): 1}, 0.0),  # |f''|^2 overflows at a critical point, so K does
    # |f'| itself overflows a double from finite parts: Python's abs raised a
    # raw OverflowError on the line path
    ({(1,): 1.5e308 + 1.5e308j}, 1e-300),
])
def test_line_curvature_overflow_is_domain_overflow(terms, z):
    # the line and leaf paths both raise DomainOverflow
    f = HoloMap.poly(1, terms)
    with pytest.raises(DomainOverflow, match=r"h\^3 overflows"):
        line_curvature(f, z)
    with pytest.raises(DomainOverflow, match=r"h\^3 overflows"):
        leaf_curvature(f, VectorField.constant([1.0]), z)


def test_line_curvature_rounding_bound_rejects():
    # f = (z - a)^2 + c stored as expanded monomials, 1.2e-12 from a zero
    # (draw 501 of a seeded probe of (z - a)^k + c): the cancellation in
    # h ddbar - |d|^2 is bounded by 8.1e-9 |K|, and the value the formula
    # gives, -5.746509, is 4.6e-5 off the 50-digit one
    f = HoloMap.poly(1, {(0,): -0.070705519713583 + 0.3835916694441675j,
                         (1,): -0.7991847306299502 - 0.9599574534956031j,
                         (2,): 1.0})
    z = 0.39959227413063003 + 0.47997877490311974j
    ref = float(mp_leaf_curvature(f, VectorField.constant([1.0]), [z]))
    assert abs(-5.746509218546104 - ref) > 1e-5 * abs(ref)
    with pytest.raises(LeafIllConditioned, match="rounding bound"):
        line_curvature(f, z)


def test_pullback_density_jet_names_its_point():
    # the point a density jet is taken at is the point its errors name
    z = (0.25 - 0.5j,)
    j = pullback_density_jet(z, 1.0 + 0j, 2.0 + 0j, 0j, [1.0], [0.0])
    assert j.z == z
    with pytest.raises(OnDivisor, match=r"f vanishes at \(\(0\.25-0\.5j\),\)"):
        pullback_density_jet(z, 0j, 1.0 + 0j, 0j, [1.0], [0.0])
    with pytest.raises(TypeError):
        pullback_density_jet(0j, 1.0 + 0j, 1.0 + 0j, 0j, [1.0], [0.0], where=z)
    f = HoloMap.poly(2, {(1, 1): 1, (0, 0): -1})
    chart = integrate_leaf(VectorField.constant([1.0, 0.0]), (2.0, 0.25))
    assert leaf_density_jet(f, chart).z == chart.base
    with pytest.raises(OnDivisor, match=r"f vanishes at \(\(2\+0j\), \(0\.5\+0j\)\)"):
        leaf_density_jet(f, integrate_leaf(VectorField.constant([1.0, 0.0]), (2.0, 0.5)))


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


def _line_density_jet(f, z):
    """The density jet line_curvature takes the curvature of."""
    jet = eval_jet(f, z, 2)
    return pullback_density_jet(jet.point, jet.value, jet.d(0), jet.d2(0, 0), [1.0], [0.0])


def test_line_density_jet_matches_stencil():
    rng = np.random.default_rng(10)
    f = HoloMap.poly(1, {(2,): 1, (1,): -0.5, (0,): 0.3j})
    for _ in range(5):
        z = complex(*rng.normal(size=2))
        if abs(f([z])) < 0.1:
            continue
        j = _line_density_jet(f, z)
        fd = _jet_of(lambda T: _line_density_jet(f, z + T).h, z)
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
    # hsc evaluates a direction with max |V_i| outside [2^-200, 2^180] at the
    # power of two that puts it in [1, 2)
    Vs, m = V, np.abs(V).max()
    if not 2.0**-200 <= m <= 2.0**180:
        k = 1 - math.frexp(m)[1]
        Vs = V * math.ldexp(1.0, k // 2) * math.ldexp(1.0, k - k // 2)
    got, want = _outcome(lambda: hsc(f, p, V)), _outcome(lambda: loop_hsc(f, p, Vs))
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


def _scalar_draw(rng) -> float:
    """A seeded double: a third of the draws are signed zeros, subnormals,
    infinities or the largest magnitudes, the rest span every exponent."""
    special = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf, 1.7e308, -1.7e308)
    if rng.random() < 1 / 3:
        return special[rng.integers(len(special))]
    return float(rng.normal() * 10.0 ** rng.integers(-320, 309))


def test_python_scalar_products_round_as_numpy_scalars():
    # metric_matrix_jet builds its scalar chains (gp a_k conj(f), w a_k
    # conj(a_l), gp f conj(a_l)) on Python floats and complex numbers, where
    # the loop forms use numpy scalars.  That keeps every bit only while the
    # interpreter's float x complex and complex x complex round as numpy's
    # float64 x complex128 and complex128 x complex128 do; CPython 3.14
    # changed mixed float/complex arithmetic (gh-69639), so on an interpreter
    # where they differ, this names the cause of a mismatch in
    # test_blocks_bit_identical_to_loop_forms
    def bits(c):
        return np.array([c], dtype=complex).tobytes()

    rng = np.random.default_rng(25)
    with np.errstate(all="ignore"):
        for _ in range(20000):
            x = _scalar_draw(rng)
            z = complex(_scalar_draw(rng), _scalar_draw(rng))
            w = complex(_scalar_draw(rng), _scalar_draw(rng))
            assert bits(x * z) == bits(np.float64(x) * np.complex128(z)), (x, z)
            assert bits(z * w) == bits(np.complex128(z) * np.complex128(w)), (z, w)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kahler_tensor_is_c_contiguous(n):
    # hsc's einsum rounds by memory layout, which tobytes() cannot see: R must
    # stay C-contiguous in [i, j, k, l] like the loop form's
    f = HoloMap.poly(n, {(1,) * n: 1, (0,) * n: -1, (2,) + (0,) * (n - 1): 0.5})
    p = tuple(0.7 + 0.2j * i for i in range(n))
    assert kahler_tensor(metric_matrix_jet(f, p)).flags.c_contiguous


def _workload_maps(monkeypatch) -> dict:
    """The direction-sweep maps of the benchmark, read from bench/workloads.py."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    return {key: HoloMap.from_json(desc) for key, desc in workloads.MAPS.items()}


@pytest.mark.parametrize("samples", [64, 256])
@pytest.mark.parametrize("key", ["poly2", "quot2", "poly3"])
def test_k_plus_bit_identical_to_loop_k_plus(monkeypatch, key, samples):
    # k_plus converts its Sobol rows in one array expression and reuses the
    # map's record; loop_k_plus converts each row and rebuilds every block.
    # Every direction either one evaluates, and its value, must be the same
    # bits, not only the supremum and the direction it returns
    import grauertlab.curvature as curvature
    import oracles

    def recording(hsc_fn, seen):
        def wrapped(f, p, V):
            K = hsc_fn(f, p, V)
            seen.append((np.asarray(V).tobytes(), float.hex(K)))
            return K
        return wrapped

    f = _workload_maps(monkeypatch)[key]
    rng = np.random.default_rng(samples)
    for seed in (3, 17, 2024):
        while True:
            p = tuple(complex(*rng.uniform(-1.2, 1.2, size=2)) for _ in range(f.n))
            if abs(f(p)) >= 0.25:  # the workload's margin from the divisor
                break
        got_seen, want_seen = [], []
        with monkeypatch.context() as m:
            m.setattr(curvature, "holo_sectional_curvature", recording(hsc, got_seen))
            m.setattr(oracles, "loop_hsc", recording(loop_hsc, want_seen))
            got, got_V = k_plus(f, p, samples=samples, seed=seed, return_direction=True)
            want, want_V = loop_k_plus(f, p, samples, seed)
        assert len(got_seen) > samples and got_seen == want_seen
        assert float.hex(got) == float.hex(want)
        assert got_V.tobytes() == want_V.tobytes()


@pytest.mark.parametrize("key", ["poly2", "quot2", "poly3"])
def test_k_plus_direction_attains_its_value(monkeypatch, key):
    # the returned direction is the one the returned value was evaluated at,
    # so hsc there gives k_plus back bit for bit
    f = _workload_maps(monkeypatch)[key]
    rng = np.random.default_rng(7)
    for seed in range(4):
        while True:
            p = tuple(complex(*rng.uniform(-1.2, 1.2, size=2)) for _ in range(f.n))
            if abs(f(p)) >= 0.25:  # the workload's margin from the divisor
                break
        K, V = k_plus(f, p, samples=64, seed=seed, return_direction=True)
        assert float.hex(hsc(f, p, V)) == float.hex(K), (p, seed)


# -- hsc's reuse of the memoized record and tensor --------------------------------


def test_hsc_reuses_the_tensor_of_the_same_record(monkeypatch):
    import grauertlab.curvature as curvature

    built = []

    def counting(md):
        built.append(md)
        return kahler_tensor(md)

    f, p, q, V = MEMO_CASES["poly2"]
    want = hsc(HoloMap(f.num, f.den), p, V)
    want_W = hsc(HoloMap(f.num, f.den), p, (0.3, 1.0))
    monkeypatch.setattr(curvature, "kahler_tensor", counting)
    f = HoloMap(f.num, f.den)
    assert hsc(f, p, V) == want and len(built) == 1
    assert hsc(f, p, (0.3, 1.0)) == want_W and len(built) == 1
    # a record built at q replaces p's; back at p, a new record gets a new tensor
    metric_matrix_jet(f, q)
    assert np.array(hsc(f, p, V)).tobytes() == np.array(want).tobytes()
    assert len(built) == 2 and built[1] is not built[0]


@pytest.mark.parametrize("e", [0, 300, -300])
def test_hsc_evaluates_phi_once(monkeypatch, e):
    # at any scale of V: a direction outside the band is scaled first.  hsc
    # takes phi from metric._phi, metric_eval without the direction check
    import grauertlab.curvature as curvature
    from grauertlab.metric import _phi

    calls = []

    def counting(f, z, V, m):
        calls.append(V)
        return _phi(f, z, V, m)

    f, p, _, V = MEMO_CASES["poly2"]
    want = hsc(HoloMap(f.num, f.den), p, V)
    monkeypatch.setattr(curvature, "_phi", counting)
    assert float.hex(hsc(HoloMap(f.num, f.den), p, np.array(V) * 2.0**e)) == float.hex(want)
    assert len(calls) == 1


@pytest.mark.parametrize("kind", [list, np.array, tuple])
def test_hsc_converts_its_point_once(monkeypatch, kind):
    # both jets of hsc see one converted tuple, so phi's 1-jet finds the
    # record the 2-jet built by identity: one gamma_jet call on a fresh map
    import grauertlab.density as density

    f, p, _, V = MEMO_CASES["quot2"]
    want = hsc(HoloMap(f.num, f.den), p, V)
    calls = []
    real = density.gamma_jet
    monkeypatch.setattr(density, "gamma_jet", lambda t: calls.append(t) or real(t))
    assert float.hex(hsc(HoloMap(f.num, f.den), kind(p), V)) == float.hex(want)
    assert len(calls) == 1


def test_hsc_rejects_an_imaginary_residue_at_every_scale():
    # next to the divisor of z1 z2 - 1 the numerator's imaginary residue is
    # rounding noise above 1e-8 of its real part, and both scale as |V|^4:
    # an absolute floor used to return -3.9658 (the truth is -4.0000000283)
    # for small V and raise a raw ArithmeticError for the rest
    f, p = HoloMap.poly(2, {(1, 1): 1, (0, 0): -1}), (1 + 1e-7, 1)
    for e in (-205, -200, -120, -23, -22, 0, 100, 180, 181):
        with pytest.raises(LeafIllConditioned, match="imaginary residue"):
            hsc(f, p, np.array([1, 0.5j]) * 2.0**e)


def test_hsc_checks_the_direction_before_building_the_record():
    f, p, _, _ = MEMO_CASES["poly2"]
    f = HoloMap(f.num, f.den)
    with pytest.raises(ValueError, match="^direction has 3 coordinates, map expects 2$"):
        hsc(f, p, (1, 0, 0))
    assert f._memo == {}


def test_memoized_tensor_is_read_only_and_kahler_tensor_stays_pure():
    f, p, _, V = MEMO_CASES["quot2"]
    f = HoloMap(f.num, f.den)
    hsc(f, p, V)
    md, R = f._memo["md"], f._memo["R"]
    assert md is metric_matrix_jet(f, p)
    with pytest.raises(ValueError):
        R[0, 0, 0, 0] = 0.0
    fresh = kahler_tensor(md)
    assert fresh is not R and fresh.flags.writeable and fresh.tobytes() == R.tobytes()


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("case", list(MEMO_CASES))
def test_k_plus_on_a_used_map_keeps_the_fresh_bits(case, seed):
    f, p, q, V = MEMO_CASES[case]
    want = k_plus(HoloMap(f.num, f.den), p, seed=seed)
    used = HoloMap(f.num, f.den)
    hsc(used, p, V)
    hsc(used, q, V)
    assert float.hex(k_plus(used, p, seed=seed)) == float.hex(want)
    assert float.hex(k_plus(used, p, seed=seed)) == float.hex(want)


@pytest.mark.xfail(strict=True, reason="sampled k_plus misses the supremum; an exact "
                   "k_plus (sup K = 0 for n >= 3) makes this pass")
def test_k_plus_reaches_zero_sup_on_n3_map():
    # the direction-sweep benchmark is correct: false at seed 42 on this op
    # ("kplus poly3 #0"): k_plus -0.0029514 below hsc -0.00095646 at a seeded
    # direction.  For n >= 3, ker df has a nonzero isotropic vector of the
    # Hessian's form, so sup_V K(p, V) = 0
    f = MEMO_CASES["poly3"][0]
    p = (0.5478179993207886 + 0.4710547783280419j, -0.9858245814786329 + 0.7106560461659073j,
         -0.9805720304792361 + 0.3926058832032997j)
    assert k_plus(f, p, seed=780750005) >= -1e-9
