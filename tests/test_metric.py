"""Tests for the pullback metric field and its derivative blocks."""

import dataclasses

import numpy as np
import pytest

from grauertlab.curvature import hsc, line_curvature
from grauertlab.errors import DomainOverflow, NonFiniteInput, OnDivisor, SolveFailure
from grauertlab.holomorphic import HoloMap, Polynomial, eval_jet
from grauertlab.metric import (
    MetricDerivatives,
    metric_det,
    metric_eval,
    metric_matrix,
    metric_matrix_jet,
)
from oracles import MEMO_CASES, outer_metric_matrix, wirtinger_fd


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
    from grauertlab.density import hk_density_jet

    f = HoloMap.poly(1, {(1,): 1})
    for z in (0.7, 1.0 + 0.5j, 2.0):
        md = metric_matrix_jet(f, z)
        j = hk_density_jet(1, z)
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


@pytest.mark.parametrize("c", [1e-100, 1e-78])
def test_metric_jet_gamma_overflow_is_on_divisor(c):
    # at a critical point of f the conditioning 1 + gamma |grad f|^2 cannot see
    # an overflowing gamma (c = 1e-100: inf * 0 is NaN) or gamma' (c = 1e-78,
    # where gamma itself is finite); the blocks would be NaN there
    f = HoloMap.poly(2, {(2, 0): 1, (0, 0): c})
    with pytest.raises(OnDivisor):
        metric_matrix_jet(f, (0, 0))
    with pytest.raises(OnDivisor):
        hsc(f, (0, 0), (1, 0))


def test_hsc_gamma_overflow_off_critical_point_is_on_divisor():
    # the same point metric_eval rejects; not a conditioning failure
    f = HoloMap.poly(2, {(1, 0): 1, (0, 1): 1})
    with pytest.raises(OnDivisor):
        metric_eval(f, (1e-100, 0), (1, 0))
    with pytest.raises(OnDivisor):
        hsc(f, (1e-100, 0), (1, 0))


def test_metric_eval_overflow_is_domain_overflow():
    # |V|^2 overflows at 1e200; phi = 3 2^1000 is exact at V = (2^500, 0)
    f = HoloMap.poly(2, {(1, 1): 1, (0, 0): -1})
    with pytest.raises(DomainOverflow, match="overflows"):
        metric_eval(f, (2.0, 1.0), (1e200, 0))
    assert metric_eval(f, (2.0, 1.0), (2.0**500, 0)) == 3 * 2.0**1000


def test_huge_direction_is_domain_overflow_before_any_product():
    # max |V_i| >= 2^512: |V|^2 overflows, where np.dot warned or phi was NaN
    f = HoloMap.poly(2, {(1, 1): 1, (0, 0): -1})
    for V in [(1e308, 1e308), (1e200 + 1e200j, 1e200), (2.0**512, 0), (1.7e308 + 1.7e308j, 0)]:
        with pytest.raises(DomainOverflow, match="overflows"):
            metric_eval(f, (2 + 1j, 1.0), V)


def test_gradient_overflow_raises_before_any_block():
    # gamma |grad f|^2 overflows off the divisor: the conditioning test comes
    # before the a a* block, whose product warned, and det G is not written
    f = HoloMap.poly(2, {(1, 0): 1e160, (0, 1): -1e160})
    with pytest.raises(SolveFailure, match="metric conditioning inf"):
        metric_matrix_jet(f, (0, 1e-30))
    with pytest.raises(DomainOverflow, match="det G"):
        metric_det(f, (0, 1e-30))


def test_metric_matrix_gradient_overflow_is_domain_overflow():
    # G was NaN here, with an overflow and an invalid-value warning from a a*;
    # metric_matrix now raises metric_det's error before the product
    f = HoloMap.poly(2, {(1, 0): 1e160, (0, 1): -1e160})
    with pytest.raises(DomainOverflow, match=r"det G = 1 \+ gamma \|grad f\|\^2 overflows"):
        metric_matrix(f, (0, 1e-30))
    # hsc keeps its conditioning error
    with pytest.raises(SolveFailure, match="metric conditioning inf"):
        hsc(f, (0, 1e-30), (1, 0))


def test_metric_matrix_finite_up_to_det_limit():
    # det G = 1 + gamma |f'|^2 is 1.2e308 here, and G = [[det G]]; symmetrizing
    # doubled the entry to inf first ("overflow encountered in add")
    f = HoloMap.poly(1, {(1,): 7.75e153})
    z = (1 / 7.75e153,)
    G = metric_matrix(f, z)
    assert G.tolist() == [[complex(metric_det(f, z))]]
    assert 1.2e308 < G[0, 0].real < np.inf


def test_direction_of_wrong_length_rejected():
    f = HoloMap.poly(2, {(1, 1): 1, (0, 0): -1})
    for V, k in [(1.0, 1), ([1.0], 1), ((1, 0, 0), 3)]:
        with pytest.raises(ValueError, match=f"^direction has {k} coordinates, map expects 2$"):
            metric_eval(f, (2.0, 1.0), V)
    # a scalar is the direction of a one-variable map
    g = HoloMap.poly(1, {(2,): 1, (0,): -1})
    assert metric_eval(g, 1.5, 0.5j) == metric_eval(g, 1.5, [0.5j])
    assert hsc(g, 1.5, 0.5j) == hsc(g, 1.5, [0.5j])


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


_Z = HoloMap.poly(1, {(1,): 1})
_Z2_PLUS_1 = HoloMap.poly(1, {(2,): 1, (0,): 1})
_Z1Z2_MINUS_1 = HoloMap.poly(2, {(1, 1): 1, (0, 0): -1})


@pytest.mark.parametrize("call, error", [
    # z**2 overflows in the jet's powers
    (lambda: eval_jet(_Z2_PLUS_1, 1e200, 2), DomainOverflow),
    # a power of an infinite coordinate
    (lambda: metric_eval(_Z, np.inf, 1), NonFiniteInput),
    (lambda: metric_matrix(_Z, complex(1, np.inf)), NonFiniteInput),
    # |f(p)|^2 overflows for |f(p)| = 1e160
    (lambda: hsc(_Z1Z2_MINUS_1, (1e160, 1), (1, 1)), DomainOverflow),
    (lambda: metric_eval(_Z1Z2_MINUS_1, (1e160, 1), (1, 1)), DomainOverflow),
])
def test_no_raw_overflow_error_on_the_point_path(call, error):
    with pytest.raises(error):
        call()


def test_metric_matrix_bit_identical_to_outer_form():
    # metric_matrix writes out the broadcast product np.outer forms and
    # symmetrizes in place; every entry must keep the bits of the np.outer form
    rng = np.random.default_rng(12)
    for _ in range(600):
        n = int(rng.integers(1, 4))
        exps = {tuple(rng.integers(0, 4, size=n)) for _ in range(rng.integers(1, 6))}
        num = Polynomial(n, {e: complex(*rng.normal(size=2)) for e in exps})
        den = None
        if rng.random() < 0.3:
            den = Polynomial(n, {(1,) * n: complex(*rng.normal(size=2))}) + Polynomial.constant(n, 4.0)
        f = HoloMap(num, den)
        z = tuple(complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-3, 3) for _ in range(n))
        got, want = metric_matrix(f, z), outer_metric_matrix(f, z)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# -- the per-map memo of the last point's blocks ---------------------------------

_BLOCKS = ("G", "dG", "ddG", "Ginv")

#: the memoized entry points, each as (map, point, direction) -> result
_MEMO_CALLS = {
    "hsc": lambda f, p, V: hsc(f, p, V),
    "metric_eval": lambda f, p, V: metric_eval(f, p, V),
    "metric_det": lambda f, p, V: metric_det(f, p),
    "metric_matrix_jet": lambda f, p, V: metric_matrix_jet(f, p),
}


def _bits(result):
    """A result as bytes and hex strings: equal exactly when every bit is."""
    if isinstance(result, MetricDerivatives):
        return (np.array(result.z).tobytes(),
                *(getattr(result, b).tobytes() for b in _BLOCKS))
    return float.hex(result)


def _fresh(f: HoloMap) -> HoloMap:
    return HoloMap(f.num, f.den)


@pytest.mark.parametrize("call", list(_MEMO_CALLS))
@pytest.mark.parametrize("case", list(MEMO_CASES))
def test_memo_hits_keep_the_fresh_bits(case, call):
    # cold, after every memoized call at another point q, and repeated at p:
    # the same bits as a fresh map at p
    f, p, q, V = MEMO_CASES[case]
    fn = _MEMO_CALLS[call]
    want = _bits(fn(_fresh(f), p, V))
    used = _fresh(f)
    assert _bits(fn(used, p, V)) == want
    for other in _MEMO_CALLS.values():
        other(used, q, V)
    assert _bits(fn(used, p, V)) == want
    for other in _MEMO_CALLS.values():
        other(used, p, V)
    assert _bits(fn(used, p, V)) == want
    assert _bits(fn(used, p, V)) == want


def test_memo_tells_signed_zeros_apart():
    # -0.0 == 0.0 as complex numbers, but the key is the point's exact bits
    f = _fresh(MEMO_CASES["poly2"][0])
    plus, minus = (2.0 + 0.5j, complex(0.0, 1.0)), (2.0 + 0.5j, complex(-0.0, 1.0))
    assert plus == minus
    md_plus = metric_matrix_jet(f, plus)
    key_plus, a_plus = f._memo["key"], f._memo["a"]
    md_minus = metric_matrix_jet(f, minus)
    assert md_minus is not md_plus
    assert f._memo["key"] != key_plus and f._memo["a"] is not a_plus
    assert f._memo["md"] is md_minus
    assert np.copysign(1.0, md_minus.z[1].real) == -1.0
    assert np.copysign(1.0, md_plus.z[1].real) == 1.0
    assert metric_matrix_jet(f, minus) is md_minus


@pytest.mark.parametrize("call", list(_MEMO_CALLS))
def test_memo_stores_no_error(call):
    # an OnDivisor at q leaves the entry of p in place and stores nothing:
    # p still gives the fresh bits, and q raises again
    f, p, _, V = MEMO_CASES["poly2"]
    on_divisor = (1.0, 1.0)
    fn = _MEMO_CALLS[call]
    want = _bits(fn(_fresh(f), p, V))
    used = _fresh(f)
    fn(used, p, V)
    entries = dict(used._memo)
    with pytest.raises(OnDivisor):
        fn(used, on_divisor, V)
    assert used._memo == entries
    assert _bits(fn(used, p, V)) == want
    with pytest.raises(OnDivisor):
        fn(used, on_divisor, V)


def test_memo_arrays_are_read_only():
    f, p, _, V = MEMO_CASES["poly3"]
    f = _fresh(f)
    md = metric_matrix_jet(f, p)
    assert f._memo["md"] is md
    for b in _BLOCKS:
        with pytest.raises(ValueError):
            getattr(md, b)[(0,) * getattr(md, b).ndim] = 0.0
    with pytest.raises(ValueError):
        f._memo["a"][0] = 0.0
    # metric_matrix builds its own G from the held gradient and may write it
    G = metric_matrix(f, p)
    assert G.flags.writeable
    G[0, 0] = 0.0
    assert _bits(metric_eval(f, p, V)) == _bits(metric_eval(_fresh(f), p, V))


def test_value_calls_store_no_record():
    # metric_eval, metric_matrix and metric_det read the record; only
    # metric_matrix_jet writes it
    f, p, _, V = MEMO_CASES["quot2"]
    f = _fresh(f)
    metric_eval(f, p, V)
    metric_matrix(f, p)
    metric_det(f, p)
    assert f._memo == {}


def test_metric_eval_reads_the_record_of_its_point(monkeypatch):
    # after metric_matrix_jet at p, metric_eval at p takes gradient and gamma
    # from the record: no gamma_jet call, and the bits of a fresh map
    import grauertlab.density as density

    f, p, _, V = MEMO_CASES["quot2"]
    want = metric_eval(_fresh(f), p, V)
    used = _fresh(f)
    metric_matrix_jet(used, p)
    calls = []
    real = density.gamma_jet
    monkeypatch.setattr(density, "gamma_jet", lambda t: calls.append(t) or real(t))
    assert float.hex(metric_eval(used, p, V)) == float.hex(want)
    assert calls == []
    assert float.hex(metric_eval(_fresh(f), p, V)) == float.hex(want)
    assert len(calls) == 1


@pytest.mark.parametrize("case", list(MEMO_CASES))
def test_memo_leaves_equality_hash_and_repr(case):
    f, p, q, V = MEMO_CASES[case]
    used, other = _fresh(f), _fresh(f)
    before = (hash(used), repr(used))
    for fn in _MEMO_CALLS.values():
        fn(used, p, V)
    metric_matrix_jet(other, q)
    assert used._memo and other._memo
    assert used == other and other == used and used == f
    assert (hash(used), repr(used)) == before
    assert (hash(other), repr(other)) == before == (hash(f), repr(f))
    assert "_memo" not in repr(used)
    assert [fd.name for fd in dataclasses.fields(HoloMap) if fd.compare] == ["num", "den"]
