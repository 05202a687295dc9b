"""Tests for leaf integration, leaf-restricted densities, leaf curvature,
the transverse field, and divisor-approach limits."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grauertlab.curvature import hsc, line_curvature
from grauertlab.errors import (
    DomainOverflow,
    GrauertError,
    LeafIllConditioned,
    OnDivisor,
    SingularField,
)
from grauertlab.foliation import (
    FIELD_TOL,
    VectorField,
    divisor_approach,
    geometric_path,
    integrate_leaf,
    leaf_curvature,
    leaf_density_jet,
    transverse_field,
)
from grauertlab.holomorphic import HoloMap, Polynomial, eval_jet
from grauertlab.metric import metric_eval
from oracles import (
    chart_derivative,
    chart_radius,
    chart_value,
    leaf_density,
    mp_leaf_curvature,
    raw_conformal,
    series_chart,
    stencil_leaf_curvature,
)


def test_constant_field_straight_leaf():
    c = integrate_leaf(VectorField.constant([2.0, 1j]), (0.0, 1.0))
    assert np.allclose(c.coeffs[0], [0, 1])
    assert np.allclose(c.coeffs[1], [2, 1j])
    assert np.max(np.abs(c.coeffs[2:])) == 0.0


def test_linear_field_exponential_leaf():
    X = VectorField((HoloMap.poly(1, {(1,): 1}),))
    c = series_chart(X, [1.0], 10)
    import math

    for j in range(11):
        assert abs(c.coeffs[j, 0] - 1 / math.factorial(j)) < 1e-12


def test_quadratic_field_geometric_leaf():
    # X(z) = z^2 at p = 1 integrates to z = 1/(1 - T): c_j = 1
    X = VectorField((HoloMap.poly(1, {(2,): 1}),))
    c = series_chart(X, [1.0], 12)
    assert np.allclose(c.coeffs[:, 0], 1.0)
    assert chart_radius(c) < 1.0  # unit-radius pole is detected


def test_singular_field_rejected():
    X = VectorField((HoloMap.poly(1, {(1,): 1}),))
    with pytest.raises(SingularField):
        integrate_leaf(X, [0.0])


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_leaf_residual(salt):
    # Z'(T) = X(Z(T)) holds along the chart for random quadratic fields
    rng = np.random.default_rng(salt)
    n = int(rng.integers(1, 4))
    exps = [tuple(e) for e in np.eye(n, dtype=int)] + [(0,) * n]
    comps = tuple(
        HoloMap.poly(n, {e: 0.5 * complex(*rng.normal(size=2)) for e in exps})
        for _ in range(n)
    )
    X = VectorField(comps)
    p = rng.normal(size=n) + 1j * rng.normal(size=n)
    if np.linalg.norm(X(p)) < 1e-6:
        return
    chart = series_chart(X, p)
    T = 0.5 * chart_radius(chart)
    assert np.linalg.norm(chart_derivative(chart, T) - X(chart_value(chart, T))) < 1e-9


def test_leaf_density_kernel_direction():
    f = HoloMap.poly(2, {(1, 0): 1})
    X = VectorField.constant([0.0, 1.0])
    assert abs(leaf_density(f, X, (2.0, 0.0), 0.01) - 1.0) < 1e-12


def test_leaf_density_at_origin_is_metric_eval():
    f = HoloMap.poly(2, {(1, 1): 1, (0, 0): -1})
    X = VectorField.constant([1.0, -0.5j])
    p = (2.0, 1.0)
    assert abs(leaf_density(f, X, p, 0.0) - metric_eval(f, p, X(p))) < 1e-12


def test_leaf_curvature_n1_triangle():
    # one variable, constant field: leaf curvature = full curvature = hsc
    rng = np.random.default_rng(12)
    for _ in range(10):
        terms = {(d,): complex(*rng.normal(size=2)) for d in range(4)}
        f = HoloMap.poly(1, terms)
        p = complex(*rng.normal(size=2))
        if abs(f([p])) < 0.1:
            continue
        c = complex(*rng.normal(size=2))
        if abs(c) < 0.1:
            c += 1.0
        K = leaf_curvature(f, VectorField.constant([c]), [p])
        assert abs(K - line_curvature(f, p)) < 1e-8
        assert abs(K - hsc(f, [p], [1.0])) < 1e-8


def test_leaf_curvature_kernel_constant_field():
    f = HoloMap.poly(2, {(1, 1): 1, (0, 0): -1})
    p = (2.0, 1.0)
    X = VectorField.constant([-2.0, 1.0])  # value in Ker df(p)
    assert leaf_curvature(f, X, p) <= 1e-8


def test_series_vs_stencil():
    rng = np.random.default_rng(13)
    f = HoloMap.poly(2, {(1, 1): 1, (2, 0): 0.3, (0, 0): -1})
    X = VectorField((HoloMap.poly(2, {(0, 1): 1, (0, 0): 0.5}),
                     HoloMap.constant(2, 1.0)))
    for _ in range(5):
        p = rng.normal(size=2) + 1j * rng.normal(size=2)
        if abs(f(p)) < 0.1 or np.linalg.norm(X(p)) < 0.1:
            continue
        a = leaf_curvature(f, X, p)
        b = stencil_leaf_curvature(f, X, p)
        assert abs(a - b) < 1e-5 * max(1.0, abs(a))


def test_flat_case_cauchy_schwarz_equality():
    # constant f: Euclidean metric; X(z) = z has dX(X) parallel to X
    f = HoloMap.constant(1, 2.0)
    X = VectorField((HoloMap.poly(1, {(1,): 1}),))
    assert abs(leaf_curvature(f, X, [1.0 + 0.5j])) < 1e-8
    # and a generic linear field gives non-positive curvature
    Y = VectorField((HoloMap.poly(1, {(1,): 1, (0,): 1}),))
    assert leaf_curvature(f, Y, [0.3]) <= 1e-8


def test_reparametrization_invariance():
    f = HoloMap.poly(2, {(1, 1): 1, (0, 0): -1})
    X = VectorField.constant([1.0, 0.3j])
    p = (2.0, 1.0)
    base = leaf_curvature(f, X, p)
    for lam in (2.0, -1j, 0.5 + 0.5j):
        Xs = VectorField(tuple(HoloMap(c.num.scaled(lam), c.den) for c in X.components))
        assert abs(leaf_curvature(f, Xs, p) - base) < 1e-8


def _n1_guard_draw(rng):
    """f = (z + a)^2 - 1 with a field b/z^e or s z, at a base point
    10^U(-8, 0) from the field's pole or zero at 0, off the divisor of f.

    The divisor, not the field, is translated, so that the field's
    denominator z^e cannot cancel to zero in floating point.
    """
    while True:
        a = complex(*rng.uniform(-2.0, 2.0, size=2))
        f = HoloMap.poly(1, {(2,): 1, (1,): 2 * a, (0,): a * a - 1})
        p = 10.0 ** rng.uniform(-8.0, 0.0) * np.exp(2j * np.pi * rng.random())
        if abs(f([p])) >= 0.1:
            break
    phase = np.exp(2j * np.pi * rng.random())
    if rng.random() < 0.5:
        e = int(rng.integers(1, 4))
        b = Polynomial.constant(1, 10.0 ** rng.uniform(-3.0, 3.0) * phase)
        X = HoloMap(b, Polynomial(1, {(e,): 1}))
    else:
        X = HoloMap.poly(1, {(1,): 10.0 ** rng.uniform(0.0, 8.0) * phase})
    return f, VectorField((X,)), p


def test_leaf_curvature_accurate_or_ill_conditioned():
    # n = 1: the leaf curvature does not depend on the field, so
    # line_curvature is the reference; each draw is accurate or rejected
    rng = np.random.default_rng(15)
    accepted = rejected = 0
    for _ in range(400):
        f, X, p = _n1_guard_draw(rng)
        ref = line_curvature(f, p)
        try:
            K = leaf_curvature(f, X, [p])
        except LeafIllConditioned:
            rejected += 1
            continue
        accepted += 1
        assert abs(K - ref) <= 1e-9 * max(1.0, abs(ref))
    assert accepted > 100 and rejected > 100


def test_leaf_curvature_large_field_is_exact():
    # a fast linear field is well conditioned: the guard must not reject it
    f = HoloMap.poly(1, {(2,): 1, (0,): -1})
    X = VectorField((HoloMap.poly(1, {(1,): 1e7, (0,): 1e7}),))
    p = 0.4 + 0.7j
    assert abs(leaf_curvature(f, X, [p]) - line_curvature(f, p)) <= 1e-15


def test_leaf_curvature_near_field_pole_rejected():
    # X = 1/(z - a) at 1e-7 from a: the unguarded value is about 1% off
    f = HoloMap.poly(1, {(2,): 1, (0,): -1})
    a = 0.3 - 0.2j
    X = VectorField((HoloMap(Polynomial.constant(1, 1.0),
                             Polynomial(1, {(1,): 1, (0,): -a})),))
    p = a + 1e-7
    ref = line_curvature(f, p)
    raw = raw_conformal(leaf_density_jet(f, integrate_leaf(X, [p])))
    assert abs(raw - ref) > 1e-3 * abs(ref)
    with pytest.raises(LeafIllConditioned):
        leaf_curvature(f, X, [p])


def test_field_denominator_cancelling_on_the_chart_rejected():
    # X = 1/d with d(p) = -1.1e-16 as the map evaluates it (d composed with
    # a leaf series cancels to exactly 0 at T = 0); the chart reads
    # X(p) = -9.0e15 off the field's own jet, and the rounding bound rejects
    # the curvature there
    d = Polynomial(1, {(2,): 1.0,
                       (1,): -1.1650768373113802 + 0.4296578222537116j,
                       (0,): 0.2931995481539216 - 0.25029218833872474j})
    X = VectorField((HoloMap(Polynomial.constant(1, 1.0), d),))
    p = 0.5825384138759848 - 0.21482891523042505j
    assert HoloMap(d)(p) != 0
    chart = integrate_leaf(X, p)
    assert chart.coeffs[1, 0] == X(p)[0]
    with pytest.raises(LeafIllConditioned):
        leaf_curvature(HoloMap.poly(1, {(2,): 1, (0,): -1}), X, p)


def _random_poly(rng, n: int, terms: int, degree: int) -> Polynomial:
    exps = [tuple(int(e) for e in rng.integers(0, degree + 1, size=n))
            for _ in range(terms)]
    return Polynomial(n, {e: complex(*rng.normal(size=2)) for e in exps})


def _leaf_draw(rng):
    """A polynomial map f on C^n (n = 1..3), a constant, polynomial,
    quotient or transverse field X, and a base point p with |f(p)| >= 0.1,
    |X(p)| >= 1e-3 and every field denominator >= 0.1 in modulus at p."""
    n = int(rng.integers(1, 4))
    kind = ("constant", "polynomial", "quotient", "transverse")[int(rng.integers(4))]
    while True:
        f = HoloMap(_random_poly(rng, n, 4, 2) + Polynomial.constant(n, 1.0))
        p = tuple(complex(*rng.normal(size=2)) for _ in range(n))
        if abs(f(p)) < 0.1:
            continue
        if kind == "constant":
            X = VectorField.constant(rng.normal(size=n) + 1j * rng.normal(size=n))
        elif kind == "polynomial":
            X = VectorField(tuple(HoloMap(_random_poly(rng, n, 3, 2))
                                  for _ in range(n)))
        elif kind == "quotient":
            X = VectorField(tuple(
                HoloMap(_random_poly(rng, n, 2, 1),
                        _random_poly(rng, n, 2, 1) + Polynomial.constant(n, 1.0))
                for _ in range(n)))
        else:
            try:
                X = transverse_field(f, p)
            except GrauertError:
                continue
        dens = [c.den for c in X.components if c.den is not None]
        if any(abs(HoloMap(den)(p)) < 0.1 for den in dens):
            continue
        if np.linalg.norm(X(p)) >= 1e-3:
            return f, X, p


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_chart_matches_series_chart(salt):
    # rows 1-2 read off the field's 1-jet agree with the power-series
    # recursion to rounding, relative to each row's largest entry
    f, X, p = _leaf_draw(np.random.default_rng(salt))
    ours = integrate_leaf(X, p).coeffs
    ref = series_chart(X, p, 2).coeffs
    assert ours.shape == ref.shape == (3, X.n)
    assert np.array_equal(ours[0], ref[0])
    for j in (1, 2):
        assert np.max(np.abs(ours[j] - ref[j])) <= 1e-13 * np.max(np.abs(ref[j]))


def test_leaf_curvature_rounding_against_mpmath():
    # every value the rounding guard accepts is within 1e-11 max(1, |K|) of
    # the chain-rule density jet evaluated at 50 digits
    rng = np.random.default_rng(16)
    accepted = 0
    for _ in range(120):
        f, X, p = _leaf_draw(rng)
        try:
            K = leaf_curvature(f, X, p)
        except GrauertError:
            continue
        accepted += 1
        ref = float(mp_leaf_curvature(f, X, p))
        assert abs(K - ref) <= 1e-11 * max(1.0, abs(K)), (f, X, p, K, ref)
    assert accepted >= 100


def test_transverse_field_construction():
    f = HoloMap.poly(2, {(1, 1): 1, (0, 0): -1})
    X = transverse_field(f, (2.0, 1.0))
    # X = (1/z2, 0)
    assert abs(X((2.0, 1.0))[0] - 1.0) < 1e-12
    assert X((2.0, 1.0))[1] == 0.0
    rng = np.random.default_rng(14)
    for _ in range(20):
        z = 0.5 + rng.random(2) * 2 + 1j * rng.normal(size=2)
        df = eval_jet(f, z, 1).gradient()
        assert abs(np.dot(df, X(z)) - 1.0) < 1e-12


def test_transverse_field_slot_one():
    f = HoloMap.poly(2, {(1, 0): 1})
    X = transverse_field(f, (1.0, 0.0))
    assert np.allclose(X((1.0, 0.0)), [1.0, 0.0])


def test_divisor_approach_hyperbola():
    f = HoloMap.poly(2, {(1, 1): 1, (0, 0): -1})
    path = geometric_path((1.0, 1.0), (1.0, 0.0), start=0.1, steps=8)
    recs = divisor_approach(f, (1.0, 1.0), path)
    gaps = [r["gap"] for r in recs]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.3


def test_divisor_approach_coordinate_plane():
    f = HoloMap.poly(2, {(1, 0): 1})
    path = [(10.0**-m, 0.0) for m in range(2, 11)]
    recs = divisor_approach(f, (0.0, 0.0), path)
    gaps = [r["gap"] for r in recs]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.3


def test_field_json_round_trip():
    X = VectorField(
        (
            HoloMap(Polynomial.constant(2, 1.0), Polynomial(2, {(0, 1): 1})),
            HoloMap.constant(2, 0.0),
        )
    )
    Y = VectorField.from_json(X.to_json())
    assert np.allclose(Y((2.0, 4.0)), X((2.0, 4.0)))


@pytest.mark.parametrize("terms, z", [
    ({(2,): 1, (0,): 1e-78}, 0.0),  # gamma' overflows at the critical point
    ({(2,): 1, (0,): 1e-100}, 0.0),  # gamma itself overflows there
    ({(1,): 1}, 1e-40),
    ({(1,): 1}, 1e-60),
])
def test_gamma_overflow_is_on_divisor_on_line_and_leaf(terms, z):
    # gamma's 2-jet overflows next to the divisor; the one-variable and leaf
    # paths returned NaN or -inf, or raised NonPositiveDensity or a raw
    # OverflowError.  Both share one guard, and the leaf names its base point
    f = HoloMap.poly(1, terms)
    with pytest.raises(OnDivisor, match=r"overflows at \(.*,\)"):
        line_curvature(f, z)
    with pytest.raises(OnDivisor, match=r"overflows at \(.*,\)"):
        leaf_curvature(f, VectorField.constant([1.0]), z)


@pytest.mark.parametrize("base, direction, start, ratio, m", [
    ((0.0,), (1.0,), 1.0, 1e10, 31),  # ratio^m: a raw OverflowError escaped
    ((0.0,), (1.0,), 1e300, 10.0, 9),  # start * ratio^m is inf: inf * 0j warned
    ((0.0, 1.0), (1e308, 1.0), 1.0, 2.0, 1),  # 2 * 1e308 warned
    ((1e308,), (1e308,), 1.0, 0.9, 1),  # the sum warned
])
def test_geometric_path_overflow_is_domain_overflow(base, direction, start, ratio, m):
    message = f"path point m = {m} overflows (start = {start!r}, ratio = {ratio!r})"
    with pytest.raises(DomainOverflow, match=re.escape(message)):
        geometric_path(base, direction, start=start, ratio=ratio, steps=40)


@pytest.mark.parametrize("flt", ["default", "error"])
def test_huge_field_norm_is_domain_overflow(flt):
    # |X(p)| = 1e200: squaring it warned "overflow encountered in dot", which
    # -W error raised in place of the DomainOverflow
    f = HoloMap.poly(1, {(1,): 1, (0,): -1})
    with warnings.catch_warnings():
        warnings.simplefilter(flt)
        with pytest.raises(DomainOverflow):
            leaf_curvature(f, VectorField.constant([1e200]), (2.0,))


def test_singular_field_decision_matches_squared_norm():
    # where the sum of squares stays finite and normal, |X(p)| <= FIELD_TOL
    # is decided as by sqrt(|Re c1|^2 + |Im c1|^2)
    rng = np.random.default_rng(20)
    for _ in range(2000):
        n = int(rng.integers(1, 4))
        decades = (-11.0, -9.0) if rng.random() < 0.7 else (-100.0, 100.0)
        V = 10.0 ** rng.uniform(*decades) * (rng.normal(size=n) + 1j * rng.normal(size=n))
        p = rng.normal(size=n) + 1j * rng.normal(size=n)
        singular = math.sqrt(V.real.dot(V.real) + V.imag.dot(V.imag)) <= FIELD_TOL
        try:
            integrate_leaf(VectorField.constant(V), p)
        except SingularField:
            assert singular, V
        else:
            assert not singular, V
