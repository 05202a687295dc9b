"""Tests for divisor families, compact grids, gap measurements, twisting,
and the liminf inequality check."""

import struct

import numpy as np
import pytest

from grauertlab import divisors
from grauertlab.divisors import (
    CompactGrid,
    DivisorFamily,
    curvature_gap,
    liminf_check,
    sup_metric_gap,
    twisted_family,
)
from grauertlab.errors import GridTouchesDivisor, OnDivisor, UnitVanishes
from grauertlab.foliation import VectorField
from grauertlab.holomorphic import HoloMap, Polynomial
from grauertlab.verify import FAMILY_INDICES, family_1d, family_2d, grid_1d, grid_2d
from oracles import norm_sup_metric_gap


def constant_family(J=(1, 2, 4)):
    f0 = Polynomial(1, {(1,): 1, (0,): -1})
    return DivisorFamily.from_template(f0, dict(f0.terms), {}, J)


def test_constant_family_zero_gap():
    fam = constant_family()
    grid = CompactGrid(((-1.0, 3.0, -1.0, 1.0),), 6, 0.2)
    assert sup_metric_gap(fam, grid, 2) == 0.0
    assert curvature_gap(fam, VectorField.constant([1.0]), grid, 2) == 0.0


def test_metric_gap_trend_and_ratio():
    # annulus-style grid with margin 0.2: first-order decay in 1/j
    fam = family_1d()
    grid = CompactGrid(((-0.97, 3.03, -2.0, 2.0),), 21, 0.2)
    gaps = {j: sup_metric_gap(fam, grid, j) for j in (1, 8, 16, 32, 64)}
    assert gaps[64] < gaps[8] < gaps[1]
    assert abs(gaps[32] / gaps[16] - 0.5) < 0.125
    assert gaps[64] < 1e-2 * gaps[1]


def test_curvature_gap_trend():
    fam = family_1d()
    X = VectorField.constant([1.0])
    g4 = curvature_gap(fam, X, grid_1d(), 4)
    g64 = curvature_gap(fam, X, grid_1d(), 64)
    assert g64 < 0.1 * g4


def test_grid_touches_divisor():
    fam = family_1d(J=(1,))
    # z = 2 (the j = 1 divisor) is a grid point of this box
    grid = CompactGrid(((0.0, 2.0, -1.0, 1.0),), 3, 0.2)
    with pytest.raises(GridTouchesDivisor) as exc:
        sup_metric_gap(fam, grid, 1)
    assert exc.value.j == 1 and len(exc.value.points) >= 1


def test_grid_validation():
    with pytest.raises(ValueError):
        CompactGrid(((0.0, 1.0, 0.0, 1.0),), 4, 1e-9)  # delta too small
    grid = CompactGrid(((-0.05, 0.05, -0.05, 0.05),), 3, 0.5)
    with pytest.raises(ValueError):
        grid.points(HoloMap.poly(1, {(1,): 1}))  # empty after exclusion


def test_twisted_identity_unit():
    fam = family_1d()
    tfam = twisted_family(fam, HoloMap.constant(1, 1.0))
    for j in (1, 8):
        assert tfam.member(j).num.terms == fam.member(j).num.terms


def test_twisted_constant_unit_converges():
    fam = family_1d()
    grid = grid_1d()
    tfam = twisted_family(fam, HoloMap.constant(1, 2.0))
    # different defining function (metric differs from the untwisted one)...
    assert sup_metric_gap(
        DivisorFamily(fam.f0, tfam.member_fn, fam.J), grid, 8
    ) > 0.0
    # ...but the twisted family still converges
    g = {j: sup_metric_gap(tfam, grid, j) for j in (1, 8, 64)}
    assert g[64] < g[8] < g[1]


def test_twisted_roots_unchanged():
    # h(z) = 2 + z: the twisted members vanish exactly where the members do
    fam = family_1d()
    unit = HoloMap.poly(1, {(0,): 2.0, (1,): 1.0})
    tfam = twisted_family(fam, unit, grid_1d())
    for j in (1, 8, 64):
        c = tfam.member(j).num.terms
        roots = np.roots([c.get((2,), 0), c.get((1,), 0), c.get((0,), 0)])
        keep = [r for r in roots if abs(r + 2) > 1e-6]
        assert len(keep) == 1
        assert abs(keep[0] - (1 + 1 / j)) < 1e-9


def test_twisted_vanishing_unit_rejected():
    fam = family_1d()
    unit = HoloMap.poly(1, {(1,): 1, (0,): 0.97})  # vanishes at grid point -0.97
    with pytest.raises(UnitVanishes):
        twisted_family(fam, unit, grid_1d())


def test_liminf_trivial_equality():
    fam = constant_family()
    rep = liminf_check(fam, [3.0], [1.0], tail=1)
    assert rep["margin"] == 0.0 and rep["passed"]


def test_liminf_canonical_points():
    deep = family_1d((10_000_000, 100_000_000))
    rep = liminf_check(deep, [3.0], [1.0], tail=10_000_000)
    assert rep["passed"] and rep["margin"] >= -1e-6
    deep2 = family_2d((10_000_000, 100_000_000))
    rep2 = liminf_check(deep2, (2.0, 1.0), (1.0, 0.0), tail=10_000_000)
    assert rep2["passed"] and rep2["margin"] >= -1e-6


def test_family_json_round_trip():
    obj = {
        "f0": {"n": 1, "terms": [{"exp": [1], "re": 1}, {"exp": [0], "re": -1}]},
        "fj": {
            "template": {
                "terms": [{"exp": [1], "re": 1}, {"exp": [0], "re": -1, "re_j": -1}]
            }
        },
        "J": [1, 4, 64],
    }
    fam = DivisorFamily.from_json(obj)
    assert fam.J == (1, 4, 64)
    assert abs(fam.member(4)((1.0,)) - (-0.25)) < 1e-15
    assert fam.f0((1.0,)) == 0.0


def test_family_template_base_must_be_f0():
    # f_j -> z + 5, not to f0 = z - 1: every converge-* gap would be
    # measured against the wrong limit
    obj = {
        "f0": {"n": 1, "terms": [{"exp": [1], "re": 1}, {"exp": [0], "re": -1}]},
        "fj": {"template": {"terms": [{"exp": [1], "re": 1},
                                      {"exp": [0], "re": 5, "re_j": -1}]}},
        "J": [1, 4, 64],
    }
    with pytest.raises(ValueError, match="base is not f0"):
        DivisorFamily.from_json(obj)
    f0 = Polynomial(1, {(1,): 1, (0,): -1})
    with pytest.raises(ValueError, match="base is not f0"):
        DivisorFamily.from_template(f0, {(1,): 1, (0,): -1.5}, {(0,): 0.5}, [1, 2])


def test_n2_canonical_grids_nonempty():
    assert len(grid_2d().points(family_2d().f0)) > 100
    assert len(grid_1d().points(family_1d().f0)) > 100


def twisted_family_1d(J=FAMILY_INDICES):
    return twisted_family(family_1d(J), HoloMap.poly(1, {(0,): 2.0, (1,): 1.0}))


#: family, grid and the constant field of its leaf gap
FAMILIES = {
    "n=1": (family_1d, grid_1d, [1.0]),
    "n=2": (family_2d, grid_2d, [1.0, 0.0]),
    "twisted": (twisted_family_1d, grid_1d, [1.0]),
}


def _bits(xs):
    return [struct.pack("<d", x) for x in xs]


def _gap(kind, fam, grid, X, j):
    if kind == "metric":
        return sup_metric_gap(fam, grid, j)
    return curvature_gap(fam, X, grid, j)


@pytest.mark.parametrize("kind", ["metric", "leaf"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_gaps_in_sequence_match_fresh_families(name, kind):
    # later calls read the f_0 side the first call memoized on the family;
    # every gap must keep the bits of a call on a fresh family
    family, grid, V = FAMILIES[name]
    X = VectorField.constant(V)
    fam, g = family(), grid()
    seq = [_gap(kind, fam, g, X, j) for j in FAMILY_INDICES]
    fresh = [_gap(kind, family(), grid(), X, j) for j in FAMILY_INDICES]
    assert seq == fresh and _bits(seq) == _bits(fresh)
    assert len(fam._limit_sides) == 1


def test_second_field_gets_its_own_limit_side():
    fam, g = family_2d(), grid_2d()
    X1, X2 = VectorField.constant([1.0, 0.0]), VectorField.constant([1.0, 1.0j])

    def fresh(X, j):
        return curvature_gap(family_2d(), X, g, j)

    got = [curvature_gap(fam, X1, g, 1), curvature_gap(fam, X2, g, 4),
           curvature_gap(fam, X1, g, 64), curvature_gap(fam, X2, g, 64)]
    want = [fresh(X1, 1), fresh(X2, 4), fresh(X1, 64), fresh(X2, 64)]
    assert want[2] != want[3]  # the two fields give different gaps
    assert _bits(got) == _bits(want)
    # an equal field that is another object gets a fresh f_0 side too
    X3 = VectorField.constant([1.0, 0.0])
    assert _bits([curvature_gap(fam, X3, g, 8)]) == _bits([fresh(X3, 8)])
    assert [X for X, _ in fam._limit_sides.values()] == [X3]


def test_each_grid_gets_its_own_limit_side():
    fam = family_1d()
    box = (-0.97, 3.03, -2.0, 2.0)
    # equal grids whose points differ in the sign of a zero coordinate
    plus = CompactGrid((box[:2] + (-2.0, 0.0),), 21, 0.4)
    minus = CompactGrid((box[:2] + (-2.0, -0.0),), 21, 0.4)
    assert plus == minus
    assert [str(p) for p in plus.points(fam.f0)] != [str(p) for p in minus.points(fam.f0)]
    grids = [grid_1d(), CompactGrid((box,), 21, 0.2), plus, minus]
    got = [sup_metric_gap(fam, g, j) for g, j in zip(grids, (1, 8, 16, 32))]
    want = [sup_metric_gap(family_1d(), g, j) for g, j in zip(grids, (1, 8, 16, 32))]
    assert _bits(got) == _bits(want)
    assert len(fam._limit_sides) == 4


@pytest.mark.parametrize("kind, target", [("metric", "metric_matrix"),
                                          ("leaf", "leaf_curvature")])
def test_limit_side_exception_leaves_no_memo(monkeypatch, kind, target):
    fam, g = family_1d(), grid_1d()
    X = VectorField.constant([1.0])
    real = getattr(divisors, target)
    seen = []

    def failing(f, *args):
        seen.append(f)
        if f is fam.f0 and len(seen) > 200:
            raise OnDivisor("injected on the f_0 side")
        return real(f, *args)

    monkeypatch.setattr(divisors, target, failing)
    for j in (1, 8):
        seen.clear()
        with pytest.raises(OnDivisor, match="injected"):
            _gap(kind, fam, g, X, j)
        # f_j before f_0 at every point, up to the injected failure
        assert seen[-2] is not fam.f0 and seen[-1] is fam.f0
        assert seen[:4:2] == [seen[0]] * 2 and seen[1:4:2] == [fam.f0] * 2
        assert fam._limit_sides == {}
    monkeypatch.setattr(divisors, target, real)
    assert _bits([_gap(kind, fam, g, X, 8)]) == _bits([_gap(kind, family_1d(), g, X, 8)])
    assert len(fam._limit_sides) == 1


@pytest.mark.parametrize("j", [1, 64])
@pytest.mark.parametrize("family, grid", [(family_1d, grid_1d), (family_2d, grid_2d)])
def test_sup_metric_gap_bit_identical_to_norm_form(family, grid, j):
    # the largest singular value from np.linalg.svd is the value
    # np.linalg.norm(diff, 2) returns, bit for bit
    fam, g = family(), grid()
    got, want = sup_metric_gap(fam, g, j), norm_sup_metric_gap(fam, g, j)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_sup_metric_gaps_in_sequence_bit_identical_to_norm_form(name):
    # gaps called in sequence on one family, so every j after the first reads
    # the memoized G_0: each must be the value np.linalg.norm(diff, 2) gives on
    # a fresh G_0, bit for bit, through the SVD for n = 2 and |d| for n = 1
    family, grid, _ = FAMILIES[name]
    fam, g = family(), grid()
    got = [sup_metric_gap(fam, g, j) for j in FAMILY_INDICES]
    want = [norm_sup_metric_gap(fam, g, j) for j in FAMILY_INDICES]
    assert _bits(got) == _bits(want)
