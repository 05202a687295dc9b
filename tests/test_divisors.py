"""Tests for divisor families, compact grids, gap measurements, twisting,
and the liminf inequality check."""

import dataclasses
import math
import pickle
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
    assert sup_metric_gap(fam, grid, 2) == [0.0]
    assert curvature_gap(fam, VectorField.constant([1.0]), grid, 2) == [0.0]


def test_metric_gap_trend_and_ratio():
    # annulus-style grid with margin 0.2: first-order decay in 1/j
    fam = family_1d()
    grid = CompactGrid(((-0.97, 3.03, -2.0, 2.0),), 21, 0.2)
    gaps = {j: sup_metric_gap(fam, grid, j)[0] for j in (1, 8, 16, 32, 64)}
    assert gaps[64] < gaps[8] < gaps[1]
    assert abs(gaps[32] / gaps[16] - 0.5) < 0.125
    assert gaps[64] < 1e-2 * gaps[1]


def test_curvature_gap_trend():
    fam = family_1d()
    X = VectorField.constant([1.0])
    g4, g64 = curvature_gap(fam, X, grid_1d(), 4, 64)
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
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="grid box bounds must be finite"):
            CompactGrid(((0.0, 1.0, 0.0, 1.0), (0.0, bad, 0.0, 1.0)), 4, 0.5)
        with pytest.raises(ValueError, match="delta must be finite"):
            CompactGrid(((0.0, 1.0, 0.0, 1.0),), 4, bad)
    grid = CompactGrid(((-0.05, 0.05, -0.05, 0.05),), 3, 0.5)
    with pytest.raises(ValueError):
        grid.points(HoloMap.poly(1, {(1,): 1}))  # empty after exclusion


def test_twisted_identity_unit():
    fam = family_1d()
    tfam = twisted_family(fam, HoloMap.constant(1, 1.0), grid_1d())
    for j in (1, 8):
        assert tfam.member(j).num.terms == fam.member(j).num.terms


def test_twisted_constant_unit_converges():
    fam = family_1d()
    grid = grid_1d()
    tfam = twisted_family(fam, HoloMap.constant(1, 2.0), grid)
    # different defining function (metric differs from the untwisted one)...
    assert sup_metric_gap(dataclasses.replace(tfam, f0=fam.f0), grid, 8)[0] > 0.0
    # ...but the twisted family still converges
    g = {j: sup_metric_gap(tfam, grid, j)[0] for j in (1, 8, 64)}
    assert g[64] < g[8] < g[1]


def test_twice_twisted_members_multiply_inner_unit_first():
    # guard: h2 * (h1 * f_j), term for term, in the order the units were applied
    fam = family_1d()
    h1 = HoloMap.poly(1, {(0,): 2.0, (1,): 1.0})
    h2 = HoloMap.poly(1, {(0,): 3.0, (1,): -0.5j})
    tfam = twisted_family(twisted_family(fam, h1, grid_1d()), h2, grid_1d())
    assert tfam.f0.num.terms == (h2.num * (h1.num * fam.f0.num)).terms
    for j in FAMILY_INDICES:
        want = h2.num * (h1.num * fam.member(j).num)
        assert list(tfam.member(j).num.terms.items()) == list(want.terms.items())


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
    assert list(rep) == ["K0", "Kj_min", "margin", "passed"]


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


def test_family_member_dimension_checked_at_construction():
    # guard: a wrong-length 1/j exponent raises before any member is built
    f0 = Polynomial(1, {(1,): 1, (0,): -1})
    with pytest.raises(ValueError, match="bad exponent"):
        DivisorFamily.from_template(f0, dict(f0.terms), {(0, 0): 1.0}, [1, 2])


def test_n2_canonical_grids_nonempty():
    assert len(grid_2d().points(family_2d().f0)) > 100
    assert len(grid_1d().points(family_1d().f0)) > 100


def twisted_family_1d(J=FAMILY_INDICES):
    return twisted_family(family_1d(J), HoloMap.poly(1, {(0,): 2.0, (1,): 1.0}), grid_1d())


#: family, grid and the constant field of its leaf gap
FAMILIES = {
    "n=1": (family_1d, grid_1d, [1.0]),
    "n=2": (family_2d, grid_2d, [1.0, 0.0]),
    "twisted": (twisted_family_1d, grid_1d, [1.0]),
}


def _bits(xs):
    return [struct.pack("<d", x) for x in xs]


def _gaps(kind, fam, grid, X, *js):
    if kind == "metric":
        return sup_metric_gap(fam, grid, *js)
    return curvature_gap(fam, X, grid, *js)


@pytest.mark.parametrize("kind", ["metric", "leaf"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_gaps_in_sequence_match_fresh_families(name, kind):
    # one call shares its f_0 side among all its j; every gap must keep the
    # bits of a one-j call on a fresh family
    family, grid, V = FAMILIES[name]
    X = VectorField.constant(V)
    seq = _gaps(kind, family(), grid(), X, *FAMILY_INDICES)
    fresh = [_gaps(kind, family(), grid(), X, j)[0] for j in FAMILY_INDICES]
    assert seq == fresh and _bits(seq) == _bits(fresh)


@pytest.mark.parametrize("kind", ["metric", "leaf"])
def test_batched_gaps_build_the_grid_once(monkeypatch, kind):
    fam, g = family_1d(), grid_1d()
    real = CompactGrid.points
    calls = []

    def counted(grid, f0):
        calls.append(f0)
        return real(grid, f0)

    monkeypatch.setattr(CompactGrid, "points", counted)
    # a repeated index gets its own gap, the same bits as its first
    gaps = _gaps(kind, fam, g, VectorField.constant([1.0]), 1, 8, 64, 8)
    assert len(gaps) == 4 and _bits(gaps[1:2]) == _bits(gaps[3:])
    assert len(calls) == 1 and calls[0] is fam.f0


@pytest.mark.parametrize("kind, target", [("metric", "metric_matrix"),
                                          ("leaf", "leaf_curvature")])
def test_limit_side_exception_leaves_no_memo(monkeypatch, kind, target):
    # the f_0 side is computed whole before any f_j, and nothing outlives a call
    fam, g = family_1d(), grid_1d()
    X = VectorField.constant([1.0])
    n_pts = len(g.points(fam.f0))
    real = getattr(divisors, target)
    seen = []
    raise_on = None

    def failing(f, *args):
        seen.append(f)
        if raise_on is not None and raise_on(f):
            raise OnDivisor("injected")
        return real(f, *args)

    monkeypatch.setattr(divisors, target, failing)
    # an f_0 side that raises part way evaluates no f_j
    raise_on = lambda f: f is fam.f0 and len(seen) > 50
    with pytest.raises(OnDivisor, match="injected"):
        _gaps(kind, fam, g, X, 1, 8)
    assert len(seen) == 51 and all(f is fam.f0 for f in seen)
    # an f_j side that raises comes after a complete f_0 side
    raise_on = lambda f: f is not fam.f0
    seen.clear()
    with pytest.raises(OnDivisor, match="injected"):
        _gaps(kind, fam, g, X, 8, 64)
    assert len(seen) == n_pts + 1 and all(f is fam.f0 for f in seen[:-1])
    # a later call computes its f_0 side again, with the bits of a fresh family
    raise_on = None
    seen.clear()
    got = _gaps(kind, fam, g, X, 8, 64)
    assert len(seen) == 3 * n_pts and all(f is fam.f0 for f in seen[:n_pts])
    assert _bits(got) == _bits(_gaps(kind, family_1d(), g, X, 8, 64))


@pytest.mark.parametrize("j", [1, 64])
@pytest.mark.parametrize("family, grid", [(family_1d, grid_1d), (family_2d, grid_2d)])
def test_sup_metric_gap_bit_identical_to_norm_form(family, grid, j):
    # the largest singular value from np.linalg.svd is the value
    # np.linalg.norm(diff, 2) returns, bit for bit
    fam, g = family(), grid()
    got, want = sup_metric_gap(fam, g, j)[0], norm_sup_metric_gap(fam, g, j)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_sup_metric_gaps_in_sequence_bit_identical_to_norm_form(name):
    # one call for every j, so every j reads the G_0 list the call built once:
    # each gap must be the value np.linalg.norm(diff, 2) gives on a fresh G_0,
    # bit for bit, through the SVD for n = 2 and |d| for n = 1
    family, grid, _ = FAMILIES[name]
    fam, g = family(), grid()
    got = sup_metric_gap(fam, g, *FAMILY_INDICES)
    want = [norm_sup_metric_gap(fam, g, j) for j in FAMILY_INDICES]
    assert _bits(got) == _bits(want)


def test_families_equal_and_hash_by_value():
    assert family_1d() == family_1d() and hash(family_1d()) == hash(family_1d())
    assert twisted_family_1d() == twisted_family_1d()
    assert hash(twisted_family_1d()) == hash(twisted_family_1d())
    assert family_1d() != family_1d((1, 2)) and family_1d() != twisted_family_1d()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_pickle_round_trip_keeps_members(name):
    fam = FAMILIES[name][0]()
    back = pickle.loads(pickle.dumps(fam))
    assert back == fam
    for j in FAMILY_INDICES:
        got, want = back.member(j).num.terms, fam.member(j).num.terms
        assert list(got.items()) == list(want.items())
