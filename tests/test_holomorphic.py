"""Tests for polynomial maps, jets, and the Wirtinger stencil oracle."""

import json
import pickle
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grauertlab.errors import DenominatorVanishes, OrderUnsupported
from grauertlab.foliation import VectorField
from grauertlab.holomorphic import HoloMap, Polynomial, _multi_indices, eval_jet
from oracles import symbolic_jet, symbolic_value, wirtinger_fd


def test_monomial_jet():
    f = HoloMap.poly(1, {(2,): 1})
    j = eval_jet(f, 3.0, 2)
    assert j.value == 9
    assert j.d(0) == 6
    assert j.d2(0, 0) == 2


def test_bilinear_jet():
    f = HoloMap.poly(2, {(1, 1): 1, (0, 0): -1})
    j = eval_jet(f, (1.0, 1.0), 1)
    assert j.value == 0
    assert j.d(0) == 1 and j.d(1) == 1


def test_jet_matches_finite_differences():
    # f(z) = z^3 (z - 2) at p = 0.1, all orders through 3
    f = HoloMap.poly(1, {(4,): 1, (3,): -2})
    p = 0.1
    j = eval_jet(f, p, 3)

    def F_re(T):
        return (f([p + T])).real

    def F_im(T):
        return (f([p + T])).imag

    jr, ji = wirtinger_fd(F_re, 0j, 1e-5), wirtinger_fd(F_im, 0j, 1e-5)
    d_fd = jr.d + 1j * ji.d
    assert abs(d_fd - j.d(0)) < 1e-6 * max(1, abs(j.d(0)))


def test_order_cap():
    f = HoloMap.poly(1, {(2,): 1})
    with pytest.raises(OrderUnsupported):
        eval_jet(f, 0.0, 4)


def test_quotient_jet_by_leibniz():
    # q = (z^2 + 1) / (z + 2): compare against the hand chain rule
    num = Polynomial(1, {(2,): 1, (0,): 1})
    den = Polynomial(1, {(1,): 1, (0,): 2})
    q = HoloMap(num, den)
    z = 0.7 + 0.3j
    j = eval_jet(q, z, 2)
    n0, d0 = HoloMap(num)(z), HoloMap(den)(z)
    n1, d1 = 2 * z, 1.0
    expect_d = (n1 * d0 - n0 * d1) / d0**2
    assert abs(j.value - n0 / d0) < 1e-14
    assert abs(j.d(0) - expect_d) < 1e-13
    expect_d2 = (2 * d0**2 - 2 * n1 * d0 + 2 * n0) / d0**3
    assert abs(j.d2(0, 0) - expect_d2) < 1e-13


def test_quotient_denominator_vanishes():
    q = HoloMap(Polynomial(1, {(0,): 1}), Polynomial(1, {(1,): 1}))
    with pytest.raises(DenominatorVanishes):
        q([0.0])


def test_wirtinger_modulus_squared():
    j = wirtinger_fd(lambda T: abs(T) ** 2, 1 + 1j, 1e-5)
    assert abs(j.d - (1 - 1j)) < 1e-9
    assert abs(j.ddbar - 1.0) < 1e-5
    assert abs(j.dbar - np.conj(j.d)) < 1e-15  # real input: dbar = conj(d)


def test_wirtinger_constant():
    j = wirtinger_fd(lambda T: 4.2, 0.3j, 1e-4)
    assert abs(j.d) < 1e-12 and abs(j.ddbar) < 1e-12


def test_polynomial_json_round_trip():
    p = Polynomial(2, {(1, 2): 1.5 - 0.5j, (0, 0): 2.0})
    assert Polynomial.from_json(p.to_json()).terms == p.terms
    q = HoloMap(p, Polynomial(2, {(0, 0): 1.0, (1, 0): 1.0}))
    r = HoloMap.from_json(q.to_json())
    assert r.num.terms == q.num.terms and r.den.terms == q.den.terms


def test_polynomials_maps_and_fields_hash_like_they_compare():
    # equality ignores term order, so the hash does too
    p = Polynomial(1, {(2,): 0.3 + 1j, (1,): -2.0, (0,): 0.7j})
    q = Polynomial(1, {(0,): 0.7j, (1,): -2.0, (2,): 0.3 + 1j})
    assert p == q and hash(p) == hash(q)
    # but summed in another term order they round differently, so no cache
    # may be keyed by equality
    rng = np.random.default_rng(0)
    zs = rng.normal(size=20) + 1j * rng.normal(size=20)
    assert any(HoloMap(p)(z) != HoloMap(q)(z) for z in zs)
    assert p != Polynomial(2, {(2, 0): 0.3 + 1j, (1, 0): -2.0, (0, 0): 0.7j})
    f, g = HoloMap(p, Polynomial.constant(1, 2.0)), HoloMap(q, Polynomial.constant(1, 2.0))
    assert {f: 1}[g] == 1 and HoloMap(p) not in {f: 1}
    assert hash(VectorField((f,))) == hash(VectorField((g,)))


def test_multi_indices_order():
    idx = _multi_indices(2, 2)
    assert idx[0] == (0, 0)
    assert set(idx) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}


@st.composite
def random_poly(draw, n):
    exps = draw(
        st.lists(
            st.tuples(*([st.integers(0, 4)] * n)), min_size=1, max_size=6, unique=True
        )
    )
    cs = st.complex_numbers(
        min_magnitude=0.1, max_magnitude=3, allow_nan=False, allow_infinity=False
    )
    return HoloMap.poly(n, {e: draw(cs) for e in exps})


@settings(max_examples=30, deadline=None)
@given(random_poly(n=2), st.integers(0, 10 ** 6))
def test_jet_symmetry(f, salt):
    rng = np.random.default_rng(salt)
    p = rng.normal(size=2) + 1j * rng.normal(size=2)
    j = eval_jet(f, p, 2)
    assert j.d2(0, 1) == j.d2(1, 0)
    assert j.coeffs[(0, 0)] == f(p)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_gradient_oracle_random(salt):
    rng = np.random.default_rng(salt)
    n = int(rng.integers(1, 4))
    exps = [tuple(rng.integers(0, 4, size=n)) for _ in range(4)]
    f = HoloMap.poly(n, {e: complex(*rng.normal(size=2)) for e in exps})
    p = tuple(rng.normal(size=n) + 1j * rng.normal(size=n))
    j = eval_jet(f, p, 1)
    for i in range(n):
        def F_re(T, i=i):
            q = list(p)
            q[i] += T
            return f(q).real

        def F_im(T, i=i):
            q = list(p)
            q[i] += T
            return f(q).imag

        d_fd = wirtinger_fd(F_re, 0j).d + 1j * wirtinger_fd(F_im, 0j).d
        assert abs(d_fd - j.d(i)) < 1e-5 * max(1.0, abs(j.d(i)))


def _bits(c: complex) -> bytes:
    return struct.pack("<dd", c.real, c.imag)


@st.composite
def map_and_point(draw):
    n = draw(st.integers(1, 3))
    num = draw(random_poly(n)).num
    den = draw(random_poly(n)).num if draw(st.booleans()) else None
    cs = st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False)
    z = tuple(draw(st.lists(cs, min_size=n, max_size=n)))
    return HoloMap(num, den), z


@settings(max_examples=200, deadline=None)
@given(map_and_point())
def test_eval_jet_bit_identical_to_symbolic_jet(fz):
    # values and partials read off the terms are the symbolic derivatives'
    # values bit for bit, for polynomials and quotients alike
    f, z = fz
    assume(f.den is None or symbolic_value(f.den, z) != 0)
    for k in range(4):
        ref = symbolic_jet(f, z, k)
        got = eval_jet(f, z, k).coeffs
        assert list(got) == list(ref)
        assert [_bits(got[a]) for a in ref] == [_bits(ref[a]) for a in ref]
    assert _bits(f(z)) == _bits(ref[(0,) * f.n])
    assert _bits(HoloMap(f.num)(z)) == _bits(symbolic_value(f.num, z))


def _jet_outcome(f, p, order):
    try:
        return eval_jet(f, p, order).coeffs
    except DenominatorVanishes as exc:
        return f"DenominatorVanishes: {exc}"


@settings(max_examples=60, deadline=None)
@given(map_and_point(), st.integers(0, 10 ** 6))
def test_interleaved_jets_match_fresh_maps(fz, salt):
    # the jet plans cached on a map serve any point and order in any
    # sequence: each jet equals, bit for bit, the jet of a freshly built map
    f, z = fz
    rng = np.random.default_rng(salt)
    w = tuple(complex(*rng.normal(size=2)) for _ in range(f.n))
    for p, order in [(z, 3), (w, 0), (z, 2), (w, 3), (z, 0), (w, 2)]:
        fresh = HoloMap(
            Polynomial(f.n, dict(f.num.terms)),
            None if f.den is None else Polynomial(f.n, dict(f.den.terms)),
        )
        got, want = _jet_outcome(f, p, order), _jet_outcome(fresh, p, order)
        if isinstance(want, str):
            assert got == want
            continue
        assert list(got) == list(want)
        assert [_bits(got[a]) for a in want] == [_bits(want[a]) for a in want]


def test_terms_read_only():
    p = Polynomial(2, {(1, 2): 1.5 - 0.5j, (0, 0): 2.0, (1, 0): 0.0})
    with pytest.raises(TypeError):
        p.terms[(1, 0)] = 1.0
    with pytest.raises(TypeError):
        del p.terms[(0, 0)]
    assert dict(p.terms) == {(1, 2): 1.5 - 0.5j, (0, 0): 2.0}
    assert list(p.terms) == [(1, 2), (0, 0)]
    assert p == Polynomial(2, {(0, 0): 2.0, (1, 2): 1.5 - 0.5j})
    assert p != Polynomial(2, {(0, 0): 2.0})
    eval_jet(HoloMap(p), (0.5, 0.25j), 2)  # a cached plan does not enter ==
    assert p == Polynomial(2, {(1, 2): 1.5 - 0.5j, (0, 0): 2.0})
    assert p.to_json() == {
        "n": 2,
        "terms": [{"exp": [0, 0], "re": 2.0, "im": 0.0},
                  {"exp": [1, 2], "re": 1.5, "im": -0.5}],
    }
    assert Polynomial.from_json(p.to_json()) == p
    assert Polynomial(2, p.terms) == p
    q = pickle.loads(pickle.dumps(p))
    assert q == p and list(q.terms) == list(p.terms)
