"""Tests for polynomial maps, jets, and the Wirtinger stencil oracle."""

import json
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grauertlab import holomorphic
from grauertlab.errors import (
    DenominatorVanishes,
    DomainOverflow,
    GrauertError,
    NonFiniteInput,
    OrderUnsupported,
)
from grauertlab.foliation import VectorField
from grauertlab.holomorphic import (
    JET_SHAPES,
    HoloMap,
    Polynomial,
    _multi_indices,
    _poly_jet_code,
    _quotient_jet_code,
    eval_jet,
)
from grauertlab.verify import family_1d, family_2d
from oracles import loop_jet, symbolic_jet, symbolic_value, wirtinger_fd


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


def test_polynomial_and_quotient_descriptors_read():
    poly = {"n": 2, "terms": [{"exp": [1, 2], "re": 1.5, "im": -0.5}, {"exp": [0, 0], "re": 2}]}
    p = Polynomial.from_json(poly)
    assert p == Polynomial(2, {(1, 2): 1.5 - 0.5j, (0, 0): 2.0})
    assert list(p.terms) == [(1, 2), (0, 0)]  # term order, which the jet code follows
    assert HoloMap.from_json(poly) == HoloMap(p)
    den = {"n": 2, "terms": [{"exp": [0, 0], "re": 1.0}, {"exp": [1, 0], "im": 1.0}]}
    q = HoloMap.from_json({"num": poly, "den": den})
    assert q == HoloMap(p, Polynomial(2, {(0, 0): 1.0, (1, 0): 1j}))


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
    assert Polynomial(2, p.terms) == p
    q = pickle.loads(pickle.dumps(p))
    assert q == p and list(q.terms) == list(p.terms)


def _outcome(jet, f, z, order):
    """The coefficients' keys and bits, or the error's type and message."""
    try:
        coeffs = jet(f, z, order)
    except GrauertError as exc:
        return type(exc).__name__, str(exc)
    coeffs = getattr(coeffs, "coeffs", coeffs)
    return [(alpha, _bits(c)) for alpha, c in coeffs.items()]


#: parts that reach the jets' edges: signed zeros, which the plain complex
#: strategy rarely draws, a subnormal, parts whose powers overflow, and
#: non-finite parts
EDGE_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1e200, 1e160, math.inf, -math.inf, math.nan]),
    st.floats(-3, 3),
)


@st.composite
def edge_map_and_point(draw):
    n = draw(st.integers(1, 3))
    part = st.one_of(st.sampled_from([0.0, -0.0]), EDGE_PARTS)
    cs = st.builds(complex, part, part)

    def poly():
        exps = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=5, unique=True))
        return Polynomial(n, {e: draw(cs) for e in exps})

    z = list(draw(st.lists(cs, min_size=n, max_size=n)))
    den = None
    if draw(st.booleans()):
        den = poly()
        if draw(st.booleans()):
            # a denominator vanishing at z: z_0 (times one more term) at z_0 = +-0
            den = Polynomial(n, {(1,) + (0,) * (n - 1): draw(cs), (1,) * n: 2.0})
            z[0] = complex(draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([0.0, -0.0])))
        if not den.terms:
            den = None
    return HoloMap(poly(), den), tuple(z)


@settings(max_examples=300, deadline=None)
@given(edge_map_and_point())
def test_eval_jet_bit_identical_to_loop_forms_at_the_edges(fz):
    # the generated code is the term and Leibniz loops unrolled: the same
    # bits, signed zeros and NaNs included, and the same error and message
    f, z = fz
    for order in range(4):
        assert _outcome(eval_jet, f, z, order) == _outcome(loop_jet, f, z, order)


SHIFTED = HoloMap.poly(1, {(3,): 1.0, (2,): -2.0j, (0,): 0.5})
EDGE_CASES = {
    # signed-zero parts, where z ** 1 is not z: the loop's powers are kept
    "signed zeros": (HoloMap.poly(2, {(2, 1): 1.0, (1, 0): -1.0, (0, 0): -0.0j + 1}),
                     (complex(-0.0, 0.0), complex(0.0, -0.0)), None),
    "power overflows": (SHIFTED, (1e120,), DomainOverflow),
    "infinite point": (SHIFTED, (complex(1.0, math.inf),), NonFiniteInput),
    "NaN point": (SHIFTED, (complex(math.nan, 1.0),), None),
    "denominator vanishes": (HoloMap(Polynomial(1, {(1,): 1.0}), Polynomial(1, {(1,): 2.0})),
                             (complex(-0.0, 0.0),), DenominatorVanishes),
    "quotient overflows in its denominator": (
        HoloMap(Polynomial(1, {(0,): 1.0}), Polynomial(1, {(4,): 1.0, (0,): 1.0})),
        (1e100,), DomainOverflow),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_eval_jet_edge_cases_match_loop_forms(case):
    f, z, error = EDGE_CASES[case]
    for order in range(4):
        got = _outcome(eval_jet, f, z, order)
        assert got == _outcome(loop_jet, f, z, order)
        # the order-0 powers of 1 + inf j are NaN, not an OverflowError, in
        # the loop too; from order 1, z ** 1 meets the inf and raises
        if order >= 1 or error is not NonFiniteInput:
            assert (got[0] if isinstance(got, tuple) else None) == (error and error.__name__)


def test_maps_of_one_shape_share_their_code_and_keep_their_coefficients(monkeypatch):
    compiled = []
    compile_ = holomorphic._compile
    monkeypatch.setattr(holomorphic, "_compile",
                        lambda name, lines: compiled.append(name) or compile_(name, lines))
    # exponents above the strategies' range, so no other test compiled this shape
    exps = [(7, 5), (0, 9), (6, 0), (0, 0)]
    p = HoloMap(Polynomial(2, dict(zip(exps, [1.5, -2j, 0.25 + 1j, -1.0]))),
                Polynomial(2, {(0, 0): 2.0, (5, 5): 1.0}))
    q = HoloMap(Polynomial(2, dict(zip(exps, [-0.5j, 3.0, 1e-3, 7.0]))),
                Polynomial(2, {(0, 0): -1.0, (5, 5): 0.5j}))
    z = (0.7 - 0.2j, -0.4 + 0.9j)
    _quotient_jet_code.cache_clear()  # (n, order) = (2, 3) is common
    jp, jq = eval_jet(p, z, 3).coeffs, eval_jet(q, z, 3).coeffs
    # one compile per polynomial shape and one for the quotient (n, order),
    # all at the first jet: the second map binds the same code
    assert sorted(compiled) == ["make", "make", "quotient"]
    assert p.num._plans[3].__code__ is q.num._plans[3].__code__
    assert p.num._plans[3] is not q.num._plans[3]
    assert _outcome(eval_jet, p, z, 3) == _outcome(loop_jet, p, z, 3)
    assert _outcome(eval_jet, q, z, 3) == _outcome(loop_jet, q, z, 3)
    assert all(jp[a] != jq[a] for a in jp)
    eval_jet(p, z, 3), eval_jet(q, z, 3)
    assert len(compiled) == 3


def test_jet_code_is_keyed_by_term_order_not_by_equality():
    # equal polynomials whose terms sit in another order sum in another
    # order, so they must not share code; the cache has a constant size
    terms = [((2,), 0.3 + 1j), ((1,), -2.0), ((0,), 0.7j)]
    p, q = Polynomial(1, dict(terms)), Polynomial(1, dict(terms[::-1]))
    assert p == q
    z = (0.6 - 1.3j,)
    eval_jet(HoloMap(p), z, 2), eval_jet(HoloMap(q), z, 2)
    assert p._plans[2].__code__ is not q._plans[2].__code__
    for f in (HoloMap(p), HoloMap(q)):
        assert _outcome(eval_jet, f, z, 2) == _outcome(loop_jet, f, z, 2)
    assert _poly_jet_code.cache_info().maxsize == JET_SHAPES
    assert _quotient_jet_code.cache_info().maxsize == JET_SHAPES


def test_used_maps_and_families_pickle():
    # a used map holds compiled jets, which do not pickle: pickling drops
    # them, and the copy binds its own on its first jet, to the same bits
    f = HoloMap(Polynomial(2, {(1, 1): 1, (2, 0): 0.5, (0, 0): -1}),
                Polynomial(2, {(0, 1): 1, (0, 0): 2.5}))
    z = (0.7 + 0.3j, 0.5 + 0.6j)
    want = [_outcome(eval_jet, f, z, order) for order in range(4)]
    back = pickle.loads(pickle.dumps(f))
    assert back == f and not back.num._plans and not back.den._plans
    assert [_outcome(eval_jet, back, z, order) for order in range(4)] == want
    for fam in (family_1d(), family_2d()):
        p = (0.3 + 0.2j,) * fam.f0.n
        eval_jet(fam.f0, p, 2)
        want = [_outcome(eval_jet, fam.member(j), p, 2) for j in fam.J]
        back = pickle.loads(pickle.dumps(fam))
        assert back == fam
        assert [_outcome(eval_jet, back.member(j), p, 2) for j in back.J] == want


def test_long_rows_match_loop_forms():
    # 441 terms: each row sum continues over several statements, and every
    # coefficient is bound, with the bits of the single term loop
    rng = np.random.default_rng(5)
    exps = [(i, j) for i in range(21) for j in range(21)]
    rng.shuffle(exps)
    f = HoloMap.poly(2, {e: complex(*rng.normal(size=2)) for e in exps})
    z = (0.31 - 0.4j, -0.52 + 0.17j)
    for order in range(4):
        assert _outcome(eval_jet, f, z, order) == _outcome(loop_jet, f, z, order)


def _point_bits(z) -> bytes:
    return np.array(z, dtype=complex).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eval_jet_takes_every_point_kind(n):
    # a tuple of exact complex numbers is taken as it is; every other kind
    # (np.complex128 subclasses complex) is converted entry by entry
    f = HoloMap(Polynomial(n, {(1,) * n: 1.5, (0,) * n: -0.5j}),
                Polynomial(n, {(0,) * (n - 1) + (1,): 0.25, (0,) * n: 3}))
    exact = tuple(complex(0.25 * (i + 1), -0.0 if i else 0.5) for i in range(n))
    kinds = {
        "tuple of complex": exact,
        "tuple with a float": (0.25,) + exact[1:],
        "tuple with an int": (1,) + exact[1:],
        "tuple of np.complex128": tuple(map(np.complex128, exact)),
        "list": list(exact),
        "array": np.array(exact),
    }
    if n == 1:
        kinds.update({"complex scalar": exact[0], "float scalar": 0.25,
                      "np.complex128 scalar": np.complex128(exact[0])})
    for kind, p in kinds.items():
        want = (complex(p),) if np.isscalar(p) else tuple(map(complex, p))
        for order in (0, 2):
            jet = eval_jet(f, p, order)
            assert all(type(c) is complex for c in jet.point), kind
            assert _point_bits(jet.point) == _point_bits(want), kind
            assert jet.coeffs == loop_jet(f, want, order), kind
    assert eval_jet(f, exact, 1).point is exact
    for p in (exact + (1j,), list(exact + (1j,)), tuple(map(np.complex128, exact + (1j,)))):
        with pytest.raises(ValueError, match=f"^point has {n + 1} coordinates, map expects {n}$"):
            eval_jet(f, p, 1)
