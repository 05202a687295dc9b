"""Tests for the metric profile u, the conformal densities, and the
closed-form curvatures, cross-checked against high-precision and
finite-difference oracles."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from grauertlab.density import (
    SERIES_RADIUS,
    T_MAX,
    T_MIN,
    gamma_jet,
    grauert_curvature,
    hk_density_jet,
    m_factor,
    power_curvature,
    pullback_density_jet,
    u_jet,
)
from grauertlab.errors import (
    DomainOverflow,
    DomainUnderflow,
    GrauertError,
    NonFiniteInput,
    OnDivisor,
)
from oracles import errstate_u_jet, numpy_gamma_jet, profile_sweep, raw_conformal, wirtinger_fd


def kg_oracle(t, dps=50):
    """Gaussian curvature of the radial density gamma(t) at t = |z|^2,
    via K = -2 (L' + t L'') / gamma with L = log gamma, in high precision."""
    with mp.workdps(dps):
        t = mp.mpf(t)

        def gam(s):
            u = (s - 1) / (s * mp.log(s)) if s != 1 else mp.mpf(1)
            return 1 + s * u**2

        L = lambda s: mp.log(gam(s))
        val = -2 * (mp.diff(L, t) + t * mp.diff(L, t, 2)) / gam(t)
        return float(val)


def test_u_closed_form_values():
    e = float(np.e)
    assert abs(u_jet(e).u - (e - 1) / e) < 1e-14
    assert abs(u_jet(4.0).u - 3 / (4 * np.log(4))) < 1e-14


def test_u_series_values_at_one():
    j = u_jet(1.0)
    assert abs(j.u - 1.0) < 1e-14
    assert abs(j.up + 0.5) < 1e-14
    assert abs(j.upp - 5.0 / 6.0) < 1e-13


def test_u_seam_consistency():
    # the Taylor and closed-form branches agree across the switch radius
    for s in (SERIES_RADIUS, -SERIES_RADIUS):
        for off in (0.999, 1.001):
            t = 1.0 + s * off
            j = u_jet(t)
            with mp.workdps(40):
                tm = mp.mpf(t)
                u = (tm - 1) / (tm * mp.log(tm))
                f = lambda s_: (s_ - 1) / (s_ * mp.log(s_))
                up = mp.diff(f, tm)
                upp = mp.diff(f, tm, 2)
            assert abs(j.u - float(u)) < 1e-9 * abs(float(u))
            assert abs(j.up - float(up)) < 1e-9 * abs(float(up))
            assert abs(j.upp - float(upp)) < 1e-7 * abs(float(upp))


def test_u_domain_clamp():
    with pytest.raises(DomainUnderflow):
        u_jet(T_MIN / 10)
    with pytest.raises(DomainOverflow):
        u_jet(T_MAX * 10)
    # boundary values are inside the domain and u itself stays finite
    assert np.isfinite(u_jet(T_MIN).u)
    assert np.isfinite(u_jet(T_MAX).u)


def test_u_jet_bit_identical_to_errstate_form():
    # u_jet computes on Python floats with no np.errstate and returns them
    # as Python floats; every value must keep the bits of the numpy-scalar form
    for t in profile_sweep():
        got, ref = u_jet(t), errstate_u_jet(t)
        assert type(got.t) is float and got.t == ref.t
        for x, y in zip((got.u, got.up, got.upp), (ref.u, ref.up, ref.upp)):
            assert type(x) is float and type(y) is np.float64, t
            assert np.float64(x).tobytes() == y.tobytes(), t


def test_u_jet_raises_no_warning():
    # u' and u'' saturate to +-inf near both ends without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in profile_sweep():
            u_jet(t)


def test_u_jet_nan_is_non_finite_input():
    with pytest.raises(NonFiniteInput):
        u_jet(float("nan"))


def _gamma_sweep() -> list[float]:
    # profile_sweep plus 20,000 log-uniform t over the whole domain
    rng = np.random.default_rng(13)
    lo, hi = math.log10(T_MIN), math.log10(T_MAX)
    return profile_sweep() + [float(10.0**x) for x in rng.uniform(lo, hi, 20_000)]


def test_gamma_jet_bit_identical_to_numpy_form():
    # gamma_jet computes on Python floats; every value, non-finite ones
    # included, must keep the bits and the np.float64 type of the
    # numpy-scalar form
    for t in _gamma_sweep():
        for x, y in zip(gamma_jet(t), numpy_gamma_jet(t)):
            assert type(x) is np.float64 and type(y) is np.float64, t
            assert x.tobytes() == y.tobytes(), t


def test_gamma_jet_raises_no_warning():
    # the squares saturate to inf without a RuntimeWarning, so an error
    # filter cannot turn an overflowing jet into an exception
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in profile_sweep():
            gamma_jet(t)
        assert gamma_jet(1e-80)[2] == math.inf


def test_gamma_jet_saturates_where_u_prime_squared_overflows():
    # u' is about -5.4e157 at t = 1e-80: _pow saturates its square to inf,
    # where Python's ** would raise OverflowError
    g, gp, gpp = gamma_jet(1e-80)
    assert math.isfinite(g)
    assert gpp == math.inf


def test_gamma_jet_derivatives():
    # gamma' and gamma'' against high-precision differentiation
    for t in (0.3, 1.0, 2.5, 7.0):
        g, gp, gpp = gamma_jet(t)
        with mp.workdps(40):
            tm = mp.mpf(t)

            def gam(s):
                u = (s - 1) / (s * mp.log(s)) if s != 1 else mp.mpf(1)
                return 1 + s * u**2

            assert abs(g - float(gam(tm))) < 1e-12
            assert abs(gp - float(mp.diff(gam, tm))) < 1e-9
            assert abs(gpp - float(mp.diff(gam, tm, 2))) < 1e-7


def test_grauert_density_values():
    e = float(np.e)
    j = hk_density_jet(1, np.sqrt(e))
    assert abs(j.h - (1 + (e - 1) ** 2 / e)) < 1e-13
    assert abs(hk_density_jet(1, 1.0).h - 2.0) < 1e-13


def test_density_jets_match_stencil():
    rng = np.random.default_rng(11)
    for k in (1, 2, 3):
        for _ in range(5):
            z = (0.3 + 2 * rng.random()) * np.exp(2j * np.pi * rng.random())
            j = hk_density_jet(k, z)

            def F(T, k=k):
                return hk_density_jet(k, z + T).h

            fd = wirtinger_fd(F, 0j)
            assert abs(fd.d - j.d) < 1e-5 * max(1.0, abs(j.d))
            assert abs(fd.ddbar - j.ddbar) < 1e-4 * max(1.0, abs(j.ddbar))


def test_pullback_density_jet_below_divisor_tol_is_on_divisor():
    # |g0|^2 = 1e-300 is below the profile's floor; the one divisor guard
    # rejects the point before the profile can report an underflow
    with pytest.raises(OnDivisor, match="f vanishes at"):
        pullback_density_jet(0.5, 1e-150, 1.0, 0.0, [1.0], [0.0])


def test_h2_at_unit_modulus():
    # k = 2, |z| = 1: h2 = 4 (1 + u^2(1)) = 8
    assert abs(hk_density_jet(2, np.exp(0.7j)).h - 8.0) < 1e-12


def test_m_factor_at_one():
    assert abs(m_factor(1.0) - 1.0 / 3.0) < 1e-13


@pytest.mark.parametrize("flt", ["default", "error"])
@pytest.mark.parametrize("r", [2.12e51, 2.25e51, 2.37e51, 2.4e51, 1e60, 1e77, 1e139])
def test_kg_overflow_is_domain_overflow(r, flt):
    # 2 t^3 in M(t) overflows a Python float from |z| ~ 2.1165e51: a declared
    # DomainOverflow under either warning filter, not a raw OverflowError
    # (or NaN, or under -W error a RuntimeWarning, from M's numpy terms, which
    # meet inf - inf once 2 t^3 is inf but t**3 is still finite)
    with warnings.catch_warnings():
        warnings.simplefilter(flt)
        with pytest.raises(DomainOverflow, match="log-domain form"):
            grauert_curvature(r * np.exp(0.3j))
        with pytest.raises(DomainOverflow):
            m_factor(r**2)


@pytest.mark.parametrize("r", [1.35e154, 1e155, 1e300])
def test_kg_t_overflow_is_domain_overflow(r):
    # |z|^2 overflows a Python float above |z| ~ 1.34e154: abs(z) ** 2 raised a
    # raw OverflowError before M(t) was reached
    z = r * np.exp(0.3j)
    with pytest.raises(DomainOverflow, match=r"\|z\|\^2 overflows at z = "):
        grauert_curvature(z)


def test_kg_below_overflow_stays_a_value():
    # the error path moved, not the threshold: just below it K_g is a value
    assert -1e-200 < grauert_curvature(2.0e51) < 0.0


def test_kg_against_high_precision_oracle():
    for t in (1e-8, 1e-3, 0.5, 1.0, 2.0, 50.0, 1e6):
        z = np.sqrt(t)
        assert abs(grauert_curvature(z) - kg_oracle(t)) < 1e-8 * max(
            1.0, abs(kg_oracle(t))
        )


def test_kg_at_one():
    assert abs(grauert_curvature(1.0) + 1.0 / 12.0) < 1e-9


def test_kg_rotation_invariance_and_sign():
    worst_var, worst_sign = 0.0, -np.inf
    for r in np.logspace(-12, 12, 25):
        vals = [grauert_curvature(r * np.exp(2j * np.pi * q / 8)) for q in range(8)]
        worst_var = max(worst_var, max(vals) - min(vals))
        worst_sign = max(worst_sign, max(vals))
    assert worst_var < 1e-10
    assert worst_sign <= 1e-10


def test_kg_limits():
    gaps = [abs(grauert_curvature(10.0**-m) + 4.0) for m in (4, 6, 8, 10)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.2
    far = [abs(grauert_curvature(10.0**m)) for m in (8, 9, 10)]
    assert all(b < a for a, b in zip(far, far[1:]))
    assert far[-1] < 0.2


def test_power_curvature_identity():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3, 5):
        for _ in range(10):
            z = (0.2 + 1.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
            a, b = power_curvature(k, z), grauert_curvature(z**k)
            assert abs(a - b) < 1e-8 * abs(b)


# the density terms overflow on this sweep, and must do so without a warning
def test_power_curvature_finite_or_declared_over_the_domain():
    # |z| in [1e-140, 1e140]: nan, inf and a raw OverflowError were returned
    # or raised on most of it; a finite value keeps the formula's bits
    finite = declared = 0
    for k in range(1, 6):
        for i, r in enumerate(np.logspace(-140, 140, 401)):
            z = complex(r * np.exp(0.7j * i))
            try:
                K = power_curvature(k, z)
            except GrauertError:
                declared += 1
                continue
            assert math.isfinite(K)
            assert float.hex(K) == float.hex(raw_conformal(hk_density_jet(k, z)))
            finite += 1
    assert finite > 200 and declared > 1500


def test_power_curvature_overflow_is_domain_overflow():
    # |z|^(2 (4k - 2)) overflows a Python float
    with pytest.raises(DomainOverflow, match="density jet of h_2 overflows.*log-domain"):
        hk_density_jet(2, 1e40)
    # the jet is finite, h^3 is not
    assert math.isfinite(hk_density_jet(1, 1e60).h)
    with pytest.raises(DomainOverflow, match=r"h\^3 overflows.*log-domain"):
        power_curvature(1, 1e60)


def test_hk_blow_up_and_vanishing_ratios():
    for k in (1, 2, 3):
        hs = [hk_density_jet(k, 10.0**-m).h for m in (1, 2, 3, 4)]
        assert all(b > a for a, b in zip(hs, hs[1:]))  # monotone blow-up
        j = hk_density_jet(k, 1e-8)
        assert abs(j.d) / j.h**3 < 1e-6
        assert abs(j.ddbar) / j.h**3 < 1e-6


def test_grauert_curvature_bits_match_m_factor_over_gamma_cubed():
    # one profile jet per K_g: the bits of -2 M(t) / gamma(t)^3 from m_factor
    # and gamma_jet, NaN below |z| ~ 1e-39 included
    def cube(x):
        try:
            return x**3
        except OverflowError:
            return math.inf

    for r in np.geomspace(1e-140, 1e51, 19101):
        t = float(r) ** 2
        want = -2.0 * m_factor(t) / cube(float(gamma_jet(t)[0]))
        assert np.float64(grauert_curvature(float(r))).tobytes() == np.float64(want).tobytes(), r


@pytest.mark.parametrize("r, message", [
    (2.2e51, "M(t) overflows at t = 4.84e+102 (|z| = 2.200e+51) in its t-domain form;"
             " a log-domain form of the profile would lift this limit"),
    (1.4e154, "|z|^2 overflows at z = (1.4e+154+0j) (|z| = 1.400e+154)"),
    (1e141, "t=1e+282 above domain ceiling 1e+280"),
])
def test_grauert_curvature_overflow_messages(r, message):
    with pytest.raises(DomainOverflow) as exc:
        grauert_curvature(r)
    assert type(exc.value) is DomainOverflow and str(exc.value) == message
