import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from coherence_bath.boundary import (
    TERMWISE_U,
    _closed_response,
    _series_coefficients,
    _series_response,
    Geometry,
    PolarizationWeights,
    f_parallel,
    f_perpendicular,
    decay_rate,
    noise_to_damping,
    suppression_factor,
)


def test_reference_constants_match_high_precision_oracle():
    # The stated u = 1/10 values; the series cut at u^4 gives 0.99201714, 1.4e-8 off.
    assert abs(reference.f_parallel("0.1", dps=50) - 0.99201712593554238) < 1e-15
    assert abs(reference.f_perpendicular("0.1", dps=50) - -0.99600571005483346) < 1e-15


def test_f_parallel_reference_value():
    assert f_parallel(0.1) == pytest.approx(reference.f_parallel("0.1", dps=50), abs=1e-8)


def test_f_perpendicular_reference_value():
    assert f_perpendicular(0.1) == pytest.approx(reference.f_perpendicular("0.1", dps=50), abs=1e-8)


def test_f_functions_against_mpmath(rng):
    for _ in range(25):
        u = float(np.exp(rng.uniform(math.log(1e-3), math.log(50.0))))
        assert f_parallel(u) == pytest.approx(reference.f_parallel(u, dps=50), abs=1e-12)
        assert f_perpendicular(u) == pytest.approx(reference.f_perpendicular(u, dps=50), abs=1e-12)



@settings(max_examples=200, deadline=None)
@given(st.floats(1e100, 1.7976931348623157e308))
@example(math.nextafter(TERMWISE_U, 0.0))  # the last u of the one-division form
@example(2.3858351919610475e102)  # 16 u**3 = inf: the one-division form gave -0.0
@example(1e200)  # u**3 raised OverflowError
@example(1.7976931348623157e308)  # 2u = inf
def test_f_functions_against_mpmath_up_to_max_float(u):
    # Tolerance 1e-13 of the envelopes 3/(4u) and 3/(4u^2), plus a few
    # subnormal ulps where they underflow.
    par_envelope, perp_envelope = 3.0 / (4.0 * u), 3.0 / (4.0 * u) / u
    assert abs(f_parallel(u) - reference.f_parallel(u, dps=50)) <= 1e-13 * par_envelope + 1e-322
    assert abs(f_perpendicular(u) - reference.f_perpendicular(u, dps=50)) <= 1e-13 * perp_envelope + 1e-322


def test_series_coefficients_equal_exact_fractions():
    par, perp = _series_coefficients(30)
    for m in range(30):
        base = Fraction((-1 if m % 2 == 0 else 1) * 2 ** (2 * m + 3))
        f1, f2, f3 = (Fraction(1, math.factorial(2 * m + k)) for k in (2, 3, 1))
        assert par[m] == float(Fraction(3, 16) * base * (f1 - f2 - f3))
        assert perp[m] == float(Fraction(3, 8) * base * (f1 - f2))

def test_small_u_limits():
    assert f_parallel(1e-8) == pytest.approx(1.0, abs=1e-12)
    assert f_perpendicular(1e-8) == pytest.approx(-1.0, abs=1e-12)


def test_series_leading_terms():
    # 1 - (4/5) u^2 + (6/35) u^4 - (16/945) u^6 and
    # -1 + (2/5) u^2 - (2/35) u^4 + (4/945) u^6
    u = 0.02
    par, perp = _series_response(u)
    assert par == pytest.approx(1 - 0.8 * u**2 + (6 / 35) * u**4 - (16 / 945) * u**6, abs=1e-14)
    assert perp == pytest.approx(-1 + 0.4 * u**2 - (2 / 35) * u**4 + (4 / 945) * u**6, abs=1e-14)


def test_series_direct_agreement_on_overlap_window():
    for u in np.linspace(0.05, 0.5, 90).tolist():
        series, closed = _series_response(u), _closed_response(u)
        assert abs(series[0] - closed[0]) < 1e-9
        assert abs(series[1] - closed[1]) < 1e-9


def test_continuity_at_switchover():
    eps = 1e-9
    assert abs(f_parallel(0.1 - eps) - f_parallel(0.1 + eps)) < 1e-8
    assert abs(f_perpendicular(0.1 - eps) - f_perpendicular(0.1 + eps)) < 1e-8


def test_response_magnitude_bounded():
    for u in np.geomspace(1e-3, 1e3, 500):
        assert abs(f_parallel(u)) <= 1.0 + 1e-9
        assert abs(f_perpendicular(u)) <= 1.0 + 1e-9


def test_parallel_asymptotic_envelope():
    for u in np.geomspace(10.0, 1e4, 300):
        bound = 3.0 / (4.0 * u) + 3.0 * (2.0 * u + 1.0) / (16.0 * u**3)
        assert abs(f_parallel(u)) <= bound + 1e-12


def test_far_field_tails():
    assert abs(f_parallel(1000.0)) < 8e-4
    assert abs(f_perpendicular(1000.0)) < 2e-3


def test_far_field_suppression_sup():
    presets = [
        PolarizationWeights.parallel(),
        PolarizationWeights.perpendicular(),
        PolarizationWeights.isotropic(),
    ]
    grid = np.linspace(1000.0, 2000.0, 1000)
    for preset in presets:
        sup = max(abs(suppression_factor(Geometry.mirror(u), preset)) for u in grid)
        assert sup < 2e-3


def test_f_domain_errors():
    # NaN and +-inf: tests/test_contracts.py
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match=f"^boundary distance u must be positive, got {bad}$"):
            f_parallel(bad)
        with pytest.raises(ValueError, match=f"^boundary distance u must be positive, got {bad}$"):
            f_perpendicular(bad)


def test_polarization_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        PolarizationWeights(-0.1, 0.6, 0.5)
    with pytest.raises(ValueError, match="sum to 1"):
        PolarizationWeights(0.5, 0.5, 0.5)


def test_geometry_validation():
    message = "boundary distance u must be positive"
    with pytest.raises(ValueError, match=message):
        Geometry.mirror(0.0)
    with pytest.raises(ValueError, match=message):
        Geometry.mirror(-2.0)
    with pytest.raises(ValueError, match="^boundary distance u must be finite, got inf$"):
        Geometry.mirror(math.inf)
    assert not Geometry.unbounded().has_boundary
    assert Geometry.mirror(0.3).has_boundary
    assert type(Geometry(np.float64(0.3)).u) is float  # the value _check_u returns


def test_suppression_factor_cases():
    assert suppression_factor(Geometry.unbounded(), PolarizationWeights.perpendicular()) == 0.0
    near = Geometry.mirror(1e-7)
    assert suppression_factor(near, PolarizationWeights(0.5, 0.5, 0.0)) == pytest.approx(
        1.0, abs=1e-12
    )
    assert suppression_factor(near, PolarizationWeights.isotropic()) == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )


def test_decay_rate_unbounded_exact():
    assert decay_rate(suppression_factor(Geometry.unbounded(), PolarizationWeights.isotropic())) == 1.0


def test_decay_rate_boundary_cases():
    near = Geometry.mirror(1e-7)
    assert decay_rate(suppression_factor(near, PolarizationWeights.parallel())) == pytest.approx(0.0, abs=1e-12)
    assert decay_rate(suppression_factor(near, PolarizationWeights.perpendicular())) == pytest.approx(2.0, abs=1e-12)
    assert decay_rate(suppression_factor(Geometry.mirror(0.7), PolarizationWeights.isotropic())) >= 0.0
    assert decay_rate(1.0 + 9.2e-14) == 0.0  # round-off below zero is clamped
    with pytest.raises(ValueError, match="negative beyond round-off"):
        decay_rate(1.0 + 1e-9)


def test_noise_to_damping_mapping():
    assert noise_to_damping(0.5, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert noise_to_damping(0.75, 2.0) == pytest.approx(1.0 - 0.25**2, abs=1e-15)
    assert noise_to_damping(0.9, 0.0) == 0.0
    assert noise_to_damping(1.0, 0.0) == 0.0
    assert noise_to_damping(1.0, 0.3) == 1.0
    with pytest.raises(ValueError):
        noise_to_damping(1.5, 1.0)
    with pytest.raises(ValueError):
        noise_to_damping(0.5, -0.1)


@pytest.mark.parametrize("gamma_eff", [math.nan, math.inf])
def test_noise_to_damping_rejects_non_finite_rate(gamma_eff):
    for q in (0.5, np.array([0.0, 0.5, 1.0])):
        with pytest.raises(ValueError, match=f"^gamma_eff must be finite, got {gamma_eff}$"):
            noise_to_damping(q, gamma_eff)
