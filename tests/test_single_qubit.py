import math
import re

import numpy as np
import pytest

import reference
from coherence_bath import c_l1, c_re
from coherence_bath.boundary import (
    Geometry,
    PolarizationWeights,
    decay_rate,
    f_parallel,
    noise_to_damping,
    suppression_factor,
)
from coherence_bath.lindblad import GeneratorSpec, closed_form_initial, integrate
from coherence_bath.single_qubit import (
    CoherenceTrace,
    InitialAngles,
    OneSidedChannel,
    c_l1_single,
    c_re_single,
    dq_c_l1,
    dq_c_re,
    _freeze_verdict,
    evolve_closed_form,
    freezing_report,
)
from coherence_bath.two_qubit import channel_kraus

UNBOUNDED = Geometry.unbounded()
PARALLEL = PolarizationWeights.parallel()
GAMMA = decay_rate(suppression_factor(UNBOUNDED, PARALLEL))  # gamma_eff = 1: q' = q


def _channel(q, geometry=UNBOUNDED, polarization=PARALLEL, omega=1.0):
    """The channel at sweep point q: damping q' at gamma_eff, phase omega tau."""
    gamma = decay_rate(suppression_factor(geometry, polarization))
    return OneSidedChannel(noise_to_damping(q, gamma), omega * -math.log1p(-q))


def _random_environment(rng):
    if rng.uniform() < 0.25:
        geometry = UNBOUNDED
    else:
        geometry = Geometry.mirror(float(np.exp(rng.uniform(math.log(0.01), math.log(10.0)))))
    polarization = PolarizationWeights(*rng.dirichlet(np.ones(3)))
    return geometry, polarization


def test_initial_angles_validation():
    with pytest.raises(ValueError):
        InitialAngles(-0.1)
    with pytest.raises(ValueError):
        InitialAngles(math.pi + 0.1)
    with pytest.raises(ValueError):
        InitialAngles(1.0, -0.5)
    with pytest.raises(ValueError):
        InitialAngles(1.0, 2.0 * math.pi)


def test_channel_validation():
    for damping in (-0.1, 1.1):
        with pytest.raises(ValueError, match=r"damping must lie in \[0, 1\]"):
            OneSidedChannel(damping)
    with pytest.raises(ValueError, match="^damping must be finite, got nan$"):
        OneSidedChannel(math.nan)
    with pytest.raises(ValueError, match="^phase must be finite, got inf$"):
        OneSidedChannel(0.5, math.inf)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: OneSidedChannel(np.array([0.1, 0.2])), "damping"),
        (lambda: OneSidedChannel([0.5]), "damping"),
        (lambda: OneSidedChannel("0.5"), "damping"),
        (lambda: OneSidedChannel(0.5, "1.0"), "phase"),
        (lambda: c_l1_single(1.0, "0.5"), "damping q'"),
        (lambda: noise_to_damping("0.5", 0.5), "noise parameter q"),
        (lambda: f_parallel("0.05"), "boundary distance u"),
        (lambda: Geometry("0.5"), "boundary distance u"),
        (lambda: decay_rate("0.5"), "suppression factor f"),
    ],
    ids=["channel-array", "channel-list", "channel-text", "phase-text", "kernel-text", "noise-text",
         "response-text", "geometry-text", "rate-text"],
)
def test_input_that_is_not_a_real_number_is_a_type_error_naming_it(call, name):
    with pytest.raises(TypeError, match=f"^{re.escape(name)} must be a real number"):
        call()


def test_evolve_zero_damping_returns_initial_state():
    theta, phi = 1.1, 0.7
    rho = evolve_closed_form(InitialAngles(theta, phi), OneSidedChannel(0.0))
    assert np.allclose(rho, closed_form_initial(theta, phi), atol=1e-15)


def test_evolve_is_the_channel_on_atom_a(rng):
    # The atom-A factor of each two-qubit Kraus operator takes the initial
    # state to the closed form; this pins the phase sign both sizes share.
    ground = np.diag([0.0, 1.0])
    for k in range(2000):
        theta, phi = float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2.0 * math.pi))
        damping = (0.0, 1.0, float(rng.uniform(0.0, 1.0)))[k % 3]
        ch = OneSidedChannel(damping, float(rng.uniform(-10.0, 10.0)))
        rho0 = closed_form_initial(theta, phi)
        expected = sum(kraus[::2, ::2] @ rho0 @ kraus[::2, ::2].conj().T for kraus in channel_kraus(ch))
        rho = evolve_closed_form(InitialAngles(theta, phi), ch)
        assert np.max(np.abs(rho - expected)) <= 2e-15
        if damping == 1.0:
            assert np.allclose(rho, ground, atol=1e-15)


def test_evolve_worked_example():
    rho = evolve_closed_form(InitialAngles(math.pi / 2, 0.0), _channel(0.75))
    assert rho[0, 0].real == pytest.approx(0.125, abs=1e-15)
    assert abs(rho[0, 1]) == pytest.approx(0.25, abs=1e-15)


def test_evolve_takes_an_angle_tuple():
    ch = _channel(0.4)
    expected = evolve_closed_form(InitialAngles(1.0, 0.3), ch)
    assert np.array_equal(evolve_closed_form((1.0, 0.3), ch), expected)


def test_trajectory_examples():
    assert c_l1_single(math.pi / 2, noise_to_damping(0.75, GAMMA)) == pytest.approx(0.5)
    assert c_l1_single(0.0, noise_to_damping(0.5, GAMMA)) == 0.0
    assert c_re_single(math.pi / 2, noise_to_damping(0.0, GAMMA)) == pytest.approx(1.0)
    assert c_re_single(math.pi / 2, noise_to_damping(1.0, GAMMA)) == 0.0
    for q in (0.5, 0.75):  # q' = q at gamma_eff = 1
        assert c_re_single(math.pi / 2, noise_to_damping(q, GAMMA)) == pytest.approx(
            reference.c_re_single(math.pi / 2, q, dps=50), abs=1e-14
        )


def test_trajectory_constant_when_frozen():
    # gamma_eff is exactly zero at u = 1e-9, so the full grid including the
    # q = 1 endpoint stays at the initial value
    gamma = decay_rate(suppression_factor(Geometry.mirror(1e-9), PARALLEL))
    values_l1 = [c_l1_single(1.2, noise_to_damping(q, gamma)) for q in np.linspace(0, 1, 11)]
    values_re = [c_re_single(1.2, noise_to_damping(q, gamma)) for q in np.linspace(0, 1, 11)]
    assert max(values_l1) - min(values_l1) < 1e-12
    assert max(values_re) - min(values_re) < 1e-12
    # at u = 1e-7 gamma_eff ~ 8e-15 is positive: frozen for every finite
    # time, with the tau = infinity endpoint still the ground state
    near = decay_rate(suppression_factor(Geometry.mirror(1e-7), PARALLEL))
    interior = [c_l1_single(1.2, noise_to_damping(q, near)) for q in np.linspace(0, 0.99, 100)]
    assert max(interior) - min(interior) < 1e-12
    assert c_l1_single(1.2, noise_to_damping(1.0, near)) == 0.0


def test_closed_form_matches_measures_randomized(rng):
    for _ in range(200):
        geometry, polarization = _random_environment(rng)
        theta = float(rng.uniform(0.0, math.pi))
        q = float(rng.uniform(0.0, 0.999))
        ch = _channel(q, geometry, polarization, omega=float(rng.uniform(0.2, 3.0)))
        rho = evolve_closed_form(InitialAngles(theta, float(rng.uniform(0, 2 * math.pi))), ch)
        qp = noise_to_damping(q, decay_rate(suppression_factor(geometry, polarization)))
        assert abs(c_l1_single(theta, qp) - c_l1(rho)) < 1e-12
        assert abs(c_re_single(theta, qp) - c_re(rho)) < 1e-10


def test_closed_form_matches_integrator_spot_checks():
    cases = [
        (math.pi / 2, 0.3, UNBOUNDED, PARALLEL),
        (1.9, 0.6, Geometry.mirror(0.3), PolarizationWeights.perpendicular()),
        (0.7, 0.85, Geometry.mirror(3.0), PolarizationWeights.isotropic()),
    ]
    for theta, q, geometry, polarization in cases:
        gamma = decay_rate(suppression_factor(geometry, polarization))
        closed = evolve_closed_form(InitialAngles(theta, 0.2), _channel(q, geometry, polarization, omega=1.5))
        numeric = integrate(
            closed_form_initial(theta, 0.2),
            GeneratorSpec(gamma, omega=1.5),
            -math.log1p(-q),
        )
        assert np.max(np.abs(closed - numeric)) < 1e-8


def test_derivatives_match_central_differences(rng):
    step = 1e-5
    environments = [
        (UNBOUNDED, PARALLEL),
        (Geometry.mirror(0.3), PARALLEL),
        (Geometry.mirror(0.05), PolarizationWeights.perpendicular()),
        (Geometry.mirror(1.7), PolarizationWeights.isotropic()),
    ]
    for geometry, polarization in environments:
        f = suppression_factor(geometry, polarization)
        gamma = decay_rate(f)
        for theta in (0.4, 1.0, math.pi / 2, 2.3):
            for q in (0.1, 0.35, 0.6, 0.85):
                above, below = noise_to_damping(q + step, gamma), noise_to_damping(q - step, gamma)
                fd_l1 = abs(c_l1_single(theta, above) - c_l1_single(theta, below)) / (2 * step)
                fd_re = abs(c_re_single(theta, above) - c_re_single(theta, below)) / (2 * step)
                analytic_l1 = dq_c_l1(theta, q, f)
                analytic_re = dq_c_re(theta, q, f)
                if analytic_l1 > 1e-3:
                    assert abs(analytic_l1 - fd_l1) / analytic_l1 < 1e-6
                if analytic_re > 1e-3:
                    assert abs(analytic_re - fd_re) / analytic_re < 1e-6


def test_derivative_examples():
    assert dq_c_l1(math.pi / 2, 0.75, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert dq_c_l1(0.0, 0.5, 0.0) == 0.0
    assert dq_c_l1(1.3, 0.5, 1.0) == 0.0
    assert dq_c_re(1.3, 0.5, 1.0) == 0.0
    assert dq_c_re(math.pi, 0.5, 0.0) == 0.0


def test_derivative_domain_errors():
    for q in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError, match=re.escape(f"q must lie in (0, 1), got {q}")):
            dq_c_l1(1.0, q, 0.0)
        with pytest.raises(ValueError, match=re.escape(f"q must lie in (0, 1), got {q}")):
            dq_c_re(1.0, q, 0.0)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, -0.1, 3.2])
def test_theta_outside_zero_pi_rejected(theta):
    calls = [
        lambda: c_l1_single(theta, 0.5),
        lambda: c_re_single(theta, 0.5),
        lambda: dq_c_l1(theta, 0.5, 0.0),
        lambda: dq_c_re(theta, 0.5, 0.0),
        lambda: freezing_report(theta, UNBOUNDED, PARALLEL),
        lambda: c_l1_single(theta, [0.0, 0.5, 1.0]),
        lambda: c_re_single(theta, [0.0, 0.5, 1.0]),
    ]
    message = r"theta must lie in \[0, pi\]" if math.isfinite(theta) else f"theta must be finite, got {theta}$"
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_l1_strictly_decreasing_when_decaying():
    grid = np.linspace(0.0, 0.95, 40)
    for geometry, polarization in [
        (UNBOUNDED, PARALLEL),
        (Geometry.mirror(0.4), PolarizationWeights.isotropic()),
    ]:
        gamma = decay_rate(suppression_factor(geometry, polarization))
        values = [c_l1_single(1.0, noise_to_damping(q, gamma)) for q in grid]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_trajectories_independent_of_omega():
    # measures of the evolved matrix agree across omega up to round-off
    for q in (0.2, 0.6, 0.9):
        values = [
            c_l1(evolve_closed_form(InitialAngles(1.1, 0.3), _channel(q, omega=omega)))
            for omega in (0.5, 1.0, 2.0)
        ]
        assert max(values) - min(values) < 1e-15


def test_freezing_report_unbounded_not_frozen():
    report = freezing_report(math.pi / 2, UNBOUNDED, PARALLEL)
    assert not report.frozen
    assert report.reason == "none"
    assert report.sup_dq_c_l1 > 1.0
    assert report.numeric_consistent


def test_freezing_report_boundary_induced():
    report = freezing_report(math.pi / 2, Geometry.mirror(1e-7), PARALLEL)
    assert report.frozen
    assert report.reason == "boundary-induced"
    assert report.sup_dq_c_l1 < 1e-8 and report.sup_dq_c_re < 1e-8
    assert report.numeric_consistent


def test_freezing_report_trivial():
    for theta in (0.0, math.pi):
        report = freezing_report(theta, Geometry.mirror(0.5), PolarizationWeights.isotropic())
        assert report.frozen
        assert report.reason == "trivial"
        assert report.numeric_consistent


def test_near_boundary_not_exactly_frozen():
    # u = 1e-3 protects coherence well but does not meet the exact-freezing
    # predicate, and the derivative supremum says the same
    report = freezing_report(math.pi / 2, Geometry.mirror(1e-3), PARALLEL)
    assert not report.frozen
    assert report.sup_dq_c_l1 > 1e-8
    assert report.numeric_consistent


def test_freeze_verdict_flags_contradicting_suprema():
    # Decaying (f = 0.5) with no slope, and frozen (f = 1) with a slope of 1e-8.
    assert not _freeze_verdict(1.0, 0.5, 0.0, 0.0).numeric_consistent
    assert not _freeze_verdict(1.0, 1.0, 0.0, 1e-8).numeric_consistent
    assert not _freeze_verdict(1.0, 1.0, 1e-8, 0.0).numeric_consistent


def test_derivatives_clamp_round_off_rate():
    # f = 1 + 9.2e-14: gamma_eff is clamped to 0 by decay_rate.
    f = 1.0 + 9.2e-14
    assert dq_c_l1(math.pi / 2, 0.5, f) == 0.0
    assert dq_c_re(math.pi / 2, 0.5, f) == 0.0
    with pytest.raises(ValueError, match="negative beyond round-off"):
        dq_c_re(math.pi / 2, 0.5, 1.0 + 1e-9)


def test_trace_rejects_repeated_and_out_of_range_q():
    with pytest.raises(ValueError, match="strictly increasing"):
        CoherenceTrace([0.0, 0.0], [1.0, 0.9], [1.0, 0.9])
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        CoherenceTrace([1.5], [0.0], [0.0])


def test_phase_tracks_omega_and_phi():
    q = 0.4
    tau = -math.log1p(-q)
    rho = evolve_closed_form(InitialAngles(math.pi / 2, 0.7), _channel(q, omega=2.0))
    expected = -(2.0 * tau + 0.7)
    assert math.remainder(np.angle(rho[0, 1]) - expected, 2 * math.pi) == pytest.approx(
        0.0, abs=1e-12
    )


def test_damping_mapping_consistency(rng):
    # the exponent (1-q)^((1-f)/2) equals sqrt(1-q') elementwise
    for _ in range(20):
        geometry, polarization = _random_environment(rng)
        f = suppression_factor(geometry, polarization)
        gamma = decay_rate(f)
        q = float(rng.uniform(0.0, 0.999))
        direct = abs(math.sin(1.0)) * (1.0 - q) ** (0.5 * (1.0 - f))
        assert c_l1_single(1.0, noise_to_damping(q, gamma)) == pytest.approx(
            direct, abs=1e-12
        )
        assert noise_to_damping(q, gamma) == pytest.approx(
            1.0 - (1.0 - q) ** gamma, abs=1e-12
        )


@pytest.mark.parametrize(
    "theta, q, f",
    [(math.pi / 2, 1 - 1e-9, -1.0), (1.0, 1 - 1e-12, -0.5), (2.5, 1 - 2.0**-40, -1.0)],
)
def test_dq_c_re_where_damping_rounds_to_one(theta, q, f):
    # gamma = 1 - f > 1 rounds q' = 1 - (1-q)^gamma to 1 while q is inside (0, 1)
    assert -math.expm1((1 - f) * math.log1p(-q)) == 1.0
    value = dq_c_re(theta, q, f)
    assert math.isfinite(value) and value >= 0.0
    assert value == pytest.approx(reference.dq_c_re(theta, q, f, dps=400), rel=1e-7, abs=0.0)


@pytest.mark.parametrize(
    "theta, q, f",
    [
        (1e-8, 1e-16, 0.5),  # cos(theta) and 1 - q' round to 1
        (1e-12, 0.01, math.nextafter(1.0, 0.0)),  # the same at gamma = 2^-53
        (math.pi - 1e-4, 1e-308, 0.0),  # q'(1 + cos theta)^2 underflows to 0
    ],
)
def test_dq_c_re_where_rounding_empties_a_logarithm(theta, q, f):
    # 1 - bz or 1 - r rounds to zero or the subnormal range
    assert dq_c_re(theta, q, f) == pytest.approx(reference.dq_c_re(theta, q, f, dps=400), rel=1e-6, abs=0.0)


@pytest.mark.parametrize(
    "theta, q, f",
    [
        (math.pi / 2, 1e-300, 1 - 1e-13),  # (1 + r) / (1 - r) overflows
        (2.0, 1e-310, 0.0),  # 1 - r is subnormal, the ratio overflows
    ],
)
def test_dq_c_re_where_the_damping_is_subnormal(theta, q, f):
    # q' = gamma q is subnormal, so log2(q'(1 - q')) is taken as log2(gamma) + log2(q)
    assert dq_c_re(theta, q, f) == pytest.approx(reference.dq_c_re(theta, q, f, dps=400), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "theta, q, f",
    [
        (1.0, 5e-324, 0.5),  # gamma q rounds q' to 0
        (2.0, 1e-320, 0.9),  # q' is subnormal
        (1e-200, 5e-324, 0.5),  # and so is 1 - bz = 2 (sin^2(theta/2) + q')
        (1e-160, 1e-320, 0.0),
    ],
)
def test_dq_c_re_where_damping_underflows(theta, q, f):
    # q' = gamma q (1 + O(q)) below the normal range
    assert dq_c_re(theta, q, f) == pytest.approx(reference.dq_c_re(theta, q, f, dps=400), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("theta", [0.3, math.pi / 2])
def test_dq_c_re_beyond_max_float_is_a_value_error(theta):
    # At f = -1e308 the true |dC_re/dq| is 4.3e309 (theta = 0.3) or 1.3e309.
    assert reference.dq_c_re(theta, 5e-324, -1e308, dps=400) == math.inf
    message = rf"^\|dC_re/dq\| at theta={re.escape(repr(theta))}, q=5e-324, f=-1e\+308 overflows a float$"
    with pytest.raises(ValueError, match=message):
        dq_c_re(theta, 5e-324, -1e308)
