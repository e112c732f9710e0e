import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from coherence_bath import lindblad
from coherence_bath.boundary import decay_rate
from coherence_bath.lindblad import (
    GeneratorSpec,
    InstabilityError,
    IntegratorConfig,
    _PCG64,
    closed_form_initial,
    integrate,
    liouvillian_matrix,
    validate_all,
)
from coherence_bath.qmath import PAULI
from coherence_bath.single_qubit import InitialAngles, OneSidedChannel, evolve_closed_form
from coherence_bath.two_qubit import apply_one_sided_channel, bd_density

UNBOUNDED_SPEC = GeneratorSpec(0.25, 0.25, omega=0.0, n_qubits=1)


def test_spec_validation():
    with pytest.raises(ValueError, match="complete positivity"):
        GeneratorSpec(0.1, 0.3)
    with pytest.raises(ValueError, match="n_qubits"):
        GeneratorSpec(0.25, 0.25, n_qubits=3)
    with pytest.raises(ValueError, match="finite"):
        GeneratorSpec(math.nan, 0.0)


@pytest.mark.parametrize("n_qubits", [2.0, True, "2"])
def test_spec_takes_only_an_int_qubit_count(n_qubits):
    # 2.0 once gave the float dim 4.0, and True passed as one qubit.
    with pytest.raises(TypeError, match="n_qubits must be an int"):
        GeneratorSpec(0.25, 0.25, 0.0, n_qubits)


def test_integrator_config_validation():
    with pytest.raises(ValueError, match="at most 1e-2"):
        IntegratorConfig(0.5)
    with pytest.raises(ValueError, match="positive"):
        IntegratorConfig(0.0)


def _generator(spec, rho):
    """d rho / d tau: the Liouvillian times the row-major vec rho."""
    return (liouvillian_matrix(spec) @ rho.reshape(-1)).reshape(rho.shape)


def test_rhs_zero_generator():
    rho = closed_form_initial(1.1, 0.4)
    assert np.max(np.abs(_generator(GeneratorSpec(0.0, 0.0, omega=0.0), rho))) == 0.0


def test_rhs_ground_state_stationary():
    assert np.max(np.abs(_generator(UNBOUNDED_SPEC, np.diag([0.0, 1.0]).astype(complex)))) < 1e-15


def test_rhs_excited_state_decay_rate():
    derivative = _generator(UNBOUNDED_SPEC, np.diag([1.0, 0.0]).astype(complex))
    assert derivative[0, 0].real == pytest.approx(-1.0, abs=1e-14)
    assert derivative[1, 1].real == pytest.approx(1.0, abs=1e-14)


def test_rhs_preserves_trace_and_hermiticity(rng, random_density):
    for n_qubits, omega in ((1, 2.4), (2, 1.7)):
        spec = GeneratorSpec(0.3, 0.2, omega=omega, n_qubits=n_qubits)
        for _ in range(10):
            out = _generator(spec, random_density(rng, spec.dim))
            assert abs(out.trace()) < 1e-14
            assert np.max(np.abs(out - out.conj().T)) < 1e-13


def test_rhs_two_qubit_acts_on_a_only(rng, random_density):
    # ground-A tensor anything is stationary for the damping generator
    spec = GeneratorSpec(0.25, 0.25, omega=0.7, n_qubits=2)
    rho = np.kron(np.diag([0.0, 1.0]).astype(complex), random_density(rng, 2))
    assert np.max(np.abs(_generator(spec, rho))) < 1e-14


def _docstring_generator(spec, rho):
    """The module docstring's L[rho], summed term by term over i, j = 1..3."""
    sigmas = [np.kron(s, np.eye(spec.dim // 2)) for s in PAULI]
    a, b = spec.a_coeff, spec.b_coeff
    # a_ij = A delta_ij - i B eps_ij3 - A delta_i3 delta_j3
    kossakowski = np.array([[a, -1.0j * b, 0.0], [1.0j * b, a, 0.0], [0.0, 0.0, a - a]])
    out = -1.0j * (0.5 * spec.omega) * (sigmas[2] @ rho - rho @ sigmas[2])
    for i, s_i in enumerate(sigmas):
        for j, s_j in enumerate(sigmas):
            term = 2.0 * (s_j @ rho @ s_i) - (s_i @ s_j) @ rho - rho @ (s_i @ s_j)
            out = out + 0.5 * kossakowski[i, j] * term
    return out


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_liouvillian_equals_the_docstring_generator(rng, n_qubits):
    # Reference: the sigma-operator dissipator plus commutator, one matrix unit at a time.
    for trial in range(100):
        a = float(rng.uniform(0.0, 1.0))
        b = a if trial % 2 else float(rng.uniform(-a, a))
        spec = GeneratorSpec(a, b, float(rng.uniform(-5.0, 5.0)), n_qubits)
        d = spec.dim
        reference = np.zeros((d * d, d * d), dtype=complex)
        for k in range(d * d):
            unit = np.zeros((d, d), dtype=complex)
            unit[k // d, k % d] = 1.0
            reference[:, k] = _docstring_generator(spec, unit).reshape(-1)
        mat = liouvillian_matrix(spec)
        if a == b:  # every validate case: A = B = gamma_eff / 4
            assert mat.tobytes() == reference.tobytes()
        else:
            assert np.max(np.abs(mat - reference)) <= 1e-15


def test_integrate_zero_time_identity(rng, random_density):
    rho = random_density(rng, 2)
    assert np.array_equal(integrate(rho, UNBOUNDED_SPEC, 0.0), rho)


def test_integrate_matches_closed_form_single():
    tau = math.log(4.0)  # q = q' = 0.75 in the unbounded vacuum
    closed = evolve_closed_form(InitialAngles(math.pi / 2, 0.0), OneSidedChannel(0.75, 1.0 * tau))
    numeric = integrate(
        closed_form_initial(math.pi / 2, 0.0), GeneratorSpec(0.25, 0.25, omega=1.0), tau
    )
    assert np.max(np.abs(closed - numeric)) < 1e-8


def test_integrate_matches_channel_two_qubit():
    bd = (0.8, 0.4, -0.2)
    tau = math.log(4.0)
    closed = apply_one_sided_channel(bd_density(bd), OneSidedChannel(0.75, 1.3 * tau))
    numeric = integrate(bd_density(bd), GeneratorSpec(0.25, 0.25, omega=1.3, n_qubits=2), tau)
    assert np.max(np.abs(closed - numeric)) < 1e-8


def test_convergence_is_fourth_order():
    # halving the step must cut the closed-form deviation by ~16; require 12
    tau = 1.0
    channel = OneSidedChannel(-math.expm1(-tau), 2.0 * tau)  # unbounded vacuum: q' = q
    closed = evolve_closed_form(InitialAngles(math.pi / 2, 0.0), channel)
    rho0 = closed_form_initial(math.pi / 2, 0.0)
    spec = GeneratorSpec(0.25, 0.25, omega=2.0)
    err_coarse = np.max(
        np.abs(closed - integrate(rho0, spec, tau, IntegratorConfig(0.01)))
    )
    err_fine = np.max(
        np.abs(closed - integrate(rho0, spec, tau, IntegratorConfig(0.005)))
    )
    assert err_coarse > 1e-13  # above round-off, so the ratio is meaningful
    assert err_coarse / err_fine >= 12.0


def test_trace_and_hermiticity_drift_long_run():
    rho0 = closed_form_initial(2.0, 1.0)
    out = integrate(rho0, GeneratorSpec(0.25, 0.25, omega=3.0), 10.0)
    assert abs(out.trace() - 1.0) < 1e-9
    assert np.max(np.abs(out - out.conj().T)) < 1e-9


def test_stationary_states():
    ground = np.diag([0.0, 1.0]).astype(complex)
    out = integrate(ground, GeneratorSpec(0.25, 0.25, omega=1.0), 5.0)
    assert np.max(np.abs(out - ground)) < 1e-10
    ground_a = np.kron(ground, np.diag([0.3, 0.7]).astype(complex))
    out2 = integrate(ground_a, GeneratorSpec(0.25, 0.25, omega=1.0, n_qubits=2), 5.0)
    assert np.max(np.abs(out2 - ground_a)) < 1e-10


def test_phase_advances_as_minus_omega_tau():
    omega, tau, phi = 2.0, 0.8, 0.5
    out = integrate(closed_form_initial(math.pi / 2, phi), GeneratorSpec(0.25, 0.25, omega=omega), tau)
    expected = -(omega * tau + phi)
    assert math.remainder(float(np.angle(out[0, 1])) - expected, 2.0 * math.pi) == pytest.approx(
        0.0, abs=1e-6
    )


def test_default_display_scale_phase_matches():
    # omega = 100 needs a finer step for 1e-8 phase
    # accuracy; (omega h)^5 per step at h = 5e-5 leaves ample margin
    q, omega = 0.6, 100.0
    tau = -math.log1p(-q)
    closed = evolve_closed_form(InitialAngles(math.pi / 2, 0.3), OneSidedChannel(q, omega * tau))
    numeric = integrate(
        closed_form_initial(math.pi / 2, 0.3),
        GeneratorSpec(0.25, 0.25, omega=omega),
        tau,
        IntegratorConfig(5e-5),
    )
    assert np.max(np.abs(closed - numeric)) < 1e-8


def test_instability_raises_with_suggestion():
    rho0 = closed_form_initial(math.pi / 2, 0.0)
    with pytest.raises(InstabilityError, match="retry with step"):
        integrate(rho0, GeneratorSpec(500.0, 0.0), 1.0, IntegratorConfig(1e-2))


def test_instability_within_round_off_asks_for_half_the_step():
    with pytest.raises(InstabilityError, match=r"retry with step <= 5\.000e-03"):
        integrate(np.diag([1, 0]), GeneratorSpec(72.5, 72.5), 0.1, IntegratorConfig(0.01))


def test_integrate_rejects_a_mismatched_state():
    with pytest.raises(ValueError, match="state dimension 4 does not match spec dim 2"):
        integrate(np.eye(4) / 4, UNBOUNDED_SPEC, 0.1)


@pytest.mark.parametrize("tau", [-1.0, math.nan])
def test_integrate_rejects_a_bad_time(tau):
    with pytest.raises(ValueError, match="tau must be finite and nonnegative"):
        integrate(np.eye(2) / 2, UNBOUNDED_SPEC, tau)


def test_overflowing_generator_raises_instability_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstabilityError, match="diverged"):
            integrate(np.eye(2) / 2, GeneratorSpec(0.25, 0.25, 1e308), 0.01)


@pytest.mark.parametrize("spec", [GeneratorSpec(1e308, 1e308), GeneratorSpec(1e308, -1e308, 1e308, 2)])
def test_overflowing_liouvillian_raises_value_error_without_warnings(spec):
    # No step size can fix a generator whose entries overflow, so it is an input error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            liouvillian_matrix(spec)
        with pytest.raises(ValueError, match="overflows"):
            integrate(np.eye(spec.dim) / spec.dim, spec, 0.01)


def test_frozen_generator_keeps_initial_state():
    rho0 = closed_form_initial(math.pi / 2, 0.9)
    out = integrate(rho0, GeneratorSpec(2e-15, 2e-15, omega=0.0), 2.0)
    assert np.max(np.abs(out - rho0)) < 1e-10


def test_validate_all_default_run():
    report = validate_all(42, 50)
    assert report.max_error < 1e-8
    assert report.passed
    assert report.re_formula_gap > 0.0
    assert "c1" in report.re_formula_gap_case or "two-qubit" in report.re_formula_gap_case


def test_validate_all_deterministic():
    first = validate_all(7, 12)
    second = validate_all(7, 12)
    assert first == second


def test_validate_all_single_frozen_case():
    report = validate_all(123, 1)
    assert report.max_error < 1e-10
    assert "frozen" in report.worst_case


def test_validate_all_degenerate_theta_case():
    report = validate_all(123, 2)
    assert report.max_error < 1e-10  # both corner cases are tiny-error


def test_validate_all_rejects_bad_count():
    with pytest.raises(ValueError):
        validate_all(1, 0)


def test_validate_cases_use_the_zero_temperature_generator(monkeypatch):
    # A = B = gamma_eff / 4 (Benatti, Floreani & Piani, PRL 91, 070402 (2003))
    rates, specs = [], []
    monkeypatch.setattr(lindblad, "decay_rate", lambda f: rates.append(decay_rate(f)) or rates[-1])
    monkeypatch.setattr(lindblad, "integrate", lambda rho0, spec, tau, cfg: specs.append(spec) or rho0)
    validate_all(3, 40)
    assert {spec.n_qubits for spec in specs} == {1, 2}
    for spec, gamma in zip(specs, rates, strict=True):
        assert spec.a_coeff == spec.b_coeff == 0.25 * gamma
    assert specs[1].a_coeff == 0.25  # unbounded: gamma_eff = 1


def _case_draws(rng, cube) -> list:
    """The draw kinds of one random case, in the order ``_case`` makes them;
    ``cube`` draws the three Bell-diagonal coefficients."""
    return [
        int(rng.integers(0, 3)),
        float(rng.uniform(math.log(0.05), math.log(5.0))),
        float(rng.uniform(0.0, math.pi)),
        float(rng.uniform(0.0, 2.0 * math.pi)),
        float(rng.uniform(0.05, 0.95)),
        float(rng.uniform(0.1, 4.0)),
        cube(rng),
        int(rng.integers(0, 3)),
    ]


def test_case_stream_matches_numpy_default_rng():
    edge = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**200 + 12345]
    seeds = edge + np.random.default_rng(2024).integers(0, 2**63, size=1000).tolist()
    for seed in seeds:
        ours, numpys = _PCG64(seed), np.random.default_rng(seed)
        for _ in range(3):
            expected = _case_draws(numpys, lambda rng: rng.uniform(-1.0, 1.0, size=3).tolist())
            assert _case_draws(ours, lambda rng: [rng.uniform(-1.0, 1.0) for _ in range(3)]) == expected, seed


def test_case_stream_of_seed_1_is_pinned():
    # numpy's default_rng(1) gave these; a 64-bit draw between two 32-bit
    # ones keeps the high half of the first 32-bit draw for the second
    rng = _PCG64(1)
    draws = [rng.integers(0, 3), rng.uniform(0.0, 1.0), rng.integers(0, 3), rng.integers(0, 3)]
    draws += [rng.uniform(-1.0, 1.0) for _ in range(3)] + [rng.integers(0, 3)]
    assert draws == [
        1, 0.9504636963259353, 1, 0, 0.8972988942744877, -0.3763370959790291, -0.1533471020548487, 0
    ]


def test_bounded_draw_redraws_below_the_threshold(monkeypatch):
    # A first word of 0 leaves 0 in the low half, below (2**32 - 3) % 3 = 1,
    # so Lemire's method draws again and keeps the high half of 3 w.
    rng, w = _PCG64(1), 0x9E3779B9
    words = iter([0, w])
    monkeypatch.setattr(rng, "_next32", lambda: next(words))
    assert rng.integers(0, 3) == (3 * w) >> 32
    assert next(words, None) is None  # both words consumed


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (-(2**70), ValueError), (1.5, TypeError)])
def test_validate_all_rejects_a_seed_default_rng_rejects(seed, error):
    with pytest.raises(error):
        np.random.default_rng(seed)
    with pytest.raises(error):
        validate_all(seed, 1)


def test_validate_all_keeps_the_first_of_equal_errors(monkeypatch):
    # Every entry of a closed form is within 1 of 0, below half an ulp of
    # 1e20, so every case errs by exactly 1e20.
    specs = []

    def far(rho0, spec, tau, cfg):
        specs.append(spec)
        return np.full((spec.dim, spec.dim), 1e20)

    monkeypatch.setattr(lindblad, "integrate", far)
    report = validate_all(3, 130)
    assert len(specs) == 130
    assert report.max_error == 1e20
    assert report.worst_case.startswith("single-qubit theta=1.571 phi=0.300 mirror u=1e-07 (frozen)")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau, step", [(1.0, 5e-324), (1.0, 1e-300), (1e14, 1e-2)])
def test_integrate_rejects_more_than_2_53_steps(tau, step):
    rho0 = closed_form_initial(math.pi / 2, 0.0)
    with pytest.raises(ValueError, match=rf"tau = {tau!r} at step {step!r} needs more than 2\*\*53"):
        integrate(rho0, UNBOUNDED_SPEC, tau, IntegratorConfig(step))


@st.composite
def _oracle_cases(draw, n_qubits):
    """(spec, tau, state seed); the step counts cover tau = 0, matrix_power's
    special cases 1-3 and bit patterns up to 3000 steps."""
    a = draw(st.floats(0.0, 1.0))
    spec = GeneratorSpec(a, draw(st.floats(-a, a)), draw(st.floats(-5.0, 5.0)), n_qubits)
    n_steps = draw(st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(4, 3000)))
    tau = 0.0 if n_steps == 0 else (n_steps - draw(st.floats(0.0, 0.999))) * 1e-3
    return spec, tau, draw(st.integers(0, 2**32 - 1))


def _classical_rk4(spec, rho, tau, step):
    """The k1-k4 RK4 loop with uniform steps h <= step, on the vectorized state."""
    n_steps = max(1, math.ceil(tau / step))
    h, generator, vec = tau / n_steps, liouvillian_matrix(spec), rho.reshape(-1)
    for _ in range(n_steps):
        k1 = generator @ vec
        k2 = generator @ (vec + 0.5 * h * k1)
        k3 = generator @ (vec + 0.5 * h * k2)
        k4 = generator @ (vec + h * k3)
        vec = vec + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return vec.reshape(rho.shape)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([1, 2]).flatmap(_oracle_cases))
def test_integrate_equals_a_classical_rk4_loop(random_density, case):
    spec, tau, seed = case
    rho = random_density(np.random.default_rng(seed), spec.dim)
    out = integrate(rho, spec, tau)
    if tau == 0.0:
        assert out.tobytes() == rho.tobytes()
    else:
        assert np.max(np.abs(out - _classical_rk4(spec, rho, tau, IntegratorConfig().step))) < 1e-12


def test_instability_names_the_step_and_the_first_failing_case(monkeypatch):
    rho0 = closed_form_initial(math.pi / 2, 0.0)
    with pytest.raises(InstabilityError, match="diverged at step 1.000e-02"):
        integrate(rho0, GeneratorSpec(500.0, 0.0), 1.0, IntegratorConfig(1e-2))
    with pytest.raises(InstabilityError, match="diverged at step 9.950e-03"):
        integrate(rho0, GeneratorSpec(900.0, 0.0), 0.995, IntegratorConfig(1e-2))
    # At 2e-16 case 1 loses its trace to round-off, and a later case would
    # need more than 2**53 steps; the first failing case is the one reported.
    taus = []

    def traced(rho0, spec, tau, cfg):
        taus.append(tau)
        return integrate(rho0, spec, tau, cfg)

    monkeypatch.setattr(lindblad, "integrate", traced)
    with pytest.raises(InstabilityError, match="round-off dominates"):
        validate_all(1, 50, IntegratorConfig(2e-16))
    assert taus == [-math.log1p(-0.7), -math.log1p(-0.5)]  # cases 0 and 1, no further


# (seed, cases) -> repr(max_error), worst case and relative-entropy gap case,
# as validate reported them when it integrated one case at a time.
_VALIDATE_GOLDEN = {
    (1, 50): (
        "4.645329470145888e-12",
        "single-qubit theta=1.764 phi=4.887 mirror u=0.13 pol=parallel q=0.887 omega=3.507",
        "two-qubit c=(-0.324,-0.736,-0.227) unbounded pol=perpendicular q=0.397 omega=0.177: "
        "|exact - closed form| = 3.190e-01",
    ),
    (1, 400): (
        "8.635936812844416e-12",
        "two-qubit c=(-0.776,-0.990,-0.769) mirror u=1e-07 (near boundary) pol=parallel q=0.916 omega=3.940",
        "two-qubit c=(0.685,-0.671,0.608) mirror u=1e-07 (near boundary) pol=parallel q=0.835 omega=3.994: "
        "|exact - closed form| = 4.853e-01",
    ),
    (1, 2000): (
        "9.118621548033539e-12",
        "single-qubit theta=0.902 phi=1.441 mirror u=1e-07 (near boundary) pol=parallel q=0.941 omega=3.969",
        "two-qubit c=(-0.713,0.882,0.629) mirror u=1e-07 (near boundary) pol=isotropic q=0.231 omega=3.084: "
        "|exact - closed form| = 6.486e-01",
    ),
    (2, 50): (
        "1.6447935123282783e-12",
        "single-qubit theta=2.289 phi=3.795 unbounded pol=perpendicular q=0.874 omega=3.686",
        "two-qubit c=(-0.630,0.563,0.432) mirror u=0.08208 pol=parallel q=0.752 omega=0.305: "
        "|exact - closed form| = 4.158e-01",
    ),
    (2, 400): (
        "2.170320884833127e-12",
        "single-qubit theta=1.946 phi=5.959 unbounded pol=perpendicular q=0.890 omega=3.734",
        "two-qubit c=(0.967,-0.734,0.752) mirror u=0.2242 pol=parallel q=0.135 omega=2.313: "
        "|exact - closed form| = 7.656e-01",
    ),
    (2, 2000): (
        "5.8351495999786775e-12",
        "single-qubit theta=1.097 phi=5.022 mirror u=0.2828 pol=parallel q=0.918 omega=3.688",
        "two-qubit c=(0.725,-0.978,0.737) mirror u=1e-07 (near boundary) pol=parallel q=0.142 omega=3.782: "
        "|exact - closed form| = 7.870e-01",
    ),
    (3, 50): (
        "1.0987615564452655e-12",
        "single-qubit theta=1.959 phi=3.813 mirror u=4.243 pol=parallel q=0.924 omega=3.169",
        "two-qubit c=(0.842,-0.588,0.702) mirror u=1e-07 (near boundary) pol=isotropic q=0.227 omega=0.803: "
        "|exact - closed form| = 4.453e-01",
    ),
    (3, 400): (
        "2.7258142294137413e-12",
        "single-qubit theta=1.891 phi=5.315 unbounded pol=perpendicular q=0.782 omega=3.922",
        "two-qubit c=(-0.723,0.858,0.647) mirror u=0.3138 pol=isotropic q=0.143 omega=3.349: "
        "|exact - closed form| = 6.497e-01",
    ),
    (3, 2000): (
        "8.13882158121931e-12",
        "single-qubit theta=1.116 phi=3.439 mirror u=1e-07 (near boundary) pol=parallel q=0.908 omega=3.907",
        "two-qubit c=(-0.924,0.882,0.898) mirror u=1e-07 (near boundary) pol=parallel q=0.913 omega=3.787: "
        "|exact - closed form| = 7.922e-01",
    ),
}


@pytest.mark.parametrize("seed, n_cases", sorted(_VALIDATE_GOLDEN))
def test_validate_all_reports_are_unchanged(seed, n_cases):
    report = validate_all(seed, n_cases)
    reported = (repr(report.max_error), report.worst_case, report.re_formula_gap_case)
    assert reported == _VALIDATE_GOLDEN[seed, n_cases]
