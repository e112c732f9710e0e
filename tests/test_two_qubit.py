import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import reference
from coherence_bath import c_l1, c_re
from coherence_bath.boundary import (
    Geometry,
    PolarizationWeights,
    decay_rate,
    noise_to_damping,
    suppression_factor,
)
from coherence_bath.lindblad import GeneratorSpec, integrate
from coherence_bath.single_qubit import OneSidedChannel, evolve_closed_form
from coherence_bath.two_qubit import (
    BellDiagonalParams,
    apply_one_sided_channel,
    bd_density,
    c_l1_bd,
    c_re_bd,
    c_re_bd_closed_form,
    channel_kraus,
    choi_matrix,
    freezing_report_bd,
)

# (0.8, 0.4, 0.2) fails the physicality constraint (one eigenvalue is -0.1);
# flipping c3 keeps every anti-diagonal entry and the l1 value while staying
# a valid state.
EXAMPLE_BD = BellDiagonalParams(0.8, 0.4, -0.2)

PARALLEL = PolarizationWeights.parallel()
GROUND = np.diag([0.0, 1.0]).astype(complex)


def test_bd_density_center():
    assert np.allclose(bd_density((0.0, 0.0, 0.0)), np.eye(4) / 4)


def test_bd_density_pure_bell_state():
    rho = bd_density((1.0, -1.0, 1.0))
    ket = np.zeros(4, dtype=complex)
    ket[0] = ket[3] = 1.0 / math.sqrt(2.0)
    assert np.allclose(rho, np.outer(ket, ket.conj()), atol=1e-15)
    eigs = np.sort(np.linalg.eigvalsh(rho))
    assert eigs == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-14)


def test_bd_density_example_entries():
    rho = bd_density(EXAMPLE_BD)
    assert abs(rho[0, 3]) == pytest.approx(0.1, abs=1e-15)
    assert abs(rho[1, 2]) == pytest.approx(0.3, abs=1e-15)
    assert rho[0, 0].real == pytest.approx(0.2, abs=1e-15)
    assert rho[1, 1].real == pytest.approx(0.3, abs=1e-15)


def test_eigenvalues_are_the_spectrum_of_the_density(rng, random_bd):
    # the four Bell states, the origin and seeded random physical vectors
    fixed = [(1.0, -1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (-1.0, -1.0, -1.0), (0.0, 0.0, 0.0)]
    for bd in [BellDiagonalParams(*c) for c in fixed] + [random_bd(rng) for _ in range(100)]:
        slots = sorted(bd.eigenvalues().values())
        assert slots == pytest.approx(np.linalg.eigvalsh(bd_density(bd)).tolist(), rel=0.0, abs=1e-15)


def test_bd_params_reject_unphysical():
    with pytest.raises(ValueError, match=r"\(1 - c3 - \(c1 \+ c2\)\)/4"):
        BellDiagonalParams(1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="unphysical"):
        BellDiagonalParams(0.8, 0.4, 0.2)
    with pytest.raises(ValueError):
        BellDiagonalParams(1.2, 0.0, 0.0)


def test_channel_identity_at_zero_damping(rng, random_density):
    rho = random_density(rng, 4)
    assert np.allclose(apply_one_sided_channel(rho, OneSidedChannel(0.0, 0.0)), rho, atol=1e-15)


def test_channel_rejects_a_single_qubit_state():
    with pytest.raises(ValueError, match="acts on 4x4"):
        apply_one_sided_channel(GROUND, OneSidedChannel(0.5, 0.0))


def test_channel_full_damping_factorizes(rng, random_density, partial_trace_a):
    rho = random_density(rng, 4)
    out = apply_one_sided_channel(rho, OneSidedChannel(1.0, 0.0))
    assert np.allclose(out, np.kron(GROUND, partial_trace_a(rho)), atol=1e-14)


def test_channel_scales_antidiagonal():
    out = apply_one_sided_channel(bd_density(EXAMPLE_BD), OneSidedChannel(0.75, 0.0))
    assert abs(out[0, 3]) == pytest.approx(0.05, abs=1e-15)
    assert abs(out[1, 2]) == pytest.approx(0.15, abs=1e-15)


def test_channel_is_trace_preserving_kraus_complete():
    for qp in np.linspace(0.0, 1.0, 11):
        kraus = channel_kraus(OneSidedChannel(float(qp), 0.8))
        total = sum(k.conj().T @ k for k in kraus)
        assert np.allclose(total, np.eye(4), atol=1e-15)


def test_choi_matrix_psd_over_damping_grid():
    for qp in np.linspace(0.0, 1.0, 11):
        for phase in (0.0, 1.0, math.pi):
            choi = choi_matrix(OneSidedChannel(float(qp), phase))
            assert float(np.min(np.linalg.eigvalsh(choi))) >= -1e-12


def test_choi_matrix_equals_block_construction_bitwise(rng):
    # Reference: block (i, j) is the Kraus sum applied to the matrix unit |i><j|.
    for _ in range(50):
        ch = OneSidedChannel(float(rng.uniform(0.0, 1.0)), float(rng.uniform(-10.0, 10.0)))
        kraus = channel_kraus(ch)
        blocks = np.zeros((16, 16), dtype=complex)
        for i in range(4):
            for j in range(4):
                unit = np.zeros((4, 4), dtype=complex)
                unit[i, j] = 1.0
                blocks[4 * i : 4 * i + 4, 4 * j : 4 * j + 4] = sum(k @ unit @ k.conj().T for k in kraus)
        assert np.ascontiguousarray(choi_matrix(ch)).tobytes() == blocks.tobytes()


def test_measures_independent_of_channel_phase(rng, random_bd):
    bd = random_bd(rng)
    rho = bd_density(bd)
    reference = apply_one_sided_channel(rho, OneSidedChannel(0.35, 0.0))
    for phase in (1.0, math.pi):
        rotated = apply_one_sided_channel(rho, OneSidedChannel(0.35, phase))
        assert c_l1(rotated) == pytest.approx(c_l1(reference), abs=1e-12)
        assert c_re(rotated) == pytest.approx(c_re(reference), abs=1e-12)


def test_channel_tuple_gives_the_channel_result():
    # A (damping, phase) tuple reads as OneSidedChannel(damping, phase), as (c1, c2, c3) does for a pair.
    channel = OneSidedChannel(0.5, 0.0)
    rho = bd_density((0.3, 0.2, 0.1))
    pairs = [
        (evolve_closed_form((1.0, 0.0), (0.5, 0.0)), evolve_closed_form((1.0, 0.0), channel)),
        (apply_one_sided_channel(rho, (0.5, 0.0)), apply_one_sided_channel(rho, channel)),
        (choi_matrix((0.5, 0.0)), choi_matrix(channel)),
    ]
    for from_tuple, from_channel in pairs:
        assert from_tuple.tobytes() == from_channel.tobytes()


@pytest.mark.parametrize("bad", [(1.5, 0.0), (-0.1, 0.0), (math.nan, 0.0), (0.5, math.inf)])
def test_bad_channel_tuple_raises_value_error(bad):
    for call in (
        lambda: evolve_closed_form((1.0, 0.0), bad),
        lambda: apply_one_sided_channel(bd_density((0.3, 0.2, 0.1)), bad),
        lambda: choi_matrix(bad),
    ):
        with pytest.raises(ValueError):
            call()


def test_c_l1_bd_examples():
    assert c_l1_bd(EXAMPLE_BD, 0.0) == pytest.approx(0.8, abs=1e-15)
    for qp in np.linspace(0.0, 1.0, 6):
        assert c_l1_bd((0.0, 0.0, 0.7), float(qp)) == 0.0
    assert c_l1_bd((1.0, -1.0, 1.0), 0.75) == pytest.approx(0.5, abs=1e-15)


def test_c_re_bd_examples():
    assert c_re_bd((1.0, -1.0, 1.0), 0.0) == pytest.approx(1.0, abs=1e-12)
    assert c_re_bd(EXAMPLE_BD, 1.0) == 0.0
    assert c_re_bd(EXAMPLE_BD, 0.0) == pytest.approx(reference.c_re_bd(EXAMPLE_BD, 0.0, dps=50)[0], abs=1e-13)
    assert c_re_bd(EXAMPLE_BD, 0.0) == pytest.approx(c_re(bd_density(EXAMPLE_BD)), abs=1e-10)


def test_closed_forms_match_measures_randomized(rng, random_bd):
    for _ in range(150):
        bd = random_bd(rng)
        qp = float(rng.uniform(0.0, 1.0))
        evolved = apply_one_sided_channel(
            bd_density(bd), OneSidedChannel(qp, float(rng.uniform(0.0, 2.0 * math.pi)))
        )
        assert abs(c_l1_bd(bd, qp) - c_l1(evolved)) < 1e-12
        assert abs(c_re_bd(bd, qp) - c_re(evolved)) < 1e-10


def test_closed_form_comparison_exact_when_c1c2_zero(rng):
    for _ in range(60):
        c_other = float(rng.uniform(-1.0, 1.0))
        c3 = float(rng.uniform(-min(1.0, 1.0 - abs(c_other)), min(1.0, 1.0 - abs(c_other))))
        bd = (
            BellDiagonalParams(c_other, 0.0, c3)
            if rng.uniform() < 0.5
            else BellDiagonalParams(0.0, c_other, c3)
        )
        qp = float(rng.uniform(0.0, 1.0))
        assert abs(c_re_bd(bd, qp) - c_re_bd_closed_form(bd, qp)) < 1e-10


def test_closed_form_comparison_deviates_otherwise():
    exact, compact = reference.c_re_bd(EXAMPLE_BD, 0.5, dps=50)
    gap = abs(c_re_bd(EXAMPLE_BD, 0.5) - c_re_bd_closed_form(EXAMPLE_BD, 0.5))
    assert gap == pytest.approx(abs(exact - compact), abs=1e-10)


def test_channel_matches_integrator(rng, random_bd):
    for _ in range(5):
        bd = random_bd(rng)
        q = float(rng.uniform(0.1, 0.9))
        omega = float(rng.uniform(0.0, 3.0))
        tau = -math.log1p(-q)
        closed = apply_one_sided_channel(bd_density(bd), OneSidedChannel(q, omega * tau))
        numeric = integrate(
            bd_density(bd), GeneratorSpec(1.0, omega=omega), tau
        )
        assert np.max(np.abs(closed - numeric)) < 1e-8


def test_freezing_report_trivial():
    report = freezing_report_bd((0.0, 0.0, 0.7), Geometry.unbounded(), PARALLEL)
    assert report.frozen and report.reason == "trivial"
    assert report.numeric_consistent


def test_freezing_report_boundary_induced():
    report = freezing_report_bd((1.0, -1.0, 1.0), Geometry.mirror(1e-7), PARALLEL)
    assert report.frozen and report.reason == "boundary-induced"
    assert report.sup_dq_c_l1 < 1e-8 and report.sup_dq_c_re < 1e-8
    assert report.numeric_consistent


def test_freezing_report_not_frozen_unbounded():
    report = freezing_report_bd((1.0, -1.0, 1.0), Geometry.unbounded(), PARALLEL)
    assert not report.frozen and report.reason == "none"
    assert report.sup_dq_c_l1 > 1e-3
    assert report.numeric_consistent


def test_bd_l1_column_endpoints_unbounded():
    c_l1_column = c_l1_bd(EXAMPLE_BD, noise_to_damping(np.linspace(0.0, 1.0, 11), 1.0))
    assert c_l1_column[0] == pytest.approx(0.8, abs=1e-15)
    assert c_l1_column[-1] == 0.0


def test_evolved_state_damping_matches_noise_mapping(rng, random_bd):
    bd = random_bd(rng)
    geometry = Geometry.mirror(0.2)
    gamma = decay_rate(suppression_factor(geometry, PARALLEL))
    q = 0.6
    qp = noise_to_damping(q, gamma)
    evolved = apply_one_sided_channel(bd_density(bd), OneSidedChannel(qp, 0.0))
    assert c_l1(evolved) == pytest.approx(c_l1_bd(bd, qp), abs=1e-12)


@st.composite
def physical_bd_vectors(draw):
    return reference.bd_from_spectrum(*(draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(4)), dps=50)


@given(physical_bd_vectors())
# Round-off puts |c1| one ulp above 1 while the spectrum stays physical.
@example(c=(-1.0000000000000002, 0.999999999991969, 0.9999999999919691))
def test_bd_from_spectrum_is_physical_and_consistent(c):
    bd = BellDiagonalParams(*c)
    rho = bd_density(bd)
    assert float(np.min(np.linalg.eigvalsh(rho))) >= -1e-12
    assert abs(c_l1(rho) - c_l1_bd(bd, 0.0)) < 1e-12
