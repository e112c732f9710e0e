"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
Criterion 3 is asserted exactly as stated and is a known failure on its
single-qubit relative-entropy clause: at u = 1e-3 the evolved spectrum picks
up a -x log2 x entropy term of order 2e-5 > 1e-5 near q = 0.99, so the 1e-5
freezing tolerance is mathematically out of reach there (it would require
u <= 3e-4).  The l1 and two-qubit clauses hold.  Everything else passes.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from coherence_bath import c_l1, c_re
from coherence_bath.boundary import (
    Geometry,
    PolarizationWeights,
    decay_rate,
    f_parallel,
    f_parallel_direct,
    f_parallel_series,
    f_perpendicular,
    f_perpendicular_direct,
    f_perpendicular_series,
    noise_to_damping,
    suppression_factor,
)
from coherence_bath.lindblad import (
    GeneratorSpec,
    IntegratorConfig,
    closed_form_initial,
    integrate,
)
from coherence_bath.single_qubit import (
    EvolutionParams,
    InitialAngles,
    c_l1_trajectory,
    c_re_trajectory,
    dq_c_l1,
    dq_c_re,
    evolve_closed_form,
    freezing_report,
)
from coherence_bath.two_qubit import (
    BellDiagonalParams,
    OneSidedChannel,
    apply_one_sided_channel,
    bd_density,
    c_l1_bd,
    c_re_bd,
    c_re_bd_closed_form,
    choi_matrix,
    freezing_report_bd,
)

PRESETS = {
    "parallel": PolarizationWeights.parallel(),
    "perpendicular": PolarizationWeights.perpendicular(),
    "isotropic": PolarizationWeights.isotropic(),
}
GEOMETRIES = {
    "unbounded": Geometry.unbounded(),
    "mirror u=0.3": Geometry.mirror(0.3),
    "mirror u=3": Geometry.mirror(3.0),
}


def _report(number: int, name: str, passed: bool, detail: str) -> bool:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} - {detail}")
    return passed


def _random_physical_bd(rng) -> BellDiagonalParams:
    while True:
        c1, c2, c3 = rng.uniform(-1.0, 1.0, size=3)
        if (
            min(
                1.0 + c3 + (c1 - c2),
                1.0 + c3 - (c1 - c2),
                1.0 - c3 + (c1 + c2),
                1.0 - c3 - (c1 + c2),
            )
            >= 0.0
        ):
            return BellDiagonalParams(float(c1), float(c2), float(c3))


def test_criterion_1_single_qubit_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    phi = 0.6
    for theta in np.linspace(0.0, math.pi, 10):
        for q in np.arange(0.1, 0.95, 0.1):
            for geometry in GEOMETRIES.values():
                for polarization in PRESETS.values():
                    gamma = decay_rate(suppression_factor(geometry, polarization))
                    params = EvolutionParams(geometry, polarization, omega=1.0)
                    closed = evolve_closed_form(InitialAngles(float(theta), phi), float(q), params)
                    numeric = integrate(
                        closed_form_initial(float(theta), phi),
                        GeneratorSpec(0.25 * gamma, 0.25 * gamma, omega=1.0),
                        -math.log1p(-float(q)),
                    )
                    worst = max(worst, float(np.max(np.abs(closed - numeric))))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and elapsed < 30.0
    assert _report(
        1,
        "single-qubit oracle equivalence",
        ok,
        f"max |closed - RK4| = {worst:.3e} (< 1e-8), runtime {elapsed:.1f} s (< 30 s)",
    )


def test_criterion_2_two_qubit_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    alt_confirmations = 0
    for _ in range(50):
        bd = _random_physical_bd(rng)
        for q in (0.1, 0.3, 0.5, 0.7, 0.9):
            tau = -math.log1p(-q)
            omega = 0.9
            closed = apply_one_sided_channel(bd_density(bd), OneSidedChannel(q, omega * tau))
            numeric = integrate(
                bd_density(bd), GeneratorSpec(0.25, 0.25, omega=omega, n_qubits=2), tau
            )
            worst = max(worst, float(np.max(np.abs(closed - numeric))))
            # counter-check: scaling the longitudinal correlation like the
            # transverse ones (sqrt(1-q') instead of 1-q') must not fit
            gap = 0.25 * abs(bd.c3) * (math.sqrt(1.0 - q) - (1.0 - q))
            if gap > 1e-3:
                alt = closed.copy()
                shift = 0.25 * bd.c3 * (math.sqrt(1.0 - q) - (1.0 - q))
                alt[0, 0] += shift
                alt[1, 1] -= shift
                alt[2, 2] -= shift
                alt[3, 3] += shift
                if float(np.max(np.abs(alt - numeric))) > 1e-4:
                    alt_confirmations += 1
                else:
                    alt_confirmations = -(10**9)
    ok = worst < 1e-8 and alt_confirmations > 0
    assert _report(
        2,
        "two-qubit oracle equivalence",
        ok,
        f"max |channel - RK4| = {worst:.3e} (< 1e-8); "
        f"full longitudinal damping confirmed on {alt_confirmations} cases",
    )


def test_criterion_3_boundary_freezing_as_stated():
    geometry = Geometry.mirror(1e-3)
    parallel = PRESETS["parallel"]
    gamma = decay_rate(suppression_factor(geometry, parallel))
    # default 101-point grid; the q = 1 endpoint is excluded because for any
    # gamma_eff > 0 it is the discontinuous tau = infinity limit (ground
    # state), per the q = 1 design decision
    grid = np.linspace(0.0, 1.0, 101)[:-1]

    drift_l1_single = max(
        abs(c_l1_trajectory(math.pi / 2, float(q), geometry, parallel) - 1.0) for q in grid
    )
    drift_re_single = max(
        abs(c_re_trajectory(math.pi / 2, float(q), geometry, parallel) - 1.0) for q in grid
    )
    bell = BellDiagonalParams(1.0, -1.0, 1.0)
    drift_l1_two = max(
        abs(c_l1_bd(bell, noise_to_damping(float(q), gamma)) - 1.0) for q in grid
    )
    drift_re_two = max(
        abs(c_re_bd(bell, noise_to_damping(float(q), gamma)) - 1.0) for q in grid
    )

    checks = {
        "single-qubit l1": drift_l1_single,
        "two-qubit l1": drift_l1_two,
        "two-qubit relative entropy": drift_re_two,
        "single-qubit relative entropy": drift_re_single,
    }
    failures = {name: value for name, value in checks.items() if value >= 1e-5}
    detail = ", ".join(f"{name} drift {value:.3e}" for name, value in checks.items())
    _report(3, "boundary freezing at u=1e-3 (|C(q)-C(0)| < 1e-5)", not failures, detail)
    assert not failures, (
        f"criterion 3 fails as stated for {sorted(failures)}: {failures}; "
        f"the single-qubit relative entropy acquires a -x log2(x) spectral "
        f"term of order 2e-5 at q' ~ 3.7e-6, which exceeds the 1e-5 bound "
        f"for q >= 0.90.  This is inherent to the entropy at u = 1e-3, not "
        f"an implementation artifact: the l1 and two-qubit clauses pass, "
        f"and the bound would hold for u <= 3e-4."
    )


def test_criterion_4_unbounded_recovery_at_large_distance():
    far = Geometry.mirror(1000.0)
    unbounded = Geometry.unbounded()
    worst = 0.0
    for polarization in PRESETS.values():
        for theta in (math.pi / 3, math.pi / 2):
            for q in np.linspace(0.0, 1.0, 101):
                worst = max(
                    worst,
                    abs(
                        c_l1_trajectory(theta, float(q), far, polarization)
                        - c_l1_trajectory(theta, float(q), unbounded, polarization)
                    ),
                    abs(
                        c_re_trajectory(theta, float(q), far, polarization)
                        - c_re_trajectory(theta, float(q), unbounded, polarization)
                    ),
                )
    assert _report(
        4,
        "unbounded recovery at u=1000",
        worst < 2e-3,
        f"max |mirror - unbounded| = {worst:.3e} (< 2e-3)",
    )


def test_criterion_5_perpendicular_enhancement():
    geometry = Geometry.mirror(0.05)
    perpendicular = PRESETS["perpendicular"]
    gamma = decay_rate(suppression_factor(geometry, perpendicular))
    mirror_value = c_l1_trajectory(math.pi / 2, 0.5, geometry, perpendicular)
    unbounded_value = c_l1_trajectory(math.pi / 2, 0.5, Geometry.unbounded(), perpendicular)
    ok = 1.9 <= gamma <= 2.0 and mirror_value < unbounded_value
    assert _report(
        5,
        "perpendicular enhancement at u=0.05",
        ok,
        f"gamma_eff = {gamma:.6f} in [1.9, 2.0]; "
        f"C_l1(0.5) = {mirror_value:.6f} < unbounded {unbounded_value:.6f}",
    )


def test_criterion_6_derivatives_and_freezing_classification():
    # analytic derivatives against central differences
    step = 1e-5
    worst_rel = 0.0
    environments = [
        (Geometry.unbounded(), PRESETS["parallel"]),
        (Geometry.mirror(0.3), PRESETS["parallel"]),
        (Geometry.mirror(0.05), PRESETS["perpendicular"]),
        (Geometry.mirror(2.0), PRESETS["isotropic"]),
    ]
    for geometry, polarization in environments:
        f = suppression_factor(geometry, polarization)
        for theta in np.linspace(0.2, math.pi - 0.2, 7):
            for q in np.linspace(0.1, 0.9, 9):
                for analytic, trajectory in (
                    (dq_c_l1, c_l1_trajectory),
                    (dq_c_re, c_re_trajectory),
                ):
                    value = analytic(float(theta), float(q), f)
                    if value <= 1e-3:
                        continue
                    fd = abs(
                        trajectory(float(theta), float(q) + step, geometry, polarization)
                        - trajectory(float(theta), float(q) - step, geometry, polarization)
                    ) / (2 * step)
                    worst_rel = max(worst_rel, abs(value - fd) / value)

    # randomized classification suite: predicate vs numeric sup, 200 cases
    rng = np.random.default_rng(606)
    mismatches = 0
    for index in range(200):
        if index % 4 == 3:  # two-qubit cases
            if index % 16 == 3:
                bd = BellDiagonalParams(0.0, 0.0, float(rng.uniform(-0.9, 0.9)))
            else:
                bd = _random_physical_bd(rng)
            if index % 8 == 7:
                geometry, polarization = Geometry.mirror(1e-7), PRESETS["parallel"]
            else:
                geometry = Geometry.mirror(float(np.exp(rng.uniform(math.log(1e-2), math.log(10.0)))))
                polarization = PolarizationWeights(*rng.dirichlet(np.ones(3)))
            report = freezing_report_bd(bd, geometry, polarization)
            mismatches += 0 if report.numeric_consistent else 1
        else:  # single-qubit cases
            kind = index % 12
            if kind == 0:
                theta = float(rng.choice([0.0, math.pi]))
            else:
                theta = float(rng.uniform(0.05, math.pi - 0.05))
            if kind == 4:
                geometry, polarization = Geometry.mirror(1e-7), PRESETS["parallel"]
            elif kind == 8:
                geometry, polarization = Geometry.unbounded(), PRESETS["isotropic"]
            else:
                geometry = Geometry.mirror(float(np.exp(rng.uniform(math.log(1e-2), math.log(10.0)))))
                polarization = PolarizationWeights(*rng.dirichlet(np.ones(3)))
            report = freezing_report(theta, geometry, polarization)
            mismatches += 0 if report.numeric_consistent else 1

    ok = worst_rel < 1e-6 and mismatches == 0
    assert _report(
        6,
        "derivative conditions and freezing classification",
        ok,
        f"max relative FD error = {worst_rel:.3e} (< 1e-6); "
        f"classification mismatches = {mismatches}/200 (require 0)",
    )


def test_criterion_7_measure_consistency():
    rng = np.random.default_rng(707)
    worst_single = 0.0
    for _ in range(200):
        if rng.uniform() < 0.3:
            geometry = Geometry.unbounded()
        else:
            geometry = Geometry.mirror(float(np.exp(rng.uniform(math.log(1e-2), math.log(10.0)))))
        polarization = PolarizationWeights(*rng.dirichlet(np.ones(3)))
        theta = float(rng.uniform(0.0, math.pi))
        q = float(rng.uniform(0.0, 0.999))
        params = EvolutionParams(geometry, polarization, omega=float(rng.uniform(0.2, 3.0)))
        rho = evolve_closed_form(
            InitialAngles(theta, float(rng.uniform(0.0, 2.0 * math.pi))), q, params
        )
        worst_single = max(
            worst_single,
            abs(c_l1_trajectory(theta, q, geometry, polarization) - c_l1(rho)),
            abs(c_re_trajectory(theta, q, geometry, polarization) - c_re(rho)),
        )

    worst_two = 0.0
    worst_matched_formula = 0.0
    max_unmatched_gap = 0.0
    for _ in range(150):
        bd = _random_physical_bd(rng)
        qp = float(rng.uniform(0.0, 1.0))
        evolved = apply_one_sided_channel(
            bd_density(bd), OneSidedChannel(qp, float(rng.uniform(0.0, 2.0 * math.pi)))
        )
        worst_two = max(
            worst_two,
            abs(c_l1_bd(bd, qp) - c_l1(evolved)),
            abs(c_re_bd(bd, qp) - c_re(evolved)),
        )
        gap = abs(c_re_bd(bd, qp) - c_re_bd_closed_form(bd, qp))
        max_unmatched_gap = max(max_unmatched_gap, gap)
    for _ in range(60):
        c_other = float(rng.uniform(-1.0, 1.0))
        c3 = float(rng.uniform(-(1.0 - abs(c_other)), 1.0 - abs(c_other)))
        bd = (
            BellDiagonalParams(c_other, 0.0, c3)
            if rng.uniform() < 0.5
            else BellDiagonalParams(0.0, c_other, c3)
        )
        qp = float(rng.uniform(0.0, 1.0))
        worst_matched_formula = max(
            worst_matched_formula, abs(c_re_bd(bd, qp) - c_re_bd_closed_form(bd, qp))
        )

    ok = worst_single < 1e-10 and worst_two < 1e-10 and worst_matched_formula < 1e-10
    assert _report(
        7,
        "closed forms equal generic measures",
        ok,
        f"single worst = {worst_single:.3e}, two-qubit worst = {worst_two:.3e} (< 1e-10); "
        f"compact formula exact when c1*c2=0 (worst {worst_matched_formula:.3e}), "
        f"otherwise deviates by up to {max_unmatched_gap:.3e} (quantified)",
    )


def test_criterion_8_channel_complete_positivity():
    worst = 0.0
    for qp in np.linspace(0.0, 1.0, 11):
        for phase in (0.0, 0.9, math.pi):
            choi = choi_matrix(OneSidedChannel(float(qp), phase))
            worst = min(worst, float(np.min(np.linalg.eigvalsh(choi))))
    assert _report(
        8,
        "one-sided channel CPTP",
        worst >= -1e-12,
        f"min Choi eigenvalue over the damping grid = {worst:.3e} (>= -1e-12)",
    )


def test_criterion_9_response_function_numerics():
    # high-precision references, frozen from 50-digit evaluations and
    # re-derived here from scratch
    mp.mp.dps = 50
    u = mp.mpf(1) / 10
    ref_par = float((3 / (16 * u**3)) * (2 * u * mp.cos(2 * u) + (4 * u**2 - 1) * mp.sin(2 * u)))
    ref_perp = float((3 / (8 * u**3)) * (2 * u * mp.cos(2 * u) - mp.sin(2 * u)))
    assert abs(ref_par - 0.99201712593554238) < 1e-15
    assert abs(ref_perp - -0.99600571005483346) < 1e-15

    series_worst = 0.0
    for point in np.linspace(0.05, 0.5, 90):
        series_worst = max(
            series_worst,
            abs(f_parallel_series(float(point)) - f_parallel_direct(float(point))),
            abs(f_perpendicular_series(float(point)) - f_perpendicular_direct(float(point))),
        )
    err_par = abs(f_parallel(0.1) - ref_par)
    err_perp = abs(f_perpendicular(0.1) - ref_perp)
    ok = series_worst < 1e-9 and err_par < 1e-8 and err_perp < 1e-8
    assert _report(
        9,
        "response function numerics",
        ok,
        f"series/direct worst gap = {series_worst:.3e} (< 1e-9); "
        f"|f_par(0.1) - ref| = {err_par:.3e}, |f_perp(0.1) - ref| = {err_perp:.3e} (< 1e-8); "
        f"note: the truncated-series constant 0.99201714 sits "
        f"{abs(ref_par - 0.99201714):.2e} from the exact value",
    )
