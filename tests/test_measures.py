import math

import numpy as np
import pytest

from coherence_bath import c_l1, c_re
from coherence_bath.boundary import Geometry, PolarizationWeights
from coherence_bath.single_qubit import (
    EvolutionParams,
    InitialAngles,
    c_re_trajectory,
    evolve_closed_form,
)
from coherence_bath.two_qubit import bd_density


def test_c_l1_diagonal_is_zero(rng):
    probs = rng.dirichlet(np.ones(4))
    assert c_l1(np.diag(probs).astype(complex)) == 0.0


def test_c_l1_plus_state():
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert c_l1(plus) == pytest.approx(1.0, abs=1e-15)


def test_c_l1_bell_diagonal_example():
    # anti-diagonal magnitudes (|c1+c2| + |c1-c2|) / 2 for a physical vector
    rho = bd_density((0.8, 0.4, -0.2))
    assert c_l1(rho) == pytest.approx(0.8, abs=1e-14)


def test_c_re_diagonal_is_zero(rng):
    probs = rng.dirichlet(np.ones(2))
    assert c_re(np.diag(probs).astype(complex)) == 0.0


def test_c_re_plus_state():
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert c_re(plus) == pytest.approx(1.0, abs=1e-12)


def test_c_re_pure_bell_state():
    assert c_re(bd_density((1.0, -1.0, 1.0))) == pytest.approx(1.0, abs=1e-12)


def test_measures_strictly_positive_off_diagonal(rng, random_density):
    for dim in (2, 4):
        for _ in range(25):
            rho = random_density(rng, dim)
            off = rho.copy()
            np.fill_diagonal(off, 0.0)
            if np.max(np.abs(off)) <= 1e-6:
                continue
            assert c_l1(rho) > 0.0
            assert c_re(rho) > 0.0


def test_measures_invariant_under_phase_rotation(rng, random_density):
    for dim in (2, 4):
        rho = random_density(rng, dim)
        for _ in range(5):
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=dim))
            unitary = np.diag(phases)
            rotated = unitary @ rho @ unitary.conj().T
            assert c_l1(rotated) == pytest.approx(c_l1(rho), abs=1e-12)
            assert c_re(rotated) == pytest.approx(c_re(rho), abs=1e-12)


def test_c_re_matches_single_qubit_closed_form(rng):
    # generic eigen-based measure against the dynamics module's closed form
    geometry = Geometry.unbounded()
    polarization = PolarizationWeights.isotropic()
    params = EvolutionParams(geometry, polarization, omega=1.0)
    for _ in range(50):
        theta = rng.uniform(0.0, math.pi)
        q = rng.uniform(0.0, 0.999)
        rho = evolve_closed_form(InitialAngles(theta, 0.0), q, params)
        assert c_re(rho) == pytest.approx(
            c_re_trajectory(theta, q, geometry, polarization), abs=1e-10
        )
