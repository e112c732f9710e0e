import math

import numpy as np
import pytest

from coherence_bath.qmath import (
    PAULI,
    PositivityError,
    as_density_matrix,
    entropy_bits,
    von_neumann_entropy,
)

# Evolved state at theta = pi/2, q = 0.75 (unbounded): populations 1/8 and
# 7/8 with |off-diagonal| = 1/4; spectrum (1 +- sqrt(0.8125)) / 2 frozen from
# a 50-digit evaluation.
EVOLVED_EXAMPLE = np.array([[0.125, 0.25], [0.25, 0.875]], dtype=complex)
EVOLVED_EIGS = (0.95069390943299866, 0.04930609056700134)


def test_eigenvalues_maximally_mixed():
    # equal mixtures of the X eigenstates of one and of two qubits: full-rank
    # spectra of matrices whose off-diagonal entries cancel
    plus, minus = np.array([1.0, 1.0]) / math.sqrt(2), np.array([1.0, -1.0]) / math.sqrt(2)
    pairs = [np.kron(a, b) for a in (plus, minus) for b in (plus, minus)]
    for states, bits in (((plus, minus), 1.0), (pairs, 2.0)):
        rho = sum(np.outer(v, v) for v in states) / len(states)
        assert von_neumann_entropy(rho) == pytest.approx(bits, abs=1e-14)


def test_eigenvalues_pure_diagonal():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert von_neumann_entropy(np.diag([0.0, 0.0, 1.0, 0.0])) == 0.0


def test_eigenvalues_evolved_example():
    assert von_neumann_entropy(EVOLVED_EXAMPLE) == pytest.approx(entropy_bits(EVOLVED_EIGS), abs=1e-14)


def test_entropy_random_states_match_independent_spectra(rng, random_density):
    # 2x2: the closed quadratic spectrum; 2x2 and 4x4: the singular values,
    # which equal the eigenvalues of a positive semidefinite matrix
    for dim in (2, 4):
        for _ in range(20):
            rho = random_density(rng, dim)
            entropy = von_neumann_entropy(rho)
            assert entropy == pytest.approx(entropy_bits(np.linalg.svd(rho, compute_uv=False)), abs=1e-13)
            if dim == 2:
                mid = 0.5 * (rho[0, 0].real + rho[1, 1].real)
                disc = math.hypot(0.5 * (rho[0, 0].real - rho[1, 1].real), abs(rho[0, 1]))
                assert entropy == pytest.approx(entropy_bits([mid + disc, mid - disc]), abs=1e-13)


def test_eigenvalues_reject_non_hermitian():
    bad = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
    for check in (as_density_matrix, von_neumann_entropy):
        with pytest.raises(ValueError, match="Hermitian"):
            check(bad)


def test_eigenvalues_reject_nan():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    for check in (as_density_matrix, von_neumann_entropy):
        with pytest.raises(ValueError, match="NaN"):
            check(bad)


def test_entropy_maximally_mixed_qubit():
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-14)


def test_entropy_pure_states(rng):
    for _ in range(5):
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec /= np.linalg.norm(vec)
        rho = np.outer(vec, vec.conj())
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)


def test_entropy_maximally_mixed_two_qubit():
    assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-14)


def test_entropy_clamps_round_off_negativity():
    rho = np.diag([1.0 + 5e-11, -5e-11])
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-8)


def test_entropy_rejects_genuine_negativity():
    rho = np.diag([1.1, -0.1])
    with pytest.raises(PositivityError):
        von_neumann_entropy(rho)
    with pytest.raises(PositivityError):
        entropy_bits([-0.5, 1.5])


@pytest.mark.parametrize("values", [[2.0, 0.5], [1.5]])
def test_entropy_rejects_values_above_one(values):
    # clipped to 1 they gave the plausible entropies 0.5 and -0.0
    with pytest.raises(ValueError, match="above 1"):
        entropy_bits(values)


def test_entropy_clamps_round_off_above_one():
    assert entropy_bits([1.0 + 1e-12, 0.0]) == 0.0


@pytest.mark.parametrize(
    "values", [[math.nan, 0.5], [[0.5, 0.5], [0.25, math.nan]], [math.inf, 0.5], [-math.inf, 1.0]]
)
def test_entropy_rejects_non_finite(values):
    with pytest.raises(ValueError, match="^probabilities must be finite, got (nan|inf|-inf)$"):
        entropy_bits(values)


@pytest.mark.parametrize(
    "values", [["0.5", "0.5"], [True, False], np.array([0.5, 0.5], dtype=object), [0.5 + 0j, 0.5], None]
)
def test_entropy_takes_only_real_numbers(values):
    # as float arrays, the text gave 1.0 and the bools -0.0
    with pytest.raises(TypeError, match="^probabilities must be a real number or an array of them, got "):
        entropy_bits(values)


def test_entropy_takes_ints_and_every_float_width():
    assert entropy_bits([1, 0]) == 0.0
    assert entropy_bits(np.array([0.5, 0.5], dtype=np.float32)) == entropy_bits([np.float64(0.5), 0.5]) == 1.0


def test_entropy_invariant_under_diagonal_permutation(rng):
    probs = rng.dirichlet(np.ones(4))
    base = von_neumann_entropy(np.diag(probs).astype(complex))
    shuffled = von_neumann_entropy(np.diag(rng.permutation(probs)).astype(complex))
    assert base == pytest.approx(shuffled, abs=1e-13)


def _bloch_state(b):
    return 0.5 * (np.eye(2) + sum(component * sigma for component, sigma in zip(b, PAULI)))


def test_bloch_center_and_pole():
    # The Pauli matrices put the excited level first: +z is |1><1|, -z is |0><0|.
    assert np.allclose(_bloch_state((0.0, 0.0, 0.0)), np.eye(2) / 2)
    assert np.allclose(_bloch_state((0.0, 0.0, 1.0)), np.diag([1.0, 0.0]))
    assert np.allclose(_bloch_state((0.0, 0.0, -1.0)), np.diag([0.0, 1.0]))


def test_bloch_rejects_unphysical_norm():
    # |b| = 1.39 leaves the Bloch ball: one eigenvalue is (1 - |b|)/2 < 0.
    with pytest.raises(PositivityError):
        as_density_matrix(_bloch_state((0.8, 0.8, 0.8)))


def test_as_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        as_density_matrix(np.eye(2))


def test_as_density_matrix_rejects_wrong_shape():
    with pytest.raises(ValueError, match="2x2 or 4x4"):
        as_density_matrix(np.eye(3) / 3)
