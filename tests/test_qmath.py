import math

import numpy as np
import pytest

from coherence_bath.qmath import (
    GROUND,
    PAULI,
    PositivityError,
    _eigenvalues,
    as_density_matrix,
    diagonal_part,
    entropy_bits,
    von_neumann_entropy,
)

# Evolved state at theta = pi/2, q = 0.75 (unbounded): populations 1/8 and
# 7/8 with |off-diagonal| = 1/4; spectrum (1 +- sqrt(0.8125)) / 2 frozen from
# a 50-digit evaluation.
EVOLVED_EXAMPLE = np.array([[0.125, 0.25], [0.25, 0.875]], dtype=complex)
EVOLVED_EIGS = (0.95069390943299866, 0.04930609056700134)


def eigenvalues(m):
    """The spectrum von_neumann_entropy takes the entropy of, descending."""
    return _eigenvalues(as_density_matrix(m, check_positive=False))


def test_eigenvalues_maximally_mixed():
    assert eigenvalues(np.eye(2) / 2) == pytest.approx([0.5, 0.5], abs=1e-15)


def test_eigenvalues_pure_diagonal():
    assert eigenvalues(np.diag([1.0, 0.0])) == pytest.approx([1.0, 0.0], abs=1e-15)


def test_eigenvalues_evolved_example():
    eigs = eigenvalues(EVOLVED_EXAMPLE)
    assert eigs == pytest.approx(EVOLVED_EIGS, abs=1e-14)
    # independent route: numpy's generic solver on the same matrix
    reference = np.sort(np.linalg.eigvalsh(EVOLVED_EXAMPLE))[::-1]
    assert eigs == pytest.approx(reference, abs=1e-14)


def test_eigenvalues_descending_and_sum_to_trace(rng, random_density):
    for dim in (2, 4):
        for _ in range(20):
            rho = random_density(rng, dim)
            eigs = eigenvalues(rho)
            assert np.all(np.diff(eigs) <= 0)
            assert abs(eigs.sum() - 1.0) < 1e-10


def test_eigenvector_residual_dim4(rng, random_density):
    # the 4x4 path must come from a converging symmetric solver
    rho = random_density(rng, 4)
    vals, vecs = np.linalg.eigh(rho)
    residual = np.max(np.abs(rho @ vecs - vecs * vals))
    assert residual < 1e-10


def test_eigenvalues_reject_non_hermitian():
    bad = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        eigenvalues(bad)


def test_eigenvalues_reject_nan():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        eigenvalues(bad)


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


@pytest.mark.parametrize(
    "values", [[math.nan, 0.5], [[0.5, 0.5], [0.25, math.nan]], [math.inf, 0.5], [-math.inf, 1.0]]
)
def test_entropy_rejects_non_finite(values):
    with pytest.raises(ValueError, match="finite"):
        entropy_bits(values)


def test_entropy_invariant_under_diagonal_permutation(rng):
    probs = rng.dirichlet(np.ones(4))
    base = von_neumann_entropy(np.diag(probs).astype(complex))
    shuffled = von_neumann_entropy(np.diag(rng.permutation(probs)).astype(complex))
    assert base == pytest.approx(shuffled, abs=1e-13)


def test_diagonal_part_idempotent_and_trace_preserving(rng, random_density):
    rho = random_density(rng, 4)
    dephased = diagonal_part(rho)
    assert np.array_equal(dephased, diagonal_part(dephased))
    assert dephased.trace() == pytest.approx(rho.trace(), abs=1e-14)
    assert np.all(dephased[~np.eye(4, dtype=bool)] == 0)


def test_diagonal_part_plus_state():
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert np.allclose(diagonal_part(plus), np.eye(2) / 2)


def _bloch_state(b):
    return 0.5 * (np.eye(2) + sum(component * sigma for component, sigma in zip(b, PAULI)))


def test_bloch_center_and_pole():
    # The Pauli matrices put the excited level first: +z is |1><1|, -z is GROUND.
    assert np.allclose(_bloch_state((0.0, 0.0, 0.0)), np.eye(2) / 2)
    assert np.allclose(_bloch_state((0.0, 0.0, 1.0)), np.diag([1.0, 0.0]))
    assert np.allclose(_bloch_state((0.0, 0.0, -1.0)), GROUND)


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
