import math

import numpy as np
import pytest

from coherence_bath.qmath import (
    EIGENVALUE_FLOOR,
    PAULI,
    PositivityError,
    _has_eigenvalue_below,
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


def _entropy_bits_by_where(values):
    # The sum entropy_bits takes, written with a new array at each step: sort
    # a clipped copy, put 1 in the zero slots with np.where, multiply by log2.
    vals = np.sort(np.clip(np.asarray(values, dtype=float), 0.0, 1.0), axis=-1)
    positive = np.where(vals > 0.0, vals, 1.0)
    return -(positive * np.log2(positive)).sum(axis=-1)


def test_entropy_works_in_its_own_copy_with_the_same_bits(rng):
    # zeros of both signs, a subnormal, 1.0 and round-off just outside [0, 1]
    special = [0.0, -0.0, 5e-324, 1.0, -1e-12, 1.0 + 1e-12, -5e-324, 0.5]
    for n in (1, 7, 512, 513):
        values = rng.dirichlet(np.ones(4), size=n)
        slots = rng.random((n, 4)) < 0.4
        values[slots] = rng.choice(special, size=int(slots.sum()))
        given = values.copy()
        bits = entropy_bits(values)
        assert values.tobytes() == given.tobytes()  # a float64 input comes back unchanged
        assert bits.tobytes() == _entropy_bits_by_where(given).tobytes()
        assert entropy_bits(given[0]) == float(_entropy_bits_by_where(given[0]))
    with pytest.raises(np.exceptions.AxisError):
        entropy_bits(0.5)
    bits = entropy_bits([])
    assert bits == 0.0 and math.copysign(1.0, bits) == -1.0


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_entropy_sorts_every_width_to_the_bits_of_np_sort(rng, width):
    # entropy_bits sorts the last axis with a compare-exchange network, not
    # np.sort; on rows with ties, zeros of both signs, a subnormal, 1.0 and
    # round-off just outside [0, 1] it sums the same order to the same bits.
    special = [0.0, -0.0, 5e-324, 1.0, -1e-12, 1.0 + 1e-12, -5e-324]
    values = rng.dirichlet(np.ones(width), size=600)
    ties = rng.random(values.shape) < 0.3
    values[ties] = np.broadcast_to(values[:, :1], values.shape)[ties]
    slots = rng.random(values.shape) < 0.3
    values[slots] = rng.choice(special, size=int(slots.sum()))
    assert entropy_bits(values).tobytes() == _entropy_bits_by_where(values).tobytes()
    stacked = values.reshape(200, 3, width)
    assert entropy_bits(stacked).tobytes() == _entropy_bits_by_where(stacked).tobytes()
    assert [entropy_bits(row).hex() for row in values[:40]] == [_entropy_bits_by_where(row).hex() for row in values[:40]]


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


def _below_by_lapack(h, floor):
    return bool(np.linalg.eigvalsh(h).min() < floor)


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("shift", [0.0, 1e-12, -1e-12, 1e-9, -1e-9])
def test_positivity_predicate_agrees_with_lapack(dim, shift):
    """Random Hermitian matrices shifted so their smallest eigenvalue sits at
    the floor plus ``shift``.  At a shift of 0 the matrix sits on the floor
    to within round-off, where the two answers may split; they may split only
    there, within a few units of round-off of the largest entry."""
    rng = np.random.default_rng(20261020 + dim)
    eye = np.eye(dim)
    for _ in range(4000):
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = 0.25 * (z + z.conj().T)
        h = a - (np.linalg.eigvalsh(a).min() - EIGENVALUE_FLOOR - shift) * eye
        below, smallest = _has_eigenvalue_below(h, EIGENVALUE_FLOOR), np.linalg.eigvalsh(h).min()
        if shift == 0.0:
            tie = 4 * dim * np.finfo(float).eps * np.abs(h).max()
            assert below == (smallest < EIGENVALUE_FLOOR) or abs(smallest - EIGENVALUE_FLOOR) <= tie
        else:
            assert below == (shift < 0.0) == (smallest < EIGENVALUE_FLOOR)


@pytest.mark.parametrize("dim, rank", [(2, 1), (4, 1), (4, 2)])
def test_positivity_predicate_on_states_of_low_rank(rng, dim, rank):
    for _ in range(200):
        kets = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        rho = kets @ kets.conj().T
        rho /= rho.trace().real
        # The zero eigenvalues are above the round-off floor and below any positive one.
        for floor in (EIGENVALUE_FLOOR, 1e-9):
            assert _has_eigenvalue_below(rho, floor) == (floor > 0.0) == _below_by_lapack(rho, floor)
        as_density_matrix(rho)


@pytest.mark.parametrize("h, below", [
    (np.diag([0.0, 1.0]), False),  # zero pivot, zero column
    (np.array([[0.0, 0.5], [0.5, 1.0]]), True),  # zero pivot, nonzero column
    (np.ones((2, 2)), False),  # the second pivot is 1 - 1*1/1 = 0 exactly
    (np.array([[1.0, 1, 0, 0], [1, 1, 0.5, 0], [0, 0.5, 1, 0], [0, 0, 0, 1]]), True),  # same, mid-way
    (np.array([[1.0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]), False),
])
def test_positivity_predicate_on_an_exact_zero_pivot(h, below):
    # The floor is 0, so h - floor*I is h itself and its pivots are exact.
    assert _has_eigenvalue_below(h.astype(complex), 0.0) == below == _below_by_lapack(h, 0.0)


def test_positivity_predicate_reads_the_lower_triangle():
    # Read from its lower triangle the state has eigenvalue 1/2 - |c| = floor - 3e-13;
    # its upper triangle, 6e-13 away, gives floor + 3e-13.  eigvalsh reads the lower.
    c = 0.5 - EIGENVALUE_FLOOR + 3e-13
    rho = np.array([[0.5, c - 6e-13], [c, 0.5]], dtype=complex)
    for m, below in ((rho, True), (rho.conj().T, False)):
        assert _has_eigenvalue_below(m, EIGENVALUE_FLOOR) == below == _below_by_lapack(m, EIGENVALUE_FLOOR)
    with pytest.raises(PositivityError):
        as_density_matrix(rho)
    as_density_matrix(rho.conj().T)


def test_positivity_error_names_the_eigenvalue(rng):
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    for rho in (np.diag([1.0 + 1e-9, -1e-9]), q @ np.diag([0.5 + 1e-9, 0.3, 0.2, -1e-9]) @ q.conj().T):
        with pytest.raises(PositivityError, match=r"^density matrix has eigenvalue -1\.000e-09 below -1e-10$"):
            as_density_matrix(rho)
