"""Dense complex matrix algebra for 2- and 4-level density matrices.

Basis convention used throughout the package: the excited level comes first,
so a single qubit lives in the ordered basis {|1>, |0>} and two qubits in the
Kronecker basis {|11>, |10>, |01>, |00>}.  sigma_z is diagonal with the
excited state as its +1 eigenvector.  Entropies are in bits (log base 2).
"""

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
# Eigenvalues in (EIGENVALUE_FLOOR, 0) are treated as round-off and clamped
# to zero; anything below the floor is a genuine positivity violation.
EIGENVALUE_FLOOR = -1e-10

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

GROUND = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


class PositivityError(ValueError):
    """A supposed density matrix has an eigenvalue below the round-off floor."""


def _checked_hermitian(m, what: str) -> np.ndarray:
    rho = np.asarray(m, dtype=complex)
    if rho.ndim != 2 or rho.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"{what} must be 2x2 or 4x4, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError(f"{what} contains NaN or Inf entries")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError(f"{what} is not Hermitian within 1e-12")
    return rho


def as_density_matrix(m, *, check_positive: bool = True) -> np.ndarray:
    """Validate and return ``m`` as a complex density matrix array.

    Checks finiteness, shape (2x2 or 4x4), Hermiticity, unit trace and,
    unless ``check_positive`` is disabled, positive semidefiniteness down to
    the round-off floor.
    """
    rho = _checked_hermitian(m, "density matrix")
    if abs(rho.trace().real - 1.0) > TRACE_TOL or abs(rho.trace().imag) > TRACE_TOL:
        raise ValueError(f"density matrix trace {rho.trace():.17g} is not 1 within 1e-12")
    if check_positive:
        smallest = float(np.min(np.linalg.eigvalsh(rho)))
        if smallest < EIGENVALUE_FLOOR:
            raise PositivityError(
                f"density matrix has eigenvalue {smallest:.3e} below {EIGENVALUE_FLOOR}"
            )
    return rho


def _eigenvalues(rho: np.ndarray) -> np.ndarray:
    if rho.shape == (2, 2):
        mid = 0.5 * (rho[0, 0].real + rho[1, 1].real)
        disc = np.hypot(0.5 * (rho[0, 0].real - rho[1, 1].real), abs(rho[0, 1]))
        return np.array([mid + disc, mid - disc])
    return np.linalg.eigvalsh(rho)[::-1].copy()


def hermitian_eigenvalues(m) -> np.ndarray:
    """Real eigenvalues of a Hermitian 2x2 or 4x4 matrix, descending.

    The 2x2 case uses the closed quadratic form; the 4x4 case defers to
    LAPACK's symmetric solver.
    """
    return _eigenvalues(_checked_hermitian(m, "matrix"))


def entropy_bits(values):
    """Shannon entropy in bits of a probability-like vector, or of each
    vector along the last axis of an array (a 1-D input gives a float).

    Values in (EIGENVALUE_FLOOR, 0) are clamped to zero (round-off from
    diagonalization); values below the floor raise PositivityError, NaN or
    Inf raises ValueError.  Values are summed in sorted order, so equal
    multisets give bitwise-equal entropies regardless of input ordering.
    """
    vals = np.asarray(values, dtype=float)
    if not np.isfinite(vals).all():
        raise ValueError("probabilities must be finite, got NaN or Inf")
    if np.any(vals < EIGENVALUE_FLOOR):
        raise PositivityError(
            f"probability {float(vals.min()):.3e} below the {EIGENVALUE_FLOOR} floor"
        )
    vals = np.sort(np.clip(vals, 0.0, 1.0), axis=-1)
    # Zero slots add an exact 0.0 to the running sum, as if absent.
    positive = np.where(vals > 0.0, vals, 1.0)
    return _float_if_scalar(-(positive * np.log2(positive)).sum(axis=-1))


def _float_if_scalar(x):
    """A 0-d result as a Python float; arrays pass through."""
    return float(x) if np.ndim(x) == 0 else x


def _positive_part(x):
    """Elementwise max(0.0, x) as Python's max takes it: 0.0 for -0.0 and NaN."""
    return _float_if_scalar(np.where(x > 0.0, x, 0.0))


def von_neumann_entropy(m) -> float:
    """Von Neumann entropy of a density matrix, in bits."""
    return entropy_bits(_eigenvalues(as_density_matrix(m, check_positive=False)))


def diagonal_part(m) -> np.ndarray:
    """The fully dephased copy of ``m``: same diagonal, zero off-diagonal."""
    rho = np.asarray(m, dtype=complex)
    return np.diag(np.diag(rho))


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 matrices in the {|11>,|10>,|01>,|00>} basis."""
    left = np.asarray(a, dtype=complex)
    right = np.asarray(b, dtype=complex)
    if left.shape != (2, 2) or right.shape != (2, 2):
        raise ValueError("tensor expects two 2x2 matrices")
    return np.kron(left, right)


def bloch_to_density(b) -> np.ndarray:
    """Map a Bloch vector to the qubit state (I + b . sigma) / 2."""
    bx, by, bz = (float(v) for v in b)
    if not all(np.isfinite(v) for v in (bx, by, bz)):
        raise ValueError("Bloch vector contains NaN or Inf components")
    norm = np.sqrt(bx * bx + by * by + bz * bz)
    if norm > 1.0 + 1e-12:
        raise ValueError(f"Bloch vector norm {norm:.17g} exceeds 1: unphysical state")
    return 0.5 * np.array(
        [[1.0 + bz, bx - 1.0j * by], [bx + 1.0j * by, 1.0 - bz]], dtype=complex
    )


def density_to_bloch(m) -> np.ndarray:
    """Bloch components (bx, by, bz) of a 2x2 density matrix."""
    rho = as_density_matrix(m, check_positive=False)
    if rho.shape != (2, 2):
        raise ValueError("Bloch conversion is defined for 2x2 matrices only")
    return np.array(
        [2.0 * rho[1, 0].real, 2.0 * rho[1, 0].imag, (rho[0, 0] - rho[1, 1]).real]
    )
