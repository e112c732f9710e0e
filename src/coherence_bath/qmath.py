"""Dense complex matrix algebra for 2- and 4-level density matrices.

Basis convention used throughout the package: the excited level comes first,
so a single qubit lives in the ordered basis {|1>, |0>} and two qubits in the
Kronecker basis {|11>, |10>, |01>, |00>}.  sigma_z is diagonal with the
excited state as its +1 eigenvector.  Entropies are in bits (log base 2).

The reference coherence measures ``c_l1`` and ``c_re`` always take this
energy basis as their reference basis, so they take no basis argument: they
vanish exactly on diagonal states and are invariant under diagonal phases.
"""

import reprlib

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
# Eigenvalues in (EIGENVALUE_FLOOR, 0) are treated as round-off and clamped
# to zero; anything below the floor is a genuine positivity violation.
EIGENVALUE_FLOOR = -1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)


class PositivityError(ValueError):
    """A supposed density matrix has an eigenvalue below the round-off floor."""


def as_density_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a complex density matrix array.

    Checks finiteness, shape (2x2 or 4x4), Hermiticity, unit trace and
    positive semidefiniteness down to the round-off floor.
    """
    if (rho := np.asarray(m)).dtype.kind not in "iufc":  # no bool, text or object entries
        raise TypeError(f"density matrix must be an array of numbers, got dtype {rho.dtype}")
    rho = rho.astype(complex, copy=False)
    if rho.ndim != 2 or rho.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"density matrix must be 2x2 or 4x4, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix contains NaN or Inf entries")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian within 1e-12")
    if abs(rho.trace().real - 1.0) > TRACE_TOL or abs(rho.trace().imag) > TRACE_TOL:
        raise ValueError(f"density matrix trace {rho.trace():.17g} is not 1 within 1e-12")
    smallest = float(np.min(np.linalg.eigvalsh(rho)))
    if smallest < EIGENVALUE_FLOOR:
        raise PositivityError(
            f"density matrix has eigenvalue {smallest:.3e} below {EIGENVALUE_FLOOR}"
        )
    return rho


def _real_array(values, what: str) -> np.ndarray:
    """``values`` as a float array; TypeError naming ``what`` unless it holds ints or floats, not bools,
    ValueError naming its first entry that is not finite."""
    if (arr := np.asarray(values)).dtype.kind not in "iuf":
        raise TypeError(f"{what} must be a real number or an array of them, got {reprlib.repr(values)}")
    if not np.isfinite(arr := arr.astype(float, copy=False)).all():
        raise ValueError(f"{what} must be finite, got {arr[~np.isfinite(arr)][0]}")
    return arr


def entropy_bits(values):
    """Shannon entropy in bits of a probability-like vector, or of each
    vector along the last axis of an array (a 1-D input gives a float).

    Values in (EIGENVALUE_FLOOR, 0) are clamped to zero and values in
    (1, 1 - EIGENVALUE_FLOOR) to one (round-off from diagonalization); values
    below the floor raise PositivityError, values above 1 - EIGENVALUE_FLOOR,
    NaN or Inf raise ValueError, and bool, text or object entries TypeError.
    Values are summed in sorted order, so equal multisets give equal bits.
    """
    vals = _real_array(values, "probabilities")
    if np.any(vals < EIGENVALUE_FLOOR):
        raise PositivityError(
            f"probability {float(vals.min()):.3e} below the {EIGENVALUE_FLOOR} floor"
        )
    if np.any(vals > 1.0 - EIGENVALUE_FLOOR):
        raise ValueError(f"probability {float(vals.max())!r} above 1")
    # clip makes the one working copy, changed in place from here on; the
    # caller's array, which _real_array may return as it is, is never written.
    vals = np.clip(vals, 0.0, 1.0)
    vals.sort(axis=-1)
    # Zero slots add an exact 0.0 to the running sum, as if absent.
    vals[vals <= 0.0] = 1.0
    vals *= np.log2(vals)
    return _float_if_scalar(-vals.sum(axis=-1))


def _float_if_scalar(x):
    """A 0-d result as a Python float; arrays pass through."""
    return float(x) if np.ndim(x) == 0 else x


def _positive_part(x):
    """Elementwise max(0.0, x) as Python's max takes it: 0.0 for -0.0 and NaN."""
    return _float_if_scalar(np.where(x > 0.0, x, 0.0))


def von_neumann_entropy(m) -> float:
    """Von Neumann entropy of a density matrix, in bits."""
    return entropy_bits(np.linalg.eigvalsh(as_density_matrix(m)))


def c_l1(m) -> float:
    """l1 norm of coherence: the sum of all off-diagonal magnitudes."""
    rho = as_density_matrix(m)
    off = rho.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.abs(off).sum())


def c_re(m) -> float:
    """Relative entropy of coherence: S(dephased state) - S(state), in bits.

    The dephased spectrum is the diagonal; the state's spectrum comes from
    LAPACK, never from model-specific closed forms, which the dynamics
    modules carry as cross-checks.
    """
    rho = as_density_matrix(m)
    return max(0.0, entropy_bits(np.diag(rho).real) - entropy_bits(np.linalg.eigvalsh(rho)))
