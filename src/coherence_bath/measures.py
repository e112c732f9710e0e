"""Coherence quantifiers in the energy eigenbasis.

Both measures are basis dependent; the reference basis is always the
computational (energy) basis fixed by sigma_z, so no basis argument is
exposed.  They vanish exactly on diagonal states and are invariant under
diagonal phase rotations.
"""

import numpy as np

from . import qmath


def c_l1(m) -> float:
    """l1 norm of coherence: the sum of all off-diagonal magnitudes."""
    rho = qmath.as_density_matrix(m)
    off = rho.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.abs(off).sum())


def c_re(m) -> float:
    """Relative entropy of coherence: S(dephased state) - S(state), in bits.

    The dephased spectrum is the diagonal; the state's spectrum comes from
    LAPACK, never from model-specific closed forms, which the dynamics
    modules carry as cross-checks.
    """
    rho = qmath.as_density_matrix(m)
    return max(0.0, qmath.entropy_bits(np.diag(rho).real) - qmath.entropy_bits(np.linalg.eigvalsh(rho)))
