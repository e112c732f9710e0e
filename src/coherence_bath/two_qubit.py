"""Bell-diagonal two-qubit states under a one-sided damping channel.

Only atom A couples to the field; atom B is a spectator.  The dynamics is
therefore (Lambda x id) with Lambda the single-qubit amplitude damping map
(damping q', off-diagonal phase rotation).  For a Bell-diagonal initial
state with correlation vector (c1, c2, c3) the evolved matrix keeps the
two-block X shape: the transverse correlations scale by sqrt(1-q'), the
longitudinal one by (1-q'), and a -q' polarization builds up on atom A.

The l1 coherence is sqrt(1-q') (|c1+c2| + |c1-c2|) / 2.  The relative
entropy is computed from the exact block eigenvalues

    [1 + c3(1-q') +- sqrt(q'^2 + (1-q')(c1-c2)^2)] / 4     (outer block)
    [1 - c3(1-q') +- sqrt(q'^2 + (1-q')(c1+c2)^2)] / 4     (inner block)

against the dephased diagonal, the same four slots with both gaps equal to q'.

``c_re_bd_closed_form`` keeps the compact single-gap expression that reuses
the inner-block gap in all four slots; it is exact only when c1 * c2 = 0
and is retained purely as a cross-check column.
"""

import math

from .single_qubit import _VALIDATION_GRID, FreezeReport, OneSidedChannel, _freeze_verdict
from .boundary import (
    Geometry,
    PolarizationWeights,
    _as,
    _in_unit_interval,
    _real,
    _value_type,
    decay_rate,
    noise_to_damping,
    suppression_factor,
)
from .qmath import _float_if_scalar, _positive_part, as_density_matrix, entropy_bits

import numpy as np

# Bell states land exactly on the physicality boundary; this absorbs the
# round-off of user-supplied correlation vectors.
PHYSICALITY_TOL = -1e-12


class BellDiagonalParams(_value_type("c1 c2 c3")):
    """Correlation vector (c1, c2, c3) of a maximally-mixed-marginals state."""

    __slots__ = ()
    def __new__(cls, c1: float, c2: float, c3: float):
        # A nonnegative spectrum bounds each |c_i| by 1 + 4 |PHYSICALITY_TOL|.
        c1, c2, c3 = _real(c1, "c1"), _real(c2, "c2"), _real(c3, "c3")
        self = super().__new__(cls, c1, c2, c3)
        for label, value in self.eigenvalues().items():
            if value < PHYSICALITY_TOL:
                raise ValueError(f"unphysical correlation vector: eigenvalue {label} = {value:.3e} < 0")
        return self

    def eigenvalues(self) -> dict[str, float]:
        """The four spectral values of the initial state, keyed by closed form."""
        return {
            "(1 + c3 + (c1 - c2))/4": 0.25 * (1.0 + self.c3 + (self.c1 - self.c2)),
            "(1 + c3 - (c1 - c2))/4": 0.25 * (1.0 + self.c3 - (self.c1 - self.c2)),
            "(1 - c3 + (c1 + c2))/4": 0.25 * (1.0 - self.c3 + (self.c1 + self.c2)),
            "(1 - c3 - (c1 + c2))/4": 0.25 * (1.0 - self.c3 - (self.c1 + self.c2)),
        }


def bd_density(c: BellDiagonalParams) -> np.ndarray:
    """Bell-diagonal density matrix in the {|11>,|10>,|01>,|00>} basis."""
    c = _as(BellDiagonalParams, c, "c")
    dp = 0.25 * (1.0 + c.c3)
    dm = 0.25 * (1.0 - c.c3)
    outer = 0.25 * (c.c1 - c.c2)
    inner = 0.25 * (c.c1 + c.c2)
    return np.array(
        [
            [dp, 0.0, 0.0, outer],
            [0.0, dm, inner, 0.0],
            [0.0, inner, dm, 0.0],
            [outer, 0.0, 0.0, dp],
        ],
        dtype=complex,
    )


def channel_kraus(ch: OneSidedChannel) -> list[np.ndarray]:
    """Kraus operators of the one-sided channel on the full two-qubit space."""
    ch = _as(OneSidedChannel, ch, "ch")
    qp = ch.damping
    rot = np.diag([np.exp(-0.5j * ch.phase), np.exp(0.5j * ch.phase)])
    k_keep = rot @ np.diag([math.sqrt(1.0 - qp), 1.0])
    k_decay = rot @ np.array([[0.0, 0.0], [math.sqrt(qp), 0.0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    return [np.kron(k_keep, eye), np.kron(k_decay, eye)]


def _apply_kraus(mat: np.ndarray, kraus: list[np.ndarray]) -> np.ndarray:
    return sum(k @ mat @ k.conj().T for k in kraus)


def apply_one_sided_channel(rho, ch: OneSidedChannel) -> np.ndarray:
    """Apply the one-sided damping channel to a two-qubit density matrix."""
    rho = as_density_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError("the one-sided channel acts on 4x4 density matrices")
    return _apply_kraus(rho, channel_kraus(ch))


def choi_matrix(ch: OneSidedChannel) -> np.ndarray:
    """Unnormalized Choi matrix of the channel; PSD certifies complete positivity."""
    # Block (i, j) is the channel applied to |i><j|, entry 4 i + j of the stacked basis.
    blocks = _apply_kraus(np.eye(16, dtype=complex).reshape(16, 4, 4), channel_kraus(ch))
    return blocks.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)


def c_l1_bd(c: BellDiagonalParams, q_prime):
    """l1 coherence of the evolved Bell-diagonal state at damping q' (a float or an array)."""
    c = _as(BellDiagonalParams, c, "c")
    qp = _in_unit_interval(q_prime, "damping q'")
    return _float_if_scalar(0.5 * np.sqrt(1.0 - qp) * (abs(c.c1 + c.c2) + abs(c.c1 - c.c2)))


def _spectra(c: BellDiagonalParams, q_prime, outer):
    """Dephased and evolved spectra at damping q': the slots (1 + a +- g_outer)/4
    and (1 - a +- g_inner)/4 with a = c3 (1 - q'), dephased with both gaps q',
    evolved with the gaps sqrt(q'^2 + (1 - q') x^2) for x = ``outer``, c1 + c2."""
    qp = _in_unit_interval(q_prime, "damping q'")
    a = c.c3 * (1.0 - qp)

    def slots(g_outer, g_inner):
        return np.stack([0.25 * (1.0 + a + g_outer), 0.25 * (1.0 + a - g_outer),
                         0.25 * (1.0 - a + g_inner), 0.25 * (1.0 - a - g_inner)], axis=-1)

    gaps = (np.sqrt(qp * qp + (1.0 - qp) * x**2) for x in (outer, c.c1 + c.c2))
    return slots(qp, qp), slots(*gaps)


def c_re_bd(c: BellDiagonalParams, q_prime):
    """Relative entropy of coherence of the evolved state, from exact blocks."""
    c = _as(BellDiagonalParams, c, "c")
    dephased, evolved = _spectra(c, q_prime, c.c1 - c.c2)
    return _positive_part(entropy_bits(dephased) - entropy_bits(evolved))


def c_re_bd_closed_form(c: BellDiagonalParams, q_prime):
    """Compact closed form that reuses the inner-block gap in every slot.

    Matches c_re_bd exactly when c1 * c2 = 0; otherwise it misassigns the
    outer-block gap and deviates.  Kept as a comparison column, never used
    as the authoritative value.
    """
    c = _as(BellDiagonalParams, c, "c")
    dephased, evolved = _spectra(c, q_prime, c.c1 + c.c2)
    # The symmetric gap can push a slot slightly negative for states near
    # the physicality boundary; clamp like any other spectral round-off.
    evolved = np.where(evolved < 0.0, 0.0, evolved)
    return _float_if_scalar(entropy_bits(dephased) - entropy_bits(evolved))


def freezing_report_bd(
    c: BellDiagonalParams, geometry: Geometry, polarization: PolarizationWeights
) -> FreezeReport:
    """Classify whether the Bell-diagonal coherence stays constant over all q.

    Frozen trivially when c1 = c2 = 0 (both measures vanish identically) or
    boundary-induced when the suppression factor is 1 within 1e-12.  The
    predicate is validated against central-difference derivative suprema of
    both trajectories on the interior q grid.
    """
    f = suppression_factor(geometry, polarization)
    gamma = decay_rate(f)
    step = 1e-5
    plus = noise_to_damping(_VALIDATION_GRID + step, gamma)
    minus = noise_to_damping(_VALIDATION_GRID - step, gamma)
    sup_l1, sup_re = (
        float(np.max(np.abs(kernel(c, plus) - kernel(c, minus)) / (2 * step)))
        for kernel in (c_l1_bd, c_re_bd)
    )
    return _freeze_verdict(c_l1_bd(c, 0.0), f, sup_l1, sup_re)
