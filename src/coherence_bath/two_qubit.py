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

``c_re_bd_closed_form`` keeps the compact single-gap expression that reuses
the inner-block gap in all four slots; it is exact only when c1 * c2 = 0
and is retained purely as a cross-check column.
"""

import math
from dataclasses import dataclass

import numpy as np

from .boundary import (
    Geometry,
    PolarizationWeights,
    _decay_rate,
    _in_unit_interval,
    noise_to_damping,
    rate_coefficients,
    suppression_factor,
)
from .qmath import _float_if_scalar, _positive_part, as_density_matrix, entropy_bits
from .single_qubit import _VALIDATION_GRID, CoherenceTrace, FreezeReport, _freeze_verdict

# Bell states land exactly on the physicality boundary; this absorbs the
# round-off of user-supplied correlation vectors.
PHYSICALITY_TOL = -1e-12


@dataclass(frozen=True)
class BellDiagonalParams:
    """Correlation vector (c1, c2, c3) of a maximally-mixed-marginals state."""

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        # A nonnegative spectrum bounds each |c_i| by 1 + 4 |PHYSICALITY_TOL|.
        for name, value in (("c1", self.c1), ("c2", self.c2), ("c3", self.c3)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for label, value in self.eigenvalues().items():
            if value < PHYSICALITY_TOL:
                raise ValueError(
                    f"unphysical correlation vector: eigenvalue {label} = {value:.3e} < 0"
                )

    def eigenvalues(self) -> dict[str, float]:
        """The four spectral values of the initial state, keyed by closed form."""
        return {
            "(1 + c3 + (c1 - c2))/4": 0.25 * (1.0 + self.c3 + (self.c1 - self.c2)),
            "(1 + c3 - (c1 - c2))/4": 0.25 * (1.0 + self.c3 - (self.c1 - self.c2)),
            "(1 - c3 + (c1 + c2))/4": 0.25 * (1.0 - self.c3 + (self.c1 + self.c2)),
            "(1 - c3 - (c1 + c2))/4": 0.25 * (1.0 - self.c3 - (self.c1 + self.c2)),
        }


def _as_bd(c) -> BellDiagonalParams:
    return c if isinstance(c, BellDiagonalParams) else BellDiagonalParams(*c)


@dataclass(frozen=True)
class OneSidedChannel:
    """Amplitude damping of atom A: damping q' in [0, 1] plus a phase rotation."""

    damping: float
    phase: float = 0.0

    def __post_init__(self):
        _in_unit_interval(self.damping, "damping")
        if not math.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase}")


def bd_density(c: BellDiagonalParams) -> np.ndarray:
    """Bell-diagonal density matrix in the {|11>,|10>,|01>,|00>} basis."""
    c = _as_bd(c)
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
    c = _as_bd(c)
    qp = _in_unit_interval(q_prime, "damping q'")
    return _float_if_scalar(0.5 * np.sqrt(1.0 - qp) * (abs(c.c1 + c.c2) + abs(c.c1 - c.c2)))


def _evolved_diagonal(c: BellDiagonalParams, qp) -> np.ndarray:
    a = c.c3 * (1.0 - qp)
    slots = [1.0 + a - qp, 1.0 - a - qp, 1.0 - a + qp, 1.0 + a + qp]
    return np.stack([0.25 * slot for slot in slots], axis=-1)


def _block_spectrum(c: BellDiagonalParams, qp, outer: float) -> np.ndarray:
    """Evolved spectrum; the inner gap uses c1 + c2, the outer gap ``outer``
    (c1 - c2 for the exact blocks, c1 + c2 again for the compact form)."""
    a = c.c3 * (1.0 - qp)
    gap_outer = np.sqrt(qp * qp + (1.0 - qp) * outer**2)
    gap_inner = np.sqrt(qp * qp + (1.0 - qp) * (c.c1 + c.c2) ** 2)
    return np.stack(
        [
            0.25 * (1.0 + a + gap_outer),
            0.25 * (1.0 + a - gap_outer),
            0.25 * (1.0 - a + gap_inner),
            0.25 * (1.0 - a - gap_inner),
        ],
        axis=-1,
    )


def c_re_bd(c: BellDiagonalParams, q_prime):
    """Relative entropy of coherence of the evolved state, from exact blocks."""
    c = _as_bd(c)
    qp = _in_unit_interval(q_prime, "damping q'")
    spectrum = _block_spectrum(c, qp, c.c1 - c.c2)
    return _positive_part(entropy_bits(_evolved_diagonal(c, qp)) - entropy_bits(spectrum))


def c_re_bd_closed_form(c: BellDiagonalParams, q_prime):
    """Compact closed form that reuses the inner-block gap in every slot.

    Matches c_re_bd exactly when c1 * c2 = 0; otherwise it misassigns the
    outer-block gap and deviates.  Kept as a comparison column, never used
    as the authoritative value.
    """
    c = _as_bd(c)
    qp = _in_unit_interval(q_prime, "damping q'")
    spectrum = _block_spectrum(c, qp, c.c1 + c.c2)
    # The symmetric gap can push a slot slightly negative for states near
    # the physicality boundary; clamp like any other spectral round-off.
    spectrum = np.where(spectrum < 0.0, 0.0, spectrum)
    return _float_if_scalar(entropy_bits(_evolved_diagonal(c, qp)) - entropy_bits(spectrum))


def freezing_report_bd(
    c: BellDiagonalParams, geometry: Geometry, polarization: PolarizationWeights
) -> FreezeReport:
    """Classify whether the Bell-diagonal coherence stays constant over all q.

    Frozen trivially when c1 = c2 = 0 (both measures vanish identically) or
    boundary-induced when the suppression factor is 1 within 1e-12.  The
    predicate is validated against central-difference derivative suprema of
    both trajectories on the interior q grid.
    """
    c = _as_bd(c)
    f = suppression_factor(geometry, polarization)
    gamma = _decay_rate(f)
    step = 1e-5
    plus = noise_to_damping(_VALIDATION_GRID + step, gamma)
    minus = noise_to_damping(_VALIDATION_GRID - step, gamma)
    sup_l1, sup_re = (
        float(np.max(np.abs(kernel(c, plus) - kernel(c, minus)) / (2 * step)))
        for kernel in (c_l1_bd, c_re_bd)
    )
    return _freeze_verdict(c_l1_bd(c, 0.0), f, sup_l1, sup_re)


def sweep_bd(
    c: BellDiagonalParams, geometry: Geometry, polarization: PolarizationWeights, q_grid
) -> CoherenceTrace:
    """Evaluate both Bell-diagonal trajectories over an increasing q grid."""
    c = _as_bd(c)
    q = np.asarray(q_grid, dtype=float)
    qp = noise_to_damping(q, rate_coefficients(geometry, polarization).gamma_eff)
    return CoherenceTrace(q, c_l1_bd(c, qp), c_re_bd(c, qp))
