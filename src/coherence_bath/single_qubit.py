"""Closed-form single-qubit dynamics and coherence trajectories.

The amplitude-damping channel of damping q' and phase Omega tau, the
zero-temperature solution at rate gamma_eff with q' = 1 - exp(-gamma_eff tau),
takes the pure initial state cos(theta/2)|1> + e^{i phi} sin(theta/2)|0> to

    rho11      = [1 + cos(theta) (1-q') - q'] / 2
    |rho12|    = |sin(theta)| sqrt(1-q') / 2,   arg(rho12) = -(Omega tau + phi)

The same ``OneSidedChannel`` acts on atom A of a two-qubit state.  Sweeps
are indexed by the free-space noise parameter q = 1 - exp(-tau) so that
frozen configurations (gamma_eff = 0) remain representable over the whole
q axis; the q -> q' mapping happens internally.  Coherence magnitudes never
depend on the effective level spacing Omega, which only rotates the
off-diagonal phase.
"""

import math
from typing import NamedTuple

import numpy as np

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
from .qmath import _float_if_scalar, _positive_part, _real_array, entropy_bits

# Predicate window for exact freezing and the numeric derivative bound the
# classification is validated against.
FREEZE_TOL = 1e-12
FREEZE_SUP_BOUND = 1e-8
_VALIDATION_GRID = np.linspace(0.01, 0.99, 99)
_SMALLEST_NORMAL = 2.0**-1022


class InitialAngles(_value_type("theta phi")):
    """Bloch angles of the pure initial state, theta in [0, pi], phi in [0, 2 pi)."""

    __slots__ = ()
    def __new__(cls, theta: float, phi: float = 0.0):
        if not 0.0 <= _real(theta, "theta") <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {theta}")
        if not 0.0 <= _real(phi, "phi") < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2 pi), got {phi}")
        return super().__new__(cls, theta, phi)


class OneSidedChannel(_value_type("damping phase")):
    """Amplitude damping of one qubit, or of atom A of a pair: one real damping
    q' in [0, 1] plus a phase rotation by Omega tau."""

    __slots__ = ()
    def __new__(cls, damping: float, phase: float = 0.0):
        _in_unit_interval(_real(damping, "damping"), "damping")
        if not math.isfinite(_real(phase, "phase")):
            raise ValueError(f"phase must be finite, got {phase}")
        return super().__new__(cls, damping, phase)


class CoherenceTrace:
    """Read-only columns q, c_l1, c_re of real numbers, of one length, q strictly increasing.

    No function of the package builds one; bench/spans.py wraps its __init__ by name."""

    __slots__ = ("q", "c_l1", "c_re")

    def __init__(self, q, c_l1, c_re):
        _in_unit_interval(q, "trace q values")
        for name, column in (("q", q), ("c_l1", c_l1), ("c_re", c_re)):
            column = _real_array(column, f"trace {name} values").view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if self.q.ndim != 1 or not self.q.shape == self.c_l1.shape == self.c_re.shape:
            raise ValueError("trace columns must be 1-D and of equal length")
        if np.any(self.q[1:] <= self.q[:-1]):  # no float difference column; q is finite here
            raise ValueError("trace q values must be strictly increasing")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"{type(self).__name__}(q={self.q!r}, c_l1={self.c_l1!r}, c_re={self.c_re!r})"

    def __reduce__(self):  # copy and pickle build through __init__
        return type(self), (self.q, self.c_l1, self.c_re)


def evolve_closed_form(angles: InitialAngles, channel: OneSidedChannel) -> np.ndarray:
    """The 2x2 density matrix that ``channel`` makes of the pure initial state."""
    angles = _as(InitialAngles, angles, "angles")
    channel = _as(OneSidedChannel, channel, "channel")
    qp = channel.damping
    cos_t, sin_t = math.cos(angles.theta), math.sin(angles.theta)
    population = 0.5 * (1.0 + cos_t * (1.0 - qp) - qp)
    off = 0.5 * sin_t * math.sqrt(1.0 - qp) * np.exp(-1.0j * (channel.phase + angles.phi))
    return np.array([[population, off], [np.conj(off), 1.0 - population]], dtype=complex)


def c_l1_trajectory(theta: float, q, geometry: Geometry, polarization: PolarizationWeights):
    """Closed-form l1 coherence |sin(theta)| (1-q)^((1-f)/2) at sweep point(s) q."""
    gamma = decay_rate(suppression_factor(geometry, polarization))
    return c_l1_single(theta, noise_to_damping(q, gamma))


def c_l1_single(theta: float, q_prime):
    """l1 coherence |sin(theta)| sqrt(1-q') of the evolved qubit at damping q' (a float or an array)."""
    InitialAngles(theta)  # ValueError unless theta lies in [0, pi]
    q_prime = _in_unit_interval(q_prime, "damping q'")
    return _float_if_scalar(abs(math.sin(theta)) * np.sqrt(1.0 - q_prime))


def c_re_single(theta: float, q_prime):
    """Relative entropy of coherence of the evolved qubit at damping q' (a float or an array)."""
    InitialAngles(theta)
    q_prime = _in_unit_interval(q_prime, "damping q'")
    cos_t = math.cos(theta)
    bz = cos_t * (1.0 - q_prime) - q_prime
    radius2 = (1.0 - cos_t * cos_t) * (1.0 - q_prime) + bz * bz
    radius = np.minimum(np.sqrt(radius2), 1.0)
    s_diag = entropy_bits(np.stack([0.5 * (1.0 + bz), 0.5 * (1.0 - bz)], axis=-1))
    s_full = entropy_bits(np.stack([0.5 * (1.0 + radius), 0.5 * (1.0 - radius)], axis=-1))
    return _positive_part(s_diag - s_full)


def c_re_trajectory(theta: float, q, geometry: Geometry, polarization: PolarizationWeights):
    """Closed-form relative entropy of coherence at sweep point(s) q.

    Evaluates the binary-entropy difference between the dephased populations
    and the exact spectrum (1 +- |Bloch vector|)/2 at the mapped damping q'.
    """
    gamma = decay_rate(suppression_factor(geometry, polarization))
    return c_re_single(theta, noise_to_damping(q, gamma))


def _check_open_interval(q: float):
    if not 0.0 < _real(q, "q") < 1.0:
        raise ValueError(f"derivatives are defined on the open interval (0, 1), got q={q}")


def dq_c_l1(theta: float, q: float, f: float) -> float:
    """Magnitude of the q-derivative of the l1 trajectory.

    Equals |sin(theta)| (1-f) (1-q)^(-(1+f)/2) / 2; identically zero for an
    incoherent initial state or a fully suppressed bath (f = 1).  The rate
    1 - f is gamma_eff with the clamp of ``decay_rate``.
    """
    InitialAngles(theta)
    _check_open_interval(q)
    gamma = decay_rate(f)
    if gamma == 0.0:
        return 0.0
    return 0.5 * abs(math.sin(theta)) * gamma * (1.0 - q) ** (-0.5 * (1.0 + f))


def _log2_ratio(a: float, b: float) -> float:
    """log2(a / b) for positive a and b, also where a / b leaves the float range."""
    ratio = a / b
    return math.log2(ratio) if 0.0 < ratio < math.inf else math.log2(a) - math.log2(b)


def dq_c_re(theta: float, q: float, f: float) -> float:
    """Magnitude of the q-derivative of the relative-entropy trajectory.

    Chain rule through q' = 1 - (1-q)^(1-f): the inner derivative is
    (1-f)(1-q)^(-f), the outer one the analytic q'-derivative of the
    entropy difference.  The rate 1 - f is clamped as in ``dq_c_l1``.
    """
    InitialAngles(theta)
    _check_open_interval(q)
    gamma = decay_rate(f)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    if gamma == 0.0 or sin_t == 0.0 or 1.0 + cos_t == 0.0:
        return 0.0
    qp = -math.expm1(gamma * math.log1p(-q))
    dqp_dq = gamma * (1.0 - q) ** (-f)
    one_plus = 1.0 + cos_t
    # For gamma > 1, q' rounds to 1 while q < 1; take 1 - q' from the power.
    one_minus_qp = math.exp(gamma * math.log1p(-q)) if qp == 1.0 else 1.0 - qp
    bz = cos_t * one_minus_qp - qp
    one_plus_bz, one_minus_bz = 1.0 + bz, 1.0 - bz
    if qp == 1.0 or one_plus_bz * one_minus_bz == 0.0:
        # 1 +- bz cancel once q' or cos(theta) rounds to +-1; their exact
        # forms keep the logarithms below nonzero arguments.
        one_plus_bz = one_plus * one_minus_qp
        one_minus_bz = 2.0 * math.sin(0.5 * theta) ** 2 * one_minus_qp + 2.0 * qp
        if one_minus_bz < _SMALLEST_NORMAL:
            # 1 - bz = 2 (sin^2(theta/2) + q') left the normal range, so cos(theta)
            # and 1 - q' are 1, q' is gamma q, and d(S_diag - S)/dq' reduces to
            # -log2(1 + sin^2(theta/2) / q').
            half = math.sin(0.5 * theta)
            return dqp_dq * math.log1p(half / q * (half / gamma)) / math.log(2.0)
    # 1 - |Bloch|^2 = q'(1-q')(1+cos theta)^2 exactly for this channel; the
    # direct radius expression cancels catastrophically near q' = 0, which
    # would wreck the spectral-gap logarithm below.
    one_minus_r2 = qp * one_minus_qp * one_plus * one_plus
    radius = math.sqrt(max(1.0 - one_minus_r2, 0.0))
    one_minus_r = one_minus_r2 / (1.0 + radius)
    # d S_diag / dq' and d S / dq'; the dephased populations move at rate
    # (1 + cos theta)/2 while the spectrum radius obeys
    # d(radius^2)/dq' = (1 + cos theta)^2 (2 q' - 1).
    ds_diag = 0.5 * one_plus * _log2_ratio(one_plus_bz, one_minus_bz)
    if radius == 0.0:
        log_ratio_over_radius = 2.0 / math.log(2.0)
    elif one_minus_r == 0.0 or qp < _SMALLEST_NORMAL:
        # 1 - |Bloch|^2 underflowed, so radius = 1 and 1 - radius is half of it.
        # A subnormal or zero q' is gamma q, and 1 - q' is 1, to double precision.
        small = qp < _SMALLEST_NORMAL
        log2_qp_pq = math.log2(gamma) + math.log2(q) if small else math.log2(qp * one_minus_qp)
        log_ratio_over_radius = 2.0 - log2_qp_pq - 2.0 * math.log2(one_plus)
    else:
        log_ratio_over_radius = _log2_ratio(1.0 + radius, one_minus_r) / radius
    ds_full = -(one_plus * one_plus) * (2.0 * qp - 1.0) / 4.0 * log_ratio_over_radius
    return abs(dqp_dq * (ds_diag - ds_full))


class FreezeReport(NamedTuple):
    """Freezing classification of one or two qubits, one verdict for both
    measures, with the numeric derivative bounds backing it."""

    frozen: bool
    reason: str  # "trivial" | "boundary-induced" | "none"
    sup_dq_c_l1: float
    sup_dq_c_re: float
    numeric_consistent: bool


def _freeze_verdict(c0: float, f: float, sup_l1: float, sup_re: float) -> FreezeReport:
    """The report for one or two qubits, from the initial l1 coherence c0: an
    input with c0 <= FREEZE_TOL is trivially frozen, any other input is frozen
    by the boundary when f = 1 within FREEZE_TOL (Bromley, Cianciaruso &
    Adesso, PRL 114, 210401 (2015)).

    Frozen is one verdict for both measures, so the numeric check reads the
    larger derivative supremum.  A frozen verdict needs it below
    FREEZE_SUP_BOUND: the relative-entropy derivative left by a round-off
    gamma_eff grows like gamma_eff log(1/q'), not like c0.  A decaying verdict
    only says gamma_eff > FREEZE_TOL, so it needs the supremum to be at least
    FREEZE_TOL * c0 / 2, the smallest slope such a rate gives the l1 measure:
    |dC_l1/dq| = c0 gamma (1-q)^(gamma/2 - 1) / 2 >= c0 gamma / 2 for gamma <= 2.
    """
    trivial = c0 <= FREEZE_TOL
    frozen = trivial or abs(f - 1.0) <= FREEZE_TOL
    reason = "trivial" if trivial else "boundary-induced" if frozen else "none"
    sup = max(sup_l1, sup_re)
    consistent = sup < FREEZE_SUP_BOUND if frozen else sup >= 0.5 * FREEZE_TOL * c0
    return FreezeReport(frozen, reason, sup_l1, sup_re, bool(consistent))


def freezing_report(
    theta: float, geometry: Geometry, polarization: PolarizationWeights
) -> FreezeReport:
    """Classify whether both coherence measures stay constant over all q.

    Freezing is either trivial (incoherent initial state, sin(theta) = 0) or
    boundary-induced (suppression factor 1 within 1e-12).  The analytic
    predicate is cross-checked against the larger supremum of the two
    derivative magnitudes on a 99-point interior grid.
    """
    f = suppression_factor(geometry, polarization)
    sup_l1 = float(max(dq_c_l1(theta, float(q), f) for q in _VALIDATION_GRID))
    sup_re = float(max(dq_c_re(theta, float(q), f) for q in _VALIDATION_GRID))
    return _freeze_verdict(abs(math.sin(theta)), f, sup_l1, sup_re)
