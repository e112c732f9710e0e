"""Independent RK4 integrator of the Kossakowski-Lindblad master equation.

Validation path for every closed form in the package: the generator is
assembled directly from the sigma-operator dissipator

    L[rho] = 1/2 sum_ij a_ij (2 sigma_j rho sigma_i
                              - sigma_i sigma_j rho - rho sigma_i sigma_j),
    a_ij = A delta_ij - i B eps_ij3 - A delta_i3 delta_j3,

plus the commutator with (Omega/2) sigma_3, never from the amplitude-damping
shortcut the closed forms rely on.  The bath is the electromagnetic vacuum
at zero temperature, so A = B = gamma_eff / 4 (Benatti, Floreani & Piani,
PRL 91, 070402 (2003)).  For two qubits the sigmas act on the A factor
tensored with identity.  On row-major vectorized matrices, where
vec(X rho Y) = (X kron Y^T) vec rho, the Liouvillian is
Omega H + (gamma_eff / 4) D with two constant superoperators:
H = -i/2 [sigma_3, .] and D = D_A + D_B, the sum of the A part
D_A = sigma_1 . sigma_1 + sigma_2 . sigma_2 - 2 and the B part
D_B = i (sigma_1 . sigma_2 - sigma_2 . sigma_1) - {sigma_3, .}.  D is real
with entries of magnitude at most 4 and H imaginary with entries of
magnitude at most 1, so every finite (gamma_eff, Omega) gives a finite
generator.  Times are in units of the inverse free-space decay rate;
gamma_eff and Omega are in units of that rate.

The generator is a constant linear map, so the classical fixed-step RK4
update reduces exactly to the degree-4 Taylor propagator of the Liouvillian;
one step is that matrix, and n uniform steps are its n-th power.
"""

import functools
import math
from typing import NamedTuple

from .two_qubit import (
    BellDiagonalParams,
    apply_one_sided_channel,
    bd_density,
    c_re_bd,
    c_re_bd_closed_form,
)
from .single_qubit import InitialAngles, OneSidedChannel, evolve_closed_form
from .boundary import (_PRESETS, Geometry, _as, _count, _real, _value_type, decay_rate, noise_to_damping,
                       suppression_factor)
from .qmath import PAULI, _has_eigenvalue_below, as_density_matrix

import numpy as np

VALIDATION_TOLERANCE = 1e-8


class InstabilityError(RuntimeError):
    """The fixed step was too large for the generator's decay rates."""


class GeneratorSpec(_value_type("gamma_eff omega")):
    """Effective decay rate gamma_eff and level spacing omega defining the
    generator, both in units of the free-space rate.  For two qubits the
    dissipator acts on qubit A."""

    __slots__ = ()
    def __new__(cls, gamma_eff: float, omega: float = 0.0):
        gamma_eff, omega = _real(gamma_eff, "gamma_eff"), _real(omega, "omega")
        if gamma_eff < 0.0:
            raise ValueError(f"gamma_eff must be nonnegative, got {gamma_eff}")
        return super().__new__(cls, gamma_eff, omega)


class IntegratorConfig(_value_type("step")):
    """Fixed RK4 step size in units of inverse free-space rate; capped at 1e-2."""

    __slots__ = ()
    def __new__(cls, step: float = 1e-3):
        step = _real(step, "step")
        if step <= 0.0:
            raise ValueError(f"step must be positive, got {step}")
        if step > 1e-2:
            raise ValueError(f"step must be at most 1e-2, got {step}")
        return super().__new__(cls, step)


@functools.cache
def _superoperators(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """H and D = D_A + D_B of the module docstring, on row-major vectorized matrices."""
    sx, sy, sz = (np.kron(s, np.eye(2 ** (n_qubits - 1))) for s in PAULI)
    one = np.eye(len(sz))

    def sandwich(left, right):  # rho -> left rho right
        return np.kron(left, right.T)

    hamiltonian = -0.5j * (sandwich(sz, one) - sandwich(one, sz))
    d_a = sandwich(sx, sx) + sandwich(sy, sy) - 2.0 * sandwich(one, one)
    d_b = 1.0j * (sandwich(sx, sy) - sandwich(sy, sx)) - sandwich(sz, one) - sandwich(one, sz)
    return hamiltonian, d_a + d_b


def liouvillian_matrix(spec: GeneratorSpec, n_qubits: int) -> np.ndarray:
    """Matrix of the generator of 1 or 2 qubits acting on row-major vectorized
    matrices; column k is the generator applied to the k-th matrix unit of
    the stacked basis."""
    spec = _as(GeneratorSpec, spec, "spec")
    n_qubits = _count(n_qubits, "n_qubits")
    if n_qubits not in (1, 2):
        raise ValueError(f"n_qubits must be 1 or 2, got {n_qubits}")
    hamiltonian, dissipator = _superoperators(n_qubits)
    return spec.omega * hamiltonian + 0.25 * spec.gamma_eff * dissipator


def integrate(
    rho0,
    spec: GeneratorSpec,
    tau: float,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> np.ndarray:
    """Propagate rho0 for proper time tau with the fixed-step RK4 scheme.

    The step count is ceil(tau / cfg.step) with a uniform step h <= cfg.step;
    the global error is O(h^4).  A time of 0 is one step of length 0, whose
    propagator is the identity.  Raises ValueError when the count exceeds
    2**53, and InstabilityError when the result loses positivity,
    Hermiticity or trace beyond 1e-8.
    """
    rho = as_density_matrix(rho0)
    spec, cfg = _as(GeneratorSpec, spec, "spec"), _as(IntegratorConfig, cfg, "cfg")
    tau = _real(tau, "tau")
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if not tau / cfg.step <= 2.0**53:  # a quotient beyond max float is inf
        raise ValueError(f"tau = {tau!r} at step {cfg.step!r} needs more than 2**53 RK4 steps")
    n_steps = max(1, math.ceil(tau / cfg.step))
    h = tau / n_steps
    with np.errstate(over="ignore", invalid="ignore"):  # a divergent step is inf or nan, rejected below
        propagator = _rk4_step(h * liouvillian_matrix(spec, rho.shape[0] // 2))
        evolved = (np.linalg.matrix_power(propagator, n_steps) @ rho.reshape(-1)).reshape(rho.shape)
    if np.count_nonzero(np.isfinite(evolved)) < evolved.size:
        raise InstabilityError(f"integration diverged at step {h:.3e}; retry with step <= {h / 10:.3e}")

    adjoint = evolved.conj().T
    hermiticity_drift = np.max(np.abs(evolved - adjoint))
    trace_drift = np.abs(np.trace(evolved) - 1.0)
    hermitian_part = 0.5 * (evolved + adjoint)
    # The RK4 map is a polynomial in a generator that keeps trace and
    # Hermiticity, so it keeps them exactly: their drift is round-off,
    # which grows with the step count, and a larger step cuts it.
    drift = max(hermiticity_drift, trace_drift)
    if drift > 1e-8:
        advice = f"round-off dominates; retry with step >= {min(1e-2, h * drift / 1e-9):.3e}"
    elif _has_eigenvalue_below(hermitian_part, -1e-8):
        advice = f"retry with step <= {h / 2:.3e}"
    else:
        return evolved
    min_eig = np.min(np.linalg.eigvalsh(hermitian_part))
    raise InstabilityError(
        f"integration unstable at step {h:.3e} "
        f"(hermiticity drift {hermiticity_drift:.2e}, trace drift {trace_drift:.2e}, "
        f"min eigenvalue {min_eig:.2e}); {advice}"
    )


def _rk4_step(hm: np.ndarray) -> np.ndarray:
    """Classical RK4 for a constant linear generator M and step h: one step
    multiplies the vectorized state by I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24."""
    hm2 = hm @ hm
    eye = np.eye(hm.shape[-1], dtype=complex)
    return eye + hm + hm2 / 2.0 + (hm2 @ hm) / 6.0 + (hm2 @ hm2) / 24.0


class ValidationReport(NamedTuple):
    """Outcome of a randomized closed-form versus integrator comparison."""

    n_cases: int
    max_error: float
    worst_case: str
    re_formula_gap: float
    re_formula_gap_case: str

    @property
    def passed(self) -> bool:
        return self.max_error < VALIDATION_TOLERANCE


_ARCHETYPES = tuple(_PRESETS.items())

_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix: each call scrambles one 32-bit word with the next hash constant."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _seed_state(seed) -> list[int]:
    """numpy's SeedSequence(seed).generate_state(4, np.uint64) for a non-negative int seed."""
    seed = _count(seed, "seed")
    if seed < 0:
        raise ValueError(f"expected non-negative integer, got seed {seed}")
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(word) for word in (entropy + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    words = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool + pool))
    return [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]


class _PCG64:
    """numpy's ``default_rng(seed)`` stream for the draws validate makes, in pure
    Python: validate then loads neither numpy.random nor OpenSSL, and its cases
    do not move with numpy's version.  PCG64 is a 128-bit LCG with XSL-RR output
    (O'Neill, HMC-CS-2014-0905, 2014).  A 32-bit draw is the low half of a fresh
    64-bit output and keeps the high half for the next 32-bit draw."""

    def __init__(self, seed):
        w0, w1, w2, w3 = _seed_state(seed)
        self._inc, self._state, self._kept32 = ((w2 << 64 | w3) << 1 | 1) & _MASK128, 0, None
        self._next64()
        self._state += w0 << 64 | w1
        self._next64()

    def _next64(self) -> int:
        state = self._state = (self._state * 0x2360ED051FC65DA44385DF649FCCF645 + self._inc) & _MASK128
        word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._kept32 is None:
            word = self._next64()
            self._kept32 = word >> 32
            return word & _MASK32
        word, self._kept32 = self._kept32, None
        return word

    def uniform(self, low: float, high: float) -> float:
        """Generator.uniform(low, high); numpy's ``size=n`` makes n such draws in turn."""
        return low + (high - low) * ((self._next64() >> 11) * 2.0**-53)

    def integers(self, low: int, high: int) -> int:
        """Generator.integers(low, high) for 2 <= high - low < 2**32: Lemire's bounded draw."""
        span = high - low
        product = self._next32() * span
        if product & _MASK32 < span:
            threshold = (2**32 - span) % span
            while product & _MASK32 < threshold:
                product = self._next32() * span
        return low + (product >> 32)


def _random_bd(rng) -> BellDiagonalParams:
    """A uniform draw of (c1, c2, c3) from the cube, redrawn until its spectrum is nonnegative."""
    while True:
        try:
            bd = BellDiagonalParams(*(rng.uniform(-1.0, 1.0) for _ in range(3)))
        except ValueError:  # an eigenvalue below PHYSICALITY_TOL
            continue
        if min(bd.eigenvalues().values()) >= 0.0:
            return bd


def _case_geometry(rng) -> tuple[str, Geometry]:
    kind = rng.integers(0, 3)
    if kind == 0:
        return "unbounded", Geometry.unbounded()
    if kind == 1:
        u = float(np.exp(rng.uniform(math.log(0.05), math.log(5.0))))
        return f"mirror u={u:.4g}", Geometry.mirror(u)
    return "mirror u=1e-07 (near boundary)", Geometry.mirror(1e-7)


def _case(rng, index: int, cfg: IntegratorConfig) -> tuple[str, float, float | None]:
    """Case ``index``, its parameters drawn from ``rng`` (cases draw in index
    order): its description, max |closed form - integrator|, and for two qubits
    with c1*c2 != 0 the |exact - closed form| relative-entropy gap, else None."""
    if index == 0:
        label, geometry = "mirror u=1e-07 (frozen)", Geometry.mirror(1e-7)
        theta, phi, q, omega = math.pi / 2, 0.3, 0.7, 2.0
    elif index == 1:
        label, geometry = "unbounded", Geometry.unbounded()
        theta, phi, q, omega = 0.0, 0.0, 0.5, 1.0
    else:
        label, geometry = _case_geometry(rng)
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        q = rng.uniform(0.05, 0.95)
        omega = rng.uniform(0.1, 4.0)
    pol_name, polarization = _ARCHETYPES[index % 3]
    gamma = decay_rate(suppression_factor(geometry, polarization))
    tau = -math.log1p(-q)
    channel = OneSidedChannel(noise_to_damping(q, gamma), omega * tau)  # one channel, either size
    setting = f"{label} pol={pol_name} q={q:.3f} omega={omega:.3f}"
    spec, gap = GeneratorSpec(gamma, omega), None
    if index < 2 or index % 2 == 0:  # single qubit
        rho0 = closed_form_initial(theta, phi)
        closed = evolve_closed_form(InitialAngles(theta, phi), channel)
        description = f"single-qubit theta={theta:.3f} phi={phi:.3f} {setting}"
    else:
        bd = _random_bd(rng)
        rho0 = bd_density(bd)
        closed = apply_one_sided_channel(rho0, channel)
        description = f"two-qubit c=({bd.c1:.3f},{bd.c2:.3f},{bd.c3:.3f}) {setting}"
        if abs(bd.c1 * bd.c2) > 1e-12:
            gap = abs(c_re_bd(bd, channel.damping) - c_re_bd_closed_form(bd, channel.damping))
    error = np.max(np.abs(closed - integrate(rho0, spec, tau, cfg)))
    return description, float(error), gap


def validate_all(
    seed: int, n_cases: int, cfg: IntegratorConfig = IntegratorConfig()
) -> ValidationReport:
    """Randomized closed-form vs integrator sweep over both system sizes.

    Case 0 is always the fully frozen single-qubit configuration and case 1
    the incoherent theta = 0 one, so even tiny runs exercise the degenerate
    corners.  Deterministic for a given seed.  Cases are drawn and integrated
    one at a time, in index order, so an InstabilityError or ValueError
    comes from the first failing case; of equal errors or gaps the first
    case is reported.
    """
    if _count(n_cases, "n_cases") < 1:
        raise ValueError(f"n_cases must be at least 1, got {n_cases}")
    rng = _PCG64(seed)

    max_error = -1.0
    worst = "none"
    gap_max = -1.0
    gap_case = "none (no two-qubit case with c1*c2 != 0)"
    for index in range(n_cases):
        description, error, gap = _case(rng, index, cfg)
        if gap is not None and gap > gap_max:
            gap_max = gap
            gap_case = f"{description}: |exact - closed form| = {gap:.3e}"
        if error > max_error:
            max_error = error
            worst = description

    return ValidationReport(
        n_cases=n_cases,
        max_error=max_error,
        worst_case=worst,
        re_formula_gap=max(gap_max, 0.0),
        re_formula_gap_case=gap_case,
    )


def closed_form_initial(theta: float, phi: float) -> np.ndarray:
    """Pure initial state of the closed-form evolution, as a density matrix."""
    amp_excited = math.cos(0.5 * theta)
    amp_ground = math.sin(0.5 * theta) * np.exp(1.0j * phi)
    ket = np.array([amp_excited, amp_ground], dtype=complex)
    return np.outer(ket, ket.conj())
