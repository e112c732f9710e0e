"""Independent RK4 integrator of the Kossakowski-Lindblad master equation.

Validation path for every closed form in the package: the generator is
assembled directly from the sigma-operator dissipator

    L[rho] = 1/2 sum_ij a_ij (2 sigma_j rho sigma_i
                              - sigma_i sigma_j rho - rho sigma_i sigma_j),
    a_ij = A delta_ij - i B eps_ij3 - A delta_i3 delta_j3,

plus the commutator with (Omega/2) sigma_3, never from the amplitude-damping
shortcut the closed forms rely on.  For two qubits the generator acts on the
A factor tensored with identity.  Times are in units of the inverse
free-space decay rate; Omega is in units of that rate.

The generator is a constant linear map, so the classical fixed-step RK4
update reduces exactly to the degree-4 Taylor propagator of the Liouvillian;
one step is that matrix, and n uniform steps are its n-th power.
"""

import math
from dataclasses import dataclass

import numpy as np

from .boundary import Geometry, PolarizationWeights, noise_to_damping, rate_coefficients
from .qmath import PAULI, as_density_matrix
from .single_qubit import EvolutionParams, InitialAngles, evolve_closed_form
from .two_qubit import (
    BellDiagonalParams,
    OneSidedChannel,
    apply_one_sided_channel,
    bd_density,
    c_re_bd,
    c_re_bd_closed_form,
)

__all__ = [
    "GeneratorSpec",
    "InstabilityError",
    "IntegratorConfig",
    "ValidationReport",
    "build_rhs",
    "integrate",
    "liouvillian_matrix",
    "validate_all",
]

VALIDATION_TOLERANCE = 1e-8


class InstabilityError(RuntimeError):
    """The fixed step was too large for the generator's decay rates."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Kossakowski coefficients and level spacing defining the generator.

    ``a_coeff`` and ``b_coeff`` are the A and B entries of the Kossakowski
    matrix (units of the free-space rate); complete positivity requires
    a_coeff >= |b_coeff|.  For two qubits the dissipator always acts on
    qubit A.
    """

    a_coeff: float
    b_coeff: float
    omega: float = 0.0
    n_qubits: int = 1

    def __post_init__(self):
        for name, value in (("a_coeff", self.a_coeff), ("b_coeff", self.b_coeff), ("omega", self.omega)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.a_coeff < abs(self.b_coeff) - 1e-12:
            raise ValueError(
                f"complete positivity requires a_coeff >= |b_coeff|, "
                f"got a={self.a_coeff}, b={self.b_coeff}"
            )
        if self.n_qubits not in (1, 2):
            raise ValueError(f"n_qubits must be 1 or 2, got {self.n_qubits}")

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed RK4 step size in units of inverse free-space rate; capped at 1e-2."""

    step: float = 1e-3

    def __post_init__(self):
        if not math.isfinite(self.step) or self.step <= 0.0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.step > 1e-2:
            raise ValueError(f"step must be at most 1e-2, got {self.step}")


def build_rhs(spec: GeneratorSpec):
    """Return the map rho -> d rho / d tau for the given generator.

    The returned function preserves Hermiticity and trace identically and is
    linear, so it may be applied to arbitrary (not necessarily positive)
    matrices, or a stack of them along the first axis, when assembling
    superoperators.
    """
    eye = np.eye(2, dtype=complex)
    if spec.n_qubits == 1:
        sigmas = [s.copy() for s in PAULI]
    else:
        sigmas = [np.kron(s, eye) for s in PAULI]
    hamiltonian = 0.5 * spec.omega * sigmas[2]

    a, b = spec.a_coeff, spec.b_coeff
    # Nonzero Kossakowski entries: a_11 = a_22 = A, a_12 = -iB, a_21 = +iB.
    # Each term carries a_ij together with (sigma_j, sigma_i) so the jump
    # part reads a_ij sigma_j rho sigma_i.
    terms = [
        (complex(a), sigmas[0], sigmas[0]),
        (complex(a), sigmas[1], sigmas[1]),
        (-1.0j * b, sigmas[1], sigmas[0]),
        (1.0j * b, sigmas[0], sigmas[1]),
    ]
    # C = 1/2 sum_ij a_ij sigma_i sigma_j collects both anticommutator halves.
    anticomm = 0.5 * sum(coeff * (right @ left) for coeff, left, right in terms)

    def rhs(rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        out = -1.0j * (hamiltonian @ rho - rho @ hamiltonian)
        for coeff, jump_left, jump_right in terms:
            out = out + coeff * (jump_left @ rho @ jump_right)
        out = out - anticomm @ rho - rho @ anticomm
        return out

    return rhs


def liouvillian_matrix(spec: GeneratorSpec) -> np.ndarray:
    """Matrix of the generator acting on row-major vectorized matrices; column k
    is the generator applied to the k-th matrix unit of the stacked basis."""
    n = spec.dim * spec.dim
    basis = np.eye(n, dtype=complex).reshape(n, spec.dim, spec.dim)
    return build_rhs(spec)(basis).reshape(n, n).T


def integrate(
    rho0,
    spec: GeneratorSpec,
    tau: float,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> np.ndarray:
    """Propagate rho0 for proper time tau with the fixed-step RK4 scheme.

    The step count is ceil(tau / cfg.step) with a uniform step h <= cfg.step;
    the global error is O(h^4).  Raises InstabilityError when the result
    loses positivity, Hermiticity or trace beyond 1e-8.
    """
    rho = as_density_matrix(rho0)
    if rho.shape[0] != spec.dim:
        raise ValueError(f"state dimension {rho.shape[0]} does not match spec dim {spec.dim}")
    tau = float(tau)
    if not math.isfinite(tau) or tau < 0.0:
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    if tau == 0.0:
        return rho.copy()

    n_steps = max(1, math.ceil(tau / cfg.step))
    h = tau / n_steps
    hm = h * liouvillian_matrix(spec)
    eye = np.eye(hm.shape[0], dtype=complex)
    # Classical RK4 for a constant linear generator: one step multiplies the
    # vectorized state by I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24.
    hm2 = hm @ hm
    propagator = eye + hm + hm2 / 2.0 + (hm2 @ hm) / 6.0 + (hm2 @ hm2) / 24.0
    with np.errstate(over="ignore", invalid="ignore"):
        vec = np.linalg.matrix_power(propagator, n_steps) @ rho.reshape(-1)
    out = vec.reshape(rho.shape)
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise InstabilityError(
            f"integration diverged at step {h:.3e}; retry with step <= {h / 10:.3e}"
        )

    hermiticity_drift = float(np.max(np.abs(out - out.conj().T)))
    trace_drift = abs(out.trace() - 1.0)
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (out + out.conj().T))))
    if hermiticity_drift > 1e-8 or trace_drift > 1e-8 or min_eig < -1e-8:
        raise InstabilityError(
            f"integration unstable at step {h:.3e} "
            f"(hermiticity drift {hermiticity_drift:.2e}, trace drift {trace_drift:.2e}, "
            f"min eigenvalue {min_eig:.2e}); retry with step <= {h / 2:.3e}"
        )
    return out


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a randomized closed-form versus integrator comparison."""

    n_cases: int
    max_error: float
    worst_case: str
    re_formula_gap: float
    re_formula_gap_case: str

    @property
    def passed(self) -> bool:
        return self.max_error < VALIDATION_TOLERANCE


_ARCHETYPES = (
    ("parallel", PolarizationWeights.parallel()),
    ("perpendicular", PolarizationWeights.perpendicular()),
    ("isotropic", PolarizationWeights.isotropic()),
)


def _random_bd(rng) -> BellDiagonalParams:
    while True:
        c1, c2, c3 = rng.uniform(-1.0, 1.0, size=3)
        smallest = min(
            1.0 + c3 + (c1 - c2),
            1.0 + c3 - (c1 - c2),
            1.0 - c3 + (c1 + c2),
            1.0 - c3 - (c1 + c2),
        )
        if smallest >= 0.0:
            return BellDiagonalParams(float(c1), float(c2), float(c3))


def _case_geometry(rng) -> tuple[str, Geometry]:
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return "unbounded", Geometry.unbounded()
    if kind == 1:
        u = float(np.exp(rng.uniform(math.log(0.05), math.log(5.0))))
        return f"mirror u={u:.4g}", Geometry.mirror(u)
    return "mirror u=1e-07 (near boundary)", Geometry.mirror(1e-7)


def validate_all(
    seed: int, n_cases: int, cfg: IntegratorConfig = IntegratorConfig()
) -> ValidationReport:
    """Randomized closed-form vs integrator sweep over both system sizes.

    Case 0 is always the fully frozen single-qubit configuration and case 1
    the incoherent theta = 0 one, so even tiny runs exercise the degenerate
    corners.  Deterministic for a given seed.
    """
    if n_cases < 1:
        raise ValueError(f"n_cases must be at least 1, got {n_cases}")
    rng = np.random.default_rng(seed)

    max_error = -1.0
    worst = "none"
    gap_max = -1.0
    gap_case = "none (no two-qubit case with c1*c2 != 0)"

    for index in range(n_cases):
        if index == 0:
            label, geometry = "mirror u=1e-07 (frozen)", Geometry.mirror(1e-7)
            pol_name, polarization = _ARCHETYPES[0]
            theta, phi, q, omega = math.pi / 2, 0.3, 0.7, 2.0
            two_qubit_case = False
        elif index == 1:
            label, geometry = "unbounded", Geometry.unbounded()
            pol_name, polarization = _ARCHETYPES[1]
            theta, phi, q, omega = 0.0, 0.0, 0.5, 1.0
            two_qubit_case = False
        else:
            label, geometry = _case_geometry(rng)
            pol_name, polarization = _ARCHETYPES[index % 3]
            theta = float(rng.uniform(0.0, math.pi))
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            q = float(rng.uniform(0.05, 0.95))
            omega = float(rng.uniform(0.1, 4.0))
            two_qubit_case = index % 2 == 1

        rate = rate_coefficients(geometry, polarization)
        tau = -math.log1p(-q)
        spec = GeneratorSpec(rate.a_coeff, rate.b_coeff, omega, 2 if two_qubit_case else 1)

        if two_qubit_case:
            bd = _random_bd(rng)
            channel = OneSidedChannel(noise_to_damping(q, rate.gamma_eff), omega * tau)
            closed = apply_one_sided_channel(bd_density(bd), channel)
            numeric = integrate(bd_density(bd), spec, tau, cfg)
            description = (
                f"two-qubit c=({bd.c1:.3f},{bd.c2:.3f},{bd.c3:.3f}) "
                f"{label} pol={pol_name} q={q:.3f} omega={omega:.3f}"
            )
            if abs(bd.c1 * bd.c2) > 1e-12:
                gap = abs(
                    c_re_bd(bd, channel.damping) - c_re_bd_closed_form(bd, channel.damping)
                )
                if gap > gap_max:
                    gap_max = gap
                    gap_case = f"{description}: |exact - closed form| = {gap:.3e}"
        else:
            params = EvolutionParams(geometry, polarization, omega)
            closed = evolve_closed_form(InitialAngles(theta, phi), q, params)
            numeric = integrate(closed_form_initial(theta, phi), spec, tau, cfg)
            description = (
                f"single-qubit theta={theta:.3f} phi={phi:.3f} "
                f"{label} pol={pol_name} q={q:.3f} omega={omega:.3f}"
            )

        error = float(np.max(np.abs(closed - numeric)))
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
