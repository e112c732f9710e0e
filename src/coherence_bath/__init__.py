"""Coherence dynamics of two-level atoms in the electromagnetic vacuum.

The package computes the l1-norm and relative-entropy coherence of one- and
two-qubit systems undergoing amplitude damping driven by vacuum fluctuations,
optionally modified by a perfectly reflecting boundary, and classifies the
configurations in which coherence stays frozen.  All rates are expressed in
units of the free-space spontaneous emission rate, all distances through the
dimensionless combination u = omega0 * z0 / c, and all times through the
noise parameter q = 1 - exp(-tau).
"""

from .boundary import (
    Geometry,
    PolarizationWeights,
    RateCoefficients,
    f_parallel,
    f_perpendicular,
    noise_to_damping,
    rate_coefficients,
    suppression_factor,
)
from .lindblad import (
    GeneratorSpec,
    InstabilityError,
    IntegratorConfig,
    ValidationReport,
    build_rhs,
    integrate,
    liouvillian_matrix,
    validate_all,
)
from .measures import c_l1, c_re
from .qmath import (
    PositivityError,
    diagonal_part,
    von_neumann_entropy,
)
from .single_qubit import (
    CoherenceTrace,
    EvolutionParams,
    FreezeReport,
    InitialAngles,
    c_l1_trajectory,
    c_re_trajectory,
    dq_c_l1,
    dq_c_re,
    evolve_closed_form,
    freezing_report,
    sweep,
)
from .two_qubit import (
    BellDiagonalParams,
    OneSidedChannel,
    apply_one_sided_channel,
    bd_density,
    c_l1_bd,
    c_re_bd,
    c_re_bd_closed_form,
    choi_matrix,
    freezing_report_bd,
    sweep_bd,
)

__version__ = "0.1.0"

__all__ = [
    "BellDiagonalParams",
    "CoherenceTrace",
    "EvolutionParams",
    "FreezeReport",
    "GeneratorSpec",
    "Geometry",
    "InitialAngles",
    "InstabilityError",
    "IntegratorConfig",
    "OneSidedChannel",
    "PolarizationWeights",
    "PositivityError",
    "RateCoefficients",
    "ValidationReport",
    "apply_one_sided_channel",
    "bd_density",
    "build_rhs",
    "c_l1",
    "c_l1_bd",
    "c_l1_trajectory",
    "c_re",
    "c_re_bd",
    "c_re_bd_closed_form",
    "c_re_trajectory",
    "choi_matrix",
    "diagonal_part",
    "dq_c_l1",
    "dq_c_re",
    "evolve_closed_form",
    "f_parallel",
    "f_perpendicular",
    "freezing_report",
    "freezing_report_bd",
    "integrate",
    "liouvillian_matrix",
    "noise_to_damping",
    "rate_coefficients",
    "suppression_factor",
    "sweep",
    "sweep_bd",
    "von_neumann_entropy",
]
