"""Coherence dynamics of two-level atoms in the electromagnetic vacuum.

The package computes the l1-norm and relative-entropy coherence of one- and
two-qubit systems undergoing amplitude damping driven by vacuum fluctuations,
optionally modified by a perfectly reflecting boundary, and classifies the
configurations in which coherence stays frozen.  All rates are expressed in
units of the free-space spontaneous emission rate, all distances through the
dimensionless combination u = omega0 * z0 / c, and all times through the
noise parameter q = 1 - exp(-tau).
"""

import importlib

__version__ = "0.1.0"

# Public name -> defining module.  Names load on first access (PEP 562), so
# importing the package does not import numpy: the CLI sets its BLAS
# defaults before numpy loads.
_EXPORTS = {
    name: module
    for module, names in (
        ("boundary", "Geometry PolarizationWeights decay_rate f_parallel f_perpendicular "
                     "noise_to_damping suppression_factor"),
        ("lindblad", "GeneratorSpec InstabilityError IntegratorConfig ValidationReport integrate "
                     "liouvillian_matrix validate_all"),
        ("qmath", "PositivityError c_l1 c_re von_neumann_entropy"),
        ("single_qubit", "CoherenceTrace EvolutionParams FreezeReport InitialAngles c_l1_single "
                         "c_l1_trajectory c_re_single c_re_trajectory dq_c_l1 dq_c_re evolve_closed_form "
                         "freezing_report"),
        ("two_qubit", "BellDiagonalParams OneSidedChannel apply_one_sided_channel bd_density c_l1_bd "
                      "c_re_bd c_re_bd_closed_form choi_matrix freezing_report_bd"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted([*globals(), *_EXPORTS])
