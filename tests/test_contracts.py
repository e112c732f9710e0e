"""One input contract per export: a value of the wrong type is a TypeError naming its argument.

The package has three rules for inputs: a real number is a ``numbers.Real``
that is not a bool, a count or seed is a ``numbers.Integral`` that is not a
bool, and a value type is an instance or a tuple of its fields.  Arrays of q
and q' and density matrices hold numbers, never bools, text or objects.
``CONTRACTS`` has one row per name in ``coherence_bath.__all__``: for each
argument, the label its error message starts with, the wrong values, and a
call that passes one of them with every other argument valid.  A name that
takes no number, array or value type has an empty row.  A value type's wrong
values include tuples of the wrong length and a value of another value type
whose fields would pass its checks: each value type is a tuple, but not a
tuple of another type's fields.
"""

import re

import numpy as np
import pytest

import coherence_bath
from coherence_bath import (
    BellDiagonalParams,
    CoherenceTrace,
    GeneratorSpec,
    Geometry,
    InitialAngles,
    IntegratorConfig,
    OneSidedChannel,
    PolarizationWeights,
    apply_one_sided_channel,
    bd_density,
    c_l1,
    c_l1_bd,
    c_l1_single,
    c_l1_trajectory,
    c_re,
    c_re_bd,
    c_re_bd_closed_form,
    c_re_single,
    c_re_trajectory,
    choi_matrix,
    decay_rate,
    dq_c_l1,
    dq_c_re,
    evolve_closed_form,
    f_parallel,
    f_perpendicular,
    freezing_report,
    freezing_report_bd,
    integrate,
    liouvillian_matrix,
    noise_to_damping,
    suppression_factor,
    validate_all,
    von_neumann_entropy,
)

REAL = (True, "0.5", None)
COUNT = (True, "1", None, 1.5)
VALUE = (True, "0.5", None, 0.5)
ARRAY = (True, "0.5", None, [True, False], ["0.1", "0.2"])
MATRIX = (True, "0.5", None, [[True, False], [False, False]], [["1", "0"], ["0", "0"]],
          np.array([[1, 0], [0, 0]], dtype=object))

RHO = np.eye(2) / 2
BD = (0.3, 0.2, 0.1)
CHANNEL = OneSidedChannel(0.5, 0.0)
MIRROR = Geometry.mirror(0.5)
PARALLEL = PolarizationWeights.parallel()
SPEC = GeneratorSpec(0.25, 0.25)

# Per value type: VALUE, a tuple one field too short (where its fields have no
# defaults), one field too long, and a value of another value type that it
# would take as its fields.
VALUE_OF = {
    Geometry: VALUE + ((0.5, 0.5), IntegratorConfig(0.005)),
    PolarizationWeights: VALUE + ((1.0, 0.0), (1.0, 0.0, 0.0, 0.0), BellDiagonalParams(1.0, 0.0, 0.0)),
    GeneratorSpec: VALUE + ((0.25,), (0.25, 0.25, 0.0, 1, 0.0), InitialAngles(0.25, 0.25)),
    IntegratorConfig: VALUE + ((0.005, 0.005), Geometry(0.005)),
    InitialAngles: VALUE + ((), (1.0, 0.0, 0.0), OneSidedChannel(0.5, 0.0)),
    OneSidedChannel: VALUE + ((), (0.5, 0.0, 0.0), InitialAngles(0.5, 0.0)),
    BellDiagonalParams: VALUE + ((0.3, 0.2), (0.3, 0.2, 0.1, 0.0), PolarizationWeights(1.0, 0.0, 0.0)),
}


def _env(call):
    """Rows for a (geometry, polarization) pair: call(geometry, polarization)."""
    return {
        "geometry": ("geometry", VALUE_OF[Geometry], lambda x: call(x, PARALLEL)),
        "polarization": ("polarization", VALUE_OF[PolarizationWeights], lambda x: call(MIRROR, x)),
    }


def _measures(call):
    """Rows for a density-matrix measure."""
    return {"m": ("density matrix", MATRIX, call)}


def _q_prime_kernel(kernel, state):
    return {"q_prime": ("damping q'", ARRAY, lambda x: kernel(state, x))}


def _trajectory(trajectory):
    return {
        "theta": ("theta", REAL, lambda x: trajectory(x, 0.5, MIRROR, PARALLEL)),
        "q": ("noise parameter q", ARRAY, lambda x: trajectory(1.0, x, MIRROR, PARALLEL)),
        **_env(lambda g, p: trajectory(1.0, 0.5, g, p)),
    }


def _derivative(derivative):
    return {
        "theta": ("theta", REAL, lambda x: derivative(x, 0.5, 0.0)),
        "q": ("q", REAL, lambda x: derivative(1.0, x, 0.0)),
        "f": ("suppression factor f", REAL, lambda x: derivative(1.0, 0.5, x)),
    }


def _bd_kernel(kernel):
    return {
        "c": ("c", VALUE_OF[BellDiagonalParams], lambda x: kernel(x, 0.5)),
        **_q_prime_kernel(kernel, BD),
    }


CONTRACTS = {
    # boundary
    "Geometry": {"u": ("boundary distance u", (True, "0.5"), Geometry)},  # None is the unbounded vacuum
    "PolarizationWeights": {
        "ax": ("polarization weight ax", REAL, lambda x: PolarizationWeights(x, 0.0, 1.0)),
        "ay": ("polarization weight ay", REAL, lambda x: PolarizationWeights(0.0, x, 1.0)),
        "az": ("polarization weight az", REAL, lambda x: PolarizationWeights(1.0, 0.0, x)),
    },
    "decay_rate": {"f": ("suppression factor f", REAL, decay_rate)},
    "f_parallel": {"u": ("boundary distance u", REAL, f_parallel)},
    "f_perpendicular": {"u": ("boundary distance u", REAL, f_perpendicular)},
    "noise_to_damping": {
        "q": ("noise parameter q", ARRAY, lambda x: noise_to_damping(x, 0.5)),
        "gamma_eff": ("gamma_eff", REAL, lambda x: noise_to_damping(0.5, x)),
    },
    "suppression_factor": _env(suppression_factor),
    # lindblad
    "GeneratorSpec": {
        "a_coeff": ("a_coeff", REAL, lambda x: GeneratorSpec(x, 0.0)),
        "b_coeff": ("b_coeff", REAL, lambda x: GeneratorSpec(0.25, x)),
        "omega": ("omega", REAL, lambda x: GeneratorSpec(0.25, 0.25, x)),
        "n_qubits": ("n_qubits", COUNT, lambda x: GeneratorSpec(0.25, 0.25, 0.0, x)),
    },
    "InstabilityError": {},
    "IntegratorConfig": {"step": ("step", REAL, IntegratorConfig)},
    "ValidationReport": {},  # a result record
    "integrate": {
        "rho0": ("density matrix", MATRIX, lambda x: integrate(x, SPEC, 0.5)),
        "spec": ("spec", VALUE_OF[GeneratorSpec], lambda x: integrate(RHO, x, 0.5)),
        "tau": ("tau", REAL, lambda x: integrate(RHO, SPEC, x)),
        "cfg": ("cfg", VALUE_OF[IntegratorConfig], lambda x: integrate(RHO, SPEC, 0.5, x)),
    },
    "liouvillian_matrix": {"spec": ("spec", VALUE_OF[GeneratorSpec], liouvillian_matrix)},
    "validate_all": {
        "seed": ("seed", COUNT, lambda x: validate_all(x, 1)),
        "n_cases": ("n_cases", COUNT, lambda x: validate_all(1, x)),
        "cfg": ("cfg", VALUE_OF[IntegratorConfig], lambda x: validate_all(1, 1, x)),
    },
    # qmath
    "PositivityError": {},
    "c_l1": _measures(c_l1),
    "c_re": _measures(c_re),
    "von_neumann_entropy": _measures(von_neumann_entropy),
    # single_qubit
    "CoherenceTrace": {
        "q": ("trace q values", ARRAY, lambda x: CoherenceTrace(x, [1.0], [0.0])),
        "c_l1": ("trace c_l1 values", ARRAY, lambda x: CoherenceTrace([0.5], x, [0.0])),
        "c_re": ("trace c_re values", ARRAY, lambda x: CoherenceTrace([0.5], [1.0], x)),
    },
    "FreezeReport": {},  # a result record
    "InitialAngles": {
        "theta": ("theta", REAL, InitialAngles),
        "phi": ("phi", REAL, lambda x: InitialAngles(1.0, x)),
    },
    "OneSidedChannel": {
        "damping": ("damping", REAL, OneSidedChannel),
        "phase": ("phase", REAL, lambda x: OneSidedChannel(0.5, x)),
    },
    "c_l1_single": {"theta": ("theta", REAL, lambda x: c_l1_single(x, 0.5)), **_q_prime_kernel(c_l1_single, 1.0)},
    "c_re_single": {"theta": ("theta", REAL, lambda x: c_re_single(x, 0.5)), **_q_prime_kernel(c_re_single, 1.0)},
    "c_l1_trajectory": _trajectory(c_l1_trajectory),
    "c_re_trajectory": _trajectory(c_re_trajectory),
    "dq_c_l1": _derivative(dq_c_l1),
    "dq_c_re": _derivative(dq_c_re),
    "evolve_closed_form": {
        "angles": ("angles", VALUE_OF[InitialAngles], lambda x: evolve_closed_form(x, CHANNEL)),
        "channel": ("channel", VALUE_OF[OneSidedChannel], lambda x: evolve_closed_form((1.0, 0.0), x)),
    },
    "freezing_report": {
        "theta": ("theta", REAL, lambda x: freezing_report(x, MIRROR, PARALLEL)),
        **_env(lambda g, p: freezing_report(1.0, g, p)),
    },
    # two_qubit
    "BellDiagonalParams": {
        "c1": ("c1", REAL, lambda x: BellDiagonalParams(x, 0.0, 0.0)),
        "c2": ("c2", REAL, lambda x: BellDiagonalParams(0.0, x, 0.0)),
        "c3": ("c3", REAL, lambda x: BellDiagonalParams(0.0, 0.0, x)),
    },
    "apply_one_sided_channel": {
        "rho": ("density matrix", MATRIX, lambda x: apply_one_sided_channel(x, CHANNEL)),
        "ch": ("ch", VALUE_OF[OneSidedChannel], lambda x: apply_one_sided_channel(bd_density(BD), x)),
    },
    "bd_density": {"c": ("c", VALUE_OF[BellDiagonalParams], bd_density)},
    "c_l1_bd": _bd_kernel(c_l1_bd),
    "c_re_bd": _bd_kernel(c_re_bd),
    "c_re_bd_closed_form": _bd_kernel(c_re_bd_closed_form),
    "choi_matrix": {"ch": ("ch", VALUE_OF[OneSidedChannel], choi_matrix)},
    "freezing_report_bd": {
        "c": ("c", VALUE_OF[BellDiagonalParams], lambda x: freezing_report_bd(x, MIRROR, PARALLEL)),
        **_env(lambda g, p: freezing_report_bd(BD, g, p)),
    },
}

CASES = [
    pytest.param(label, call, bad, id=f"{name}-{argument}-{bad!r}"[:60])
    for name, row in CONTRACTS.items()
    for argument, (label, bads, call) in row.items()
    for bad in bads
]


def test_every_export_has_a_row():
    assert sorted(CONTRACTS) == coherence_bath.__all__


@pytest.mark.parametrize("label, call, bad", CASES)
def test_a_wrong_type_is_a_type_error_naming_the_argument(label, call, bad):
    with pytest.raises(TypeError, match=f"^{re.escape(label)} must be "):
        call(bad)


def test_the_rules_take_every_kind_of_number():
    # numpy scalars are numbers.Real and numbers.Integral; int, float and complex matrices are numbers.
    assert InitialAngles(np.float64(1.0), 0).theta == 1.0
    assert GeneratorSpec(0.25, 0.25, 0.0, np.int64(2)).dim == 4
    assert validate_all(np.int64(1), np.uint8(2)).n_cases == 2
    assert c_l1([[1, 0], [0, 0]]) == c_re([[1, 0], [0, 0]]) == 0.0
    assert c_l1(np.full((2, 2), 0.5, dtype=np.float32)) == 1.0
    assert von_neumann_entropy(np.eye(2, dtype=complex) / 2) == 1.0
