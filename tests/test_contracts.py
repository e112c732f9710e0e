"""One input contract per export: a value of the wrong type is a TypeError naming its argument,
and a NaN or infinite number is a ValueError naming it.

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
tuple of another type's fields.  Every real number and every entry of an array
of real numbers is finite: NaN, inf and -inf raise ValueError before any range
rule, as ``<label> must be finite, got <value>``, also where a value type
arrives as a tuple of its fields.

``DOMAINS`` is a second column, for the kernels that write the tables'
values and the damping map they take q' from: a Hypothesis strategy over
each argument's declared domain, the mpmath reference of tests/reference.py
that the result must match, and the bound it must match within.
"""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coherence_bath
import reference
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
    c_re,
    c_re_bd,
    c_re_bd_closed_form,
    c_re_single,
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
SPEC = GeneratorSpec(1.0)

# Per value type: VALUE, a tuple one field too short (where its fields have no
# defaults), one field too long, and a value of another value type that it
# would take as its fields.
VALUE_OF = {
    Geometry: VALUE + ((0.5, 0.5), IntegratorConfig(0.005)),
    PolarizationWeights: VALUE + ((1.0, 0.0), (1.0, 0.0, 0.0, 0.0), BellDiagonalParams(1.0, 0.0, 0.0)),
    GeneratorSpec: VALUE + ((), (1.0, 0.0, 0.0), InitialAngles(0.25, 0.25)),
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
        "gamma_eff": ("gamma_eff", REAL, GeneratorSpec),
        "omega": ("omega", REAL, lambda x: GeneratorSpec(1.0, x)),
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
    "liouvillian_matrix": {
        "spec": ("spec", VALUE_OF[GeneratorSpec], lambda x: liouvillian_matrix(x, 1)),
        "n_qubits": ("n_qubits", COUNT, lambda x: liouvillian_matrix(SPEC, x)),
    },
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


# Each argument whose wrong values are REAL or ARRAY, and Geometry's u, with
# NaN, inf and -inf, passed to an array argument as its one entry.
NON_FINITE_CASES = [
    pytest.param(label, call, bad, bads is ARRAY, id=f"{name}-{argument}-{bad!r}")
    for name, row in CONTRACTS.items()
    for argument, (label, bads, call) in row.items()
    if bads is REAL or bads is ARRAY or (name, argument) == ("Geometry", "u")
    for bad in (math.nan, math.inf, -math.inf)
]


# A valid tuple of each value type's real fields, in field order.
FIELDS_OF = {
    Geometry: (0.5,),
    PolarizationWeights: (1.0, 0.0, 0.0),
    GeneratorSpec: (1.0, 0.0),
    IntegratorConfig: (0.005,),
    InitialAngles: (1.0, 0.0),
    OneSidedChannel: (0.5, 0.0),
    BellDiagonalParams: BD,
}

# Each argument that takes a value type, passed a tuple of its fields with one
# real field NaN, inf or -inf: the error names that field as its constructor does.
NON_FINITE_FIELD_CASES = [
    pytest.param(field_label, call, fields[:i] + (bad,) + fields[i + 1:], bad,
                 id=f"{name}-{argument}-{field}-{bad!r}")
    for name, row in CONTRACTS.items()
    for argument, (label, bads, call) in row.items()
    for cls, fields in FIELDS_OF.items()
    if bads is VALUE_OF[cls]
    for i, (field, (field_label, _, _)) in enumerate(list(CONTRACTS[cls.__name__].items())[:len(fields)])
    for bad in (math.nan, math.inf, -math.inf)
]


# theta in [0, pi] and q' in [0, 1], each with its ends, a subnormal and the
# float next to 1 drawn by name, and any physical (c1, c2, c3): the
# Bell-diagonal state of four nonnegative weights, so zero weights give the
# rank-deficient states on the boundary, Bell states included.
THETA = st.one_of(st.sampled_from([0.0, 5e-324, math.pi / 2, math.pi]), st.floats(0.0, math.pi))
Q_PRIME = st.one_of(st.sampled_from([0.0, 5e-324, 1.0 - 2.0**-53, 1.0]), st.floats(0.0, 1.0))
PHYSICAL_C = st.tuples(*[st.floats(0.0, 1.0)] * 4).map(lambda p: reference.bd_from_spectrum(*p, dps=40))
# gamma_eff >= 0: frozen, a subnormal, free space and the largest float by name.
GAMMA_EFF = st.one_of(st.sampled_from([0.0, 5e-324, 1.0, sys.float_info.max]), st.floats(0.0, sys.float_info.max))
DOMAIN_DPS = 40  # the reference's digits: far beyond the bounds below
# The entropy rows are absolute: 8000 points drawn toward the ends of each
# domain (q' within 1e-100 of 0 or 1, theta within 1e-8 of 0 or pi, spectra
# with subnormal and zero weights) stayed below 5.0e-15 on all three.
ENTROPY_BOUND = (0.0, 1e-14)
# The l1 rows and the damping map are relative: 8000 points of each row's
# strategy, and 3000 drawn toward the ends of each domain (gamma_eff also
# below 1e-300 and above 1e300), stayed below 4.2e-16 where the reference is a
# normal float.  Below the smallest normal the float grid is 2**-1074 apart,
# too coarse for any relative bound: there the bound is two of its steps (one
# seen, at c_l1_single(1.1e-308, 0.28)).
RELATIVE_BOUND = (1e-15, 2.0**-1073)

# name -> (strategy of the arguments, reference of the result, (relative,
# absolute) bound as math.isclose takes them, examples).  Each example runs
# an mpmath reference; the Bell-diagonal entropy has four slots to the single
# qubit's two, so its rows draw half as many, and each Bell-diagonal example
# also maps a spectrum to c in mpmath.  The entropy rows take about 1.2 s of
# tier-1 together and the other three about 0.4 s (2-core host); all draw
# their examples from a fixed seed, so a run of tier-1 does not depend on the
# day's draws.
DOMAINS = {
    "c_re_single": (st.tuples(THETA, Q_PRIME), lambda t, qp: reference.c_re_single(t, qp, dps=DOMAIN_DPS),
                    ENTROPY_BOUND, 300),
    "c_re_bd": (st.tuples(PHYSICAL_C, Q_PRIME), lambda c, qp: reference.c_re_bd(c, qp, dps=DOMAIN_DPS)[0],
                ENTROPY_BOUND, 150),
    "c_re_bd_closed_form": (st.tuples(PHYSICAL_C, Q_PRIME),
                            lambda c, qp: reference.c_re_bd(c, qp, dps=DOMAIN_DPS)[1], ENTROPY_BOUND, 150),
    "c_l1_single": (st.tuples(THETA, Q_PRIME), lambda t, qp: reference.c_l1_single(t, qp, dps=DOMAIN_DPS),
                    RELATIVE_BOUND, 100),
    "c_l1_bd": (st.tuples(PHYSICAL_C, Q_PRIME), lambda c, qp: reference.c_l1_bd(c, qp, dps=DOMAIN_DPS),
                RELATIVE_BOUND, 60),
    # q has the domain of q'.
    "noise_to_damping": (st.tuples(Q_PRIME, GAMMA_EFF), lambda q, g: reference.noise_to_damping(q, g, dps=DOMAIN_DPS),
                         RELATIVE_BOUND, 100),
}


def test_every_export_has_a_row():
    assert sorted(CONTRACTS) == coherence_bath.__all__
    assert set(DOMAINS) <= set(CONTRACTS)


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_a_kernel_matches_its_reference_over_its_domain(name):
    arguments, expected, (relative, absolute), examples = DOMAINS[name]
    kernel = getattr(coherence_bath, name)

    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(arguments)
    def matches(args):
        value = kernel(*args)
        assert type(value) is float and math.isclose(value, expected(*args), rel_tol=relative, abs_tol=absolute), args

    matches()


@pytest.mark.parametrize("label, call, bad", CASES)
def test_a_wrong_type_is_a_type_error_naming_the_argument(label, call, bad):
    with pytest.raises(TypeError, match=f"^{re.escape(label)} must be "):
        call(bad)


@pytest.mark.parametrize("label, call, bad, as_array", NON_FINITE_CASES)
def test_a_non_finite_number_is_a_value_error_naming_the_argument(label, call, bad, as_array):
    with pytest.raises(ValueError, match=f"^{re.escape(label)} must be finite, got {bad}$"):
        call([bad] if as_array else bad)


@pytest.mark.parametrize("label, call, fields, bad", NON_FINITE_FIELD_CASES)
def test_a_non_finite_field_of_a_value_type_is_a_value_error_naming_the_field(label, call, fields, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(label)} must be finite, got {bad}$"):
        call(fields)


def test_the_rules_take_every_kind_of_number():
    # numpy scalars are numbers.Real and numbers.Integral; int, float and complex matrices are numbers.
    assert InitialAngles(np.float64(1.0), 0).theta == 1.0
    assert liouvillian_matrix(SPEC, np.int64(2)).shape == (16, 16)
    assert validate_all(np.int64(1), np.uint8(2)).n_cases == 2
    assert c_l1([[1, 0], [0, 0]]) == c_re([[1, 0], [0, 0]]) == 0.0
    assert c_l1(np.full((2, 2), 0.5, dtype=np.float32)) == 1.0
    assert von_neumann_entropy(np.eye(2, dtype=complex) / 2) == 1.0
