"""The eight value types: named tuples whose ``__new__`` checks the fields, and CoherenceTrace.

Each row gives a valid value, the parent's ``repr`` of it, its fields by
keyword, and one field value that the checks reject with the message
given.  Every way of building a value, including ``_make``, ``_replace``,
copy and pickle, goes through the checks.
"""

import copy
import pickle
import re
import struct

import numpy as np
import pytest

from coherence_bath import (
    BellDiagonalParams,
    CoherenceTrace,
    GeneratorSpec,
    Geometry,
    InitialAngles,
    IntegratorConfig,
    OneSidedChannel,
    PolarizationWeights,
    liouvillian_matrix,
)

# value, repr, keyword fields, (field, rejected value, message start)
TUPLES = [
    (Geometry(0.5), "Geometry(u=0.5)", {"u": 0.5},
     ("u", -0.5, "boundary distance u must be finite and positive, got -0.5")),
    (PolarizationWeights(0.25, 0.0, 0.75), "PolarizationWeights(ax=0.25, ay=0.0, az=0.75)",
     {"ax": 0.25, "ay": 0.0, "az": 0.75},
     ("ax", -0.25, "polarization weight ax must be nonnegative, got -0.25")),
    (GeneratorSpec(0.25, 0.125), "GeneratorSpec(a_coeff=0.25, b_coeff=0.125, omega=0.0, n_qubits=1)",
     {"a_coeff": 0.25, "b_coeff": 0.125, "omega": 0.0, "n_qubits": 1},
     ("b_coeff", 0.5, "complete positivity requires a_coeff >= |b_coeff|, got a=0.25, b=0.5")),
    (IntegratorConfig(), "IntegratorConfig(step=0.001)", {"step": 0.001},
     ("step", 0.5, "step must be at most 1e-2, got 0.5")),
    (InitialAngles(1.0), "InitialAngles(theta=1.0, phi=0.0)", {"theta": 1.0, "phi": 0.0},
     ("theta", 99.0, "theta must lie in [0, pi], got 99.0")),
    (OneSidedChannel(0.5), "OneSidedChannel(damping=0.5, phase=0.0)", {"damping": 0.5, "phase": 0.0},
     ("damping", 1.5, "damping must lie in [0, 1], got 1.5")),
    (BellDiagonalParams(0.3, 0.2, 0.1), "BellDiagonalParams(c1=0.3, c2=0.2, c3=0.1)",
     {"c1": 0.3, "c2": 0.2, "c3": 0.1},
     ("c1", 3.0, "unphysical correlation vector: eigenvalue")),
]
TRACE = {"q": [0.1, 0.2], "c_l1": [1.0, 0.9], "c_re": [1.0, 0.8]}
TRACE_REPR = "CoherenceTrace(q=array([0.1, 0.2]), c_l1=array([1. , 0.9]), c_re=array([1. , 0.8]))"
IDS = [type(row[0]).__name__ for row in TUPLES]


def _tampered(value, old: float, new: float) -> bytes:
    """``value`` pickled, with the bits of the float ``old`` replaced by those of ``new``."""
    data = pickle.dumps(value)
    # pickle writes a float big-endian; numpy writes an array's buffer little-endian
    tampered = data.replace(struct.pack(">d", old), struct.pack(">d", new))
    tampered = tampered.replace(struct.pack("<d", old), struct.pack("<d", new))
    assert tampered != data
    return tampered


def test_repr_is_the_parents():
    for value, text, _, _ in TUPLES:
        assert repr(value) == text
    assert repr(Geometry()) == "Geometry(u=None)"
    assert repr(CoherenceTrace(**TRACE)) == TRACE_REPR
    # liouvillian_matrix's overflow message embeds the repr
    with pytest.raises(ValueError, match=r"^the generator of GeneratorSpec\(a_coeff=1e\+308, b_coeff=1e\+308, "
                                         r"omega=0\.0, n_qubits=1\) overflows a float$"):
        liouvillian_matrix(GeneratorSpec(1e308, 1e308))


def test_fields_and_new_attributes_cannot_be_assigned_or_deleted():
    trace = CoherenceTrace(**TRACE)
    for value, _, fields, _ in [*TUPLES, (trace, None, TRACE, None)]:
        for name in [*fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(value, name, 0.5)
            with pytest.raises(AttributeError):
                delattr(value, name)
    assert not trace.q.flags.writeable and not trace.c_l1.flags.writeable and not trace.c_re.flags.writeable


def test_a_value_type_equals_the_tuple_of_its_fields():
    assert InitialAngles(1.0, 0.0) == (1.0, 0.0)
    for value, _, fields, _ in TUPLES:
        assert value == tuple(fields.values()) and hash(value) == hash(tuple(fields.values()))
        assert value == type(value)(*fields.values())
    # a trace holds arrays, so it is equal only to itself
    trace = CoherenceTrace(**TRACE)
    assert trace == trace and trace != CoherenceTrace(**TRACE)


def test_fields_can_be_given_by_keyword():
    for value, _, fields, _ in TUPLES:
        assert type(value)(**fields) == value
    trace = CoherenceTrace(**TRACE)
    for name, column in TRACE.items():
        assert getattr(trace, name).tolist() == column


@pytest.mark.parametrize("value, field, bad, message", [(row[0], *row[3]) for row in TUPLES], ids=IDS)
def test_make_and_replace_run_the_checks(value, field, bad, message):
    assert value._replace() == value and type(value._replace()) is type(value)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        value._replace(**{field: bad})
    fields = {**value._asdict(), field: bad}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        type(value)._make(fields.values())
    with pytest.raises(ValueError, match="Got unexpected field names"):
        value._replace(nope=1.0)


@pytest.mark.parametrize(
    "value, old, new, message",
    [(row[0], row[2][row[3][0]], row[3][1], row[3][2]) for row in TUPLES]
    + [(CoherenceTrace(**TRACE), 0.2, 0.05, "trace q values must be strictly increasing")],
    ids=[*IDS, "CoherenceTrace"],
)
def test_copy_and_pickle_run_the_checks(value, old, new, message):
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value) and repr(clone) == repr(value)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        pickle.loads(_tampered(value, old, new))


def test_a_trace_unpickles_read_only():
    clone = pickle.loads(pickle.dumps(CoherenceTrace(**TRACE)))
    assert not clone.q.flags.writeable and np.array_equal(clone.q, TRACE["q"])
