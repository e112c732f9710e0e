"""The array path of every coherence kernel against its per-point use.

The trajectories and the Bell-diagonal kernels evaluate whole grids at once; the
per-point public functions are the same kernels on one value.  Both must
give the same bits (compared through ``float.hex``, which also tells -0.0
from 0.0), because the CLI prints them with ``repr``.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coherence_bath.boundary import Geometry, PolarizationWeights, decay_rate, noise_to_damping, suppression_factor
from coherence_bath.single_qubit import (
    CoherenceTrace,
    c_l1_single,
    c_l1_trajectory,
    c_re_single,
    c_re_trajectory,
)
from coherence_bath.two_qubit import (
    BellDiagonalParams,
    c_l1_bd,
    c_re_bd,
    c_re_bd_closed_form,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _bits(values):
    return [float(v).hex() for v in values]


@st.composite
def geometries(draw):
    kind = draw(st.sampled_from(["unbounded", "near", "far"]))
    if kind == "unbounded":
        return Geometry.unbounded()
    low, high = (1e-7, 0.0999) if kind == "near" else (0.1, 50.0)
    return Geometry.mirror(draw(st.floats(min_value=low, max_value=high)))


@st.composite
def polarizations(draw):
    preset = draw(st.sampled_from(["parallel", "perpendicular", "isotropic", "weights"]))
    if preset != "weights":
        return getattr(PolarizationWeights, preset)()
    ax = draw(unit)
    ay = draw(unit) * (1.0 - ax)
    return PolarizationWeights(ax, ay, 1.0 - ax - ay)


@st.composite
def physical_bd(draw):
    # From a spectrum (p1..p4) on the simplex; zero weights give the
    # rank-deficient states on the physicality boundary, Bell states included.
    raw = [draw(unit) for _ in range(4)]
    total = sum(raw)
    p1, p2, p3, p4 = [r / total for r in raw] if total > 0.0 else [0.25] * 4
    return BellDiagonalParams((p1 - p2) + (p3 - p4), -(p1 - p2) + (p3 - p4), 2.0 * (p1 + p2) - 1.0)


def _grid(interior):
    """Increasing q grid that always holds both endpoints 0 and 1."""
    return np.unique(np.concatenate([[0.0, 1.0], interior]))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=math.pi),
    geometries(),
    polarizations(),
    st.lists(unit, max_size=30),
)
def test_trajectory_columns_match_per_point_values(theta, geometry, polarization, interior):
    q_grid = _grid(interior)
    for trajectory in (c_l1_trajectory, c_re_trajectory):
        per_point = [trajectory(theta, q, geometry, polarization) for q in q_grid.tolist()]
        assert all(type(v) is float for v in per_point)
        assert _bits(trajectory(theta, q_grid, geometry, polarization)) == _bits(per_point)


@settings(max_examples=60, deadline=None)
@given(physical_bd(), st.lists(unit, max_size=30))
def test_bd_kernels_on_arrays_match_per_element(bd, interior):
    q_prime = np.concatenate([[0.0, 1.0], interior])
    for kernel in (c_l1_bd, c_re_bd, c_re_bd_closed_form):
        per_element = [kernel(bd, qp) for qp in q_prime.tolist()]
        assert all(type(v) is float for v in per_element)
        assert _bits(kernel(bd, q_prime)) == _bits(per_element)


@settings(max_examples=30, deadline=None)
@given(physical_bd(), geometries(), polarizations(), st.lists(unit, max_size=30))
def test_bd_kernels_at_mapped_damping_match_per_point(bd, geometry, polarization, interior):
    q_grid = _grid(interior)
    gamma = decay_rate(suppression_factor(geometry, polarization))
    damping = [noise_to_damping(q, gamma) for q in q_grid.tolist()]
    for kernel in (c_l1_bd, c_re_bd):
        assert _bits(kernel(bd, noise_to_damping(q_grid, gamma))) == _bits([kernel(bd, qp) for qp in damping])


def test_trace_rejects_nan_and_ragged_columns():
    with pytest.raises(ValueError, match="\\[0, 1\\], got nan"):
        CoherenceTrace([0.0, float("nan")], [1.0, 0.9], [1.0, 0.9])
    with pytest.raises(ValueError, match="equal length"):
        CoherenceTrace([0.0, 0.5], [1.0, 0.9], [1.0])
    trace = CoherenceTrace([0.0, 0.5], [1.0, 0.9], [1.0, 0.8])
    with pytest.raises(ValueError):
        trace.c_l1[0] = 2.0  # columns are read-only


def test_damping_map_rejects_out_of_range_arrays():
    with pytest.raises(ValueError, match="noise parameter q must lie in \\[0, 1\\], got 1.5"):
        noise_to_damping(np.array([0.2, 1.5]), 1.0)


@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize("bad", [-0.5, 1.5, math.nan, -math.inf])
@pytest.mark.parametrize(
    "kernel, state",
    [(c_l1_single, 1.0), (c_re_single, 1.0), (c_l1_bd, (0.3, -0.4, 0.2)), (c_re_bd, (0.3, -0.4, 0.2))],
)
def test_kernels_reject_out_of_range_arrays(kernel, state, bad, as_array):
    q_prime = np.array([0.1, bad]) if as_array else bad
    with pytest.raises(ValueError, match=re.escape(f"damping q' must lie in [0, 1], got {bad}")):
        kernel(state, q_prime)


# Grids with the ends of the unit interval, the largest q below 1 and the
# smallest subnormal, on top of an ordinary interior.
_DAMPING_GRIDS = [
    np.array([0.0, 5e-324, 0.25, 0.5, 1.0 - 1e-16, 1.0]),
    np.linspace(0.0, 1.0, 1001),
    np.array([[1.0, 0.0, 0.3], [5e-324, 1.0 - 1e-16, 0.9]]),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma", [0.0, 1e-300, 1e-5, 0.3, 1.0, 1.7, 2.0, 1.7976931348623157e308])
@pytest.mark.parametrize("grid", _DAMPING_GRIDS)
def test_damping_map_on_arrays_matches_scalar_path(grid, gamma):
    qp = noise_to_damping(grid, gamma)
    assert qp.shape == grid.shape
    assert _bits(qp.ravel()) == _bits(noise_to_damping(float(q), gamma) for q in grid.ravel())
