import mpmath
import numpy as np
import pytest

from coherence_bath.two_qubit import BellDiagonalParams


@pytest.fixture(autouse=True)
def mpmath_keeps_its_default_precision():
    """No test changes mpmath's global precision: tests/reference.py sets its own per call."""
    assert mpmath.mp.dps == 15, f"mpmath.mp.dps is {mpmath.mp.dps} before the test"
    yield
    assert mpmath.mp.dps == 15, f"the test left mpmath.mp.dps at {mpmath.mp.dps}"


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def random_density():
    """Factory for random full-rank density matrices (mixtures of pure states)."""

    def make(rng, dim, n_pure=5):
        rho = np.zeros((dim, dim), dtype=complex)
        weights = rng.dirichlet(np.ones(n_pure))
        for w in weights:
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            vec /= np.linalg.norm(vec)
            rho += w * np.outer(vec, vec.conj())
        rho = 0.5 * (rho + rho.conj().T)
        return rho / rho.trace().real

    return make


@pytest.fixture
def random_bd():
    """Factory for physical Bell-diagonal states: c uniform in [-1, 1]^3, redrawn until its spectrum is >= 0."""

    def make(rng):
        while True:
            c1, c2, c3 = rng.uniform(-1.0, 1.0, size=3)
            if min(1.0 + c3 + (c1 - c2), 1.0 + c3 - (c1 - c2), 1.0 - c3 + (c1 + c2), 1.0 - c3 - (c1 + c2)) >= 0.0:
                return BellDiagonalParams(float(c1), float(c2), float(c3))

    return make


@pytest.fixture
def partial_trace_a():
    """Trace out qubit A of a 4x4 matrix in the {|11>,|10>,|01>,|00>} basis."""

    def trace_a(rho):
        blocks = rho.reshape(2, 2, 2, 2)
        return blocks[0, :, 0, :] + blocks[1, :, 1, :]

    return trace_a
