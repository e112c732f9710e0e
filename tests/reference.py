"""The closed forms of the paper in mpmath: the references the tests compare against.

Every public function takes the working precision ``dps`` in decimal digits,
computes inside ``mp.workdps(dps)`` and returns floats, so no caller changes
mpmath's global precision.  Arguments are taken exactly as given: a float is
its binary value, a string such as ``"0.1"`` its decimal one.  The module
imports neither numpy nor the package, so a fault there cannot reach it.
"""

import mpmath as mp


def f_parallel(u, *, dps):
    """f_par(u) = 3/(16 u^3) (2u cos 2u + (4u^2 - 1) sin 2u)."""
    with mp.workdps(dps):
        u = mp.mpf(u)
        return float(3 / (16 * u**3) * (2 * u * mp.cos(2 * u) + (4 * u**2 - 1) * mp.sin(2 * u)))


def f_perpendicular(u, *, dps):
    """f_perp(u) = 3/(8 u^3) (2u cos 2u - sin 2u)."""
    with mp.workdps(dps):
        u = mp.mpf(u)
        return float(3 / (8 * u**3) * (2 * u * mp.cos(2 * u) - mp.sin(2 * u)))


def _entropy(spectrum):
    return -mp.fsum(p * mp.log(p, 2) for p in spectrum if p > 0)


def _c_re(theta, q_prime):
    # At the caller's precision: mp.diff raises it around this function, and a
    # workdps here would round the difference quotient back to dps digits.
    sin_t, cos_t = mp.sin(mp.mpf(theta)), mp.cos(mp.mpf(theta))
    bz = cos_t * (1 - q_prime) - q_prime
    radius = mp.sqrt(sin_t**2 * (1 - q_prime) + bz**2)
    return _entropy([(1 + bz) / 2, (1 - bz) / 2]) - _entropy([(1 + radius) / 2, (1 - radius) / 2])


def c_re_single(theta, q_prime, *, dps):
    """Relative entropy of coherence of the damped pure single-qubit state at damping q'."""
    with mp.workdps(dps):
        return float(_c_re(theta, mp.mpf(q_prime)))


def dq_c_re(theta, q, f, *, dps):
    """|dC_re/dq| along the sweep q, where q' = 1 - (1 - q)^(1 - f)."""
    with mp.workdps(dps):
        gamma = 1 - mp.mpf(f)
        return float(abs(mp.diff(lambda x: _c_re(theta, 1 - (1 - x) ** gamma), mp.mpf(q))))


def c_re_bd(c, q_prime, *, dps):
    """(exact, compact) relative entropy of the one-sided damped Bell-diagonal state
    with correlation vector c at damping q': the exact form takes each block's own
    gap, the compact one the inner-block gap in all four slots, clamped at 0."""
    with mp.workdps(dps):
        c1, c2, c3 = (mp.mpf(v) for v in c)
        qp = mp.mpf(q_prime)
        a = c3 * (1 - qp)
        outer, inner = (mp.sqrt(qp**2 + (1 - qp) * x**2) for x in (c1 - c2, c1 + c2))

        def slots(g_outer, g_inner):
            return [(1 + a + g_outer) / 4, (1 + a - g_outer) / 4, (1 - a + g_inner) / 4, (1 - a - g_inner) / 4]

        dephased = _entropy(slots(qp, qp))
        compact = [max(p, 0) for p in slots(inner, inner)]
        return float(dephased - _entropy(slots(outer, inner))), float(dephased - _entropy(compact))


def bd_from_spectrum(p1, p2, p3, p4, *, dps):
    """(c1, c2, c3) of the Bell-diagonal state whose spectrum, in the slot order of
    ``BellDiagonalParams.eigenvalues``, is (p1, p2, p3, p4) normalized to sum 1;
    a spectrum of zeros reads as the maximally mixed state."""
    with mp.workdps(dps):
        weights = [mp.mpf(p) for p in (p1, p2, p3, p4)]
        total = mp.fsum(weights)
        p1, p2, p3, p4 = [p / total for p in weights] if total else [mp.mpf(1) / 4] * 4
        return float((p1 - p2) + (p3 - p4)), float((p3 - p4) - (p1 - p2)), float(2 * (p1 + p2) - 1)


def c_l1_single(theta, q_prime, *, dps):
    """l1 coherence |sin theta| sqrt(1 - q') of the damped pure single-qubit state at damping q'."""
    with mp.workdps(dps):
        return float(abs(mp.sin(mp.mpf(theta))) * mp.sqrt(1 - mp.mpf(q_prime)))


def c_l1_bd(c, q_prime, *, dps):
    """l1 coherence sqrt(1 - q') (|c1 + c2| + |c1 - c2|) / 2 of the one-sided damped
    Bell-diagonal state with correlation vector c at damping q'."""
    with mp.workdps(dps):
        c1, c2, _ = (mp.mpf(v) for v in c)
        return float(mp.sqrt(1 - mp.mpf(q_prime)) * (abs(c1 + c2) + abs(c1 - c2)) / 2)


def noise_to_damping(q, gamma_eff, *, dps):
    """The damping q' = 1 - (1 - q)^gamma_eff accumulated at rate gamma_eff by the sweep
    point q, with 0^0 = 1; as -expm1(gamma_eff log1p(-q)), so a q or a q' near 0 keeps its digits."""
    with mp.workdps(dps):
        q, gamma = mp.mpf(q), mp.mpf(gamma_eff)
        return 0.0 if gamma == 0 else float(-mp.expm1(gamma * mp.log1p(-q)))
