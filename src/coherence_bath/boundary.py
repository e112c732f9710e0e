"""Reflecting-boundary physics: response functions and the effective decay rate.

A perfectly reflecting plane modifies the vacuum fluctuations seen by a
static two-level atom at distance z0.  With the dimensionless separation
u = omega0 * z0 / c, the response functions are

    f_parallel(u)      = 3/(16 u^3) * [2u cos(2u) + (4u^2 - 1) sin(2u)]
    f_perpendicular(u) = 3/(8 u^3)  * [2u cos(2u) - sin(2u)]

for dipole components parallel and perpendicular to the boundary.  Weighted
by the relative polarizability they suppress (or enhance) the spontaneous
emission rate: gamma_eff = 1 - sum_i alpha_i f_i, in units of the free-space
rate.  gamma_eff -> 0 as u -> 0 for purely in-plane polarization, which is
the configuration that freezes coherence.
"""

import collections
import math
import numbers
import reprlib

import numpy as np

from .qmath import _float_if_scalar, _real_array

WEIGHT_SUM_TOL = 1e-12
GAMMA_CLAMP = -1e-12
# Below this separation the direct formulas cancel catastrophically
# (numerator ~ u^3 built from O(u) terms), so the Maclaurin series is used.
SERIES_CUTOFF = 0.1
_SERIES_TERMS = 10
# From u ~ 2.2e102 the factor 16 u^3 overflows: to inf, which silently gives
# 0, and from u ~ 5.6e102 u**3 raises OverflowError.  From here on the
# direct forms divide by u term by term.
TERMWISE_U = 1e100


def _series_coefficients(n_terms: int) -> tuple[list[float], list[float]]:
    # Coefficient of u^(2m) in each response function, from the exact
    # Maclaurin expansions of the trig numerators: with k = 2m + 3 and
    # s = (-1)^(m+1) 2^k they are 3 s (k - 1 - k(k - 1)) / (16 k!) and
    # 3 s (k - 1) / (8 k!).  int / int is one correctly rounded division.
    par, perp = [], []
    for m in range(n_terms):
        k = 2 * m + 3
        s = (-1 if m % 2 == 0 else 1) * 2**k
        par.append(3 * s * (k - 1 - k * (k - 1)) / (16 * math.factorial(k)))
        perp.append(3 * s * (k - 1) / (8 * math.factorial(k)))
    return par, perp


_PAR_COEFFS, _PERP_COEFFS = _series_coefficients(_SERIES_TERMS)


def _real(value, name: str) -> float:
    """``value`` as a float; TypeError naming ``name`` unless it is one real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {reprlib.repr(value)}")
    return float(value)


def _count(value, name: str) -> int:
    """``value`` as an int; TypeError naming ``name`` unless it is one integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {reprlib.repr(value)}")
    return int(value)


def _value_type(field_names: str):
    """A named tuple to subclass as a value type; ``_make``, so ``_replace``, builds through its checked ``__new__``."""
    fields = collections.namedtuple("_Fields", field_names)
    fields._make = classmethod(lambda cls, values: cls(*values))
    return fields


def _as(cls, value, name: str):
    """``value`` as a ``cls``: an instance as it is, a plain tuple as its fields; else TypeError naming ``name``."""
    lengths = range(len(cls._fields) - len(cls.__new__.__defaults__ or ()), len(cls._fields) + 1)
    if not isinstance(value, cls) and (type(value) is not tuple or len(value) not in lengths):
        raise TypeError(f"{name} must be {cls.__name__} or a tuple of its fields, got {reprlib.repr(value)}")
    return value if isinstance(value, cls) else cls(*value)


def _check_u(u: float) -> float:
    u = _real(u, "boundary distance u")
    if not math.isfinite(u) or u <= 0.0:
        raise ValueError(f"boundary distance u must be finite and positive, got {u}")
    return u


def f_parallel_direct(u: float) -> float:
    """Direct evaluation of f_parallel; accurate away from u -> 0."""
    u = _check_u(u)
    if u >= TERMWISE_U:
        cos2, sin2 = _double_angle(u)
        return 3.0 / 16.0 * (2.0 * cos2 / u / u + (4.0 - 1.0 / u / u) * sin2 / u)
    return 3.0 / (16.0 * u**3) * (2.0 * u * math.cos(2.0 * u) + (4.0 * u * u - 1.0) * math.sin(2.0 * u))


def f_perpendicular_direct(u: float) -> float:
    """Direct evaluation of f_perpendicular; accurate away from u -> 0."""
    u = _check_u(u)
    if u >= TERMWISE_U:
        cos2, sin2 = _double_angle(u)
        return 3.0 / 8.0 * (2.0 * cos2 / u / u - sin2 / u / u / u)
    return 3.0 / (8.0 * u**3) * (2.0 * u * math.cos(2.0 * u) - math.sin(2.0 * u))


def _double_angle(u: float) -> tuple[float, float]:
    """cos 2u and sin 2u from sin u and cos u, so 2u never overflows."""
    sin, cos = math.sin(u), math.cos(u)
    return (cos - sin) * (cos + sin), 2.0 * sin * cos


def _series(coeffs: list[float], u: float) -> float:
    u2 = u * u
    acc, power = 0.0, 1.0
    for coeff in coeffs:
        acc += coeff * power
        power *= u2
    return acc


def f_parallel_series(u: float) -> float:
    """Maclaurin evaluation of f_parallel: 1 - (4/5)u^2 + (6/35)u^4 - ..."""
    return _series(_PAR_COEFFS, _check_u(u))


def f_perpendicular_series(u: float) -> float:
    """Maclaurin evaluation of f_perpendicular: -1 + (2/5)u^2 - (2/35)u^4 + ..."""
    return _series(_PERP_COEFFS, _check_u(u))


def f_parallel(u: float) -> float:
    """Boundary response for in-plane dipole components (f_x = f_y).

    Tends to 1 as u -> 0 (image dipole reinforces the field) and decays to 0
    with oscillations as u grows, recovering the unbounded vacuum.
    """
    return f_parallel_series(u) if _check_u(u) < SERIES_CUTOFF else f_parallel_direct(u)


def f_perpendicular(u: float) -> float:
    """Boundary response for the normal dipole component (f_z).

    Tends to -1 as u -> 0, doubling the decay rate of a normally polarized
    atom, and decays to 0 at large separation.
    """
    return f_perpendicular_series(u) if _check_u(u) < SERIES_CUTOFF else f_perpendicular_direct(u)


class PolarizationWeights(_value_type("ax ay az")):
    """Relative polarizability weights (ax, ay, az), nonnegative, summing to 1."""

    __slots__ = ()
    def __new__(cls, ax: float, ay: float, az: float):
        for name, value in (("ax", ax), ("ay", ay), ("az", az)):
            if not math.isfinite(_real(value, f"polarization weight {name}")):
                raise ValueError(f"polarization weight {name} must be finite, got {value}")
            if value < 0.0:
                raise ValueError(f"polarization weight {name} must be nonnegative, got {value}")
        if abs(ax + ay + az - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"polarization weights must sum to 1, got {ax + ay + az:.17g}")
        return super().__new__(cls, ax, ay, az)

    @classmethod
    def parallel(cls) -> "PolarizationWeights":
        """Dipole in the boundary plane."""
        return cls(1.0, 0.0, 0.0)

    @classmethod
    def perpendicular(cls) -> "PolarizationWeights":
        """Dipole along the boundary normal."""
        return cls(0.0, 0.0, 1.0)

    @classmethod
    def isotropic(cls) -> "PolarizationWeights":
        return cls(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


# The named presets of the CLI.  Validation case ``index`` takes the preset
# at ``index % 3`` of this order.
_PRESETS = {
    "parallel": PolarizationWeights.parallel(),
    "perpendicular": PolarizationWeights.perpendicular(),
    "isotropic": PolarizationWeights.isotropic(),
}


class Geometry(_value_type("u")):
    """Field configuration: unbounded vacuum, or a mirror at distance u.

    ``u = omega0 * z0 / c`` is the dimensionless atom-boundary separation;
    ``None`` selects the unbounded vacuum.
    """

    __slots__ = ()
    def __new__(cls, u: float | None = None):
        return super().__new__(cls, None if u is None else _check_u(u))

    @classmethod
    def unbounded(cls) -> "Geometry":
        return cls(None)

    @classmethod
    def mirror(cls, u: float) -> "Geometry":
        return cls(u)

    @property
    def has_boundary(self) -> bool:
        return self.u is not None


def suppression_factor(geometry: Geometry, polarization: PolarizationWeights) -> float:
    """Polarization-weighted boundary response sum.

    Zero for the unbounded vacuum; 1 means fully suppressed decay (frozen
    dynamics), negative values mean enhanced decay.
    """
    geometry = _as(Geometry, geometry, "geometry")
    polarization = _as(PolarizationWeights, polarization, "polarization")
    if not geometry.has_boundary:
        return 0.0
    fp = f_parallel(geometry.u)
    return (polarization.ax + polarization.ay) * fp + polarization.az * f_perpendicular(geometry.u)


def decay_rate(f: float) -> float:
    """gamma_eff = 1 - f for a finite suppression factor f, round-off below zero clamped to 0."""
    if not math.isfinite(_real(f, "suppression factor f")):
        raise ValueError(f"suppression factor f must be finite, got {f}")
    gamma = 1.0 - f
    if gamma < 0.0:
        if gamma < GAMMA_CLAMP:
            # |f_i| <= 1 makes gamma >= 0 analytically; anything beyond
            # round-off signals a broken response evaluation.
            raise ValueError(f"effective decay rate {gamma:.3e} is negative beyond round-off")
        gamma = 0.0
    return gamma


def _in_unit_interval(values, what: str) -> np.ndarray:
    """``values`` as a float array; TypeError unless real, ValueError names the first value outside [0, 1] or NaN."""
    arr = _real_array(values, what)
    outside = ~((arr >= 0.0) & (arr <= 1.0))
    if outside.any():
        raise ValueError(f"{what} must lie in [0, 1], got {arr[outside][0]}")
    return arr


def noise_to_damping(q, gamma_eff: float):
    """Map the unbounded noise parameter q (a float or an array) to the effective damping q'.

    q = 1 - exp(-tau) indexes sweeps on the free-space clock; the actual
    damping accumulated at rate gamma_eff is q' = 1 - (1-q)^gamma_eff.
    A frozen configuration (gamma_eff = 0) gives q' = 0 for every q,
    including the q = 1 endpoint.  Each element goes through libm's
    log1p/expm1: numpy's vectorised log1p rounds some arguments differently,
    and the sweep outputs are pinned to the libm bits.  A scalar q takes the
    same path and comes back as a float.
    """
    qs = _in_unit_interval(q, "noise parameter q")
    if not math.isfinite(_real(gamma_eff, "gamma_eff")) or gamma_eff < 0.0:
        raise ValueError(f"gamma_eff must be finite and nonnegative, got {gamma_eff}")
    if gamma_eff == 0.0:
        return _float_if_scalar(np.zeros(qs.shape))
    # log1p(-1) is a domain error, so q = 1 maps to 1 directly; a product
    # that overflows is -inf, whose expm1 is -1, so q' = 1 there too.
    qp = [1.0 if x == 1.0 else -math.expm1(gamma_eff * math.log1p(-x)) for x in qs.ravel().tolist()]
    return _float_if_scalar(np.array(qp).reshape(qs.shape))
