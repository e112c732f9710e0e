"""Output checks for benchmark commands.

Every command's output is checked in three ways:

* exit status and shape (row count, header, exact q and u grid values);
* sampled rows recomputed in this file, with mpmath at 40 digits, from the
  closed forms of PAPER.md / README (response functions, q' mapping,
  l1 norm, relative entropy from the exact spectrum).  Nothing here calls
  the package, so a defect in a package kernel cannot hide in its own check;
* for `validate` and `freeze`, the program's own verdicts: validate must pass
  and every freeze JSON twin must report ``numeric_consistent: true`` with
  the frozen flags the mpmath suppression factor predicts.

Byte-level checks (sha256 against a recorded digest, and equality between
passes) live in run.py.
"""

import json
import math

import mpmath
import numpy as np

mpmath.mp.dps = 40
# The largest closed-form error seen over the workloads is 2.4e-14 (the
# direct response form just above u = 0.1); 1e-11 leaves a wide margin and
# still catches a 1e-7 relative change in an entropy.
ROW_TOLERANCE = 1e-11
FREEZE_TOL = 1e-12
SAMPLED_ROWS = 8


def _f_parallel(u):
    u = mpmath.mpf(u)
    return 3 / (16 * u**3) * (2 * u * mpmath.cos(2 * u) + (4 * u * u - 1) * mpmath.sin(2 * u))


def _f_perpendicular(u):
    u = mpmath.mpf(u)
    return 3 / (8 * u**3) * (2 * u * mpmath.cos(2 * u) - mpmath.sin(2 * u))


def suppression(u, weights):
    """Polarization-weighted response sum f(u); zero without a mirror."""
    if u is None:
        return mpmath.mpf(0)
    ax, ay, az = (mpmath.mpf(w) for w in weights)
    return (ax + ay) * _f_parallel(u) + az * _f_perpendicular(u)


def _damping(q, gamma):
    """q' = 1 - (1-q)^gamma_eff, with the frozen (gamma = 0) case q' = 0."""
    q = mpmath.mpf(q)
    if gamma == 0:
        return mpmath.mpf(0)
    return 1 - (1 - q) ** gamma


def _entropy(values):
    return -mpmath.fsum(p * mpmath.log(p, 2) for p in values if p > 0)


def single_row(theta, gamma, q):
    """(c_l1, c_re) of the damped pure single-qubit state at sweep point q."""
    qp = _damping(q, gamma)
    sin_t, cos_t = mpmath.sin(mpmath.mpf(theta)), mpmath.cos(mpmath.mpf(theta))
    bz = cos_t * (1 - qp) - qp
    radius = mpmath.sqrt(sin_t**2 * (1 - qp) + bz**2)
    s_diag = _entropy([(1 + bz) / 2, (1 - bz) / 2])
    s_full = _entropy([(1 + radius) / 2, (1 - radius) / 2])
    return abs(sin_t) * mpmath.sqrt(1 - qp), max(s_diag - s_full, 0)


def two_row(c, gamma, q):
    """(c_l1, c_re, c_re_closed_form) of the one-sided Bell-diagonal state."""
    c1, c2, c3 = (mpmath.mpf(v) for v in c)
    qp = _damping(q, gamma)
    a = c3 * (1 - qp)
    diagonal = [(1 + a - qp) / 4, (1 - a - qp) / 4, (1 - a + qp) / 4, (1 + a + qp) / 4]
    gap_outer = mpmath.sqrt(qp**2 + (1 - qp) * (c1 - c2) ** 2)
    gap_inner = mpmath.sqrt(qp**2 + (1 - qp) * (c1 + c2) ** 2)
    exact = [(1 + a + gap_outer) / 4, (1 + a - gap_outer) / 4, (1 - a + gap_inner) / 4, (1 - a - gap_inner) / 4]
    compact = [max(v, 0) for v in ((1 + a + gap_inner) / 4, (1 + a - gap_inner) / 4,
                                    (1 - a + gap_inner) / 4, (1 - a - gap_inner) / 4)]
    l1 = mpmath.sqrt(1 - qp) * (abs(c1 + c2) + abs(c1 - c2)) / 2
    s_diag = _entropy(diagonal)
    return l1, max(s_diag - _entropy(exact), 0), s_diag - _entropy(compact)


def _gamma(u, weights):
    return max(1 - suppression(u, weights), mpmath.mpf(0))


def _read_rows(text, fmt, fields):
    if fmt == "json":
        rows = json.loads(text)
        if rows and list(rows[0]) != fields:
            raise ValueError(f"JSON keys {list(rows[0])} != {fields}")
        return [[row[name] for name in fields] for row in rows]
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(fields):
        raise ValueError(f"CSV header {lines[:1]} != {fields}")
    return [[float(cell) for cell in line.split(",")] for line in lines[1:]]


def _sample(rng, n):
    picks = {0, n - 1}
    while len(picks) < min(n, SAMPLED_ROWS + 2):
        picks.add(rng.randrange(n))
    return sorted(picks)


def _close(got, want, what):
    if not math.isfinite(got) or abs(got - float(want)) > ROW_TOLERANCE:
        raise ValueError(f"{what}: got {got!r}, expected {mpmath.nstr(want, 17)}")


def _check_sweep(cmd, text, rng):
    p = cmd["params"]
    two = cmd["kind"] == "two"
    fields = ["q", "c_l1", "c_re"] + (["c_re_closed_form"] if two else [])
    rows = _read_rows(text, p["format"], fields)
    if len(rows) != p["q_count"]:
        raise ValueError(f"{len(rows)} rows, expected {p['q_count']}")
    grid = np.linspace(0.0, 1.0, p["q_count"])
    gamma = _gamma(p["u"], p["weights"])
    for i in _sample(rng, len(rows)):
        row = rows[i]
        if row[0] != grid[i]:
            raise ValueError(f"row {i}: q {row[0]!r} is not grid point {grid[i]!r}")
        want = two_row(p["c"], gamma, row[0]) if two else single_row(p["theta"], gamma, row[0])
        for name, got, value in zip(fields[1:], row[1:], want):
            _close(got, value, f"row {i} {name}")


def _check_surface(cmd, text, rng):
    p = cmd["params"]
    rows = _read_rows(text, p["format"], ["u", "q", "value"])
    if len(rows) != p["u_count"] * p["q_count"]:
        raise ValueError(f"{len(rows)} rows, expected {p['u_count'] * p['q_count']}")
    u_grid = np.geomspace(p["u_start"], p["u_stop"], p["u_count"])
    q_grid = np.linspace(0.0, 1.0, p["q_count"])
    column = 0 if p["measure"] == "l1" else 1
    for i in _sample(rng, len(rows)):
        u, q, value = rows[i]
        if u != u_grid[i // p["q_count"]] or q != q_grid[i % p["q_count"]]:
            raise ValueError(f"row {i}: (u, q) = ({u!r}, {q!r}) is off the grid")
        want = single_row(math.pi / 2, _gamma(u, p["weights"]), q)[column]
        _close(value, want, f"row {i} value")


def _check_validate(cmd, text, stdout):
    report = json.loads(text)
    p = cmd["params"]
    if report.get("passed") is not True or report.get("n_cases") != p["cases"] or report.get("seed") != p["seed"]:
        raise ValueError(f"validate report {report}")
    if stdout.rstrip().splitlines()[-1:] != ["result: PASS"]:
        raise ValueError("validate did not print 'result: PASS'")


def _check_freeze(cmd, text):
    report = json.loads(text)
    p = cmd["params"]
    if report.get("numeric_consistent") is not True or report.get("mode") != p["mode"]:
        raise ValueError(f"freeze report {report}")
    boundary = abs(1 - suppression(p["u"], p["weights"])) <= FREEZE_TOL
    if p["mode"] == "single":
        frozen = boundary or abs(math.sin(p["theta"])) <= FREEZE_TOL
        flags = [report.get("l1_frozen"), report.get("re_frozen")]
    else:
        frozen = boundary or (abs(p["c"][0]) <= FREEZE_TOL and abs(p["c"][1]) <= FREEZE_TOL)
        flags = [report.get("frozen")]
    if flags != [frozen] * len(flags):
        raise ValueError(f"freeze flags {flags}, expected frozen={frozen}")


def check_command(cmd, exit_code, out_bytes, stdout_bytes, rng):
    """Return None when the command's output is correct, else the reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        text = out_bytes.decode("utf-8")
        if cmd["kind"] in ("single", "two"):
            _check_sweep(cmd, text, rng)
        elif cmd["kind"] == "surface":
            _check_surface(cmd, text, rng)
        elif cmd["kind"] == "validate":
            _check_validate(cmd, text, stdout_bytes.decode("utf-8"))
        else:
            _check_freeze(cmd, text)
    except (ValueError, KeyError, TypeError, IndexError, UnicodeDecodeError) as exc:
        return str(exc)
    return None
