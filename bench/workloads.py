"""Seeded command generator for the benchmark workloads.

A workload pass is a fixed list of CLI commands.  The number of commands,
the size of every grid and the code branch each command takes are fixed per
workload; the seed draws only parameter values within them (polarization,
initial angle, Bell-diagonal correlations, u within a geometry kind, u range
and preset of a surface).  So passes on different seeds do the same work per
grid point; what still varies is the length of the printed numbers and, on
a surface, how many of its u values fall below the series cutoff (one
response evaluation per u, against hundreds of points per u).

Geometry kinds follow the branches of the boundary module: the unbounded
vacuum, a mirror below the u = 0.1 switch to the Maclaurin series, and a
mirror above it.  Each command has its own kind, so every pass covers every
branch and no seed moves a command from the cheap unbounded branch to the
series loop.  ``validate`` always gets the same seed: its cases draw their
own integration times, and a different validate seed changes the number of
RK4 steps by several percent.  Parameter ranges are the paper's: theta in
[0, pi], u = omega0 z0 / c in (0, 20], weights on the simplex, and
(c1, c2, c3) inside the tetrahedron of physical Bell-diagonal states.
"""

import math
import random

WORKLOADS = ("sweep", "surface", "oracle")
GEOMETRY_KINDS = ("unbounded", "near", "far")
SERIES_CUTOFF = 0.1
FROZEN_U = 1e-7
# The CLI rejects `validate --seed 0`.
VALIDATE_SEED = 1
_PRESETS = {
    "parallel": (1.0, 0.0, 0.0),
    "perpendicular": (0.0, 0.0, 1.0),
    "isotropic": (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
}

# Grid sizes at scale 1.  On a 2-core Xeon VM a sweep pass takes about 3 s
# and a surface or oracle pass about 2.5 s, so a 30 s run holds about ten
# passes to take medians over.
SWEEP_SINGLE_Q = 20001
SWEEP_TWO_Q = 10001
SWEEP_JSON_Q = 10001
SURFACE_RE_GRID = (40, 501)
SURFACE_L1_GRID = (30, 401)
VALIDATE_CASES = 400


def _loguniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _geometry(rng, kind, near_low):
    """A geometry of the given kind; ``near_low`` bounds u from below."""
    if kind == "unbounded":
        return {"geometry": "unbounded", "u": None}
    if kind == "near":
        return {"geometry": "mirror", "u": _loguniform(rng, near_low, SERIES_CUTOFF)}
    return {"geometry": "mirror", "u": _loguniform(rng, SERIES_CUTOFF, 20.0)}


def _polarization(rng):
    """A preset name or explicit 'ax,ay,az' weights, with the float weights."""
    choice = rng.choice(("parallel", "perpendicular", "isotropic", "weights"))
    if choice != "weights":
        return choice, _PRESETS[choice]
    ax = rng.random()
    ay = rng.random() * (1.0 - ax)
    az = 1.0 - ax - ay
    return f"{ax!r},{ay!r},{az!r}", (ax, ay, az)


def _bell_diagonal(rng):
    """Physical (c1, c2, c3) with c1 * c2 != 0, kept off the physicality edge."""
    while True:
        c1, c2, c3 = (rng.uniform(-1.0, 1.0) for _ in range(3))
        smallest = min(
            1.0 + c3 + (c1 - c2),
            1.0 + c3 - (c1 - c2),
            1.0 - c3 + (c1 + c2),
            1.0 - c3 - (c1 + c2),
        )
        if smallest >= 0.02 and abs(c1 * c2) >= 0.01:
            return c1, c2, c3


def _c_argv(c):
    return [arg for name, value in zip(("--c1", "--c2", "--c3"), c) for arg in (name, repr(value))]


def _env_argv(env):
    argv = ["--geometry", env["geometry"]]
    if env["u"] is not None:
        argv += ["--u", repr(env["u"])]
    return argv + ["--polarization", env["polarization"]]


def _env(rng, kind, near_low):
    env = _geometry(rng, kind, near_low)
    env["polarization"], env["weights"] = _polarization(rng)
    return env


def _scaled(count, scale, floor=3):
    return max(floor, round(count * scale))


def _sweep(rng, out_dir, scale):
    commands = []
    for index, (mode, fmt, q_count, kind) in enumerate(
        (
            ("single", "csv", SWEEP_SINGLE_Q, "near"),
            ("two", "csv", SWEEP_TWO_Q, "far"),
            ("single", "json", SWEEP_JSON_Q, "unbounded"),
        )
    ):
        env = _env(rng, kind, 1e-3)
        params = dict(env, q_count=_scaled(q_count, scale), format=fmt)
        if mode == "single":
            params["theta"] = rng.uniform(0.0, math.pi)
            params["phi"] = rng.uniform(0.0, 2.0 * math.pi)
            argv = ["single", "--theta", repr(params["theta"]), "--phi", repr(params["phi"])]
        else:
            params["c"] = _bell_diagonal(rng)
            argv = ["two"] + _c_argv(params["c"])
        argv += _env_argv(env) + ["--q-count", str(params["q_count"]), "--format", fmt]
        commands.append(_command(index, mode, argv, params, out_dir, fmt, params["q_count"]))
    return commands


def _surface(rng, out_dir, scale):
    commands = []
    for index, (measure, fmt, (u_count, q_count)) in enumerate(
        (("re", "csv", SURFACE_RE_GRID), ("l1", "json", SURFACE_L1_GRID))
    ):
        params = {
            "measure": measure,
            "preset": rng.choice(sorted(_PRESETS)),
            "u_start": _loguniform(rng, 1e-3, 1e-2),
            "u_stop": _loguniform(rng, 5.0, 20.0),
            "u_count": _scaled(u_count, scale, 2),
            "q_count": _scaled(q_count, scale),
            "format": fmt,
        }
        params["weights"] = _PRESETS[params["preset"]]
        argv = [
            "surface", "--measure", measure, "--preset", params["preset"],
            "--u-start", repr(params["u_start"]), "--u-stop", repr(params["u_stop"]),
            "--u-count", str(params["u_count"]), "--q-count", str(params["q_count"]),
            "--format", fmt,
        ]
        rows = params["u_count"] * params["q_count"]
        commands.append(_command(index, "surface", argv, params, out_dir, fmt, rows))
    return commands


def _oracle(rng, out_dir, scale):
    params = {"seed": VALIDATE_SEED, "cases": _scaled(VALIDATE_CASES, scale, 2)}
    argv = ["validate", "--seed", str(params["seed"]), "--cases", str(params["cases"])]
    commands = [_command(0, "validate", argv, params, out_dir, "json", params["cases"])]
    for mode in ("single", "two"):
        for kind in GEOMETRY_KINDS + ("frozen",):
            if kind == "frozen":
                env = {"geometry": "mirror", "u": FROZEN_U, "polarization": "parallel",
                       "weights": _PRESETS["parallel"]}
            else:
                # u >= 0.01 keeps gamma_eff >= 8e-5, well clear of the 1e-8
                # derivative bound the freezing classifier checks against.
                env = _env(rng, kind, 1e-2)
            params = dict(env, mode=mode)
            argv = ["freeze", "--mode", mode]
            if mode == "single":
                params["theta"] = rng.uniform(0.3, math.pi - 0.3)
                argv += ["--theta", repr(params["theta"])]
            else:
                params["c"] = _bell_diagonal(rng)
                argv += _c_argv(params["c"])
            argv += _env_argv(env)
            commands.append(_command(len(commands), "freeze", argv, params, out_dir, "json", 1))
    return commands


def _command(index, kind, argv, params, out_dir, fmt, rows):
    out = f"{out_dir}/c{index}.{fmt}"
    return {
        "id": index,
        "kind": kind,
        "argv": argv + ["--out", out],
        "params": params,
        "out": out,
        "stdout": f"{out_dir}/c{index}.stdout",
        "stderr": f"{out_dir}/c{index}.stderr",
        "rows": rows,
    }


def generate(workload, seed, out_dir, scale=1.0):
    """The command list of one pass of ``workload`` for ``seed``.

    ``out_dir`` is the directory, relative to the checkout root, that the
    commands write into; ``scale`` shrinks every grid (tests use it).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return {"sweep": _sweep, "surface": _surface, "oracle": _oracle}[workload](rng, out_dir, scale)
