"""Command-line front end for coherence sweeps, surfaces and freezing reports.

Subcommands: single, two, surface, freeze, validate.  Every run can be
driven by an INI config file (one section per subcommand) with flags taking
precedence over file values; ``--dump-config`` writes the fully resolved
spec back out so a run can be reproduced from the file alone.

Exit codes: 0 success, 2 invalid input, 3 I/O failure, 4 validation
tolerance failure.
"""

import contextlib
import functools
import math
import os
import sys

# OpenBLAS starts a pool of worker threads when numpy loads.  No matrix here
# is larger than 16x16, so the pool only costs start-up CPU; one thread does
# the work.  A value the user sets wins.  The package __init__ imports no
# numpy, so this line runs first under `python -m` and the console script.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Every module imports the package's own modules, highest layer first, before
# numpy, so the whole package compiles before numpy loads and the compiler's
# scratch memory does not stack on numpy's: from source, about 1 MB less peak.
from .lindblad import VALIDATION_TOLERANCE, InstabilityError, IntegratorConfig, validate_all
from .two_qubit import BellDiagonalParams, c_l1_bd, c_re_bd, c_re_bd_closed_form, freezing_report_bd
from .single_qubit import InitialAngles, c_l1_single, c_re_single, freezing_report
from .boundary import _PRESETS, Geometry, PolarizationWeights, _real, decay_rate, noise_to_damping, suppression_factor

import numpy as np

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_TOLERANCE = 4
# Tables are computed this many rows at a time and written row by row, so
# peak memory does not grow with the grid.  A multiple of 64 keeps every
# element in the SIMD lane of the whole-grid call, so the bits do not move.
BLOCK_ROWS = 2**9

def _finite_float(text) -> float:
    return _real(float(text), "value")


def _distance(text) -> float:
    return Geometry.mirror(float(text)).u


def _int_at_least(low: int):
    def convert(text) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"value must be an integer of at least {low}, got {text!r}")
        return value

    return convert


def _choice(options):
    def convert(text):
        value = str(text).strip().lower()
        if value not in options:
            raise ValueError(f"expected one of {sorted(options)}, got {text!r}")
        return value

    return convert


def parse_polarization(text) -> PolarizationWeights:
    """Accept a preset name or an explicit 'ax,ay,az' weight triple."""
    name = str(text).strip().lower()
    if name in _PRESETS:
        return _PRESETS[name]
    try:
        ax, ay, az = map(float, name.split(","))
    except ValueError:  # not three numbers; PolarizationWeights rejects inf and nan by name
        raise ValueError(
            f"polarization must be one of {sorted(_PRESETS)} or 'ax,ay,az', got {text!r}"
        ) from None
    return PolarizationWeights(ax, ay, az)


def _polarization_text(text) -> str:
    parse_polarization(text)  # ValueError unless a preset or a weight triple
    return text  # kept as given, so --dump-config writes it back unchanged


# Field tables: name -> (converter, default).  Each field is the config key
# ``name`` and the flag ``--name`` with dashes for underscores.  The converter
# takes the field's text from either source and holds every rule on that one
# value, or hands it to the type that owns the rule.  _REQUIRED defaults must
# be supplied by flag or config.
_REQUIRED = object()
_THETA = (lambda text: InitialAngles(float(text)).theta, math.pi / 2)

_GRID_FIELDS = {
    "q_start": (_finite_float, 0.0),
    "q_stop": (_finite_float, 1.0),
    "q_count": (_int_at_least(2), 101),
}
_ENV_FIELDS = {
    "geometry": (_choice({"unbounded", "mirror"}), "unbounded"),
    "u": (_distance, None),
    "polarization": (_polarization_text, "parallel"),
}
_OUT_FIELDS = {
    "out": (str, "-"),
    "format": (_choice({"csv", "json"}), "csv"),
}

_FIELDS = {
    "single": {
        "theta": _THETA,
        "phi": (lambda text: InitialAngles(0.0, float(text)).phi, 0.0),
        **_ENV_FIELDS,
        **_GRID_FIELDS,
        **_OUT_FIELDS,
    },
    "two": {
        "c1": (_finite_float, _REQUIRED),
        "c2": (_finite_float, _REQUIRED),
        "c3": (_finite_float, _REQUIRED),
        **_ENV_FIELDS,
        **_GRID_FIELDS,
        **_OUT_FIELDS,
    },
    "surface": {
        "measure": (_choice({"l1", "re"}), "l1"),
        "preset": (_choice(set(_PRESETS)), "parallel"),
        **_GRID_FIELDS,
        "u_start": (_distance, 1e-2),
        "u_stop": (_distance, 10.0),
        "u_count": (_int_at_least(2), 80),
        **_OUT_FIELDS,
    },
    "freeze": {
        "mode": (_choice({"single", "two"}), _REQUIRED),
        "theta": _THETA,
        "c1": (_finite_float, None),
        "c2": (_finite_float, None),
        "c3": (_finite_float, None),
        **_ENV_FIELDS,
        "out": (str, "-"),
    },
    "validate": {
        "seed": (_int_at_least(0), 42),
        "cases": (_int_at_least(1), 50),
        "step": (lambda text: IntegratorConfig(float(text)).step, 1e-3),
        "out": (str, "-"),
    },
}


def _load_section(path: str, command: str) -> dict:
    """The raw values of the command's own section, over the [DEFAULT] keys
    that the command declares.  ValueError on a file without that section and
    on a key that the section's command, or for [DEFAULT] every command, lacks."""
    import configparser  # only --config needs it

    # '%' is literal; no section name matches the empty default_section (an
    # INI header needs a character), so [DEFAULT] reads as a plain section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            parser.read_file(handle)
        except configparser.Error as exc:
            raise ValueError(f"config file {path!r}: {' '.join(str(exc).splitlines())}") from None
    if not parser.has_section(command):
        raise ValueError(f"config file {path!r} has no [{command}] section; found {parser.sections()}")
    fields, own = _FIELDS[command], dict(parser.items(command))
    unknown = set(own) - set(fields)
    if unknown:
        raise ValueError(f"unknown config keys in [{command}]: {sorted(unknown)}")
    shared = dict(parser.items("DEFAULT")) if parser.has_section("DEFAULT") else {}
    unknown = set(shared).difference(*_FIELDS.values())
    if unknown:
        raise ValueError(f"unknown config keys in [DEFAULT]: {sorted(unknown)}")
    return {key: value for key, value in shared.items() if key in fields} | own


def resolve_spec(command: str, texts: dict) -> dict:
    """Merge defaults and the flag, else config-file, text of each field, converted once, into one spec."""
    config = _load_section(texts["config"], command) if texts.get("config") else {}
    spec = {}
    for name, (convert, default) in _FIELDS[command].items():
        text = texts.get(name, config.get(name))
        if text is not None:
            try:
                spec[name] = convert(text)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        elif default is _REQUIRED:
            raise ValueError(f"missing required field '{name}' for '{command}'")
        else:
            spec[name] = default
    return spec


def dump_spec(command: str, spec: dict, path: str) -> None:
    """Serialize a resolved spec as an INI section, floats at full precision."""
    # str of a float is its repr; a field without a value (None) is left out
    lines = [f"[{command}]", *(f"{name} = {spec[name]}" for name in _FIELDS[command] if spec[name] is not None)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _geometry_from_spec(spec: dict) -> Geometry:
    if spec["geometry"] == "unbounded":
        return Geometry.unbounded()
    if spec["u"] is None:
        raise ValueError("geometry 'mirror' requires a distance u")
    return Geometry.mirror(spec["u"])


def _q_grid(spec: dict):
    """The q axis np.linspace(q_start, q_stop, q_count), bit for bit, as a
    function that hands out its blocks of BLOCK_ROWS points anew on each call,
    each made when it is reached, so memory does not grow with the grid.

    ValueError unless the grid strictly increases; the check walks every block
    once, here, before any is handed out, so a rejected grid writes no file.
    """
    start, stop, count = spec["q_start"], spec["q_stop"], spec["q_count"]
    if not 0.0 <= start < stop <= 1.0:
        raise ValueError(f"q grid must satisfy 0 <= start < stop <= 1, got [{start}, {stop}]")
    step = (stop - start) / (count - 1)

    def block(lo: int) -> np.ndarray:
        # numpy's linspace, last point exactly stop.  Where the step underflows
        # to zero linspace scales k / (count - 1) instead, but its points then
        # repeat, so both grids are rejected.
        points = np.arange(lo, min(lo + BLOCK_ROWS, count), dtype=float) * step + start
        if lo + BLOCK_ROWS >= count:
            points[-1] = stop
        return points

    blocks = functools.partial(map, block, range(0, count, BLOCK_ROWS))
    # Both ends are exact, so a grid that strictly increases lies in [start, stop].
    _check_increasing(blocks(), "q", start, stop)
    return blocks


def _check_increasing(blocks, axis: str, start: float, stop: float) -> None:
    """ValueError unless the consecutive ``blocks`` of a grid strictly increase:
    linspace and geomspace repeat points over a range of a few ulps."""
    last = -math.inf
    for grid in blocks:
        if grid[0] <= last or np.count_nonzero(grid[1:] <= grid[:-1]):
            raise ValueError(f"{axis} grid repeats values: [{start}, {stop}] is too narrow")
        last = grid[-1]


def _cells(column):
    """The text of each float of ``column``, made as it is iterated: its repr,
    which CSV and JSON both write.

    ValueError, at the call, on NaN or +-inf, which json.dumps would write as
    NaN or Infinity.
    """
    values = np.asarray(column, dtype=float)
    if np.count_nonzero(np.isfinite(values)) < values.size:
        raise ValueError(f"refusing to write a non-finite value: {values[~np.isfinite(values)][0]}")
    return map(repr, values.tolist())


def _output(out: str):
    """The output stream: stdout for '-', else the file, opened for writing."""
    if out == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(out, "w", encoding="utf-8")


def _write_text(out: str, text: str) -> None:
    with _output(out) as handle:
        handle.write(text)


# In a str json.dumps escapes these seven by a letter, other UTF-16 units outside ' '..'~' as \uXXXX.
_JSON_SHORT = dict(zip(map(ord, '"\\\n\r\t\b\f'), '"\\nrtbf'))


def _json_text(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, for dicts with str keys, lists, tuples, str, int, float,
    bool and None; TypeError on anything else.  ``indent`` is the line break and indent of ``value``'s level."""
    if isinstance(value, str):  # a code point beyond U+FFFF as its UTF-16 surrogate pair
        units = [unit for code in map(ord, value) for unit in (
            (code,) if code < 0x10000 else (0xD800 + ((code - 0x10000) >> 10), 0xDC00 + (code & 0x3FF)))]
        return '"' + "".join(chr(unit) if 31 < unit < 127 and unit not in _JSON_SHORT
                             else "\\" + _JSON_SHORT.get(unit, "u%04x" % unit) for unit in units) + '"'
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, (int, float)):  # a subclass such as np.float64 writes as its base
        text = (int if isinstance(value, int) else float).__repr__(value)
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
    inner = indent + "  "
    if isinstance(value, dict):  # str.__str__ raises TypeError on a key that is not a str
        ends, items = "{}", [f"{_json_text(str.__str__(k))}: {_json_text(v, inner)}" for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        ends, items = "[]", [_json_text(item, inner) for item in value]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


def _write_table(spec: dict, names, blocks) -> None:
    """Write ``blocks``, each a list of equal-length text columns (see _cells),
    to spec["out"] as CSV, or as the JSON list of row objects that
    json.dumps(rows, indent=2) writes, byte for byte.  Each block is written
    before the next is taken, so a lazy ``blocks`` computes one at a time;
    each row is written as it is formatted, so no block's text is held whole."""
    if spec["format"] == "csv":
        head, sep, tail, row = ",".join(names) + "\n", "", "", ",".join(["%s"] * len(names)) + "\n"
    else:
        fields = ",\n".join(f"    {_json_text(name)}: %s" for name in names)
        head, sep, tail, row = "[\n", ",\n", "\n]\n", "  {\n" + fields + "\n  }"
    with _output(spec["out"]) as handle:
        handle.write(head)
        joint = ""  # a CSV row ends its line; a JSON row is joined to the one before
        for block in blocks:
            for cells in zip(*block):
                handle.write(joint + row % cells)
                joint = sep
        handle.write(tail)


def _write_sweep(spec: dict, names, state, kernels) -> int:
    """Write q and each kernel(state, q') at q' = noise_to_damping(q, gamma_eff), BLOCK_ROWS rows at a time."""
    geometry = _geometry_from_spec(spec)
    gamma = decay_rate(suppression_factor(geometry, parse_polarization(spec["polarization"])))

    def columns(q):
        qp = noise_to_damping(q, gamma)  # once per block for every kernel
        return [_cells(q), *(_cells(kernel(state, qp)) for kernel in kernels)]

    # every whole-grid check runs before the output is opened
    _write_table(spec, names, map(columns, _q_grid(spec)()))
    return EXIT_OK


def cmd_single(spec) -> int:
    """Sweep both coherence measures of a single qubit over q; phi drops out of both."""
    return _write_sweep(spec, ("q", "c_l1", "c_re"), spec["theta"], (c_l1_single, c_re_single))


def cmd_two(spec) -> int:
    """Sweep a Bell-diagonal pair, including the closed-form comparison column."""
    bd = BellDiagonalParams(spec["c1"], spec["c2"], spec["c3"])
    kernels = (c_l1_bd, c_re_bd, c_re_bd_closed_form)
    return _write_sweep(spec, ("q", "c_l1", "c_re", "c_re_closed_form"), bd, kernels)


def cmd_surface(spec) -> int:
    """Long-format (u, q, value) grid of one measure for a polarization preset."""
    u_start, u_stop = spec["u_start"], spec["u_stop"]
    if u_stop <= u_start:
        raise ValueError(f"u grid must satisfy u_start < u_stop, got [{u_start}, {u_stop}]")
    polarization = _PRESETS[spec["preset"]]
    q_blocks = _q_grid(spec)
    # np.geomspace(u_start, u_stop, u_count) bit for bit: its log10, linspace and power, less its sign and
    # dtype steps (128 kB more of numpy's code).  Near max float an inner power overflows; the ends are exact.
    lo, hi = np.log10([u_start, u_stop]).tolist()
    with np.errstate(over="ignore"):
        u_grid = np.power(10.0, np.arange(spec["u_count"], dtype=float) * ((hi - lo) / (spec["u_count"] - 1)) + lo)
    u_grid[0], u_grid[-1] = u_start, u_stop
    _check_increasing([u_grid], "u", u_start, u_stop)
    kernel = c_l1_single if spec["measure"] == "l1" else c_re_single
    # A q axis of at most two blocks (1024 points) is kept with its cells,
    # made once, not once per u: about 0.7 ms of repr per u row at 1001 points.
    kept = [(q, list(_cells(q))) for q in q_blocks()] if spec["q_count"] <= 2 * BLOCK_ROWS else None
    gammas = (decay_rate(suppression_factor(Geometry.mirror(u), polarization)) for u in u_grid.tolist())
    blocks = (  # one per (u, q block)
        ([u_cell] * len(q), q_cells, _cells(kernel(math.pi / 2, noise_to_damping(q, gamma))))
        for u_cell, gamma in zip(_cells(u_grid), gammas)
        for q, q_cells in kept or ((q, _cells(q)) for q in q_blocks())
    )
    _write_table(spec, ("u", "q", "value"), blocks)
    return EXIT_OK


def cmd_freeze(spec) -> int:
    """Freezing classification with its numeric derivative cross-check."""
    geometry = _geometry_from_spec(spec)
    polarization = parse_polarization(spec["polarization"])
    geometry_label = "unbounded" if not geometry.has_boundary else f"mirror u={geometry.u!r}"

    if spec["mode"] == "single":
        report = freezing_report(spec["theta"], geometry, polarization)
        head = {"mode": "single", "theta": spec["theta"]}
        # Both keys carry the one verdict; bench/digests.json pins them, bench/check.py reads them.
        flags = {"l1_frozen": report.frozen, "re_frozen": report.frozen}
        word = _frozen_word(report.frozen, report.reason)
        lines = [
            f"mode: single (theta = {spec['theta']!r})",
            f"geometry: {geometry_label}",
            f"l1 norm:          {word}, sup |dC/dq| = {report.sup_dq_c_l1:.3e}",
            f"relative entropy: {word}, sup |dC/dq| = {report.sup_dq_c_re:.3e}",
        ]
    else:
        for name in ("c1", "c2", "c3"):
            if spec[name] is None:
                raise ValueError(f"freeze mode 'two' requires {name}")
        bd = BellDiagonalParams(spec["c1"], spec["c2"], spec["c3"])
        report = freezing_report_bd(bd, geometry, polarization)
        head = {"mode": "two", "c": [bd.c1, bd.c2, bd.c3]}
        flags = {"frozen": report.frozen}
        lines = [
            f"mode: two (c = ({bd.c1!r}, {bd.c2!r}, {bd.c3!r}))",
            f"geometry: {geometry_label}",
            f"both measures:    {_frozen_word(report.frozen, report.reason)}",
            f"sup |dC_l1/dq| = {report.sup_dq_c_l1:.3e}, "
            f"sup |dC_re/dq| = {report.sup_dq_c_re:.3e}",
        ]

    lines.append(f"numeric check: {'consistent' if report.numeric_consistent else 'INCONSISTENT'}")
    fields = report._asdict()
    del fields["frozen"]  # written as the flag keys of the mode
    payload = {**head, "geometry": geometry_label, **flags, **fields}
    print("\n".join(lines))
    _write_text(spec["out"], _json_text(payload) + "\n")
    return EXIT_OK


def _frozen_word(frozen: bool, reason: str) -> str:
    return f"FROZEN ({reason})" if frozen else "not frozen"


def cmd_validate(spec) -> int:
    """Randomized closed-form vs integrator comparison; exit 4 on tolerance failure."""
    report = validate_all(spec["seed"], spec["cases"], IntegratorConfig(spec["step"]))
    lines = [
        f"cases: {report.n_cases} (seed {spec['seed']})",
        f"max elementwise |closed form - integrator| = {report.max_error:.3e} "
        f"(tolerance {VALIDATION_TOLERANCE:.0e})",
        f"worst case: {report.worst_case}",
        f"relative-entropy closed-form gap (c1*c2 != 0): {report.re_formula_gap:.3e}",
        f"  at: {report.re_formula_gap_case}",
        f"result: {'PASS' if report.passed else 'FAIL'}",
    ]
    print("\n".join(lines))
    if spec["out"] != "-":
        fields = report._asdict()
        payload = {"n_cases": fields.pop("n_cases"), "seed": spec["seed"], **fields, "passed": report.passed}
        _write_text(spec["out"], _json_text(payload) + "\n")
    return EXIT_OK if report.passed else EXIT_TOLERANCE


_COMMANDS = {
    "single": (cmd_single, "single-qubit coherence sweep over q"),
    "two": (cmd_two, "Bell-diagonal two-qubit sweep over q"),
    "surface": (cmd_surface, "measure over a (u, q) grid"),
    "freeze": (cmd_freeze, "freezing classification report"),
    "validate": (cmd_validate, "closed form vs integrator check"),
}
_FLAG_HELP = {
    "u": "mirror distance u = omega0 z0 / c",
    "polarization": "parallel | perpendicular | isotropic | 'ax,ay,az'",
    "out": "output path ('-' for stdout)",
    "config": "INI config file; flags override file values",
    "dump_config": "write the fully resolved spec to this path",
}


def build_parser() -> dict:
    """The flag table: for each command, each --flag and the field it sets, _FIELDS' and config I/O."""
    return {command: {"--" + name.replace("_", "-"): name for name in (*fields, "config", "dump_config")}
            for command, fields in _FIELDS.items()}


def _parse(argv, table):
    """The command that ``argv`` names (None for none) and the text of each flag, by field, the last
    of a repeated flag winning; no texts where ``argv`` is empty or holds -h or --help.  A flag is
    --name VALUE or --name=VALUE, or a unique prefix of --name longer than '--'; VALUE is never '--',
    and on its own never starts with '--'.  ValueError on anything else."""
    command = argv[0] if argv and argv[0] in table else None
    if not argv or "-h" in argv or "--help" in argv:
        return command, None
    if command is None:
        raise ValueError(f"unknown command {argv[0]!r}; choose from {', '.join(table)}")
    flags, texts, words = table[command], {}, iter(argv[1:])
    for word in words:
        flag, equals, text = word.partition("=")
        matches = [flag] if flag in flags else [name for name in flags if len(flag) > 2 and name.startswith(flag)]
        if len(matches) != 1:
            kind, found = ("ambiguous", ": " + ", ".join(matches)) if matches else ("unknown", "")
            raise ValueError(f"{kind} flag {flag!r} for {command!r}{found}")
        text = text if equals else next(words, "--")
        if text == "--" or not equals and text.startswith("--"):
            raise ValueError(f"{matches[0]} needs a value")
        texts[flags[matches[0]]] = text
    return command, texts


def _help(commands, table) -> str:
    """The usage line, then each command with its _COMMANDS line and its flags with their _FLAG_HELP text."""
    lines = ["usage: coherence-bath {%s} [--flag VALUE | --flag=VALUE ...]  (-h or --help: help)" % ",".join(table)]
    for command in commands:
        lines += ["", f"{command}: {_COMMANDS[command][1]}", *(
            f"  {flag:<16}{_FLAG_HELP.get(name, '')}".rstrip() for flag, name in table[command].items())]
    return "\n".join(lines)


def main(argv=None) -> int:
    argv, table = sys.argv[1:] if argv is None else list(argv), build_parser()
    try:
        command, texts = _parse(argv, table)
        if texts is None:  # help, asked for or for want of a command
            print(_help([command] if command else table, table))
            return EXIT_OK if argv else EXIT_INVALID
        spec = resolve_spec(command, texts)
        code = _COMMANDS[command][0](spec)
        if texts.get("dump_config"):
            dump_spec(command, spec, texts["dump_config"])
        return code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InstabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
