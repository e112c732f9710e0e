import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import coherence_bath
import coherence_bath.cli as cli
from coherence_bath.boundary import Geometry, PolarizationWeights, decay_rate, noise_to_damping, suppression_factor
from coherence_bath.cli import BLOCK_ROWS, _FIELDS, _REQUIRED, _cells, _q_grid, _write_table, build_parser, main
from coherence_bath.single_qubit import c_l1_single, c_re_single
from coherence_bath.two_qubit import BellDiagonalParams, c_l1_bd, c_re_bd, c_re_bd_closed_form

UNBOUNDED = Geometry.unbounded()
PARALLEL = PolarizationWeights.parallel()
GAMMA = decay_rate(suppression_factor(UNBOUNDED, PARALLEL))  # gamma_eff = 1: q' = q


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, (float(v) for v in line.split(",")))) for line in lines[1:]]
    return header, rows


def test_single_worked_rows(tmp_path):
    out = tmp_path / "single.csv"
    code = main(
        [
            "single",
            "--theta",
            repr(math.pi / 2),
            "--q-count",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["q", "c_l1", "c_re"]
    assert rows[0]["q"] == 0.0 and rows[0]["c_l1"] == 1.0 and rows[0]["c_re"] == 1.0
    assert rows[1]["c_l1"] == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert rows[1]["c_re"] == pytest.approx(
        c_re_single(math.pi / 2, noise_to_damping(0.5, GAMMA)), abs=1e-15
    )
    assert rows[2]["q"] == 1.0 and rows[2]["c_l1"] == 0.0 and rows[2]["c_re"] == 0.0


def test_single_incoherent_initial_state(tmp_path):
    out = tmp_path / "zero.csv"
    assert main(["single", "--theta", "0", "--q-count", "5", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert all(row["c_l1"] == 0.0 and row["c_re"] == 0.0 for row in rows)


def test_single_near_boundary_columns_nearly_constant(tmp_path):
    out = tmp_path / "frozen.csv"
    code = main(
        [
            "single",
            "--theta",
            repr(math.pi / 2),
            "--geometry",
            "mirror",
            "--u",
            "1e-3",
            "--polarization",
            "parallel",
            "--q-stop",
            "0.99",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    _, rows = _read_csv(out)
    l1 = [row["c_l1"] for row in rows]
    re = [row["c_re"] for row in rows]
    assert max(l1) - min(l1) < 1e-5
    assert max(re) - min(re) < 1e-4


def test_single_json_format(capsys):
    assert main(["single", "--q-count", "2", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert isinstance(rows, list) and set(rows[0]) == {"q", "c_l1", "c_re"}


def test_two_zero_coherence_family(tmp_path):
    out = tmp_path / "two.csv"
    code = main(
        ["two", "--c1", "0", "--c2", "0", "--c3", "0.5", "--q-count", "4", "--out", str(out)]
    )
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["q", "c_l1", "c_re", "c_re_closed_form"]
    assert all(row["c_l1"] == 0.0 and row["c_re"] == 0.0 for row in rows)


def test_two_bell_state_first_row(tmp_path):
    out = tmp_path / "bell.csv"
    assert (
        main(["two", "--c1", "1", "--c2", "-1", "--c3", "1", "--q-count", "3", "--out", str(out)])
        == 0
    )
    _, rows = _read_csv(out)
    assert rows[0]["c_l1"] == pytest.approx(1.0, abs=1e-12)
    assert rows[0]["c_re"] == pytest.approx(1.0, abs=1e-12)


def test_two_example_first_row(tmp_path):
    out = tmp_path / "ex.csv"
    assert (
        main(
            ["two", "--c1", "0.8", "--c2", "0.4", "--c3", "-0.2", "--q-count", "3", "--out", str(out)]
        )
        == 0
    )
    _, rows = _read_csv(out)
    assert rows[0]["c_l1"] == pytest.approx(0.8, abs=1e-15)


def test_two_rejects_unphysical_vector(tmp_path, capsys):
    code = main(["two", "--c1", "0.8", "--c2", "0.4", "--c3", "0.2"])
    assert code == 2
    assert "(1 - c3 - (c1 + c2))/4" in capsys.readouterr().err


def test_two_rejects_correlation_beyond_one(capsys):
    assert main(["two", "--c1", "1.5", "--c2", "0", "--c3", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unphysical correlation vector") and err.count("\n") == 1


def test_two_requires_c_vector(capsys):
    assert main(["two"]) == 2
    assert "c1" in capsys.readouterr().err


def test_surface_near_boundary_parallel_constant(tmp_path):
    out = tmp_path / "surface.csv"
    code = main(
        [
            "surface",
            "--measure",
            "l1",
            "--preset",
            "parallel",
            "--u-start",
            "1e-3",
            "--u-stop",
            "1e-2",
            "--u-count",
            "2",
            "--q-stop",
            "0.99",
            "--q-count",
            "21",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["u", "q", "value"]
    first_u = [row["value"] for row in rows if row["u"] == 1e-3]
    assert max(first_u) - min(first_u) < 1e-5


def test_surface_far_mirror_matches_unbounded(tmp_path):
    out = tmp_path / "far.csv"
    code = main(
        [
            "surface",
            "--measure",
            "re",
            "--preset",
            "isotropic",
            "--u-start",
            "1000",
            "--u-stop",
            "2000",
            "--u-count",
            "2",
            "--q-count",
            "21",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    _, rows = _read_csv(out)
    for row in rows:
        unbounded = c_re_single(math.pi / 2, noise_to_damping(row["q"], GAMMA))
        assert abs(row["value"] - unbounded) < 2e-3


def test_surface_perpendicular_decays_faster(tmp_path):
    out = tmp_path / "perp.csv"
    code = main(
        [
            "surface",
            "--measure",
            "l1",
            "--preset",
            "perpendicular",
            "--u-start",
            "0.05",
            "--u-stop",
            "0.1",
            "--u-count",
            "2",
            "--q-start",
            "0.5",
            "--q-stop",
            "0.6",
            "--q-count",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    _, rows = _read_csv(out)
    at_half = [row["value"] for row in rows if row["u"] == 0.05 and row["q"] == 0.5]
    assert at_half[0] < math.sqrt(0.5)


def test_freeze_single_not_frozen(capsys):
    code = main(["freeze", "--mode", "single", "--theta", repr(math.pi / 4)])
    assert code == 0
    out = capsys.readouterr().out
    assert "not frozen" in out
    payload = json.loads(out[out.index("{") :])
    assert payload["l1_frozen"] is False
    assert payload["sup_dq_c_l1"] > 0.0


@pytest.mark.parametrize(
    "args",
    [
        ["--mode", "single", "--theta", "1e-6"],
        ["--mode", "single", "--theta", repr(math.pi - 1e-6)],
        ["--mode", "two", "--c1", "1e-6", "--c2", "0", "--c3", "0"],
    ],
)
def test_freeze_weak_coherence_is_consistent(tmp_path, capsys, args):
    # Not frozen, with the l1 derivative above FREEZE_SUP_BOUND and the
    # relative-entropy one below it: one verdict covers both measures.
    twin = tmp_path / "freeze.json"
    assert main(["freeze", *args, "--out", str(twin)]) == 0
    assert "numeric check: consistent" in capsys.readouterr().out
    payload = json.loads(twin.read_text())
    assert payload["numeric_consistent"] is True
    assert payload["sup_dq_c_re"] < 1e-8 < payload["sup_dq_c_l1"]


SLOW_DECAY = ["--geometry", "mirror", "--u", "3e-6", "--polarization", "parallel"]
ROUND_OFF_FROZEN = ["--geometry", "mirror", "--u", "1e-7", "--polarization", "0.6,0.4000000000001,0"]
TWO_MODE = ["--mode", "two", "--c1", "0.5", "--c2", "0.2", "--c3", "0.1"]


@pytest.mark.parametrize(
    "args, verdict",
    [
        (["--mode", "single", "--theta", "1e-9"], "not frozen"),
        (["--mode", "two", "--c1", "1e-9", "--c2", "0", "--c3", "0"], "not frozen"),
        (["--mode", "single", "--theta", "1e-13"], "FROZEN (trivial)"),
        (["--mode", "single", "--theta", "0"], "FROZEN (trivial)"),
        (
            ["--mode", "single", "--theta", "1e-6", "--geometry", "mirror", "--u", "1e-7"],
            "FROZEN (boundary-induced)",
        ),
        (["--mode", "single", *SLOW_DECAY], "not frozen"),
        ([*TWO_MODE, *SLOW_DECAY], "not frozen"),
        (["--mode", "single", *ROUND_OFF_FROZEN], "FROZEN (boundary-induced)"),
        ([*TWO_MODE, *ROUND_OFF_FROZEN], "FROZEN (boundary-induced)"),
    ],
)
def test_freeze_check_scales_with_initial_coherence(tmp_path, capsys, args, verdict):
    # Decaying inputs whose derivatives all fall under the absolute 1e-8
    # bound (weak coherence, or gamma_eff ~ 7.2e-12 at u = 3e-6), trivially
    # frozen ones, a frozen one whose relative-entropy derivative (2.4e-12)
    # exceeds 1e-8 times its coherence 1e-6, and valid weights whose
    # suppression factor is 1 + 9.2e-14.
    twin = tmp_path / "freeze.json"
    assert main(["freeze", *args, "--out", str(twin)]) == 0
    out = capsys.readouterr().out
    assert verdict in out and "numeric check: consistent" in out
    assert json.loads(twin.read_text())["numeric_consistent"] is True


def test_freeze_single_boundary(tmp_path, capsys):
    twin = tmp_path / "freeze.json"
    code = main(
        [
            "freeze",
            "--mode",
            "single",
            "--geometry",
            "mirror",
            "--u",
            "1e-7",
            "--polarization",
            "parallel",
            "--out",
            str(twin),
        ]
    )
    assert code == 0
    assert "FROZEN (boundary-induced)" in capsys.readouterr().out
    payload = json.loads(twin.read_text())
    assert payload["l1_frozen"] and payload["re_frozen"]
    assert payload["numeric_consistent"]


def test_freeze_two_trivial(capsys):
    code = main(["freeze", "--mode", "two", "--c1", "0", "--c2", "0", "--c3", "0.7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "FROZEN (trivial)" in out


def test_freeze_two_requires_vector(capsys):
    assert main(["freeze", "--mode", "two"]) == 2
    assert "requires c1" in capsys.readouterr().err


def test_validate_default_passes(capsys):
    code = main(["validate", "--cases", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "relative-entropy closed-form gap" in out


def test_validate_deterministic_output_files(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["validate", "--cases", "8", "--seed", "5", "--out", str(a)]) == 0
    assert main(["validate", "--cases", "8", "--seed", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_validate_coarse_step_fails_tolerance(capsys):
    # at the maximum allowed step the fastest sampled phase rotations leave
    # a truncation error above the 1e-8 gate
    code = main(["validate", "--seed", "9", "--cases", "40", "--step", "0.01"])
    assert code == 4
    assert "result: FAIL" in capsys.readouterr().out


def test_sweep_outputs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["single", "--theta", "1.1", "--geometry", "mirror", "--u", "0.3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_round_trip(tmp_path):
    direct = tmp_path / "direct.csv"
    dumped = tmp_path / "resolved.ini"
    args = [
        "single",
        "--theta",
        "0.9",
        "--geometry",
        "mirror",
        "--u",
        "0.25",
        "--polarization",
        "isotropic",
        "--q-count",
        "11",
    ]
    assert main(args + ["--out", str(direct), "--dump-config", str(dumped)]) == 0
    # rerun purely from the dumped config; only the output path is overridden
    replay = tmp_path / "replay.csv"
    assert main(["single", "--config", str(dumped), "--out", str(replay)]) == 0
    assert direct.read_bytes() == replay.read_bytes()


def test_config_flags_win(tmp_path):
    config = tmp_path / "conf.ini"
    config.write_text("[single]\ntheta = 0.3\nq_count = 4\n")
    out = tmp_path / "out.csv"
    assert main(["single", "--config", str(config), "--theta", "0.0", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 4  # q_count from config
    assert all(row["c_l1"] == 0.0 for row in rows)  # theta from flag


def test_config_unknown_key_rejected(tmp_path, capsys):
    config = tmp_path / "conf.ini"
    config.write_text("[single]\nthetaa = 0.3\n")
    assert main(["single", "--config", str(config)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_config_is_io_error(capsys):
    assert main(["single", "--config", "/nonexistent/path.ini"]) == 3


def test_unwritable_output_is_io_error(tmp_path):
    assert main(["single", "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 3


def test_nan_rejected_at_parse_time(capsys):
    assert main(["single", "--theta", "nan"]) == 2
    assert capsys.readouterr().err == "error: theta: theta must be finite, got nan\n"


_NOT_A_TRIPLE = "polarization must be one of ['isotropic', 'parallel', 'perpendicular'] or 'ax,ay,az'"
_BAD_FIELD_VALUES = [
    ("single", "q_count", "1", "value must be an integer of at least 2, got '1'"),
    ("surface", "u_count", "1", "value must be an integer of at least 2, got '1'"),
    ("validate", "seed", "-1", "value must be an integer of at least 0, got '-1'"),
    ("validate", "cases", "0", "value must be an integer of at least 1, got '0'"),
    ("surface", "measure", "foo", "expected one of ['l1', 're'], got 'foo'"),
    ("single", "theta", "nan", "theta must be finite, got nan"),
    ("single", "q_start", "nan", "value must be finite, got nan"),
    # the owning type's rule and message: InitialAngles, Geometry, IntegratorConfig, parse_polarization
    ("single", "theta", "7", "theta must lie in [0, pi], got 7.0"),
    ("single", "phi", "7", "phi must lie in [0, 2 pi), got 7.0"),
    ("single", "u", "-1", "boundary distance u must be positive, got -1.0"),
    ("surface", "u_start", "0", "boundary distance u must be positive, got 0.0"),
    ("surface", "u_stop", "inf", "boundary distance u must be finite, got inf"),
    ("validate", "step", "0", "step must be positive, got 0.0"),
    ("single", "polarization", "1,0", f"{_NOT_A_TRIPLE}, got '1,0'"),
]


@pytest.mark.parametrize("source", ["flag", "section", "DEFAULT"])
@pytest.mark.parametrize("command, name, text, message", _BAD_FIELD_VALUES)
def test_bad_value_is_one_error_line_naming_the_field(tmp_path, source, command, name, text, message):
    if source == "flag":
        argv = [command, f"--{name.replace('_', '-')}={text}"]
    else:
        config = tmp_path / "conf.ini"
        entry = f"{name} = {text}\n"
        config.write_text(f"[{command}]\n{entry}" if source == "section" else f"[DEFAULT]\n{entry}[{command}]\n")
        argv = [command, "--config", str(config)]
    # one line from either source: no usage dump, no traceback, no converter's name
    assert _run_main(argv) == (2, "", f"error: {name}: {message}\n")


@pytest.mark.parametrize(
    "triple, message",
    [
        ("1,0", f"{_NOT_A_TRIPLE}, got '1,0'"),
        ("a,b,c", f"{_NOT_A_TRIPLE}, got 'a,b,c'"),
        ("1,,0", f"{_NOT_A_TRIPLE}, got '1,,0'"),
        ("inf,0,0", "polarization weight ax must be finite, got inf"),
    ],
    ids=["1,0", "a,b,c", "1,,0", "inf,0,0"],
)
def test_bad_polarization_triple_rejected(capsys, triple, message):
    assert main(["single", "--polarization", triple]) == 2
    assert capsys.readouterr() == ("", f"error: polarization: {message}\n")


@pytest.mark.parametrize(
    "exc, line",
    [
        (ZeroDivisionError("float division by zero"), "error: ZeroDivisionError: float division by zero\n"),
        (MemoryError("no room"), "error: out of memory: no room\n"),
    ],
)
def test_arithmetic_and_memory_errors_in_a_handler_are_invalid_input(monkeypatch, capsys, exc, line):
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "freezing_report", fail)
    assert main(["freeze", "--mode", "single"]) == 2
    assert capsys.readouterr() == ("", line)


def test_invalid_grid_rejected(capsys):
    assert main(["single", "--q-start", "0.9", "--q-stop", "0.1"]) == 2
    assert main(["single", "--q-count", "1"]) == 2


def test_mirror_requires_u(capsys):
    assert main(["single", "--geometry", "mirror"]) == 2
    assert "requires a distance u" in capsys.readouterr().err


def test_bad_mirror_distance_is_the_boundary_message():
    # Geometry, the response functions and --u share one rule and one message.
    assert _run_main(["single", "--geometry", "mirror", "--u", "-1"]) == (
        2,
        "",
        "error: u: boundary distance u must be positive, got -1.0\n",
    )


@pytest.mark.parametrize(
    "argv, line",
    [
        (["single", "--u", "-1"], "error: u: boundary distance u must be positive, got -1.0\n"),
        (
            ["freeze", "--mode", "two", "--c1", "0.3", "--c2", "0.2", "--c3", "0.1", "--theta", "7"],
            "error: theta: theta must lie in [0, pi], got 7.0\n",
        ),
    ],
)
def test_value_the_field_never_accepts_is_rejected_where_unused(tmp_path, argv, line):
    # the unbounded vacuum has no u, and mode two has no theta
    out, dumped = tmp_path / "out.txt", tmp_path / "resolved.ini"
    assert _run_main([*argv, "--out", str(out), "--dump-config", str(dumped)]) == (2, "", line)
    assert not out.exists() and not dumped.exists()


@pytest.mark.parametrize(
    "argv", [["single", "--theta=--"], ["single", "--out=--"], ["validate", "--cases=--"], ["surface", "--preset=--"]]
)
def test_double_dash_value_is_invalid_input(capsys, argv):
    # argparse of Python 3.11 passes --name=-- on as an empty list; later
    # versions may reject the value themselves.
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_no_command_prints_help(capsys):
    assert main([]) == 2


def _csv_text(header, rows):
    return "\n".join([",".join(header)] + [",".join(repr(v) for v in row) for row in rows]) + "\n"


def _json_text(header, rows):
    return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308, -1.7976931348623157e308]
finite = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
_HEADERS = [("q", "c_l1", "c_re"), ("u", "q", "value"), ("q", "c_l1", "c_re", "c_re_closed_form")]


@st.composite
def tables(draw):
    """A header, its rows, and a block size from one row to more than all of them."""
    header = draw(st.sampled_from(_HEADERS))
    rows = draw(st.lists(st.tuples(*(finite for _ in header)), min_size=2, max_size=50))
    return header, rows, draw(st.integers(1, len(rows) + 1))


def _written(fmt, header, rows, per_block):
    text = io.StringIO()
    blocks = (rows[lo : lo + per_block] for lo in range(0, len(rows), per_block))
    with contextlib.redirect_stdout(text):
        _write_table({"out": "-", "format": fmt}, header, ([_cells(c) for c in zip(*block)] for block in blocks))
    return text.getvalue()


@settings(max_examples=60, deadline=None)
@given(tables())
def test_render_matches_repr_rows_and_json_dumps(table):
    header, rows, per_block = table
    assert _written("csv", header, rows, per_block) == _csv_text(header, rows)
    assert _written("json", header, rows, per_block) == _json_text(header, rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cells_refuse_non_finite_values(bad):
    with pytest.raises(ValueError, match="non-finite"):
        _cells(np.array([0.5, bad, 0.25]))


@pytest.mark.parametrize(
    "command", [["single"], ["two", "--c1", "0.3", "--c2", "0.2", "--c3", "0.1"], ["surface"]]
)
def test_grid_with_repeated_q_rejected(tmp_path, capsys, command):
    # linspace over a span of one ulp repeats q values.
    out = tmp_path / "out.csv"
    grid = ["--q-start", "0.5", "--q-stop", "0.5000000000000001", "--q-count", "5"]
    assert main([*command, *grid, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: q grid repeats values: [0.5, 0.5000000000000001] is too narrow\n"
    assert not out.exists()


@settings(max_examples=300, deadline=None)
@given(
    start=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    span_ulps=st.one_of(st.integers(1, 8), st.none()),
    stop=st.floats(0.0, 1.0),
    count=st.one_of(
        st.sampled_from([2, 3, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]),
        st.integers(2, 3 * BLOCK_ROWS),
    ),
)
@example(start=0.0, span_ulps=2, stop=0.0, count=5)  # the step underflows to zero
@example(start=0.0, span_ulps=None, stop=1.0, count=2 * BLOCK_ROWS + 1)
def test_q_blocks_equal_linspace_bit_for_bit(start, span_ulps, stop, count):
    if span_ulps is None:
        start, stop = sorted((start, stop))
    else:  # a span of a few ulps
        stop = start
        for _ in range(span_ulps):
            stop = math.nextafter(stop, 2.0)
    if not start < stop <= 1.0:
        return
    spec = {"q_start": start, "q_stop": stop, "q_count": count}
    whole = np.linspace(start, stop, count)
    if np.any(whole[1:] <= whole[:-1]):
        with pytest.raises(ValueError, match="q grid repeats values"):
            _q_grid(spec)
        return
    grid = _q_grid(spec)
    blocks = list(grid())
    assert [block.tolist() for block in grid()] == [block.tolist() for block in blocks]  # anew on each call
    assert [len(block) for block in blocks[:-1]] == [BLOCK_ROWS] * (len(blocks) - 1)
    assert [float.hex(q) for q in np.concatenate(blocks).tolist()] == list(map(float.hex, whole.tolist()))


@pytest.mark.parametrize("command", [["single"], ["two", "--c1", "0.3", "--c2", "0.2", "--c3", "0.1"]])
def test_repeated_q_past_the_first_block_rejected(tmp_path, capsys, command):
    # Points below 0.5 lie 1.5 ulps apart and those above 0.75 ulps, so the
    # grid first repeats after 0.5, which the second block crosses.
    step = 1.5 * 2.0**-54
    start, count = 0.5 - (3 * BLOCK_ROWS // 2) * step, 2 * BLOCK_ROWS + 1
    stop = start + (count - 1) * step
    whole = np.linspace(start, stop, count)
    repeats = np.flatnonzero(whole[1:] <= whole[:-1])
    assert repeats.size and repeats[0] >= BLOCK_ROWS
    out = tmp_path / "out.csv"
    grid = ["--q-start", repr(start), "--q-stop", repr(stop), "--q-count", str(count)]
    assert main([*command, *grid, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: q grid repeats values: [{start}, {stop}] is too narrow\n"
    assert not out.exists()


def test_surface_with_decreasing_u_range_rejected(tmp_path):
    out = tmp_path / "out.csv"
    argv = ["surface", "--u-start", "3", "--u-stop", "2", "--out", str(out)]
    assert _run_main(argv) == (2, "", "error: u grid must satisfy u_start < u_stop, got [3.0, 2.0]\n")
    assert not out.exists()


def test_surface_with_repeated_u_rejected(tmp_path, capsys):
    # geomspace over a span of one ulp repeats u values.
    out = tmp_path / "out.csv"
    grid = ["--u-start", "1", "--u-stop", "1.0000000000000002", "--u-count", "5", "--q-count", "2"]
    assert main(["surface", "--measure", "l1", *grid, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: u grid repeats values: [1.0, 1.0000000000000002] is too narrow\n"
    assert not out.exists()


@settings(max_examples=100, deadline=None)
@given(
    theta=st.floats(0.0, math.pi),
    u=st.floats(-10.0, 300.0).map(lambda exponent: 10.0**exponent),
    preset=st.sampled_from(["parallel", "perpendicular", "isotropic"]),
)
@example(theta=0.0, u=1e-8, preset="parallel")
@example(theta=5e-324, u=1e-8, preset="parallel")
@example(theta=1e-12, u=1e-8, preset="parallel")
@example(theta=1e-8, u=1e-8, preset="parallel")  # not trivially frozen
@example(theta=math.pi, u=1e-8, preset="parallel")
def test_freeze_single_consistent_over_the_domain(theta, u, preset):
    # Near the mirror cos(theta) and q' round to 1, where 1 - bz once
    # rounded to zero and the relative-entropy derivative divided by it.
    args = ["freeze", "--mode", "single", "--theta", repr(theta), "--geometry", "mirror", "--u", repr(u)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*args, "--polarization", preset])
    assert (code, stderr.getvalue()) == (0, "")
    assert "numeric check: consistent" in stdout.getvalue()


def test_single_bytes_match_per_point_functions(tmp_path):
    out = tmp_path / "single.csv"
    args = ["single", "--theta", "1.1", "--geometry", "mirror", "--u", "0.05", "--q-count", "41"]
    assert main(args + ["--out", str(out)]) == 0
    gamma = decay_rate(suppression_factor(Geometry.mirror(0.05), PARALLEL))
    rows = []
    for q in map(float, np.linspace(0.0, 1.0, 41)):
        qp = noise_to_damping(q, gamma)
        rows.append((q, c_l1_single(1.1, qp), c_re_single(1.1, qp)))
    assert out.read_text() == _csv_text(["q", "c_l1", "c_re"], rows)


def test_two_bytes_match_per_point_functions(tmp_path):
    out = tmp_path / "two.csv"
    args = ["two", "--c1", "0.3", "--c2", "-0.4", "--c3", "0.2", "--geometry", "mirror"]
    args += ["--u", "2.5", "--polarization", "isotropic", "--q-count", "31"]
    assert main(args + ["--out", str(out)]) == 0
    bd = BellDiagonalParams(0.3, -0.4, 0.2)
    gamma = decay_rate(suppression_factor(Geometry.mirror(2.5), PolarizationWeights.isotropic()))
    rows = []
    for q in map(float, np.linspace(0.0, 1.0, 31)):
        qp = noise_to_damping(q, gamma)
        rows.append((q, c_l1_bd(bd, qp), c_re_bd(bd, qp), c_re_bd_closed_form(bd, qp)))
    assert out.read_text() == _csv_text(["q", "c_l1", "c_re", "c_re_closed_form"], rows)


@pytest.mark.parametrize(
    "measure, fmt, preset",
    [("re", "csv", "perpendicular"), ("l1", "json", "isotropic")],
)
def test_surface_bytes_match_per_point_functions(tmp_path, measure, fmt, preset):
    out = tmp_path / f"surface.{fmt}"
    args = ["surface", "--measure", measure, "--preset", preset, "--format", fmt]
    args += ["--u-start", "0.02", "--u-stop", "30", "--u-count", "7", "--q-count", "13"]
    assert main(args + ["--out", str(out)]) == 0
    per_point = c_re_single if measure == "re" else c_l1_single
    polarization = getattr(PolarizationWeights, preset)()
    rows = []
    for u in map(float, np.geomspace(0.02, 30.0, 7)):
        gamma = decay_rate(suppression_factor(Geometry.mirror(u), polarization))
        for q in map(float, np.linspace(0.0, 1.0, 13)):
            rows.append((u, q, per_point(math.pi / 2, noise_to_damping(q, gamma))))
    text = _csv_text if fmt == "csv" else _json_text
    assert out.read_text() == text(["u", "q", "value"], rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("count", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
def test_single_blocks_match_whole_grid(tmp_path, count, fmt):
    out = tmp_path / f"single.{fmt}"
    args = ["single", "--theta", "1.1", "--geometry", "mirror", "--u", "0.05", "--q-count", str(count)]
    assert main(args + ["--format", fmt, "--out", str(out)]) == 0
    q = np.linspace(0.0, 1.0, count)
    qp = noise_to_damping(q, decay_rate(suppression_factor(Geometry.mirror(0.05), PARALLEL)))
    columns = [q, c_l1_single(1.1, qp), c_re_single(1.1, qp)]
    rows = list(zip(*(c.tolist() for c in columns)))
    text = _csv_text if fmt == "csv" else _json_text
    assert out.read_text() == text(["q", "c_l1", "c_re"], rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("count", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
def test_two_blocks_match_whole_grid(tmp_path, count, fmt):
    out = tmp_path / f"two.{fmt}"
    args = ["two", "--c1", "0.3", "--c2", "-0.4", "--c3", "0.2", "--geometry", "mirror", "--u", "2.5"]
    args += ["--polarization", "isotropic", "--q-count", str(count), "--format", fmt]
    assert main(args + ["--out", str(out)]) == 0
    bd = BellDiagonalParams(0.3, -0.4, 0.2)
    gamma = decay_rate(suppression_factor(Geometry.mirror(2.5), PolarizationWeights.isotropic()))
    q = np.linspace(0.0, 1.0, count)
    qp = noise_to_damping(q, gamma)
    columns = [q, c_l1_bd(bd, qp), c_re_bd(bd, qp), c_re_bd_closed_form(bd, qp)]
    text = _csv_text if fmt == "csv" else _json_text
    assert out.read_text() == text(["q", "c_l1", "c_re", "c_re_closed_form"], zip(*(c.tolist() for c in columns)))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("q_count", [300, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])  # 1, 2 and 3 q blocks per u row
def test_surface_blocks_match_whole_grid(tmp_path, q_count, fmt):
    out = tmp_path / f"surface.{fmt}"
    args = ["surface", "--measure", "re", "--preset", "perpendicular", "--format", fmt, "--u-start", "0.02"]
    args += ["--u-stop", "30", "--u-count", "7", "--q-count", str(q_count), "--out", str(out)]
    assert main(args) == 0
    q = np.linspace(0.0, 1.0, q_count)
    rows = []
    for u in np.geomspace(0.02, 30.0, 7).tolist():
        gamma = decay_rate(suppression_factor(Geometry.mirror(u), PolarizationWeights.perpendicular()))
        values = c_re_single(math.pi / 2, noise_to_damping(q, gamma))
        rows += [(u, qv, value) for qv, value in zip(q.tolist(), values.tolist())]
    text = _csv_text if fmt == "csv" else _json_text
    assert out.read_text() == text(["u", "q", "value"], rows)


@pytest.mark.parametrize("q_count, q_cells", [(2 * BLOCK_ROWS, 2), (2 * BLOCK_ROWS + 1, 3 * 3)])
def test_surface_makes_the_cells_of_a_short_q_axis_once(tmp_path, monkeypatch, q_count, q_cells):
    # Up to two blocks, the q axis's cells are made once; past that, once per u row.
    lengths = []

    def counted(column):
        lengths.append(len(column))
        return _cells(column)

    monkeypatch.setattr(cli, "_cells", counted)
    argv = ["surface", "--u-count", "3", "--q-count", str(q_count), "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    u_cells, value_cells = 1, 3 * len(range(0, q_count, BLOCK_ROWS))
    assert len(lengths) == u_cells + q_cells + value_cells


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["single", "surface"])
def test_failure_in_a_later_block_keeps_the_blocks_before_it(tmp_path, capsys, monkeypatch, command, fmt):
    # Both call the kernel once per block of BLOCK_ROWS q points; a surface u
    # row spans the three blocks of the q axis.
    q = np.linspace(0.0, 1.0, 2 * BLOCK_ROWS + 1)
    calls = []
    kernel = cli.c_re_single

    def nan_in_second_block(theta, qp):
        calls.append(len(qp))
        values = kernel(theta, qp)
        return np.full_like(values, np.nan) if len(calls) == 2 else values

    monkeypatch.setattr(cli, "c_re_single", nan_in_second_block)
    out = tmp_path / f"{command}.{fmt}"
    if command == "single":
        argv = ["single", "--q-count", str(len(q))]
        qp = noise_to_damping(q, GAMMA)
        columns = [q, c_l1_single(math.pi / 2, qp), c_re_single(math.pi / 2, qp)]
        header, rows = ["q", "c_l1", "c_re"], list(zip(*(c.tolist() for c in columns)))[:BLOCK_ROWS]
    else:
        argv = ["surface", "--measure", "re", "--q-count", str(len(q)), "--u-count", "6"]
        gamma = decay_rate(suppression_factor(Geometry.mirror(1e-2), PARALLEL))
        values = c_re_single(math.pi / 2, noise_to_damping(q, gamma))  # the first u row
        header, rows = ["u", "q", "value"], list(zip([1e-2] * len(q), q.tolist(), values.tolist()))[:BLOCK_ROWS]
    assert main([*argv, "--format", fmt, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: refusing to write a non-finite value: nan\n"
    assert calls == [BLOCK_ROWS] * 2  # the third block is never computed
    if fmt == "csv":
        assert out.read_text() == _csv_text(header, rows)
    else:  # the list is never closed, so the file is not valid JSON
        assert out.read_text() == _json_text(header, rows)[: -len("\n]\n")]


def test_reader_closing_the_pipe_mid_stream_is_io_error():
    src = os.path.dirname(os.path.dirname(os.path.abspath(coherence_bath.__file__)))
    argv = [sys.executable, "-m", "coherence_bath.cli", "single", "--q-count", str(100 * BLOCK_ROWS)]
    with subprocess.Popen(
        argv, env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as child:
        assert child.stdout.readline() == "q,c_l1,c_re\n"
        child.stdout.close()  # as `| head -1` does
        err = child.stderr.read()
        assert child.wait(timeout=60) == 3
    assert err == "i/o error: [Errno 32] Broken pipe\n"


def test_peak_memory_is_flat_in_grid_size(tmp_path):
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(os.path.abspath(coherence_bath.__file__)))
    # A fresh interpreter runs the CLI and reports the peak RSS of its one child.
    probe = (
        "import resource, subprocess, sys; "
        "subprocess.run([sys.executable, '-m', 'coherence_bath.cli', *sys.argv[1:]], check=True); "
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )

    def peak_kib(argv, count):
        argv = [*argv, "--q-count", str(count), "--out", str(tmp_path / "out.csv")]
        done = subprocess.run(
            [sys.executable, "-c", probe, *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
        )
        return int(done.stdout)

    for argv in (["single"], ["surface", "--measure", "re", "--u-count", "2"]):
        assert peak_kib(argv, 300001) - peak_kib(argv, 10001) <= 16 * 1024, argv


@pytest.mark.parametrize(
    "argv",
    [["two", "--c1", "0.3", "--c2", "-0.4", "--c3", "0.2"], ["single", "--format", "json"]],
    ids=["two", "single-json"],
)
def test_block_working_set_is_small(tmp_path, argv):
    # The traced peak of one table run is one block's working set: its q
    # points, its kernels' temporaries and its cells, while rows stream out.
    import tracemalloc

    argv = [*argv, "--q-count", "10001", "--out", str(tmp_path / "out")]
    assert main(argv) == 0  # warm-up: imports, caches and interned text
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 384 * 1024, peak


def test_config_default_section_serves_only_commands_with_the_field(tmp_path, capsys):
    config = tmp_path / "conf.ini"
    config.write_text("[DEFAULT]\nq_count = 3\n[validate]\ncases = 2\n[single]\ntheta = 0.0\n")
    assert main(["validate", "--config", str(config)]) == 0
    assert capsys.readouterr().out.startswith("cases: 2 (seed 42)\n")
    out = tmp_path / "single.csv"
    assert main(["single", "--config", str(config), "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 3 and all(row["c_l1"] == 0.0 for row in rows)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[DEFAULT]\nq_count = 3\n[validate]\nq_count = 3\n", "unknown config keys in [validate]: ['q_count']"),
        ("[DEFAULT]\nq_cont = 3\n[validate]\n", "unknown config keys in [DEFAULT]: ['q_cont']"),
    ],
)
def test_config_unknown_key_in_section_or_default_rejected(tmp_path, capsys, text, message):
    config = tmp_path / "conf.ini"
    config.write_text(text)
    assert main(["validate", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_config_without_the_command_section_rejected(tmp_path, capsys):
    config = tmp_path / "conf.ini"
    config.write_text("[DEFAULT]\nq_count = 3\n[two]\nc1 = 0.1\n")
    out = tmp_path / "out.csv"
    assert main(["single", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: config file {str(config)!r} has no [single] section; found ['DEFAULT', 'two']\n"
    assert not out.exists()


def test_parser_flags_mirror_field_tables():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_FIELDS)
    for command, parser in sub.choices.items():
        options = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        assert {a.dest for a in options} == set(_FIELDS[command]) | {"config", "dump_config"}
        for action in options:
            assert action.option_strings == ["--" + action.dest.replace("_", "-")]


@pytest.mark.parametrize("command", [["single"], ["freeze", "--mode", "single"]])
def test_far_mirror_runs_where_u_cubed_overflows(capsys, command):
    assert main(command + ["--geometry", "mirror", "--u", "1e200"]) == 0
    assert capsys.readouterr().err == ""


def test_surface_reaches_far_mirror(capsys):
    assert main(["surface", "--u-stop", "1e300", "--u-count", "7", "--q-count", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.splitlines()[-1] == "1e+300,1.0,0.0"


def test_validate_accepts_seed_zero(tmp_path, capsys):
    out = tmp_path / "seed0.json"
    assert main(["validate", "--seed", "0", "--cases", "3", "--out", str(out)]) == 0
    assert '"seed": 0,' in out.read_text()


@pytest.mark.parametrize(
    "c, geometry, preset",
    [
        ((0.3, -0.4, 0.2), ["--geometry", "mirror", "--u", "0.7"], "isotropic"),
        ((1.0, -1.0, 1.0), ["--geometry", "mirror", "--u", "0.05"], "parallel"),
        ((0.8, 0.4, -0.2), [], "perpendicular"),
    ],
)
def test_freeze_two_bytes_match_per_point_differences(tmp_path, capsys, c, geometry, preset):
    twin = tmp_path / "freeze.json"
    args = ["freeze", "--mode", "two", "--c1", repr(c[0]), "--c2", repr(c[1]), "--c3", repr(c[2])]
    assert main(args + geometry + ["--polarization", preset, "--out", str(twin)]) == 0
    payload = json.loads(twin.read_text())
    bd = BellDiagonalParams(*c)
    env = Geometry.mirror(float(geometry[-1])) if geometry else UNBOUNDED
    gamma = decay_rate(suppression_factor(env, getattr(PolarizationWeights, preset)()))
    step = 1e-5

    def sup(kernel):
        return max(
            abs(kernel(bd, noise_to_damping(q + step, gamma)) - kernel(bd, noise_to_damping(q - step, gamma)))
            / (2 * step)
            for q in map(float, np.linspace(0.01, 0.99, 99))
        )

    assert repr(payload["sup_dq_c_l1"]) == repr(sup(c_l1_bd))
    assert repr(payload["sup_dq_c_re"]) == repr(sup(c_re_bd))


@pytest.mark.parametrize(
    "args",
    [
        ["freeze", "--mode", "single", "--theta", "0.7", "--geometry", "mirror", "--u", "0.05"],
        ["freeze", "--mode", "two", "--c1", "0.3", "--c2", "-0.4", "--c3", "0.2", "--polarization", "isotropic"],
        ["validate", "--seed", "3", "--cases", "4"],
    ],
)
def test_dump_config_round_trip_freeze_and_validate(tmp_path, capsys, args):
    dumped = tmp_path / "resolved.ini"
    direct, replay = tmp_path / "direct.json", tmp_path / "replay.json"
    assert main(args + ["--out", str(direct), "--dump-config", str(dumped)]) == 0
    printed = capsys.readouterr().out
    assert main([args[0], "--config", str(dumped), "--out", str(replay)]) == 0
    assert capsys.readouterr().out == printed
    assert replay.read_bytes() == direct.read_bytes()


def test_dump_config_not_written_when_the_command_fails(tmp_path, capsys):
    dumped = tmp_path / "resolved.ini"
    assert main(["freeze", "--mode", "two", "--dump-config", str(dumped)]) == 2
    assert not dumped.exists()


def test_validate_json_keeps_its_key_order(tmp_path):
    out = tmp_path / "report.json"
    assert main(["validate", "--cases", "3", "--seed", "2", "--out", str(out)]) == 0
    keys = list(json.loads(out.read_text()))
    assert keys == [
        "n_cases", "seed", "max_error", "worst_case", "re_formula_gap", "re_formula_gap_case", "passed"
    ]


def test_config_keeps_percent_literal(tmp_path):
    out, dumped = tmp_path / "run%1.csv", tmp_path / "resolved.ini"
    assert main(["single", "--q-count", "5", "--out", str(out), "--dump-config", str(dumped)]) == 0
    direct = out.read_bytes()
    out.unlink()
    assert main(["single", "--config", str(dumped)]) == 0
    assert out.read_bytes() == direct


@pytest.mark.parametrize(
    "text",
    ["q_count = 4\n", "[single]\nq_count = 4\nq_count = 5\n", "[single]\n[single]\n", "[single\n"],
)
def test_unreadable_config_is_invalid_input(tmp_path, capsys, text):
    config = tmp_path / "conf.ini"
    config.write_text(text)
    assert main(["single", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config file ") and err.count("\n") == 1


def test_validate_round_off_advises_a_larger_step(capsys):
    # Trace drift is round-off: RK4 keeps the trace of this generator exactly.
    assert main(["validate", "--cases", "3", "--step", "1e-15"]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "round-off dominates; retry with step >= " in err
    assert float(err.rsplit(">= ", 1)[1]) >= 1e-14


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("step", ["1e-300", "5e-324"])
def test_validate_rejects_more_than_2_53_steps(capsys, step):
    assert main(["validate", "--cases", "3", "--step", step]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tau = ") and f"at step {step} needs more than 2**53" in err


def test_allocation_failure_is_invalid_input():
    # Every table streams its q grid, so a huge --q-count is a long run;
    # surface allocates its u axis whole.
    resource = pytest.importorskip("resource")
    cap = 2 * 1024**3

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = os.path.dirname(os.path.dirname(os.path.abspath(coherence_bath.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "coherence_bath.cli", "surface", "--u-count", "1000000000000"],
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=limit_address_space,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error: out of memory: ") and done.stderr.count("\n") == 1


_FUZZ_FLOATS = st.one_of(
    st.sampled_from(["0", "-0.0", "0.5", "1", "3.14", "10", "0.01", "1e-15", "5e-324", "-5e-324",
                     "1.7976931348623157e308", "-1.7976931348623157e308"]),
    st.floats(0.0, 1.0).map(repr),
    st.floats(-0.3, 0.3).map(repr),  # any three of these are a physical Bell-diagonal vector
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_FUZZ_BAD = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "", " ", "abc", "1e", "0x10", "1,2", "--"]),
    st.text(max_size=6),
)
# Counts are capped to keep the runs short; allocation failure has its own test.
_FUZZ_INTS = {"q_count": 64, "u_count": 64, "cases": 8, "seed": 2**64}
_FUZZ_WORDS = {
    "geometry": ["unbounded", "mirror", " Mirror "],
    "format": ["csv", "json"],
    "measure": ["l1", "re"],
    "preset": ["parallel", "perpendicular", "isotropic"],
    "mode": ["single", "two"],
    "polarization": ["parallel", "perpendicular", "isotropic", "1,0,0", "0.2,0.3,0.5", "0.5,0.5,0.5",
                     "-1,1,1", "nan,0,1", "1,0"],
}


def _fuzz_values(name, out_paths):
    if name == "out":
        return st.sampled_from(out_paths)
    if name in _FUZZ_INTS:
        return st.integers(-2, _FUZZ_INTS[name]).map(str)
    if name in _FUZZ_WORDS:
        return st.sampled_from(_FUZZ_WORDS[name])
    return _FUZZ_FLOATS


@pytest.mark.parametrize("command", sorted(_FIELDS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_flags_end_in_a_documented_exit_code(tmp_path, command, data):
    out_paths = ["-", str(tmp_path / "out.txt"), str(tmp_path / "missing" / "out.txt")]
    fields = {name: _fuzz_values(name, out_paths) for name in _FIELDS[command]}
    required = {name for name, (_, default) in _FIELDS[command].items() if default is _REQUIRED}
    values = data.draw(
        st.fixed_dictionaries(
            {n: fields[n] for n in required}, optional={n: fields[n] for n in fields if n not in required}
        )
    )
    # At most one flag is non-finite or garbage, so most runs get past resolve_spec.
    # The output path stays in tmp_path.
    spoilable = sorted(set(values) - {"out"})
    if spoilable and data.draw(st.booleans()):
        values[data.draw(st.sampled_from(spoilable))] = data.draw(_FUZZ_BAD)
    # --flag=value keeps argparse from reading a value such as -inf as a flag.
    dumped = tmp_path / "resolved.ini"
    argv = [command, *(f"--{name.replace('_', '-')}={text}" for name, text in values.items())]
    result = _run_main(argv + [f"--dump-config={dumped}"])
    assert result[0] in {0, 2, 3, 4}, argv
    assert "Traceback" not in result[2], argv
    # A successful run replays from its dumped spec: same stdout and stderr, same bytes.
    if result[0] == 0:
        replay = tmp_path / "replay.txt"
        to_file = values.get("out", "-") != "-"
        replay_argv = [command, f"--config={dumped}"] + ([f"--out={replay}"] if to_file else [])
        assert _run_main(replay_argv) == result, argv
        if to_file:
            assert replay.read_bytes() == (tmp_path / "out.txt").read_bytes(), argv


def _run_main(argv) -> tuple[int, str, str]:
    """main(argv)'s exit code, stdout and stderr, with every warning an error."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flag syntax
            code = exc.code
            assert code == 2, argv
    return code, stdout.getvalue(), stderr.getvalue()
