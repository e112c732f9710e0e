import argparse
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coherence_bath.boundary import Geometry, PolarizationWeights, noise_to_damping, rate_coefficients
from coherence_bath.cli import _FIELDS, _cells, _render, build_parser, main
from coherence_bath.single_qubit import c_l1_trajectory, c_re_trajectory
from coherence_bath.two_qubit import BellDiagonalParams, c_l1_bd, c_re_bd, c_re_bd_closed_form

UNBOUNDED = Geometry.unbounded()
PARALLEL = PolarizationWeights.parallel()


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
        c_re_trajectory(math.pi / 2, 0.5, UNBOUNDED, PARALLEL), abs=1e-15
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
        unbounded = c_re_trajectory(math.pi / 2, row["q"], UNBOUNDED, PARALLEL)
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
    with pytest.raises(SystemExit) as excinfo:
        main(["single", "--theta", "nan"])
    assert excinfo.value.code == 2


def test_invalid_grid_rejected(capsys):
    assert main(["single", "--q-start", "0.9", "--q-stop", "0.1"]) == 2
    assert main(["single", "--q-count", "1"]) == 2


def test_mirror_requires_u(capsys):
    assert main(["single", "--geometry", "mirror"]) == 2
    assert "requires a distance u" in capsys.readouterr().err


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
    header = draw(st.sampled_from(_HEADERS))
    return header, draw(st.lists(st.tuples(*(finite for _ in header)), min_size=2, max_size=50))


@settings(max_examples=60, deadline=None)
@given(tables())
def test_render_matches_repr_rows_and_json_dumps(table):
    header, rows = table
    columns = {name: _cells([row[i] for row in rows]) for i, name in enumerate(header)}
    assert _render(columns, "csv") == _csv_text(header, rows)
    assert _render(columns, "json") == _json_text(header, rows)


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
    assert "trace q values must be strictly increasing" in capsys.readouterr().err
    assert not out.exists()


def test_single_bytes_match_per_point_functions(tmp_path):
    out = tmp_path / "single.csv"
    args = ["single", "--theta", "1.1", "--geometry", "mirror", "--u", "0.05", "--q-count", "41"]
    assert main(args + ["--out", str(out)]) == 0
    mirror = Geometry.mirror(0.05)
    rows = [
        (q, c_l1_trajectory(1.1, q, mirror, PARALLEL), c_re_trajectory(1.1, q, mirror, PARALLEL))
        for q in map(float, np.linspace(0.0, 1.0, 41))
    ]
    assert out.read_text() == _csv_text(["q", "c_l1", "c_re"], rows)


def test_two_bytes_match_per_point_functions(tmp_path):
    out = tmp_path / "two.csv"
    args = ["two", "--c1", "0.3", "--c2", "-0.4", "--c3", "0.2", "--geometry", "mirror"]
    args += ["--u", "2.5", "--polarization", "isotropic", "--q-count", "31"]
    assert main(args + ["--out", str(out)]) == 0
    bd = BellDiagonalParams(0.3, -0.4, 0.2)
    gamma = rate_coefficients(Geometry.mirror(2.5), PolarizationWeights.isotropic()).gamma_eff
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
    per_point = c_re_trajectory if measure == "re" else c_l1_trajectory
    polarization = getattr(PolarizationWeights, preset)()
    rows = [
        (float(u), q, per_point(math.pi / 2, q, Geometry.mirror(float(u)), polarization))
        for u in np.geomspace(0.02, 30.0, 7)
        for q in map(float, np.linspace(0.0, 1.0, 13))
    ]
    text = _csv_text if fmt == "csv" else _json_text
    assert out.read_text() == text(["u", "q", "value"], rows)


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
    gamma = rate_coefficients(env, getattr(PolarizationWeights, preset)()).gamma_eff
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
