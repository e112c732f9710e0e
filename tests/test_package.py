import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coherence_bath
import footprint

SRC = os.path.dirname(os.path.dirname(os.path.abspath(coherence_bath.__file__)))


def test_every_export_resolves():
    assert coherence_bath.__all__ == sorted(set(coherence_bath.__all__))
    for name in coherence_bath.__all__:
        value = getattr(coherence_bath, name)
        assert getattr(sys.modules[value.__module__], name) is value


def test_dir_lists_every_export():
    assert set(coherence_bath.__all__) <= set(dir(coherence_bath))


def test_star_import():
    namespace = {}
    exec("from coherence_bath import *", namespace)
    assert set(coherence_bath.__all__) <= set(namespace)
    assert namespace["validate_all"] is coherence_bath.lindblad.validate_all


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        coherence_bath.nope


def test_every_coherence_kernel_takes_a_state_and_the_damping():
    # qmath's c_l1/c_re take a density matrix; the dynamics modules' kernels
    # take the initial state and q', and each caller maps q to q' itself.
    kernels = {
        name: getattr(coherence_bath, name)
        for name in coherence_bath.__all__
        if name.startswith("c_")
        and getattr(coherence_bath, name).__module__ in ("coherence_bath.single_qubit", "coherence_bath.two_qubit")
    }
    assert kernels
    for name, kernel in kernels.items():
        parameters = list(inspect.signature(kernel).parameters)
        assert len(parameters) == 2 and parameters[1:] == ["q_prime"], f"{name}{parameters}"


# One row per command: what a fresh interpreter that runs it must load and
# must not load besides NEVER, and the environment it runs in.  The CLI reads
# its flags and writes its JSON itself, so no command loads argparse (with
# gettext, about 0.4 MB of peak) or json; only --config needs configparser;
# fractions and dataclasses are unused (the value types are named tuples and
# plain classes); validate draws its cases from a pure-Python PCG64, so
# nothing loads numpy.random or OpenSSL.
NEVER = ("_hashlib", "argparse", "configparser", "dataclasses", "fractions", "gettext", "json", "numpy.random",
         "secrets")
LEDGER = {
    # id: (command, environment, loads, skips); an empty command imports coherence_bath.cli alone.
    "import": ("", {}, (), ()),
    "import-blas-4": ("", {"OPENBLAS_NUM_THREADS": "4"}, (), ()),
    "single": ("single --q-count 11", {}, (), ()),
    "two": ("two --c1 0.3 --c2 -0.4 --c3 0.2 --q-count 11", {}, (), ()),
    "surface": ("surface --measure re --q-count 11 --u-count 3", {}, (), ()),
    "single-json": ("single --q-count 11 --format json", {}, (), ()),
    "freeze-single": ("freeze --mode single", {}, (), ()),
    "freeze-two": ("freeze --mode two --c1 0.3 --c2 0.2 --c3 0.1", {}, (), ()),
    "validate": ("validate --cases 3", {}, (), ()),
}


@pytest.mark.parametrize("command, env, loads, skips", LEDGER.values(), ids=list(LEDGER))
def test_a_command_loads_what_its_ledger_row_says(command, env, loads, skips):
    argv = command.split()
    report = footprint.ledger([*argv, "--out", os.devnull] if argv else [], **env)
    assert report["exit"] == 0
    # The package alone imports no numpy, and the CLI sets BLAS to one thread
    # before numpy loads, unless the user set it.
    assert not report["numpy_at_import"]
    assert report["blas"] == [env.get("OPENBLAS_NUM_THREADS", "1")]
    # A module compiled after numpy stacks the compiler's scratch memory on
    # numpy's and raises the process's peak.
    assert sorted(name for name, _ in report["fetched"]) == sorted(
        ["coherence_bath", *(f"coherence_bath.{module}" for module in LAYERS)])
    assert [name for name, after_numpy in report["fetched"] if after_numpy] == []
    modules = set(report["modules"])
    assert sorted(set(loads) - modules) == []
    assert sorted(modules & {*NEVER, *skips}) == []


def test_validate_calls_no_lapack(monkeypatch, tmp_path, capsys):
    """validate decides positivity by elimination; LAPACK's eigen-solvers serve
    only c_re, von_neumann_entropy and the messages of the raise paths."""
    import numpy as np

    from coherence_bath import cli
    from coherence_bath.lindblad import validate_all

    def run(out):
        report = validate_all(1, 50)
        assert cli.main(["validate", "--seed", "1", "--cases", "50", "--out", str(out)]) == 0
        return report, out.read_bytes(), capsys.readouterr().out

    expected = run(tmp_path / "lapack.txt")

    def no_lapack(*args, **kwargs):
        raise AssertionError("validate called LAPACK")

    for name in ("eigvalsh", "eigh", "eigvals", "cholesky"):
        monkeypatch.setattr(np.linalg, name, no_lapack)
    assert run(tmp_path / "elimination.txt") == expected


def _bench_constant(script: str, name: str):
    """The literal value that ``name`` is assigned at the top of ``bench/<script>``, read without running it."""
    tree = ast.parse((Path(SRC).parent / "bench" / script).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"bench/{script} assigns no {name}")


def test_layout_that_the_benchmark_harness_reads():
    """What ``bench/run.py`` and ``bench/spans.py`` read of the package layout.

    Tier-1 does not collect ``bench/``, and the benchmark runs untraced, so
    without this test a change could break ``bench/run.py --trace 1`` and no
    check would fail.  A benchmark change that moves these couplings updates
    this test together with the harness.
    """
    # run.py times its set-up code under -X importtime and reads these three rows.
    env = {**os.environ, "PYTHONPATH": SRC}
    argv = [sys.executable, "-X", "importtime", "-c", _bench_constant("run.py", "SETUP_CODE")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == coherence_bath.__file__
    imported = set()
    for line in done.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:") and parts[1].strip().isdigit():
            imported.add(parts[2].strip())
    assert {"numpy", "coherence_bath", "coherence_bath.cli"} <= imported
    # spans.install takes each wrapped module from sys.modules after the CLI import.
    wrapped = _bench_constant("spans.py", "WRAPPED_MODULES")
    assert {f"coherence_bath.{short}" for short in wrapped} <= imported
    # The names spans.py wraps or hooks, with the parameters its hooks read.
    modules = {short: importlib.import_module(f"coherence_bath.{short}") for short in wrapped}
    assert inspect.isfunction(modules["single_qubit"].CoherenceTrace.__init__)
    for short, name in [
        ("boundary", "suppression_factor"),
        ("qmath", "entropy_bits"),
        ("single_qubit", "freezing_report"),
        ("two_qubit", "freezing_report_bd"),
        ("lindblad", "liouvillian_matrix"),
        ("lindblad", "integrate"),
    ]:
        fn = getattr(modules[short], name)
        assert inspect.isfunction(fn) and fn.__module__ == modules[short].__name__, (short, name)
    assert list(inspect.signature(modules["boundary"].suppression_factor).parameters) == ["geometry", "polarization"]
    # spans._rk4_hook binds a positional call by this order.
    assert list(inspect.signature(modules["lindblad"].integrate).parameters) == ["rho0", "spec", "tau", "cfg"]


def test_validate_reaches_the_rk4_oracle_through_the_names_the_harness_wraps(monkeypatch):
    # spans.py counts integrate calls, RK4 steps and Liouvillian time by
    # replacing the module-level names; a path around them reads 0.
    from coherence_bath import lindblad

    calls = {"integrate": 0, "liouvillian_matrix": 0}
    for name in calls:
        original = getattr(lindblad, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(lindblad, name, counted)
    lindblad.validate_all(1, 40)
    assert calls == {"integrate": 40, "liouvillian_matrix": 40}


# Each module imports only from modules to its left; __init__ loads them by name.
LAYERS = ("qmath", "boundary", "single_qubit", "two_qubit", "lindblad", "cli")


def test_modules_import_only_from_the_layers_below():
    package = Path(coherence_bath.__file__).parent
    assert sorted(LAYERS) == sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    for rank, module in enumerate(LAYERS):
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
        assert imported <= set(LAYERS[:rank]), (module, sorted(imported - set(LAYERS[:rank]), key=str))


def _unread_imports(source: str) -> list[str]:
    """Names that an ``import`` or ``from ... import`` in ``source`` binds and no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound.append(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(set(bound) - read)


def test_unread_imports_are_found():
    assert _unread_imports("import os, sys as system\nfrom typing import NamedTuple\nsystem.exit()\n") == [
        "NamedTuple",
        "os",
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in Path(coherence_bath.__file__).parent.glob("*.py")))
def test_every_import_is_read(module):
    source = (Path(coherence_bath.__file__).parent / module).read_text(encoding="utf-8")
    assert _unread_imports(source) == []
