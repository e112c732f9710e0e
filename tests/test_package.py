import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coherence_bath

SRC = os.path.dirname(os.path.dirname(os.path.abspath(coherence_bath.__file__)))

# Imports the package alone, then the CLI module; prints whether numpy was
# loaded before the CLI, the BLAS thread setting numpy then saw, and whether
# configparser (only --config needs it), fractions and dataclasses (unused)
# were loaded.
PROBE = (
    "import os, sys, coherence_bath; before = 'numpy' in sys.modules; "
    "import coherence_bath.cli; print(before, os.environ.get('OPENBLAS_NUM_THREADS'), "
    "'configparser' in sys.modules, 'fractions' in sys.modules, 'dataclasses' in sys.modules)"
)


def _probe(**env_changes):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_changes, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.split()


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


def test_cli_defaults_blas_to_one_thread_before_numpy_loads():
    before, threads = _probe()[:2]
    assert (before, threads) == ("False", "1")


def test_cli_keeps_the_users_blas_threads():
    assert _probe(OPENBLAS_NUM_THREADS="4")[1] == "4"


def test_cli_import_skips_configparser_and_fractions():
    assert _probe()[2:4] == ["False", "False"]


def test_no_command_loads_dataclasses():
    # The value types are named tuples and plain classes; the module and its
    # decorations would only add start-up time and memory to every command.
    assert _probe()[4] == "False"
    probe = (
        "import contextlib, io, sys; from coherence_bath import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['freeze', '--mode', 'two', '--c1', '0.3', '--c2', '0.2', '--c3', '0.1']),\n"
        "             cli.main(['single', '--q-count', '11'])]\n"
        "print(*codes, 'dataclasses' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["0", "0", "False"]


def test_validate_loads_neither_numpy_random_nor_openssl():
    probe = (
        "import contextlib, io, sys; from coherence_bath import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['validate', '--cases', '3'])\n"
        "print(code, *(name in sys.modules for name in ('numpy.random', 'secrets', '_hashlib')))"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["0", "False", "False", "False"]


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
    assert {"tau", "cfg"} <= set(inspect.signature(modules["lindblad"].integrate).parameters)


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
