import os
import subprocess
import sys

import pytest

import coherence_bath

SRC = os.path.dirname(os.path.dirname(os.path.abspath(coherence_bath.__file__)))

# Imports the package alone, then the CLI module; prints whether numpy was
# loaded before the CLI, the BLAS thread setting numpy then saw, and whether
# configparser (only --config needs it) and fractions (unused) were loaded.
PROBE = (
    "import os, sys, coherence_bath; before = 'numpy' in sys.modules; "
    "import coherence_bath.cli; print(before, os.environ.get('OPENBLAS_NUM_THREADS'), "
    "'configparser' in sys.modules, 'fractions' in sys.modules)"
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
    before, threads, _, _ = _probe()
    assert (before, threads) == ("False", "1")


def test_cli_keeps_the_users_blas_threads():
    assert _probe(OPENBLAS_NUM_THREADS="4")[1] == "4"


def test_cli_import_skips_configparser_and_fractions():
    assert _probe()[2:] == ["False", "False"]


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
