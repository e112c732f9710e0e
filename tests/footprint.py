"""What one command of the CLI loads in a fresh interpreter, and the peak memory of its process.

``ledger(argv)`` runs ``python -m coherence_bath.cli *argv`` (with no argv,
``import coherence_bath.cli`` alone) in a fresh interpreter and reports what
it loaded; ``LEDGER`` in tests/test_package.py holds one row of expectations
per command.  ``peak(argv, runs)`` reads the peak resident set size of the
CLI process with ``os.wait4``, and ``compare_peaks`` checks one command's
peak against another's; the peak-RSS steps of .github/workflows/tests.yml
call them with ``PYTHONPATH=src:tests``.  Every test that starts a fresh
interpreter takes its argv and environment from here.  The module uses the
standard library only and is not collected as a test module.
"""

import ast
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
CLI = [sys.executable, "-m", "coherence_bath.cli"]

# Runs in the fresh interpreter.  The hook records, for each module of the
# package, whether numpy was already loaded when the source loader fetched
# its code (get_code runs whether the bytecode is cached or compiled from
# source), and the BLAS thread setting when numpy's own code was fetched.
# The command then runs as ``python -m`` runs it, and the report is the
# last line of output, printed after sys.modules is read.
PROBE = """
import importlib.machinery, os, runpy, sys
fetched, blas = [], []
get_code = importlib.machinery.SourceFileLoader.get_code
def recorded(self, fullname):
    if fullname == "numpy":
        blas.append(os.environ.get("OPENBLAS_NUM_THREADS"))
    if fullname.split(".")[0] == "coherence_bath":
        fetched.append((fullname, "numpy" in sys.modules))
    return get_code(self, fullname)
importlib.machinery.SourceFileLoader.get_code = recorded
import coherence_bath
numpy_at_import, code = "numpy" in sys.modules, 0
if sys.argv[1:]:
    try:
        runpy.run_module("coherence_bath.cli", run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        code = stop.code
else:
    import coherence_bath.cli
modules = sorted(sys.modules)
print(repr({"exit": code, "numpy_at_import": numpy_at_import, "blas": blas, "fetched": fetched, "modules": modules}))
"""


def environment():
    """This process's environment with the package's source on the path."""
    return {**os.environ, "PYTHONPATH": SRC}


def ledger(argv, **changes):
    """What a fresh interpreter loads that runs ``argv`` as ``python -m coherence_bath.cli`` does.

    It runs without OPENBLAS_NUM_THREADS unless ``changes`` sets it.  The
    report's keys: ``exit``, the command's exit code; ``numpy_at_import``,
    whether numpy was loaded after ``import coherence_bath`` alone;
    ``blas``, the OPENBLAS_NUM_THREADS value when numpy's code was fetched;
    ``fetched``, each package module with whether numpy was loaded before
    it; and ``modules``, the names in ``sys.modules`` after the command.
    """
    env = environment()
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(changes)
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


def peak(argv, runs, program=CLI):
    """The largest exit code and the median peak RSS in MB (ru_maxrss / 1024) of ``runs`` runs of
    ``*program, *argv``, by default ``python -m coherence_bath.cli *argv``; os.wait4 reads each
    child on its own.  The exit code is the largest in magnitude, so a run killed by a signal (a
    negative code) is not hidden by one that exits 0.  One run's peak varies by up to 0.3 MB, so a
    bound that fine needs the median of several."""
    codes, peaks = [], []
    for _ in range(runs):
        child = subprocess.Popen([*program, *argv], env=environment(), stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        codes.append(child.returncode)
        peaks.append(usage.ru_maxrss / 1024)
    return max(codes, key=abs), statistics.median(peaks)


def compare_peaks(rows):
    """Check each row (label, command, baseline, bound in MB, runs): both commands, words split on
    spaces and output to the null device, exit 0, and the command peaks at most the bound above the
    baseline.  A command given as a tuple is the arguments of ``python`` itself, such as
    ``("-c", "import numpy")``.  A command that several rows name is measured once.  Prints each
    gap; returns the labels of the rows that fail and the (exit code, peak) of each command, by
    (command, runs)."""
    peaks, failed = {}, []
    for label, command, baseline, bound, runs in rows:
        for argv in (command, baseline):
            if (argv, runs) not in peaks:
                peaks[argv, runs] = (peak(argv, runs, [sys.executable]) if isinstance(argv, tuple)
                                     else peak([*argv.split(), "--out", os.devnull], runs))
        (code, peak_mb), (base_code, base_mb) = peaks[command, runs], peaks[baseline, runs]
        print(f"{label}: {command} peaks {peak_mb - base_mb:+.2f} MB above {baseline} "
              f"({peak_mb:.2f} against {base_mb:.2f} MB; exit {code} and {base_code}; bound {bound} MB)")
        if code != 0 or base_code != 0 or peak_mb > base_mb + bound:
            failed.append(label)
    return failed, peaks
