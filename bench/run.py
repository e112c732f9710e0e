"""Benchmark of the coherence-bath CLI, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep|surface|oracle --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-digests      # re-record bench/digests.json

With ``--trace 0`` every command of a workload pass runs as a fresh
``python -m coherence_bath.cli`` process, one at a time (a single
closed-loop client), so interpreter start-up and the numpy import count as
they do for a user.  Passes repeat until ``--seconds`` have been measured and
each end-to-end metric is the median over passes:

    wall_s       wall time of a pass, spawn to reap, summed over its commands
    cpu_s        user + sys time of the pass's child processes
    rows_per_s   output rows / wall_s; an oracle row is one validate case or
                 one freeze report
    cases_per_s  checked cases / wall_s; a sweep or surface case is one
                 command, an oracle case is one validate case or freeze report
    setup_s      fresh interpreter to `import coherence_bath` plus
                 `cli.build_parser()`, median of one start-up per pass
    max_rss_mb   largest peak RSS among the pass's commands

Commands that exit non-zero or fail the output check are counted in
``failed`` (and printed as ``failed_frac``); they are not a metric because
their share is zero on a correct program.

With ``--trace 1`` the same commands run in this process through
``cli.main(argv)``, alternating untraced passes and passes with the span
wrappers of spans.py installed, and the per-layer metrics are medians over
the traced passes.  ``trace.overhead_frac`` is traced over untraced wall,
minus one; ``trace.span_cost_s`` is the calibrated cost of one wrapper,
which spans.py takes out of the self and inclusive times.  ``setup.*``
come from ``python -X importtime``.  The spans of
the last traced pass are written to .bench_out/spans-<workload>.npz.

Every output is checked (check.py), every pass must reproduce the bytes of
the first, and for the default seed every output's sha256 must match
bench/digests.json.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; a record with run
metadata and each metric's median and quartiles goes to
.bench_out/records/.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import numpy as np

import check
import spans
import workloads

DEFAULT_SEED = 1
COMMAND_TIMEOUT_S = 60.0
OUT_ROOT = ".bench_out"
HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
LAUNCHER = os.path.join(HERE, "launcher.py")
SETUP_CODE = (
    "import coherence_bath, coherence_bath.cli as cli; cli.build_parser(); "
    "print(coherence_bath.__file__)"
)
class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, or the wrong one)."""


def _stats(values):
    if len(values) < 2 or len(set(values)) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(SPEC, encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in declared}


def _clear_outputs(cmd):
    for path in (cmd["out"], cmd["stdout"]):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def _read(path):
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


class Launcher:
    """Runs commands through launcher.py, one at a time; use as a context manager."""

    def __init__(self, src):
        self.env = dict(os.environ, PYTHONPATH=src)
        self.proc = subprocess.Popen(
            [sys.executable, LAUNCHER], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, argv, stdout, stderr):
        request = {"argv": argv, "env": self.env, "stdout": stdout, "stderr": stderr, "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise BenchmarkError("the launcher exited")
        return json.loads(answer)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _check_import_path(printed, src):
    path = os.path.realpath(printed.strip())
    if not path.startswith(os.path.realpath(src) + os.sep):
        raise BenchmarkError(f"coherence_bath was imported from {path}, not from {src}")


def measure_setup(launcher, src, importtime=False):
    """One fresh-interpreter start-up: wall s, or (numpy s, package s) with importtime."""
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", SETUP_CODE]
    stdout, stderr = os.path.join(OUT_ROOT, "setup.stdout"), os.path.join(OUT_ROOT, "setup.stderr")
    done = launcher.run(argv, stdout, stderr)
    if done["exit"] != 0:
        raise BenchmarkError(f"importing coherence_bath failed:\n{_read(stderr).decode()}")
    _check_import_path(_read(stdout).decode(), src)
    if not importtime:
        return done["wall_s"]
    cumulative = {}
    for line in _read(stderr).decode().splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:") and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    numpy_s = cumulative["numpy"]
    return numpy_s, cumulative["coherence_bath"] + cumulative["coherence_bath.cli"] - numpy_s


def run_command(launcher, cmd):
    """Run one command as a fresh CLI process."""
    _clear_outputs(cmd)
    argv = [sys.executable, "-m", "coherence_bath.cli", *cmd["argv"]]
    return launcher.run(argv, cmd["stdout"], cmd["stderr"])


def run_in_process(cli, cmd, recorder=None, root_nid=None):
    """Run one command through cli.main in this process, optionally as a root span."""
    _clear_outputs(cmd)
    with open(cmd["stdout"], "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        start = time.perf_counter()
        if recorder is not None:
            recorder.current_command = cmd["id"]
            index = recorder.open(root_nid)
        try:
            code = cli.main(list(cmd["argv"]))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed command, not a failed benchmark
            print(f"command {cmd['id']} raised {exc!r}", file=sys.stderr)
            code = 1
        finally:
            if recorder is not None:
                recorder.close(index)
        wall = time.perf_counter() - start
    return {"exit": code, "wall_s": wall}


def _collect_outputs(commands, results):
    """Attach output digests and sizes to each command result."""
    for cmd, result in zip(commands, results):
        out_bytes, stdout_bytes = _read(cmd["out"]), _read(cmd["stdout"])
        result["out_sha256"], result["stdout_sha256"] = (
            None if data is None else hashlib.sha256(data).hexdigest() for data in (out_bytes, stdout_bytes)
        )
        result["bytes"] = len(out_bytes or b"") + len(stdout_bytes or b"")
    return results


class Verifier:
    """Checks the first pass in full, then holds every later pass to its bytes."""

    def __init__(self, workload, seed, commands):
        self.workload, self.seed, self.commands = workload, seed, commands
        self.reference = None
        self.problems = {}
        self.attempted = 0
        self.failed = 0

    def first_pass(self, results):
        recorded = None
        if self.seed == DEFAULT_SEED:
            with open(DIGESTS, encoding="utf-8") as handle:
                recorded = json.load(handle)["workloads"].get(self.workload)
        for cmd, result in zip(self.commands, results):
            problem = check_output(self.workload, self.seed, cmd, result["exit"])
            digests = {"out": result["out_sha256"], "stdout": result["stdout_sha256"]}
            if problem is None and recorded is not None and recorded.get(str(cmd["id"])) != digests:
                problem = f"sha256 {digests} differs from the recorded {recorded.get(str(cmd['id']))}"
            if problem is not None:
                self.problems[cmd["id"]] = problem
        self.reference = [(r["out_sha256"], r["stdout_sha256"]) for r in results]
        self.attempted += len(results)
        self.failed += len(self.problems)

    def later_pass(self, results):
        for cmd, result in zip(self.commands, results):
            same = (result["out_sha256"], result["stdout_sha256"]) == self.reference[cmd["id"]]
            if cmd["id"] in self.problems or result["exit"] != 0 or not same:
                self.problems.setdefault(cmd["id"], f"pass output differs from the first pass (exit {result['exit']})")
                self.failed += 1
        self.attempted += len(results)


def check_output(workload, seed, cmd, exit_code):
    """check.check_command on the files a command wrote, with seeded row samples."""
    rng = random.Random(f"check:{workload}:{seed}:{cmd['id']}")
    return check.check_command(cmd, exit_code, _read(cmd["out"]) or b"", _read(cmd["stdout"]) or b"", rng)


def _end_to_end(workload, commands, results):
    wall = sum(r["wall_s"] for r in results)
    rows = sum(cmd["rows"] for cmd in commands)
    cases = rows if workload == "oracle" else len(commands)
    return {
        "wall_s": wall,
        "cpu_s": sum(r["cpu_s"] for r in results),
        "rows_per_s": rows / wall,
        "cases_per_s": cases / wall,
        "max_rss_mb": max(r["rss_mb"] for r in results),
        "command_wall_s": [r["wall_s"] for r in results],
    }


def run_untraced(workload, commands, seconds, src, launcher, verifier):
    verifier.first_pass(_collect_outputs(commands, [run_command(launcher, c) for c in commands]))
    passes, setups = [], []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        # One start-up per pass spreads the set-up samples over the run.
        setups.append(measure_setup(launcher, src))
        results = _collect_outputs(commands, [run_command(launcher, c) for c in commands])
        verifier.later_pass(results)
        passes.append(_end_to_end(workload, commands, results))
    samples = {name: [p[name] for p in passes] for name in passes[0]}
    samples["setup_s"] = setups
    return samples, passes


def _import_package(src):
    sys.path.insert(0, src)
    import coherence_bath.cli as cli

    _check_import_path(sys.modules["coherence_bath"].__file__, src)
    return cli


def run_traced(commands, seconds, src, launcher, verifier, spans_path):
    cli = _import_package(src)
    verifier.first_pass(_collect_outputs(commands, [run_in_process(cli, c) for c in commands]))
    recorder = spans.SpanRecorder()
    recorder.calibrate()
    root_nid = recorder.name_index(spans.ROOT_SPAN)
    untraced_walls, traced, importtimes = [], [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        importtimes.append(measure_setup(launcher, src, importtime=True))
        results = _collect_outputs(commands, [run_in_process(cli, c) for c in commands])
        verifier.later_pass(results)
        untraced_walls.append(sum(r["wall_s"] for r in results))

        recorder.begin_pass()
        undo = spans.install(recorder)
        try:
            results = [run_in_process(cli, c, recorder, root_nid) for c in commands]
        finally:
            spans.uninstall(undo)
        results = _collect_outputs(commands, results)
        verifier.later_pass(results)
        metrics = recorder.layer_metrics()
        metrics["cli.bytes_out"] = sum(r["bytes"] for r in results)
        metrics["trace.wall_s"] = sum(r["wall_s"] for r in results)
        traced.append(metrics)
    recorder.save(spans_path)
    samples = {name: [p[name] for p in traced] for name in traced[0]}
    samples["setup.numpy_import_s"] = [n for n, _ in importtimes]
    samples["setup.package_import_s"] = [p for _, p in importtimes]
    overhead = statistics.median(samples["trace.wall_s"]) / statistics.median(untraced_walls) - 1.0
    samples["trace.overhead_frac"] = [overhead]
    unsteady = [name for name in spans.EXACT_COUNTS if len(set(samples[name])) > 1]
    return samples, {"traced_passes": traced, "untraced_walls": untraced_walls, "unsteady_counts": unsteady}


def _git_commit(root):
    """HEAD of the checkout if it is a git work tree, read without leaving it."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run(workload, seed, seconds, trace, root, scale=1.0):
    """Run one benchmark invocation; returns (result line dict, record dict)."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "coherence_bath", "cli.py")):
        raise BenchmarkError(f"no coherence_bath package under {src}")
    out_dir = os.path.join(OUT_ROOT, workload)
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(os.path.join(OUT_ROOT, "records"), exist_ok=True)
    commands = workloads.generate(workload, seed, out_dir, scale)
    verifier = Verifier(workload, seed, commands)
    load_before = os.getloadavg()
    with Launcher(src) as launcher:
        if trace:
            spans_path = os.path.join(OUT_ROOT, f"spans-{workload}.npz")
            samples, detail = run_traced(commands, seconds, src, launcher, verifier, spans_path)
        else:
            samples, passes = run_untraced(workload, commands, seconds, src, launcher, verifier)
            detail = {"passes": passes}
    units = declared_units(trace)
    stats = {name: dict(_stats(samples[name]), unit=units[name]) for name in units}
    result = {
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "metadata": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "git_commit": _git_commit(root),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
        },
        "result": result,
        "failed_frac": verifier.failed / verifier.attempted,
        "problems": {str(k): v for k, v in verifier.problems.items()},
        "exact_counts": list(spans.EXACT_COUNTS) if trace else [],
        "stats": stats,
        "commands": [cmd["argv"] for cmd in commands],
        **detail,
    }
    path = os.path.join(OUT_ROOT, "records", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return result, record


def write_digests(root):
    """Record the default-seed output digests of every workload."""
    recorded = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in workloads.WORKLOADS:
        out_dir = os.path.join(OUT_ROOT, workload)
        os.makedirs(out_dir, exist_ok=True)
        commands = workloads.generate(workload, DEFAULT_SEED, out_dir)
        with Launcher(os.path.join(root, "src")) as launcher:
            results = _collect_outputs(commands, [run_command(launcher, c) for c in commands])
        entries = {}
        for cmd, result in zip(commands, results):
            problem = check_output(workload, DEFAULT_SEED, cmd, result["exit"])
            if problem is not None:
                raise BenchmarkError(f"{workload} command {cmd['id']} fails its check: {problem}")
            entries[str(cmd["id"])] = {"out": result["out_sha256"], "stdout": result["stdout_sha256"]}
        recorded["workloads"][workload] = entries
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _print_summary(result, record):
    print(f"# {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{result['attempted']} commands, {result['failed']} failed, "
          f"failed_frac = {record['failed_frac']:.4g}")
    for name, stat in record["stats"].items():
        exact = " (exact)" if name in record["exact_counts"] else ""
        print(f"#   {name} = {stat['median']:.6g} {stat['unit']}{exact}  "
              f"[q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}, n {stat['n']}]")
    for command_id, problem in record["problems"].items():
        print(f"#   command {command_id} FAILED: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="re-record bench/digests.json from the default seed")
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        if args.write_digests:
            write_digests(root)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result, record = run(args.workload, args.seed, args.seconds, args.trace, root)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_summary(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
