"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload sweep --seeds 1 2 3 4 5 6 7 8 9 10

Runs bench/run.py once per seed (one after another, never in parallel) with
the run length from BENCHMARK.json, and prints for each end-to-end metric
the median, the quartiles from ``statistics.quantiles(values, n=4)`` and
the spread (q3 - q1) / median next to the metric's bound.  A spread above
the bound means the metric cannot resolve a change of that size; the
benchmark aims for spreads below a third of the bound.  The summary is
written to .bench_out/spread-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=180)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output\n{done.stdout}", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)
    summary = {"workload": args.workload, "seeds": args.seeds, "metrics": {}}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        q1, median, q3 = statistics.quantiles(values[name], n=4)
        entry = {"values": values[name], "median": median, "q1": q1, "q3": q3,
                 "spread": (q3 - q1) / median, "bound": bound}
        summary["metrics"][name] = entry
        print(f"{name:12s} median {median:.5g}  spread {entry['spread']:.3f}  bound {bound}")
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", f"spread-{args.workload}.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
