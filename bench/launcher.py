"""Child-process launcher: the benchmark's single closed-loop client.

Reads one JSON request per line on stdin ({"argv", "env", "stdout",
"stderr", "timeout"}), runs it to completion and answers with one JSON line
{"exit", "wall_s", "cpu_s", "rss_mb"} measured with wait4 on that child.

Children are started from this small process rather than from run.py on
purpose: on Linux a child's ru_maxrss starts from the peak RSS of the
process that forked it, so spawning from run.py (which holds numpy, mpmath
and parsed outputs) would report run.py's memory as the program's.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run_one(request):
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, env=request["env"])
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def main():
    for line in sys.stdin:
        print(json.dumps(run_one(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
