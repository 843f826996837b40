"""Run one command and record its wall time and resource usage.

Usage: python3 bench/launch.py USAGE_JSON TIMEOUT_S ARGV...

Linux counts the resident set a process had when it forked into its
child's ``ru_maxrss``, so a child spawned straight from the benchmark
process (numpy, the program's modules, the generated inputs, the
calibration kernel's arrays) would report the benchmark's memory instead
of its own whenever its own is smaller. ``run.py`` therefore starts each
child from this small process, which imports nothing but the standard
library. It writes the child's exit code, wall time from spawn to exit,
user + system CPU time and peak resident set to USAGE_JSON, and exits
with the child's exit code. A child still running after TIMEOUT_S
seconds is killed, and reaped here like any other.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def main(argv: list[str]) -> int:
    usage_path, timeout, command = argv[0], float(argv[1]), argv[2:]
    start = perf_counter()
    proc = subprocess.Popen(command, stdin=subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = perf_counter() - start
    proc.returncode = exit_code = os.waitstatus_to_exitcode(status)
    with open(usage_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": exit_code, "wall_s": wall,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "peak_rss_mb": usage.ru_maxrss / 1024.0}, fh)
    return exit_code if exit_code >= 0 else 128 - exit_code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
