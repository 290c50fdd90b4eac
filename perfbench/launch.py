"""Run one command and report its wall time, peak memory and exit status.

    python3 -S perfbench/launch.py REPORT.json PROGRAM [ARGS...]

The benchmark starts every request through this small process rather than
directly.  Linux carries a process's peak resident size across exec, so a
request started straight from the benchmark process would report at least
the benchmark's own size; started from here it reports its own.
"""

import json
import os
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    with open(report, "w", encoding="utf-8") as handle:
        json.dump({"seconds": seconds, "maxrss_kb": usage.ru_maxrss,
                   "returncode": os.waitstatus_to_exitcode(status)}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
