"""Run one command and report its own wall time, peak memory and exit code.

    python -S perfbench/launch.py REPORT ARGV...

On Linux a new process's ``ru_maxrss`` starts at the resident size of the
process that forked it: the kernel carries the old address space's high
water mark across ``exec``. A child of the benchmark client would so
report at least the client's own size, which is larger than a small op's.
run.py therefore starts every child through this small interpreter (no
``site``), whose own size lies below any Python op's, and takes the figures
from the JSON object written to REPORT. The command inherits this process's
standard streams, environment and working directory.
"""

import json
import os
import sys
import time


def main(report: str, argv: list[str]) -> int:
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(report, "w", encoding="utf-8") as out:
        # ru_maxrss is in KiB on Linux.
        json.dump({"wall_s": wall, "maxrss_kib": usage.ru_maxrss,
                   "exit": os.waitstatus_to_exitcode(status)}, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
