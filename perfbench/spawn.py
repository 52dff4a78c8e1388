"""Run one command; write its wall time, exit code and peak resident set.

    python -I -S spawn.py REPORT.json COMMAND [ARGS...]

Linux carries a parent's resident set at fork into the child's ru_maxrss, so
a command started straight from the benchmark process would report at least
the benchmark's own memory. This launcher is a bare interpreter of a few MB;
the command is spawned from it and reaped with wait4, which gives the
command's own peak. The time is taken here, around the spawn and the wait.
SIGTERM kills the command and still reaps it.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    signal.signal(signal.SIGTERM, lambda *_: os.kill(pid, signal.SIGKILL))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "returncode": os.waitstatus_to_exitcode(status),
                   "maxrss_kb": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
