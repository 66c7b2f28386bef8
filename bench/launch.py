"""Run one command as the only child of a fresh, small process and measure it.

Usage::

    python3 bench/launch.py STDOUT_FILE STDERR_FILE -- COMMAND [ARGS...]

Prints one JSON object: the command's wall time, the user+sys CPU time and
the peak RSS of its process tree, and its exit code.  ``os.wait4`` covers
the child plus every descendant it waited for (a sweep's pool workers).

A fresh parent is needed because a child's peak RSS starts from the size
of the process that spawned it: on Linux, exec records the outgoing
address space's high-water mark, which under vfork is the parent's.  The
benchmark's own process grows as it checks artifacts, so it never spawns
a measured command itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, err_path, command = argv[0], argv[1], argv[3:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(
        json.dumps(
            {
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024,  # Linux reports KiB
                "returncode": proc.returncode,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
