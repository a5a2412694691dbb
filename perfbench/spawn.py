"""Start one command, wait for it, and record its own resource usage.

Usage: ``python3 -S spawn.py RESULT_FILE LIMIT_S ARG...``

Runs ARG... with this process's stdin, stdout, stderr and environment,
kills it after LIMIT_S seconds, and writes to RESULT_FILE its spawn time
(``time.monotonic()``), wall time, exit code and ``os.wait4`` usage.

The benchmark starts every command through this small process, not from
its own: on Linux a child's ``ru_maxrss`` starts at the high-water RSS of
the process that spawned it, and the benchmark's process holds numpy,
scipy and the generated inputs.  Started with ``-S``, this one stays
near 10 MB.
"""
import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    result_file, limit, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    t0 = time.monotonic()
    proc = subprocess.Popen(argv)
    killer = threading.Timer(limit, proc.kill)
    killer.start()
    _, status, usage = os.wait4(proc.pid, 0)
    t1 = time.monotonic()
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_file, "w") as fh:
        json.dump({
            "spawn": t0,
            "wall_s": t1 - t0,
            "rc": proc.returncode,
            "maxrss_kb": usage.ru_maxrss,
        }, fh)


if __name__ == "__main__":
    main()
