"""Run commands for the benchmark and report each one's wall time, CPU time and peak RSS.

Reads one JSON request per line on standard input,
`{"cmd": [...], "cwd": ..., "env": {...}, "log": ..., "timeout": seconds}`,
and answers each with one JSON line `{"code", "wall", "cpu", "rss_mb"}`.

It exists as its own small process because Linux carries a parent's peak
RSS into every child it forks: a child's `ru_maxrss` is never below the
forking process's high-water mark. Started before the benchmark loads its
inputs, this process stays small, so the peak RSS it reports is the
command's own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "w", encoding="utf-8") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                req["cmd"], cwd=req["cwd"], env=req["env"], stdout=log, stderr=subprocess.STDOUT
            )
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "code": proc.returncode,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
