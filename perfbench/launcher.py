"""Launch and measure the benchmark's processes from a small, steady process.

    python3 perfbench/launcher.py

Reads one JSON request per line on stdin and answers each with one JSON
line on stdout.  A request is ``{"argv", "stdout", "stderr", "hold_every",
"timeout"}``; the answer is ``{"wall_s", "cpu_s", "rss_mb", "exit_code",
"ref_s"}``, or ``{"timeout": true}`` when the process had to be killed.

Linux gives a child the peak RSS of the process that spawned it as a floor
for its own ``ru_maxrss``; the benchmark process grows while it checks
large outputs, so the children are spawned from here instead, where memory
stays at a bare interpreter's.
"""

from __future__ import annotations

import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes right now, best of two.

    The first run refills the caches the program just used, so the best
    run measures the host rather than the program.  The loop is part of the
    benchmark, not of the program, so no change to the program moves it.
    """
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(30_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        best = min(best, time.perf_counter() - start)
    return best


def launch(argv: list[str], stdout: str, stderr: str, hold_every: float | None, timeout: float) -> dict:
    """Run one process to completion and measure it.

    The reference loop runs before and after the command, and every
    ``hold_every`` seconds while the command is held with SIGSTOP: this
    host's two cores slow each other down, so the loop must never run
    beside the program.  Wall time spans spawn to reap, less the time the
    command was held.
    """
    refs = [reference_loop()]
    held = 0.0
    deadline = time.monotonic() + timeout
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        exited = os.pidfd_open(proc.pid)
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    proc.kill()
                    proc.wait()
                    return {"timeout": True}
                if select.select([exited], [], [], min(hold_every or remaining, remaining))[0]:
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                if hold_every is None:
                    continue
                hold = time.perf_counter()
                os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):
                    break  # it exited before the signal landed
                refs.append(reference_loop())
                os.kill(proc.pid, signal.SIGCONT)
                held += time.perf_counter() - hold
        finally:
            os.close(exited)
        wall = time.perf_counter() - start - held
    proc.returncode = os.waitstatus_to_exitcode(status)
    refs.append(reference_loop())
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "exit_code": proc.returncode,
        "ref_s": statistics.fmean(refs),
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(launch(**json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
