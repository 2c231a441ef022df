"""The processes of one benchmark run, found by a variable in their
environment: ``run.py`` sets it for its child, and every process the
child starts (the core probe, Ray's daemons and workers) inherits it.
"""

from __future__ import annotations

import os
import signal
import time

RUN_VAR = "PERFBENCH_RUN"


def run_pids(run_id: str) -> list[int]:
    """Live processes, other than the caller, of run ``run_id``."""
    token = f"{RUN_VAR}={run_id}".encode()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as f:
                env = f.read()
            with open(f"/proc/{entry}/stat", "rb") as f:
                state = f.read().rsplit(b")", 1)[1].split()[0]
        except OSError:
            continue
        if token in env.split(b"\0") and state not in (b"Z", b"X"):
            pids.append(int(entry))
    return pids


def stop_run(run_id: str, wait_s: float = 20.0) -> None:
    """Kill every process of run ``run_id`` and wait until all have ended."""
    deadline = time.monotonic() + wait_s
    while True:
        pids = run_pids(run_id)
        if not pids:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {pids} did not stop")
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.2)


def pin_run(run_id: str, cpu: int) -> None:
    """Pin every thread of the caller and of every other process of run
    ``run_id`` to ``cpu``; processes they start later inherit it. Sweeps
    until one finds nothing to pin, so that a process started by a
    thread not yet pinned is caught too."""
    for _ in range(10):
        changed = False
        for pid in [os.getpid(), *run_pids(run_id)]:
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for tid in tids:
                try:
                    if os.sched_getaffinity(int(tid)) != {cpu}:
                        os.sched_setaffinity(int(tid), {cpu})
                        changed = True
                except OSError:
                    pass  # the thread ended
        if not changed:
            return


def unpinned(run_id: str, cpu: int) -> int:
    """Processes of run ``run_id`` (the caller too) with a thread that may
    run on another CPU than ``cpu``."""
    count = 0
    for pid in [os.getpid(), *run_pids(run_id)]:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
            count += any(os.sched_getaffinity(int(tid)) != {cpu} for tid in tids)
        except OSError:
            pass  # it ended
    return count
