"""Child process of ``run.py``: times the in-process and Ray runs.

    python3 perfbench/measure.py WORK_DIR SECONDS TRACE SETUPS RAY_TMP

Every timed pass runs on one core, which it shares with the core probe
(``coreprobe.py``, writing WORK_DIR/probe.txt for the whole run). The
in-process passes run on the fastest core at their start, this process
pinned there; the Ray set-ups run on all CPUs (on one core a set-up
takes twice as long, and the run's time is bounded), and then the whole
Ray cluster is pinned to the fastest core at that moment for the warm
run. Passes are recorded as ``time.monotonic()`` windows; ``run.py``
corrects them for the core's speed.

Order: a warm-up on the first rows; in-process passes for SECONDS/2
(peak RSS is read after them); with TRACE=1, traced in-process passes
for SECONDS/2; then the Ray set-ups and the warm Ray run. The
in-process passes all run before ``ray.init``, so that a live
cluster's background work (actor teardown, prestarted workers) does
not compete with them. Writes WORK_DIR/inproc.json and inproc.parquet
before Ray starts, so they survive a Ray wedge, and WORK_DIR/ray.json
plus the Ray output in WORK_DIR/ray_out.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path

import pyarrow.parquet as pq

import coreprobe
import inproc
import procs
import raypath

MIN_INPROC_PASSES = 4
WARMUP_ROWS = 256


def main(argv: list[str]) -> None:
    work, seconds, trace, setups, ray_tmp = argv
    work, seconds = Path(work), float(seconds)
    run_id = os.environ[procs.RUN_VAR]
    all_cpus = os.sched_getaffinity(0)
    # every thread, also those pyarrow started on import
    procs.pin_run(run_id, coreprobe.fastest_cpu(all_cpus))
    probe = coreprobe.start(work / "probe.txt")
    try:
        measure(work, seconds, trace == "1", int(setups), ray_tmp, run_id, all_cpus)
    finally:
        probe.kill()
        probe.wait()


def measure(work: Path, seconds: float, trace: bool, setups: int, ray_tmp: str,
            run_id: str, all_cpus: set[int]) -> None:
    files = sorted(str(p) for p in (work / "pages").iterdir())
    pages = pq.read_table(work / "pages")

    # warm-up: lazy imports, lexicon and deletion-index caches
    inproc.one_pass(pages.slice(0, WARMUP_ROWS))
    windows, out = inproc.timed_passes(pages, seconds / 2, MIN_INPROC_PASSES)
    pq.write_table(out, work / "inproc.parquet")
    res = {"rows": pages.num_rows, "windows": windows, "cpu": min(os.sched_getaffinity(0)),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if trace:
        res.update(inproc.traced_run(pages, seconds / 2, out))
    (work / "inproc.json").write_text(json.dumps(res))

    import ray

    os.sched_setaffinity(0, all_cpus)
    setup_s = raypath.setup(files[0], setups, ray_tmp)
    cpu = coreprobe.fastest_cpu(all_cpus)
    procs.pin_run(run_id, cpu)
    done = raypath.warm_run(files, str(work / "ray_out"))
    unpinned = procs.unpinned(run_id, cpu)
    logical_cpus = ray.cluster_resources().get("CPU", 0)
    ray.shutdown()
    (work / "ray.json").write_text(json.dumps({
        "cpu": cpu, "unpinned_processes": unpinned,
        "setup_s": setup_s, "done": done, "repeat": raypath.REPEAT,
        "logical_cpus": logical_cpus, "pool_width": raypath.POOL_WIDTH,
        "ray_version": ray.__version__}))


if __name__ == "__main__":
    main(sys.argv[1:])
