"""Ray path: ``extract_pipeline`` over ``ray.data.read_parquet`` →
``write_parquet``, the way a user runs the flagship pipeline.

Set-up is ``ray.init`` plus a cold pass up to its first output batch,
done several times, a fresh local cluster each time. The cold pass reads
only the first pages file: one file's rows are enough for the first
output batch, and the rest of the pass, which must be drained, then
costs little.

The warm run is one ``write_parquet`` execution over the pages files
``REPEAT`` times, one read block per file, on the last cluster. Each
output file is one block, and its mtime is when its write finished.
The throughput is taken in steady state, between the files at the end
of the first quarter and the last one (``run.py``), so the execution's
own start (a fresh extraction actor, 2.5–3.2 s on one core, about as
much as a pass over the pages) is left out: it is paid once per job,
and set-up already measures it.

The cluster has ``LOGICAL_CPUS`` = 3, the fewest that cannot livelock
(one read task + the one-actor extraction pool + the write), and the
pool is one actor wide, so on a one-core host a single extraction actor
competes for the core. The warm run is pinned to one core, like the
in-process run.
"""

from __future__ import annotations

import os
import shutil
import time

LOGICAL_CPUS = 3
POOL_WIDTH = 1
REPEAT = 4
OBJECT_STORE_BYTES = 256 << 20


def start_cluster(ray_tmp: str):
    import ray
    import ray.data as rd

    ray.init(address="local", num_cpus=LOGICAL_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, _temp_dir=ray_tmp)
    rd.DataContext.get_current().enable_progress_bars = False


def pipeline(paths: list[str]):
    import ray.data as rd

    from nidaba_ray.pipelines.extract import extract_pipeline

    return extract_pipeline(rd.read_parquet(paths, override_num_blocks=len(paths)),
                            extract_concurrency=POOL_WIDTH)


def setup(first_file: str, setups: int, ray_tmp: str) -> list[float]:
    """``setups`` times: a fresh cluster and a cold pass over the first
    pages file; returns the time from ``ray.init`` to its first output
    batch. The last cluster stays up."""
    import ray

    setup_s = []
    for rep in range(setups):
        if rep:
            ray.shutdown()
        t0 = time.perf_counter()
        start_cluster(ray_tmp)
        batches = pipeline([first_file]).iter_batches(batch_size=None,
                                                    batch_format="pyarrow")
        # drained before shutdown: closing a running execution and then
        # shutting Ray down can kill this process (exit code 1)
        for i, _ in enumerate(batches):
            if i == 0:
                setup_s.append(time.perf_counter() - t0)
    return setup_s


def warm_run(files: list[str], out_dir: str) -> list[tuple[float, int]]:
    """The warm run; returns ``(time.monotonic(), rows)`` of each output
    file, in the order they were completed."""
    import pyarrow.parquet as pq

    shutil.rmtree(out_dir, ignore_errors=True)
    realtime_ahead_ns = time.time_ns() - time.monotonic_ns()
    pipeline(files * REPEAT).write_parquet(out_dir)
    done = []
    for name in os.listdir(out_dir):
        path = os.path.join(out_dir, name)
        done.append(((os.stat(path).st_mtime_ns - realtime_ahead_ns) / 1e9,
                     pq.read_metadata(path).num_rows))
    return sorted(done)
