"""Extraction benchmark: pages parquet → ``FusedExtract`` → parquet.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It generates one workload's pages from
the seed (``workloads.py``) and, in one child process (``measure.py``),
runs the flagship pipeline two ways over the same rows:

- in-process: one ``FusedExtract`` over fixed-size batches, no Ray
  (``inproc.py``): the per-core cost;
- Ray: ``extract_pipeline`` over ``ray.data.read_parquet`` →
  ``write_parquet`` on a 3-CPU local cluster with a one-actor pool
  (``raypath.py``), after timing its set-up.

Every timed pass runs pinned to one core, beside a probe of that core's
speed (``coreprobe.py``), and is scaled to a reference core speed,
because on a shared host the core's speed, not the program, moved
uncorrected runs the most. The child runs under a hard timeout, so a
wedged executor is recorded as a failed run instead of hanging. Every
output row is checked (``workloads.check_output``), the Ray output must
equal the in-process output per url, and, with ``--trace 1``, the
traced output must equal the untraced one. The last stdout line is one
JSON object: ``correct``, ``attempted`` (rows), ``failed`` (rows
failing any check) and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line
before it records the conditions.
``docs_per_core_s`` is the median over in-process passes, ``docs_per_s``
the Ray run's steady state, and ``setup_s`` the median of ``SETUPS``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUPS = 2           # set-ups per run; setup_s is their median
PART_ROWS = 200      # rows per pages parquet file (read blocks)
CHILD_TIMEOUT_S = 150  # a wedge past this is a failed run
# AF_UNIX socket paths are capped at 107 bytes and Ray puts
# "<tmp>/session_<date>_<pid>/sockets/plasma_store" under its temp dir
RAY_TMP_MAX_LEN = 40


def parse_args(argv):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read from its own
    ``.git`` only."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def nproc() -> int | None:
    """What ``nproc`` reports (it honours ``OMP_NUM_THREADS``)."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  timeout=10).stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def run_child(script: str, args: list, env: dict, timeout: float, log: Path):
    """Run a child in its own session; returns its exit code, or None if it
    was killed at the timeout."""
    with open(log, "wb") as out:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *map(str, args)],
            cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return None


def write_pages(pages, pages_dir: Path) -> None:
    import pyarrow.parquet as pq

    pages_dir.mkdir(parents=True)
    for k, i in enumerate(range(0, pages.num_rows, PART_ROWS)):
        pq.write_table(pages.slice(i, PART_ROWS), pages_dir / f"part-{k:04d}.parquet")


def ray_temp_dir(work: Path) -> tuple[Path, bool]:
    """Ray's temp dir: inside the checkout when the path is short enough
    for Ray's sockets, else a fresh system temp dir (removed after)."""
    inside = work / "r"
    if len(str(inside)) <= RAY_TMP_MAX_LEN:
        return inside, False
    return Path(tempfile.mkdtemp(prefix="pbr")), True


def fail(msg: str, log: Path | None = None) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    if log is not None and log.exists():
        sys.stderr.write(log.read_text(errors="replace")[-20000:])
    return 1


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    try:
        import nidaba_ray
        import pyarrow as pa
        import pyarrow.parquet as pq
    except ImportError as e:
        return fail(f"the program is not importable from {ROOT}: {e}")
    if Path(nidaba_ray.__file__).resolve().parent != ROOT / "nidaba_ray":
        return fail(f"nidaba_ray comes from {nidaba_ray.__file__}, not from {ROOT}")
    import coreprobe
    import procs
    import workloads

    args = parse_args(argv)
    run_id = f"{os.getpid()}-{time.time_ns()}"
    env = {k: v for k, v in os.environ.items() if not k.startswith("RAY_")}
    env.update({
        "PYTHONPATH": os.pathsep.join([str(ROOT), str(HERE)]),
        procs.RUN_VAR: run_id,
        "RAY_USAGE_STATS_ENABLED": "0",
        "RAY_DATA_DISABLE_PROGRESS_BARS": "1",
    })
    work = ROOT / ".pbw" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ray_tmp, ray_tmp_outside = ray_temp_dir(work)
    try:
        pages, expect = workloads.generate(args.workload, args.seed)
        write_pages(pages, work / "pages")
        rows = pages.num_rows
        del pages

        code = run_child("measure.py", [work, args.seconds, args.trace, SETUPS, ray_tmp],
                         env, CHILD_TIMEOUT_S, work / "measure.log")
        procs.stop_run(run_id)
        if code != 0 and not (code is None and (work / "inproc.json").exists()):
            return fail(f"run {'timed out' if code is None else f'failed with exit code {code}'}",
                        work / "measure.log")
        inproc = json.loads((work / "inproc.json").read_text())
        probe = coreprobe.Samples(work / "probe.txt")
        if code == 0:
            ray_res = json.loads((work / "ray.json").read_text())
        else:
            # a wedge: it took at least the timeout, and nothing is checked
            print(f"perfbench: Ray run exceeded {CHILD_TIMEOUT_S}s; killed",
                  file=sys.stderr)
            ray_res = {"done": [(0.0, 0), (CHILD_TIMEOUT_S, rows)], "repeat": 1,
                       "cpu": None, "unpinned_processes": None,
                       "setup_s": [CHILD_TIMEOUT_S], "logical_cpus": None,
                       "pool_width": None, "ray_version": None}

        out = pq.read_table(work / "inproc.parquet")
        errors = out["error"].to_pylist()
        failed = workloads.check_output(expect, out["url"].to_pylist(),
                                        out["text"].to_pylist(), errors)
        failed.update(inproc.get("traced_mismatch", []))
        if code == 0:
            failed.update(workloads.mismatched_rows(
                out, pq.read_table(work / "ray_out"), ray_res["repeat"]))
        else:
            failed.update(expect)

        # per-core rate: median pass; Ray rate: steady state, from the end
        # of the first quarter of the output files to the last one (the
        # first files come in bursts or slowly while the pipeline fills)
        in_wall = statistics.median(probe.corrected(inproc["windows"]))
        in_rate = rows / in_wall
        steady = ray_res["done"][len(ray_res["done"]) // 4:]
        ray_window = (steady[0][0], steady[-1][0])
        ray_rows = sum(n for _, n in steady[1:])
        ray_rate = ray_rows / probe.corrected([ray_window])[0]
        if args.trace:
            metrics = dict(inproc["layers"])
            metrics["trace.overhead_share"] = (
                statistics.median(probe.corrected(inproc["traced_windows"])) / in_wall - 1.0,
                "ratio")
            metrics["executor.efficiency"] = (ray_rate / in_rate, "ratio")
            # what Ray adds to one pass over the pages
            metrics["executor.unaccounted_s"] = (rows / ray_rate - in_wall, "s")
            metrics["quarantine_share"] = (sum(1 for e in errors if e) / rows, "ratio")
            metrics["failed_share"] = (len(failed) / rows, "ratio")
        else:
            metrics = {
                "docs_per_s": (ray_rate, "docs/s"),
                "docs_per_core_s": (in_rate, "docs/s"),
                "setup_s": (statistics.median(ray_res["setup_s"]), "s"),
                "peak_rss_mb": (inproc["peak_rss_mb"], "MB"),
            }
        conditions = {
            "workload": args.workload, "seed": args.seed, "rows": rows,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": nproc(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "inproc_cpu": inproc["cpu"],
            "ray_cpu": ray_res["cpu"],
            "ray_unpinned_processes": ray_res["unpinned_processes"],
            "probe_samples": len(probe.secs),
            "probe_inproc_ms": probe.mean(inproc["windows"][0][0],
                                          inproc["windows"][-1][1]) * 1e3,
            "probe_ray_ms": probe.mean(*ray_window) * 1e3,
            "uncorrected_docs_per_core_s": rows / statistics.median(
                t1 - t0 for t0, t1 in inproc["windows"]),
            "uncorrected_docs_per_s": ray_rows / (ray_window[1] - ray_window[0]),
            "logical_cpus": ray_res["logical_cpus"],
            "pool_width": ray_res["pool_width"],
            "ray": ray_res["ray_version"],
            "pyarrow": pa.__version__, "python": sys.version.split()[0],
            "commit": git_commit(),
            "inproc_passes": len(inproc["windows"]),
            "ray_rows_timed": ray_rows,
            "setups": len(ray_res["setup_s"]),
        }
        print(json.dumps({"conditions": conditions}))
        print(json.dumps({
            "correct": not failed,
            "attempted": rows,
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        procs.stop_run(run_id)
        shutil.rmtree(work, ignore_errors=True)
        if ray_tmp_outside:
            shutil.rmtree(ray_tmp, ignore_errors=True)
        try:
            (ROOT / ".pbw").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
