"""Resumable job runner — the ``nidaba batch`` → ``Batch.run()``
analog (SURVEY.md §3.4), runnable under ``ray job submit``:

    ray job submit -- python -m nidaba_ray.pipelines.runner \
        <pages_parquet> <out_dir> [n_buckets] [--spec spec.yaml]

One run = read (pruned to unfinished buckets) → a registry pipeline
(by default the flagship extraction, ``extract.text``) → bucketed
parquet sink → per-bucket manifests (lineage + counters).
Re-running after a crash skips every bucket whose manifest is present
and config-compatible; only unfinished buckets are re-read (the prune
happens at the read — a vectorized filter, no shuffle).
"""

from __future__ import annotations

import os
import sys
from functools import partial

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from nidaba_ray.stages.registry import compile_pipeline, load_spec
from nidaba_ray.state import manifest as mf

DEFAULT_BUCKETS = 64
DEFAULT_SPEC = [{"stage": "extract.text"}]


def run_job(
    input_path: str,
    out_dir: str,
    n_buckets: int = DEFAULT_BUCKETS,
    spec: list[dict] | None = None,
) -> dict:
    """Returns a summary dict {processed_buckets, skipped_buckets,
    n_rows, n_quarantined}.

    ``spec`` is the registry pipeline to run (the ordered stage list
    ``stages.registry.compile_pipeline`` takes); ``None`` runs
    ``DEFAULT_SPEC``, the flagship extraction. The spec is part of the
    config hash (resuming with a different spec restarts), and a spec
    whose stages rebuild their output tables (dropping the ``bucket``
    column) is re-bucketed from ``url`` before the partitioned write —
    stages must preserve one of the two columns."""
    spec = DEFAULT_SPEC if spec is None else spec
    config = {"n_buckets": n_buckets, "spec": spec}
    config_hash = mf.config_fingerprint(config)
    done = frozenset(mf.done_buckets(out_dir, n_buckets, config_hash))
    data_dir = os.path.join(out_dir, "data")

    if len(done) == n_buckets:
        # nothing to do — skip the read entirely (a no-op resume must
        # not pay a full input scan + actor-pool spin-up). Summary
        # schema matches the other return paths; 0 pruned because no
        # read happened at all.
        return {"processed_buckets": 0, "skipped_buckets": n_buckets,
                "n_rows": 0, "n_quarantined": 0,
                "pruned_input_buckets": 0}

    # Crash safety: a bucket without a manifest may hold TORN data from
    # an interrupted run; appending a rerun's rows would duplicate.
    # The bucket-partitioned layout exists exactly so this cleanup is a
    # per-bucket directory delete.
    import shutil

    for b in range(n_buckets):
        if b not in done:
            bdir = os.path.join(data_dir, f"bucket={b}")
            if os.path.isdir(bdir):
                shutil.rmtree(bdir)

    # Read-side FILE pruning: when the input is itself a
    # bucket-partitioned dataset stamped by this runner (a prior run's
    # output or a bucket-prepared corpus), finished buckets' files are
    # excluded from the read entirely — their bytes never leave
    # storage. Falls back to the row-level prune otherwise. The row
    # prune stays on in both paths (idempotent; also covers rows whose
    # bucket moved because the marker lied).
    pruned_dirs = mf.prunable_bucket_dirs(input_path, done, n_buckets)
    n_pruned_dirs = 0
    if pruned_dirs is not None:
        n_pruned_dirs = sum(
            1 for b in done
            if os.path.isdir(os.path.join(input_path, f"bucket={b}"))
        )
        if not pruned_dirs:  # every remaining bucket has no input data
            return {"processed_buckets": 0, "skipped_buckets": len(done),
                    "n_rows": 0, "n_quarantined": 0,
                    "pruned_input_buckets": n_pruned_dirs}
        pages = rd.read_parquet(pruned_dirs)
    else:
        pages = rd.read_parquet(input_path)
    pages = pages.map_batches(
        partial(mf.add_bucket_column, n_buckets=n_buckets), batch_format="pyarrow"
    )
    if done:
        pages = pages.map_batches(
            partial(mf.prune_done, done=done), batch_format="pyarrow"
        )

    # stages that rebuild their tables drop the bucket column —
    # recompute it from url (the authoritative scheme) so the
    # partitioned write and the manifests stay bucket-aligned
    out = compile_pipeline(pages, spec).map_batches(
        partial(mf.add_bucket_column, n_buckets=n_buckets),
        batch_format="pyarrow",
    )
    # Co-locate each bucket before the partitioned write: without this,
    # every write task splits its block across ~all buckets → tasks ×
    # buckets tiny files (measured 8k files for 128 blocks × 64
    # buckets — the classic small-file problem). The range shuffle on
    # the int bucket key leaves each output task holding 1-2 buckets.
    out = out.sort("bucket")
    out.write_parquet(data_dir, partition_cols=["bucket"])
    # stamp the output so a downstream run (or a resume reading it)
    # can prune whole bucket files
    mf.write_bucketing_marker(data_dir, n_buckets)

    # Manifest pass: scan ONLY the tiny stat columns of what we just
    # wrote (columnar pruning — the payload columns never move), roll
    # up per bucket, then write each manifest atomically.
    # Spec pipelines need not emit the flagship's stat columns — the
    # manifest rollup adapts to whichever of error/n_kept exist.
    import pyarrow.parquet as _pq

    present = set(_pq.read_schema(
        next(iter(sorted(
            __import__("glob").glob(os.path.join(data_dir, "**", "*.parquet"),
                                    recursive=True))))).names)
    stat_cols = ["bucket"] + [c for c in ("error", "n_kept") if c in present]
    stats = (
        rd.read_parquet(data_dir, columns=stat_cols)
        .map_batches(_bucket_partials, batch_format="pyarrow")
        .to_pandas()
    )
    summary = {"processed_buckets": 0, "skipped_buckets": len(done),
               "n_rows": 0, "n_quarantined": 0,
               "pruned_input_buckets": n_pruned_dirs}
    if len(stats):
        rollup = stats.groupby("bucket", as_index=False).sum()
        for row in rollup.itertuples(index=False):
            b = int(row.bucket)
            if b in done:
                continue  # pre-existing bucket from a prior run
            mf.write_manifest(
                out_dir,
                mf.BucketManifest(
                    bucket=b,
                    n_rows=int(row.n_rows),
                    n_quarantined=int(row.n_quarantined),
                    counters={"n_spans_kept": int(row.n_spans_kept)},
                    input_fingerprint=mf.config_fingerprint({"input": input_path}),
                    config_hash=config_hash,
                ),
                n_buckets,
            )
            summary["processed_buckets"] += 1
            summary["n_rows"] += int(row.n_rows)
            summary["n_quarantined"] += int(row.n_quarantined)
    return summary


def _bucket_partials(batch: pa.Table) -> pa.Table:
    import pandas as pd

    names = set(batch.column_names)
    df = pd.DataFrame(
        {
            "bucket": batch["bucket"].to_pandas(),
            "n_rows": 1,
            "n_quarantined": (
                pc.invert(pc.equal(batch["error"], "")).to_pandas().astype(int)
                if "error" in names else 0
            ),
            "n_spans_kept": (batch["n_kept"].to_pandas()
                             if "n_kept" in names else 0),
        }
    )
    g = df.groupby("bucket", as_index=False).sum()
    return pa.Table.from_pandas(g, preserve_index=False)


def job_status(out_dir: str, n_buckets: int = DEFAULT_BUCKETS) -> dict:
    """Roll up a job's manifests — the ``nidaba status <id>`` /
    ``Batch.get_extended_state`` analog (SURVEY.md §3.1 step 6): how
    many buckets are done, rows/quarantine counters, config hashes."""
    import glob
    import json

    files = sorted(glob.glob(os.path.join(out_dir, "manifest", "part-*.json")))
    done, rows, quarantined, spans = [], 0, 0, 0
    configs = set()
    corrupt = 0
    for f in files:
        try:
            with open(f) as fh:
                d = json.load(fh)
            done.append(d["bucket"])
            rows += d["n_rows"]
            quarantined += d["n_quarantined"]
            spans += d.get("counters", {}).get("n_spans_kept", 0)
            configs.add(d["config_hash"])
        except (json.JSONDecodeError, KeyError):
            corrupt += 1
    return {
        "buckets_done": len(done),
        "buckets_total": n_buckets,
        "complete": len(done) == n_buckets,
        "n_rows": rows,
        "n_quarantined": quarantined,
        "n_spans_kept": spans,
        "config_hashes": sorted(configs),
        "corrupt_manifests": corrupt,
    }


def main(argv: list[str]) -> None:
    if argv and argv[0] == "status":
        out_dir = argv[1]
        n_buckets = int(argv[2]) if len(argv) > 2 else DEFAULT_BUCKETS
        print(job_status(out_dir, n_buckets))
        return
    import ray

    if not ray.is_initialized():  # standalone script owns its session
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    spec = None
    if "--spec" in argv:
        i = argv.index("--spec")
        spec = load_spec(argv[i + 1])
        argv = argv[:i] + argv[i + 2:]
    input_path, out_dir = argv[0], argv[1]
    n_buckets = int(argv[2]) if len(argv) > 2 else DEFAULT_BUCKETS
    summary = run_job(input_path, out_dir, n_buckets, spec=spec)
    print(summary)
    ray.shutdown()


if __name__ == "__main__":
    main(sys.argv[1:])
