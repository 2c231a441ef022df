"""Checkpoint-manifest layout + resumable runner — nidaba
tests/test_storage.py analog (FIXTURES.md F5)."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nidaba_ray.state import manifest as mf
from nidaba_ray.state.manifest import BucketManifest, ManifestError


def make_m(bucket=3, config="cfg"):
    return BucketManifest(
        bucket=bucket, n_rows=10, n_quarantined=1, counters={"x": 1},
        input_fingerprint="abc", config_hash=config,
    )


def test_write_read_roundtrip(tmp_path):
    out = str(tmp_path)
    mf.write_manifest(out, make_m(), 64)
    back = mf.read_manifest(out, 3, 64)
    assert back == make_m()


def test_atomic_no_tmp_left(tmp_path):
    out = str(tmp_path)
    mf.write_manifest(out, make_m(), 64)
    files = os.listdir(os.path.join(out, "manifest"))
    assert files == ["part-00003.json"]


def test_bucket_range_rejected(tmp_path):
    out = str(tmp_path)
    with pytest.raises(ManifestError):
        mf.write_manifest(out, make_m(bucket=64), 64)
    with pytest.raises(ManifestError):
        mf.write_manifest(out, make_m(bucket=-1), 64)
    with pytest.raises(ManifestError):
        mf.read_manifest(out, 9999, 64)


def test_corrupt_manifest_rejected_and_not_done(tmp_path):
    out = str(tmp_path)
    mf.write_manifest(out, make_m(bucket=1), 64)
    # corrupt a second manifest by hand
    p = os.path.join(out, "manifest", "part-00002.json")
    with open(p, "w") as f:
        f.write("{not json")
    with pytest.raises(ManifestError):
        mf.read_manifest(out, 2, 64)
    done = mf.done_buckets(out, 64, "cfg")
    assert done == {1}  # corrupt bucket 2 is NOT treated as done


def test_done_buckets_config_mismatch(tmp_path):
    out = str(tmp_path)
    mf.write_manifest(out, make_m(bucket=5, config="old"), 64)
    assert mf.done_buckets(out, 64, "new") == set()
    assert mf.done_buckets(out, 64, "old") == {5}


def test_bucket_of_deterministic():
    urls = [f"https://h{i}.com/p{i}" for i in range(100)]
    a = mf.bucket_of(urls, 16)
    b = mf.bucket_of(urls, 16)
    assert (a == b).all()
    assert set(a) <= set(range(16))
    assert len(set(a)) > 4  # spreads


def test_prune_done():
    t = pa.table({"url": ["a", "b", "c"], "bucket": pa.array([0, 1, 2], pa.int64())})
    out = mf.prune_done(t, frozenset({1}))
    assert out["bucket"].to_pylist() == [0, 2]
    assert mf.prune_done(t, frozenset()) is t


@pytest.fixture(scope="module")
def pages_file(tmp_path_factory):
    from nidaba_ray import synth

    path = tmp_path_factory.mktemp("runnerpages") / "pages.parquet"
    t = synth.pages_table(n=120)
    pq.write_table(t.drop_columns(["golden", "doc_id"]), str(path))
    return str(path)


def test_runner_end_to_end_and_resume(ray_session, pages_file, tmp_path):
    from nidaba_ray.pipelines import runner

    cfg = {"extract_concurrency": (1, 2)}
    out_dir = str(tmp_path / "job")
    s1 = runner.run_job(pages_file, out_dir, n_buckets=8, pipeline_config=cfg)
    assert s1["processed_buckets"] > 0 and s1["skipped_buckets"] == 0
    assert s1["n_rows"] > 0

    # all buckets now have manifests → a rerun must process nothing
    s2 = runner.run_job(pages_file, out_dir, n_buckets=8, pipeline_config=cfg)
    assert s2["processed_buckets"] == 0
    assert s2["skipped_buckets"] == s1["processed_buckets"]

    # delete one manifest → exactly that bucket reruns
    mdir = os.path.join(out_dir, "manifest")
    victim = sorted(os.listdir(mdir))[0]
    b_victim = int(victim[len("part-"):-len(".json")])
    os.remove(os.path.join(mdir, victim))
    s3 = runner.run_job(pages_file, out_dir, n_buckets=8, pipeline_config=cfg)
    assert s3["processed_buckets"] == 1
    m = mf.read_manifest(out_dir, b_victim, 8)
    assert m.n_rows > 0

    # manifest carries lineage + counters
    with open(os.path.join(mdir, victim)) as f:
        d = json.load(f)
    assert {"bucket", "n_rows", "n_quarantined", "counters",
            "input_fingerprint", "config_hash", "engine_version"} <= set(d)


def test_job_status(ray_session, pages_file, tmp_path):
    from nidaba_ray.pipelines import runner

    cfg = {"extract_concurrency": (1, 2)}
    out_dir = str(tmp_path / "statjob")
    runner.run_job(pages_file, out_dir, n_buckets=8, pipeline_config=cfg)
    st = runner.job_status(out_dir, 8)
    assert st["complete"] and st["buckets_done"] == 8
    assert st["n_rows"] > 0 and len(st["config_hashes"]) == 1
    # corrupt one manifest → counted, not fatal
    import os
    mdir = os.path.join(out_dir, "manifest")
    victim = sorted(os.listdir(mdir))[0]
    with open(os.path.join(mdir, victim), "w") as f:
        f.write("{broken")
    st2 = runner.job_status(out_dir, 8)
    assert st2["corrupt_manifests"] == 1 and not st2["complete"]


def test_crash_rerun_no_duplicates(ray_session, pages_file, tmp_path):
    """A bucket with torn data but no manifest must be wiped and
    reprocessed — never appended to (duplicate rows)."""
    import os

    import pyarrow.parquet as pq_

    from nidaba_ray.pipelines import runner

    cfg = {"extract_concurrency": (1, 2)}
    out_dir = str(tmp_path / "crashjob")
    s1 = runner.run_job(pages_file, out_dir, n_buckets=8, pipeline_config=cfg)
    total = s1["n_rows"]
    # simulate crash: victim bucket has data but lost its manifest
    mdir = os.path.join(out_dir, "manifest")
    victim = sorted(os.listdir(mdir))[0]
    os.remove(os.path.join(mdir, victim))
    s2 = runner.run_job(pages_file, out_dir, n_buckets=8, pipeline_config=cfg)
    assert s2["processed_buckets"] == 1
    # total rows across the data dir must equal the original count
    n = pq_.ParquetDataset(os.path.join(out_dir, "data")).read(
        columns=["url"]
    ).num_rows
    assert n == total


def test_noop_resume_is_fast(ray_session, pages_file, tmp_path):
    import time

    from nidaba_ray.pipelines import runner

    cfg = {"extract_concurrency": (1, 2)}
    out_dir = str(tmp_path / "noopjob")
    runner.run_job(pages_file, out_dir, n_buckets=8, pipeline_config=cfg)
    t0 = time.time()
    s = runner.run_job(pages_file, out_dir, n_buckets=8, pipeline_config=cfg)
    assert s["skipped_buckets"] == 8 and s["processed_buckets"] == 0
    assert time.time() - t0 < 5.0  # no input scan, no actor spin-up


def _bucketed_pages_input(tmp_path, n=120, n_buckets=8):
    """Write a pages corpus bucket-partitioned by the runner's own
    scheme and stamped with the bucketing marker."""
    import ray.data as rd

    from nidaba_ray import synth

    t = synth.pages_table(n=n).drop_columns(["golden", "doc_id"])
    t = mf.add_bucket_column(t, n_buckets=n_buckets)
    in_dir = str(tmp_path / "input")
    rd.from_arrow(t).repartition(4).write_parquet(
        in_dir, partition_cols=["bucket"]
    )
    mf.write_bucketing_marker(in_dir, n_buckets)
    return in_dir, t


def test_read_side_bucket_pruning(ray_session, tmp_path):
    """Resume over a bucket-partitioned input prunes finished buckets
    at the FILE level (pruned_input_buckets > 0) and still produces a
    complete, correct output."""
    import duckdb

    from nidaba_ray.pipelines.runner import run_job

    n_buckets = 8
    in_dir, src = _bucketed_pages_input(tmp_path, n=120, n_buckets=n_buckets)
    out_dir = str(tmp_path / "out")
    cfg = {"extract_concurrency": (1, 2)}
    s1 = run_job(in_dir, out_dir, n_buckets, cfg)
    assert s1["processed_buckets"] == n_buckets
    assert s1["pruned_input_buckets"] == 0  # nothing was done yet

    # knock out three buckets (manifest + data) → resume
    for b in (1, 4, 6):
        os.remove(os.path.join(out_dir, "manifest", f"part-{b:05d}.json"))
        import shutil

        shutil.rmtree(os.path.join(out_dir, "data", f"bucket={b}"))
    s2 = run_job(in_dir, out_dir, n_buckets, cfg)
    assert s2["processed_buckets"] == 3
    assert s2["pruned_input_buckets"] == n_buckets - 3  # files skipped
    # output is complete and row-exact vs the input
    n_out = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{out_dir}/data/*/*.parquet')"
    ).fetchone()[0]
    assert n_out == src.num_rows
    # output itself carries the marker (chainable)
    assert os.path.isfile(os.path.join(out_dir, "data", mf.BUCKETING_MARKER))


def test_marker_mismatch_falls_back(tmp_path):
    # wrong n_buckets in the marker → no path pruning (row prune covers)
    in_dir = str(tmp_path / "inp")
    os.makedirs(os.path.join(in_dir, "bucket=0"))
    mf.write_bucketing_marker(in_dir, 16)
    assert mf.prunable_bucket_dirs(in_dir, frozenset(), 8) is None
    # matching marker → unfinished dirs only
    mf.write_bucketing_marker(in_dir, 8)
    os.makedirs(os.path.join(in_dir, "bucket=1"))
    open(os.path.join(in_dir, "bucket=1", "f.parquet"), "w").close()
    files = mf.prunable_bucket_dirs(in_dir, frozenset({0}), 8)
    assert files == [os.path.join(in_dir, "bucket=1", "f.parquet")]


def test_runner_with_registry_spec_resumes(ray_session, tmp_path):
    """run_job(spec=...) runs an arbitrary registry pipeline under the
    same bucketed resume contract: a completed job no-op-resumes, the
    spec participates in the config hash (a different spec restarts),
    and a spec whose stages rebuild tables still partitions by the
    recomputed url bucket."""
    import pyarrow.parquet as pq

    from nidaba_ray.pipelines.runner import job_status, run_job
    from nidaba_ray.stages.registry import load_spec
    from nidaba_ray.synth import pages_table

    pages = pages_table(n=120)  # + dup_frac tail → 126 rows
    src = tmp_path / "pages.parquet"
    pq.write_table(pages, src)
    spec = load_spec("examples/extract_clean.yaml")

    out = tmp_path / "job"
    s1 = run_job(str(src), str(out), n_buckets=8, spec=spec)
    assert s1["processed_buckets"] == 8 and s1["n_rows"] == pages.num_rows
    assert job_status(str(out), 8)["complete"]
    # no-op resume: nothing re-processed
    s2 = run_job(str(src), str(out), n_buckets=8, spec=spec)
    assert s2 == {"processed_buckets": 0, "skipped_buckets": 8,
                  "n_rows": 0, "n_quarantined": 0,
                  "pruned_input_buckets": 0}
    # a DIFFERENT spec must not reuse the old manifests
    spec2 = load_spec("examples/extract.yaml")
    s3 = run_job(str(src), str(out) + "2", n_buckets=8, spec=spec2)
    assert s3["processed_buckets"] == 8
    from nidaba_ray.state.manifest import config_fingerprint
    assert config_fingerprint({"n_buckets": 8, "pipeline": {}, "spec": spec}) \
        != config_fingerprint({"n_buckets": 8, "pipeline": {}, "spec": spec2})


def test_runner_spec_rebucket_from_url(ray_session, tmp_path):
    """A spec stage that REBUILDS its output table (extract.jsonld
    drops every input column incl. bucket) still writes a correctly
    bucket-partitioned dataset — the runner re-buckets from url."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    from nidaba_ray import realpages
    from nidaba_ray.pipelines.runner import run_job
    from nidaba_ray.stages.registry import load_spec
    from nidaba_ray.state.manifest import bucket_of

    src_tbl = realpages.fixture_pages_table()
    src = tmp_path / "fixture_pages.parquet"
    pq.write_table(src_tbl, src)
    out = tmp_path / "meta"
    spec = load_spec("examples/jsonld_metadata.yaml")
    s = run_job(str(src), str(out), n_buckets=4, spec=spec)
    assert s["n_rows"] > 0
    files = glob.glob(str(out / "data" / "bucket=*" / "*.parquet"))
    assert files
    got = pq.read_table(files)  # hive column re-injected
    # every row's partition bucket equals the url's authoritative bucket
    urls = got["url"].to_pylist()
    want = bucket_of(urls, 4)
    assert [int(b) for b in got["bucket"].to_pylist()] == [int(w) for w in want]
