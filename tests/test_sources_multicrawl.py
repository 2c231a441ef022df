"""Source views over runner output + full multi-crawl e2e:
extraction (with dup re-crawls) → merge_crawls → byte-identity
against goldens (SURVEY.md §3.4 end-to-end, FIXTURES F1 dups)."""

import pyarrow.parquet as pq
import pytest

from nidaba_ray import synth


@pytest.fixture(scope="module")
def job_out(ray_session, tmp_path_factory):
    from nidaba_ray.pipelines import runner

    d = tmp_path_factory.mktemp("srcjob")
    inp = str(d / "pages.parquet")
    t = synth.pages_table(n=100)  # includes 5% dup re-crawls
    pq.write_table(t.drop_columns(["golden", "doc_id"]), inp)
    out_dir = str(d / "out")
    runner.run_job(inp, out_dir, n_buckets=8,
                   spec=[{"stage": "extract.text", "concurrency": [1, 2]}])
    return out_dir, t


def test_source_views_partition(job_out):
    from nidaba_ray.sources import read_extracted, read_quarantine

    out_dir, t = job_out
    ok = read_extracted(out_dir).to_pandas()
    bad = read_quarantine(out_dir).to_pandas()
    assert len(ok) + len(bad) == t.num_rows
    assert (ok["error"] == "").all()
    assert (bad["error"] != "").all()


def test_source_views_column_pruning(job_out):
    from nidaba_ray.sources import read_extracted

    out_dir, _ = job_out
    df = read_extracted(out_dir, columns=["url", "text"]).to_pandas()
    assert sorted(df.columns) == ["text", "url"]


def test_multicrawl_merge_end_to_end(job_out):
    from nidaba_ray.pipelines.crawls import merge_crawls
    from nidaba_ray.sources import read_extracted

    out_dir, t = job_out
    merged = merge_crawls(read_extracted(out_dir), mode="latest").to_pandas()
    golden = {
        u: g for u, g in zip(t["url"].to_pylist(), t["golden"].to_pylist())
    }
    # one row per non-quarantined url, each byte-identical to golden
    assert merged["url"].is_unique
    n_quarantined_urls = sum(
        1 for u in set(t["url"].to_pylist())
        if synth.payload_kind(int(u.rsplit("-", 1)[1])) == "invalid"
    )
    assert len(merged) == len(set(golden)) - n_quarantined_urls
    bad = [u for u, txt in zip(merged["url"], merged["text"]) if golden[u] != txt]
    assert not bad, bad[:3]
    # dups kept the LATEST warc_ts
    dup_urls = t.to_pandas()["url"].value_counts()
    dup_urls = dup_urls[dup_urls > 1].index
    sub = merged[merged["url"].isin(dup_urls)]
    src = t.to_pandas()
    for u, ts in zip(sub["url"], sub["warc_ts"]):
        assert ts == src[src.url == u]["warc_ts"].max()
