"""Streaming crawl-shard Datasource: shard fan-out, chunked iteration,
byte-identity through the flagship pipeline."""

import pyarrow.compute as pc


def test_read_crawl_shards_and_rows(ray_session):
    from nidaba_ray.sources.crawl import read_crawl

    ds = read_crawl(n_shards=4, pages_per_shard=32)
    t = ds.to_pandas()
    assert len(t) == 128
    assert t["doc_id"].is_unique
    # shard provenance is carried as input_files metadata
    files = {f for fs in ds.input_files() for f in [fs]}
    assert len(files) == 4 and all(f.startswith("warc://") for f in files)


def test_streaming_extraction_identity(ray_session):
    """Pages from the streaming source extract to their goldens —
    the same byte-identity contract as the parquet path."""
    from nidaba_ray.pipelines.extract import extract_pipeline
    from nidaba_ray.sources.crawl import read_crawl

    pages = read_crawl(n_shards=2, pages_per_shard=48)
    df = pages.to_pandas()  # one execution — block order varies per run
    golden = dict(zip(df["doc_id"], df["golden"]))
    out = extract_pipeline(pages.drop_columns(["golden"])).to_pandas()
    ok = out[out["error"] == ""]
    assert len(ok) >= 90  # ~1/97 quarantined + pdf rows all extract
    assert all(golden[d] == t for d, t in zip(ok["doc_id"], ok["text"]))


def test_streaming_extract_stats_deterministic(ray_session):
    from nidaba_ray.sources.crawl import streaming_extract_stats

    a = streaming_extract_stats("/root/testdata/sf0.001").to_pandas()
    assert len(a) == 8 and a["n_pages"].sum() == 512
    assert (a["n_ok"] + a["n_quarantined"] == a["n_pages"]).all()
    b = streaming_extract_stats("/root/testdata/sf0.001").to_pandas()
    assert a.equals(b)

