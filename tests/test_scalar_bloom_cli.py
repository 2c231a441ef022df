"""Scalar functions, Bloom filter, YAML CLI entry point."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nidaba_ray.functions.bloom import BloomFilter
from nidaba_ray.functions.scalar import (
    json_field_column,
    registrable_domain,
    ts_bucket_column,
    url_host,
    url_host_column,
    url_path,
)


def test_url_parts():
    assert url_host("https://Site01.Example.com/a/b?q=1") == "site01.example.com"
    assert url_host("http://user@h.co:8080/x") == "h.co"
    assert url_host("not a url") == ""
    assert url_path("https://h.co/a/b?q=1#f") == "/a/b"
    assert url_path("https://h.co") == "/"


def test_registrable_domain():
    assert registrable_domain("https://a.b.site.com/x") == "site.com"
    assert registrable_domain("https://www.example.co.uk/") == "example.co.uk"
    assert registrable_domain("https://localhost/") == "localhost"


def test_url_host_column_vectorized():
    arr = pa.array(["https://A.com/x", "http://b.org/", None, "junk"])
    got = url_host_column(arr).to_pylist()
    assert got == ["a.com", "b.org", "", ""]


def test_json_field_column():
    arr = pa.array(['{"k": 7}', '{"k": 9, "z": 1}', None])
    assert json_field_column(arr, "k").to_pylist() == [7, 9, None]


def test_ts_bucket_column():
    import datetime as dt

    arr = pa.array([dt.datetime(2024, 1, 1, 13, 22, 11)], pa.timestamp("us"))
    assert ts_bucket_column(arr, "hour").to_pylist() == [dt.datetime(2024, 1, 1, 13)]


def test_bloom_filter_membership():
    keys = [f"url-{i}" for i in range(2000)]
    bf = BloomFilter.build(keys, fp_rate=0.01)
    assert all(k in bf for k in keys)  # no false negatives, ever
    fps = sum(f"other-{i}" in bf for i in range(2000))
    assert fps < 2000 * 0.05  # fp rate in the right ballpark


def test_bloom_deterministic():
    a = BloomFilter.build(["x", "y"], 0.01)
    b = BloomFilter.build(["x", "y"], 0.01)
    assert (a.bits == b.bits).all()


def test_cli_main(ray_session, tmp_path):
    from nidaba_ray import synth
    from nidaba_ray.run import main

    t = synth.pages_table(n=30)
    inp = str(tmp_path / "pages.parquet")
    pq.write_table(t.drop_columns(["golden", "doc_id"]), inp)
    spec = tmp_path / "spec.yaml"
    spec.write_text(
        "pipeline:\n"
        "  - stage: extract.text\n"
        "    batch_size: 16\n"
        "    concurrency: [1, 2]\n"
    )
    out = str(tmp_path / "out")
    main([str(spec), "--input", inp, "--output", out])
    res = pq.read_table(out + "/" + __import__("os").listdir(out)[0])
    assert res.num_rows > 0
    assert "text" in res.column_names and "oov_ratio" in res.column_names


def test_cli_limit(ray_session, tmp_path):
    from nidaba_ray import synth
    from nidaba_ray.run import main

    t = synth.pages_table(n=30)
    inp = str(tmp_path / "pages.parquet")
    pq.write_table(t.drop_columns(["golden", "doc_id"]), inp)
    spec = tmp_path / "spec.yaml"
    spec.write_text("pipeline:\n  - stage: output.hocr\n")
    # hOCR serialization over raw pages lacks the spans column → a
    # clear error, not silent wrong output
    with pytest.raises(Exception):
        main([str(spec), "--input", inp, "--output", str(tmp_path / "o2"), "--limit", "5"])


def test_cli_jsonl_sink(ray_session, tmp_path):
    import json

    from nidaba_ray import synth
    from nidaba_ray.run import main

    t = synth.pages_table(n=20)
    inp = str(tmp_path / "pages.parquet")
    pq.write_table(t.drop_columns(["golden", "doc_id"]), inp)
    spec = tmp_path / "spec.yaml"
    spec.write_text(
        "pipeline:\n"
        "  - stage: extract.text\n"
        "    concurrency: [1, 2]\n"
        "    fn_constructor_kwargs: {spell: false}\n"
    )
    out = str(tmp_path / "out_jsonl")
    main([str(spec), "--input", inp, "--output", out, "--format", "jsonl"])
    import os

    lines = []
    for f in os.listdir(out):
        with open(os.path.join(out, f)) as fh:
            lines += [l for l in fh if l.strip()]
    recs = [json.loads(l) for l in lines]
    assert len(recs) >= 20
    assert all({"url", "spans", "provenance"} <= set(r.get("json") and json.loads(r["json"]) or r) for r in recs[:3])


def test_media_stages_via_registry(ray_session):
    import ray.data as rd

    from nidaba_ray.stages import registry
    from nidaba_ray.stages.multimodal import synth_media_batch

    t = synth_media_batch(list(range(0, 30, 3)))  # images
    ds = rd.from_arrow(t)
    out = registry.compile_pipeline(ds, [{"stage": "media.image", "concurrency": [1, 2]}]).to_pandas()
    assert (out["error"] == "").all() and len(out) == 10
