"""End-to-end flagship pipeline over Ray Data — byte-identity vs
frozen goldens, quarantine semantics, determinism across runs
(FIXTURES.md F1; SURVEY.md §5.2 items 1/3)."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nidaba_ray import synth
from nidaba_ray.pipelines.extract import extract_pipeline

GOLDEN = "tests/data/golden_pages.parquet"


@pytest.fixture(scope="module")
def pages_parquet(tmp_path_factory):
    path = tmp_path_factory.mktemp("pages") / "pages.parquet"
    t = synth.pages_table(n=300)
    pq.write_table(t.drop_columns(["golden", "doc_id"]), str(path))
    return str(path)


def golden_map():
    g = pq.read_table(GOLDEN)
    return {
        (u, ts): txt
        for u, ts, txt in zip(
            g["url"].to_pylist(), g["warc_ts"].to_pylist(), g["golden"].to_pylist()
        )
    }


def test_generator_matches_frozen_golden():
    """The seeded generator must never drift from the committed golden
    (the goldens substitute for the absent reference corpus)."""
    t = synth.pages_table(n=300)
    g = pq.read_table(GOLDEN)
    assert t["url"].to_pylist() == g["url"].to_pylist()
    assert t["golden"].to_pylist() == g["golden"].to_pylist()


def run_pipeline(ray_session, pages_parquet):
    import ray.data as rd

    pages = rd.read_parquet(pages_parquet)
    # autoscaling (min=1) pools: fixed-size pools can livelock when
    # pool sizes + the read stage exceed the cluster's CPUs (seen with
    # 2+2 fixed actors on num_cpus=4 — the plan never finishes).
    out = extract_pipeline(pages, extract_concurrency=(1, 2))
    return out.to_pandas()


def test_e2e_byte_identity(ray_session, pages_parquet):
    df = run_pipeline(ray_session, pages_parquet)
    gold = golden_map()
    bad = []
    for _, row in df.iterrows():
        key = (row["url"], row["warc_ts"].to_pydatetime())
        expect = gold[key]
        if row["error"]:
            bad.append(key)
            assert row["text"] == ""
            continue
        assert row["text"] == expect, f"mismatch for {key}"
    # quarantine hit exactly the payloads the generator corrupted
    n_invalid = sum(
        1
        for u in df["url"]
        if synth.payload_kind(int(u.rsplit("-", 1)[1])) == "invalid"
    )
    assert len(bad) == n_invalid > 0


def test_e2e_spans_and_provenance(ray_session, pages_parquet):
    df = run_pipeline(ray_session, pages_parquet)
    ok = df[df["error"] == ""]
    assert (ok["n_kept"] > 0).all()
    assert (ok["n_blocks"] >= ok["n_kept"]).all()
    row = ok.iloc[0]
    # span offsets slice back out of the canonical text (bbox analog)
    for s in row["spans"]:
        if s["start"] >= 0:
            assert row["text"][s["start"] : s["end"]] == s["text"]
    stages = [p["stage"] for p in row["provenance"]]
    assert "threshold" in stages and "merge" in stages
    # spell stage annotated, text untouched (oov metrics exist)
    assert "oov_ratio" in df.columns and "suggestions" in df.columns


def test_e2e_deterministic_across_runs(ray_session, pages_parquet):
    a = run_pipeline(ray_session, pages_parquet)
    b = run_pipeline(ray_session, pages_parquet)
    ka = dict(zip(zip(a["url"], a["warc_ts"]), a["text"]))
    kb = dict(zip(zip(b["url"], b["warc_ts"]), b["text"]))
    assert ka == kb


@pytest.mark.parametrize("kwargs", [{}, {"extract_concurrency": 1}],
                         ids=["pool", "one_actor"])
def test_default_batch_size_equals_in_process(ray_session, tmp_path, kwargs):
    """``extract_pipeline`` with no batch size, over ~50-row read
    blocks: Ray bundles several blocks into each of the pool's 64-row
    batches and each of a one-actor pool's 1024-row batches and
    concatenates them; the rows must equal one in-process
    ``FusedExtract`` pass."""
    import ray.data as rd

    from nidaba_ray.pipelines.extract import FusedExtract

    t = synth.pages_table(n=1200).drop_columns(["golden", "doc_id"])
    path = str(tmp_path / "pages.parquet")
    pq.write_table(t, path)
    pages = rd.read_parquet(path, override_num_blocks=24).materialize()
    assert pages.num_blocks() >= 24
    out = extract_pipeline(pages, **kwargs).materialize()
    assert out.num_blocks() < pages.num_blocks()  # bundles span blocks

    keys = [("url", "ascending"), ("warc_ts", "ascending")]
    got = pa.concat_tables(
        out.iter_batches(batch_size=None, batch_format="pyarrow")
    ).sort_by(keys)
    want = FusedExtract()(t).sort_by(keys)
    assert got.column_names == want.column_names
    for name in want.column_names:
        assert got[name].to_pylist() == want[name].to_pylist(), name
