"""Wide-binary-row handling: multi-MB payloads must not blow actor
heaps (byte-capped batch self-slicing) and must extract correctly."""

import pyarrow as pa
import pyarrow.parquet as pq

from nidaba_ray import synth
from nidaba_ray.pipelines import extract as extract_mod


def big_pages(n=6, words_per_doc=200_000):
    rows = []
    for i in range(n):
        text = " ".join(f"w{j % 997}" for j in range(words_per_doc))
        rows.append((i, text))
    return pa.table(
        {
            "url": pa.array([f"https://big.com/{i}" for i, _ in rows]),
            "warc_ts": pa.array([0] * n, pa.timestamp("us")),
            "html": pa.array([synth.make_html(i, t, "en") for i, t in rows], pa.binary()),
            "text": pa.array([t for _, t in rows]),
            "lang": pa.array(["en"] * n),
        }
    ), {f"https://big.com/{i}": t for i, t in rows}


def test_byte_cap_slices_batch(monkeypatch):
    t, want = big_pages(n=6)
    assert t.nbytes > 4 << 20
    monkeypatch.setattr(extract_mod, "MAX_BATCH_BYTES", 2 << 20)  # force slicing
    voted = extract_mod.FusedExtract(spell=False)(t)
    assert voted.num_rows == 6
    got = dict(zip(voted["url"].to_pylist(), voted["text"].to_pylist()))
    assert got == want  # byte-identity survives the slicing path


def test_big_payload_pipeline(ray_session, tmp_path):
    import ray.data as rd

    from nidaba_ray.pipelines.extract import extract_pipeline

    t, want = big_pages(n=4)
    p = str(tmp_path / "big.parquet")
    pq.write_table(t, p)
    df = extract_pipeline(
        rd.read_parquet(p), extract_batch_size=2, extract_concurrency=(1, 2)
    ).to_pandas()
    got = dict(zip(df["url"], df["text"]))
    assert got == want
