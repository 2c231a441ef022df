"""Wide-binary-row handling: multi-MB payloads must not blow actor
heaps (byte-capped batch self-slicing) and must extract correctly."""

import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

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


class _CountedCalls(extract_mod.FusedExtract):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = 0

    def __call__(self, batch):
        self.calls += 1
        return super().__call__(batch)


def test_byte_cap_slices_batch(monkeypatch):
    t, want = big_pages(n=6)
    assert t.nbytes > 4 << 20
    monkeypatch.setattr(extract_mod, "MAX_BATCH_BYTES", 2 << 20)  # force slicing
    fused = _CountedCalls(spell=False)
    voted = fused(t)
    # the slices must not re-enter __call__: map_batches runs it on a
    # one-thread executor, where a nested call waits on itself forever
    assert fused.calls == 1
    assert voted.num_rows == 6
    got = dict(zip(voted["url"].to_pylist(), voted["text"].to_pylist()))
    assert got == want  # byte-identity survives the slicing path


def test_big_payload_pipeline(ray_session, tmp_path):
    import ray.data as rd

    from nidaba_ray.pipelines.extract import extract_pipeline

    # ~10 MB of html: the default pool's one batch crosses the byte
    # cap, so the actor slices it inside one Ray call
    t, want = big_pages(n=10)
    assert t.nbytes > extract_mod.MAX_BATCH_BYTES
    p = str(tmp_path / "big.parquet")
    pq.write_table(t, p)
    df = extract_pipeline(
        rd.read_parquet(p), extract_concurrency=(1, 2)
    ).to_pandas()
    got = dict(zip(df["url"], df["text"]))
    assert got == want


# one FusedExtract call over ROWS ~40 kB pages, in a fresh process so
# ru_maxrss is this call's peak, not the suite's
_HEAP_PROBE = """
import json, resource, sys
import pyarrow as pa
from nidaba_ray import synth
from nidaba_ray.pipelines.extract import FusedExtract

ROWS = int(sys.argv[1])
vocab = [f"w{j}" for j in range(997)]

def page(i):  # ~40 kB of templated HTML
    words = vocab[i % 997:] + vocab[:i % 997]
    return synth.make_html(i, " ".join(words * 8), "en")

# built 64 rows at a time, so building leaves no peak above the
# table itself for the call's growth to hide under
html = pa.chunked_array([pa.array([page(i) for i in range(k, k + 64)],
                                  pa.binary()) for k in range(0, ROWS, 64)])
batch = pa.table({
    "url": [f"https://big.com/{i}" for i in range(ROWS)],
    "warc_ts": pa.array([0] * ROWS, pa.timestamp("us")),
    "html": html, "text": [""] * ROWS, "lang": ["en"] * ROWS,
})
fused = FusedExtract()
fused(batch.slice(0, 2))  # lazy imports and tables load unmeasured
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
out = fused(batch)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"rows": out.num_rows, "html_bytes": html.nbytes,
                  "out_mb": out.nbytes / 2**20,
                  "growth_mb": (after - before) / 1024}))
"""


@pytest.mark.parametrize("rows", [1024, 2048])
def test_byte_cap_bounds_slice_working_set(rows):
    # a call's output (~2x its html) is held until it returns, so it
    # grows with rows x page bytes; what MAX_BATCH_BYTES bounds is the
    # heap above that output, the same at either row count
    out = subprocess.run(
        [sys.executable, "-c", _HEAP_PROBE, str(rows)],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-500:]
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["rows"] == rows and got["html_bytes"] >= rows * 32 << 10
    assert got["growth_mb"] - got["out_mb"] < 80, got
