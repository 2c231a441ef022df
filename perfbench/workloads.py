"""Seeded workload generators and their output checks.

Each generator returns a pages table (the only thing the program sees)
and an expectation per url. The same seed gives the same bytes; any
other seed moves doc ids, text, chrome, noise, row order and urls.

- ``synth_html``: word-soup documents wrapped by
  ``synth.pages_batch_from_documents`` (HTML with nav/aside/footer
  chrome, ~3% PDF slots, ~1% invalid slots). Segmentation and the three
  thresholds do most of the work; the vote never runs.
- ``real_fixtures``: the hand-labelled real pages of
  ``realpages.fixture_pages_table()``, repeated in seed-permuted order
  under distinct urls. The only workload that reaches ``align_vote``.
- ``dialects``: a round-robin over non-HTML payloads (gzip HTML, plain /
  Flate / object-stream / UTF-16 PDF, DOCX). Decompression and
  container/PDF parsing dominate; segment and threshold do little.
"""

from __future__ import annotations

import gzip
import hashlib
import random
from collections import Counter

import pyarrow as pa

WORKLOADS = ("synth_html", "real_fixtures", "dialects")

# rows per workload: sized so that one in-process pass takes ~1.5 s on
# one core and a Ray pass stays well inside the per-run timeout
ROWS = {"synth_html": 1600, "real_fixtures": 194 * 8, "dialects": 1200}

# the vocabulary, language mix and length range of the test data's
# ``documents.parquet``, so generated documents have its shape
VOCAB = (
    "a agg batch big column customer data dup fast filter group hash join "
    "key line merge order part query row scan slow small sort spark stream "
    "table the value vector window"
).split()
LANGS = ("en", "zh", "es", "fr", "de")
LANG_WEIGHTS = (41, 15, 15, 15, 14)

QUARANTINE = ("quarantine", "")


def _seed_int(tag: str, seed: int) -> int:
    return int(hashlib.md5(f"perfbench-{tag}-{seed}".encode()).hexdigest()[:12], 16)


def documents(seed: int, n: int) -> pa.Table:
    """``documents``-shaped table (doc_id, text, lang) from a seed; doc ids
    start at a seed-derived offset so the synth PDF/invalid slots
    (``doc_id % 29 == 7`` / ``% 97 == 13``) land on other rows."""
    rng = random.Random(_seed_int("docs", seed))
    base = (_seed_int("base", seed) % 1_000_000) * 10_000
    texts, langs = [], []
    for _ in range(n):
        texts.append(" ".join(rng.choice(VOCAB) for _ in range(rng.randint(8, 100))))
        langs.append(rng.choices(LANGS, LANG_WEIGHTS)[0])
    return pa.table({
        "doc_id": pa.array(range(base, base + n), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
    })


def synth_html(seed: int, n: int) -> tuple[pa.Table, dict]:
    from nidaba_ray import synth

    docs = documents(seed, n)
    pages = synth.pages_batch_from_documents(docs)
    expect = {}
    for url, doc_id, text in zip(pages["url"].to_pylist(),
                                 docs["doc_id"].to_pylist(),
                                 docs["text"].to_pylist()):
        expect[url] = (QUARANTINE if doc_id % synth.INVALID_MOD == synth.INVALID_REM
                       else ("text", text))
    return pages, expect


def real_fixtures(seed: int, n: int) -> tuple[pa.Table, dict]:
    from nidaba_ray.realpages import FIXTURES, fixture_pages_table

    base = fixture_pages_table()
    rng = random.Random(_seed_int("fixtures", seed))
    tag = _seed_int("tag", seed) % 1_000_000
    idx, urls, expect = [], [], {}
    for rep in range(-(-n // base.num_rows)):
        order = list(range(base.num_rows))
        rng.shuffle(order)
        for i in order[: n - len(idx)]:
            fx = FIXTURES[i]
            url = f"fixture://{fx['name']}/{tag}-{rep}"
            idx.append(i)
            urls.append(url)
            expect[url] = ("md5", hashlib.md5(fx["expected"].encode("utf-8")).hexdigest())
    pages = base.take(pa.array(idx, pa.int64()))
    pages = pages.set_column(0, "url", pa.array(urls, pa.string()))
    return pages, expect


def _gzip_html(doc_id: int, text: str, lang: str) -> bytes:
    from nidaba_ray import synth

    return gzip.compress(synth.make_html(doc_id, text, lang), mtime=0)


def _dialect_builders():
    from nidaba_ray import synth

    return (
        lambda d, t, l: _gzip_html(d, t, l),
        lambda d, t, l: synth.make_pdf(d, t),
        lambda d, t, l: synth.make_pdf_flate(d, t),
        lambda d, t, l: synth.make_pdf_objstm(d, t),
        lambda d, t, l: synth.make_pdf_utf16(d, t),
        lambda d, t, l: synth.make_docx(d, t),
    )


def dialects(seed: int, n: int) -> tuple[pa.Table, dict]:
    from nidaba_ray import synth

    docs = documents(seed, n)
    builders = _dialect_builders()
    start = _seed_int("rotate", seed) % len(builders)
    rows = {"url": [], "warc_ts": [], "html": [], "text": [], "lang": []}
    expect = {}
    for i, (doc_id, text, lang) in enumerate(zip(docs["doc_id"].to_pylist(),
                                                  docs["text"].to_pylist(),
                                                  docs["lang"].to_pylist())):
        url = synth.url_for(doc_id)
        rows["url"].append(url)
        rows["warc_ts"].append(synth.BASE_TS_US + doc_id * 1_000_000)
        rows["html"].append(builders[(start + i) % len(builders)](doc_id, text, lang))
        rows["text"].append(synth.noisy_text(doc_id, text))
        rows["lang"].append(lang)
        expect[url] = ("text", text)
    return pa.table({
        "url": pa.array(rows["url"], pa.string()),
        "warc_ts": pa.array(rows["warc_ts"], pa.timestamp("us")),
        "html": pa.array(rows["html"], pa.binary()),
        "text": pa.array(rows["text"], pa.string()),
        "lang": pa.array(rows["lang"], pa.string()),
    }), expect


GENERATORS = {"synth_html": synth_html, "real_fixtures": real_fixtures,
              "dialects": dialects}


def generate(workload: str, seed: int, n: int | None = None) -> tuple[pa.Table, dict]:
    return GENERATORS[workload](seed, ROWS[workload] if n is None else n)


def check_output(expect: dict, urls: list[str], texts: list[str],
                 errors: list[str]) -> set[str]:
    """Urls whose extracted row fails the workload's check.

    ``("text", s)`` must equal the row's text byte for byte on a
    non-quarantined row; ``("md5", h)`` (the frozen fixture labels) must
    equal ``md5(text)``; ``QUARANTINE`` rows must carry an error. Urls
    missing from the output, or duplicated in it, fail too."""
    failed = set(expect) - set(urls)
    seen = set()
    for url, text, err in zip(urls, texts, errors):
        kind, want = expect.get(url, ("unexpected", None))
        if url in seen or kind == "unexpected":
            ok = False
        elif kind == "quarantine":
            ok = bool(err)
        elif kind == "md5":
            ok = not err and hashlib.md5(text.encode("utf-8")).hexdigest() == want
        else:
            ok = not err and text == want
        seen.add(url)
        if not ok:
            failed.add(url)
    return failed


def row_digests(table: pa.Table) -> list[tuple[str, str]]:
    """``(url, md5 of the whole output row)`` per row (every column, by
    name), the unit of the byte-identity checks between runs."""
    cols = sorted(table.column_names)
    return [(row["url"], hashlib.md5(repr(row).encode("utf-8")).hexdigest())
            for row in table.select(cols).to_pylist()]


def mismatched_rows(want: pa.Table, got: pa.Table, copies: int = 1) -> set[str]:
    """Urls whose rows in ``got`` are not exactly ``copies`` byte-identical
    copies of their row in ``want``."""
    expected = Counter({key: copies for key in row_digests(want)})
    actual = Counter(row_digests(got))
    return {url for url, _ in (expected - actual) + (actual - expected)}
