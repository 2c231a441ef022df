"""URL canonicalization + canonical-URL re-crawl dedup pins: byte
parity between the Python kernel and the DuckDB scalar expression,
idempotence (incl. hypothesis fuzz over composed URL parts), and the
windowed SQL replay of keep-latest dedup."""

from __future__ import annotations

import datetime as dt

import duckdb
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidaba_ray.functions.urls import (
    url_canon_sql,
    url_canonicalize,
    url_dedup_sql,
)

CASES = [
    # tracking params drop, rest sort
    "https://Example.COM/a/b?utm_source=x&z=2&a=1&fbclid=abc",
    # default ports drop (scheme-matched only)
    "http://example.com:80/x",
    "https://example.com:443/x",
    "http://example.com:443/x",     # NOT default for http — kept
    "https://example.com:8080/x",   # non-default — kept
    # fragment strips; empty path becomes /
    "https://example.com#frag",
    "https://example.com?b=2&a=1#frag",
    # empty params and all-tracking queries lose the ?
    "https://example.com/p?&&",
    "https://example.com/p?utm_campaign=only&gclid=1",
    # ref / ref_src exact-name semantics: refx is NOT tracking
    "https://example.com/p?refx=1&ref=2&ref_src=t",
    # userinfo lowercased with the authority (documented)
    "https://User:Pw@Example.com/secret",
    # second '?' belongs to the first param's value
    "http://example.com/p?a=1?b=2&c=3",
    # '?' inside the fragment is not a query
    "http://example.com/p#?notquery=1",
    # dot segments preserved (documented non-goal)
    "http://example.com/a/./b/../c",
    # non-URLs pass through untouched
    "not a url",
    "mailto:user@example.com",
    "",
    # scheme case folds
    "HTTPS://EXAMPLE.COM/A?B=1",
    # ASCII-only fold: Unicode uppercase stays (U+0130 lowers
    # differently in Python str.lower() vs DuckDB lower(), so neither
    # side folds it — review finding, session 4)
    "http://İstanbul.example/x",
    "https://MÜNCHEN.example/straße",
]


def _duck_canon(urls: list[str]) -> list[str]:
    con = duckdb.connect()
    con.execute("CREATE TABLE t(url VARCHAR)")
    con.executemany("INSERT INTO t VALUES (?)", [(u,) for u in urls])
    expr = url_canon_sql("url")
    return [r[0] for r in con.execute(
        f"SELECT {expr} FROM t ORDER BY rowid").fetchall()]


def test_canonicalize_matches_duckdb_bytewise():
    got = [url_canonicalize(u) for u in CASES]
    oracle = _duck_canon(CASES)
    assert got == oracle


def test_canonicalize_expected_values():
    assert url_canonicalize(
        "https://Example.COM/a/b?utm_source=x&z=2&a=1&fbclid=abc"
    ) == "https://example.com/a/b?a=1&z=2"
    assert url_canonicalize("http://example.com:80/x") == "http://example.com/x"
    assert url_canonicalize("http://example.com:443/x") == "http://example.com:443/x"
    assert url_canonicalize("https://example.com#frag") == "https://example.com/"
    assert url_canonicalize("https://example.com/p?utm_campaign=x&gclid=1") == \
        "https://example.com/p"
    assert url_canonicalize("https://example.com/p?refx=1&ref=2&ref_src=t") == \
        "https://example.com/p?refx=1"
    assert url_canonicalize("not a url") == "not a url"
    # non-ASCII letters are untouched; ASCII letters beside them fold
    assert url_canonicalize("http://İstanbul.EXAMPLE/x") == \
        "http://İstanbul.example/x"


def test_canonicalize_idempotent_on_cases():
    for u in CASES:
        c = url_canonicalize(u)
        assert url_canonicalize(c) == c, u


def test_canon_column_prescreen_equals_scalar():
    """The vectorized fast path must equal the per-row kernel: on the
    tricky CASES (every flag fires), on an already-canonical batch
    (fast path returns the input), and on a mixed batch."""
    import pyarrow as pa

    from nidaba_ray.functions.urls import canon_url_column

    want = [url_canonicalize(u) for u in CASES]
    assert canon_url_column(pa.array(CASES, pa.string())).to_pylist() == want
    clean = ["http://a.example/x", "https://b.example/p/q?a=1&b=2",
             "ftp://c.example/f", "not a url at all"]
    assert [url_canonicalize(u) for u in clean] == clean  # truly clean
    got = canon_url_column(pa.chunked_array([clean[:2], clean[2:]]))
    assert got.to_pylist() == clean
    mixed = clean + CASES + [None]
    got2 = canon_url_column(pa.array(mixed, pa.string())).to_pylist()
    assert got2 == clean + want + [None]


_part = st.text(
    # includes %-escapes-in-the-raw, parameter metacharacters, pipe
    # (the dedup key separator) and colon — everything that could
    # stress the raw-text contract on both engines
    alphabet="abcXYZ019-._~%=&|:", min_size=0, max_size=6
)


@settings(max_examples=200, deadline=None)
@given(
    scheme=st.sampled_from(["http", "https", "HTTP", "ftp"]),
    host=st.sampled_from(["Example.com", "a.b.co.uk", "X.Y:80", "h:443", "h:8080"]),
    path=st.lists(_part, max_size=3),
    params=st.lists(
        st.tuples(st.sampled_from(["a", "z", "utm_x", "ref", "refx", "gclid"]),
                  _part),
        max_size=4,
    ),
    frag=st.one_of(st.none(), _part),
)
def test_canonicalize_fuzz_idempotent_and_sql_equal(
    scheme, host, path, params, frag
):
    url = f"{scheme}://{host}"
    if path:
        url += "/" + "/".join(path)
    if params:
        url += "?" + "&".join(f"{k}={v}" for k, v in params)
    if frag is not None:
        url += "#" + frag
    c = url_canonicalize(url)
    assert url_canonicalize(c) == c
    assert _duck_canon([url]) == [c]


def _pages_table() -> pa.Table:
    base = dt.datetime(2024, 3, 1, tzinfo=dt.timezone.utc)
    rows = [
        # three captures of one canonical page (tracking-param + case
        # aliases) — latest wins
        ("https://example.com/story?utm_source=feed", 0, b"v1"),
        ("https://EXAMPLE.com/story", 2, b"v3"),
        ("https://example.com/story#top", 1, b"v2"),
        # raw-url tie at the same (latest) ts — lexicographic min wins
        ("https://example.com/tie?b=1&a=1", 5, b"t1"),
        ("https://example.com/tie?a=1&b=1", 5, b"t2"),
        # singleton
        ("http://example.com:80/only", 3, b"s1"),
    ]
    return pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "warc_ts": pa.array(
                [base + dt.timedelta(hours=r[1]) for r in rows],
                pa.timestamp("us", tz="UTC"),
            ),
            "html": pa.array([r[2] for r in rows], pa.binary()),
        }
    )


def test_url_dedup_latest_matches_sql_window(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import ray.data as rd

    from nidaba_ray.functions.urls import url_dedup_latest

    t = _pages_table()
    p = str(tmp_path / "pages.parquet")
    pq.write_table(t, p)

    got = (
        url_dedup_latest(rd.from_arrow(t))
        .to_pandas()
        .sort_values("canon_url")
        .reset_index(drop=True)
    )
    oracle = (
        duckdb.sql(url_dedup_sql(p))
        .df()
        .sort_values("canon_url")
        .reset_index(drop=True)
    )
    assert got["canon_url"].tolist() == oracle["canon_url"].tolist()
    assert got["url"].tolist() == oracle["url"].tolist()
    assert [bytes(b) for b in got["html"]] == \
        [bytes(b) for b in oracle["html"]]
    # the intended winners, by hand
    by_canon = dict(zip(got["canon_url"], got["html"]))
    assert bytes(by_canon["https://example.com/story"]) == b"v3"
    assert bytes(by_canon["https://example.com/tie?a=1&b=1"]) == b"t2"
    assert bytes(by_canon["http://example.com/only"]) == b"s1"


def test_url_dedup_registry_stage_composes(ray_session):
    """`dedup.url_latest` is the first DATASET-LEVEL registry stage:
    compile_pipeline must route it the whole Dataset, and its default
    output schema equals its input schema (so it chains ahead of the
    extraction stages)."""
    import ray.data as rd

    from nidaba_ray.stages.registry import compile_pipeline

    ds = rd.from_arrow(_pages_table())
    out = compile_pipeline(ds, [{"stage": "dedup.url_latest"}])
    df = out.to_pandas()
    assert set(df.columns) == {"url", "warc_ts", "html"}
    assert len(df) == 3  # one survivor per canonical url
    kept = compile_pipeline(
        ds, [{"stage": "dedup.url_latest", "keep_canon": True}]
    ).to_pandas()
    assert "canon_url" in kept.columns


def test_url_dedup_chains_into_extraction(ray_session):
    """The session's composition story: re-crawl dedup ahead of the
    flagship extraction chain, all through the spec compiler — the
    surviving (latest) capture is the one whose text is extracted."""
    import datetime as dt

    import ray.data as rd

    from nidaba_ray.stages.registry import compile_pipeline

    def page(body: str) -> bytes:
        return (
            "<html><body><main><article><p>" + body +
            "</p></article></main></body></html>"
        ).encode("utf-8")

    old_body = ("The first capture of this page said the ferry "
                "schedule would change in April after the spring "
                "inspection of the landing ramps.")
    new_body = ("The updated capture says the ferry schedule changes "
                "in May instead, because the ramp inspection found "
                "two pilings that need replacement first.")
    base = dt.datetime(2024, 3, 1, tzinfo=dt.timezone.utc)
    pages = pa.table(
        {
            "url": pa.array(
                ["https://example.com/sched?utm_source=a",
                 "https://EXAMPLE.com/sched",
                 "https://example.com/other"], pa.string()),
            "warc_ts": pa.array(
                [base, base + dt.timedelta(days=1), base],
                pa.timestamp("us", tz="UTC")),
            "html": pa.array(
                [page(old_body), page(new_body), page("Unrelated page "
                 "content that survives on its own url.")], pa.binary()),
            "lang": pa.array(["en"] * 3, pa.string()),
            "text": pa.array([""] * 3, pa.string()),
        }
    )
    spec = [
        {"stage": "dedup.url_latest"},
        {"stage": "extract.text", "batch_size": 8, "concurrency": [1, 2]},
    ]
    out = compile_pipeline(rd.from_arrow(pages), spec).to_pandas()
    assert len(out) == 2
    by_url = dict(zip(out["url"], out["text"]))
    assert by_url["https://EXAMPLE.com/sched"] == new_body
    assert old_body not in set(out["text"])
    # the shipped example spec (adds clean.mojibake mid-chain) agrees
    # on this clean corpus
    import os

    from nidaba_ray.stages.registry import load_spec

    spec_path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "examples", "recrawl_extract.yaml")
    out2 = compile_pipeline(
        rd.from_arrow(pages), load_spec(spec_path)
    ).to_pandas()
    assert sorted(out2["text"]) == sorted(out["text"])
