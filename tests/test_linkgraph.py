"""Link harvest (functions/linkgraph.py): byte-parity DuckDB replays
of the links table, fixture-corpus coverage, the distributed
harvest, and the crawl-frontier example spec."""

from __future__ import annotations

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

from nidaba_ray.functions.linkgraph import (
    harvest_links_batch,
    page_links,
    page_links_sql,
)

SF = "/root/testdata/sf0.001"


def _crafted_pages() -> pa.Table:
    return pa.table({
        "url": pa.array([
            "https://News.Example.com/a1",
            "https://blog.example.org/post?x=1",
            "ftp://weird.example/z",
        ], pa.string()),
        "html": pa.array([
            '<html><body><a href="https://Other.Example.NET/x">Go '
            '<b>there</b>\n now</a>'
            '<a href="/local/page">relative  link</a>'
            "<a href='//cdn.example.com/y'>proto-rel</a>"
            '<a name="anchor">no href</a>'
            '<a href="">empty</a>'
            '<a href="mailto:x@y">mail me</a>'
            '<a href="javascript:void(0)">js</a>'
            '<a href="ftp://files.example/f">ftp</a></body></html>',
            '<A HREF="HTTPS://NEWS.EXAMPLE.COM/b" class=x>back\tlink</A>',
            '<a href="https://blog.example.org/p">cross</a>',
        ], pa.string()),
    })


def test_links_duckdb_parity_crafted():
    pages = _crafted_pages()
    got = (harvest_links_batch(pages).to_pandas()
           .sort_values(["url", "link_idx"]).reset_index(drop=True))
    con = duckdb.connect()
    con.register("pages", pages)
    want = con.execute(page_links_sql()).df().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))
    # the drop rules: no-href, empty, mailto:, javascript:, ftp://
    assert len(got) == 5
    assert not got["href"].str.startswith(
        ("mailto", "javascript", "ftp")).any()
    # host semantics: ASCII fold, protocol-relative, self edges
    by_href = got.set_index("href")["dst_host"]
    assert by_href["https://Other.Example.NET/x"] == "other.example.net"
    assert by_href["/local/page"] == "news.example.com"
    assert by_href["//cdn.example.com/y"] == "cdn.example.com"
    # anchor text: tags stripped, whitespace collapsed
    assert got.set_index("href")["anchor"][
        "https://Other.Example.NET/x"] == "Go there now"


def test_links_duckdb_parity_fixture_corpus():
    """Every hand-authored fixture page (nav-heavy, entity-rich)
    through both engines. Fixture html is str; feed identical
    latin-1-roundtripped strings."""
    from nidaba_ray.realpages import FIXTURES

    pages = pa.table({
        "url": pa.array(
            [f"https://fix.example.org/{f['name']}" for f in FIXTURES],
            pa.string()),
        "html": pa.array(
            [f["html"].encode("utf-8").decode("latin-1")
             for f in FIXTURES], pa.string()),
    })
    got = (harvest_links_batch(pages).to_pandas()
           .sort_values(["url", "link_idx"]).reset_index(drop=True))
    assert len(got) > 400  # the corpus is link-rich by construction
    con = duckdb.connect()
    con.register("pages", pages)
    want = con.execute(page_links_sql()).df().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))


def test_page_links_distributed(ray_session):
    import ray.data as rd

    got = (page_links(rd.from_arrow(_crafted_pages()))
           .to_pandas().sort_values(["url", "link_idx"])
           .reset_index(drop=True))
    assert len(got) == 5


def test_crawl_frontier_example_spec(ray_session):
    """examples/crawl_frontier.yaml: robots gate → link harvest."""
    import ray.data as rd

    from nidaba_ray.stages import registry

    spec = registry.load_spec("examples/crawl_frontier.yaml")
    t = pa.table({
        "url": pa.array(["https://example.org/a",
                         "https://example.org/private/x"]),
        "lang": pa.array(["en", "en"]),
        "html": pa.array(
            [b'<a href="https://other.example/y">go</a>',
             b'<a href="https://never.example/z">hidden</a>'],
            pa.binary()),
    })
    out = registry.compile_pipeline(rd.from_arrow(t), spec).to_pandas()
    assert out["url"].tolist() == ["https://example.org/a"]
    assert out["dst_host"].tolist() == ["other.example"]
    assert registry.get_stage("extract.links") is not None
