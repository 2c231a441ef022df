"""robots.txt (RFC 9309): parse + longest-match decisions pinned to
the spec's own examples, group selection, the URL gate stage, and
the registry wiring."""
from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq

from nidaba_ray.functions.robots import (
    RobotsMatcher,
    parse_robots,
    robots_filter_batch,
)


def test_rfc_longest_match_examples():
    """The RFC 9309 §5.2 precedence table."""
    m = RobotsMatcher("User-agent: *\nAllow: /p\nDisallow: /")
    assert m.allowed("/page")
    m = RobotsMatcher("User-agent: *\nAllow: /folder\nDisallow: /folder")
    assert m.allowed("/folder/page")      # tie → least restrictive
    m = RobotsMatcher("User-agent: *\nAllow: /page\nDisallow: /*.ph")
    assert m.allowed("/page.php5")        # equal length 5 → allow
    m = RobotsMatcher("User-agent: *\nAllow: /page\nDisallow: /*.htm")
    assert not m.allowed("/page.htm")     # /*.htm matched is longer? no:
    # pattern LENGTHS compare: /page=5, /*.htm=6 → disallow wins
    m = RobotsMatcher("User-agent: *\nAllow: /$\nDisallow: /")
    assert m.allowed("/")                 # anchor beats the bare /
    assert not m.allowed("/page.htm")


def test_wildcards_and_anchor():
    m = RobotsMatcher("User-agent: *\nDisallow: /fish*.php$")
    assert not m.allowed("/fishheads/catfish.php")
    assert m.allowed("/fish.php5")
    assert m.allowed("/Fish.php")         # patterns are case-sensitive
    m = RobotsMatcher("User-agent: *\nDisallow: /fish")
    assert not m.allowed("/fish")
    assert not m.allowed("/fishheads")
    assert m.allowed("/catfish")          # prefix, not substring


def test_group_selection_most_specific():
    txt = """
User-agent: googlebot-news
Disallow: /news-off

User-agent: googlebot
Disallow: /bot-off

User-agent: *
Disallow: /all-off
"""
    assert parse_robots(txt, "googlebot-news") == [(False, "/news-off")]
    assert parse_robots(txt, "googlebot-images") == [(False, "/bot-off")]
    assert parse_robots(txt, "otherbot") == [(False, "/all-off")]
    # adjacent UA lines share one group
    shared = "User-agent: a\nUser-agent: b\nDisallow: /x\n"
    assert parse_robots(shared, "a") == parse_robots(shared, "b") == [
        (False, "/x")]


def test_parse_edges():
    # empty Disallow allows everything; rules before any UA are void;
    # comments and unknown directives ignored; default is allow
    assert parse_robots("Disallow: /early\nUser-agent: *\nDisallow:\n") == []
    assert RobotsMatcher("").allowed("/anything")
    txt = ("User-agent: *  # trailing comment\n"
           "Crawl-delay: 10\nSitemap: https://x/s.xml\n"
           "Disallow: /private # comment\n")
    m = RobotsMatcher(txt)
    assert not m.allowed("/private/x")
    assert m.allowed("/public")


def test_robots_filter_batch_gate():
    robots = {
        "a.example": "User-agent: *\nDisallow: /private\nAllow: /private/ok\n",
        "b.example": "User-agent: *\nDisallow: /\n",
    }
    t = pa.table({
        "url": pa.array([
            "https://a.example/page",
            "https://a.example/private/x",
            "https://a.example/private/ok/y",
            "https://B.EXAMPLE/anything",       # host matching is lowercase
            "https://c.example/no-robots",      # no entry → allowed
            "http://[bad",                      # unparseable → dropped
        ], pa.string()),
        "doc_id": pa.array(list(range(6)), pa.int64()),
    })
    kept = robots_filter_batch(t, robots=robots)
    assert kept["doc_id"].to_pylist() == [0, 2, 4]
    # query strings participate in the matched path
    t2 = pa.table({"url": pa.array(
        ["https://a.example/private?x=1", "https://a.example/p?x=1"])})
    assert robots_filter_batch(
        t2, robots=robots)["url"].to_pylist() == ["https://a.example/p?x=1"]


def test_registry_stage(ray_session, tmp_path):
    import ray.data as rd

    from nidaba_ray.stages import registry

    assert "clean.robots" in registry.list_stages()
    t = pa.table({
        "url": pa.array(["https://x.example/keep", "https://x.example/no/1"]),
        "html": pa.array([b"a", b"b"], pa.binary()),
    })
    pq.write_table(t, str(tmp_path / "p.parquet"))
    out = registry.compile_pipeline(
        rd.read_parquet(str(tmp_path / "p.parquet")),
        [{"stage": "clean.robots", "fn_kwargs": {
            "robots": {"x.example": "User-agent: *\nDisallow: /no\n"}}}],
    ).to_pandas()
    assert out["url"].tolist() == ["https://x.example/keep"]


def test_robots_extras_sitemaps_and_delay():
    from nidaba_ray.functions.robots import robots_extras

    txt = """
# harbor site
Sitemap: https://ex.com/sitemap.xml
User-agent: googlebot
Crawl-delay: 2
Disallow: /private
User-agent: *
Crawl-delay: 0.5
Disallow: /tmp
Sitemap: https://ex.com/news.xml
Sitemap: https://ex.com/sitemap.xml
"""
    maps, delay = robots_extras(txt, "googlebot-news")
    assert maps == ["https://ex.com/sitemap.xml",
                    "https://ex.com/news.xml"]  # global, file order, deduped
    assert delay == 2000  # longest-token group wins
    maps2, delay2 = robots_extras(txt, "otherbot")
    assert maps2 == maps and delay2 == 500  # star group, fractional
    assert robots_extras("User-agent: *\nDisallow:", "x")[1] == 0


def test_robots_extras_invalid_delay_is_zero():
    from nidaba_ray.functions.robots import robots_extras

    txt = "User-agent: *\nCrawl-delay: soon\nDisallow: /x"
    assert robots_extras(txt, "anybot") == ([], 0)


def test_robots_filter_cache_follows_body():
    """A host's matcher is cached per robots body: the same host under
    a changed body (a re-fetched robots.txt) is judged by the new one."""
    t = pa.table({"url": pa.array(["https://recache.example/page"])})
    deny = {"recache.example": "User-agent: *\nDisallow: /\n"}
    allow = {"recache.example": "User-agent: *\nAllow: /\n"}
    assert robots_filter_batch(t, robots=deny).num_rows == 0
    assert robots_filter_batch(t, robots=allow).num_rows == 1
    assert robots_filter_batch(t, robots=deny).num_rows == 0
