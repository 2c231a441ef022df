"""Equivalence suite: the regex-scanner segmenter must be
block-identical to the stdlib html.parser reference on every input we
can construct — this is the determinism gate for swapping parsers
(SURVEY.md §7 hard parts: all workers must run the same one)."""

import random
import string
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidaba_ray import realpages, synth
from nidaba_ray.algorithms.strings import sanitize
from nidaba_ray.stages import segment
from nidaba_ray.stages.segment import segment_html, segment_html_stdlib


def tup(bs):
    return [(b.kind, b.depth, b.text, b.anchor_chars, b.in_chrome, b.n_tags)
            for b in bs]


def assert_same(html):
    assert tup(segment_html(html)) == tup(segment_html_stdlib(html)), html


def synth_pages():
    rng = random.Random(3)
    vocab = [f"word{i:03d}" for i in range(100)]
    pages = []
    for doc_id in range(150):
        if synth.payload_kind(doc_id) != "html":
            continue
        text = " ".join(rng.choice(vocab) for _ in range(rng.randint(5, 200)))
        pages.append(synth.make_html(doc_id, text, "en").decode())
    return pages


def test_synth_corpus_equivalence():
    for html in synth_pages():
        assert_same(html)


def test_real_fixture_equivalence():
    # the 194 hand-labelled pages, sanitized as extraction does
    for html in realpages.fixture_pages_table().column("html").to_pylist():
        assert_same(sanitize(html.decode("utf-8"), "NFC"))


def test_fast_lane_carries_most_tokens(monkeypatch):
    # timing-free guard: only rare tokens may leave the one-regex lane
    # for the faithful html.parser transcription
    calls = []
    faithful = segment._faithful_token

    def counted(*args):
        calls.append(args[1])
        return faithful(*args)

    monkeypatch.setattr(segment, "_faithful_token", counted)
    pages = synth_pages()
    for html in pages:
        segment_html(html)
    n_lt = sum(html.count("<") for html in pages)
    assert calls and len(calls) <= 0.05 * n_lt, (len(calls), n_lt)


FRAGS = [
    "<p>", "</p>", "<div>", "</div>", "<b>", "</i>", "text here ", "&amp; ",
    "<a href='/x'>", "</a>", "<li>", "<ul>", "</ul>", "<br>", "<img src=x>",
    "< notag ", "<script>var a = 1 < 2;</script>", "<!-- comment -->",
    "<nav>", "</nav>", "words ", "<h2>", "</h2>", "<td>", "&#65; ",
    "<style>p{color:red}</style>", '<p class="x>y">', "<div/>", "</notopen>",
    "<aside>", "</aside>", "<footer>", "</footer>", "<pre>", "</pre>",
    "<table>", "<tr>", "</tr>", "</table>", "&lt;tag&gt; ", "\n\t ",
    # pathological tag soup (the stdlib-parity hard cases)
    '<A">', '"', "<", ">", "'", "<b", "=", "/", "</>", "</12>", "<p.q>",
    "</p attr>", "<p/>", "<b<em>", "<p\tc=1>", "<b/ x>", "<b /x>",
    "<img src=x/>", "attr='v'", "<g c=/>", "</scripty>",
    "<a href=x\"y>", '<a href="x>',
    # non-strict end tags: the tolerant name runs to whitespace, '/',
    # '>' or NUL, so these close nothing (or only their own name)
    "</li|", "</a\x17", "</p x", "</b<i>",
    # attr-driven semantics (chrome classes, hidden subtrees, roles)
    '<div class="sidebar">', '<div class=cookie-banner>', "</div>",
    '<section id="comments">', "</section>", '<div class="article-body">',
    "<div hidden>", '<div aria-hidden="true">', '<div aria-hidden="false">',
    '<span style="display:none">', "</span>", '<ul role="navigation">',
    '<div class="a&amp;b-nav">', "<p hidden>", '<div class>', "<div class=>",
    '<div class="share social">', '<td class="meta">', "</td>",
    '<div aria-modal="true">', '<div aria-modal="false">',
    # fast-lane boundaries: html.parser's tag name runs through Unicode
    # whitespace, NUL and CR/LF shapes, case, odd name characters,
    # quoted '>' and empty/valueless/entity attribute values
    "<p\xa0x>", "<p\vx>", "<em\x00>", "<i\r\n>", "</i\n>", "<P>",
    '<a HREF="/q" rel="n">', "<x:y>", "<p-q>", "<a.b>", '<a href="a>b">',
    '<a b="">', "<a b c>", '<a b="&amp;">',
]


def test_tag_soup_fuzz_equivalence():
    rng = random.Random(7)
    for _ in range(800):
        html = "".join(rng.choice(FRAGS) for _ in range(rng.randint(2, 50)))
        assert_same(html)


SOUP = "<>/=\"' \t\n\xa0\vabcpdiv"


def test_extended_fuzz_equivalence():
    # half FRAGS mixes, half character soup around the fast lane's
    # boundaries (quotes, '=', ASCII vs Unicode whitespace)
    rng = random.Random(11)
    for i in range(30_000):
        if i % 2:
            html = "".join(rng.choices(SOUP, k=rng.randint(1, 40)))
        else:
            html = "".join(rng.choices(FRAGS, k=rng.randint(1, 12)))
        assert_same(html)


@given(st.lists(st.sampled_from(FRAGS), min_size=0, max_size=30))
@settings(max_examples=150, deadline=None)
def test_fragment_equivalence_property(frags):
    assert_same("".join(frags))


@given(st.text(alphabet=string.printable, max_size=200))
@settings(max_examples=150, deadline=None)
def test_arbitrary_text_equivalence(text):
    # printable-garbage inputs: both parsers must agree AND not raise
    assert_same(text)


@pytest.mark.parametrize("html", [
    "",
    "plain text only",
    "<p>&amp;&lt;&gt;&quot;&#39;&#x41;</p>",
    "<P><B>UPPER</B> case tags</P>",
    "<script>while (a<b) { x('</div>'); }</script><p>after</p>",
    "<p>a<br>b<br/>c</p>",
    "<ul><li>one<li>two<li>three</ul>",          # unclosed li chain
    "<table><tr><td>a<td>b</table>",             # unclosed td chain
    "<div><p>outer<div>inner</div></p></div>",
    "<a href='/x'>link <b>bold</b> tail</a>",
    "<!DOCTYPE html><?xml version='1.0'?><p>x</p>",
    "<![CDATA[ not text ]]><p>y</p>",
    "<p title='a>b'>attr with gt</p>",
    "<p>x<âl>y <ß>z</p>",                        # '<' + non-ASCII letter
    "<ul><li>a</li|<li>b",                       # '</li|<li>' closes nothing
    '<div aria-modal="true"><p>modal text</p></div><p>page</p>',
])
def test_known_edge_cases(html):
    assert_same(html)


HOSTILE = [
    lambda n: "<b>" * n + "</i>" * n,          # unmatched end tags, deep stack
    lambda n: "<span>" * n + "<p>t</p>" * n,   # matches on top of a deep stack
    lambda n: '<div class="x">y' * n,          # every tag declined
    lambda n: "<!x>y" * n,                     # declaration soup
    lambda n: "< y" * n,                       # stray '<' as text
]
HOSTILE_IDS = ["unmatched_end", "deep_open", "declined_tags", "declarations",
               "stray_lt"]


def _min_of_3(fn, html):
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fn(html)
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.parametrize("shape", HOSTILE, ids=HOSTILE_IDS)
@pytest.mark.parametrize("fn", [segment_html, segment_html_stdlib])
def test_hostile_nesting_is_linear(fn, shape):
    # "is this tag open?" must not scan the stack: 8× the input may cost
    # ~8× the time; a scan is quadratic in depth and costs ~64×
    assert_same(shape(500))
    ratio = _min_of_3(fn, shape(16_000)) / _min_of_3(fn, shape(2_000))
    assert ratio < 20, ratio


class _CheckedMachine(segment.BlockMachine):
    """Feeds one event at a time and asserts after every event that the
    per-tag open count is the open-tag stack's contents."""

    __slots__ = ()

    def feed(self, events, decoded=False):
        for event in events:
            super().feed((event,), decoded)
            assert +Counter(self.n_open) == Counter(self.stack), event


def test_open_tag_count_tracks_the_stack(monkeypatch):
    # "is this tag open?" reads the count, not the stack; a count that
    # drifts from the stack turns a stray end tag into a pop-to-empty,
    # which both fronts would share, so the equivalence tests miss it
    monkeypatch.setattr(segment, "BlockMachine", _CheckedMachine)
    rng = random.Random(13)
    pages = ["".join(rng.choice(FRAGS) for _ in range(rng.randint(2, 50)))
             for _ in range(2000)]
    pages += [shape(50) for shape in HOSTILE] + synth_pages()
    for html in pages:
        segment_html(html)
        segment_html_stdlib(html)


@pytest.mark.parametrize("k", [200_000, 800_000])
def test_inline_soup_memory_is_bounded(k):
    # one block of k inline elements: the token list is built one
    # window at a time, so the peak stays near the page's own size
    html = "<p>" + "<b>x</b>" * k
    tracemalloc.start()
    try:
        blocks = segment_html(html)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(b.text, b.n_tags) for b in blocks] == [("x" * k, k)]
    assert peak < (16 << 20) + 2 * len(html), (peak, len(html))


def _tiling_pages():
    rng = random.Random(17)
    pages = ["".join(rng.choice(FRAGS) for _ in range(rng.randint(2, 50)))
             for _ in range(300)]
    return pages + synth_pages()


def test_tokens_tile_the_page():
    # the whole-token groups join back to the page, and every '<'
    # starts a token
    for html in _tiling_pages():
        toks = segment._FAST.findall(html)
        assert "".join(t[0] for t in toks) == html
        starts, off = set(), 0
        for t in toks:
            starts.add(off)
            off += len(t[0])
        assert {i for i, c in enumerate(html) if c == "<"} <= starts, html


def test_window_size_does_not_change_blocks(monkeypatch):
    # a 7-character window cuts nearly every page many times, also
    # inside comments, script bodies and tags the fast lane declines
    pages = _tiling_pages()
    pages += [sanitize(h.decode("utf-8"), "NFC") for h in
              realpages.fixture_pages_table().column("html").to_pylist()]
    want = [tup(segment_html(html)) for html in pages]
    monkeypatch.setattr(segment, "_WINDOW", 7)
    assert [tup(segment_html(html)) for html in pages] == want
