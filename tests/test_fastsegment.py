"""Equivalence suite: the regex-scanner segmenter must be
block-identical to the stdlib html.parser reference on every input we
can construct — this is the determinism gate for swapping parsers
(SURVEY.md §7 hard parts: all workers must run the same one)."""

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidaba_ray import synth
from nidaba_ray.stages.segment import segment_html, segment_html_stdlib


def tup(bs):
    return [(b.kind, b.depth, b.text, b.anchor_chars, b.in_chrome, b.n_tags)
            for b in bs]


def assert_same(html):
    assert tup(segment_html(html)) == tup(segment_html_stdlib(html)), html


def test_synth_corpus_equivalence():
    rng = random.Random(3)
    vocab = [f"word{i:03d}" for i in range(100)]
    for doc_id in range(150):
        if synth.payload_kind(doc_id) != "html":
            continue
        text = " ".join(rng.choice(vocab) for _ in range(rng.randint(5, 200)))
        assert_same(synth.make_html(doc_id, text, "en").decode())


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
]


def test_tag_soup_fuzz_equivalence():
    rng = random.Random(7)
    for _ in range(800):
        html = "".join(rng.choice(FRAGS) for _ in range(rng.randint(2, 50)))
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
])
def test_known_edge_cases(html):
    assert_same(html)
