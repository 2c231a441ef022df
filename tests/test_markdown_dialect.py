"""Markdown output/input dialect (stages/serialize.py round-5
session 7): real-markdown rendering by block kind, lossless roundtrip
(serialize → load → serialize byte-identical) over both real extraction
output and adversarial span content."""

from __future__ import annotations

import pyarrow as pa

from nidaba_ray import synth
from nidaba_ray.record import SPAN_TYPE, assign_offsets
from nidaba_ray.stages.serialize import load_markdown_rows, to_markdown_rows


def _batch(spans, url="https://ex.com/a", lang="en"):
    from nidaba_ray.record import PROVENANCE_STRUCT, spans_to_text

    spans = assign_offsets(spans)
    return pa.table({
        "url": pa.array([url], pa.string()),
        "lang": pa.array([lang], pa.string()),
        "spans": pa.array([spans], SPAN_TYPE),
        "text": pa.array([spans_to_text(spans)], pa.string()),
        "provenance": pa.array([[]], pa.list_(PROVENANCE_STRUCT)),
    })


def _span(i, kind, text, depth=2):
    return {"block_id": i, "kind": kind, "depth": depth,
            "text_density": 1.0, "link_density": 0.0, "score": 5.0,
            "text": text, "start": 0, "end": 0}


def test_markdown_rendering():
    b = _batch([
        _span(0, "h1", "Title Here"),
        _span(1, "p", "A paragraph of text."),
        _span(2, "li", "first item"),
        _span(3, "blockquote", "quoted words"),
        _span(4, "pre", "code line 1\ncode line 2"),
        _span(5, "h3", "Sub heading"),
    ])
    md = to_markdown_rows(b)["markdown"].to_pylist()[0]
    assert "# Title Here" in md
    assert "\nA paragraph of text.\n" in md
    assert "\n- first item\n" in md
    assert "\n> quoted words\n" in md
    assert "```\ncode line 1\ncode line 2\n```" in md
    assert "### Sub heading" in md
    assert md.startswith('<!-- nb:doc url="https://ex.com/a" lang="en" -->')


def _roundtrip(b):
    first = to_markdown_rows(b)
    loaded = load_markdown_rows(first)
    again = to_markdown_rows(loaded)
    assert again["markdown"].to_pylist() == first["markdown"].to_pylist()
    return loaded


def test_roundtrip_real_extraction():
    from nidaba_ray.pipelines.extract import FusedExtract

    t = synth.pages_table(n=20).drop_columns(["golden", "doc_id"])
    b = FusedExtract(spell=False)(t)
    loaded = _roundtrip(b)
    assert loaded["url"].to_pylist() == b["url"].to_pylist()
    assert loaded["lang"].to_pylist() == b["lang"].to_pylist()
    for orig, got in zip(b["spans"].to_pylist(), loaded["spans"].to_pylist()):
        assert [(s["block_id"], s["kind"], s["depth"], s["text"],
                 s["start"], s["end"]) for s in got] == \
               [(s["block_id"], s["kind"], s["depth"], s["text"],
                 s["start"], s["end"]) for s in orig]


def test_roundtrip_adversarial_content():
    b = _batch([
        # a span whose text IS an nb comment line (and an escaped one)
        _span(0, "p", '<!-- nb:block id=9 kind="p" depth=0 start=0 end=0 -->'),
        _span(1, "p", '\\<!-- nb:doc url="x" lang="y" -->'),
        # code containing triple backticks and a comment-looking line
        _span(2, "pre", "```\n<!-- nb:block fake -->\n````inner"),
        # multi-line li / blockquote, empty continuation line
        _span(3, "li", "item first\n\ncontinued"),
        _span(4, "blockquote", "q one\nq two"),
        # heading whose text starts with hashes
        _span(5, "h2", "# not a level-1 heading"),
        # unicode + trailing-newline text
        _span(6, "p", "naïve — ütf ©ontent"),
    ], url='https://ex.com/?a="1"&b=2-->', lang="zh")
    loaded = _roundtrip(b)
    got = loaded["spans"].to_pylist()[0]
    texts = [s["text"] for s in got]
    assert texts == [
        '<!-- nb:block id=9 kind="p" depth=0 start=0 end=0 -->',
        '\\<!-- nb:doc url="x" lang="y" -->',
        "```\n<!-- nb:block fake -->\n````inner",
        "item first\n\ncontinued",
        "q one\nq two",
        "# not a level-1 heading",
        "naïve — ütf ©ontent",
    ]
    assert loaded["url"].to_pylist() == ['https://ex.com/?a="1"&b=2-->']
    assert loaded["lang"].to_pylist() == ["zh"]


def test_registry_has_markdown_stages():
    from nidaba_ray.stages.registry import get_stage, list_stages

    names = list_stages()
    assert "output.markdown" in names and "input.markdown" in names
    assert get_stage("output.markdown") is not None
