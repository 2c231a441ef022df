"""RSS / Atom / RDF feed extraction — the syndication payload dialect
(round 5). Crawls of real sites return plenty of ``application/rss+xml``
/ ``application/atom+xml`` bodies; without this dialect they fall
through the html-structure gate and quarantine as unrecognized markup.

Reference behavior (SURVEY.md §0 reconstruction): nidaba has no feed
notion — this is engine surface the brief's "Common-Crawl-style pages"
input implies: every payload a crawler stores should either extract or
quarantine for a NAMED reason.

Extraction semantics (deterministic, pinned in tests/test_feeds.py):

* the channel/feed ``<title>`` becomes the first paragraph;
* each ``<item>`` (RSS 2.0 / RSS 1.0-RDF) or ``<entry>`` (Atom)
  contributes its title as one paragraph, then its richest body field
  — ``content:encoded`` over ``description`` for RSS, ``content`` over
  ``summary`` for Atom — as one or more paragraphs;
* body fields carry ESCAPED or CDATA-wrapped HTML: CDATA unwraps
  first, then ONE entity-unescape pass, then block-level tags
  (``<br>``, ``</p>``, ``</li>``, ``</div>``, headings) convert to
  paragraph breaks, remaining tags strip to spaces, and whitespace
  runs collapse — the same collapse contract as the plain-text
  dialect (stages/extract.py ``_extract_plain_text``).

Everything is compiled-regex over the decoded text (one compile at
import, RE2-compatible patterns that DuckDB could replay); no state,
no shuffle; the stage runs inside the existing extraction actor pool.
"""

from __future__ import annotations

import html as _html
import re

from nidaba_ray.algorithms.strings import split_paragraphs

__all__ = ["sniff_feed", "extract_feed_paragraphs"]

# ``<rss``/``<feed``/``<rdf:RDF`` as the first root-ish element — the
# sniff window is the decoded head, lowercased by the caller.
_RSS_ROOT = "<rss"
_ATOM_ROOT = "<feed"
_RDF_ROOT = "<rdf:rdf"

_ITEM_RE = re.compile(r"(?is)<item[\s>].*?</item\s*>|<item/>")
_ENTRY_RE = re.compile(r"(?is)<entry[\s>].*?</entry\s*>")
_TITLE_RE = re.compile(r"(?is)<title[^>]*>(.*?)</title\s*>")
_DESC_RE = re.compile(r"(?is)<description[^>]*>(.*?)</description\s*>")
_CONTENT_ENC_RE = re.compile(
    r"(?is)<content:encoded[^>]*>(.*?)</content:encoded\s*>")
_SUMMARY_RE = re.compile(r"(?is)<summary[^>]*>(.*?)</summary\s*>")
_CONTENT_RE = re.compile(r"(?is)<content[^>]*>(.*?)</content\s*>")
_CDATA_RE = re.compile(r"(?is)<!\[CDATA\[(.*?)\]\]>")
# block-level boundaries inside embedded item HTML → paragraph breaks
_BLOCK_BREAK_RE = re.compile(
    r"(?is)<br\s*/?>|</p\s*>|</li\s*>|</div\s*>|</h[1-6]\s*>|"
    r"</blockquote\s*>|</tr\s*>")
_TAG_RE = re.compile(r"(?s)<[^>]*>")


def sniff_feed(low_head: str) -> str | None:
    """``"rss" | "atom" | "rdf" | None`` from the LOWERCASED decoded
    head. HTML markers win upstream — the caller only sniffs feeds on
    payloads that failed the html-structure check, so a blog page that
    merely links its feed never lands here."""
    if _RSS_ROOT in low_head:
        return "rss"
    if _ATOM_ROOT in low_head:
        return "atom"
    if _RDF_ROOT in low_head:
        return "rdf"
    return None


def _field_paragraphs(raw: str) -> list[str]:
    """One escaped/CDATA body field → clean text paragraphs."""
    # CDATA content is verbatim (no entity decode inside); everything
    # OUTSIDE the CDATA sections gets exactly one unescape pass —
    # mixed fields keep both parts, in order.
    parts = []
    pos = 0
    for m in _CDATA_RE.finditer(raw):
        parts.append(_html.unescape(raw[pos:m.start()]))
        parts.append(m.group(1))
        pos = m.end()
    parts.append(_html.unescape(raw[pos:]))
    inner = "".join(parts)
    inner = _BLOCK_BREAK_RE.sub("\n\n", inner)
    return split_paragraphs(_TAG_RE.sub(" ", inner))


def _first(rx: re.Pattern, blob: str) -> str:
    m = rx.search(blob)
    return m.group(1) if m else ""


def extract_feed_paragraphs(text: str, kind: str) -> list[str]:
    """Decoded feed document → paragraph list (see module docstring).

    ``kind`` comes from :func:`sniff_feed`. Items missing both a title
    and a body contribute nothing; a feed with zero extractable
    paragraphs quarantines upstream ("feed: no item text")."""
    paras: list[str] = []
    if kind == "atom":
        entries = _ENTRY_RE.findall(text)
        head = _ENTRY_RE.split(text)[0]
    else:
        entries = _ITEM_RE.findall(text)
        head = _ITEM_RE.split(text)[0]
    # channel/feed title: first <title> BEFORE the first item/entry —
    # item titles must not leak into the channel slot.
    chan_title = _field_paragraphs(_first(_TITLE_RE, head))
    paras.extend(chan_title[:1])
    for blob in entries:
        paras.extend(_field_paragraphs(_first(_TITLE_RE, blob))[:1])
        if kind == "atom":
            body = (_first(_CONTENT_RE, blob)
                    or _first(_SUMMARY_RE, blob))
        else:
            body = (_first(_CONTENT_ENC_RE, blob)
                    or _first(_DESC_RE, blob))
        paras.extend(_field_paragraphs(body))
    return paras
