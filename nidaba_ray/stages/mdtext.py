"""Markdown payload extraction — the documentation-corpus dialect
(round-5 session 7). GitHub/readthedocs-style crawls serve
``text/markdown`` bodies; without this they pass the plain-text gate
but keep their syntax (``# Heading``, ``[text](url)``, fences) as
literal text. This strips the syntax down to the prose, conservatively.

Detection (:func:`looks_like_markdown`) requires UNAMBIGUOUS markers —
an ATX heading or a code fence at line start, or an inline link AND a
list bullet — so ordinary plain text (which may legitimately contain a
stray ``#`` or ``*``) never mis-kinds; the caller only tries this after
the plain-text gate already passed (no ``<`` markup).

Paragraph semantics (deterministic, pinned in tests/test_mdtext.py):
blank-line blocks split first; inside a block each LIST ITEM is its
own paragraph (bullet or ordered); fenced code blocks become one
paragraph with internal newlines preserved; headings drop their
``#`` prefix; blockquote ``>`` prefixes strip; links/images keep their
text/alt and drop the URL; backtick, ``**`` and ``__`` emphasis pairs
strip; single ``*``/``_`` are left alone (too ambiguous in prose).
"""

from __future__ import annotations

import re

from nidaba_ray.algorithms.strings import PARA_SPLIT_RE, WS_RUN_RE

__all__ = ["looks_like_markdown", "markdown_paragraphs"]

_HEADING_RE = re.compile(r"(?m)^#{1,6} \S")
_FENCE_RE = re.compile(r"(?m)^(```+|~~~+)")
_LINK_RE = re.compile(r"\]\(")
_BULLET_RE = re.compile(r"(?m)^[ \t]{0,3}[-*+] \S")
_ORDERED_RE = re.compile(r"(?m)^[ \t]{0,3}\d{1,3}\. \S")

_IMG_INLINE_RE = re.compile(r"!\[([^\]]*)\]\([^)]*\)")
_LINK_INLINE_RE = re.compile(r"\[([^\]]*)\]\([^)]*\)")
_BOLD_RE = re.compile(r"\*\*([^*]+)\*\*|__([^_]+)__")
_CODE_SPAN_RE = re.compile(r"`([^`]*)`")
_HEADING_STRIP_RE = re.compile(r"^#{1,6} ")
_QUOTE_STRIP_RE = re.compile(r"(?m)^[ \t]{0,3}> ?")
_ITEM_SPLIT_RE = re.compile(
    r"(?m)^[ \t]{0,3}(?:[-*+]|\d{1,3}\.) ")


def looks_like_markdown(text: str) -> bool:
    head = text[:2048]
    if _HEADING_RE.search(head) or _FENCE_RE.search(head):
        return True
    return bool(_LINK_RE.search(head)
                and (_BULLET_RE.search(head) or _ORDERED_RE.search(head)))


def _inline(text: str) -> str:
    text = _IMG_INLINE_RE.sub(r"\1", text)
    text = _LINK_INLINE_RE.sub(r"\1", text)
    text = _BOLD_RE.sub(lambda m: m.group(1) or m.group(2) or "", text)
    return _CODE_SPAN_RE.sub(r"\1", text)


def markdown_paragraphs(text: str) -> list[str]:
    """Markdown document → clean text paragraphs (module docstring)."""
    out: list[str] = []
    pos = 0
    # carve out fenced code blocks first — their content is verbatim
    # (no inline/bullet handling) and keeps its newlines
    for m in re.finditer(
            r"(?ms)^(```+|~~~+)[^\n]*\n(.*?)^\1`*~*[ \t]*$", text):
        out_before = _prose_paragraphs(text[pos:m.start()])
        out.extend(out_before)
        code = m.group(2).rstrip("\n")
        if code.strip():
            out.append(code)
        pos = m.end()
    out.extend(_prose_paragraphs(text[pos:]))
    return out


_HEADING_LINE_RE = re.compile(r"(?m)^(#{1,6} [^\n]*)$")


def _prose_paragraphs(chunk: str) -> list[str]:
    paras: list[str] = []
    for block in PARA_SPLIT_RE.split(chunk):
        if not block.strip():
            continue
        block = _QUOTE_STRIP_RE.sub("", block)
        # heading lines are their own paragraphs even without a blank
        # line after them (the "# Title\ntext" style)
        for seg in _HEADING_LINE_RE.split(block):
            if not seg.strip():
                continue
            # list blocks: one paragraph per item; the anchored prefix
            # split also consumes the first item's bullet
            parts = _ITEM_SPLIT_RE.split(seg)
            for part in (parts if len(parts) > 1 else [seg]):
                part = _HEADING_STRIP_RE.sub("", part.strip())
                part = WS_RUN_RE.sub(" ", _inline(part)).strip()
                if part:
                    paras.append(part)
    return paras
