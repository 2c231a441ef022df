"""Candidate extraction — payload sniff + parse → scored block spans.
The recognize-stage analog (ocr.tesseract / ocr.kraken, SURVEY.md
§2.2): per-block text extraction for HTML, PDF parse for binary
payloads, one dispatcher for every payload kind. Its batch entry,
``extract_columns``, is the first step of the ``FusedExtract`` actor
(pipelines/extract.py).

Why one dispatcher instead of two filtered branches + union: Ray Data
does not share a common upstream between branches of a DAG — two
``ds.filter`` branches over the same read would execute the read (and
ship every multi-MB payload) twice. PDF rows are a small fraction
(~3%), so dispatching on a magic-number sniff inside one pass over the
payload column moves each byte through the object store exactly once.

The parser state (compiled regexes, parser tables — the "model load"
of the recognizer analog) is built once per actor process, at module
import. Per-row errors are caught and emitted as quarantine rows
(``error`` column) — a poison payload never kills the task
(SURVEY.md §4.1 retries row).
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np
import pyarrow as pa

from nidaba_ray.algorithms.inflate import InflateError, inflate
from nidaba_ray.algorithms.strings import sanitize, split_paragraphs
from nidaba_ray.stages import feeds, mdtext, office
from nidaba_ray.stages import pdf as pdfmod
from nidaba_ray.stages import score as scoremod
from nidaba_ray.stages.segment import segment_html

__all__ = ["extract_columns", "extract_row", "ScoredBlocks"]


# (magic, codec): compressed wrappers inflated (capped) before the sniff
_COMPRESSED = (
    (b"\x1f\x8b", "gzip"),
    (b"BZh", "bzip2"),
    (b"\xfd7zXZ\x00", "xz"),
)


class _Quarantine(Exception):
    """A payload the text-decode ladder refuses; the message is the
    row's ``error``."""


def extract_row(payload: bytes, table: _BlockTable | None = None
                ) -> tuple[str, list[dict], str]:
    """One payload → (kind, spans, error). Pure; unit-testable.

    The row's blocks go into a block table: the batch's when
    ``extract_columns`` passes one, to be scored with the whole batch
    (``spans`` is then empty), else a one-row table of its own, scored
    here and returned as span dicts."""
    kind, items, err = _parse(payload)
    if table is not None:
        table.add_row(kind, items)
        return kind, [], err
    table = _BlockTable()
    table.add_row(kind, items)
    return kind, table.scored().span_dicts(0), err


def _parse(payload: bytes) -> tuple[str, list, str]:
    """One payload → (kind, items, error): ``items`` are the page's or
    the EPUB chapters' ``segment.Block`` lists for the HTML kinds
    (``_HTML_KINDS``), the paragraph texts for every other kind, and
    empty on a quarantine.

    Payload dialects (sniffed in order): gzip member (transparently
    inflated — CC WARC records are commonly per-record gzip), bzip2
    and xz members (dump mirrors — Wikipedia-style archives — serve
    both; round 5), %PDF, zip containers (docx/odt/xlsx/pptx/epub),
    RTF; everything else decodes to text (``_decode_text``) and is
    plain text, an RSS/Atom/RDF feed or HTML."""
    try:
        try:
            payload = _inflate_wrapper(payload)
        except InflateError as e:
            return "invalid", [], str(e)
        if payload[:4] == b"PK\x03\x04":
            return _extract_office(payload)
        if payload[:5] == b"{\\rtf":
            return _extract_doc("rtf", payload)
        if pdfmod.is_pdf(payload):
            return _result("pdf", pdfmod.extract_pdf_blocks(payload),
                           "no text operators found")
        text = _decode_text(payload)
        dialect, arg = _text_dialect(text)
        if dialect == "html":
            return _result("html", _html_pages(text), "no text blocks")
        if dialect == "feed":
            return _result("feed", feeds.extract_feed_paragraphs(text, arg),
                           "no item text")
        return _extract_plain_text(text, arg)
    except _Quarantine as e:
        return "invalid", [], str(e)
    except UnicodeDecodeError:
        return "invalid", [], "payload is neither PDF nor valid UTF-8"
    except Exception as e:  # per-row isolation: never kill the task
        return "invalid", [], f"extract error: {type(e).__name__}: {e}"


def _inflate_wrapper(payload: bytes) -> bytes:
    """The payload with one compressed wrapper (``_COMPRESSED``)
    inflated, capped; raises ``InflateError`` with a ``"{codec}: "``
    message."""
    for magic, codec in _COMPRESSED:
        if payload[:len(magic)] == magic:
            try:
                return inflate(payload, codec)
            except InflateError as e:
                raise InflateError(f"{codec}: {e}") from None
    return payload


def _text_dialect(text: str) -> tuple[str, str]:
    """How a decoded payload reads: ``("html", "")``, ``("feed", feed
    kind)`` or ``("text", the error if the plain-text gate refuses)``."""
    if "<" not in text:
        return "text", "payload is not markup"
    low = text[:512].lower()
    if not _has_html_marker(low):
        # syndication dialect: RSS/Atom/RDF roots never carry html
        # markers, so sniffing here can't shadow a real page
        fk = feeds.sniff_feed(low)
        if fk:
            return "feed", fk
        if "<body" not in low and "<p" not in low and "<div" not in low:
            return "text", "payload has no recognizable html structure"
    return "html", ""


def _has_html_marker(low: str) -> bool:
    """Unambiguous html structure in a lowercased page head."""
    return "<html" in low or "<!doctype" in low


def _utf16_stripe(payload: bytes) -> str | None:
    """BOM-less UTF-16 (IIS-era pages): a NUL-dense head is never valid
    in any listed 8-bit web charset, so the NUL stripe picks the
    endianness."""
    head = payload[:256]
    if head.count(0) < len(head) // 3:
        return None
    return ("utf-16-be" if head[0::2].count(0) > head[1::2].count(0)
            else "utf-16-le")


# the decode ladder, tried in order: (encoding picker, needs the html
# marker). Strict UTF-8 first; the declared charset only after UTF-8
# fails. The last two rungs would accept almost any bytes (a latin-1
# decode never fails), so they must show unambiguous html structure,
# or random binary would stop quarantining.
_DECODE_LADDER = (
    (lambda p: "utf-8", False),
    (lambda p: _sniff_charset(p[:2048]), False),
    (_utf16_stripe, True),
    (lambda p: "latin-1", True),
)


def _decode_text(payload: bytes) -> str:
    """The payload's text: a UTF-16 BOM decodes strictly, anything else
    (less an optional UTF-8 BOM) walks ``_DECODE_LADDER``; raises
    ``_Quarantine``."""
    if payload[:2] in (b"\xff\xfe", b"\xfe\xff"):
        # the "utf-16" codec consumes the BOM. FF FE also prefixes
        # UTF-32-LE — disambiguate on the next two bytes; UTF-32 pages
        # are effectively absent from the web.
        if payload[:4] == b"\xff\xfe\x00\x00":
            raise _Quarantine("utf-32 payloads unsupported")
        try:
            return payload.decode("utf-16")
        except UnicodeDecodeError:
            raise _Quarantine("utf-16: corrupt stream") from None
    if payload[:3] == b"\xef\xbb\xbf":
        payload = payload[3:]
    for pick, needs_marker in _DECODE_LADDER:
        enc = pick(payload)
        if enc is None:
            continue
        try:
            text = payload.decode(enc)
        except (UnicodeDecodeError, LookupError):
            continue
        if not needs_marker or _has_html_marker(text[:512].lower()):
            return text
    raise _Quarantine("payload is neither PDF nor valid UTF-8")


# <meta charset=…> / http-equiv Content-Type / XML declaration — the
# three places a legacy page declares its encoding
_CHARSET_RE = re.compile(
    rb"""(?i)(?:charset|encoding)\s*=\s*["']?\s*([a-z0-9_:.\-]+)""")

# allowlist of legacy web charsets (codecs.lookup on arbitrary
# attacker-controlled names would accept bytes-to-bytes and escape
# codecs — never decode through an unlisted name)
_WEB_CHARSETS = {
    "windows-1250", "windows-1251", "windows-1252", "windows-1253",
    "windows-1254", "windows-1255", "windows-1256", "windows-1257",
    "windows-1258", "cp1250", "cp1251", "cp1252", "cp1253", "cp1254",
    "cp1255", "cp1256", "cp1257", "cp1258",
    "iso-8859-1", "iso-8859-2", "iso-8859-3", "iso-8859-4",
    "iso-8859-5", "iso-8859-6", "iso-8859-7", "iso-8859-8",
    "iso-8859-9", "iso-8859-10", "iso-8859-13", "iso-8859-14",
    "iso-8859-15", "iso-8859-16", "latin-1", "latin1",
    "koi8-r", "koi8-u", "shift_jis", "shift-jis", "sjis", "cp932",
    "euc-jp", "euc-kr", "cp949", "gbk", "gb2312", "gb18030", "big5",
    "tis-620", "windows-874", "cp874", "ascii", "us-ascii",
}


def _sniff_charset(head: bytes) -> str | None:
    """The page's declared legacy charset, or None. utf-8 returns None
    (the strict default already tried it); unlisted names return None
    (quarantine via the latin-1 marker gate instead of decoding
    through an unknown codec)."""
    m = _CHARSET_RE.search(head)
    if not m:
        return None
    name = m.group(1).decode("ascii", "replace").lower().strip(".")
    if name in ("utf-8", "utf8"):
        return None
    return name if name in _WEB_CHARSETS else None


def _extract_plain_text(text: str, gate_error: str) -> tuple:
    """text/plain payloads (round 5): paragraphs split on blank lines,
    internal newlines collapse to spaces, the PDF no-chrome span
    convention. The gate is deliberately conservative — ≥200 chars,
    ≥97% printable, ≥3 words — so short/binary junk (and the synth
    corpus's ≤64-byte invalid docs, whose quarantine the oracles pin)
    still quarantines with the original markup error."""
    if len(text) < 200:
        return "invalid", [], gate_error
    printable = sum(ch.isprintable() or ch in "\n\t\r " for ch in text)
    if printable / len(text) < 0.97 or text.count(" ") < 3:
        return "invalid", [], gate_error
    # markdown dialect (round-5 session 7): documentation corpora serve
    # text/markdown — strip the syntax down to prose instead of keeping
    # "# Heading" / [text](url) literally. Only after the plain gate
    # passed, and only on unambiguous markers (stages/mdtext.py).
    if mdtext.looks_like_markdown(text):
        paras = mdtext.markdown_paragraphs(text)
        if paras:
            return "markdown", paras, ""
    paras = split_paragraphs(text)
    if not paras:
        return "invalid", [], gate_error
    return "text", paras, ""


def _html_pages(text: str) -> list[list]:
    """An HTML page → ``[its blocks]``, or ``[]`` when it has none."""
    blocks = segment_html(sanitize(text, "NFC"))
    return [blocks] if blocks else []


def _result(kind: str, items: list, empty: str) -> tuple:
    """``(kind, items, "")``, or the ``"{kind}: {empty}"`` quarantine
    when the payload yielded none."""
    if not items:
        return kind, [], f"{kind}: {empty}"
    return kind, items, ""


# document kind → its stages.office reader (looked up by name at call
# time); documents carry no chrome, so paragraphs take the PDF span
# convention
_DOC_READERS = {
    "docx": "extract_docx_paragraphs",
    "odt": "extract_odt_paragraphs",
    "xlsx": "extract_xlsx_rows",
    "pptx": "extract_pptx_paragraphs",
    "rtf": "extract_rtf_paragraphs",
}


def _extract_doc(kind: str, payload: bytes) -> tuple:
    return _result(kind, getattr(office, _DOC_READERS[kind])(payload),
                   "no visible text")


def _extract_office(payload: bytes) -> tuple:
    """Zip containers (stages/office.py): DOCX/ODT/XLSX/PPTX through
    ``_DOC_READERS``; EPUB chapters flow through the SAME html
    segment+score chain as web pages, one scoring segment each, in
    spine order."""
    kind = office.sniff_office(payload)
    if kind in _DOC_READERS:
        return _extract_doc(kind, payload)
    if kind == "epub":
        chapters = [blocks for chapter in office.epub_chapters(payload)
                    for blocks in _chapter_pages(chapter)]
        return _result("epub", chapters, "no text blocks in any chapter")
    return "invalid", [], "unrecognized zip container (not docx/epub/odt)"


def _chapter_pages(chapter: bytes) -> list[list]:
    """An EPUB chapter → ``[its blocks]``, or ``[]`` for a chapter that
    is not an HTML page with blocks (cover images, nav docs). A chapter
    takes only the compressed-wrapper inflate and the text/HTML path: a
    zip, RTF or PDF chapter is skipped unparsed, so an EPUB nested in
    its own chapters costs one zip read per level, not a parse."""
    try:
        chapter = _inflate_wrapper(chapter)
        if (chapter[:4] == b"PK\x03\x04" or chapter[:5] == b"{\\rtf"
                or pdfmod.is_pdf(chapter)):
            return []
        text = _decode_text(chapter)
        return _html_pages(text) if _text_dialect(text)[0] == "html" else []
    except Exception:  # a chapter's failure skips the chapter
        return []


# payload kinds whose items are segment.Block lists; every other kind's
# items are paragraph texts
_HTML_KINDS = frozenset(("html", "epub"))


class ScoredBlocks(NamedTuple):
    """A batch's block table: every block of every row, rows back to
    back (row ``r`` is ``offsets[r]:offsets[r + 1]``; a quarantined row
    has none), one column per span field. Document paragraphs (every
    kind but ``_HTML_KINDS``) carry no chrome: ``score`` and
    ``text_density`` are the unsanitized paragraph's length,
    ``link_density`` and ``depth`` 0."""

    text: pa.StringArray
    kind: pa.StringArray
    depth: np.ndarray         # int32
    text_density: np.ndarray  # float64, like the three below
    link_density: np.ndarray
    score: np.ndarray
    offsets: np.ndarray       # intp, rows + 1

    def span_dicts(self, row: int) -> list[dict]:
        """Row ``row``'s blocks as span dicts (``start``/``end`` -1)."""
        a, b = self.offsets[row], self.offsets[row + 1]
        cols = zip(self.kind[a:b].to_pylist(), self.depth[a:b].tolist(),
                   self.text_density[a:b].tolist(),
                   self.link_density[a:b].tolist(), self.score[a:b].tolist(),
                   self.text[a:b].to_pylist())
        return [{"block_id": i, "kind": k, "depth": d, "text_density": td,
                 "link_density": ld, "score": sc, "text": t, "start": -1,
                 "end": -1}
                for i, (k, d, td, ld, sc, t) in enumerate(cols)]


class _BlockTable:
    """Builds a batch's ``ScoredBlocks`` row by row. HTML blocks keep
    their ``segment.Block`` objects until ``scored`` runs the scoring
    kernels once over all of them, each page or chapter its own scoring
    segment."""

    def __init__(self) -> None:
        self.text: list[str] = []
        self.kind: list[str] = []
        self.depth: list[int] = []
        self.html: list = []           # every HTML block, in table order
        self.segments: list[int] = []  # HTML block count per page/chapter
        self.is_html: list[bool] = []  # per block
        self.doc_len: list[int] = []   # per document paragraph
        self.rows = [0]

    def add_row(self, kind: str, items: list) -> None:
        if kind in _HTML_KINDS:
            for blocks in items:
                self.html += blocks
                self.segments.append(len(blocks))
                self.text += [b.text for b in blocks]
                self.kind += [b.kind for b in blocks]
                self.depth += [b.depth for b in blocks]
                self.is_html += [True] * len(blocks)
        else:
            self.text += map(sanitize, items)
            self.kind += [kind] * len(items)
            self.depth += [0] * len(items)
            self.is_html += [False] * len(items)
            self.doc_len += map(len, items)
        self.rows.append(len(self.text))

    def scored(self) -> ScoredBlocks:
        n = len(self.text)
        score = np.empty(n)
        text_density = np.empty(n)
        link_density = np.zeros(n)
        is_html = np.array(self.is_html, dtype=bool)
        if self.html:
            offsets = np.cumsum([0] + self.segments)
            feat = scoremod.block_features(self.html)
            raw = scoremod.block_scores(feat)
            score[is_html] = scoremod.suppress_isolated(
                raw, scoremod.smooth_scores(raw, feat, offsets), offsets)
            text_density[is_html] = feat["text_density"]
            link_density[is_html] = feat["link_density"]
        doc = ~is_html
        score[doc] = text_density[doc] = self.doc_len
        return ScoredBlocks(
            pa.array(self.text, pa.string()), pa.array(self.kind, pa.string()),
            np.array(self.depth, dtype=np.int32), text_density, link_density,
            score, np.array(self.rows, dtype=np.intp))


def extract_columns(batch: pa.Table) -> tuple[dict, ScoredBlocks]:
    """Pages batch → (passthrough columns + ``payload_kind`` and
    ``error``, the batch's scored block table).

    Every row's blocks go into one table and the scoring kernels run
    once over it; the vote (``merge.vote_columns``) then works on its
    columns and builds ``spans`` from them, with no per-block Python
    dict between parse and Arrow."""
    table = _BlockTable()
    kinds, errors = [], []
    for p in batch["html"].to_pylist():
        kind, _, err = extract_row(p or b"", table)
        kinds.append(kind)
        errors.append(err)
    # generic passthrough: every input column except the consumed
    # payload survives (bucket ids, user metadata, ...)
    cols = {
        name: batch[name] for name in batch.column_names if name != "html"
    }
    cols["payload_kind"] = pa.array(kinds, pa.string())
    cols["error"] = pa.array(errors, pa.string())
    return cols, table.scored()
