"""Candidate extraction stage — payload sniff + parse → scored block
spans. The recognize-stage analog (ocr.tesseract / ocr.kraken,
SURVEY.md §2.2): per-block text extraction for HTML, PDF parse for
binary payloads, behind ONE dispatching actor-pool stage.

Why one stage instead of two filtered branches + union: Ray Data does
not share a common upstream between branches of a DAG — two
``ds.filter`` branches over the same read would execute the read (and
ship every multi-MB payload) twice. PDF rows are a small fraction
(~3%), so dispatching on a magic-number sniff inside one pass over the
payload column moves each byte through the object store exactly once.

Actor pool: the parser state (compiled regexes, parser tables — the
"model load" of the recognizer analog) is built once per actor
process, at module import; ``__call__`` handles one Arrow batch. Per-row errors are
caught and emitted as quarantine rows (``error`` column) — a poison
payload never kills the task (SURVEY.md §4.1 retries row).
"""

from __future__ import annotations

import pyarrow as pa

from nidaba_ray.algorithms.inflate import InflateError, inflate
from nidaba_ray.algorithms.strings import sanitize
from nidaba_ray.stages import pdf as pdfmod
from nidaba_ray.stages import score as scoremod
from nidaba_ray.stages.segment import segment_html
from nidaba_ray.record import SPAN_TYPE

__all__ = ["ExtractCandidates", "extract_row"]


# (magic, codec): compressed wrappers inflated (capped) before the sniff
_COMPRESSED = (
    (b"\x1f\x8b", "gzip"),
    (b"BZh", "bzip2"),
    (b"\xfd7zXZ\x00", "xz"),
)


def extract_row(payload: bytes) -> tuple[str, list[dict], str]:
    """One payload → (kind, spans, error). Pure; unit-testable.

    Payload dialects (sniffed in order): gzip member (transparently
    inflated — CC WARC records are commonly per-record gzip), bzip2
    and xz members (dump mirrors — Wikipedia-style archives — serve
    both; round 5), %PDF, zip containers (docx/odt/xlsx/pptx/epub),
    RTF, RSS/Atom/RDF feeds, plain text, UTF-8 HTML, latin-1 HTML
    fallback (only
    when the decoded text has unambiguous html structure — a
    ``<html``/``<!doctype`` marker; a bare latin-1 decode never
    fails, so without the marker random binary would stop
    quarantining)."""
    try:
        for magic, codec in _COMPRESSED:
            if payload[:len(magic)] == magic:
                try:
                    payload = inflate(payload, codec)
                except InflateError as e:
                    return "invalid", [], f"{codec}: {e}"
                break
        if payload[:4] == b"PK\x03\x04":
            return _extract_office(payload)
        if payload[:5] == b"{\\rtf":
            return _extract_doc("rtf", payload)
        if pdfmod.is_pdf(payload):
            return _result("pdf",
                           _doc_spans(pdfmod.extract_pdf_blocks(payload), "pdf"),
                           "no text operators found")
        # HTML path: strict decode first — payloads that are neither PDF
        # nor valid UTF-8 text are quarantined (declared-charset and
        # latin-1 fallbacks below require the page to identify itself:
        # a meta/xml charset declaration, or unambiguous html structure).
        text = None
        if payload[:3] == b"\xef\xbb\xbf":
            payload = payload[3:]  # UTF-8 BOM: strip, decode strict below
        elif payload[:2] in (b"\xff\xfe", b"\xfe\xff"):
            # UTF-16 BOM (the "utf-16" codec consumes it). FF FE also
            # prefixes UTF-32-LE — disambiguate on the next two bytes;
            # UTF-32 pages are effectively absent from the web.
            if payload[:2] == b"\xff\xfe" and payload[2:4] == b"\x00\x00":
                return "invalid", [], "utf-32 payloads unsupported"
            try:
                text = payload.decode("utf-16")
            except UnicodeDecodeError:
                return "invalid", [], "utf-16: corrupt stream"
        if text is None:
            try:
                text = payload.decode("utf-8")
            except UnicodeDecodeError:
                text = None
                cs = _sniff_charset(payload[:2048])
                if cs:
                    try:
                        text = payload.decode(cs)
                    except (UnicodeDecodeError, LookupError):
                        text = None
            if text is None:
                # BOM-less UTF-16 (IIS-era pages): a NUL-dense head is
                # never valid in any listed 8-bit web charset, so the
                # NUL stripe picks the endianness; the decode must then
                # show unambiguous html structure (the latin-1 gate).
                head = payload[:256]
                if head.count(0) >= len(head) // 3:
                    even_nul = head[0::2].count(0)
                    enc = ("utf-16-be" if even_nul > head[1::2].count(0)
                           else "utf-16-le")
                    try:
                        cand = payload.decode(enc)
                    except UnicodeDecodeError:
                        cand = None
                    if cand is not None:
                        lowc = cand[:512].lower()
                        if "<html" in lowc or "<!doctype" in lowc:
                            text = cand
            if text is None:
                text = payload.decode("latin-1")
                low512 = text[:512].lower()
                if "<html" not in low512 and "<!doctype" not in low512:
                    return ("invalid", [],
                            "payload is neither PDF nor valid UTF-8")
        low = text[:512].lower()
        if "<" not in text:
            return _extract_plain_text(text, "payload is not markup")
        if "<html" not in low and "<!doctype" not in low:
            # syndication dialect: RSS/Atom/RDF roots never carry html
            # markers, so sniffing here can't shadow a real page
            from nidaba_ray.stages import feeds

            fk = feeds.sniff_feed(low)
            if fk:
                return _extract_feed(text, fk)
        if "<html" not in low and "<!doctype" not in low and "<body" not in low \
                and "<p" not in low and "<div" not in low:
            return _extract_plain_text(
                text, "payload has no recognizable html structure")
        blocks = segment_html(sanitize(text, "NFC"))
        if not blocks:
            return _result("html", [], "no text blocks")
        feat = scoremod.block_features(blocks)
        raw = scoremod.block_scores(feat)
        scores = scoremod.suppress_isolated(
            raw, scoremod.smooth_scores(raw, feat)
        )
        spans = [
            {
                "block_id": i,
                "kind": b.kind,
                "depth": b.depth,
                "text_density": float(feat["text_density"][i]),
                "link_density": float(feat["link_density"][i]),
                "score": float(scores[i]),
                "text": b.text,
                "start": -1,
                "end": -1,
            }
            for i, b in enumerate(blocks)
        ]
        return "html", spans, ""
    except UnicodeDecodeError:
        return "invalid", [], "payload is neither PDF nor valid UTF-8"
    except Exception as e:  # per-row isolation: never kill the task
        return "invalid", [], f"extract error: {type(e).__name__}: {e}"


import re as _re

# <meta charset=…> / http-equiv Content-Type / XML declaration — the
# three places a legacy page declares its encoding
_CHARSET_RE = _re.compile(
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


_PARA_SPLIT_RE = _re.compile(r"\n[ \t]*\n+")
_WS_RUN_RE = _re.compile(r"[ \t\r\n]+")


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
    from nidaba_ray.stages import mdtext

    if mdtext.looks_like_markdown(text):
        spans = _doc_spans(mdtext.markdown_paragraphs(text), "markdown")
        if spans:
            return "markdown", spans, ""
    paras = [_WS_RUN_RE.sub(" ", p).strip()
             for p in _PARA_SPLIT_RE.split(text)]
    spans = _doc_spans([p for p in paras if p], "text")
    if not spans:
        return "invalid", [], gate_error
    return "text", spans, ""


def _doc_spans(paras: list[str], kind: str) -> list[dict]:
    """Paragraph texts → spans in the PDF no-chrome convention."""
    return [
        {
            "block_id": i,
            "kind": kind,
            "depth": 0,
            "text_density": float(len(t)),
            "link_density": 0.0,
            "score": float(len(t)),
            "text": sanitize(t),
            "start": -1,
            "end": -1,
        }
        for i, t in enumerate(paras)
    ]


def _result(kind: str, spans: list[dict], empty: str) -> tuple:
    """``(kind, spans, "")``, or the ``"{kind}: {empty}"`` quarantine
    when the payload yielded no spans."""
    if not spans:
        return kind, [], f"{kind}: {empty}"
    return kind, spans, ""


def _extract_feed(text: str, fk: str) -> tuple[str, list[dict], str]:
    """RSS/Atom/RDF syndication documents (stages/feeds.py) — channel
    title + per-item title/body paragraphs, the PDF no-chrome span
    convention."""
    from nidaba_ray.stages import feeds

    return _result("feed",
                   _doc_spans(feeds.extract_feed_paragraphs(text, fk), "feed"),
                   "no item text")


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


def _extract_doc(kind: str, payload: bytes) -> tuple[str, list[dict], str]:
    from nidaba_ray.stages import office

    paras = getattr(office, _DOC_READERS[kind])(payload)
    return _result(kind, _doc_spans(paras, kind), "no visible text")


def _extract_office(payload: bytes) -> tuple[str, list[dict], str]:
    """Zip containers (stages/office.py): DOCX/ODT/XLSX/PPTX through
    ``_DOC_READERS``; EPUB chapters flow through the SAME html
    segment+score chain as web pages, concatenated in spine order."""
    from nidaba_ray.stages import office

    kind = office.sniff_office(payload)
    if kind in _DOC_READERS:
        return _extract_doc(kind, payload)
    if kind == "epub":
        spans: list[dict] = []
        for chapter in office.epub_chapters(payload):
            ck, cspans, cerr = extract_row(chapter)
            if cerr or ck != "html":
                continue  # cover images / nav docs: skip, keep prose
            for s in cspans:
                s["block_id"] = len(spans)
                spans.append(s)
        return _result("epub", spans, "no text blocks in any chapter")
    return "invalid", [], "unrecognized zip container (not docx/epub/odt)"


class ExtractCandidates:
    """Actor-pool ``map_batches`` callable: pages batch → spans batch.

    Usage:
        ds.map_batches(ExtractCandidates, batch_format="pyarrow",
                       batch_size=64, concurrency=(2, 8), num_cpus=1)

    Batch size is in ROWS, but ``html`` payloads are wide binary rows
    (SURVEY.md §7 hard parts) — a few multi-MB pages can blow the
    per-batch byte budget regardless of row count. ``__call__``
    therefore self-slices any batch above ``max_batch_bytes`` and
    processes the slices sequentially, bounding peak heap per actor
    without relying on upstream row-count tuning.
    """

    def __init__(self, max_batch_bytes: int = 64 << 20) -> None:
        self.max_batch_bytes = max_batch_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.nbytes > self.max_batch_bytes and batch.num_rows > 1:
            # split in half recursively until under the byte cap
            mid = batch.num_rows // 2
            return pa.concat_tables(
                [self(batch.slice(0, mid)), self(batch.slice(mid))]
            )
        return self._process(batch)

    def _extract_columns(
        self, batch: pa.Table
    ) -> tuple[dict, list[list[dict]]]:
        """Shared body: passthrough columns + Python-side span lists.

        The fused pipeline consumes the span lists directly — building
        the Arrow list<struct> column only to ``to_pylist`` it in the
        next fused stage measured ~13% of total pipeline time."""
        payloads = batch["html"].to_pylist()
        kinds, spans_col, errors = [], [], []
        for p in payloads:
            kind, spans, err = extract_row(p or b"")
            kinds.append(kind)
            spans_col.append(spans)
            errors.append(err)
        # generic passthrough: every input column except the consumed
        # payload survives (bucket ids, user metadata, ...)
        cols = {
            name: batch[name] for name in batch.column_names if name != "html"
        }
        cols["payload_kind"] = pa.array(kinds, pa.string())
        cols["error"] = pa.array(errors, pa.string())
        return cols, spans_col

    def _process(self, batch: pa.Table) -> pa.Table:
        cols, spans_col = self._extract_columns(batch)
        cols["spans"] = pa.array(spans_col, SPAN_TYPE)
        return pa.table(cols)
