"""Office/ebook container extraction — DOCX (OOXML WordprocessingML)
and EPUB (OCF), the two zip-packaged document formats a web crawl
actually carries in volume beside PDF. Stdlib ``zipfile`` only; the
XML inside is scanned with compiled patterns (the same
regex-over-known-grammar approach as the PDF content tokenizer —
both formats pin their part layout in public specs: ECMA-376 for
``word/document.xml``, the EPUB OCF spec for
``META-INF/container.xml`` → OPF → spine).

* DOCX: paragraphs are ``<w:p>`` elements; visible text is the
  concatenation of their ``<w:t>`` runs (entity-decoded;
  ``<w:tab/>``/``<w:br/>`` contribute a space). A document body is
  content by construction (no site chrome), so spans take the PDF
  convention: score = text length, depth 0.
* EPUB: ``container.xml`` names the OPF; the OPF's manifest maps ids
  to hrefs and the spine orders the content documents; each chapter
  is XHTML and flows through the SAME html segmenter + scorer as web
  pages (chrome handling comes free for publisher boilerplate).

Malformed containers raise ValueError — extract_row's per-row
quarantine contract. So do containers whose members, read together,
would inflate past the payload cap (``_Zip``)."""

from __future__ import annotations

import io
import posixpath
import re
import zipfile
from html import unescape

from nidaba_ray.algorithms.inflate import MAX_INFLATED_BYTES

__all__ = ["ZIP_MAGIC", "sniff_office", "extract_docx_paragraphs",
           "epub_chapters", "extract_odt_paragraphs",
           "extract_rtf_paragraphs", "extract_xlsx_rows",
           "extract_pptx_paragraphs", "is_rtf"]

ZIP_MAGIC = b"PK\x03\x04"
RTF_MAGIC = b"{\\rtf"

_WP_RE = re.compile(rb"<w:p[ >].*?</w:p>|<w:p/>", re.S)
_WT_RE = re.compile(rb"<w:t(?: [^>]*)?>(.*?)</w:t>|<w:(?:tab|br)\s*/>",
                    re.S)
_ROOTFILE_RE = re.compile(rb'full-path\s*=\s*["\']([^"\']+)["\']')
_ITEM_RE = re.compile(rb"<(?:[A-Za-z0-9]+:)?item\s[^>]*>")
_IDREF_RE = re.compile(
    rb"<(?:[A-Za-z0-9]+:)?itemref\s[^>]*idref\s*=\s*[\"']([^\"']+)[\"']")
_ATTR_ID_RE = re.compile(rb"(?:^|\s)id\s*=\s*[\"']([^\"']+)[\"']")
_ATTR_HREF_RE = re.compile(rb"(?:^|\s)href\s*=\s*[\"']([^\"']+)[\"']")


class _Zip(zipfile.ZipFile):
    """A zip container whose member reads share one inflate budget: a
    member is refused (``BadZipFile``, so each reader reports it as
    ``"<kind>: …"``) when its declared size would take the bytes read
    from the container past ``MAX_INFLATED_BYTES``."""

    _read_bytes = 0

    def read(self, name, pwd=None):
        info = self.getinfo(name)
        self._read_bytes += info.file_size
        if self._read_bytes > MAX_INFLATED_BYTES:
            raise zipfile.BadZipFile(
                f"{name}: decompressed size exceeds cap")
        # a sized read inflates at most about the size asked for, where
        # read() inflates a member in one unbounded call; one byte over
        # the declared size still reaches EOF, so the CRC is checked
        with self.open(info, pwd=pwd) as f:
            return f.read(info.file_size + 1)


def sniff_office(payload: bytes) -> str | None:
    """"docx" / "epub" / None — cheap: the zip central directory only
    (no part decompression)."""
    if payload[:4] != ZIP_MAGIC:
        return None
    try:
        with zipfile.ZipFile(io.BytesIO(payload)) as z:
            names = set(z.namelist())
    except (zipfile.BadZipFile, OSError, ValueError):
        return None
    if "word/document.xml" in names:
        return "docx"
    if "xl/workbook.xml" in names:
        return "xlsx"
    if "ppt/presentation.xml" in names:
        return "pptx"
    if "META-INF/container.xml" in names:
        return "epub"
    if "content.xml" in names:
        return "odt"
    return None


def extract_docx_paragraphs(payload: bytes) -> list[str]:
    """DOCX bytes → visible paragraph texts in document order."""
    try:
        with _Zip(io.BytesIO(payload)) as z:
            doc = z.read("word/document.xml")
    except (zipfile.BadZipFile, KeyError, OSError, ValueError) as e:
        raise ValueError(f"docx: {e}") from None
    out = []
    for pm in _WP_RE.finditer(doc):
        runs = []
        for m in _WT_RE.finditer(pm.group(0)):
            if m.group(1) is None:      # <w:tab/> / <w:br/>
                runs.append(" ")
            else:
                runs.append(unescape(m.group(1).decode("utf-8", "strict")))
        text = "".join(runs).strip()
        if text:
            out.append(text)
    return out


_ODT_P_RE = re.compile(rb"<text:[ph][^>]*>.*?</text:[ph]>", re.S)
# group 1 = a <text:s …/> run-of-spaces element (NOT <text:span> — the
# alternation requires /> or whitespace right after the name), group 2
# = tab/line-break, group 3 = a text node
_ODT_TOK_RE = re.compile(
    rb"(<text:s(?:/>|\s[^>]*/>))"
    rb"|(<text:(?:tab|line-break)\s*/>)"
    rb"|<[^>]+>"
    rb"|([^<]+)", re.S)
_ODT_SC_RE = re.compile(rb"text:c\s*=\s*[\"'](\d+)[\"']")


def extract_odt_paragraphs(payload: bytes) -> list[str]:
    """ODT (OpenDocument text) bytes → visible paragraph texts.
    ``<text:p>``/``<text:h>`` elements; ``<text:s text:c="n"/>`` is a
    run of n spaces, ``<text:tab/>``/``<text:line-break/>`` contribute
    a space; nested spans keep their text, other markup strips."""
    try:
        with _Zip(io.BytesIO(payload)) as z:
            doc = z.read("content.xml")
    except (zipfile.BadZipFile, KeyError, OSError, ValueError) as e:
        raise ValueError(f"odt: {e}") from None
    out = []
    for pm in _ODT_P_RE.finditer(doc):
        parts = []
        for m in _ODT_TOK_RE.finditer(pm.group(0)):
            if m.group(3) is not None:          # text run
                parts.append(unescape(m.group(3).decode("utf-8")))
            elif m.group(1) is not None:        # explicit spaces
                cm = _ODT_SC_RE.search(m.group(1))
                parts.append(" " * int(cm.group(1) if cm else 1))
            elif m.group(2) is not None:        # tab / line break
                parts.append(" ")
        text = "".join(parts).strip()
        if text:
            out.append(text)
    return out


def is_rtf(payload: bytes) -> bool:
    return payload[:5] == RTF_MAGIC


_RTF_TOK_RE = re.compile(
    rb"\\'([0-9a-fA-F]{2})"          # hex escape
    rb"|\\([a-z]+)(-?\d+)? ?"        # control word + optional param
    rb"|\\([^a-z])"                  # control symbol (\{ \} \\ \~ …)
    rb"|([{}])"                      # group delimiters
    rb"|([^\\{}]+)", re.S)

# destinations whose content is not body text (spec: readers must
# skip unknown destinations marked \*; these are the common ones)
_RTF_SKIP = {b"fonttbl", b"colortbl", b"stylesheet", b"info", b"pict",
             b"header", b"footer", b"footnote", b"annotation", b"field",
             b"object", b"themedata", b"listtable", b"listoverridetable"}


def extract_rtf_paragraphs(payload: bytes,
                           encoding: str = "cp1252") -> list[str]:
    """RTF bytes → visible paragraph texts: group-aware scan with
    destination skipping, ``\\par``/``\\line`` breaks, hex and symbol
    escapes, ``\\u<n>?`` unicode words (with the substitute byte
    consumed)."""
    if not is_rtf(payload):
        raise ValueError("rtf: missing {\\rtf header")
    paras: list[str] = []
    cur: list[str] = []
    depth = 0
    skip_until: int | None = None    # skip while depth > this
    pending_uskip = 0

    def flush() -> None:
        text = "".join(cur).strip()
        if text:
            paras.append(text)
        cur.clear()

    for m in _RTF_TOK_RE.finditer(payload):
        if m.group(5):                      # { or }
            depth += 1 if m.group(5) == b"{" else -1
            if skip_until is not None and depth <= skip_until:
                skip_until = None
            continue
        if skip_until is not None:
            continue
        if m.group(1) is not None:          # \'hh
            if pending_uskip:
                pending_uskip -= 1
                continue
            cur.append(bytes([int(m.group(1), 16)]).decode(
                encoding, "replace"))
        elif m.group(2) is not None:        # control word
            word, param = m.group(2), m.group(3)
            if word in _RTF_SKIP:
                skip_until = depth - 1
            elif word == b"par":
                flush()
            elif word in (b"line", b"tab", b"cell"):
                cur.append(" ")
            elif word == b"u":
                cp = int(param or 0)
                cur.append(chr(cp + 65536 if cp < 0 else cp))
                pending_uskip = 1           # eat the fallback char
            elif word in (b"row", b"sect", b"page"):
                flush()
        elif m.group(4) is not None:        # control symbol
            sym = m.group(4)
            if sym in b"\\{}":
                cur.append(sym.decode("ascii"))
            elif sym == b"~":
                cur.append("\u00a0")  # \~ IS the non-breaking space
            elif sym == b"*":
                skip_until = depth - 1      # \* marks a destination
        else:                               # plain text
            if pending_uskip:
                pending_uskip = 0
                txt = m.group(6).replace(b"\r", b"").replace(b"\n", b"")
                txt = txt[1:]               # the \u substitute char
            else:
                txt = m.group(6).replace(b"\r", b"").replace(b"\n", b"")
            if txt:
                cur.append(txt.decode(encoding, "replace"))
    flush()
    return paras


def epub_chapters(payload: bytes) -> list[bytes]:
    """EPUB bytes → content-document (XHTML) bytes in spine order."""
    try:
        with _Zip(io.BytesIO(payload)) as z:
            container = z.read("META-INF/container.xml")
            m = _ROOTFILE_RE.search(container)
            if not m:
                raise ValueError("epub: container.xml has no rootfile")
            opf_path = m.group(1).decode("utf-8")
            opf = z.read(opf_path)
            base = posixpath.dirname(opf_path)
            hrefs: dict[bytes, bytes] = {}
            for im in _ITEM_RE.finditer(opf):
                tag = im.group(0)
                mid = _ATTR_ID_RE.search(tag)
                mhref = _ATTR_HREF_RE.search(tag)
                if mid and mhref:
                    hrefs[mid.group(1)] = mhref.group(1)
            chapters = []
            for rm in _IDREF_RE.finditer(opf):
                href = hrefs.get(rm.group(1))
                if href is None:
                    continue
                path = posixpath.normpath(posixpath.join(
                    base, unescape(href.decode("utf-8"))))
                chapters.append(z.read(path))
            if not chapters:
                raise ValueError("epub: empty spine")
            return chapters
    except (zipfile.BadZipFile, KeyError, OSError) as e:
        raise ValueError(f"epub: {e}") from None


# ---------------------------------------------------------------------------
# XLSX (OOXML SpreadsheetML) — the spreadsheet member of the zip
# office family (round 5). Each sheet ROW becomes one text line:
# cells joined with single spaces, in document order; shared strings
# (t="s") resolve through xl/sharedStrings.xml, inline strings
# through their <is><t> runs, every other cell type renders its raw
# <v> text (numbers stay exactly as serialized — deterministic).
# Sheets walk in filename order with a numeric-suffix sort
# (sheet2 < sheet10) — a documented simplification of workbook-rels
# order that matches every mainstream writer's physical layout.
# ---------------------------------------------------------------------------

_SI_RE = re.compile(rb"<si>.*?</si>", re.S)
_T_RE = re.compile(rb"<t(?: [^>]*)?>(.*?)</t>", re.S)
_ROW_RE = re.compile(rb"<row[ >].*?</row>|<row[^>]*/>", re.S)
_CELL_RE = re.compile(rb"<c(?: ([^>]*))?>(.*?)</c>|<c(?: ([^>]*))?/>",
                      re.S)
_V_RE = re.compile(rb"<v(?: [^>]*)?>(.*?)</v>", re.S)
_TYPE_RE = re.compile(rb"(?:^|\s)t\s*=\s*[\"']([^\"']+)[\"']")
_SHEET_NAME_RE = re.compile(r"^xl/worksheets/sheet(\d+)\.xml$")


def extract_xlsx_rows(payload: bytes) -> list[str]:
    """XLSX bytes → one text line per non-empty sheet row."""
    try:
        with _Zip(io.BytesIO(payload)) as z:
            names = z.namelist()
            shared: list[str] = []
            if "xl/sharedStrings.xml" in names:
                ss = z.read("xl/sharedStrings.xml")
                for si in _SI_RE.finditer(ss):
                    shared.append("".join(
                        unescape(m.group(1).decode("utf-8"))
                        for m in _T_RE.finditer(si.group(0))))
            sheets = sorted(
                (int(m.group(1)), n) for n in names
                if (m := _SHEET_NAME_RE.match(n)))
            out: list[str] = []
            for _idx, sheet_name in sheets:
                body = z.read(sheet_name)
                for rm in _ROW_RE.finditer(body):
                    cells: list[str] = []
                    for cm in _CELL_RE.finditer(rm.group(0)):
                        attrs = cm.group(1) or cm.group(3) or b""
                        inner = cm.group(2) or b""
                        tm = _TYPE_RE.search(attrs)
                        ctype = tm.group(1) if tm else b""
                        if ctype == b"s":
                            vm = _V_RE.search(inner)
                            if vm:
                                idx = int(vm.group(1))
                                if 0 <= idx < len(shared):
                                    cells.append(shared[idx])
                        elif ctype == b"inlineStr" or b"<is>" in inner:
                            cells.append("".join(
                                unescape(m.group(1).decode("utf-8"))
                                for m in _T_RE.finditer(inner)))
                        else:
                            vm = _V_RE.search(inner)
                            if vm:
                                cells.append(unescape(
                                    vm.group(1).decode("utf-8")))
                    line = " ".join(c for c in cells if c).strip()
                    if line:
                        out.append(line)
            return out
    except (zipfile.BadZipFile, KeyError, OSError, ValueError,
            OverflowError) as e:
        raise ValueError(f"xlsx: {e}") from None


# ---------------------------------------------------------------------------
# PPTX (OOXML PresentationML) — completes the zip office trio. Each
# slide paragraph (<a:p>) becomes one text line: its <a:t> runs
# concatenate (DrawingML text has no tab elements worth spacing;
# <a:br/> contributes a space). Slides walk in numeric-suffix order
# (the xlsx convention).
# ---------------------------------------------------------------------------

_AP_RE = re.compile(rb"<a:p>.*?</a:p>|<a:p/>", re.S)
_AT_RE = re.compile(rb"<a:t(?: [^>]*)?>(.*?)</a:t>|<a:br\s*/>", re.S)
_SLIDE_NAME_RE = re.compile(r"^ppt/slides/slide(\d+)\.xml$")


def extract_pptx_paragraphs(payload: bytes) -> list[str]:
    """PPTX bytes → visible slide-paragraph texts in slide order."""
    try:
        with _Zip(io.BytesIO(payload)) as z:
            names = z.namelist()
            slides = sorted(
                (int(m.group(1)), n) for n in names
                if (m := _SLIDE_NAME_RE.match(n)))
            out: list[str] = []
            for _idx, name in slides:
                body = z.read(name)
                for pm in _AP_RE.finditer(body):
                    runs = []
                    for m in _AT_RE.finditer(pm.group(0)):
                        if m.group(1) is None:   # <a:br/>
                            runs.append(" ")
                        else:
                            runs.append(unescape(
                                m.group(1).decode("utf-8", "strict")))
                    text = "".join(runs).strip()
                    if text:
                        out.append(text)
            return out
    except (zipfile.BadZipFile, KeyError, OSError, ValueError) as e:
        raise ValueError(f"pptx: {e}") from None
