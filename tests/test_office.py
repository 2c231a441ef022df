"""DOCX/EPUB container extraction: hand-built zips (stdlib writers),
entity/run/tab handling, spine ordering, the extract_row dispatch
(incl. gzip-wrapped containers), chrome handling on EPUB chapters,
and quarantine on malformed zips."""
from __future__ import annotations

import gzip
import io
import tracemalloc
import zipfile

import pytest

from nidaba_ray.algorithms.inflate import MAX_INFLATED_BYTES
from nidaba_ray.stages.extract import extract_row
from nidaba_ray.stages.merge import vote_row
from nidaba_ray.stages.office import (
    epub_chapters,
    extract_docx_paragraphs,
    sniff_office,
)


def make_docx(paragraph_xml: list[str]) -> bytes:
    body = "".join(paragraph_xml)
    doc = ('<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
           '<w:document xmlns:w="http://schemas.openxmlformats.org/'
           'wordprocessingml/2006/main"><w:body>'
           f"{body}</w:body></w:document>")
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("[Content_Types].xml", "<Types/>")
        z.writestr("word/document.xml", doc)
    return buf.getvalue()


def _p(*runs: str) -> str:
    inner = "".join(f"<w:r><w:t>{r}</w:t></w:r>" for r in runs)
    return f"<w:p>{inner}</w:p>"


def make_epub(chapters: dict[str, str | bytes], spine: list[str],
              subdir: str = "OEBPS") -> bytes:
    items = "".join(
        f'<item id="{cid}" href="{cid}.xhtml" '
        'media-type="application/xhtml+xml"/>'
        for cid in chapters
    ) + '<item id="cover" href="cover.png" media-type="image/png"/>'
    refs = "".join(f'<itemref idref="{cid}"/>' for cid in spine)
    opf = ('<?xml version="1.0"?><package xmlns="http://www.idpf.org/'
           f'2007/opf"><manifest>{items}</manifest>'
           f"<spine>{refs}</spine></package>")
    container = ('<?xml version="1.0"?><container><rootfiles>'
                 f'<rootfile full-path="{subdir}/content.opf" '
                 'media-type="application/oebps-package+xml"/>'
                 "</rootfiles></container>")
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("mimetype", "application/epub+zip")
        z.writestr("META-INF/container.xml", container)
        z.writestr(f"{subdir}/content.opf", opf)
        z.writestr(f"{subdir}/cover.png", b"\x89PNG fake")
        for cid, html in chapters.items():
            z.writestr(f"{subdir}/{cid}.xhtml", html)
    return buf.getvalue()


def test_docx_paragraphs_runs_entities_tabs():
    payload = make_docx([
        _p("Hello ", "world"),
        "<w:p><w:r><w:t>tab</w:t></w:r><w:tab/><w:r><w:t>sep</w:t>"
        "</w:r></w:p>",
        _p("a &amp; b &lt;tag&gt;"),
        '<w:p><w:r><w:t xml:space="preserve"> kept </w:t></w:r></w:p>',
        "<w:p/>",          # empty paragraph: skipped
        _p(""),
    ])
    assert sniff_office(payload) == "docx"
    assert extract_docx_paragraphs(payload) == [
        "Hello world", "tab sep", "a & b <tag>", "kept"]


def test_docx_through_extract_row_and_vote():
    payload = make_docx([_p("First paragraph of the memo."),
                         _p("Second paragraph, all content.")])
    kind, spans, err = extract_row(payload)
    assert (kind, err) == ("docx", "")
    final, kept, _prov, nb, nk = vote_row(spans, None, kind, "en")
    assert nb == nk == 2    # docx keeps everything (no chrome)
    assert final == ("First paragraph of the memo. "
                     "Second paragraph, all content.")
    # gzip-wrapped container: the sniff chain inflates first
    kind2, spans2, err2 = extract_row(gzip.compress(payload))
    assert (kind2, err2) == ("docx", "") and len(spans2) == 2


CH1 = ("<html><body><nav><a href='/toc'>Contents</a></nav>"
       "<p>Chapter one opens on the harbor at dawn, with the fleet "
       "still sleeping against the pilings.</p></body></html>")
CH2 = ("<html><body><p>Chapter two follows the pilot out past the "
       "ledges before the fog lifts.</p></body></html>")


def test_epub_spine_order_and_extraction():
    # manifest lists c2 before c1; the SPINE decides the order
    payload = make_epub({"c2": CH2, "c1": CH1}, spine=["c1", "c2"])
    assert sniff_office(payload) == "epub"
    assert [b"Chapter one" in c for c in epub_chapters(payload)] == [
        True, False]
    kind, spans, err = extract_row(payload)
    assert (kind, err) == ("epub", "")
    final, kept, _prov, nb, nk = vote_row(spans, None, kind, "en")
    # the chapter nav is chrome and drops; both prose paragraphs stay
    assert "Chapter one opens on the harbor" in final
    assert "Chapter two follows the pilot" in final
    assert "Contents" not in final
    assert final.index("Chapter one") < final.index("Chapter two")


def test_epub_ignores_non_html_spine_entries():
    # a spine idref pointing at the PNG: chapter skipped, prose kept
    payload = make_epub({"c1": CH1}, spine=["c1", "cover"])
    kind, spans, err = extract_row(payload)
    assert (kind, err) == ("epub", "")


def test_malformed_and_unknown_zip_quarantine():
    kind, _, err = extract_row(b"PK\x03\x04 not a real zip")
    assert kind == "invalid" and err
    # a zip that is neither docx nor epub
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("data.txt", "hello")
    kind, _, err = extract_row(buf.getvalue())
    assert kind == "invalid" and "zip" in err
    # docx with corrupt inner xml payload still quarantines per row
    broken = make_docx([_p("x")])[:80]
    kind, _, err = extract_row(broken)
    assert kind == "invalid" and err
    # epub with an empty spine
    with pytest.raises(ValueError):
        epub_chapters(make_epub({"c1": CH1}, spine=[]))


def test_office_pipeline_end_to_end(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from nidaba_ray.pipelines.extract import extract_pipeline

    pages = pa.table({
        "url": pa.array(["d1", "e1"], pa.string()),
        "doc_id": pa.array([1, 2], pa.int64()),
        "lang": pa.array(["en", "en"], pa.string()),
        "html": pa.array([
            make_docx([_p("A memo body that is long enough to keep.")]),
            make_epub({"c1": CH1}, spine=["c1"]),
        ], pa.binary()),
    })
    out = extract_pipeline(rd.from_arrow(pages)).to_pandas()
    out = out.sort_values("doc_id")
    assert out["error"].tolist() == ["", ""]
    assert "memo body" in out["text"].iloc[0]
    assert "Chapter one opens" in out["text"].iloc[1]


def make_odt(paragraph_xml: list[str]) -> bytes:
    content = ('<?xml version="1.0"?><office:document-content '
               'xmlns:office="urn:oasis" xmlns:text="urn:text">'
               "<office:body><office:text>"
               + "".join(paragraph_xml)
               + "</office:text></office:body></office:document-content>")
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("mimetype", "application/vnd.oasis.opendocument.text")
        z.writestr("content.xml", content)
    return buf.getvalue()


def test_odt_paragraphs_and_dispatch():
    from nidaba_ray.stages.office import extract_odt_paragraphs

    payload = make_odt([
        "<text:p>Plain paragraph text.</text:p>",
        '<text:h text:outline-level="1">A heading</text:h>',
        "<text:p>spans <text:span text:style-name=\"T1\">inside</text:span>"
        " kept</text:p>",
        '<text:p>gap<text:s text:c="3"/>wide, tab<text:tab/>sep, '
        "ent &amp; ity</text:p>",
        "<text:p></text:p>",
    ])
    assert sniff_office(payload) == "odt"
    assert extract_odt_paragraphs(payload) == [
        "Plain paragraph text.", "A heading", "spans inside kept",
        "gap   wide, tab sep, ent & ity"]
    kind, spans, err = extract_row(payload)
    assert (kind, err) == ("odt", "")
    final, kept, _p, nb, nk = vote_row(spans, None, kind, "en")
    assert nb == nk == 4 and final.startswith("Plain paragraph")


def test_rtf_paragraphs_and_dispatch():
    from nidaba_ray.stages.office import extract_rtf_paragraphs

    rtf = (rb"{\rtf1\ansi{\fonttbl{\f0 Times;}}{\colortbl;\red0;}"
           rb"{\info{\title secret}}"
           rb"First paragraph body.\par"
           rb"Escapes: 50\'25 off, braces \{x\}, tilde\~space\par"
           rb"Unicode: \u233?clair and \u8212?dash\par"
           rb"{\*\unknowndest hidden stuff}Tail after skip.\par}")
    paras = extract_rtf_paragraphs(rtf)
    assert paras == [
        "First paragraph body.",
        "Escapes: 50% off, braces {x}, tilde\u00a0space",
        "Unicode: éclair and —dash",
        "Tail after skip.",
    ]
    kind, spans, err = extract_row(rtf)
    assert (kind, err) == ("rtf", "")
    final, kept, _p, nb, nk = vote_row(spans, None, kind, "en")
    assert nb == nk == 4
    # table rows flush via \row; \line is a soft break (space)
    assert extract_rtf_paragraphs(
        rb"{\rtf1 cell one\cell cell two\row after\par}") == [
        "cell one cell two", "after"]
    assert extract_rtf_paragraphs(
        rb"{\rtf1 soft\line break\par}") == ["soft break"]
    with pytest.raises(ValueError):
        extract_rtf_paragraphs(b"not rtf at all")


def test_odt_rtf_gzip_and_quarantine():
    payload = make_odt(["<text:p>Zipped text survives gzip.</text:p>"])
    kind, spans, err = extract_row(gzip.compress(payload))
    assert (kind, err) == ("odt", "") and len(spans) == 1
    # an empty-body odt quarantines with a reason
    kind, _, err = extract_row(make_odt(["<text:p></text:p>"]))
    assert kind == "odt" and "no visible text" in err


# ---------------------------------------------------------------------------
# XLSX (round-5 session 6)
# ---------------------------------------------------------------------------

def test_xlsx_identity_roundtrip():
    """make_xlsx → extract_row is the identity on the source text
    (the make_docx convention: shared-string cells rejoin with the
    single spaces extraction uses)."""
    from nidaba_ray.stages.extract import extract_row
    from nidaba_ray.synth import make_xlsx

    text = ("the quarterly numbers include revenue up nine percent "
            "and margins holding at eleven point five while the "
            "fleet ran at ninety three percent utilization all season")
    for doc_id in (0, 1, 2, 7):
        kind, spans, err = extract_row(make_xlsx(doc_id, text))
        assert (kind, err) == ("xlsx", ""), doc_id
        got = " ".join(s["text"] for s in spans)
        assert got == text, doc_id


def test_xlsx_cell_types_and_sheet_order():
    import io
    import zipfile

    from nidaba_ray.stages.office import extract_xlsx_rows, sniff_office

    def zadd(z, n, b):
        zi = zipfile.ZipInfo(n, date_time=(1980, 1, 1, 0, 0, 0))
        z.writestr(zi, b)

    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        zadd(z, "[Content_Types].xml", b"<Types/>")
        zadd(z, "xl/workbook.xml", b"<workbook/>")
        zadd(z, "xl/sharedStrings.xml",
             b"<sst><si><t>Header &amp; title</t></si>"
             b'<si><t xml:space="preserve">two </t><t>runs</t></si></sst>')
        # sheet10 vs sheet2: numeric-suffix order, not lexicographic
        zadd(z, "xl/worksheets/sheet10.xml",
             b"<worksheet><sheetData><row><c t=\"s\"><v>1</v></c></row>"
             b"</sheetData></worksheet>")
        zadd(z, "xl/worksheets/sheet2.xml",
             b'<worksheet><sheetData>'
             b'<row r="1"><c t="s"><v>0</v></c><c><v>42.5</v></c></row>'
             b'<row r="2"><c t="inlineStr"><is><t>inline cell</t></is>'
             b"</c></row>"
             b'<row r="3"/><row r="4"><c/></row>'
             b"</sheetData></worksheet>")
    payload = buf.getvalue()
    assert sniff_office(payload) == "xlsx"
    assert extract_xlsx_rows(payload) == [
        "Header & title 42.5", "inline cell", "two runs"]


def test_xlsx_malformed_quarantines():
    import pytest as _pytest

    from nidaba_ray.stages.extract import extract_row
    from nidaba_ray.stages.office import extract_xlsx_rows

    with _pytest.raises(ValueError):
        extract_xlsx_rows(b"PK\x03\x04 not a zip at all")
    # through the row kernel: a zip with a workbook but no rows
    import io
    import zipfile

    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("xl/workbook.xml", b"<workbook/>")
    kind, spans, err = extract_row(buf.getvalue())
    assert kind == "xlsx" and "no visible text" in err


def test_pptx_paragraphs_and_dispatch():
    import io
    import zipfile

    from nidaba_ray.stages.extract import extract_row
    from nidaba_ray.stages.office import (
        extract_pptx_paragraphs,
        sniff_office,
    )

    def zadd(z, n, b):
        zi = zipfile.ZipInfo(n, date_time=(1980, 1, 1, 0, 0, 0))
        z.writestr(zi, b)

    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        zadd(z, "[Content_Types].xml", b"<Types/>")
        zadd(z, "ppt/presentation.xml", b"<presentation/>")
        # slide10 after slide2 (numeric order)
        zadd(z, "ppt/slides/slide10.xml",
             b"<sld><a:p><a:t>Closing remarks</a:t></a:p></sld>")
        zadd(z, "ppt/slides/slide2.xml",
             b"<sld><a:p><a:t>Title of the talk</a:t></a:p>"
             b"<a:p><a:t>first run</a:t><a:br/><a:t>second run"
             b"</a:t></a:p><a:p></a:p></sld>")
    payload = buf.getvalue()
    assert sniff_office(payload) == "pptx"
    assert extract_pptx_paragraphs(payload) == [
        "Title of the talk", "first run second run", "Closing remarks"]
    kind, spans, err = extract_row(payload)
    assert (kind, err) == ("pptx", "")
    assert [s["text"] for s in spans] == [
        "Title of the talk", "first run second run", "Closing remarks"]


# ---------------------------------------------------------------------------
# Zip bombs: every member read counts against one per-container cap


def _zip_of_nuls(members: dict[str, int], extra=()) -> bytes:
    """A deflated zip: each member is ``size`` NUL bytes, written 1 MiB
    at a time; ``extra`` members are (name, bytes) pairs."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as z:
        for name, data in extra:
            z.writestr(name, data)
        chunk = bytes(1 << 20)
        for name, size in members.items():
            with z.open(name, "w") as f:
                for _ in range(size >> 20):
                    f.write(chunk)
    return buf.getvalue()


def test_docx_member_over_cap_quarantines():
    payload = _zip_of_nuls({"word/document.xml": 65 << 20})
    assert len(payload) < 100_000
    assert zipfile.ZipFile(io.BytesIO(payload)).getinfo(
        "word/document.xml").file_size > MAX_INFLATED_BYTES
    kind, spans, err = extract_row(payload)
    assert (kind, spans) == ("invalid", [])
    assert err.endswith(
        "docx: word/document.xml: decompressed size exceeds cap"), err


def test_xlsx_members_over_cap_together_quarantine():
    sheets = {f"xl/worksheets/sheet{i}.xml": 33 << 20 for i in (1, 2)}
    assert all(size <= MAX_INFLATED_BYTES for size in sheets.values())
    payload = _zip_of_nuls(sheets, [("xl/workbook.xml", b"<workbook/>")])
    kind, spans, err = extract_row(payload)
    assert (kind, spans) == ("invalid", [])
    assert err.endswith(
        "xlsx: xl/worksheets/sheet2.xml: decompressed size exceeds cap"), err


def test_zip_member_inflates_only_its_declared_size():
    # the central directory understates the member's size: the read
    # stops near the declared size (and fails the CRC) instead of
    # inflating the whole stream
    payload = bytearray(_zip_of_nuls({"word/document.xml": 32 << 20}))
    cd = payload.index(b"PK\x01\x02")
    payload[cd + 24:cd + 28] = (1000).to_bytes(4, "little")
    tracemalloc.start()
    try:
        kind, spans, err = extract_row(bytes(payload))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (kind, spans) == ("invalid", [])
    assert "docx:" in err, err
    assert peak < 4 << 20, peak


def _nested_epub(depth: int) -> bytes:
    """An EPUB whose one chapter, listed 8 times in the spine, is an
    EPUB of the same shape, ``depth`` levels down to an HTML page."""
    payload = make_epub({"c": "<html><body><p>innermost text</p></body></html>"},
                        ["c"])
    for _ in range(depth):
        payload = make_epub({"n": payload}, ["n"] * 8)
    return payload


def test_nested_epub_chapters_are_skipped_unparsed():
    """A chapter that is itself a zip (or a PDF or RTF) is skipped
    before any parse, so nesting costs one zip read per level instead
    of a full extraction per spine entry per level (8× per level)."""
    import time

    assert extract_row(_nested_epub(0))[2] == ""
    skipped = ("epub", [], "epub: no text blocks in any chapter")
    assert extract_row(_nested_epub(1)) == skipped
    deep = _nested_epub(8)
    t0 = time.perf_counter()
    assert extract_row(deep) == skipped
    assert time.perf_counter() - t0 < 1.0
