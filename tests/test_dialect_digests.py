"""Whole-row digests of ``FusedExtract`` over a mixed table of the
payload dialects that no benchmark workload carries: multi-chapter EPUB
(with nested, PDF, gzip, plain-text, feed and empty chapters), RSS /
Atom / RDF feeds, markdown, plain text, XLSX, PPTX, ODT, RTF, DOCX,
bz2/xz/gzip-wrapped HTML, one payload of each quarantine path, and the
real-page fixtures. The digests in ``tests/data/dialect_digests.json``
were captured before the block table replaced the per-page span dicts;
every column of every row must stay byte-identical. No Ray.

Regenerate (only for a deliberate output change, never to make a
failing refactor pass):
``PYTHONPATH=. python tests/test_dialect_digests.py > tests/data/dialect_digests.json``
"""

from __future__ import annotations

import bz2
import gzip
import hashlib
import io
import json
import lzma
import zipfile
from pathlib import Path

import pyarrow as pa

from nidaba_ray import realpages, synth

DIGESTS = Path(__file__).parent / "data" / "dialect_digests.json"

PROSE = [
    "The committee met on Tuesday to review the budget for the coming year.",
    "Several members asked whether the new library could open before winter.",
    "The treasurer explained that the roof repairs had taken most of the reserve.",
    "A short discussion followed about parking near the station.",
    "In the end the vote was postponed until the next regular meeting.",
    "Minutes were approved without changes and the meeting closed at nine.",
]
NAV = ('<nav><a href="/">Home</a> <a href="/news">News</a> '
       '<a href="/about">About us</a> <a href="/contact">Contact</a></nav>')
FOOT = '<footer><a href="/privacy">Privacy</a> &copy; 2024 Example Press</footer>'


def _zip(members: list[tuple[str, bytes]]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        for name, data in members:
            z.writestr(zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0)), data)
    return buf.getvalue()


def _page(paras: list[str], title: str = "t", chrome: bool = True) -> bytes:
    body = "".join(f"<p>{p}</p>" for p in paras)
    return (f"<!DOCTYPE html><html><head><title>{title}</title></head><body>"
            + (NAV if chrome else "") + f"<main>{body}</main>"
            + (FOOT if chrome else "") + "</body></html>").encode("utf-8")


def _epub(chapters: list[bytes]) -> bytes:
    items = "".join(f'<item id="c{i}" href="c{i}.xhtml" '
                    'media-type="application/xhtml+xml"/>'
                    for i in range(len(chapters)))
    refs = "".join(f'<itemref idref="c{i}"/>' for i in range(len(chapters)))
    opf = ('<?xml version="1.0"?><package xmlns="http://www.idpf.org/2007/opf">'
           f"<manifest>{items}</manifest><spine>{refs}</spine></package>")
    container = ('<?xml version="1.0"?><container><rootfiles>'
                 '<rootfile full-path="OEBPS/content.opf" '
                 'media-type="application/oebps-package+xml"/>'
                 "</rootfiles></container>")
    return _zip([("mimetype", b"application/epub+zip"),
                 ("META-INF/container.xml", container.encode()),
                 ("OEBPS/content.opf", opf.encode())]
                + [(f"OEBPS/c{i}.xhtml", c) for i, c in enumerate(chapters)])


def _odt(paras: list[str]) -> bytes:
    content = ('<?xml version="1.0"?><office:document-content '
               'xmlns:office="urn:oasis" xmlns:text="urn:text">'
               "<office:body><office:text>"
               + "".join(f"<text:p>{p}</text:p>" for p in paras)
               + "</office:text></office:body></office:document-content>")
    return _zip([("mimetype", b"application/vnd.oasis.opendocument.text"),
                 ("content.xml", content.encode())])


def _pptx(slides: list[list[str]]) -> bytes:
    members = [("[Content_Types].xml", b"<Types/>"),
               ("ppt/presentation.xml", b"<presentation/>")]
    for i, paras in enumerate(slides, 1):
        xml = "".join(f"<a:p><a:t>{p}</a:t></a:p>" for p in paras)
        members.append((f"ppt/slides/slide{i}.xml", f"<sld>{xml}</sld>".encode()))
    return _zip(members)


def _rtf(paras: list[str]) -> bytes:
    return (rb"{\rtf1\ansi{\fonttbl{\f0 Times;}}"
            + b"".join(p.encode("ascii") + rb"\par " for p in paras) + b"}")


RSS = ("<?xml version='1.0'?><rss version='2.0'><channel><title>Town notes"
       "</title>" + "".join(f"<item><title>Item {i}</title><description>{p}"
                            "</description></item>" for i, p in enumerate(PROSE))
       + "</channel></rss>").encode()
ATOM = ('<?xml version="1.0"?><feed xmlns="http://www.w3.org/2005/Atom">'
        "<title>Status</title>" + "".join(
            f"<entry><title>Entry {i}</title><summary>{p}</summary></entry>"
            for i, p in enumerate(PROSE[:4])) + "</feed>").encode()
RDF = ('<?xml version="1.0"?><rdf:RDF xmlns:rdf="http://www.w3.org/1999/'
       '02/22-rdf-syntax-ns#" xmlns="http://purl.org/rss/1.0/"><channel>'
       "<title>RDF channel</title></channel><item><title>One</title>"
       f"<description>{PROSE[0]}</description></item></rdf:RDF>").encode()
MARKDOWN = ("# Meeting notes\n\n" + PROSE[0] + " See the [agenda](https://x.io/a).\n\n"
            "## Decisions\n\n- " + PROSE[1] + "\n- " + PROSE[2] + "\n\n"
            "```\nvote --postpone\n```\n\n> " + PROSE[3] + "\n").encode()
PLAIN = ("\n\n".join(PROSE) + "\n").encode()


def _payloads() -> list[tuple[str, bytes | None, str | None]]:
    """(name, payload, candidate text) per row of the mixed table."""
    docs = synth.pages_table(n=12, dup_frac=0.0)
    ids = docs["doc_id"].to_pylist()
    golden = docs["golden"].to_pylist()
    rows = []
    for d in ids[:6]:  # 1-3 chapters each, chrome-wrapped like web pages
        rows.append((f"epub-synth-{d}", synth.make_epub(d, golden[d]), golden[d]))
    inner = _epub([_page(PROSE[:2])])
    rows += [
        ("epub-mixed-chapters", _epub([
            _page(PROSE[:3], "one"),
            gzip.compress(_page(PROSE[3:], "two"), mtime=0),
            synth.make_pdf(1, "a pdf chapter is skipped"),
            inner,  # a nested EPUB chapter is skipped
            PLAIN,  # plain-text chapters are skipped
            RSS,  # so are feed chapters
            b"<html><body></body></html>",  # no blocks: skipped
            _page(PROSE[4:], "three", chrome=False),
        ]), None),
        ("epub-only-skipped-chapters", _epub([inner, PLAIN]), None),
        ("rss", RSS, None), ("atom", ATOM, None), ("rdf", RDF, None),
        ("atom-gzip", gzip.compress(ATOM, mtime=0), None),
        ("feed-empty", b"<rss version='2.0'><channel></channel></rss>", None),
        ("markdown", MARKDOWN, None), ("plain", PLAIN, " ".join(PROSE)),
        ("plain-short", b"just a few words", None),
        ("odt", _odt(PROSE[:4]), None), ("odt-empty", _odt([""]), None),
        ("pptx", _pptx([PROSE[:2], ["Closing remarks"], PROSE[2:5]]), None),
        ("rtf", _rtf(PROSE[:3]), None),
        ("rtf-gzip", gzip.compress(_rtf(PROSE[3:]), mtime=0), None),
        ("html-bz2", bz2.compress(_page(PROSE)), " ".join(PROSE)),
        ("html-xz", lzma.compress(_page(PROSE[1:])), None),
        ("html-gzip", gzip.compress(_page(PROSE[:2]), mtime=0), None),
        ("html-empty", b"<html><body><nav><a href='/'>x</a></nav></body></html>", None),
        ("zip-unknown", _zip([("a.txt", b"hello")]), None),
        ("zip-corrupt", b"PK\x03\x04 not a real zip", None),
        ("gzip-corrupt", b"\x1f\x8b\x08\x00corrupt", None),
        ("bz2-corrupt", b"BZh9" + b"\x00" * 20, None),
        ("utf32", "<html><body><p>x</p></body></html>".encode("utf-32"), None),
        ("binary", b"\xe9\xfa\xfb random binary <p not html", None),
        ("empty", b"", None), ("null", None, None),
    ]
    for d in ids[6:]:
        rows.append((f"xlsx-{d}", synth.make_xlsx(d, golden[d]), None))
        rows.append((f"docx-{d}", synth.make_docx(d, golden[d]), None))
        rows.append((f"html-{d}", synth.make_html(d, golden[d], "en"),
                     synth.noisy_text(d, golden[d])))
    return rows


def mixed_dialect_pages() -> pa.Table:
    """The mixed dialect rows followed by the real-page fixtures, in a
    pages-shaped table (``url``, ``html``, ``text``, ``lang``)."""
    rows = _payloads()
    fx = realpages.fixture_pages_table()
    return pa.table({
        "url": pa.array([f"mixed://{n}" for n, _, _ in rows]
                        + fx["url"].to_pylist(), pa.string()),
        "html": pa.array([p for _, p, _ in rows] + fx["html"].to_pylist(),
                         pa.binary()),
        "text": pa.array([t for _, _, t in rows] + [None] * fx.num_rows,
                         pa.string()),
        "lang": pa.array(["en"] * len(rows) + fx["lang"].to_pylist(), pa.string()),
    })


def row_digests(table: pa.Table) -> dict[str, str]:
    """url → md5 of the whole output row (every column, by name)."""
    cols = sorted(table.column_names)
    return {row["url"]: hashlib.md5(repr(row).encode("utf-8")).hexdigest()
            for row in table.select(cols).to_pylist()}


def test_mixed_dialect_rows_match_frozen_digests():
    from nidaba_ray.pipelines.extract import FusedExtract

    want = json.loads(DIGESTS.read_text())
    got = row_digests(FusedExtract()(mixed_dialect_pages()))
    assert list(got) == list(want)
    assert [u for u in want if got[u] != want[u]] == []


def test_output_does_not_depend_on_batch_size():
    """The block table spans a whole batch: every row's output must be
    the same whichever rows share its batch."""
    from nidaba_ray.pipelines.extract import FusedExtract

    pages = mixed_dialect_pages()
    want = FusedExtract()(pages)
    for size in (1, 3, 64, 1024):
        fused = FusedExtract()
        got = pa.concat_tables([fused(pages.slice(i, size))
                                for i in range(0, pages.num_rows, size)])
        assert got.schema == want.schema, size
        for col in want.column_names:
            assert got[col].combine_chunks().equals(want[col].combine_chunks()), (size, col)


def test_mixed_table_reaches_every_dialect():
    from nidaba_ray.pipelines.extract import FusedExtract

    out = FusedExtract()(mixed_dialect_pages())
    kinds = set(out["payload_kind"].to_pylist())
    assert {"epub", "feed", "markdown", "text", "odt", "pptx", "rtf", "xlsx",
            "docx", "html", "invalid"} <= kinds
    paths = {p[-1]["variant"] for p in out["provenance"].to_pylist()}
    assert paths == {"agree", "vote", "error"}


if __name__ == "__main__":
    from nidaba_ray.pipelines.extract import FusedExtract

    print(json.dumps(row_digests(FusedExtract()(mixed_dialect_pages())), indent=1))
