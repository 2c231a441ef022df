"""BOM and UTF-16 payload decode (stages/extract.py round-5 session-7):
UTF-8 BOM strips, UTF-16 LE/BE BOM decode, BOM-less UTF-16 via the
NUL-stripe heuristic (gated on html structure), UTF-32 quarantines."""

from __future__ import annotations

import pytest

from nidaba_ray.stages.extract import extract_row

PAGE = ("<html><head><title>t</title></head><body>"
        "<p>Byte order marks should never change the extracted text "
        "of a page, only how its bytes decode.</p>"
        "<p>Zwölf Boxkämpfer jagen Viktor quer über den Sylter Deich "
        "— ützliche Prüfung für Umlaute.</p>"
        "</body></html>")


def _texts(payload: bytes):
    kind, spans, err = extract_row(payload)
    assert err == "" and kind == "html", (kind, err)
    return [s["text"] for s in spans]


def test_utf8_bom_strips():
    base = _texts(PAGE.encode("utf-8"))
    assert _texts(b"\xef\xbb\xbf" + PAGE.encode("utf-8")) == base
    assert base  # non-empty


def test_utf16_le_be_bom_decode():
    base = _texts(PAGE.encode("utf-8"))
    # encode('utf-16') emits a LE BOM; build BE explicitly
    assert _texts(PAGE.encode("utf-16")) == base
    assert _texts(b"\xfe\xff" + PAGE.encode("utf-16-be")) == base


def test_bomless_utf16_both_endians():
    base = _texts(PAGE.encode("utf-8"))
    assert _texts(PAGE.encode("utf-16-le")) == base
    assert _texts(PAGE.encode("utf-16-be")) == base


def test_bomless_utf16_without_html_marker_quarantines():
    # NUL-dense but no html structure after decode → not sniffed
    kind, spans, err = extract_row("just some words".encode("utf-16-le"))
    assert kind == "invalid"


def test_utf32_quarantines():
    # 'utf-32' emits the FF FE 00 00 BOM → named quarantine reason
    kind, spans, err = extract_row(PAGE.encode("utf-32"))
    assert kind == "invalid" and "utf-32" in err
    # BOM-less utf-32-le quarantines through the generic gate
    kind, spans, err = extract_row(PAGE.encode("utf-32-le"))
    assert kind == "invalid"


def test_corrupt_utf16_quarantines():
    payload = b"\xff\xfe" + b"\x41\x00\x42"  # odd tail byte
    kind, spans, err = extract_row(payload)
    assert kind == "invalid" and "utf-16" in err


def test_utf16_feed_decodes_too():
    feed = ("<?xml version='1.0'?><rss version='2.0'><channel>"
            "<title>Chan</title><item><title>Item one</title>"
            "<description>Body text here.</description></item>"
            "</channel></rss>")
    kind, spans, err = extract_row(feed.encode("utf-16"))
    assert kind == "feed" and [s["text"] for s in spans] == [
        "Chan", "Item one", "Body text here."]


_RU = "Съешь же ещё этих мягких французских булок, да выпей чаю."
_NOT_UTF8 = "payload is neither PDF nor valid UTF-8"


def _page(head: str, body: bytes) -> bytes:
    return (f"<html><head>{head}</head><body><p>".encode("ascii") + body
            + b"</p></body></html>")


# one row per rung and gate of the text-decode ladder: payload →
# exact (kind, error), plus the first span's text when the row decodes
LADDER = {
    "utf8": (PAGE.encode("utf-8"), "html", "", None),
    "utf8_bom_invalid_no_marker": (
        b"\xef\xbb\xbfplain words \xff\xfe more words", "invalid",
        _NOT_UTF8, None),
    "utf8_bom_invalid_with_marker": (
        b"\xef\xbb\xbf" + _page("", b"caf\xe9 au lait, served warm"),
        "html", "", "café au lait, served warm"),
    "declared_koi8r": (
        _page('<meta charset="koi8-r">', _RU.encode("koi8-r")),
        "html", "", _RU),
    "declared_cp1251": (
        _page('<meta http-equiv="Content-Type" '
              'content="text/html; charset=cp1251">', _RU.encode("cp1251")),
        "html", "", _RU),
    "declared_unlisted_latin1_gate": (
        _page('<meta charset="x-user-defined">', b"na\xefve text here"),
        "html", "", "naïve text here"),
    "declared_unlisted_no_marker": (
        b'<?xml version="1.0" encoding="x-user-defined"?><p>na\xefve</p>',
        "invalid", _NOT_UTF8, None),
    "utf16_bom_le": (PAGE.encode("utf-16"), "html", "", None),
    "utf16_bom_be": (b"\xfe\xff" + PAGE.encode("utf-16-be"), "html", "",
                     None),
    "bomless_utf16_with_marker": (PAGE.encode("utf-16-le"), "html", "",
                                  None),
    # ASCII-only UTF-16 is valid UTF-8 (NULs and all): the plain gate
    "bomless_utf16_ascii_no_marker": (
        "just some words".encode("utf-16-le"), "invalid",
        "payload is not markup", None),
    # non-ASCII UTF-16 fails UTF-8: the NUL-stripe rung, then latin-1
    "bomless_utf16_no_marker": (
        "jüst söme wörds".encode("utf-16-le"), "invalid", _NOT_UTF8, None),
    "utf32_bom": (PAGE.encode("utf-32"), "invalid",
                  "utf-32 payloads unsupported", None),
    "utf16_corrupt": (b"\xff\xfe\x41\x00\x42", "invalid",
                      "utf-16: corrupt stream", None),
    "not_markup": (b"a few short words", "invalid", "payload is not markup",
                   None),
    "no_html_structure": (b"if a < b then say so", "invalid",
                          "payload has no recognizable html structure",
                          None),
}


@pytest.mark.parametrize("case", sorted(LADDER))
def test_decode_ladder_exact(case):
    payload, kind, error, first_text = LADDER[case]
    got_kind, spans, got_error = extract_row(payload)
    assert (got_kind, got_error) == (kind, error)
    if first_text is not None:
        assert spans[0]["text"] == first_text
