"""PDF stream-filter chain (spec §7.4): ASCIIHex / ASCII85 /
RunLength / LZW decoders + /Filter array chaining + the one-level
nested-dict capture that keeps /DecodeParms inside the stream dict.

Reference vectors come from the stdlib where one exists
(``base64.a85decode``, ``binascii``) and from hand-packed bit streams
for LZW (the packer below mirrors the decoder's width state machine,
so every widening point is exercised explicitly).
"""
from __future__ import annotations

import base64
import random
import tracemalloc
import zlib

import pytest

from nidaba_ray.algorithms.inflate import MAX_INFLATED_BYTES
from nidaba_ray.stages.extract import extract_row
from nidaba_ray.stages.pdf import (
    _apply_filter_chain,
    _ascii85_decode,
    _ascii_hex_decode,
    _lzw_decode,
    _runlength_decode,
    _stream_filter_chain,
    extract_pdf_blocks,
)


# ---------------------------------------------------------------------------
# ASCIIHexDecode


def test_asciihex_basic_and_eod():
    assert _ascii_hex_decode(b"48656C6C6F>") == b"Hello"
    # whitespace ignored anywhere
    assert _ascii_hex_decode(b"48 65\n6C\t6C 6F >") == b"Hello"
    # bytes after EOD ignored
    assert _ascii_hex_decode(b"41>zzzz-not-hex") == b"A"


def test_asciihex_dangling_digit_pads_zero():
    # spec: a final lone digit reads as if followed by 0
    assert _ascii_hex_decode(b"417>") == b"Ap"  # 0x41, 0x70
    assert _ascii_hex_decode(b"7") == b"\x70"


def test_asciihex_bad_digit_raises():
    with pytest.raises(ValueError):
        _ascii_hex_decode(b"4G>")


def test_asciihex_fuzz_vs_stdlib():
    rng = random.Random(4150)
    for _ in range(50):
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(200)))
        enc = raw.hex().encode()
        # sprinkle whitespace at deterministic positions
        chars = bytearray()
        for i, b in enumerate(enc):
            chars.append(b)
            if i % 7 == 3:
                chars += b"\n"
        assert _ascii_hex_decode(bytes(chars) + b">") == raw


# ---------------------------------------------------------------------------
# ASCII85Decode


def test_ascii85_known_vector():
    # 'sure.' is the classic wikipedia tail vector
    assert _ascii85_decode(base64.a85encode(b"sure.")) == b"sure."


def test_ascii85_z_shortcut_and_adobe_framing():
    assert _ascii85_decode(b"z") == b"\x00\x00\x00\x00"
    framed = base64.a85encode(b"\x00\x00\x00\x00abc", adobe=True)
    assert framed.startswith(b"<~") and framed.endswith(b"~>")
    assert _ascii85_decode(framed) == b"\x00\x00\x00\x00abc"


def test_ascii85_partial_group_and_whitespace():
    enc = base64.a85encode(b"ab")  # 2-byte tail → 3 chars
    spaced = b" ".join(enc[i : i + 1] for i in range(len(enc)))
    assert _ascii85_decode(spaced + b" ~>") == b"ab"


def test_ascii85_errors():
    with pytest.raises(ValueError):
        _ascii85_decode(b"\x80\x80\x80\x80\x80")  # out of range
    with pytest.raises(ValueError):
        _ascii85_decode(b"!")  # lone final digit
    with pytest.raises(ValueError):
        _ascii85_decode(b"uuuuu")  # group > 2^32-1
    with pytest.raises(ValueError):
        _ascii85_decode(b"!z!!!!")  # z inside a group


def test_ascii85_fuzz_vs_stdlib():
    rng = random.Random(85)
    for _ in range(50):
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(120)))
        assert _ascii85_decode(base64.a85encode(raw) + b"~>") == raw


# ---------------------------------------------------------------------------
# RunLengthDecode


def test_runlength_literal_repeat_eod():
    # L<128: copy L+1 literals; L>128: repeat next byte 257-L times
    assert _runlength_decode(b"\x02abc") == b"abc"
    assert _runlength_decode(b"\xfeX") == b"XXX"  # 257-254 = 3
    assert _runlength_decode(b"\x00A\xffB\x80ignored") == b"ABB"
    assert _runlength_decode(b"\x80") == b""


def test_runlength_roundtrip_fuzz():
    rng = random.Random(91)
    for _ in range(30):
        raw = bytes(rng.choice(b"aabbc") for _ in range(rng.randrange(300)))
        # naive encoder: repeat runs for >=3, literals otherwise
        enc = bytearray()
        i = 0
        while i < len(raw):
            j = i
            while j < len(raw) and raw[j] == raw[i] and j - i < 127:
                j += 1
            if j - i >= 3:
                enc += bytes([257 - (j - i), raw[i]])
                i = j
            else:
                k = min(i + 128, len(raw))
                enc += bytes([k - i - 1]) + raw[i:k]
                i = k
        enc.append(128)
        assert _runlength_decode(bytes(enc)) == raw


def test_runlength_truncation_raises():
    with pytest.raises(ValueError):
        _runlength_decode(b"\x05ab")  # literal run cut short
    with pytest.raises(ValueError):
        _runlength_decode(b"\xfe")  # repeat run missing its byte


# ---------------------------------------------------------------------------
# LZWDecode — packer mirrors the decoder's (next_code, width) machine so
# widening points are chosen exactly where a conforming encoder would.


def _pack_codes(codes: list[int], early: int = 1) -> bytes:
    out = bytearray()
    bitbuf = 0
    nbits = 0
    width = 9
    next_code = 258
    first = True
    for code in codes:
        bitbuf = (bitbuf << width) | code
        nbits += width
        while nbits >= 8:
            out.append((bitbuf >> (nbits - 8)) & 0xFF)
            nbits -= 8
        if code == 256:
            width, next_code, first = 9, 258, True
        elif code == 257:
            break
        else:
            if not first:
                next_code += 1
                if next_code + early >= (1 << width) and width < 12:
                    width += 1
            first = False
    if nbits:
        out.append((bitbuf << (8 - nbits)) & 0xFF)
    return bytes(out)


def test_lzw_table_hit_and_kwkwk():
    # clear, A, B, 258(=AB), EOD  →  "ABAB"
    assert _lzw_decode(_pack_codes([256, 65, 66, 258, 257])) == b"ABAB"
    # clear, A, 258 (== next_code: the KwKwK case), EOD  →  "AAA"
    assert _lzw_decode(_pack_codes([256, 65, 258, 257])) == b"AAA"


def test_lzw_literal_stream_all_widths():
    # 5000 literals drive next_code through every widening point
    # (511→10 bits, 1023→11, 2047→12 at early=1) and past 4095, where
    # width must CAP at 12 rather than grow to 13.
    rng = random.Random(12)
    data = bytes(rng.randrange(256) for _ in range(5000))
    codes = [256] + list(data) + [257]
    assert _lzw_decode(_pack_codes(codes, early=1), early=1) == data
    assert _lzw_decode(_pack_codes(codes, early=0), early=0) == data


def test_lzw_earlychange_changes_the_bitstream():
    # beyond the first widening point the two modes disagree — a
    # stream packed early=0 must NOT decode correctly under early=1
    data = bytes(i % 256 for i in range(300))
    codes = [256] + list(data) + [257]
    packed0 = _pack_codes(codes, early=0)
    assert _lzw_decode(packed0, early=0) == data
    try:
        wrong = _lzw_decode(packed0, early=1)
    except ValueError:
        wrong = None
    assert wrong != data


def test_lzw_clear_mid_stream_and_missing_eod():
    a = list(b"hello")
    b = list(b"world")
    packed = _pack_codes([256] + a + [256] + b + [257])
    assert _lzw_decode(packed) == b"helloworld"
    # missing EOD tolerated
    assert _lzw_decode(_pack_codes([256, 65, 66])) == b"AB"


def test_lzw_errors():
    with pytest.raises(ValueError):
        _lzw_decode(_pack_codes([256, 300, 257]))  # first code not literal
    with pytest.raises(ValueError):
        _lzw_decode(_pack_codes([256, 65, 400, 257]))  # beyond table


# ---------------------------------------------------------------------------
# /Filter chain parsing + application


def test_stream_filter_chain_parses():
    assert _stream_filter_chain(b"/Length 5") == []
    assert _stream_filter_chain(b"/Filter /FlateDecode") == [b"FlateDecode"]
    assert _stream_filter_chain(
        b"/Filter [/ASCII85Decode /FlateDecode]"
    ) == [b"ASCII85Decode", b"FlateDecode"]
    # image codecs / unknown names / predictors → undecodable
    assert _stream_filter_chain(b"/Filter /DCTDecode") is None
    assert _stream_filter_chain(b"/Filter [/FlateDecode /JBIG2Decode]") is None
    assert _stream_filter_chain(
        b"/Filter /FlateDecode /DecodeParms << /Predictor 12 >>"
    ) is None
    # Predictor 1 is the identity — still decodable
    assert _stream_filter_chain(
        b"/Filter /FlateDecode /DecodeParms << /Predictor 1 >>"
    ) == [b"FlateDecode"]


def test_apply_filter_chain_order():
    raw = b"BT (chained) Tj ET"
    body = base64.a85encode(zlib.compress(raw)) + b"~>"
    out = _apply_filter_chain(
        body, [b"ASCII85Decode", b"FlateDecode"], b""
    )
    assert out == raw


def _raw_pdf(dict_src: bytes, body: bytes) -> bytes:
    return (
        b"%PDF-1.4\n1 0 obj << /Length " + str(len(body)).encode()
        + b" " + dict_src + b" >> stream\n" + body
        + b"\nendstream endobj\n%%EOF\n"
    )


def test_pdf_ascii85_flate_chain_end_to_end():
    body = base64.a85encode(zlib.compress(b"BT (mailsafe) Tj ET")) + b"~>"
    pdf = _raw_pdf(b"/Filter [/ASCII85Decode /FlateDecode]", body)
    assert extract_pdf_blocks(pdf) == ["mailsafe"]


def test_pdf_asciihex_and_runlength_end_to_end():
    content = b"BT (hexed) Tj ET"
    pdf = _raw_pdf(b"/Filter /ASCIIHexDecode", content.hex().encode() + b">")
    assert extract_pdf_blocks(pdf) == ["hexed"]
    rl = b"".join(
        bytes([len(content[i : i + 100]) - 1]) + content[i : i + 100]
        for i in range(0, len(content), 100)
    ) + b"\x80"
    pdf = _raw_pdf(b"/Filter /RunLengthDecode", rl)
    assert extract_pdf_blocks(pdf) == ["hexed"]


def test_pdf_lzw_with_nested_decodeparms_dict():
    # the /DecodeParms << … >> sub-dict must stay INSIDE the captured
    # stream dict (the one-level nesting the stream table allows) and
    # its /EarlyChange 0 must be honoured — the content is long enough
    # that the two widening modes produce different bitstreams.
    text = "a" * 300
    content = b"BT (" + text.encode() + b") Tj ET"
    body = _pack_codes([256] + list(content) + [257], early=0)
    pdf = _raw_pdf(
        b"/Filter /LZWDecode /DecodeParms << /EarlyChange 0 >>", body
    )
    assert extract_pdf_blocks(pdf) == [text]
    # default EarlyChange 1 path
    body1 = _pack_codes([256] + list(content) + [257], early=1)
    pdf1 = _raw_pdf(b"/Filter /LZWDecode", body1)
    assert extract_pdf_blocks(pdf1) == [text]


def test_pdf_image_codec_stream_skipped_not_parsed():
    # a DCTDecode stream full of binary soup must be skipped while the
    # text stream beside it still extracts
    noise = bytes(range(256)) * 4
    pdf = (
        b"%PDF-1.4\n"
        b"1 0 obj << /Length " + str(len(noise)).encode()
        + b" /Filter /DCTDecode >> stream\n" + noise
        + b"\nendstream endobj\n"
        + b"2 0 obj << /Length 13 >> stream\nBT (ok) Tj ET\nendstream endobj\n"
        b"%%EOF\n"
    )
    assert extract_pdf_blocks(pdf) == ["ok"]


# ---------------------------------------------------------------------------
# FlateDecode inflates under the payload cap


def test_flate_bomb_stream_is_skipped_within_bounded_memory():
    # Peak allocation is bounded by the cap, not by the 4x-cap stream:
    # the capped inflate holds its output twice at its peak (CPython's
    # zlib output buffer joins its blocks); the stream table's scan
    # holds no per-byte state. An uncapped inflate would need 4x the
    # cap for its output alone.
    c = zlib.compressobj(9)
    chunk = bytes(1 << 20)
    bomb = b"".join(c.compress(chunk)
                    for _ in range(4 * MAX_INFLATED_BYTES >> 20)) + c.flush()
    text = zlib.compress(b"BT (kept paragraph) Tj ET")
    pdf = (b"%PDF-1.4\n1 0 obj << /Type /Catalog >> endobj\n"
           b"2 0 obj << /Length " + str(len(bomb)).encode()
           + b" /Filter /FlateDecode >> stream\n" + bomb
           + b"\nendstream endobj\n"
           b"3 0 obj << /Length " + str(len(text)).encode()
           + b" /Filter /Fl >> stream\n" + text
           + b"\nendstream endobj\ntrailer << /Root 1 0 R >>\n%%EOF\n")
    tracemalloc.start()
    try:
        kind, spans, err = extract_row(pdf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (kind, err) == ("pdf", "")
    assert [s["text"] for s in spans] == ["kept paragraph"]
    assert peak < 3 * MAX_INFLATED_BYTES, peak
