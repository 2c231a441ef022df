"""Capped inflate of the compressed payload dialects: bombs quarantine
with a named reason, concatenated members still inflate, and every
other stream inflates (or fails) exactly as the stdlib one-shot
functions do."""

from __future__ import annotations

import bz2
import gzip
import lzma
import zlib

import pytest

from nidaba_ray.algorithms import inflate as inflate_mod
from nidaba_ray.algorithms.inflate import (
    MAX_INFLATED_BYTES,
    InflateError,
    inflate,
    inflate_zlib,
)
from nidaba_ray.stages.extract import extract_row

# codec → (compress, stdlib one-shot decompress)
CODECS = {
    "gzip": (lambda b: gzip.compress(b, mtime=0), gzip.decompress),
    "bzip2": (bz2.compress, bz2.decompress),
    "xz": (lambda b: lzma.compress(b, preset=0), lzma.decompress),
}

PAGE = (b"<html><body><p>compressed page body with enough words "
        b"to score as the single content block here</p></body></html>")


@pytest.mark.parametrize("codec", sorted(CODECS))
def test_bomb_quarantines(codec):
    compress, _ = CODECS[codec]
    bomb = compress(bytes(MAX_INFLATED_BYTES + (1 << 20)))
    assert len(bomb) < 100_000
    assert extract_row(bomb) == (
        "invalid", [], f"{codec}: decompressed size exceeds cap")


@pytest.mark.parametrize("codec", sorted(CODECS))
def test_cap_is_inclusive(codec, monkeypatch):
    compress, _ = CODECS[codec]
    payload = compress(b"x" * 100)
    monkeypatch.setattr(inflate_mod, "MAX_INFLATED_BYTES", 100)
    assert inflate(payload, codec) == b"x" * 100
    # the cap counts every member, not each one
    with pytest.raises(InflateError, match="exceeds cap"):
        inflate(payload + compress(b"y"), codec)
    monkeypatch.setattr(inflate_mod, "MAX_INFLATED_BYTES", 99)
    with pytest.raises(InflateError, match="exceeds cap"):
        inflate(payload, codec)


@pytest.mark.parametrize("codec", sorted(CODECS))
def test_concatenated_members_inflate(codec):
    compress, decompress = CODECS[codec]
    half = len(PAGE) // 2
    payload = compress(PAGE[:half]) + compress(PAGE[half:])
    assert inflate(payload, codec) == decompress(payload) == PAGE
    kind, spans, err = extract_row(payload)
    assert kind == "html" and err == ""
    assert any("compressed page body" in s["text"] for s in spans)


@pytest.mark.parametrize("codec", sorted(CODECS))
@pytest.mark.parametrize("tail", [b"", b"\x00" * 7, b"trailing junk"])
def test_trailing_bytes_match_stdlib(codec, tail):
    """gzip skips NUL padding and rejects other trailing bytes; bzip2
    and xz ignore whatever follows their last stream."""
    compress, decompress = CODECS[codec]
    payload = compress(PAGE) + tail
    try:
        want = decompress(payload)
    except (OSError, EOFError, ValueError, lzma.LZMAError):
        want = None
    if want is None:
        with pytest.raises(InflateError, match="corrupt stream"):
            inflate(payload, codec)
    else:
        assert inflate(payload, codec) == want


@pytest.mark.parametrize("codec", sorted(CODECS))
def test_truncated_and_corrupt_quarantine(codec):
    compress, _ = CODECS[codec]
    payload = compress(PAGE)
    for bad in (payload[:len(payload) // 2], payload + payload[:12]):
        assert extract_row(bad) == ("invalid", [], f"{codec}: corrupt stream")


def test_zlib_stream_keeps_one_shot_semantics(monkeypatch):
    # PDF FlateDecode: one zlib stream, as zlib.decompress reads it
    body = zlib.compress(b"x" * 100)
    for tail in (b"", b"junk", zlib.compress(b"second")):
        assert inflate_zlib(body + tail) == zlib.decompress(body + tail)
    for bad in (body[:-1], body[:5], b"", b"\x00" + body):
        with pytest.raises(zlib.error):
            zlib.decompress(bad)
        with pytest.raises(zlib.error):
            inflate_zlib(bad)
    monkeypatch.setattr(inflate_mod, "MAX_INFLATED_BYTES", 100)
    assert inflate_zlib(body) == b"x" * 100
    with pytest.raises(InflateError, match="exceeds cap"):
        inflate_zlib(zlib.compress(b"x" * 101))
