"""WAV/RIFF audio codec — from-scratch, public-spec only (the
Microsoft/IBM "Multimedia Programming Interface and Data
Specifications 1.0" RIFF WAVE layout, same build-from-spec approach
as :mod:`nidaba_ray.algorithms.png`). No external audio libraries.

Decode supports the formats that cover real-world WAV files:

* ``WAVE_FORMAT_PCM`` (1): 8-bit unsigned, 16/24/32-bit signed LE
* ``WAVE_FORMAT_IEEE_FLOAT`` (3): float32 / float64
* ``WAVE_FORMAT_EXTENSIBLE`` (0xFFFE) wrapping either of the above
  (the real format lives in the first two bytes of the SubFormat GUID)

Unknown chunks are skipped (odd-sized chunks carry the spec's pad
byte); malformed/truncated payloads raise ``ValueError`` — the actor
stages' per-row quarantine contract. The encoder exists so tests are
self-contained roundtrips (encode → decode → exact sample equality
for integer PCM; WAV is lossless, unlike JPEG)."""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["encode_wav", "decode_wav", "is_wav"]

_PCM = 1
_IEEE_FLOAT = 3
_EXTENSIBLE = 0xFFFE


def is_wav(payload: bytes) -> bool:
    return payload[:4] == b"RIFF" and payload[8:12] == b"WAVE"


def encode_wav(samples: np.ndarray, rate: int = 16000) -> bytes:
    """Serialize samples to a canonical RIFF WAVE stream.

    ``samples`` is (frames,) or (frames, channels); the dtype picks
    the wire format: uint8 → 8-bit PCM, int16/int32 → PCM,
    float32/float64 → IEEE float. Integer encodes are exact
    roundtrips."""
    s = np.asarray(samples)
    if s.ndim == 1:
        s = s[:, None]
    if s.ndim != 2:
        raise ValueError("samples must be (frames,) or (frames, channels)")
    if s.dtype == np.uint8:
        fmt, bits = _PCM, 8
    elif s.dtype == np.int16:
        fmt, bits = _PCM, 16
    elif s.dtype == np.int32:
        fmt, bits = _PCM, 32
    elif s.dtype == np.float32:
        fmt, bits = _IEEE_FLOAT, 32
    elif s.dtype == np.float64:
        fmt, bits = _IEEE_FLOAT, 64
    else:
        raise ValueError(f"unsupported sample dtype {s.dtype}")
    n_ch = s.shape[1]
    block = n_ch * bits // 8
    data = s.astype(s.dtype.newbyteorder("<")).tobytes(order="C")
    fmt_chunk = struct.pack("<HHIIHH", fmt, n_ch, rate, rate * block,
                            block, bits)
    body = (b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
            + b"data" + struct.pack("<I", len(data)) + data
            + (b"\x00" if len(data) % 2 else b""))
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _parse_fmt(chunk: bytes) -> tuple[int, int, int, int, int]:
    """fmt chunk → (format, channels, rate, block_align, bits)."""
    if len(chunk) < 16:
        raise ValueError("fmt chunk too short")
    fmt, n_ch, rate, _byte_rate, block, bits = struct.unpack(
        "<HHIIHH", chunk[:16])
    if fmt == _EXTENSIBLE:
        # cbSize(2) valid_bits(2) channel_mask(4) SubFormat GUID(16);
        # the real format tag is the GUID's first two bytes
        if len(chunk) < 26:
            raise ValueError("extensible fmt chunk too short")
        fmt = struct.unpack("<H", chunk[24:26])[0]
    if n_ch == 0 or block == 0:
        raise ValueError("zero channels or block align")
    if rate == 0:
        raise ValueError("zero sample rate")
    return fmt, n_ch, rate, block, bits


def decode_wav(payload: bytes) -> tuple[np.ndarray, int]:
    """RIFF WAVE bytes → ((frames, channels) float64 in [-1, 1],
    sample_rate). ValueError on malformed input."""
    if not is_wav(payload):
        raise ValueError("not a RIFF WAVE payload")
    pos, end = 12, len(payload)
    fmt_info: tuple | None = None
    data: bytes | None = None
    while pos + 8 <= end:
        cid = payload[pos:pos + 4]
        (size,) = struct.unpack("<I", payload[pos + 4:pos + 8])
        body = payload[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise ValueError(f"truncated {cid!r} chunk")
        if cid == b"fmt ":
            fmt_info = _parse_fmt(body)
        elif cid == b"data":
            data = body
        pos += 8 + size + (size % 2)  # odd chunks carry a pad byte
    if fmt_info is None or data is None:
        raise ValueError("missing fmt or data chunk")
    fmt, n_ch, rate, block, bits = fmt_info
    if len(data) % block:
        raise ValueError("data size is not a whole number of frames")
    if fmt == _PCM and bits == 8:
        flat = (np.frombuffer(data, np.uint8).astype(np.float64)
                - 128.0) / 128.0
    elif fmt == _PCM and bits == 16:
        flat = np.frombuffer(data, "<i2").astype(np.float64) / 32768.0
    elif fmt == _PCM and bits == 24:
        b = np.frombuffer(data, np.uint8).reshape(-1, 3).astype(np.int32)
        val = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        val = (val ^ 0x800000) - 0x800000  # sign-extend 24 → 32
        flat = val.astype(np.float64) / 8388608.0
    elif fmt == _PCM and bits == 32:
        flat = np.frombuffer(data, "<i4").astype(np.float64) / 2147483648.0
    elif fmt == _IEEE_FLOAT and bits == 32:
        flat = np.frombuffer(data, "<f4").astype(np.float64)
    elif fmt == _IEEE_FLOAT and bits == 64:
        flat = np.frombuffer(data, "<f8").astype(np.float64)
    else:
        raise ValueError(f"unsupported WAV format {fmt}/{bits}-bit")
    if len(flat) % n_ch:
        raise ValueError("sample count is not a multiple of channels")
    return flat.reshape(-1, n_ch), rate
