"""FLAC codec (algorithms/flac.py): lossless roundtrips through the
encoder, hand-built streams for the decoder-only paths (LPC, stereo
decorrelation, escape partitions, wasted bits, multi-partition Rice,
header dialects), integrity failures, and the multimodal dispatch."""

from __future__ import annotations

import struct

import numpy as np
import pytest

import nidaba_ray.algorithms.flac as F
from nidaba_ray.algorithms.flac import (
    decode_flac,
    decode_flac_pcm,
    encode_flac,
    is_flac,
)


def _rng():
    return np.random.default_rng(7)


# ---------------------------------------------------------------------------
# Encoder roundtrips (lossless)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,samples", [
    ("const", np.full(5000, -123, np.int16)),
    ("noise", _rng().integers(-32768, 32767, 3000).astype(np.int16)),
    ("smooth", (1000 * np.sin(np.arange(9000) / 50)).astype(np.int16)),
    ("ramp", np.arange(-1000, 1000, dtype=np.int16)),
    ("one", np.array([5], np.int16)),
    ("int8", _rng().integers(-128, 127, 2000).astype(np.int8)),
    ("multiblock", (700 * np.sin(np.arange(13000) / 9)).astype(np.int16)),
])
def test_roundtrip_mono(name, samples):
    enc = encode_flac(samples, rate=22050)
    assert is_flac(enc)
    pcm, rate, bps = decode_flac_pcm(enc)
    assert rate == 22050
    assert np.array_equal(pcm[:, 0], samples.astype(np.int64))


def test_roundtrip_stereo_and_compression():
    s = np.stack(
        [(500 * np.sin(np.arange(6000) / 30)).astype(np.int16),
         _rng().integers(-200, 200, 6000).astype(np.int16)], axis=1)
    enc = encode_flac(s, rate=16000)
    pcm, rate, _ = decode_flac_pcm(enc)
    assert np.array_equal(pcm, s.astype(np.int64))
    # the FIXED+Rice path must actually compress smooth audio
    assert len(enc) < s.nbytes // 2


def test_float_surface_matches_wav_scale():
    s = np.array([16384, -16384] * 100, np.int16)
    f, rate = decode_flac(encode_flac(s))
    assert np.allclose(f[:, 0], np.where(np.arange(200) % 2 == 0, 0.5, -0.5))


# ---------------------------------------------------------------------------
# Hand-built streams (decoder-only paths)
# ---------------------------------------------------------------------------

def _stream(frames: list[bytes], bs: int, rate: int, n_ch: int, bps: int,
            total: int, md5: bytes = bytes(16)) -> bytes:
    si = F._BitWriter()
    si.write(bs, 16)
    si.write(bs, 16)
    si.write(0, 24)
    si.write(0, 24)
    si.write(rate, 20)
    si.write(n_ch - 1, 3)
    si.write(bps - 1, 5)
    si.write(total, 36)
    body = si.bytes() + md5
    return (F._MAGIC + bytes([0x80]) + len(body).to_bytes(3, "big")
            + body + b"".join(frames))


def _frame(sub_writer, bs: int, ch_code: int, ss_code: int, fi: int = 0,
           sr_code: int = 0, extra_sr: bytes = b"") -> bytes:
    h = F._BitWriter()
    h.write(0x3FFE, 14)
    h.write(0, 2)            # reserved + fixed blocking
    h.write(7, 4)            # 16-bit blocksize-1 follows
    h.write(sr_code, 4)
    h.write(ch_code, 4)
    h.write(ss_code, 3)
    h.write(0, 1)
    header = (h.bytes() + F._utf8_encode(fi)
              + struct.pack(">H", bs - 1) + extra_sr)
    header += bytes([F._crc8(header)])
    w = F._BitWriter()
    sub_writer(w)
    w.align()
    fr = header + w.bytes()
    return fr + struct.pack(">H", F._crc16(fr))


def _verbatim(w, samples, bits):
    w.write(0, 1)
    w.write(1, 6)
    w.write(0, 1)
    for v in np.asarray(samples).tolist():
        w.write(int(v), bits)


def test_lpc_subframe():
    """Order-2 LPC with known coefficients against an independent
    Python reference of the spec's prediction formula."""
    bs, bps = 64, 16
    warmup = [100, 103]
    coefs = [3, -1]          # pred = (3*s[i-1] - s[i-2]) >> shift
    shift = 1
    res = list(range(-20, 42))  # bs - order values
    ref = list(warmup)
    for i in range(2, bs):
        pred = (coefs[0] * ref[i - 1] + coefs[1] * ref[i - 2]) >> shift
        ref.append(pred + res[i - 2])

    def sub(w):
        w.write(0, 1)
        w.write(32 + 1, 6)   # LPC, order 2
        w.write(0, 1)
        for v in warmup:
            w.write(v, bps)
        w.write(4 - 1, 4)    # precision 4 bits
        w.write(shift, 5)
        for c in coefs:
            w.write(c, 4)
        F._write_residual(w, np.array(res, np.int64), 3)

    enc = _stream([_frame(sub, bs, 0, 4)], bs, 8000, 1, bps, bs)
    pcm, rate, _ = decode_flac_pcm(enc)
    assert rate == 8000
    assert pcm[:, 0].tolist() == ref


@pytest.mark.parametrize("ch_code", [8, 9, 10])
def test_stereo_decorrelation(ch_code):
    left = np.array([100, -5, 32767, -32768, 0, 7] * 4, np.int64)
    right = np.array([90, 5, -32768, 32767, 1, -7] * 4, np.int64)
    bs, bps = len(left), 16
    side = left - right

    def sub(w):
        if ch_code == 8:      # left/side
            _verbatim(w, left, bps)
            _verbatim(w, side, bps + 1)
        elif ch_code == 9:    # right/side (side first per spec)
            _verbatim(w, side, bps + 1)
            _verbatim(w, right, bps)
        else:                 # mid/side
            mid = (left + right) >> 1
            _verbatim(w, mid, bps)
            _verbatim(w, side, bps + 1)

    enc = _stream([_frame(sub, bs, ch_code, 4)], bs, 8000, 2, bps, bs)
    pcm, _, _ = decode_flac_pcm(enc)
    assert np.array_equal(pcm[:, 0], left)
    assert np.array_equal(pcm[:, 1], right)


def test_escape_partition_and_multi_partition():
    """Partition order 1 with one Rice and one escape-coded raw
    partition."""
    bs, bps, order = 16, 16, 0
    vals = np.array([1, -2, 3, -4, 5, -6, 7, -8,
                     1000, -1000, 12345, -12345, 0, 1, -1, 2], np.int64)

    def sub(w):
        w.write(0, 1)
        w.write(8, 6)        # FIXED order 0 (residual == samples)
        w.write(0, 1)
        w.write(0, 2)        # method 0
        w.write(1, 4)        # partition order 1
        w.write(2, 4)        # partition 1: rice param 2
        for v in vals[:8].tolist():
            folded = (abs(v) << 1) - (1 if v < 0 else 0)
            w.write_unary(folded >> 2)
            w.write(folded, 2)
        w.write(15, 4)       # partition 2: escape
        w.write(15, 5)       # 15 raw bits per sample
        for v in vals[8:].tolist():
            w.write(v, 15)

    enc = _stream([_frame(sub, bs, 0, 4)], bs, 8000, 1, bps, bs)
    pcm, _, _ = decode_flac_pcm(enc)
    assert np.array_equal(pcm[:, 0], vals)


def test_wasted_bits():
    bs, bps, k = 8, 16, 3

    def sub(w):
        w.write(0, 1)
        w.write(0, 6)        # CONSTANT
        w.write(1, 1)        # wasted flag
        w.write(1, k)        # unary k-1 zeros then 1 → k wasted bits
        w.write(-5, bps - k)

    enc = _stream([_frame(sub, bs, 0, 4)], bs, 8000, 1, bps, bs)
    pcm, _, _ = decode_flac_pcm(enc)
    assert (pcm[:, 0] == (-5 << k)).all()


def test_header_dialects():
    """Explicit sample-rate field codes decode; frame sample size
    override decodes."""
    vals = np.arange(-4, 4, dtype=np.int64)
    bs = len(vals)

    def sub(w):
        _verbatim(w, vals, 12)

    # sr_code 12: 8-bit kHz field; ss_code 2 = 12-bit samples
    enc = _stream([_frame(sub, bs, 0, 2, sr_code=12, extra_sr=bytes([44]))],
                  bs, 8000, 1, 12, bs)
    pcm, rate, bps = decode_flac_pcm(enc)
    assert rate == 44000 and bps == 12
    assert np.array_equal(pcm[:, 0], vals)
    # sr_code 14: 16-bit Hz/10 field
    enc = _stream(
        [_frame(sub, bs, 0, 2, sr_code=14,
                extra_sr=struct.pack(">H", 4410))],
        bs, 8000, 1, 12, bs)
    _, rate, _ = decode_flac_pcm(enc)
    assert rate == 44100


def test_variable_blocking_strategy():
    vals = np.arange(16, dtype=np.int64)

    def sub(w):
        _verbatim(w, vals, 16)

    h = F._BitWriter()
    h.write(0x3FFE, 14)
    h.write(0, 1)
    h.write(1, 1)            # variable blocking → sample number
    h.write(7, 4)
    h.write(0, 4)
    h.write(0, 4)
    h.write(4, 3)
    h.write(0, 1)
    header = h.bytes() + F._utf8_encode(1 << 20) + struct.pack(">H", 15)
    header += bytes([F._crc8(header)])
    w = F._BitWriter()
    sub(w)
    w.align()
    fr = header + w.bytes()
    fr += struct.pack(">H", F._crc16(fr))
    enc = _stream([fr], 16, 8000, 1, 16, 16)
    pcm, _, _ = decode_flac_pcm(enc)
    assert np.array_equal(pcm[:, 0], vals)


# ---------------------------------------------------------------------------
# Integrity and malformed input
# ---------------------------------------------------------------------------

def test_crc_and_md5_guard():
    s = (300 * np.sin(np.arange(3000) / 20)).astype(np.int16)
    enc = bytearray(encode_flac(s))
    # flip one PCM-affecting byte near the end → CRC-16 or MD5 trips
    enc[-40] ^= 0xFF
    with pytest.raises(ValueError):
        decode_flac_pcm(bytes(enc))


def test_truncation_and_garbage():
    s = np.arange(100, dtype=np.int16)
    enc = encode_flac(s)
    for cut in (3, 10, len(enc) // 2, len(enc) - 1):
        with pytest.raises(ValueError):
            decode_flac_pcm(enc[:cut])
    with pytest.raises(ValueError):
        decode_flac_pcm(b"not flac at all")


def test_streaminfo_must_be_the_first_and_only_streaminfo():
    """The decoder reads STREAMINFO where probe_media does: as the first
    metadata block, once. A PADDING block before it (which used to
    decode at the fallback rate) and a repeated STREAMINFO both raise."""
    from nidaba_ray.stages.multimodal import probe_media

    enc = encode_flac(np.arange(100, dtype=np.int16), rate=22050)
    si, frames = enc[4:42], enc[42:]
    assert si[0] == 0x80 and decode_flac_pcm(enc)[1] == 22050
    padding_first = b"fLaC" + bytes([1, 0, 0, 4, 0, 0, 0, 0]) + si + frames
    for read in (decode_flac_pcm, probe_media):
        with pytest.raises(ValueError, match="first metadata block is not"):
            read(padding_first)
    twice = b"fLaC" + bytes([0]) + si[1:] + si + frames
    with pytest.raises(ValueError, match="second STREAMINFO"):
        decode_flac_pcm(twice)


def test_utf8_number_roundtrip():
    r = F._BitReader(b"".join(F._utf8_encode(v) for v in
                              [0, 1, 127, 128, 2047, 2048, 65535,
                               1 << 20, (1 << 36) - 1]))
    for v in [0, 1, 127, 128, 2047, 2048, 65535, 1 << 20, (1 << 36) - 1]:
        assert F._utf8_decode(r) == v


# ---------------------------------------------------------------------------
# Dispatcher and synth rotation
# ---------------------------------------------------------------------------

def test_decode_audio_dispatch_and_container_invariance():
    from nidaba_ray.algorithms.aiff import encode_aiff
    from nidaba_ray.algorithms.wav import encode_wav
    from nidaba_ray.stages.multimodal import decode_audio

    pcm = (1234 * np.sin(np.arange(2000) / 15)).astype(np.int16)
    via_flac, rf = decode_audio(encode_flac(pcm, rate=16000))
    via_wav, rw = decode_audio(encode_wav(pcm, rate=16000))
    via_aiff, ra = decode_audio(encode_aiff(pcm, rate=16000))
    assert rf == rw == ra == 16000
    # lossless cross-container: identical float samples
    assert np.array_equal(via_flac, via_wav)
    assert np.array_equal(via_flac, via_aiff)


def test_synth_rotation_serves_flac():
    from nidaba_ray.stages.multimodal import decode_audio, synth_media_batch

    ids = [i for i in range(1, 200, 3)]  # audio ids (i % 3 == 1)
    t = synth_media_batch(ids)
    payloads = t["payload"].to_pylist()
    n_flac = sum(1 for p in payloads if is_flac(p))
    assert n_flac > 0
    for p in payloads:
        samples, _rate = decode_audio(p)
        assert len(samples) >= 1000
