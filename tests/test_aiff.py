"""AIFF/AIFF-C codec: exact PCM roundtrips across widths and channel
layouts, the 80-bit extended sample-rate field, sowt/float AIFC
variants, hand-built stream pins, malformation quarantine, and the
multimodal dispatch + synth rotation."""
from __future__ import annotations

import struct

import numpy as np
import pytest

from nidaba_ray.algorithms.aiff import (
    _pack_extended,
    _unpack_extended,
    decode_aiff,
    encode_aiff,
    is_aiff,
)


def test_extended_float_field():
    for rate in (8000, 11025, 16000, 22050, 44100, 48000, 96000, 1):
        assert _unpack_extended(_pack_extended(rate)) == float(rate)
    # the canonical 44100 encoding from the AIFF spec appendix
    assert _pack_extended(44100) == bytes.fromhex("400EAC44000000000000")
    with pytest.raises(ValueError):
        _unpack_extended(b"\x7f\xff" + b"\x00" * 8)  # inf/nan exponent
    with pytest.raises(ValueError):
        _unpack_extended(b"\x00" * 9)  # wrong size


@pytest.mark.parametrize("dtype,denom", [
    (np.int8, 128.0), (np.int16, 32768.0), (np.int32, 2147483648.0),
])
def test_pcm_roundtrip_exact(dtype, denom):
    rng = np.random.default_rng(13)
    info = np.iinfo(dtype)
    for shape in ((200,), (64, 2), (33, 3)):
        s = rng.integers(info.min, info.max + 1, size=shape).astype(dtype)
        out, rate = decode_aiff(encode_aiff(s, rate=22050))
        assert rate == 22050
        ref = s.reshape(-1, 1) if s.ndim == 1 else s
        assert np.array_equal(out, ref.astype(np.float64) / denom)


def test_sowt_and_float_variants():
    rng = np.random.default_rng(7)
    s = rng.integers(-32768, 32768, size=(150, 2)).astype(np.int16)
    payload = encode_aiff(s, rate=44100, compression="sowt")
    assert payload[8:12] == b"AIFC" and b"sowt" in payload
    out, rate = decode_aiff(payload)
    assert rate == 44100
    assert np.array_equal(out, s.astype(np.float64) / 32768.0)
    # identical samples through plain AIFF (BE) and sowt (LE) agree
    out_be, _ = decode_aiff(encode_aiff(s, rate=44100))
    assert np.array_equal(out, out_be)

    f32 = (rng.random(80, dtype=np.float32) - 0.5).astype(np.float32)
    out, rate = decode_aiff(encode_aiff(f32, rate=8000, compression="fl32"))
    assert np.array_equal(out[:, 0], f32.astype(np.float64))
    f64 = rng.random(80) - 0.5
    out, _ = decode_aiff(encode_aiff(f64, rate=8000, compression="fl64"))
    assert np.array_equal(out[:, 0], f64)


def test_hand_built_24bit_and_twos():
    # hand-built minimal AIFF: one channel, two 24-bit BE frames
    # 0x400000 → +0.5, 0xC00000 → -0.5 (two's complement)
    comm = struct.pack(">HIH", 1, 2, 24) + _pack_extended(8000)
    ssnd = struct.pack(">II", 0, 0) + bytes.fromhex("400000C00000")
    body = (b"AIFF"
            + b"COMM" + struct.pack(">I", len(comm)) + comm
            + b"SSND" + struct.pack(">I", len(ssnd)) + ssnd)
    payload = b"FORM" + struct.pack(">I", len(body)) + body
    out, rate = decode_aiff(payload)
    assert rate == 8000
    assert out[:, 0].tolist() == [0.5, -0.5]
    # AIFC 'twos' is explicit big-endian 16-bit PCM
    comm = (struct.pack(">HIH", 1, 1, 16) + _pack_extended(8000)
            + b"twos" + b"\x04twos\x00")
    ssnd = struct.pack(">II", 0, 0) + struct.pack(">h", -16384)
    body = (b"AIFC"
            + b"COMM" + struct.pack(">I", len(comm)) + comm
            + b"SSND" + struct.pack(">I", len(ssnd)) + ssnd)
    out, _ = decode_aiff(b"FORM" + struct.pack(">I", len(body)) + body)
    assert out[0, 0] == -0.5


def test_ssnd_offset_and_odd_chunk_pad():
    # SSND offset skips leading alignment bytes; an odd-sized unknown
    # chunk before COMM carries the IFF pad byte
    s = np.array([1000, -1000, 32767], np.int16)
    comm = struct.pack(">HIH", 1, 3, 16) + _pack_extended(16000)
    ssnd = struct.pack(">II", 4, 0) + b"\xde\xad\xbe\xef" + s.astype(">i2").tobytes()
    body = (b"AIFF"
            + b"NAME" + struct.pack(">I", 3) + b"abc" + b"\x00"  # pad
            + b"COMM" + struct.pack(">I", len(comm)) + comm
            + b"SSND" + struct.pack(">I", len(ssnd)) + ssnd)
    out, rate = decode_aiff(b"FORM" + struct.pack(">I", len(body)) + body)
    assert np.array_equal(out[:, 0], s.astype(np.float64) / 32768.0)


def test_malformations_raise():
    good = encode_aiff(np.zeros(10, np.int16), rate=8000)
    assert is_aiff(good) and not is_aiff(b"RIFF" + good[4:])
    with pytest.raises(ValueError):
        decode_aiff(b"FORM\x00\x00\x00\x04AIFF")  # no chunks
    with pytest.raises(ValueError):
        decode_aiff(good[:30])  # truncated chunk
    # frame count promises more data than SSND carries
    bad = bytearray(good)
    comm_at = good.index(b"COMM") + 8
    bad[comm_at + 2:comm_at + 6] = struct.pack(">I", 10_000)
    with pytest.raises(ValueError):
        decode_aiff(bytes(bad))
    with pytest.raises(ValueError):
        encode_aiff(np.zeros(4, np.float32), compression="sowt")
    with pytest.raises(ValueError):
        encode_aiff(np.zeros(4, np.int16), compression="mp3?")


def test_multimodal_dispatch_and_synth_rotation():
    from nidaba_ray.algorithms.wav import is_wav
    from nidaba_ray.stages.multimodal import (
        AudioFeatures,
        decode_audio,
        synth_media_batch,
    )

    # audio ids are i%3==1; i%6==1 → WAV, (i//6)%2 on the rest → AIFF
    t = synth_media_batch([1, 4, 7, 10, 13, 16, 22])
    payloads = {i: p for i, p in zip([1, 4, 7, 10, 13, 16, 22],
                                     t["payload"].to_pylist())}
    assert is_wav(payloads[4])  # (i//6 and i//12 both even → 8-bit WAV)
    from nidaba_ray.algorithms.flac import is_flac

    assert is_flac(payloads[16])  # (i//12 odd → FLAC since round 5)
    assert is_aiff(payloads[10]) and is_aiff(payloads[22])
    samples, rate = decode_audio(payloads[10])
    assert rate == 12000 and len(samples) == 1000 + (10 % 5) * 500
    out = AudioFeatures()(t).to_pylist()
    assert all(r["error"] == "" and r["n_samples"] > 0 and r["rms"] > 0
               for r in out)
    # byte-identity across calls
    assert synth_media_batch([10]).equals(synth_media_batch([10]))
