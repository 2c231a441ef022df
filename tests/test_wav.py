"""WAV/RIFF codec (algorithms/wav.py) — self-contained roundtrips
plus hand-built streams for the chunk-walk edge cases, and the
multimodal audio path over REAL WAV bytes (round-4 verdict item 6:
audio graduates from the deterministic fake)."""

import struct

import numpy as np
import pytest

from nidaba_ray.algorithms.wav import decode_wav, encode_wav, is_wav


@pytest.mark.parametrize("dtype,tol", [
    (np.uint8, 1 / 128), (np.int16, 1 / 32768), (np.int32, 1 / 2**31),
])
def test_pcm_roundtrip_exact(dtype, tol):
    rng = np.random.default_rng(7)
    info = np.iinfo(dtype)
    raw = rng.integers(info.min, info.max, size=(300, 2)).astype(dtype)
    out, rate = decode_wav(encode_wav(raw, rate=44100))
    assert rate == 44100 and out.shape == (300, 2)
    # integer PCM is lossless: denormalizing recovers the exact ints
    if dtype == np.uint8:
        back = np.round(out * 128.0 + 128.0).astype(dtype)
    else:
        back = np.round(out * float(info.max + 1)).astype(dtype)
    assert (back == raw).all()


def test_float_roundtrip_and_mono():
    x = np.linspace(-1, 1, 101, dtype=np.float32)
    out, rate = decode_wav(encode_wav(x, rate=8000))
    assert out.shape == (101, 1)
    assert np.array_equal(out[:, 0], x.astype(np.float64))
    x64 = np.cos(np.linspace(0, 6, 50))
    out64, _ = decode_wav(encode_wav(x64, rate=8000))
    assert np.array_equal(out64[:, 0], x64)


def test_24bit_pcm_hand_built():
    """24-bit samples have no numpy dtype — build the data chunk by
    hand and pin the sign extension."""
    vals = [0, 1, -1, 8388607, -8388608, 4660]  # incl. int24 extremes
    data = b"".join(struct.pack("<i", v)[:3] for v in vals)
    fmt = struct.pack("<HHIIHH", 1, 1, 22050, 22050 * 3, 3, 24)
    body = (b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    wav = b"RIFF" + struct.pack("<I", len(body)) + body
    out, rate = decode_wav(wav)
    assert rate == 22050
    assert np.array_equal(np.round(out[:, 0] * 8388608.0), np.array(vals))


def test_extensible_wrapper_and_unknown_chunks():
    """WAVE_FORMAT_EXTENSIBLE wraps PCM in a GUID; unknown chunks
    (odd-sized, with the spec's pad byte) must be skipped."""
    raw = np.array([100, -200, 300], dtype=np.int16)
    data = raw.tobytes()
    sub = struct.pack("<H", 1) + b"\x00\x00" + b"\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    fmt = (struct.pack("<HHIIHH", 0xFFFE, 1, 16000, 32000, 2, 16)
           + struct.pack("<HHI", 22, 16, 4) + sub)
    junk = b"LIST" + struct.pack("<I", 3) + b"abc\x00"  # odd size + pad
    body = (b"WAVE" + junk
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    wav = b"RIFF" + struct.pack("<I", len(body)) + body
    out, rate = decode_wav(wav)
    assert rate == 16000
    assert np.array_equal(np.round(out[:, 0] * 32768.0), raw)


@pytest.mark.parametrize("mutate", [
    lambda w: w[:20],                       # truncated mid-chunk
    lambda w: b"RIFX" + w[4:],              # wrong magic
    lambda w: w[:-3],                       # data shorter than declared
])
def test_malformed_raises(mutate):
    wav = encode_wav(np.array([1, 2, 3], dtype=np.int16), rate=8000)
    with pytest.raises(ValueError):
        decode_wav(mutate(wav))


def test_missing_data_chunk_raises():
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
    with pytest.raises(ValueError, match="missing"):
        decode_wav(b"RIFF" + struct.pack("<I", len(body)) + body)


def test_rms_hand_pin_constant_signal():
    """A constant full-scale-half signal has RMS exactly 0.5 — pinned
    through the real AudioFeatures stage."""
    import pyarrow as pa

    from nidaba_ray.stages.multimodal import AudioFeatures

    wav = encode_wav(np.full(400, 16384, dtype=np.int16), rate=8000)
    t = pa.table({"media_id": pa.array([1], pa.int64()),
                  "kind": pa.array(["audio"], pa.string()),
                  "payload": pa.array([wav], pa.binary())})
    row = AudioFeatures()(t).to_pylist()[0]
    assert row["error"] == "" and row["n_samples"] == 400
    assert row["rms"] == 0.5


def test_synth_audio_rows_are_real_wav():
    """synth_media_batch emits int16 RIFF/WAVE for i%6==1 and 8-bit
    RIFF/WAVE for the ids no AIFF/FLAC slot takes; both decode through
    the same feature stage with no errors."""
    from nidaba_ray.stages.multimodal import (
        AudioFeatures,
        decode_audio,
        synth_media_batch,
    )

    t = synth_media_batch([1, 4, 7, 10, 13])  # audio ids (i%3==1)
    payloads = t["payload"].to_pylist()
    assert is_wav(payloads[0]) and is_wav(payloads[2])      # 1, 7
    assert is_wav(payloads[1])                               # 4: 8-bit
    assert decode_audio(payloads[1])[1] == 12000
    out = AudioFeatures()(t).to_pylist()
    assert all(r["error"] == "" and r["n_samples"] > 0 and r["rms"] > 0
               for r in out)
    # deterministic across calls (byte-identity invariant)
    assert synth_media_batch([1]).equals(synth_media_batch([1]))
