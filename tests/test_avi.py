"""AVI/RIFF video codec (algorithms/avi.py) — DIB exact roundtrips,
MJPG bounded roundtrips (lossy JPEG frames), hand-built container
pins against the public RIFF layout, lazy frame-walk guarantees, and
the multimodal video stages over real AVI bytes (round-4 verdict
item: a second/third real modality; video closes the set)."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidaba_ray.algorithms.avi import (decode_avi, decode_frame,
                                       encode_avi, is_avi, parse_avi)


def _frames(n=5, h=16, w=16, seed=7):
    rng = np.random.RandomState(seed)
    # smooth-ish content so the MJPG (lossy) roundtrip stays bounded
    base = np.linspace(40, 200, w, dtype=np.float64)[None, :]
    out = []
    for i in range(n):
        f = base + 10.0 * i + rng.randint(0, 4, (h, w))
        out.append(np.clip(f, 0, 255).astype(np.uint8))
    return np.stack(out)


def test_dib_roundtrip_exact():
    fr = _frames(4)
    payload = encode_avi(fr, fps=12, codec="DIB ")
    assert is_avi(payload)
    dec, fps = decode_avi(payload)
    assert fps == pytest.approx(12.0, abs=0.01)
    np.testing.assert_array_equal(dec, fr)


def test_dib_nonmultiple_of_4_width_stride():
    """w=13 → DIB rows pad to a 16-byte stride; pixels survive."""
    fr = _frames(3, h=9, w=13)
    dec, _ = decode_avi(encode_avi(fr, codec="DIB "))
    np.testing.assert_array_equal(dec, fr)


def test_mjpg_roundtrip_bounded():
    fr = _frames(5)
    payload = encode_avi(fr, fps=24, codec="MJPG", quality=92)
    dec, fps = decode_avi(payload)
    assert fps == pytest.approx(24.0, abs=0.05)
    assert dec.shape == fr.shape
    err = np.abs(dec.astype(np.int64) - fr.astype(np.int64))
    assert err.max() <= 12 and err.mean() < 3.0


@given(st.integers(1, 6), st.integers(1, 21), st.integers(1, 21),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_dib_roundtrip_property(n, h, w, seed):
    """Any (n, h, w) uint8 stack survives a DIB encode/decode exactly,
    across every row-stride padding class (w mod 4)."""
    fr = np.random.RandomState(seed).randint(
        0, 256, (n, h, w)).astype(np.uint8)
    dec, fps = decode_avi(encode_avi(fr, fps=25, codec="DIB "))
    assert fps == pytest.approx(25.0, abs=0.05)
    np.testing.assert_array_equal(dec, fr)


def test_encode_deterministic():
    fr = _frames(3)
    assert encode_avi(fr, codec="MJPG") == encode_avi(fr, codec="MJPG")
    assert encode_avi(fr, codec="DIB ") == encode_avi(fr, codec="DIB ")


def test_parse_header_fields():
    fr = _frames(6, h=24, w=32)
    info, raws = parse_avi(encode_avi(fr, fps=10, codec="DIB "))
    assert len(raws) == 6
    assert info["width"] == 32 and info["height"] == 24
    assert info["total_frames"] == 6
    assert info["bits"] == 8 and info["compression"] == 0
    assert info["bmp_w"] == 32 and info["bmp_h"] == 24


def test_parse_is_lazy_mjpg(monkeypatch):
    """parse_avi never touches the JPEG decoder; a sampler keeping
    every 3rd frame pays exactly ceil(n/3) decodes."""
    import nidaba_ray.algorithms.jpeg as jpeg_mod

    fr = _frames(6)
    payload = encode_avi(fr, codec="MJPG")
    calls = []
    real = jpeg_mod.decode_jpeg
    monkeypatch.setattr(jpeg_mod, "decode_jpeg",
                        lambda d: (calls.append(1), real(d))[1])
    info, raws = parse_avi(payload)
    assert calls == []  # parse alone decodes nothing
    kept = [decode_frame(r, info) for r in raws[::3]]
    assert len(calls) == 2 and len(kept) == 2


def _hand_avi(frame_chunks: bytes, bits=8, comp=0, w=4, h=4,
              palette=None, handler=b"DIB ", wrap_rec=False,
              stream_type=b"vids", strf_h=None):
    """Minimal spec-layout AVI built raw with struct — pins the parser
    against the public layout, independent of our own encoder.
    ``strf_h`` overrides biHeight alone (negative = top-down)."""
    def chunk(cid, body):
        return (cid + struct.pack("<I", len(body)) + body
                + (b"\x00" if len(body) % 2 else b""))

    def lst(ltype, body):
        return chunk(b"LIST", ltype + body)

    if palette is None:
        palette = (b"".join(struct.pack("<BBBB", i, i, i, 0)
                            for i in range(256)) if bits == 8 else b"")
    avih = struct.pack("<IIIIIIIIII4I", 100000, 0, 0, 0x10, 2, 0, 1,
                       64, w, h, 0, 0, 0, 0)
    strh = struct.pack("<4s4sIHHIIIIIIII4h", stream_type, handler,
                       0, 0, 0, 0, 1, 10, 0, 2, 64, 0, 0, 0, 0, w, h)
    strf = struct.pack("<IiiHHIIiiII", 40, w, strf_h if strf_h is not None
                       else h, 1, bits, comp,
                       0, 0, 0, 256 if palette else 0, 0) + palette
    hdrl = lst(b"hdrl", chunk(b"avih", avih)
               + lst(b"strl", chunk(b"strh", strh) + chunk(b"strf", strf)))
    movi_body = (lst(b"rec ", frame_chunks) if wrap_rec else frame_chunks)
    body = b"AVI " + hdrl + lst(b"movi", movi_body)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_hand_built_8bit_palettized():
    """8-bit DIB with an inverting palette: pixel value v maps to the
    RGBQUAD (255-v, 255-v, 255-v) → decoded luma is 255-v."""
    w = h = 4
    px = np.arange(16, dtype=np.uint8).reshape(h, w)
    stride_rows = np.zeros((h, 4), np.uint8)
    stride_rows[:, :w] = px
    dib = stride_rows[::-1].tobytes()  # bottom-up
    pal = b"".join(struct.pack("<BBBB", 255 - i, 255 - i, 255 - i, 0)
                   for i in range(256))
    payload = _hand_avi(
        b"00db" + struct.pack("<I", len(dib)) + dib, palette=pal)
    dec, _ = decode_avi(payload)
    np.testing.assert_array_equal(dec[0], 255 - px)


def test_hand_built_24bit_bgr_and_topdown():
    """24-bit BGR frame, negative biHeight = top-down rows; luma is
    integer BT.601 over (R, G, B) read from BGR order."""
    w, h = 3, 2
    rgb = np.array([[[10, 200, 30], [0, 0, 255], [255, 0, 0]],
                    [[1, 2, 3], [100, 100, 100], [9, 8, 7]]], np.uint8)
    bgr = rgb[:, :, ::-1]
    stride = (3 * w + 3) & ~3
    rows = np.zeros((h, stride), np.uint8)
    rows[:, :3 * w] = bgr.reshape(h, 3 * w)

    def hand(neg):
        dib = rows.tobytes() if neg else rows[::-1].tobytes()
        return _hand_avi(b"00db" + struct.pack("<I", len(dib)) + dib,
                         bits=24, w=w, h=h, strf_h=-h if neg else h)

    expect = ((299 * rgb[:, :, 0].astype(np.int64)
               + 587 * rgb[:, :, 1].astype(np.int64)
               + 114 * rgb[:, :, 2].astype(np.int64)) // 1000
              ).astype(np.uint8)
    for neg in (False, True):
        info, raws = parse_avi(hand(neg))
        got = decode_frame(raws[0], info)
        np.testing.assert_array_equal(got, expect)


def test_rec_list_grouping_and_odd_pad():
    """Frames inside a nested LIST 'rec ' group are found; an
    odd-sized chunk's pad byte doesn't derail the walk."""
    px = np.full((4, 4), 9, np.uint8)
    dib = np.zeros((4, 4), np.uint8)
    dib[:, :4] = px
    dib_b = dib[::-1].tobytes()
    odd = b"00db" + struct.pack("<I", len(dib_b)) + dib_b
    # an odd-length JUNK chunk before the frame exercises padding
    junk = b"JUNK" + struct.pack("<I", 3) + b"abc\x00"
    payload = _hand_avi(junk + odd, wrap_rec=True)
    dec, _ = decode_avi(payload)
    np.testing.assert_array_equal(dec[0], px)


@pytest.mark.parametrize("mutate", [
    lambda p: p[:40],                              # truncated header
    lambda p: b"RIFX" + p[4:],                     # bad RIFF magic
    lambda p: p[:8] + b"WAVE" + p[12:],            # not an AVI form
    lambda p: p[:-10],                             # truncated tail chunk
])
def test_malformed_raises(mutate):
    payload = encode_avi(_frames(2), codec="DIB ")
    with pytest.raises(ValueError):
        decode_avi(mutate(payload))


def test_no_video_stream_raises():
    payload = _hand_avi(b"00db" + struct.pack("<I", 4) + b"\x00" * 4,
                        stream_type=b"auds")
    with pytest.raises(ValueError, match="no video stream"):
        parse_avi(payload)


def test_no_frames_raises():
    payload = _hand_avi(b"")
    with pytest.raises(ValueError, match="no frame chunks"):
        parse_avi(payload)


def test_unsupported_compression_raises():
    dib = b"\x00" * 16
    payload = _hand_avi(b"00dc" + struct.pack("<I", len(dib)) + dib,
                        bits=24, comp=struct.unpack("<I", b"XVID")[0])
    with pytest.raises(ValueError, match="biCompression"):
        decode_avi(payload)


def test_truncated_frame_raises():
    fr = _frames(1)
    info, raws = parse_avi(encode_avi(fr, codec="DIB "))
    with pytest.raises(ValueError, match="truncated DIB"):
        decode_frame(raws[0][:10], info)


def test_encoder_input_validation():
    with pytest.raises(ValueError):
        encode_avi(np.zeros((0, 4, 4), np.uint8))
    with pytest.raises(ValueError):
        encode_avi(np.zeros((2, 4, 4), np.int32))
    with pytest.raises(ValueError):
        encode_avi(_frames(2), fps=0)
    with pytest.raises(ValueError):
        encode_avi(_frames(2), codec="H264")


# ------------------------------------------------- multimodal stages

def test_iter_video_frames_dispatch():
    from nidaba_ray.stages.multimodal import iter_video_frames

    fr = _frames(4)
    avi = encode_avi(fr, codec="DIB ")
    got = [t() for _, t in iter_video_frames(avi)]
    np.testing.assert_array_equal(np.stack(got), fr)
    with pytest.raises(ValueError):
        list(iter_video_frames(b"neither"))


def test_video_stages_over_real_avi():
    from nidaba_ray.stages.multimodal import (MediaFeatureExtractor,
                                              VideoFrameSampler,
                                              synth_media_batch)

    # video ids (i%3==2) spanning all three wire formats:
    # 2 → AVI-DIB, 5 → AVI-MJPG, 8 → AVI-DIB
    t = synth_media_batch([2, 5, 8])
    assert all(is_avi(p) for p in t["payload"].to_pylist())
    out = VideoFrameSampler(every=2)(t).to_pylist()
    assert {r["media_id"] for r in out} == {2, 5, 8}
    assert all(r["frame_idx"] % 2 == 0 for r in out)
    feats = MediaFeatureExtractor()(t).to_pylist()
    vids = [r for r in feats if r["kind"] == "video"]
    assert len(vids) == 3 and all(r["is_error"] == 0 for r in vids)
    assert all(r["feat_micro"] > 0 for r in vids)


def test_mjpg_and_dib_sampler_agree_closely():
    """The same pixel frames shipped as DIB (lossless) vs MJPG
    (lossy, q=92) yield frame means within JPEG error bounds — the
    sampler's output is codec-robust."""
    from nidaba_ray.stages.multimodal import iter_video_frames

    fr = _frames(4)
    means = {}
    for codec in ("DIB ", "MJPG"):
        payload = encode_avi(fr, codec=codec, quality=92)
        means[codec] = [float(t().mean())
                        for _, t in iter_video_frames(payload)]
    np.testing.assert_allclose(means["DIB "], means["MJPG"], atol=2.0)
