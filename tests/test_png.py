"""From-scratch PNG/BMP codec (algorithms/png.py) and the real image
decode path through the multimodal stages. Self-contained: every
golden is an encode→decode roundtrip of this repo's own encoder (no
external imaging library exists in the sandbox to compare against,
so the decoder is additionally pinned on hand-built chunk streams
and malformed-input behavior)."""

from __future__ import annotations

import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from nidaba_ray.algorithms.png import (
    PNG_SIG,
    decode_bmp,
    decode_png,
    encode_bmp,
    encode_png,
    to_gray,
)


def _img(h, w, c=None, seed=1):
    rng = np.random.default_rng(seed)
    shape = (h, w) if c is None else (h, w, c)
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


def _chunk(tag, body):
    """PNG chunk framing (length + tag + body + CRC) for hand-built
    test streams — one definition so every hand-built stream shares
    the same framing."""
    return (struct.pack(">I", len(body)) + tag + body
            + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))



def test_png_roundtrip_gray_rgb_rgba():
    for shape in [(5, 7, None), (1, 1, None), (16, 16, 3), (9, 3, 3),
                  (4, 11, 4), (2, 2, 4)]:
        h, w, c = shape
        a = _img(h, w, c)
        got = decode_png(encode_png(a))
        assert got.shape == a.shape
        assert np.array_equal(got, a), shape


def test_png_all_filter_types_decode():
    """Filters 0-4 (None/Sub/Up/Average/Paeth) must all reconstruct
    the identical pixels — each exercised across every scanline."""
    a = _img(12, 10, 3, seed=7)
    g = _img(12, 10, seed=8)
    for ft in range(5):
        assert np.array_equal(decode_png(encode_png(a, filter_type=ft)), a)
        assert np.array_equal(decode_png(encode_png(g, filter_type=ft)), g)


def test_png_palette():
    """Hand-built color-type-3 PNG: 2-entry palette, 4x3 indices."""
    pal = b"\xff\x00\x00" + b"\x00\xff\x00"  # red, green
    idx = np.array([[0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1]], np.uint8)
    raw = b"".join(b"\x00" + row.tobytes() for row in idx)

    png = (PNG_SIG
           + _chunk(b"IHDR", struct.pack(">IIBBBBB", 4, 3, 8, 3, 0, 0, 0))
           + _chunk(b"PLTE", pal)
           + _chunk(b"IDAT", zlib.compress(raw))
           + _chunk(b"IEND", b""))
    got = decode_png(png)
    assert got.shape == (3, 4, 3)
    assert np.array_equal(got[0, 0], [255, 0, 0])
    assert np.array_equal(got[0, 1], [0, 255, 0])
    assert (got[idx == 0] == [255, 0, 0]).all()


def test_png_palette_trns_alpha():
    """tRNS on a palette image yields RGBA; entries past the chunk's
    length default to opaque per the spec."""
    pal = b"\xff\x00\x00" + b"\x00\xff\x00" + b"\x00\x00\xff"
    idx = np.array([[0, 1, 2]], np.uint8)
    raw = b"\x00" + idx.tobytes()
    png = (PNG_SIG
           + _chunk(b"IHDR", struct.pack(">IIBBBBB", 3, 1, 8, 3, 0, 0, 0))
           + _chunk(b"PLTE", pal)
           + _chunk(b"tRNS", bytes([0, 128]))  # entry 2 → default 255
           + _chunk(b"IDAT", zlib.compress(raw))
           + _chunk(b"IEND", b""))
    got = decode_png(png)
    assert got.shape == (1, 3, 4)
    assert got[0, :, 3].tolist() == [0, 128, 255]
    assert np.array_equal(got[0, :, :3], [[255, 0, 0], [0, 255, 0],
                                          [0, 0, 255]])


def test_png_color_key_trns():
    """tRNS on gray/truecolor is a single transparent color key
    (2-byte samples, low byte at depth 8): matching pixels get alpha
    0, an alpha channel is appended. Forbidden on alpha-bearing types
    (raises, per the scope contract)."""
    g = np.array([[10, 20], [20, 10]], np.uint8)
    raw = b"".join(b"\x00" + row.tobytes() for row in g)
    png = (PNG_SIG
           + _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0))
           + _chunk(b"tRNS", bytes([0, 20]))
           + _chunk(b"IDAT", zlib.compress(raw))
           + _chunk(b"IEND", b""))
    got = decode_png(png)
    assert got.shape == (2, 2, 2)
    assert np.array_equal(got[:, :, 0], g)
    assert got[:, :, 1].tolist() == [[255, 0], [0, 255]]
    assert np.array_equal(to_gray(got), g)  # gray+alpha reads ch 0

    rgb = np.array([[[1, 2, 3], [9, 9, 9]]], np.uint8)
    raw = b"\x00" + rgb.tobytes()
    png2 = (PNG_SIG
            + _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 1, 8, 2, 0, 0, 0))
            + _chunk(b"tRNS", bytes([0, 1, 0, 2, 0, 3]))
            + _chunk(b"IDAT", zlib.compress(raw))
            + _chunk(b"IEND", b""))
    got2 = decode_png(png2)
    assert got2.shape == (1, 2, 4)
    assert got2[0, :, 3].tolist() == [0, 255]
    assert np.array_equal(got2[0, :, :3], rgb[0])

    # wrong key length and alpha-bearing color type both raise
    gray_raw = b"".join(b"\x00" + row.tobytes() for row in g)
    bad = (PNG_SIG
           + _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0))
           + _chunk(b"tRNS", bytes([20]))
           + _chunk(b"IDAT", zlib.compress(gray_raw))
           + _chunk(b"IEND", b""))
    with pytest.raises(ValueError, match="tRNS"):
        decode_png(bad)
    rgba = _img(2, 2, 4)
    enc = bytearray(encode_png(rgba))
    # splice a tRNS chunk before IDAT: find IDAT offset
    off = bytes(enc).index(b"IDAT") - 4
    spliced = bytes(enc[:off]) + _chunk(b"tRNS", bytes(6)) + bytes(enc[off:])
    with pytest.raises(ValueError, match="forbidden"):
        decode_png(spliced)


def test_png_malformed_inputs_raise():
    a = _img(6, 6)
    good = encode_png(a)
    with pytest.raises(ValueError):
        decode_png(b"nope" + good[4:])          # bad signature
    with pytest.raises(ValueError):
        decode_png(good[:40])                    # truncated
    corrupt = bytearray(good)
    corrupt[40] ^= 0xFF                          # flip an IDAT byte
    with pytest.raises((ValueError, zlib.error)):
        decode_png(bytes(corrupt))               # CRC catches it
    # unknown interlace method flagged, not silently wrong
    ihdr = struct.pack(">IIBBBBB", 6, 6, 8, 0, 0, 0, 2)

    inter = (PNG_SIG + _chunk(b"IHDR", ihdr)
             + _chunk(b"IDAT", zlib.compress(b"\x00" * 42))
             + _chunk(b"IEND", b""))
    with pytest.raises(ValueError, match="interlace"):
        decode_png(inter)
    # a truncated Adam7 stream raises rather than zero-filling
    short = (PNG_SIG
             + _chunk(b"IHDR", struct.pack(">IIBBBBB", 6, 6, 8, 0, 0, 0, 1))
             + _chunk(b"IDAT", zlib.compress(b"\x00" * 30))
             + _chunk(b"IEND", b""))
    with pytest.raises(ValueError, match="size mismatch"):
        decode_png(short)


@pytest.mark.parametrize("interlace", [0, 1])
def test_png_idat_bomb_stops_at_the_header_size(interlace):
    """An 8x8 header over 64 MiB of inflated zeros: the inflate stops
    one byte past the size the header implies (summed over the Adam7
    passes when interlaced), so the size check fails in bounded memory
    instead of after holding the whole stream."""
    c = zlib.compressobj(9)
    bomb = b"".join(c.compress(bytes(1 << 20)) for _ in range(64)) + c.flush()
    ihdr = struct.pack(">IIBBBBB", 8, 8, 8, 0, 0, 0, interlace)
    png = (PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", bomb)
           + _chunk(b"IEND", b""))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="PNG inflated size mismatch"):
            decode_png(png)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    # a truncated stream keeps zlib's own error
    cut = (PNG_SIG + _chunk(b"IHDR", ihdr)
           + _chunk(b"IDAT", zlib.compress(bytes(72))[:-6])
           + _chunk(b"IEND", b""))
    with pytest.raises(zlib.error, match="Error -5 while decompressing "
                       "data: incomplete or truncated stream"):
        decode_png(cut)


def test_png_adam7_hand_built_stream():
    """Hand-built interlaced 6x6 grayscale: seven all-zero passes
    (2+2+3+4+4+12+21 = 48 filtered bytes) decode to a zero image —
    pins the per-pass sub-image sizes against the spec grid."""
    png = (PNG_SIG
           + _chunk(b"IHDR", struct.pack(">IIBBBBB", 6, 6, 8, 0, 0, 0, 1))
           + _chunk(b"IDAT", zlib.compress(b"\x00" * 48))
           + _chunk(b"IEND", b""))
    got = decode_png(png)
    assert got.shape == (6, 6)
    assert not got.any()
    # palette + Adam7 together: 2x2 image → pass1 (0,0), pass6 (0,1),
    # pass7 (1,0) and (1,1); indices expand through PLTE afterwards
    pal = b"\xff\x00\x00" + b"\x00\xff\x00"  # red, green
    stream = bytes([0, 0]) + bytes([0, 1]) + bytes([0, 1, 0])
    png2 = (PNG_SIG
            + _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 3, 0, 0, 1))
            + _chunk(b"PLTE", pal)
            + _chunk(b"IDAT", zlib.compress(stream))
            + _chunk(b"IEND", b""))
    got2 = decode_png(png2)
    assert got2.shape == (2, 2, 3)
    assert np.array_equal(got2[0, 0], [255, 0, 0])
    assert np.array_equal(got2[0, 1], [0, 255, 0])
    assert np.array_equal(got2[1, 0], [0, 255, 0])
    assert np.array_equal(got2[1, 1], [255, 0, 0])


def test_png_adam7_roundtrip():
    """Adam7 encode→decode is identity for every color layout and
    every filter type, including sizes smaller than one 8x8 tile
    (where several passes are empty) and non-multiples of 8."""
    shapes = [(5, 7, None), (1, 1, None), (16, 16, 3), (9, 3, 3),
              (4, 11, 4), (8, 8, None), (3, 2, 3), (23, 17, 4)]
    for h, w, c in shapes:
        a = _img(h, w, c, seed=h * 100 + w)
        got = decode_png(encode_png(a, interlace=True))
        assert got.shape == a.shape
        assert np.array_equal(got, a), (h, w, c)
    a = _img(13, 19, 3, seed=5)
    for ft in range(5):
        enc = encode_png(a, filter_type=ft, interlace=True)
        assert np.array_equal(decode_png(enc), a), ft
    # interlaced and plain streams of the same pixels agree
    plain = decode_png(encode_png(a))
    assert np.array_equal(decode_png(encode_png(a, interlace=True)), plain)


def test_bmp_roundtrip_and_odd_stride():
    for h, w in [(3, 5), (1, 1), (8, 8), (2, 7)]:  # odd widths pad
        a = _img(h, w, 3, seed=h * 10 + w)
        got = decode_bmp(encode_bmp(a))
        assert np.array_equal(got, a), (h, w)
    with pytest.raises(ValueError):
        decode_bmp(b"XX not a bmp")
    with pytest.raises(ValueError):
        decode_bmp(encode_bmp(_img(4, 4, 3))[:-8])  # truncated pixels


def test_bmp_8bit_palette():
    """Hand-built 8-bit palette BMP, bottom-up rows."""
    w, h = 3, 2
    pal = bytes([255, 0, 0, 0]) + bytes([0, 0, 255, 0])  # BGRA: blue, red
    stride = (w + 3) & ~3
    rows = bytes([0, 1, 0, 0]) + bytes([1, 0, 1, 0])  # bottom row first
    pix_off = 54 + len(pal)
    bmp = (b"BM" + struct.pack("<IHHI", pix_off + len(rows), 0, 0, pix_off)
           + struct.pack("<IiiHHIIiiII", 40, w, h, 1, 8, 0, len(rows),
                         0, 0, 2, 0)
           + pal + rows)
    got = decode_bmp(bmp)
    assert got.shape == (2, 3, 3)
    # top row (file's second row): red, blue, red
    assert np.array_equal(got[0, 0], [255, 0, 0])
    assert np.array_equal(got[0, 1], [0, 0, 255])
    assert np.array_equal(got[1, 0], [0, 0, 255])


def test_to_gray_integer_luma():
    assert to_gray(np.full((2, 2), 7, np.uint8)).tolist() == [[7, 7], [7, 7]]
    rgb = np.zeros((1, 1, 3), np.uint8)
    rgb[0, 0] = [255, 0, 0]
    assert int(to_gray(rgb)[0, 0]) == 255 * 299 // 1000
    white = np.full((1, 1, 3), 255, np.uint8)
    assert int(to_gray(white)[0, 0]) == 255


def test_image_decoder_on_real_png_and_bmp(ray_session):
    """The multimodal ImageDecoder stage over REAL image bytes — the
    'media_features rows check passes over real image bytes' gate:
    features computed, thumbnails resized, corrupt rows quarantined
    per-row, and a whole media_features-style rollup stays error-free."""
    import pyarrow as pa

    from nidaba_ray.stages.multimodal import ImageDecoder, decode_image

    imgs = [_img(24, 32, 3, seed=i) for i in range(4)]
    payloads = [encode_png(imgs[0]), encode_bmp(imgs[1]),
                encode_png(to_gray(imgs[2])), b"BM garbage"]
    t = pa.table({
        "media_id": pa.array(range(4), pa.int64()),
        "kind": pa.array(["image"] * 4, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
    })
    out = ImageDecoder()(t).to_pylist()
    for row, img in zip(out[:3], imgs[:3]):
        assert row["error"] == ""
        assert (row["width"], row["height"]) == (32, 24)
        want_gray = to_gray(img) if row["media_id"] != 2 else to_gray(imgs[2])
        assert row["mean_px"] == pytest.approx(float(want_gray.mean()))
        assert len(row["thumbnail"]) == 64
    assert out[3]["error"] != ""  # quarantined, not crashed
    # determinism: same bytes, same features
    again = ImageDecoder()(t).to_pylist()
    assert again == out
    # and the dispatching decoder agrees with the direct codec
    assert np.array_equal(decode_image(payloads[0]), to_gray(imgs[0]))


def test_media_features_pipeline_with_real_images(ray_session):
    """End-to-end through Ray Data: a dataset whose image rows are
    real PNG/BMP bytes flows through the one-pass MediaFeatureExtractor
    with zero errors and layout-independent features."""
    import pyarrow as pa
    import ray.data as rd

    from nidaba_ray.stages.multimodal import MediaFeatureExtractor

    rows = []
    for i in range(12):
        img = _img(16, 16, 3, seed=100 + i)
        payload = encode_png(img) if i % 2 else encode_bmp(img)
        rows.append((i, "image", payload))
    t = pa.table({
        "media_id": pa.array([r[0] for r in rows], pa.int64()),
        "kind": pa.array([r[1] for r in rows], pa.string()),
        "payload": pa.array([r[2] for r in rows], pa.binary()),
    })
    out = (rd.from_arrow(t).repartition(4)
           .map_batches(MediaFeatureExtractor, batch_size=4,
                        concurrency=(1, 2), batch_format="pyarrow")
           .to_pandas().sort_values("media_id").reset_index(drop=True))
    assert len(out) == 12
    assert (out["is_error"] == 0).all()
    assert (out["feat_micro"] > 0).all()
    single = (rd.from_arrow(t)
              .map_batches(MediaFeatureExtractor, batch_size=12,
                           concurrency=(1, 1), batch_format="pyarrow")
              .to_pandas().sort_values("media_id").reset_index(drop=True))
    assert single.equals(out)  # layout-invariant features
