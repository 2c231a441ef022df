"""Baseline JPEG codec (algorithms/jpeg.py) — hand-built stream pins
(marker parse, Huffman, EXTEND, IDCT reference values), bounded-error
self-roundtrips (JPEG is lossy), restart-marker equivalence, and the
multimodal image path over real JPEG bytes (round-4 verdict item 5)."""

import struct

import numpy as np
import pytest

from nidaba_ray.algorithms.jpeg import _ZZ, decode_jpeg, encode_jpeg, is_jpeg


def test_zigzag_order_reference():
    """First coefficients of the T.81 scan order, from the spec
    figure: 0, 1, 8, 16, 9, 2, 3, 10, 17, 24 … and a permutation."""
    assert list(_ZZ[:10]) == [0, 1, 8, 16, 9, 2, 3, 10, 17, 24]
    assert sorted(_ZZ.tolist()) == list(range(64))
    assert _ZZ[63] == 63


def _minimal_gray(dc_bits: str, qt_val: int = 1) -> bytes:
    """Hand-build an 8×8 grayscale baseline stream with trivial
    Huffman tables: DC table = single 1-bit code for category 2,
    AC table = single 1-bit code for EOB. The entropy data is
    0 (DC symbol) + dc_bits (2 bits) + 0 (EOB), padded with 1s."""
    out = bytearray(b"\xff\xd8")
    qt = bytes([qt_val] * 64)
    out += b"\xff\xdb" + struct.pack(">HB", 67, 0) + qt
    # DC class-0 id-0: one code of length 1 → symbol 2 (category 2)
    dht_dc = bytes([0x00]) + bytes([1] + [0] * 15) + bytes([2])
    out += b"\xff\xc4" + struct.pack(">H", 2 + len(dht_dc)) + dht_dc
    # AC class-1 id-0: one code of length 1 → symbol 0x00 (EOB)
    dht_ac = bytes([0x10]) + bytes([1] + [0] * 15) + bytes([0x00])
    out += b"\xff\xc4" + struct.pack(">H", 2 + len(dht_ac)) + dht_ac
    sof = struct.pack(">BHHB", 8, 8, 8, 1) + bytes([1, 0x11, 0])
    out += b"\xff\xc0" + struct.pack(">H", 2 + len(sof)) + sof
    sos = bytes([1, 1, 0x00]) + b"\x00\x3f\x00"
    out += b"\xff\xda" + struct.pack(">H", 2 + len(sos)) + sos
    bits = "0" + dc_bits + "0"
    bits += "1" * (-len(bits) % 8)
    out += bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))
    out += b"\xff\xd9"
    return bytes(out)


def test_hand_built_dc_only_block_exact():
    """DC-only coefficient v with flat quant q reconstructs the exact
    constant round(128 + v·q/8): pins Huffman decode, EXTEND and the
    IDCT DC path with reference values."""
    # category-2 bits "11" → receive 3 → EXTEND(3, 2) = +3
    img = decode_jpeg(_minimal_gray("11", qt_val=1))
    assert img.shape == (8, 8)
    assert (img == 128).all()  # 128 + 3/8 rounds back to 128
    img = decode_jpeg(_minimal_gray("11", qt_val=16))
    assert (img == 134).all()  # 128 + 48/8 = 134 exactly
    # category-2 bits "00" → receive 0 → EXTEND(0, 2) = −3
    img = decode_jpeg(_minimal_gray("00", qt_val=16))
    assert (img == 122).all()  # 128 − 48/8 = 122 exactly


def test_flat_images_roundtrip_exact():
    for val in (0, 73, 130, 255):
        flat = np.full((24, 40), val, np.uint8)
        assert np.array_equal(decode_jpeg(encode_jpeg(flat, 90)), flat)


def test_smooth_gray_roundtrip_bounded():
    y, x = np.mgrid[0:40, 0:56]
    img = np.clip(128 + 60 * np.sin(x / 9.0) * np.cos(y / 7.0),
                  0, 255).astype(np.uint8)
    dec = decode_jpeg(encode_jpeg(img, quality=95))
    assert dec.shape == img.shape
    err = np.abs(dec.astype(int) - img.astype(int))
    assert err.max() <= 4 and err.mean() < 1.0


def test_color_roundtrip_bounded_and_nonmultiple_of_8():
    y, x = np.mgrid[0:37, 0:51]  # deliberately not 8-aligned
    r = ((x * 5) % 256).astype(np.uint8)
    g = ((y * 4) % 256).astype(np.uint8)
    b = ((x + y) % 256).astype(np.uint8)
    rgb = np.stack([r, g, b], axis=2)
    dec = decode_jpeg(encode_jpeg(rgb, quality=95))
    assert dec.shape == rgb.shape
    assert np.abs(dec.astype(int) - rgb.astype(int)).mean() < 3.0


def test_restart_markers_equal_no_restart():
    y, x = np.mgrid[0:32, 0:48]
    img = ((x * 3 + y * 7) % 251).astype(np.uint8)
    a = decode_jpeg(encode_jpeg(img, quality=90))
    b = decode_jpeg(encode_jpeg(img, quality=90, restart=2))
    assert np.array_equal(a, b)


def test_deterministic_bytes_and_decode():
    img = np.frombuffer(b"0123456789abcdef" * 16, np.uint8).reshape(16, 16)
    e1, e2 = encode_jpeg(img, 85), encode_jpeg(img, 85)
    assert e1 == e2 and is_jpeg(e1)
    assert np.array_equal(decode_jpeg(e1), decode_jpeg(e2))


def test_malformed_and_unsupported_raise():
    img = np.full((8, 8), 100, np.uint8)
    good = encode_jpeg(img, 90)
    with pytest.raises(ValueError):
        decode_jpeg(b"\x89PNG")         # not a JPEG
    with pytest.raises(ValueError):
        decode_jpeg(good[:40])          # truncated mid-segment
    # lossless (SOF3) must raise, not silently misdecode
    lossless = bytearray(good)
    idx = lossless.find(b"\xff\xc0")
    lossless[idx + 1] = 0xC3
    with pytest.raises(ValueError, match="unsupported"):
        decode_jpeg(bytes(lossless))
    # a baseline full-band scan under a tampered SOF2 header is an
    # inconsistent stream (progressive decodes for real since r5, but
    # a progressive DC scan must have Se=0)
    prog = bytearray(good)
    prog[idx + 1] = 0xC2
    with pytest.raises(ValueError):
        decode_jpeg(bytes(prog))
    # undefined quant table id
    bad = bytearray(good)
    sof_at = bad.find(b"\xff\xc0")
    bad[sof_at + 10 + 2] = 3            # component's Tq → undefined 3
    with pytest.raises(ValueError):
        decode_jpeg(bytes(bad))


def test_decode_image_dispatches_jpeg():
    from nidaba_ray.stages.multimodal import decode_image

    img = ((np.mgrid[0:24, 0:32][1] * 7) % 256).astype(np.uint8)
    gray = decode_image(encode_jpeg(img, quality=95))
    assert gray.shape == (24, 32)
    assert np.abs(gray.astype(int) - img.astype(int)).mean() < 2.0


def test_media_features_over_real_jpeg_rows(ray_session):
    """synth_media_batch rotates BMP/WebP, PNG, JPEG, GIF and TIFF
    image wires; the feature extractor must process all of them
    without errors."""
    import pyarrow as pa

    from nidaba_ray.stages.multimodal import (
        MediaFeatureExtractor,
        synth_media_batch,
    )

    ids = list(range(0, 72, 3))  # image ids, every wire format
    t = synth_media_batch(ids)
    assert any(is_jpeg(p) for p in t["payload"].to_pylist())
    out = MediaFeatureExtractor()(t)
    assert out.num_rows == len(ids)
    assert pa.compute.sum(out["is_error"]).as_py() == 0
    assert all(f > 0 for f in out["feat_micro"].to_pylist())
