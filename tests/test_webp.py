"""WebP-lossless (VP8L) codec: exact roundtrips across every encoder
path (literals, palettes incl. packing, color cache, backward
references through the 2D distance map, subtract-green, all 14
predictor modes, color transform, combinations), the generated
distance table's structural invariants, hand-built decoder-only
streams for meta prefix codes and the max_symbol cutoff, and the
multimodal dispatch."""
from __future__ import annotations

import struct

import numpy as np
import pytest

from nidaba_ray.algorithms.webp import (
    _DIST_PAIRS,
    _BitWriter,
    _forward_predictor,
    _inv_predictor,
    _write_code,
    decode_webp,
    encode_webp,
    is_webp,
)


def _rt(arr, **kw):
    data = encode_webp(arr, **kw)
    assert is_webp(data)
    out = decode_webp(data)
    assert out.shape == arr.shape and np.array_equal(out, arr), kw
    return data


def test_distance_table_invariants():
    # 120 distinct causal pairs in the 16×8 window, sorted by
    # (d², |x|, sign) — the generation rule cross-checked against the
    # published table (module docstring)
    assert len(_DIST_PAIRS) == 120 and len(set(_DIST_PAIRS)) == 120
    assert all(-7 <= x <= 8 and 0 <= y <= 7 for x, y in _DIST_PAIRS)
    assert all(not (y == 0 and x <= 0) for x, y in _DIST_PAIRS)
    keys = [(x * x + y * y, abs(x), x < 0) for x, y in _DIST_PAIRS]
    assert keys == sorted(keys)
    # spot pins from the published table
    assert _DIST_PAIRS[:10] == [(0, 1), (1, 0), (1, 1), (-1, 1), (0, 2),
                                (2, 0), (1, 2), (-1, 2), (2, 1), (-2, 1)]
    assert _DIST_PAIRS[96] == (8, 0)        # code 97
    assert _DIST_PAIRS[97:101] == [(4, 7), (-4, 7), (7, 4), (-7, 4)]
    assert _DIST_PAIRS[101] == (8, 1)       # code 102


def test_roundtrip_literal_paths():
    rng = np.random.default_rng(1)
    g = rng.integers(0, 256, size=(24, 31)).astype(np.uint8)
    _rt(g, use_palette=False)
    _rt(g, use_palette=False, cache_bits=6)
    _rt(g, use_palette=False, subtract_green=True)
    rgb = rng.integers(0, 256, size=(20, 17, 3)).astype(np.uint8)
    _rt(rgb)
    _rt(rgb, cache_bits=8)
    rgba = rng.integers(0, 256, size=(9, 13, 4)).astype(np.uint8)
    _rt(rgba, use_palette=False)
    _rt(np.array([[7]], np.uint8), use_palette=False)


def test_roundtrip_palettes_all_packings():
    rng = np.random.default_rng(2)
    for ncol in (2, 3, 4, 9, 16, 17, 200):  # hits width_bits 3/2/1/0
        vals = rng.integers(0, 256, size=(ncol, 3)).astype(np.uint8)
        img = vals[rng.integers(0, ncol, size=(21, 19))]
        data = _rt(img)
        # palette encodes must beat raw literals on few-color images
        if ncol <= 16:
            assert len(data) < len(encode_webp(img, use_palette=False))


def test_roundtrip_backrefs_and_runs():
    rng = np.random.default_rng(3)
    runs = np.repeat(rng.integers(0, 256, size=(6, 30)).astype(np.uint8),
                     5, axis=0)
    runs = np.repeat(runs, 3, axis=1)
    _rt(runs, use_palette=False)
    _rt(runs, use_palette=False, cache_bits=5)
    flat = np.full((40, 50), 77, np.uint8)
    small = _rt(flat, use_palette=False)
    assert len(small) < 120  # one literal + one long backref
    # vertical runs exercise distance == width (plane code (0,1) = 1)
    v = np.tile(rng.integers(0, 256, size=(1, 33, 3)).astype(np.uint8),
                (25, 1, 1))
    _rt(v, use_palette=False)


@pytest.mark.parametrize("mode", range(14))
def test_roundtrip_every_predictor_mode(mode):
    rng = np.random.default_rng(100 + mode)
    rgb = rng.integers(0, 256, size=(21, 19, 3)).astype(np.uint8)
    _rt(rgb, predictor_mode=mode)
    # non-multiple-of-tile sizes exercise the block-index edges
    g = rng.integers(0, 256, size=(17, 35)).astype(np.uint8)
    _rt(g, use_palette=False, predictor_mode=mode, predictor_bits=3)


def _avg2(a, b):
    """Per-channel floor average of two ARGB words (RFC 9649 Average2)."""
    return sum((((a >> s) & 0xFF) + ((b >> s) & 0xFF)) >> 1 << s
               for s in (0, 8, 16, 24))


@pytest.mark.parametrize("mode", [3, 5, 9, 10])
def test_predictor_rightmost_column_tr_is_current_row_leftmost(mode):
    """RFC 9649 §4.1: on the rightmost column the TR pixel is the
    leftmost pixel of the CURRENT row. A hand-built 2×3 residual image
    under one TR-reading mode, decoded by ``_inv_predictor`` and checked
    against the spec's arithmetic."""
    residual = np.array([[0x00112233, 0x00010101, 0x00010101],
                         [0x00404040, 0x00000000, 0x00000000]], np.uint32)
    # row 0 and column 0 predict from L / T (mode-independent borders)
    p00, p01, p02 = 0xFF112233, 0xFF122334, 0xFF132435
    p10 = 0xFF516273

    def predict(L, T, TL, TR):
        return {3: TR,
                5: _avg2(_avg2(L, TR), T),
                9: _avg2(T, TR),
                10: _avg2(_avg2(L, TL), _avg2(T, TR))}[mode]

    p11 = predict(L=p10, T=p01, TL=p00, TR=p02)
    p12 = predict(L=p11, T=p02, TL=p01, TR=p10)  # TR = row 1, column 0
    img = residual.copy()
    _inv_predictor(img, np.array([[mode << 8]], np.uint32), 2)
    assert [[int(v) for v in r] for r in img] == [[p00, p01, p02],
                                                  [p10, p11, p12]]
    if mode == 3:
        assert p12 == p10 == 0xFF516273
    # the encoder's residuals follow the same rule
    assert np.array_equal(_forward_predictor(img, mode, 2), residual)


def test_roundtrip_color_transform_and_combos():
    rng = np.random.default_rng(4)
    rgb = rng.integers(0, 256, size=(21, 19, 3)).astype(np.uint8)
    for elem in [(16, 0, 0), (0, 32, 0), (0, 0, 200), (33, 66, 129),
                 (255, 255, 255)]:
        _rt(rgb, color_elem=elem)
    _rt(rgb, subtract_green=True, predictor_mode=11, cache_bits=4)
    _rt(rgb, color_elem=(7, 250, 3), predictor_mode=13,
        subtract_green=True)


def test_predictor_compresses_smooth_images():
    smooth = np.add.outer(np.arange(64), np.arange(49) * 2).astype(np.uint8)
    base = len(encode_webp(smooth, use_palette=False))
    pred = len(encode_webp(smooth, use_palette=False, predictor_mode=12))
    assert pred < base / 10


def test_malformed_and_unsupported():
    good = encode_webp(np.zeros((4, 4), np.uint8))
    assert not is_webp(b"RIFFxxxxWAVE")
    with pytest.raises(ValueError):
        decode_webp(b"RIFF\x04\x00\x00\x00WEBP")  # no VP8L chunk
    lossy = good.replace(b"VP8L", b"VP8 ")
    with pytest.raises(ValueError, match="lossy"):
        decode_webp(lossy)
    bad_sig = bytearray(good)
    bad_sig[20] ^= 0xFF  # first payload byte (0x2f signature)
    with pytest.raises(ValueError):
        decode_webp(bytes(bad_sig))
    with pytest.raises(ValueError):
        decode_webp(good[:24])  # truncated chunk
    with pytest.raises(ValueError):
        encode_webp(np.zeros((4, 4), np.int16))


def _vp8l_container(payload: bytes) -> bytes:
    chunk = b"VP8L" + struct.pack("<I", len(payload)) + payload
    if len(payload) % 2:
        chunk += b"\x00"
    riff = b"WEBP" + chunk
    return b"RIFF" + struct.pack("<I", len(riff)) + riff


def test_hand_built_meta_prefix_stream():
    """Decoder-only: an 8×4 image with meta prefix codes (tile bits 2
    → 2 tiles of 4×4) whose two groups decode different constant
    colors — the encoder never emits meta codes, so this pins the
    decode path."""
    bw = _BitWriter()
    bw.write(8 - 1, 14)
    bw.write(4 - 1, 14)
    bw.write(0, 1)
    bw.write(0, 3)
    bw.write(0, 1)     # no transforms
    bw.write(0, 1)     # no color cache
    bw.write(1, 1)     # meta prefix codes present
    bw.write(0, 3)     # meta_bits = 2 → meta image 2×1
    # meta sub-image (2 pixels): cache bit + one code group; pixel
    # (red<<8|green) = group index: use literals 0 and 1 in GREEN with
    # red=0 → groups 0 and 1. Greens need a 2-symbol code.
    bw.write(0, 1)     # sub-image: no cache
    glen = [0] * 280
    glen[0] = glen[1] = 1
    _write_code(bw, glen)          # green: simple 2-symbol code
    for _ in range(3):                   # red, blue, alpha: single 0
        l = [0] * 256
        l[0] = 1
        _write_code(bw, l)
    dl = [0] * 40
    dl[0] = 1
    _write_code(bw, dl)
    # two meta pixels: green symbols 0 then 1 (1 bit each)
    from nidaba_ray.algorithms.webp import _encode_table

    genc = _encode_table(glen)
    bw.write_code(*genc[0])
    bw.write_code(*genc[1])
    # two main groups: group 0 → solid green=200, group 1 → green=30
    for gval in (200, 30):
        gl = [0] * 280
        gl[gval] = 1
        _write_code(bw, gl)
        for chan_val in (10, 20, 255):   # red, blue, alpha singletons
            l = [0] * 256
            l[chan_val] = 1
            _write_code(bw, l)
        dl = [0] * 40
        dl[0] = 1
        _write_code(bw, dl)
    # 32 pixels, every code is 0-bit → no data bits at all
    out = decode_webp(_vp8l_container(b"\x2f" + bw.flush()))
    assert out.shape == (4, 8, 3)
    assert (out[:, :4] == [10, 200, 20]).all()
    assert (out[:, 4:] == [10, 30, 20]).all()


def test_hand_built_max_symbol_cutoff():
    """Decoder-only: a full code using the explicit max_symbol field
    (the encoder always writes all lengths)."""
    bw = _BitWriter()
    bw.write(0, 14)    # 1×1
    bw.write(0, 14)
    bw.write(0, 1)
    bw.write(0, 3)
    bw.write(0, 1)     # no transforms
    bw.write(0, 1)     # no cache
    bw.write(0, 1)     # no meta
    # green code: full, CL code gives lengths {0:•, 1:•}; symbols 0
    # and 1 get length 1 via two literal CL reads, then max_symbol
    # cuts the rest off
    bw.write(0, 1)     # not simple
    bw.write(0, 4)     # num_code_lengths = 4 → order slots 17,18,0,1
    bw.write(0, 3)     # len(17) = 0
    bw.write(0, 3)     # len(18) = 0
    bw.write(1, 3)     # len(0) = 1
    bw.write(1, 3)     # len(1) = 1 → CL code: 0→'0', 1→'1'
    bw.write(1, 1)     # use max_symbol
    bw.write(0, 3)     # length_nbits = 2
    bw.write(0, 2)     # max_symbol = 2 → read exactly two CL symbols
    bw.write_code(0b1, 1)  # CL symbol 1 → lengths[0] = 1
    bw.write_code(0b1, 1)  # lengths[1] = 1
    # red/blue/alpha/distance: simple single-symbol codes
    for val in (5, 6, 255):
        l = [0] * 256
        l[val] = 1
        _write_code(bw, l)
    dl = [0] * 40
    dl[0] = 1
    _write_code(bw, dl)
    bw.write_code(0b0, 1)  # the one pixel: green symbol 0
    out = decode_webp(_vp8l_container(b"\x2f" + bw.flush()))
    assert out.shape == (1, 1, 3)
    assert out[0, 0].tolist() == [5, 0, 6]


def test_multimodal_dispatch_and_synth_rotation():
    from nidaba_ray.stages.multimodal import (
        ImageDecoder,
        decode_image,
        synth_media_batch,
    )

    # BMP/WebP slot ids: i%3==0, (i//3)%5==0 → 0, 15, 30, 45; odd
    # (i//15) halves are WebP, even halves BMP
    t = synth_media_batch([0, 15, 30, 45])
    p = t["payload"].to_pylist()
    assert p[0][:2] == b"BM" and p[2][:2] == b"BM"
    assert is_webp(p[1]) and is_webp(p[3])
    out = ImageDecoder()(t).to_pylist()
    assert all(r["error"] == "" for r in out)
    # WebP is lossless: decode equals the synthetic source pixels
    from nidaba_ray.stages.multimodal import _bytes_for

    w, h = 32 + (15 % 4) * 16, 24 + (15 % 3) * 16
    px = np.frombuffer(_bytes_for("img15", w * h), np.uint8).reshape(h, w)
    assert np.array_equal(decode_image(p[1]), px)
    assert synth_media_batch([15]).equals(synth_media_batch([15]))
