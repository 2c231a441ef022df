"""From-scratch PNG and BMP codecs — the real image decoders behind
the multimodal stages (round-3 verdict item 7: "hand-roll a PNG/BMP
decoder the way PDF was done").

Public-spec implementations only: PNG per the W3C PNG specification /
RFC 2083 (signature, chunk walk with CRC verification, IHDR, PLTE,
IDAT → zlib inflate, per-scanline filters None/Sub/Up/Average/Paeth),
BMP per the public BITMAPINFOHEADER layout (uncompressed BI_RGB,
8-bit palette and 24-bit truecolor, bottom-up rows padded to 4
bytes). ``zlib`` is the only dependency (stdlib).

Scope (documented, errors — not silent wrongness — outside it):
bit depth 8, color types gray / RGB / RGBA / palette, tRNS
transparency on all three alpha-less types (palette: per-entry alpha
→ RGBA; gray/RGB: single color key → gray+alpha / RGBA), both
non-interlaced and Adam7-interlaced
streams (each interlace pass is an independent filtered sub-image;
unfiltered per pass, then scattered on the ``(y0 + i·ys, x0 + j·xs)``
grid). Encoders exist for both formats — including an Adam7 encoder —
so tests are self-contained roundtrips with no external library.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from nidaba_ray.algorithms.inflate import inflate_zlib_prefix

__all__ = ["PNG_SIG", "decode_png", "encode_png", "decode_bmp",
           "encode_bmp", "to_gray"]

PNG_SIG = b"\x89PNG\r\n\x1a\n"

_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}  # colortype → samples/px

# Adam7 pass grid: (x_start, y_start, x_step, y_step) per the PNG spec
_ADAM7 = ((0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8), (2, 0, 4, 4),
          (0, 2, 2, 4), (1, 0, 2, 2), (0, 1, 1, 2))


def _chunks(data: bytes):
    pos = 8
    n = len(data)
    while pos + 8 <= n:
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        ctype = data[pos + 4:pos + 8]
        body = data[pos + 8:pos + 8 + length]
        if len(body) != length or pos + 12 + length > n:
            raise ValueError("truncated PNG chunk")
        (crc,) = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
        if zlib.crc32(ctype + body) & 0xFFFFFFFF != crc:
            raise ValueError(f"PNG chunk CRC mismatch in {ctype!r}")
        yield ctype, body
        pos += 12 + length
        if ctype == b"IEND":
            return
    raise ValueError("PNG missing IEND")


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
    if pa_ <= pb and pa_ <= pc_:
        return a
    return b if pb <= pc_ else c


def _unfilter(raw: bytes, h: int, stride: int, bpp: int) -> np.ndarray:
    """Reverse the per-scanline filters. Row filters None/Up are fully
    vectorized; Sub is a per-byte-lane cumulative sum; Average/Paeth
    have a genuine left+up serial dependency and run per pixel byte
    (fine for the thumbnail/feature sizes this pipeline decodes)."""
    if len(raw) != h * (stride + 1):
        raise ValueError("PNG inflated size mismatch")
    out = np.zeros((h, stride), dtype=np.uint8)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(h, stride + 1)
    for y in range(h):
        ft = int(rows[y, 0])
        line = rows[y, 1:].astype(np.int32)
        prev = out[y - 1].astype(np.int32) if y else np.zeros(stride, np.int32)
        if ft == 0:
            out[y] = line
        elif ft == 1:  # Sub
            cur = line.copy()
            for lane in range(bpp):
                cur[lane::bpp] = np.cumsum(cur[lane::bpp]) & 0xFF
            out[y] = cur
        elif ft == 2:  # Up
            out[y] = (line + prev) & 0xFF
        elif ft == 3:  # Average
            cur = np.zeros(stride, np.int32)
            for x in range(stride):
                left = cur[x - bpp] if x >= bpp else 0
                cur[x] = (line[x] + ((left + prev[x]) >> 1)) & 0xFF
            out[y] = cur
        elif ft == 4:  # Paeth
            cur = np.zeros(stride, np.int32)
            for x in range(stride):
                left = cur[x - bpp] if x >= bpp else 0
                ul = prev[x - bpp] if x >= bpp else 0
                cur[x] = (line[x] + _paeth(int(left), int(prev[x]),
                                           int(ul))) & 0xFF
            out[y] = cur
        else:
            raise ValueError(f"unknown PNG filter type {ft}")
    return out


def _adam7_passes(w: int, h: int):
    """(x0, y0, xs, ys, pass width, pass height) of each non-empty
    Adam7 pass."""
    for x0, y0, xs, ys in _ADAM7:
        pw = (w - x0 + xs - 1) // xs
        ph = (h - y0 + ys - 1) // ys
        if pw > 0 and ph > 0:
            yield x0, y0, xs, ys, pw, ph


def _deinterlace(raw: bytes, w: int, h: int, ch: int) -> np.ndarray:
    """Adam7: the inflated stream is seven concatenated sub-images,
    each filtered independently (filter byte per sub-image scanline,
    'previous row' scoped to the pass). Unfilter each pass, scatter
    onto the full-size grid."""
    out = np.zeros((h, w * ch), dtype=np.uint8)
    pos = 0
    for x0, y0, xs, ys, pw, ph in _adam7_passes(w, h):
        stride = pw * ch
        need = ph * (stride + 1)
        sub = _unfilter(raw[pos:pos + need], ph, stride, ch)
        pos += need
        sub = sub.reshape(ph, pw, ch)
        ys_idx = np.arange(y0, h, ys)
        xs_idx = np.arange(x0, w, xs)
        full = out.reshape(h, w, ch)
        full[np.ix_(ys_idx, xs_idx)] = sub
    if pos != len(raw):
        raise ValueError("PNG inflated size mismatch")
    return out


def decode_png(data: bytes) -> np.ndarray:
    """PNG bytes → uint8 array: (h, w) for grayscale, (h, w, c) for
    RGB/RGBA/gray+alpha; palette images return expanded (h, w, 3).
    Raises ValueError on malformed input (quarantine path)."""
    if data[:8] != PNG_SIG:
        raise ValueError("not a PNG (bad signature)")
    ihdr = None
    plte = None
    trns = None
    idat = bytearray()
    for ctype, body in _chunks(data):
        if ctype == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", body)
        elif ctype == b"PLTE":
            plte = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3)
        elif ctype == b"tRNS":
            trns = np.frombuffer(body, dtype=np.uint8)
        elif ctype == b"IDAT":
            idat.extend(body)
    if ihdr is None:
        raise ValueError("PNG missing IHDR")
    w, h, depth, ctype_, comp, filt, interlace = ihdr
    if depth != 8:
        raise ValueError(f"unsupported PNG bit depth {depth} (only 8)")
    if ctype_ not in _CHANNELS:
        raise ValueError(f"unknown PNG color type {ctype_}")
    if comp != 0 or filt != 0:
        raise ValueError("nonstandard PNG compression/filter method")
    if interlace not in (0, 1):
        raise ValueError(f"unknown PNG interlace method {interlace}")
    if w == 0 or h == 0:
        raise ValueError("empty PNG")
    ch = _CHANNELS[ctype_]
    # inflate one byte past the size the header implies, so a bomb
    # stops there and fails the size check instead of filling memory
    if interlace == 1:
        need = sum(ph * (pw * ch + 1)
                   for *_, pw, ph in _adam7_passes(w, h))
    else:
        need = h * (w * ch + 1)
    raw = inflate_zlib_prefix(bytes(idat), need + 1)
    if interlace == 1:
        mat = _deinterlace(raw, w, h, ch)
    else:
        mat = _unfilter(raw, h, w * ch, ch)
    if ctype_ == 3:
        if plte is None:
            raise ValueError("palette PNG missing PLTE")
        idx = mat.reshape(h, w)
        if int(idx.max(initial=0)) >= len(plte):
            raise ValueError("palette index out of range")
        if trns is not None:
            # tRNS on a palette image: per-entry alpha, entries past
            # the chunk's length are fully opaque (spec default 255)
            alpha = np.full(len(plte), 255, dtype=np.uint8)
            alpha[:min(len(trns), len(plte))] = trns[:len(plte)]
            rgba = np.concatenate([plte, alpha[:, None]], axis=1)
            return rgba[idx]
        return plte[idx]
    if trns is not None:
        # tRNS on gray/truecolor: a single transparent color key,
        # stored as 2 big-endian bytes per sample (low byte at depth
        # 8) — pixels equal to the key get alpha 0, an alpha channel
        # is appended. Forbidden by the spec on types that already
        # carry alpha.
        if ctype_ == 0:
            if len(trns) != 2:
                raise ValueError("bad tRNS length for grayscale PNG")
            g = mat.reshape(h, w)
            alpha = np.where(g == trns[1], 0, 255).astype(np.uint8)
            return np.stack([g, alpha], axis=2)
        if ctype_ == 2:
            if len(trns) != 6:
                raise ValueError("bad tRNS length for truecolor PNG")
            rgb = mat.reshape(h, w, 3)
            key = np.array([trns[1], trns[3], trns[5]], np.uint8)
            alpha = np.where((rgb == key[None, None, :]).all(axis=2),
                             0, 255).astype(np.uint8)
            return np.concatenate([rgb, alpha[:, :, None]], axis=2)
        raise ValueError(f"tRNS forbidden on PNG color type {ctype_}")
    if ch == 1:
        return mat.reshape(h, w)
    return mat.reshape(h, w, ch)


def _filter_rows(flat: np.ndarray, bpp: int, filter_type: int) -> bytearray:
    """Apply one PNG filter to every scanline of a (h, stride) int32
    image, returning the filtered byte stream (filter byte + data per
    row). 'Previous row' starts at zero — callers scope it per image
    or per interlace pass."""
    h, stride = flat.shape
    lines = bytearray()
    prev = np.zeros(stride, np.int32)
    for y in range(h):
        cur = flat[y]
        if filter_type == 0:
            enc = cur
        elif filter_type == 1:
            left = np.concatenate([np.zeros(bpp, np.int32), cur[:-bpp]])
            enc = (cur - left) & 0xFF
        elif filter_type == 2:
            enc = (cur - prev) & 0xFF
        elif filter_type == 3:
            left = np.concatenate([np.zeros(bpp, np.int32), cur[:-bpp]])
            enc = (cur - ((left + prev) >> 1)) & 0xFF
        elif filter_type == 4:
            left = np.concatenate([np.zeros(bpp, np.int32), cur[:-bpp]])
            ul = np.concatenate([np.zeros(bpp, np.int32), prev[:-bpp]])
            pred = np.fromiter(
                (_paeth(int(a), int(b), int(c))
                 for a, b, c in zip(left, prev, ul)),
                dtype=np.int32, count=stride)
            enc = (cur - pred) & 0xFF
        else:
            raise ValueError(f"unknown filter type {filter_type}")
        lines.append(filter_type)
        lines.extend(enc.astype(np.uint8).tobytes())
        prev = cur
    return lines


def encode_png(arr: np.ndarray, filter_type: int = 0,
               interlace: bool = False) -> bytes:
    """uint8 (h, w) grayscale or (h, w, 3|4) truecolor → PNG bytes.
    ``filter_type`` applies one filter to every scanline (0/1/2/3/4) —
    the variants exist so the decoder's filter paths are testable.
    ``interlace=True`` emits an Adam7 stream (seven independently
    filtered sub-images in pass order) for decoder coverage."""
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    if arr.ndim == 2:
        ctype, ch = 0, 1
    elif arr.ndim == 3 and arr.shape[2] == 3:
        ctype, ch = 2, 3
    elif arr.ndim == 3 and arr.shape[2] == 4:
        ctype, ch = 6, 4
    else:
        raise ValueError("encode_png wants (h,w), (h,w,3) or (h,w,4)")
    h, w = arr.shape[:2]
    full = arr.reshape(h, w, ch).astype(np.int32)
    if interlace:
        lines = bytearray()
        for x0, y0, xs, ys in _ADAM7:
            sub = full[y0::ys, x0::xs]
            ph, pw = sub.shape[:2]
            if pw == 0 or ph == 0:
                continue
            lines.extend(_filter_rows(
                np.ascontiguousarray(sub).reshape(ph, pw * ch),
                ch, filter_type))
    else:
        lines = _filter_rows(full.reshape(h, w * ch), ch, filter_type)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, ctype, 0, 0, int(interlace))

    def chunk(tag: bytes, body: bytes) -> bytes:
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))

    return (PNG_SIG + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(bytes(lines), 6))
            + chunk(b"IEND", b""))


# ---------------------------------------------------------------------------
# BMP (BITMAPINFOHEADER, uncompressed BI_RGB)
# ---------------------------------------------------------------------------


def decode_bmp(data: bytes) -> np.ndarray:
    """BMP bytes → uint8 array: (h, w, 3) for 24-bit BGR (returned as
    RGB), (h, w, 3) for 8-bit palette. Bottom-up and top-down rows
    both handled; raises ValueError on malformed/unsupported input."""
    if data[:2] != b"BM" or len(data) < 54:
        raise ValueError("not a BMP")
    (pix_off,) = struct.unpack("<I", data[10:14])
    (hdr_size,) = struct.unpack("<I", data[14:18])
    if hdr_size < 40:
        raise ValueError("unsupported BMP header")
    w, h_signed = struct.unpack("<ii", data[18:26])
    bpp, = struct.unpack("<H", data[28:30])
    comp, = struct.unpack("<I", data[30:34])
    if comp != 0:
        raise ValueError(f"compressed BMP (method {comp}) not supported")
    if w <= 0 or h_signed == 0:
        raise ValueError("bad BMP dimensions")
    top_down = h_signed < 0
    h = abs(h_signed)
    if bpp == 24:
        stride = (w * 3 + 3) & ~3
        need = pix_off + stride * h
        if len(data) < need:
            raise ValueError("truncated BMP pixel data")
        rows = np.frombuffer(data[pix_off:need], dtype=np.uint8)
        rows = rows.reshape(h, stride)[:, :w * 3].reshape(h, w, 3)
        rgb = rows[:, :, ::-1]  # BGR → RGB
        return np.ascontiguousarray(rgb if top_down else rgb[::-1])
    if bpp == 8:
        pal_off = 14 + hdr_size
        n_colors = struct.unpack("<I", data[46:50])[0] or 256
        pal = np.frombuffer(data[pal_off:pal_off + 4 * n_colors],
                            dtype=np.uint8).reshape(-1, 4)[:, 2::-1]  # BGRA→RGB
        stride = (w + 3) & ~3
        need = pix_off + stride * h
        if len(data) < need:
            raise ValueError("truncated BMP pixel data")
        idx = np.frombuffer(data[pix_off:need], dtype=np.uint8)
        idx = idx.reshape(h, stride)[:, :w]
        if int(idx.max(initial=0)) >= len(pal):
            raise ValueError("BMP palette index out of range")
        out = pal[idx]
        return np.ascontiguousarray(out if top_down else out[::-1])
    raise ValueError(f"unsupported BMP bit depth {bpp}")


def encode_bmp(arr: np.ndarray) -> bytes:
    """uint8 (h, w, 3) RGB → 24-bit bottom-up BI_RGB BMP bytes."""
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError("encode_bmp wants (h, w, 3) RGB")
    h, w = arr.shape[:2]
    stride = (w * 3 + 3) & ~3
    rows = np.zeros((h, stride), dtype=np.uint8)
    rows[:, :w * 3] = arr[::-1, :, ::-1].reshape(h, w * 3)  # bottom-up BGR
    pix = rows.tobytes()
    header = (
        b"BM" + struct.pack("<IHHI", 54 + len(pix), 0, 0, 54)
        + struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(pix),
                      2835, 2835, 0, 0)
    )
    return header + pix


def to_gray(arr: np.ndarray) -> np.ndarray:
    """uint8 image → (h, w) grayscale via integer BT.601 luma —
    deterministic (no float rounding differences across platforms)."""
    if arr.ndim == 2:
        return arr
    a = arr.astype(np.int64)
    if arr.shape[2] == 2:  # gray + alpha
        return arr[:, :, 0]
    r, g, b = a[:, :, 0], a[:, :, 1], a[:, :, 2]
    return ((299 * r + 587 * g + 114 * b) // 1000).astype(np.uint8)
