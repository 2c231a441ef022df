"""From-scratch baseline TIFF codec — the fifth real image format
behind the multimodal stages (round-5: "TIFF uncompressed + PackBits
is the last common web image container without a real codec").

Public-spec implementation only (TIFF 6.0, Adobe 1992): both byte
orders (``II`` little-endian / ``MM`` big-endian), classic 32-bit
offsets, IFD entry walk with inline-vs-offset value storage, strip
assembly via StripOffsets/StripByteCounts/RowsPerStrip, Compression
1 (none), 5 (LZW, §13 — the shared early-change codec in
algorithms/lzw.py), 8/32946 (Adobe deflate via zlib) and 32773
(PackBits, §9 — runs never span rows), Predictor 2 (horizontal
differencing, mod-256 cumulative sum) on both decode and encode.

Pixel scope (errors — never silent wrongness — outside it):
- 8-bit grayscale, Photometric 0 (WhiteIsZero, inverted) and 1
- 8-bit RGB (chunky PlanarConfiguration 1) and RGBA (ExtraSamples)
- 8-bit palette (Photometric 3): 16-bit ColorMap planes → RGB
- 1-bit bilevel (Photometric 0/1), FillOrder 1 and 2
Tiled TIFFs, planar configuration 2, and other bit depths raise
ValueError (the multimodal stages' per-row quarantine path).

An encoder exists (gray / RGB / RGBA, none / LZW / deflate /
PackBits, optional predictor 2, both byte orders, configurable strip
height) so tests are self-contained roundtrips with no external
library.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from nidaba_ray.algorithms.inflate import inflate_zlib_prefix
from nidaba_ray.algorithms.lzw import lzw_decode, lzw_encode

__all__ = ["is_tiff", "decode_tiff", "encode_tiff", "tiff_n_pages",
           "packbits_decode", "packbits_encode"]

# entry value type → byte size (TIFF 6.0 §2); only the ones strip
# metadata can legally use need decoding, the rest are skipped
_TYPE_SIZE = {1: 1, 2: 1, 3: 2, 4: 4, 5: 8, 6: 1, 7: 1, 8: 2, 9: 4,
              10: 8, 11: 4, 12: 8}
_TYPE_FMT = {1: "B", 3: "H", 4: "I"}  # BYTE / SHORT / LONG


def is_tiff(data: bytes) -> bool:
    return data[:4] in (b"II*\x00", b"MM\x00*")


def packbits_decode(buf: bytes, expected: int) -> bytes:
    """PackBits (TIFF 6.0 §9 / Apple RLE) → exactly ``expected``
    bytes; ValueError on truncation or overrun."""
    out = bytearray()
    pos, n = 0, len(buf)
    while len(out) < expected:
        if pos >= n:
            raise ValueError("truncated PackBits stream")
        ctrl = buf[pos]
        pos += 1
        if ctrl == 128:  # no-op
            continue
        if ctrl < 128:  # ctrl+1 literal bytes
            end = pos + ctrl + 1
            if end > n:
                raise ValueError("truncated PackBits literal run")
            out += buf[pos:end]
            pos = end
        else:  # 257-ctrl copies of the next byte
            if pos >= n:
                raise ValueError("truncated PackBits repeat run")
            out += bytes([buf[pos]]) * (257 - ctrl)
            pos += 1
    if len(out) != expected:
        raise ValueError("PackBits run overruns the row")
    return bytes(out)


def packbits_encode(row: bytes) -> bytes:
    """PackBits-compress one row (runs never span rows, §9). Greedy:
    repeat runs of ≥3 (≥2 at a literal boundary) become repeat
    packets, everything else accumulates into ≤128-byte literals."""
    out = bytearray()
    i, n = 0, len(row)
    while i < n:
        # measure the run starting at i
        j = i + 1
        while j < n and j - i < 128 and row[j] == row[i]:
            j += 1
        run = j - i
        if run >= 2:
            out.append(257 - run)
            out.append(row[i])
            i = j
            continue
        # literal: extend until the next ≥3 repeat or 128 bytes
        lit = i
        while i < n and i - lit < 128:
            if i + 2 < n and row[i] == row[i + 1] == row[i + 2]:
                break
            i += 1
        out.append(i - lit - 1)
        out += row[lit:i]
    return bytes(out)


def _ifd_offsets(data: bytes, bo: str, limit: int | None = None):
    """Walk the IFD chain (multi-page TIFF) → list of IFD offsets.
    ``limit`` stops early (cheap page counting); the chain is capped
    at 10,000 entries so a corrupt next-pointer loop cannot spin."""
    offsets = []
    (off,) = struct.unpack(bo + "I", data[4:8])
    seen = set()
    while off:
        if off in seen or len(offsets) >= 10_000:
            raise ValueError("TIFF IFD chain loops")
        seen.add(off)
        if off + 2 > len(data):
            raise ValueError("TIFF IFD offset out of range")
        offsets.append(off)
        if limit is not None and len(offsets) >= limit:
            break
        (n_entries,) = struct.unpack(bo + "H", data[off:off + 2])
        nxt = off + 2 + 12 * n_entries
        if nxt + 4 > len(data):
            raise ValueError("truncated TIFF IFD")
        (off,) = struct.unpack(bo + "I", data[nxt:nxt + 4])
    if not offsets:
        raise ValueError("TIFF has no IFD")
    return offsets


def tiff_n_pages(data: bytes, limit: int | None = None) -> int:
    """Number of pages (IFDs) in a TIFF — header-walk only, no pixel
    decode. ``limit`` early-exits (e.g. limit=2 answers "is this
    multi-page" at constant cost)."""
    if not is_tiff(data):
        raise ValueError("not a TIFF (bad byte-order/magic header)")
    bo = "<" if data[:2] == b"II" else ">"
    return len(_ifd_offsets(data, bo, limit=limit))


def _read_ifd(data: bytes, bo: str, page: int = 0):
    """IFD of ``page`` → {tag: (type, count, values_or_raw)} with
    offset values resolved. Value arrays decode for BYTE/SHORT/LONG;
    other types keep raw bytes (nothing strip-critical uses them)."""
    chain = _ifd_offsets(data, bo, limit=page + 1)
    if len(chain) <= page:
        raise ValueError(f"TIFF has no page {page}")
    return read_ifd_at(data, bo, chain[page])


def read_ifd_at(data: bytes, bo: str, off: int):
    """IFD at an explicit offset → the same {tag: (type, count,
    values_or_raw)} mapping; ``_read_ifd`` finds a page's offset on
    the IFD chain first."""
    (n_entries,) = struct.unpack(bo + "H", data[off:off + 2])
    tags = {}
    pos = off + 2
    if pos + 12 * n_entries + 4 > len(data):
        raise ValueError("truncated TIFF IFD")
    for _ in range(n_entries):
        tag, typ, count = struct.unpack(bo + "HHI", data[pos:pos + 8])
        size = _TYPE_SIZE.get(typ, 1) * count
        if size <= 4:
            raw = data[pos + 8:pos + 8 + size]
        else:
            (voff,) = struct.unpack(bo + "I", data[pos + 8:pos + 12])
            raw = data[voff:voff + size]
            if len(raw) != size:
                raise ValueError(f"TIFF tag {tag} value out of range")
        if typ in _TYPE_FMT:
            vals = struct.unpack(bo + _TYPE_FMT[typ] * count, raw)
        else:
            vals = raw
        tags[tag] = (typ, count, vals)
        pos += 12
    return tags


def _tag(tags, tag_id, default=None):
    if tag_id not in tags:
        if default is None:
            raise ValueError(f"TIFF missing required tag {tag_id}")
        return default
    return tags[tag_id][2]


def decode_tiff(data: bytes, page: int = 0) -> np.ndarray:
    """TIFF bytes → uint8 array: (h, w) grayscale/bilevel, (h, w, 3)
    RGB/palette, (h, w, 4) RGBA. ``page`` selects the IFD for
    multi-page documents (the classic scanned-document container);
    the chain walk stops at ``page``, so decoding page 0 of a
    thousand-page file never touches the other IFDs. Raises
    ValueError on malformed or out-of-scope input."""
    if not is_tiff(data):
        raise ValueError("not a TIFF (bad byte-order/magic header)")
    bo = "<" if data[:2] == b"II" else ">"
    tags = _read_ifd(data, bo, page=page)
    if 322 in tags or 323 in tags:
        raise ValueError("tiled TIFF not supported (strips only)")
    w = int(_tag(tags, 256)[0])
    h = int(_tag(tags, 257)[0])
    if w <= 0 or h <= 0:
        raise ValueError("bad TIFF dimensions")
    spp = int(_tag(tags, 277, (1,))[0])
    bits = tuple(int(b) for b in _tag(tags, 258, (1,)))
    comp = int(_tag(tags, 259, (1,))[0])
    photo = int(_tag(tags, 262)[0])
    planar = int(_tag(tags, 284, (1,))[0])
    predictor = int(_tag(tags, 317, (1,))[0])
    fill_order = int(_tag(tags, 266, (1,))[0])
    if planar != 1:
        raise ValueError(f"planar configuration {planar} not supported")
    if comp not in (1, 5, 8, 32773, 32946):
        raise ValueError(f"TIFF compression {comp} not supported "
                         "(none/LZW/Deflate/PackBits only)")
    if predictor not in (1, 2):
        raise ValueError(f"TIFF predictor {predictor} not supported")
    bilevel = bits == (1,) and spp == 1
    if not bilevel and (set(bits) != {8} or len(bits) != spp):
        raise ValueError(f"unsupported TIFF bits-per-sample {bits} "
                         f"for {spp} samples/pixel (8-bit or bilevel)")
    if bilevel and predictor == 2:
        raise ValueError("predictor 2 on bilevel TIFF not supported")

    offsets = _tag(tags, 273)
    counts = _tag(tags, 279)
    if len(offsets) != len(counts):
        raise ValueError("StripOffsets/StripByteCounts length mismatch")
    rps = int(_tag(tags, 278, (h,))[0])
    rps = min(rps, h) or h  # 2^32-1 convention = one strip
    row_bytes = (w * spp * bits[0] + 7) // 8
    n_strips = (h + rps - 1) // rps
    if len(offsets) != n_strips:
        raise ValueError("strip count disagrees with RowsPerStrip")

    buf = bytearray()
    for i, (off, cnt) in enumerate(zip(offsets, counts)):
        raw = data[off:off + cnt]
        if len(raw) != cnt:
            raise ValueError("TIFF strip out of range")
        rows = min(rps, h - i * rps)
        if comp == 32773:
            raw = packbits_decode(raw, rows * row_bytes)
        elif comp == 5:
            raw = lzw_decode(raw)  # TIFF is always the early-change variant
            if len(raw) != rows * row_bytes:
                raise ValueError("LZW TIFF strip size mismatch")
        elif comp in (8, 32946):  # Adobe deflate (+ the legacy code)
            try:  # one byte past the strip's size: a bomb stops there
                raw = inflate_zlib_prefix(raw, rows * row_bytes + 1)
            except zlib.error as e:
                raise ValueError(f"deflate TIFF strip: {e}") from None
            if len(raw) != rows * row_bytes:
                raise ValueError("deflate TIFF strip size mismatch")
        elif len(raw) != rows * row_bytes:
            raise ValueError("uncompressed TIFF strip size mismatch")
        buf += raw

    flat = np.frombuffer(bytes(buf), dtype=np.uint8)
    if bilevel:
        rows = flat.reshape(h, row_bytes)
        order = "big" if fill_order == 1 else "little"
        px = np.unpackbits(rows, axis=1, bitorder=order)[:, :w]
        if photo == 0:  # WhiteIsZero: 0-bit is white
            px = 1 - px
        elif photo != 1:
            raise ValueError(f"photometric {photo} invalid for bilevel")
        return (px * 255).astype(np.uint8)
    if fill_order != 1:
        raise ValueError("FillOrder 2 only supported on bilevel TIFF")

    mat = flat.reshape(h, w, spp)
    if predictor == 2:  # horizontal differencing, per channel
        mat = (np.cumsum(mat.astype(np.int64), axis=1) & 0xFF
               ).astype(np.uint8)
    if photo == 3:
        if spp != 1:
            raise ValueError("palette TIFF must have 1 sample/pixel")
        cmap = _tag(tags, 320)
        if len(cmap) != 3 * 256:
            raise ValueError("TIFF ColorMap must hold 3*256 entries")
        pal = (np.asarray(cmap, np.uint32).reshape(3, 256).T >> 8
               ).astype(np.uint8)  # 16-bit planes → 8-bit RGB
        return pal[mat.reshape(h, w)]
    if photo in (0, 1):
        if spp != 1:
            raise ValueError("grayscale TIFF must have 1 sample/pixel")
        g = mat.reshape(h, w)
        return (255 - g) if photo == 0 else g.copy()
    if photo == 2:
        if spp == 3:
            return mat.copy()
        if spp == 4:  # ExtraSamples alpha (associated or not)
            return mat.copy()
        raise ValueError(f"RGB TIFF with {spp} samples/pixel")
    raise ValueError(f"TIFF photometric interpretation {photo} "
                     "not supported")


def encode_tiff(arr, compression: str = "none",
                byte_order: str = "<", rows_per_strip: int | None = None,
                predictor: int = 1) -> bytes:
    """uint8 (h, w) gray / (h, w, 3) RGB / (h, w, 4) RGBA — or a LIST
    of such arrays for a multi-page TIFF — → classic TIFF bytes.
    ``compression``: "none", "packbits" (compressed per row, runs
    never span rows — §9) or "lzw" (TIFF 6.0 §13, compressed per
    strip, shared codec with the PDF LZWDecode filter).
    ``predictor``: 2 applies horizontal differencing before
    compression (the classic LZW companion; tag 317 travels in the
    IFD). ``byte_order``: "<" emits II, ">" emits MM. Strips of ``rows_per_strip`` rows (default: whole image as
    one strip) so the decoder's strip walk is testable."""
    if byte_order not in ("<", ">"):
        raise ValueError("byte_order must be '<' or '>'")
    pages = arr if isinstance(arr, (list, tuple)) else [arr]
    if not pages:
        raise ValueError("encode_tiff wants at least one page")
    bo = byte_order
    body = bytearray(b"II*\x00" if bo == "<" else b"MM\x00*")
    body += struct.pack(bo + "I", 0)  # first-IFD offset backpatched

    per_page = []  # (entries, strips written → offsets recorded)
    for a in pages:
        a = np.ascontiguousarray(a, dtype=np.uint8)
        if a.ndim == 2:
            spp = 1
        elif a.ndim == 3 and a.shape[2] in (3, 4):
            spp = a.shape[2]
        else:
            raise ValueError("encode_tiff wants (h,w), (h,w,3) or (h,w,4)")
        h, w = a.shape[:2]
        rps = h if rows_per_strip is None else max(1, min(rows_per_strip, h))
        if predictor not in (1, 2):
            raise ValueError(f"unsupported predictor {predictor}")
        if predictor == 2:
            m = a.reshape(h, w, spp).astype(np.int16)
            d = m.copy()
            d[:, 1:] = (m[:, 1:] - m[:, :-1]) & 0xFF
            a = d.astype(np.uint8)
        flat = a.reshape(h, w * spp)
        strips = []
        for y0 in range(0, h, rps):
            block = flat[y0:y0 + rps]
            if compression == "packbits":
                strips.append(b"".join(packbits_encode(row.tobytes())
                                       for row in block))
            elif compression == "lzw":
                strips.append(lzw_encode(block.tobytes()))
            elif compression == "deflate":
                strips.append(zlib.compress(block.tobytes()))
            elif compression == "none":
                strips.append(block.tobytes())
            else:
                raise ValueError(f"unknown compression {compression!r}")
        strip_offsets = []
        for s in strips:
            strip_offsets.append(len(body))
            body += s
            if len(body) % 2:  # values must start on word boundaries
                body += b"\x00"
        # entries: (tag, type, count, values); arrays >4 bytes spill
        # to an external value area placed right after each IFD
        comp_id = {"none": 1, "lzw": 5, "deflate": 8,
                   "packbits": 32773}[compression]
        photo = 1 if spp == 1 else 2
        entries = [
            (256, 4, 1, (w,)), (257, 4, 1, (h,)),
            (258, 3, spp, (8,) * spp),
            (259, 3, 1, (comp_id,)), (262, 3, 1, (photo,)),
            (273, 4, len(strips), tuple(strip_offsets)),
            (277, 3, 1, (spp,)), (278, 4, 1, (rps,)),
            (279, 4, len(strips), tuple(len(s) for s in strips)),
        ]
        if spp == 4:
            entries.append((338, 3, 1, (2,)))  # unassociated alpha
        if predictor == 2:
            entries.append((317, 3, 1, (2,)))
        entries.sort()  # spec: ascending tag order
        per_page.append(entries)

    # lay the IFD chain out sequentially: each page's block is
    # [count | entries | next-ptr | ext values (padded)]
    ifd_offs = []
    cursor = len(body)
    ext_lens = []
    for entries in per_page:
        ifd_offs.append(cursor)
        ext = sum((lambda n: n + (n % 2))( _TYPE_SIZE[t] * c)
                  for _, t, c, _v in entries
                  if _TYPE_SIZE[t] * c > 4)
        ext_lens.append(ext)
        cursor += 2 + 12 * len(entries) + 4 + ext
    for i, entries in enumerate(per_page):
        ext_off = ifd_offs[i] + 2 + 12 * len(entries) + 4
        ifd = bytearray(struct.pack(bo + "H", len(entries)))
        ext = bytearray()
        for tag, typ, count, vals in entries:
            packed = struct.pack(bo + _TYPE_FMT[typ] * count, *vals)
            ifd += struct.pack(bo + "HHI", tag, typ, count)
            if len(packed) <= 4:
                ifd += packed.ljust(4, b"\x00")
            else:
                ifd += struct.pack(bo + "I", ext_off + len(ext))
                ext += packed
                if len(ext) % 2:
                    ext += b"\x00"
        nxt = ifd_offs[i + 1] if i + 1 < len(ifd_offs) else 0
        ifd += struct.pack(bo + "I", nxt)
        body += ifd + ext
    body[4:8] = struct.pack(bo + "I", ifd_offs[0])
    return bytes(body)
