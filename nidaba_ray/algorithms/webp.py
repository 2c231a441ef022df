"""From-scratch WebP-lossless (VP8L) codec — the sixth real image
format behind the multimodal stages, and the modern web one (RFC
9649 / the public "WebP Lossless Bitstream Specification"; same
build-from-spec pattern as :mod:`nidaba_ray.algorithms.png`).

Decoder scope (errors — never silent wrongness — outside it):

* RIFF container → ``VP8L`` chunk (lossy ``VP8 ``/extended ``VP8X``
  raise — VP8 is an arithmetic-coded video codec, out of scope)
* LSB-first bit stream; canonical prefix codes in the DEFLATE
  convention, read MSB-of-code-first; "simple" 1/2-symbol codes
  (including the 0-bit single-symbol case) and full codes via the
  code-length code (order table, 16/17/18 repeats, optional
  max_symbol cutoff)
* the four transforms: PREDICTOR (all 14 modes, spec border rules),
  COLOR (signed 3.5 fixed-point cross-channel deltas), SUBTRACT_GREEN
  and COLOR_INDEXING (delta-coded palette incl. the ≤16-color pixel
  packing); inverses applied in reverse read order
* LZ77 backward references with the 120-entry 2D distance map,
  color-cache hits (1-11 bit caches, 0x1e35a7bd hash), and per-tile
  meta prefix codes on the main image

The distance map is GENERATED, not transcribed: the spec's table is
exactly the (x ∈ [-7, 8]) × (y ∈ [0, 7]) neighborhood (minus the
non-causal y=0, x≤0 cells — 120 pairs) ordered by (x²+y², |x|,
sign(x)); the generation rule was cross-checked against the
published table at dozens of positions.

The encoder (optional palette with packing, subtract-green, color
cache, run-length backward references through the REAL distance map,
canonical prefix codes with simple-code and code-length-code
emission) exists so tests are self-contained exact roundtrips —
VP8L is lossless, so encode→decode must reproduce pixels
byte-for-byte on every path."""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["is_webp", "decode_webp", "encode_webp"]

_HASH_MUL = 0x1E35A7BD
_ORDER = [17, 18, 0, 1, 2, 3, 4, 5, 16, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]

# the 120-entry 2D distance neighborhood (see module docstring)
_DIST_PAIRS: list[tuple[int, int]] = sorted(
    ((x, y) for y in range(8) for x in range(-7, 9)
     if not (y == 0 and x <= 0)),
    key=lambda p: (p[0] * p[0] + p[1] * p[1], abs(p[0]), p[0] < 0),
)
_PAIR_TO_CODE = {p: i + 1 for i, p in enumerate(_DIST_PAIRS)}


def is_webp(payload: bytes) -> bool:
    return payload[:4] == b"RIFF" and payload[8:12] == b"WEBP"


# ---------------------------------------------------------------------------
# bit I/O (LSB-first, per the spec)


class _BitReader:
    __slots__ = ("data", "pos", "n")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0
        self.n = len(data) * 8

    def read(self, nbits: int) -> int:
        out = 0
        for i in range(nbits):
            if self.pos >= self.n:
                raise ValueError("VP8L: bit stream exhausted")
            byte = self.data[self.pos >> 3]
            out |= ((byte >> (self.pos & 7)) & 1) << i
            self.pos += 1
        return out

    def read_bit(self) -> int:
        if self.pos >= self.n:
            raise ValueError("VP8L: bit stream exhausted")
        b = (self.data[self.pos >> 3] >> (self.pos & 7)) & 1
        self.pos += 1
        return b


class _BitWriter:
    __slots__ = ("out", "acc", "nbits")

    def __init__(self) -> None:
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, nbits: int) -> None:
        self.acc |= (value & ((1 << nbits) - 1)) << self.nbits
        self.nbits += nbits
        while self.nbits >= 8:
            self.out.append(self.acc & 0xFF)
            self.acc >>= 8
            self.nbits -= 8

    def write_code(self, code: int, length: int) -> None:
        """Huffman codes travel MSB-of-code first."""
        for i in range(length - 1, -1, -1):
            self.write((code >> i) & 1, 1)

    def flush(self) -> bytes:
        if self.nbits:
            self.out.append(self.acc & 0xFF)
            self.acc = self.nbits = 0
        return bytes(self.out)


# ---------------------------------------------------------------------------
# canonical prefix codes (DEFLATE/VP8L convention)


def _canonical_table(lengths: list[int]) -> dict:
    """code lengths (symbol order) → decode dict or 0-bit singleton.

    Returns ("single", sym) for a one-symbol alphabet, else
    {(length, code): symbol}."""
    nz = [(l, s) for s, l in enumerate(lengths) if l > 0]
    if not nz:
        raise ValueError("VP8L: empty prefix code")
    if len(nz) == 1:
        return ("single", nz[0][1])
    table: dict[tuple[int, int], int] = {}
    entries = sorted(nz)        # by (length, symbol) — canonical order
    code = 0
    prev_len = entries[0][0]
    for length, sym in entries:
        code <<= (length - prev_len)
        prev_len = length
        table[(length, code)] = sym
        code += 1
    # Kraft check: the final code must fit in its length
    if code > (1 << prev_len):
        raise ValueError("VP8L: over-subscribed prefix code")
    return table


def _encode_table(lengths: list[int]) -> dict[int, tuple[int, int]]:
    """symbol → (code, length) for the encoder side."""
    t = _canonical_table(lengths)
    if isinstance(t, tuple):
        return {t[1]: (0, 0)}
    return {sym: (code, length) for (length, code), sym in t.items()}


def _read_symbol(r: _BitReader, table) -> int:
    if isinstance(table, tuple):  # 0-bit single-symbol code
        return table[1]
    code = 0
    length = 0
    while length < 16:
        code = (code << 1) | r.read_bit()
        length += 1
        sym = table.get((length, code))
        if sym is not None:
            return sym
    raise ValueError("VP8L: invalid prefix code")


def _huffman_lengths(freqs: dict[int, int], alphabet: int,
                     cap: int = 15) -> list[int]:
    """Frequencies → depth-capped code lengths (flat fallback when the
    optimal tree exceeds the cap — always Kraft-valid)."""
    import heapq

    used = [s for s, f in freqs.items() if f > 0]
    lengths = [0] * alphabet
    if not used:
        raise ValueError("empty alphabet")
    if len(used) == 1:
        lengths[used[0]] = 1
        return lengths
    heap = [(f, s, None) for s, f in freqs.items() if f > 0]
    heapq.heapify(heap)
    nodes = []
    while len(heap) > 1:
        a = heapq.heappop(heap)
        b = heapq.heappop(heap)
        nodes.append((a, b))
        heapq.heappush(heap, (a[0] + b[0], -len(nodes), (a, b)))

    def depths(node, d):
        if node[2] is None:
            lengths[node[1]] = max(d, 1)
        else:
            depths(node[2][0], d + 1)
            depths(node[2][1], d + 1)

    depths(heap[0], 0)
    if max(lengths) > cap:
        flat = max((len(used) - 1).bit_length(), 1)
        if flat > cap:
            raise ValueError("alphabet too large for depth cap")
        lengths = [0] * alphabet
        for s in used:
            lengths[s] = flat
    return lengths


# ---------------------------------------------------------------------------
# prefix-coded length/distance values (spec 5.2.2)


def _prefix_decode(r: _BitReader, prefix_code: int) -> int:
    if prefix_code < 4:
        return prefix_code + 1
    extra = (prefix_code - 2) >> 1
    offset = (2 + (prefix_code & 1)) << extra
    return offset + r.read(extra) + 1


def _prefix_encode(v: int) -> tuple[int, int, int]:
    """value ≥ 1 → (prefix_code, extra_bit_count, extra_value)."""
    if v <= 2:
        return v - 1, 0, 0
    x = v - 1
    hb = x.bit_length() - 1
    second = (x >> (hb - 1)) & 1
    return 2 * hb + second, hb - 1, x - ((2 + second) << (hb - 1))


# ---------------------------------------------------------------------------
# prefix-code groups


_GREEN_BASE = 256 + 24


def _read_code(r: _BitReader, alphabet: int):
    """One prefix code: simple (1-2 symbols) or code-length coded."""
    if r.read_bit():  # simple
        num_symbols = r.read_bit() + 1
        first_8bit = r.read_bit()
        s0 = r.read(8 if first_8bit else 1)
        if num_symbols == 2:
            s1 = r.read(8)
            lengths = [0] * alphabet
            if s0 >= alphabet or s1 >= alphabet:
                raise ValueError("VP8L: simple-code symbol out of range")
            lengths[s0] = lengths[s1] = 1
            return _canonical_table(lengths)
        if s0 >= alphabet:
            raise ValueError("VP8L: simple-code symbol out of range")
        return ("single", s0)
    num_cl = 4 + r.read(4)
    cl_lengths = [0] * 19
    for i in range(num_cl):
        cl_lengths[_ORDER[i]] = r.read(3)
    cl_table = _canonical_table(cl_lengths)
    if r.read_bit():  # explicit max_symbol
        length_nbits = 2 + 2 * r.read(3)
        max_symbol = 2 + r.read(length_nbits)
    else:
        max_symbol = alphabet
    lengths = [0] * alphabet
    sym = 0
    prev_len = 8
    while sym < alphabet:
        if max_symbol == 0:
            break
        max_symbol -= 1
        cl = _read_symbol(r, cl_table)
        if cl < 16:
            lengths[sym] = cl
            sym += 1
            if cl:
                prev_len = cl
        else:
            if cl == 16:
                repeat, fill = 3 + r.read(2), prev_len
            elif cl == 17:
                repeat, fill = 3 + r.read(3), 0
            else:
                repeat, fill = 11 + r.read(7), 0
            if sym + repeat > alphabet:
                raise ValueError("VP8L: code-length repeat overflow")
            for _ in range(repeat):
                lengths[sym] = fill
                sym += 1
    return _canonical_table(lengths)


def _read_code_group(r: _BitReader, cache_size: int) -> list:
    return [
        _read_code(r, _GREEN_BASE + cache_size),
        _read_code(r, 256),   # red
        _read_code(r, 256),   # blue
        _read_code(r, 256),   # alpha
        _read_code(r, 40),    # distance
    ]


# ---------------------------------------------------------------------------
# entropy-coded image (spec 5) — returns (h, w) uint32 ARGB


def _decode_entropy_image(r: _BitReader, w: int, h: int,
                          top_level: bool) -> np.ndarray:
    cache_bits = 0
    if r.read_bit():
        cache_bits = r.read(4)
        if not 1 <= cache_bits <= 11:
            raise ValueError("VP8L: bad color-cache size")
    meta = None
    meta_bits = 0
    n_groups = 1
    if top_level and r.read_bit():  # meta prefix codes
        meta_bits = 2 + r.read(3)
        mw = -(-w // (1 << meta_bits))
        mh = -(-h // (1 << meta_bits))
        meta_img = _decode_entropy_image(r, mw, mh, top_level=False)
        meta = ((meta_img >> 8) & 0xFFFF).astype(np.int64)
        n_groups = int(meta.max()) + 1
    cache_size = (1 << cache_bits) if cache_bits else 0
    groups = [_read_code_group(r, cache_size) for _ in range(n_groups)]
    cache = [0] * cache_size

    out = np.zeros(h * w, dtype=np.uint32)
    pos = 0
    total = h * w
    while pos < total:
        if meta is not None:
            y, x = divmod(pos, w)
            g = groups[int(meta[y >> meta_bits, x >> meta_bits])]
        else:
            g = groups[0]
        s = _read_symbol(r, g[0])
        if s < 256:  # literal
            red = _read_symbol(r, g[1])
            blue = _read_symbol(r, g[2])
            alpha = _read_symbol(r, g[3])
            px = (alpha << 24) | (red << 16) | (s << 8) | blue
            out[pos] = px
            pos += 1
            if cache_size:
                cache[(_HASH_MUL * px & 0xFFFFFFFF) >> (32 - cache_bits)] = px
        elif s < _GREEN_BASE:  # backward reference
            length = _prefix_decode(r, s - 256)
            dist_prefix = _read_symbol(r, g[4])
            dist_code = _prefix_decode(r, dist_prefix)
            if dist_code > 120:
                dist = dist_code - 120
            else:
                dx, dy = _DIST_PAIRS[dist_code - 1]
                dist = max(dy * w + dx, 1)
            if dist > pos or pos + length > total:
                raise ValueError("VP8L: backward reference out of range")
            for _ in range(length):
                px = int(out[pos - dist])
                out[pos] = px
                pos += 1
                if cache_size:
                    cache[(_HASH_MUL * px & 0xFFFFFFFF)
                          >> (32 - cache_bits)] = px
        else:  # color-cache hit
            idx = s - _GREEN_BASE
            if idx >= cache_size:
                raise ValueError("VP8L: cache index out of range")
            out[pos] = cache[idx]
            pos += 1
    return out.reshape(h, w)


# ---------------------------------------------------------------------------
# transforms (spec 4) — inverse application


def _avg2(a: int, b: int) -> int:
    return (a + b) >> 1


def _clamp(v: int) -> int:
    return 0 if v < 0 else (255 if v > 255 else v)


def _cas_half(a: int, b: int) -> int:
    d = a - b
    half = (abs(d) >> 1) * (1 if d >= 0 else -1)  # C truncation
    return _clamp(a + half)


def _split(px: int) -> tuple[int, int, int, int]:
    return (px >> 24) & 0xFF, (px >> 16) & 0xFF, (px >> 8) & 0xFF, px & 0xFF


def _join(a: int, r: int, g: int, b: int) -> int:
    return ((a & 0xFF) << 24) | ((r & 0xFF) << 16) | ((g & 0xFF) << 8) | (b & 0xFF)


def _predict(mode: int, L: int, T: int, TL: int, TR: int) -> int:
    if mode == 0:
        return 0xFF000000
    if mode == 1:
        return L
    if mode == 2:
        return T
    if mode == 3:
        return TR
    if mode == 4:
        return TL
    la, lr, lg, lb = _split(L)
    ta, tr_, tg, tb = _split(T)
    if mode == 5:
        xa, xr, xg, xb = _split(TR)
        return _join(_avg2(_avg2(la, xa), ta), _avg2(_avg2(lr, xr), tr_),
                     _avg2(_avg2(lg, xg), tg), _avg2(_avg2(lb, xb), tb))
    ca, cr, cg, cb = _split(TL)
    if mode == 6:
        return _join(_avg2(la, ca), _avg2(lr, cr), _avg2(lg, cg),
                     _avg2(lb, cb))
    if mode == 7:
        return _join(_avg2(la, ta), _avg2(lr, tr_), _avg2(lg, tg),
                     _avg2(lb, tb))
    if mode == 8:
        return _join(_avg2(ca, ta), _avg2(cr, tr_), _avg2(cg, tg),
                     _avg2(cb, tb))
    if mode == 9:
        xa, xr, xg, xb = _split(TR)
        return _join(_avg2(ta, xa), _avg2(tr_, xr), _avg2(tg, xg),
                     _avg2(tb, xb))
    if mode == 10:
        xa, xr, xg, xb = _split(TR)
        return _join(_avg2(_avg2(la, ca), _avg2(ta, xa)),
                     _avg2(_avg2(lr, cr), _avg2(tr_, xr)),
                     _avg2(_avg2(lg, cg), _avg2(tg, xg)),
                     _avg2(_avg2(lb, cb), _avg2(tb, xb)))
    if mode == 11:  # Select
        pa = la + ta - ca
        pr = lr + tr_ - cr
        pg = lg + tg - cg
        pb = lb + tb - cb
        pL = abs(pa - la) + abs(pr - lr) + abs(pg - lg) + abs(pb - lb)
        pT = abs(pa - ta) + abs(pr - tr_) + abs(pg - tg) + abs(pb - tb)
        return L if pL < pT else T
    if mode == 12:  # ClampAddSubtractFull
        return _join(_clamp(la + ta - ca), _clamp(lr + tr_ - cr),
                     _clamp(lg + tg - cg), _clamp(lb + tb - cb))
    if mode == 13:  # ClampAddSubtractHalf
        return _join(_cas_half(_avg2(la, ta), ca),
                     _cas_half(_avg2(lr, tr_), cr),
                     _cas_half(_avg2(lg, tg), cg),
                     _cas_half(_avg2(lb, tb), cb))
    raise ValueError(f"VP8L: predictor mode {mode} out of range")


def _add_px(a: int, b: int) -> int:
    """Per-channel mod-256 sum of two ARGB words."""
    return (((a & 0xFF00FF00) + (b & 0xFF00FF00)) & 0xFF00FF00) | \
           (((a & 0x00FF00FF) + (b & 0x00FF00FF)) & 0x00FF00FF)


def _inv_predictor(img: np.ndarray, modes: np.ndarray, bits: int) -> None:
    h, w = img.shape
    for y in range(h):
        for x in range(w):
            if x == 0 and y == 0:
                pred = 0xFF000000
            elif y == 0:
                pred = int(img[0, x - 1])
            elif x == 0:
                pred = int(img[y - 1, 0])
            else:
                mode = int(modes[y >> bits, x >> bits]) >> 8 & 0xFF
                L = int(img[y, x - 1])
                T = int(img[y - 1, x])
                TL = int(img[y - 1, x - 1])
                # rightmost column: TR is the leftmost pixel of the
                # CURRENT row (RFC 9649 §4.1), already reconstructed
                TR = int(img[y - 1, x + 1]) if x + 1 < w else int(img[y, 0])
                pred = _predict(mode, L, T, TL, TR)
            img[y, x] = _add_px(int(img[y, x]), pred)


def _ct_delta(t: int, c: int) -> int:
    """Signed 3.5 fixed-point cross-channel delta: (int8(t)*int8(c))>>5."""
    ts = t - 256 if t > 127 else t
    cs = c - 256 if c > 127 else c
    return (ts * cs) >> 5


def _inv_color_transform(img: np.ndarray, elems: np.ndarray,
                         bits: int) -> None:
    h, w = img.shape
    for y in range(h):
        for x in range(w):
            e = int(elems[y >> bits, x >> bits])
            g2r = (e >> 0) & 0xFF     # blue channel of the element
            g2b = (e >> 8) & 0xFF     # green channel
            r2b = (e >> 16) & 0xFF    # red channel
            px = int(img[y, x])
            a, r, g, b = _split(px)
            r = (r + _ct_delta(g2r, g)) & 0xFF
            b = (b + _ct_delta(g2b, g) + _ct_delta(r2b, r)) & 0xFF
            img[y, x] = _join(a, r, g, b)


def _inv_subtract_green(img: np.ndarray) -> None:
    g = (img >> 8) & 0xFF
    r = (((img >> 16) & 0xFF) + g) & 0xFF
    b = ((img & 0xFF) + g) & 0xFF
    img[:] = (img & 0xFF00FF00) | (r << 16) | b


def _palette_width_bits(n: int) -> int:
    if n <= 2:
        return 3
    if n <= 4:
        return 2
    if n <= 16:
        return 1
    return 0


def _inv_color_indexing(img: np.ndarray, palette: np.ndarray,
                        w: int) -> np.ndarray:
    """Expand indices (possibly packed) through the palette → (h, w)."""
    n = len(palette)
    wb = _palette_width_bits(n)
    h = img.shape[0]
    idx = ((img >> 8) & 0xFF).astype(np.int64)
    if wb:
        bpp = 8 >> wb
        per = 1 << wb
        mask = (1 << bpp) - 1
        cols = []
        for k in range(per):
            cols.append((idx >> (k * bpp)) & mask)
        idx = np.stack(cols, axis=2).reshape(h, -1)[:, :w]
    if int(idx.max(initial=0)) >= n:
        raise ValueError("VP8L: palette index out of range")
    return palette[idx]


# ---------------------------------------------------------------------------
# decoder entry


def decode_webp(data: bytes) -> np.ndarray:
    """WebP bytes → uint8 array: (h, w) gray (all-gray lossless),
    (h, w, 3) RGB, or (h, w, 4) RGBA when any alpha < 255. Lossless
    VP8L only; lossy VP8 raises ValueError."""
    if not is_webp(data):
        raise ValueError("not a WebP (missing RIFF/WEBP header)")
    pos = 12
    payload = None
    while pos + 8 <= len(data):
        tag = data[pos:pos + 4]
        (size,) = struct.unpack("<I", data[pos + 4:pos + 8])
        body = data[pos + 8:pos + 8 + size]
        if len(body) != size:
            raise ValueError("truncated WebP chunk")
        if tag == b"VP8L":
            payload = body
            break
        if tag in (b"VP8 ", b"VP8X"):
            raise ValueError("lossy/extended WebP not supported "
                             "(VP8L lossless only)")
        pos += 8 + size + (size % 2)
    if payload is None:
        raise ValueError("no VP8L chunk found")
    if not payload or payload[0] != 0x2F:
        raise ValueError("bad VP8L signature byte")
    r = _BitReader(payload[1:])
    w = r.read(14) + 1
    h = r.read(14) + 1
    r.read_bit()          # alpha-is-used hint
    if r.read(3) != 0:
        raise ValueError("unknown VP8L version")

    transforms = []       # (type, data) in read order
    seen = set()
    cur_w = w
    while r.read_bit():
        ttype = r.read(2)
        if ttype in seen:
            raise ValueError("VP8L: repeated transform")
        seen.add(ttype)
        if ttype == 0:    # PREDICTOR
            bits = 2 + r.read(3)
            sub = _decode_entropy_image(
                r, -(-cur_w // (1 << bits)), -(-h // (1 << bits)), False)
            transforms.append((0, (bits, sub)))
        elif ttype == 1:  # COLOR
            bits = 2 + r.read(3)
            sub = _decode_entropy_image(
                r, -(-cur_w // (1 << bits)), -(-h // (1 << bits)), False)
            transforms.append((1, (bits, sub)))
        elif ttype == 2:  # SUBTRACT_GREEN
            transforms.append((2, None))
        else:             # COLOR_INDEXING
            n = r.read(8) + 1
            pal_img = _decode_entropy_image(r, n, 1, False)
            # palette entries are componentwise delta-coded
            pal = np.zeros(n, np.uint32)
            prev = 0
            for i in range(n):
                prev = _add_px(prev, int(pal_img[0, i]))
                pal[i] = prev
            transforms.append((3, pal))
            cur_w = -(-cur_w // (1 << _palette_width_bits(n)))
    if 3 in seen and (0 in seen or 1 in seen):
        raise ValueError("VP8L: palette combined with predictor/color "
                         "transforms is outside this subset")

    img = _decode_entropy_image(r, cur_w, h, top_level=True)
    for ttype, tdata in reversed(transforms):
        if ttype == 0:
            _inv_predictor(img, tdata[1], tdata[0])
        elif ttype == 1:
            _inv_color_transform(img, tdata[1], tdata[0])
        elif ttype == 2:
            _inv_subtract_green(img)
        else:
            img = _inv_color_indexing(img, tdata, w)

    a = ((img >> 24) & 0xFF).astype(np.uint8)
    red = ((img >> 16) & 0xFF).astype(np.uint8)
    g = ((img >> 8) & 0xFF).astype(np.uint8)
    b = (img & 0xFF).astype(np.uint8)
    if not (a == 255).all():
        return np.stack([red, g, b, a], axis=2)
    if (red == g).all() and (g == b).all():
        return g
    return np.stack([red, g, b], axis=2)


# ---------------------------------------------------------------------------
# encoder


def _to_argb(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.dtype != np.uint8 or arr.ndim not in (2, 3):
        raise ValueError("encode_webp wants uint8 (h,w), (h,w,3) or (h,w,4)")
    if arr.ndim == 2:
        r = g = b = arr.astype(np.uint32)
        a = np.full(arr.shape, 255, np.uint32)
    elif arr.shape[2] == 3:
        r, g, b = (arr[:, :, i].astype(np.uint32) for i in range(3))
        a = np.full(arr.shape[:2], 255, np.uint32)
    elif arr.shape[2] == 4:
        r, g, b, a = (arr[:, :, i].astype(np.uint32) for i in range(4))
    else:
        raise ValueError("encode_webp wants 1, 3 or 4 channels")
    return (a << 24) | (r << 16) | (g << 8) | b


def _write_code(bw: _BitWriter, lengths: list[int]) -> None:
    """Emit one prefix code: simple when ≤2 symbols all ≤255, else
    the code-length-coded form (literals + 16/17/18 repeats)."""
    used = [s for s, l in enumerate(lengths) if l > 0]
    if 1 <= len(used) <= 2 and all(s <= 255 for s in used):
        bw.write(1, 1)                      # simple
        bw.write(len(used) - 1, 1)          # num_symbols - 1
        first_8bit = 1 if used[0] > 1 else 0
        bw.write(first_8bit, 1)
        bw.write(used[0], 8 if first_8bit else 1)
        if len(used) == 2:
            bw.write(used[1], 8)
        return
    bw.write(0, 1)                          # full code
    # RLE the length array into code-length symbols
    syms: list[tuple[int, int, int]] = []   # (cl_sym, extra_bits, extra)
    i, n = 0, len(lengths)
    while i < n:
        L = lengths[i]
        j = i
        while j < n and lengths[j] == L:
            j += 1
        run = j - i
        if L == 0:
            while run >= 11:
                c = min(run, 138)
                syms.append((18, 7, c - 11))
                run -= c
            if run >= 3:
                syms.append((17, 3, run - 3))
                run = 0
            syms.extend((0, 0, 0) for _ in range(run))
        else:
            syms.append((L, 0, 0))
            run -= 1
            while run >= 3:
                c = min(run, 6)
                syms.append((16, 2, c - 3))
                run -= c
            syms.extend((L, 0, 0) for _ in range(run))
        i = j
    cl_freq: dict[int, int] = {}
    for s, _, _ in syms:
        cl_freq[s] = cl_freq.get(s, 0) + 1
    cl_lengths = _huffman_lengths(cl_freq, 19, cap=7)
    cl_enc = _encode_table(cl_lengths)
    # num_code_lengths: minimal ORDER prefix covering all nonzero slots
    num_cl = 4
    for k in range(19):
        if cl_lengths[_ORDER[k]]:
            num_cl = max(num_cl, k + 1)
    bw.write(num_cl - 4, 4)
    for k in range(num_cl):
        bw.write(cl_lengths[_ORDER[k]], 3)
    bw.write(0, 1)                          # no explicit max_symbol
    for s, ebits, extra in syms:
        code, ln = cl_enc[s]
        bw.write_code(code, ln)
        if ebits:
            bw.write(extra, ebits)


def _tokenize(flat, w, total, cache_bits, cache_size, use_backrefs):
    tokens = []   # ("lit", px) | ("cache", idx) | ("ref", length, dist)
    cache = [0] * cache_size
    pos = 0
    while pos < total:
        if use_backrefs and pos > 0:
            # greedy run against distance 1, then distance w
            best_len, best_dist = 0, 0
            for dist in (1, w):
                if dist > pos:
                    continue
                ln = 0
                while (pos + ln < total and ln < 4096
                       and flat[pos + ln] == flat[pos + ln - dist]):
                    ln += 1
                if ln > best_len:
                    best_len, best_dist = ln, dist
            if best_len >= 3:
                tokens.append(("ref", best_len, best_dist))
                for k in range(best_len):
                    px = int(flat[pos + k])
                    if cache_size:
                        cache[(_HASH_MUL * px & 0xFFFFFFFF)
                              >> (32 - cache_bits)] = px
                pos += best_len
                continue
        px = int(flat[pos])
        if cache_size:
            idx = (_HASH_MUL * px & 0xFFFFFFFF) >> (32 - cache_bits)
            if cache[idx] == px and pos > 0:
                tokens.append(("cache", idx))
                pos += 1
                continue
            cache[idx] = px
        tokens.append(("lit", px))
        pos += 1
    return tokens


def _dist_to_code(dist: int, w: int) -> int:
    yoff, xoff = divmod(dist, w)
    code = _PAIR_TO_CODE.get((xoff, yoff))
    if code is None and xoff > 8:
        code = _PAIR_TO_CODE.get((xoff - w, yoff + 1))
    return code if code is not None else dist + 120


def _emit_tokens(bw: _BitWriter, tokens, cache_size: int,
                 width: int) -> None:
    gfreq: dict[int, int] = {}
    rfreq: dict[int, int] = {}
    bfreq: dict[int, int] = {}
    afreq: dict[int, int] = {}
    dfreq: dict[int, int] = {}
    pre = []      # resolved symbols per token for the second pass
    for t in tokens:
        if t[0] == "lit":
            a, r, g, b = _split(t[1])
            gfreq[g] = gfreq.get(g, 0) + 1
            rfreq[r] = rfreq.get(r, 0) + 1
            bfreq[b] = bfreq.get(b, 0) + 1
            afreq[a] = afreq.get(a, 0) + 1
            pre.append(("lit", g, r, b, a))
        elif t[0] == "cache":
            s = _GREEN_BASE + t[1]
            gfreq[s] = gfreq.get(s, 0) + 1
            pre.append(("sym", s))
        else:
            _, length, dist = t
            lp, le, lx = _prefix_encode(length)
            dp, de, dx = _prefix_encode(_dist_to_code(dist, width))
            gfreq[256 + lp] = gfreq.get(256 + lp, 0) + 1
            dfreq[dp] = dfreq.get(dp, 0) + 1
            pre.append(("ref", lp, le, lx, dp, de, dx))
    # every alphabet needs at least one symbol for a valid code
    for fr, default in ((gfreq, 0), (rfreq, 0), (bfreq, 0), (afreq, 255),
                        (dfreq, 0)):
        if not fr:
            fr[default] = 1
    glen = _huffman_lengths(gfreq, _GREEN_BASE + cache_size)
    rlen = _huffman_lengths(rfreq, 256)
    blen = _huffman_lengths(bfreq, 256)
    alen = _huffman_lengths(afreq, 256)
    dlen = _huffman_lengths(dfreq, 40)
    genc, renc, benc, aenc, denc = (
        _encode_table(glen), _encode_table(rlen), _encode_table(blen),
        _encode_table(alen), _encode_table(dlen))
    for lengths in (glen, rlen, blen, alen, dlen):
        _write_code(bw, lengths)
    for p in pre:
        if p[0] == "lit":
            _, g, r, b, a = p
            bw.write_code(*genc[g])
            bw.write_code(*renc[r])
            bw.write_code(*benc[b])
            bw.write_code(*aenc[a])
        elif p[0] == "sym":
            bw.write_code(*genc[p[1]])
        else:
            _, lp, le, lx, dp, de, dx = p
            bw.write_code(*genc[256 + lp])
            if le:
                bw.write(lx, le)
            bw.write_code(*denc[dp])
            if de:
                bw.write(dx, de)


def _emit_subimage(bw: _BitWriter, img: np.ndarray) -> None:
    """Sub-images (palette here) carry a cache bit but NO meta bit."""
    bw.write(0, 1)    # no color cache
    tokens = _tokenize(img.reshape(-1), img.shape[1], img.size, 0, 0, False)
    _emit_tokens(bw, tokens, 0, img.shape[1])


def _forward_predictor(argb: np.ndarray, mode: int, bits: int) -> np.ndarray:
    """Residual grid for a uniform-mode predictor transform. The
    predictor sees ORIGINAL neighbors (reconstruction is exact, so the
    decoder's already-reconstructed neighbors equal them); the border
    rules mirror _inv_predictor exactly."""
    h, w = argb.shape
    res = np.zeros_like(argb)
    for y in range(h):
        for x in range(w):
            if x == 0 and y == 0:
                pred = 0xFF000000
            elif y == 0:
                pred = int(argb[0, x - 1])
            elif x == 0:
                pred = int(argb[y - 1, 0])
            else:
                L = int(argb[y, x - 1])
                T = int(argb[y - 1, x])
                TL = int(argb[y - 1, x - 1])
                TR = (int(argb[y - 1, x + 1]) if x + 1 < w
                      else int(argb[y, 0]))
                pred = _predict(mode, L, T, TL, TR)
            res[y, x] = _sub_px(int(argb[y, x]), pred)
    return res


def _forward_color_transform(argb: np.ndarray,
                             elem: tuple[int, int, int]) -> np.ndarray:
    """Residuals for a uniform color-transform element
    (green_to_red, green_to_blue, red_to_blue). The blue delta uses
    the ORIGINAL red — the decoder's new_red reconstructs to it."""
    g2r, g2b, r2b = elem
    h, w = argb.shape
    out = np.zeros_like(argb)
    for y in range(h):
        for x in range(w):
            a, r, g, b = _split(int(argb[y, x]))
            re = (r - _ct_delta(g2r, g)) & 0xFF
            be = (b - _ct_delta(g2b, g) - _ct_delta(r2b, r)) & 0xFF
            out[y, x] = _join(a, re, g, be)
    return out


def encode_webp(arr: np.ndarray, use_palette: bool | None = None,
                cache_bits: int = 0, subtract_green: bool = False,
                use_backrefs: bool = True,
                predictor_mode: int | None = None,
                predictor_bits: int = 4,
                color_elem: tuple[int, int, int] | None = None) -> bytes:
    """uint8 (h, w) gray / (h, w, 3) RGB / (h, w, 4) RGBA → lossless
    WebP bytes. ``use_palette=None`` auto-enables color indexing
    (with ≤16-color packing) when the image has ≤256 distinct colors
    and it is not disabled; ``cache_bits`` > 0 adds a color cache;
    ``subtract_green`` applies that transform; ``predictor_mode``
    emits a uniform-tile PREDICTOR transform (modes 0-13);
    ``color_elem`` a uniform COLOR transform; ``use_backrefs``
    emits distance-1 / distance-width run references through the real
    distance map. Every path decodes back byte-exactly."""
    argb = _to_argb(arr)
    h, w = argb.shape
    if not (1 <= w <= 1 << 14 and 1 <= h <= 1 << 14):
        raise ValueError("VP8L dimensions out of range")
    bw = _BitWriter()
    bw.write(w - 1, 14)
    bw.write(h - 1, 14)
    bw.write(0, 1)    # alpha hint (informational)
    bw.write(0, 3)    # version

    colors = np.unique(argb.reshape(-1))
    any_transform = (subtract_green or predictor_mode is not None
                     or color_elem is not None)
    if use_palette is None:
        use_palette = len(colors) <= 256 and not any_transform
    if use_palette and len(colors) > 256:
        raise ValueError("palette encode needs ≤256 distinct colors")
    if use_palette and any_transform:
        raise ValueError("palette + other transforms outside this subset")

    if subtract_green:
        bw.write(1, 1)
        bw.write(2, 2)    # SUBTRACT_GREEN
        g = (argb >> 8) & 0xFF
        red = (((argb >> 16) & 0xFF) - g) & 0xFF
        blue = ((argb & 0xFF) - g) & 0xFF
        argb = (argb & np.uint32(0xFF00FF00)) | (red << 16) | blue

    if color_elem is not None:
        bw.write(1, 1)
        bw.write(1, 2)    # COLOR
        bw.write(predictor_bits - 2, 3)
        bb = predictor_bits
        mh, mw = -(-h // (1 << bb)), -(-w // (1 << bb))
        g2r, g2b, r2b = color_elem
        elem = (np.uint32(0xFF000000) | (r2b << 16) | (g2b << 8) | g2r)
        _emit_subimage(bw, np.full((mh, mw), elem, np.uint32))
        argb = _forward_color_transform(argb, color_elem)

    if predictor_mode is not None:
        if not 0 <= predictor_mode <= 13:
            raise ValueError("predictor mode must be 0-13")
        bw.write(1, 1)
        bw.write(0, 2)    # PREDICTOR
        bw.write(predictor_bits - 2, 3)
        bb = predictor_bits
        mh, mw = -(-h // (1 << bb)), -(-w // (1 << bb))
        sub = np.full((mh, mw),
                      np.uint32(0xFF000000) | (predictor_mode << 8),
                      np.uint32)
        _emit_subimage(bw, sub)
        argb = _forward_predictor(argb, predictor_mode, bb)

    if use_palette:
        bw.write(1, 1)
        bw.write(3, 2)    # COLOR_INDEXING
        n = len(colors)
        bw.write(n - 1, 8)
        lut = {int(c): i for i, c in enumerate(colors)}
        # palette travels delta-coded as a 1×n sub-image
        deltas = np.zeros((1, n), np.uint32)
        prev = 0
        for i, c in enumerate(colors):
            c = int(c)
            deltas[0, i] = _sub_px(c, prev)
            prev = c
        _emit_subimage(bw, deltas)
        idx = np.vectorize(lut.get, otypes=[np.uint32])(argb)
        wb = _palette_width_bits(n)
        if wb:
            bpp = 8 >> wb
            per = 1 << wb
            pw = -(-w // per)
            packed = np.zeros((h, pw), np.uint32)
            for k in range(per):
                cols = idx[:, k::per]
                packed[:, :cols.shape[1]] |= cols << (k * bpp)
            argb = np.uint32(0xFF000000) | (packed << 8)
        else:
            argb = np.uint32(0xFF000000) | (idx << 8)
        h, w = argb.shape

    bw.write(0, 1)    # end of transforms
    if cache_bits:
        bw.write(1, 1)
        bw.write(cache_bits, 4)
    else:
        bw.write(0, 1)
    bw.write(0, 1)    # no meta prefix codes (top level)
    cache_size = (1 << cache_bits) if cache_bits else 0
    tokens = _tokenize(argb.reshape(-1), w, argb.size, cache_bits,
                       cache_size, use_backrefs)
    _emit_tokens(bw, tokens, cache_size, w)

    payload = b"\x2f" + bw.flush()
    chunk = b"VP8L" + struct.pack("<I", len(payload)) + payload
    if len(payload) % 2:
        chunk += b"\x00"
    riff = b"WEBP" + chunk
    return b"RIFF" + struct.pack("<I", len(riff)) + riff


def _sub_px(a: int, b: int) -> int:
    """Per-channel mod-256 difference of two ARGB words."""
    out = 0
    for shift in (24, 16, 8, 0):
        out |= (((a >> shift) - (b >> shift)) & 0xFF) << shift
    return out
