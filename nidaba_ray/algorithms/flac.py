"""FLAC audio codec — from-scratch, public-spec only (RFC 9639 /
xiph.org format spec; the same build-from-spec approach as
:mod:`nidaba_ray.algorithms.png`). No external audio libraries.

FLAC is the lossless compressed audio format actually found on the
web, complementing the uncompressed WAV/AIFF containers.

Decoder coverage (everything a real encoder emits for integer PCM):

* STREAMINFO as the first and only such block, then skipped metadata
  blocks (padding, vorbis comment, …)
* fixed and variable blocking strategies, all block-size/sample-rate/
  sample-size header codes, UTF-8-coded frame/sample numbers
* subframes: CONSTANT, VERBATIM, FIXED (orders 0-4), LPC (any order)
* Rice residuals: both coding methods (4- and 5-bit parameters),
  all partition orders, escape-coded raw partitions
* wasted-bits shifts
* stereo decorrelation: left/side, right/side, mid/side (the side
  channel's +1 bit depth included)
* integrity: header CRC-8, frame CRC-16, and the STREAMINFO MD5 of
  the decoded PCM (verified when present — md5-only repo invariant)

The encoder exists so tests are self-contained lossless roundtrips
(CONSTANT / FIXED-with-Rice / VERBATIM fallback subframes, fixed
4096-sample blocks, independent channels); hand-built streams pin the
decoder paths the encoder doesn't emit (LPC, stereo decorrelation,
escape partitions, wasted bits).

Malformed/truncated payloads raise ``ValueError`` — the actor stages'
per-row quarantine contract.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

__all__ = ["encode_flac", "decode_flac", "decode_flac_pcm", "is_flac"]

_MAGIC = b"fLaC"

_BLOCKSIZES = {1: 192, 2: 576, 3: 1152, 4: 2304, 5: 4608,
               8: 256, 9: 512, 10: 1024, 11: 2048, 12: 4096,
               13: 8192, 14: 16384, 15: 32768}
_RATES = {1: 88200, 2: 176400, 3: 192000, 4: 8000, 5: 16000,
          6: 22050, 7: 24000, 8: 32000, 9: 44100, 10: 48000, 11: 96000}
_SIZES = {1: 8, 2: 12, 4: 16, 5: 20, 6: 24, 7: 32}


def is_flac(payload: bytes) -> bool:
    return payload[:4] == _MAGIC


# ---------------------------------------------------------------------------
# CRCs (FLAC: CRC-8 poly 0x07 init 0; CRC-16 poly 0x8005 init 0)
# ---------------------------------------------------------------------------

def _crc_table(poly: int, width: int) -> np.ndarray:
    top = 1 << (width - 1)
    mask = (1 << width) - 1
    tbl = np.zeros(256, np.uint32)
    for b in range(256):
        r = b << (width - 8)
        for _ in range(8):
            r = ((r << 1) ^ poly) if r & top else (r << 1)
        tbl[b] = r & mask
    return tbl


_CRC8 = _crc_table(0x07, 8)
_CRC16 = _crc_table(0x8005, 16)


def _crc8(data: bytes) -> int:
    r = 0
    for b in data:
        r = int(_CRC8[r ^ b])
    return r


def _crc16(data: bytes) -> int:
    r = 0
    for b in data:
        r = int(_CRC16[((r >> 8) ^ b) & 0xFF]) ^ ((r << 8) & 0xFFFF)
    return r


# ---------------------------------------------------------------------------
# Bit IO (MSB-first)
# ---------------------------------------------------------------------------

class _BitReader:
    def __init__(self, data: bytes, start_byte: int = 0) -> None:
        self.data = data
        self.bits = np.unpackbits(np.frombuffer(data, np.uint8))
        self.ones = np.flatnonzero(self.bits)
        self.pos = start_byte * 8

    def read(self, n: int) -> int:
        if n == 0:
            return 0
        end = self.pos + n
        if end > len(self.bits):
            raise ValueError("truncated FLAC stream")
        chunk = self.bits[self.pos:end]
        self.pos = end
        v = 0
        for bit in chunk.tolist():
            v = (v << 1) | bit
        return v

    def read_signed(self, n: int) -> int:
        v = self.read(n)
        return v - (1 << n) if v >= (1 << (n - 1)) else v

    def read_unary(self) -> int:
        """Count 0-bits up to and consuming the terminating 1-bit."""
        i = np.searchsorted(self.ones, self.pos)
        if i >= len(self.ones):
            raise ValueError("truncated unary code")
        j = int(self.ones[i])
        q = j - self.pos
        self.pos = j + 1
        return q

    def align(self) -> None:
        self.pos = (self.pos + 7) & ~7

    def byte_pos(self) -> int:
        return self.pos >> 3

    def at_end(self) -> bool:
        # trailing zero-padding below one byte never starts a frame
        return self.pos >= len(self.bits) - 7


class _BitWriter:
    def __init__(self) -> None:
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, n: int) -> None:
        if n:
            self.acc = (self.acc << n) | (value & ((1 << n) - 1))
            self.nbits += n
            while self.nbits >= 8:
                self.nbits -= 8
                self.out.append((self.acc >> self.nbits) & 0xFF)
            self.acc &= (1 << self.nbits) - 1

    def write_unary(self, q: int) -> None:
        while q >= 32:
            self.write(0, 32)
            q -= 32
        self.write(1, q + 1)

    def align(self) -> None:
        if self.nbits:
            self.write(0, 8 - self.nbits)

    def bytes(self) -> bytes:
        if self.nbits:
            raise ValueError("unaligned bit writer")
        return bytes(self.out)


# ---------------------------------------------------------------------------
# UTF-8-style coded numbers (frame/sample index)
# ---------------------------------------------------------------------------

def _utf8_encode(v: int) -> bytes:
    if v < 0x80:
        return bytes([v])
    # n_extra continuation bytes carry 6 bits each; the lead byte
    # carries 6 - n_extra payload bits → capacity 6 + 5 * n_extra
    for n_extra in range(1, 7):
        if v < (1 << (6 + 5 * n_extra)):
            break
    shift = 6 * n_extra
    lead_mask = (0xFF00 >> (n_extra + 1)) & 0xFF
    out = [lead_mask | (v >> shift)]
    for k in range(n_extra - 1, -1, -1):
        out.append(0x80 | ((v >> (6 * k)) & 0x3F))
    return bytes(out)


def _utf8_decode(r: _BitReader) -> int:
    b0 = r.read(8)
    if b0 < 0x80:
        return b0
    n_extra = 0
    probe = b0
    while probe & 0x40:
        n_extra += 1
        probe <<= 1
    if not (1 <= n_extra <= 6):
        raise ValueError("bad UTF-8 coded number")
    v = b0 & (0x3F >> n_extra)
    for _ in range(n_extra):
        b = r.read(8)
        if b & 0xC0 != 0x80:
            raise ValueError("bad UTF-8 continuation byte")
        v = (v << 6) | (b & 0x3F)
    return v


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------

def _read_residual(r: _BitReader, blocksize: int, order: int) -> np.ndarray:
    method = r.read(2)
    if method > 1:
        raise ValueError("reserved residual coding method")
    pbits, escape = (4, 15) if method == 0 else (5, 31)
    po = r.read(4)
    nparts = 1 << po
    if blocksize % nparts:
        raise ValueError("partition order does not divide block size")
    out = np.empty(blocksize - order, np.int64)
    w = 0
    for p in range(nparts):
        n = (blocksize >> po) - (order if p == 0 else 0)
        if n < 0:
            raise ValueError("negative partition sample count")
        param = r.read(pbits)
        if param == escape:
            raw = r.read(5)
            for i in range(n):
                out[w + i] = r.read_signed(raw) if raw else 0
        else:
            for i in range(n):
                q = r.read_unary()
                folded = (q << param) | r.read(param)
                out[w + i] = (folded >> 1) ^ -(folded & 1)
        w += n
    return out


def _write_residual(w: _BitWriter, res: np.ndarray, param: int) -> None:
    """Rice method 0, partition order 0, one parameter."""
    w.write(0, 2)
    w.write(0, 4)
    w.write(param, 4)
    for v in res.tolist():
        folded = (abs(v) << 1) - (1 if v < 0 else 0)  # zigzag
        w.write_unary(folded >> param)
        w.write(folded, param)


def _rice_cost(res: np.ndarray, param: int) -> int:
    folded = np.abs(res) * 2 - (res < 0)
    return int(np.sum(folded >> param)) + len(res) * (1 + param)


def _restore_fixed(warmup: np.ndarray, residual: np.ndarray,
                   order: int) -> np.ndarray:
    """k-fold cumulative sum: FIXED order-k residual is the k-th
    difference, so restoration is k integrations seeded by the
    warmup samples — vectorized, exact in int64."""
    if order == 0:
        return residual.copy()
    # successive differences of the warmup give the integration seeds
    seeds = []
    w = warmup.astype(np.int64)
    for _ in range(order):
        seeds.append(w[-1])
        w = np.diff(w)
    cur = residual.astype(np.int64)
    for k in range(order - 1, -1, -1):
        cur = np.cumsum(np.concatenate(([seeds[k]], cur)))[1:]
    return np.concatenate((warmup.astype(np.int64), cur))


# ---------------------------------------------------------------------------
# Subframes
# ---------------------------------------------------------------------------

def _read_subframe(r: _BitReader, blocksize: int, bps: int) -> np.ndarray:
    if r.read(1):
        raise ValueError("subframe padding bit set")
    sftype = r.read(6)
    wasted = 0
    if r.read(1):
        wasted = r.read_unary() + 1
    eff = bps - wasted
    if sftype == 0:  # CONSTANT
        out = np.full(blocksize, r.read_signed(eff), np.int64)
    elif sftype == 1:  # VERBATIM
        out = np.array([r.read_signed(eff) for _ in range(blocksize)],
                       np.int64)
    elif 8 <= sftype <= 12:  # FIXED
        order = sftype - 8
        warmup = np.array([r.read_signed(eff) for _ in range(order)],
                          np.int64)
        res = _read_residual(r, blocksize, order)
        out = _restore_fixed(warmup, res, order)
    elif sftype >= 32:  # LPC
        order = (sftype & 31) + 1
        warmup = [r.read_signed(eff) for _ in range(order)]
        prec = r.read(4) + 1
        if prec == 16:
            raise ValueError("invalid LPC precision code")
        shift = r.read_signed(5)
        if shift < 0:
            raise ValueError("negative LPC shift")
        coefs = [r.read_signed(prec) for _ in range(order)]
        res = _read_residual(r, blocksize, order)
        out = np.empty(blocksize, np.int64)
        out[:order] = warmup
        for i in range(order, blocksize):
            pred = 0
            for j in range(order):
                pred += coefs[j] * int(out[i - 1 - j])
            out[i] = (pred >> shift) + int(res[i - order])
    else:
        raise ValueError(f"reserved subframe type {sftype}")
    return out << wasted if wasted else out


def _write_subframe(w: _BitWriter, samples: np.ndarray, bps: int) -> None:
    s = samples.astype(np.int64)
    n = len(s)
    if np.all(s == s[0]):
        w.write(0, 1)
        w.write(0, 6)
        w.write(0, 1)
        w.write(int(s[0]), bps)
        return
    # fixed predictors 0-2; pick by absolute residual mass (lowest
    # order wins ties), then the best Rice parameter; fall back to
    # VERBATIM if the coded form loses
    best_order, best_res, best_mass = 0, s, int(np.sum(np.abs(s)))
    res = s
    for order in (1, 2):
        res = np.diff(res)
        if len(res) == 0:
            break
        mass = int(np.sum(np.abs(res)))
        if mass < best_mass:
            best_order, best_res, best_mass = order, res, mass
    best_param, best_cost = 0, None
    for param in range(15):
        c = _rice_cost(best_res, param)
        if best_cost is None or c < best_cost:
            best_param, best_cost = param, c
    fixed_bits = best_order * bps + 2 + 4 + 4 + best_cost
    verbatim_bits = n * bps
    if fixed_bits < verbatim_bits:
        w.write(0, 1)
        w.write(8 + best_order, 6)
        w.write(0, 1)
        for v in s[:best_order].tolist():
            w.write(v, bps)
        _write_residual(w, best_res, best_param)
    else:
        w.write(0, 1)
        w.write(1, 6)
        w.write(0, 1)
        for v in s.tolist():
            w.write(v, bps)


# ---------------------------------------------------------------------------
# Encode
# ---------------------------------------------------------------------------

def encode_flac(samples: np.ndarray, rate: int = 16000,
                blocksize: int = 4096) -> bytes:
    """Serialize integer PCM to a FLAC stream (lossless roundtrip).

    ``samples`` is (frames,) or (frames, channels) of int16 (bps 16)
    or int8 (bps 8); channels are encoded independently with
    CONSTANT / FIXED(0-2)+Rice / VERBATIM subframes, fixed-size
    blocks, STREAMINFO MD5 of the interleaved little-endian PCM."""
    s = np.asarray(samples)
    if s.ndim == 1:
        s = s[:, None]
    if s.ndim != 2:
        raise ValueError("samples must be (frames,) or (frames, channels)")
    if s.dtype == np.int16:
        bps = 16
    elif s.dtype == np.int8:
        bps = 8
    else:
        raise ValueError(f"unsupported sample dtype {s.dtype}")
    n, n_ch = s.shape
    if not 1 <= n_ch <= 8:
        raise ValueError("1-8 channels")
    if n == 0:
        raise ValueError("empty sample array")

    md5 = hashlib.md5(
        s.astype(s.dtype.newbyteorder("<")).tobytes(order="C")
    ).digest()

    # STREAMINFO: bs(16+16) fs(24+24) rate(20) ch-1(3) bps-1(5)
    # total(36) md5(128)
    si = _BitWriter()
    si.write(blocksize, 16)
    si.write(blocksize, 16)
    si.write(0, 24)
    si.write(0, 24)
    si.write(rate, 20)
    si.write(n_ch - 1, 3)
    si.write(bps - 1, 5)
    si.write(n, 36)
    body = si.bytes() + md5
    out = bytearray(_MAGIC)
    out += bytes([0x80]) + struct.pack(">I", len(body))[1:] + body

    for fi, start in enumerate(range(0, n, blocksize)):
        blk = s[start:start + blocksize]
        bs = len(blk)
        h = _BitWriter()
        h.write(0x3FFE, 14)
        h.write(0, 1)       # reserved
        h.write(0, 1)       # fixed blocking strategy
        h.write(7, 4)       # blocksize: 16-bit value-1 follows
        h.write(0, 4)       # sample rate: from STREAMINFO
        h.write(n_ch - 1, 4)  # independent channels
        h.write({8: 1, 16: 4}[bps], 3)
        h.write(0, 1)       # reserved
        header = h.bytes() + _utf8_encode(fi) + struct.pack(">H", bs - 1)
        header += bytes([_crc8(header)])
        w = _BitWriter()
        for c in range(n_ch):
            _write_subframe(w, blk[:, c], bps)
        w.align()
        frame = header + w.bytes()
        out += frame + struct.pack(">H", _crc16(frame))
    return bytes(out)


# ---------------------------------------------------------------------------
# Decode
# ---------------------------------------------------------------------------

def decode_flac_pcm(payload: bytes) -> tuple[np.ndarray, int, int]:
    """FLAC bytes → ((frames, channels) int64 PCM, rate, bps).
    ValueError on malformed input, CRC mismatch, or MD5 mismatch."""
    if not is_flac(payload):
        raise ValueError("not a FLAC payload")
    pos = 4
    while True:
        if pos + 4 > len(payload):
            raise ValueError("truncated metadata block header")
        last = payload[pos] & 0x80
        btype = payload[pos] & 0x7F
        (size,) = struct.unpack(">I", b"\x00" + payload[pos + 1:pos + 4])
        if pos + 4 + size > len(payload):
            raise ValueError("truncated metadata block")
        # STREAMINFO is the first metadata block and only that one, as
        # probe_media reads it
        if (btype == 0) != (pos == 4):
            raise ValueError("first metadata block is not STREAMINFO"
                             if pos == 4 else "second STREAMINFO block")
        if btype == 0 and size != 34:
            raise ValueError("bad STREAMINFO size")
        if btype == 127:
            raise ValueError("invalid metadata block type")
        pos += 4 + size
        if last:
            break
    streaminfo = payload[8:42]
    sr_default = (struct.unpack(">I", streaminfo[10:14])[0] >> 12) & 0xFFFFF
    n_ch_si = ((streaminfo[12] >> 1) & 0x7) + 1
    bps_si = (((streaminfo[12] & 0x1) << 4) | (streaminfo[13] >> 4)) + 1
    total = ((streaminfo[13] & 0x0F) << 32) | struct.unpack(
        ">I", streaminfo[14:18])[0]
    md5_expect = streaminfo[18:34]

    r = _BitReader(payload, pos)
    chans: list[list[np.ndarray]] = []
    rate = sr_default
    while not r.at_end():
        frame_start = r.byte_pos()
        sync = r.read(14)
        if sync != 0x3FFE:
            raise ValueError("lost frame sync")
        if r.read(1):
            raise ValueError("reserved frame header bit set")
        r.read(1)  # blocking strategy (number semantics only)
        bs_code = r.read(4)
        sr_code = r.read(4)
        ch_code = r.read(4)
        ss_code = r.read(3)
        if r.read(1):
            raise ValueError("reserved frame header bit set")
        _num = _utf8_decode(r)
        if bs_code == 0:
            raise ValueError("reserved block size code")
        elif bs_code == 6:
            bs = r.read(8) + 1
        elif bs_code == 7:
            bs = r.read(16) + 1
        else:
            bs = _BLOCKSIZES[bs_code]
        if sr_code == 0:
            rate = sr_default
        elif sr_code in _RATES:
            rate = _RATES[sr_code]
        elif sr_code == 12:
            rate = r.read(8) * 1000
        elif sr_code == 13:
            rate = r.read(16)
        elif sr_code == 14:
            rate = r.read(16) * 10
        else:
            raise ValueError("invalid sample rate code")
        if ss_code == 0:
            bps = bps_si
        elif ss_code in _SIZES:
            bps = _SIZES[ss_code]
        else:
            raise ValueError("reserved sample size code")
        header_end = r.byte_pos()
        crc8 = r.read(8)
        if _crc8(payload[frame_start:header_end]) != crc8:
            raise ValueError("frame header CRC-8 mismatch")

        if ch_code < 8:
            n_ch = ch_code + 1
            sub = [_read_subframe(r, bs, bps) for _ in range(n_ch)]
        elif ch_code == 8:  # left/side
            left = _read_subframe(r, bs, bps)
            side = _read_subframe(r, bs, bps + 1)
            sub = [left, left - side]
        elif ch_code == 9:  # right/side
            side = _read_subframe(r, bs, bps + 1)
            right = _read_subframe(r, bs, bps)
            sub = [right + side, right]
        elif ch_code == 10:  # mid/side
            mid = _read_subframe(r, bs, bps)
            side = _read_subframe(r, bs, bps + 1)
            mid = (mid << 1) | (side & 1)
            sub = [(mid + side) >> 1, (mid - side) >> 1]
        else:
            raise ValueError("reserved channel assignment")
        r.align()
        crc_pos = r.byte_pos()
        crc16 = r.read(16)
        if _crc16(payload[frame_start:crc_pos]) != crc16:
            raise ValueError("frame CRC-16 mismatch")
        if chans and len(chans[-1]) != len(sub):
            raise ValueError("channel count changed mid-stream")
        chans.append(sub)

    if not chans:
        raise ValueError("no frames")
    n_ch = len(chans[0])
    pcm = np.stack(
        [np.concatenate([f[c] for f in chans]) for c in range(n_ch)],
        axis=1,
    )
    if total and len(pcm) < total:
        raise ValueError("stream shorter than STREAMINFO total")
    if total:
        pcm = pcm[:total]
    if n_ch != n_ch_si:
        raise ValueError("channel count disagrees with STREAMINFO")
    if not rate:
        raise ValueError("zero sample rate")
    if md5_expect != b"\x00" * 16 and bps_si % 8 == 0:
        dt = {8: np.int8, 16: np.int16, 24: None, 32: np.int32}[bps_si]
        if dt is not None:
            got = hashlib.md5(
                pcm.astype(np.dtype(dt).newbyteorder("<")).tobytes(order="C")
            ).digest()
            if got != md5_expect:
                raise ValueError("decoded PCM MD5 mismatch")
    return pcm, rate, bps_si


def decode_flac(payload: bytes) -> tuple[np.ndarray, int]:
    """FLAC bytes → ((frames, channels) float64 in [-1, 1], rate) —
    the :func:`nidaba_ray.algorithms.wav.decode_wav` surface, for the
    multimodal dispatcher."""
    pcm, rate, bps = decode_flac_pcm(payload)
    return pcm.astype(np.float64) / float(1 << (bps - 1)), rate
