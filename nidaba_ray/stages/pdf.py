"""PDF text extraction — the heavy-recognizer analog (ocr.kraken,
nidaba/plugins/kraken.py, UNVERIFIED per SURVEY.md §0).

A real (public-spec) PDF *subset* parser, pure stdlib:

  * xref-free scan, linear in the file: one pattern pass finds every
    ``N G obj``, one every ``stream`` keyword (the dict closing there,
    the body up to the next ``endstream``) for the stream table all
    later steps read (damaged xrefs don't matter, as in real extractors);
  * stream ``/Filter`` chains decode in array order — FlateDecode
    (zlib), LZWDecode (from-scratch TIFF-variant LZW incl. the
    /EarlyChange parm), ASCIIHexDecode, ASCII85Decode and
    RunLengthDecode, so ``[/ASCII85Decode /FlateDecode]``-style
    mail-safe encodings read transparently; streams declaring image
    codecs (DCTDecode, CCITT, JBIG2, JPX) or a /Predictor are skipped
    as non-text rather than parsed as binary soup;
  * content streams are tokenized per the PDF syntax by ONE compiled
    pattern, iterated lazily with ``finditer`` and dispatched on
    ``m.lastindex``: each match is a skip-run (whitespace, comments),
    then one token — a fused ``/Name size Tf``, ``<hex> Tj`` or
    ``(literal) Tj`` operation, a literal string without nesting
    (escapes \\n \\t … \\ooo octal and line continuations decoded by
    one substitution), a hex string, an array bracket, a name, a
    number or an operator. Nested or unterminated literal strings,
    dicts and inline images are consumed outside the pattern, which
    restarts after them. Three details keep the fused alternatives
    equal to token-by-token reading: the skip-run is atomic and names
    and numbers are possessive (``/F1 Tf`` never reads as ``/F`` and
    ``1``, and no alternative backs into a comment's text); a ``\\Z``
    alternative matches after a trailing skip-run, so ``finditer``
    never steps past a failed position into an unterminated comment;
    and a fused ``Tf``/``Tj`` must end at a delimiter (``Tjx`` is an
    operator of its own);
  * text operators: BT/ET blocks, ``Tj``, ``TJ`` (array shows —
    kerning numbers concatenate), ``'`` and ``"`` (next-line shows),
    ``Td``/``TD`` (newline when ty≠0), ``T*``, ``Tm`` (newline), so
    line structure follows the positioning operators;
  * non-Latin text via the two public mechanisms (spec §7.9.2.2 /
    §9.10.3): BOM-sniffed UTF-16BE literal/hex strings, and ToUnicode
    CMaps — ``bfchar`` pairs plus both ``bfrange`` forms (incrementing
    and array destinations). CMap streams are recognized by their
    ``begincmap``/``beginbf…`` keywords and merged into ONE
    document-level code→unicode map applied to 2-byte show-string
    codes;
  * simple-font ``/Differences`` encoding arrays (spec §9.6.6.3):
    byte codes remap through an Adobe-Glyph-List subset plus the
    algorithmic ``uniXXXX``/``uXXXX`` name forms, over an ASCII base;
  * encrypted files (standard security handler, empty user password:
    RC4 /V 1|2 /R 2|3, RC4 or AESV2 crypt filters under /V 4, AESV3
    under /V 5): the file key is derived per spec §7.6.2-3 and the
    table's stream bodies are replaced by their plaintext;
  * per-font encoding switching: ``/Font`` resource dicts are
    resolved through indirect references (xref-free object scan), and
    the ``Tf`` operator switches the active (ToUnicode CMap,
    Differences) pair — fonts with overlapping code spaces decode
    correctly; unresolvable structures fall back to the merged
    document-level maps.

Block contract: one block per BT…ET text object; lines within a block
join with a single space. The non-stream objects packed in ``/Type
/ObjStm`` object streams join the object index, so font dicts /
``/Differences`` tables that modern writers compress there resolve
per-font (content streams and ToUnicode CMaps cannot live in an
ObjStm, so a member is never read as a stream); ``/Type /XRef``
cross-reference streams are recognized and skipped as structure. Out
of scope (documented): incrementing bfranges that cross a surrogate
boundary (bfchar and array-form destinations decode fine in any
plane, incl. surrogate pairs), and non-empty user passwords.
Inline images (``BI … ID <binary> EI``, spec §8.9.7) are skipped as
opaque spans, never tokenized into text. A production build swaps
this module for a full parser behind ``extract_pdf_blocks``.
"""

from __future__ import annotations

import binascii
import hashlib
import re
import struct
import zlib
from bisect import bisect_left

__all__ = ["is_pdf", "extract_pdf_blocks", "PDF_MAGIC"]

PDF_MAGIC = b"%PDF-"

# (?!\d) pins the capture to the FULL integer — without it the
# indirect-ref lookahead backtracks to a digit prefix ("/Length 15 0 R"
# would capture b"1") and mis-slice the stream body
_LENGTH_RE = re.compile(rb"/Length\s+(\d+)(?!\d)(?!\s+\d+\s+R)")
_WS = b" \t\r\n\f\x00"
_WS_BYTES = frozenset(_WS)

# ---------------------------------------------------------------------------
# Stream filters (spec §7.4): the lossless text-bearing filters, applied
# as a CHAIN in /Filter array order — `[/ASCII85Decode /FlateDecode]`
# means "85-decode, then inflate". Image filters (DCTDecode, JPXDecode,
# CCITTFaxDecode, JBIG2Decode) can't carry content text, so streams
# declaring one are skipped outright (per-stream isolation) instead of
# being parsed as binary soup. /DecodeParms support is /EarlyChange for
# LZW; a /Predictor other than 1 marks the stream undecodable for this
# subset (predictors live on xref/image streams, which we don't read).
_FILTER_RE = re.compile(rb"/Filter\s*(\[[^\]]*\]|/[A-Za-z0-9]+)")
_FILTER_NAME_RE = re.compile(rb"/([A-Za-z0-9]+)")
_EARLY_RE = re.compile(rb"/EarlyChange\s+(\d+)(?!\d)")
_PREDICTOR_RE = re.compile(rb"/Predictor\s+(\d+)(?!\d)")
_HEX_DIGITS = b"0123456789abcdefABCDEF"


def _ascii_hex_decode(data: bytes) -> bytes:
    """ASCIIHexDecode (§7.4.2): hex pairs, whitespace ignored, `>` is
    EOD, a dangling final digit reads as if followed by 0."""
    h = data.split(b">", 1)[0].translate(None, _WS)
    if h.translate(None, _HEX_DIGITS):
        raise ValueError("ASCIIHex: bad digit")
    return bytes.fromhex((h + b"0" * (len(h) % 2)).decode("ascii"))


def _ascii85_decode(data: bytes) -> bytes:
    """ASCII85Decode (§7.4.3): base-85 groups of 5 chars → 4 bytes,
    `z` = four zero bytes (only between groups), `~>` is EOD, partial
    final group pads with 'u' and drops the pad bytes."""
    if data.startswith(b"<~"):  # btoa framing, tolerated
        data = data[2:]
    out = bytearray()
    group: list[int] = []
    for b in data:
        if b == 0x7E:  # '~' — EOD marker
            break
        if b in _WS_BYTES:
            continue
        if b == 0x7A:  # 'z'
            if group:
                raise ValueError("ASCII85: z inside group")
            out += b"\x00\x00\x00\x00"
            continue
        if not 0x21 <= b <= 0x75:  # '!'..'u'
            raise ValueError("ASCII85: char out of range")
        group.append(b - 0x21)
        if len(group) == 5:
            n = 0
            for g in group:
                n = n * 85 + g
            if n > 0xFFFFFFFF:
                raise ValueError("ASCII85: group overflow")
            out += n.to_bytes(4, "big")
            group.clear()
    if group:
        if len(group) == 1:
            raise ValueError("ASCII85: lone final digit")
        k = len(group)
        n = 0
        for g in group + [84] * (5 - k):
            n = n * 85 + g
        out += n.to_bytes(4, "big")[: k - 1]
    return bytes(out)


def _runlength_decode(data: bytes) -> bytes:
    """RunLengthDecode (§7.4.5): length byte L<128 copies L+1 literal
    bytes, L>128 repeats the next byte 257−L times, L=128 is EOD."""
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        length = data[i]
        if length == 128:
            break
        if length < 128:
            chunk = data[i + 1 : i + 2 + length]
            if len(chunk) != length + 1:
                raise ValueError("RunLength: truncated literal run")
            out += chunk
            i += 2 + length
        else:
            if i + 1 >= n:
                raise ValueError("RunLength: truncated repeat run")
            out += data[i + 1 : i + 2] * (257 - length)
            i += 2
    return bytes(out)


# FlateDecode inflates under the payload cap: past it the stream raises
# ValueError and is skipped as undecodable, like a corrupt one
from nidaba_ray.algorithms.inflate import inflate_zlib

# LZWDecode (§7.4.4) is the TIFF-variant LZW shared with the TIFF
# codec — one implementation in algorithms/lzw.py serves both specs
# (the /EarlyChange parm maps straight onto its ``early`` argument).
from nidaba_ray.algorithms.lzw import lzw_decode as _lzw_decode


_FILTER_DECODERS = {
    b"FlateDecode": inflate_zlib,
    b"Fl": inflate_zlib,
    b"ASCIIHexDecode": _ascii_hex_decode,
    b"AHx": _ascii_hex_decode,
    b"ASCII85Decode": _ascii85_decode,
    b"A85": _ascii85_decode,
    b"RunLengthDecode": _runlength_decode,
    b"RL": _runlength_decode,
    b"LZWDecode": None,  # handled specially (EarlyChange parm)
    b"LZW": None,
}


def _stream_filter_chain(dict_src: bytes) -> list[bytes] | None:
    """The declared /Filter names in application order; [] when the
    stream is unfiltered, None when it declares a filter this subset
    cannot decode (image codecs, predictors, unknown names)."""
    m = _FILTER_RE.search(dict_src)
    if not m:
        return []
    names = _FILTER_NAME_RE.findall(m.group(1))
    if not names or any(n not in _FILTER_DECODERS for n in names):
        return None
    pm = _PREDICTOR_RE.search(dict_src)
    if pm and int(pm.group(1)) != 1:
        return None
    return names


def _apply_filter_chain(body: bytes, names: list[bytes],
                        dict_src: bytes) -> bytes:
    for name in names:
        if name in (b"LZWDecode", b"LZW"):
            em = _EARLY_RE.search(dict_src)
            early = int(em.group(1)) if em else 1
            body = _lzw_decode(body, early=1 if early else 0)
        else:
            body = _FILTER_DECODERS[name](body)
    return body

# Content-stream tokens (spec §7.2, §9.4): each _TOKEN_RE match is a
# skip-run, then one operation or token (the module docstring lists the
# alternatives and the three details that keep the fused ones exact)
_SKIP = rb"(?>(?:[ \t\r\n\f\x00]+|%[^\n]*+\n?)*)"
_DELIM = rb"(?=[\s()<>\[\]{}/%]|\Z)"
_NAME = rb"/[^\s()<>\[\]{}/%]*+"
_NUM = rb"(?>[-+]?(?:\d+\.?\d*|\.\d+))"
_LIT = rb"\(((?:[^()\\]++|\\.)*+)\)"  # no nesting; escapes kept raw
_HEXSTR = rb"<([0-9A-Fa-f\s]*+)>"
_TOKEN_RE = re.compile(
    _SKIP + rb"(?:"
    rb"((" + _NAME + rb")" + _SKIP + _NUM + _SKIP + rb"Tf" + _DELIM + rb")"
    rb"|(" + _HEXSTR + _SKIP + rb"Tj" + _DELIM + rb")"
    rb"|(" + _LIT + _SKIP + rb"Tj" + _DELIM + rb")"
    rb"|" + _LIT + rb"|(\()|(<<)|" + _HEXSTR + rb"|(\[)|(\])"
    rb"|(" + _NAME + rb")|(" + _NUM + rb")|([^\s()<>\[\]{}/%]++)"
    rb"|(.)|(\Z))", re.S)
# m.lastindex of each alternative (an outer group closes last)
(_T_TF, _T_HEX_TJ, _T_LIT_TJ, _T_LIT, _T_PAREN, _T_DICT, _T_HEX,
 _T_OPEN, _T_CLOSE, _T_NAME, _T_NUM, _T_OP) = (
    1, 3, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15)
_ESC_RE = re.compile(rb"\\(?:([0-7]{1,3})|(\r\n?|\n)|(.))", re.S)
# Inline images (spec §8.9.7): `ID` ends the parameter dict and is
# followed by exactly one whitespace byte, then raw binary until a
# whitespace-delimited `EI`. The spec itself notes the EI scan is
# heuristic (binary data could contain the sequence); real extractors
# do the same whitespace-delimited scan when /L is absent.
_INLINE_ID_RE = re.compile(rb"\bID[\0\t\n\f\r ]")
_INLINE_EI_RE = re.compile(rb"[\0\t\n\f\r ]EI(?=[\0\t\n\f\r ]|$)")
# fallback when no whitespace PRECEDES EI (some encoders butt the
# delimiter against the data) — still demand a delimiter after
_INLINE_EI_BARE_RE = re.compile(rb"EI(?=[\0\t\n\f\r ]|$)")
_HEX_RE = re.compile(rb"<([0-9A-Fa-f\s]*)>")
_ESC_SIMPLE = {ord("n"): b"\n", ord("r"): b"\r", ord("t"): b"\t",
               ord("b"): b"\b", ord("f"): b"\f"}


def is_pdf(payload: bytes) -> bool:
    return payload[: len(PDF_MAGIC)] == PDF_MAGIC


def _hex_bytes(h: bytes) -> bytes:
    """The digits of a ``<…>`` hex string (whitespace ignored) → bytes;
    an odd final digit reads as if followed by 0 (spec §7.3.4.3), which
    keeps extract_pdf_blocks TOTAL on corrupt input."""
    h = h.translate(None, b" \t\n\r\f\v")  # re's bytes `\s`
    if len(h) % 2:
        h += b"0"
    return binascii.unhexlify(h)


# ---------------------------------------------------------------------------
# The stream table: one _OBJGEN_RE and one _STREAM_KW_RE pass over the
# file; every later step reads the entries
# ---------------------------------------------------------------------------

# (?<!\d): only a digit run's head can match; with the search ended at
# the last `endobj`, no failing header walks the file
_OBJGEN_RE = re.compile(rb"(?<!\d)(\d+)\s+(\d+)\s+obj\b(.*?)\bendobj", re.S)
_STREAM_KW_RE = re.compile(rb">>\s*stream(?:\r\n|\n|\r)")
_UNSET = object()


class _Stream:
    """One ``<< dict >> stream … endstream`` entry as offsets into
    ``src`` (the payload, or its own plaintext once decrypted), never
    a copy: the body runs ``cap`` bytes from ``start`` to the next
    ``endstream``, less the EOL before it; ``size`` is the direct
    /Length (None when absent, indirect or past the end), which keeps
    a trailing EOL data byte (spec §7.3.8.1). ``obj`` indexes the
    enclosing object (None outside every object); ``top`` is False
    for a stream whose keyword lies inside an earlier entry's body."""

    __slots__ = ("dict_src", "obj", "top", "src", "start", "cap", "size",
                 "_body", "_cmap")

    def __init__(self, payload: bytes, dict_src: bytes, start: int,
                 cap: int, obj: int | None, top: bool):
        self.dict_src, self.obj, self.top = dict_src, obj, top
        self.src, self.start, self.cap = payload, start, cap
        self.size = None
        lm = _LENGTH_RE.search(dict_src)
        if lm and start + int(lm.group(1)) <= len(payload):
            self.size = int(lm.group(1))
        self._body = self._cmap = _UNSET

    def declared(self) -> bytes:
        """The body as /Length declares it, else up to ``endstream``."""
        n = self.cap if self.size is None else self.size
        return self.src[self.start : self.start + n]

    def body(self) -> bytes | None:
        """The decoded body, decoded on first use; None if undecodable."""
        if self._body is _UNSET:
            self._body = self._decode()
        return self._body

    def _decode(self) -> bytes | None:
        """Unfiltered bodies end at ``endstream``. A /Filter chain
        decodes in array order, over the declared slice FIRST, then up
        to ``endstream`` (tolerates the common malformation of an
        under-declared /Length — zlib and the EOD-marked filters ignore
        trailing bytes); a chain this subset can't decode skips the
        stream."""
        chain = _stream_filter_chain(self.dict_src)
        if chain is None:
            return None  # image codec / predictor / unknown — not text
        captured = self.src[self.start : self.start + self.cap]
        if not chain:
            return captured
        bodies = [self.declared()]
        if len(bodies[0]) != self.cap:
            bodies.append(captured)
        for b in bodies:
            try:
                return _apply_filter_chain(b, chain, self.dict_src)
            except (ValueError, zlib.error):
                continue
        return None

    def cmap(self) -> dict[int, str]:
        """The decoded body as a ToUnicode CMap, parsed on first use."""
        if self._cmap is _UNSET:
            self._cmap = parse_tounicode_cmap(self.body() or b"")
        return self._cmap


def _dict_open(payload: bytes, lo: int, e: int) -> int | None:
    """Where the stream dict closing at the ``>>`` at ``e`` opens: the
    first ``<<`` from ``lo`` on after which each ``<<`` opens a sub-dict
    closed by the next ``>>`` before ``e`` (one nested level, so
    ``/DecodeParms << … >>`` stays inside), or None."""
    q = e
    while (p := payload.rfind(b"<<", lo, q + 1)) >= 0:
        r = payload.find(b">>", p + 2, e + 2)
        if r >= e - 1 or payload.find(b"<<", p + 2, r) >= 0:
            return p - 1 if p > lo and payload[p - 1] == 0x3C else p
        q = p
    return q if q < e else None


def _scan(payload: bytes) -> tuple[list[re.Match], list[_Stream]]:
    """The document's objects and its stream table, in file order: each
    keyword's dict opens after the previous keyword, its body runs to
    the next ``endstream``. One inside an earlier body (a damaged
    ``endstream``) resolves fonts and decrypts but is not content."""
    objs = list(_OBJGEN_RE.finditer(payload, 0, payload.rfind(b"endobj") + 6))
    ends = [m.end(3) for m in objs]
    streams: list[_Stream] = []
    lo, es = 0, -9  # the previous keyword's end; the last `endstream`
    for kw in _STREAM_KW_RE.finditer(payload):
        e, start = kw.span()
        top = es < start  # not inside the last body
        s = _dict_open(payload, max(lo, es + 9) if top else lo, e)
        lo = start
        if s is None:
            continue
        if top and (es := payload.find(b"endstream", start)) < 0:
            break  # no body ends after this keyword or any later one
        eol = payload[es - 2 : es]  # the EOL before `endstream` is not body
        end = es - (eol == b"\r\n") - (eol[-1:] in (b"\r", b"\n"))
        k = bisect_left(ends, es + 9)
        obj = k if k < len(objs) and objs[k].start(3) <= s else None
        streams.append(_Stream(payload, payload[s + 2 : e], start,
                               max(start, end) - start, obj, top))
    return objs, streams


# ---------------------------------------------------------------------------
# Standard security handler (spec §7.6.2-3) with an EMPTY user password
# (the common owner-password-only case): RC4 (/V 1|2 /R 2|3, or /V 4
# with a /V2 crypt filter), AES-128 (/V 4 AESV2) and AES-256 (/V 5
# AESV3). Decryption replaces the stream table's bodies with their
# plaintext; nothing else of the file is rewritten. Out of scope:
# non-Standard filters, non-empty user passwords, and strings outside
# streams (they never carry page text; content + ToUnicode live in
# streams, which ARE decrypted).
# ---------------------------------------------------------------------------

# spec Algorithm 2 padding constant (§7.6.3.3, public)
_PAD = bytes((
    0x28, 0xBF, 0x4E, 0x5E, 0x4E, 0x75, 0x8A, 0x41, 0x64, 0x00, 0x4E, 0x56,
    0xFF, 0xFA, 0x01, 0x08, 0x2E, 0x2E, 0x00, 0xB6, 0xD0, 0x68, 0x3E, 0x80,
    0x2F, 0x0C, 0xA9, 0xFE, 0x64, 0x53, 0x69, 0x7A,
))
_ENC_REF_RE = re.compile(rb"/Encrypt\s+(\d+)\s+(\d+)\s+R")
_ENC_INLINE_RE = re.compile(rb"/Encrypt\s*<<((?:(?!<<).)*?)>>", re.S)
_ID_RE = re.compile(rb"/ID\s*\[\s*<([0-9A-Fa-f\s]*)>")


def _rc4(key: bytes, data: bytes) -> bytes:
    """Plain RC4 (KSA + PRGA). Sequential by nature — fine for the
    few-KB streams this subset handles; a production build swaps in a
    native cipher behind the same call."""
    S = list(range(256))
    j = 0
    for i in range(256):
        j = (j + S[i] + key[i % len(key)]) & 0xFF
        S[i], S[j] = S[j], S[i]
    out = bytearray(len(data))
    i = j = 0
    for n, c in enumerate(data):
        i = (i + 1) & 0xFF
        j = (j + S[i]) & 0xFF
        S[i], S[j] = S[j], S[i]
        out[n] = c ^ S[(S[i] + S[j]) & 0xFF]
    return bytes(out)


def _enc_int(d: bytes, name: bytes, default: int) -> int:
    m = re.search(rb"/" + name + rb"\s+(-?\d+)", d)
    return int(m.group(1)) if m else default


def _enc_string(d: bytes, name: bytes) -> bytes | None:
    """/O or /U value — hex ``<…>`` or literal ``(…)`` form."""
    m = re.search(rb"/" + name + rb"\s*", d)
    if not m:
        return None
    i = m.end()
    if i < len(d) and d[i] == 0x3C:  # '<'
        hm = _HEX_RE.match(d, i)
        return _hex_bytes(hm.group(1)) if hm else None
    if i < len(d) and d[i] == 0x28:  # '('
        s, _ = _scan_string(d, i)
        return s
    return None


def _std_file_key(O: bytes, P: int, id0: bytes, R: int, nbits: int) -> bytes:
    """Algorithm 2: empty-user-password file key."""
    n = 5 if R == 2 else max(5, min(16, nbits // 8))
    key = hashlib.md5(
        _PAD + O[:32] + (P & 0xFFFFFFFF).to_bytes(4, "little") + id0
    ).digest()
    if R >= 3:
        for _ in range(50):
            key = hashlib.md5(key[:n]).digest()
    return key[:n]


def _check_user_password(key: bytes, U: bytes, id0: bytes, R: int) -> bool:
    """Algorithm 6 (via 4/5): does the empty user password open this
    file? R3 compares only the first 16 bytes of /U per the spec."""
    if R == 2:
        return _rc4(key, _PAD) == U[:32]
    x = hashlib.md5(_PAD + id0).digest()
    x = _rc4(key, x)
    for i in range(1, 20):
        x = _rc4(bytes(b ^ i for b in key), x)
    return x == U[:16]


def _obj_key(key: bytes, num: int, gen: int, salt: bytes = b"") -> bytes:
    """Algorithm 1: per-object RC4 key."""
    h = hashlib.md5(
        key + num.to_bytes(3, "little") + gen.to_bytes(2, "little") + salt
    ).digest()
    return h[: min(len(key) + 5, 16)]


def _aes_obj_key(key: bytes, num: int, gen: int) -> bytes:
    """Algorithm 1 with the AESV2 salt (ISO 32000 §7.6.2: the bytes
    0x73 41 6C 54, "sAlT", appended before the md5)."""
    return _obj_key(key, num, gen, b"sAlT")


def _hash_2b(pwd: bytes, salt: bytes, udata: bytes = b"") -> bytes:
    """ISO 32000-2 Algorithm 2.B hardened hash (R 6). Block-aligned by
    construction: the repeated unit is concatenated 64×, and 64·L is
    always a multiple of 16."""
    from nidaba_ray.algorithms import aes as _aes

    k = hashlib.sha256(pwd + salt + udata).digest()
    i = 0
    while True:
        k1 = (pwd + k + udata) * 64
        e = _aes.encrypt_cbc(k[:16], k[16:32], k1)
        k = [hashlib.sha256, hashlib.sha384, hashlib.sha512][
            sum(e[:16]) % 3
        ](e).digest()
        i += 1
        if i >= 64 and e[-1] <= i - 32:
            return k[:32]


from functools import lru_cache, partial


@lru_cache(maxsize=256)
def _aes_file_key_v5(enc: bytes, R: int) -> bytes | None:
    """Algorithm 2.A (empty user password): validate against /U's hash
    + validation salt, then unwrap the 32-byte file key from /UE with
    the intermediate key from the key salt.

    Cached per (/Encrypt dict bytes, R): the R6 KDF is a deliberately
    slow iterated hash (~0.6 s over the repo's pure-Python cipher), so
    re-parses of the SAME document (bench loops, dedup double-reads,
    tests) skip it. Distinct documents have distinct /O//U salts and
    always pay the derivation once — that is the KDF's purpose."""
    from nidaba_ray.algorithms import aes as _aes

    U = _enc_string(enc, b"U")
    UE = _enc_string(enc, b"UE")
    if U is None or UE is None or len(U) < 48 or len(UE) < 32:
        return None
    vsalt, ksalt = U[32:40], U[40:48]
    if R == 6:
        h = _hash_2b(b"", vsalt)
        ik = _hash_2b(b"", ksalt)
    else:  # R 5 (the deprecated pre-ISO draft: a single SHA-256)
        h = hashlib.sha256(vsalt).digest()
        ik = hashlib.sha256(ksalt).digest()
    if h != U[:32]:
        return None
    return _aes.decrypt_cbc(ik, bytes(16), UE[:32], unpad=False)


def _aes_cbc(key: bytes, ct: bytes) -> bytes | None:
    """IV-prefixed AES-CBC body → plaintext; None when malformed."""
    from nidaba_ray.algorithms import aes as _aes

    if len(ct) < 32 or len(ct) % 16:
        return None
    return _aes.decrypt_cbc(key, ct[:16], ct[16:])


def _decrypt_payload(payload: bytes, objs: list[re.Match],
                     streams: list[_Stream]) -> bool:
    """Decrypt the stream table of a standard-security-handler file
    (RC4, RC4 through a V4 crypt filter, AESV2 or AESV3; empty user
    password): one walk in file order replaces each body inside an
    object, except the encryption dict's own, by its plaintext under
    that object's key. False when the file is encrypted but not decryptable here
    (unsupported handler/version, or the user password isn't empty —
    the caller extracts no text rather than mojibake)."""
    enc = None
    enc_num = -1
    em = _ENC_REF_RE.search(payload)
    if em:
        enc_num = int(em.group(1))
        enc = next((m.group(3) for m in objs if int(m.group(1)) == enc_num),
                   None)
    if enc is None:
        im = _ENC_INLINE_RE.search(payload)
        if im:
            enc = im.group(1)
    if enc is None or b"/Standard" not in enc:
        return False
    V = _enc_int(enc, b"V", 0)
    R = _enc_int(enc, b"R", 0)
    if V in (1, 2) and R in (2, 3):
        mode = "rc4"
    elif V == 4 and R == 4 and re.search(rb"/CFM\s*/AESV2\b", enc):
        mode = "aesv2"  # AES-128-CBC crypt filter
    elif V == 4 and R == 4 and re.search(rb"/CFM\s*/V2[\s/>]", enc):
        mode = "rc4v4"  # RC4 routed through a V4 crypt filter
    elif V == 5 and R in (5, 6) and b"/AESV3" in enc:
        mode = "aesv3"  # AES-256-CBC, SHA-2 key derivation
    else:
        return False
    sm_ = re.search(rb"/StmF\s*/([^\s/\[\]()<>{}%]+)", enc)
    if sm_ is not None and sm_.group(1) != b"StdCF":
        return False  # streams routed to a non-standard crypt filter

    if mode == "aesv3":
        fkey = _aes_file_key_v5(enc, R)
        if fkey is None or len(fkey) != 32:
            return False
        obj_key, cipher = (lambda num, gen: fkey), _aes_cbc
    else:
        O = _enc_string(enc, b"O")
        U = _enc_string(enc, b"U")
        if O is None or U is None or len(O) < 32 or len(U) < 16:
            return False
        P = _enc_int(enc, b"P", -1)
        # AESV2 keys are 128-bit by definition; /Length in the nested
        # /CF dict is in BYTES and would shadow the top-level bit count
        if mode == "aesv2":
            nbits = 128
        elif mode == "rc4v4":
            cf = re.search(rb"/StdCF\s*<<(.*?)>>", enc, re.S)
            nbits = 8 * (_enc_int(cf.group(1), b"Length", 16) if cf else 16)
        elif V == 2:
            nbits = _enc_int(enc, b"Length", 40)
        else:
            nbits = 40
        idm = _ID_RE.search(payload)
        id0 = _hex_bytes(idm.group(1)) if idm else b""
        key = _std_file_key(O, P, id0, R, nbits)
        if not _check_user_password(key, U, id0, R):
            return False
        if mode == "aesv2":
            obj_key, cipher = partial(_aes_obj_key, key), _aes_cbc
        else:
            obj_key, cipher = partial(_obj_key, key), _rc4

    done = 0  # end of the last decrypted range: plaintexts never overlap
    for s in (s for s in streams if s.obj is not None):  # in file order
        m = objs[s.obj]
        num = int(m.group(1))
        if num == enc_num or s.start < done:
            continue  # the encryption dict itself is never encrypted
        ct = s.declared()
        pt = cipher(obj_key(num, int(m.group(2))), ct)
        if pt is None:
            continue
        done = s.start + len(ct)
        # /Length now declares the plaintext; the captured bytes past
        # an under-declared /Length stay
        s.src = pt + s.src[done : s.start + s.cap]
        s.start, s.size, s.cap = 0, len(pt), len(s.src)
    return True


# ---------------------------------------------------------------------------
# Per-font encoding resolution (spec §9.6/§9.7): object scan → font
# resources → ToUnicode / Differences per font name, switched by Tf
# ---------------------------------------------------------------------------

_FONT_RES_RE = re.compile(rb"/Font\s*<<(.*?)>>", re.S)
_FONT_REF_RE = re.compile(rb"/([^\s/\[\]()<>{}%]+)\s+(\d+)\s+\d+\s+R")
_TOUNICODE_RE = re.compile(rb"/ToUnicode\s+(\d+)\s+\d+\s+R")


def _font_maps(objs: list[re.Match], streams: list[_Stream],
               members: list[tuple[int, bytes]],
               ) -> dict[bytes, tuple[dict | None, dict | None]]:
    """Resolve each /Font resource name to its own (ToUnicode CMap,
    /Differences) pair by following indirect references through the
    object index: the file's objects, then the ObjStm members, the
    first object with a number winning. Returns {} when no font
    resources resolve (the caller then falls back to the merged
    document-level maps)."""
    first = {s.obj: s for s in reversed(streams)}  # each object's first
    index: dict[int, tuple[bytes, _Stream | None]] = {}
    for i, m in enumerate(objs):
        index.setdefault(int(m.group(1)), (m.group(3), first.get(i)))
    for num, body in members:
        index.setdefault(num, (body, None))
    fonts: dict[bytes, tuple[dict | None, dict | None]] = {}
    read: dict[int, tuple[dict | None, dict | None]] = {}  # by font object
    for body, _ in index.values():
        for res in _FONT_RES_RE.finditer(body, 0, body.rfind(b">>") + 2):
            for ref in _FONT_REF_RE.finditer(res.group(1)):
                name, num = b"/" + ref.group(1), int(ref.group(2))
                fobj = index.get(num)
                if fobj is None or name in fonts:
                    continue
                if num not in read:  # names sharing an object read it once
                    cmap = None
                    tm = _TOUNICODE_RE.search(fobj[0])
                    if tm:
                        _, stream = index.get(int(tm.group(1)), (b"", None))
                        if stream is not None:
                            cmap = stream.cmap() or None
                    read[num] = (cmap, parse_differences(fobj[0]) or None)
                fonts[name] = read[num]
    return fonts


# ---------------------------------------------------------------------------
# Simple-font /Differences encoding tables (spec §9.6.6.3 + Adobe Glyph List)
# ---------------------------------------------------------------------------

_DIFF_RE = re.compile(rb"/Differences\s*\[(.*?)\]", re.S)
_DIFF_TOK_RE = re.compile(rb"/([^\s/\[\]()<>{}%]+)|(\d+)")

# Compact Adobe-Glyph-List subset: the names real generators emit for
# Latin-accent + publisher punctuation. Everything else arrives via the
# algorithmic uniXXXX / uXXXX forms handled in _glyph_to_unicode.
_AGL = {
    "space": " ", "quotesingle": "'", "quotedbl": '"',
    "quoteleft": "‘", "quoteright": "’",
    "quotesinglbase": "‚", "quotedblleft": "“",
    "quotedblright": "”", "quotedblbase": "„",
    "endash": "–", "emdash": "—", "bullet": "•",
    "ellipsis": "…", "Euro": "€",
    "guillemotleft": "«", "guillemotright": "»",
    "exclamdown": "¡", "questiondown": "¿",
    "germandbls": "ß", "ae": "æ", "AE": "Æ",
    "oslash": "ø", "Oslash": "Ø",
    "agrave": "à", "aacute": "á", "acircumflex": "â",
    "atilde": "ã", "adieresis": "ä", "aring": "å",
    "ccedilla": "ç", "egrave": "è", "eacute": "é",
    "ecircumflex": "ê", "edieresis": "ë",
    "igrave": "ì", "iacute": "í", "icircumflex": "î",
    "idieresis": "ï", "ntilde": "ñ",
    "ograve": "ò", "oacute": "ó", "ocircumflex": "ô",
    "otilde": "õ", "odieresis": "ö",
    "ugrave": "ù", "uacute": "ú", "ucircumflex": "û",
    "udieresis": "ü", "yacute": "ý", "ydieresis": "ÿ",
    "Adieresis": "Ä", "Odieresis": "Ö", "Udieresis": "Ü",
    "Eacute": "É", "Egrave": "È", "Ccedilla": "Ç",
    "Ntilde": "Ñ", "Aring": "Å",
}
_UNI_NAME_RE = re.compile(r"^uni((?:[0-9A-F]{4})+)$")
_U_NAME_RE = re.compile(r"^u([0-9A-F]{4,6})$")


def _glyph_to_unicode(name: str) -> str:
    """AGL name → unicode: table lookup, then the algorithmic
    ``uniXXXX`` (one or more UTF-16 code units) and ``uXXXX[XX]``
    forms; unknown names decode as replacement."""
    got = _AGL.get(name)
    if got is not None:
        return got
    m = _UNI_NAME_RE.match(name)
    if m:
        h = m.group(1)
        units = [int(h[i : i + 4], 16) for i in range(0, len(h), 4)]
        return b"".join(u.to_bytes(2, "big") for u in units).decode(
            "utf-16-be", errors="replace")
    m = _U_NAME_RE.match(name)
    if m:
        cp = int(m.group(1), 16)
        if cp <= 0x10FFFF:
            return chr(cp)
    return "�"


def parse_differences(data: bytes) -> dict[int, str]:
    """Merge every ``/Differences [ code /name /name … ]`` array in
    ``data`` into one byte-code → unicode map (spec §9.6.6.3: an
    integer sets the next code, each following name consumes one
    code)."""
    diffs: dict[int, str] = {}
    # no array opens after the last `]`: ending there, none walks on
    for m in _DIFF_RE.finditer(data, 0, data.rfind(b"]") + 1):
        code = 0
        for tok in _DIFF_TOK_RE.finditer(m.group(1)):
            name, num = tok.group(1), tok.group(2)
            if num is not None:
                code = int(num)
            elif name is not None:
                if 0 <= code <= 255:
                    diffs[code] = _glyph_to_unicode(name.decode("latin-1"))
                code += 1
    return diffs


# ---------------------------------------------------------------------------
# ToUnicode CMaps (spec §9.10.3) + UTF-16BE strings (spec §7.9.2.2)
# ---------------------------------------------------------------------------

_UTF16_BOM = b"\xfe\xff"
_CMAP_KEYWORDS = (b"begincmap", b"beginbfchar", b"beginbfrange")
_BFCHAR_RE = re.compile(rb"beginbfchar(.*?)endbfchar", re.S)
_BFRANGE_RE = re.compile(rb"beginbfrange(.*?)endbfrange", re.S)
# hex strings and array brackets are the only tokens inside bf sections
_CMAP_TOK_RE = re.compile(rb"<([0-9A-Fa-f]+)>|(\[)|(\])")


def _u16_hex(h: bytes) -> str:
    """Destination hex → unicode (UTF-16BE code units, surrogate pairs
    included). Lenient: odd-length hex is zero-padded BEFORE decoding
    (``bytes.fromhex`` would raise) — one malformed CMap entry must
    never take down the document."""
    if len(h) % 2:
        h += b"0"
    b = bytes.fromhex(h.decode("ascii"))
    if len(b) % 2:
        b += b"\x00"
    return b.decode("utf-16-be", errors="replace")


def parse_tounicode_cmap(body: bytes) -> dict[int, str]:
    """Parse one ToUnicode CMap stream into {2-byte code → str}.

    Handles ``bfchar`` pairs and both ``bfrange`` forms: incrementing
    (``<lo> <hi> <dst>`` — dst advances with the code) and array
    destinations (``<lo> <hi> [<d0> <d1> …]``)."""
    cmap: dict[int, str] = {}
    # sections end at the last end keyword: no open one walks the body
    for sec in _BFCHAR_RE.finditer(body, 0, body.rfind(b"endbfchar") + 9):
        toks = [m.group(1) for m in _CMAP_TOK_RE.finditer(sec.group(1))
                if m.group(1)]
        for i in range(0, len(toks) - 1, 2):
            cmap[int(toks[i], 16)] = _u16_hex(toks[i + 1])
    for sec in _BFRANGE_RE.finditer(body, 0,
                                    body.rfind(b"endbfrange") + 10):
        toks: list = []
        for m in _CMAP_TOK_RE.finditer(sec.group(1)):
            toks.append(m.group(1) if m.group(1) else m.group(0))
        i, n = 0, len(toks)
        while i + 3 <= n:
            if toks[i] in (b"[", b"]") or toks[i + 1] in (b"[", b"]"):
                i += 1  # malformed entry — resync
                continue
            lo, hi = int(toks[i], 16), int(toks[i + 1], 16)
            i += 2
            if toks[i] == b"[":  # array destinations
                i += 1
                c = lo
                while i < n and toks[i] != b"]":
                    # a stray nested "[" is not a hex destination —
                    # skip it without consuming a code slot
                    if toks[i] == b"[":
                        i += 1
                        continue
                    if c <= hi:
                        cmap[c] = _u16_hex(toks[i])
                    c += 1
                    i += 1
                i += 1  # past ]
            elif toks[i] == b"]":  # malformed — no destination
                i += 1
            else:  # incrementing destination
                dsthex = toks[i]
                i += 1
                width = len(dsthex)
                base = int(dsthex, 16)
                for c in range(lo, hi + 1):
                    cmap[c] = _u16_hex(b"%0*X" % (width, base + (c - lo)))
    return cmap


def _decode_show(b: bytes, cmap: dict[int, str] | None,
                 diffs: dict[int, str] | None = None) -> str:
    """Decode one show-string. Priority: BOM-sniffed UTF-16BE (the
    spec's explicit marker wins), then the document ToUnicode CMap
    over 2-byte codes (composite fonts), then a simple-font
    /Differences byte remap over an ASCII base, else UTF-8 with
    replacement (the Latin subset)."""
    if b.startswith(_UTF16_BOM):
        return b[2:].decode("utf-16-be", errors="replace")
    if cmap:
        if len(b) % 2:  # malformed odd-length code string — pad
            b = b + b"\x00"
        return "".join([cmap.get(c, "�")
                        for c in struct.unpack(">%dH" % (len(b) >> 1), b)])
    if diffs:
        return "".join(
            diffs.get(x, chr(x) if x < 0x80 else "�") for x in b
        )
    return b.decode("utf-8", errors="replace")


def _scan_string(data: bytes, i: int) -> tuple[bytes, int]:
    """Scan a literal string starting at ``data[i] == '('``; returns
    (unescaped bytes, index past the closing paren). Handles nested
    balanced parens and every escape in the spec (§7.3.4.2)."""
    depth = 1
    i += 1
    out = bytearray()
    n = len(data)
    while i < n and depth:
        c = data[i]
        if c == 0x5C:  # backslash
            i += 1
            if i >= n:
                break
            e = data[i]
            simple = _ESC_SIMPLE.get(e)
            if simple is not None:
                out += simple
                i += 1
            elif 0x30 <= e <= 0x37:  # \ooo — up to 3 octal digits
                j = i
                while j < n and j - i < 3 and 0x30 <= data[j] <= 0x37:
                    j += 1
                out.append(int(data[i:j], 8) & 0xFF)
                i = j
            elif e in (0x0A, 0x0D):  # line continuation
                i += 1
                if e == 0x0D and i < n and data[i] == 0x0A:
                    i += 1
            else:  # \( \) \\ and unknown → the char itself
                out.append(e)
                i += 1
        elif c == 0x28:  # (
            depth += 1
            out.append(c)
            i += 1
        elif c == 0x29:  # )
            depth -= 1
            if depth:
                out.append(c)
            i += 1
        else:
            out.append(c)
            i += 1
    return bytes(out), i


def _unescape(m: re.Match) -> bytes:
    """One ``_ESC_RE`` escape → its bytes, by :func:`_scan_string`'s
    rules."""
    octal, eol, c = m.groups()
    if octal is not None:
        return bytes((int(octal, 8) & 0xFF,))
    if eol is not None:  # line continuation
        return b""
    return _ESC_SIMPLE.get(c[0], c)


def _literal(body: bytes) -> bytes:
    """The bytes of a literal string without nesting, from its body."""
    return _ESC_RE.sub(_unescape, body) if b"\\" in body else body


def _end_block(blocks: list[str], lines: list[str], cur: list[str]) -> None:
    """Close the open text object: the line in ``cur`` ends, and the
    lines join with one space into a block unless all blank."""
    if cur:
        lines.append("".join(cur))
        cur.clear()
    text = " ".join(lines)
    if text.strip():
        blocks.append(text)
    lines.clear()


def _parse_content(
    data: bytes,
    cmap: dict[int, str] | None = None,
    diffs: dict[int, str] | None = None,
    fonts: dict[bytes, tuple[dict | None, dict | None]] | None = None,
) -> list[str]:
    """Tokenize one content stream; emit text blocks (one per BT…ET).

    ``fonts`` (from :func:`_font_maps`) enables per-font decoding: a
    ``Tf`` operator switches the active (CMap, Differences) pair to
    the named font's; names missing from ``fonts`` keep the merged
    document-level maps — so two fonts with OVERLAPPING code spaces
    decode correctly when resolvable, and the old behavior is the
    graceful fallback.

    One ``_TOKEN_RE`` match per operation or token, dispatched on
    ``m.lastindex``. A nested literal string, a dict and an inline
    image are consumed outside the pattern; finditer then restarts
    after them."""
    blocks: list[str] = []
    stack: list = []
    lines: list[str] = []
    cur: list[str] = []
    font = (cmap, diffs)  # the active pair, switched by Tf
    n = len(data)
    no_id = no_ei = n  # an ID / EI search that failed from here fails on
    pos = 0
    while pos < n:
        for m in _TOKEN_RE.finditer(data, pos):
            k = m.lastindex
            if k == _T_TF:  # `/Name size Tf`
                if fonts:
                    font = fonts.get(m.group(2), (cmap, diffs))
                stack.clear()
            elif k == _T_HEX_TJ:  # `<hex> Tj`
                cur.append(_decode_show(_hex_bytes(m.group(4)), *font))
                stack.clear()
            elif k == _T_LIT_TJ:  # `(literal) Tj`
                cur.append(_decode_show(_literal(m.group(6)), *font))
                stack.clear()
            elif k == _T_NUM:
                stack.append(float(m.group(k)))
            elif k == _T_OP:
                op = m.group(k)
                if op == b"BT" or op == b"ET":
                    _end_block(blocks, lines, cur)
                elif op == b"Tj":
                    if stack and isinstance(stack[-1], bytes):
                        cur.append(_decode_show(stack[-1], *font))
                elif op == b"TJ":
                    if stack and isinstance(stack[-1], list):
                        for el in stack[-1]:
                            # kerning numbers concatenate
                            if isinstance(el, bytes):
                                cur.append(_decode_show(el, *font))
                elif op == b"Td" or op == b"TD":
                    if stack and isinstance(stack[-1], float) and stack[-1]:
                        if cur:
                            lines.append("".join(cur))
                            cur = []
                elif op == b"T*" or op == b"Tm":
                    if cur:
                        lines.append("".join(cur))
                        cur = []
                elif op == b"'" or op == b'"':
                    if stack and isinstance(stack[-1], bytes):
                        if cur:
                            lines.append("".join(cur))
                        cur = [_decode_show(stack[-1], *font)]
                elif op == b"Tf":
                    if fonts:
                        name = next((x[1] for x in reversed(stack)
                                     if isinstance(x, tuple)), None)
                        font = fonts.get(name, (cmap, diffs))
                elif op == b"BI":  # inline image: BI…ID…EI, one opaque span
                    i = m.end()
                    m2 = _INLINE_ID_RE.search(data, i) if i < no_id else None
                    # a BI with no ID after it is a corrupt or
                    # false-positive operator (one flipped byte), not an
                    # image: tokenize on
                    if m2 is None:
                        no_id = i
                    else:
                        j = m2.end()
                        m3 = _INLINE_EI_RE.search(data, j) if j < no_ei else None
                        if m3 is None:
                            no_ei = j
                            m3 = _INLINE_EI_BARE_RE.search(data, j)
                        # no EI at all → truncated image at stream end;
                        # only then is dropping the (empty) remainder
                        # correct
                        pos = n if m3 is None else m3.end()
                        stack.clear()
                        break
                # every operator consumes its operands; TL/Tc/Tw/
                # graphics/… show no text
                stack.clear()
            elif k == _T_LIT:
                stack.append(_literal(m.group(k)))
            elif k == _T_HEX:
                stack.append(_hex_bytes(m.group(k)))
            elif k == _T_NAME:  # tagged so a literal string that merely
                # LOOKS like a name can never be mistaken for one
                stack.append(("name", m.group(k)))
            elif k == _T_OPEN:
                stack.append("[")
            elif k == _T_CLOSE:  # collapse to array
                arr: list = []
                while stack and stack[-1] != "[":
                    arr.append(stack.pop())
                if stack:
                    stack.pop()
                arr.reverse()
                stack.append(arr)
            elif k == _T_PAREN:  # a nested or unterminated literal string
                s, pos = _scan_string(data, m.start(k))
                stack.append(s)
                break
            elif k == _T_DICT:  # dict (skipped — no text inside)
                j = data.find(b">>", m.end())
                pos = n if j < 0 else j + 2
                break
            # any other byte is skipped; `\Z` ends the stream
        else:
            break
    _end_block(blocks, lines, cur)
    return blocks


_OBJSTM_TYPE_RE = re.compile(rb"/Type\s*/ObjStm\b")
_STRUCTURE_TYPE_RE = re.compile(rb"/Type\s*/(?:ObjStm|XRef)\b")
_OBJSTM_N_RE = re.compile(rb"/N\s+(\d+)(?!\d)")
_OBJSTM_FIRST_RE = re.compile(rb"/First\s+(\d+)(?!\d)")


def _objstm_members(streams: list[_Stream]) -> list[tuple[int, bytes]]:
    """The non-stream objects packed inside ``/Type /ObjStm`` object
    streams (spec §7.5.7), as (object number, body) pairs in stream
    order, so font dicts and encoding tables that modern writers
    compress there resolve per-font. Content streams and ToUnicode
    CMaps cannot live in an ObjStm (they are streams), so a member is
    never read as one. Malformed object streams are skipped
    (per-stream isolation)."""
    members: list[tuple[int, bytes]] = []
    for s in streams:
        d = s.dict_src
        if not s.top or not _OBJSTM_TYPE_RE.search(d):
            continue
        nm = _OBJSTM_N_RE.search(d)
        fm = _OBJSTM_FIRST_RE.search(d)
        if not nm or not fm:
            continue
        body = s.body()
        if body is None:
            continue
        n, first = int(nm.group(1)), int(fm.group(1))
        if first > len(body):
            continue
        toks = body[:first].split()
        if len(toks) < 2 * n:
            continue
        try:
            pairs = [(int(toks[2 * i]), int(toks[2 * i + 1]))
                     for i in range(n)]
        except ValueError:
            continue
        # offsets are increasing per spec; sort defensively so a
        # sloppy writer can't make one object swallow the next
        pairs.sort(key=lambda p: p[1])
        for i, (num, off) in enumerate(pairs):
            start = first + off
            end = first + pairs[i + 1][1] if i + 1 < n else len(body)
            if 0 <= start <= end <= len(body):
                members.append((num, body[start:end]))
    return members


def extract_pdf_blocks(payload: bytes) -> list[str]:
    """All text blocks in document order (one per BT…ET text object).

    One scan builds the objects and stream table (:func:`_scan`). An
    encrypted file (standard security handler, RC4 or AES, empty user
    password) has the table's bodies decrypted; one this subset can't
    open yields no blocks rather than ciphertext mojibake. Every
    stream but ObjStm/XRef structure is decoded once (undecodable ones
    are skipped — per-stream isolation): ToUnicode CMaps merge into
    one document-level code map, the rest parse as content with it
    and the per-font maps active. Payloads with no stream objects at
    all fall back to a raw scan of the whole body (bare content
    fragments)."""
    objs, streams = _scan(payload)
    if b"/Encrypt" in payload and not _decrypt_payload(payload, objs, streams):
        return []
    members = _objstm_members(streams)
    # simple-font /Differences tables live in font dicts: the file's
    # and the ObjStm members', later tables overriding earlier codes
    diffs = parse_differences(payload)
    for _, body in members:
        diffs.update(parse_differences(body))
    if not streams:
        return _parse_content(payload, None, diffs or None)
    cmap: dict[int, str] = {}
    content: list[bytes] = []
    for s in streams:
        # structure, never content: a predictor-less XRef stream would
        # otherwise inflate to binary soup
        if not s.top or _STRUCTURE_TYPE_RE.search(s.dict_src):
            continue
        body = s.body()
        if body is None:
            continue
        if any(k in body for k in _CMAP_KEYWORDS):
            cmap.update(s.cmap())
        else:
            content.append(body)
    # per-font resolution (Tf switching); {} → document-level fallback
    fonts = _font_maps(objs, streams, members)
    blocks: list[str] = []
    for body in content:
        blocks.extend(_parse_content(body, cmap or None, diffs or None,
                                     fonts or None))
    return blocks
