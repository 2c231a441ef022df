"""The content-stream tokenizer (``stages/pdf._parse_content``) against
the byte-at-a-time loop it replaced, kept here verbatim as the
reference: equal blocks on every builder's streams, on generated and
mutated streams, and on the shapes a one-pattern tokenizer gets wrong
when a fused alternative backtracks. No Ray."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidaba_ray import synth
from nidaba_ray.stages import pdf as P
from nidaba_ray.stages.pdf import (
    _HEX_RE,
    _INLINE_EI_BARE_RE,
    _INLINE_EI_RE,
    _INLINE_ID_RE,
    _WS_BYTES,
    _scan_string,
)

# --- the reference: the tokenizer and the helpers as they were --------

_NUM_RE = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)")
_NAME_RE = re.compile(rb"/[^\s()<>\[\]{}/%]*")
_OP_RE = re.compile(rb"[^\s()<>\[\]{}/%]+")


def _hex_bytes(h: bytes) -> bytes:
    h = re.sub(rb"\s", b"", h)
    return bytes.fromhex((h + b"0" * (len(h) % 2)).decode("ascii"))


def _decode_show(b: bytes, cmap: dict[int, str] | None,
                 diffs: dict[int, str] | None = None) -> str:
    if b.startswith(b"\xfe\xff"):
        return b[2:].decode("utf-16-be", errors="replace")
    if cmap:
        if len(b) % 2:
            b = b + b"\x00"
        return "".join(
            cmap.get((b[i] << 8) | b[i + 1], "\ufffd")
            for i in range(0, len(b), 2)
        )
    if diffs:
        return "".join(
            diffs.get(x, chr(x) if x < 0x80 else "\ufffd") for x in b
        )
    return b.decode("utf-8", errors="replace")


def _reference_parse_content(
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
    graceful fallback."""
    blocks: list[str] = []
    stack: list = []
    lines: list[str] = []
    cur: list[str] = []
    active = [cmap, diffs]  # mutated by Tf

    def newline() -> None:
        nonlocal cur
        if cur:
            lines.append("".join(cur))
            cur = []

    def show(b: bytes) -> None:
        cur.append(_decode_show(b, active[0], active[1]))

    def flush() -> None:
        nonlocal lines
        newline()
        if lines:
            text = " ".join(lines)
            if text.strip():
                blocks.append(text)
        lines = []

    i, n = 0, len(data)
    no_id = no_ei = n  # an ID / EI search that failed from here fails on
    while i < n:
        c = data[i]
        if c in _WS_BYTES:
            i += 1
            continue
        if c == 0x25:  # % comment to EOL
            j = data.find(b"\n", i)
            i = n if j < 0 else j + 1
            continue
        if c == 0x28:  # literal string
            s, i = _scan_string(data, i)
            stack.append(s)
            continue
        if data.startswith(b"<<", i):  # dict (skipped — no text inside)
            j = data.find(b">>", i + 2)
            i = n if j < 0 else j + 2
            continue
        if c == 0x3C:  # hex string
            m = _HEX_RE.match(data, i)
            if m:
                stack.append(_hex_bytes(m.group(1)))
                i = m.end()
            else:
                i += 1
            continue
        if c == 0x5B:  # [
            stack.append("[")
            i += 1
            continue
        if c == 0x5D:  # ] — collapse to array
            arr: list = []
            while stack and stack[-1] != "[":
                arr.append(stack.pop())
            if stack:
                stack.pop()
            stack.append(list(reversed(arr)))
            i += 1
            continue
        if c == 0x2F:  # name — tagged so a literal string that merely
            # LOOKS like a name can never be mistaken for one
            m = _NAME_RE.match(data, i)
            stack.append(("name", m.group()))
            i = m.end()
            continue
        m = _NUM_RE.match(data, i)
        if m:
            stack.append(float(m.group()))
            i = m.end()
            continue
        m = _OP_RE.match(data, i)
        if not m:
            i += 1
            continue
        op = m.group()
        i = m.end()
        if op == b"BI":  # inline image: skip BI…ID…EI as one opaque span
            m2 = _INLINE_ID_RE.search(data, i) if i < no_id else None
            # a BI with no ID after it is a corrupt or false-positive
            # operator (one flipped byte), not an image: tokenize on
            if m2 is None:
                no_id = i
            else:
                j = m2.end()
                m3 = _INLINE_EI_RE.search(data, j) if j < no_ei else None
                if m3 is None:
                    no_ei = j
                    m3 = _INLINE_EI_BARE_RE.search(data, j)
                # no EI at all → truncated image at stream end; only
                # then is dropping the (empty) remainder correct
                i = n if m3 is None else m3.end()
        elif op in (b"BT", b"ET"):
            flush()
        elif op == b"Tj":
            if stack and isinstance(stack[-1], bytes):
                show(stack.pop())
        elif op == b"TJ":
            if stack and isinstance(stack[-1], list):
                for el in stack.pop():
                    if isinstance(el, bytes):
                        show(el)  # kerning numbers concatenate
        elif op in (b"'", b'"'):
            if stack and isinstance(stack[-1], bytes):
                s = stack.pop()
                newline()
                show(s)
        elif op == b"Tf":
            if fonts:
                name = next(
                    (x[1] for x in reversed(stack)
                     if isinstance(x, tuple) and x[0] == "name"),
                    None,
                )
                if name is not None and name in fonts:
                    active[0], active[1] = fonts[name]
                else:  # unresolvable font → document-level maps
                    active[0], active[1] = cmap, diffs
        elif op in (b"Td", b"TD"):
            ty = stack[-1] if stack and isinstance(stack[-1], float) else 0.0
            if ty != 0.0:
                newline()
        elif op in (b"T*", b"Tm"):
            newline()
        # every operator consumes its operands; TL/Tc/Tw/graphics/…
        # show no text
        stack.clear()
    flush()
    return blocks


# --- setups and streams ------------------------------------------------

_CMAP = {c: chr(0x4E00 + c) for c in range(0x20, 0x400)}
_DIFFS = {**{c: chr(0xC0 + c % 64) for c in range(0x80, 0x100)},
          0x61: "α", 0x28: "⁽"}
_FONTS = {b"/F1": ({c: chr(0x3040 + c % 96) for c in range(0x20, 0x200)},
                   None),
          b"/F2": (None, {0x41: "Ω", 0x62: "β"}),
          b"/F": (None, None)}
# (cmap, diffs, fonts): the plain, CMap, Differences and per-font paths
SETUPS = [(None, None, None), (_CMAP, None, None), (None, _DIFFS, None),
          (_CMAP, _DIFFS, _FONTS)]

BUILDERS = ("make_pdf", "make_pdf_inline_img", "make_pdf_flate",
            "make_pdf_utf16", "make_pdf_twofont", "make_pdf_objstm",
            "make_pdf_diff")
_WORDS = ([f"w{i}" for i in range(40)]
          + ["(p)", ")q(", "a\\b", "\\n", "ü", "—", "€", "北京", "😀",
             "café", "%", "<x>", "[y]", "/F1"])


def _texts(n: int, seed: int = 1) -> list[str]:
    rng = random.Random(seed)
    return [" ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 90)))
            for _ in range(n)]


def _streams(doc: bytes) -> list[bytes]:
    """Every decodable top-level stream body of a document: its content
    streams, and its CMap and object streams as extra inputs."""
    _, streams = P._scan(doc)
    return [b for s in streams if s.top and (b := s.body()) is not None]


def _builder_streams(n_docs: int) -> list[bytes]:
    out = []
    for i, text in enumerate(_texts(n_docs)):
        for name in BUILDERS:
            out.extend(_streams(getattr(synth, name)(1000 + i, text)))
    return out


def _assert_same(data: bytes) -> None:
    for cmap, diffs, fonts in SETUPS:
        assert (P._parse_content(data, cmap, diffs, fonts)
                == _reference_parse_content(data, cmap, diffs, fonts)), (
            data[:200], cmap is not None, diffs is not None, fonts is not None)


# --- differential ------------------------------------------------------

def test_builder_streams_match_reference():
    """Every stream of every unencrypted ``make_pdf*`` builder over 200
    documents, under each of the four setups."""
    streams = _builder_streams(200)
    assert len(streams) > 200 * len(BUILDERS)
    for data in streams:
        _assert_same(data)


_ALPHABET = [
    b" ", b"\n", b"\r", b"\t", b"\f", b"\x00", b"\x0b", b"%", b"\\", b"<<",
    b">>", b"(", b")", b"<", b">", b"[", b"]", b"{", b"}", b"/", b"/F1",
    b"/F", b"/F2", b"1", b"12", b"-3.5", b".", b"+", b"0", b"x", b"A",
    b"<41>", b"<0041 00 4>", b"\\n", b"\\101", b"\\\r\n", b"\xfe\xff",
    b"Tf", b"Tj", b"TJ", b"Td", b"TD", b"T*", b"Tm", b"'", b'"', b"BT",
    b"ET", b"BI", b"ID", b"EI", b"\xc3\xbc",
]
content_streams = st.lists(st.sampled_from(_ALPHABET), max_size=60).map(
    b"".join)


@given(content_streams)
@settings(max_examples=600, deadline=None)
def test_generated_streams_match_reference(data):
    _assert_same(data)


@given(content_streams, st.integers(0, 10_000), st.integers(0, 255))
@settings(max_examples=300, deadline=None)
def test_mutated_generated_streams_match_reference(data, at, byte):
    if data:
        at %= len(data)
        data = data[:at] + bytes((byte,)) + data[at + 1:]
    _assert_same(data)


def test_mutated_builder_streams_match_reference():
    """Single-byte mutations of builder streams: the new byte is drawn
    from the bytes the tokenizer treats specially, or at random."""
    rng = random.Random(20)
    streams = _builder_streams(30)
    special = b" \n\r\x00\x0b%\\()<>[]{}/+-.0123456789TfjJEIBD'\""
    for _ in range(600):
        data = bytearray(rng.choice(streams))
        at = rng.randrange(len(data))
        data[at] = (rng.choice(special) if rng.random() < 0.7
                    else rng.randrange(256))
        _assert_same(bytes(data))


@pytest.mark.parametrize("data, fonts, want", [
    # a possessive name: `/F1 Tf` never reads as `/F` plus number 1
    (b"BT /F1 Tf <0041> Tj ET", _FONTS, ["め"]),
    (b"BT /F1 5 Tf <0041> Tj ET", _FONTS, ["め"]),
    # an unterminated comment before the end hides all text in it
    (b"BT (a) Tj ET %BT (b) Tj ET", None, ["a"]),
    (b"BT (a) Tj %(b) Tj ET", None, ["a"]),
    (b"BT /F1 1 %x (b) Tj", _FONTS, []),
    # ... and a fused operation never backs into a comment's text
    (b"BT <41> %Tj", None, []),
    (b"BT (a) %Tj", None, []),
    (b"BT /F2 %1 Tf\n<41> Tj ET", _FONTS, ["A"]),
    # `Tjx` is an operator of its own: it shows nothing and clears
    (b"BT <41> Tjx (b) Tj ET", None, ["b"]),
    (b"BT (a) Tjx ET", None, []),
    (b"BT /F2 1 Tfx <41> Tj ET", _FONTS, ["A"]),
    # a fused operation consumes the operands before it
    (b"BT 5 <41> Tj Td <42> Tj ET", None, ["AB"]),
    (b"BT 5 (a) Tj Td (b) Tj ET", None, ["ab"]),
    (b"BT 5 /F 1 Tf Td (b) Tj ET", _FONTS, ["b"]),
])
def test_pinned_shapes(data, fonts, want):
    assert P._parse_content(data, None, None, fonts) == want
    assert _reference_parse_content(data, None, None, fonts) == want


# --- the show helpers --------------------------------------------------

def test_hex_whitespace_is_re_bytes_whitespace():
    """``_hex_bytes`` deletes ``b" \\t\\n\\r\\f\\v"``: exactly the bytes
    that ``re``'s bytes ``\\s`` matches."""
    ws = {b for b in range(256) if re.fullmatch(rb"\s", bytes((b,)))}
    assert ws == set(b" \t\n\r\f\v")
    digits = b"4 1\t4\n2\r4\x0b3\x0c5"
    assert P._hex_bytes(digits) == _hex_bytes(digits) == b"ABC\x50"


@given(st.text(alphabet="0123456789abcdefABCDEF \t\n\r\f\v", max_size=40))
@settings(max_examples=300, deadline=None)
def test_hex_bytes_matches_reference(h):
    h = h.encode("ascii")
    assert P._hex_bytes(h) == _hex_bytes(h)


@given(st.binary(max_size=64),
       st.dictionaries(st.integers(0, 0xFFFF), st.text(max_size=3),
                       max_size=40))
@settings(max_examples=300, deadline=None)
def test_decode_show_cmap_path_matches_generator(b, cmap):
    cmap = cmap or {0x4142: "x"}
    # most 2-byte codes of a random string miss a random map: also
    # draw codes that hit
    hit = b"".join(c.to_bytes(2, "big") for c in list(cmap)[:8])
    for data in (b, hit + b, b + hit[:3]):
        assert P._decode_show(data, cmap) == _decode_show(data, cmap)
