"""PDF object streams and the stream table (stages/pdf.py): font dicts
compressed into /Type /ObjStm resolve per-font; /Type /XRef streams
are structure, never content; malformed object streams degrade
gracefully; each document is scanned once and each stream body
decoded at most once."""

from __future__ import annotations

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidaba_ray import synth
from nidaba_ray.stages import pdf as P


@given(st.lists(st.sampled_from(
    [f"w{i}" for i in range(30)]
    + ["(p)", ")q(", "a\\b", "ü", "—", "€", "北京", "😀", "café"]
), min_size=1, max_size=120))
@settings(max_examples=40, deadline=None)
def test_objstm_twofont_roundtrip_property(tokens):
    """The two-overlapping-fonts document with its font dicts packed
    in an ObjStm round-trips byte-exactly — only possible when the
    expansion recovers the per-font structure."""
    text = " ".join(tokens)
    got = " ".join(P.extract_pdf_blocks(synth.make_pdf_objstm(7, text)))
    assert got == text


def test_objstm_expansion_is_load_bearing(monkeypatch):
    """Without expansion the overlapping code spaces collide under the
    merged document-level fallback — proves the ObjStm path does real
    work, not incidental parsing."""
    text = "mixed fonts: café — 北京 ü €uro abcdef"
    doc = synth.make_pdf_objstm(7, text)
    assert " ".join(P.extract_pdf_blocks(doc)) == text
    monkeypatch.setattr(P, "_objstm_members", lambda streams: [])
    assert " ".join(P.extract_pdf_blocks(doc)) != text


def test_xref_stream_never_leaks_into_content():
    """make_pdf_objstm's cross-reference stream deliberately inflates
    to bytes that LOOK like a text object; /Type /XRef must keep it
    out of the content pass."""
    doc = synth.make_pdf_objstm(3, "only real content")
    got = " ".join(P.extract_pdf_blocks(doc))
    assert "xref soup" not in got
    assert got == "only real content"


def test_objstm_body_never_parsed_as_content():
    """An ObjStm whose dict strings contain content-operator lookalikes
    stays out of the content pass (it is expanded, not parsed)."""
    inner = b"<< /Fake (BT (objstm soup) Tj ET) >>"
    header = b"5 0 "
    body = header + inner
    comp = zlib.compress(body)
    doc = (
        b"%PDF-1.5\n"
        b"20 0 obj << /Type /ObjStm /N 1 /First "
        + str(len(header)).encode() + b" /Length " + str(len(comp)).encode()
        + b" /Filter /FlateDecode >> stream\n" + comp
        + b"\nendstream endobj\n"
        b"3 0 obj << /Length 20 >> stream\nBT (real text) Tj ET\n"
        b"endstream endobj\n%%EOF\n"
    )
    assert P.extract_pdf_blocks(doc) == ["real text"]


@pytest.mark.parametrize("dict_src", [
    b"/Type /ObjStm /First 4",                      # missing /N
    b"/Type /ObjStm /N 2",                          # missing /First
    b"/Type /ObjStm /N 9 /First 4",                 # header too short
    b"/Type /ObjStm /N 1 /First 99999",             # /First beyond body
])
def test_malformed_objstm_degrades(dict_src):
    comp = zlib.compress(b"5 0 << /X 1 >>")
    doc = (
        b"%PDF-1.5\n20 0 obj << " + dict_src
        + b" /Length " + str(len(comp)).encode()
        + b" /Filter /FlateDecode >> stream\n" + comp
        + b"\nendstream endobj\n"
        b"3 0 obj << /Length 18 >> stream\nBT (content) Tj ET\n"
        b"endstream endobj\n%%EOF\n"
    )
    # never raises; the real content still extracts
    assert P.extract_pdf_blocks(doc) == ["content"]


def test_objstm_nonint_header_degrades():
    comp = zlib.compress(b"x y << /A 1 >>")
    doc = (
        b"%PDF-1.5\n20 0 obj << /Type /ObjStm /N 1 /First 4 /Length "
        + str(len(comp)).encode()
        + b" /Filter /FlateDecode >> stream\n" + comp
        + b"\nendstream endobj\n%%EOF\n"
    )
    assert P.extract_pdf_blocks(doc) == []


def test_expand_noop_fast_path():
    """A document without object streams decodes nothing for them; one
    with an ObjStm yields its packed members."""
    _, streams = P._scan(b"%PDF-1.4 no object streams here")
    assert P._objstm_members(streams) == []
    _, streams = P._scan(synth.make_pdf_twofont(7, "abc"))
    assert P._objstm_members(streams) == []
    assert all(s._body is P._UNSET for s in streams)
    _, streams = P._scan(synth.make_pdf_objstm(7, "abc"))
    nums = [num for num, _ in P._objstm_members(streams)]
    assert nums and len(set(nums)) == len(nums)


def test_objstm_member_is_never_read_as_a_stream():
    """An object stream cannot contain a stream: member bytes that look
    like one stay out of the content pass."""
    header = b"5 0 "
    comp = zlib.compress(
        header + b"<< /A 1 >> stream\nBT (phantom) Tj ET\nendstream")
    doc = (
        b"%PDF-1.5\n"
        b"20 0 obj << /Type /ObjStm /N 1 /First "
        + str(len(header)).encode() + b" /Length " + str(len(comp)).encode()
        + b" /Filter /FlateDecode >> stream\n" + comp
        + b"\nendstream endobj\n"
        b"3 0 obj << /Length 20 >> stream\nBT (real text) Tj ET\n"
        b"endstream endobj\n%%EOF\n"
    )
    assert P.extract_pdf_blocks(doc) == ["real text"]


class _Counting:
    """A compiled pattern that counts the scans made with it."""

    def __init__(self, rx):
        self.rx, self.calls = rx, 0

    def __getattr__(self, name):
        def scan(*args, **kwargs):
            self.calls += 1
            return getattr(self.rx, name)(*args, **kwargs)
        return scan


@pytest.mark.parametrize("make", [
    synth.make_pdf_objstm, synth.make_pdf_twofont,
    synth.make_pdf_rc4, synth.make_pdf_aes,
])
def test_one_scan_per_document_and_one_decode_per_stream(make, monkeypatch):
    """extract_pdf_blocks runs the stream keyword pattern and the object
    pattern once each over the document, and decodes each stream body
    at most once — decryption, object streams, CMaps, fonts and the
    content pass all read the one stream table."""
    text = "mixed fonts: café — 北京 ü €uro abcdef"
    doc = make(7, text)
    want = P.extract_pdf_blocks(doc)
    assert " ".join(want) == text
    streams = _Counting(P._STREAM_KW_RE)
    objects = _Counting(P._OBJGEN_RE)
    monkeypatch.setattr(P, "_STREAM_KW_RE", streams)
    monkeypatch.setattr(P, "_OBJGEN_RE", objects)
    assert P.extract_pdf_blocks(doc) == want
    assert (streams.calls, objects.calls) == (1, 1)
    assert not hasattr(P, "_OBJ_RE")
    decoded = []
    decode = P._Stream._decode

    def counting_decode(self):
        decoded.append(id(self))
        return decode(self)

    monkeypatch.setattr(P._Stream, "_decode", counting_decode)
    assert P.extract_pdf_blocks(doc) == want
    assert decoded and len(decoded) == len(set(decoded))


@pytest.mark.parametrize("make", [synth.make_pdf_twofont,
                                  synth.make_pdf_objstm])
def test_damaged_endstream_keeps_the_streams_it_swallows(make):
    """A damaged ``endstream`` lets the first stream's match run on to
    the next object's ``endstream``. That object's ToUnicode CMap is
    still its own, so its font still resolves."""
    text = "mixed fonts: café — 北京 ü €uro abcdef"
    doc = make(7, text)
    i = doc.index(b"endstream")
    bad = doc[:i] + b"endstrXam" + doc[i + len(b"endstream"):]

    def fonts(b):
        objs, streams = P._scan(b)
        return P._font_maps(objs, streams, P._objstm_members(streams))

    good, got = fonts(doc), fonts(bad)
    swallowed = [name for name in good if got[name][0]]
    assert len(swallowed) == 1 and len(good) == 2
    assert got[swallowed[0]] == good[swallowed[0]]
    assert "京" in "".join(P.extract_pdf_blocks(bad))


def _far_length_streams(n: int) -> bytes:
    """``n`` tiny objects whose /Length each reaches half the file."""
    reach = 25 * n
    return b"".join(
        b"%d 0 obj << /Length %d /Filter /FlateDecode >> stream\nx\n"
        b"endstream endobj\n" % (100 + k, reach) for k in range(n))


def _peak_bytes(run):
    """``run()`` and the peak bytes it allocated, under tracemalloc."""
    import tracemalloc

    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("encrypted", [False, True])
def test_far_reaching_lengths_stay_within_linear_memory(encrypted):
    """/Length only has to fit in the file, so many streams can declare
    ranges that overlap. The table holds offsets, decodes one declared
    slice at a time, and decrypts each byte at most once, so the peak
    grows with the file, not with streams × /Length."""
    body = _far_length_streams(2000)
    if encrypted:  # splice into an RC4 file: same key, more objects
        base = synth.make_pdf_rc4(7, "kept paragraph")
        cut = base.index(b"trailer")
        doc = base[:cut] + body + base[cut:]
    else:
        doc = synth.make_pdf(7, "kept paragraph") + body
    out, peak = _peak_bytes(lambda: P.extract_pdf_blocks(doc))
    assert out == ["kept paragraph"]
    assert peak < 20 * len(doc), (peak, len(doc))


def test_large_well_formed_pdf_stays_within_linear_memory():
    """A well-formed one-page document of ~1.6 MB: finding its stream
    holds no per-byte state, so extraction peaks at a small multiple
    of the file."""
    import random

    rng = random.Random(3)
    words = ["alpha", "beta", "gamma", "delta", "kappa", "omega"]
    text = " ".join(rng.choice(words) for _ in range(240_000))
    doc = synth.make_pdf(7, text)
    assert 1_500_000 < len(doc) < 1_800_000
    out, peak = _peak_bytes(lambda: P.extract_pdf_blocks(doc))
    assert " ".join(out) == text
    assert peak < 10 * len(doc), (peak, len(doc))


def _pages_pdf(n: int) -> bytes:
    """A well-formed ``n``-page document: a page dict and a content
    stream per page."""
    objs = [b"1 0 obj << /Type /Catalog /Pages 2 0 R >> endobj\n",
            b"2 0 obj << /Type /Pages /Count %d >> endobj\n" % n]
    for k in range(3, 3 + 2 * n, 2):
        body = b"BT (page %d) Tj ET" % k
        objs.append(b"%d 0 obj << /Type /Page /Parent 2 0 R /Contents %d 0 R"
                    b" >> endobj\n" % (k, k + 1))
        objs.append(b"%d 0 obj << /Length %d >> stream\n%s\nendstream "
                    b"endobj\n" % (k + 1, len(body), body))
    return b"%PDF-1.4\n" + b"".join(objs) + b"trailer << /Root 1 0 R >>\n"


def _one_stream(body: bytes) -> bytes:
    return (b"%%PDF-1.4\n1 0 obj << /Length %d >> stream\n%s\nendstream "
            b"endobj\n" % (len(body), body))


# shape → (document of size n, n at 1×); each takes time quadratic in n
# when a search walks to the end of the file once per candidate
_HOSTILE_SHAPES = {
    "many_pages": (_pages_pdf, 40),
    "digit_run": (lambda n: b"%PDF-1.4\n" + b"7" * n + b" endobj", 2_000),
    "unterminated_objs": (lambda n: b"%PDF-1.4\n1 0 obj << >> endobj\n"
                          + b"".join(b"%d 0 obj << /Type /Page >>\n" % k
                                     for k in range(n)), 200),
    "no_endstream": (lambda n: b"%PDF-1.4\n" + b"".join(
        b"%d 0 obj << /Length 1 >> stream\nx\n" % k for k in range(n)), 200),
    "differences": (lambda n: b"%PDF-1.4\n" + b"/Differences[" * n, 500),
    "inline_image": (lambda n: b"%PDF-1.4\n" + b"BI " * n, 1_000),
    "font_resources": (lambda n: _one_stream(b"BT (x) Tj ET")
                       + b"2 0 obj " + b"/Font<< " * n + b"endobj\n", 500),
    "cmap_sections": (lambda n: _one_stream(
        b"beginbfchar beginbfrange " * n), 500),
    "font_names": (lambda n: _one_stream(b"BT (x) Tj ET")
                   + b"2 0 obj << /Font << "
                   + b"".join(b"/F%d 3 0 R " % k for k in range(n))
                   + b">> >> endobj\n3 0 obj << /Type /Font "
                   + b"/W " * (20 * n) + b">> endobj\n", 250),
    # content-stream tokens that a restarting scan would rescan
    "unterminated_hex": (lambda n: _one_stream(b"<4142 " * n), 1_000),
    "unterminated_nesting": (lambda n: _one_stream(b"(" * n), 2_000),
    "deep_nesting": (lambda n: _one_stream(b"(" * n + b")" * n), 1_000),
    "escaped_parens": (lambda n: _one_stream(b"(a\\" * n), 1_000),
    "dict_opens": (lambda n: _one_stream(b"<<" * n), 4_000),
    "near_miss_tf": (lambda n: _one_stream(b"/F1 1 Tfx " * n), 1_000),
    "near_miss_tj": (lambda n: _one_stream(b"<41> Tjx " * n), 1_000),
}


@pytest.mark.parametrize("shape", sorted(_HOSTILE_SHAPES))
def test_hostile_pdf_structure_is_linear(shape):
    """Growing a document 8× grows extraction time about 8×, not 64×,
    for each structure that a restarting search would walk once per
    candidate: many well-formed pages, a digit run, object headers or
    stream keywords with no end, ``/Differences[``, ``BI``, ``/Font<<``
    and CMap sections that never close, many font names sharing one
    large font object, and content streams of unterminated hex strings,
    literal strings and dicts, deep nesting, escaped parens and
    operators that nearly fuse (``Tfx``, ``Tjx``)."""
    import timeit

    make, n = _HOSTILE_SHAPES[shape]
    small, large = make(n), make(8 * n)
    P.extract_pdf_blocks(small)
    t_small, t_large = (
        min(timeit.repeat(lambda: P.extract_pdf_blocks(d), number=5,
                          repeat=3)) for d in (small, large))
    assert t_large / t_small < 20, (t_small, t_large)
