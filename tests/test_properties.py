"""Property-based tests (hypothesis) for the deterministic kernels —
the invariants byte-identity rests on. No Ray required."""

import itertools
import random
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidaba_ray.algorithms.strings import (
    align_vote,
    edit_distance,
    full_edit_distance,
    lcs_align,
)
from nidaba_ray.functions.compat import round_like_sql
from nidaba_ray.functions.dedup import (
    _perm_params,
    minhash_signature,
    shingle_hashes,
    simhash64,
)
from nidaba_ray.functions.textops import winnow_fingerprint
from nidaba_ray.stages.merge import MAX_ALIGN_TOKENS

words = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6),
    min_size=0, max_size=30,
)
short_text = st.text(alphabet=string.ascii_lowercase + " ", max_size=60)


@given(short_text, short_text)
@settings(max_examples=80, deadline=None)
def test_edit_distance_metric_properties(a, b):
    d = edit_distance(a, b)
    assert d == edit_distance(b, a)                       # symmetry
    assert (d == 0) == (a == b)                           # identity
    assert d <= max(len(a), len(b))                       # upper bound
    assert d >= abs(len(a) - len(b))                      # lower bound


@given(short_text, short_text, short_text)
@settings(max_examples=40, deadline=None)
def test_edit_distance_triangle(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


@given(short_text, short_text)
@settings(max_examples=50, deadline=None)
def test_full_edit_distance_agrees(a, b):
    d, ops = full_edit_distance(a, b)
    assert d == edit_distance(a, b)
    assert d == sum(op != "M" for op in ops)


@given(words, words)
@settings(max_examples=50, deadline=None)
def test_lcs_align_covers_both_sequences(a, b):
    pairs = lcs_align(a, b)
    assert [i for i, _ in pairs if i is not None] == list(range(len(a)))
    assert [j for _, j in pairs if j is not None] == list(range(len(b)))
    # matched pairs are monotone in both coordinates
    matched = [(i, j) for i, j in pairs if i is not None and j is not None]
    assert matched == sorted(matched)


def ref_align(a, b):
    """Unit-cost edit distance and alignment by the plain O(n·m) DP,
    backtraced in the order diagonal > delete > insert."""
    n, m = len(a), len(b)
    dp = [[i + j if i == 0 or j == 0 else 0 for j in range(m + 1)]
          for i in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            dp[i][j] = min(dp[i - 1][j] + 1, dp[i][j - 1] + 1,
                           dp[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    pairs, i, j = [], n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dp[i][j] == dp[i - 1][j - 1] + (a[i - 1] != b[j - 1]):
            pairs.append((i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and dp[i][j] == dp[i - 1][j] + 1:
            pairs.append((i - 1, None))
            i -= 1
        else:
            pairs.append((None, j - 1))
            j -= 1
    return dp[n][m], pairs[::-1]


# 1-3 symbol alphabets: nearly every cell ties, so the tie order shows
tied = st.integers(min_value=1, max_value=3).flatmap(
    lambda k: st.lists(st.sampled_from("abc"[:k]), max_size=40))


@given(tied, tied)
@settings(max_examples=300, deadline=None)
def test_lcs_align_and_edit_distance_match_plain_dp(a, b):
    dist, pairs = ref_align(a, b)
    assert lcs_align(a, b) == pairs
    assert edit_distance(a, b) == dist
    assert edit_distance("".join(a), "".join(b)) == dist


@pytest.mark.parametrize("alphabet,longest", [("ab", 5), ("abc", 3)])
def test_lcs_align_matches_plain_dp_exhaustively(alphabet, longest):
    """Every pair of short strings: a tie order differing in a few
    percent of pairs shows here whatever the hypothesis draw."""
    strings = [s for n in range(longest + 1)
               for s in itertools.product(alphabet, repeat=n)]
    for a in strings:
        for b in strings:
            dist, pairs = ref_align(a, b)
            assert lcs_align(a, b) == pairs, (a, b)
            assert edit_distance(a, b) == dist, (a, b)


@given(words, words)
@settings(max_examples=100, deadline=None)
def test_lcs_align_matches_plain_dp_on_words(a, b):
    dist, pairs = ref_align(a, b)
    assert lcs_align(a, b) == pairs
    assert edit_distance(a, b) == dist


@pytest.mark.parametrize("a,b", [
    ([], []), (["x"], []), ([], ["x", "y"]),
    (list("abcab"), list("abcab")),          # identical
    (list("abc"), list("xyzw")),             # disjoint
    (list("aaaa"), list("aa")), (list("ab" * 9), list("ba" * 7)),
    ([str(i % 7) for i in range(70)], [str(i % 5) for i in range(65)]),  # > 64 rows
])
def test_lcs_align_edge_cases_match_plain_dp(a, b):
    dist, pairs = ref_align(a, b)
    assert lcs_align(a, b) == pairs
    assert edit_distance(a, b) == dist


def test_lcs_align_at_max_tokens_stays_small():
    """One alignment at ``MAX_ALIGN_TOKENS`` a side (the largest a vote
    runs) keeps 2·n bit columns, not an (n+1)² int matrix (61.5 MiB
    at int32): its traced peak stays under 16 MiB."""
    rng = random.Random(5)
    a = [f"w{rng.randrange(300)}" for _ in range(MAX_ALIGN_TOKENS)]
    b = [t if rng.random() < 0.9 else "noise" for t in a]
    tracemalloc.start()
    try:
        pairs = lcs_align(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == MAX_ALIGN_TOKENS
    assert peak < 16 * 2**20, peak


@given(words)
@settings(max_examples=50, deadline=None)
def test_align_vote_unanimous_is_identity(tokens):
    assert align_vote([tokens, list(tokens), list(tokens)]) == tokens


@given(words, words)
@settings(max_examples=50, deadline=None)
def test_align_vote_majority_wins(maj, minority):
    got = align_vote([maj, list(maj), minority], scores=[3.0, 2.0, 1.0])
    assert got == maj  # two identical candidates always win outright


@given(st.floats(allow_nan=False, allow_infinity=False, width=64,
                 min_value=-1e9, max_value=1e9),
       st.integers(min_value=0, max_value=6))
@settings(max_examples=100, deadline=None)
def test_round_like_sql_properties(x, d):
    r = round_like_sql(x, d)
    # never further than half a quantum, up to the double-precision ulp
    # of the value itself (at |x|≈2^26 an ulp is ~1.5e-8 — a fixed
    # 1e-9 slack is too tight for large magnitudes)
    slack = 1e-9 + 4.0 * np.spacing(abs(x) + 1.0)
    assert abs(r - x) <= 0.5 * 10.0 ** (-d) + slack
    assert round_like_sql(r, d) == r                      # idempotent
    assert round_like_sql(-x, d) == -r                    # odd function


@given(st.text(alphabet=string.ascii_lowercase + " ", min_size=1, max_size=80))
@settings(max_examples=40, deadline=None)
def test_minhash_deterministic_and_selfsim(text):
    a, b = _perm_params()
    s1 = minhash_signature(shingle_hashes(text), a, b)
    s2 = minhash_signature(shingle_hashes(text), a, b)
    assert (s1 == s2).all()


@given(st.text(alphabet=string.ascii_lowercase + " ", min_size=1, max_size=80))
@settings(max_examples=40, deadline=None)
def test_simhash_deterministic(text):
    assert simhash64(text) == simhash64(text)
    assert 0 <= simhash64(text) < 1 << 64


def test_simhash_similar_texts_close():
    base = " ".join(f"tok{i}" for i in range(100))
    near = base.replace("tok5", "zzz")
    far = " ".join(f"other{i}" for i in range(100))
    h = lambda t: np.uint64(simhash64(t))  # noqa: E731
    ham = lambda x, y: bin(int(x) ^ int(y)).count("1")  # noqa: E731
    assert ham(h(base), h(near)) < ham(h(base), h(far))


@given(st.lists(st.text(alphabet="ab", min_size=1, max_size=3),
                min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_winnow_subset_of_shingle_space(tokens):
    fp = winnow_fingerprint(tokens)
    assert fp == sorted(set(fp))  # sorted, unique
    fp2 = winnow_fingerprint(list(tokens))
    assert fp == fp2  # deterministic


def test_winnow_containment():
    a = [f"t{i}" for i in range(60)]
    b = a[:30] + ["x"] + a[30:]  # near-identical doc
    fa, fb = set(winnow_fingerprint(a)), set(winnow_fingerprint(b))
    overlap = len(fa & fb) / len(fa | fb)
    assert overlap > 0.5


@given(st.floats(allow_nan=False, allow_infinity=False, width=64,
                 min_value=-1e8, max_value=1e8),
       st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_round_like_sql_matches_duckdb_live(x, d):
    import duckdb

    got = round_like_sql(x, d)
    want = duckdb.sql(f"SELECT ROUND(CAST({x!r} AS DOUBLE), {d})").fetchone()[0]
    assert got == want, (x, d, got, want)


@given(st.lists(st.sampled_from(
    [f"w{i}" for i in range(60)] + ["(p)", ")q(", "a\\b", "ü", "—", "€"]
), min_size=1, max_size=250))
@settings(max_examples=120, deadline=None)
def test_pdf_both_dialects_roundtrip_property(tokens):
    """Any token text survives both PDF dialects byte-exactly:
    paragraphs → (plain | FlateDecode) pdf bytes → parsed blocks →
    space-join == original text."""
    from nidaba_ray import synth
    from nidaba_ray.stages.pdf import extract_pdf_blocks

    text = " ".join(tokens)
    for maker in (synth.make_pdf, synth.make_pdf_flate):
        got = " ".join(extract_pdf_blocks(maker(7, text)))
        assert got == text, maker.__name__


@given(st.lists(st.sampled_from(
    [f"w{i}" for i in range(60)] + ["(p)", ")q(", "a\\b", "ü", "—", "€"]
), min_size=1, max_size=250), st.integers(min_value=0, max_value=5000))
@settings(max_examples=120, deadline=None)
def test_pdf_inline_image_skipped_property(tokens, doc_id):
    """An inline image (BI…ID <binary> EI, spec §8.9.7) whose payload
    contains adversarial token-like bytes — `(DECOY) Tj`, an unbalanced
    paren, a bare BT — never leaks into extracted text: the dialect
    extracts byte-identically to the image-free plain dialect."""
    from nidaba_ray import synth
    from nidaba_ray.stages.pdf import extract_pdf_blocks

    text = " ".join(tokens)
    got = extract_pdf_blocks(synth.make_pdf_inline_img(doc_id, text))
    want = extract_pdf_blocks(synth.make_pdf(doc_id, text))
    assert got == want
    assert "DECOY" not in " ".join(got)


def test_pdf_inline_image_bare_ei_and_truncated():
    """An encoder may butt EI against the image data with no preceding
    whitespace — text AFTER such an image must survive. A truncated
    image (no EI before EOF) drops only the (empty) remainder."""
    from nidaba_ray.stages.pdf import extract_pdf_blocks

    def wrap(body: bytes) -> bytes:
        return (
            b"%PDF-1.4\n3 0 obj << /Length " + str(len(body)).encode()
            + b" >> stream\n" + body + b"\nendstream endobj\n%%EOF\n"
        )

    bare = wrap(
        b"BT (before) Tj ET\n"
        b"BI /W 2 /H 2 /BPC 8 ID \x00\x01\x02(decoyEI\n"   # bare EI
        b"BT (after) Tj ET"
    )
    assert extract_pdf_blocks(bare) == ["before", "after"]

    truncated = wrap(
        b"BT (before) Tj ET\nBI /W 2 /H 2 /BPC 8 ID \x00\x01\x02nope"
    )
    assert extract_pdf_blocks(truncated) == ["before"]

    # a corrupt/false-positive bare BI with NO ID anywhere after it is
    # an unknown operator, not an image — later text must survive
    # (previously the whole stream remainder was dropped)
    bare_bi = wrap(b"BT (before) Tj ET\nBI\nBT (after) Tj ET")
    assert extract_pdf_blocks(bare_bi) == ["before", "after"]


@given(st.lists(st.sampled_from(
    [f"w{i}" for i in range(40)]
    + ["(p)", ")q(", "a\\b", "ü", "—", "€", "北京", "مرحبا", "Ωμέγα",
       "ёлка", "😀🎉", "𝕏y", "naïve"]
), min_size=1, max_size=250))
@settings(max_examples=120, deadline=None)
def test_pdf_utf16_cmap_roundtrip_property(tokens):
    """Any token text — ASCII, BMP non-Latin, RTL, surrogate-pair
    astral chars — survives the composite-font dialect byte-exactly:
    ToUnicode CMap (bfchar + incrementing + array bfranges) hex shows
    plus BOM'd UTF-16BE literal lines → parsed blocks → space-join ==
    original text."""
    from nidaba_ray import synth
    from nidaba_ray.stages.pdf import extract_pdf_blocks

    text = " ".join(tokens)
    for doc_id in (3, 7):  # different paragraph chunking + line mixes
        got = " ".join(extract_pdf_blocks(synth.make_pdf_utf16(doc_id, text)))
        assert got == text


@given(st.lists(st.sampled_from(
    [f"w{i}" for i in range(40)]
    + ["(p)", ")q(", "a\\b", "ü", "—", "€", "café", "«q»", "¿qué?",
       "ёлка", "😀", "naïve"]
), min_size=1, max_size=250))
@settings(max_examples=100, deadline=None)
def test_pdf_differences_roundtrip_property(tokens):
    """Any token text within a 128-char non-ASCII alphabet survives
    the simple-font /Differences dialect byte-exactly (byte codes →
    uniXXXX glyph names → unicode, ASCII base passthrough)."""
    from nidaba_ray import synth
    from nidaba_ray.stages.pdf import extract_pdf_blocks

    text = " ".join(tokens)
    got = " ".join(extract_pdf_blocks(synth.make_pdf_diff(7, text)))
    assert got == text


def test_differences_named_glyphs_and_limits():
    """AGL named glyphs, algorithmic uniXXXX/uXXXX forms, unknown
    names, and the 128-code capacity guard."""
    import pytest as _pytest

    from nidaba_ray import synth
    from nidaba_ray.stages.pdf import (
        _glyph_to_unicode,
        extract_pdf_blocks,
        parse_differences,
    )

    assert _glyph_to_unicode("adieresis") == "ä"
    assert _glyph_to_unicode("Euro") == "€"
    assert _glyph_to_unicode("uni00E9") == "é"
    assert _glyph_to_unicode("uniD83DDE00") == "😀"  # surrogate pair
    assert _glyph_to_unicode("u1F600") == "😀"
    assert _glyph_to_unicode("notaglyphname") == "�"
    d = parse_differences(
        b"<< /Differences [ 128 /Euro /adieresis 200 /uni4E2D ] >>"
    )
    assert d == {128: "€", 129: "ä", 200: "中"}
    # hand-built pdf with NAMED glyphs (not uniXXXX) decodes too
    pdf = (
        b"%PDF-1.4\n"
        b"5 0 obj << /Type /Font /Encoding << /Differences "
        b"[ 128 /Euro /adieresis /quotedblleft ] >> >> endobj\n"
        b"3 0 obj << /Length 34 >> stream\n"
        b"BT (cost \\200 for \\201 and \\202x) Tj ET\n"
        b"endstream endobj\n%%EOF\n"
    )
    assert extract_pdf_blocks(pdf) == ["cost € for ä and “x"]
    with _pytest.raises(ValueError):
        synth.make_pdf_diff(1, "".join(chr(0x100 + i) for i in range(200)))


@given(st.lists(st.sampled_from(
    [f"w{i}" for i in range(40)]
    + ["(p)", ")q(", "a\\b", "ü", "—", "€", "北京", "😀", "café"]
), min_size=1, max_size=200))
@settings(max_examples=80, deadline=None)
def test_pdf_twofont_roundtrip_property(tokens):
    """Two composite fonts with OVERLAPPING code spaces, switched by
    Tf mid-line, round-trip byte-exactly — only true with genuine
    per-font CMap resolution."""
    from nidaba_ray import synth
    from nidaba_ray.stages.pdf import extract_pdf_blocks

    text = " ".join(tokens)
    got = " ".join(extract_pdf_blocks(synth.make_pdf_twofont(7, text)))
    assert got == text


def test_twofont_requires_per_font_resolution(monkeypatch):
    """The two-font dialect is UNDECODABLE by the merged document-level
    map (codes collide) — proves Tf switching does real work."""
    from nidaba_ray import synth
    from nidaba_ray.stages import pdf as P

    doc = synth.make_pdf_twofont(7, "abcdef")
    assert " ".join(P.extract_pdf_blocks(doc)) == "abcdef"
    monkeypatch.setattr(P, "_font_maps", lambda objs, streams, members: {})
    merged = " ".join(P.extract_pdf_blocks(doc))
    assert merged != "abcdef"  # collision under the fallback


def test_rc4_known_answer():
    """Public RC4 test vectors pin the cipher independently of the
    writer (synth) and reader (pdf) sharing primitives."""
    from nidaba_ray.stages.pdf import _rc4

    assert _rc4(b"Key", b"Plaintext") == bytes.fromhex("BBF316E8D940AF0AD3")
    assert _rc4(b"Wiki", b"pedia") == bytes.fromhex("1021BF0420")
    assert _rc4(b"Secret", b"Attack at dawn") == bytes.fromhex(
        "45A01F645FC35B383552544B9BF5"
    )


# ISO 32000-1 §7.6.3.3, Algorithm 2 step a): the 32-byte password
# padding string, typed from the spec rather than imported.
SPEC_PAD = bytes.fromhex(
    "28BF4E5E4E758A4164004E56FFFA01082E2E00B6D0683E80"
    "2F0CA9FE6453697A"
)


def test_pdf_key_derivation_matches_spec_algorithms():
    """The parser's key derivation against the spec's algorithms,
    recomputed here with hashlib (and the FIPS-197-pinned AES for
    2.B). synth's encrypted PDFs call the same parser functions, so a
    wrong padding byte or a dropped salt would still round-trip; only
    an independent derivation catches it."""
    import hashlib

    from nidaba_ray.algorithms.aes import encrypt_cbc
    from nidaba_ray.stages.pdf import (
        _PAD,
        _aes_obj_key,
        _hash_2b,
        _obj_key,
        _std_file_key,
    )

    assert _PAD == SPEC_PAD
    O = hashlib.sha256(b"owner entry").digest()   # any 32-byte /O
    P = -1044                                      # /P, signed 32-bit
    id0 = hashlib.md5(b"first /ID").digest()

    # Algorithm 2, empty user password: md5(pad ‖ O ‖ P as 4-byte LE
    # unsigned ‖ ID[0]); R ≥ 3 rehashes the first n bytes 50 times
    h = hashlib.md5(SPEC_PAD + O + (P % 2**32).to_bytes(4, "little")
                    + id0).digest()
    r2 = h[:5]                                     # R2 is always 40-bit
    r3 = h
    for _ in range(50):
        r3 = hashlib.md5(r3[:16]).digest()
    assert _std_file_key(O, P, id0, 2, 40) == r2
    assert _std_file_key(O, P, id0, 3, 128) == r3[:16]

    # Algorithm 1: md5(file key ‖ low 3 bytes of the object number ‖
    # low 2 bytes of the generation, both LE [‖ "sAlT" for AESV2]),
    # truncated to n + 5 bytes, at most 16
    num, gen = 0x0ABCDE, 7
    for key in (r2, r3[:16]):
        tail = num.to_bytes(3, "little") + gen.to_bytes(2, "little")
        rc4_key = hashlib.md5(key + tail).digest()[:min(len(key) + 5, 16)]
        aes_key = hashlib.md5(key + tail + b"\x73\x41\x6c\x54").digest()
        assert _obj_key(key, num, gen) == rc4_key
        assert _aes_obj_key(key, num, gen) == aes_key[:min(len(key) + 5, 16)]

    # ISO 32000-2 Algorithm 2.B: SHA-256 seed, then rounds of
    # AES-128-CBC over 64 × (pwd ‖ K ‖ udata) keyed by K[:16], IV
    # K[16:32]; E[:16] as a big-endian integer mod 3 picks SHA-256/384/
    # 512 for the next K; stop after round 64 or later once E's last
    # byte ≤ rounds done − 32
    def hash_2b(pwd: bytes, salt: bytes, udata: bytes) -> bytes:
        k = hashlib.sha256(pwd + salt + udata).digest()
        rounds, e = 0, b"\xff"
        while rounds < 64 or e[-1] > rounds - 32:
            e = encrypt_cbc(k[:16], k[16:32], (pwd + k + udata) * 64)
            algo = ("sha256", "sha384", "sha512")[
                int.from_bytes(e[:16], "big") % 3]
            k = hashlib.new(algo, e).digest()
            rounds += 1
        return k[:32]

    salt = bytes(range(8))
    for pwd, udata in ((b"", b""), (b"owner", bytes(range(48)))):
        assert _hash_2b(pwd, salt, udata) == hash_2b(pwd, salt, udata)


def test_pdf_aes256_r5_file_key_known_answer():
    """R 5 (the pre-ISO AESV3 draft): /U is SHA-256(validation salt) ‖
    validation salt ‖ key salt, and /UE wraps the file key under
    AES-256-CBC with key SHA-256(key salt) and a zero IV. Built here
    with hashlib and the FIPS-197-pinned cipher, not with the parser's
    own helpers; a tampered /U validates nothing."""
    import hashlib

    from nidaba_ray.algorithms.aes import encrypt_cbc
    from nidaba_ray.stages.pdf import _aes_file_key_v5

    fkey = hashlib.sha256(b"file key").digest()
    vsalt, ksalt = b"vsalt-01", b"ksalt-02"
    U = hashlib.sha256(vsalt).digest() + vsalt + ksalt
    UE = encrypt_cbc(hashlib.sha256(ksalt).digest(), bytes(16), fkey)

    def enc(u: bytes) -> bytes:
        return (b"<< /Filter /Standard /V 5 /R 5 /U <" + u.hex().encode()
                + b"> /UE <" + UE.hex().encode() + b"> >>")

    assert _aes_file_key_v5(enc(U), 5) == fkey
    tampered = bytes([U[0] ^ 1]) + U[1:]
    assert _aes_file_key_v5(enc(tampered), 5) is None


@given(st.lists(st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz()\\%<>", min_size=1, max_size=20
), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_pdf_rc4_roundtrip_property(tokens):
    """RC4-encrypted payloads extract byte-identically to the plain
    dialect they wrap (V2/R3 128-bit, empty user password)."""
    from nidaba_ray import synth
    from nidaba_ray.stages.pdf import extract_pdf_blocks

    text = " ".join(tokens)
    enc = extract_pdf_blocks(synth.make_pdf_rc4(7, text))
    plain = extract_pdf_blocks(synth.make_pdf(7, text))
    assert enc == plain


def test_pdf_rc4_revisions_and_rejections():
    """40-bit V1/R2 decrypts too; wrong password, unsupported
    versions, and malformed /O all yield no text (never mojibake)."""
    import re as _re

    from nidaba_ray import synth
    from nidaba_ray.stages.pdf import extract_pdf_blocks

    text = "guarded content paragraph " * 4
    plain = extract_pdf_blocks(synth.make_pdf(9, text))
    assert extract_pdf_blocks(synth.make_pdf_rc4(9, text, rev=2)) == plain
    doc = synth.make_pdf_rc4(9, text, rev=3)
    assert extract_pdf_blocks(doc) == plain
    # tampered /U == wrong user password
    assert extract_pdf_blocks(
        _re.sub(rb"/U <([0-9a-f]{4})", rb"/U <ffff", doc)) == []
    # AES-era version markers are out of scope -> no text
    assert extract_pdf_blocks(doc.replace(b"/V 2 /R 3", b"/V 4 /R 4")) == []
    # truncated /O
    assert extract_pdf_blocks(
        _re.sub(rb"/O <[0-9a-f]+>", rb"/O <abcd>", doc)) == []


def test_aes_fips_known_answers():
    """FIPS-197 Appendix C vectors pin the generated tables and the
    T-table round function for all three key sizes, independently of
    the writer (synth) and reader (pdf) sharing primitives."""
    from nidaba_ray.algorithms import aes

    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    cases = [
        ("000102030405060708090a0b0c0d0e0f",
         "69c4e0d86a7b0430d8cdb78070b4c55a"),
        ("000102030405060708090a0b0c0d0e0f1011121314151617",
         "dda97ca4864cdfe06eaf70a0ec0d7191"),
        ("000102030405060708090a0b0c0d0e0f"
         "101112131415161718191a1b1c1d1e1f",
         "8ea2b7ca516745bfeafc49904b496089"),
    ]
    for key_hex, ct_hex in cases:
        rks = aes.expand_key(bytes.fromhex(key_hex))
        assert aes.encrypt_block(rks, pt).hex() == ct_hex


@given(st.binary(min_size=0, max_size=300),
       st.sampled_from([16, 24, 32]))
@settings(max_examples=60, deadline=None)
def test_aes_cbc_roundtrip_property(data, klen):
    """Vectorized CBC decrypt inverts the scalar encrypt for every key
    size; padding strips exactly; corrupt padding returns None."""
    import hashlib

    from nidaba_ray.algorithms import aes

    key = hashlib.sha256(b"k" + data).digest()[:klen]
    iv = hashlib.md5(b"iv" + data).digest()
    ct = aes.encrypt_cbc(key, iv, aes.pad16(data))
    assert aes.decrypt_cbc(key, iv, ct) == data
    assert aes.decrypt_cbc(key, iv, ct, unpad=False) == aes.pad16(data)
    # deterministic bad padding: 0x00 and 17 are never valid pad bytes
    for bad in (b"\x00", b"\x11"):
        ct_bad = aes.encrypt_cbc(key, iv, b"A" * 15 + bad)
        assert aes.decrypt_cbc(key, iv, ct_bad) is None
    assert aes.decrypt_cbc(key, iv, ct[:-1]) is None  # misaligned


@given(st.lists(st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz()\\%<>", min_size=1, max_size=20
), min_size=1, max_size=40))
@settings(max_examples=25, deadline=None)
def test_pdf_aes_roundtrip_property(tokens):
    """AES-encrypted payloads (AESV2 128-bit and AESV3 256-bit R5)
    extract byte-identically to the plain dialect they wrap."""
    from nidaba_ray import synth
    from nidaba_ray.stages.pdf import extract_pdf_blocks

    text = " ".join(tokens)
    plain = extract_pdf_blocks(synth.make_pdf(7, text))
    assert extract_pdf_blocks(synth.make_pdf_aes(7, text)) == plain
    assert extract_pdf_blocks(
        synth.make_pdf_aes256(7, text, rev=5)) == plain


def test_pdf_aes_revisions_and_rejections():
    """R6's hardened Algorithm-2.B KDF decrypts (single doc — the hash
    costs ~1s by design); tampering and non-standard routing yield no
    text (never mojibake): bad /U hash, truncated /UE, streams routed
    to a non-StdCF crypt filter. A V4 RC4 crypt filter (/CFM /V2)
    decrypts via the non-sAlT object key."""
    import re as _re

    from nidaba_ray import synth
    from nidaba_ray.stages.pdf import extract_pdf_blocks

    text = "guarded content paragraph " * 4
    plain = extract_pdf_blocks(synth.make_pdf(9, text))
    assert extract_pdf_blocks(synth.make_pdf_aes256(9, text, rev=6)) == plain

    doc5 = synth.make_pdf_aes256(9, text, rev=5)
    assert extract_pdf_blocks(doc5) == plain
    # tampered /U validation hash == wrong user password
    assert extract_pdf_blocks(
        _re.sub(rb"/U <([0-9a-f]{4})", rb"/U <ffff", doc5)) == []
    # truncated /UE cannot unwrap a 32-byte file key
    assert extract_pdf_blocks(
        _re.sub(rb"/UE <[0-9a-f]+>", rb"/UE <abcd>", doc5)) == []

    doc2 = synth.make_pdf_aes(9, text)
    assert extract_pdf_blocks(doc2) == plain
    # streams routed to an unknown crypt filter -> refuse, no mojibake
    assert extract_pdf_blocks(
        doc2.replace(b"/StmF /StdCF", b"/StmF /MyCF")) == []

    # V4 + /CFM /V2: same R>=3 key material as the V2/R3 writer
    rc4 = synth.make_pdf_rc4(9, text, rev=3)
    v4 = rc4.replace(
        b"/V 2 /R 3 /Length 128",
        b"/V 4 /R 4 /Length 128 /CF << /StdCF << /CFM /V2 /Length 16"
        b" >> >> /StmF /StdCF /StrF /StdCF")
    assert v4 != rc4
    assert extract_pdf_blocks(v4) == plain


@given(st.binary(min_size=0, max_size=200), st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_pdf_kernels_never_raise_on_junk(junk, which):
    """Per-stream isolation contract: malformed CMaps / Differences /
    object structures degrade (skip or replacement chars), never
    raise — one corrupt object must not take down the document."""
    from nidaba_ray import synth
    from nidaba_ray.stages.pdf import (
        _font_maps,
        _objstm_members,
        _scan,
        extract_pdf_blocks,
        parse_differences,
        parse_tounicode_cmap,
    )

    parse_tounicode_cmap(junk)
    parse_tounicode_cmap(
        b"beginbfchar <1> <234> endbfchar beginbfrange <0> <5> ["
        + junk + b"] endbfrange")
    parse_differences(b"/Differences [ 12 /x " + junk + b" ]")
    objs, streams = _scan(junk)
    _font_maps(objs, streams, _objstm_members(streams))
    # splice the junk into a real two-font payload mid-file
    doc = bytearray(synth.make_pdf_twofont(3, "splice target text"))
    pos = min(len(doc) - 1, 40 + which * 150)
    doc[pos : pos + len(junk)] = junk
    extract_pdf_blocks(bytes(doc))


def test_tounicode_cmap_forms():
    """The CMap parser handles bfchar, incrementing bfrange, and
    array-form bfrange, flate or plain; BOM strings win over the CMap."""
    from nidaba_ray.stages.pdf import _decode_show, parse_tounicode_cmap

    body = b"""
    begincmap
    1 begincodespacerange <0000> <FFFF> endcodespacerange
    2 beginbfchar
    <0020> <0041>
    <0021> <D83DDE00>
    endbfchar
    2 beginbfrange
    <0030> <0032> <0061>
    <0040> <0041> [<00E9> <5317>]
    endbfrange
    endcmap
    """
    cm = parse_tounicode_cmap(body)
    assert cm[0x20] == "A"
    assert cm[0x21] == "\U0001F600"        # surrogate-pair destination
    assert (cm[0x30], cm[0x31], cm[0x32]) == ("a", "b", "c")
    assert cm[0x40] == "é" and cm[0x41] == "北"
    # 2-byte code stream through the map
    assert _decode_show(b"\x00\x20\x00\x30", cm) == "Aa"
    # BOM beats the CMap
    assert _decode_show(("\ufeff" + "Zü").encode("utf-16-be"), cm) == "Zü"


@given(st.binary(max_size=2048))
@settings(max_examples=200, deadline=None)
def test_pdf_parser_total_on_arbitrary_bytes(data):
    """extract_pdf_blocks is TOTAL: arbitrary bytes after the magic
    never raise — they yield a (possibly empty) block list. The
    quarantine contract upstream depends on this."""
    from nidaba_ray.stages.pdf import extract_pdf_blocks

    out = extract_pdf_blocks(b"%PDF-1.4\n" + data)
    assert isinstance(out, list)


@given(st.integers(min_value=0, max_value=10_000),
       st.lists(st.tuples(st.integers(min_value=0, max_value=5_000),
                          st.integers(min_value=0, max_value=255)),
                min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_pdf_parser_total_under_mutation(doc_id, flips):
    """Byte-flip fuzzing of every structured synth dialect (plain,
    flate, utf16/CMap, differences, two-font, rc4, aes): corrupting
    near-valid structure — lengths, filters, crypto dicts, font
    tables — must degrade to fewer/garbled blocks, never an
    exception."""
    from nidaba_ray import synth
    from nidaba_ray.stages.pdf import extract_pdf_blocks

    text = "alpha beta gamma delta epsilon zeta"
    makers = [synth.make_pdf, synth.make_pdf_flate, synth.make_pdf_utf16,
              synth.make_pdf_diff, synth.make_pdf_twofont,
              synth.make_pdf_rc4, synth.make_pdf_aes,
              synth.make_pdf_inline_img]
    maker = makers[doc_id % len(makers)]
    buf = bytearray(maker(doc_id, text))
    for pos, val in flips:
        buf[pos % len(buf)] = val
    out = extract_pdf_blocks(bytes(buf))
    assert isinstance(out, list)


def test_pdf_odd_hex_digit_corruption_is_total():
    """Regression (review find): a flipped byte inside an encrypted
    dialect's /O, /U or /ID hex string leaves an odd digit count;
    bytes.fromhex must get the spec's trailing-zero pad, not raise,
    or one corrupt PDF kills a whole extraction map task."""
    from nidaba_ray import synth
    from nidaba_ray.stages.pdf import extract_pdf_blocks

    buf = bytearray(synth.make_pdf_rc4(5, "alpha beta gamma delta"))
    buf[279] = 9  # tab inside the /O <…> hex string
    assert isinstance(extract_pdf_blocks(bytes(buf)), list)
    # corrupt the /ID hex string specifically (second fromhex site)
    base = synth.make_pdf_rc4(7, "alpha beta")
    idx = base.find(b"/ID")
    assert idx > 0
    b2 = bytearray(base)
    b2[idx + 6] = 0x20  # a digit becomes a space → odd count remains
    assert isinstance(extract_pdf_blocks(bytes(b2)), list)


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=400),
       st.integers(min_value=2, max_value=8))
def test_gif_lzw_roundtrip(data, min_code):
    """GIF LZW decode ∘ encode is the identity for every alphabet
    width the spec allows (symbols clamped into the code space)."""
    from nidaba_ray.algorithms.gif import _lzw_decode, _lzw_encode

    arr = (np.frombuffer(data, dtype=np.uint8)
           % (1 << min_code)).astype(np.uint8)
    enc = _lzw_encode(arr, min_code)
    out = _lzw_decode(enc, min_code, len(arr))
    assert np.array_equal(out, arr)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=24),
       st.integers(min_value=1, max_value=24),
       st.booleans(), st.integers(min_value=0, max_value=2**32 - 1))
def test_gif_gray_roundtrip_property(w, h, interlace, seed):
    """Full-file GIF roundtrip across arbitrary shapes and both
    interlace modes (the grayscale identity palette makes every
    channel the original index)."""
    from nidaba_ray.algorithms.gif import decode_gif, encode_gif

    img = np.random.default_rng(seed).integers(
        0, 256, size=(h, w), dtype=np.uint8)
    frames = decode_gif(encode_gif(img, interlace=interlace))
    assert frames.shape == (1, h, w, 3)
    assert np.array_equal(frames[0, :, :, 0], img)


# ---- whitespace collapse: str.split is re's Unicode \s -----------------

def test_re_unicode_whitespace_is_str_isspace():
    """``segment`` collapses whitespace with ``" ".join(s.split())``;
    that equals the regex collapse only if ``\\s`` and ``str.isspace``
    are one predicate. Checked over every code point."""
    import re
    import sys

    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


@given(st.text(alphabet=st.sampled_from(
    list("ab \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000"
         "\u2028\u2029\u200b\u3000\ufeff")), max_size=40))
@settings(max_examples=300, deadline=None)
def test_split_join_collapse_equals_regex_collapse(s):
    import re

    assert " ".join(s.split()) == re.sub(r"\s+", " ", s).strip()
