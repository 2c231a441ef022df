"""PII scrubbing, Gopher repetition metrics, blocklist gates and
keep-best exact dedup — test-level DuckDB oracles (driver surface is
capped at 50; see docs/NEXT.md) plus hand-computed pins.

The synthetic corpora here are derived deterministically from the
sf0.001 documents table (no external data): PII tokens are injected
as pure functions of doc_id.
"""

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nidaba_ray.functions.scrub import (
    PII_PATTERNS,
    scrub_pii,
    scrub_sql_expr,
    scrub_text_column,
)
from nidaba_ray.functions.textops import _doc_repetition, repetition_metrics

SF = "/root/testdata/sf0.001"


def _pii_corpus(tmp_path):
    """documents.text with deterministic PII injected per doc_id."""
    docs = duckdb.connect().execute(
        f"SELECT doc_id, text FROM read_parquet('{SF}/documents.parquet')"
    ).fetch_arrow_table()
    ids = docs["doc_id"].to_pylist()
    texts = [
        f"{t} contact user{i}@example.com or {10 + i % 90}.0.{i % 256}.7 "
        f"call +1 (555) {100 + i % 900}-{1000 + i % 9000}"
        if i % 3 else t  # every third doc stays clean
        for i, t in zip(ids, docs["text"].to_pylist())
    ]
    out = pa.table({"doc_id": docs["doc_id"],
                    "text": pa.array(texts, pa.string())})
    d = tmp_path / "pii"
    d.mkdir()
    pq.write_table(out, d / "documents.parquet")
    return str(d)


def test_scrub_pii_matches_duckdb_oracle(ray_session, tmp_path):
    sf = _pii_corpus(tmp_path)
    mine = scrub_pii(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    ora = duckdb.connect().execute(
        f"SELECT doc_id, {scrub_sql_expr('text')} AS text "
        f"FROM read_parquet('{sf}/documents.parquet') ORDER BY doc_id"
    ).df()
    assert mine.equals(ora)
    # the scrub actually fired: placeholders present, raw PII gone
    joined = "\n".join(mine["text"])
    assert "<EMAIL>" in joined and "<IP>" in joined and "<PHONE>" in joined
    assert "@example.com" not in joined


def test_scrub_noop_on_clean_corpus(ray_session):
    """The real documents corpus carries no PII — scrub is identity."""
    mine = scrub_pii(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    ora = duckdb.connect().execute(
        f"SELECT doc_id, text FROM read_parquet('{SF}/documents.parquet') "
        f"ORDER BY doc_id"
    ).df()
    assert mine.equals(ora)


def test_scrub_kernel_edge_cases():
    texts = [
        "mail john.doe+x@sub.example.co.uk now",
        "server 10.0.255.3 and phone +1 (555) 123-4567 ok",
        "overlong 999.999.999.999 quad",
        "call 555-123-4567 or 5551234567 ip 1.2.3.4.5",
        "",
    ]
    got = scrub_text_column(pa.array(texts)).to_pylist()
    con = duckdb.connect()
    for t, g in zip(texts, got):
        (o,) = con.execute(
            f"SELECT {scrub_sql_expr('?')}", [t]
        ).fetchone()
        assert g == o
    assert got[0] == "mail <EMAIL> now"
    assert got[1] == "server <IP> and phone <PHONE> ok"


def test_repetition_metrics_hand_pins():
    # one repeated line out of three
    f = _doc_repetition("ab cd\nxy\nab cd")
    assert f[0] == pytest.approx(1 / 3)
    text = "ab cd ab cd zz"  # len 14; top 2-gram ("ab","cd")×2, 5 chars
    f = _doc_repetition(text)
    assert f[1] == pytest.approx(2 * 5 / 14)
    # no repeated 2-gram → 0.0, not the once-seen gram's mass
    assert _doc_repetition("aa bb cc")[1] == 0.0
    # dup 5-gram coverage, overlaps not double counted
    text = "a b c d e a b c d e"   # every token covered, len 19
    f = _doc_repetition(text)
    assert f[4] == pytest.approx(10 * 1 / 19)
    # short docs: fewer tokens than n → 0 everywhere but lines
    assert _doc_repetition("one")[1:] == (0.0, 0.0, 0.0, 0.0)


def test_repetition_metrics_corpus(ray_session):
    out = repetition_metrics(SF).to_pandas()
    assert len(out) == 500
    for c in ("dup_line_frac", "top2gram_char_frac", "top3gram_char_frac",
              "top4gram_char_frac", "dup5gram_char_frac"):
        v = out[c].to_numpy()
        assert (v >= 0).all() and np.isfinite(v).all()
    # single-line synthetic docs: no line dups by construction
    assert (out["dup_line_frac"] == 0).all()
    # the word-stream corpus genuinely repeats 2-grams
    assert (out["top2gram_char_frac"] > 0).any()
    # spot-check one row against the row kernel
    row = out.sort_values("doc_id").iloc[0]
    text = duckdb.connect().execute(
        f"SELECT text FROM read_parquet('{SF}/documents.parquet') "
        f"WHERE doc_id = 0").fetchone()[0]
    exp = np.round(np.array(_doc_repetition(text)), 6)
    got = row[["dup_line_frac", "top2gram_char_frac", "top3gram_char_frac",
               "top4gram_char_frac", "dup5gram_char_frac"]].to_numpy(float)
    assert np.allclose(got, exp)


# ------------------------------------- batch-vs-scalar repetition


def test_doc_repetition_batch_differential_fuzz():
    """The vectorized factorize→rolling-key cascade must reproduce
    the scalar Counter kernel BIT-exactly — including the
    lexicographically-largest tie-break, which compares token TUPLES
    (element-wise), not joined strings. The vocab therefore includes
    sub-space codepoints (\\x1f < ' '), empty tokens, prefixes of
    other tokens, embedded newlines/tabs and astral chars, and the
    low-cardinality alphabets force genuine count ties."""
    from nidaba_ray.functions.textops import (
        _doc_repetition,
        _doc_repetition_batch,
    )

    rng = np.random.default_rng(17)
    vocab_pools = [
        ["a", "b"],                           # max ties
        ["a", "a\x1f", "a!", "", "A"],        # sub-space tie-breaks
        ["x", "xy", "xyz", "x\ny", "x\tz"],   # prefixes + embedded ws
        ["α", "ß", "日本", "😀", "é"],   # non-ASCII / astral
        [f"w{i}" for i in range(40)],          # sparse, few repeats
    ]
    texts = []
    for trial in range(400):
        vocab = vocab_pools[trial % len(vocab_pools)]
        n = int(rng.integers(0, 60))
        toks = [vocab[int(k)] for k in rng.integers(0, len(vocab), n)]
        text = " ".join(toks)
        if rng.integers(0, 3) == 0:  # force duplicate lines too
            text = text + "\n" + text
        texts.append(text)
    texts += ["", " ", "  ", "\n", "\n\n", "a", " a ", "a b c d e",
              "\x1f \x1f \x1f \x1f \x1f \x1f \x1f \x1f \x1f \x1f"]
    got = _doc_repetition_batch(texts)
    # a batch where NO doc has any n-gram (all single-token docs):
    # every gram level is empty batch-wide (regression: empty lexsort)
    lonely = ["word", "a\nb\nc", "", "single"]
    assert np.array_equal(
        _doc_repetition_batch(lonely),
        np.array([_doc_repetition(t) for t in lonely], np.float64))
    want = np.array([_doc_repetition(t) for t in texts], np.float64)
    # bit-exact, not approx: the frozen-output contract
    mism = np.nonzero((got != want).any(axis=1))[0]
    assert mism.size == 0, (mism[:5], texts[mism[0]] if mism.size else "")


def test_doc_repetition_batch_tiebreak_tuple_not_joined():
    """A hand-built case where token-tuple order and joined-string
    order disagree: ("a",) vs ("a\\x1fb",) — as tuples "a\\x1fb" is
    larger (prefix rule), as joined strings the \\x1f sorts below the
    separator space. Both 2-grams occur exactly twice, so the
    tie-break decides the reported mass."""
    from nidaba_ray.functions.textops import (
        _doc_repetition,
        _doc_repetition_batch,
    )

    # 2-grams: ("a","z") ×2 and ("a\x1fb","z") ×2 → tie on count.
    # tuple-largest is ("a\x1fb","z") (len 5+1 chars + 1 sep).
    text = "a z a\x1fb z a z a\x1fb z"
    want = _doc_repetition(text)
    got = _doc_repetition_batch([text])[0]
    assert tuple(got) == want
    # and the winner really is the longer gram: mass uses 6+1 chars
    assert want[1] == 2 * (len("a\x1fb") + len("z") + 1) / len(text)


def test_doc_repetition_batch_independence_of_batching():
    """Batch layout must not leak between docs: per-doc values are
    identical whether docs are scored alone or together (gram ids are
    shared across the batch, counts must stay doc-scoped)."""
    from nidaba_ray.functions.textops import _doc_repetition_batch

    a = "p q p q p q r s t u"
    b = "p q x y z w v u t s"
    both = _doc_repetition_batch([a, b])
    alone = np.vstack([_doc_repetition_batch([a]),
                       _doc_repetition_batch([b])])
    assert np.array_equal(both, alone)


# ------------------------------------------------- blocklist gates


def test_blocklist_word_boundaries_and_case():
    from nidaba_ray.functions.scrub import blocklist_filter_batch

    t = pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": pa.array([
            "a clean document about harbors.",
            "this mentions casino once.",          # exact token → drop
            "CASINO in caps still hits.",          # case-folded → drop
            "casinos is a DIFFERENT token.",       # substring ≠ word
            "line break then\ncasino alone.",      # \n is a boundary
            "casino\xa0glued is ONE token.",   # NBSP is NOT ASCII ws
        ], pa.string()),
    })
    out = blocklist_filter_batch(t)
    assert out["doc_id"].to_pylist() == [0, 3, 5]
    # custom list via kwarg (the registry fn_kwargs path)
    out2 = blocklist_filter_batch(t, words=("harbors.",))
    assert 0 not in out2["doc_id"].to_pylist()


def test_blocklist_sql_parity(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from nidaba_ray.functions.scrub import blocklist_filtered, blocklist_sql

    rng = np.random.default_rng(23)
    vocab = ["alpha", "beta", "casino", "Casino", "casinos", "ünïcode",
             "badword", "x.y", "gamma d", "δelta"]
    texts = [" ".join(vocab[int(k)] for k in
                      rng.integers(0, len(vocab), int(rng.integers(0, 12))))
             for _ in range(200)]
    t = pa.table({"doc_id": pa.array(range(200), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    ours = blocklist_filtered(str(tmp_path)).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    theirs = con.execute(blocklist_sql()).fetchdf().sort_values(
        "doc_id").reset_index(drop=True)
    assert ours["doc_id"].tolist() == theirs["doc_id"].tolist()
    assert ours["text"].tolist() == theirs["text"].tolist()
    assert 0 < len(ours) < 200  # both outcomes happen


def test_url_blocklist_gate():
    from nidaba_ray.functions.scrub import url_blocklist_filter_batch

    urls = [
        "https://news.example/story/1",        # keep
        "https://spam.example/offer",          # exact domain → drop
        "https://www.spam.example/deep/path",  # subdomain → drop
        "http://ADS.EXAMPLE:8080/banner",      # case + port → drop
        "https://notspam.example/article",     # lookalike suffix → keep
        "https://spam.example.org/else",       # different TLD → keep
        "ftp://a.b.ads.example",               # bare host, deep sub → drop
    ]
    t = pa.table({"url": pa.array(urls, pa.string()),
                  "x": pa.array(range(len(urls)), pa.int64())})
    out = url_blocklist_filter_batch(t)
    assert out["x"].to_pylist() == [0, 4, 5]
    # DuckDB predicate agrees row-for-row
    from nidaba_ray.functions.scrub import url_blocklist_sql_expr

    con = duckdb.connect()
    con.register("u", t)
    keep = con.execute(
        f"SELECT x FROM u WHERE {url_blocklist_sql_expr()} ORDER BY x"
    ).fetchdf()["x"].tolist()
    assert keep == [0, 4, 5]


def test_blocklist_registry_stages(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import ray.data as rd

    from nidaba_ray.stages import registry

    assert {"clean.blocklist", "clean.url_blocklist"} <= set(
        registry.list_stages())
    t = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "url": pa.array(["https://ok.example/a",
                         "https://spam.example/b"], pa.string()),
        "text": pa.array(["fine prose here.", "casino casino."],
                         pa.string()),
    })
    pq.write_table(t, str(tmp_path / "p.parquet"))
    out = registry.compile_pipeline(
        rd.read_parquet(str(tmp_path / "p.parquet")),
        [{"stage": "clean.url_blocklist"},
         {"stage": "clean.blocklist"}]).to_pandas()
    assert out["doc_id"].tolist() == [1]
    # fn_kwargs carries a custom list through the spec
    out2 = registry.compile_pipeline(
        rd.read_parquet(str(tmp_path / "p.parquet")),
        [{"stage": "clean.blocklist",
          "fn_kwargs": {"words": ["prose"]}}]).to_pandas()
    assert out2["doc_id"].tolist() == [2]


def test_repetition_full_sql_oracle(ray_session, tmp_path):
    """ALL five repetition signals replayed in DuckDB — counting,
    largest-tuple tie-break and dup-5 coverage — over both the real
    corpus and an adversarial multi-line corpus. The SQL emits exact
    integer numerators/denominators; the same float divisions run on
    both sides, so equality is bit-exact."""
    from nidaba_ray.functions.textops import repetition_oracle_sql

    rng = np.random.default_rng(29)
    vocab = ["a", "b", "ab", "a\x1fb", "", "xy", "é", "w1", "w2"]
    texts = []
    for i in range(150):
        n = int(rng.integers(0, 40))
        toks = [vocab[int(k)] for k in rng.integers(0, len(vocab), n)]
        t = " ".join(toks)
        if i % 3 == 0:
            t = t + "\n" + t  # duplicate lines
        texts.append(t)
    for name, table in (
        ("real", duckdb.connect().execute(
            f"SELECT doc_id, text FROM read_parquet("
            f"'{SF}/documents.parquet')").fetch_arrow_table()),
        ("adversarial", pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string())})),
    ):
        d = tmp_path / name
        d.mkdir()
        pq.write_table(table, d / "documents.parquet")
        ours = repetition_metrics(str(d)).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{d}/documents.parquet')")
        raw = con.execute(repetition_oracle_sql()).df()
        assert raw["doc_id"].tolist() == ours["doc_id"].tolist(), name
        exp = {
            "dup_line_frac": raw.dup_lines.to_numpy() / raw.n_lines.to_numpy(),
            "top2gram_char_frac": raw.top2_num.to_numpy() / raw.total.to_numpy(),
            "top3gram_char_frac": raw.top3_num.to_numpy() / raw.total.to_numpy(),
            "top4gram_char_frac": raw.top4_num.to_numpy() / raw.total.to_numpy(),
            "dup5gram_char_frac": raw.dup5_chars.to_numpy() / raw.total.to_numpy(),
        }
        for col, v in exp.items():
            same = ours[col].to_numpy() == np.round(v, 6)
            assert same.all(), (name, col, np.nonzero(~same)[0][:5])
        if name == "adversarial":  # signals genuinely fire here
            assert (exp["dup_line_frac"] > 0).any()
            assert (exp["top2gram_char_frac"] > 0).any()
            assert (exp["dup5gram_char_frac"] > 0).any()


def test_exact_dedup_keep_best_matches_sql_window(ray_session):
    """Quality-aware canonical pick ≡ the DuckDB window (n_tokens
    desc, doc_id asc per md5 cluster) over a crafted corpus with a
    real quality spread inside one near-cluster and exact duplicates."""
    import tempfile

    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from nidaba_ray.functions.dedup import (
        EXACT_DEDUP_KEEP_BEST_SQL,
        exact_dedup_keep_best,
    )

    docs = [
        (1, "alpha beta gamma"),
        (2, "alpha beta gamma"),          # exact dup of 1 (tie → min id)
        (7, "alpha beta gamma"),          # third copy
        (3, "unique short"),
        (4, "another unique document with more words"),
    ]
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(
            pa.table({"doc_id": pa.array([x[0] for x in docs], pa.int64()),
                      "text": pa.array([x[1] for x in docs], pa.string())}),
            f"{d}/documents.parquet")
        got = (exact_dedup_keep_best(d).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{d}/documents.parquet')")
        want = (con.execute(EXACT_DEDUP_KEEP_BEST_SQL).fetchdf()
                .sort_values("doc_id").reset_index(drop=True))
        assert got["doc_id"].tolist() == want["doc_id"].tolist()
        assert got["canonical_id"].tolist() == want["canonical_id"].tolist()
        by = dict(zip(got["doc_id"], got["canonical_id"]))
        assert by[1] == by[2] == by[7] == 1
        assert by[3] == 3 and by[4] == 4


def test_exact_dedup_keep_best_on_corpus(ray_session):
    """At sf0.001 the keep-best canonical map matches the SQL window
    over the real table (and agrees with exact_dedup where quality
    ties, i.e. everywhere for byte-identical texts)."""
    import duckdb

    from nidaba_ray.functions.dedup import (
        EXACT_DEDUP_KEEP_BEST_SQL,
        exact_dedup_keep_best,
    )

    sf = "/root/testdata/sf0.001"
    got = (exact_dedup_keep_best(sf).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(EXACT_DEDUP_KEEP_BEST_SQL).fetchdf()
            .sort_values("doc_id").reset_index(drop=True))
    assert got["canonical_id"].tolist() == want["canonical_id"].tolist()
