"""Per-paragraph language segmentation (functions/langseg.py):
DuckDB byte-parity over a crafted mixed-language corpus, degenerate
equivalence with the whole-doc ``lang_id`` on the real (newline-free)
corpus, and the registry annotation stage."""

from __future__ import annotations

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

from nidaba_ray.functions import lexicon
from nidaba_ray.functions.langseg import (
    LangSegments,
    LangSegSummary,
    _summarize,
    lang_segment_batch,
    lang_segments_sql,
    split_paragraphs,
)

SF = "/root/testdata/sf0.001"


def _words(lang: str, lo: int, hi: int) -> str:
    ws = sorted(lexicon.wordlist(lang))[lo:hi]
    return " ".join(ws)


def _crafted_corpus() -> pa.Table:
    """Deterministic mixed-language shapes: per-paragraph switches,
    trailing/leading newlines, whitespace-only parts, unknown tokens,
    single-language docs, empty docs."""
    texts = [
        # en → de → (blank) → en: 3 kept segments, 2 switches
        _words("en", 0, 12) + "\n" + _words("de", 0, 12) + "\n \n"
        + _words("en", 12, 18),
        # single-language, no newlines (the real-corpus shape)
        _words("es", 0, 20),
        # empty and whitespace-only docs → zero segments
        "",
        "\n  \n\n",
        # fr → garbage → zh; garbage paragraph scores 0 on every
        # profile so the tie-break picks the first sorted lang
        _words("fr", 0, 8) + "\nxyzzy qqq zz9\n" + _words("zh", 0, 6),
        # alternating en/de per line: maximal switch count
        "\n".join(
            _words("en" if i % 2 == 0 else "de", 3 * i, 3 * i + 3)
            for i in range(6)
        ),
        # leading/trailing newlines shift para_idx but not content
        "\n" + _words("de", 20, 30) + "\n",
        # mixed inside a doc where the minority is LONGER than the
        # majority-by-count: majority is by char mass, not seg count
        _words("zh", 0, 40) + "\n" + _words("en", 0, 3) + "\n"
        + _words("en", 3, 6),
    ]
    return pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )


def test_split_paragraphs_indexing():
    assert split_paragraphs("a\n \nb\n") == [(1, "a"), (3, "b")]
    assert split_paragraphs("") == []
    assert split_paragraphs("  ") == []
    # tabs are NOT stripped (ASCII-space contract, matches trim(p,' '))
    assert split_paragraphs("\t\na") == [(1, "\t"), (2, "a")]


def test_summarize_edges():
    assert _summarize([]) == (0, "und", 0, 0, False)
    # tie on char mass → lang-ascending winner
    segs = [(1, "en", 1.0, 5), (2, "de", 1.0, 5)]
    assert _summarize(segs) == (2, "de", 2, 1, True)


def test_segments_duckdb_parity_crafted():
    docs = _crafted_corpus()
    got = LangSegments()(docs).to_pandas()
    con = duckdb.connect()
    con.register("documents", docs)
    want = con.execute(lang_segments_sql()).df()
    got = got.sort_values(["doc_id", "para_idx"]).reset_index(drop=True)
    want = want.reset_index(drop=True).astype(got.dtypes.to_dict())
    pd.testing.assert_frame_equal(got, want)


# DuckDB rollup of the replayed segment table: majority by character
# mass with the lang-asc tie-break, switches via LAG over paragraph
# order, zero-segment docs joined back as ('und', 0)
_SUMMARY_SQL = """
WITH per AS ({segments}),
mass AS (
  SELECT doc_id, pred_lang, SUM(n_chars) AS ch
  FROM per GROUP BY doc_id, pred_lang
),
maj AS (
  SELECT doc_id, pred_lang AS majority_lang,
         ROW_NUMBER() OVER (PARTITION BY doc_id
                            ORDER BY ch DESC, pred_lang ASC) AS rn
  FROM mass
),
sw AS (
  SELECT doc_id,
         COUNT(*) FILTER (WHERE prev IS NOT NULL
                          AND pred_lang <> prev) AS n_switches,
         COUNT(*) AS n_segments,
         COUNT(DISTINCT pred_lang) AS n_langs
  FROM (SELECT doc_id, pred_lang,
               LAG(pred_lang) OVER (PARTITION BY doc_id
                                    ORDER BY para_idx) AS prev
        FROM per)
  GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(sw.n_segments, 0) AS n_segments,
       COALESCE(m.majority_lang, 'und') AS majority_lang,
       COALESCE(sw.n_langs, 0) AS n_langs,
       COALESCE(sw.n_switches, 0) AS n_switches,
       COALESCE(sw.n_langs, 0) > 1 AS is_mixed
FROM documents d
LEFT JOIN maj m ON m.doc_id = d.doc_id AND m.rn = 1
LEFT JOIN sw ON sw.doc_id = d.doc_id
ORDER BY d.doc_id
"""


def test_summary_duckdb_parity_crafted():
    """(doc_id, n_segments, majority_lang, n_langs, n_switches,
    is_mixed) per crafted doc equals a DuckDB rollup of the replayed
    segment table, and the eight rows are pinned. Doc 7's zh paragraph
    outweighs two en paragraphs: the majority is by char mass, not
    segment count."""
    docs = _crafted_corpus()
    got = LangSegSummary()(docs).to_pandas()
    con = duckdb.connect()
    con.register("documents", docs)
    want = con.execute(_SUMMARY_SQL.format(
        segments=lang_segments_sql())).df()
    got = got.sort_values("doc_id").reset_index(drop=True)
    want = want.reset_index(drop=True).astype(got.dtypes.to_dict())
    pd.testing.assert_frame_equal(got, want)
    assert [tuple(r) for r in got.itertuples(index=False)] == [
        (0, 3, "en", 2, 2, True),
        (1, 1, "es", 1, 0, False),
        (2, 0, "und", 0, 0, False),
        (3, 0, "und", 0, 0, False),
        (4, 3, "fr", 3, 2, True),
        (5, 6, "de", 2, 3, True),
        (6, 1, "de", 1, 0, False),
        (7, 3, "zh", 3, 2, True),
    ]


def test_degenerate_matches_lang_id(ray_session):
    """On a newline-free corpus every doc is one segment, so the
    summary's majority_lang must equal the whole-doc ``lang_id``
    verdict exactly."""
    import pyarrow.parquet as pq

    from nidaba_ray.functions.textops import lang_id

    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"])
    summ = (
        LangSegSummary()(docs).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    li = (
        lang_id(SF).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    assert (summ.n_segments <= 1).all()
    nonempty = summ[summ.n_segments == 1]
    merged = nonempty.merge(li, on="doc_id")
    assert (merged.majority_lang == merged.pred_lang).all()
    assert not summ.is_mixed.any()


def test_segments_duckdb_parity_real(ray_session):
    """Full parity of the distributed operator on the real corpus."""
    from nidaba_ray.functions.langseg import lang_segments

    got = (
        lang_segments(SF).to_pandas()
        .sort_values(["doc_id", "para_idx"]).reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS "
        f"SELECT * FROM '{SF}/documents.parquet'"
    )
    want = con.execute(lang_segments_sql()).df()
    want = want.reset_index(drop=True).astype(got.dtypes.to_dict())
    pd.testing.assert_frame_equal(got, want)


def test_registry_stage_annotates():
    docs = _crafted_corpus()
    out = lang_segment_batch(docs)
    assert out.column_names == ["doc_id", "text", "majority_lang",
                                "is_mixed"]
    df = out.to_pandas()
    assert df.loc[0, "majority_lang"] == "en"
    assert bool(df.loc[0, "is_mixed"])
    assert df.loc[1, "majority_lang"] == "es"
    assert not bool(df.loc[1, "is_mixed"])
    assert df.loc[2, "majority_lang"] == "und"


def test_stage_registered():
    from nidaba_ray.stages.registry import get_stage

    assert get_stage("clean.langseg") is not None


# ---------------------------------------------------------------------------
# Readability scores (same-file home: the round-5 session-6 text ops)
# ---------------------------------------------------------------------------

def test_readability_duckdb_parity_crafted():
    import pyarrow as pa

    from nidaba_ray.functions.compat import round_like_sql
    from nidaba_ray.functions.textops import (
        _RE_SENT,
        _RE_SYLL,
        _RE_WORD,
        READABILITY_SQL,
    )

    docs = pa.table({
        "doc_id": pa.array(range(5), pa.int64()),
        "text": pa.array([
            "The cat sat on the mat. It was flat! Was it?",
            "",                                       # empty → guards
            "no punctuation here just words flowing along",
            "Ellipsis... and then?! Multi!!! marks.",
            "Ünïcödé vowels are NOT counted; only ascii aeiouy are.",
        ], pa.string()),
    })
    s = docs["text"].to_pandas()
    n_words = s.str.count(_RE_WORD).clip(lower=1).astype("int64")
    n_sents = s.str.count(_RE_SENT).clip(lower=1).astype("int64")
    n_syll = s.str.count(_RE_SYLL).astype("int64")
    wps, spw = n_words / n_sents, n_syll / n_words
    got = pd.DataFrame({
        "doc_id": docs["doc_id"].to_pandas(),
        "n_words": n_words, "n_sentences": n_sents,
        "n_syllables": n_syll,
        "flesch": round_like_sql(206.835 - 1.015 * wps - 84.6 * spw, 4),
        "fk_grade": round_like_sql(0.39 * wps + 11.8 * spw - 15.59, 4),
    })
    con = duckdb.connect()
    con.register("documents", docs)
    want = con.execute(READABILITY_SQL).df().sort_values(
        "doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.astype(got.dtypes.to_dict()))


def test_readability_duckdb_parity_real(ray_session):
    from nidaba_ray.functions.textops import (
        READABILITY_SQL,
        readability_scores,
    )

    got = (readability_scores(SF).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"'{SF}/documents.parquet'")
    want = con.execute(READABILITY_SQL).df().sort_values(
        "doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))


def test_readability_known_values():
    """Hand-checked counts on a fixed sentence: 9 words, 2 sentences,
    vowel groups counted as the syllable proxy."""
    import pyarrow as pa

    from nidaba_ray.functions.textops import _RE_SENT, _RE_SYLL, _RE_WORD

    t = "The quick brown fox jumps over it. Dogs sleep!"
    s = pd.Series([t])
    assert int(s.str.count(_RE_WORD).iloc[0]) == 9
    assert int(s.str.count(_RE_SENT).iloc[0]) == 2
    # The(1) quick(ui)(1) brown(1) fox(1) jumps(1) over(o,e=2) it(1)
    # Dogs(1) sleep(ee=1) → 10 vowel groups
    assert int(s.str.count(_RE_SYLL).iloc[0]) == 10


def test_multilingual_quality_example_spec(ray_session):
    """examples/multilingual_quality.yaml end-to-end: extraction →
    langseg annotation → fixture-trained quality scoring."""
    import ray.data as rd

    from nidaba_ray.stages import registry

    spec = registry.load_spec("examples/multilingual_quality.yaml")
    html = (b"<html><body><article><p>A paragraph with enough prose "
            b"to be kept by the extractor and scored by the block "
            b"quality classifier afterwards.</p></article></body></html>")
    t = pa.table({
        "url": pa.array(["https://example.org/a"]),
        "lang": pa.array(["en"]),
        "html": pa.array([html], pa.binary()),
    })
    out = registry.compile_pipeline(rd.from_arrow(t), spec).to_pandas()
    assert len(out) == 1
    assert out["majority_lang"].iloc[0] == "en"
    assert not bool(out["is_mixed"].iloc[0])
    assert "block_quality" in out.columns
