"""Corpus curation pipeline — the composed training-data use case:
quality gating + exact dedup in one lazy chain (driver instruction:
the operations a large-scale training-data pipeline needs, composed).

    documents → quality features (vectorized map)
              → gate (word count / avg word length / stopword ratio)
              → exact dedup keep-first (grouped min + hash join)
              → curated (doc_id, lang, n_words) + per-lang rollup

Fully SQL-expressible, so the whole composition is oracle-checked —
the point is that each stage is the same operator exercised solo by
its own query, and composition changes nothing (lazy Dataset chain,
one shuffle for the dedup)."""

from __future__ import annotations

import hashlib

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from nidaba_ray.functions.compat import round_like_sql
from nidaba_ray.util import join_partitions

MIN_WORDS = 20
MAX_AVG_WORD_LEN = 12.0
MAX_STOP_RATIO = 0.5
STOPWORDS = ("the", "a", "de", "el", "la")


def curated_corpus(sf_dir: str) -> rd.Dataset:
    """Kept docs after quality gate + dedup (keep min doc_id per
    identical text among the gated set)."""

    def gate(batch: pa.Table) -> pa.Table:
        s = batch["text"].to_pandas()
        words = s.str.split(" ")
        n_words = words.str.len().astype("int64")
        awl = (s.str.len() - s.str.count(" ")).astype("int64") / n_words
        stop = words.map(lambda ws: sum(w in STOPWORDS for w in ws)) / n_words
        keep = (n_words >= MIN_WORDS) & (awl <= MAX_AVG_WORD_LEN) & (stop <= MAX_STOP_RATIO)
        t = batch.append_column("n_words", pa.array(n_words)).filter(
            pa.array(keep.to_numpy())
        )
        fp = [hashlib.md5(x.encode("utf-8")).hexdigest()
              for x in t["text"].to_pylist()]
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "lang": t["lang"],
                "n_words": t["n_words"],
                "fp": pa.array(fp, pa.string()),
            }
        )

    gated = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
    ).map_batches(gate, batch_format="pyarrow")

    from ray.data.aggregate import Min

    firsts = gated.groupby("fp").aggregate(Min("doc_id", alias_name="keep_id"))
    joined = gated.join(firsts, "inner", join_partitions(8), on=("fp",))
    return joined.map_batches(
        lambda t: t.filter(pc.equal(t["doc_id"], t["keep_id"])).select(
            ["doc_id", "lang", "n_words"]
        ),
        batch_format="pyarrow",
    )


CURATED_SQL = f"""
WITH gated AS (
  SELECT doc_id, lang, text,
         LEN(STRING_SPLIT(text, ' ')) AS n_words
  FROM documents
  WHERE LEN(STRING_SPLIT(text, ' ')) >= {MIN_WORDS}
    AND CAST(LEN(REPLACE(text, ' ', '')) AS DOUBLE)
        / LEN(STRING_SPLIT(text, ' ')) <= {MAX_AVG_WORD_LEN}
    AND CAST(LEN(LIST_FILTER(STRING_SPLIT(text, ' '),
                 x -> x IN ('the', 'a', 'de', 'el', 'la'))) AS DOUBLE)
        / LEN(STRING_SPLIT(text, ' ')) <= {MAX_STOP_RATIO}
)
SELECT doc_id, lang, n_words
FROM (SELECT *, MIN(doc_id) OVER (PARTITION BY md5(text)) AS keep_id FROM gated)
WHERE doc_id = keep_id
"""


def curation_stats(sf_dir: str) -> pa.Table:
    """Per-lang rollup of the curated corpus — kept docs + token mass.

    The rollup pre-aggregates per batch (≤ n_langs rows per block),
    coalesces the partials to one block, and runs the final grouped
    sum there — a 2-level tree reduce. The driver only ever sees the
    ≤ n_langs result rows — never the corpus; coalescing the partials
    also leaves the small groupby no empty reduce partitions (the
    schema-less-RefBundle warning source, round-2 verdict item 3)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("lang").aggregate(
            [("doc_id", "count"), ("n_words", "sum")]
        )
        return g.rename_columns(["lang", "n_docs", "total_words"])

    g = (
        curated_corpus(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .groupby("lang")
        .aggregate(Sum("n_docs", alias_name="n_docs"),
                   Sum("total_words", alias_name="total_words"))
        .to_pandas()  # ≤ n_langs rows
    )
    g = g.astype({"lang": "string", "n_docs": "int64", "total_words": "int64"})
    g["avg_words"] = round_like_sql(g["total_words"] / g["n_docs"], 2)
    return pa.Table.from_pandas(
        pd.DataFrame(g), preserve_index=False
    )


CURATION_STATS_SQL = CURATED_SQL.replace(
    "SELECT doc_id, lang, n_words",
    "SELECT lang, COUNT(*) AS n_docs, CAST(SUM(n_words) AS BIGINT) AS total_words,"
    " ROUND(CAST(SUM(n_words) AS DOUBLE) / COUNT(*), 2) AS avg_words",
) + " GROUP BY lang"


# ---------------------------------------------------------------------------
# Deterministic mixture sampling (training-data mixture construction)
# ---------------------------------------------------------------------------

# language → inclusion rate; binary-exact fractions so the float →
# uint64 threshold quantization is bit-identical in numpy and DuckDB
MIXTURE_RATES: dict[str, float] = {
    "en": 1.0, "fr": 0.5, "es": 0.5, "de": 0.25, "zh": 0.125,
}


def _mix_thresholds(rates: dict[str, float]) -> dict[str, int]:
    """Rate → md5_64 threshold. min() keeps rate=1.0 inside UBIGINT;
    the excluded top key is 1 in 2^64 — and both sides exclude it, so
    parity is exact."""
    return {l: min(int(round(r * 2**64)), 2**64 - 1)
            for l, r in rates.items()}


def mixture_sample(sf_dir: str, rates: dict[str, float] | None = None
                   ) -> rd.Dataset:
    """Language-mixture sampling: keep a doc iff
    ``md5_64("mix:" + doc_id) < threshold[lang]`` (0 for unlisted
    languages). Like sample_lineitem, the kept SET is a pure function
    of the key — identical on 4 CPUs, 32 CPUs or a 256-node cluster,
    across reruns and repartitions — which is what a reproducible
    training mixture needs. Shuffle-free; SQL-replayable
    (MIXTURE_SQL)."""
    thr = _mix_thresholds(MIXTURE_RATES if rates is None else rates)

    def fn(batch: pa.Table) -> pa.Table:
        keep = pa.array([
            int.from_bytes(
                hashlib.md5(f"mix:{d}".encode()).digest()[:8], "big")
            < thr.get(l, 0)
            for d, l in zip(batch["doc_id"].to_pylist(),
                            batch["lang"].to_pylist())
        ])
        return batch.filter(keep)

    return rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    ).map_batches(fn, batch_format="pyarrow")


def mixture_sql(rates: dict[str, float] | None = None) -> str:
    thr = _mix_thresholds(MIXTURE_RATES if rates is None else rates)
    cases = " ".join(
        f"WHEN '{l}' THEN {t}::UBIGINT" for l, t in sorted(thr.items()))
    return f"""
SELECT doc_id, lang FROM documents
WHERE ('0x' || substr(md5('mix:' || CAST(doc_id AS VARCHAR)), 1, 16))::UBIGINT
      < (CASE lang {cases} ELSE 0::UBIGINT END)
"""


STRATIFIED_K = 40


def stratified_over(ds: rd.Dataset, k: int = STRATIFIED_K) -> rd.Dataset:
    """Per-language deterministic k-doc sample over ANY (doc_id, lang)
    Dataset: the k smallest ``md5_64("strat:" + doc_id)`` keys within
    each language, ties (a 2^-64 event) broken by doc_id.

    Scale shape: a per-batch top-k COMBINER runs inside map_batches
    (each batch forwards at most k rows per language it saw), then a
    per-language ``map_groups`` merge picks the global k — the corpus
    itself never shuffles, only ≤ k·n_langs·n_batches combiner rows
    do. Same set at any parallelism and block layout (pinned over a
    13-block repartition in tests/test_sampling.py); SQL-replayable
    (stratified_sql)."""

    def key64(doc_ids: list[int]) -> list[int]:
        return [int.from_bytes(
            hashlib.md5(f"strat:{d}".encode()).digest()[:8], "big")
            for d in doc_ids]

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["doc_id", "lang"]).to_pandas()
        df["k64"] = pd.array(key64(df["doc_id"].tolist()),
                             dtype="UInt64")
        df = (df.sort_values(["k64", "doc_id"])
                .groupby("lang", as_index=False).head(k))
        return pa.Table.from_pandas(df, preserve_index=False)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["k64", "doc_id"]).head(k)
        return g[["lang", "doc_id"]]

    return (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("lang")
              .map_groups(final, batch_format="pandas"))


def stratified_sample(sf_dir: str, k: int = STRATIFIED_K) -> rd.Dataset:
    """:func:`stratified_over` applied to the documents table."""
    return stratified_over(
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["doc_id", "lang"]), k)


def stratified_sql(k: int = STRATIFIED_K) -> str:
    return f"""
SELECT lang, doc_id FROM (
  SELECT lang, doc_id,
         ROW_NUMBER() OVER (
           PARTITION BY lang
           ORDER BY ('0x' || substr(md5('strat:' || CAST(doc_id AS VARCHAR)), 1, 16))::UBIGINT,
                    doc_id) AS rn
  FROM documents) WHERE rn <= {k}
"""


# ---------------------------------------------------------------------------
# Deterministic train/val/test split (round-5 session 7) — the op every
# training pipeline runs last: assign each document a split from a
# hashed bucket so the assignment is a pure function of the doc key
# (identical across reruns, parallelism levels and cluster sizes), and
# MONOTONE under quota growth: buckets are ordered test < val < train,
# so raising a holdout quota only ever MOVES train docs into the
# holdout — a doc already in test/val never flips (no eval
# contamination when the split is retuned). md5-only per the repo
# determinism invariant; exact integer per-10k quotas.
# ---------------------------------------------------------------------------

SPLIT_PM = {"test": 100, "val": 100}  # per-10000; remainder = train


def _split_key(doc_ids) -> list[int]:
    return [
        int.from_bytes(
            hashlib.md5(f"split:{d}".encode()).digest()[:8], "big") % 10000
        for d in doc_ids
    ]


def split_assign(sf_dir: str, pm: dict[str, int] | None = None
                 ) -> rd.Dataset:
    """(doc_id, lang, split) rows; split ∈ {test, val, train} by the
    hashed per-10k bucket. Shuffle-free one-pass map; SQL-replayable
    (:func:`split_sql`)."""
    q = SPLIT_PM if pm is None else pm
    t_test, t_val = q["test"], q["test"] + q["val"]

    def fn(batch: pa.Table) -> pa.Table:
        buckets = _split_key(batch["doc_id"].to_pylist())
        split = ["test" if b < t_test else "val" if b < t_val else "train"
                 for b in buckets]
        return pa.table({
            "doc_id": batch["doc_id"],
            "lang": batch["lang"],
            "split": pa.array(split, pa.string()),
        })

    return rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    ).map_batches(fn, batch_format="pyarrow")


def split_counts(sf_dir: str, pm: dict[str, int] | None = None
                 ) -> pa.Table:
    """Per-(lang, split) document counts — the split audit table; a
    per-batch combiner then one tiny grouped sum."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().groupby(
            ["lang", "split"], as_index=False).size()
        return pa.Table.from_pandas(
            df.rename(columns={"size": "n"}), preserve_index=False)

    g = (split_assign(sf_dir, pm)
         .map_batches(partial, batch_format="pyarrow")
         .groupby(["lang", "split"])
         .aggregate(Sum("n", alias_name="n_docs"))
         .to_pandas()
         .sort_values(["lang", "split"]).reset_index(drop=True))
    return pa.Table.from_pandas(
        g.astype({"lang": "string", "split": "string", "n_docs": "int64"}),
        preserve_index=False)


def split_sql(pm: dict[str, int] | None = None) -> str:
    q = SPLIT_PM if pm is None else pm
    t_test, t_val = q["test"], q["test"] + q["val"]
    return f"""
SELECT doc_id, lang,
       CASE WHEN b < {t_test} THEN 'test'
            WHEN b < {t_val} THEN 'val'
            ELSE 'train' END AS split
FROM (
  SELECT doc_id, lang,
         ('0x' || substr(md5('split:' || CAST(doc_id AS VARCHAR)), 1, 16)
         )::UBIGINT % 10000 AS b
  FROM documents
)
"""


def split_counts_sql(pm: dict[str, int] | None = None) -> str:
    return f"""
WITH s AS ({split_sql(pm)})
SELECT lang, split, CAST(COUNT(*) AS BIGINT) AS n_docs
FROM s GROUP BY lang, split ORDER BY lang, split
"""
