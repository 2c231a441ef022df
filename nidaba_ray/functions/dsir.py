"""DSIR — Data Selection via Importance Resampling (Xie et al.,
NeurIPS 2023, public recipe): pick the raw-corpus documents whose
hashed-n-gram distribution looks most like a small TARGET exemplar
set. The published algorithm, re-expressed Ray-Data-first:

1. **Features**: a document is a bag of hashed n-grams — unigrams and
   bigrams of whitespace tokens, hashed into ``DSIR_BUCKETS`` buckets
   (the paper's hashed generative model). Hashing is ``md5_64 % B``
   (repo md5-only determinism invariant; same accepted per-gram md5
   cost bound as the MinHash signature stage).
2. **Fit**: two bucket multinomials with Laplace smoothing — the
   target distribution ``p`` from the exemplar docs, the raw
   distribution ``q`` from the full sample. Per-bucket log ratio
   ``llr[b] = ln(tc[b]+1) − ln(T+B) − ln(rc[b]+1) + ln(R+B)`` is
   quantized to integer MICRO-units (round half away, the repo
   quantized-decision invariant), so every downstream sum is exact
   int64 arithmetic — order-independent across block layouts.
3. **Score**: per-doc importance weight
   ``log w(x) = Σ_grams llr[bucket(gram)]`` (occurrence counts, not
   presence — one fancy-index sum per doc over the broadcast llr
   vector).
4. **Resample**: Gumbel top-k — the paper's sampling-without-
   replacement trick: ``key_i = log w_i + G_i`` with
   ``G_i = −ln(−ln(u_i))`` and ``u_i`` a deterministic md5-derived
   uniform; keep the k largest keys. ``u_i`` uses the TOP 52 bits of
   ``md5_64('dsir:'+doc_id)`` mapped to the odd lattice
   ``(2j+1)/2^53`` so the double conversion is EXACT on both the
   numpy and SQL sides (u ∈ (0,1) strictly — no ±inf Gumbel).

Scale shape (the 100 TB question):

* Fitting reads a pushdown-bounded sample (``doc_id <
  DSIR_SAMPLE_DOCS`` — a parquet row filter) and shuffles only
  per-batch pre-binned ``(bucket, n_raw, n_tgt)`` partials through
  one groupby-sum; the aggregate is B-sized, never corpus-sized.
  The fitted llr vector (8 KiB) is memoized per corpus content and
  broadcast once via ``ray.put``.
* Scoring is one streaming map_batches pass — no shuffle, payloads
  never move.
* Selection is a per-batch top-k COMBINER (each batch forwards ≤ k
  rows) followed by a tiny global sort+limit — the corpus never
  shuffles, only ≤ k·n_batches combiner rows do.

Determinism: the kept set is a pure function of (corpus bytes,
constants) — identical on 4 CPUs, 32 CPUs or a 256-node cluster
(layout-invariance pinned in tests/test_dsir.py). Fully
SQL-replayable (:func:`dsir_sql` retokenizes, rehashes, refits and
reselects in DuckDB; ln differs from numpy by ≤1 ulp on ~8% of
inputs, which the 6-dp micro quantization absorbs — flip probability
~4e-10 per value, the hll-replay argument).

The reference engine has no data-selection operator; this belongs to
the training-data family the builder brief adds on top of SURVEY.md
§2 (dedup, quality gates, mixture sampling — DSIR is
the published importance-resampling member).
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from nidaba_ray.functions.compat import MD5_64_SQL
from nidaba_ray.functions.dedup import _corpus_fingerprint, _md5_64
from nidaba_ray.functions.textops import WS_RUN

__all__ = ["dsir_log_weights", "dsir_selected", "dsir_sql",
           "DSIR_BUCKETS", "DSIR_SAMPLE_DOCS", "DSIR_K", "DSIR_TARGET_LANG"]

DSIR_BUCKETS = 1024      # B — hashed feature dimension
DSIR_SAMPLE_DOCS = 256   # fit-sample pushdown bound (rows, not a rate)
DSIR_K = 100             # resample size
DSIR_TARGET_LANG = "en"  # exemplar predicate: target docs in the sample
_MICRO = 1_000_000       # fixed-point scale for ln values
_WS_RE = re.compile(WS_RUN)


def _grams(text: str) -> list[str]:
    """Unigrams + bigrams over the shared ASCII whitespace contract
    (``textops.WS_RUN`` on both the python and SQL sides). Tokens
    cannot contain whitespace, so the single-space bigram join is
    collision-free."""
    toks = [t for t in _WS_RE.split(text) if t]
    return toks + [f"{a} {b}" for a, b in zip(toks, toks[1:])]


def _gram_buckets(text: str, buckets: int) -> np.ndarray:
    gs = _grams(text)
    return np.fromiter((_md5_64(f"dsirf:{g}") % buckets for g in gs),
                       dtype=np.int64, count=len(gs))


def _round_micro(x: np.ndarray) -> np.ndarray:
    """float64 → int64 micro-units, half away from zero (matches
    DuckDB ``ROUND(x*1000000, 0)::BIGINT``)."""
    return (np.sign(x) * np.floor(np.abs(x) * _MICRO + 0.5)).astype(np.int64)


_LLR_MEMO: dict = {}


def _fit_llr(sf_dir: str, target_lang: str, sample_docs: int,
             buckets: int) -> np.ndarray:
    """Fit the per-bucket log-likelihood-ratio vector (int64 micro),
    memoized per corpus content."""
    key = (os.path.realpath(sf_dir), _corpus_fingerprint(sf_dir),
           target_lang, sample_docs, buckets)
    hit = _LLR_MEMO.get(key)
    if hit is not None:
        return hit
    import pyarrow.dataset as pads
    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        raw = np.zeros(buckets, dtype=np.int64)
        tgt = np.zeros(buckets, dtype=np.int64)
        for lang, text in zip(batch["lang"].to_pylist(),
                              batch["text"].to_pylist()):
            bs = _gram_buckets(text, buckets)
            if len(bs):
                h = np.bincount(bs, minlength=buckets)
                raw += h
                if lang == target_lang:
                    tgt += h
        nz = np.nonzero(raw)[0]
        return pa.table({"b": pa.array(nz, pa.int64()),
                         "n_raw": pa.array(raw[nz], pa.int64()),
                         "n_tgt": pa.array(tgt[nz], pa.int64())})

    counts = (
        rd.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["lang", "text"],
            filter=(pads.field("doc_id") < sample_docs),
        )
        .map_batches(partials, batch_format="pyarrow")
        .groupby("b").aggregate(Sum("n_raw", alias_name="n_raw"),
                                Sum("n_tgt", alias_name="n_tgt"))
    )
    rc = np.zeros(buckets, dtype=np.int64)
    tc = np.zeros(buckets, dtype=np.int64)
    for b in counts.iter_batches(batch_format="pyarrow"):
        idx = np.asarray(b["b"])
        rc[idx] = np.asarray(b["n_raw"])
        tc[idx] = np.asarray(b["n_tgt"])
    t_tot, r_tot = int(tc.sum()), int(rc.sum())
    llr = (np.log(tc + 1.0) - np.log(float(t_tot + buckets))
           - np.log(rc + 1.0) + np.log(float(r_tot + buckets)))
    out = _round_micro(llr)
    _LLR_MEMO[key] = out
    return out


def _gumbel_micro(doc_ids) -> np.ndarray:
    """Deterministic per-doc Gumbel noise in int64 micro-units.
    u = (2·(md5_64('dsir:'+id) >> 12) + 1) / 2^53 — a 52-bit odd
    lattice, exactly representable, strictly inside (0,1)."""
    u = np.fromiter(
        ((_md5_64(f"dsir:{d}") >> 12) * 2 + 1 for d in doc_ids),
        dtype=np.int64, count=len(doc_ids)).astype(np.float64) / 2.0 ** 53
    return _round_micro(-np.log(-np.log(u)))


def dsir_log_weights(sf_dir: str, target_lang: str = DSIR_TARGET_LANG,
                     sample_docs: int = DSIR_SAMPLE_DOCS,
                     buckets: int = DSIR_BUCKETS) -> rd.Dataset:
    """Per-doc importance log-weight in micro-units
    (doc_id, lang, logw) — one streaming pass, broadcast llr."""
    llr_ref = ray.put(_fit_llr(sf_dir, target_lang, sample_docs, buckets))

    def score(batch: pa.Table) -> pa.Table:
        llr = ray.get(llr_ref)
        ids = batch["doc_id"].to_pylist()
        out = np.zeros(len(ids), dtype=np.int64)
        for i, text in enumerate(batch["text"].to_pylist()):
            bs = _gram_buckets(text, buckets)
            if len(bs):
                out[i] = int(llr[bs].sum())
        return pa.table({"doc_id": batch["doc_id"], "lang": batch["lang"],
                         "logw": pa.array(out, pa.int64())})

    return rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
    ).map_batches(score, batch_format="pyarrow")


def dsir_selected(sf_dir: str, k: int = DSIR_K,
                  target_lang: str = DSIR_TARGET_LANG,
                  sample_docs: int = DSIR_SAMPLE_DOCS,
                  buckets: int = DSIR_BUCKETS) -> rd.Dataset:
    """Gumbel-top-k importance resample: the k docs with the largest
    ``logw + gumbel`` keys (ties: doc_id asc — a total order)."""

    def with_key(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = batch.to_pandas()
        df["key"] = (df["logw"].to_numpy()
                     + _gumbel_micro(df["doc_id"].tolist()))
        df = df.sort_values(["key", "doc_id"],
                            ascending=[False, True]).head(k)
        return pa.Table.from_pandas(df[["doc_id", "lang", "key"]],
                                    preserve_index=False)

    return (dsir_log_weights(sf_dir, target_lang, sample_docs, buckets)
            .map_batches(with_key, batch_format="pyarrow")
            .sort(["key", "doc_id"], descending=[True, False])
            .limit(k))


def dsir_sql(k: int = DSIR_K, target_lang: str = DSIR_TARGET_LANG,
             sample_docs: int = DSIR_SAMPLE_DOCS,
             buckets: int = DSIR_BUCKETS) -> str:
    """Full DuckDB replay: retokenize (shared WS_RUN class), rehash
    (md5_64 % B), refit both multinomials from the same pushdown
    sample, rescore every doc and reselect via the same quantized
    Gumbel keys."""
    bucket_of = MD5_64_SQL.format(e="'dsirf:' || g") + f" % {buckets}"
    h = MD5_64_SQL.format(e="'dsir:' || CAST(d.doc_id AS VARCHAR)")
    return f"""
WITH toks AS (
  SELECT doc_id, lang,
         list_filter(regexp_split_to_array(text, '{WS_RUN}'),
                     x -> x <> '') AS lst
  FROM documents
), grams AS (
  SELECT doc_id, lang, unnest(lst) AS g FROM toks
  UNION ALL
  SELECT doc_id, lang, a || ' ' || b AS g FROM (
    SELECT doc_id, lang,
           unnest(lst[1:len(lst)-1]) AS a,
           unnest(lst[2:len(lst)]) AS b
    FROM toks)
), bkt AS (
  SELECT doc_id, lang, {bucket_of} AS b FROM grams
), fit AS (
  SELECT b,
         COUNT(*) AS n_raw,
         COUNT(*) FILTER (lang = '{target_lang}') AS n_tgt
  FROM bkt WHERE doc_id < {sample_docs} GROUP BY b
), tots AS (
  SELECT COALESCE(SUM(n_tgt), 0) AS t_tot, COALESCE(SUM(n_raw), 0) AS r_tot
  FROM fit
), llr AS (
  SELECT r.range AS b,
         ROUND((ln(COALESCE(f.n_tgt, 0) + 1)
                - ln((SELECT t_tot FROM tots) + {buckets})
                - ln(COALESCE(f.n_raw, 0) + 1)
                + ln((SELECT r_tot FROM tots) + {buckets}))
               * {_MICRO}, 0)::BIGINT AS w
  FROM range({buckets}) r LEFT JOIN fit f ON r.range = f.b
), scores AS (
  SELECT bkt.doc_id, CAST(SUM(llr.w) AS BIGINT) AS logw
  FROM bkt JOIN llr ON bkt.b = llr.b GROUP BY bkt.doc_id
), keys AS (
  SELECT d.doc_id, d.lang,
         COALESCE(s.logw, 0)
         + ROUND(-ln(-ln((({h} >> 12) * 2 + 1)::DOUBLE
                         / 9007199254740992.0))
                 * {_MICRO}, 0)::BIGINT AS key
  FROM documents d LEFT JOIN scores s ON d.doc_id = s.doc_id
)
SELECT doc_id, lang, key FROM keys
ORDER BY key DESC, doc_id LIMIT {k}
"""
