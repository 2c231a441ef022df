"""Deduplication operators — exact, MinHash+LSH, SimHash, n-gram
Jaccard (driver instruction: first-class training-data-pipeline ops).

Scale notes: the exact path is hash-partition + per-group reduce (one
shuffle of (fp, doc_id) pairs — NOT the payloads). The near-dup paths
shuffle only (band_id, band_hash, doc_id) rows — a few dozen bytes per
doc regardless of document size. Pair verification joins the (tiny)
candidate-pair list back against the corpus: the candidate id set is
broadcast as a pre-filter so only candidate documents enter the two
hash joins, and nothing corpus-sized ever touches the driver.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from nidaba_ray.functions.compat import MD5_64_SQL, round_like_sql
from nidaba_ray.util import ensure_columns, join_partitions

# declared output schemas — collection sites rebuild all-empty results
# against these (see util.ensure_columns)
_PAIRS_SCHEMA = pa.schema(
    [("doc_a", pa.int64()), ("doc_b", pa.int64()), ("jaccard", pa.float64())]
)
_HAMMING_SCHEMA = pa.schema(
    [("doc_a", pa.int64()), ("doc_b", pa.int64()), ("hamming", pa.int64())]
)
_DUP_GROUPS_SCHEMA = pa.schema(
    [("fp", pa.string()), ("n_docs", pa.int64()), ("first_doc", pa.int64())]
)

MERSENNE = (1 << 61) - 1
N_PERM = 64
N_BANDS = 16  # 16 bands × 4 rows


def _docs(sf_dir: str, columns: list[str]) -> rd.Dataset:
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def _md5_64(s: str) -> int:
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big")


def shingle_hashes(text: str, n: int = 3) -> np.ndarray:
    """Token n-gram shingle set as uint64 hashes (sorted, unique)."""
    toks = text.split(" ")
    if len(toks) < n:
        return np.array([_md5_64(text)], dtype=np.uint64)
    hs = {_md5_64(" ".join(toks[i : i + n])) for i in range(len(toks) - n + 1)}
    return np.fromiter(hs, dtype=np.uint64, count=len(hs))


# SQL mirror of :func:`shingle_hashes` working over the distinct
# shingle STRINGS (the md5-hash set and the string set have identical
# cardinalities and intersections absent a 64-bit md5 collision —
# impossible to confuse a <3-token whole-text shingle with a 3-gram
# because their space counts differ). Shared by the Jaccard oracles.
_SHINGLE_SQL_CTE = """
base AS (SELECT doc_id, text, string_split(text, ' ') AS t FROM documents),
sh AS (
  SELECT doc_id, unnest(list_distinct(
    CASE WHEN len(t) >= 3
      THEN list_transform(range(1, len(t) - 1), i -> array_to_string(t[i:i+2], ' '))
      ELSE [text] END)) AS g
  FROM base
),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id)
"""

# md5_64 as DuckDB SQL — shared template (functions.compat.MD5_64_SQL)
_MD5_64_SQL = MD5_64_SQL


# ---------------------------------------------------------------------------
# Exact dedup
# ---------------------------------------------------------------------------

def exact_dedup(sf_dir: str) -> rd.Dataset:
    """doc_id → canonical doc (min doc_id among byte-identical texts).
    Content hash computed vectorized per batch; the groupby shuffles
    only (fp, doc_id)."""

    def add_fp(batch: pa.Table) -> pa.Table:
        fp = [hashlib.md5(t.encode("utf-8")).hexdigest()
              for t in batch["text"].to_pylist()]
        return pa.table({"doc_id": batch["doc_id"], "fp": pa.array(fp, pa.string())})

    # vectorized grouped-min + hash join back — NOT map_groups (at
    # corpus scale nearly every fp group has one member, and per-group
    # pandas overhead dominates; aggregate+join stays vectorized)
    from ray.data.aggregate import Min

    sigs = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        add_fp, batch_format="pyarrow"
    )
    mins = sigs.groupby("fp").aggregate(Min("doc_id", alias_name="canonical_id"))
    joined = sigs.join(mins, "inner", join_partitions(8), on=("fp",))
    return joined.map_batches(
        lambda t: t.select(["doc_id", "canonical_id"]), batch_format="pyarrow"
    )


EXACT_DEDUP_SQL = """
SELECT doc_id, MIN(doc_id) OVER (PARTITION BY md5(text)) AS canonical_id
FROM documents
"""


def exact_dedup_keep_best(sf_dir: str) -> rd.Dataset:
    """Quality-aware exact dedup: the canonical member of each
    byte-identical cluster is the HIGHEST-QUALITY one — here the doc
    with the most whitespace tokens, doc_id as the total-order tie
    break — rather than :func:`exact_dedup`'s min-id pick. (For
    byte-identical texts the token counts tie, so the two policies
    agree on THIS signal; the shape is the one real pipelines use
    where "quality" is any per-doc score — swap the rank key, keep
    the plan.)

    Same single narrow shuffle as exact_dedup: the composite rank key
    ``zero-pad(2^62 − n_tokens) + '|' + zero-pad(doc_id)`` makes the
    winner one grouped Min (the url_dedup_latest idiom — lexicographic
    order ≡ (n_tokens desc, doc_id asc)); payload text never moves."""
    from ray.data.aggregate import Min

    from nidaba_ray.util import join_partitions

    def add_keys(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        ids = batch["doc_id"].to_pylist()
        fp = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]
        rank = [
            f"{(2**62) - (t.count(' ') + 1):020d}|{i:020d}"
            for t, i in zip(texts, ids)
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "fp": pa.array(fp, pa.string()),
                "rank_key": pa.array(rank, pa.string()),
            }
        )

    sigs = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        add_keys, batch_format="pyarrow"
    ).materialize()
    parts = max(1, min(join_partitions(8), sigs.count()))
    best = sigs.groupby("fp").aggregate(
        Min("rank_key", alias_name="win_key")
    ).repartition(parts).materialize()
    joined = sigs.join(best, "inner", parts, on=("fp",))

    def project(t: pa.Table) -> pa.Table:
        # winner doc_id decodes from the composite key's id suffix
        canon = [int(k.split("|", 1)[1]) for k in t["win_key"].to_pylist()]
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "canonical_id": pa.array(canon, pa.int64()),
            }
        )

    return joined.map_batches(project, batch_format="pyarrow")


EXACT_DEDUP_KEEP_BEST_SQL = """
SELECT doc_id,
       FIRST_VALUE(doc_id) OVER (
         PARTITION BY md5(text)
         ORDER BY LEN(STRING_SPLIT(text, ' ')) DESC, doc_id ASC
       ) AS canonical_id
FROM documents
"""


def dup_groups(sf_dir: str) -> pa.Table:
    """Groups of byte-identical documents (size > 1)."""

    def add_fp(batch: pa.Table) -> pa.Table:
        fp = [hashlib.md5(t.encode("utf-8")).hexdigest()
              for t in batch["text"].to_pylist()]
        return pa.table({"doc_id": batch["doc_id"], "fp": pa.array(fp, pa.string())})

    from ray.data.aggregate import Count, Min

    out = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(add_fp, batch_format="pyarrow")
        .groupby("fp")
        .aggregate(Count(alias_name="n_docs"), Min("doc_id", alias_name="first_doc"))
        # filter BEFORE collection — at corpus scale the aggregate has
        # one row per unique document; only the (rare) dup groups may
        # reach the driver
        .map_batches(
            lambda t: t.filter(pc.greater(t["n_docs"], 1)), batch_format="pyarrow"
        )
        .to_pandas()
    )
    out = ensure_columns(out, _DUP_GROUPS_SCHEMA).reset_index(drop=True)
    out["n_docs"] = out["n_docs"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


DUP_GROUPS_SQL = """
SELECT md5(text) AS fp, COUNT(*) AS n_docs, MIN(doc_id) AS first_doc
FROM documents GROUP BY md5(text) HAVING COUNT(*) > 1
"""


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup
# ---------------------------------------------------------------------------

def _perm_params(n_perm: int = N_PERM, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    # a,b < 2^30 and 32-bit shingle hashes keep a·h+b < 2^63 — the whole
    # permutation matrix stays in int64 (vectorized, no object math)
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 1 << 30, size=n_perm, dtype=np.int64)
    b = rng.integers(0, 1 << 30, size=n_perm, dtype=np.int64)
    return a, b


def minhash_signature(sh: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sig[i] = min((a_i·h32 + b_i) mod M) over the 32-bit shingle
    hashes — one broadcasted (n_perm × n_shingle) int64 matrix op."""
    h32 = (sh & np.uint64(0xFFFFFFFF)).astype(np.int64)  # (S,)
    m = (a[:, None] * h32[None, :] + b[:, None]) % np.int64(MERSENNE)
    return m.min(axis=1).astype(np.uint64)


class MinHasher:
    """Actor-pool stage: permutation params built once per actor."""

    def __init__(self, n: int = 3) -> None:
        self.a, self.b = _perm_params()
        self.n = n

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows_band, rows_hash, rows_doc = [], [], []
        r = N_PERM // N_BANDS
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            sig = minhash_signature(shingle_hashes(text, self.n), self.a, self.b)
            for band in range(N_BANDS):
                # md5, not builtin hash(): stable across processes and
                # Python versions (determinism invariant)
                bh = int.from_bytes(
                    hashlib.md5(sig[band * r : (band + 1) * r].tobytes()).digest()[:8],
                    "big",
                ) & 0x7FFFFFFFFFFFFFFF
                rows_band.append(band)
                rows_hash.append(bh)
                rows_doc.append(doc_id)
        return pa.table(
            {
                "band_id": pa.array(rows_band, pa.int32()),
                "band_hash": pa.array(rows_hash, pa.int64()),
                "doc_id": pa.array(rows_doc, pa.int64()),
            }
        )


def minhash_candidates(sf_dir: str, num_partitions: int = 16) -> rd.Dataset:
    """(band_id, band_hash) buckets → unordered candidate pairs via a
    hash-partitioned SELF-JOIN on the band key.

    Why not ``groupby().map_groups``: almost every band bucket has one
    member, and map_groups pays pandas overhead per group — measured
    ~40 s for 80 k tiny groups where the join takes ~2 s. The join is
    vectorized per partition and scales with the shuffle, and its
    output is exactly the pair list after an a<b filter.

    The signature table is materialized before the self-join: Ray Data
    has no common-subexpression sharing, so ``sigs.join(sigs, …)``
    would otherwise run the MinHasher pipeline twice. Signatures are
    ~16 narrow rows per doc — tiny relative to the corpus."""
    sigs = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        MinHasher, batch_format="pyarrow", batch_size=1024, concurrency=(1, 8)
    ).materialize()
    joined = sigs.join(
        sigs,
        "inner",
        join_partitions(num_partitions),
        on=("band_id", "band_hash"),
        left_suffix="_a",
        right_suffix="_b",
    )

    def to_pairs(batch: pa.Table) -> pa.Table:
        mask = pc.less(batch["doc_id_a"], batch["doc_id_b"])
        b = batch.filter(mask)
        return pa.table({"doc_a": b["doc_id_a"], "doc_b": b["doc_id_b"]})

    return joined.map_batches(to_pairs, batch_format="pyarrow")


def _verify_jaccard_pairs(
    uniq: rd.Dataset, sf_dir: str, threshold: float,
) -> pa.Table:
    """EXACT n-gram set-similarity verification of a distinct
    candidate-pair Dataset: two hash joins of the pair list against
    the corpus, with the (pairs-sized) candidate id set broadcast as a
    pre-filter so only candidate documents are shuffled — the driver
    holds ids only, never texts (the 10^12-scale shape). Shared by the
    MinHash-LSH and prefix-filter paths."""
    n_pairs = uniq.count()
    if n_pairs == 0:
        return _PAIRS_SCHEMA.empty_table()

    # candidate id set — ≤ 2×|pairs| ints, tiny relative to the corpus
    ids: set[int] = set()
    for b in uniq.iter_batches(batch_format="pyarrow"):
        ids.update(b["doc_a"].to_pylist())
        ids.update(b["doc_b"].to_pylist())
    ids_ref = ray.put(pa.array(sorted(ids), pa.int64()))

    def only_candidates(batch: pa.Table) -> pa.Table:
        # vectorized membership (Arrow is_in) against the broadcast ids
        b = batch.filter(pc.is_in(batch["doc_id"], ray.get(ids_ref)))
        # shingle each candidate doc ONCE here (a doc appears in many
        # pairs — recomputing md5 shingles per pair occurrence was the
        # dominant verify cost). The sorted-unique uint64 set is packed
        # as fixed-width binary because Arrow hash joins reject list<T>
        # payload columns.
        packs = [
            np.unique(shingle_hashes(t)).tobytes()
            for t in b["text"].to_pylist()
        ]
        return pa.table(
            {"doc_id": b["doc_id"], "sh": pa.array(packs, pa.binary())}
        )

    # Empty-first-block join hazard (Ray 2.49): the hash-shuffle join
    # broadcasts input schemas via the FIRST shuffled block, but a
    # 0-row first block short-circuits before sending anything while
    # still marking schemas as broadcast — partitions that then receive
    # no rows finalize as schemaless empties and pyarrow's join raises
    # "No match ... for key field reference". The filter above emits
    # 0-row batches for every corpus block without candidates, so both
    # join inputs are split-repartitioned to exact non-empty block
    # counts (split repartition divides rows evenly; k ≤ rows ⇒ no
    # empty blocks). All of this is pairs-sized — the repartition is
    # cheap by the same argument that lets ids sit on the driver.
    cand_docs = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(only_candidates, batch_format="pyarrow")
        .repartition(min(join_partitions(4), max(1, len(ids))))
        .materialize()  # pairs-sized; joined twice below
    )
    # pairs-sized joins: few partitions — each partition is an actor
    # spawn, and the data is tiny. The pair list itself is split-
    # repartitioned too: callers may hand a map_batches output whose
    # first block is empty (the join schema-broadcast hazard above).
    with_a = uniq.repartition(min(join_partitions(4), n_pairs)).join(
        cand_docs, "inner", join_partitions(4), on=("doc_a",), right_on=("doc_id",)
    ).map_batches(
        lambda t: pa.table({"doc_a": t["doc_a"], "doc_b": t["doc_b"],
                            "sh_a": t["sh"]}),
        batch_format="pyarrow",
    ).repartition(min(join_partitions(4), n_pairs))
    with_b = with_a.join(
        cand_docs, "inner", join_partitions(4), on=("doc_b",), right_on=("doc_id",)
    )

    def verify(batch: pa.Table) -> pa.Table:
        out_a, out_b, out_j = [], [], []
        for a_id, b_id, ra, rb in zip(
            batch["doc_a"].to_pylist(), batch["doc_b"].to_pylist(),
            batch["sh_a"].to_pylist(), batch["sh"].to_pylist(),
        ):
            sa = np.frombuffer(ra, dtype=np.uint64)
            sb = np.frombuffer(rb, dtype=np.uint64)
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            j = inter / max(1, sa.size + sb.size - inter)
            if j >= threshold:
                out_a.append(a_id)
                out_b.append(b_id)
                out_j.append(round_like_sql(j, 4))
        return pa.table(
            {
                "doc_a": pa.array(out_a, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
                "jaccard": pa.array(out_j, pa.float64()),
            }
        )

    out = with_b.map_batches(verify, batch_format="pyarrow").to_pandas()
    out = ensure_columns(out, _PAIRS_SCHEMA)
    # callers may pass locally-deduplicated (not globally distinct)
    # pair lists — duplicates verify to identical rows, dropped here on
    # the pairs-sized result (cheaper than a row-cardinality groupby
    # upstream)
    out = (
        out.drop_duplicates(["doc_a", "doc_b"])
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    return pa.Table.from_pandas(out, preserve_index=False)


# Process-local memo for the MinHash pair-mining tail. Three driver
# queries consume the same mined pairs (`minhash_dedup_pairs` and both
# `dup_clusters_*distributed` variants), and the LSH candidate set is
# threshold-INDEPENDENT (thresholding happens in verification), so one
# mining pass serves every threshold. Keyed by (realpath, corpus
# size+mtime fingerprint) — a touched corpus invalidates; a different
# process starts cold (cross-run determinism is untouched: the memo
# only returns the already-sorted table a fresh compute would produce).
# Candidate lists larger than _MEMO_MAX_PAIRS are not retained: the
# driver already holds the candidate-id set during verification, but a
# standing cache of a huge pair list would outlive that window.
_MEMO_MAX_PAIRS = 2_000_000
_CAND_MEMO: dict[tuple, pa.Table] = {}
_PAIRS_MEMO: dict[tuple, pa.Table] = {}


def _corpus_fingerprint(sf_dir: str) -> str:
    """size:mtime_ns stamp of documents.parquet (file or directory) —
    same cheap staleness check as the ANN index cache."""
    path = os.path.join(sf_dir, "documents.parquet")
    if os.path.isdir(path):
        parts = []
        for root, _, files in os.walk(path):
            for f in sorted(files):
                st = os.stat(os.path.join(root, f))
                parts.append(f"{f}:{st.st_size}:{st.st_mtime_ns}")
        return "|".join(parts)
    st = os.stat(path)
    return f"{st.st_size}:{st.st_mtime_ns}"


def clear_pair_memo() -> None:
    """Drop the process-local mining memo (tests / long-lived servers)."""
    _CAND_MEMO.clear()
    _PAIRS_MEMO.clear()


def _distinct_candidates(sf_dir: str) -> rd.Dataset:
    """Distinct LSH candidate pairs, memoized per (corpus, content).

    The distinct pair list is the pairs-sized artifact the verifier
    already collects ids from; retaining it driver-side (bounded by
    ``_MEMO_MAX_PAIRS``) lets every threshold variant skip the
    signature + banding-join pipeline entirely on reuse."""
    from ray.data.aggregate import Count

    key = (os.path.realpath(sf_dir), _corpus_fingerprint(sf_dir))
    if key in _CAND_MEMO:
        return rd.from_arrow(_CAND_MEMO[key])
    uniq = (
        minhash_candidates(sf_dir)
        .groupby(["doc_a", "doc_b"])
        .aggregate(Count(alias_name="_n"))
        .map_batches(lambda t: t.select(["doc_a", "doc_b"]), batch_format="pyarrow")
        .materialize()
    )
    if uniq.count() <= _MEMO_MAX_PAIRS:
        tbl = pa.concat_tables(
            uniq.iter_batches(batch_format="pyarrow", batch_size=None)
        ) if uniq.count() else pa.schema(
            [("doc_a", pa.int64()), ("doc_b", pa.int64())]
        ).empty_table()
        # canonical order so a memo hit is byte-identical to a rerun
        _CAND_MEMO[key] = tbl.sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])
        return rd.from_arrow(_CAND_MEMO[key])
    return uniq


def minhash_dedup_pairs(sf_dir: str, threshold: float = 0.7) -> pa.Table:
    """End-to-end MinHash-LSH near-dup: candidates from band buckets,
    deduplicated (distributed groupby = the drop_duplicates), then
    exact verification via :func:`_verify_jaccard_pairs` — no LSH
    false positives in the output; false negatives bounded by the band
    curve. Mining and verified output are memoized per corpus content
    (see ``_distinct_candidates``) so the cluster queries reuse them."""
    key = (os.path.realpath(sf_dir), _corpus_fingerprint(sf_dir), threshold)
    if key in _PAIRS_MEMO:
        return _PAIRS_MEMO[key]
    out = _verify_jaccard_pairs(_distinct_candidates(sf_dir), sf_dir, threshold)
    if out.num_rows <= _MEMO_MAX_PAIRS:
        _PAIRS_MEMO[key] = out
    return out


def _minhash_pairs_cte(threshold: float = 0.7) -> str:
    """CTE body reproducing the full MinHash-LSH semantics in SQL:
    per-doc 64 minhash values (the permutation constants from
    :func:`_perm_params` are inlined as a VALUES list — same
    seeded generator, so the signatures are identical), candidates =
    pairs agreeing on all 4 values of ≥1 band (the Ray side compares
    md5(band bytes); equal bytes ⇔ equal value tuples, so the SQL
    band-tuple join differs only on an md5 collision), then exact
    Jaccard verification. Ends with ``good(doc_a, doc_b, jaccard)``."""
    a, b = _perm_params()
    perm_vals = ", ".join(
        f"({i}, {int(a[i])}, {int(b[i])})" for i in range(N_PERM)
    )
    return f"""
perms(i, a, b) AS (VALUES {perm_vals}),
{_SHINGLE_SQL_CTE.strip()},
h32 AS (
  SELECT doc_id,
         ({_MD5_64_SQL.format(e='g')} & 4294967295)::BIGINT AS h
  FROM sh
),
sigs AS (
  SELECT doc_id, p.i, MIN((p.a * h + p.b) % {MERSENNE}) AS sig
  FROM h32, perms p GROUP BY doc_id, p.i
),
bands AS (
  SELECT doc_id, i // 4 AS band_id, list(sig ORDER BY i) AS band_sig
  FROM sigs GROUP BY doc_id, i // 4
),
cands AS (
  SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
  FROM bands x JOIN bands y
    ON x.band_id = y.band_id AND x.band_sig = y.band_sig
   AND x.doc_id < y.doc_id
),
inter AS (
  SELECT c.doc_a, c.doc_b, count(*) AS c
  FROM cands c
  JOIN sh sa ON sa.doc_id = c.doc_a
  JOIN sh sb ON sb.doc_id = c.doc_b AND sa.g = sb.g
  GROUP BY c.doc_a, c.doc_b
),
good AS (
  SELECT i.doc_a, i.doc_b,
         ROUND(i.c * 1.0 / (na.n + nb.n - i.c), 4) AS jaccard
  FROM inter i
  JOIN sizes na ON na.doc_id = i.doc_a
  JOIN sizes nb ON nb.doc_id = i.doc_b
  WHERE i.c * 1.0 / (na.n + nb.n - i.c) >= {threshold}
)
"""


def minhash_pairs_sql(threshold: float = 0.7) -> str:
    """Driver oracle for :func:`minhash_dedup_pairs` (brute-force SQL;
    the Ray side is the scale path)."""
    return (f"WITH {_minhash_pairs_cte(threshold)} "
            "SELECT doc_a, doc_b, jaccard FROM good ORDER BY doc_a, doc_b")


def dup_clusters_distributed_sql(threshold: float = 0.7) -> str:
    """Driver oracle for :func:`dup_clusters_distributed`: connected
    components over the verified MinHash pair set via a recursive
    transitive closure (component sizes are dup-group sized, so the
    closure stays tiny), cluster label = min reachable doc_id."""
    return f"""
WITH RECURSIVE {_minhash_pairs_cte(threshold)},
edges AS (
  SELECT doc_a AS a, doc_b AS b FROM good
  UNION SELECT doc_b, doc_a FROM good
),
reach(a, b) AS (
  SELECT a, b FROM edges
  UNION
  SELECT r.a, e.b FROM reach r JOIN edges e ON r.b = e.a
)
SELECT d.doc_id, LEAST(d.doc_id, COALESCE(MIN(r.b), d.doc_id)) AS cluster_id
FROM documents d LEFT JOIN reach r ON r.a = d.doc_id
GROUP BY d.doc_id ORDER BY d.doc_id
"""


_HOT_MEMO: dict = {}


def _hot_shingles(sf_dir: str, n_sample: int = 2048,
                  hot_frac: float = 0.05, cap: int = 256) -> np.ndarray:
    """Sampled hot-shingle (stopword n-gram) detection for the prefix
    join's skew mitigation: shingles whose document frequency in a
    pushdown-bounded sample is ≥ hot_frac (capped at the `cap`
    hottest) get DEMOTED to the end of the global shingle order, so
    they essentially never land in a prefix — removing the
    skewed-join-key hot spot a stopword 3-gram would otherwise become
    at corpus scale (round-3 verdict item 3).

    Sampling is safe here because correctness does not depend on WHICH
    shingles are called hot: the prefix-filter theorem holds for ANY
    fixed total order of the shingle universe, and the order
    ((is_hot, hash), hot last) is global — sampling error can only
    affect skew quality, never the pair set. Deterministic: fixed
    sample (doc_id < n_sample), ties broken (count desc, hash asc).
    Memoized per corpus content alongside the pair memos."""
    key = (os.path.realpath(sf_dir), _corpus_fingerprint(sf_dir),
           n_sample, hot_frac, cap)
    hit = _HOT_MEMO.get(key)
    if hit is not None:
        return hit
    from collections import Counter

    import pyarrow.parquet as pq

    sample = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
        filters=[("doc_id", "<", n_sample)],
    )
    texts = sample["text"].to_pylist()
    df: Counter = Counter()
    for t in texts:
        df.update(np.unique(shingle_hashes(t)).tolist())
    n = max(1, len(texts))
    hot = [h for h, c in df.items() if c / n >= hot_frac]
    hot.sort(key=lambda h: (-df[h], h))
    out = np.sort(np.array(hot[:cap], dtype=np.uint64))
    _HOT_MEMO[key] = out
    return out


def ngram_jaccard_pairs_exact(sf_dir: str, threshold: float = 0.7) -> pa.Table:
    """EXACT set-similarity join at scale via prefix filtering (the
    public PPJoin/AllPairs principle: order the shingle universe
    globally; a pair with Jaccard ≥ t must share at least one of each
    member's first ``|S| − ⌈t·|S|⌉ + 1`` smallest shingles — so only
    those prefix shingles need to be join keys).

    The join is lossless (no blocking that could drop a pair) and
    shuffles only (prefix_shingle, doc_id) rows followed by the
    standard pairs-sized verification — no O(n²) anywhere.
    Hot shingles (stopword n-grams) are the skew risk; the standard
    mitigation at 10^12 scale is dropping the few universally-frequent
    shingles from prefixes on both sides (not needed at test scale).
    Prefix length scales with (1−t)·|S|, so low thresholds inflate the
    join input — default 0.7 keeps prefixes at ~30% of shingles; the
    t=0.5 exactness case is covered in tests.

    Prefixes are over the UNIQUE shingle set (Jaccard is a set
    measure; a multiset prefix can under-cover the set prefix when a
    small shingle repeats, which would be lossy). The join output is
    pruned by the PPJoin length filter (J ≥ t ⇒ min|S| ≥ t·max|S|)
    and deduplicated LOCALLY per block only — the globally-duplicated
    survivors (pairs sharing several prefix shingles across join
    partitions) are a few percent, far cheaper to re-verify than a
    row-cardinality groupby (measured 10.6 s at sf0.1); the verifier
    drops the duplicate rows on its pairs-sized output.

    Skew mitigation (round 4): the global shingle order is
    ((is_hot, hash)) with the sampled universally-frequent shingles
    (:func:`_hot_shingles`) sorting LAST — they drop out of prefixes
    on both sides, so no stopword n-gram becomes a hot join key.
    Lossless by the prefix-filter theorem (valid for any fixed total
    order); pinned against brute-force all-pairs in pytest."""
    hot = _hot_shingles(sf_dir)

    def prefix_rows(batch: pa.Table) -> pa.Table:
        import math

        sh_col, doc_col, n_col = [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(),
                                batch["text"].to_pylist()):
            sh = np.unique(shingle_hashes(text))
            if len(hot):
                is_hot = np.isin(sh, hot)
                ordered = np.concatenate([sh[~is_hot], sh[is_hot]])
            else:
                ordered = sh
            plen = len(sh) - math.ceil(threshold * len(sh)) + 1
            for h in ordered[:plen]:
                sh_col.append(int(h))
                doc_col.append(doc_id)
                n_col.append(len(sh))
        return pa.table(
            {
                # uint64 → int64 view keeps the join key fixed-width
                "shingle": pa.array(
                    np.array(sh_col, dtype=np.uint64).view(np.int64)
                ),
                "doc_id": pa.array(doc_col, pa.int64()),
                "n_sh": pa.array(n_col, pa.int32()),
            }
        )

    prefixes = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        prefix_rows, batch_format="pyarrow"
    ).materialize()  # self-join below; no CSE in Ray Data
    joined = prefixes.join(
        prefixes, "inner", join_partitions(8), on=("shingle",),
        left_suffix="_a", right_suffix="_b",
    )

    def to_pairs(batch: pa.Table) -> pa.Table:
        mn = pc.min_element_wise(batch["n_sh_a"], batch["n_sh_b"])
        mx = pc.max_element_wise(batch["n_sh_a"], batch["n_sh_b"])
        mask = pc.and_(
            pc.less(batch["doc_id_a"], batch["doc_id_b"]),
            # length filter; ε keeps exact-boundary pairs (t·mx rounds
            # up in float64 for e.g. t=0.7, mx=10) — false keeps are
            # discarded by verification, false drops would be lossy
            pc.greater_equal(
                pc.cast(mn, pa.float64()),
                pc.subtract(
                    pc.multiply(pc.cast(mx, pa.float64()),
                                pa.scalar(float(threshold))),
                    pa.scalar(1e-9),
                ),
            ),
        )
        b = batch.filter(mask)
        return pa.table(
            {"doc_a": b["doc_id_a"], "doc_b": b["doc_id_b"]}
        ).group_by(["doc_a", "doc_b"]).aggregate([])  # local distinct

    pairs = joined.map_batches(to_pairs, batch_format="pyarrow").materialize()
    return _verify_jaccard_pairs(pairs, sf_dir, threshold)


def ngram_jaccard_exact_sql(threshold: float = 0.7) -> str:
    """Driver oracle for :func:`ngram_jaccard_pairs_exact`: the
    prefix-filter join is lossless, so brute-force all-pairs SQL over
    the distinct shingle strings is a true oracle (ROUND half-away
    matches round_like_sql). Parameterized like
    :func:`minhash_pairs_sql` so a non-default threshold cannot
    silently compare against a stale 0.7 constant."""
    return f"""
WITH {_SHINGLE_SQL_CTE.strip()},
inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS c
  FROM sh a JOIN sh b ON a.g = b.g AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT doc_a, doc_b,
       ROUND(c * 1.0 / (sa.n + sb.n - c), 4) AS jaccard
FROM inter
JOIN sizes sa ON sa.doc_id = doc_a
JOIN sizes sb ON sb.doc_id = doc_b
WHERE c * 1.0 / (sa.n + sb.n - c) >= {threshold}
ORDER BY doc_a, doc_b
"""


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def simhash64(text: str) -> int:
    """Charikar SimHash over unigram token hashes (unit weights)."""
    acc = np.zeros(64, dtype=np.int64)
    shifts = np.arange(64, dtype=np.uint64)
    for tok in text.split(" "):
        uh = np.uint64(_md5_64(tok))
        bits = (uh >> shifts) & np.uint64(1)
        acc += np.where(bits.astype(bool), 1, -1)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


class SimHasher:
    """Actor-pool SimHash stage with a warm token→bit-row cache.

    Corpus token frequencies are Zipfian, so the per-actor cache of
    md5-derived ±1 bit rows hits almost always after warmup — the md5
    per unique token is paid once per actor, and each document is one
    ``rows.sum(axis=0)`` over cached rows. Produces bit-identical
    hashes to the scalar :func:`simhash64` (tested)."""

    def __init__(self) -> None:
        self._cache: dict[str, np.ndarray] = {}
        self._shifts = np.arange(64, dtype=np.uint64)

    def _row(self, tok: str) -> np.ndarray:
        r = self._cache.get(tok)
        if r is None:
            uh = np.uint64(_md5_64(tok))
            bits = ((uh >> self._shifts) & np.uint64(1)).astype(bool)
            r = np.where(bits, np.int16(1), np.int16(-1))
            self._cache[tok] = r
        return r

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = np.empty(batch.num_rows, dtype=np.uint64)
        powers = np.uint64(1) << self._shifts
        for i, text in enumerate(batch["text"].to_pylist()):
            rows = np.stack([self._row(t) for t in text.split(" ")])
            acc = rows.sum(axis=0, dtype=np.int64)
            out[i] = np.uint64(powers[acc > 0].sum())
        return pa.table(
            {"doc_id": batch["doc_id"], "simhash": pa.array(out.view(np.int64))}
        )


def simhash_table(sf_dir: str) -> rd.Dataset:
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        SimHasher, batch_format="pyarrow", batch_size=2048, concurrency=(1, 8)
    )


def simhash_dup_pairs(sf_dir: str, max_hamming: int = 3) -> pa.Table:
    """Near-dup pairs by SimHash: block on 4 × 16-bit chunks (any pair
    within Hamming ≤ 3 of 4 chunks shares at least one exact chunk —
    pigeonhole), then verify Hamming distance exactly."""

    def explode(batch: pa.Table) -> pa.Table:
        doc, chunk_id, chunk_val, full = [], [], [], []
        for d, h in zip(batch["doc_id"].to_pylist(), batch["simhash"].to_pylist()):
            uh = np.int64(h).astype(np.uint64)
            for c in range(4):
                doc.append(d)
                chunk_id.append(c)
                chunk_val.append(int((int(uh) >> (16 * c)) & 0xFFFF))
                full.append(h)
        return pa.table(
            {
                "doc_id": pa.array(doc, pa.int64()),
                "chunk_id": pa.array(chunk_id, pa.int32()),
                "chunk_val": pa.array(chunk_val, pa.int32()),
                "simhash": pa.array(full, pa.int64()),
            }
        )

    def to_pairs(batch: pa.Table) -> pa.Table:
        # vectorized Hamming distance: XOR then popcount via unpackbits
        mask = pc.less(batch["doc_id_a"], batch["doc_id_b"])
        b = batch.filter(mask)
        ha = b["simhash_a"].to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64)
        hb = b["simhash_b"].to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64)
        x = (ha ^ hb).view(np.uint8).reshape(-1, 8)
        d = np.unpackbits(x, axis=1).sum(axis=1).astype(np.int64)
        keep = d <= max_hamming
        return pa.table(
            {
                "doc_a": pa.array(np.asarray(b["doc_id_a"])[keep], pa.int64()),
                "doc_b": pa.array(np.asarray(b["doc_id_b"])[keep], pa.int64()),
                "hamming": pa.array(d[keep], pa.int64()),
            }
        )

    # materialize before the self-join (no CSE in Ray Data — otherwise
    # the SimHash pipeline runs twice); the exploded table is 4 narrow
    # rows per doc
    exploded = simhash_table(sf_dir).map_batches(
        explode, batch_format="pyarrow"
    ).materialize()
    # self-join on the 16-bit chunk (pigeonhole blocking), vectorized
    # pair filter — same rationale as minhash_candidates
    joined = exploded.join(
        exploded,
        "inner",
        join_partitions(8),
        on=("chunk_id", "chunk_val"),
        left_suffix="_a",
        right_suffix="_b",
    )
    out = joined.map_batches(to_pairs, batch_format="pyarrow").to_pandas()
    out = ensure_columns(out, _HAMMING_SCHEMA)
    out = (
        out.drop_duplicates(["doc_a", "doc_b"])
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
        .astype({"doc_a": "int64", "doc_b": "int64", "hamming": "int64"})
    )
    return pa.Table.from_pandas(out, preserve_index=False)


# Driver oracle for simhash_dup_pairs: the 4×16-bit pigeonhole
# blocking is lossless for Hamming ≤ 3, so brute-force all-pairs SQL
# over the recomputed simhashes (md5_64 per token occurrence → ±1 bit
# sums → sign bits) is a true oracle.
SIMHASH_PAIRS_SQL = f"""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
),
tok_counts AS (
  SELECT doc_id, tok, count(*) AS c FROM toks GROUP BY doc_id, tok
),
tok_hash AS (
  SELECT doc_id, {_MD5_64_SQL.format(e='tok')} AS h, c FROM tok_counts
),
bits AS (
  SELECT doc_id, i,
         SUM(CASE WHEN (h >> i) & 1 = 1 THEN c ELSE -c END) AS acc
  FROM tok_hash, range(0, 64) r(i)
  GROUP BY doc_id, i
),
sims AS (
  SELECT doc_id,
         SUM(CASE WHEN acc > 0 THEN (1::UBIGINT << i) ELSE 0::UBIGINT END)::UBIGINT AS sim
  FROM bits GROUP BY doc_id
),
pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         bit_count(xor(a.sim, b.sim))::BIGINT AS hamming
  FROM sims a JOIN sims b ON a.doc_id < b.doc_id
)
SELECT doc_a, doc_b, hamming FROM pairs WHERE hamming <= 3
ORDER BY doc_a, doc_b
"""


# ---------------------------------------------------------------------------
# Duplicate clusters (connected components over the near-dup pair graph)
# ---------------------------------------------------------------------------

def propagate_labels_ds(edges: pd.DataFrame, nodes: rd.Dataset,
                        max_rounds: int = 25) -> rd.Dataset:
    """Min-label propagation over an undirected edge list using Ray
    Data groupby rounds — connected components without collecting the
    graph for a driver-side union-find (ray_guide dedup section).

    Each round every node takes min(its label, neighbors' labels);
    converges in ≤ diameter rounds. The (node, label) table stays a
    Dataset across rounds (materialized per round to truncate lineage)
    — the driver only ever sees one convergence scalar per round: the
    label sum, which strictly decreases until the fixpoint because
    labels are monotonically non-increasing. (At id ranges where an
    int64 label sum could overflow, substitute a changed-count via an
    old⋈new join — same round structure.)

    ``edges`` is the verified near-dup pair list — tiny relative to
    the corpus (only actual near-dups survive verification), so pandas
    on the driver is the right home for it; ``nodes`` (corpus-sized,
    column ``doc_id``) never leaves the cluster."""
    from ray.data.aggregate import Min

    labels = nodes.map_batches(
        lambda t: pa.table({"node": t["doc_id"], "label": t["doc_id"]}),
        batch_format="pyarrow",
    ).materialize()
    und = pd.concat([
        edges.rename(columns={"doc_a": "src", "doc_b": "dst"}),
        edges.rename(columns={"doc_a": "dst", "doc_b": "src"}),
    ])[["src", "dst"]]
    if not len(und):
        return labels
    edges_ds = rd.from_pandas(und).materialize()
    prev_sum = None
    for _ in range(max_rounds):
        # neighbor label contributions: edges (src=node) → (dst, label)
        j = edges_ds.join(
            labels, "inner", join_partitions(8),
            on=("src",), right_on=("node",),
        )
        neigh = j.map_batches(
            lambda t: pa.table({"node": t["dst"], "label": t["label"]}),
            batch_format="pyarrow",
        )
        # union with the self-contribution then grouped min — covers
        # every node without needing an outer join
        labels = (
            labels.union(neigh)
            .groupby("node")
            .aggregate(Min("label", alias_name="label"))
            .materialize()
        )
        s = labels.sum("label")
        if s == prev_sum:
            break
        prev_sum = s
    return labels


def _propagate_labels(edges: pd.DataFrame, nodes: pd.DataFrame,
                      max_rounds: int = 25) -> pd.DataFrame:
    """pandas-in/pandas-out wrapper over :func:`propagate_labels_ds`
    (the property-test surface — still exercises the distributed
    rounds)."""
    nodes_ds = rd.from_pandas(nodes[["doc_id"]].astype({"doc_id": "int64"}))
    out = propagate_labels_ds(edges, nodes_ds, max_rounds).to_pandas()
    return out.astype({"node": "int64", "label": "int64"})


def dup_clusters_distributed(sf_dir: str, threshold: float = 0.7) -> rd.Dataset:
    """doc_id → cluster_id (min doc_id of its near-dup component) over
    the verified MinHash pair graph, by distributed min-label
    propagation (:func:`propagate_labels_ds`, pinned equal to a
    union-find on random graphs in pytest; the result is checked
    against :func:`dup_clusters_distributed_sql`). Docs in no pair
    are singleton clusters of themselves; output covers every doc
    (same shape as exact_dedup's canonical_id). The label table stays
    a Dataset end to end, so components never have to fit on the
    driver."""
    pairs = minhash_dedup_pairs(sf_dir, threshold).to_pandas()
    nodes = _docs(sf_dir, ["doc_id"])
    labels = propagate_labels_ds(pairs[["doc_a", "doc_b"]], nodes)
    return labels.map_batches(
        lambda t: pa.table({"doc_id": t["node"], "cluster_id": t["label"]}),
        batch_format="pyarrow",
    ).sort("doc_id")


def dup_clusters_exact_distributed(sf_dir: str) -> rd.Dataset:
    """:func:`dup_clusters_distributed` at threshold 1.0 — the
    oracle-checkable point of the near-dup family. Exact duplicates
    have identical MinHash signatures, so every band collides and LSH
    recall is exactly 1.0; verification keeps only Jaccard == 1.0
    pairs (integer division of equal set sizes — no float error). On
    corpora where equal shingle sets imply equal bytes (pinned for the
    driver corpus in tests/test_crawls_windows.py), the clusters are
    precisely the md5-equality components, which SQL expresses as a
    window min (:data:`DUP_CLUSTERS_EXACT_SQL`)."""
    return dup_clusters_distributed(sf_dir, threshold=1.0)


DUP_CLUSTERS_EXACT_SQL = """
SELECT doc_id, MIN(doc_id) OVER (PARTITION BY md5(text)) AS cluster_id
FROM documents
"""
