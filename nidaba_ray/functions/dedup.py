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
_CONTAINMENT_SCHEMA = pa.schema(
    [("doc_a", pa.int64()), ("doc_b", pa.int64()),
     ("containment", pa.float64())]
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
    docs: rd.Dataset | None = None, measure: str = "jaccard",
) -> pa.Table:
    """EXACT n-gram set-similarity verification of a distinct
    candidate-pair Dataset: two hash joins of the pair list against
    the corpus, with the (pairs-sized) candidate id set broadcast as a
    pre-filter so only candidate documents are shuffled — the driver
    holds ids only, never texts (the 10^12-scale shape). Shared by the
    MinHash-LSH and prefix-filter paths; ``docs`` overrides the corpus
    source (the cross-crawl prober passes new-crawl ∪
    candidate-filtered prior). ``measure`` picks the similarity:
    ``"jaccard"`` (symmetric, |∩|/|∪|) or ``"containment"``
    (directional, |∩|/|S(doc_a)| — doc_a is the contained side)."""
    schema = (_PAIRS_SCHEMA if measure == "jaccard"
              else _CONTAINMENT_SCHEMA)
    n_pairs = uniq.count()
    if n_pairs == 0:
        return schema.empty_table()

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
        (docs if docs is not None else _docs(sf_dir, ["doc_id", "text"]))
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
            if measure == "containment":
                j = inter / max(1, sa.size)
            else:
                j = inter / max(1, sa.size + sb.size - inter)
            if j >= threshold:
                out_a.append(a_id)
                out_b.append(b_id)
                out_j.append(round_like_sql(j, 4))
        return pa.table(
            {
                "doc_a": pa.array(out_a, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
                schema.names[2]: pa.array(out_j, pa.float64()),
            }
        )

    out = with_b.map_batches(verify, batch_format="pyarrow").to_pandas()
    out = ensure_columns(out, schema)
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


def ngram_containment_pairs(sf_dir: str,
                            threshold: float = 0.8) -> pa.Table:
    """EXACT asymmetric containment join: (doc_a, doc_b, containment)
    with C(a→b) = |S(a)∩S(b)| / |S(a)| ≥ threshold and a ≠ b — doc_a
    is (mostly) CONTAINED in doc_b. The one-sided measure Jaccard
    can't express: a short article wholesale-included in a long
    aggregator page has tiny Jaccard but containment ≈ 1, the shape
    quote-inclusion / wrapper-page detection needs.

    Prefix filtering still applies, one-sided: if C(a→b) ≥ t then at
    most ⌊(1−t)·|S(a)|⌋ of a's shingles miss b, so one of a's first
    ``|S| − ⌈t·|S|⌉ + 1`` shingles (ANY fixed total order — the
    hot-demoted order of :func:`ngram_jaccard_pairs_exact` reused) is
    in b. The contained side therefore emits only prefixes; the
    CONTAINER side must index its FULL shingle set (containment puts
    no bound on where the witness sits in b's order). The join input
    is probe-prefix × full-index — linear in shingle rows, never
    quadratic; the candidate filter keeps |S(b)| ≥ t·|S(a)| (the
    one-sided length filter: the intersection can't exceed |S(b)|).
    Skew note: hot shingles drop out of probe prefixes but stay in
    the index; an index key's row list is inverted-index sized and
    meets only rare probes, so the join OUTPUT stays flat — at true
    corpus scale drop universal shingles from both sides (documented
    epsilon) if an index key's partition outgrows a block.
    Verification reuses the pairs-sized broadcast-prefilter joins
    (:func:`_verify_jaccard_pairs`, measure="containment")."""
    import math

    hot = _hot_shingles(sf_dir)

    def _ordered(text: str) -> tuple[np.ndarray, int]:
        sh = np.unique(shingle_hashes(text))
        if len(hot):
            is_hot = np.isin(sh, hot)
            return np.concatenate([sh[~is_hot], sh[is_hot]]), len(sh)
        return sh, len(sh)

    def probe_rows(batch: pa.Table) -> pa.Table:
        sh_col, doc_col, n_col = [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(),
                                batch["text"].to_pylist()):
            ordered, n = _ordered(text)
            plen = n - math.ceil(threshold * n) + 1
            for h in ordered[:plen]:
                sh_col.append(int(h))
                doc_col.append(doc_id)
                n_col.append(n)
        return pa.table({
            "shingle": pa.array(
                np.array(sh_col, dtype=np.uint64).view(np.int64)),
            "doc_id": pa.array(doc_col, pa.int64()),
            "n_sh": pa.array(n_col, pa.int32()),
        })

    def index_rows(batch: pa.Table) -> pa.Table:
        sh_col, doc_col, n_col = [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(),
                                batch["text"].to_pylist()):
            sh = np.unique(shingle_hashes(text))
            for h in sh:
                sh_col.append(int(h))
                doc_col.append(doc_id)
                n_col.append(len(sh))
        return pa.table({
            "shingle": pa.array(
                np.array(sh_col, dtype=np.uint64).view(np.int64)),
            "doc_id": pa.array(doc_col, pa.int64()),
            "n_sh": pa.array(n_col, pa.int32()),
        })

    docs = _docs(sf_dir, ["doc_id", "text"])
    probe = docs.map_batches(probe_rows, batch_format="pyarrow")
    index = docs.map_batches(index_rows, batch_format="pyarrow")
    joined = probe.join(
        index, "inner", join_partitions(8), on=("shingle",),
        left_suffix="_a", right_suffix="_b",
    )

    def to_pairs(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.not_equal(batch["doc_id_a"], batch["doc_id_b"]),
            # one-sided length filter (ε keeps exact boundaries)
            pc.greater_equal(
                pc.cast(batch["n_sh_b"], pa.float64()),
                pc.subtract(
                    pc.multiply(pc.cast(batch["n_sh_a"], pa.float64()),
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
    return _verify_jaccard_pairs(pairs, sf_dir, threshold,
                                 measure="containment")


def ngram_containment_sql(threshold: float = 0.8) -> str:
    """Oracle for :func:`ngram_containment_pairs`: the one-sided
    prefix join is lossless, so brute-force directional all-pairs SQL
    over the distinct shingle strings is a true oracle."""
    return f"""
WITH {_SHINGLE_SQL_CTE.strip()},
inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS c
  FROM sh a JOIN sh b ON a.g = b.g AND a.doc_id <> b.doc_id
  GROUP BY 1, 2
)
SELECT doc_a, doc_b, ROUND(c * 1.0 / sa.n, 4) AS containment
FROM inter
JOIN sizes sa ON sa.doc_id = doc_a
WHERE c * 1.0 / sa.n >= {threshold}
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


# ---------------------------------------------------------------------------
# Cross-document paragraph (line-level) dedup — the CCNet/C4-style
# corpus-statistical boilerplate remover
# ---------------------------------------------------------------------------

def dedup_paragraphs(sf_dir: str, max_df: int = 1,
                     column: str = "text",
                     max_broadcast: int = 4_000_000) -> rd.Dataset:
    """Remove every line that appears in more than ``max_df`` DISTINCT
    documents, then drop documents left with no lines (the public
    CCNet paragraph-dedup / C4 boilerplate-line recipe: a line shared
    across many pages is site furniture, not content).

    Scale shape — two streaming passes, payloads never shuffle:

    1. *df counts*: per batch, each doc contributes its DISTINCT line
       fingerprints (md5_64 — repo md5-only invariant), pre-counted
       within the batch, so the only shuffle is a groupby-sum over
       (fp, n) partials — 16 bytes per distinct line per batch.
    2. *rewrite*: when the over-threshold survivors fit
       ``max_broadcast`` they are broadcast (boilerplate-sized on
       ordinary corpora — a line must recur in > max_df documents to
       qualify) and the rewrite is shuffle-free: drop frequent lines
       per row against the broadcast fp set (``pc.is_in``), rejoin
       with newline. On a heavily MIRRORED corpus the frequent set can
       approach line cardinality and the broadcast precondition fails
       (round-4 verdict item 1) — the fallback routes through the
       generalized :func:`_covered_rewrite_shuffled` with newline-split
       1-grams (a line is its own gram), pinned output-equal in
       ``tests/test_scrub_paradedup.py``: the shuffle carries
       (fp, doc_id, line-position) rows, never the text payloads.

    Splitting is ``str.split("\\n")`` — byte-identical to DuckDB
    ``string_split(text, chr(10))``, which the pytest oracle uses
    (raw line STRINGS in SQL; equal sets absent an md5_64 collision —
    the Jaccard-oracle argument)."""
    from collections import Counter

    from ray.data.aggregate import Sum

    def fp_partials(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for t in batch[column].to_pylist():
            counts.update({_md5_64(ln) for ln in t.split("\n")})
        fps, ns = zip(*counts.items()) if counts else ((), ())
        return pa.table({
            "fp": pa.array(np.array(list(fps), dtype=np.uint64)
                           .view(np.int64)),
            "n": pa.array(list(ns), pa.int64()),
        })

    docs = _docs(sf_dir, ["doc_id", column])
    df_counts = (
        docs.map_batches(fp_partials, batch_format="pyarrow")
        .groupby("fp").aggregate(Sum("n", alias_name="df"))
    )
    frequent = df_counts.filter(
        expr=f"df > {int(max_df)}"
    ).select_columns(["fp"]).materialize()
    if frequent.count() > max_broadcast:
        return _covered_rewrite_shuffled(docs, frequent, 1, column,
                                         sep="\n", emit_removed=False)
    freq_chunks = [b["fp"] for b in frequent.iter_batches(batch_format="pyarrow")
                   if b.num_rows]
    freq_arr = (pa.concat_arrays([c.combine_chunks() if isinstance(c, pa.ChunkedArray)
                                  else c for c in freq_chunks])
                if freq_chunks else pa.array([], pa.int64()))
    freq_ref = ray.put(freq_arr)

    def rewrite(batch: pa.Table) -> pa.Table:
        freq = ray.get(freq_ref)
        out_ids, out_texts = [], []
        for did, t in zip(batch["doc_id"].to_pylist(),
                          batch[column].to_pylist()):
            lines = t.split("\n")
            fps = pa.array(np.fromiter(
                (_md5_64(ln) for ln in lines), dtype=np.uint64,
                count=len(lines)).view(np.int64))
            drop = pc.is_in(fps, value_set=freq).to_numpy(
                zero_copy_only=False)
            kept = [ln for ln, d in zip(lines, drop) if not d]
            if kept:
                out_ids.append(did)
                out_texts.append("\n".join(kept))
        return pa.table({"doc_id": pa.array(out_ids, pa.int64()),
                         column: pa.array(out_texts, pa.string())})

    return docs.map_batches(rewrite, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Token n-gram fingerprints (shared by duplicate-span removal and
# benchmark decontamination)
# ---------------------------------------------------------------------------

def _token_ngram_fps(tokens: list[str], n: int) -> np.ndarray:
    """md5_64 per consecutive token n-gram, in position order
    (< n tokens → no fingerprints)."""
    if len(tokens) < n:
        return np.array([], dtype=np.uint64)
    return np.fromiter(
        (_md5_64(" ".join(tokens[i:i + n]))
         for i in range(len(tokens) - n + 1)),
        dtype=np.uint64, count=len(tokens) - n + 1,
    )


# ---------------------------------------------------------------------------
# Cross-document duplicate-SPAN removal — exact substring dedup (the
# public Lee et al. 2021 "Deduplicating Training Data Makes Language
# Models Better" ExactSubstr recipe, re-expressed over token n-grams)
# ---------------------------------------------------------------------------

def _cover_and_join(toks: list[str], hot: np.ndarray, n: int,
                    joiner: str = " ") -> tuple:
    """Shared cover-mask kernel: hot window starts → kept text.
    Returns (kept_text or None, n_removed)."""
    if len(hot):
        c = np.concatenate(([0], np.cumsum(hot)))
        idx = np.arange(len(toks))
        lo = np.maximum(idx - n + 1, 0)
        hi = np.minimum(idx + 1, len(hot))
        covered = (c[hi] - c[np.minimum(lo, hi)]) > 0
    else:
        covered = np.zeros(len(toks), dtype=bool)
    kept = [tok for tok, cv in zip(toks, covered) if not cv]
    if not kept:
        return None, 0
    return joiner.join(kept), len(toks) - len(kept)


def _covered_rewrite_shuffled(docs: rd.Dataset, frequent: rd.Dataset,
                              n: int, column: str, sep: str = " ",
                              joiner: str | None = None,
                              emit_removed: bool = True) -> rd.Dataset:
    """The no-broadcast rewrite: gram OCCURRENCES (fp, doc_id, pos)
    join the frequent-fp Dataset, hot starts pack into one binary
    array per doc, and a left join carries them back to the payloads —
    text bytes are read exactly twice and never shuffled; everything
    that moves is fingerprint/position-sized.

    Generalized over the unit of removal (round-4 verdict item on
    ``dedup_paragraphs``): ``sep``/``joiner`` pick the token alphabet
    — space-split tokens with n>1 is duplicate-SPAN removal; newline-
    split "tokens" with n=1 makes each LINE its own gram, which is
    exactly the paragraph-dedup rewrite (lines are 1-grams over the
    line sequence)."""
    if joiner is None:
        joiner = sep

    def occurrences(batch: pa.Table) -> pa.Table:
        fps_col, ids_col, pos_col = [], [], []
        for did, t in zip(batch["doc_id"].to_pylist(),
                          batch[column].to_pylist()):
            g = _token_ngram_fps(t.split(sep), n)
            if len(g):
                fps_col.append(g.view(np.int64))
                ids_col.append(np.full(len(g), did, dtype=np.int64))
                pos_col.append(np.arange(len(g), dtype=np.int64))
        if fps_col:
            return pa.table({
                "fp": pa.array(np.concatenate(fps_col)),
                "doc_id": pa.array(np.concatenate(ids_col)),
                "pos": pa.array(np.concatenate(pos_col)),
            })
        return pa.table({"fp": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "pos": pa.array([], pa.int64())})

    # occurrences × frequent: both sides hash-partition on fp; output
    # is (hot start) rows only. BOTH sides are split-repartitioned to
    # ≤ their row counts first — a batch of only <n-token docs emits a
    # 0-row block, and a 0-row FIRST block poisons the join's schema
    # broadcast (the Ray 2.49 hazard _verify_jaccard_pairs documents).
    occ = docs.map_batches(occurrences, batch_format="pyarrow").materialize()
    n_occ = occ.count()
    if n_occ == 0:
        if not emit_removed:  # no grams anywhere: identity
            return docs
        return docs.map_batches(  # identity + n_removed=0
            lambda t: t.append_column(
                "n_removed", pa.array([0] * t.num_rows, pa.int64())),
            batch_format="pyarrow",
        )
    occ = occ.repartition(min(join_partitions(8), n_occ))
    nf = max(1, frequent.count())
    hot = occ.join(
        frequent.repartition(min(join_partitions(4), nf)),
        "inner", join_partitions(8), on=("fp",),
    ).select_columns(["doc_id", "pos"])

    def pack_positions(g: pd.DataFrame) -> pd.DataFrame:
        pos = np.sort(g["pos"].to_numpy(dtype=np.int64))
        return pd.DataFrame({"doc_id": [int(g["doc_id"].iloc[0])],
                             "hot_pos": [pos.tobytes()]})

    packed = hot.groupby("doc_id").map_groups(
        pack_positions, batch_format="pandas"
    )
    joined = docs.join(
        packed, "left_outer", join_partitions(8), on=("doc_id",),
    )

    def rewrite(batch: pa.Table) -> pa.Table:
        out_ids, out_texts, out_removed = [], [], []
        for did, t, pk in zip(batch["doc_id"].to_pylist(),
                              batch[column].to_pylist(),
                              batch["hot_pos"].to_pylist()):
            toks = t.split(sep)
            n_windows = max(0, len(toks) - n + 1)
            hot_mask = np.zeros(n_windows, dtype=bool)
            if pk is not None and n_windows:
                hot_mask[np.frombuffer(pk, dtype=np.int64)] = True
            text, removed = _cover_and_join(toks, hot_mask, n, joiner)
            if text is not None:
                out_ids.append(did)
                out_texts.append(text)
                out_removed.append(removed)
        cols = {
            "doc_id": pa.array(out_ids, pa.int64()),
            column: pa.array(out_texts, pa.string()),
        }
        if emit_removed:
            cols["n_removed"] = pa.array(out_removed, pa.int64())
        return pa.table(cols)

    return joined.map_batches(rewrite, batch_format="pyarrow")


def remove_duplicate_spans(sf_dir: str, n: int = 8, max_df: int = 1,
                           column: str = "text",
                           max_broadcast: int = 2_000_000) -> rd.Dataset:
    """Remove every token that is covered by a token ``n``-gram
    occurring in more than ``max_df`` DISTINCT documents — the
    substring-level sibling of :func:`dedup_paragraphs` (a span
    duplicated across pages is syndicated/boilerplate text even when
    the surrounding lines differ). Documents left with no tokens are
    dropped; survivors carry an ``n_removed`` token count.

    Scale shape mirrors the paragraph pass: (1) per-batch pre-counted
    ``(fp, n)`` partials over each doc's DISTINCT n-gram fingerprints
    → one vocabulary-sized groupby-sum; (2) when the over-threshold
    survivors fit ``max_broadcast`` they are broadcast
    (boilerplate-sized on ordinary corpora — an n-gram must recur
    across documents to qualify) and the rewrite pass is shuffle-free:
    one vectorized ``pc.is_in`` + a sliding-window OR per row. On a
    HEAVILY mirrored corpus the frequent set can approach gram
    cardinality and the broadcast precondition fails — the fallback
    (:func:`_covered_rewrite_shuffled`, pinned output-equal) joins
    gram OCCURRENCES against the frequent Dataset instead: the shuffle
    carries (fp, doc_id, position) rows and packed position arrays,
    never the text payloads. Fingerprints are md5_64 over the
    space-joined n-gram (repo md5-only invariant); the pytest oracle
    replays the same semantics over the raw n-gram STRINGS in DuckDB
    (equal sets absent an md5 collision — the Jaccard-oracle
    argument)."""
    from collections import Counter

    from ray.data.aggregate import Sum

    def gram_fps(tokens: list[str]) -> np.ndarray:
        return _token_ngram_fps(tokens, n)

    def fp_partials(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for t in batch[column].to_pylist():
            counts.update(np.unique(gram_fps(t.split(" "))).tolist())
        fps, ns = zip(*counts.items()) if counts else ((), ())
        return pa.table({
            "fp": pa.array(np.array(list(fps), dtype=np.uint64)
                           .view(np.int64)),
            "n": pa.array(list(ns), pa.int64()),
        })

    docs = _docs(sf_dir, ["doc_id", column])
    df_counts = (
        docs.map_batches(fp_partials, batch_format="pyarrow")
        .groupby("fp").aggregate(Sum("n", alias_name="df"))
    )
    frequent = df_counts.filter(
        expr=f"df > {int(max_df)}"
    ).select_columns(["fp"]).materialize()
    if frequent.count() > max_broadcast:
        return _covered_rewrite_shuffled(docs, frequent, n, column)
    chunks = [b["fp"] for b in frequent.iter_batches(batch_format="pyarrow")
              if b.num_rows]
    freq_arr = (pa.concat_arrays([c.combine_chunks() if
                                  isinstance(c, pa.ChunkedArray) else c
                                  for c in chunks])
                if chunks else pa.array([], pa.int64()))
    freq_ref = ray.put(freq_arr)

    def rewrite(batch: pa.Table) -> pa.Table:
        freq = ray.get(freq_ref)
        out_ids, out_texts, out_removed = [], [], []
        for did, t in zip(batch["doc_id"].to_pylist(),
                          batch[column].to_pylist()):
            toks = t.split(" ")
            fps = gram_fps(toks)
            if len(fps):
                hot = pc.is_in(
                    pa.array(fps.view(np.int64)), value_set=freq
                ).to_numpy(zero_copy_only=False)
                # token i is covered iff ANY window start in
                # [i-n+1, i] is hot — a sliding-window OR via the
                # cumulative count of hot starts
                c = np.concatenate(([0], np.cumsum(hot)))
                idx = np.arange(len(toks))
                lo = np.maximum(idx - n + 1, 0)
                hi = np.minimum(idx + 1, len(fps))
                covered = (c[hi] - c[np.minimum(lo, hi)]) > 0
            else:
                covered = np.zeros(len(toks), dtype=bool)
            kept = [tok for tok, d in zip(toks, covered) if not d]
            if kept:
                out_ids.append(did)
                out_texts.append(" ".join(kept))
                out_removed.append(len(toks) - len(kept))
        return pa.table({
            "doc_id": pa.array(out_ids, pa.int64()),
            column: pa.array(out_texts, pa.string()),
            "n_removed": pa.array(out_removed, pa.int64()),
        })

    return docs.map_batches(rewrite, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Benchmark decontamination — flag training documents that collide
# with a held-out evaluation set (the public GPT-3 appendix-C /
# Dolma/Llama recipe: any shared token n-gram marks contamination)
# ---------------------------------------------------------------------------

def decontaminate_flags(sf_dir: str, benchmark_texts: list[str],
                        n: int = 13, column: str = "text") -> rd.Dataset:
    """(doc_id, n_hits, contaminated) per corpus document: ``n_hits``
    = how many of the doc's token ``n``-grams appear anywhere in the
    benchmark set, ``contaminated`` = n_hits > 0. Default n=13 is the
    published GPT-3 convention.

    Scale shape: an eval benchmark is small BY DEFINITION (thousands
    of items, not billions), so its distinct n-gram fingerprint set is
    broadcast once via ``ray.put`` and the corpus pass is a single
    shuffle-free ``map_batches`` with one vectorized ``pc.is_in`` per
    row — the same broadcast-small-side shape as the spell lexicons.
    Fingerprints are md5_64 over the space-joined n-gram (md5-only
    invariant); the pytest oracle replays the raw n-gram STRINGS in
    DuckDB."""
    fps: set[int] = set()
    for t in benchmark_texts:
        fps.update(_token_ngram_fps(t.split(" "), n).tolist())
    bench_arr = pa.array(
        np.sort(np.array(sorted(fps), dtype=np.uint64)).view(np.int64)
    ) if fps else pa.array([], pa.int64())
    bench_ref = ray.put(bench_arr)

    def flag(batch: pa.Table) -> pa.Table:
        bench = ray.get(bench_ref)
        hits = np.zeros(batch.num_rows, dtype=np.int64)
        for i, t in enumerate(batch[column].to_pylist()):
            g = _token_ngram_fps(t.split(" "), n)
            if len(g):
                m = pc.is_in(pa.array(g.view(np.int64)), value_set=bench)
                hits[i] = int(pc.sum(pc.cast(m, pa.int64())).as_py() or 0)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_hits": pa.array(hits),
            "contaminated": pa.array(hits > 0),
        })

    return _docs(sf_dir, ["doc_id", column]).map_batches(
        flag, batch_format="pyarrow")


def decontaminated_corpus(sf_dir: str, benchmark_texts: list[str],
                          n: int = 13, column: str = "text") -> rd.Dataset:
    """The filter composition: corpus documents with NO benchmark
    n-gram collision (doc payloads never shuffle — the flag pass and
    the gate fuse into one streaming map_batches chain)."""
    fps: set[int] = set()
    for t in benchmark_texts:
        fps.update(_token_ngram_fps(t.split(" "), n).tolist())
    bench_arr = pa.array(
        np.sort(np.array(sorted(fps), dtype=np.uint64)).view(np.int64)
    ) if fps else pa.array([], pa.int64())
    bench_ref = ray.put(bench_arr)

    def gate(batch: pa.Table) -> pa.Table:
        bench = ray.get(bench_ref)
        keep = np.ones(batch.num_rows, dtype=bool)
        for i, t in enumerate(batch[column].to_pylist()):
            g = _token_ngram_fps(t.split(" "), n)
            if len(g):
                m = pc.is_in(pa.array(g.view(np.int64)), value_set=bench)
                keep[i] = not pc.any(m).as_py()
        return batch.filter(pa.array(keep))

    return _docs(sf_dir, ["doc_id", column]).map_batches(
        gate, batch_format="pyarrow")
