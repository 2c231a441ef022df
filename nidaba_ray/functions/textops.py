"""Text-analysis operators over a generic document corpus
(driver instruction: language-ID, quality scoring, token counting,
fingerprinting as first-class ops). All vectorized ``map_batches``
bodies; no driver-side loops.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from nidaba_ray.functions import lexicon
from nidaba_ray.functions.compat import MD5_64_SQL, round_like_sql

STOPWORDS = ("the", "a", "de", "el", "la")


def _docs(sf_dir: str, columns: list[str]) -> rd.Dataset:
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


# ---------------------------------------------------------------------------
# Quality scoring (length / punctuation / stopword ratios)
# ---------------------------------------------------------------------------

def quality_metrics(sf_dir: str) -> rd.Dataset:
    """Per-doc quality features, all computable by the SQL oracle:
    word count, average word length, stopword ratio."""

    def fn(batch: pa.Table) -> pa.Table:
        s = batch["text"].to_pandas()
        words = s.str.split(" ")
        n_words = words.str.len().astype("int64")
        n_chars_nospace = (s.str.len() - s.str.count(" ")).astype("int64")
        avg_word_len = round_like_sql(n_chars_nospace / n_words, 2)
        stop_ratio = round_like_sql(
            words.map(lambda ws: sum(w in STOPWORDS for w in ws))
            / n_words.astype("float64"),
            4,
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_words": pa.array(n_words),
                "avg_word_len": pa.array(avg_word_len),
                "stop_ratio": pa.array(stop_ratio),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


QUALITY_SQL = """
SELECT doc_id,
       LEN(STRING_SPLIT(text, ' ')) AS n_words,
       ROUND(CAST(LEN(REPLACE(text, ' ', '')) AS DOUBLE)
             / LEN(STRING_SPLIT(text, ' ')), 2) AS avg_word_len,
       ROUND(CAST(LEN(LIST_FILTER(STRING_SPLIT(text, ' '),
                                  x -> x IN ('the', 'a', 'de', 'el', 'la'))) AS DOUBLE)
             / LEN(STRING_SPLIT(text, ' ')), 4) AS stop_ratio
FROM documents
"""


# ---------------------------------------------------------------------------
# Token counting (whitespace + BPE-ish subword regex)
# ---------------------------------------------------------------------------

def token_stats_per_lang(sf_dir: str) -> pa.Table:
    """Corpus token accounting per language — partial aggregation per
    batch, tiny final groupby."""

    def partial(batch: pa.Table) -> pa.Table:
        df = pa.table({"lang": batch["lang"], "text": batch["text"]}).to_pandas()
        df["n_tokens"] = df["text"].str.count(" ").astype("int64") + 1
        g = df.groupby("lang", as_index=False).agg(
            n_docs=("n_tokens", "size"), total_tokens=("n_tokens", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    out = (
        _docs(sf_dir, ["lang", "text"])
        .map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby("lang")
        .aggregate(Sum("n_docs", alias_name="n_docs"),
                   Sum("total_tokens", alias_name="total_tokens"))
        .to_pandas()
    )
    out["avg_tokens"] = round_like_sql(out["total_tokens"] / out["n_docs"], 2)
    out["n_docs"] = out["n_docs"].astype("int64")
    out["total_tokens"] = out["total_tokens"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


TOKEN_STATS_SQL = """
SELECT lang,
       COUNT(*) AS n_docs,
       CAST(SUM(LEN(STRING_SPLIT(text, ' '))) AS BIGINT) AS total_tokens,
       ROUND(CAST(SUM(LEN(STRING_SPLIT(text, ' '))) AS DOUBLE) / COUNT(*), 2)
         AS avg_tokens
FROM documents
GROUP BY lang
"""


def subword_token_count(sf_dir: str) -> rd.Dataset:
    """BPE-ish token estimate: alnum runs + punctuation marks counted
    separately via one compiled regex (a deterministic proxy for a
    real tokenizer's count)."""

    def fn(batch: pa.Table) -> pa.Table:
        s = batch["text"].to_pandas()
        n_sub = s.str.count(r"[A-Za-z0-9]{1,4}|[^\sA-Za-z0-9]").astype("int64")
        return pa.table({"doc_id": batch["doc_id"], "n_subwords": pa.array(n_sub)})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


SUBWORD_SQL = r"""
SELECT doc_id,
       LEN(REGEXP_EXTRACT_ALL(text, '[A-Za-z0-9]{1,4}|[^ A-Za-z0-9]')) AS n_subwords
FROM documents
"""


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------

def fingerprint_md5(sf_dir: str) -> rd.Dataset:
    """Content fingerprint = md5 of the text (exact-dedup key)."""

    def fn(batch: pa.Table) -> pa.Table:
        fp = [hashlib.md5(t.encode("utf-8")).hexdigest()
              for t in batch["text"].to_pylist()]
        return pa.table({"doc_id": batch["doc_id"], "fp": pa.array(fp, pa.string())})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


FINGERPRINT_SQL = "SELECT doc_id, md5(text) AS fp FROM documents"

_WINNOW_K = 5   # shingle length (tokens)
_WINNOW_W = 4   # winnowing window


def winnow_fingerprint(tokens: list[str]) -> list[int]:
    """Winnowing document fingerprint (Schleimer et al., SIGMOD'03 —
    public algorithm): rolling hash over k-token shingles, keep the
    minimum hash of each sliding window (rightmost on ties). Returns
    a sorted, deduplicated fingerprint set. Deterministic."""
    if len(tokens) < _WINNOW_K:
        base = " ".join(tokens)
        return [int.from_bytes(hashlib.md5(base.encode()).digest()[:8], "big")]
    hs = [
        int.from_bytes(
            hashlib.md5(" ".join(tokens[i : i + _WINNOW_K]).encode()).digest()[:8],
            "big",
        )
        for i in range(len(tokens) - _WINNOW_K + 1)
    ]
    out = set()
    for i in range(max(1, len(hs) - _WINNOW_W + 1)):
        win = hs[i : i + _WINNOW_W]
        m = min(win)
        # rightmost minimum (standard winnowing tie rule)
        out.add(win[len(win) - 1 - win[::-1].index(m)])
    return sorted(out)


def doc_winnow(sf_dir: str) -> rd.Dataset:
    """Winnowing fingerprints per doc. Oracle-checked: the fingerprint
    SET is the distinct window minima (the rightmost-tie rule only
    picks WHICH position contributes the min — the contributed VALUE
    is the min either way), which ``WINNOW_SQL`` expresses directly."""

    def fn(batch: pa.Table) -> pa.Table:
        fps = [winnow_fingerprint(t.split(" ")) for t in batch["text"].to_pylist()]
        import json

        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_fingerprints": pa.array([len(f) for f in fps], pa.int64()),
                # JSON, not list<uint64>: a flat string column survives
                # every downstream pandas/hashing path untouched
                "fingerprints": pa.array([json.dumps(f) for f in fps], pa.string()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


# Driver oracle for doc_winnow (k=5, w=4): md5_64 per 5-token shingle
# in position order; windows i..i+3 (clamped — short docs collapse to
# one window, <5-token docs to one whole-text hash, both mirroring
# winnow_fingerprint); fingerprints = sorted distinct window minima,
# serialized like json.dumps (", "-separated).
WINNOW_SQL = f"""
WITH base AS (SELECT doc_id, text, string_split(text, ' ') AS t FROM documents),
hs AS (
  SELECT doc_id,
    CASE WHEN len(t) >= 5
      THEN list_transform(range(1, len(t) - 3),
             i -> {MD5_64_SQL.format(e="array_to_string(t[i:i+4], ' ')")})
      ELSE [{MD5_64_SQL.format(e='text')}] END AS h
  FROM base
),
wins AS (
  SELECT doc_id, unnest(
    list_transform(range(1, greatest(1, len(h) - 3) + 1),
      i -> list_min(h[i:i+3]))) AS fp
  FROM hs
),
fps AS (
  SELECT doc_id, list_sort(list(DISTINCT fp)) AS f FROM wins GROUP BY doc_id
)
SELECT doc_id, len(f)::BIGINT AS n_fingerprints,
       '[' || array_to_string(f, ', ') || ']' AS fingerprints
FROM fps ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Language identification (character n-gram heuristic)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _lang_profiles() -> dict[str, set[str]]:
    """Char-trigram profiles from the deterministic per-lang lexicons
    (the public n-gram-profile LangID approach, Cavnar & Trenkle '94).
    No external data: profiles derive from lexicon wordlists."""
    profs = {}
    for lang in ("en", "de", "es", "fr", "zh"):
        grams: set[str] = set()
        for w in sorted(lexicon.wordlist(lang)):
            padded = f" {w} "
            grams.update(padded[i : i + 3] for i in range(len(padded) - 2))
        profs[lang] = grams
    return profs


class LangId:
    """Actor-pool stage: profiles built once per actor; per-token gram
    sets cached across batches (Zipfian token frequencies → the md5-free
    gram extraction runs once per unique token per actor). Document
    grams = union of padded-token trigrams, matching how the profiles
    themselves are built from word lists."""

    def __init__(self) -> None:
        self.profiles = _lang_profiles()
        self.langs = sorted(self.profiles)
        self._tok_cache: dict[str, frozenset] = {}

    def _grams(self, tok: str) -> frozenset:
        g = self._tok_cache.get(tok)
        if g is None:
            padded = f" {tok} "
            g = frozenset(padded[i : i + 3] for i in range(len(padded) - 2))
            self._tok_cache[tok] = g
        return g

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds, confs = [], []
        for t in batch["text"].to_pylist():
            grams: set = set()
            for tok in t.split(" "):
                if tok:
                    grams |= self._grams(tok)
            best_lang, best = "und", -1.0
            for lang in self.langs:
                p = self.profiles[lang]
                score = len(grams & p) / max(1, len(grams))
                if score > best:
                    best_lang, best = lang, score
            preds.append(best_lang)
            # round_like_sql, not round(): the driver oracle replays
            # the classifier in SQL where ROUND is half-away
            confs.append(round_like_sql(best, 4))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "pred_lang": pa.array(preds, pa.string()),
                "confidence": pa.array(confs, pa.float64()),
            }
        )


def lang_id(sf_dir: str) -> rd.Dataset:
    return _docs(sf_dir, ["doc_id", "text", "lang"]).map_batches(
        LangId, batch_format="pyarrow", batch_size=4096, concurrency=(1, 4)
    )


def profile_values_sql() -> str:
    """The Cavnar-Trenkle language profiles as a SQL VALUES body
    (lang, gram) — built from the SAME ``_lang_profiles`` the Ray-side
    classifier uses, so an oracle inlining it cannot drift. Shared by
    ``lang_id_sql`` and the per-paragraph segmentation replay
    (functions/langseg.py)."""
    vals = []
    for lang in sorted(_lang_profiles()):
        for g in sorted(_lang_profiles()[lang]):
            vals.append(f"('{lang}', '{g.replace(chr(39), chr(39) * 2)}')")
    return ", ".join(vals)


def lang_id_sql() -> str:
    """Driver oracle for :func:`lang_id`: the Cavnar-Trenkle profile
    match replayed in SQL — the ~470-gram-per-language profiles are
    inlined as a VALUES list (built from the SAME ``_lang_profiles``
    so the two sides cannot drift), doc grams are the distinct padded-
    token trigrams, score = |grams ∩ profile| / |grams|, and the
    argmax tie-break (first language in sorted order) is the
    ``ORDER BY score DESC, cand ASC`` row_number pick."""
    return f"""
WITH profile(lang, g) AS (VALUES {profile_values_sql()}),
base AS (SELECT doc_id, lang, string_split(text, ' ') AS t FROM documents),
toks AS (
  SELECT DISTINCT doc_id, tok FROM
    (SELECT doc_id, unnest(t) AS tok FROM base) WHERE tok <> ''
),
grams AS (
  SELECT DISTINCT doc_id, g FROM (
    SELECT doc_id,
           unnest(list_transform(range(1, len(p) - 1),
                                 i -> substr(p, i, 3))) AS g
    FROM (SELECT doc_id, ' ' || tok || ' ' AS p FROM toks)
  )
),
ng AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
hits AS (
  SELECT gr.doc_id, p.lang AS cand, count(*) AS h
  FROM grams gr JOIN profile p ON gr.g = p.g
  GROUP BY gr.doc_id, p.lang
),
scored AS (
  SELECT d.doc_id, l.cand,
         COALESCE(h.h, 0) * 1.0 / GREATEST(COALESCE(ng.n, 0), 1) AS score
  FROM (SELECT doc_id FROM documents) d
  CROSS JOIN (SELECT DISTINCT lang AS cand FROM profile) l
  LEFT JOIN ng ON ng.doc_id = d.doc_id
  LEFT JOIN hits h ON h.doc_id = d.doc_id AND h.cand = l.cand
),
best AS (
  SELECT doc_id, cand AS pred_lang, ROUND(score, 4) AS confidence,
         ROW_NUMBER() OVER (PARTITION BY doc_id
                            ORDER BY score DESC, cand ASC) AS rn
  FROM scored
)
SELECT doc.doc_id, doc.lang, b.pred_lang, b.confidence
FROM documents doc JOIN best b ON b.doc_id = doc.doc_id AND b.rn = 1
"""


# ---------------------------------------------------------------------------
# Top terms per language (distributed wordcount + per-group top-k)
# ---------------------------------------------------------------------------

TOP_TERMS_K = 5


def top_terms_per_lang(sf_dir: str) -> pa.Table:
    """Most frequent K tokens per language — the canonical wide
    wordcount: per-batch partial counts (the combiner: one row per
    (lang, token) per batch, so the shuffle moves counts, not tokens),
    a grouped sum, then a tiny per-lang top-k. Ties broken by token
    text so the k-boundary is deterministic."""

    def partial(batch: pa.Table) -> pa.Table:
        df = pa.table({"lang": batch["lang"], "text": batch["text"]}).to_pandas()
        ex = df.assign(token=df["text"].str.split(" ")).explode("token")
        g = ex.groupby(["lang", "token"], as_index=False).size()
        g = g.rename(columns={"size": "n"})
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    counts = (
        _docs(sf_dir, ["lang", "text"])
        .map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby(["lang", "token"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n", "token"], ascending=[False, True]).head(TOP_TERMS_K)
        return g[["lang", "token", "n"]].astype(
            {"lang": "string", "token": "string", "n": "int64"}
        )

    out = counts.groupby("lang").map_groups(topk, batch_format="pandas").to_pandas()
    return pa.Table.from_pandas(out, preserve_index=False)


TOP_TERMS_SQL = f"""
SELECT lang, token, n FROM (
  SELECT lang, token, CAST(COUNT(*) AS BIGINT) AS n,
         ROW_NUMBER() OVER (PARTITION BY lang
                            ORDER BY COUNT(*) DESC, token) AS rk
  FROM (SELECT lang, UNNEST(STRING_SPLIT(text, ' ')) AS token FROM documents)
  GROUP BY lang, token
) WHERE rk <= {TOP_TERMS_K}
"""


# ---------------------------------------------------------------------------
# Repetition metrics (Gopher-style quality rules, Rae et al. 2021 §A1.1)
# ---------------------------------------------------------------------------

def _doc_repetition(text: str) -> tuple[float, float, float, float, float]:
    """Per-doc repetition fractions, whitespace tokens / chr(10) lines:

    - ``dup_line_frac``: fraction of lines that are repeats of an
      earlier identical line,
    - ``top{2,3,4}gram_char_frac``: characters covered by the single
      most frequent token n-gram (count × n-gram char length) over
      total characters; 0.0 when no n-gram repeats (a once-seen gram
      is not repetition). Ties break to the lexicographically largest
      gram so the metric is deterministic,
    - ``dup5gram_char_frac``: characters covered by token positions
      that belong to at least one 5-gram occurring ≥ 2 times (the
      position-marking form — overlaps are NOT double counted).

    This scalar Counter form is the REFERENCE semantics; production
    batches run :func:`_doc_repetition_batch`, pinned bit-equal to
    this by the differential fuzz in tests/test_scrub_paradedup.py.
    """
    from collections import Counter

    lines = text.split("\n")
    dup_line_frac = (len(lines) - len(set(lines))) / len(lines)
    toks = text.split(" ")
    total = len(text) or 1
    tops = []
    for n in (2, 3, 4):
        if len(toks) < n:
            tops.append(0.0)
            continue
        grams = Counter(tuple(toks[i:i + n]) for i in range(len(toks) - n + 1))
        gram, cnt = max(grams.items(), key=lambda kv: (kv[1], kv[0]))
        tops.append(0.0 if cnt < 2 else
                    cnt * (sum(len(t) for t in gram) + n - 1) / total)
    n = 5
    if len(toks) < n:
        dup5 = 0.0
    else:
        grams = Counter(tuple(toks[i:i + n]) for i in range(len(toks) - n + 1))
        covered = np.zeros(len(toks), dtype=bool)
        for i in range(len(toks) - n + 1):
            if grams[tuple(toks[i:i + n])] >= 2:
                covered[i:i + n] = True
        dup5 = sum(len(t) for t, c in zip(toks, covered) if c) / total
    return (dup_line_frac, tops[0], tops[1], tops[2], dup5)


def _doc_repetition_batch(texts) -> np.ndarray:
    """Vectorized :func:`_doc_repetition` over a whole batch —
    bit-exactly the same (n_docs, 5) float64 values, without the
    per-row Counter loops (the dominant row-local cost in
    ``gopher_quality_flags`` / ``repetition_metrics``; ~5× at sf0.1).

    The n-gram machinery is a factorize→rolling-key cascade:
    tokens factorize to ids SORTED by code point, then level-n gram
    ids come from ``np.unique(prev_id * V + next_token_id)`` — the
    combined integer sorts exactly like the (prefix, next) pair, so
    by induction gram-id order ≡ lexicographic token-tuple order and
    the "ties break to the largest gram" rule is one per-doc lexsort,
    matching Python tuple comparison even when tokens contain
    sub-space codepoints (where joined-string order would disagree).
    Every fraction divides the same int64 numerators by the same
    denominators as the scalar kernel, so IEEE results are identical;
    the exhaustive differential fuzz in tests/test_scrub_paradedup.py
    pins batch ≡ scalar bit-for-bit."""
    import itertools

    n_docs = len(texts)
    out = np.zeros((n_docs, 5), dtype=np.float64)
    if n_docs == 0:
        return out
    s = pd.Series(list(texts), dtype="object")
    total_nz = np.maximum(s.str.len().to_numpy(np.int64), 1)

    # dup_line_frac: repeats of an earlier identical line, per doc
    split_l = s.str.split("\n")
    n_lines = split_l.str.len().to_numpy(np.int64)  # ≥1 always
    flat_l = pd.Series(
        list(itertools.chain.from_iterable(split_l)), dtype="object")
    doc_l = np.repeat(np.arange(n_docs), n_lines)
    dup_l = pd.DataFrame({"d": doc_l, "l": flat_l}).duplicated(
        ["d", "l"]).to_numpy()
    out[:, 0] = np.bincount(doc_l, dup_l, minlength=n_docs) / n_lines

    # tokens: the scalar kernel's exact split(" ") — single spaces,
    # empty tokens kept, newlines/tabs stay inside tokens
    split_t = s.str.split(" ")
    n_toks = split_t.str.len().to_numpy(np.int64)
    T = int(n_toks.sum())
    flat_t = np.fromiter(itertools.chain.from_iterable(split_t),
                         dtype=object, count=T)
    codes, uniques = pd.factorize(flat_t, sort=True)
    V = len(uniques)
    tok_len = np.fromiter(map(len, uniques), dtype=np.int64, count=V)
    doc_t = np.repeat(np.arange(n_docs), n_toks)

    pos = np.arange(T, dtype=np.int64)  # gram start positions
    ids = codes.astype(np.int64)        # level-n gram id at each pos
    lens = tok_len                      # chars per unique gram, no seps
    for n in (2, 3, 4, 5):
        ok = pos + (n - 1) < T
        last = np.minimum(pos + (n - 1), T - 1)
        ok &= doc_t[last] == doc_t[pos]  # gram fully inside one doc
        pos = pos[ok]
        key = ids[ok] * V + codes[pos + (n - 1)]
        uniq, ids = np.unique(key, return_inverse=True)
        lens = lens[uniq // V] + tok_len[uniq % V]
        G = len(uniq)
        docs = doc_t[pos]
        dk_u, dk_inv, dk_cnt = np.unique(docs * G + ids,
                                         return_inverse=True,
                                         return_counts=True)
        if n <= 4:
            if not len(dk_u):  # no doc has any n-gram in this batch
                continue
            d_part, g_part = dk_u // G, dk_u % G
            order = np.lexsort((g_part, dk_cnt, d_part))
            du, gu, cu = d_part[order], g_part[order], dk_cnt[order]
            top = np.r_[du[1:] != du[:-1], True]  # per-doc (cnt, gram) max
            sd, sg, sc = du[top], gu[top], cu[top]
            good = sc >= 2  # a once-seen gram is not repetition
            sd, sg, sc = sd[good], sg[good], sc[good]
            out[sd, n - 1] = sc * (lens[sg] + (n - 1)) / total_nz[sd]
        else:
            occ_dup = dk_cnt[dk_inv] >= 2
            cov = np.zeros(T + 1, dtype=np.int64)  # window-OR via ±1
            np.add.at(cov, pos[occ_dup], 1)
            np.add.at(cov, pos[occ_dup] + n, -1)
            covered = np.cumsum(cov[:-1]) > 0
            out[:, 4] = np.bincount(
                doc_t[covered], tok_len[codes[covered]],
                minlength=n_docs) / total_nz
    return out


def repetition_metrics(sf_dir: str) -> rd.Dataset:
    """Per-doc Gopher repetition quality signals. Per-document n-gram
    counting is inherently row-local work (like the PDF parse); it is
    batched, allocation-light, and never shuffles — the output is one
    fixed-width row per doc."""

    def fn(batch: pa.Table) -> pa.Table:
        rep = _doc_repetition_batch(batch["text"].to_pylist())
        names = ["dup_line_frac", "top2gram_char_frac",
                 "top3gram_char_frac", "top4gram_char_frac",
                 "dup5gram_char_frac"]
        out = {"doc_id": batch["doc_id"]}
        for j, name in enumerate(names):
            out[name] = pa.array(np.round(rep[:, j], 6))
        return pa.table(out)

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow")


def repetition_oracle_sql() -> str:
    """Full DuckDB replay of every :func:`_doc_repetition` signal —
    the n-gram counting, the largest-gram tie-break, and the dup-5
    position coverage — closing the old "the repetition flag has no
    reasonable SQL form" caveat (see GOPHER_FLAGS_SQL).

    Emits exact INTEGER numerators/denominators per doc (dup_lines /
    n_lines / top{2,3,4}_num / dup5_chars / total); the parity test
    performs the SAME float divisions as the kernel on both sides so
    the comparison is bit-exact with no ROUND-semantics surface.
    Grams are LIST values, so ``ORDER BY count(*) DESC, g DESC``
    reproduces the token-TUPLE tie-break precisely: DuckDB compares
    list elements as UTF-8 binary, which equals code-point order,
    which is Python string order."""
    gram = "\n".join(
        f", g{n} AS (SELECT doc_id, u.i, list_slice(a, u.i, u.i + {n - 1}) AS g"
        f"  FROM toks, LATERAL (SELECT unnest(range(1, na - {n} + 2)) AS i) u)"
        for n in (2, 3, 4, 5))
    top = "\n".join(f"""
, t{n} AS (
  SELECT doc_id, c * glen AS num FROM (
    SELECT doc_id, count(*) AS c,
           len(array_to_string(g, ' ')) AS glen,
           row_number() OVER (PARTITION BY doc_id
                              ORDER BY count(*) DESC, g DESC) AS rn
    FROM g{n} GROUP BY doc_id, g
  ) WHERE rn = 1 AND c >= 2)""" for n in (2, 3, 4))
    return f"""
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS a,
         len(string_split(text, ' ')) AS na,
         GREATEST(len(text), 1) AS total,
         len(string_split(text, chr(10))) AS n_lines,
         len(list_distinct(string_split(text, chr(10)))) AS n_uniq_lines
  FROM documents
){gram}{top}
, c5 AS (SELECT doc_id, g, count(*) AS c FROM g5 GROUP BY doc_id, g)
, cov AS (
  SELECT DISTINCT doc_id, v.p
  FROM g5 JOIN c5 USING (doc_id, g),
       LATERAL (SELECT unnest(range(i, i + 5)) AS p) v
  WHERE c5.c >= 2)
, tokpos AS (
  SELECT doc_id, unnest(a) AS tok, generate_subscripts(a, 1) AS p
  FROM toks)
, d5 AS (
  SELECT doc_id, SUM(len(tok)) AS ch
  FROM tokpos JOIN cov USING (doc_id, p) GROUP BY doc_id)
SELECT t.doc_id,
       CAST(t.n_lines - t.n_uniq_lines AS BIGINT) AS dup_lines,
       CAST(t.n_lines AS BIGINT) AS n_lines,
       CAST(COALESCE(t2.num, 0) AS BIGINT) AS top2_num,
       CAST(COALESCE(t3.num, 0) AS BIGINT) AS top3_num,
       CAST(COALESCE(t4.num, 0) AS BIGINT) AS top4_num,
       CAST(COALESCE(d5.ch, 0) AS BIGINT) AS dup5_chars,
       CAST(t.total AS BIGINT) AS total
FROM toks t
LEFT JOIN t2 USING (doc_id) LEFT JOIN t3 USING (doc_id)
LEFT JOIN t4 USING (doc_id) LEFT JOIN d5 USING (doc_id)
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Full Gopher document filter (Rae et al. 2021 §A1.1) — the composed
# keep/reject gate the repetition metrics above feed into
# ---------------------------------------------------------------------------

# the eight "required stopwords" from the published rule set; a doc
# must contain at least two DISTINCT members
GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have",
                    "with")

# (name, lo, hi) document-level bounds; None = unbounded on that side
GOPHER_RULES = {
    "word_count": (50, 100_000),
    "mean_word_len": (3.0, 10.0),
    "symbol_word_ratio": (None, 0.1),     # '#' or '...' per word
    "bullet_line_frac": (None, 0.9),      # lines starting '-' or '•'
    "ellipsis_line_frac": (None, 0.3),    # lines ending '...'
    "alpha_word_frac": (0.8, None),       # words with ≥1 [A-Za-z]
    "min_stopwords": (2, None),           # distinct GOPHER_STOPWORDS
}

# repetition thresholds over the §A1.1 signals _doc_repetition emits
GOPHER_REPETITION_MAX = {
    "dup_line_frac": 0.30,
    "top2gram_char_frac": 0.20,
    "top3gram_char_frac": 0.18,
    "top4gram_char_frac": 0.16,
    "dup5gram_char_frac": 0.15,
}


# ONE whitespace definition for every rule that tokenizes, shared
# verbatim by the python kernels and the DuckDB replays. Explicit
# ASCII class, because the two regex engines disagree about `\s`:
# python str.split() and `(?u)\s` split Unicode whitespace (NBSP,
# U+2009, …) while DuckDB's RE2 `\s` is [\t\n\f\r ] — a web doc with
# an &nbsp; would tokenize differently on the two sides and break
# oracle parity (review find, round 5).
_WS = " \\t\\n\\f\\r"
WS_RUN = f"[{_WS}]+"
NON_WS = f"[^{_WS}]"


def _gopher_signals(s) -> dict[str, np.ndarray]:
    """All rule booleans for a pandas Series of texts. Everything
    except the repetition signals is vectorized pandas string
    kernels; repetition runs the batch-vectorized
    ``_doc_repetition_batch`` cascade (bit-equal to the scalar
    reference, same shape as :func:`repetition_metrics`).
    All fractions feeding a threshold are rounded to 6 dp first (the
    repo's quantized-decision invariant), so flags are bit-stable
    across platforms. Tokenization is the shared ASCII ``WS_RUN``
    class on both the python and SQL sides."""
    n = len(s)
    n_words = s.str.count(f"{NON_WS}+").astype("int64")
    nz = n_words.replace(0, 1).astype("float64")  # guard /0
    n_chars = s.str.replace(WS_RUN, "", regex=True).str.len()
    mean_word_len = np.round(n_chars / nz, 6)
    symbol_ratio = np.round(
        (s.str.count("#") + s.str.count(r"\.\.\.")) / nz, 6)
    n_lines = (s.str.count("\n") + 1).astype("float64")
    bullet_frac = np.round(s.str.count(r"(?m)^[\-•]") / n_lines, 6)
    ellipsis_frac = np.round(s.str.count(r"(?m)\.\.\.$") / n_lines, 6)
    alpha_frac = np.round(
        s.str.count(f"{NON_WS}*[A-Za-z]{NON_WS}*") / nz, 6)
    n_stop = sum(
        s.str.contains(rf"(?<!{NON_WS}){w}(?!{NON_WS})", regex=True)
        .astype("int64")
        for w in GOPHER_STOPWORDS)

    rep = np.round(_doc_repetition_batch(s), 6)
    f_rep = np.ones(n, dtype=bool)
    for j, name in enumerate(GOPHER_REPETITION_MAX):
        f_rep &= rep[:, j] <= GOPHER_REPETITION_MAX[name]

    lo, hi = GOPHER_RULES["word_count"]
    f_words = (n_words >= lo) & (n_words <= hi)
    lo, hi = GOPHER_RULES["mean_word_len"]
    f_mwl = (mean_word_len >= lo) & (mean_word_len <= hi)
    f_sym = symbol_ratio <= GOPHER_RULES["symbol_word_ratio"][1]
    f_bullet = ((bullet_frac <= GOPHER_RULES["bullet_line_frac"][1])
                & (ellipsis_frac
                   <= GOPHER_RULES["ellipsis_line_frac"][1]))
    f_alpha = alpha_frac >= GOPHER_RULES["alpha_word_frac"][0]
    f_stop = n_stop >= GOPHER_RULES["min_stopwords"][0]
    keep = (f_words & f_mwl & f_sym & f_bullet & f_alpha & f_stop
            & f_rep)
    return {
        "n_words": np.asarray(n_words),
        "f_word_count": np.asarray(f_words),
        "f_mean_word_len": np.asarray(f_mwl),
        "f_symbol_ratio": np.asarray(f_sym),
        "f_bullet_ellipsis": np.asarray(f_bullet),
        "f_alpha_words": np.asarray(f_alpha),
        "f_stopwords": np.asarray(f_stop),
        "f_repetition": f_rep,
        "keep": np.asarray(keep),
    }


def gopher_quality_flags(sf_dir: str) -> rd.Dataset:
    """Per-doc Gopher quality gate: one boolean per published rule
    plus the composed ``keep``. Single map_batches pass, no shuffle —
    at 100 TB this is a pure streaming annotator whose output is one
    fixed-width row per doc."""

    def fn(batch: pa.Table) -> pa.Table:
        sig = _gopher_signals(batch["text"].to_pandas())
        return pa.table({"doc_id": batch["doc_id"],
                         **{k: pa.array(v) for k, v in sig.items()}})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow")


def gopher_filter_batch(batch: pa.Table) -> pa.Table:
    """Registry cleaning stage (``clean.gopher``): drop documents
    failing the composed Gopher gate, pass surviving rows through
    with all their columns."""
    keep = _gopher_signals(batch["text"].to_pandas())["keep"]
    return batch.filter(pa.array(keep))


# ---------------------------------------------------------------------------
# C4 cleaning rules (Raffel et al. 2020 §2.2) — line-level rewrite +
# document gate, byte-replayable in DuckDB
# ---------------------------------------------------------------------------

C4_MIN_WORDS_PER_LINE = 5
C4_MIN_LINES = 3  # the "≥3 sentences" page rule, counted over KEPT
#                   lines (sentence == retained terminal-punct line)


def _flat_lines(s) -> tuple["pd.Series", np.ndarray]:
    """Flatten a Series of texts into one Series of lines plus the
    np.repeat doc-index array — the shared vectorization layout the
    line-rule families (C4, FineWeb) run their str kernels over."""
    import itertools

    split = s.str.split("\n")
    lengths = split.str.len().fillna(0).astype(int).to_numpy()
    flat = pd.Series(list(itertools.chain.from_iterable(split)),
                     dtype="object")
    return flat, np.repeat(np.arange(len(s)), lengths)


def _regroup_lines(s, flat, doc_idx, keep_line):
    """Rejoin surviving lines per document: (rewritten text Series
    aligned to ``s``, per-doc surviving-line counts). Shared by every
    line-rewrite kernel (C4, FineWeb terminal-punct)."""
    kept = pd.Series(flat[keep_line].to_numpy(),
                     index=doc_idx[keep_line])
    joined = kept.groupby(level=0).agg("\n".join) if len(kept) else \
        pd.Series(dtype="object")
    new_text = joined.reindex(range(len(s)), fill_value="")
    new_text.index = s.index
    n_kept = np.bincount(doc_idx[keep_line], minlength=len(s)) \
        if len(s) else np.zeros(0, dtype=np.int64)
    return new_text, n_kept


def _c4_clean(s) -> tuple["pd.Series", np.ndarray]:
    """(rewritten text, doc keep mask) for a pandas Series of texts.

    Line rules (a line survives iff ALL hold): ends in terminal
    punctuation (``. ! ? "``), has ≥ 5 whitespace words, does not
    contain "javascript" (case-insensitive). Document rules on the
    ORIGINAL text: no "lorem ipsum" (case-insensitive), no ``{``;
    plus ≥ 3 surviving lines. Line predicates run vectorized over the
    flattened line table (one pandas str kernel per rule, regrouped
    by np.repeat doc indices) — no per-row Python loop."""
    flat, doc_idx = _flat_lines(s)
    if len(flat):
        keep_line = (
            flat.str.contains(r'[.!?"]$', regex=True)
            & (flat.str.count(f"{NON_WS}+")  # shared ASCII ws class
               >= C4_MIN_WORDS_PER_LINE)
            & ~flat.str.contains("javascript", case=False, regex=False)
        ).to_numpy()
    else:
        keep_line = np.zeros(0, dtype=bool)
    new_text, n_kept = _regroup_lines(s, flat, doc_idx, keep_line)
    keep_doc = ((n_kept >= C4_MIN_LINES)
                & ~s.str.contains("lorem ipsum", case=False,
                                  regex=False).to_numpy()
                & ~s.str.contains("{", regex=False).to_numpy())
    return new_text, keep_doc


def c4_filtered(sf_dir: str) -> rd.Dataset:
    """C4-cleaned corpus: (doc_id, text) for surviving documents,
    text rewritten to its retained lines. One streaming map_batches
    pass, no shuffle."""

    def fn(batch: pa.Table) -> pa.Table:
        new_text, keep = _c4_clean(batch["text"].to_pandas())
        return pa.table({
            "doc_id": batch["doc_id"],
            "text": pa.array(new_text, pa.string()),
        }).filter(pa.array(keep))

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow")


def c4_filter_batch(batch: pa.Table) -> pa.Table:
    """Registry cleaning stage (``clean.c4``): rewrite ``text`` to
    its retained lines, drop rejected documents, and pass every other
    column through untouched."""
    new_text, keep = _c4_clean(batch["text"].to_pandas())
    i = batch.schema.get_field_index("text")
    return batch.set_column(i, "text", pa.array(new_text, pa.string())) \
        .filter(pa.array(keep))


# ---------------------------------------------------------------------------
# FineWeb custom filters (Penedo et al. 2024) — the three published
# C4-inspired document gates with their published thresholds
# ---------------------------------------------------------------------------

FINEWEB_MIN_PUNCT_LINE_FRAC = 0.12   # remove if ≤ 0.12 end in punct
FINEWEB_MAX_DUP_LINE_CHAR_FRAC = 0.1  # remove if ≥ 0.1 duplicated
FINEWEB_MAX_SHORT_LINE_FRAC = 0.67    # remove if ≥ 0.67 under 30 chars
FINEWEB_SHORT_LINE_CHARS = 30


def _fineweb_signals(s) -> dict[str, np.ndarray]:
    """Per-doc FineWeb rule booleans for a pandas Series of texts:

    - ``f_punct_lines``: fraction of lines ending in C4 terminal
      punctuation must EXCEED 0.12,
    - ``f_dup_line_chars``: characters inside repeats of an earlier
      identical line, over total line characters, must stay UNDER 0.1,
    - ``f_short_lines``: fraction of lines shorter than 30 characters
      must stay UNDER 0.67,
    and ``keep`` = the conjunction. Everything runs vectorized over
    the flattened line table; fractions round to 6 dp before every
    threshold (the quantized-decision invariant)."""
    flat, doc_idx = _flat_lines(s)
    n = len(s)
    n_lines = np.bincount(doc_idx, minlength=n).astype(np.float64) \
        if len(flat) else np.zeros(n)
    n_lines_nz = np.maximum(n_lines, 1.0)
    if len(flat):
        punct = flat.str.contains(r'[.!?"]$', regex=True).to_numpy()
        line_len = flat.str.len().to_numpy()
        short = line_len < FINEWEB_SHORT_LINE_CHARS
        dup = pd.DataFrame({"d": doc_idx, "l": flat}).duplicated(
            ["d", "l"]).to_numpy()
        punct_frac = np.bincount(doc_idx, punct, minlength=n) / n_lines_nz
        short_frac = np.bincount(doc_idx, short, minlength=n) / n_lines_nz
        dup_chars = np.bincount(doc_idx, line_len * dup, minlength=n)
        tot_chars = np.maximum(
            np.bincount(doc_idx, line_len, minlength=n), 1.0)
        dup_frac = dup_chars / tot_chars
    else:
        punct_frac = short_frac = dup_frac = np.zeros(n)
    f_punct = np.round(punct_frac, 6) > FINEWEB_MIN_PUNCT_LINE_FRAC
    f_dup = np.round(dup_frac, 6) < FINEWEB_MAX_DUP_LINE_CHAR_FRAC
    f_short = np.round(short_frac, 6) < FINEWEB_MAX_SHORT_LINE_FRAC
    return {
        "f_punct_lines": f_punct,
        "f_dup_line_chars": f_dup,
        "f_short_lines": f_short,
        "keep": f_punct & f_dup & f_short,
    }


def fineweb_quality_flags(sf_dir: str) -> rd.Dataset:
    """Per-doc FineWeb gate flags + composed ``keep``. One streaming
    map_batches pass, no shuffle."""

    def fn(batch: pa.Table) -> pa.Table:
        sig = _fineweb_signals(batch["text"].to_pandas())
        return pa.table({"doc_id": batch["doc_id"],
                         **{k: pa.array(v) for k, v in sig.items()}})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow")


def fineweb_filter_batch(batch: pa.Table) -> pa.Table:
    """Registry cleaning stage (``clean.fineweb``): drop documents
    failing any of the three published gates, pass survivors through
    with all their columns."""
    keep = _fineweb_signals(batch["text"].to_pandas())["keep"]
    return batch.filter(pa.array(keep))


def _terminal_punct_rewrite(s) -> tuple["pd.Series", np.ndarray]:
    """FineWeb-style per-line terminal-punctuation REWRITE: drop the
    individual lines that do not end in C4 terminal punctuation
    (``. ! ? "``) instead of gating whole documents on their fraction
    — the line-level formatting pass FineWeb applies before its
    document gates. Returns (rewritten text, doc keep mask); a
    document survives iff at least one line remains. Same flattened
    vectorized layout as the other line kernels."""
    flat, doc_idx = _flat_lines(s)
    keep_line = flat.str.contains(r'[.!?"]$', regex=True).to_numpy() \
        if len(flat) else np.zeros(0, dtype=bool)
    new_text, n_kept = _regroup_lines(s, flat, doc_idx, keep_line)
    return new_text, n_kept >= 1


def fineweb_rewritten(sf_dir: str) -> rd.Dataset:
    """Terminal-punct line rewrite over the documents table:
    (doc_id, text) with offending lines removed, line-less documents
    dropped. One streaming map_batches pass, no shuffle."""

    def fn(batch: pa.Table) -> pa.Table:
        new_text, keep = _terminal_punct_rewrite(batch["text"].to_pandas())
        return pa.table({
            "doc_id": batch["doc_id"],
            "text": pa.array(new_text, pa.string()),
        }).filter(pa.array(keep))

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow")


def fineweb_rewrite_batch(batch: pa.Table) -> pa.Table:
    """Registry cleaning stage (``clean.fineweb_rewrite``): rewrite
    ``text`` to its terminal-punct lines, drop documents left empty,
    pass every other column through untouched. Composes ahead of the
    gate stages in the WET-style cleaning chain
    (examples/training_data_clean.yaml)."""
    new_text, keep = _terminal_punct_rewrite(batch["text"].to_pandas())
    i = batch.schema.get_field_index("text")
    return batch.set_column(i, "text", pa.array(new_text, pa.string())) \
        .filter(pa.array(keep))


# DuckDB replay — byte parity with fineweb_rewritten (same predicate,
# same chr(10) join) checked in tests/test_gopher.py
FINEWEB_REWRITE_SQL = r"""
WITH kept AS (
  SELECT doc_id,
         LIST_FILTER(STRING_SPLIT(text, chr(10)),
                     x -> REGEXP_MATCHES(x, '[.!?"]$')) AS lines
  FROM documents
)
SELECT doc_id, ARRAY_TO_STRING(lines, chr(10)) AS text
FROM kept
WHERE LEN(lines) >= 1
"""


# DuckDB replay of all three FineWeb rules (parity-tested in
# tests/test_gopher.py). "Duplicated line characters" counts every
# occurrence after the first of an identical line within the doc,
# char-weighted, over total line characters — the same definition the
# python kernel uses.
FINEWEB_FLAGS_SQL = r"""
WITH l AS (
  SELECT doc_id,
         UNNEST(STRING_SPLIT(text, chr(10))) AS line
  FROM documents
),
g AS (
  SELECT doc_id, line, COUNT(*) AS c, LEN(line) AS len1
  FROM l GROUP BY doc_id, line
),
d AS (
  SELECT doc_id,
         SUM(c) AS n_lines,
         SUM(c * CASE WHEN REGEXP_MATCHES(line, '[.!?"]$')
                      THEN 1 ELSE 0 END) AS n_punct,
         SUM(c * CASE WHEN len1 < 30 THEN 1 ELSE 0 END) AS n_short,
         SUM((c - 1) * len1) AS dup_chars,
         SUM(c * len1) AS tot_chars
  FROM g GROUP BY doc_id
)
SELECT doc_id,
       ROUND(CAST(n_punct AS DOUBLE) / GREATEST(n_lines, 1), 6) > 0.12
         AS f_punct_lines,
       ROUND(CAST(dup_chars AS DOUBLE) / GREATEST(tot_chars, 1), 6)
         < 0.1 AS f_dup_line_chars,
       ROUND(CAST(n_short AS DOUBLE) / GREATEST(n_lines, 1), 6) < 0.67
         AS f_short_lines
FROM d
"""


# DuckDB replay — byte parity with c4_filtered (same predicates, same
# chr(10) join, same explicit ASCII whitespace class) checked in
# tests/test_gopher.py
C4_FILTERED_SQL = rf"""
WITH kept AS (
  SELECT doc_id, text,
         LIST_FILTER(STRING_SPLIT(text, chr(10)),
           x -> REGEXP_MATCHES(x, '[.!?"]$')
                AND LEN(LIST_FILTER(
                        REGEXP_SPLIT_TO_ARRAY(x, '{WS_RUN}'),
                        y -> y <> '')) >= 5
                AND NOT CONTAINS(LOWER(x), 'javascript')) AS lines
  FROM documents
)
SELECT doc_id, ARRAY_TO_STRING(lines, chr(10)) AS text
FROM kept
WHERE LEN(lines) >= 3
  AND NOT CONTAINS(LOWER(text), 'lorem ipsum')
  AND NOT CONTAINS(text, '{{')
"""


# DuckDB replay of the six document-level rules (the repetition
# signals replay separately via repetition_oracle_sql(), which covers
# the seventh flag end-to-end). Tokenization uses the SAME
# explicit ASCII whitespace class as the python kernel (WS_RUN) —
# RE2's `\s` and python's Unicode `\s` disagree on NBSP etc., so
# neither shorthand may appear on either side.
GOPHER_FLAGS_SQL = rf"""
WITH t AS (
  SELECT doc_id,
         LEN(LIST_FILTER(REGEXP_SPLIT_TO_ARRAY(text, '{WS_RUN}'),
                         x -> x <> '')) AS n_words,
         LEN(REGEXP_REPLACE(text, '{WS_RUN}', '', 'g')) AS n_chars,
         LEN(REGEXP_EXTRACT_ALL(text, '#'))
           + LEN(REGEXP_EXTRACT_ALL(text, '\.\.\.')) AS n_sym,
         LEN(STRING_SPLIT(text, chr(10))) AS n_lines,
         LEN(LIST_FILTER(STRING_SPLIT(text, chr(10)),
                         x -> REGEXP_MATCHES(x, '^[-•]')))
           AS n_bullet,
         LEN(LIST_FILTER(STRING_SPLIT(text, chr(10)),
                         x -> REGEXP_MATCHES(x, '\.\.\.$')))
           AS n_ellipsis,
         LEN(LIST_FILTER(REGEXP_SPLIT_TO_ARRAY(text, '{WS_RUN}'),
                         x -> REGEXP_MATCHES(x, '[A-Za-z]')))
           AS n_alpha,
         (SELECT COUNT(*) FROM (VALUES ('the'), ('be'), ('to'),
                                ('of'), ('and'), ('that'), ('have'),
                                ('with')) sw(w)
          WHERE REGEXP_MATCHES(text, '(^|[{_WS}])' || w
                                     || '([{_WS}]|$)'))
           AS n_stop
  FROM documents
)
SELECT doc_id,
       n_words,
       n_words BETWEEN 50 AND 100000 AS f_word_count,
       ROUND(CAST(n_chars AS DOUBLE) / GREATEST(n_words, 1), 6)
         BETWEEN 3.0 AND 10.0 AS f_mean_word_len,
       ROUND(CAST(n_sym AS DOUBLE) / GREATEST(n_words, 1), 6) <= 0.1
         AS f_symbol_ratio,
       ROUND(CAST(n_bullet AS DOUBLE) / n_lines, 6) <= 0.9
         AND ROUND(CAST(n_ellipsis AS DOUBLE) / n_lines, 6) <= 0.3
         AS f_bullet_ellipsis,
       ROUND(CAST(n_alpha AS DOUBLE) / GREATEST(n_words, 1), 6) >= 0.8
         AS f_alpha_words,
       n_stop >= 2 AS f_stopwords
FROM t
"""


# ---------------------------------------------------------------------------
# Compression-ratio quality signal (the Dolma / RefinedWeb gzip-
# compressibility heuristic — highly compressible text is repetitive
# boilerplate; barely compressible text is noise/binary junk)
# ---------------------------------------------------------------------------

def compression_ratio(sf_dir: str, level: int = 6) -> rd.Dataset:
    """Per-doc zlib compression ratio: compressed_bytes / raw_bytes of
    the UTF-8 text at a FIXED zlib level (pinned — ratios are only
    comparable at one level). Deterministic: zlib output for a given
    (input, level) is stable across platforms for the bundled zlib.
    Empty docs report ratio 1.0 (nothing to compress). One streaming
    pass, no shuffle; the two published gates are flags here, not
    drops — compose with a filter for the drop semantics.

    No SQL oracle (DuckDB has no zlib scalar); the pytest reference
    recompresses independently and pins band flags on crafted
    repetitive/random docs."""
    import zlib

    def fn(batch: pa.Table) -> pa.Table:
        ratios = []
        for t in batch["text"].to_pylist():
            raw = (t or "").encode("utf-8")
            if not raw:
                ratios.append(1.0)
                continue
            ratios.append(len(zlib.compress(raw, level)) / len(raw))
        r = round_like_sql(np.asarray(ratios, dtype=np.float64), 6)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "compression_ratio": pa.array(r, pa.float64()),
                # the two tails worth flagging (Dolma-style bands):
                # boilerplate-repetitive vs incompressible junk
                "f_too_compressible": pa.array(r < 0.30),
                "f_incompressible": pa.array(r > 1.00),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Readability scores (Flesch reading ease / Flesch-Kincaid grade)
# ---------------------------------------------------------------------------

# ASCII-only regexes on purpose: identical byte semantics in Python re
# and DuckDB RE2, no lower()/unicode-case dependence anywhere
_RE_WORD = r"[^ ]+"
_RE_SENT = r"[.!?]+"
_RE_SYLL = r"[aeiouyAEIOUY]+"


def readability_scores(sf_dir: str) -> rd.Dataset:
    """Per-doc readability features (the curriculum/quality signals
    classic selection pipelines use): word, sentence and
    vowel-group-syllable counts plus the Flesch reading-ease and
    Flesch-Kincaid grade formulas over them. Counting is three
    vectorized regex passes; the syllable estimate is the standard
    vowel-group heuristic (ASCII classes, so Python re and DuckDB RE2
    agree byte-for-byte). Division guards clamp words/sentences to
    ≥ 1; scores round 4-dp via round_like_sql. Shuffle-free;
    READABILITY_SQL replays it exactly."""

    def fn(batch: pa.Table) -> pa.Table:
        s = batch["text"].to_pandas()
        n_words = s.str.count(_RE_WORD).clip(lower=1).astype("int64")
        n_sents = s.str.count(_RE_SENT).clip(lower=1).astype("int64")
        n_syll = s.str.count(_RE_SYLL).astype("int64")
        wps = n_words / n_sents
        spw = n_syll / n_words
        flesch = round_like_sql(206.835 - 1.015 * wps - 84.6 * spw, 4)
        fk = round_like_sql(0.39 * wps + 11.8 * spw - 15.59, 4)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_words": pa.array(n_words),
                "n_sentences": pa.array(n_sents),
                "n_syllables": pa.array(n_syll),
                "flesch": pa.array(flesch),
                "fk_grade": pa.array(fk),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow")


READABILITY_SQL = f"""
WITH c AS (
  SELECT doc_id,
         GREATEST(len(regexp_extract_all(text, '{_RE_WORD}')), 1)
           AS n_words,
         GREATEST(len(regexp_extract_all(text, '{_RE_SENT}')), 1)
           AS n_sentences,
         len(regexp_extract_all(text, '{_RE_SYLL}')) AS n_syllables
  FROM documents
)
SELECT doc_id,
       CAST(n_words AS BIGINT) AS n_words,
       CAST(n_sentences AS BIGINT) AS n_sentences,
       CAST(n_syllables AS BIGINT) AS n_syllables,
       ROUND(206.835 - 1.015 * (CAST(n_words AS DOUBLE) / n_sentences)
             - 84.6 * (CAST(n_syllables AS DOUBLE) / n_words), 4) AS flesch,
       ROUND(0.39 * (CAST(n_words AS DOUBLE) / n_sentences)
             + 11.8 * (CAST(n_syllables AS DOUBLE) / n_words) - 15.59, 4)
         AS fk_grade
FROM c
"""
