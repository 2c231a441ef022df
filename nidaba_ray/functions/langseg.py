"""Per-paragraph language segmentation for mixed-language documents.

Web documents are frequently mixed-language (a foreign-language quote
block, boilerplate in the site's language around translated content, a
code-of-conduct page that repeats itself per locale). A corpus-level
``lang_id`` verdict mislabels every minority-language paragraph, which
poisons lang-keyed downstream stages (lexicon spell-filter, per-lang
curation thresholds, per-lang token budgets). This module classifies
each PARAGRAPH independently with the same deterministic
Cavnar-Trenkle profile match ``functions/textops.LangId`` uses, then
rolls the verdicts up into a per-document summary (majority language
by character mass, switch count, mixedness flag).

Reference analog: nidaba keys its spell-check models on a single
per-document language (``nidaba/tasks/postprocessing.py:≈spell_check``
takes one ``language=`` kwarg per page); per-paragraph segmentation is
the finer-grained replacement a web corpus needs.

Scale shape: the segment table and the ``clean.langseg`` stage are
single-pass ``map_batches`` over the documents table — a document's paragraphs
never leave the row, so there is NO shuffle; the summary is computed
in the same batch that segments it. Token→gram sets are memoized per
actor (Zipfian reuse), mirroring ``LangId``.

Determinism: paragraph split is on the single byte ``\\n``; a segment
is kept iff it is non-empty after stripping ASCII spaces (exactly
DuckDB ``trim(p, ' ') <> ''``); confidences are quantized with
``round_like_sql`` before they leave the kernel; the majority
tie-break is a total order (char mass desc, lang asc). The segment
table is replayed byte-for-byte in DuckDB (``lang_segments_sql``),
sharing the inlined profile VALUES with ``lang_id_sql`` so the two
sides cannot drift.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data as rd

from nidaba_ray.functions.compat import round_like_sql
from nidaba_ray.functions.textops import (
    _docs,
    _lang_profiles,
    profile_values_sql,
)

__all__ = [
    "LangSegments",
    "lang_segments",
    "lang_segments_sql",
    "lang_segment_batch",
]


def split_paragraphs(text: str) -> list[tuple[int, str]]:
    """1-based (para_idx, paragraph) pairs. The index counts ALL
    newline-split parts (so it round-trips to the source text);
    whitespace-only parts are dropped AFTER indexing — the DuckDB
    replay's ``generate_subscripts`` + ``trim(p, ' ') <> ''``."""
    out = []
    for i, p in enumerate(text.split("\n"), start=1):
        if p.strip(" "):
            out.append((i, p))
    return out


class LangSegments:
    """Actor-pool stage: per-paragraph language verdicts.

    Emits one row per kept paragraph:
    ``(doc_id, para_idx, pred_lang, confidence, n_chars)``.
    Gram extraction is memoized per unique token per actor (the
    ``LangId`` cache pattern); the profile sets are built once in
    ``__init__``.
    """

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

    def classify(self, para: str) -> tuple[str, float]:
        grams: set = set()
        for tok in para.split(" "):
            if tok:
                grams |= self._grams(tok)
        best_lang, best = "und", -1.0
        for lang in self.langs:
            score = len(grams & self.profiles[lang]) / max(1, len(grams))
            if score > best:
                best_lang, best = lang, score
        return best_lang, round_like_sql(best, 4)

    def segment(self, text: str) -> list[tuple[int, str, float, int]]:
        """(para_idx, pred_lang, confidence, n_chars) per kept para."""
        return [
            (idx, *self.classify(p), len(p))
            for idx, p in split_paragraphs(text or "")
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids, idxs, preds, confs, nchars = [], [], [], [], []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            for idx, lang, conf, n in self.segment(text):
                doc_ids.append(doc_id)
                idxs.append(idx)
                preds.append(lang)
                confs.append(conf)
                nchars.append(n)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "para_idx": pa.array(idxs, pa.int32()),
                "pred_lang": pa.array(preds, pa.string()),
                "confidence": pa.array(confs, pa.float64()),
                "n_chars": pa.array(nchars, pa.int64()),
            }
        )


def _summarize(segs: list[tuple[int, str, float, int]]) -> tuple:
    """(n_segments, majority_lang, n_langs, n_switches, is_mixed) from
    one document's ordered segment list. Majority = most characters,
    ties broken lang-ascending (a total order)."""
    if not segs:
        return 0, "und", 0, 0, False
    mass: dict[str, int] = {}
    switches = 0
    prev = None
    for _idx, lang, _conf, n in segs:
        mass[lang] = mass.get(lang, 0) + n
        if prev is not None and lang != prev:
            switches += 1
        prev = lang
    majority = max(sorted(mass), key=lambda l: mass[l])
    # max() keeps the FIRST argmax over the sorted keys → lang-asc ties
    return len(segs), majority, len(mass), switches, len(mass) > 1


class LangSegSummary(LangSegments):
    """Per-document rollup of the paragraph verdicts — computed in the
    SAME batch pass (a doc's paragraphs never cross rows, so no
    shuffle exists anywhere in this operator)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_segs, majors, n_langs, n_sw, mixed = [], [], [], [], []
        for text in batch["text"].to_pylist():
            s, m, nl, sw, mx = _summarize(self.segment(text))
            n_segs.append(s)
            majors.append(m)
            n_langs.append(nl)
            n_sw.append(sw)
            mixed.append(mx)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_segments": pa.array(n_segs, pa.int64()),
                "majority_lang": pa.array(majors, pa.string()),
                "n_langs": pa.array(n_langs, pa.int64()),
                "n_switches": pa.array(n_sw, pa.int64()),
                "is_mixed": pa.array(mixed, pa.bool_()),
            }
        )


def lang_segments(sf_dir: str) -> rd.Dataset:
    """Paragraph-level language table over the documents corpus."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        LangSegments, batch_format="pyarrow", batch_size=2048,
        concurrency=(1, 4),
    )


def lang_segment_batch(batch: pa.Table) -> pa.Table:
    """Registry stage (``clean.langseg``): annotate a documents batch
    with ``majority_lang`` / ``is_mixed`` columns (schema-preserving
    plus two columns — chains ahead of lang-keyed stages so they can
    key on the paragraph-majority language instead of the source
    label)."""
    seg = LangSegSummary()
    majors, mixed = [], []
    for text in batch["text"].to_pylist():
        _s, m, _nl, _sw, mx = _summarize(seg.segment(text))
        majors.append(m)
        mixed.append(mx)
    return batch.append_column(
        "majority_lang", pa.array(majors, pa.string())
    ).append_column("is_mixed", pa.array(mixed, pa.bool_()))


# ---------------------------------------------------------------------------
# DuckDB replays
# ---------------------------------------------------------------------------

# Shared CTE prefix: paragraphs → grams → per-(doc, para) best language.
# Every kept paragraph has >= 1 token and every padded token yields
# >= 1 trigram, so ng >= 1 always; GREATEST keeps the kernel's
# max(1, .) shape anyway.
_SEG_CTES = """
profile(lang, g) AS (VALUES {values}),
parts AS (
  SELECT doc_id, generate_subscripts(p, 1) AS para_idx, unnest(p) AS para
  FROM (SELECT doc_id, string_split(text, chr(10)) AS p FROM documents)
),
segs AS (SELECT * FROM parts WHERE trim(para, ' ') <> ''),
toks AS (
  SELECT DISTINCT doc_id, para_idx, tok FROM
    (SELECT doc_id, para_idx, unnest(string_split(para, ' ')) AS tok
     FROM segs) WHERE tok <> ''
),
grams AS (
  SELECT DISTINCT doc_id, para_idx, g FROM (
    SELECT doc_id, para_idx,
           unnest(list_transform(range(1, len(p) - 1),
                                 i -> substr(p, i, 3))) AS g
    FROM (SELECT doc_id, para_idx, ' ' || tok || ' ' AS p FROM toks)
  )
),
ng AS (SELECT doc_id, para_idx, count(*) AS n FROM grams
       GROUP BY doc_id, para_idx),
hits AS (
  SELECT gr.doc_id, gr.para_idx, p.lang AS cand, count(*) AS h
  FROM grams gr JOIN profile p ON gr.g = p.g
  GROUP BY gr.doc_id, gr.para_idx, p.lang
),
scored AS (
  SELECT s.doc_id, s.para_idx, l.cand,
         COALESCE(h.h, 0) * 1.0 / GREATEST(ng.n, 1) AS score
  FROM segs s
  CROSS JOIN (SELECT DISTINCT lang AS cand FROM profile) l
  JOIN ng ON ng.doc_id = s.doc_id AND ng.para_idx = s.para_idx
  LEFT JOIN hits h ON h.doc_id = s.doc_id AND h.para_idx = s.para_idx
                  AND h.cand = l.cand
),
best AS (
  SELECT doc_id, para_idx, cand AS pred_lang,
         ROUND(score, 4) AS confidence,
         ROW_NUMBER() OVER (PARTITION BY doc_id, para_idx
                            ORDER BY score DESC, cand ASC) AS rn
  FROM scored
)
"""


def lang_segments_sql() -> str:
    """Byte-parity replay of :func:`lang_segments`."""
    return f"""
WITH {_SEG_CTES.format(values=profile_values_sql())}
SELECT s.doc_id, CAST(s.para_idx AS INTEGER) AS para_idx,
       b.pred_lang, b.confidence,
       CAST(length(s.para) AS BIGINT) AS n_chars
FROM segs s
JOIN best b ON b.doc_id = s.doc_id AND b.para_idx = s.para_idx
           AND b.rn = 1
ORDER BY s.doc_id, s.para_idx
"""
