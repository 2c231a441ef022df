"""Threshold variants + candidate alignment/vote — the
binarize-variant fan-out and merge_hocr.merge analog (SURVEY.md §2.5).

nidaba fans each page out through K binarization × OCR variants as
separate Celery branches, then blend_hocr aligns the K hOCR files by
bbox and votes per word. Here the variants are *columns of one row* —
no barrier, no shuffle, no filesystem:

    variant A: global Otsu-style threshold over the block-score histogram
    variant B: local Sauvola-style adaptive threshold
    variant C: kraken-nlbin-style percentile threshold
    input:     the input ``text`` column (the pre-existing candidate
               extraction, the "other engine's output")

``vote_columns`` votes on the batch's block table (stages/extract.py)
with index arrays: the A and B kernels run once over the block scores
of all its thresholded rows (see stages/score.py), and a row whose two
keep masks are equal agrees: its text is its A blocks joined. Only
where the masks differ is B joined, and only where the two texts
differ too is C computed (for that row alone) and the candidates
voted: token-level majority vote over LCS-aligned candidates, with
the deterministic total order required for byte-identical output
across parallelism levels (SURVEY.md §7 hard parts): vote count desc
→ token asc; backbone priority: variant score desc → variant index
asc. A row whose masks differ goes through ``vote_row``, the same
vote over one row of span dicts. ``spans`` and ``provenance`` are
built from the table's columns and the kept indices.

A ``groupby('url')`` shuffle is only needed in multi-crawl mode (same
url from several snapshots) — see ``pipelines/crawls.merge_crawls``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from nidaba_ray.algorithms.strings import align_vote
from nidaba_ray.record import SPAN_SEP, SPAN_TYPE, PROVENANCE_STRUCT
from nidaba_ray.stages import score as scoremod
from nidaba_ray.stages.extract import ScoredBlocks

__all__ = ["vote_columns", "vote_row", "MAX_ALIGN_TOKENS"]

# Beyond this many tokens a 3-way disagreement falls back to the
# highest-priority candidate instead of O(n·m) alignment: bounded
# per-row cost so one pathological page can't stall a block.
MAX_ALIGN_TOKENS = 4000

# payload kinds whose layout parse yields content blocks only: every
# variant keeps every block, and the threshold kernels never see them
KEEP_ALL_KINDS = frozenset(("pdf", "docx", "odt", "rtf", "text"))

VARIANT_PRIORITY = [("threshold", "otsu", 3.0), ("threshold", "sauvola", 2.0),
                    ("threshold", "nlbin", 1.5), ("input", "text", 1.0)]


def _dict_ratio(tokens: list[str], lang: str) -> float:
    """Fraction of tokens found in the language lexicon — nidaba's
    blend_hocr scores competing variants by dictionary membership
    (merge_hocr.py ≈ score_word, UNVERIFIED per SURVEY.md §0);
    quantized to 3 decimals so float noise can't flip the candidate
    order across platforms."""
    if not tokens:
        return 0.0
    from nidaba_ray.functions import lexicon

    words = lexicon.wordlist(lang or "en")
    return round(sum(t in words for t in tokens) / len(tokens), 3)


# the merge path each row takes, indexing ``_PROVENANCE``
AGREE, VOTE, BACKBONE, QUARANTINE, EMPTY = range(5)
_PATHS = {"agree": AGREE, "vote": VOTE, "backbone": BACKBONE}
_PROVENANCE = pa.array(
    [[{"stage": stage, "variant": variant}
      for stage, variant, _ in VARIANT_PRIORITY[:3]]
     + [{"stage": "merge", "variant": path}]
     for path in ("agree", "vote", "backbone")]
    + [[{"stage": "quarantine", "variant": "error"}],
       [{"stage": "extract", "variant": "empty"}]],
    pa.list_(PROVENANCE_STRUCT))


class _Votes(NamedTuple):
    """The vote over a block table (``_vote``): per row, its final text
    and merge path; the kept blocks (variant A's), as table indices
    with per-row offsets, and each one's ``start``/``end`` in its row's
    final text (-1 where not found)."""

    final: list[str]
    path: np.ndarray
    kept: np.ndarray
    kept_offsets: np.ndarray
    start: np.ndarray
    end: np.ndarray


def _keep_masks(scores: np.ndarray, offsets: np.ndarray,
                thresholded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Variants A and B over a block table (rows as in ``_vote``): the
    Otsu and Sauvola kernels run once over the ``thresholded`` rows'
    scores; the other rows keep every block."""
    counts = np.diff(offsets)
    on = np.repeat(thresholded, counts)
    sub_offsets = np.cumsum(np.concatenate(([0], counts[thresholded])))
    keep_a = np.ones(len(scores), dtype=bool)
    keep_b = keep_a.copy()
    keep_a[on] = scoremod.keep_global_otsu(scores[on], sub_offsets)
    keep_b[on] = scoremod.keep_local_sauvola(scores[on], sub_offsets)
    return keep_a, keep_b


def _vote(text: pa.StringArray, offsets: np.ndarray, keep_a: np.ndarray,
          keep_b: np.ndarray, quarantined: np.ndarray,
          resolve: Callable[[int, str], tuple[int, str]]) -> _Votes:
    """Votes every row of a block table: row ``r``'s blocks are
    ``offsets[r]:offsets[r + 1]`` of ``text`` and the keep masks, and
    ``quarantined`` rows have none. A row whose masks are equal agrees
    on its A text without joining B; a row whose masks differ takes
    ``resolve(r, A text)`` → (merge path, final text)."""
    n_rows = len(offsets) - 1
    counts = np.diff(offsets)
    block_row = np.repeat(np.arange(n_rows), counts)
    kept = np.flatnonzero(keep_a)
    kept_offsets = np.cumsum(np.concatenate(
        ([0], np.bincount(block_row[kept], minlength=n_rows))))
    kept_text = text.take(kept).to_pylist()
    finals = [SPAN_SEP.join(kept_text[a:b])
              for a, b in zip(kept_offsets[:-1], kept_offsets[1:])]
    path = np.where(quarantined, QUARANTINE, np.where(counts == 0, EMPTY, AGREE))
    for r in np.flatnonzero(np.bincount(block_row[keep_a != keep_b],
                                        minlength=n_rows)).tolist():
        path[r], finals[r] = resolve(r, finals[r])
    start, end = _span_offsets(finals, kept_text, kept_offsets)
    return _Votes(finals, path, kept, kept_offsets, start, end)


def _disagreement(texts: list[str], scores: np.ndarray, keep_b: np.ndarray,
                  cand_a: str, cand_text: str | None,
                  lang: str | None) -> tuple[int, str]:
    """A row whose A and B masks differ → (merge path, final text):
    ``AGREE`` if the joined texts are equal anyway; else the vote of
    A, B, C (nlbin, computed here) and the input text, or ``BACKBONE``
    (A's text) beyond ``MAX_ALIGN_TOKENS``."""
    cand_b = SPAN_SEP.join(t for t, k in zip(texts, keep_b) if k)
    if cand_a == cand_b:
        return AGREE, cand_a
    keep_c = scoremod.keep_nlbin(scores)
    candidates = [cand_a, cand_b,
                  SPAN_SEP.join(t for t, k in zip(texts, keep_c) if k)]
    if cand_text:
        candidates.append(cand_text)
    toks = [c.split(SPAN_SEP) if c else [] for c in candidates]
    if max(len(t) for t in toks) > MAX_ALIGN_TOKENS:
        return BACKBONE, cand_a
    # dict-hit ratio dominates, static priority breaks ties
    vscores = [_dict_ratio(t, lang) * 10.0 + VARIANT_PRIORITY[i][2]
               for i, t in enumerate(toks)]
    return VOTE, SPAN_SEP.join(align_vote(toks, scores=vscores))


def _span_offsets(finals: list[str], kept_text: list[str],
                  kept_offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per kept block: ``start``/``end`` of its text in its row's final
    text, found in sequence (the bbox analog); -1 where not found."""
    start, end = [], []
    for r, final in enumerate(finals):
        pos = 0
        for t in kept_text[kept_offsets[r]:kept_offsets[r + 1]]:
            idx = final.find(t, pos)
            if idx >= 0:
                pos = idx + len(t)
                start.append(idx)
                end.append(pos)
            else:
                start.append(-1)
                end.append(-1)
    return np.array(start, dtype=np.int64), np.array(end, dtype=np.int64)


def vote_row(
    spans: list[dict],
    cand_text: str | None,
    payload_kind: str = "html",
    lang: str | None = None,
    scores: np.ndarray | None = None,
    keep_ab: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[str, list[dict], list[dict], int, int]:
    """One row → (final_text, kept_spans_with_offsets, provenance,
    n_blocks, n_kept): a one-row ``_vote`` over the spans' ``text``;
    the kept spans are copies of variant A's with ``start`` and ``end``
    set where the final text has them.

    ``scores`` / ``keep_ab`` are this row's slices of the batch arrays
    ``vote_columns`` computes once per batch (its block scores and the
    Otsu and Sauvola keep masks); a caller voting one row leaves them
    out. Variant C (nlbin) is computed only when A and B disagree, the
    one case that reads it.

    Candidate priority on disagreement = dictionary-hit ratio first
    (the nidaba vote-scoring semantics), static variant priority as
    the tie-break; fully deterministic."""
    n_blocks = len(spans)
    if scores is None:
        scores = np.fromiter((s["score"] for s in spans), dtype=np.float64,
                             count=n_blocks)
    offsets = np.array([0, n_blocks])
    keep_a, keep_b = keep_ab or _keep_masks(
        scores, offsets, np.array([payload_kind not in KEEP_ALL_KINDS]))
    texts = [s["text"] for s in spans]
    v = _vote(pa.array(texts, pa.string()), offsets, keep_a, keep_b,
              np.array([False]), lambda r, cand_a: _disagreement(
                  texts, scores, keep_b, cand_a, cand_text, lang))
    kept = []
    for i, start, end in zip(v.kept.tolist(), v.start.tolist(), v.end.tolist()):
        s = dict(spans[i])
        if start >= 0:
            s["start"], s["end"] = start, end
        kept.append(s)
    return (v.final[0], kept, _PROVENANCE[int(v.path[0])].as_py(), n_blocks,
            len(kept))


def vote_columns(cols: dict, blocks: ScoredBlocks) -> pa.Table:
    """The vote over passthrough columns + the batch's block table (the
    output of ``extract.extract_columns``), the second step of the
    ``FusedExtract`` actor. The A and B kernels run once over the
    batch; only a row whose masks differ goes through ``vote_row``,
    with its slices of the batch arrays. ``text``, ``spans``,
    ``provenance``, ``n_blocks`` and ``n_kept`` are built from the
    table's columns and the vote's index arrays, with no per-block
    Python dict."""
    quarantined = pc.not_equal(cols["error"], "").to_numpy(zero_copy_only=False)
    thresholded = ~quarantined & ~pc.is_in(
        cols["payload_kind"], pa.array(sorted(KEEP_ALL_KINDS))).to_numpy(
            zero_copy_only=False)
    keep_a, keep_b = _keep_masks(blocks.score, blocks.offsets, thresholded)

    def resolve(r, _cand_a):
        a, b = blocks.offsets[r], blocks.offsets[r + 1]
        cand_text, lang = (cols[name][r].as_py() if name in cols else None
                           for name in ("text", "lang"))
        final, _, prov, _, _ = vote_row(
            blocks.span_dicts(r), cand_text, cols["payload_kind"][r].as_py(),
            lang, blocks.score[a:b], (keep_a[a:b], keep_b[a:b]))
        return _PATHS[prov[-1]["variant"]], final

    v = _vote(blocks.text, blocks.offsets, keep_a, keep_b, quarantined, resolve)
    kept = v.kept
    n_kept = np.diff(v.kept_offsets)
    spans = pa.StructArray.from_arrays([
        pa.array((kept - np.repeat(blocks.offsets[:-1], n_kept)).astype(np.int32)),
        blocks.kind.take(kept),
        pa.array(blocks.depth[kept]),
        pa.array(blocks.text_density[kept].astype(np.float32)),
        pa.array(blocks.link_density[kept].astype(np.float32)),
        pa.array(blocks.score[kept].astype(np.float32)),
        blocks.text.take(kept),
        pa.array(v.start),
        pa.array(v.end),
    ], fields=list(SPAN_TYPE.value_type))
    # generic passthrough (bucket ids, user metadata); text/spans are
    # replaced by the voted canonical versions
    out = {name: arr for name, arr in cols.items() if name != "text"}
    out["text"] = pa.array(v.final, pa.string())
    out["spans"] = pa.ListArray.from_arrays(v.kept_offsets.astype(np.int32), spans)
    out["provenance"] = _PROVENANCE.take(v.path)
    out["n_blocks"] = pa.array(np.diff(blocks.offsets).astype(np.int32))
    out["n_kept"] = pa.array(n_kept.astype(np.int32))
    return pa.table(out)
