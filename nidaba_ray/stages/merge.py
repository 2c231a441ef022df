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

``vote_columns`` runs the A and B kernels once per Arrow batch, over
the block scores of all its thresholded rows at once (see
stages/score.py), then ``vote_row`` runs per row. When A and B agree
the row is done; only when they differ is C computed (lazily, for
that row alone) and the candidates voted: token-level majority vote
over LCS-aligned candidates, with the
deterministic total order required for byte-identical output across
parallelism levels (SURVEY.md §7 hard parts): vote count desc → token
asc; backbone priority: variant score desc → variant index asc.

A ``groupby('url')`` shuffle is only needed in multi-crawl mode (same
url from several snapshots) — see ``pipelines/crawls.merge_crawls``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from nidaba_ray.algorithms.strings import align_vote
from nidaba_ray.record import SPAN_SEP, SPAN_TYPE, PROVENANCE_STRUCT
from nidaba_ray.stages import score as scoremod

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


def vote_row(
    spans: list[dict],
    cand_text: str | None,
    payload_kind: str = "html",
    lang: str | None = None,
    scores: np.ndarray | None = None,
    keep_ab: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[str, list[dict], list[dict], int, int]:
    """One row → (final_text, kept_spans_with_offsets, provenance,
    n_blocks, n_kept).

    ``scores`` / ``keep_ab`` are this row's slices of the batch arrays
    ``vote_columns`` computes once per batch (its block scores and the
    Otsu and Sauvola keep masks); a caller voting one row leaves them
    out. Variant C (nlbin) is computed only when A and B disagree, the
    one case that reads it.

    Candidate priority on disagreement = dictionary-hit ratio first
    (the nidaba vote-scoring semantics), static variant priority as
    the tie-break; fully deterministic."""
    n_blocks = len(spans)
    if n_blocks == 0:
        return "", [], [{"stage": "extract", "variant": "empty"}], 0, 0
    if scores is None:
        scores = np.fromiter((s["score"] for s in spans), dtype=np.float64,
                             count=n_blocks)
    keep_c = None
    if payload_kind in KEEP_ALL_KINDS:
        # The layout parse already yields content blocks only — a PDF
        # page (or a DOCX body, round 5) has no DOM chrome to binarize
        # away; every variant keeps everything (nidaba likewise
        # binarizes *images*, not the recognizer's own output).
        keep_a = keep_b = keep_c = scores >= 0
    elif keep_ab is None:
        keep_a = scoremod.keep_global_otsu(scores)
        keep_b = scoremod.keep_local_sauvola(scores)
    else:
        keep_a, keep_b = keep_ab
    cand_a, cand_b = (
        SPAN_SEP.join(spans[i]["text"] for i in range(n_blocks) if keep[i])
        for keep in (keep_a, keep_b)
    )
    prov = [{"stage": stage, "variant": variant}
            for stage, variant, _ in VARIANT_PRIORITY[:3]]
    if cand_a == cand_b:
        final = cand_a
        prov.append({"stage": "merge", "variant": "agree"})
    else:
        if keep_c is None:
            keep_c = scoremod.keep_nlbin(scores)
        candidates = [cand_a, cand_b, SPAN_SEP.join(
            spans[i]["text"] for i in range(n_blocks) if keep_c[i])]
        if cand_text:
            candidates.append(cand_text)
        toks = [c.split(SPAN_SEP) if c else [] for c in candidates]
        if max(len(t) for t in toks) > MAX_ALIGN_TOKENS:
            final = cand_a
            prov.append({"stage": "merge", "variant": "backbone"})
        else:
            # dict-hit ratio dominates, static priority breaks ties
            vscores = [
                _dict_ratio(t, lang) * 10.0 + VARIANT_PRIORITY[i][2]
                for i, t in enumerate(toks)
            ]
            voted = align_vote(toks, scores=vscores)
            final = SPAN_SEP.join(voted)
            prov.append({"stage": "merge", "variant": "vote"})
    # kept spans = variant A's blocks, offsets assigned against final
    # text where the span text occurs in sequence (bbox analog).
    kept = []
    pos = 0
    for i in range(n_blocks):
        if not keep_a[i]:
            continue
        s = dict(spans[i])
        idx = final.find(s["text"], pos)
        if idx >= 0:
            s["start"], s["end"] = idx, idx + len(s["text"])
            pos = s["end"]
        kept.append(s)
    return final, kept, prov, n_blocks, len(kept)


def vote_columns(cols: dict, spans_col: list[list[dict]]) -> pa.Table:
    """The vote over passthrough columns + Python span lists (the
    output of ``extract.extract_columns``), the second step of the
    ``FusedExtract`` actor.

    The Otsu and Sauvola kernels run once over the whole batch: the
    block scores of every row they apply to, back to back, with page
    offsets; each row then votes on its own slices."""
    n = len(spans_col)
    cand_texts = cols["text"].to_pylist() if "text" in cols else [None] * n
    errors = cols["error"].to_pylist()
    kinds = cols["payload_kind"].to_pylist()
    langs = cols["lang"].to_pylist() if "lang" in cols else [None] * n
    thresholded = [not err and kind not in KEEP_ALL_KINDS
                   for err, kind in zip(errors, kinds)]
    pages = [spans for spans, t in zip(spans_col, thresholded) if t]
    offsets = np.cumsum([0] + [len(spans) for spans in pages])
    scores = np.fromiter((s["score"] for spans in pages for s in spans),
                         dtype=np.float64, count=offsets[-1])
    keep_a = scoremod.keep_global_otsu(scores, offsets)
    keep_b = scoremod.keep_local_sauvola(scores, offsets)
    finals, kepts, provs, n_blocks_l, n_kept_l = [], [], [], [], []
    page = 0
    for spans, cand, err, kind, lang, t in zip(
        spans_col, cand_texts, errors, kinds, langs, thresholded
    ):
        if err:
            finals.append("")
            kepts.append([])
            provs.append([{"stage": "quarantine", "variant": "error"}])
            n_blocks_l.append(0)
            n_kept_l.append(0)
            continue
        if t:
            a, b = offsets[page], offsets[page + 1]
            page += 1
            f, k, p, nb, nk = vote_row(spans, cand, kind, lang, scores[a:b],
                                       (keep_a[a:b], keep_b[a:b]))
        else:
            f, k, p, nb, nk = vote_row(spans, cand, kind, lang)
        finals.append(f)
        kepts.append(k)
        provs.append(p)
        n_blocks_l.append(nb)
        n_kept_l.append(nk)
    # generic passthrough (bucket ids, user metadata); text/spans are
    # replaced by the voted canonical versions
    out = {name: arr for name, arr in cols.items() if name != "text"}
    out["text"] = pa.array(finals, pa.string())
    out["spans"] = pa.array(kepts, SPAN_TYPE)
    out["provenance"] = pa.array(provs, pa.list_(PROVENANCE_STRUCT))
    out["n_blocks"] = pa.array(n_blocks_l, pa.int32())
    out["n_kept"] = pa.array(n_kept_l, pa.int32())
    return pa.table(out)
