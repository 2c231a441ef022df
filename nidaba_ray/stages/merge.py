"""Threshold variants + candidate alignment/vote — the
binarize-variant fan-out and merge_hocr.merge analog (SURVEY.md §2.5).

nidaba fans each page out through K binarization × OCR variants as
separate Celery branches, then blend_hocr aligns the K hOCR files by
bbox and votes per word. Here the variants are *columns of one row* —
no barrier, no shuffle, no filesystem:

    variant A: global Otsu-style threshold over the block-score histogram
    variant B: local Sauvola-style adaptive threshold
    variant C: the input ``text`` column (the pre-existing candidate
               extraction, the "other engine's output")

``align_and_vote`` runs per row inside a stateless ``map_batches``:
token-level majority vote over LCS-aligned candidates, with the
deterministic total order required for byte-identical output across
parallelism levels (SURVEY.md §7 hard parts): vote count desc → token
asc; backbone priority: variant score desc → variant index asc.

A ``groupby('url')`` shuffle is only needed in multi-crawl mode (same
url from several snapshots) — see pipelines/dedup.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from nidaba_ray.algorithms.strings import align_vote
from nidaba_ray.record import SPAN_SEP, SPAN_TYPE, PROVENANCE_STRUCT
from nidaba_ray.stages import score as scoremod

__all__ = ["threshold_and_vote", "vote_row", "MAX_ALIGN_TOKENS"]

# Beyond this many tokens a 3-way disagreement falls back to the
# highest-priority candidate instead of O(n·m) alignment: bounded
# per-row cost so one pathological page can't stall a block.
MAX_ALIGN_TOKENS = 4000

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
) -> tuple[str, list[dict], list[dict], int, int]:
    """One row → (final_text, kept_spans_with_offsets, provenance,
    n_blocks, n_kept).

    Candidate priority on disagreement = dictionary-hit ratio first
    (the nidaba vote-scoring semantics), static variant priority as
    the tie-break; fully deterministic."""
    n_blocks = len(spans)
    if n_blocks == 0:
        return "", [], [{"stage": "extract", "variant": "empty"}], 0, 0
    scores = np.fromiter((s["score"] for s in spans), dtype=np.float64, count=n_blocks)
    if payload_kind in ("pdf", "docx", "odt", "rtf", "text"):
        # The layout parse already yields content blocks only — a PDF
        # page (or a DOCX body, round 5) has no DOM chrome to binarize
        # away; both variants keep everything (nidaba likewise
        # binarizes *images*, not the recognizer's own output).
        keep_a = scores >= 0
        keep_b = keep_a
        keep_c = keep_a
    else:
        keep_a = scoremod.keep_global_otsu(scores)
        keep_b = scoremod.keep_local_sauvola(scores)
        keep_c = scoremod.keep_nlbin(scores)
    candidates = [
        SPAN_SEP.join(spans[i]["text"] for i in range(n_blocks) if keep[i])
        for keep in (keep_a, keep_b, keep_c)
    ]
    cand_a, cand_b = candidates[0], candidates[1]
    if cand_text:
        candidates.append(cand_text)
    prov = [{"stage": stage, "variant": variant}
            for stage, variant, _ in VARIANT_PRIORITY[:3]]
    if cand_a == cand_b:
        final = cand_a
        prov.append({"stage": "merge", "variant": "agree"})
    else:
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


def threshold_and_vote(batch: pa.Table) -> pa.Table:
    """Stateless ``map_batches`` body (fuses with neighbors)."""
    cols = {
        name: batch[name] for name in batch.column_names if name != "spans"
    }
    return vote_columns(cols, batch["spans"].to_pylist())


def vote_columns(cols: dict, spans_col: list[list[dict]]) -> pa.Table:
    """Core vote over passthrough columns + Python span lists — the
    fused pipeline calls this directly, skipping the Arrow
    list<struct> build + to_pylist round trip between stages."""
    n = len(spans_col)
    cand_texts = cols["text"].to_pylist() if "text" in cols else [None] * n
    errors = cols["error"].to_pylist()
    kinds = cols["payload_kind"].to_pylist()
    langs = cols["lang"].to_pylist() if "lang" in cols else [None] * n
    finals, kepts, provs, n_blocks_l, n_kept_l = [], [], [], [], []
    for spans, cand, err, kind, lang in zip(
        spans_col, cand_texts, errors, kinds, langs
    ):
        if err:
            finals.append("")
            kepts.append([])
            provs.append([{"stage": "quarantine", "variant": "error"}])
            n_blocks_l.append(0)
            n_kept_l.append(0)
            continue
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
