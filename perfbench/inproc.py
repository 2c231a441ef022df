"""In-process single-core run: the ``FusedExtract`` callable of the Ray
path, called directly on the same rows in fixed-size batches, and its
traced variant, which gives the per-layer metrics.
"""

from __future__ import annotations

import json
import time

import pyarrow as pa

import tracing
import workloads

BATCH_ROWS = 64  # extract_pipeline's extract_batch_size


def one_pass(pages: pa.Table) -> tuple[tuple[float, float], pa.Table]:
    """One pass; returns its ``time.monotonic()`` window and output."""
    from nidaba_ray.pipelines.extract import FusedExtract

    t0 = time.monotonic()
    # a fresh callable per pass, so per-instance caches start empty
    # every time, as when a job's actor meets these pages
    fused = FusedExtract()
    out = pa.concat_tables([fused(pages.slice(i, BATCH_ROWS))
                            for i in range(0, pages.num_rows, BATCH_ROWS)])
    return (t0, time.monotonic()), out


def timed_passes(pages: pa.Table, seconds: float,
                 min_passes: int) -> tuple[list[tuple[float, float]], pa.Table]:
    """Passes for ``seconds`` (at least ``min_passes``); returns their
    windows and the last output."""
    windows, out = [], None
    deadline = time.monotonic() + seconds
    while len(windows) < min_passes or time.monotonic() < deadline:
        window, out = one_pass(pages)
        windows.append(window)
    return windows, out


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def layer_metrics(summary: dict, rows: int, traced_walls: list[float],
                  out: pa.Table) -> dict:
    """Per-layer metrics of the traced passes; ``*_us_per_doc`` divide by
    every row of every traced pass, so they add up to the traced cost
    per doc."""
    layers = summary["layers"]
    passes = len(traced_walls)

    def rec(name):
        return layers.get(name, {"calls": 0, "self_ns": 0, "notes": []})

    def us_per_doc(*names):
        return _per(sum(rec(n)["self_ns"] for n in names) / 1e3, rows * passes)

    vote = rec("merge.vote_row")
    paths = {v: vote["notes"].count(v) for v in ("agree", "vote", "backbone")}
    emitted = sum(len(json.loads(s)) for s in out["suggestions"].to_pylist())
    layer_ns = sum(r["self_ns"] for r in layers.values())
    return {
        "extract.self_us_per_doc": (us_per_doc("extract"), "us/doc"),
        "strings.sanitize_us_per_doc": (us_per_doc("strings.sanitize"), "us/doc"),
        "segment.us_per_doc": (us_per_doc("segment"), "us/doc"),
        "segment.blocks_per_doc": (_per(sum(rec("segment")["notes"]), rows * passes),
                                   "blocks/doc"),
        "score.features_us_per_doc": (us_per_doc("score.features"), "us/doc"),
        "score.otsu_us_per_doc": (us_per_doc("score.otsu"), "us/doc"),
        "score.sauvola_us_per_doc": (us_per_doc("score.sauvola"), "us/doc"),
        "score.nlbin_us_per_doc": (us_per_doc("score.nlbin"), "us/doc"),
        "score.nlbin_used_share": (_per(summary["nlbin_used"], rec("score.nlbin")["calls"]),
                                   "ratio"),
        "pdf.us_per_pdf_doc": (_per(rec("pdf")["self_ns"] / 1e3, rec("pdf")["calls"]),
                               "us/doc"),
        "pdf.docs": (_per(rec("pdf")["calls"], passes), "docs"),
        "office.us_per_doc": (us_per_doc("office"), "us/doc"),
        "merge.vote_row_us_per_doc": (us_per_doc("merge.vote_row"), "us/doc"),
        "merge.align_vote_us_per_call": (
            _per(rec("merge.align_vote")["self_ns"] / 1e3, rec("merge.align_vote")["calls"]),
            "us/call"),
        "merge.arrow_build_us_per_doc": (us_per_doc("merge.vote_columns"), "us/doc"),
        "merge.agree_share": (_per(paths["agree"], vote["calls"]), "ratio"),
        "merge.vote_share": (_per(paths["vote"], vote["calls"]), "ratio"),
        "merge.backbone_share": (_per(paths["backbone"], vote["calls"]), "ratio"),
        "spell.us_per_doc": (us_per_doc("spell.filter", "spell.sym_suggest"), "us/doc"),
        # the traced output is one pass's; sym_suggest ran once per pass;
        # 0 when no suggestion was emitted
        "spell.suggest_cache_hit_share": (
            1.0 - rec("spell.sym_suggest")["calls"] / passes / emitted if emitted else 0.0,
            "ratio"),
        "fused.layer_sum_share": (layer_ns / 1e9 / sum(traced_walls), "ratio"),
    }


def traced_run(pages: pa.Table, seconds: float, untraced_out: pa.Table) -> dict:
    """Traced passes for ``seconds`` (at least two) under ``tracing.Tracer``;
    their output must equal the untraced output row for row."""
    with tracing.Tracer() as tracer:
        windows, out = timed_passes(pages, seconds, 2)
    walls = [t1 - t0 for t0, t1 in windows]
    return {
        "traced_mismatch": sorted(workloads.mismatched_rows(untraced_out, out)),
        "traced_windows": windows,
        "layers": layer_metrics(tracer.summary(), pages.num_rows, walls, out),
    }
