"""Benchmark harness (driver contract).

Prints ONE JSON line:
    {"metric": "e2e_extract_sec", "value": <headline seconds>,
     "unit": "sec", "queries": {...per-query sec...}, "sf": ...,
     "num_cpus": N, "rows": R, "docs_per_sec": ...}

Headline = flagship extraction pipeline (read pages parquet →
FusedExtract actor pool: extract → threshold/vote → spell →
write_parquet) over a deterministic synthetic pages corpus derived
from $GRAFT_SF_DIR/documents.parquet, amplified ×$GRAFT_AMPLIFY
(default 40) so the job is long enough for scaling measurements. The
corpus is synthesized once per (sf, amplify) and cached under /tmp.

--scaling: runs the headline twice in FRESH processes at
RAY_GRAFT_CPUS=8 and 32 on the same cached input and reports both
throughputs + efficiency (sandbox evidence for the N→4N criterion,
BASELINE.md protocol).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
AMPLIFY = int(os.environ.get("GRAFT_AMPLIFY", "40"))

# queries worth timing per round (one per operator family)
TIMED_QUERIES = [
    "q1_pricing_summary",
    "filter_high_value",
    "join_customer_orders",
    "join_lineitem_orders",
    "q3_shipping_priority",
    "topk_orders",
    "events_hourly",
    "latest_event_per_user",
    "sessionize",
    "asof_click_purchase",
    "hll_distinct_users",
    "quality_metrics",
    "token_stats_per_lang",
    "fingerprint_md5",
    "exact_dedup",
    "minhash_dedup_pairs",
    "simhash_dup_pairs",
    "ann_topk",
    "ann_topk_lsh",
    "doc_winnow",
    "ngram_jaccard_pairs_exact",
    "curated_corpus",
    "extract_documents",
    # round-2 additions (one per new operator family)
    "extract_documents_pdf2",
    # round-4: the driver-listed partitioned IVF query (warm cached
    # index — the path users actually run; round-3 verdict item 1)
    "ann_topk_ivf_partitioned",
    "ann_topk_ivfpq_partitioned",
    "event_value_quantiles_sketch",
    "block_quality_scores",
    "streaming_extract_stats",
    # round-3 additions
    "extract_documents_pdf3",
    "sample_lineitem",
    "warc_extract_stats",
    "ann_topk_pq",
    "range_join_clicks",
    "streaming_seen_dedup",
    "tfidf_top_terms",
    "pack_sequences",
    "curated_by_percentile",
    "deterministic_shuffle",
    # round-4 additions (training-data cleaning family)
    "scrub_pii",
    "dedup_paragraphs",
    "repetition_metrics",
    "charlm_perplexity",
    "remove_duplicate_spans",
    "decontaminate_flags",
    # round-5 addition: incremental cross-crawl near-dup (probe-only
    # cost — the band index over the prior corpus is an ingest-time
    # artifact, prewarmed like the IVF index; compare against
    # minhash_dedup_pairs to see cost scale with the NEW crawl)
    "incremental_crossdedup",
    # round-5 session-2 additions, appended LAST so every earlier
    # entry keeps its warm-worker context (the r4→r5 forensics lesson:
    # inserting entries mid-list shifts the timings that follow)
    "gopher_quality_flags",
    "c4_filtered",
    # round-5 session-3 additions, appended LAST (same warm-worker
    # protocol): the FineWeb line rewrite and the composed WET chain
    # (rewrite → C4 → blocklist → Gopher → PII in ONE streaming pass)
    "fineweb_rewritten",
    "wet_clean_chain",
    # round-5 session-4 addition, appended LAST (same warm-worker
    # protocol): SemDeDup over the prewarmed 16-list index — timed
    # cost is the per-cluster greedy passes, not the k-means (an
    # ingest artifact shared with the ANN queries)
    "semdedup_kept",
    # round-5 session-4 addition, appended LAST (same warm-worker
    # protocol): trained-BPE token counting (merge table prewarmed —
    # the sample-bounded fit is a one-time cost like the char-LM;
    # timed cost is the broadcast-merges streaming encode pass)
    "bpe_token_count",
    # round-5 session-4 addition, appended LAST (same warm-worker
    # protocol): canonical-URL keep-latest dedup over the cached pages
    # corpus (headline input, synthesized before run_queries) — times
    # canonicalization + the two narrow grouped passes + payload joins
    "url_dedup_pages",
    # round-5 session-4 addition, appended LAST (same warm-worker
    # protocol): DSIR importance resampling (fit + score + Gumbel
    # top-k). fingerprint_md5 keeps its original slot above but now
    # resolves via _extra_timed (it ceded its driver-surface slot to
    # dsir_select).
    "dsir_select",
    # round-5 session-5 addition, appended LAST (same warm-worker
    # protocol): CC license scan over the deterministic license-page
    # corpus — the binary-safe RE2 raw-bytes annotator shape
    "license_counts",
    # round-5 session-5 addition, appended LAST: perceptual image
    # near-dup pairs over the synthetic media corpus (decode-once
    # hashing in the actor pool + pigeonhole chunk self-join)
    "image_near_dups",
    # round-5 session-6 additions, appended LAST (same warm-worker
    # protocol): per-paragraph language segmentation summary (the
    # mixed-language rollup pass), token-budget mixture sampling
    # (histogram + boundary-bucket + gate, three narrow passes), and
    # source-reputation curation (two grouped combiners + the
    # broadcast group-level gate)
    "lang_seg_summary",
    "budget_sample",
    "curated_by_source",
    # round-5 session-6, appended LAST: pages → link harvest → host
    # graph → 5 integer PageRank iterations (one edges pass + one
    # node-sized rollup per iteration; ranks broadcast via ray.put)
    "pagerank_pages",
    # round-5 session-6, appended LAST: BM25 sparse retrieval (stats
    # + query-vocab df pass, then the scoring pass with per-batch
    # top-k combiners)
    "bm25_topk",
    # round-5 session-6, appended LAST: the per-lang data card (one
    # combiner pass + one (lang, fp) distinct shuffle)
    "corpus_datacard",
    # round-5 session-7 additions, appended LAST (same warm-worker
    # protocol): header-only media triage over the synthetic media
    # corpus incl. the never-decoded mp4/mp3 rows (the new oracle-
    # bearing driver entry), and inbound-anchor-text aggregation over
    # the synthetic pages corpus (harvest combiner + one grouped sum +
    # the per-host top-1 reduce)
    "media_probe",
    "host_top_anchor",
    # round-5 session-7, appended LAST: directional containment join
    # (probe-prefix × full-index, one-sided length filter) — read
    # against ngram_jaccard_pairs_exact for the asymmetric-index cost
    "containment_pairs",
]


def _extra_timed() -> dict:
    """Operators timed for round-over-round continuity but no longer on
    the driver surface (consolidated out of queries() to fit the
    50-entry CORRECTNESS cap — they stay implemented + pytest-pinned)."""
    from nidaba_ray.functions import (ann, bpe, dedup, lm, pack, scrub,
                                      semdedup, textops)
    from nidaba_ray.pipelines import curate
    from nidaba_ray.relational import windows as win
    from nidaba_ray.sources import warc

    def decontaminate_flags(sf_dir: str):
        """Benchmark decontamination with a deterministic stand-in
        eval set (the first 8 corpus docs) — times the broadcast +
        corpus-scan shape with realistic hit patterns."""
        import pyarrow.parquet as pq

        bench = pq.read_table(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
            filters=[("doc_id", "<", 8)],
        )["text"].to_pylist()
        return dedup.decontaminate_flags(sf_dir, bench)

    def incremental_crossdedup(sf_dir: str):
        """Probe a small synthetic NEW crawl (2% of the corpus
        recrawled with one token appended + fresh uniques, disjoint
        ids) against the prior corpus's prewarmed band index — the
        recurring re-crawl dedup; the timed cost is one pass over the
        NEW data plus pairs-sized verification."""
        from nidaba_ray.functions.crossdedup import incremental_minhash_pairs

        return incremental_minhash_pairs(_new_crawl_dir(sf_dir), sf_dir)

    def streaming_seen_dedup(sf_dir: str):
        """Streaming crawl shards through the sharded seen-index
        (exact first-arrival dedup); returns the admitted count as a
        one-row table so the timing covers the full filter."""
        import pyarrow as pa

        from nidaba_ray.sources.crawl import read_crawl
        from nidaba_ray.state.seen import admit_first_arrival, seen_index

        shards = seen_index(4)
        n = admit_first_arrival(
            read_crawl(n_shards=16, pages_per_shard=256), shards, "text"
        ).count()
        return pa.table({"n_admitted": pa.array([n], pa.int64())})

    return {
        "warc_extract_stats": warc.warc_extract_stats,
        "ann_topk_pq": ann.ann_topk_pq,
        "tfidf_top_terms": textops.tfidf_top_terms,
        "deterministic_shuffle": textops.deterministic_shuffle,
        "pack_sequences": pack.pack_sequences,
        "curated_by_percentile": curate.curated_by_percentile,
        "range_join_clicks": win.range_join_clicks_before_purchase,
        "streaming_seen_dedup": streaming_seen_dedup,
        "ann_topk_ivfpq_partitioned": ann.ann_topk_ivfpq_partitioned,
        "ann_topk_lsh": ann.ann_topk_lsh,
        "event_value_quantiles_sketch": win.event_value_quantiles_sketch,
        # round-4 cleaning family (test-level DuckDB oracles in
        # tests/test_scrub_paradedup.py / test_charlm.py)
        "scrub_pii": scrub.scrub_pii,
        "dedup_paragraphs": dedup.dedup_paragraphs,
        "repetition_metrics": textops.repetition_metrics,
        "charlm_perplexity": lm.charlm_perplexity,
        "remove_duplicate_spans": dedup.remove_duplicate_spans,
        "decontaminate_flags": decontaminate_flags,
        "incremental_crossdedup": incremental_crossdedup,
        # round-5 session-2 cleaning family (DuckDB parity in
        # tests/test_gopher.py; c4_filtered keeps 0 rows on the
        # punctuation-free synthetic corpus — the timing covers the
        # full scan + line-rule kernel regardless)
        "gopher_quality_flags": textops.gopher_quality_flags,
        "c4_filtered": textops.c4_filtered,
        # round-5 session-4: off-surface since dsir_select took its
        # driver slot; timed in place for round-over-round continuity
        "fingerprint_md5": textops.fingerprint_md5,
        "fineweb_rewritten": textops.fineweb_rewritten,
        "wet_clean_chain": _wet_clean_chain,
        # round-5 session-4: SemDeDup at the permissive threshold the
        # tests pin (the synthetic embeddings are near-uniform, so the
        # production 0.95 would do no within-cluster work)
        "semdedup_kept": lambda sf: semdedup.semdedup_kept(sf, threshold=0.25),
        "bpe_token_count": bpe.bpe_token_count,
        "url_dedup_pages": _url_dedup_pages,
        # round-5 session-5: license scan over the deterministic
        # license-page corpus (binary-safe RE2, zero decode — times
        # the raw-bytes annotator shape; generator-replay oracle in
        # tests/test_license.py)
        "license_counts": _license_counts,
        "image_near_dups": _image_near_dups,
        # round-5 session-6: langseg / budget / reputation (DuckDB
        # parity in tests/test_langseg.py, test_sampling.py,
        # test_reputation.py)
        "lang_seg_summary": _lang_seg_summary,
        "budget_sample": curate.budget_sample,
        "curated_by_source": curate.curated_by_source,
        "pagerank_pages": _pagerank_pages,
        "bm25_topk": _bm25_topk,
        "corpus_datacard": _corpus_datacard,
        "host_top_anchor": _host_top_anchor,
        "containment_pairs": _containment_pairs,
    }


def _corpus_datacard(sf_dir: str):
    from nidaba_ray.pipelines.report import corpus_datacard

    return corpus_datacard(sf_dir)


def _bm25_topk(sf_dir: str):
    from nidaba_ray.functions.bm25 import bm25_topk

    return bm25_topk(sf_dir)


def _pagerank_pages(sf_dir: str):
    from nidaba_ray.functions.pagerank import pagerank_pages

    return pagerank_pages(sf_dir)


def _host_top_anchor(sf_dir: str):
    from nidaba_ray.functions.linkgraph import top_anchor_per_host
    from nidaba_ray.synth import pages_dataset_from_documents

    return top_anchor_per_host(pages_dataset_from_documents(sf_dir))


def _containment_pairs(sf_dir: str):
    from nidaba_ray.functions.dedup import ngram_containment_pairs

    return ngram_containment_pairs(sf_dir, threshold=0.8)


def _lang_seg_summary(sf_dir: str):
    from nidaba_ray.functions.langseg import lang_seg_summary

    return lang_seg_summary(sf_dir)


def _image_near_dups(sf_dir: str):
    from nidaba_ray.functions.imagededup import image_near_dup_pairs
    from nidaba_ray.pipelines.media import media_dataset

    return image_near_dup_pairs(media_dataset(sf_dir))


def _license_counts(sf_dir: str):
    from nidaba_ray.functions.license import license_counts

    return license_counts(sf_dir)


def _url_dedup_pages(sf_dir: str):
    """Canonical-URL keep-latest dedup over the cached headline pages
    corpus (url/warc_ts/html columns — the payload-carry shape); the
    synthetic urls are distinct, so the timing covers the full canon +
    grouped-max/min + join path at zero-duplicate selectivity."""
    import ray.data as rd

    from nidaba_ray.functions.urls import url_dedup_latest

    pages = rd.read_parquet(pages_cache_dir(),
                            columns=["url", "warc_ts", "html"])
    return url_dedup_latest(pages)


def _wet_clean_chain(sf_dir: str):
    """The composed examples/training_data_clean.yaml spec over the
    documents table — five cleaning stages fused into one streaming
    map_batches chain, timed end-to-end."""
    import ray.data as rd

    from nidaba_ray.stages import registry

    spec = registry.load_spec(
        os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "examples", "training_data_clean.yaml"))
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return registry.compile_pipeline(ds, spec)


def _new_crawl_dir(sf_dir: str) -> str:
    """Deterministic synthetic NEW crawl derived from the corpus (2%
    recrawled near-dups + fresh uniques, ids offset past the corpus),
    cached under /tmp alongside the pages cache."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    tag = sf_dir.strip("/").replace("/", "_")
    out = f"/tmp/nidaba_ray_bench/newcrawl_{tag}"
    done = os.path.join(out, "_DONE")
    if os.path.exists(done):
        return out
    os.makedirs(out, exist_ok=True)
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])
    ids = t["doc_id"].to_pylist()
    texts = t["text"].to_pylist()
    base = max(ids) + 1
    rows_id, rows_txt = [], []
    for j, k in enumerate(range(0, len(ids), 50)):  # every 50th ≈ 2%
        rows_id.append(base + j)
        rows_txt.append(texts[k] + " recrawled")
    for j in range(len(rows_id) // 4 + 1):
        rows_id.append(base + 1_000_000 + j)
        rows_txt.append(" ".join(f"bench{j}w{k}" for k in range(60)))
    pq.write_table(
        pa.table({"doc_id": pa.array(rows_id, pa.int64()),
                  "text": pa.array(rows_txt, pa.string())}),
        os.path.join(out, "documents.parquet"),
    )
    with open(done, "w") as f:
        f.write("ok")
    return out


def _prewarm() -> None:
    """Build persistent caches OUTSIDE the timed region so the tracked
    numbers are the warm query paths (round-3 verdict item 8): the
    IVF/IVFPQ partitioned index build is a one-time INGEST cost, not a
    query cost. (The minhash pair-list memo needs no explicit warm —
    minhash_dedup_pairs runs before the curated_* entries in
    TIMED_QUERIES and populates the in-process memo.)"""
    from nidaba_ray.functions import ann, bpe, crossdedup, lm

    ann._resolve_ivf_index(SF_DIR, 16)
    ann._resolve_ivf_index(SF_DIR, 16, pq_params=(8, 16))
    # LM fit is a bounded-sample one-time cost (memoized per corpus);
    # the tracked charlm_perplexity number is the warm scoring path
    lm.train_charlm(SF_DIR)
    # BPE merge-table fit: same bounded-sample one-time-cost contract
    bpe.train_bpe(SF_DIR)
    # prior-corpus band index (cross-crawl dedup's ingest artifact)
    crossdedup._resolve_band_index(SF_DIR)
    _new_crawl_dir(SF_DIR)


def pages_cache_dir() -> str:
    tag = SF_DIR.strip("/").replace("/", "_")
    return f"/tmp/nidaba_ray_bench/pages_{tag}_x{AMPLIFY}"


def ensure_pages(cpus: int) -> str:
    """Synthesize the amplified pages corpus once (distributed) and
    cache it; reruns at other parallelism levels reuse the same bytes."""
    out = pages_cache_dir()
    done = os.path.join(out, "_SYNTH_DONE")
    if os.path.exists(done):
        return out
    import pyarrow as pa
    import ray.data as rd

    from nidaba_ray.synth import pages_batch_from_documents

    docs = rd.read_parquet(
        f"{SF_DIR}/documents.parquet",
        columns=["doc_id", "text", "lang"],
        override_num_blocks=cpus * 2,
    )

    def amplify(batch: pa.Table) -> pa.Table:
        tables = []
        for r in range(AMPLIFY):
            t = batch.set_column(
                batch.schema.get_field_index("doc_id"),
                "doc_id",
                pa.array([d + r * 10_000_000 for d in batch["doc_id"].to_pylist()],
                         pa.int64()),
            )
            tables.append(pages_batch_from_documents(t))
        return pa.concat_tables(tables)

    pages = docs.map_batches(amplify, batch_format="pyarrow", batch_size=256)
    pages.write_parquet(out)
    with open(done, "w") as f:
        f.write("ok")
    return out


def run_headline(cpus: int) -> dict:
    import ray
    import ray.data as rd

    from nidaba_ray.pipelines.extract import extract_pipeline

    pages_dir = ensure_pages(cpus)
    # warm the OS page cache so we measure compute+shuffle, not cold
    # IO. count() alone reads only parquet METADATA — force a real
    # byte scan so the timed run below never pays first-touch IO.
    import pyarrow as _pa

    n_rows = int(
        rd.read_parquet(pages_dir)
        .map_batches(
            lambda b: _pa.table({"n": [b.num_rows]}),
            batch_format="pyarrow",
        )
        .to_pandas()["n"]
        .sum()
    )

    out_dir = f"/tmp/nidaba_ray_bench/out_{cpus}"
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.time()
    ds = rd.read_parquet(pages_dir, override_num_blocks=cpus * 4)
    # fixed pool of cpus-2 fused actors (2 CPUs left for read/write):
    # measured 22% faster than autoscaling (1,cpus) — the ramp never
    # reaches full width within the job; batch 256 amortizes per-batch
    # overhead without hurting heap (payloads ~1.5 kB avg here; for
    # multi-MB real pages keep batches small)
    result = extract_pipeline(
        ds,
        extract_batch_size=256,
        extract_concurrency=max(2, cpus - 2),
    )
    result.write_parquet(out_dir, min_rows_per_file=max(1000, n_rows // (cpus * 2)))
    wall = time.time() - t0
    return {"sec": wall, "rows": n_rows, "docs_per_sec": round(n_rows / wall, 1)}


def run_queries() -> dict[str, float]:
    import __ray_entry__ as em

    qs = em.queries()
    qs.update(_extra_timed())
    _prewarm()
    out = {}
    for name in TIMED_QUERIES:
        t0 = time.time()
        r = qs[name](SF_DIR)
        if hasattr(r, "to_pandas"):
            r.to_pandas() if not hasattr(r, "materialize") else r.materialize()
        out[name] = round(time.time() - t0, 3)
    return out


def main() -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False

    head = run_headline(NUM_CPUS)
    queries = run_queries() if os.environ.get("GRAFT_SKIP_QUERIES") != "1" else {}
    ray.shutdown()
    print(
        json.dumps(
            {
                "metric": "e2e_extract_sec",
                "value": round(head["sec"], 3),
                "unit": "sec",
                "queries": queries,
                "sf": SF_DIR,
                "num_cpus": NUM_CPUS,
                "rows": head["rows"],
                "docs_per_sec": head["docs_per_sec"],
            }
        )
    )


def scaling() -> None:
    """Fresh-process runs at 8 and 32 CPUs on the same cached input.

    Each level runs TWICE and keeps the faster wall time: single runs
    at 32 CPUs carry ±2-3 s of actor-spawn/OS noise on a ~15 s job,
    enough to swing the ratio by ±0.15; min-of-2 is the standard
    low-noise wall-clock estimator. The scaling corpus is 4× the
    default headline corpus (800k pages) so fixed overheads are a
    smaller fraction of both legs; a spin calibration separates the
    single-socket hardware ceiling from software efficiency."""

    def run(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_SKIP_QUERIES="1",
            GRAFT_AMPLIFY=str(max(AMPLIFY, 160)),
        )
        best = None
        for _ in range(2):
            out = subprocess.run(
                [sys.executable, os.path.join(os.path.dirname(__file__), "bench.py")],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            r = json.loads(out.strip().splitlines()[-1])
            if best is None or r["value"] < best["value"]:
                best = r
        return best

    def hw_ceiling(lo: int, hi: int) -> float:
        """Single-node confound: all-core turbo + shared memory
        bandwidth slow EVERY core when all 32 are busy — measured with
        a pure-python spin loop, no Ray. The ratio of per-task times
        is the ceiling no software can exceed when scaling lo→hi busy
        cores on ONE socket. (The north_rule's N→4N criterion is
        across NODES, where per-node clock and bandwidth are constant;
        this calibration separates the hardware effect from software
        efficiency in the sandbox measurement.)"""
        import multiprocessing as mp

        def spin(q):
            t0 = time.time()
            x = 0
            for i in range(20_000_000):
                x += i & 7
            q.put(time.time() - t0)

        means = {}
        for n in (lo, hi):
            q = mp.Queue()
            ps = [mp.Process(target=spin, args=(q,)) for _ in range(n)]
            [p.start() for p in ps]
            [p.join() for p in ps]
            means[n] = sum(q.get() for _ in range(n)) / n
        return round(means[lo] / means[hi], 3)

    lo, hi = 8, 32
    r_lo = run(lo)
    r_hi = run(hi)
    ceiling = hw_ceiling(lo, hi)
    eff = (r_lo["value"] / r_hi["value"]) / (hi / lo)
    # determinism across parallelism levels: byte-identity of the two
    # outputs is part of the protocol (BASELINE.md)
    import duckdb

    mism = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('/tmp/nidaba_ray_bench/out_{lo}/*.parquet') a "
        f"JOIN read_parquet('/tmp/nidaba_ray_bench/out_{hi}/*.parquet') b USING (doc_id) "
        f"WHERE a.text IS DISTINCT FROM b.text"
    ).fetchone()[0]
    print(
        json.dumps(
            {
                "metric": "scaling_efficiency",
                "value": round(eff, 3),
                "unit": "ratio",
                "sec_8": r_lo["value"],
                "sec_32": r_hi["value"],
                "docs_per_sec_8": r_lo["docs_per_sec"],
                "docs_per_sec_32": r_hi["docs_per_sec"],
                "rows": r_hi["rows"],
                "output_text_mismatches": mism,
                "hw_ceiling_8_32": ceiling,
                "sw_efficiency": round(min(1.0, eff / ceiling), 3),
                "sf": SF_DIR,
            }
        )
    )


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    else:
        main()
