"""Driver contract for the nidaba_ray engine.

``entry()`` runs the flagship extraction pipeline on sf0.001;
``queries()`` exposes every implemented operator from SURVEY.md §2
(plus the training-data ops); ``oracle_sql()`` gives the DuckDB
equivalent for EVERY query (50 of 50 — round 5 promoted the flagship
fixture goldens, the block-quality logistic, the fixed-point-trained
partitioned IVF, the streaming-source stats, and finally the media
family: ``media_probe`` rolls up header-only container metadata whose
every field is integer arithmetic in the generating doc_id, so the
whole rollup replays in SQL — the generator-replay idiom. The decode-
feature variant ``media_features`` stays implemented with
reference-vector pytest pins; pixel/sample features read lossy decoder
output and remain non-SQL-expressible, which is why the PROBE is the
driver entry).

Ray is initialised by the driver BEFORE this module is imported: no
``ray.init`` / ``ray.shutdown`` here or anywhere in nidaba_ray.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: synthesize CC-style
    pages from the documents table (distributed map_batches), run
    extract → threshold/vote → spell-annotate, return the Dataset."""
    from nidaba_ray.pipelines.extract import extract_pipeline
    from nidaba_ray.synth import pages_dataset_from_documents

    pages = pages_dataset_from_documents("/root/testdata/sf0.001")
    return extract_pipeline(pages)


def queries() -> dict[str, Callable[[str], Any]]:
    """Exactly 50 entries (the driver's CORRECTNESS artifact caps at
    50 — round-2 verdict item 1), ordered oracle-bearing first so every
    oracle row is inside the checked window. Each operator has ONE
    implementation. These live operators are NOT listed here; each is
    pinned in pytest. Names are relative to the nidaba_ray package,
    and tests/test_module_audit.py resolves every double-backticked
    one:

      * ``functions.ann.kmeans_embeddings`` (float Lloyd k-means,
        convergence + monotonicity pinned; its trainer is not shared —
        the IVF build trains with the fixed-point Lloyd its SQL oracle
        replays)
      * ``functions.textops.gopher_quality_flags`` (full Rae-2021
        gate; 6 document rules DuckDB-parity-tested in
        tests/test_gopher.py, the repetition flag pinned on crafted
        docs)
      * ``functions.textops.c4_filtered`` and the clean.c4 registry
        stage (line-rule rewrite, byte-exact DuckDB parity over a
        survivor-bearing corpus; the synthetic corpus itself has no
        terminal punctuation so the driver-side result would be
        empty — pytest covers both facts)
      * the clean.gopher / clean.c4 registry cleaning stages and the
        composed WET-style spec examples/training_data_clean.yaml
        (runner-tested)
      * ``functions.textops.fineweb_quality_flags`` and the
        clean.fineweb stage (the three published FineWeb gates; full
        DuckDB parity in tests/test_gopher.py)
      * ``pipelines.curate.mixture_sample`` /
        ``pipelines.curate.stratified_sample`` (deterministic
        md5-keyed training-mixture construction; DuckDB parity +
        layout invariance in tests/test_sampling.py)
      * ``functions.textops.fingerprint_md5`` (trivial SELECT
        md5(text) — ceded its surface slot to dsir_select in round 5;
        SQL parity stays pinned in tests/test_dsir.py and the timing
        stays in bench.py)
      * ``functions.urls.url_canonicalize`` /
        ``functions.urls.url_dedup_latest`` (canonical-URL re-crawl
        keep-latest dedup over pages tables; Python kernel ≡ one
        DuckDB scalar expression byte-for-byte and the dedup ≡ a
        windowed SQL replay in tests/test_urls.py; bench-timed — the
        driver's sf tables have no url column, so the pages-level op
        stays off the 50-entry surface)
    """
    from nidaba_ray import realpages
    from nidaba_ray.functions import ann, dedup, dsir, textops
    from nidaba_ray.pipelines import conformance, curate, media
    from nidaba_ray.relational import queries as rel
    from nidaba_ray.relational import windows as win
    from nidaba_ray.sources import crawl
    from nidaba_ray.stages import quality

    return {
        # ===== oracle-bearing (45) — every key below has an
        # oracle_sql() entry and gets the full rows+schema+hash check
        # --- relational operators over the TPC-H-ish tables (§2.4-2.7)
        "q1_pricing_summary": rel.q1_pricing_summary,
        "filter_high_value": rel.filter_high_value,
        "join_customer_orders": rel.join_customer_orders,
        "join_lineitem_orders": rel.join_lineitem_orders,
        "q3_shipping_priority": rel.q3_shipping_priority,
        "q5_local_supplier_volume": rel.q5_local_supplier_volume,
        "topk_orders": rel.topk_orders,
        "customers_with_orders": rel.customers_with_orders,
        "customers_without_orders": rel.customers_without_orders,
        "sample_lineitem": rel.sample_lineitem,
        "parts_by_brand": rel.parts_by_brand,
        "supplier_nation_balance": rel.supplier_nation_balance,
        "distinct_segments": rel.distinct_segments,
        "union_names": rel.union_names,
        "events_hourly": rel.events_hourly,
        "latest_event_per_user": rel.latest_event_per_user,
        # --- stream-shaped window ops (§2.9)
        "event_lag": win.event_lag,
        "sessionize": win.sessionize,
        "event_value_quantiles": win.event_value_quantiles,
        "asof_click_purchase": win.asof_last_click_before_purchase,
        # --- text analysis over documents (driver instruction)
        "quality_metrics": textops.quality_metrics,
        "token_stats_per_lang": textops.token_stats_per_lang,
        "top_terms_per_lang": textops.top_terms_per_lang,
        "subword_token_count": textops.subword_token_count,
        # --- DSIR importance resampling (Xie 2023), round-5 session 4:
        #     the full fit→score→Gumbel-top-k replayed in SQL (took the
        #     slot of the trivial fingerprint_md5, now pytest-pinned)
        "dsir_select": dsir.dsir_selected,
        # --- dedup (exact + clustering) with SQL oracles
        "exact_dedup": dedup.exact_dedup,
        "dup_groups": dedup.dup_groups,
        "dup_clusters_exact_distributed": dedup.dup_clusters_exact_distributed,
        # --- similarity search baseline (exact cosine top-k)
        "ann_topk": ann.ann_topk_bruteforce,
        # --- flagship extraction pipeline (byte-identity gate)
        "extract_documents": conformance.extract_documents,
        "extract_documents_pdf2": conformance.extract_documents_pdf2,
        "extract_documents_pdf3": conformance.extract_documents_pdf3,
        "extract_documents_gzip": conformance.extract_documents_gzip,
        "extract_stats": conformance.extract_stats,
        "extract_quarantine": conformance.extract_quarantine,
        # --- composed curation pipeline (gate + dedup, oracle-checked)
        "curated_corpus": curate.curated_corpus,
        "curation_stats": curate.curation_stats,
        # --- near-dup family, promoted to full oracles in round 4:
        #     the LSH candidate generation (permutation constants, band
        #     tuples, pigeonhole chunks) is replayed exactly in SQL
        "minhash_dedup_pairs": dedup.minhash_dedup_pairs,
        "simhash_dup_pairs": dedup.simhash_dup_pairs,
        "ngram_jaccard_pairs_exact": dedup.ngram_jaccard_pairs_exact,
        "dup_clusters_distributed": dedup.dup_clusters_distributed,
        "doc_winnow": textops.doc_winnow,
        # --- Cavnar-Trenkle lang-ID, promoted round 4: profiles
        #     inlined into the SQL as VALUES
        "lang_id": textops.lang_id,
        # --- LSH embedding near-dup, promoted round 4 at a permissive
        #     threshold (the synthetic corpus has no 0.95-near-dups, so
        #     the production default would be a vacuous 0-row check)
        "embedding_near_dup_scalable": ann.embedding_near_dup_driver,
        # --- HLL distinct sketch, promoted round 4: the oracle replays
        #     the md5-deterministic sketch itself in SQL
        "hll_distinct_users": win.hll_distinct_users,
        # --- hand-labelled realistic page shapes, promoted round 5:
        #     all frozen expected-text md5s (len(FIXTURES)) inline in the SQL
        #     as a VALUES list (corpus-independent repo constants)
        "extract_golden_real": realpages.extract_golden_real,
        # --- block-quality classifier served as an actor stage,
        #     promoted round 5: the logistic is replayed in SQL over
        #     the synth corpus's known span geometry with the trained
        #     weights inlined (accuracy pinned in test_quality_model)
        "block_quality_scores": quality.block_quality_scores,
        # --- partitioned IVF, promoted round 5: the coarse quantizer
        #     trains in FIXED-POINT (int64 grid, half-away rounding),
        #     so the Lloyd iterations unroll exactly as SQL CTE stages
        "ann_topk_ivf_partitioned": ann.ann_topk_ivf_partitioned,
        # --- streaming crawl-shard Datasource feeding the same
        #     pipeline, promoted round 5: the oracle replays the
        #     deterministic SOURCE generator (never the extractor) —
        #     expected tokens are the seeded randint draws
        "streaming_extract_stats": crawl.streaming_extract_stats,
        # --- media family, promoted round 5: header-only probe rollup
        #     (container/dims/duration over every container incl. the
        #     never-decoded mp4/mp3) — all fields are doc_id arithmetic,
        #     replayed in SQL by the generator-replay idiom. The decode-
        #     feature variant media_features stays pytest-pinned
        #     (lossy decoder output has no SQL replay) — see docstring.
        "media_probe": media.media_probe_summary,
    }


def oracle_sql() -> dict[str, str]:
    from nidaba_ray import realpages
    from nidaba_ray.functions import ann, dedup, dsir, textops
    from nidaba_ray.pipelines import conformance, curate, media
    from nidaba_ray.relational import queries as rel
    from nidaba_ray.relational import windows as win
    from nidaba_ray.sources import crawl
    from nidaba_ray.stages import quality

    return {
        "q1_pricing_summary": rel.Q1_SQL,
        "filter_high_value": rel.FILTER_SQL,
        "join_customer_orders": rel.JOIN_CUSTOMER_SQL,
        "join_lineitem_orders": rel.JOIN_LARGE_SQL,
        "q3_shipping_priority": rel.Q3_SQL,
        "q5_local_supplier_volume": rel.Q5_SQL,
        "topk_orders": rel.TOPK_SQL,
        "customers_with_orders": rel.SEMI_JOIN_SQL,
        "customers_without_orders": rel.ANTI_JOIN_SQL,
        "sample_lineitem": rel.SAMPLE_SQL,
        "parts_by_brand": rel.PARTS_SQL,
        "supplier_nation_balance": rel.SUPPLIER_NATION_SQL,
        "distinct_segments": rel.DISTINCT_SQL,
        "union_names": rel.UNION_SQL,
        "events_hourly": rel.EVENTS_HOURLY_SQL,
        "latest_event_per_user": rel.LATEST_EVENT_SQL,
        "event_lag": win.EVENT_LAG_SQL,
        "sessionize": win.SESSIONIZE_SQL,
        "asof_click_purchase": win.ASOF_SQL,
        "event_value_quantiles": win.EVENT_QUANTILES_SQL,
        "quality_metrics": textops.QUALITY_SQL,
        "token_stats_per_lang": textops.TOKEN_STATS_SQL,
        "top_terms_per_lang": textops.TOP_TERMS_SQL,
        "subword_token_count": textops.SUBWORD_SQL,
        "dsir_select": dsir.dsir_sql(),
        "exact_dedup": dedup.EXACT_DEDUP_SQL,
        "dup_groups": dedup.DUP_GROUPS_SQL,
        "dup_clusters_exact_distributed": dedup.DUP_CLUSTERS_EXACT_SQL,
        "ann_topk": ann.ann_topk_sql(),
        "extract_documents": conformance.EXTRACT_SQL,
        "extract_documents_pdf2": conformance.EXTRACT_SQL,
        "extract_documents_pdf3": conformance.EXTRACT_SQL,
        "extract_documents_gzip": conformance.EXTRACT_SQL,
        "extract_stats": conformance.EXTRACT_STATS_SQL,
        "extract_quarantine": conformance.EXTRACT_QUARANTINE_SQL,
        "curated_corpus": curate.CURATED_SQL,
        "curation_stats": curate.CURATION_STATS_SQL,
        "minhash_dedup_pairs": dedup.minhash_pairs_sql(),
        "simhash_dup_pairs": dedup.SIMHASH_PAIRS_SQL,
        "ngram_jaccard_pairs_exact": dedup.ngram_jaccard_exact_sql(),
        "dup_clusters_distributed": dedup.dup_clusters_distributed_sql(),
        "doc_winnow": textops.WINNOW_SQL,
        "lang_id": textops.lang_id_sql(),
        "embedding_near_dup_scalable": ann.embedding_near_dup_sql(),
        "hll_distinct_users": win.hll_distinct_users_sql(),
        "extract_golden_real": realpages.golden_real_sql(),
        "block_quality_scores": quality.block_quality_sql(),
        "ann_topk_ivf_partitioned": ann.ann_ivf_sql(),
        "streaming_extract_stats": crawl.streaming_stats_sql(),
        "media_probe": media.media_probe_sql(),
    }
