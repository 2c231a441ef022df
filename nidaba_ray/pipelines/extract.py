"""Flagship pipeline: Common-Crawl-style pages → canonical extracted
text + spans (the `nidaba batch` analog, SURVEY.md §3.1/§3.4).

    read_parquet(pages)
      → FusedExtract   (one actor pool; per batch: sniff + parse +
                        score → threshold variants + align/vote →
                        optional lang-keyed spell annotation)
      → write_parquet / caller-chosen sink

One ``map_batches`` stage: each payload crosses the object store once,
on its way into the pool. The same three steps stay available as
separate registry stages (``extract.candidates``,
``merge.threshold_vote``, ``postprocess.spell``) for specs that insert
their own stages between them; ``FusedExtract`` produces the same rows.
Quarantined rows (undecodable payloads) flow through with ``error``
set and empty text — filtering them into a separate sink would fork
the DAG and re-execute the read, so the quarantine *view* is a filter
over the written output instead.
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa
import ray.data as rd

from nidaba_ray.stages import merge
from nidaba_ray.stages.extract import ExtractCandidates
from nidaba_ray.stages.spell import SpellFilter

__all__ = ["extract_pipeline", "read_pages", "FusedExtract", "PAGES_COLUMNS"]


class FusedExtract(ExtractCandidates):
    """``ExtractCandidates`` → ``threshold_and_vote`` → ``SpellFilter``
    (when ``spell``) composed in one actor ``__call__`` — the physical
    plan of the flagship pipeline. Byte-capped batch slicing is
    inherited.

    Rationale (measured on the sf0.1 bench): as separate stages the
    chain was two actor pools + a fused stateless stage; with both
    pools autoscaling on one CPU budget the executor reached only ~40%
    utilization (400 s of CPU work took 31 s of wall on 32 CPUs) and
    every row crossed the object store twice. The stages are
    row-local, so composing them is semantically identical; one pool
    saturates the CPUs and each payload is touched exactly once."""

    def __init__(self, spell: bool = True) -> None:
        super().__init__()
        self._spell = SpellFilter() if spell else None

    def _process(self, batch: pa.Table) -> pa.Table:
        # span lists stay Python into the vote — the Arrow list<struct>
        # build + to_pylist round trip measured ~13% of total time
        out = merge.vote_columns(*self._extract_columns(batch))
        return self._spell(out) if self._spell else out


PAGES_COLUMNS = ["url", "warc_ts", "html", "text", "lang"]


def read_pages(path: str, with_doc_id: bool = False) -> rd.Dataset:
    """Prune at the read: only the pages columns the pipeline touches."""
    cols = (["doc_id"] if with_doc_id else []) + PAGES_COLUMNS
    return rd.read_parquet(path, columns=cols)


def extract_pipeline(
    pages: rd.Dataset,
    *,
    spell: bool = True,
    extract_batch_size: int = 64,
    extract_concurrency: Any = (1, 8),
) -> rd.Dataset:
    """pages Dataset → extracted Dataset (lazy): one ``FusedExtract``
    actor pool; ``spell=False`` leaves out the spell annotation
    columns.

    ``extract_batch_size`` is small on purpose: ``html`` is a wide
    binary column, and batch × concurrency must fit worker heaps
    (SURVEY.md §4.2).

    ``extract_concurrency`` should stay an autoscaling tuple
    ``(1, max)``: a fixed-size pool whose CPU demand plus the read
    stage exceeds the cluster CPUs livelocks the streaming executor.
    """
    return pages.map_batches(
        FusedExtract,
        fn_constructor_kwargs={"spell": spell},
        batch_format="pyarrow",
        batch_size=extract_batch_size,
        concurrency=extract_concurrency,
        num_cpus=1,
    )
