"""Flagship pipeline: Common-Crawl-style pages → canonical extracted
text + spans (the `nidaba batch` analog, SURVEY.md §3.1/§3.4).

    read_parquet(pages)
      → FusedExtract   (one actor pool; per batch: sniff + parse +
                        score → threshold variants + align/vote →
                        optional lang-keyed spell annotation)
      → write_parquet / caller-chosen sink

One ``map_batches`` stage: each payload crosses the object store once,
on its way into the pool. ``FusedExtract`` is also the one registered
extraction stage, ``extract.text``, so pipeline specs and the job
runner run the same actor with the same pool shape (``POOL``).
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
from nidaba_ray.stages.extract import extract_columns
from nidaba_ray.stages.spell import SpellFilter

__all__ = ["extract_pipeline", "read_pages", "FusedExtract", "PAGES_COLUMNS"]

# the extraction actor pool's shape, shared by extract_pipeline and the
# registry's extract.text stage. ``batch_size`` is in rows, and rows
# trade three things: each batch pays a fixed Ray cost (batcher, task
# hop, object-store put); smaller batches spread the rows more evenly
# over several actors; and Ray holds a whole bundle in the object store
# and in the actor before the call, while the call's output (~2x the
# ``html``) is held until it returns, so both grow with rows x page
# bytes. 64 rows keep a batch of multi-MB pages inside worker heaps
# (SURVEY.md §4.2). ``concurrency`` stays an autoscaling tuple
# ``(1, max)`` — a fixed-size pool whose CPU demand plus the read stage
# exceeds the cluster CPUs livelocks the streaming executor
POOL = {"batch_size": 64, "concurrency": (1, 8), "num_cpus": 1}

# extract_pipeline's rows per batch when the pool is one actor wide:
# there is no load to balance, and on one core 1024-row batches of
# ~1.5 kB pages delivered 1.3-1.4x the docs/s of 64-row ones. The
# bundle's bytes still grow with its rows: on a 256 MiB object store,
# 1024 rows of ~40 kB pages (~48 MB) stall the read ~10x, so pass a
# smaller ``extract_batch_size`` for wide pages.
SOLO_BATCH_SIZE = 1024

# The per-slice heap bound (SURVEY.md §7 hard parts): a batch above
# this many bytes is halved recursively and the slices run in turn. It
# bounds the parse's working set, not the input or the output: one
# call over 1024 ~41 kB pages (40 MB of ``html``) grows RSS by its
# 86 MB of output plus ~40 MB at this cap, plus ~300 MB at 64 MiB.
MAX_BATCH_BYTES = 8 << 20


class FusedExtract:
    """``map_batches`` actor: pages batch → extracted batch.
    ``extract_columns`` → ``merge.vote_columns`` → ``SpellFilter``
    (when ``spell``) in one ``__call__`` — the physical plan of the
    flagship pipeline and the ``extract.text`` registry stage.

    Rationale (measured on the sf0.1 bench): as separate stages the
    chain was two actor pools + a fused stateless stage; with both
    pools autoscaling on one CPU budget the executor reached only ~40%
    utilization (400 s of CPU work took 31 s of wall on 32 CPUs) and
    every row crossed the object store twice. The steps are row-local,
    so composing them is semantically identical; one pool saturates
    the CPUs and each payload is touched exactly once. Between the two
    steps the batch's blocks travel as one block table
    (``extract.ScoredBlocks``): scored, voted and turned into ``spans``
    once per batch, with no per-block Python dict."""

    def __init__(self, spell: bool = True) -> None:
        self._spell = SpellFilter() if spell else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        # the halves recurse through _extract, never through __call__:
        # map_batches runs an actor's __call__ on a one-thread executor,
        # so a re-entrant call would wait on itself forever
        return self._extract(batch)

    def _extract(self, batch: pa.Table) -> pa.Table:
        if batch.nbytes > MAX_BATCH_BYTES and batch.num_rows > 1:
            mid = batch.num_rows // 2
            return pa.concat_tables([self._extract(batch.slice(0, mid)),
                                     self._extract(batch.slice(mid))])
        out = merge.vote_columns(*extract_columns(batch))
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
    extract_batch_size: int | None = None,
    extract_concurrency: Any = POOL["concurrency"],
) -> rd.Dataset:
    """pages Dataset → extracted Dataset (lazy): one ``FusedExtract``
    actor pool; ``spell=False`` leaves out the spell annotation
    columns. ``extract_concurrency`` defaults to ``POOL``'s, and
    ``extract_batch_size`` to ``SOLO_BATCH_SIZE`` when the pool is one
    actor wide, else to ``POOL``'s; their comments say how to choose."""
    if extract_batch_size is None:
        width = (extract_concurrency[1] if isinstance(extract_concurrency, tuple)
                 else extract_concurrency)
        extract_batch_size = SOLO_BATCH_SIZE if width == 1 else POOL["batch_size"]
    return pages.map_batches(
        FusedExtract,
        fn_constructor_kwargs={"spell": spell},
        batch_format="pyarrow",
        batch_size=extract_batch_size,
        concurrency=extract_concurrency,
        num_cpus=POOL["num_cpus"],
    )
