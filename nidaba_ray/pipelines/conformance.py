"""Extraction-pipeline conformance queries.

The synthetic pages table wraps ``documents.text`` in boilerplate
HTML / PDF payloads (nidaba_ray.synth), so a correct extraction is an
*identity* on ``documents.text`` — which makes the whole flagship
pipeline (parse → segment → score → threshold → align/vote →
serialize) checkable against a trivial DuckDB oracle. Payload kinds
are keyed on doc_id (synth.payload_kind): %97==13 invalid (quarantine),
%29==7 PDF, else HTML.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data as rd

from nidaba_ray.pipelines.extract import extract_pipeline
from nidaba_ray.synth import pages_dataset_from_documents


def _project_identity(batch: pa.Table) -> pa.Table:
    """Non-quarantined (doc_id, text) rows — the identity-gate
    projection shared by every extraction-dialect query."""
    import pyarrow.compute as pc

    b = batch.filter(pc.equal(batch["error"], ""))
    return b.select(["doc_id", "text"])


def _projected(sf_dir: str, project=_project_identity, spell: bool = False,
               **variant: str) -> rd.Dataset:
    """The synthetic pages (in the payload ``variant`` given, as
    ``pages_dataset_from_documents`` takes it) through the flagship
    pipeline, each batch through ``project``."""
    pages = pages_dataset_from_documents(sf_dir, **variant)
    return extract_pipeline(pages, spell=spell).map_batches(
        project, batch_format="pyarrow")


# Byte-identity gates: extraction must return documents.text exactly
# (EXTRACT_SQL) with the dialect-slot docs in each payload dialect.
# pdf4-6, docx and epub are off the 50-entry driver surface and pinned
# in tests/test_oracle_conformance.py.

def extract_documents(sf_dir: str) -> rd.Dataset:
    """HTML pages with plain ``(..) Tj`` PDFs in the PDF slot."""
    return _projected(sf_dir)


EXTRACT_SQL = "SELECT doc_id, text FROM documents WHERE doc_id % 97 <> 13"


def extract_documents_pdf2(sf_dir: str) -> rd.Dataset:
    """FlateDecode streams, TJ arrays and Td/T*/' line operators
    (synth.make_pdf_flate)."""
    return _projected(sf_dir, pdf_variant="flate")


def extract_documents_pdf3(sf_dir: str) -> rd.Dataset:
    """2-byte codes through a ToUnicode CMap (bfchar and both bfrange
    forms) plus BOM'd UTF-16BE strings (synth.make_pdf_utf16)."""
    return _projected(sf_dir, pdf_variant="utf16")


def extract_documents_pdf4(sf_dir: str) -> rd.Dataset:
    """RC4 under the standard security handler, V2/R3 128-bit, empty
    user password (synth.make_pdf_rc4)."""
    return _projected(sf_dir, pdf_variant="rc4")


def extract_documents_pdf5(sf_dir: str) -> rd.Dataset:
    """AES-128-CBC through a /V 4 /AESV2 crypt filter, sAlT object keys
    and IV-prefixed streams (synth.make_pdf_aes)."""
    return _projected(sf_dir, pdf_variant="aes")


def extract_documents_pdf6(sf_dir: str) -> rd.Dataset:
    """AES-256 /V 5 /AESV3 with the R5 single-SHA-256 KDF
    (synth.make_pdf_aes256 rev=5; R6's ~1 s/doc hash has a unit test)."""
    return _projected(sf_dir, pdf_variant="aes256r5")


def extract_documents_docx(sf_dir: str) -> rd.Dataset:
    """DOCX zip containers with space-preserving runs (synth.make_docx,
    stages/office.py)."""
    return _projected(sf_dir, pdf_variant="docx")


def extract_documents_epub(sf_dir: str) -> rd.Dataset:
    """Multi-chapter EPUB whose chrome-wrapped chapters go through the
    HTML segment and score chain (synth.make_epub)."""
    return _projected(sf_dir, pdf_variant="epub")


def extract_documents_gzip(sf_dir: str) -> rd.Dataset:
    """Per-record gzipped HTML, the CC WARC convention (the inflate
    sniff in ``extract_row``)."""
    return _projected(sf_dir, html_variant="gzip")


def extract_stats(sf_dir: str) -> pa.Table:
    """Per-lang corpus stats of the extraction output (counts must
    match the oracle computed from the source texts)."""
    import pandas as pd

    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = batch.filter(pc.equal(batch["error"], ""))
        df = pa.table({"lang": b["lang"], "n_tokens": b["n_tokens"]}).to_pandas()
        g = df.groupby("lang", as_index=False).agg(
            n_docs=("n_tokens", "size"), total_tokens=("n_tokens", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (
        _projected(sf_dir, partial, spell=True)
        # tiny per-batch partials → one merge block (no empty reduce
        # partitions; see queries.q1_pricing_summary)
        .repartition(1)
        .groupby("lang")
        .aggregate(Sum("n_docs", alias_name="n_docs"),
                   Sum("total_tokens", alias_name="total_tokens"))
        .to_pandas()
    )
    out["n_docs"] = out["n_docs"].astype("int64")
    out["total_tokens"] = out["total_tokens"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


EXTRACT_STATS_SQL = """
SELECT lang, COUNT(*) AS n_docs,
       CAST(SUM(LEN(STRING_SPLIT(text, ' '))) AS BIGINT) AS total_tokens
FROM documents WHERE doc_id % 97 <> 13
GROUP BY lang
"""


def extract_quarantine(sf_dir: str) -> rd.Dataset:
    """Quarantined doc ids (undecodable payloads) — per-row error
    isolation must catch exactly the corrupted rows, no more."""

    def project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = batch.filter(pc.invert(pc.equal(batch["error"], "")))
        return b.select(["doc_id"])

    return _projected(sf_dir, project)


EXTRACT_QUARANTINE_SQL = "SELECT doc_id FROM documents WHERE doc_id % 97 = 13"
