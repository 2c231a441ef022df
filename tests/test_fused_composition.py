"""FusedExtract is the registry chain in one call: the flagship actor
(``FusedExtract``) and the three registry stages that example specs
compose (``extract.candidates`` → ``merge.threshold_vote`` →
``postprocess.spell``) must produce equal tables, column for column,
with and without the spell step. No Ray: both sides run in process."""

from __future__ import annotations

import gzip

import pyarrow as pa
import pytest

from nidaba_ray import realpages, synth
from nidaba_ray.pipelines.extract import FusedExtract
from nidaba_ray.stages.extract import ExtractCandidates
from nidaba_ray.stages.merge import threshold_and_vote
from nidaba_ray.stages.spell import SpellFilter


def _dialect_pages() -> pa.Table:
    """gzip HTML, plain/Flate/object-stream/UTF-16 PDF and DOCX pages
    over the synth slice's texts, plus one payload of each quarantine
    path (corrupt gzip, empty PDF, empty DOCX)."""
    src = synth.pages_table(n=36, dup_frac=0.0)
    builders = (
        lambda d, t, l: gzip.compress(synth.make_html(d, t, l), mtime=0),
        lambda d, t, l: synth.make_pdf(d, t),
        lambda d, t, l: synth.make_pdf_flate(d, t),
        lambda d, t, l: synth.make_pdf_objstm(d, t),
        lambda d, t, l: synth.make_pdf_utf16(d, t),
        lambda d, t, l: synth.make_docx(d, t),
    )
    payloads = [
        builders[i % len(builders)](d, t, l)
        for i, (d, t, l) in enumerate(zip(src["doc_id"].to_pylist(),
                                          src["golden"].to_pylist(),
                                          src["lang"].to_pylist()))
    ]
    payloads[-3:] = [b"\x1f\x8b\x08\x00corrupt", b"%PDF-1.4\n%%EOF\n",
                     synth.make_docx(0, "")]
    return src.drop_columns(["golden"]).set_column(
        src.schema.get_field_index("html"), "html",
        pa.array(payloads, pa.binary()))


PAGES = {
    "fixtures": realpages.fixture_pages_table,
    "synth": lambda: synth.pages_table(n=300),
    "dialects": _dialect_pages,
}


@pytest.mark.parametrize("name", sorted(PAGES))
def test_fused_equals_registry_chain(name):
    pages = PAGES[name]()
    fused = FusedExtract()(pages)
    staged = SpellFilter()(threshold_and_vote(ExtractCandidates()(pages)))
    assert fused.schema == staged.schema
    for col in staged.column_names:
        assert fused[col].equals(staged[col]), col


@pytest.mark.parametrize("name", sorted(PAGES))
def test_fused_without_spell_equals_extract_and_vote(name):
    pages = PAGES[name]()
    fused = FusedExtract(spell=False)(pages)
    staged = threshold_and_vote(ExtractCandidates()(pages))
    assert fused.schema == staged.schema
    for col in staged.column_names:
        assert fused[col].equals(staged[col]), col


def test_dialect_slice_reaches_every_path():
    """The dialect pages exercise what they claim: gzip, PDF and DOCX
    extraction, and a quarantine on each of those paths."""
    out = FusedExtract()(_dialect_pages())
    kinds = set(out["payload_kind"].to_pylist())
    assert {"html", "pdf", "docx"} <= kinds
    errors = [e for e in out["error"].to_pylist() if e]
    assert sorted(errors) == ["docx: no visible text", "gzip: corrupt stream",
                              "pdf: no text operators found"]
