"""``FusedExtract`` with its spell step equals ``FusedExtract(spell=False)``
followed by the ``postprocess.spell`` stage (``SpellFilter``), column
for column: the split that ``examples/recrawl_extract.yaml`` relies on
to repair mojibake between the vote and the spell annotation. The
threshold kernels run once per batch, so output must also not depend
on where batches split. No Ray: everything runs in process."""

from __future__ import annotations

import gzip

import pyarrow as pa
import pytest

from nidaba_ray import realpages, synth
from nidaba_ray.pipelines.extract import FusedExtract
from nidaba_ray.stages import score as scoremod
from nidaba_ray.stages.merge import vote_row
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
    staged = SpellFilter()(FusedExtract(spell=False)(pages))
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


def _batched(fn, pages: pa.Table, size: int) -> pa.Table:
    return pa.concat_tables([fn(pages.slice(i, size))
                             for i in range(0, pages.num_rows, size)])


def _assert_equal_tables(got: pa.Table, want: pa.Table, label) -> None:
    assert got.schema == want.schema, label
    for col in want.column_names:
        assert got[col].combine_chunks().equals(want[col].combine_chunks()), (label, col)


@pytest.mark.parametrize("name", sorted(PAGES))
def test_output_does_not_depend_on_batch_boundaries(name):
    pages = PAGES[name]()
    whole = FusedExtract()(pages)
    for size in (1, 7, 64):
        _assert_equal_tables(_batched(FusedExtract(), pages, size), whole, size)
    unspelled = FusedExtract(spell=False)(pages)
    for size in (1, 64):
        _assert_equal_tables(_batched(FusedExtract(spell=False), pages, size),
                             unspelled, ("unspelled", size))


def test_vote_row_runs_nlbin_only_when_a_and_b_differ(monkeypatch):
    calls = []
    keep_nlbin = scoremod.keep_nlbin

    def counting(scores):
        calls.append(len(scores))
        return keep_nlbin(scores)

    monkeypatch.setattr(scoremod, "keep_nlbin", counting)

    def spans(scores):
        return [{"text": f"block{i}", "score": s, "kind": "p"}
                for i, s in enumerate(scores)]

    # Otsu and Sauvola keep the same blocks: agree, C never computed
    *_, prov, _, _ = vote_row(spans([5.0, 300.0, 0.0, 8.0, 250.0, 0.0, 40.0]),
                              None, "html", "en")
    assert prov[-1]["variant"] == "agree" and calls == []
    # Sauvola keeps two more blocks than Otsu: C joins the vote, once
    *_, prov, _, _ = vote_row(spans([8.0, 250.0, 79.0, 24.0, 175.0, 12.0]),
                              None, "html", "en")
    assert prov[-1]["variant"] == "vote" and calls == [6]
