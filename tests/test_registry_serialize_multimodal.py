"""Stage registry / pipeline-spec compiler, serializer sinks,
multimodal stages, stats op."""

import json

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nidaba_ray import synth
from nidaba_ray.stages import registry
from nidaba_ray.stages.multimodal import (
    AudioFeatures,
    ImageDecoder,
    VideoFrameSampler,
    synth_media_batch,
)
from nidaba_ray.stages.serialize import explode_spans, to_jsonl_rows


def test_registry_lists_builtin():
    names = registry.list_stages()
    assert {"extract.candidates", "merge.threshold_vote",
            "postprocess.spell", "output.jsonl", "clean.pii"} <= set(names)
    assert registry.get_stage("extract.candidates").stateful
    assert not registry.get_stage("merge.threshold_vote").stateful
    with pytest.raises(KeyError):
        registry.get_stage("nope.nope")


def test_compile_pipeline_runs(ray_session, tmp_path):
    import ray.data as rd

    t = synth.pages_table(n=40)
    pq.write_table(t.drop_columns(["golden", "doc_id"]), str(tmp_path / "p.parquet"))
    spec = [
        {"stage": "extract.candidates", "batch_size": 32, "concurrency": [1, 2]},
        {"stage": "merge.threshold_vote"},
        {"stage": "postprocess.spell", "concurrency": [1, 2]},
    ]
    ds = registry.compile_pipeline(rd.read_parquet(str(tmp_path / "p.parquet")), spec)
    df = ds.to_pandas()
    assert len(df) == 42  # 40 + dup re-crawls
    assert "oov_ratio" in df.columns


def test_load_spec_yaml(tmp_path):
    p = tmp_path / "spec.yaml"
    p.write_text(
        "pipeline:\n"
        "  - stage: extract.candidates\n"
        "    batch_size: 16\n"
        "  - stage: merge.threshold_vote\n"
    )
    spec = registry.load_spec(str(p))
    assert spec[0]["stage"] == "extract.candidates"
    bad = tmp_path / "bad.yaml"
    bad.write_text("pipeline:\n  - nostage: x\n")
    with pytest.raises(ValueError):
        registry.load_spec(str(bad))


def _extracted_batch():
    from nidaba_ray.stages.extract import ExtractCandidates
    from nidaba_ray.stages.merge import threshold_and_vote

    t = synth.pages_table(n=20).drop_columns(["golden", "doc_id"])
    return threshold_and_vote(ExtractCandidates()(t))


def test_jsonl_rows_roundtrip():
    out = to_jsonl_rows(_extracted_batch())
    recs = [json.loads(l) for l in out["json"].to_pylist()]
    assert all({"url", "lang", "spans", "provenance"} <= set(r) for r in recs)


def test_explode_spans_offsets():
    b = _extracted_batch()
    flat = explode_spans(b)
    assert flat.num_rows > 0
    texts = dict(zip(b["url"].to_pylist(), b["text"].to_pylist()))
    for row in flat.slice(0, 50).to_pylist():
        if row["start"] >= 0:
            assert texts[row["url"]][row["start"] : row["end"]] == row["text"]


def test_image_decoder_and_errors():
    t = synth_media_batch(list(range(0, 30, 3)))  # all images
    out = ImageDecoder()(t)
    ok = out.to_pylist()
    assert all(r["error"] == "" for r in ok)
    assert all(len(r["thumbnail"]) == 64 for r in ok)
    # malformed payload → quarantined row, not a crash
    bad = t.set_column(t.schema.get_field_index("payload"), "payload",
                       pa.array([b"junk"] * t.num_rows, pa.binary()))
    out2 = ImageDecoder()(bad).to_pylist()
    assert all(r["error"] != "" for r in out2)


def test_audio_features():
    t = synth_media_batch([1, 4, 7])  # audio ids (i%3==1)
    out = AudioFeatures()(t).to_pylist()
    assert all(r["error"] == "" and r["n_samples"] > 0 and r["rms"] > 0 for r in out)
    assert all(0.0 <= r["zero_crossing_rate"] <= 1.0 for r in out)
    assert all(r["spectral_centroid"] > 0 for r in out)


def test_audio_dsp_features_sine_and_dc():
    from nidaba_ray.algorithms.wav import encode_wav

    rate, f0, n = 8000, 440.0, 8000
    tgrid = np.arange(n) / rate
    sine = (np.sin(2 * np.pi * f0 * tgrid) * 30000).astype("<i2")
    dc = np.full(n, 12000, dtype="<i2")
    t = pa.table({
        "media_id": pa.array([1, 2], pa.int64()),
        "payload": pa.array([encode_wav(sine, rate=rate),
                             encode_wav(dc, rate=rate)], pa.binary()),
    })
    out = {r["media_id"]: r for r in AudioFeatures()(t).to_pylist()}
    # a pure tone: centroid ≈ f0 (Hz), ZCR ≈ 2·f0/rate
    assert abs(out[1]["spectral_centroid"] - f0) < 5.0
    assert abs(out[1]["zero_crossing_rate"] - 2 * f0 / rate) < 0.002
    # DC: no crossings, all energy at the zero bin
    assert out[2]["zero_crossing_rate"] == 0.0
    assert out[2]["spectral_centroid"] < 1.0


def test_video_frame_sampler():
    # video ids (i%3==2) across all four wire formats:
    # 2=FAKEVID, 5=AVI-MJPG, 8=AVI-DIB, 11=animated GIF
    t = synth_media_batch([2, 5, 8, 11])
    out = VideoFrameSampler(every=2)(t).to_pylist()
    assert len(out) > 0
    assert all(r["frame_idx"] % 2 == 0 for r in out)
    assert {r["media_id"] for r in out} == {2, 5, 8, 11}


def test_media_determinism():
    a = synth_media_batch([0, 1, 2])
    b = synth_media_batch([0, 1, 2])
    assert a.equals(b)


def test_text_diff_ratio():
    from nidaba_ray.functions.stats import text_diff_ratio

    assert text_diff_ratio("a b c", "a b c") == 1.0
    assert text_diff_ratio("", "") == 1.0
    assert text_diff_ratio("a b c d", "a b x d") == 0.75
    assert text_diff_ratio("a", "") == 0.0


def test_accuracy_vs_golden(ray_session, tmp_path):
    import pandas as pd
    import ray.data as rd

    from nidaba_ray.functions.stats import accuracy_vs_golden
    from nidaba_ray.pipelines.extract import extract_pipeline

    t = synth.pages_table(n=60)
    pq.write_table(t.drop_columns(["golden", "doc_id"]), str(tmp_path / "p.parquet"))
    pd.DataFrame(
        {"url": t["url"].to_pylist(), "golden": t["golden"].to_pylist()}
    ).drop_duplicates("url").to_parquet(str(tmp_path / "g.parquet"))
    out = extract_pipeline(
        rd.read_parquet(str(tmp_path / "p.parquet")),
        extract_concurrency=(1, 2),
    )
    roll = accuracy_vs_golden(out, str(tmp_path / "g.parquet")).to_pylist()[0]
    # quarantined rows can't match; everything else must be exact
    assert roll["n_matched"] == roll["n_urls"]
    assert roll["n_exact"] >= roll["n_urls"] - 2
    assert roll["mean_ratio"] > 0.95


def test_media_pipeline_through_ray(ray_session, tmp_path):
    from nidaba_ray.pipelines.media import media_dataset, media_features

    trace = tmp_path / "trace"
    trace.mkdir()
    out = media_features("/root/testdata/sf0.001", trace_dir=str(trace)).to_pandas()
    assert set(out["kind"]) == {"image", "audio", "video"}
    assert (out["n_errors"] == 0).all()
    assert (out["n_objects"] > 100).all()  # ~500/3 per kind
    # single-pass guarantee: the media source ran exactly once per
    # batch — no per-modality re-execution of the synthesis stage
    base = tmp_path / "base"
    base.mkdir()
    media_dataset("/root/testdata/sf0.001", trace_dir=str(base)).materialize()
    assert len(list(trace.iterdir())) == len(list(base.iterdir()))
    # deterministic across runs
    again = media_features("/root/testdata/sf0.001").to_pandas()
    assert out.equals(again)


def test_tei_rows_roundtrip():
    import xml.etree.ElementTree as ET

    from nidaba_ray.stages.serialize import to_tei_rows

    b = _extracted_batch()
    out = to_tei_rows(b)
    texts = dict(zip(b["url"].to_pylist(), b["text"].to_pylist()))
    spans = dict(zip(b["url"].to_pylist(), b["spans"].to_pylist()))
    for url, xml_s in zip(out["url"].to_pylist(), out["tei"].to_pylist()):
        root = ET.fromstring(xml_s)
        assert root.get("url") == url
        # canonical text survives XML round trip byte-identically
        ab = root.find("ab[@type='canonical']")
        assert (ab.text or "") == texts[url]
        zones = root.findall(".//zone")
        assert len(zones) == len(spans[url])
        for z, s in zip(zones, spans[url]):
            assert z.text == s["text"] and z.get("type") == s["kind"]
        # respStmt lineage present
        assert root.findall(".//respStmt")


def test_hocr_rows_roundtrip():
    import xml.etree.ElementTree as ET

    import pyarrow as pa

    from nidaba_ray.record import SPAN_TYPE
    from nidaba_ray.stages.serialize import to_hocr_rows

    spans = [
        {"block_id": 0, "kind": "p", "depth": 2, "text_density": 1.0,
         "link_density": 0.0, "score": 9.0, "text": "first & <best> block",
         "start": 0, "end": 20},
        {"block_id": 1, "kind": "h2", "depth": 1, "text_density": 1.0,
         "link_density": 0.0, "score": 5.0, "text": "heading täxt",
         "start": 21, "end": 33},
    ]
    batch = pa.table({
        "url": pa.array(["https://x/doc"], pa.string()),
        "lang": pa.array(["en"], pa.string()),
        "spans": pa.array([spans], SPAN_TYPE),
    })
    out = to_hocr_rows(batch)
    doc = out["hocr"].to_pylist()[0]
    root = ET.fromstring(doc)  # well-formed XHTML
    page = root.find("./body/div")
    assert page.get("class") == "ocr_page" and "https://x/doc" in page.get("title")
    areas = page.findall("./div")
    assert [a.get("id") for a in areas] == ["block_0", "block_1"]
    assert "x_kind p" in areas[0].get("title")
    assert "x_offsets 0 20" in areas[0].get("title")
    lines = [a.find("./p/span").text for a in areas]
    assert lines == ["first & <best> block", "heading täxt"]


def test_output_hocr_registered():
    from nidaba_ray.stages.registry import get_stage

    spec = get_stage("output.hocr")
    assert spec is not None


def test_alto_rows_roundtrip():
    import xml.etree.ElementTree as ET

    import pyarrow as pa

    from nidaba_ray.record import SPAN_TYPE
    from nidaba_ray.stages.serialize import to_alto_rows
    from nidaba_ray.stages.registry import get_stage

    assert get_stage("output.alto") is not None
    spans = [
        {"block_id": 0, "kind": "p", "depth": 2, "text_density": 1.0,
         "link_density": 0.0, "score": 9.0, "text": "alpha & beta",
         "start": 0, "end": 12},
    ]
    batch = pa.table({
        "url": pa.array(["https://x/alto"], pa.string()),
        "spans": pa.array([spans], SPAN_TYPE),
    })
    doc = to_alto_rows(batch)["alto"].to_pylist()[0]
    root = ET.fromstring(doc)
    assert root.find("Description/sourceImageInformation/fileName").text == "https://x/alto"
    strings = root.findall(".//TextBlock/TextLine/String")
    assert [s.get("CONTENT") for s in strings] == ["alpha & beta"]
    assert strings[0].get("HPOS") == "0" and strings[0].get("VPOS") == "12"


def test_compile_quality_hocr_chain(ray_session, tmp_path):
    """The round-2 example spec compiles and runs end to end."""
    import ray.data as rd

    from nidaba_ray.stages.registry import compile_pipeline, load_spec

    t = synth.pages_table(n=30)
    pq.write_table(t.drop_columns(["golden", "doc_id"]),
                   str(tmp_path / "p.parquet"))
    spec = load_spec("/root/repo/examples/extract_quality_hocr.yaml")
    ds = compile_pipeline(rd.read_parquet(str(tmp_path / "p.parquet")), spec)
    df = ds.to_pandas()
    assert set(df.columns) == {"url", "hocr"}
    assert df["hocr"].str.contains("ocr_page").all()


def test_abbyy_rows_roundtrip():
    import xml.etree.ElementTree as ET

    import pyarrow as pa

    from nidaba_ray.record import SPAN_TYPE
    from nidaba_ray.stages.serialize import to_abbyy_rows
    from nidaba_ray.stages.registry import get_stage

    assert get_stage("output.abbyy") is not None
    spans = [
        {"block_id": 0, "kind": "p", "depth": 2, "text_density": 1.0,
         "link_density": 0.0, "score": 9.0, "text": "alpha & beta",
         "start": 0, "end": 12},
        {"block_id": 1, "kind": "h1", "depth": 1, "text_density": 1.0,
         "link_density": 0.0, "score": 5.0, "text": "täxt <tag>",
         "start": 13, "end": 23},
    ]
    batch = pa.table({
        "url": pa.array(["https://x/abbyy"], pa.string()),
        "lang": pa.array(["de"], pa.string()),
        "spans": pa.array([spans], SPAN_TYPE),
    })
    doc = to_abbyy_rows(batch)["abbyy"].to_pylist()[0]
    root = ET.fromstring(doc)
    assert root.get("source") == "https://x/abbyy"
    blocks = root.findall("page/block")
    assert [b.get("blockType") for b in blocks] == ["Text", "Text"]
    fmts = root.findall(".//line/formatting")
    assert [f.text for f in fmts] == ["alpha & beta", "täxt <tag>"]
    assert [f.get("lang") for f in fmts] == ["de", "de"]
    assert blocks[0].get("l") == "0" and blocks[0].get("r") == "12"
    assert blocks[1].get("x_kind") == "h1" and blocks[1].get("t") == "1"


# ---------------------------------------------------------------------------
# Round-4: load paths (serialize ∘ load ≡ id through the library API)
# ---------------------------------------------------------------------------


def test_dialect_load_paths_are_true_roundtrips():
    """For every XML dialect: serialize → load → serialize again must
    be byte-identical (the loader recovers every field the dialect
    carries), and load(serialize(b)) preserves url/lang/span text."""
    from nidaba_ray.stages.serialize import (
        load_abbyy_rows,
        load_alto_rows,
        load_hocr_rows,
        load_tei_rows,
        to_abbyy_rows,
        to_alto_rows,
        to_hocr_rows,
        to_tei_rows,
    )

    b = _extracted_batch()
    for ser, load, col in (
        (to_tei_rows, load_tei_rows, "tei"),
        (to_hocr_rows, load_hocr_rows, "hocr"),
        (to_alto_rows, load_alto_rows, "alto"),
        (to_abbyy_rows, load_abbyy_rows, "abbyy"),
    ):
        first = ser(b)
        loaded = load(first)
        again = ser(loaded)
        assert again[col].to_pylist() == first[col].to_pylist(), col
        assert loaded["url"].to_pylist() == b["url"].to_pylist(), col
        for orig, got in zip(b["spans"].to_pylist(),
                             loaded["spans"].to_pylist()):
            assert [s["text"] for s in got] == [s["text"] for s in orig], col
    # TEI additionally carries canonical text + provenance losslessly
    t = load_tei_rows(to_tei_rows(b))
    assert t["text"].to_pylist() == b["text"].to_pylist()
    assert t["provenance"].to_pylist() == b["provenance"].to_pylist()
    assert t["lang"].to_pylist() == b["lang"].to_pylist()


def test_loaded_foreign_candidate_enters_vote():
    """A foreign hOCR document (another engine's output) loaded via
    load_hocr_rows can be voted against native spans in
    merge.vote_row — the blend_hocr ingestion use case."""
    import pyarrow as pa

    from nidaba_ray.record import SPAN_TYPE, assign_offsets, spans_to_text
    from nidaba_ray.stages.merge import vote_row
    from nidaba_ray.stages.serialize import load_hocr_rows, to_hocr_rows

    native = assign_offsets([
        {"block_id": 0, "kind": "p", "depth": 2, "text_density": 1.0,
         "link_density": 0.0, "score": 9.0, "text": "the quick brown fox",
         "start": 0, "end": 0},
        {"block_id": 1, "kind": "p", "depth": 2, "text_density": 1.0,
         "link_density": 0.0, "score": 8.0, "text": "jumps over the dog",
         "start": 0, "end": 0},
    ])
    # the foreign engine agrees on block 0 but read block 1 noisily
    foreign = assign_offsets([
        dict(native[0]),
        {**native[1], "text": "jumps ovvr the dog"},
    ])
    hocr = to_hocr_rows(pa.table({
        "url": pa.array(["https://x/p"], pa.string()),
        "lang": pa.array(["en"], pa.string()),
        "spans": pa.array([foreign], SPAN_TYPE),
    }))
    cand = load_hocr_rows(hocr)
    cand_text = cand["text"].to_pylist()[0]
    assert cand_text == spans_to_text(foreign)

    text, kept, prov, n_blocks, n_kept = vote_row(
        native, cand_text, payload_kind="html", lang="en")
    assert n_blocks == 2 and n_kept >= 1
    # the dictionary-scored vote must prefer the native reading of the
    # disputed token ('over' is lexicon English; 'ovvr' is not)
    assert "ovvr" not in text


def test_tei_metadata_merge():
    """tei_metadata analog: YAML docs merge left-to-right into
    teiHeader/fileDesc; idempotent per key; validate gates unknown
    fields; the load path still roundtrips afterwards."""
    import xml.etree.ElementTree as ET

    import pytest

    from nidaba_ray.stages.serialize import (
        load_tei_rows,
        tei_metadata_rows,
        to_tei_rows,
    )

    b = _extracted_batch()
    tei = to_tei_rows(b)
    merged = tei_metadata_rows(
        tei,
        ("title: First\nauthor: [Ada, Bob]\n", {"title": "Corpus v2",
                                                "licence": "CC-BY-4.0"}),
    )
    root = ET.fromstring(merged["tei"][0].as_py())
    fdesc = root.find("teiHeader/fileDesc")
    assert fdesc is not None
    # later doc overrides the earlier title; list keys emit one
    # element per item
    assert [e.text for e in fdesc.findall("title")] == ["Corpus v2"]
    assert [e.text for e in fdesc.findall("author")] == ["Ada", "Bob"]
    assert [e.text for e in fdesc.findall("licence")] == ["CC-BY-4.0"]

    # idempotent: re-merging the same key replaces, never duplicates
    again = tei_metadata_rows(merged, ({"title": "Corpus v3"},))
    root2 = ET.fromstring(again["tei"][0].as_py())
    assert [e.text for e in root2.findall("teiHeader/fileDesc/title")] == [
        "Corpus v3"]

    # unknown keys: carried as typed notes unvalidated, rejected
    # under validate=True
    noted = tei_metadata_rows(tei, ({"jobid": "x7"},))
    r3 = ET.fromstring(noted["tei"][0].as_py())
    notes = r3.findall("teiHeader/fileDesc/note")
    assert [(n.get("type"), n.text) for n in notes] == [("jobid", "x7")]
    with pytest.raises(ValueError, match="jobid"):
        tei_metadata_rows(tei, ({"jobid": "x7"},), validate=True)

    # header growth must not break the spans-schema load path
    back = load_tei_rows(merged)
    assert back["text"].to_pylist() == b["text"].to_pylist()
    assert back["provenance"].to_pylist() == b["provenance"].to_pylist()
