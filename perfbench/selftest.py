"""Self-test of the benchmark at tiny scale (a few seconds, no Ray):

    python3 perfbench/selftest.py      # or: python3 -m pytest perfbench/selftest.py

Covers the workload generators (same seed → same bytes, another seed →
other bytes), the output checks (a corrupted output row must count as
failed, and so raise ``failed_share``), the core-speed correction, and
the tracer (restores the original functions; traced output equals
untraced output).
"""

from __future__ import annotations

import importlib
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE)]

import pyarrow as pa  # noqa: E402

import coreprobe  # noqa: E402
import inproc  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = 40


def _extract(pages: pa.Table) -> pa.Table:
    return inproc.one_pass(pages)[1]


def test_generators_follow_the_seed():
    for wl in workloads.WORKLOADS:
        a, expect_a = workloads.generate(wl, 7, TINY)
        b, expect_b = workloads.generate(wl, 7, TINY)
        c, _ = workloads.generate(wl, 8, TINY)
        assert a.equals(b) and expect_a == expect_b, wl
        assert not a.equals(c), wl
        assert a.num_rows == len(expect_a) == TINY, wl  # one url per row


def test_checks_pass_then_count_corrupted_rows():
    for wl in workloads.WORKLOADS:
        pages, expect = workloads.generate(wl, 7, TINY)
        out = _extract(pages)
        urls = out["url"].to_pylist()
        texts = out["text"].to_pylist()
        errors = out["error"].to_pylist()
        assert workloads.check_output(expect, urls, texts, errors) == set(), wl

        i = errors.index("")
        bad_text = texts[:i] + [texts[i] + " "] + texts[i + 1:]
        assert workloads.check_output(expect, urls, bad_text, errors) == {urls[i]}, wl
        bad_err = errors[:i] + ["injected"] + errors[i + 1:]
        assert workloads.check_output(expect, urls, texts, bad_err) == {urls[i]}, wl
        assert workloads.check_output(expect, urls[1:], texts[1:], errors[1:]) == {urls[0]}

        # the Ray-vs-in-process comparison is per url over whole rows
        corrupted = out.set_column(out.schema.get_field_index("text"), "text",
                                   pa.array(bad_text, pa.string()))
        assert workloads.mismatched_rows(out, corrupted) == {urls[i]}, wl
        # ... and counts the copies of each row (the warm Ray run repeats the pages)
        doubled = pa.concat_tables([out, out])
        assert workloads.mismatched_rows(out, doubled, 2) == set(), wl
        assert workloads.mismatched_rows(out, doubled) == set(urls), wl
        assert workloads.mismatched_rows(out, pa.concat_tables([out, corrupted]), 2) \
            == {urls[i]}, wl


def test_synth_quarantine_slots_must_quarantine():
    pages, expect = workloads.generate("synth_html", 7, 300)
    out = _extract(pages)
    urls, texts = out["url"].to_pylist(), out["text"].to_pylist()
    errors = out["error"].to_pylist()
    slots = {u for u, e in expect.items() if e == workloads.QUARANTINE}
    assert slots and slots == {u for u, e in zip(urls, errors) if e}
    cleared = ["" if u in slots else e for u, e in zip(urls, errors)]
    assert workloads.check_output(expect, urls, texts, cleared) == slots


def test_core_speed_correction():
    import tempfile

    ref = coreprobe.REFERENCE_S
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "probe.txt"
        # a core at reference speed until t=10, then half as fast; the
        # last line is cut off, as when the probe is killed mid-write
        path.write_text("".join(f"{t!r} {ref if t < 10 else 2 * ref!r}\n"
                                for t in range(20)) + "20.0 0.00")
        samples = coreprobe.Samples(path)
    assert len(samples.secs) == 20
    # a pass on the slow core took twice the time it takes at reference speed
    got = samples.corrected([(1, 4), (12, 14), (8, 12), (12.2, 12.4)])
    want = [3.0, 1.0,
            4 * ref / ((2 * ref + 3 * 2 * ref) / 5),
            0.2 / 2]  # no sample inside: the first one after it
    assert all(math.isclose(g, w) for g, w in zip(got, want)), got


def test_tracer_keeps_output_and_restores_functions():
    pages, _ = workloads.generate("real_fixtures", 7, 194)
    owners = []
    for _, module, attr in tracing.LAYER_FUNCTIONS:
        owner = importlib.import_module(module)
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        owners.append((owner, attr, getattr(owner, attr)))
    untraced = _extract(pages)
    with tracing.Tracer() as tracer:
        traced = _extract(pages)
    assert workloads.mismatched_rows(untraced, traced) == set()
    assert all(getattr(o, a) is f for o, a, f in owners)
    summary = tracer.summary()
    layers = summary["layers"]
    assert layers["extract"]["calls"] == 194
    assert layers["merge.vote_row"]["notes"].count("vote") == 12
    assert layers["merge.align_vote"]["calls"] == 12
    assert 0 < summary["nlbin_used"] <= layers["score.nlbin"]["calls"]
    assert all(r["self_ns"] >= 0 for r in layers.values())


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} passed")
