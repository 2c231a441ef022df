"""Spans around calls into the program's layers, recorded from outside.

The benchmark wraps public functions of each layer at the place the
caller looks them up (a module attribute or a class attribute), keeps
every span in memory as ``(name, start_ns, end_ns, parent, note)`` and
restores the originals on exit. Self time is a span's duration minus
the part its direct children cover, so nested layers (``extract_row``
calling ``segment_html``) are not counted twice.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (layer name, module, attribute): every public function the flagship
# path calls into, at the binding its caller uses
LAYER_FUNCTIONS = (
    ("extract", "nidaba_ray.stages.extract", "extract_row"),
    ("segment", "nidaba_ray.stages.extract", "segment_html"),
    ("strings.sanitize", "nidaba_ray.stages.extract", "sanitize"),
    ("score.features", "nidaba_ray.stages.score", "block_features"),
    ("score.features", "nidaba_ray.stages.score", "block_scores"),
    ("score.features", "nidaba_ray.stages.score", "smooth_scores"),
    ("score.features", "nidaba_ray.stages.score", "suppress_isolated"),
    ("score.otsu", "nidaba_ray.stages.score", "keep_global_otsu"),
    ("score.sauvola", "nidaba_ray.stages.score", "keep_local_sauvola"),
    ("score.nlbin", "nidaba_ray.stages.score", "keep_nlbin"),
    ("pdf", "nidaba_ray.stages.pdf", "extract_pdf_blocks"),
    ("office", "nidaba_ray.stages.office", "sniff_office"),
    ("office", "nidaba_ray.stages.office", "extract_docx_paragraphs"),
    ("office", "nidaba_ray.stages.office", "extract_odt_paragraphs"),
    ("office", "nidaba_ray.stages.office", "extract_rtf_paragraphs"),
    ("office", "nidaba_ray.stages.office", "extract_xlsx_rows"),
    ("office", "nidaba_ray.stages.office", "extract_pptx_paragraphs"),
    ("office", "nidaba_ray.stages.office", "epub_chapters"),
    ("merge.vote_columns", "nidaba_ray.stages.merge", "vote_columns"),
    ("merge.vote_row", "nidaba_ray.stages.merge", "vote_row"),
    ("merge.align_vote", "nidaba_ray.stages.merge", "align_vote"),
    ("spell.filter", "nidaba_ray.stages.spell", "SpellFilter.__call__"),
    ("spell.sym_suggest", "nidaba_ray.stages.spell", "sym_suggest"),
)


def _segment_note(result):
    return len(result)


def _vote_row_note(result):
    # provenance ends with the merge path the row took
    return result[2][-1]["variant"]


NOTES = {"segment": _segment_note, "merge.vote_row": _vote_row_note}


class Tracer:
    """Context manager: wraps ``LAYER_FUNCTIONS`` on enter, restores them
    on exit. ``spans`` holds one tuple per call."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name: str, owner, attr: str) -> None:
        orig = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        note_fn = NOTES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, None)
            if note_fn is not None:
                spans[idx] = (name, t0, t1, parent, note_fn(result))
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def __enter__(self) -> "Tracer":
        import importlib

        try:
            for name, module, attr in LAYER_FUNCTIONS:
                owner = importlib.import_module(module)
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                self._wrap(name, owner, attr)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def summary(self) -> dict:
        """Per layer name: calls, self_ns, and the notes of its spans; plus
        the ``nlbin`` parents (vote_row spans that ran nlbin)."""
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict = defaultdict(lambda: {"calls": 0, "self_ns": 0, "notes": []})
        nlbin_parents = set()
        for i, (name, t0, t1, parent, note) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["self_ns"] += t1 - t0 - child_ns[i]
            if note is not None:
                rec["notes"].append(note)
            if name == "score.nlbin":
                nlbin_parents.add(parent)
        used = sum(
            1 for i in nlbin_parents
            if i >= 0 and self.spans[i][0] == "merge.vote_row"
            and self.spans[i][4] != "agree"
        )
        return {"layers": dict(out), "nlbin_used": used}
