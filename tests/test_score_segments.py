"""The scoring kernels over a whole batch's block table against their
one-page calls. ``block_features`` and ``block_scores`` are per block;
``smooth_scores`` and ``suppress_isolated`` take page offsets. Over
seeded ragged batches — empty, one- and two-block pages, all-zero
pages, chrome runs and table-cell runs — every page's slice must equal,
bit for bit, both its one-page call and the per-page implementation
the batch kernels replaced (verbatim below). No Ray."""

from __future__ import annotations

import random

import numpy as np
import pytest

from nidaba_ray.stages import score as scoremod
from nidaba_ray.stages.segment import Block

KINDS = ("p", "p", "li", "h2", "td", "th", "div")


# ---- reference: the per-page kernels, verbatim ------------------------

def ref_smooth_scores(scores, feat, alpha=0.25, beta=3.0):
    if len(scores) < 2:
        return scores
    prev = np.concatenate(([0.0], scores[:-1]))
    nxt = np.concatenate((scores[1:], [0.0]))
    eligible = (~feat["chrome"]) & (feat["link_density"] < 0.33) & (scores > 0)
    boost = alpha * (prev + nxt)
    boost = np.where(feat["cell"], np.minimum(boost, beta * scores), boost)
    return np.where(eligible, scores + boost, scores)


def ref_suppress_isolated(raw, smoothed, frac=0.15):
    if len(raw) < 2:
        return smoothed
    mx = raw.max()
    pos = raw > 0
    starts = pos & ~np.concatenate(([False], pos[:-1]))
    run_id = np.cumsum(starts) * pos  # 0 marks non-positive gaps
    run_sum = np.bincount(run_id, weights=raw)[run_id]
    weak = pos & (run_sum < frac * mx)
    return np.where(weak, 0.0, smoothed)


# ---- seeded ragged batches --------------------------------------------

def _block(rng: random.Random, shape: str) -> Block:
    b = Block(rng.choice(("td", "th")) if shape == "cells" else rng.choice(KINDS),
              rng.randint(0, 12), shape == "chrome" or rng.random() < 0.15)
    n = 0 if shape == "zero" else rng.choice((0, 1, 3, 9, 40, 120, 600))
    b.text = "x" * n
    b.anchor_chars = rng.randint(0, n) if rng.random() < 0.3 else 0
    b.n_tags = rng.randint(0, 6)
    return b


def _page(rng: random.Random) -> list[Block]:
    n = rng.choice((0, 1, 1, 2, 2, 3, 5, 8, 15, 40))
    shape = rng.choice(("mixed", "mixed", "mixed", "zero", "chrome", "cells"))
    if shape == "mixed" and n > 4:
        # a chrome run and a cell run inside an ordinary page
        blocks = [_block(rng, "mixed") for _ in range(n)]
        i = rng.randrange(n - 3)
        blocks[i:i + 3] = [_block(rng, rng.choice(("chrome", "cells")))
                           for _ in range(3)]
        return blocks
    return [_block(rng, shape) for _ in range(n)]


def _batch(seed: int) -> list[list[Block]]:
    rng = random.Random(f"score-segments-{seed}")
    return [_page(rng) for _ in range(rng.randint(1, 30))]


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _slices(offsets):
    return [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]


@pytest.mark.parametrize("seed", range(200))
def test_batch_kernels_equal_their_one_page_calls(seed):
    pages = _batch(seed)
    offsets = np.cumsum([0] + [len(p) for p in pages])
    feat = scoremod.block_features([b for p in pages for b in p])
    raw = scoremod.block_scores(feat)
    smoothed = scoremod.smooth_scores(raw, feat, offsets)
    out = scoremod.suppress_isolated(raw, smoothed, offsets)
    for page, sl in zip(pages, _slices(offsets)):
        pf = scoremod.block_features(page)
        for name, col in pf.items():
            assert _same(feat[name][sl], col), name
        praw = scoremod.block_scores(pf)
        assert _same(raw[sl], praw)
        psm = scoremod.smooth_scores(praw, pf)
        assert _same(smoothed[sl], psm)
        assert _same(smoothed[sl], ref_smooth_scores(praw, pf))
        pout = scoremod.suppress_isolated(praw, psm)
        assert _same(out[sl], pout)
        assert _same(out[sl], ref_suppress_isolated(praw, psm))
        if len(page) == 1:
            assert _same(smoothed[sl], praw) and _same(out[sl], psm)


def test_fuzz_batches_reach_every_shape():
    """The seeded batches hold what the fuzz claims to cover."""
    pages = [p for seed in range(200) for p in _batch(seed)]
    sizes = {len(p) for p in pages}
    assert {0, 1, 2} <= sizes
    assert any(p and all(not b.text for b in p) for p in pages)
    assert any(len(p) > 2 and all(b.in_chrome for b in p) for p in pages)
    assert any(len(p) > 2 and all(b.kind in ("td", "th") for b in p)
               for p in pages)
