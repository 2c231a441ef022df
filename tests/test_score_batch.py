"""The ragged-batch threshold kernels against the per-page kernels they
replaced. ``keep_global_otsu`` / ``keep_local_sauvola`` take a batch's
concatenated block scores plus page offsets; every page's keep mask
(and ``otsu_threshold``'s float) must equal the one-page reference
below, a verbatim copy of the per-page implementation, whatever the
batch layout around the page. No Ray required."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from nidaba_ray.stages import score as scoremod
from nidaba_ray.stages.score import (
    keep_global_otsu,
    keep_local_sauvola,
    otsu_threshold,
)

N_BINS = 64


# ---- reference: the per-page kernels, verbatim ------------------------

def ref_otsu_threshold(scores: np.ndarray, n_bins: int = N_BINS) -> float:
    ls = np.log1p(scores)
    lo, hi = float(ls.min()), float(ls.max())
    if hi - lo < 1e-12:
        return -1.0  # degenerate page: single level → keep everything
    hist, edges = np.histogram(ls, bins=n_bins, range=(lo, hi))
    p = hist.astype(np.float64) / hist.sum()
    centers = (edges[:-1] + edges[1:]) / 2.0
    w0 = np.cumsum(p)
    w1 = 1.0 - w0
    mu = np.cumsum(p * centers)
    mu_t = mu[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        between = np.where(
            (w0 > 0) & (w1 > 0), (mu_t * w0 - mu) ** 2 / (w0 * w1), 0.0
        )
    k = int(np.argmax(between))  # first maximum → deterministic
    return float(np.expm1(edges[k + 1]))


def ref_nonempty(keep: np.ndarray, scores: np.ndarray) -> np.ndarray:
    if not keep.any() and scores.max() > 0:
        keep = np.zeros(len(scores), dtype=bool)
        keep[int(np.argmax(scores))] = True
    return keep


def ref_keep_global_otsu(scores: np.ndarray) -> np.ndarray:
    if len(scores) == 0:
        return np.zeros(0, dtype=bool)
    t = ref_otsu_threshold(scores)
    keep = scores > max(t, 0.0)
    if keep.any() and not keep.all():
        lo_mean = float(scores[~keep].mean())
        hi_mean = float(scores[keep].mean())
        if hi_mean < 3.0 * max(lo_mean, 1.0):
            keep = scores > 0
    return ref_nonempty(keep, scores)


def ref_keep_local_sauvola(
    scores: np.ndarray, window: int = 5, k: float = 0.34, r: float = 4.0
) -> np.ndarray:
    n = len(scores)
    if n == 0:
        return np.zeros(0, dtype=bool)
    ls = np.log1p(scores)
    floor = 0.25 * float(ls.max())
    half = window // 2
    # windowed mean/std via cumulative sums (vectorized, O(n))
    pad = np.pad(ls, (half, half), mode="edge")
    zero = np.zeros(1)
    # concatenate, not np.insert — same values, ~3× less overhead on
    # these tiny per-page arrays (profiled)
    c1 = np.cumsum(np.concatenate((zero, pad)))
    c2 = np.cumsum(np.concatenate((zero, pad * pad)))
    m = (c1[window:] - c1[:-window]) / window
    var = np.maximum((c2[window:] - c2[:-window]) / window - m * m, 0.0)
    s = np.sqrt(var)
    t = m * (1.0 + k * (s / r - 1.0))
    keep = (ls > t) & (scores > 0) & (ls > floor)
    return ref_nonempty(keep, scores)


def ref_window_sums(scores: np.ndarray, window: int = 5):
    """The one-page Sauvola window sums (from ``ref_keep_local_sauvola``)."""
    ls = np.log1p(scores)
    half = window // 2
    pad = np.pad(ls, (half, half), mode="edge")
    zero = np.zeros(1)
    c1 = np.cumsum(np.concatenate((zero, pad)))
    c2 = np.cumsum(np.concatenate((zero, pad * pad)))
    return c1[window:] - c1[:-window], c2[window:] - c2[:-window]


# ---- page generators ----------------------------------------------------

def _realistic(rng, n):
    """Synth-page shape: zero link farms, damped chrome, long content."""
    kind = rng.integers(0, 3, n)
    return np.where(kind == 0, 0.0,
                    np.where(kind == 1, rng.uniform(0, 5, n) * rng.integers(0, 2, n),
                             rng.uniform(20, 3000, n)))


def _near_degenerate(rng, n):
    """log-score range right around the 1e-12 single-level cut."""
    base = rng.uniform(0.5, 50.0)
    step = (1.0 + base) * 1e-12 * rng.uniform(0.5, 1.5)
    return base + step * rng.integers(0, 2, n)


def _tied(rng, n):
    """Two equal clusters: the between-class variance plateaus over the
    empty bins between them, so the first argmax decides."""
    lo, hi = rng.uniform(0, 3), rng.uniform(50, 500)
    out = np.where(np.arange(n) % 2 == 0, lo, hi)
    return rng.permutation(out)


def _guard(rng, n):
    """Class means a few ulps either side of the 3× guard; the low
    class has varied values, so a sum rounded differently from
    ``ndarray.mean`` can flip the decision."""
    n_lo = int(rng.integers(1, max(2, n)))
    lo = rng.choice([0.3, 2.0, 40.0]) * rng.uniform(0.999, 1.001, n_lo)
    target = 3.0 * max(float(lo.mean()), 1.0)
    hi = np.full(max(n - n_lo, 1), target * (1.0 + int(rng.integers(-3, 4)) * 2.0 ** -52))
    return rng.permutation(np.concatenate((lo, hi)))


def _on_edges(rng, n):
    """log-scores within an ulp or two of the histogram's bin edges,
    where np.histogram's ±1 index correction decides the bin."""
    lo_s, hi_s = rng.uniform(0, 2), rng.uniform(50, 5000)
    edges = np.linspace(np.log1p(lo_s), np.log1p(hi_s), N_BINS + 1)
    inner = np.expm1(edges[rng.integers(1, N_BINS, max(n - 2, 1))])
    inner *= 1.0 + rng.integers(-2, 3, len(inner)) * 2.0 ** -52
    return rng.permutation(np.concatenate(([lo_s, hi_s], inner)))


def _spikes(rng, n):
    """A few astronomically large scores among small ones: Sauvola's
    local threshold rises above the spike itself, so the page keeps no
    block and falls back to its argmax."""
    out = rng.uniform(0, 1, n)
    out[rng.integers(0, n, int(rng.integers(1, 3)))] = 10.0 ** rng.uniform(40, 120)
    return out


GENERATORS = (
    lambda rng, n: np.zeros(0),                                   # empty
    lambda rng, n: rng.uniform(0, 500, 1),                        # 1 block
    lambda rng, n: np.zeros(n),                                   # all zero
    lambda rng, n: np.full(n, rng.choice([0.5, 7.0, 123.25])),    # single level
    _near_degenerate,
    _tied,
    _guard,
    _on_edges,
    _spikes,
    _realistic,
    lambda rng, n: rng.exponential(rng.uniform(1, 300), n),
    lambda rng, n: np.round(rng.uniform(0, 20, n)) * rng.choice([1.0, 0.1, 17.0]),
)


def _batch(rng):
    pages = []
    for _ in range(int(rng.integers(1, 80))):
        n = int(rng.integers(1, 40)) if rng.random() < 0.95 else int(rng.integers(40, 400))
        pages.append(GENERATORS[int(rng.integers(len(GENERATORS)))](rng, n))
    offsets = np.concatenate(([0], np.cumsum([len(p) for p in pages])))
    return pages, np.concatenate(pages), offsets


def test_batch_kernels_equal_per_page_reference():
    rng = np.random.default_rng(20261017)
    n_pages = 0
    while n_pages < 10_000:
        pages, scores, offsets = _batch(rng)
        otsu = keep_global_otsu(scores, offsets)
        sauvola = keep_local_sauvola(scores, offsets)
        ls = np.log1p(scores)
        thresholds = scoremod._otsu_thresholds(ls, offsets)
        live = np.flatnonzero(np.diff(offsets))
        s1, s2 = scoremod._window_sums(ls, offsets, live, 5)
        assert otsu.dtype == sauvola.dtype == bool
        assert len(otsu) == len(sauvola) == len(scores)
        for j, page in enumerate(pages):
            a, b = offsets[j], offsets[j + 1]
            assert np.array_equal(otsu[a:b], ref_keep_global_otsu(page)), page
            assert np.array_equal(sauvola[a:b], ref_keep_local_sauvola(page)), page
            if len(page):
                want = ref_otsu_threshold(page)
                assert otsu_threshold(page) == want, page
                assert thresholds[j] == want, page
                want_s1, want_s2 = ref_window_sums(page)
                assert np.array_equal(s1[a:b], want_s1), page
                assert np.array_equal(s2[a:b], want_s2), page
        n_pages += len(pages)


@pytest.mark.parametrize("gen", range(len(GENERATORS)))
def test_one_page_call_equals_reference(gen):
    rng = np.random.default_rng(gen)
    for _ in range(50):
        page = GENERATORS[gen](rng, int(rng.integers(1, 30)))
        assert np.array_equal(keep_global_otsu(page), ref_keep_global_otsu(page))
        assert np.array_equal(keep_local_sauvola(page), ref_keep_local_sauvola(page))


def test_non_finite_scores_raise_like_histogram():
    with pytest.raises(ValueError):
        ref_keep_global_otsu(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        keep_global_otsu(np.array([1.0, 2.0, 1.0, np.inf]), [0, 2, 4])


def test_ragged_batch_scratch_stays_linear():
    """One 20k-block page beside 63 tiny ones must not allocate a
    (pages × longest page) matrix."""
    rng = np.random.default_rng(5)
    pages = [_realistic(rng, 20_000)] + [_realistic(rng, 3) for _ in range(63)]
    scores = np.concatenate(pages)
    offsets = np.concatenate(([0], np.cumsum([len(p) for p in pages])))
    tracemalloc.start()
    try:
        keep_global_otsu(scores, offsets)
        keep_local_sauvola(scores, offsets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a 64 × 32768 float matrix alone would be ~100× the input
    assert peak < 16 * scores.nbytes, peak / scores.nbytes
