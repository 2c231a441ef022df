"""Main-content scoring + boilerplate thresholding — the binarization
analog (nidaba binarize.otsu / binarize.sauvola via leptonica,
nidaba/tasks/binarize.py + plugins/leptonica.py, UNVERIFIED per
SURVEY.md §0).

Per the north_star: "Sauvola/Otsu-style binary thresholding ... reborn
as DOM-tree boilerplate classification and block-level main-content
scoring (text-density + link-density heuristics)".

Thresholds are chosen from the page's *own* score histogram (exactly
how Otsu picks a global image threshold) and from sliding local
windows (Sauvola). Scores are log-compressed before histogramming so
the split is scale invariant (a 30 kB article and a 300-byte stub
threshold the same way).

Every kernel but nlbin runs once per Arrow batch, over the batch's
block table (stages/extract.py): block features and scores are per
block; ``smooth_scores``, ``suppress_isolated``, Otsu and Sauvola take
the blocks of many pages back to back plus page offsets
(``offsets=None`` is one page) and run a fixed number of numpy calls
for the batch instead of ~20 per page. Each page's result is
bit-for-bit its one-page result, so output does not depend on where
batches split. nlbin stays per page: the vote computes it only for
the rows that read it (stages/merge.py).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "block_features",
    "block_scores",
    "smooth_scores",
    "suppress_isolated",
    "otsu_threshold",
    "keep_global_otsu",
    "keep_local_sauvola",
    "keep_nlbin",
    "CHROME_WEIGHT",
    "CHROME_SAT",
]

CHROME_WEIGHT = 0.1  # score multiplier for blocks inside nav/aside/footer/header
CHROME_SAT = 50.0    # chrome text evidence saturates at this many chars
N_BINS = 64          # Otsu histogram bins
SMOOTH_ALPHA = 0.25  # share of its neighbors' scores that boosts a block
CELL_BOOST_CAP = 3.0   # a table cell's boost is at most this × its score
ISOLATED_FRAC = 0.15   # runs below this × the page max are dropped
SAUVOLA_WINDOW = 5   # blocks in the local window
SAUVOLA_K = 0.34
SAUVOLA_R = 4.0
NLBIN_LOW = 5.0      # the percentiles stretched to [0, 1] ...
NLBIN_HIGH = 90.0
NLBIN_THRESHOLD = 0.5  # ... and the cut on that scale


def block_features(blocks) -> dict[str, np.ndarray]:
    """Vector features of a block list (segment.Block): one page's, or
    a whole batch's back to back — every feature is per block."""
    n = len(blocks)
    text_len = np.fromiter((len(b.text) for b in blocks), dtype=np.float64, count=n)
    anchor = np.fromiter((b.anchor_chars for b in blocks), dtype=np.float64, count=n)
    n_tags = np.fromiter((b.n_tags for b in blocks), dtype=np.float64, count=n)
    chrome = np.fromiter((b.in_chrome for b in blocks), dtype=bool, count=n)
    cell = np.fromiter((b.kind in ("td", "th") for b in blocks),
                       dtype=bool, count=n)
    link_density = np.where(text_len > 0, anchor / np.maximum(text_len, 1.0), 0.0)
    text_density = text_len / (1.0 + n_tags)
    return {
        "text_len": text_len,
        "link_density": link_density,
        "text_density": text_density,
        "chrome": chrome,
        "cell": cell,
    }


def block_scores(feat: dict[str, np.ndarray]) -> np.ndarray:
    """score = text_len · (1 − link_density)² · chrome_weight, with
    chrome evidence SATURATED at ``CHROME_SAT`` chars first.

    High for long, link-free content blocks; ~0 for link farms; damped
    for site furniture. The saturation exists because the thresholds
    histogram log1p(score): a linear 0.1× discount is only a −ln(10)
    shift there, so a prose-LENGTH chrome block (a consent wall's
    legal text, ~300 chars) would land inside the content cluster and
    survive Otsu — length is not evidence of content-ness once
    structure marks furniture, so chrome contribution is bounded.
    A cap (not a power law) keeps every chrome block under the cap at
    its EXACT historical score, so no frozen fixture's threshold
    histogram moves. Fixture ``consent_wall_classonly`` pins the
    long-chrome case."""
    base = feat["text_len"] * np.square(1.0 - feat["link_density"])
    return np.where(
        feat["chrome"], CHROME_WEIGHT * np.minimum(base, CHROME_SAT), base
    )


def smooth_scores(scores: np.ndarray, feat: dict[str, np.ndarray],
                  offsets: np.ndarray | None = None) -> np.ndarray:
    """Context boost (boilerpipe-style): a content-shaped block
    (non-chrome, low link density) adjacent to high-scoring blocks is
    almost certainly content even if short — add a fraction of its
    neighbors' scores so trailing short paragraphs don't fall into the
    boilerplate class of the histogram. Chrome / link-heavy blocks are
    never boosted (the boost must not leak into site furniture).

    For TABLE CELLS the boost is capped at ``CELL_BOOST_CAP``× the
    cell's own score. Prose blocks read in document order, so adjacency
    is strong continuity evidence and a genuinely tiny trailing
    paragraph should ride its neighbors' mass — but a grid serializes
    row-major, its document-order neighbors are not its visual
    neighbors, so context may AMPLIFY a cell's own evidence, never
    fabricate it. Without the cap a near-empty cell (a bare day-number
    in a calendar grid) sandwiched between two populated cells crosses
    the threshold on neighbor mass alone; with it, worded cells (own
    score ≥ a few chars) still chain normally. Real-page fixtures
    ``event_calendar_grid`` (bare cells drop) and ``data_table`` /
    ``giant_data_table`` (worded cells keep) pin both sides.

    ``scores`` may hold several pages back to back (``offsets`` as in
    ``keep_global_otsu``): a page's first and last blocks have no
    neighbor across the page edge, so a one-block page comes back
    unchanged."""
    if len(scores) < 2:
        return scores
    offsets = _page_offsets(scores, offsets)
    counts = np.diff(offsets)
    starts = offsets[:-1][counts > 0]
    prev = np.concatenate(([0.0], scores[:-1]))
    prev[starts] = 0.0
    nxt = np.concatenate((scores[1:], [0.0]))
    nxt[offsets[1:][counts > 0] - 1] = 0.0
    eligible = (~feat["chrome"]) & (feat["link_density"] < 0.33) & (scores > 0)
    boost = SMOOTH_ALPHA * (prev + nxt)
    boost = np.where(feat["cell"], np.minimum(boost, CELL_BOOST_CAP * scores),
                     boost)
    return np.where(eligible, scores + boost, scores)


def suppress_isolated(raw: np.ndarray, smoothed: np.ndarray,
                      offsets: np.ndarray | None = None) -> np.ndarray:
    """Zero out *isolated weak runs*: contiguous stretches of
    positive-score blocks whose combined mass is small relative to the
    page's top block — "Load more" stubs, orphan feed placeholders,
    stray UI strings floating between chrome.

    Runs (not single blocks) are the unit because article-internal
    structure — table cells, captions, definition lists, headings — is
    individually weak but sits in one contiguous run with the strong
    paragraphs (zero-score link farms break runs, content never does),
    so the run containing the page max is always safe. Real-page
    fixtures ``infinite_scroll_stub`` and ``data_table``
    (tests/test_realpages.py) pin both sides of this rule.

    Over several back-to-back pages (``offsets`` as in
    ``keep_global_otsu``) runs end at page edges and each page is
    weighed against its own max, so a one-block page comes back
    unchanged. A run's mass is summed in block order from zero, as the
    one-page computation sums it."""
    if len(raw) < 2:
        return smoothed
    offsets = _page_offsets(raw, offsets)
    counts = np.diff(offsets)
    live = counts > 0
    mx = np.repeat(np.maximum.reduceat(raw, offsets[:-1][live]), counts[live])
    pos = raw > 0
    after_pos = np.concatenate(([False], pos[:-1]))
    after_pos[offsets[:-1][live]] = False
    run_id = np.cumsum(pos & ~after_pos) * pos  # 0 marks non-positive gaps
    run_sum = np.bincount(run_id, weights=raw)[run_id]
    weak = pos & (run_sum < ISOLATED_FRAC * mx)
    return np.where(weak, 0.0, smoothed)


def _page_offsets(scores: np.ndarray,
                  offsets: np.ndarray | None) -> np.ndarray:
    """``offsets`` as an intp array; ``None`` means one page."""
    if offsets is None:
        return np.array([0, len(scores)], dtype=np.intp)
    return np.asarray(offsets, dtype=np.intp)


def _runs(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per element of back-to-back runs of ``lengths``: its run's index
    and its position inside the run."""
    row = np.repeat(np.arange(len(lengths)), lengths)
    return row, np.arange(len(row)) - (np.cumsum(lengths) - lengths)[row]


def _otsu_thresholds(ls: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per page: Otsu's threshold over its log1p-score histogram, in raw
    score space; ``-1.0`` for a single-level or empty page.

    Bit-for-bit the per-page ``np.histogram`` + cumulative-sum
    computation, batched: segmented min/max; ``np.linspace`` over the
    non-degenerate pages only (one zero step anywhere would switch it
    to its other rounding path); ``np.histogram``'s uniform-bin index
    with its ±1 edge correction; one ``bincount``; row-wise
    ``cumsum`` (sequential, so equal to the per-page sums)."""
    counts = np.diff(offsets)
    t = np.full(len(counts), -1.0)
    live = np.flatnonzero(counts)
    if len(live) == 0:
        return t
    lo = np.minimum.reduceat(ls, offsets[live])
    hi = np.maximum.reduceat(ls, offsets[live])
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        # np.histogram's own check on the range
        raise ValueError("otsu: log-score range is not finite")
    split = hi - lo >= 1e-12
    pages = live[split]
    if len(pages) == 0:
        return t
    lo, hi = lo[split], hi[split]
    edges = np.linspace(lo, hi, N_BINS + 1, axis=1)
    row, i = _runs(counts[pages])
    x = ls[offsets[pages][row] + i]
    b = ((x - lo[row]) / (hi - lo)[row] * N_BINS).astype(np.intp)
    b[b == N_BINS] -= 1
    b[x < edges[row, b]] -= 1
    b[(x >= edges[row, b + 1]) & (b != N_BINS - 1)] += 1
    hist = np.bincount(row * N_BINS + b, minlength=len(pages) * N_BINS)
    p = hist.reshape(len(pages), N_BINS) / counts[pages][:, None]
    centers = (edges[:, :-1] + edges[:, 1:]) / 2.0
    w0 = np.cumsum(p, axis=1)
    w1 = 1.0 - w0
    mu = np.cumsum(p * centers, axis=1)
    mu_t = mu[:, -1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        between = np.where(
            (w0 > 0) & (w1 > 0), (mu_t * w0 - mu) ** 2 / (w0 * w1), 0.0
        )
    k = np.argmax(between, axis=1)  # first maximum → deterministic
    t[pages] = np.expm1(edges[np.arange(len(pages)), k + 1])
    return t


def otsu_threshold(scores: np.ndarray) -> float:
    """Otsu's method over log1p(score) histogram: the threshold (in log
    space) maximizing between-class variance. Returns the threshold in
    *raw score* space (``-1.0`` for a single-level page). Faithful to
    the classic algorithm (public knowledge), applied to block scores
    instead of pixels."""
    offsets = _page_offsets(scores, None)
    return float(_otsu_thresholds(np.log1p(scores), offsets)[0])


def _nonempty(keep: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """The variants' shared fallback: never emit an empty page if any
    block scored > 0 — keep the argmax alone (deterministic: first
    max)."""
    if not keep.any() and scores.max() > 0:
        keep = np.zeros(len(scores), dtype=bool)
        keep[int(np.argmax(scores))] = True
    return keep


def _kept_per_page(keep: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    page = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    return np.bincount(page[keep], minlength=len(offsets) - 1)


def _fill_empty_pages(keep: np.ndarray, scores: np.ndarray,
                      offsets: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """``_nonempty`` on each non-empty page that kept no block (rare)."""
    for j in np.flatnonzero((kept == 0) & (np.diff(offsets) > 0)):
        a, b = offsets[j], offsets[j + 1]
        keep[a:b] = _nonempty(keep[a:b], scores[a:b])
    return keep


def keep_global_otsu(scores: np.ndarray,
                     offsets: np.ndarray | None = None) -> np.ndarray:
    """Variant A — global threshold from the page's score histogram.

    ``scores`` may hold several pages back to back, page ``j`` being
    ``scores[offsets[j]:offsets[j + 1]]`` (``offsets=None``: one
    page); the keep mask is aligned with ``scores`` and each page's
    slice equals its own one-page result.

    Otsu assumes a bimodal histogram; an all-content page (e.g. a PDF
    with uniform block scores) is unimodal and a blind threshold would
    cut the cluster in half. Guard: if the two classes' raw-score means
    are not well separated (< 3×), the page is single-class → keep
    every positive-score block."""
    offsets = _page_offsets(scores, offsets)
    counts = np.diff(offsets)
    t = _otsu_thresholds(np.log1p(scores), offsets)
    keep = scores > np.repeat(np.maximum(t, 0.0), counts)
    kept = _kept_per_page(keep, offsets)
    # the guard's class means stay per page: a batched (reduceat) sum
    # does not round like ndarray.mean, and could flip a decision
    for j in np.flatnonzero((kept > 0) & (kept < counts)):
        a, b = offsets[j], offsets[j + 1]
        s, kj = scores[a:b], keep[a:b]
        lo_mean = float(s[~kj].mean())
        hi_mean = float(s[kj].mean())
        if hi_mean < 3.0 * max(lo_mean, 1.0):
            keep[a:b] = s > 0
    return _fill_empty_pages(keep, scores, offsets, kept)


def _padded_rows(ls: np.ndarray, offsets: np.ndarray, pages: np.ndarray,
                 half: int, width: int) -> np.ndarray:
    """A (pages × ``width``) zero matrix, row j holding ``[0, page j's
    log-scores edge-padded by half]`` (what the one-page ``np.pad`` +
    leading zero builds). Its own function so the index temporaries
    are freed before the caller's cumsums allocate."""
    n = offsets[pages + 1] - offsets[pages]
    row, q = _runs(n + 2 * half)
    # padded position q reads the page's block clip(q - half, 0, n - 1)
    src = offsets[pages][row] + np.clip(q - half, 0, (n - 1)[row])
    mat = np.zeros((len(pages), width))
    mat[row, q + 1] = ls[src]
    return mat


def _window_sums(ls: np.ndarray, offsets: np.ndarray, pages: np.ndarray,
                 window: int) -> tuple[np.ndarray, np.ndarray]:
    """Per block of ``pages``: the sum and the sum of squares of the
    ``window`` edge-padded log-scores centred on it, from a row-wise
    ``cumsum`` of its page's padded row, as the one-page computation
    does (a cumsum across pages would round differently). Pages share a
    matrix only with pages of the same power-of-two padded length, so
    scratch stays within 2× the padded blocks however ragged the batch
    is."""
    half = window // 2
    s1 = np.empty(len(ls))
    s2 = np.empty(len(ls))
    padded = offsets[pages + 1] - offsets[pages] + 2 * half
    width_exp = np.frexp(padded.astype(np.float64))[1]  # 2**e > padded
    for e in np.unique(width_exp):
        bucket = pages[width_exp == e]
        mat = _padded_rows(ls, offsets, bucket, half, 1 << int(e))
        c1 = np.cumsum(mat, axis=1)
        mat *= mat
        c2 = np.cumsum(mat, axis=1, out=mat)
        row, i = _runs(offsets[bucket + 1] - offsets[bucket])
        idx = offsets[bucket][row] + i
        s1[idx] = c1[row, i + window] - c1[row, i]
        s2[idx] = c2[row, i + window] - c2[row, i]
    return s1, s2


def keep_local_sauvola(scores: np.ndarray,
                       offsets: np.ndarray | None = None) -> np.ndarray:
    """Variant B — Sauvola-style local adaptive threshold, over one or
    several back-to-back pages (``offsets`` as in ``keep_global_otsu``).

    T_i = m_i · (1 + k·(s_i/R − 1)) over a centered window of
    ``SAUVOLA_WINDOW`` blocks in reading order (m=mean, s=std of log1p
    scores, k = ``SAUVOLA_K``, R = ``SAUVOLA_R``);
    keep block i if log1p(score_i) > T_i, score > 0, AND above a global
    floor of 25% of the page's max log-score (the analog of Sauvola's
    dependence on the global dynamic range R — a purely local rule
    would keep boilerplate islands surrounded by more boilerplate).
    Still differs from variant A on borderline pages — the
    disagreement feeds the merge/vote stage (SURVEY.md §2.2)."""
    offsets = _page_offsets(scores, offsets)
    counts = np.diff(offsets)
    live = np.flatnonzero(counts)
    if len(live) == 0:
        return np.zeros(len(scores), dtype=bool)
    ls = np.log1p(scores)
    peak = np.zeros(len(counts))
    peak[live] = np.maximum.reduceat(ls, offsets[live])
    # windowed mean/std via cumulative sums (vectorized, O(n))
    s1, s2 = _window_sums(ls, offsets, live, SAUVOLA_WINDOW)
    m = s1 / SAUVOLA_WINDOW
    var = np.maximum(s2 / SAUVOLA_WINDOW - m * m, 0.0)
    s = np.sqrt(var)
    t = m * (1.0 + SAUVOLA_K * (s / SAUVOLA_R - 1.0))
    floor = np.repeat(0.25 * peak, counts)
    keep = (ls > t) & (scores > 0) & (ls > floor)
    return _fill_empty_pages(keep, scores, offsets,
                             _kept_per_page(keep, offsets))


def keep_nlbin(scores: np.ndarray) -> np.ndarray:
    """Variant C — kraken-nlbin-style percentile normalization
    (nidaba plugins/kraken.py nlbin exposes perc/low/high/threshold
    knobs, UNVERIFIED per SURVEY.md §0): flatten the page's dynamic
    range to [0,1] between the ``NLBIN_LOW``/``NLBIN_HIGH`` percentiles
    of the positive log-scores, keep blocks above ``NLBIN_THRESHOLD``. A third
    ensemble member for the vote — agrees with Otsu on clean pages,
    differs on pages with a compressed score range."""
    n = len(scores)
    if n == 0:
        return np.zeros(0, dtype=bool)
    ls = np.log1p(scores)
    pos = np.sort(ls[scores > 0])
    if len(pos) == 0:
        return np.zeros(n, dtype=bool)

    def _pct(p: float) -> float:
        # identical to np.percentile(method='linear') but ~10× faster
        # on the tiny per-page arrays this sees (profiled: percentile
        # overhead was 10% of the whole pipeline)
        x = (len(pos) - 1) * p / 100.0
        i = int(x)
        frac = x - i
        return float(pos[i]) if frac == 0 else float(
            pos[i] + frac * (pos[i + 1] - pos[i])
        )

    lo = _pct(NLBIN_LOW)
    hi = _pct(NLBIN_HIGH)
    if hi - lo < 1e-12:
        return scores > 0
    norm = np.clip((ls - lo) / (hi - lo), 0.0, 1.0)
    keep = (norm > NLBIN_THRESHOLD) & (scores > 0)
    return _nonempty(keep, scores)
