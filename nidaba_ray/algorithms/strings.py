"""String kernels — analog of nidaba/algorithms/string.py (UNVERIFIED
citations per SURVEY.md §0; semantics reconstructed from the public repo).

All functions are pure and deterministic. The unit-cost kernels
(``edit_distance``, ``lcs_align``) share one bit-parallel DP
(``_bit_columns``); the weighted ``full_edit_distance`` keeps the
numpy DP matrix.

Reference analogs:
    sanitize              ~ nidaba/algorithms/string.py:sanitize (NFC/NFD)
    split_paragraphs      plain-text paragraphs (blank-line split)
    edit_distance         ~ string.py:edit_distance (Levenshtein)
    full_edit_distance    ~ string.py:full_edit_distance (DP matrix + ops)
    lcs_align             ~ string.py semi-global alignment + np_backtrace
    strings_by_deletion   ~ string.py:strings_by_deletion (SymSpell keys)
    sym_suggest           ~ string.py:sym_suggest / mapped_sym_suggest
"""

from __future__ import annotations

import re
import unicodedata
from itertools import combinations
from typing import Sequence

import numpy as np

__all__ = [
    "sanitize",
    "split_paragraphs",
    "PARA_SPLIT_RE",
    "WS_RUN_RE",
    "edit_distance",
    "full_edit_distance",
    "lcs_align",
    "align_vote",
    "strings_by_deletion",
    "sym_suggest",
]


def sanitize(text: str, normalization: str = "NFC") -> str:
    """Unicode-normalize and strip — nidaba's sanitize semantics.

    Normalization is pinned to NFC by default (SURVEY.md §7 hard parts:
    byte-identical determinism requires one canonical form).
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    return unicodedata.normalize(normalization, text.strip())


PARA_SPLIT_RE = re.compile(r"\n[ \t]*\n+")  # a blank line ends a paragraph
WS_RUN_RE = re.compile(r"[ \t\r\n]+")


def split_paragraphs(text: str) -> list[str]:
    """Plain text → paragraphs: split on blank lines, collapse each
    whitespace run to one space, drop the empty ones."""
    paras = (WS_RUN_RE.sub(" ", p).strip() for p in PARA_SPLIT_RE.split(text))
    return [p for p in paras if p]


def _bit_columns(a: Sequence, b: Sequence):
    """The unit-cost edit DP of ``a`` against ``b`` as bit-parallel
    columns (Myers 1999, Hyyrö 2003): yields ``(VP_j, VN_j)`` for
    ``j = 0..len(b)``, Python ints over the rows of ``a``, bit ``i - 1``
    set where ``D(i, j) - D(i - 1, j)`` is +1 (VP) or -1 (VN). So
    ``D(i, j) = j + popcount(VP_j & (2**i - 1)) - popcount(VN_j & (2**i - 1))``.
    One column costs a dozen big-int operations, O(len(a) / 64) words."""
    full = (1 << len(a)) - 1
    peq: dict = {}  # token -> the rows of ``a`` holding it
    for i, t in enumerate(a):
        peq[t] = peq.get(t, 0) | (1 << i)
    vp, vn = full, 0  # D(i, 0) = i
    yield vp, vn
    for t in b:
        eq = peq.get(t, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        hp = ((hp << 1) | 1) & full  # D(0, j) - D(0, j - 1) = +1
        hn = (hn << 1) & full
        vp = (hn | ~(xv | hp)) & full
        vn = hp & xv
        yield vp, vn


def edit_distance(s1: Sequence, s2: Sequence) -> int:
    """Levenshtein distance over characters or token sequences.

    Read off the last bit-parallel column (:func:`_bit_columns`, Myers
    1999 / Hyyrö 2003): ``len(b) + popcount(VP) - popcount(VN)``, with
    the bits over the longer sequence and one column per item of the
    shorter; O(len(s1)*len(s2)/64) time, O(max) space.
    """
    if s1 == s2:
        return 0
    if len(s1) < len(s2):
        s1, s2 = s2, s1
    if not s2:
        return len(s1)
    for vp, vn in _bit_columns(s1, s2):
        pass
    return len(s2) + vp.bit_count() - vn.bit_count()


def _sub_cost_row(
    tok, b_toks: Sequence, b_codes: np.ndarray, a_code: int,
    substitutionscore, charmatrix: dict | None,
) -> np.ndarray:
    """Vectorized substitution-cost vector of one DP row: flat
    (0 on match, ``substitutionscore`` otherwise) with per-pair
    ``charmatrix[(s1_tok, s2_tok)]`` overrides — nidaba's OCR-confusion
    weighting (full_edit_distance charmatrix arg, SURVEY.md §2.5)."""
    cost = np.where(b_codes == a_code, 0.0, float(substitutionscore))
    if charmatrix:
        for j, bt in enumerate(b_toks):
            w = charmatrix.get((tok, bt))
            if w is not None:
                cost[j] = float(w)
    return cost


def _dp_matrix(
    s1: Sequence,
    s2: Sequence,
    substitutionscore: float = 1,
    insertscore: float = 1,
    deletescore: float = 1,
    charmatrix: dict | None = None,
) -> np.ndarray:
    """Full (n+1)×(m+1) edit DP matrix, row-vectorized.

    The sequential insert chain ``dp[i,j] = min(..., dp[i,j-1]+ins)`` is
    linearized with the min-accumulate identity
    ``dp[i,j] = min_k (best[k] + (j-k)·ins)`` (unit-cost chains); valid
    because insertscore is constant along a row (charmatrix weights
    substitutions only, so the identity survives weighting).

    ``charmatrix`` maps (s1_token, s2_token) → substitution cost,
    overriding the flat score for those pairs (including equal pairs,
    matching the reference's per-pair semantics); with it the DP runs
    in float64, otherwise int32 as before."""
    n, m = len(s1), len(s2)
    # token → int codes for vectorized equality
    vocab: dict = {}
    a = np.fromiter((vocab.setdefault(t, len(vocab)) for t in s1), dtype=np.int64, count=n)
    b = np.fromiter((vocab.setdefault(t, len(vocab)) for t in s2), dtype=np.int64, count=m)
    floaty = bool(charmatrix) or any(
        isinstance(x, float) for x in (substitutionscore, insertscore, deletescore)
    )
    dtype = np.float64 if floaty else np.int32
    dp = np.empty((n + 1, m + 1), dtype=dtype)
    dp[0, :] = np.arange(m + 1, dtype=dtype) * insertscore
    dp[:, 0] = np.arange(n + 1, dtype=dtype) * deletescore
    if m == 0 or n == 0:
        return dp
    j_ins = np.arange(1, m + 1, dtype=dtype) * insertscore
    for i in range(1, n + 1):
        cost = _sub_cost_row(s1[i - 1], s2, b, a[i - 1],
                             substitutionscore, charmatrix).astype(dtype)
        best = np.minimum(dp[i - 1, 1:] + deletescore, dp[i - 1, :-1] + cost)
        if best[0] > dp[i, 0] + insertscore:
            best[0] = dp[i, 0] + insertscore
        if floaty:
            # exact single-add arithmetic (no subtract/re-add): the
            # accumulate trick's `best - j_ins + j_ins` rounds float
            # cell values, which breaks the backtrace's exact-equality
            # branch tests. Weighted use is word-level (short rows).
            prev_cell = best[0]
            dp[i, 1] = prev_cell
            for j in range(1, m):
                prev_cell = min(best[j], prev_cell + insertscore)
                dp[i, j + 1] = prev_cell
        else:
            dp[i, 1:] = np.minimum.accumulate(best - j_ins) + j_ins
    return dp


def full_edit_distance(
    s1: Sequence,
    s2: Sequence,
    substitutionscore: float = 1,
    insertscore: float = 1,
    deletescore: float = 1,
    charmatrix: dict | None = None,
) -> tuple[float, str]:
    """Edit distance plus a compact edit script (ops string).

    Returns ``(distance, ops)`` where ops is a string over
    ``M`` (match), ``S`` (substitute), ``I`` (insert into s1), ``D``
    (delete from s1) — nidaba's full matrix variant exposed the same
    information via the DP matrix + backtrace.

    ``charmatrix`` maps (s1_token, s2_token) pairs to a substitution
    cost overriding ``substitutionscore`` — the reference's
    OCR-confusion weighting (cheap 'rn'→'m' style confusions).
    Distance is int when all costs are ints and no charmatrix is
    given (flat-case reduction pinned in tests), float otherwise.
    """
    n, m = len(s1), len(s2)
    dp = _dp_matrix(s1, s2, substitutionscore, insertscore, deletescore,
                    charmatrix)

    def sub_cost(x, y) -> float:
        if charmatrix:
            w = charmatrix.get((x, y))
            if w is not None:
                return float(w)
        return 0.0 if x == y else float(substitutionscore)

    # backtrace
    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dp[i, j] == dp[i - 1, j - 1] + sub_cost(
            s1[i - 1], s2[j - 1]
        ):
            ops.append("M" if s1[i - 1] == s2[j - 1] else "S")
            i, j = i - 1, j - 1
        elif i > 0 and dp[i, j] == dp[i - 1, j] + deletescore:
            ops.append("D")
            i -= 1
        else:
            ops.append("I")
            j -= 1
    dist = dp[n, m]
    return (float(dist) if dp.dtype == np.float64 else int(dist)), \
        "".join(reversed(ops))


def lcs_align(a: Sequence, b: Sequence) -> list[tuple[int | None, int | None]]:
    """Global alignment of two token sequences (Needleman-Wunsch with
    unit costs). Returns aligned index pairs ``(i, j)``; ``None`` marks a
    gap. Deterministic tie-break order: diagonal > delete > insert.

    The DP is kept as bit-parallel columns (Myers 1999 / Hyyrö 2003,
    :func:`_bit_columns`): ``D(i, j) = j + popcount(VP_j & (2**i - 1))
    - popcount(VN_j & (2**i - 1))``, 2·len(b) ints of len(a) bits
    instead of an (n+1)×(m+1) matrix. The backtrace reads the cells it
    visits: a match is always diagonal (``D(i, j) = D(i-1, j-1)``), and
    every other step lowers ``D`` by one.

    Analog of nidaba's semi-global alignment + np_backtrace
    (string.py:≈200-450, UNVERIFIED).
    """
    cols = list(_bit_columns(a, b))

    def dist(i: int, j: int) -> int:
        vp, vn = cols[j]
        low = (1 << i) - 1
        return j + (vp & low).bit_count() - (vn & low).bit_count()

    pairs: list[tuple[int | None, int | None]] = []
    i, j = len(a), len(b)
    d = dist(i, j)
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            cost = int(a[i - 1] != b[j - 1])
            if not cost or dist(i - 1, j - 1) == d - 1:
                pairs.append((i - 1, j - 1))
                i, j, d = i - 1, j - 1, d - cost
                continue
        d -= 1
        if i > 0 and cols[j][0] >> (i - 1) & 1:  # D(i, j) = D(i-1, j) + 1
            pairs.append((i - 1, None))
            i -= 1
        else:
            pairs.append((None, j - 1))
            j -= 1
    pairs.reverse()
    return pairs


def align_vote(
    candidates: Sequence[Sequence[str]],
    scores: Sequence[float] | None = None,
) -> list[str]:
    """Token-level majority vote over K candidate token sequences of the
    same document — the merge_hocr.merge analog (SURVEY.md §2.5).

    Alignment strategy: the highest-priority candidate is the backbone;
    every other candidate is globally aligned onto it with
    :func:`lcs_align`; each backbone position votes over the aligned
    tokens. Deterministic total order for tie-breaks (SURVEY.md §7 hard
    parts): higher vote count wins; then higher candidate score; then
    lower candidate index. Tokens inserted relative to the backbone are
    kept only when a strict majority of candidates agrees on the
    insertion at the same backbone gap.
    """
    cands = [list(c) for c in candidates]
    if not cands:
        return []
    if scores is None:
        scores = [0.0] * len(cands)
    # fast path: two identical candidates decide immediately (common case:
    # both DOM-threshold variants agree; noisy third is outvoted wholesale).
    for x, y in combinations(range(len(cands)), 2):
        if cands[x] == cands[y]:
            return cands[x]
    if len(cands) == 1:
        return cands[0]
    # backbone = deterministic priority: score desc, then index asc
    order = sorted(range(len(cands)), key=lambda k: (-scores[k], k))
    backbone = cands[order[0]]
    # votes[i][token] -> count; insertions are RUNS of consecutive
    # unaligned tokens keyed by the backbone gap they precede — voting
    # per-token would scramble within-run order.
    votes: list[dict[str, int]] = [dict() for _ in backbone]
    ins_runs: list[list[tuple[int, tuple[str, ...]]]] = [
        [] for _ in range(len(backbone) + 1)
    ]
    for rank, k in enumerate(order):
        if rank == 0:
            for i, t in enumerate(backbone):
                votes[i][t] = votes[i].get(t, 0) + 1
            continue
        pairs = lcs_align(backbone, cands[k])
        run: list[str] = []
        for bi, cj in pairs:
            if bi is None and cj is not None:
                run.append(cands[k][cj])
                continue
            if bi is not None:
                if run:
                    ins_runs[bi].append((rank, tuple(run)))
                    run = []
                if cj is not None:
                    t = cands[k][cj]
                    votes[bi][t] = votes[bi].get(t, 0) + 1
        if run:
            ins_runs[len(backbone)].append((rank, tuple(run)))
    k_cand = len(cands)
    out: list[str] = []
    for i in range(len(backbone) + 1):
        runs = ins_runs[i]
        if runs:
            counts: dict[tuple[str, ...], int] = {}
            for _, seq in runs:
                counts[seq] = counts.get(seq, 0) + 1
            best_seq = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            if best_seq[1] * 2 > k_cand:
                out.extend(best_seq[0])  # exact-run majority
            elif len(runs) >= 2:
                # ≥2 candidates insert *something* here (the backbone is
                # the odd one out, e.g. a threshold variant dropped a
                # real block): sub-vote among the runs, priority order.
                runs_sorted = sorted(runs, key=lambda rs: rs[0])
                out.extend(
                    align_vote(
                        [list(seq) for _, seq in runs_sorted],
                        scores=[-rank for rank, _ in runs_sorted],
                    )
                )
            # a single minority run is dropped (boilerplate kept by one
            # variant never reaches the canonical text)
        if i < len(backbone):
            # deterministic winner: count desc, backbone-first, token asc.
            # The backbone token wins ties — a lone disagreeing candidate
            # (e.g. character noise in the input `text` column) must not
            # displace the agreed extraction (byte-identity invariant).
            best = sorted(
                votes[i].items(),
                key=lambda kv: (-kv[1], kv[0] != backbone[i], kv[0]),
            )[0]
            out.append(best[0])
    return out


def strings_by_deletion(word: str, max_dist: int = 2) -> set[str]:
    """All strings derivable by deleting up to ``max_dist`` characters —
    the SymSpell-style deletion-dictionary keys (nidaba/lex.py analog).
    """
    out = {word}
    frontier = {word}
    for _ in range(max_dist):
        nxt = set()
        for w in frontier:
            for i in range(len(w)):
                nxt.add(w[:i] + w[i + 1 :])
        nxt -= out
        out |= nxt
        frontier = nxt
    return out


def sym_suggest(
    token: str,
    deletion_index: dict[str, tuple[str, ...]],
    max_dist: int = 2,
) -> list[str]:
    """Spell-correction candidates for ``token`` from a precomputed
    deletion index (key -> dictionary words sharing that deletion form),
    ranked by edit distance then lexicographically — nidaba's
    sym_suggest/suggestions analog.
    """
    seen: set[str] = set()
    for key in strings_by_deletion(token, max_dist):
        for w in deletion_index.get(key, ()):
            seen.add(w)
    ranked = sorted((d, w) for d, w in ((edit_distance(token, w), w) for w in seen)
                    if d <= max_dist)
    return [w for _, w in ranked]
