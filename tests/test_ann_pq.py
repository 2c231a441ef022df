"""PQ-ADC approximate top-k (functions/ann.py ann_topk_pq) — recall
vs the exact baseline, layout-invariance (the global ADC-top-R trim
makes the result a pure function of the data), and the compression
contract (uint8 codes)."""

from __future__ import annotations

import numpy as np
import pytest

SF = "/root/testdata/sf0.01"


def test_pq_recall_vs_bruteforce(ray_session):
    from nidaba_ray.functions.ann import ann_topk_bruteforce, ann_topk_pq

    exact = set(ann_topk_bruteforce(SF, k=10).to_pandas()["vec_id"])
    approx = set(ann_topk_pq(SF, k=10).to_pandas()["vec_id"])
    recall = len(exact & approx) / 10
    assert recall >= 0.8, recall


def test_pq_rerank_full_is_exact(ray_session):
    """With rerank == corpus size the ADC stage is only candidate
    ordering; the exact rerank must reproduce the brute-force answer
    bit-for-bit (same rounding contract)."""
    from nidaba_ray.functions.ann import ann_topk_bruteforce, ann_topk_pq

    exact = ann_topk_bruteforce(SF, k=10).to_pandas()
    full = ann_topk_pq(SF, k=10, rerank=10_000).to_pandas()
    assert list(full["vec_id"]) == list(exact["vec_id"])
    assert np.allclose(full["cos_sim"], exact["cos_sim"])


def test_pq_layout_invariant(ray_session):
    """Same result regardless of block layout — the per-batch partial
    top-R union is trimmed to the global ADC top-R before rerank."""
    import ray.data as rd

    from nidaba_ray.functions.ann import ann_topk_pq

    base = ann_topk_pq(SF, k=10).to_pandas()
    ctx = rd.DataContext.get_current()
    old = ctx.read_op_min_num_blocks
    try:
        ctx.read_op_min_num_blocks = 37  # force a different layout
        alt = ann_topk_pq(SF, k=10).to_pandas()
    finally:
        ctx.read_op_min_num_blocks = old
    assert list(base["vec_id"]) == list(alt["vec_id"])
    assert np.allclose(base["cos_sim"], alt["cos_sim"])


def test_pq_codebooks_and_codes_shapes():
    from nidaba_ray.functions.ann import _pq_encode, _pq_train_codebooks

    rng = np.random.default_rng(7)
    sample = rng.normal(size=(300, 64))
    sample /= np.linalg.norm(sample, axis=1, keepdims=True)
    books = _pq_train_codebooks(sample, m_sub=8, ks=16)
    assert books.shape == (8, 16, 8)
    codes = _pq_encode(sample, books)
    assert codes.dtype == np.uint8 and codes.shape == (300, 8)
    assert codes.max() < 16
    # encoding is the argmin of the trained books — re-encoding the
    # codebook centroids themselves is the identity
    centroid_rows = np.concatenate(
        [books[:, c, :].reshape(1, -1) for c in range(16)]
    )
    cc = _pq_encode(centroid_rows, books)
    assert (cc == np.arange(16)[:, None]).all()


def test_pq_training_deterministic():
    from nidaba_ray.functions.ann import _pq_train_codebooks

    rng = np.random.default_rng(11)
    sample = rng.normal(size=(200, 64))
    a = _pq_train_codebooks(sample, 8, 16)
    b = _pq_train_codebooks(sample.copy(), 8, 16)
    assert (a == b).all()


def test_kmeanspp_init_deterministic_and_valid():
    from nidaba_ray.functions.ann import _kmeanspp_init

    rng = np.random.default_rng(3)
    pts = rng.normal(size=(120, 8))
    a = _kmeanspp_init(pts, 16, tag="t")
    b = _kmeanspp_init(pts.copy(), 16, tag="t")
    assert (a == b).all()
    assert (a[0] == pts[0]).all()  # center 0 is row 0 by contract
    # every center is an actual sample row
    for c in a:
        assert (np.abs(pts - c[None, :]).sum(axis=1) == 0).any()
    # a different tag draws a different (still valid) seeding
    c = _kmeanspp_init(pts, 16, tag="u")
    assert not (a == c).all()
    # degenerate: fewer distinct points than ks → unused rows in order
    dup = np.zeros((5, 4))
    got = _kmeanspp_init(dup, 4, tag="t")
    assert got.shape == (4, 4)


def test_kmeanspp_cuts_quantization_error():
    """Pathological sample: the first ks rows all sit in one tight
    cluster, so the old first-ks init starts with every codeword in
    the same place and Lloyd can't spread them; k-means++ D²-weighted
    seeding escapes it. Assert the trained books quantize strictly
    better than first-ks-init books trained identically."""
    from nidaba_ray.functions.ann import _pq_train_codebooks, _sqdist

    rng = np.random.default_rng(19)
    ks, dsub = 16, 8
    tight = rng.normal(scale=0.01, size=(ks, dsub))          # one blob
    spread = (rng.normal(scale=0.3, size=(240, dsub))
              + 10.0 * rng.integers(0, 6, size=(240, 1)))    # 6 blobs
    sample = np.concatenate([tight, spread])                  # (256, 8)

    def err(books):
        return float(_sqdist(sample, books[0]).min(axis=1).mean())

    new = _pq_train_codebooks(sample, m_sub=1, ks=ks)

    # old init, same Lloyd loop
    cb = sample[:ks].copy()
    for _ in range(8):
        assign = _sqdist(sample, cb).argmin(axis=1)
        nxt = cb.copy()
        for c in range(ks):
            mask = assign == c
            if mask.any():
                nxt[c] = sample[mask].mean(axis=0)
        if np.allclose(nxt, cb, atol=1e-12):
            break
        cb = nxt
    old_err = float(_sqdist(sample, cb).min(axis=1).mean())
    assert err(new) < old_err * 0.5, (err(new), old_err)


def test_ivfpq_full_rerank_equals_ivf_partitioned(ray_session):
    """IVFADC with rerank ≥ probed population must equal the
    partitioned IVF query exactly (same quantizer, same probes, exact
    rerank over everything the ADC scan saw)."""
    import numpy as np

    from nidaba_ray.functions.ann import (
        ann_topk_ivf_partitioned,
        ann_topk_ivfpq_partitioned,
    )

    want = ann_topk_ivf_partitioned(SF, k=10).to_pandas()
    got = ann_topk_ivfpq_partitioned(SF, k=10, rerank=10_000).to_pandas()
    assert list(got["vec_id"]) == list(want["vec_id"])
    assert np.allclose(got["cos_sim"], want["cos_sim"])


def test_ivfpq_recall_vs_ivf(ray_session):
    """Default-rerank IVFADC keeps most of the partitioned IVF's
    answer (both search the same probed lists; only the ADC candidate
    trim is lossy)."""
    from nidaba_ray.functions.ann import (
        ann_topk_ivf_partitioned,
        ann_topk_ivfpq_partitioned,
    )

    want = set(ann_topk_ivf_partitioned(SF, k=10).to_pandas()["vec_id"])
    got = set(ann_topk_ivfpq_partitioned(SF, k=10).to_pandas()["vec_id"])
    assert len(want & got) / 10 >= 0.8


def test_ivfpq_index_serves_plain_ivf_caller(ray_session):
    """After a PQ build installs a pq-bearing version, the plain IVF
    query accepts it (no rebuild ping-pong)."""
    import json
    import os

    from nidaba_ray.functions.ann import (
        _ivf_index_dir,
        ann_topk_ivf_partitioned,
        ann_topk_ivfpq_partitioned,
    )

    ann_topk_ivfpq_partitioned(SF, k=5)  # ensure a pq version is current
    base = _ivf_index_dir(SF, 16)
    with open(os.path.join(base, "CURRENT.json")) as f:
        cur = json.load(f)
    assert cur.get("pq") == [8, 16]
    before = cur["dir"]
    ann_topk_ivf_partitioned(SF, k=5)  # must reuse, not rebuild
    with open(os.path.join(base, "CURRENT.json")) as f:
        after = json.load(f)["dir"]
    assert after == before


def test_pq_parameter_validation():
    import numpy as np
    import pytest

    from nidaba_ray.functions.ann import _pq_train_codebooks

    sample = np.zeros((100, 64))
    with pytest.raises(ValueError, match="evenly divide"):
        _pq_train_codebooks(sample, m_sub=7, ks=16)   # 64 % 7 != 0
    with pytest.raises(ValueError, match="evenly divide"):
        _pq_train_codebooks(sample, m_sub=128, ks=16)  # dsub would be 0
    with pytest.raises(ValueError, match="lower ks"):
        _pq_train_codebooks(sample[:8], m_sub=8, ks=16)


# ---------------------------------------------------------------------------
# Round-4 Arrow-native decode kernels — pure unit tests (no Ray):
# each helper must agree exactly with the naive Python path it replaced.
# ---------------------------------------------------------------------------


def test_embedding_matrix_matches_tolist_paths():
    import pyarrow as pa

    from nidaba_ray.functions.ann import _embedding_matrix

    rng = np.random.default_rng(7)
    m = rng.standard_normal((13, 6))
    want = np.array(m.tolist(), dtype=np.float64)

    var = pa.array(m.tolist(), pa.list_(pa.float64()))
    fixed = pa.FixedSizeListArray.from_arrays(
        pa.array(m.ravel(), pa.float64()), 6)
    chunked = pa.chunked_array([var[:5], var[5:]])
    sliced = var.slice(3, 7)  # nonzero offset
    f32 = pa.array(m.astype(np.float32).tolist(), pa.list_(pa.float32()))

    assert np.array_equal(_embedding_matrix(var), want)
    assert np.array_equal(_embedding_matrix(fixed), want)
    assert np.array_equal(_embedding_matrix(chunked), want)
    assert np.array_equal(_embedding_matrix(sliced), want[3:10])
    assert np.allclose(_embedding_matrix(f32), want, atol=1e-6)
    assert _embedding_matrix(var[:0]).shape == (0, 0)
    with pytest.raises(ValueError):
        _embedding_matrix(pa.array([[1.0, 2.0], [3.0]],
                                   pa.list_(pa.float64())))
    # null rows take the (correct) fallback path
    withnull = pa.array([[1.0, 2.0], None, [3.0, 4.0]],
                        pa.list_(pa.float64()))
    assert _embedding_matrix(withnull.drop_null()).shape == (2, 2)


def test_binary_matrix_matches_frombuffer_loop():
    import pyarrow as pa

    from nidaba_ray.functions.ann import _binary_matrix

    rng = np.random.default_rng(11)
    rows = rng.standard_normal((9, 4))
    payload = [r.tobytes() for r in rows]
    col = pa.array(payload, pa.binary())
    want = np.stack([np.frombuffer(b, dtype=np.float64) for b in payload])

    assert np.array_equal(_binary_matrix(col, np.float64), want)
    # sliced (nonzero offset, possibly unaligned for float64 view)
    assert np.array_equal(_binary_matrix(col.slice(2, 5), np.float64),
                          want[2:7])
    chunked = pa.chunked_array([col[:4], col[4:]])
    assert np.array_equal(_binary_matrix(chunked, np.float64), want)
    # uint8 codes
    codes = [bytes([i, i + 1, i + 2]) for i in range(5)]
    got = _binary_matrix(pa.array(codes, pa.binary()), np.uint8)
    assert got.tolist() == [list(c) for c in codes]
    # ragged input falls back to the stacking path only when widths
    # are uniform per dtype — ragged float widths raise via np.stack
    assert _binary_matrix(pa.array([], pa.binary()), np.uint8).shape == (0, 0)


def test_sqdist_matches_broadcast_subtract():
    from nidaba_ray.functions.ann import _sqdist

    rng = np.random.default_rng(3)
    m = rng.standard_normal((50, 16))
    c = rng.standard_normal((7, 16))
    want = ((m[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
    got = _sqdist(m, c)
    assert got.shape == want.shape
    assert np.allclose(got, want, atol=1e-10)
    assert (got >= 0).all()
    # identical rows -> exactly 0 after the clamp
    assert _sqdist(c, c).diagonal().max() == 0.0
