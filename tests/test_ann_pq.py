"""Arrow-native decode kernels of functions/ann.py — pure unit tests
(no Ray): each helper must agree exactly with the naive Python path it
replaced."""

from __future__ import annotations

import numpy as np
import pytest


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
