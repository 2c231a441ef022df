"""The shared 64-bit-fingerprint dedup machinery on its edge shapes:
an all-quarantined hash table yields empty typed results (no join over
an empty key schema), and the exact-dup groups come back as a sorted
Dataset rather than a driver-side table."""
from __future__ import annotations

import pyarrow as pa


def _hashes(ids, dhash, ahash, errors):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "dhash": pa.array(dhash, pa.int64()),
        "ahash": pa.array(ahash, pa.int64()),
        "error": pa.array(errors, pa.string()),
    }))


_ALL_BAD = ([1, 2], [0, 0], [0, 0],
            ["ValueError: not an image", "ValueError: truncated"])


def test_exact_dup_groups_on_all_quarantined_hashes(ray_session):
    from nidaba_ray.functions.hammingdedup import exact_dup_groups

    groups = exact_dup_groups(_hashes(*_ALL_BAD), ("dhash", "ahash"),
                              "media_id")
    assert groups.count() == 0
    assert groups.schema().names == ["media_id", "group_id"]
    assert list(groups.schema().types) == [pa.int64(), pa.int64()]


def test_near_dup_pairs_on_all_quarantined_hashes(ray_session):
    from nidaba_ray.functions.hammingdedup import near_dup_pairs

    pairs = near_dup_pairs(_hashes(*_ALL_BAD), "dhash", "media_id")
    assert pairs.num_rows == 0
    assert pairs.schema == pa.schema([("id_a", pa.int64()),
                                      ("id_b", pa.int64()),
                                      ("hamming", pa.int64())])


def test_image_wrappers_on_all_quarantined_media(ray_session):
    import ray.data as rd

    from nidaba_ray.functions.imagededup import (
        image_exact_dup_groups,
        image_near_dup_pairs,
    )

    media = rd.from_arrow(pa.table({
        "media_id": pa.array([1, 2], pa.int64()),
        "kind": pa.array(["image", "image"]),
        "payload": pa.array([b"not an image", b"\x89PNG\r\n\x1a\ncut"],
                            pa.binary()),
    }))
    assert image_exact_dup_groups(media).count() == 0
    assert image_near_dup_pairs(media).num_rows == 0


def test_exact_dup_groups_is_a_sorted_dataset(ray_session):
    import ray.data as rd

    from nidaba_ray.functions.hammingdedup import exact_dup_groups

    # ids out of order; 7/3/9 share both hashes, 5 shares only dhash,
    # 4 is quarantined
    hashes = _hashes([7, 5, 3, 9, 4, 8], [11, 11, 11, 11, 11, -2],
                     [6, 1, 6, 6, 6, 6], ["", "", "", "", "boom", ""])
    groups = exact_dup_groups(hashes, ("dhash", "ahash"), "media_id")
    assert isinstance(groups, rd.Dataset)
    assert groups.take_all() == [
        {"media_id": 3, "group_id": 3},
        {"media_id": 5, "group_id": 5},
        {"media_id": 7, "group_id": 3},
        {"media_id": 8, "group_id": 8},
        {"media_id": 9, "group_id": 3},
    ]
