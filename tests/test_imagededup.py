"""Perceptual image dedup: hash determinism, container invariance
(the same pixels in five lossless wire formats form ONE exact group),
JPEG proximity, the pigeonhole ≡ brute-force equivalence (the simhash
precedent on the image modality), and error quarantine."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from nidaba_ray.functions.imagededup import (
    ImageHasher,
    ahash64,
    dhash64,
    image_exact_dup_groups,
    image_near_dup_pairs,
)


def _gradient(h=40, w=56):
    return (np.add.outer(np.arange(h) * 3, np.arange(w) * 2) % 256).astype(np.uint8)


def test_hash_pins_and_determinism():
    g = _gradient()
    assert dhash64(g) == dhash64(g.copy())
    assert ahash64(g) == ahash64(g.copy())
    # monotone-increasing rows → every left<right comparison true
    inc = np.tile(np.arange(9, dtype=np.uint8) * 10, (8, 1))
    assert dhash64(inc) == 0xFFFFFFFFFFFFFFFF
    dec = inc[:, ::-1].copy()
    assert dhash64(dec) == 0
    flat = np.full((16, 16), 9, np.uint8)
    assert dhash64(flat) == 0
    assert ahash64(flat) == 0xFFFFFFFFFFFFFFFF  # cell*64 >= sum everywhere
    # hashes are resolution-robust for smooth content: 2x upscale
    g2 = np.repeat(np.repeat(g, 2, axis=0), 2, axis=1)
    x = np.uint64(dhash64(g)) ^ np.uint64(dhash64(g2))
    assert bin(int(x)).count("1") <= 4


def _media_table(rows):
    return pa.table({
        "media_id": pa.array([r[0] for r in rows], pa.int64()),
        "kind": pa.array(["image"] * len(rows), pa.string()),
        "payload": pa.array([r[1] for r in rows], pa.binary()),
    })


def test_container_invariance_and_jpeg_proximity():
    from nidaba_ray.algorithms.gif import encode_gif
    from nidaba_ray.algorithms.jpeg import encode_jpeg
    from nidaba_ray.algorithms.png import encode_bmp, encode_png
    from nidaba_ray.algorithms.tiff import encode_tiff
    from nidaba_ray.algorithms.webp import encode_webp

    px = _gradient()
    rows = [
        (1, encode_png(px)),
        (2, encode_tiff(px, compression="lzw", predictor=2)),
        (3, encode_webp(px, use_palette=False)),
        (4, encode_gif(px)),
        (5, encode_bmp(np.stack([px] * 3, axis=2))),
        (6, encode_jpeg(px, quality=95)),
        (7, encode_jpeg(px, quality=95, progressive=True)),
    ]
    out = {r["media_id"]: r for r in ImageHasher()(_media_table(rows)).to_pylist()}
    assert all(r["error"] == "" for r in out.values())
    lossless = {out[i]["dhash"] for i in (1, 2, 3, 4, 5)}
    assert len(lossless) == 1  # five containers, one hash
    # the two JPEG modes decode identically → identical hashes
    assert out[6]["dhash"] == out[7]["dhash"]
    # lossy JPEG stays CLOSE to the lossless hash on smooth content
    x = np.uint64(np.int64(out[1]["dhash"])) ^ np.uint64(np.int64(out[6]["dhash"]))
    assert bin(int(x)).count("1") <= 6


def test_exact_groups_and_near_pairs_distributed(ray_session):
    import ray.data as rd

    from nidaba_ray.algorithms.png import encode_png

    base = _gradient()
    noisy = base.copy()
    noisy[10, 11] ^= 0x04  # one-pixel perturbation → near dup
    # NOTE a row-flipped/offset gradient hashes IDENTICALLY (dHash
    # sees only adjacent-cell comparisons) — a truly different image
    # needs different comparison structure, not different values
    other = np.random.default_rng(5).integers(
        0, 256, size=base.shape).astype(np.uint8)
    rows = [
        (1, encode_png(base)), (2, encode_png(base)),  # exact dups
        (3, encode_png(noisy)),
        (4, encode_png(other)),
        (5, b"not an image"),                          # quarantine row
    ]
    media = rd.from_arrow(_media_table(rows))
    groups = image_exact_dup_groups(media).to_pandas()
    gmap = dict(zip(groups["media_id"], groups["group_id"]))
    assert gmap[1] == gmap[2] == 1
    assert 5 not in gmap  # quarantined
    pairs = image_near_dup_pairs(media, max_hamming=6).to_pandas()
    pairset = set(zip(pairs["id_a"], pairs["id_b"]))
    assert (1, 2) in pairset and (1, 3) in pairset and (2, 3) in pairset
    assert not any(4 in p for p in pairset)
    # pigeonhole ≡ brute force over the same hash table (lossless
    # blocking for hamming < 8 — the simhash precedent)
    from nidaba_ray.functions.imagededup import image_hash_table

    ht = image_hash_table(media).to_pandas()
    ht = ht[ht["error"] == ""]
    brute = set()
    hs = list(zip(ht["media_id"], ht["dhash"]))
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            a, b = sorted((hs[i], hs[j]))
            x = np.uint64(np.int64(a[1])) ^ np.uint64(np.int64(b[1]))
            if bin(int(x)).count("1") <= 6:
                brute.add((a[0], b[0]))
    assert pairset == brute


def test_hasher_skips_non_images_and_quarantines():
    t = pa.table({
        "media_id": pa.array([1, 2], pa.int64()),
        "kind": pa.array(["audio", "image"], pa.string()),
        "payload": pa.array([b"x", b"\xff\xd8broken"], pa.binary()),
    })
    out = ImageHasher()(t).to_pylist()
    assert len(out) == 1 and out[0]["media_id"] == 2
    assert out[0]["error"] != ""


def test_max_hamming_bound():
    import ray.data as rd
    with pytest.raises(ValueError):
        image_near_dup_pairs(rd.from_items([]), max_hamming=8)


def test_over_full_synth_media_corpus(ray_session):
    """The media rotation (BMP/PNG/JPEG/GIF/TIFF/WebP wires):
    every image hashes with no errors, and the exact-dup pass is
    group-consistent (same dhash+ahash ⟺ same group)."""
    from nidaba_ray.functions.imagededup import image_hash_table
    from nidaba_ray.pipelines.media import media_dataset

    media = media_dataset("/root/testdata/sf0.001")
    ht = image_hash_table(media).to_pandas()
    assert (ht["error"] == "").all() and len(ht) > 100
    groups = image_exact_dup_groups(media).to_pandas()
    merged = ht.merge(groups, on="media_id")
    by_hash = merged.groupby(["dhash", "ahash"])["group_id"].nunique()
    assert (by_hash == 1).all()
    by_group = merged.groupby("group_id")[["dhash", "ahash"]].nunique()
    assert (by_group == 1).all().all()
