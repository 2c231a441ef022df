"""Perceptual image deduplication — dHash/aHash over the real codecs,
exact groups + Hamming near-dup pairs (the LAION-style image-dedup
recipe, extending the dedup family to the image modality).

The hashes are CONTAINER-INVARIANT by construction: they are computed
on decoded pixels, and the lossless codecs (PNG/BMP/GIF/TIFF/WebP)
reproduce pixels byte-exactly, so the same image stored in different
wire formats lands in the same exact-dup group; lossy JPEG lands
within a small Hamming distance (difference hashes compare ADJACENT
cell means, which quantization noise rarely flips on natural images).

Scale notes (100 TB shape):

* hashing happens inside the media actor pool — the payload is
  decoded ONCE and only a 16-byte (dhash, ahash) row leaves the stage
* exact dedup is a narrow groupby on the hash pair
* near-dup pairing reuses the SimHash pigeonhole: 8 × 8-bit chunks of
  the dHash guarantee any pair within Hamming ≤ 7 shares one exact
  chunk, so candidates come from hash-partitioned self-joins on the
  chunk value and pixels/payloads never shuffle
* the pigeonhole ≡ brute-force equivalence is pinned in
  tests/test_imagededup.py (the simhash precedent); the generic
  exact/near machinery lives in functions/hammingdedup.py
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from nidaba_ray.functions.hammingdedup import exact_dup_groups, near_dup_pairs

__all__ = [
    "dhash64", "ahash64", "ImageHasher", "image_hash_table",
    "image_exact_dup_groups", "image_near_dup_pairs",
]


def _grid(gray: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Deterministic nearest-neighbor down-sample (the ImageDecoder
    thumb convention: integer index grid, no float resampling)."""
    h, w = gray.shape
    ys = np.arange(rows) * h // rows
    xs = np.arange(cols) * w // cols
    return gray[np.ix_(ys, xs)].astype(np.int64)


def dhash64(gray: np.ndarray) -> int:
    """Difference hash: 8×9 sample grid, bit r*8+c set when
    cell (r,c) < cell (r,c+1). Integer-only — deterministic across
    platforms."""
    g = _grid(gray, 8, 9)
    bits = (g[:, :-1] < g[:, 1:]).reshape(-1)
    return int(np.packbits(bits).view(">u8")[0])


def ahash64(gray: np.ndarray) -> int:
    """Average hash: 8×8 sample grid, bit set when cell*64 >= sum of
    all cells (integer compare — no float mean)."""
    g = _grid(gray, 8, 8)
    total = int(g.sum())
    bits = (g.reshape(-1) * 64 >= total)
    return int(np.packbits(bits).view(">u8")[0])


class ImageHasher:
    """Actor-pool stage: decode image payloads → perceptual hashes.
    Only hash rows leave the actor; decode errors quarantine per row
    (the multimodal contract). Hashes travel as int64 (the two's-
    complement view of the uint64 bit pattern — md5-free, but every
    bit is a deterministic pixel comparison)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from nidaba_ray.stages.multimodal import decode_image

        ids, dh, ah, err = [], [], [], []
        for mid, kind, payload in zip(
            batch["media_id"].to_pylist(), batch["kind"].to_pylist(),
            batch["payload"].to_pylist(),
        ):
            if kind != "image":
                continue
            ids.append(mid)
            try:
                gray = decode_image(payload or b"")
                dh.append(np.uint64(dhash64(gray)).astype(np.int64))
                ah.append(np.uint64(ahash64(gray)).astype(np.int64))
                err.append("")
            except Exception as e:  # per-row isolation
                dh.append(0)
                ah.append(0)
                err.append(f"{type(e).__name__}: {e}"[:200])
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "dhash": pa.array([int(x) for x in dh], pa.int64()),
            "ahash": pa.array([int(x) for x in ah], pa.int64()),
            "error": pa.array(err, pa.string()),
        })


def image_hash_table(media: rd.Dataset) -> rd.Dataset:
    """media (media_id, kind, payload) → (media_id, dhash, ahash)."""
    return media.map_batches(
        ImageHasher, batch_format="pyarrow", batch_size=64,
        concurrency=(1, 4), num_cpus=1,
    )


def image_exact_dup_groups(media: rd.Dataset) -> rd.Dataset:
    """(media_id, group_id) for images sharing BOTH hashes — group_id
    is the min media_id of the group (total order)."""
    return exact_dup_groups(image_hash_table(media),
                            ("dhash", "ahash"), "media_id")


def image_near_dup_pairs(media: rd.Dataset,
                         max_hamming: int = 6) -> pa.Table:
    """Near-dup image pairs by dHash Hamming distance ≤ ``max_hamming``
    (< 8): the shared pigeonhole machinery on the image modality."""
    return near_dup_pairs(image_hash_table(media), "dhash", "media_id",
                          max_hamming)
