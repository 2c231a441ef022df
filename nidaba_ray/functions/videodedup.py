"""Perceptual video deduplication — sampled-frame dHashes through the
lazy frame walk, completing the dedup family's third modality.

Per clip: the FIRST and LAST frames' dHashes plus the frame count.
Exact groups key on all three (containers reproducing the same frame
pixels — AVI/DIB and exact-palette GIF — land together); near-dup
pairs run on the first-frame hash through the shared pigeonhole
machinery. The frame walk is lazy (``iter_video_frames`` thunks), so
only the two hashed frames pay a decode — Motion-JPEG clips skip the
IDCT for every unsampled frame, exactly the sampler's economy."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from nidaba_ray.functions.hammingdedup import exact_dup_groups, near_dup_pairs
from nidaba_ray.functions.imagededup import dhash64

__all__ = [
    "VideoFingerprinter", "video_hash_table",
    "video_exact_dup_groups", "video_near_dup_pairs",
]


class VideoFingerprinter:
    """Actor-pool stage: video payloads → (first_hash, last_hash,
    n_frames); only fixed-width rows leave the actor."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from nidaba_ray.stages.multimodal import (
            _is_video_payload,
            iter_video_frames,
        )

        ids, fh, lh, nf, err = [], [], [], [], []
        for mid, kind, payload in zip(
            batch["media_id"].to_pylist(), batch["kind"].to_pylist(),
            batch["payload"].to_pylist(),
        ):
            if kind != "video" or not _is_video_payload(payload or b""):
                continue
            ids.append(mid)
            try:
                frames = list(iter_video_frames(payload))
                if not frames:
                    raise ValueError("empty video stream")
                first = frames[0][1]()
                last = frames[-1][1]() if len(frames) > 1 else first
                fh.append(int(np.uint64(dhash64(first)).astype(np.int64)))
                lh.append(int(np.uint64(dhash64(last)).astype(np.int64)))
                nf.append(len(frames))
                err.append("")
            except Exception as e:  # per-row isolation
                fh.append(0)
                lh.append(0)
                nf.append(0)
                err.append(f"{type(e).__name__}: {e}"[:200])
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "first_hash": pa.array(fh, pa.int64()),
            "last_hash": pa.array(lh, pa.int64()),
            "n_frames": pa.array(nf, pa.int64()),
            "error": pa.array(err, pa.string()),
        })


def video_hash_table(media: rd.Dataset) -> rd.Dataset:
    return media.map_batches(
        VideoFingerprinter, batch_format="pyarrow", batch_size=64,
        concurrency=(1, 4), num_cpus=1,
    )


def video_exact_dup_groups(media: rd.Dataset) -> rd.Dataset:
    """(media_id, group_id) for clips sharing first/last frame hashes
    AND frame count."""
    return exact_dup_groups(video_hash_table(media),
                            ("first_hash", "last_hash", "n_frames"),
                            "media_id")


def video_near_dup_pairs(media: rd.Dataset,
                         max_hamming: int = 6) -> pa.Table:
    """Near-dup clip pairs by first-frame dHash Hamming distance."""
    return near_dup_pairs(video_hash_table(media), "first_hash",
                          "media_id", max_hamming)
