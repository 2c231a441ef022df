"""Perceptual audio deduplication — energy-delta and spectral-band
fingerprints over the real audio codecs (the chromaprint-style recipe
reduced to 64-bit hashes), completing the dedup family's second
modality.

Fingerprints are CONTAINER- and GAIN-robust by construction:

* ``audio_dhash64``: 65 equal time slices → per-slice energy → bit i
  set when slice i+1 is louder than slice i. Comparisons of energies
  are invariant under uniform gain, so the same recording at a
  different volume (or in WAV vs AIFF vs sowt byte order) hashes
  identically.
* ``audio_spectral64``: 8 time slices × 8 rfft band energies → bit
  set when a band carries more than its slice's mean band energy —
  a coarse spectral shape signature (robust to time-local noise).

Decision floats are quantized (round to 12 dp) before every
comparison — the repo's floats-feeding-decisions invariant.

Exact groups and Hamming near-dup pairs reuse the shared pigeonhole
machinery (:mod:`nidaba_ray.functions.hammingdedup`): hashing happens
decode-once in the media actor pool, only 16-byte rows shuffle."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from nidaba_ray.functions.hammingdedup import exact_dup_groups, near_dup_pairs

__all__ = [
    "audio_dhash64", "audio_spectral64", "AudioFingerprinter",
    "audio_hash_table", "audio_exact_dup_groups", "audio_near_dup_pairs",
]


def _mono(samples: np.ndarray) -> np.ndarray:
    mono = samples.mean(axis=1) if samples.ndim == 2 else samples
    if len(mono) < 65:
        mono = np.resize(mono, 65)  # deterministic repeat-pad
    return mono


def _slice_energies(mono: np.ndarray, n: int) -> np.ndarray:
    edges = (np.arange(n + 1) * len(mono)) // n
    sq = np.concatenate([[0.0], np.cumsum(mono * mono)])
    e = (sq[edges[1:]] - sq[edges[:-1]]) / np.maximum(
        edges[1:] - edges[:-1], 1)
    return np.round(e, 12)  # quantize before any comparison


def audio_dhash64(samples: np.ndarray) -> int:
    """Temporal energy-difference hash: bit i = slice i+1 louder than
    slice i over 65 equal slices. Gain-invariant (pure comparisons)."""
    e = _slice_energies(_mono(samples), 65)
    bits = e[1:] > e[:-1]
    return int(np.packbits(bits).view(">u8")[0])


def audio_spectral64(samples: np.ndarray) -> int:
    """Spectral shape hash: 8 time slices × 8 band energies; bit set
    when a band exceeds its slice's mean band energy."""
    mono = _mono(samples)
    edges = (np.arange(9) * len(mono)) // 8
    bits = np.zeros(64, dtype=bool)
    for s in range(8):
        seg = mono[edges[s]:edges[s + 1]]
        spec = np.abs(np.fft.rfft(seg))
        bedges = (np.arange(9) * len(spec)) // 8
        bands = np.array([
            float((spec[bedges[b]:bedges[b + 1]] ** 2).sum())
            for b in range(8)
        ])
        bands = np.round(bands, 12)
        mean = round(float(bands.mean()), 12)
        bits[s * 8:(s + 1) * 8] = bands > mean
    return int(np.packbits(bits).view(">u8")[0])


class AudioFingerprinter:
    """Actor-pool stage: decode audio payloads → fingerprints; only
    16-byte hash rows leave the actor, errors quarantine per row."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from nidaba_ray.stages.multimodal import decode_audio

        ids, dh, sh, err = [], [], [], []
        for mid, kind, payload in zip(
            batch["media_id"].to_pylist(), batch["kind"].to_pylist(),
            batch["payload"].to_pylist(),
        ):
            if kind != "audio":
                continue
            ids.append(mid)
            try:
                samples, _rate = decode_audio(payload or b"")
                if samples.size == 0:
                    raise ValueError("empty audio stream")
                dh.append(int(np.uint64(audio_dhash64(samples))
                              .astype(np.int64)))
                sh.append(int(np.uint64(audio_spectral64(samples))
                              .astype(np.int64)))
                err.append("")
            except Exception as e:  # per-row isolation
                dh.append(0)
                sh.append(0)
                err.append(f"{type(e).__name__}: {e}"[:200])
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "ehash": pa.array(dh, pa.int64()),
            "shash": pa.array(sh, pa.int64()),
            "error": pa.array(err, pa.string()),
        })


def audio_hash_table(media: rd.Dataset) -> rd.Dataset:
    return media.map_batches(
        AudioFingerprinter, batch_format="pyarrow", batch_size=64,
        concurrency=(1, 4), num_cpus=1,
    )


def audio_exact_dup_groups(media: rd.Dataset) -> rd.Dataset:
    """(media_id, group_id) for clips sharing BOTH fingerprints."""
    return exact_dup_groups(audio_hash_table(media),
                            ("ehash", "shash"), "media_id")


def audio_near_dup_pairs(media: rd.Dataset,
                         max_hamming: int = 6) -> pa.Table:
    """Near-dup clip pairs by energy-hash Hamming ≤ ``max_hamming``."""
    return near_dup_pairs(audio_hash_table(media), "ehash", "media_id",
                          max_hamming)
