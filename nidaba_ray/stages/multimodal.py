"""Multimodal column stages — image / audio / video as opaque binary
columns with typed metadata, decoded by the repo's own from-scratch,
public-spec codecs in :mod:`nidaba_ray.algorithms`.

* IMAGES: PNG, JPEG (baseline + progressive), GIF, TIFF, lossless
  WebP (VP8L) and uncompressed BMP, converted to grayscale with
  integer BT.601 luma.
* AUDIO: RIFF/WAVE (8/16/24/32-bit PCM + IEEE float, incl.
  EXTENSIBLE), AIFF/AIFF-C (big-endian PCM, ``sowt``, ``fl32``/
  ``fl64``) and FLAC, as float samples in [-1, 1] plus a positive
  sample rate.
* VIDEO: AVI/RIFF with Motion-JPEG (``00dc`` = baseline JPEG per
  frame) or uncompressed DIB frames, and animated GIF. The frame walk
  is lazy, so samplers pay the JPEG IDCT / LZW only for the frames
  they keep.

``synth_media_batch`` writes only these containers, so a synthetic
payload takes the same decode path as a crawled one. ``probe_media``
additionally reads MP4, MP3 and Ogg headers without decoding them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

__all__ = [
    "synth_media_batch", "decode_image", "decode_audio",
    "iter_video_frames",
    "ImageDecoder", "AudioFeatures", "VideoFrameSampler",
    "MediaFeatureExtractor", "probe_media", "MediaProbe",
]

def _bytes_for(key: str, n: int) -> bytes:
    out = b""
    i = 0
    while len(out) < n:
        out += hashlib.md5(f"{key}:{i}".encode()).digest()
        i += 1
    return out[:n]


def synth_media_batch(ids: list[int]) -> pa.Table:
    """Deterministic media table (media_id, kind, payload, meta)."""
    kinds, payloads, metas = [], [], []
    for i in ids:
        k = ("image", "audio", "video")[i % 3]
        if k == "image":
            w, h = 32 + (i % 4) * 16, 24 + (i % 3) * 16
            px = np.frombuffer(_bytes_for(f"img{i}", w * h),
                               np.uint8).reshape(h, w)
            wire = (i // 3) % 5  # rotate the on-wire format
            if wire == 1:
                from nidaba_ray.algorithms.png import encode_png

                payloads.append(encode_png(px))
            elif wire == 2:
                from nidaba_ray.algorithms.jpeg import encode_jpeg

                # alternate baseline / progressive on-wire (decoded
                # pixels are identical by the shared-quantization
                # differential, so downstream features never move)
                payloads.append(
                    encode_jpeg(px, quality=92, progressive=bool(i % 2)))
            elif wire == 3:
                from nidaba_ray.algorithms.gif import encode_gif

                payloads.append(encode_gif(px))
            elif wire == 4:
                from nidaba_ray.algorithms.tiff import encode_tiff

                # alternate PackBits / LZW+predictor on the TIFF slot
                if i % 2:
                    payloads.append(encode_tiff(px, compression="lzw",
                                                predictor=2))
                else:
                    payloads.append(encode_tiff(px, compression="packbits"))
            elif (i // 15) % 2:
                from nidaba_ray.algorithms.webp import encode_webp

                payloads.append(encode_webp(px, use_palette=False,
                                            predictor_mode=2))
            else:  # 24-bit BMP; gray stacked to RGB keeps its luma
                from nidaba_ray.algorithms.png import encode_bmp

                payloads.append(encode_bmp(np.repeat(px[:, :, None], 3, 2)))
            metas.append({"width": w, "height": h, "frames": 1})
        elif k == "audio":
            n = 1000 + (i % 5) * 500
            rate = 8000 + (i % 3) * 4000
            if i % 6 == 1:  # RIFF/WAVE, int16 PCM mono
                from nidaba_ray.algorithms.wav import encode_wav

                pcm = np.frombuffer(_bytes_for(f"wav{i}", 2 * n),
                                    dtype="<i2")
                payloads.append(encode_wav(pcm, rate=rate))
            elif (i // 6) % 2:  # AIFF, int16 BE PCM mono
                from nidaba_ray.algorithms.aiff import encode_aiff

                pcm = np.frombuffer(_bytes_for(f"aiff{i}", 2 * n),
                                    dtype="<i2")
                payloads.append(encode_aiff(pcm, rate=rate))
            elif (i // 12) % 2:  # FLAC, int16 PCM mono
                from nidaba_ray.algorithms.flac import encode_flac

                pcm = np.frombuffer(_bytes_for(f"flac{i}", 2 * n),
                                    dtype="<i2")
                payloads.append(encode_flac(pcm, rate=rate))
            else:  # RIFF/WAVE, 8-bit unsigned PCM mono
                from nidaba_ray.algorithms.wav import encode_wav

                pcm = np.frombuffer(_bytes_for(f"aud{i}", n), np.uint8)
                payloads.append(encode_wav(pcm ^ np.uint8(0x80), rate=rate))
            metas.append({"width": 0, "height": 0, "frames": n})
        else:
            nf = 4 + i % 3
            px = np.stack([
                np.frombuffer(_bytes_for(f"vid{i}f{f}", 16 * 16),
                              np.uint8).reshape(16, 16)
                for f in range(nf)
            ])
            wire = (i // 3) % 4  # AVI-DIB / AVI-MJPG / AVI-DIB / GIF
            if wire == 3:  # animated GIF as the video container
                from nidaba_ray.algorithms.gif import encode_gif

                payloads.append(encode_gif(px, delay_cs=8))
            else:
                from nidaba_ray.algorithms.avi import encode_avi

                codec = "MJPG" if wire == 1 else "DIB "
                payloads.append(encode_avi(px, fps=12, codec=codec,
                                           quality=92))
            metas.append({"width": 16, "height": 16, "frames": nf})
        kinds.append(k)
    meta_type = pa.struct([("width", pa.int32()), ("height", pa.int32()),
                           ("frames", pa.int32())])
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "kind": pa.array(kinds, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "meta": pa.array(metas, meta_type),
        }
    )


def decode_image(payload: bytes) -> np.ndarray:
    """Format-dispatching image decode → (h, w) grayscale uint8.

    PNG (signature sniff), JPEG (SOI sniff; baseline + progressive),
    GIF ("GIF8", first frame), TIFF ("II*"/"MM*"), lossless WebP
    ("RIFF…WEBP", VP8L) and BMP ("BM") via the from-scratch
    public-spec codecs in algorithms/. ValueError on anything
    malformed or unrecognized — the actor stages' per-row quarantine
    path."""
    from nidaba_ray.algorithms.gif import decode_gif, is_gif
    from nidaba_ray.algorithms.jpeg import decode_jpeg, is_jpeg
    from nidaba_ray.algorithms.png import PNG_SIG, decode_bmp, decode_png, to_gray
    from nidaba_ray.algorithms.tiff import decode_tiff, is_tiff
    from nidaba_ray.algorithms.webp import decode_webp, is_webp

    if payload[:8] == PNG_SIG:
        return to_gray(decode_png(payload))
    if is_jpeg(payload):
        return to_gray(decode_jpeg(payload))
    if is_gif(payload):  # first frame only — one LZW decode
        return to_gray(decode_gif(payload, max_frames=1)[0])
    if is_tiff(payload):
        return to_gray(decode_tiff(payload))
    if is_webp(payload):  # lossless VP8L
        return to_gray(decode_webp(payload))
    if payload[:2] == b"BM":
        return to_gray(decode_bmp(payload))
    raise ValueError("unrecognized image payload")


class ImageDecoder:
    """Actor-pool stage: decode + resize + feature-extract images.

    Small batch_size is mandatory — payloads are wide binary rows and
    batch × concurrency must fit the worker heap (SURVEY.md §4.2)."""

    def __init__(self, thumb: int = 8) -> None:
        self.thumb = thumb  # real impl: load a vision model here

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        widths, heights, means, thumbs, errors = [], [], [], [], []
        for p in batch["payload"].to_pylist():
            try:
                img = decode_image(p or b"")
                h, w = img.shape
                # nearest-neighbor resize to thumb×thumb (the resize op)
                ys = (np.arange(self.thumb) * h // self.thumb)
                xs = (np.arange(self.thumb) * w // self.thumb)
                tb = img[np.ix_(ys, xs)]
                widths.append(w)
                heights.append(h)
                means.append(float(img.mean()))
                thumbs.append(tb.flatten().tolist())
                errors.append("")
            except Exception as e:  # per-row isolation
                widths.append(0)
                heights.append(0)
                means.append(0.0)
                thumbs.append([])
                errors.append(f"{type(e).__name__}: {e}")
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "width": pa.array(widths, pa.int32()),
                "height": pa.array(heights, pa.int32()),
                "mean_px": pa.array(means, pa.float64()),
                "thumbnail": pa.array(thumbs, pa.list_(pa.uint8())),
                "error": pa.array(errors, pa.string()),
            }
        )


def decode_audio(payload: bytes) -> tuple[np.ndarray, int]:
    """Format-dispatching audio decode → ((frames, ch) float64,
    sample_rate). RIFF/WAVE via the from-scratch codec in
    algorithms/wav.py (8/16/24/32-bit PCM, IEEE float, EXTENSIBLE),
    AIFF/AIFF-C via algorithms/aiff.py (BE PCM, sowt, fl32/fl64) and
    FLAC via algorithms/flac.py; every codec rejects a 0 Hz header, so
    the rate is always positive. ValueError on anything malformed or
    unrecognized — the per-row quarantine path."""
    from nidaba_ray.algorithms.aiff import decode_aiff, is_aiff
    from nidaba_ray.algorithms.flac import decode_flac, is_flac
    from nidaba_ray.algorithms.wav import decode_wav, is_wav

    if is_wav(payload):
        return decode_wav(payload)
    if is_aiff(payload):
        return decode_aiff(payload)
    if is_flac(payload):
        return decode_flac(payload)
    raise ValueError("not a WAV, AIFF or FLAC payload")


class AudioFeatures:
    """Actor-pool stage: per-clip summary features over decoded
    samples (WAV, AIFF or FLAC via decode_audio).

    Features per clip, all numpy-vectorized over the mono mixdown:
    RMS level, zero-crossing rate (sign changes / sample steps), and
    spectral centroid (magnitude-weighted mean rfft frequency in Hz).
    Reported floats are rounded to 6 dp so downstream comparisons are
    bit-stable."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, n_samples, rms, zcr, cent, errors = [], [], [], [], [], []
        for i, p in zip(batch["media_id"].to_pylist(), batch["payload"].to_pylist()):
            ids.append(i)
            try:
                samples, rate = decode_audio(p or b"")
                if samples.size == 0:
                    raise ValueError("empty audio stream")
                n_samples.append(samples.shape[0])
                rms.append(round(float(np.sqrt((samples**2).mean())), 6))
                mono = samples.mean(axis=1)
                sign = np.signbit(mono)
                zcr.append(round(
                    float(np.count_nonzero(sign[1:] != sign[:-1]))
                    / max(len(mono) - 1, 1), 6))
                spec = np.abs(np.fft.rfft(mono))
                freqs = np.fft.rfftfreq(len(mono), d=1.0 / rate)
                denom = float(spec.sum())
                cent.append(round(
                    float((freqs * spec).sum() / denom), 6)
                    if denom > 0 else 0.0)
                errors.append("")
            except Exception as e:
                n_samples.append(0)
                rms.append(0.0)
                zcr.append(0.0)
                cent.append(0.0)
                errors.append(f"{type(e).__name__}: {e}")
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "n_samples": pa.array(n_samples, pa.int64()),
                "rms": pa.array(rms, pa.float64()),
                "zero_crossing_rate": pa.array(zcr, pa.float64()),
                "spectral_centroid": pa.array(cent, pa.float64()),
                "error": pa.array(errors, pa.string()),
            }
        )


def iter_video_frames(payload: bytes):
    """Format-dispatching LAZY video frame walk → yields
    ``(frame_idx, decode_thunk)`` where ``decode_thunk()`` returns the
    (h, w) grayscale uint8 frame.

    AVI/RIFF (Motion-JPEG or uncompressed DIB frames) via the
    from-scratch codec in algorithms/avi.py, and animated GIF via
    algorithms/gif.py (full-cover opaque frames — everything our
    encoder writes — stay truly lazy; dependent frames advance a
    memoized canvas). Laziness is the point — a sampler keeping every
    k-th frame never pays the JPEG IDCT / LZW for the other k−1.
    ValueError on malformed or unrecognized input — the per-row
    quarantine path."""
    from nidaba_ray.algorithms.avi import decode_frame, is_avi, parse_avi
    from nidaba_ray.algorithms.gif import gif_frames, is_gif
    from nidaba_ray.algorithms.png import to_gray

    if is_avi(payload):
        info, raws = parse_avi(payload)
        for idx, raw in enumerate(raws):
            yield idx, (lambda raw=raw: decode_frame(raw, info))
        return
    if is_gif(payload):
        for idx, thunk in gif_frames(payload):
            yield idx, (lambda thunk=thunk: to_gray(thunk()))
        return
    raise ValueError("not an AVI or GIF payload")


def _is_video_payload(p: bytes) -> bool:
    from nidaba_ray.algorithms.avi import is_avi
    from nidaba_ray.algorithms.gif import gif_n_frames, is_gif

    if is_avi(p):
        return True
    if is_gif(p):  # animated GIF is video; a still GIF is an image
        try:  # copy-free walk, early exit at the 2nd descriptor
            return gif_n_frames(p, limit=2) > 1
        except ValueError:
            return False
    return False


class VideoFrameSampler:
    """Actor-pool stage: sample every k-th frame, emit one row per
    sampled frame (flat_map-shaped output from map_batches). Frames
    decode through iter_video_frames, so unsampled AVI/MJPG frames
    skip the JPEG decode entirely."""

    def __init__(self, every: int = 2) -> None:
        self.every = every

    def __call__(self, batch: pa.Table) -> pa.Table:
        mid, frame_idx, frame_mean = [], [], []
        for i, p in zip(batch["media_id"].to_pylist(), batch["payload"].to_pylist()):
            if not _is_video_payload(p or b""):
                continue  # non-video rows pass through silently
            try:
                rows = []
                for f, thunk in iter_video_frames(p):
                    if f % self.every == 0:
                        rows.append((f, float(thunk().mean())))
            except Exception:
                # per-row quarantine: a container that sniffs as
                # video but carries corrupt frame data (e.g. a
                # truncated LZW stream behind intact GIF block
                # framing) skips THIS row — it must not kill the
                # whole map task (review find, round 5)
                continue
            for f, m in rows:
                mid.append(i)
                frame_idx.append(f)
                frame_mean.append(m)
        return pa.table(
            {
                "media_id": pa.array(mid, pa.int64()),
                "frame_idx": pa.array(frame_idx, pa.int32()),
                "frame_mean": pa.array(frame_mean, pa.float64()),
            }
        )


class MediaFeatureExtractor:
    """One-pass kind-dispatching actor stage: each batch is split by
    the ``kind`` column and routed to the matching decoder kernel —
    the media source executes ONCE (three filtered branches would
    re-run it per modality, the multi-consumption anti-pattern
    stages/extract.py warns about).

    Emits one row per media object with an order-independent integer
    feature (micro-units) so the downstream distributed Sum is exact
    and deterministic regardless of reduction order:
        (media_id, kind, is_error, feat_micro)
    image → mean pixel value, audio → RMS, video → sum of sampled
    frame means (every ``every``-th frame)."""

    def __init__(self, every: int = 2, thumb: int = 8) -> None:
        self.img = ImageDecoder(thumb=thumb)
        self.aud = AudioFeatures()
        self.every = every

    @staticmethod
    def _micro(x: float) -> int:
        return int(round(x * 1_000_000))

    def _video_rows(self, sub: pa.Table):
        ids, errs, feats = [], [], []
        for i, p in zip(sub["media_id"].to_pylist(), sub["payload"].to_pylist()):
            ids.append(i)
            try:
                total = 0.0
                for f, thunk in iter_video_frames(p or b""):
                    if f % self.every == 0:
                        total += float(thunk().mean())
                errs.append(0)
                feats.append(self._micro(total))
            except Exception:
                errs.append(1)
                feats.append(0)
        return ids, errs, feats

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        out_id: list[int] = []
        out_kind: list[str] = []
        out_err: list[int] = []
        out_feat: list[int] = []
        for kind in ("image", "audio", "video"):
            sub = batch.filter(pc.equal(batch["kind"], kind))
            if sub.num_rows == 0:
                continue
            if kind == "image":
                res = self.img(sub)
                ids = res["media_id"].to_pylist()
                errs = [1 if e else 0 for e in res["error"].to_pylist()]
                feats = [self._micro(f) for f in res["mean_px"].to_pylist()]
            elif kind == "audio":
                res = self.aud(sub)
                ids = res["media_id"].to_pylist()
                errs = [1 if e else 0 for e in res["error"].to_pylist()]
                feats = [self._micro(f) for f in res["rms"].to_pylist()]
            else:
                ids, errs, feats = self._video_rows(sub)
            out_id.extend(ids)
            out_kind.extend([kind] * len(ids))
            out_err.extend(errs)
            out_feat.extend(feats)
        return pa.table(
            {
                "media_id": pa.array(out_id, pa.int64()),
                "kind": pa.array(out_kind, pa.string()),
                "is_error": pa.array(out_err, pa.int64()),
                "feat_micro": pa.array(out_feat, pa.int64()),
            }
        )


# ---------------------------------------------------------------------------
# Header-only media probe (round-5 session 7) — the triage operator a
# 100 TB media crawl runs BEFORE any decode farm: container, kind,
# codec, dimensions, duration from headers alone, including the two
# dominant web formats whose payload codecs are deliberately out of
# scope (MP4/H.26x, MP3 — see algorithms/mp4.py / mp3.py docstrings).
# Cost per row is a few header reads; no pixel/sample pass ever runs.
# ---------------------------------------------------------------------------


def probe_media(payload: bytes) -> dict:
    """One payload → {container, kind, codec, width, height,
    sample_rate, duration_ms, n_units}. Fields a container's header
    does not carry stay 0/''; n_units is frames (video), samples
    (audio) or pages/frames (multi-image). ValueError on anything
    unrecognized or malformed (the per-row quarantine contract)."""
    from nidaba_ray.algorithms import mp3 as mp3mod
    from nidaba_ray.algorithms import mp4 as mp4mod
    from nidaba_ray.algorithms.aiff import _unpack_extended, is_aiff
    from nidaba_ray.algorithms.avi import _parse_hdrl, _walk, is_avi
    from nidaba_ray.algorithms.flac import is_flac
    from nidaba_ray.algorithms.gif import gif_n_frames, is_gif
    from nidaba_ray.algorithms.jpeg import is_jpeg
    from nidaba_ray.algorithms.png import PNG_SIG
    from nidaba_ray.algorithms.tiff import _read_ifd, _tag, is_tiff
    from nidaba_ray.algorithms.wav import _parse_fmt, is_wav
    from nidaba_ray.algorithms.webp import is_webp

    out = {"container": "", "kind": "", "codec": "", "width": 0,
           "height": 0, "sample_rate": 0, "duration_ms": 0, "n_units": 0}
    p = payload or b""

    if mp4mod.is_mp4(p):
        info = mp4mod.mp4_probe(p)
        vid = next((t for t in info["tracks"] if t["kind"] == "vide"), None)
        aud = next((t for t in info["tracks"] if t["kind"] == "soun"), None)
        lead = vid or aud or (info["tracks"][0] if info["tracks"] else None)
        out.update(container="mp4",
                   kind="video" if vid else ("audio" if aud else "other"),
                   codec=(lead or {}).get("codec", ""),
                   duration_ms=info["duration_ms"])
        if vid:
            out.update(width=vid["width"], height=vid["height"],
                       n_units=vid["n_samples"])
        if aud:
            out["sample_rate"] = aud["timescale"]
            if not vid:
                out["n_units"] = aud["n_samples"]
        return out
    if mp3mod.is_mp3(p):
        info = mp3mod.mp3_probe(p)
        out.update(container="mp3", kind="audio", codec="mp3",
                   sample_rate=info["sample_rate"],
                   duration_ms=info["duration_ms"],
                   n_units=info["n_frames"])
        return out
    from nidaba_ray.algorithms.ogg import is_ogg, ogg_probe

    if is_ogg(p):
        info = ogg_probe(p)
        out.update(container="ogg", kind="audio", codec=info["codec"],
                   sample_rate=info["sample_rate"],
                   duration_ms=info["duration_ms"],
                   n_units=info["n_samples"])
        return out
    if p[:8] == PNG_SIG:
        if len(p) < 24:
            raise ValueError("png: truncated IHDR")
        if p[8:16] != b"\x00\x00\x00\x0dIHDR":  # 13-byte IHDR first
            raise ValueError("png: first chunk is not IHDR")
        out.update(container="png", kind="image", codec="png",
                   width=int.from_bytes(p[16:20], "big"),
                   height=int.from_bytes(p[20:24], "big"), n_units=1)
        return out
    if is_gif(p):
        n = gif_n_frames(p)
        out.update(container="gif",
                   kind="video" if n > 1 else "image", codec="gif",
                   width=int.from_bytes(p[6:8], "little"),
                   height=int.from_bytes(p[8:10], "little"), n_units=n)
        return out
    if p[:2] == b"BM":
        if len(p) < 26:
            raise ValueError("bmp: truncated header")
        out.update(container="bmp", kind="image", codec="bmp",
                   width=abs(int.from_bytes(p[18:22], "little",
                                            signed=True)),
                   height=abs(int.from_bytes(p[22:26], "little",
                                             signed=True)), n_units=1)
        return out
    if is_jpeg(p):
        pos = 2
        while pos + 4 <= len(p):
            if p[pos] != 0xFF:
                raise ValueError("jpeg: lost marker sync")
            marker = p[pos + 1]
            if marker in (0xC0, 0xC1, 0xC2):  # SOF0/1/2
                out.update(container="jpeg", kind="image", codec="jpeg",
                           height=int.from_bytes(p[pos + 5:pos + 7], "big"),
                           width=int.from_bytes(p[pos + 7:pos + 9], "big"),
                           n_units=1)
                return out
            if marker == 0xD8 or 0xD0 <= marker <= 0xD7:
                pos += 2
                continue
            pos += 2 + int.from_bytes(p[pos + 2:pos + 4], "big")
        raise ValueError("jpeg: no SOF marker")
    if is_tiff(p):
        from nidaba_ray.algorithms.tiff import tiff_n_pages

        bo = "<" if p[:2] == b"II" else ">"
        tags = _read_ifd(p, bo)
        out.update(container="tiff", kind="image", codec="tiff",
                   width=int(_tag(tags, 256)[0]),
                   height=int(_tag(tags, 257)[0]),
                   n_units=tiff_n_pages(p))
        return out
    if is_webp(p):
        if len(p) < 25 or p[12:16] != b"VP8L":
            raise ValueError("webp: only VP8L probed")
        bits = int.from_bytes(p[21:25], "little")
        out.update(container="webp", kind="image", codec="vp8l",
                   width=(bits & 0x3FFF) + 1,
                   height=((bits >> 14) & 0x3FFF) + 1, n_units=1)
        return out
    if is_wav(p):
        rate, block_align, n_frames = 0, 0, 0
        pos = 12
        while pos + 8 <= len(p):
            cid = p[pos:pos + 4]
            size = int.from_bytes(p[pos + 4:pos + 8], "little")
            if cid == b"fmt ":
                _fmt, _ch, rate, block_align, _bits = _parse_fmt(
                    p[pos + 8:pos + 8 + size])
            elif cid == b"data" and block_align:
                n_frames = size // block_align
            pos += 8 + size + (size % 2)
        if not rate:
            raise ValueError("wav: no fmt chunk")
        out.update(container="wav", kind="audio", codec="pcm",
                   sample_rate=rate, n_units=n_frames,
                   duration_ms=n_frames * 1000 // rate)
        return out
    if is_aiff(p):
        pos = 12
        while pos + 8 <= len(p):
            cid = p[pos:pos + 4]
            size = int.from_bytes(p[pos + 4:pos + 8], "big")
            if cid == b"COMM":
                body = p[pos + 8:pos + 8 + size]
                n_frames = int.from_bytes(body[2:6], "big")
                rate = int(round(_unpack_extended(body[8:18])))
                if rate <= 0:
                    raise ValueError("aiff: non-positive sample rate")
                out.update(container="aiff", kind="audio", codec="pcm",
                           sample_rate=rate, n_units=n_frames,
                           duration_ms=n_frames * 1000 // rate)
                return out
            pos += 8 + size + (size % 2)
        raise ValueError("aiff: no COMM chunk")
    if is_flac(p):
        if len(p) < 4 + 4 + 34:
            raise ValueError("flac: truncated STREAMINFO")
        # the first metadata block must be STREAMINFO: type 0, 34 bytes
        if p[4] & 0x7F != 0 or int.from_bytes(p[5:8], "big") != 34:
            raise ValueError("flac: first metadata block is not STREAMINFO")
        si = p[8:42]
        word = int.from_bytes(si[10:18], "big")
        rate = word >> 44
        total = word & ((1 << 36) - 1)
        if not rate:
            raise ValueError("flac: zero sample rate")
        out.update(container="flac", kind="audio", codec="flac",
                   sample_rate=rate, n_units=total,
                   duration_ms=total * 1000 // rate)
        return out
    if is_avi(p):
        info = {}
        for cid, off, sz in _walk(p, 12, len(p)):
            if cid == b"LIST" and p[off:off + 4] == b"hdrl":
                info = _parse_hdrl(p, off + 4, sz - 4)
                break
        if not info:
            raise ValueError("avi: no hdrl list")
        usec = info.get("usec_per_frame", 0)
        n = info.get("total_frames", 0)
        out.update(container="avi", kind="video",
                   codec=(info.get("handler") or b"").decode("latin-1"),
                   width=info.get("width", 0), height=info.get("height", 0),
                   n_units=n,
                   # exact integer µs math — no float in a value the
                   # SQL replay must reproduce
                   duration_ms=n * usec // 1000)
        return out
    raise ValueError("unrecognized media container")


class MediaProbe:
    """Actor-pool stage: header-only triage rows per media payload —
    (media_id, container, kind, codec, width, height, sample_rate,
    duration_ms, n_units, error). Per-row quarantine like every media
    stage; safe at large batch sizes because no decode runs."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        cols = {k: [] for k in ("container", "kind", "codec", "width",
                                "height", "sample_rate", "duration_ms",
                                "n_units", "error")}
        for p in batch["payload"].to_pylist():
            try:
                info = probe_media(p or b"")
                err = ""
            except Exception as e:  # per-row isolation
                info = {"container": "", "kind": "", "codec": "",
                        "width": 0, "height": 0, "sample_rate": 0,
                        "duration_ms": 0, "n_units": 0}
                err = f"{type(e).__name__}: {e}"
            for k, v in info.items():
                cols[k].append(v)
            cols["error"].append(err)
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "container": pa.array(cols["container"], pa.string()),
            "kind": pa.array(cols["kind"], pa.string()),
            "codec": pa.array(cols["codec"], pa.string()),
            "width": pa.array(cols["width"], pa.int32()),
            "height": pa.array(cols["height"], pa.int32()),
            "sample_rate": pa.array(cols["sample_rate"], pa.int64()),
            "duration_ms": pa.array(cols["duration_ms"], pa.int64()),
            "n_units": pa.array(cols["n_units"], pa.int64()),
            "error": pa.array(cols["error"], pa.string()),
        })
