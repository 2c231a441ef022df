"""Corruption fuzz across every media codec: byte-flip valid streams
at random positions and require BOUNDED behavior — decode must either
succeed or raise (any exception is quarantine-able by the actor
stages), and must return within a wall-clock budget (no infinite
loops on malformed length fields / runaway repeat counts)."""
from __future__ import annotations

import random
import signal

import numpy as np
import pytest

pytestmark = pytest.mark.slow


class _Timeout(Exception):
    pass


def _alarm(*_a):
    raise _Timeout()


def _fuzz(name, encode, decode, rng, n_mut=60, budget_s=10):
    payload = bytearray(encode())
    signal.signal(signal.SIGALRM, _alarm)
    for i in range(n_mut):
        mutated = bytearray(payload)
        for _ in range(rng.randrange(1, 4)):
            pos = rng.randrange(len(mutated))
            mutated[pos] ^= rng.randrange(1, 256)
        # also try truncations
        if i % 7 == 0:
            mutated = mutated[:rng.randrange(1, len(mutated))]
        signal.alarm(budget_s)
        try:
            decode(bytes(mutated))
        except _Timeout:
            pytest.fail(f"{name}: decode hung on mutation {i}")
        except Exception:
            pass  # any exception is fine — the quarantine contract
        finally:
            signal.alarm(0)


def test_image_codecs_survive_corruption():
    rng = random.Random(1337)
    px = np.random.default_rng(4).integers(0, 256, size=(24, 20)).astype(
        np.uint8)
    from nidaba_ray.algorithms.gif import decode_gif, encode_gif
    from nidaba_ray.algorithms.jpeg import decode_jpeg, encode_jpeg
    from nidaba_ray.algorithms.png import (
        decode_bmp,
        decode_png,
        encode_bmp,
        encode_png,
    )
    from nidaba_ray.algorithms.tiff import decode_tiff, encode_tiff
    from nidaba_ray.algorithms.webp import decode_webp, encode_webp

    _fuzz("png", lambda: encode_png(px), decode_png, rng)
    _fuzz("bmp", lambda: encode_bmp(np.stack([px] * 3, axis=2)),
          decode_bmp, rng)
    _fuzz("jpeg", lambda: encode_jpeg(px, quality=80), decode_jpeg, rng)
    _fuzz("jpeg_prog", lambda: encode_jpeg(px, progressive=True),
          decode_jpeg, rng)
    _fuzz("gif", lambda: encode_gif(px), decode_gif, rng)
    _fuzz("tiff_lzw", lambda: encode_tiff(px, compression="lzw"),
          decode_tiff, rng)
    _fuzz("webp", lambda: encode_webp(px, use_palette=False), decode_webp,
          rng)
    _fuzz("webp_pal", lambda: encode_webp(px[:8, :8] % 4 * 60),
          decode_webp, rng)


def test_audio_video_codecs_survive_corruption():
    rng = random.Random(4242)
    pcm = (np.sin(np.arange(3000) / 7.0) * 20000).astype(np.int16)
    frames = np.random.default_rng(5).integers(
        0, 256, size=(4, 16, 16)).astype(np.uint8)
    from nidaba_ray.algorithms.aiff import decode_aiff, encode_aiff
    from nidaba_ray.algorithms.avi import encode_avi
    from nidaba_ray.algorithms.wav import decode_wav, encode_wav
    from nidaba_ray.stages.multimodal import decode_audio, decode_image

    def decode_video_all(p):
        from nidaba_ray.stages.multimodal import iter_video_frames

        return [t() for _, t in iter_video_frames(p)]

    from nidaba_ray.algorithms.flac import decode_flac, encode_flac

    _fuzz("wav", lambda: encode_wav(pcm, rate=8000), decode_wav, rng)
    _fuzz("aiff", lambda: encode_aiff(pcm, rate=8000), decode_aiff, rng)
    _fuzz("flac", lambda: encode_flac(pcm, rate=8000), decode_flac, rng)
    _fuzz("avi_mjpg", lambda: encode_avi(frames, fps=10, codec="MJPG",
                                         quality=85), decode_video_all, rng)
    _fuzz("avi_dib", lambda: encode_avi(frames, fps=10, codec="DIB "),
          decode_video_all, rng)
    # the dispatchers themselves (sniff + decode) stay bounded too
    _fuzz("dispatch_img", lambda: encode_wav(pcm, rate=8000)[:64] + b"x",
          decode_image, rng, n_mut=20)
    _fuzz("dispatch_aud", lambda: encode_aiff(pcm, rate=8000),
          decode_audio, rng, n_mut=20)


def test_pdf_filters_survive_corruption():
    import zlib

    rng = random.Random(77)
    from nidaba_ray.stages.pdf import extract_pdf_blocks

    body = zlib.compress(b"BT (fuzz me) Tj ET")
    pdf = (b"%PDF-1.4\n1 0 obj << /Length " + str(len(body)).encode()
           + b" /Filter /FlateDecode >> stream\n" + body
           + b"\nendstream endobj\n%%EOF\n")
    _fuzz("pdf_flate", lambda: pdf, extract_pdf_blocks, rng)
    import base64

    b85 = base64.a85encode(zlib.compress(b"BT (eighty five) Tj ET")) + b"~>"
    pdf85 = (b"%PDF-1.4\n1 0 obj << /Length " + str(len(b85)).encode()
             + b" /Filter [/ASCII85Decode /FlateDecode] >> stream\n" + b85
             + b"\nendstream endobj\n%%EOF\n")
    _fuzz("pdf_a85", lambda: pdf85, extract_pdf_blocks, rng)
