"""Header-only media probe (stages/multimodal.py probe_media /
MediaProbe): every real container the repo speaks reports its
container/kind/dims/duration from headers alone, agreeing with the
full decoders; malformed payloads quarantine per-row."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from nidaba_ray.stages.multimodal import MediaProbe, probe_media


def _img(w=23, h=11):
    rng = np.random.default_rng(7)
    return rng.integers(0, 255, (h, w), dtype=np.uint8)


def test_probe_image_containers():
    from nidaba_ray.algorithms.gif import encode_gif
    from nidaba_ray.algorithms.jpeg import encode_jpeg
    from nidaba_ray.algorithms.png import encode_bmp, encode_png
    from nidaba_ray.algorithms.tiff import encode_tiff
    from nidaba_ray.algorithms.webp import encode_webp

    img = _img()
    rgb = np.stack([img] * 3, axis=-1)
    for payload, container in [
        (encode_png(img), "png"),
        (encode_bmp(rgb), "bmp"),
        (encode_jpeg(img), "jpeg"),
        (encode_tiff(img), "tiff"),
        (encode_webp(img), "webp"),
        (encode_gif(img[None]), "gif"),
    ]:
        info = probe_media(payload)
        assert info["container"] == container, container
        assert (info["width"], info["height"]) == (23, 11), container
        assert info["kind"] == "image" and info["n_units"] == 1, container


def test_probe_animated_gif_is_video():
    from nidaba_ray.algorithms.gif import encode_gif

    frames = np.stack([_img(), _img() ^ 255, _img()])
    info = probe_media(encode_gif(frames))
    assert info["kind"] == "video" and info["n_units"] == 3


def test_probe_audio_containers():
    from nidaba_ray.algorithms.aiff import encode_aiff
    from nidaba_ray.algorithms.flac import encode_flac
    from nidaba_ray.algorithms.wav import encode_wav

    t = np.linspace(0, 1, 8000, endpoint=False)
    mono = (16000 * np.sin(2 * np.pi * 440 * t)).astype(np.int16)[:, None]
    for payload, container in [
        (encode_wav(mono, rate=8000), "wav"),
        (encode_aiff(mono, rate=8000), "aiff"),
        (encode_flac(mono, rate=8000), "flac"),
    ]:
        info = probe_media(payload)
        assert info["container"] == container, container
        assert info["kind"] == "audio", container
        assert info["sample_rate"] == 8000, container
        assert info["n_units"] == 8000, container
        assert info["duration_ms"] == 1000, container


def test_probe_avi_video():
    from nidaba_ray.algorithms.avi import encode_avi

    frames = np.stack([_img(16, 16) for _ in range(6)])
    info = probe_media(encode_avi(frames, fps=12))
    assert info["container"] == "avi" and info["kind"] == "video"
    # 499 not 500: avih stores int(1e6/12)=83333 µs/frame and the
    # probe truncates — header-faithful, not nominal-fps
    assert info["n_units"] == 6 and info["duration_ms"] == 499
    assert (info["width"], info["height"]) == (16, 16)


def test_probe_mp4_mp3():
    from nidaba_ray.algorithms.mp3 import encode_mp3_frames
    from nidaba_ray.algorithms.mp4 import encode_mp4_skeleton

    mp4 = encode_mp4_skeleton(
        [{"kind": "vide", "codec": "avc1", "width": 320, "height": 240,
          "n_samples": 90, "duration_ms": 3000},
         {"kind": "soun", "codec": "mp4a", "timescale": 48000,
          "n_samples": 140}],
        duration_ms=3000)
    info = probe_media(mp4)
    assert info["container"] == "mp4" and info["kind"] == "video"
    assert info["codec"] == "avc1" and info["duration_ms"] == 3000
    assert (info["width"], info["height"]) == (320, 240)
    assert info["sample_rate"] == 48000 and info["n_units"] == 90

    info = probe_media(encode_mp3_frames(19, bitrate=96, rate=32000))
    assert (info["container"], info["kind"], info["codec"]) == \
        ("mp3", "audio", "mp3")
    assert info["n_units"] == 19


def test_probe_stage_batch_and_quarantine(ray_session):
    from nidaba_ray.algorithms.png import encode_png
    from nidaba_ray.stages.registry import get_stage, list_stages

    assert "media.probe" in list_stages()
    batch = pa.table({
        "media_id": pa.array([0, 1, 2], pa.int64()),
        "payload": pa.array(
            [encode_png(_img()), b"\x00garbage\xff" * 4, b""],
            pa.binary()),
    })
    out = MediaProbe()(batch)
    assert out["container"].to_pylist() == ["png", "", ""]
    errs = out["error"].to_pylist()
    assert errs[0] == "" and errs[1] != "" and errs[2] != ""


def test_probe_agrees_with_decoders():
    """Dims/duration from headers must equal the full decode."""
    from nidaba_ray.algorithms.jpeg import decode_jpeg, encode_jpeg
    from nidaba_ray.algorithms.wav import decode_wav, encode_wav
    from nidaba_ray.stages.multimodal import decode_image

    img = _img(37, 29)
    payload = encode_jpeg(img)
    info = probe_media(payload)
    h, w = decode_image(payload).shape
    assert (info["width"], info["height"]) == (w, h)

    mono = np.zeros((4410, 1))
    wav = encode_wav(mono, rate=44100)
    samples, rate = decode_wav(wav)
    info = probe_media(wav)
    assert info["n_units"] == len(samples) and info["sample_rate"] == rate


def _zero_rate_wav():
    from nidaba_ray.algorithms.wav import encode_wav

    return encode_wav(np.zeros(64, np.int16), rate=0)


def _zero_rate_aiff():
    from nidaba_ray.algorithms.aiff import encode_aiff

    a = bytearray(encode_aiff(np.zeros(64, np.int16), rate=8000))
    rate_at = a.index(b"COMM") + 8 + 8  # channels, frames, bits
    a[rate_at:rate_at + 10] = bytes(10)  # 80-bit extended 0.0
    return bytes(a)


def _zero_rate_flac():
    from nidaba_ray.algorithms.flac import encode_flac

    return encode_flac(np.zeros(64, np.int16), rate=0)


@pytest.mark.parametrize("make", [_zero_rate_wav, _zero_rate_aiff,
                                  _zero_rate_flac],
                         ids=["wav", "aiff", "flac"])
def test_zero_rate_audio_header_is_an_error(make):
    """A 0 Hz header is malformed in every audio container: the
    decoder raises, AudioFeatures quarantines the row (a rate-less
    spectral centroid would land in another unit than its column),
    and the probe reports the rate rather than some other fault."""
    from nidaba_ray.stages.multimodal import AudioFeatures, decode_audio

    payload = make()
    with pytest.raises(ValueError, match="sample rate"):
        decode_audio(payload)
    row = AudioFeatures()(pa.table({
        "media_id": pa.array([0], pa.int64()),
        "payload": pa.array([payload], pa.binary()),
    })).to_pylist()[0]
    assert "sample rate" in row["error"]
    assert row["spectral_centroid"] == 0.0
    with pytest.raises(ValueError, match="sample rate"):
        probe_media(payload)


def test_probe_png_requires_ihdr_first():
    """Width and height are read from the first chunk only when it is
    the 13-byte IHDR the spec puts there."""
    from nidaba_ray.algorithms.png import encode_png

    good = encode_png(_img())
    assert probe_media(good)["width"] == 23
    bad = good[:12] + b"tEXt" + good[16:]
    with pytest.raises(ValueError, match="IHDR"):
        probe_media(bad)


def test_probe_flac_requires_streaminfo_first():
    """A FLAC whose first metadata block is typed PADDING is not read
    as STREAMINFO: the probe raises, as the decoder does."""
    from nidaba_ray.algorithms.flac import decode_flac, encode_flac

    good = encode_flac(np.zeros(64, np.int16), rate=8000)
    assert probe_media(good)["sample_rate"] == 8000
    bad = bytearray(good)
    bad[4] = (bad[4] & 0x80) | 1  # PADDING, keeping the last-block flag
    with pytest.raises(ValueError, match="STREAMINFO"):
        decode_flac(bytes(bad))
    with pytest.raises(ValueError, match="STREAMINFO"):
        probe_media(bytes(bad))


def test_synth_media_corpus_probes_and_decodes():
    """Every synthetic payload probes with no error, into a container
    the media_probe oracle emits, with the rollup the oracle replays;
    and it decodes through the decoder for its kind."""
    import duckdb

    from nidaba_ray.pipelines.media import (_probe_extra_batch,
                                            media_probe_sql)
    from nidaba_ray.stages.multimodal import (decode_audio, decode_image,
                                              iter_video_frames,
                                              synth_media_batch)

    ids = list(range(3000))
    t = synth_media_batch(ids)
    for i, kind, p in zip(ids, t["kind"].to_pylist(),
                          t["payload"].to_pylist()):
        info = probe_media(p)
        assert info["kind"] == kind, i
        if kind == "image":
            assert decode_image(p).shape == (info["height"], info["width"])
        elif kind == "audio":
            samples, rate = decode_audio(p)
            assert (len(samples), rate) == (info["n_units"],
                                            info["sample_rate"]), i
        else:
            assert len([th() for _, th in iter_video_frames(p)]) \
                == info["n_units"], i

    probed = MediaProbe()(pa.concat_tables([t, _probe_extra_batch(ids)]))
    assert set(probed["error"].to_pylist()) == {""}
    got = duckdb.sql("""
        SELECT container, count(*), sum(width), sum(height), sum(n_units),
               sum(duration_ms), sum(sample_rate)
        FROM probed GROUP BY container ORDER BY container""").fetchall()
    con = duckdb.connect()
    con.execute("CREATE TABLE documents AS "
                "SELECT range AS doc_id FROM range(3000)")
    assert got == con.execute(media_probe_sql()).fetchall()


def test_media_triage_example_spec(ray_session):
    """examples/media_triage.yaml: the probe as a compiled spec over a
    mixed media table (mp4 + png + corrupt row)."""
    import ray.data as rd

    from nidaba_ray.algorithms.mp4 import encode_mp4_skeleton
    from nidaba_ray.algorithms.png import encode_png
    from nidaba_ray.stages import registry

    spec = registry.load_spec("examples/media_triage.yaml")
    t = pa.table({
        "media_id": pa.array([0, 1, 2], pa.int64()),
        "payload": pa.array([
            encode_mp4_skeleton([{"kind": "soun", "codec": "mp4a",
                                  "n_samples": 5}]),
            encode_png(_img()),
            b"\x00junk",
        ], pa.binary()),
    })
    out = (registry.compile_pipeline(rd.from_arrow(t), spec)
           .to_pandas().sort_values("media_id"))
    assert out["container"].tolist() == ["mp4", "png", ""]
    assert out["kind"].tolist() == ["audio", "image", ""]
    assert (out["error"] != "").tolist() == [False, False, True]
