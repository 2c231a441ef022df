"""Perceptual video dedup: cross-container exact groups (AVI/DIB vs
exact-palette GIF of the same frames), lossy MJPG proximity, lazy
decode economy (only two frames pay), and the distributed passes."""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from nidaba_ray.functions.videodedup import (
    VideoFingerprinter,
    video_exact_dup_groups,
    video_near_dup_pairs,
)


def _frames(n=5, seed=3):
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
    # smooth-ish evolution so MJPG stays close
    out = [base]
    for _ in range(n - 1):
        out.append(((out[-1].astype(int) + 7) % 256).astype(np.uint8))
    return np.stack(out)


def _media(rows):
    return pa.table({
        "media_id": pa.array([r[0] for r in rows], pa.int64()),
        "kind": pa.array(["video"] * len(rows), pa.string()),
        "payload": pa.array([r[1] for r in rows], pa.binary()),
    })


def test_cross_container_exact_group_and_quarantine(ray_session):
    import ray.data as rd

    from nidaba_ray.algorithms.avi import encode_avi, is_avi
    from nidaba_ray.algorithms.gif import encode_gif

    fr = _frames()
    other = _frames(seed=77)
    rows = [
        (1, encode_avi(fr, fps=10, codec="DIB ")),
        (2, encode_gif(fr, delay_cs=10)),       # same frames, other wire
        (3, encode_avi(other, fps=10, codec="DIB ")),
        (4, encode_avi(fr, fps=10, codec="DIB ")[:200]),  # truncated
    ]
    assert is_avi(rows[3][1])  # sniffs as video, fails to decode
    media = rd.from_arrow(_media(rows))
    groups = video_exact_dup_groups(media).to_pandas()
    gmap = dict(zip(groups["media_id"], groups["group_id"]))
    assert gmap[1] == gmap[2] == 1
    assert gmap[3] != 1
    assert 4 not in gmap
    pairs = video_near_dup_pairs(media).to_pandas()
    assert (1, 2) in set(zip(pairs["id_a"], pairs["id_b"]))


def test_mjpg_stays_near():
    from nidaba_ray.algorithms.avi import encode_avi

    fr = np.stack([
        (np.add.outer(np.arange(16) * 3, np.arange(16) * 5) % 256
         ).astype(np.uint8)
    ] * 4)
    dib = encode_avi(fr, fps=10, codec="DIB ")
    mjpg = encode_avi(fr, fps=10, codec="MJPG", quality=95)
    out = {r["media_id"]: r for r in VideoFingerprinter()(
        _media([(1, dib), (2, mjpg)])).to_pylist()}
    assert out[1]["error"] == "" and out[2]["error"] == ""
    x = (np.uint64(np.int64(out[1]["first_hash"]))
         ^ np.uint64(np.int64(out[2]["first_hash"])))
    assert bin(int(x)).count("1") <= 6
    assert out[1]["n_frames"] == out[2]["n_frames"] == 4


def test_lazy_decode_only_two_frames(monkeypatch):
    """The fingerprint must NOT decode middle frames (the lazy-walk
    economy): count thunk invocations on a 6-frame clip."""
    from nidaba_ray.algorithms.avi import encode_avi
    from nidaba_ray.functions import videodedup
    from nidaba_ray.stages import multimodal

    calls = []
    real_iter = multimodal.iter_video_frames

    def counting_iter(payload):
        for f, thunk in real_iter(payload):
            def wrapped(t=thunk, f=f):
                calls.append(f)
                return t()
            yield f, wrapped

    monkeypatch.setattr(multimodal, "iter_video_frames", counting_iter)
    clip = encode_avi(_frames(6), fps=10, codec="MJPG", quality=90)
    out = VideoFingerprinter()(_media([(1, clip)])).to_pylist()
    assert out[0]["error"] == "" and out[0]["n_frames"] == 6
    assert sorted(calls) == [0, 5]   # first + last only


def test_over_full_synth_media_corpus(ray_session):
    from nidaba_ray.functions.videodedup import video_hash_table
    from nidaba_ray.pipelines.media import media_dataset

    ht = video_hash_table(media_dataset("/root/testdata/sf0.001")).to_pandas()
    assert (ht["error"] == "").all() and len(ht) > 100
    assert (ht["n_frames"] > 0).all()
