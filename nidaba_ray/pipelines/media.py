"""Multimodal feature pipeline — image/audio/video payloads through
actor-pool decode/feature stages. Every payload is a real container
read by the repo's own codecs (see stages/multimodal.py).

The media table is synthesized deterministically, sized by the sf
dir's documents table (one media object per document id), so the
pipeline is runnable from ``queries()`` on any sf dir. Rows-only
check: binary decode features aren't SQL-expressible; the decoder
kernels are unit-tested.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data as rd

from nidaba_ray.stages.multimodal import (
    MediaFeatureExtractor,
    synth_media_batch,
)

__all__ = ["media_dataset", "media_features",
           "media_probe_summary", "media_probe_sql"]


def media_dataset(sf_dir: str, trace_dir: str | None = None) -> rd.Dataset:
    """Deterministic media table, one object per doc id — synthesis is
    itself a distributed map over the documents ids.

    ``trace_dir`` (tests only): every synthesis invocation drops a
    uniquely-named marker file there, so a test can assert the source
    executed exactly once per batch (single-pass guarantee)."""
    ids = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        if trace_dir is not None:
            import uuid

            with open(f"{trace_dir}/{uuid.uuid4().hex}", "w"):
                pass
        return synth_media_batch(batch["doc_id"].to_pylist())

    return ids.map_batches(synth, batch_format="pyarrow", batch_size=256)


def media_features(sf_dir: str, trace_dir: str | None = None) -> pa.Table:
    """Per-kind feature rollup in ONE pass over the media source: a
    single kind-dispatching actor-pool stage (MediaFeatureExtractor)
    decodes every object, then a distributed groupby reduces to one
    row per modality — the driver sees 3 rows.

    Media payloads are wide binary rows, so batches stay small and the
    stage is an actor pool (model-load analog). Features are summed in
    integer micro-units so the reduction is exact and order-independent
    (byte-identical across runs and parallelism levels)."""
    from ray.data.aggregate import Count, Sum

    feats = media_dataset(sf_dir, trace_dir).map_batches(
        MediaFeatureExtractor, batch_format="pyarrow", batch_size=64,
        concurrency=(1, 4),
    )
    g = (
        feats.groupby("kind")
        .aggregate(
            Count(alias_name="n_objects"),
            Sum("is_error", alias_name="n_errors"),
            Sum("feat_micro", alias_name="_fm"),
        )
        .to_pandas()  # 3 rows
    )
    g["feature_sum"] = (g["_fm"] / 1_000_000).round(4)
    g = g.drop(columns=["_fm"]).sort_values("kind").reset_index(drop=True)
    return pa.Table.from_pandas(
        g.astype({"kind": "string", "n_objects": "int64", "n_errors": "int64"}),
        preserve_index=False,
    )


# ---------------------------------------------------------------------------
# Header-only probe rollup (round-5 session 7) — the media family's
# ORACLE-bearing driver entry: every field MediaProbe reads from a
# synthetic container header is pure integer arithmetic in the
# generating doc_id, so DuckDB can replay the whole rollup from the
# documents table alone (the generator-replay idiom) — unlike
# pixel/sample features, which stay pytest-pinned.
# ---------------------------------------------------------------------------


def _probe_extra_batch(ids: list[int]) -> pa.Table:
    """MP4/MP3 probe-only rows (the two formats whose payloads the
    repo deliberately never decodes — triage metadata still must
    flow). One mp4 per id ≡ 0 (mod 7), one mp3 per id ≡ 3 (mod 7);
    every parameter is arithmetic in the id (SQL-replayable)."""
    from nidaba_ray.algorithms.mp3 import encode_mp3_frames
    from nidaba_ray.algorithms.mp4 import encode_mp4_skeleton

    meta_type = pa.struct([("width", pa.int32()), ("height", pa.int32()),
                           ("frames", pa.int32())])
    mids, kinds, payloads, metas = [], [], [], []
    for i in ids:
        if i % 7 == 0:
            w, h = 160 + (i % 4) * 80, 120 + (i % 3) * 60
            nf = 24 + (i % 5) * 12
            dur = 1000 + (i % 9) * 250
            rate = (44100, 32000, 48000)[(i // 7) % 3]
            payloads.append(encode_mp4_skeleton(
                [{"kind": "vide", "codec": "avc1", "width": w,
                  "height": h, "timescale": 1000, "duration_ms": dur,
                  "n_samples": nf},
                 {"kind": "soun", "codec": "mp4a", "timescale": rate,
                  "duration_ms": dur, "n_samples": nf * 2}],
                duration_ms=dur))
            mids.append(i)
            kinds.append("video")
            metas.append({"width": w, "height": h, "frames": nf})
        elif i % 7 == 3:
            n = 10 + (i % 6) * 5
            kbps = (64, 96, 128)[i % 3]
            rate = (44100, 48000, 32000)[(i // 7) % 3]
            payloads.append(encode_mp3_frames(n, bitrate=kbps, rate=rate))
            mids.append(i)
            kinds.append("audio")
            metas.append({"width": 0, "height": 0, "frames": n})
    return pa.table({
        "media_id": pa.array(mids, pa.int64()),
        "kind": pa.array(kinds, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "meta": pa.array(metas, meta_type),
    })


def media_probe_summary(sf_dir: str) -> pa.Table:
    """Per-container triage rollup over the synthetic media corpus
    PLUS mp4/mp3 probe-only rows: (container, n_objects, sum_width,
    sum_height, sum_units, sum_duration_ms, sum_rate). One probe pass
    (header reads only — no decode), integer sums (exact,
    order-independent), one container-cardinality groupby. Errors are
    a hard failure (asserted zero), not a column: every synthetic
    payload must probe."""
    from ray.data.aggregate import Sum

    from nidaba_ray.stages.multimodal import MediaProbe

    ids = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        i = batch["doc_id"].to_pylist()
        return pa.concat_tables(
            [synth_media_batch(i), _probe_extra_batch(i)])

    probed = (ids.map_batches(synth, batch_format="pyarrow", batch_size=256)
                 .map_batches(MediaProbe, batch_format="pyarrow",
                              batch_size=256, concurrency=(1, 4)))

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if (df["error"] != "").any():
            bad = df[df["error"] != ""].iloc[0]
            raise ValueError(
                f"probe error on media_id {bad['media_id']}: {bad['error']}")
        g = df.groupby("container", as_index=False).agg(
            n_objects=("media_id", "size"), sum_width=("width", "sum"),
            sum_height=("height", "sum"), sum_units=("n_units", "sum"),
            sum_duration_ms=("duration_ms", "sum"),
            sum_rate=("sample_rate", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    g = (probed.map_batches(partial, batch_format="pyarrow")
         .groupby("container")
         .aggregate(Sum("n_objects", alias_name="n_objects"),
                    Sum("sum_width", alias_name="sum_width"),
                    Sum("sum_height", alias_name="sum_height"),
                    Sum("sum_units", alias_name="sum_units"),
                    Sum("sum_duration_ms", alias_name="sum_duration_ms"),
                    Sum("sum_rate", alias_name="sum_rate"))
         .to_pandas()
         .sort_values("container").reset_index(drop=True))
    return pa.Table.from_pandas(
        g.astype({"container": "string", "n_objects": "int64",
                  "sum_width": "int64", "sum_height": "int64",
                  "sum_units": "int64", "sum_duration_ms": "int64",
                  "sum_rate": "int64"}),
        preserve_index=False,
    )


def media_probe_sql() -> str:
    """Generator-replay oracle: every probe field recomputed from
    doc_id with the SAME integer arithmetic `synth_media_batch` /
    `_probe_extra_batch` / the container headers encode. `//` is
    DuckDB integer division, matching Python floor-div on these
    non-negative operands."""
    return """
WITH ids AS (SELECT doc_id AS i FROM documents),
rows_native AS (
  SELECT i,
    CASE
      WHEN i % 3 = 0 THEN
        CASE (i // 3) % 5
          WHEN 1 THEN 'png' WHEN 2 THEN 'jpeg' WHEN 3 THEN 'gif'
          WHEN 4 THEN 'tiff'
          ELSE CASE WHEN (i // 15) % 2 = 1 THEN 'webp' ELSE 'bmp' END
        END
      WHEN i % 3 = 1 THEN
        CASE
          WHEN i % 6 = 1 THEN 'wav'
          WHEN (i // 6) % 2 = 1 THEN 'aiff'
          WHEN (i // 12) % 2 = 1 THEN 'flac'
          ELSE 'wav'
        END
      ELSE CASE WHEN (i // 3) % 4 = 3 THEN 'gif' ELSE 'avi' END
    END AS container,
    CASE
      WHEN i % 3 = 0 THEN 32 + (i % 4) * 16
      WHEN i % 3 = 2 THEN 16
      ELSE 0
    END AS width,
    CASE
      WHEN i % 3 = 0 THEN 24
      WHEN i % 3 = 2 THEN 16
      ELSE 0
    END AS height,
    CASE
      WHEN i % 3 = 0 THEN 1
      WHEN i % 3 = 1 THEN 1000 + (i % 5) * 500
      ELSE 6
    END AS n_units,
    CASE
      WHEN i % 3 = 1 THEN (1000 + (i % 5) * 500) * 1000 // 12000
      WHEN i % 3 = 2 AND (i // 3) % 4 <> 3 THEN 6 * 83333 // 1000
      ELSE 0
    END AS duration_ms,
    CASE WHEN i % 3 = 1 THEN 12000 ELSE 0 END AS sample_rate
  FROM ids
),
rows_mp4 AS (
  SELECT i, 'mp4' AS container,
         160 + (i % 4) * 80 AS width, 120 + (i % 3) * 60 AS height,
         24 + (i % 5) * 12 AS n_units,
         1000 + (i % 9) * 250 AS duration_ms,
         CASE (i // 7) % 3 WHEN 0 THEN 44100 WHEN 1 THEN 32000
              ELSE 48000 END AS sample_rate
  FROM ids WHERE i % 7 = 0
),
rows_mp3 AS (
  SELECT i, 'mp3' AS container, 0 AS width, 0 AS height,
         10 + (i % 6) * 5 AS n_units,
         (10 + (i % 6) * 5) * 1152 * 1000
           // (CASE (i // 7) % 3 WHEN 0 THEN 44100 WHEN 1 THEN 48000
                    ELSE 32000 END) AS duration_ms,
         CASE (i // 7) % 3 WHEN 0 THEN 44100 WHEN 1 THEN 48000
              ELSE 32000 END AS sample_rate
  FROM ids WHERE i % 7 = 3
),
all_rows AS (
  SELECT * FROM rows_native
  UNION ALL SELECT * FROM rows_mp4
  UNION ALL SELECT * FROM rows_mp3
)
SELECT container,
       CAST(COUNT(*) AS BIGINT) AS n_objects,
       CAST(SUM(width) AS BIGINT) AS sum_width,
       CAST(SUM(height) AS BIGINT) AS sum_height,
       CAST(SUM(n_units) AS BIGINT) AS sum_units,
       CAST(SUM(duration_ms) AS BIGINT) AS sum_duration_ms,
       CAST(SUM(sample_rate) AS BIGINT) AS sum_rate
FROM all_rows
GROUP BY container
ORDER BY container
"""
