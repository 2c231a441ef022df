"""Generic 64-bit-fingerprint dedup machinery for the image
(dHash/aHash) perceptual dedup in functions/imagededup.py.

* ``exact_dup_groups``: narrow groupby on the hash columns, group_id
  = min id (total order), payload never shuffles; the per-item result
  stays a Dataset (never collected on the driver)
* ``near_dup_pairs``: Hamming ≤ k pairing via the SimHash pigeonhole
  — 8 × 8-bit chunks of the 64-bit hash guarantee any pair within
  Hamming ≤ 7 shares one exact chunk, so candidates come from a
  hash-partitioned self-join on (chunk_id, chunk_val) and the verify
  is one vectorized XOR-popcount. Lossless for max_hamming < 8
  (pinned pair-set-equal to brute force in the callers' tests).

Hashes travel as int64 (the two's-complement view of the uint64 bit
pattern)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from nidaba_ray.util import ensure_columns, join_partitions

__all__ = ["exact_dup_groups", "near_dup_pairs"]


def _drop_errors(hashes: rd.Dataset) -> rd.Dataset:
    return hashes.map_batches(
        lambda b: b.filter(pc.equal(b["error"], "")),
        batch_format="pyarrow").drop_columns(["error"])


def exact_dup_groups(hashes: rd.Dataset, hash_cols: tuple[str, ...],
                     id_col: str) -> rd.Dataset:
    """(id, group_id) for rows sharing every hash column, sorted by id;
    group_id is the group's min id. One row per media item, so the
    result stays a Dataset."""
    from ray.data.aggregate import Min

    clean = _drop_errors(hashes).materialize()
    if clean.count() == 0:  # an all-empty join input has no key schema
        return rd.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "group_id": pa.array([], pa.int64()),
        }))
    mins = clean.groupby(list(hash_cols)).aggregate(
        Min(id_col, alias_name="group_id"))
    joined = clean.join(mins, "inner", join_partitions(8),
                        on=tuple(hash_cols))
    return joined.select_columns([id_col, "group_id"]).sort(id_col)


def near_dup_pairs(hashes: rd.Dataset, hash_col: str, id_col: str,
                   max_hamming: int = 6) -> pa.Table:
    """Pairs (id_a < id_b, hamming) within ``max_hamming`` (< 8) on
    the 64-bit ``hash_col``."""
    if not 0 <= max_hamming < 8:
        raise ValueError("pigeonhole on 8 chunks needs max_hamming < 8")

    def explode(batch: pa.Table) -> pa.Table:
        rid, cid, cval, full = [], [], [], []
        for m, h in zip(batch[id_col].to_pylist(),
                        batch[hash_col].to_pylist()):
            uh = int(np.int64(h).astype(np.uint64))
            for c in range(8):
                rid.append(m)
                cid.append(c)
                cval.append((uh >> (8 * c)) & 0xFF)
                full.append(h)
        return pa.table({
            id_col: pa.array(rid, pa.int64()),
            "chunk_id": pa.array(cid, pa.int32()),
            "chunk_val": pa.array(cval, pa.int32()),
            hash_col: pa.array(full, pa.int64()),
        })

    def to_pairs(batch: pa.Table) -> pa.Table:
        b = batch.filter(
            pc.less(batch[f"{id_col}_a"], batch[f"{id_col}_b"]))
        ha = b[f"{hash_col}_a"].to_numpy(zero_copy_only=False).astype(
            np.int64).view(np.uint64)
        hb = b[f"{hash_col}_b"].to_numpy(zero_copy_only=False).astype(
            np.int64).view(np.uint64)
        x = (ha ^ hb).view(np.uint8).reshape(-1, 8)
        d = np.unpackbits(x, axis=1).sum(axis=1).astype(np.int64)
        keep = d <= max_hamming
        return pa.table({
            "id_a": pa.array(np.asarray(b[f"{id_col}_a"])[keep], pa.int64()),
            "id_b": pa.array(np.asarray(b[f"{id_col}_b"])[keep], pa.int64()),
            "hamming": pa.array(d[keep], pa.int64()),
        })

    schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                        ("hamming", pa.int64())])
    exploded = _drop_errors(hashes).map_batches(
        explode, batch_format="pyarrow").materialize()
    if exploded.count() == 0:  # an all-empty join input has no key schema
        return schema.empty_table()
    joined = exploded.join(
        exploded, "inner", join_partitions(8),
        on=("chunk_id", "chunk_val"),
        left_suffix="_a", right_suffix="_b",
    )
    out = joined.map_batches(to_pairs, batch_format="pyarrow").to_pandas()
    out = ensure_columns(out, schema)
    out = (out.drop_duplicates(["id_a", "id_b"])
           .sort_values(["id_a", "id_b"]).reset_index(drop=True)
           .astype({"id_a": "int64", "id_b": "int64", "hamming": "int64"}))
    return pa.Table.from_pandas(out, preserve_index=False)
