"""Sharded streaming seen-index (state/seen.py) — the shared-mutable-
index carve-out. Pins the determinism contract: admitted KEY SET ==
exact distinct set (DuckDB-checked), exactly one representative per
key, counters consistent, and the key-set invariant holds across
parallelism levels even though representatives may differ."""

from __future__ import annotations

import duckdb
import pyarrow as pa
import pytest


def _pages(n_rows: int, n_distinct: int) -> pa.Table:
    texts = [f"document body number {i % n_distinct}" for i in range(n_rows)]
    return pa.table(
        {
            "doc_id": pa.array(range(n_rows), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )


def test_admit_first_arrival_exact_distinct(ray_session):
    import ray.data as rd

    from nidaba_ray.state.seen import (admit_first_arrival, index_stats,
                                       seen_index)

    t = _pages(n_rows=1000, n_distinct=137)
    shards = seen_index(3)
    got = admit_first_arrival(
        rd.from_arrow(t).repartition(8), shards, key_col="text"
    ).to_pandas()

    want = duckdb.sql(
        "SELECT count(DISTINCT text) AS n FROM t"
    ).fetchone()[0]
    assert len(got) == want == 137
    # one representative per key, and the admitted key set is exact
    assert got["text"].nunique() == 137
    assert set(got["text"]) == set(t["text"].to_pylist())

    st = index_stats(shards).to_pandas()
    assert int(st["n_keys"].sum()) == 137
    assert int(st["n_hits"].sum()) == 1000 - 137
    # every shard owns a disjoint partition of the key space
    assert (st["n_keys"] >= 0).all() and len(st) == 3


def test_admit_key_set_invariant_across_parallelism(ray_session):
    import ray.data as rd

    from nidaba_ray.state.seen import admit_first_arrival, seen_index

    t = _pages(n_rows=600, n_distinct=59)
    keysets = []
    for nblocks in (1, 4, 16):
        shards = seen_index(2)
        got = admit_first_arrival(
            rd.from_arrow(t).repartition(nblocks), shards, key_col="text"
        ).to_pandas()
        keysets.append(frozenset(got["text"]))
        assert len(got) == 59
    # representatives may differ (documented); the key set never does
    assert keysets[0] == keysets[1] == keysets[2]


def test_admit_binary_and_null_keys(ray_session):
    import ray.data as rd

    from nidaba_ray.state.seen import admit_first_arrival, seen_index

    t = pa.table(
        {
            "doc_id": pa.array(range(6), pa.int64()),
            "payload": pa.array(
                [b"\x00\x01", b"\x00\x01", None, None, b"", b"x"],
                pa.binary(),
            ),
        }
    )
    shards = seen_index(2)
    got = admit_first_arrival(
        rd.from_arrow(t), shards, key_col="payload"
    ).to_pandas()
    # b"\x00\x01" once; None and b"" hash identically (documented md5
    # of empty) -> one admitted between them; b"x" once
    assert len(got) == 3


def test_streaming_source_composes_with_index(ray_session):
    """End-to-end: streaming crawl shards -> seen index keyed on the
    synthesized text -> admitted count equals the source's distinct
    text count (computed independently)."""
    from nidaba_ray.sources.crawl import read_crawl
    from nidaba_ray.state.seen import admit_first_arrival, seen_index

    n_distinct = len(read_crawl(4, 32).unique("text"))
    shards = seen_index(3)
    admitted = admit_first_arrival(
        read_crawl(4, 32).drop_columns(["golden"]), shards, key_col="text"
    )
    assert admitted.count() == n_distinct


def test_tiered_shard_equals_flat(ray_session):
    """A shard with a tiny mutable tier (forcing many freezes and at
    least one run merge) admits exactly the same key sequence as the
    flat-set shard."""
    import hashlib

    from nidaba_ray.state.seen import SeenShard

    keys = [
        hashlib.md5(f"k{i % 97}".encode()).digest() for i in range(700)
    ]
    flat = SeenShard.remote()
    tiered = SeenShard.remote(max_mem_keys=8)  # 97 distinct → >8 freezes
    import ray as _ray

    got_flat = []
    got_tiered = []
    for lo in range(0, 700, 64):  # batched like real admit traffic
        chunk = keys[lo:lo + 64]
        a, b = _ray.get([flat.admit.remote(chunk),
                         tiered.admit.remote(chunk)])
        got_flat.extend(a)
        got_tiered.extend(b)
    assert got_flat == got_tiered
    assert sum(got_flat) == 97
    sf, st = _ray.get([flat.stats.remote(), tiered.stats.remote()])
    assert sf == st == (97, 700 - 97)


def test_tiered_index_through_dataset(ray_session):
    import ray.data as rd

    from nidaba_ray.state.seen import admit_first_arrival, seen_index

    t = _pages(n_rows=1000, n_distinct=137)
    shards = seen_index(2, max_mem_keys=10)
    got = admit_first_arrival(
        rd.from_arrow(t).repartition(8), shards, key_col="text"
    ).to_pandas()
    assert len(got) == 137 and got["text"].nunique() == 137


@pytest.mark.slow
def test_spilled_shard_equals_flat(ray_session, tmp_path):
    """Disk-tier parity: a shard spilling frozen runs to .npy memmaps
    admits exactly the same key sequence as the flat-set shard, and
    the run files actually exist on disk then shrink after merges."""
    import hashlib
    import os

    import ray as _ray

    from nidaba_ray.state.seen import SeenShard

    keys = [
        hashlib.md5(f"s{i % 131}".encode()).digest() for i in range(900)
    ]
    spill = str(tmp_path / "seen-spill")
    flat = SeenShard.remote()
    spilled = SeenShard.remote(6, 3, spill)  # tiny tiers, fast merges
    got_flat, got_spill = [], []
    for lo in range(0, 900, 50):
        chunk = keys[lo:lo + 50]
        a, b = _ray.get([flat.admit.remote(chunk),
                         spilled.admit.remote(chunk)])
        got_flat.extend(a)
        got_spill.extend(b)
    assert got_flat == got_spill
    assert sum(got_flat) == 131
    sf, ss = _ray.get([flat.stats.remote(), spilled.stats.remote()])
    assert sf == ss == (131, 900 - 131)
    runs = [f for f in os.listdir(spill) if f.startswith("run-")]
    assert runs and all(f.endswith(".npy") for f in runs)
    # merges bound the live run count below merge_every
    assert len(runs) < 3 + 1
    # durability sidecars present: manifest + exactly one live WAL
    assert "MANIFEST.json" in os.listdir(spill)
    assert sum(f.startswith("wal-") for f in os.listdir(spill)) == 1


@pytest.mark.slow
def test_spilled_index_through_dataset(ray_session, tmp_path):
    import ray.data as rd

    from nidaba_ray.state.seen import admit_first_arrival, seen_index

    t = _pages(n_rows=1000, n_distinct=137)
    shards = seen_index(2, max_mem_keys=9,
                        spill_dir=str(tmp_path / "spill"))
    got = admit_first_arrival(
        rd.from_arrow(t).repartition(8), shards, key_col="text"
    ).to_pandas()
    assert len(got) == 137 and got["text"].nunique() == 137


@pytest.mark.slow
def test_shard_crash_recovery(ray_session, tmp_path):
    """Kill a spilled shard mid-stream; a replacement actor on the
    same spill_dir must reject every previously admitted key —
    including keys that only ever lived in the mutable tier (WAL
    replay) — and admit exactly the remaining distinct keys."""
    import hashlib

    import ray as _ray

    from nidaba_ray.state.seen import SeenShard

    keys = [hashlib.md5(f"k{i}".encode()).digest() for i in range(100)]
    spill = str(tmp_path / "crash-spill")
    shard = SeenShard.remote(7, 3, spill)  # freezes + merges happen
    first = _ray.get(shard.admit.remote(keys[:60]))
    assert all(first)
    # 60 admitted; with max_mem=7 the last ≤6 live only in the WAL
    _ray.kill(shard)

    revived = SeenShard.remote(7, 3, spill)
    # every old key (frozen OR WAL-only) must be a duplicate now
    assert _ray.get(revived.admit.remote(keys[:60])) == [False] * 60
    # fresh keys still admit
    assert all(_ray.get(revived.admit.remote(keys[60:])))
    n_keys, _hits = _ray.get(revived.stats.remote())
    assert n_keys == 100


@pytest.mark.slow
def test_index_crash_recovery_through_dataset(ray_session, tmp_path):
    """End-to-end: stream part A, kill ALL shards, rebuild the index
    from the spill dir, stream part B (overlapping A) — the union of
    admitted rows matches DuckDB count-distinct over A ∪ B."""
    import ray as _ray
    import ray.data as rd

    from nidaba_ray.state.seen import (admit_first_arrival, index_stats,
                                       seen_index)

    spill = str(tmp_path / "crash-spill-ds")
    a = _pages(n_rows=400, n_distinct=97)
    shards = seen_index(2, max_mem_keys=9, spill_dir=spill)
    got_a = admit_first_arrival(
        rd.from_arrow(a).repartition(4), shards, key_col="text"
    ).to_pandas()
    for s in shards:
        _ray.kill(s)

    b = pa.table({
        "doc_id": pa.array(range(500), pa.int64()),
        "text": pa.array(
            [f"document body number {i % 150}" for i in range(500)],
            pa.string()),
    })  # first 97 keys overlap part A entirely
    revived = seen_index(2, max_mem_keys=9, spill_dir=spill)
    got_b = admit_first_arrival(
        rd.from_arrow(b).repartition(4), revived, key_col="text"
    ).to_pandas()

    import pandas as pd

    union = pd.concat([got_a, got_b])
    want = duckdb.sql(
        "SELECT count(DISTINCT text) FROM (SELECT text FROM a UNION ALL "
        "SELECT text FROM b)"
    ).fetchone()[0]
    assert union["text"].nunique() == len(union) == want == 150
    st = index_stats(revived).to_pandas()
    assert int(st["n_keys"].sum()) == 150


@pytest.mark.slow
def test_spill_dir_reuse_without_manifest_wipes_orphans(ray_session, tmp_path):
    """A spill_dir with leftover files but NO manifest is a stale dir,
    not recoverable state: a new shard wipes the orphans and starts
    empty (re-admitting everything)."""
    import hashlib
    import os

    import ray as _ray

    from nidaba_ray.state.seen import SeenShard

    spill = str(tmp_path / "stale-spill")
    keys = [hashlib.md5(f"z{i}".encode()).digest() for i in range(20)]
    shard = SeenShard.remote(None, 8, spill)  # never freezes: no manifest
    assert all(_ray.get(shard.admit.remote(keys)))
    _ray.kill(shard)
    assert "MANIFEST.json" not in os.listdir(spill)
    wals_before = [f for f in os.listdir(spill) if f.startswith("wal-")]
    assert wals_before  # the stale WAL exists ...

    fresh = SeenShard.remote(None, 8, spill)
    # ... but was wiped: with no manifest the index starts empty
    assert all(_ray.get(fresh.admit.remote(keys)))
    _ray.kill(fresh)


def _plain_shard(**kw):
    """Undecorated SeenShard for in-process unit tests (no actor)."""
    from nidaba_ray.state.seen import SeenShard

    cls = SeenShard.__ray_actor_class__
    s = cls.__new__(cls)
    cls.__init__(s, **kw)
    return s, cls


@pytest.mark.slow
def test_bloom_resize_keeps_no_false_negatives(tmp_path, monkeypatch):
    """When frozen keys outgrow ~8 bits/key the front doubles and is
    rebuilt from the runs: capacity grows geometrically, admitted set
    is unchanged, and no frozen key is ever bloom-rejected (false
    negatives would silently re-admit duplicates)."""
    import hashlib

    from nidaba_ray.state.seen import SeenShard

    cls = SeenShard.__ray_actor_class__
    monkeypatch.setattr(cls, "_BLOOM_MIN_BITS", 1 << 10)  # resize at 128 keys
    s, _ = _plain_shard(max_mem_keys=64, merge_every=3,
                        spill_dir=str(tmp_path / "shard"))
    keys = [hashlib.md5(f"k{i}".encode()).digest() for i in range(1500)]
    assert all(s.admit(keys))
    assert s._bloom_bits > (1 << 10)          # grew
    assert s._bloom_bits & (s._bloom_bits - 1) == 0  # stays a power of two
    assert 8 * s._n_frozen <= s._bloom_bits   # capacity invariant
    # every frozen key still passes the rebuilt front
    frozen = [k for k in keys if k not in s._seen]
    assert frozen and not any(not s._bloom_maybe(k) for k in frozen)
    # duplicates still rejected through the resized front
    assert not any(s.admit(keys))
    # recovery recomputes the SAME size purely from n_frozen
    r, _ = _plain_shard(max_mem_keys=64, merge_every=3,
                        spill_dir=str(tmp_path / "shard"))
    assert r._bloom_bits == s._bloom_bits
    assert not any(r.admit(keys))
    n, hits = r.stats()
    assert n == 1500


def test_bloom_scalar_vs_vectorized_positions(monkeypatch):
    """The scalar probe path (exact Python ints) and the vectorized
    rebuild path (wrapping uint64) must compute identical bit
    positions — true because sizes are powers of two (2**m | 2**64).
    Pinned so a future non-power-of-two size change fails loudly."""
    import hashlib

    import numpy as np

    s, _ = _plain_shard(max_mem_keys=4)
    for bits in (1 << 10, 1 << 23, 1 << 26):
        s._bloom_bits = bits
        mask = np.uint64(bits - 1)
        for i in range(200):
            k = hashlib.md5(f"pos{i}".encode()).digest()
            h1 = np.uint64(int.from_bytes(k[:8], "big"))
            h2 = np.uint64(int.from_bytes(k[8:], "big") | 1)
            with np.errstate(over="ignore"):
                vec = [int((h1 + np.uint64(j) * h2) & mask)
                       for j in range(s._BLOOM_K)]
            assert vec == s._bloom_positions(k)


def test_idempotent_admit_replays_reply():
    """A byte-equal resend of a batch (Ray task retry) must replay
    the original flags without double-admitting; a different batch id
    with the same keys is a genuine duplicate batch and drops."""
    import hashlib

    s, _ = _plain_shard(max_mem_keys=None)
    keys = [hashlib.md5(f"k{i}".encode()).digest() for i in range(100)]
    bid = hashlib.md5(b"batch-1").digest()
    first = s.admit(keys, bid)
    assert all(first)
    n0, hits0 = s.stats()
    # the retry: identical reply object, counters untouched
    assert s.admit(keys, bid) == first
    assert s.stats() == (n0, hits0)
    # same keys under a NEW id = real duplicate content, all rejected
    assert not any(s.admit(keys, hashlib.md5(b"batch-2").digest()))
    # memo is bounded
    cap = type(s)._REPLY_MEMO_MAX
    for i in range(cap + 10):
        s.admit([hashlib.md5(f"x{i}".encode()).digest()],
                hashlib.md5(f"b{i}".encode()).digest())
    assert len(s._replies) <= cap


def test_idempotent_admit_through_dataset(ray_session):
    """admit_first_arrival(idempotency_col=...): re-running the same
    Dataset filter against a live index (the worst-case 'every task
    retried' scenario) admits the SAME rows again instead of zero."""
    import ray.data as rd

    from nidaba_ray.state.seen import (
        admit_first_arrival,
        index_stats,
        seen_index,
    )

    t = _pages(400, 97)
    shards = seen_index(3)
    ds = rd.from_arrow(t)
    first = admit_first_arrival(ds, shards, "text",
                                idempotency_col="doc_id").to_pandas()
    assert sorted(first["text"].unique()) == sorted(set(t["text"].to_pylist()))
    n_before = int(index_stats(shards)["n_keys"].to_pandas().sum())
    # identical re-execution (simulated whole-job retry: same blocks,
    # same rows) — replay returns the same representatives
    again = admit_first_arrival(rd.from_arrow(t), shards, "text",
                                idempotency_col="doc_id").to_pandas()
    assert sorted(again["doc_id"]) == sorted(first["doc_id"])
    assert int(index_stats(shards)["n_keys"].to_pandas().sum()) == n_before
    # without the idempotency column the rerun correctly drops all
    # rows (keys already seen)
    none = admit_first_arrival(rd.from_arrow(t), shards, "text").to_pandas()
    assert len(none) == 0
