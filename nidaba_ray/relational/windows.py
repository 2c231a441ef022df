"""Stream-shaped operators over the events log (SURVEY.md §2.9).

Ray Data has no event-time windows/watermarks; the reference is pure
batch anyway. The pattern (ray_guide): treat events as a partitioned
log — ONE range shuffle on the key (``Dataset.sort`` co-locates equal
keys in one partition, the same guarantee ``map_groups`` builds on),
then ONE vectorized pandas pass over each whole partition
(groupby.shift / cumsum / merge_asof(by=key) are C-level across all
users in the partition). This replaces the round-2 per-user
``map_groups`` — per-group pandas overhead over near-singleton groups
was the repo's measured ~20× anti-pattern (BASELINE.md item 6); a
partition holds many complete users, so the dispatch amortizes to
nothing while per-user semantics are untouched. Empty sort partitions
(possible when partitions outnumber occupied key ranges) hit the
wrapper, which returns the op's TYPED empty frame instead of Ray's
schema-less empty block. The oracle SQL expresses the same with
LAG/window functions.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from nidaba_ray.functions.compat import MD5_64_SQL, round_like_sql

SESSION_GAP_SEC = 1800


def sorted_partition_apply(
    ds: rd.Dataset,
    keys: list[str],
    fn: Callable[[pd.DataFrame], pd.DataFrame],
    empty: pd.DataFrame,
) -> rd.Dataset:
    """Range-shuffle on ``keys`` and apply ``fn`` once per whole
    partition (every key group arrives complete — Ray's sort
    range-partitions by key value, the invariant map_groups itself
    relies on). ``fn`` must be correct for any set of complete groups
    and is expected to do its own grouped/vectorized work; ``empty``
    is returned for empty partitions so the output schema survives
    all-empty collections (belt-and-braces: current Ray skips the fn
    on empty blocks and forwards them — collection sites still guard
    with util.ensure_columns)."""

    def wrapper(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return empty
        return fn(df)

    # batch_size=None → the batch is the entire sorted partition
    return ds.sort(keys).map_batches(
        wrapper, batch_size=None, batch_format="pandas"
    )


def _events(sf_dir: str, columns: list[str]) -> rd.Dataset:
    return rd.read_parquet(f"{sf_dir}/events.parquet", columns=columns)


def event_lag(sf_dir: str) -> rd.Dataset:
    """Per event: seconds since the same user's previous event (NULL
    for the first). Ordering assumption: (ts, event_id) is a total
    order within a user — stated here because the oracle's LAG uses
    the same order.

    Shape: one range shuffle on user_id, then a single sort + C-level
    ``groupby(user).shift`` per whole partition (no per-user pandas
    dispatch)."""

    def lag_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        prev = g.groupby("user_id", sort=False)["ts"].shift(1)
        gap = (g["ts"] - prev).dt.total_seconds()
        out = pd.DataFrame(
            {"event_id": g["event_id"].to_numpy(),
             "user_id": g["user_id"].to_numpy(),
             "gap_sec": round_like_sql(gap, 3).to_numpy()}
        )
        out.loc[prev.isna().to_numpy(), "gap_sec"] = np.nan
        return out

    empty = pd.DataFrame(
        {"event_id": pd.Series([], dtype="int64"),
         "user_id": pd.Series([], dtype="int64"),
         "gap_sec": pd.Series([], dtype="float64")}
    )
    return sorted_partition_apply(
        _events(sf_dir, ["event_id", "user_id", "ts"]),
        ["user_id"], lag_part, empty,
    )


EVENT_LAG_SQL = """
SELECT event_id, user_id,
       ROUND(EXTRACT(EPOCH FROM ts - LAG(ts) OVER w), 3) AS gap_sec
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def sessionize(sf_dir: str) -> rd.Dataset:
    """Session windows per user: a gap > 30 min starts a new session.
    Returns (user_id, n_events, n_sessions, max_session_events).

    Shape: one range shuffle on user_id, then per partition ONE sort +
    groupby(user) shift/cumsum/size — every step a C kernel over the
    whole partition, never a Python loop or per-user frame."""

    def sess_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        gap = (g["ts"] - g.groupby("user_id", sort=False)["ts"].shift(1)
               ).dt.total_seconds()
        # NaN > X is already False (not NaN), so fillna would be a
        # no-op — each user's first event must be flagged explicitly
        new_session = (gap.isna() | (gap > SESSION_GAP_SEC)).to_numpy()
        df = pd.DataFrame({
            "user_id": uid,
            # per-user session counter: cumulative new-session flags
            "sid": pd.Series(new_session).groupby(uid, sort=False).cumsum().to_numpy(),
        })
        sizes = df.groupby(["user_id", "sid"], sort=False).size().reset_index(name="n")
        out = sizes.groupby("user_id", as_index=False, sort=False).agg(
            n_events=("n", "sum"),
            n_sessions=("n", "size"),
            max_session_events=("n", "max"),
        )
        return out.astype(
            {"user_id": "int64", "n_events": "int64", "n_sessions": "int64",
             "max_session_events": "int64"}
        )

    empty = pd.DataFrame(
        {"user_id": pd.Series([], dtype="int64"),
         "n_events": pd.Series([], dtype="int64"),
         "n_sessions": pd.Series([], dtype="int64"),
         "max_session_events": pd.Series([], dtype="int64")}
    )
    return sorted_partition_apply(
        _events(sf_dir, ["event_id", "user_id", "ts"]),
        ["user_id"], sess_part, empty,
    )


SESSIONIZE_SQL = f"""
WITH lagged AS (
  SELECT user_id, ts,
         CASE WHEN LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                   IS NULL THEN 1
              WHEN EXTRACT(EPOCH FROM ts - LAG(ts) OVER
                   (PARTITION BY user_id ORDER BY ts, event_id))
                   > {SESSION_GAP_SEC} THEN 1
              ELSE 0 END AS new_session
  FROM events
), numbered AS (
  SELECT user_id, ts,
         SUM(new_session) OVER (PARTITION BY user_id ORDER BY ts
                                ROWS UNBOUNDED PRECEDING) AS sid
  FROM lagged
), sizes AS (
  SELECT user_id, sid, COUNT(*) AS n FROM numbered GROUP BY user_id, sid
)
SELECT user_id,
       CAST(SUM(n) AS BIGINT)  AS n_events,
       COUNT(*)                AS n_sessions,
       CAST(MAX(n) AS BIGINT)  AS max_session_events
FROM sizes GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# Sliding (hopping) window aggregate — §2.9 beyond tumbling
# ---------------------------------------------------------------------------

SLIDING_WINDOW_HOURS = 3  # window size; hop = 1 hour


def events_sliding_hourly(sf_dir: str) -> pa.Table:
    """Per (event_type, window_start): count + value sum over a
    3-hour window hopping by 1 hour.

    The classic batch expression of a hopping window: each event is
    replicated to the ``size/hop`` windows that contain it (a
    vectorized 3-way concat per batch — no per-row loop), per-batch
    partials collapse duplicates, and one groupby merges. Shuffle
    volume is partials only (≤ types × hours rows per block). Checked
    against a DuckDB cross-join oracle in
    tests/test_crawls_windows.py (test-level oracle — the driver
    surface is capped at 50 entries)."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch["ts"], unit="hour")
        parts = []
        for k in range(SLIDING_WINDOW_HOURS):
            start = pc.subtract(
                hour, pa.scalar(k * 3_600_000_000, pa.duration("us"))
            )
            parts.append(pa.table({
                "event_type": batch["event_type"],
                "window_start": start,
                "value": batch["value"],
            }))
        df = pa.concat_tables(parts).to_pandas()
        g = df.groupby(["event_type", "window_start"], as_index=False).agg(
            n_events=("value", "size"), sum_value=("value", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (
        _events(sf_dir, ["event_type", "ts", "value"])
        .map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby(["event_type", "window_start"])
        .aggregate(Sum("n_events", alias_name="n_events"),
                   Sum("sum_value", alias_name="sum_value"))
        .to_pandas()
    )
    out["n_events"] = out["n_events"].astype("int64")
    out["sum_value"] = round_like_sql(out["sum_value"], 2)
    out = out.sort_values(["event_type", "window_start"]).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


SLIDING_SQL = f"""
SELECT event_type,
       date_trunc('hour', ts) - k * INTERVAL 1 HOUR AS window_start,
       COUNT(*) AS n_events,
       ROUND(SUM(value), 2) AS sum_value
FROM events
CROSS JOIN (SELECT unnest(range({SLIDING_WINDOW_HOURS})) AS k)
GROUP BY 1, 2
ORDER BY event_type, window_start
"""


# ---------------------------------------------------------------------------
# HLL distinct sketch (SURVEY.md §2.5 sketches row)
# ---------------------------------------------------------------------------

HLL_P = 10  # 1024 registers → ~3% typical error
_M = 1 << HLL_P
_ALPHA = 0.7213 / (1 + 1.079 / _M)


def _hll_partial(batch: pa.Table, key: str, value: str) -> pa.Table:
    """One merged register set per (key value) per batch — the sketch
    is tiny and mergeable, so the shuffle carries registers, not rows
    (the 10^12-scale distinct-count pattern)."""
    df = pd.DataFrame({"k": batch[key].to_pandas(), "v": batch[value].to_pandas()})
    out_k, out_regs = [], []
    for k, grp in df.groupby("k", sort=True):
        regs = np.zeros(_M, dtype=np.uint8)
        for v in grp["v"].unique():
            h = int.from_bytes(hashlib.md5(str(v).encode()).digest()[:8], "big")
            idx = h & (_M - 1)
            w = h >> HLL_P
            rank = (64 - HLL_P) - w.bit_length() + 1
            if rank > regs[idx]:
                regs[idx] = rank
        out_k.append(k)
        out_regs.append(regs.tobytes())
    return pa.table({"k": pa.array(out_k, pa.string()),
                     "regs": pa.array(out_regs, pa.binary())})


def _hll_estimate(regs: np.ndarray) -> float:
    est = _ALPHA * _M * _M / np.sum(2.0 ** (-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * _M and zeros:
        est = _M * np.log(_M / zeros)  # linear counting for small n
    return est


def hll_distinct_users(sf_dir: str) -> pa.Table:
    """Approximate distinct user_id per event_type. Oracle-checked
    since round 4: the sketch is md5-deterministic, so the ORACLE
    REPLAYS THE SKETCH — registers, estimator, linear-counting branch
    and all — rather than comparing against an exact COUNT(DISTINCT)
    (accuracy vs exact stays asserted in unit tests)."""

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        regs = np.zeros(_M, dtype=np.uint8)
        for b in g["regs"]:
            regs = np.maximum(regs, np.frombuffer(b, dtype=np.uint8))
        return pd.DataFrame(
            {"event_type": [g["k"].iloc[0]],
             "approx_users": [int(round(_hll_estimate(regs)))]}
        ).astype({"event_type": "string", "approx_users": "int64"})

    out = (
        _events(sf_dir, ["event_type", "user_id"])
        .map_batches(
            lambda b: _hll_partial(b, "event_type", "user_id"),
            batch_format="pyarrow",
        )
        # partials are ≤ n_types 1 KB sketches per batch — coalesce to
        # one block so the tiny final merge has no empty reduce
        # partitions (schema-less RefBundle source)
        .repartition(1)
        .groupby("k")
        .map_groups(merge, batch_format="pandas")
        .to_pandas()
    )
    return pa.Table.from_pandas(out, preserve_index=False)


def hll_distinct_users_sql() -> str:
    """Driver oracle for :func:`hll_distinct_users` — the HLL replay:
    md5_64 per distinct (event_type, user_id), register index/rank via
    bit ops (DuckDB ``bin()`` length = int.bit_length), per-register
    MAX over a dense 0..m-1 grid, then the same alpha·m²/Σ2^-reg
    estimator with the linear-counting small-range branch. Quantized
    to an integer on both sides, which absorbs the ulp differences
    between numpy pairwise sums and SQL sequential sums."""
    return f"""
WITH h AS (
  SELECT event_type,
         {MD5_64_SQL.format(e='CAST(user_id AS VARCHAR)')} AS h
  FROM (SELECT DISTINCT event_type, user_id FROM events)
),
rr AS (
  SELECT event_type, (h & {_M - 1})::BIGINT AS idx,
         CASE WHEN (h >> {HLL_P}) = 0 THEN {64 - HLL_P + 1}
              ELSE {64 - HLL_P + 1} - length(bin(h >> {HLL_P})) END AS rank
  FROM h
),
regs AS (SELECT event_type, idx, MAX(rank) AS reg FROM rr GROUP BY 1, 2),
grid AS (
  SELECT et.event_type, g.i
  FROM (SELECT DISTINCT event_type FROM events) et,
       (SELECT unnest(range(0, {_M})) AS i) g
),
filled AS (
  SELECT grid.event_type, COALESCE(regs.reg, 0) AS reg
  FROM grid LEFT JOIN regs
    ON regs.event_type = grid.event_type AND regs.idx = grid.i
),
est AS (
  SELECT event_type,
         CAST({_ALPHA!r} AS DOUBLE) * {_M}.0 * {_M}.0
           / SUM(power(2.0, -reg)) AS raw,
         SUM(CASE WHEN reg = 0 THEN 1 ELSE 0 END) AS zeros
  FROM filled GROUP BY event_type
)
SELECT event_type,
       CAST(ROUND(CASE WHEN raw <= 2.5 * {_M} AND zeros > 0
                       THEN {_M}.0 * ln({_M}.0 / zeros)
                       ELSE raw END) AS BIGINT) AS approx_users
FROM est ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# As-of join (ray_guide "As-of / range join" pattern)
# ---------------------------------------------------------------------------

_ASOF_EMPTY = pd.DataFrame(
    {"purchase_id": pd.Series([], dtype="int64"),
     "user_id": pd.Series([], dtype="int64"),
     "purchase_ts": pd.Series([], dtype="datetime64[us]"),
     "click_id": pd.Series([], dtype="int64"),
     "click_ts": pd.Series([], dtype="datetime64[us]")}
)


def asof_last_click_before_purchase(sf_dir: str) -> rd.Dataset:
    """For each purchase event, the same user's most recent STRICTLY
    prior click — an as-of join expressed as ONE
    ``pd.merge_asof(by="user_id")`` per sorted partition (the C-level
    grouped backward search), not a per-user merge.

    Scale shape: the user key range-partitions both sides in ONE
    shuffle; per-partition history is assumed to fit a reducer
    (documented partitioning assumption — for unbounded histories,
    range-bucket ts and run the same merge per (user_range, ts_range)
    with a boundary carry). Determinism: clicks sort by (ts, event_id)
    so at equal click_ts the max event_id wins — a total order."""

    def asof_part(g: pd.DataFrame) -> pd.DataFrame:
        p = g[g["event_type"] == "purchase"]
        c = g[g["event_type"] == "click"]
        if p.empty or c.empty:
            return _ASOF_EMPTY
        p = p.sort_values(["ts", "event_id"], kind="mergesort")[
            ["event_id", "user_id", "ts"]]
        c = c.sort_values(["ts", "event_id"], kind="mergesort")[
            ["event_id", "user_id", "ts"]
        ].rename(columns={"event_id": "click_id", "ts": "click_ts"})
        m = pd.merge_asof(
            p, c,
            left_on="ts", right_on="click_ts", by="user_id",
            allow_exact_matches=False,  # strictly prior (c.ts < p.ts)
        )
        m = m.dropna(subset=["click_id"])
        if m.empty:
            return _ASOF_EMPTY
        return pd.DataFrame(
            {"purchase_id": m["event_id"].astype("int64"),
             "user_id": m["user_id"].astype("int64"),
             "purchase_ts": m["ts"].astype("datetime64[us]"),
             "click_id": m["click_id"].astype("int64"),
             "click_ts": m["click_ts"].astype("datetime64[us]")}
        )

    filtered = _events(
        sf_dir, ["event_id", "user_id", "ts", "event_type"]
    ).map_batches(  # pre-filter: only the two event types shuffle
        lambda t: t.filter(
            pa.compute.is_in(t["event_type"], value_set=pa.array(["purchase", "click"]))
        ),
        batch_format="pyarrow",
    )
    return sorted_partition_apply(filtered, ["user_id"], asof_part,
                                  _ASOF_EMPTY)


ASOF_SQL = """
SELECT p.event_id AS purchase_id, p.user_id, p.ts AS purchase_ts,
       c.event_id AS click_id, c.ts AS click_ts
FROM (SELECT * FROM events WHERE event_type = 'purchase') p
ASOF JOIN (SELECT * FROM events WHERE event_type = 'click') c
  ON p.user_id = c.user_id AND c.ts < p.ts
"""


def event_value_quantiles(sf_dir: str) -> rd.Dataset:
    """Per-type value quantiles (p50/p90) — grouped order statistics.

    DuckDB's quantile_cont and numpy's linear-interpolation percentile
    are bit-identical on the same sorted doubles (validated), so the
    result is oracle-exact after round_like_sql.

    Shape: per-batch partials pack each type's values as one float64
    binary blob (same bytes a sort would move, but as ≤ n_types rows
    per batch), the partials coalesce to one block, and one merge task
    concatenates + sorts per type. Exact grouped quantiles inherently
    gather each group's values on one reducer whatever the plumbing."""

    def pack(batch: pa.Table) -> pa.Table:
        df = batch.select(["event_type", "value"]).to_pandas()
        ts, blobs = [], []
        for t, grp in df.groupby("event_type", sort=True):
            ts.append(t)
            blobs.append(grp["value"].to_numpy(dtype=np.float64).tobytes())
        return pa.table({"event_type": pa.array(ts, pa.string()),
                         "vals": pa.array(blobs, pa.binary())})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(np.concatenate(
            [np.frombuffer(b, dtype=np.float64) for b in g["vals"]]
        ))
        return pd.DataFrame(
            {"event_type": [g["event_type"].iloc[0]],
             "p50": [round_like_sql(float(np.percentile(v, 50)), 4)],
             "p90": [round_like_sql(float(np.percentile(v, 90)), 4)],
             "n": [len(v)]}
        ).astype({"event_type": "string", "p50": "float64",
                  "p90": "float64", "n": "int64"})

    return (
        _events(sf_dir, ["event_type", "value"])
        .map_batches(pack, batch_format="pyarrow", batch_size=65536)
        .repartition(1)
        .groupby("event_type")
        .map_groups(merge, batch_format="pandas")
    )


EVENT_QUANTILES_SQL = """
SELECT event_type,
       ROUND(quantile_cont(value, 0.5), 4) AS p50,
       ROUND(quantile_cont(value, 0.9), 4) AS p90,
       COUNT(*) AS n
FROM events GROUP BY event_type
"""
