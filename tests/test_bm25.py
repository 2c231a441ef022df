"""BM25 keyword retrieval (functions/bm25.py round 5): micro-unit
DuckDB parity, layout invariance, and a hand-computed reference."""

from __future__ import annotations

import math
import os

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from nidaba_ray.functions.bm25 import (
    BM25_B,
    BM25_K1,
    bm25_sql,
    bm25_topk,
)
from nidaba_ray.functions.compat import round_like_sql

SF = "/root/testdata/sf0.001"


def _parity(sf_dir: str, queries=None, k=10):
    got = bm25_topk(sf_dir, queries, k).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"'{sf_dir}/documents.parquet'")
    want = con.execute(bm25_sql(queries, k)).df()
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))
    return got


def test_bm25_duckdb_parity_default(ray_session):
    got = _parity(SF)
    assert set(got["qid"]) == {"q_join", "q_scan", "q_window",
                               "q_stream", "q_sort"}
    # ranks are dense 1..k per query and scores non-increasing
    for _, g in got.groupby("qid"):
        assert g["rank"].tolist() == list(range(1, len(g) + 1))
        assert (g["score_micro"].diff().dropna() <= 0).all()


def test_bm25_custom_queries_and_no_hit(ray_session):
    got = _parity(SF, {"qa": "join", "q_none": "zzznotatoken"}, k=5)
    assert (got["qid"] == "qa").all()  # no-hit query yields no rows


def test_bm25_layout_invariance(ray_session, tmp_path):
    """Micro-unit integer sums make the result independent of block
    layout: rewrite the corpus as 7 tiny row groups and re-score."""
    t = pq.read_table(f"{SF}/documents.parquet")
    d = os.path.join(tmp_path, "relayout")
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, os.path.join(d, "documents.parquet"),
                   row_group_size=77)
    a = bm25_topk(SF).to_pandas()
    b = bm25_topk(d).to_pandas()
    pd.testing.assert_frame_equal(a, b)


def test_bm25_hand_reference(ray_session, tmp_path):
    """Three tiny docs, one query — BM25 recomputed by hand with the
    same formula must match the engine's micro-units exactly."""
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([
            "cat sat mat",            # tf(cat)=1, dl=3
            "cat cat dog runs fast",  # tf(cat)=2, dl=5
            "no match here",          # tf(cat)=0
        ], pa.string()),
        "lang": pa.array(["en"] * 3, pa.string()),
        "source": pa.array(["s"] * 3, pa.string()),
        "n_chars": pa.array([1, 1, 1], pa.int64()),
    })
    d = os.path.join(tmp_path, "tiny")
    os.makedirs(d, exist_ok=True)
    pq.write_table(docs, os.path.join(d, "documents.parquet"))
    got = bm25_topk(d, {"q": "cat"}, k=3).to_pandas()
    n, df, avgdl = 3, 2, (3 + 5 + 3) / 3
    idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)

    def score(tf, dl):
        comp = idf * (tf * (BM25_K1 + 1.0)) / (
            tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl))
        return int(round(round_like_sql(comp, 6) * 1e6))

    expect = sorted([(0, score(1, 3)), (1, score(2, 5))],
                    key=lambda x: (-x[1], x[0]))
    assert list(map(tuple, got[["doc_id", "score_micro"]].values)) \
        == expect
    # doc 2 never scores
    assert 2 not in set(got["doc_id"])
    # and the SQL agrees on the crafted corpus too
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"'{d}/documents.parquet'")
    want = con.execute(bm25_sql({"q": "cat"}, 3)).df()
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))

