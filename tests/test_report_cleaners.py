"""Boilerplate-line mining (report.boilerplate_top): DuckDB parity
and layout invariance."""

from __future__ import annotations

import duckdb
import pandas as pd
import pyarrow as pa
import ray.data as rd

from nidaba_ray.pipelines.report import boilerplate_top, boilerplate_top_sql


def _docs() -> pa.Table:
    footer = "Subscribe to our newsletter for weekly harbor updates"
    cookie = "We use cookies to improve your experience"
    return pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": pa.array([
            f"Article one body text.\n{footer}\n{cookie}",
            f"Another article entirely.\n{footer}\n{cookie}",
            f"Third piece of writing.\n{footer}",
            # the footer twice in ONE doc still counts df once
            f"{footer}\nFourth piece.\n{footer}",
            "Unique content with no repeated furniture at all.",
            f"Fifth article.\n{cookie}",
        ], pa.string()),
    })


def test_boilerplate_top_duckdb_parity(ray_session):
    t = _docs()
    got = boilerplate_top(rd.from_arrow(t), k=5, min_df=2).to_pandas()
    con = duckdb.connect()
    con.register("documents", t)
    want = con.execute(boilerplate_top_sql(k=5, min_df=2)).df()
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))
    by = got.set_index("line")["df"]
    assert by["Subscribe to our newsletter for weekly harbor updates"] == 4
    assert by["We use cookies to improve your experience"] == 3
    # unique lines are below min_df
    assert "Article one body text." not in by.index


def test_boilerplate_layout_invariance(ray_session):
    t = _docs()
    a = boilerplate_top(rd.from_arrow(t), k=5).to_pandas()
    b = boilerplate_top(rd.from_arrow(t).repartition(5), k=5).to_pandas()
    pd.testing.assert_frame_equal(a, b)

