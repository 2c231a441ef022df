"""Deterministic mixture / stratified sampling — DuckDB parity and
parallelism-invariance (the properties a reproducible training
mixture actually needs)."""

import duckdb
import pandas as pd

from nidaba_ray.pipelines.curate import (
    mixture_sample,
    mixture_sql,
    stratified_sample,
    stratified_sql,
)

SF = "/root/testdata/sf0.001"


def _view(con):
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{SF}/documents.parquet')")


def test_mixture_sample_sql_parity(ray_session):
    ours = mixture_sample(SF).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    con = duckdb.connect()
    _view(con)
    theirs = con.execute(mixture_sql()).fetchdf().sort_values(
        "doc_id").reset_index(drop=True)
    assert ours["doc_id"].tolist() == theirs["doc_id"].tolist()
    assert ours["lang"].tolist() == theirs["lang"].tolist()
    # the mixture actually thins the low-rate languages
    full = con.execute(
        "SELECT lang, COUNT(*) c FROM documents GROUP BY lang"
    ).fetchdf().set_index("lang")["c"]
    kept = ours.groupby("lang").size()
    assert kept["en"] == full["en"]          # rate 1.0 keeps all
    assert kept.get("zh", 0) < full["zh"]    # rate 0.125 thins


def test_mixture_rates_respected(ray_session):
    # rate 0 drops a language entirely; unlisted languages drop too
    out = mixture_sample(SF, rates={"en": 0.0, "fr": 1.0}).to_pandas()
    assert set(out["lang"]) == {"fr"}
    con = duckdb.connect()
    _view(con)
    n_fr = con.execute(
        "SELECT COUNT(*) FROM documents WHERE lang='fr'").fetchone()[0]
    assert len(out) == n_fr


def test_stratified_sample_sql_parity(ray_session):
    ours = stratified_sample(SF).to_pandas().sort_values(
        ["lang", "doc_id"]).reset_index(drop=True)
    con = duckdb.connect()
    _view(con)
    theirs = con.execute(stratified_sql()).fetchdf().sort_values(
        ["lang", "doc_id"]).reset_index(drop=True)
    assert ours["doc_id"].tolist() == theirs["doc_id"].tolist()
    assert ours["lang"].tolist() == theirs["lang"].tolist()
    assert (ours.groupby("lang").size() == 40).all()


def test_stratified_small_k_and_layout_invariance(ray_session):
    import ray.data as rd

    from nidaba_ray.pipelines.curate import stratified_over

    a = stratified_sample(SF, k=7).to_pandas().sort_values(
        ["lang", "doc_id"]).reset_index(drop=True)
    assert (a.groupby("lang").size() == 7).all()
    # same set when the input arrives in many small blocks — the
    # PRODUCTION combiner-then-merge must be layout-invariant
    ds = rd.read_parquet(f"{SF}/documents.parquet",
                         columns=["doc_id", "lang"]).repartition(13)
    b = (stratified_over(ds, k=7).to_pandas()
         .sort_values(["lang", "doc_id"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
