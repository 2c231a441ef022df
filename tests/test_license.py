"""CC license detection: kernel pins, DuckDB byte parity of the shared
pattern + replacement list, the curation gate, the registry stages,
and detection over generated license pages against the generator's
assignment."""
from __future__ import annotations

import random

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nidaba_ray.functions.license import (
    CC_LICENSE_PATTERN,
    PERMISSIVE_LICENSES,
    annotate_license_batch,
    detect_license,
    license_expr_sql,
    license_filter_batch,
)

SF_DIR = "/root/testdata/sf0.001"

# doc_id % 9 -> the page's declared license (slug, URL; '' = none). The
# URL forms vary scheme, host case, path case and trailing segments so
# the detector's (?i) + leftmost-match contract is exercised by the
# page corpus itself, not just by unit pins.
LICENSE_URL_GRID: tuple[tuple[str, str], ...] = (
    ("", ""),
    ("cc-by-4.0", "https://CreativeCommons.org/licenses/by/4.0/"),
    ("cc-by-sa-3.0", "http://creativecommons.org/licenses/by-sa/3.0/deed.en"),
    ("", ""),
    ("cc0-1.0", "https://creativecommons.org/publicdomain/zero/1.0/"),
    ("cc-by-nc-4.0", "https://creativecommons.org/LICENSES/BY-NC/4.0/"),
    ("publicdomain", "//creativecommons.org/publicdomain/mark/1.0/"),
    ("cc-by-nc-nd-2.5", "https://creativecommons.org/licenses/by-nc-nd/2.5/"),
    ("", ""),
)


def test_detect_license_pins():
    cases = {
        "x https://creativecommons.org/licenses/by/4.0/ y": "cc-by-4.0",
        "HTTPS://CREATIVECOMMONS.ORG/LICENSES/BY-SA/3.0/": "cc-by-sa-3.0",
        "href=creativecommons.org/licenses/by-nc-nd/2.5/deed": "cc-by-nc-nd-2.5",
        "creativecommons.org/licenses/by-nc/1.0": "cc-by-nc-1.0",
        "creativecommons.org/licenses/by-nd/2.0/": "cc-by-nd-2.0",
        "see creativecommons.org/publicdomain/zero/1.0/ here": "cc0-1.0",
        "creativecommons.org/publicdomain/mark/1.0": "publicdomain",
        "no license here": "",
        "creativecommons.org/licenses/unknown/4.0/": "",
        "creativecommons.org/licenses/by/44.0/": "",  # version grid only
        "": "",
    }
    out = detect_license(pa.array(list(cases), pa.string()))
    assert out.to_pylist() == list(cases.values())


def test_detect_license_leftmost_and_binary():
    # first URL in document order wins
    s = ("a creativecommons.org/licenses/by-nc/4.0/ then "
         "creativecommons.org/licenses/by/4.0/")
    assert detect_license(pa.array([s])).to_pylist() == ["cc-by-nc-4.0"]
    # binary column with invalid-UTF-8 bytes around an ASCII URL
    b = pa.array(
        [b"\xff\xfe<a href='https://creativecommons.org/licenses/by/3.0/'>\x80",
         b"\x00\x01 nothing", None],
        pa.binary(),
    )
    assert detect_license(b).to_pylist() == ["cc-by-3.0", "", ""]


def test_license_duckdb_parity():
    """Byte parity of the SAME pattern + replacement chain on both
    RE2 engines, over adversarial strings (metacharacters, multiple
    URLs, quotes, every grid form)."""
    rng = random.Random(170)
    strings = [url for _, url in LICENSE_URL_GRID if url]
    strings += [
        "pre creativecommons.org/licenses/by/4.0 post",
        "two creativecommons.org/publicdomain/mark/1.0 and "
        "creativecommons.org/licenses/by-sa/2.5/",
        "quote ' creativecommons.org/licenses/by-nd/3.0/ '",
        "(creativecommons.org/licenses/by-nc-sa/4.0/)",
        "creativecommons.orgX/licenses/by/4.0/",  # host must end at /
        "notcreativecommons.org/licenses/by/4.0/",  # still matches (substring)
        "%creativecommons.org/publicdomain/zero/1.0\\",
    ]
    pieces = ["cc", "creativecommons.org/", "licenses/", "by", "-sa", "-nc",
              "/4.0", "/1.0", "publicdomain/", "zero", "mark", " ", "~", "|"]
    for _ in range(150):
        strings.append("".join(rng.choice(pieces)
                               for _ in range(rng.randrange(1, 8))))
    ray_side = detect_license(pa.array(strings, pa.string())).to_pylist()
    con = duckdb.connect()
    con.register("t", pa.table({"s": pa.array(strings, pa.string())}))
    sql_side = [r[0] for r in con.execute(
        f"SELECT {license_expr_sql('s')} FROM t").fetchall()]
    assert ray_side == sql_side


def test_license_filter_gate():
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "html": pa.array(
            [b"x creativecommons.org/licenses/by/4.0/",
             b"x creativecommons.org/licenses/by-nc/4.0/",
             b"x creativecommons.org/publicdomain/zero/1.0/",
             b"unlicensed"], pa.binary()),
    })
    kept = license_filter_batch(t)
    assert kept["doc_id"].to_pylist() == [1, 3]  # NC and unlicensed drop
    # a narrower allow-set
    kept = license_filter_batch(t, allow=("cc0-1.0",))
    assert kept["doc_id"].to_pylist() == [3]
    # precomputed license column is reused (html absent entirely)
    t2 = pa.table({"doc_id": pa.array([7, 8], pa.int64()),
                   "license": pa.array(["cc-by-4.0", ""], pa.string())})
    assert license_filter_batch(t2)["doc_id"].to_pylist() == [7]
    assert "cc-by-nc-4.0" not in PERMISSIVE_LICENSES


def test_license_registry_stages(ray_session, tmp_path):
    import ray.data as rd

    from nidaba_ray.stages import registry

    assert "extract.license" in registry.list_stages()
    assert "clean.license" in registry.list_stages()
    t = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "html": pa.array(
            [b"<a href='https://creativecommons.org/licenses/by-sa/4.0/'>",
             b"<p>plain</p>"], pa.binary()),
    })
    pq.write_table(t, str(tmp_path / "p.parquet"))
    ds = rd.read_parquet(str(tmp_path / "p.parquet"))
    out = registry.compile_pipeline(
        ds, [{"stage": "extract.license"}]).to_pandas()
    assert sorted(out["license"]) == ["", "cc-by-sa-4.0"]
    out = registry.compile_pipeline(
        ds, [{"stage": "extract.license"}, {"stage": "clean.license"}]
    ).to_pandas()
    assert out["doc_id"].tolist() == [1]


def test_license_counts_generator_oracle(ray_session):
    """End-to-end: Ray builds one page per document whose footer
    declares the grid license for ``doc_id % 9`` and scans the page
    bytes with ``detect_license``; the oracle replays only the
    generator's doc_id%9 assignment in SQL, never the scanner."""
    import ray.data as rd

    def detect(batch: pa.Table) -> pa.Table:
        html = []
        for doc_id, text in zip(batch["doc_id"].to_pylist(),
                                batch["text"].to_pylist()):
            _, url = LICENSE_URL_GRID[doc_id % 9]
            footer = (
                f'<footer><a rel="license" href="{url}">license</a></footer>'
                if url else "<footer>all rights reserved</footer>"
            )
            html.append(
                f"<html><body><p>{text}</p>{footer}</body></html>".encode())
        return pa.table({"license": detect_license(pa.array(html, pa.binary()))})

    got = (
        rd.read_parquet(f"{SF_DIR}/documents.parquet",
                        columns=["doc_id", "text"])
        .map_batches(detect, batch_format="pyarrow")
        .to_pandas()
        .groupby("license", as_index=False).size()
        .sort_values("license")
    )
    cases = " ".join(f"WHEN {i} THEN '{slug}'"
                     for i, (slug, _) in enumerate(LICENSE_URL_GRID) if slug)
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{SF_DIR}/documents.parquet')")
    want = con.execute(
        f"SELECT CASE doc_id % 9 {cases} ELSE '' END AS license, "
        "COUNT(*) AS n_docs FROM documents GROUP BY 1 ORDER BY license"
    ).fetchdf()
    assert got["license"].tolist() == want["license"].tolist()
    assert got["size"].tolist() == want["n_docs"].tolist()
    # the grid really exercises multiple slugs at this scale
    assert len(got) >= 6


def test_pattern_is_shared_verbatim():
    # the SQL expression embeds the exact Arrow pattern (drift guard)
    assert CC_LICENSE_PATTERN in license_expr_sql("s").replace("''", "'")


def test_license_curation_example_spec(ray_session):
    """examples/license_curation.yaml end-to-end: robots gate →
    license annotate → license gate → extraction."""
    import ray.data as rd

    from nidaba_ray.stages import registry

    spec = registry.load_spec("examples/license_curation.yaml")
    ok = (b"<html><body><p>Keep this licensed page with enough words "
          b"to pass every gate in the chain today.</p>"
          b"<footer><a href='https://creativecommons.org/licenses/by/4.0/'>"
          b"CC</a></footer></body></html>")
    nc = ok.replace(b"/by/", b"/by-nc/")
    t = pa.table({
        "url": pa.array(["https://example.org/a",
                         "https://example.org/private/x",
                         "https://example.org/b",
                         "https://example.org/c"]),
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "lang": pa.array(["en"] * 4),
        "html": pa.array([ok, ok, nc, b"<p>no license</p>"], pa.binary()),
    })
    out = registry.compile_pipeline(rd.from_arrow(t), spec).to_pandas()
    assert out["doc_id"].tolist() == [1]
    assert out["license"].tolist() == ["cc-by-4.0"]
    assert "Keep this licensed page" in out["text"].iloc[0]
