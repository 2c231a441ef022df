"""Sitemap parsing — the crawl-frontier companion to the robots gate
(sitemaps.org protocol): ``<urlset>`` entries → (loc, lastmod) rows,
``<sitemapindex>`` entries → child sitemap locs, per-record gzip
transparently inflated (the .xml.gz convention).

Same parity contract as the img-tag harvest: the entry and field
patterns are RE2 and IDENTICAL bytes on both engines; DuckDB replays
the extraction with regexp_extract_all + regexp_extract over the
same strings (tests/test_sitemap.py). Flat-map shape: sitemap bytes
in, narrow URL rows out; no state, no shuffle."""

from __future__ import annotations

import re

import pyarrow as pa
import ray.data as rd

from nidaba_ray.algorithms.inflate import InflateError, inflate

__all__ = ["URL_ENTRY_PATTERN", "LOC_PATTERN", "LASTMOD_PATTERN",
           "INDEX_ENTRY_PATTERN", "parse_sitemap",
           "sitemap_entries_batch", "sitemap_entries", "sitemap_sql"]

URL_ENTRY_PATTERN = r"(?is)<url\s*>.*?</url\s*>"
INDEX_ENTRY_PATTERN = r"(?is)<sitemap\s*>.*?</sitemap\s*>"
LOC_PATTERN = r"(?is)<loc\s*>\s*([^<]*?)\s*</loc\s*>"
LASTMOD_PATTERN = r"(?is)<lastmod\s*>\s*([^<]*?)\s*</lastmod\s*>"

_URL_RE = re.compile(URL_ENTRY_PATTERN)
_INDEX_RE = re.compile(INDEX_ENTRY_PATTERN)
_LOC_RE = re.compile(LOC_PATTERN)
_LASTMOD_RE = re.compile(LASTMOD_PATTERN)


def parse_sitemap(payload: bytes) -> tuple[str, list[tuple[str, str]]]:
    """sitemap bytes → ("urlset" | "index", [(loc, lastmod), ...]);
    lastmod is '' when absent. Gzip members inflate transparently
    (capped, algorithms/inflate.py); malformed or over-cap gzip raises
    ValueError (quarantine contract)."""
    if payload[:2] == b"\x1f\x8b":
        try:
            payload = inflate(payload, "gzip")
        except InflateError as e:
            raise ValueError(f"sitemap gzip: {e}") from None
    text = payload.decode("utf-8", "replace")
    kind = "index" if _INDEX_RE.search(text) else "urlset"
    rx = _INDEX_RE if kind == "index" else _URL_RE
    out = []
    for em in rx.finditer(text):
        entry = em.group(0)
        lm = _LOC_RE.search(entry)
        if not lm or not lm.group(1):
            continue
        mm = _LASTMOD_RE.search(entry)
        out.append((lm.group(1), mm.group(1) if mm else ""))
    return kind, out


def sitemap_entries_batch(batch: pa.Table, xml_col: str = "xml",
                          key_col: str = "url") -> pa.Table:
    """map_batches kernel: sitemap documents → (key, entry_idx, kind,
    loc, lastmod) rows."""
    keys, idxs, kinds, locs, mods = [], [], [], [], []
    for key, payload in zip(batch[key_col].to_pylist(),
                            batch[xml_col].to_pylist()):
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        kind, entries = parse_sitemap(payload or b"")
        for i, (loc, mod) in enumerate(entries):
            keys.append(key)
            idxs.append(i)
            kinds.append(kind)
            locs.append(loc)
            mods.append(mod)
    return pa.table({
        key_col: pa.array(keys, pa.string()),
        "entry_idx": pa.array(idxs, pa.int64()),
        "kind": pa.array(kinds, pa.string()),
        "loc": pa.array(locs, pa.string()),
        "lastmod": pa.array(mods, pa.string()),
    })


def sitemap_entries(ds: rd.Dataset, xml_col: str = "xml",
                    key_col: str = "url") -> rd.Dataset:
    return ds.map_batches(
        lambda b: sitemap_entries_batch(b, xml_col, key_col),
        batch_format="pyarrow")


def sitemap_sql(table: str = "sitemaps", xml_col: str = "xml",
                key_col: str = "url") -> str:
    """DuckDB replay over VARCHAR sitemap bodies — the same pattern
    bytes; the urlset/index choice replays as a CASE on an index-entry
    match."""
    def esc(p: str) -> str:
        return p.replace("'", "''")

    return f"""
WITH picked AS (
  SELECT {key_col},
         CASE WHEN regexp_matches({xml_col}, '{esc(INDEX_ENTRY_PATTERN)}')
              THEN 'index' ELSE 'urlset' END AS kind,
         CASE WHEN regexp_matches({xml_col}, '{esc(INDEX_ENTRY_PATTERN)}')
              THEN regexp_extract_all({xml_col}, '{esc(INDEX_ENTRY_PATTERN)}')
              ELSE regexp_extract_all({xml_col}, '{esc(URL_ENTRY_PATTERN)}')
         END AS entries
  FROM {table}
),
exploded AS (
  SELECT {key_col}, kind, unnest(entries) AS entry,
         generate_subscripts(entries, 1) AS ord
  FROM picked
),
fields AS (
  SELECT {key_col}, kind, ord,
         regexp_extract(entry, '{esc(LOC_PATTERN)}', 1) AS loc,
         regexp_extract(entry, '{esc(LASTMOD_PATTERN)}', 1) AS lastmod
  FROM exploded
)
SELECT {key_col},
       CAST(ROW_NUMBER() OVER (PARTITION BY {key_col} ORDER BY ord) - 1
            AS BIGINT) AS entry_idx,
       kind, loc, lastmod
FROM fields WHERE loc <> ''
ORDER BY {key_col}, entry_idx
"""
