"""Link-graph construction from raw pages — the classic web-pipeline
step between crawling and ranking: harvest ``<a href>`` edges with
their anchor text.

Contract kept deliberately regex-expressible so DuckDB replays it
byte-for-byte: one RE2 pattern finds anchor elements and captures the
quoted href plus the inner markup; anchor TEXT is the inner markup
with tags stripped and ASCII whitespace collapsed (explicit
``[ \\t\\n\\f\\r]`` classes — never ``\\s``, whose Python-unicode
semantics diverge from RE2). Unquoted hrefs are skipped (their grammar
has no unambiguous delimiter). Pages decode latin-1 (lossless
byte→char; tag syntax is ASCII and encoding-proof).

Host resolution: absolute (``http://``, ``https://``, protocol-
relative ``//``) hrefs yield their authority, ASCII-case-folded (the
urls.py fold — DuckDB ``lower()`` is Unicode-aware and would
diverge); every other href is a SELF edge to the page's own host —
the deterministic stand-in for relative-URL resolution (path-level
resolution never changes the host).

Scale notes: harvesting is a stateless flat-map (pages in, narrow
edge rows out; payloads never leave the stage).
"""

from __future__ import annotations

import re

import pyarrow as pa
import ray.data as rd

from nidaba_ray.functions.urls import _ASCII_FOLD

__all__ = [
    "LINK_PATTERN", "HOST_PATTERN",
    "harvest_links_batch", "page_links", "page_links_sql",
]

# one pattern, three capture groups: (1) double-quoted href,
# (2) single-quoted href, (3) inner markup. (?is) + lazy inner so
# each anchor stops at its own closing tag.
LINK_PATTERN = (
    r"(?is)<a[\t\n\f\r /][^>]*?"
    r"href[ \t\n\f\r]*=[ \t\n\f\r]*(?:\"([^\"]*)\"|'([^']*)')"
    r"[^>]*>(.*?)</a>"
)
# absolute or protocol-relative href → authority
HOST_PATTERN = r"^(?:[Hh][Tt][Tt][Pp][Ss]?:)?//([^/?#]+)"
# any-scheme prefix; an href with a scheme but NO http(s) authority
# (mailto:, javascript:, tel:, ftp://, data:) is not a web edge and
# is dropped. Two regex tests, not a lookahead — RE2 has none.
SCHEME_PATTERN = r"^[A-Za-z][A-Za-z0-9+.-]*:"
_TAG_STRIP = r"<[^>]*>"
_WS_RUN = r"[ \t\n\f\r]+"

_LINK_RE = re.compile(LINK_PATTERN)
_HOST_RE = re.compile(HOST_PATTERN)
_SCHEME_RE = re.compile(SCHEME_PATTERN)
_TAG_STRIP_RE = re.compile(_TAG_STRIP)
_WS_RUN_RE = re.compile(_WS_RUN)

_UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_LOWER = "abcdefghijklmnopqrstuvwxyz"


def _anchor_text(inner: str) -> str:
    return _WS_RUN_RE.sub(" ", _TAG_STRIP_RE.sub("", inner)).strip(" ")


def _href_host(href: str, page_host: str) -> str:
    m = _HOST_RE.match(href)
    if m:
        return m.group(1).translate(_ASCII_FOLD)
    return page_host


_PAGE_HOST_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*://([^/?#]+)")


def _page_host(url: str) -> str:
    m = _PAGE_HOST_RE.match(url)
    return m.group(1).translate(_ASCII_FOLD) if m else ""


def harvest_links_batch(batch: pa.Table, html_col: str = "html",
                        key_col: str = "url") -> pa.Table:
    """map_batches kernel: pages → (key, link_idx, href, anchor,
    dst_host) rows, one per anchor element with a non-empty quoted
    href."""
    keys, idxs, hrefs, anchors, hosts = [], [], [], [], []
    for key, payload in zip(batch[key_col].to_pylist(),
                            batch[html_col].to_pylist()):
        if isinstance(payload, (bytes, bytearray)):
            text = bytes(payload).decode("latin-1")
        else:
            text = payload or ""
        page_host = _page_host(key)
        n = 0
        for m in _LINK_RE.finditer(text):
            href = m.group(1) if m.group(1) is not None else (m.group(2) or "")
            if not href:
                continue
            if _SCHEME_RE.match(href) and not _HOST_RE.match(href):
                continue  # opaque scheme (mailto:, javascript:, …)
            keys.append(key)
            idxs.append(n)
            hrefs.append(href)
            anchors.append(_anchor_text(m.group(3) or ""))
            hosts.append(_href_host(href, page_host))
            n += 1
    return pa.table({
        key_col: pa.array(keys, pa.string()),
        "link_idx": pa.array(idxs, pa.int64()),
        "href": pa.array(hrefs, pa.string()),
        "anchor": pa.array(anchors, pa.string()),
        "dst_host": pa.array(hosts, pa.string()),
    })


def page_links(pages: rd.Dataset, html_col: str = "html",
               key_col: str = "url") -> rd.Dataset:
    """(key, link_idx, href, anchor, dst_host) rows from a pages
    Dataset — stateless flat-map, no shuffle."""
    return pages.map_batches(
        lambda b: harvest_links_batch(b, html_col, key_col),
        batch_format="pyarrow")


def _sql_quote(p: str) -> str:
    return p.replace("'", "''")


def page_links_sql(table: str = "pages", html_col: str = "html",
                   key_col: str = "url") -> str:
    """DuckDB replay built from the SAME patterns (regexp_extract's
    name list binds captures by position, so no pattern rewrite).
    ``html_col`` must be VARCHAR on the SQL side; parity tests feed
    both engines the same strings."""
    link_p = _sql_quote(LINK_PATTERN)
    host_p = _sql_quote(HOST_PATTERN)
    return f"""
WITH hits AS (
  SELECT {key_col},
         unnest(regexp_extract_all({html_col}, '{link_p}')) AS a,
         generate_subscripts(regexp_extract_all({html_col}, '{link_p}'), 1)
           AS ord
  FROM {table}
),
parsed AS (
  SELECT {key_col}, ord,
         regexp_extract(a, '{link_p}', ['d', 's', 'inner']) AS g
  FROM hits
),
fields AS (
  SELECT {key_col}, ord,
         COALESCE(NULLIF(g.d, ''), NULLIF(g.s, ''), '') AS href,
         trim(regexp_replace(regexp_replace(g.inner, '{_sql_quote(_TAG_STRIP)}', '', 'g'),
                             '{_sql_quote(_WS_RUN)}', ' ', 'g'), ' ') AS anchor,
         translate(regexp_extract({key_col},
                   '^[A-Za-z][A-Za-z0-9+.-]*://([^/?#]+)', 1),
                   '{_UPPER}', '{_LOWER}') AS page_host
  FROM parsed
)
SELECT {key_col},
       CAST(ROW_NUMBER() OVER (PARTITION BY {key_col} ORDER BY ord) - 1
            AS BIGINT) AS link_idx,
       href, anchor,
       CASE WHEN regexp_extract(href, '{host_p}', 1) <> ''
            THEN translate(regexp_extract(href, '{host_p}', 1),
                           '{_UPPER}', '{_LOWER}')
            ELSE page_host END AS dst_host
FROM fields
WHERE href <> ''
  AND NOT (regexp_extract(href, '{_sql_quote(SCHEME_PATTERN)}') <> ''
           AND regexp_extract(href, '{host_p}', 1) = '')
ORDER BY {key_col}, link_idx
"""
