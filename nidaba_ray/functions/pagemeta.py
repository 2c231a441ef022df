"""Page-head metadata harvest — title, meta description, canonical
link and OpenGraph title/description per page: the fields a corpus
index keeps beside the extracted text (search snippets, canonical-URL
dedup hints, social previews).

Parity contract (the linkgraph idiom): every pattern is RE2
and IDENTICAL bytes on both engines; DuckDB replays the harvest with
regexp_extract(_all) over the same strings. Values keep their raw
entity encoding (both engines see the same bytes — decoding is the
segmenter's job and would fork the engines); whitespace runs collapse
with the explicit ASCII class. Attribute ORDER inside a tag is free
(name before or after content), so meta/link tags are found as whole
tags first and their attributes extracted second. Pages decode
latin-1 (tag syntax is ASCII and encoding-proof). Stateless map — no
shuffle; first match wins for every field (document order)."""

from __future__ import annotations

import re

import pyarrow as pa
import ray.data as rd

__all__ = ["TITLE_PATTERN", "META_TAG_PATTERN", "LINK_TAG_PATTERN",
           "CONTENT_ATTR_PATTERN", "HREF_ATTR_PATTERN",
           "page_meta_batch", "page_meta", "page_meta_sql"]

TITLE_PATTERN = r"(?is)<title[^>]*>(.*?)</title[ \t\n\f\r]*>"
META_TAG_PATTERN = r"(?is)<meta[\t\n\f\r ][^>]*>"
LINK_TAG_PATTERN = r"(?is)<link[\t\n\f\r ][^>]*>"
CONTENT_ATTR_PATTERN = \
    r"""(?is)content[ \t\n\f\r]*=[ \t\n\f\r]*(?:"([^"]*)"|'([^']*)')"""
HREF_ATTR_PATTERN = \
    r"""(?is)href[ \t\n\f\r]*=[ \t\n\f\r]*(?:"([^"]*)"|'([^']*)')"""


def _name_pat(kind: str, value: str) -> str:
    return (rf"""(?is){kind}[ \t\n\f\r]*=[ \t\n\f\r]*["']?"""
            rf"""{value}["' \t\n\f\r>]""")


DESC_NAME_PATTERN = _name_pat("name", "description")
CANONICAL_REL_PATTERN = _name_pat("rel", "canonical")
OG_TITLE_PATTERN = _name_pat("property", "og:title")
OG_DESC_PATTERN = _name_pat("property", "og:description")

_WS_RUN = r"[ \t\n\f\r]+"

_TITLE_RE = re.compile(TITLE_PATTERN)
_META_RE = re.compile(META_TAG_PATTERN)
_LINK_RE = re.compile(LINK_TAG_PATTERN)
_CONTENT_RE = re.compile(CONTENT_ATTR_PATTERN)
_HREF_RE = re.compile(HREF_ATTR_PATTERN)
_DESC_RE = re.compile(DESC_NAME_PATTERN)
_CANON_RE = re.compile(CANONICAL_REL_PATTERN)
_OGT_RE = re.compile(OG_TITLE_PATTERN)
_OGD_RE = re.compile(OG_DESC_PATTERN)
_WS_RE = re.compile(_WS_RUN)


def _clean(v: str) -> str:
    return _WS_RE.sub(" ", v).strip(" ")


def _first_tag_value(tags: list[str], name_re: re.Pattern,
                     attr_re: re.Pattern) -> str:
    for tag in tags:
        if name_re.search(tag):
            m = attr_re.search(tag)
            if m:
                return _clean(m.group(1) if m.group(1) is not None
                              else (m.group(2) or ""))
    return ""


def _harvest(text: str) -> tuple[str, str, str, str, str]:
    tm = _TITLE_RE.search(text)
    title = _clean(tm.group(1)) if tm else ""
    metas = _META_RE.findall(text)
    links = _LINK_RE.findall(text)
    return (
        title,
        _first_tag_value(metas, _DESC_RE, _CONTENT_RE),
        _first_tag_value(links, _CANON_RE, _HREF_RE),
        _first_tag_value(metas, _OGT_RE, _CONTENT_RE),
        _first_tag_value(metas, _OGD_RE, _CONTENT_RE),
    )


def page_meta_batch(batch: pa.Table, html_col: str = "html",
                    key_col: str = "url") -> pa.Table:
    cols = {k: [] for k in ("title", "description", "canonical",
                            "og_title", "og_description")}
    keys = batch[key_col].to_pylist()
    for payload in batch[html_col].to_pylist():
        if isinstance(payload, (bytes, bytearray)):
            text = bytes(payload).decode("latin-1")
        else:
            text = payload or ""
        for k, v in zip(cols, _harvest(text)):
            cols[k].append(v)
    out = {key_col: pa.array(keys, pa.string())}
    out.update({k: pa.array(v, pa.string()) for k, v in cols.items()})
    return pa.table(out)


def page_meta(pages: rd.Dataset, html_col: str = "html",
              key_col: str = "url") -> rd.Dataset:
    return pages.map_batches(
        lambda b: page_meta_batch(b, html_col, key_col),
        batch_format="pyarrow")


def _q(p: str) -> str:
    return p.replace("'", "''")


def page_meta_sql(table: str = "pages", html_col: str = "html",
                  key_col: str = "url") -> str:
    """DuckDB replay from the SAME pattern bytes. First-match-wins
    replays as list_filter + [1]; the two-alternative quoted capture
    binds positionally (DuckDB's regexp_extract name list binds by
    position, so the pattern needs no rewrite)."""
    def pick(tag_pat: str, name_pat: str, attr_pat: str) -> str:
        # [1] on the filtered tag list is order-guaranteed (unlike a
        # bare LIMIT); COALESCE covers the no-matching-tag NULL
        tag = (f"COALESCE(list_filter(regexp_extract_all({html_col}, "
               f"'{_q(tag_pat)}'), t -> regexp_matches(t, "
               f"'{_q(name_pat)}'))[1], '')")
        g = f"regexp_extract({tag}, '{_q(attr_pat)}', ['d', 's'])"
        return (f"CASE WHEN struct_extract({g}, 'd') <> '' "
                f"THEN struct_extract({g}, 'd') "
                f"ELSE COALESCE(struct_extract({g}, 's'), '') END")

    clean = ("trim(regexp_replace({v}, '" + _q(_WS_RUN)
             + "', ' ', 'g'), ' ')")
    return f"""
SELECT {key_col},
  {clean.format(v=f"COALESCE(regexp_extract({html_col}, '{_q(TITLE_PATTERN)}', 1), '')")} AS title,
  {clean.format(v=pick(META_TAG_PATTERN, DESC_NAME_PATTERN, CONTENT_ATTR_PATTERN))} AS description,
  {clean.format(v=pick(LINK_TAG_PATTERN, CANONICAL_REL_PATTERN, HREF_ATTR_PATTERN))} AS canonical,
  {clean.format(v=pick(META_TAG_PATTERN, OG_TITLE_PATTERN, CONTENT_ATTR_PATTERN))} AS og_title,
  {clean.format(v=pick(META_TAG_PATTERN, OG_DESC_PATTERN, CONTENT_ATTR_PATTERN))} AS og_description
FROM {table}
ORDER BY {key_col}
"""
