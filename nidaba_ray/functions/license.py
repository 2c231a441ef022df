"""Creative-Commons license detection + license-aware curation gate.

License-aware corpus construction is a first-class training-data
operation (the public Common-Pile / C4-variant recipes keep only
documents whose page declares a permissive license). The detector
here is the standard web heuristic: the FIRST ``creativecommons.org``
license URL in the raw page bytes, normalized to an SPDX-ish slug
(``cc-by-4.0``, ``cc-by-nc-sa-3.0``, ``cc0-1.0``, ``publicdomain``).

Scale/parity notes, same contract as the PII scrubber
(:mod:`nidaba_ray.functions.scrub`):

* The extract pattern is RE2 with an inline ``(?i)`` flag and runs
  DIRECTLY on the binary ``html`` column (``pc.extract_regex`` has a
  binary kernel) — no decode pass, no Python per-row loop, no state,
  no shuffle. License URLs are pure ASCII so byte-level matching is
  encoding-proof (UTF-8, latin-1, even mid-binary); only the matched
  ASCII group is cast to string.
* DuckDB's ``regexp_extract`` is also RE2; the pytest oracle checks
  byte parity of the SAME pattern string and the SAME ordered
  replacement list on both engines (tests/test_license.py).
* Gzip-compressed payloads scan as no-license by construction — run
  the stage after inflate (the extraction chain's sniff) when the
  corpus carries per-record gzip, exactly like every other raw-bytes
  annotator here.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

__all__ = [
    "CC_LICENSE_PATTERN",
    "LICENSE_REPLACEMENTS",
    "PERMISSIVE_LICENSES",
    "annotate_license_batch",
    "license_filter_batch",
    "license_expr_sql",
]

# (?i): hosts are case-insensitive and CC paths appear uppercased in
# the wild; the version is any single-digit major.minor. Named group
# so Arrow returns a struct field; DuckDB reads the same group by
# index 1.
CC_LICENSE_PATTERN = (
    r"(?i)creativecommons\.org/"
    r"(?P<lic>licenses/(?:by|by-sa|by-nd|by-nc|by-nc-sa|by-nc-nd)"
    r"/[0-9]\.[0-9]|publicdomain/(?:zero|mark)/1\.0)"
)

# ordered (find, replace) over the LOWERED extracted group — applied
# identically on both engines, so publicdomain paths must rewrite
# before the generic "licenses/" prefix and the slash collapse.
LICENSE_REPLACEMENTS: tuple[tuple[str, str], ...] = (
    ("publicdomain/zero/1.0", "cc0-1.0"),
    ("publicdomain/mark/1.0", "publicdomain"),
    ("licenses/", "cc-"),
    ("/", "-"),
)

# the gate's default allow-set: public-domain marks plus the two CC
# families that permit commercial reuse and derivatives (NC and ND
# variants stay out; versions per the pattern's single-digit grid).
PERMISSIVE_LICENSES: tuple[str, ...] = tuple(
    ["cc0-1.0", "publicdomain"]
    + [f"cc-by-{v}" for v in ("1.0", "2.0", "2.5", "3.0", "4.0")]
    + [f"cc-by-sa-{v}" for v in ("1.0", "2.0", "2.5", "3.0", "4.0")]
)


def detect_license(col: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray | pa.Array:
    """Normalized license slug per value ('' = none found). Accepts a
    string OR binary column; the extraction is leftmost-match, the
    normalization is the shared replacement list."""
    lic = pc.struct_field(pc.extract_regex(col, CC_LICENSE_PATTERN), "lic")
    if pa.types.is_binary(lic.type) or pa.types.is_large_binary(lic.type):
        lic = pc.cast(lic, pa.string())  # matched group is pure ASCII
    lic = pc.ascii_lower(pc.fill_null(lic, ""))
    for find, repl in LICENSE_REPLACEMENTS:
        lic = pc.replace_substring(lic, pattern=find, replacement=repl)
    return lic


def annotate_license_batch(batch: pa.Table, column: str = "html") -> pa.Table:
    """Registry stage (``extract.license``): append a ``license``
    column with the normalized slug ('' when the page declares no CC
    license). Pure streaming annotator — one fixed-width string per
    row, no shuffle, binary-safe."""
    return batch.append_column("license", detect_license(batch[column]))


def license_filter_batch(
    batch: pa.Table, column: str = "html",
    allow: tuple[str, ...] = PERMISSIVE_LICENSES,
) -> pa.Table:
    """Registry cleaning stage (``clean.license``): keep only rows
    whose detected license is in ``allow`` (the license-required
    curation shape — unlicensed pages drop). When the batch already
    carries a ``license`` column (an upstream ``extract.license``),
    it is reused instead of re-scanning."""
    lic = (batch["license"] if "license" in batch.column_names
           else detect_license(batch[column]))
    keep = pc.is_in(lic, value_set=pa.array(sorted(allow), pa.string()))
    return batch.filter(pc.fill_null(keep, False))


def license_expr_sql(column: str = "html") -> str:
    """DuckDB expression equivalent to :func:`detect_license` — built
    from the SAME pattern and replacement list so the two sides cannot
    drift. ``column`` must be a VARCHAR on the SQL side (DuckDB's
    regexp functions don't take BLOBs; parity tests feed both engines
    the same strings)."""
    p = CC_LICENSE_PATTERN.replace("'", "''")
    expr = f"LOWER(regexp_extract({column}, '{p}', 1))"
    for find, repl in LICENSE_REPLACEMENTS:
        expr = f"replace({expr}, '{find}', '{repl}')"
    return expr
