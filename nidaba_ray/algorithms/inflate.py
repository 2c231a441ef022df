"""Capped inflate for the compressed payload dialects (gzip, bzip2, xz),
for PDF FlateDecode streams and for PNG / TIFF deflate data.

``gzip``/``bz2``/``lzma.decompress`` return whatever a stream expands
to, so a few kB of hostile input can take a worker's heap (a
compression bomb). ``inflate`` runs the incremental decompressors with
``max_length`` instead and stops at ``MAX_INFLATED_BYTES`` of output,
while keeping the one-shot functions' handling of concatenated members:
gzip skips NUL padding between members and rejects anything else that
follows; bzip2/xz ignore trailing bytes that do not start a stream.
Image decoders know their raw size from the header, so
``inflate_zlib_prefix`` stops one byte past it.
"""

from __future__ import annotations

import bz2
import lzma
import sys
import zlib

__all__ = ["MAX_INFLATED_BYTES", "InflateError", "inflate", "inflate_zlib",
           "inflate_zlib_prefix"]

MAX_INFLATED_BYTES = 64 << 20

# codec → (new decompressor, the exception it raises on a bad stream)
_DECOMPRESSORS = {
    "gzip": (lambda: zlib.decompressobj(wbits=31), zlib.error),
    "bzip2": (bz2.BZ2Decompressor, OSError),
    "xz": (lzma.LZMADecompressor, lzma.LZMAError),
}


class InflateError(ValueError):
    """The stream is corrupt or truncated ("corrupt stream"), or its
    output passes the cap ("decompressed size exceeds cap")."""


def inflate(payload: bytes, codec: str) -> bytes:
    """Every member of ``payload`` inflated and joined, at most
    ``MAX_INFLATED_BYTES`` in total; raises ``InflateError``."""
    new, corrupt = _DECOMPRESSORS[codec]
    cap = MAX_INFLATED_BYTES
    members, total = [], 0
    while payload:
        d = new()
        try:
            # one call per member: output below the limit means the
            # decompressor took all the input it could
            out = d.decompress(payload, cap - total + 1)
        except corrupt:
            if members and codec != "gzip":
                break
            raise InflateError("corrupt stream") from None
        total += len(out)
        if total > cap:
            raise InflateError("decompressed size exceeds cap")
        if not d.eof:
            raise InflateError("corrupt stream")
        members.append(out)
        payload = d.unused_data
        if codec == "gzip":
            payload = payload.lstrip(b"\x00")
    return b"".join(members)


def inflate_zlib_prefix(body: bytes, limit: int) -> bytes:
    """At most the first ``limit`` bytes of ``zlib.decompress(body)``:
    one zlib stream, trailing bytes ignored, and ``zlib.error`` (with
    zlib's own messages) on a corrupt stream or on one that ends
    before ``limit`` bytes without its end marker. A caller that knows
    the inflated size passes it plus one and compares (a header may
    imply more than an index can address: such a limit is clamped)."""
    limit = min(limit, sys.maxsize)
    d = zlib.decompressobj()
    out = d.decompress(body, limit)
    if len(out) < limit and not d.eof:
        raise zlib.error("Error -5 while decompressing data: "
                         "incomplete or truncated stream")
    return out


def inflate_zlib(body: bytes) -> bytes:
    """``zlib.decompress(body)`` with at most ``MAX_INFLATED_BYTES`` of
    output: one zlib stream, trailing bytes ignored (even a second
    stream), ``zlib.error`` on a corrupt or truncated stream, and
    ``InflateError`` past the cap."""
    out = inflate_zlib_prefix(body, MAX_INFLATED_BYTES + 1)
    if len(out) > MAX_INFLATED_BYTES:
        raise InflateError("decompressed size exceeds cap")
    return out
