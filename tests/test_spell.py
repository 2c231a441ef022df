"""SpellFilter's (lang, OOV token) suggestion cache stays bounded for
the life of an actor, and clearing it never changes the output."""

from __future__ import annotations

import pyarrow as pa

from nidaba_ray.functions import lexicon
from nidaba_ray.stages import spell


def _oov_batches(n_batches: int, rows: int) -> list[pa.Table]:
    """Batches of rows with three unique OOV tokens each: a lexicon
    word plus one letter, one edit from a suggestion."""
    words = lexicon.wordlist("en")
    toks = [w + c for w in sorted(words) for c in "qxz" if w + c not in words]
    assert len(toks) >= 3 * rows * n_batches
    return [
        pa.table({
            "text": pa.array([" ".join(toks[i:i + 3])
                              for i in range(b * 3 * rows, (b + 1) * 3 * rows, 3)]),
            "lang": pa.array(["en"] * rows),
        })
        for b in range(n_batches)
    ]


def test_suggestion_cache_is_bounded(monkeypatch):
    batches = _oov_batches(2, 10)
    want = [spell.SpellFilter()(b) for b in batches]
    assert any(s != "{}" for s in want[0]["suggestions"].to_pylist())
    monkeypatch.setattr(spell, "SUGG_CACHE_MAX", 5)
    f = spell.SpellFilter()
    for batch, expected in zip(batches, want):
        assert f(batch).equals(expected)
        assert len(f._sugg_cache) <= 5
