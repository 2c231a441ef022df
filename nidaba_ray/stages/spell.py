"""Spell-check / dictionary-filter stage — the postprocessing analog
(nidaba/tasks/postprocessing.py spell_check + nidaba/lex.py, UNVERIFIED
per SURVEY.md §0).

Like nidaba's spell_check, this stage does NOT rewrite the text: it
annotates (OOV counts + ranked suggestions for a bounded number of OOV
tokens), preserving the byte-identity invariant on ``text``.

Stateful actor-pool stage: per-language lexicon + symmetric-delete
index built once per (actor, lang) and cached — batches arriving
lang-skewed maximize cache hits; an upstream sort/repartition by lang
is optional and only worth a shuffle when language cardinality is high
(SURVEY.md §7 hard parts).
"""

from __future__ import annotations

import json

import pyarrow as pa

from nidaba_ray.algorithms.strings import sym_suggest
from nidaba_ray.functions import lexicon
from nidaba_ray.record import SPAN_SEP

__all__ = ["SpellFilter"]

MAX_SUGGEST_TOKENS = 3  # bounded per-row suggestion work
MAX_DIST = 1  # symmetric-delete edit distance of a suggestion
# the (lang, OOV token) suggestion cache is cleared when it holds this
# many entries: a long-lived actor meets an unbounded stream of unique
# tokens, and a suggestion is a pure function of its key
SUGG_CACHE_MAX = 1 << 16


class SpellFilter:
    """``map_batches`` actor: adds n_tokens, oov_count, oov_ratio,
    suggestions (JSON) columns; text is untouched."""

    def __init__(self) -> None:
        self._words: dict[str, frozenset[str]] = {}
        self._index: dict[str, dict[str, tuple[str, ...]]] = {}
        # suggestion lists for seen (lang, OOV token) keys (Zipfian
        # repeats) — cuts the symmetric-delete lookups to once per
        # unique token per actor
        self._sugg_cache: dict[tuple, list[str]] = {}

    def _lang(self, lang: str):
        if lang not in self._words:
            self._words[lang] = lexicon.wordlist(lang)
            self._index[lang] = lexicon.deletion_index(lang, MAX_DIST)
        return self._words[lang], self._index[lang]

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        langs = batch["lang"].to_pylist()
        n_tokens_l, oov_l, ratio_l, sugg_l = [], [], [], []
        sugg_cache = self._sugg_cache
        for text, lang in zip(texts, langs):
            words, index = self._lang(lang or "en")
            toks = text.split(SPAN_SEP) if text else []
            oov = [t for t in toks if t and t not in words]
            sugg = {}
            for t in sorted(set(oov))[:MAX_SUGGEST_TOKENS]:
                key = (lang, t)
                s = sugg_cache.get(key)
                if s is None:
                    if len(sugg_cache) >= SUGG_CACHE_MAX:
                        sugg_cache.clear()
                    s = sugg_cache[key] = sym_suggest(t, index, MAX_DIST)[:3]
                sugg[t] = s
            n = len(toks)
            n_tokens_l.append(n)
            oov_l.append(len(oov))
            ratio_l.append(round(len(oov) / n, 6) if n else 0.0)
            sugg_l.append(json.dumps(sugg, sort_keys=True))
        return batch.append_column(
            "n_tokens", pa.array(n_tokens_l, pa.int64())
        ).append_column(
            "oov_count", pa.array(oov_l, pa.int64())
        ).append_column(
            "oov_ratio", pa.array(ratio_l, pa.float64())
        ).append_column(
            "suggestions", pa.array(sugg_l, pa.string())
        )
