"""Configurable text-analysis pipeline: tokenize → stopword-filter → stem.

An :class:`Analyzer` converts raw text into the normalized terms used by the
inverted index, the clustering TF vectors, and candidate-keyword selection.
All layers must share one analyzer instance (or equal configurations) so that
query terms and document terms land in the same term space.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.text.porter import stem as porter_stem
from repro.text.stopwords import STOPWORDS
from repro.text.tokenizer import iter_tokens


@dataclass(frozen=True)
class Analyzer:
    """Turns raw text into normalized terms.

    Parameters
    ----------
    use_stopwords:
        Drop tokens found in ``stopwords`` (default: the built-in English
        list).
    use_stemming:
        Apply the Porter stemmer to alphabetic tokens. The paper's corpora
        are English product/encyclopedia text, where light stemming folds
        morphological variants ("printers" → "printer") that would otherwise
        fragment keyword statistics.
    min_token_length:
        Tokens shorter than this are dropped (after tokenization, before
        stemming). 2 keeps model names like "tv" while dropping single
        letters.
    stopwords:
        The stopword set to use when ``use_stopwords`` is True.
    """

    use_stopwords: bool = True
    use_stemming: bool = True
    min_token_length: int = 2
    stopwords: frozenset[str] = field(default=STOPWORDS, repr=False)

    def analyze(self, text: str) -> list[str]:
        """Return the normalized terms of ``text``, in order."""
        out: list[str] = []
        for token in iter_tokens(text):
            if len(token) < self.min_token_length:
                continue
            if self.use_stopwords and token in self.stopwords:
                continue
            if self.use_stemming:
                token = porter_stem(token)
            out.append(token)
        return out

    def term_counts(self, text: str) -> Counter[str]:
        """Return a term-frequency Counter for ``text``."""
        return Counter(self.analyze(text))

    def analyze_query(self, text: str) -> list[str]:
        """Normalize a keyword query.

        Queries go through the same pipeline as documents so a query term
        always matches its indexed form. Terms containing ``:`` are treated
        as structured feature terms and passed through verbatim (lowercased,
        spaces stripped), mirroring how features enter documents.
        """
        terms: list[str] = []
        for raw in text.split():
            if ":" in raw:
                terms.append(normalize_feature_term(raw))
            else:
                terms.extend(self.analyze(raw))
        return terms

    @staticmethod
    def keep_distinct(terms: Iterable[str]) -> list[str]:
        """Deduplicate while preserving first-seen order."""
        seen: set[str] = set()
        out: list[str] = []
        for t in terms:
            if t not in seen:
                seen.add(t)
                out.append(t)
        return out


def normalize_feature_term(raw: str) -> str:
    """Normalize a feature-triplet query term like ``TV:brand:Toshiba``.

    Lowercases and strips whitespace around the ``:`` separators so that
    query-side triplets match the canonical form produced by
    :meth:`repro.data.documents.Feature.as_term`.
    """
    parts = [p.strip().lower() for p in raw.split(":")]
    return ":".join(p for p in parts if p)
