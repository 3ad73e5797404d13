"""Seeded query log over the built vocabulary.

Terms are drawn Zipfian over the vocabulary ranked by document frequency, so
a few hot terms repeat, and identifier lookups draw uniformly from the long
tail, so first-seen terms force cold df lookups and first-touch posting
decodes. A Zipfian draw over the tail would put a quarter of the identifier
queries on its first few terms, and what those few cost differs from seed
to seed (up to twice, at equal df); the uniform draw keeps the cost of a
class the same for every seed. Five classes:

  or_hot    OR over >= 2 of the 100 highest-df terms
  or_ident  OR over 1-2 long-tail terms only (identifier lookups)
  and       conjunctive, terms Zipfian over the whole vocabulary
  phrase    2-3 consecutive kept tokens copied from a real document
  near      two distinct tokens within the default slop of a real document

Scope, threshold, exclude and multi-part modifiers are sprinkled in. The
vocabulary, df ranks and documents come from the oracle index, which the
benchmark builds itself from the corpus; the engine only receives the
resulting ``QuerySpec`` list.
"""

from __future__ import annotations

import numpy as np

from smse_backend_ray.config import NEAR_DEFAULT_SLOP
from smse_backend_ray.queryset import QuerySpec

CLASSES = ("or_hot", "or_ident", "and", "phrase", "near")
CLASS_WEIGHTS = (0.30, 0.25, 0.20, 0.125, 0.125)
HOT_TERMS = 100


class QueryLog:
    """Generator state for one oracle index; ``make`` draws a seeded log."""

    def __init__(self, oracle, repos: list[str]):
        ranked = sorted(oracle.postings, key=lambda t: (-len(oracle.postings[t]), t))
        self.hot = np.array(ranked[:HOT_TERMS], dtype=object)
        self.tail = np.array(ranked[HOT_TERMS:], dtype=object)
        self.vocab = np.array(ranked, dtype=object)
        self.tokens = oracle.tokens
        self.doc_ids = np.array(sorted(d for d, t in oracle.tokens.items() if len(t) >= 4))
        self.repos = sorted(set(repos))

    def _zipf(self, rng, arr: np.ndarray, k: int, s: float = 1.0) -> list[str]:
        """k distinct terms of ``arr``, Zipfian over its order."""
        out: list[str] = []
        while len(out) < k:
            r = int(rng.zipf(1.0 + s)) - 1
            if r < len(arr) and arr[r] not in out:
                out.append(str(arr[r]))
        return out

    def _uniform(self, rng, arr: np.ndarray, k: int) -> list[str]:
        """k distinct terms of ``arr``, uniform over it."""
        return [str(t) for t in arr[rng.choice(len(arr), size=k, replace=False)]]

    def _span(self, rng, length: int) -> list[str]:
        toks = self.tokens[int(rng.choice(self.doc_ids))]
        i = int(rng.integers(0, len(toks) - length + 1))
        return toks[i : i + length]

    def _near_pair(self, rng) -> list[str]:
        while True:
            toks = self.tokens[int(rng.choice(self.doc_ids))]
            i = int(rng.integers(0, len(toks) - 1))
            j = min(len(toks) - 1, i + int(rng.integers(1, NEAR_DEFAULT_SLOP + 1)))
            if toks[i] != toks[j]:
                return [toks[i], toks[j]]

    def make(self, seed: int, n: int, first_id: int = 1) -> list[tuple[str, QuerySpec]]:
        rng = np.random.default_rng([seed, 7])
        classes = rng.choice(len(CLASSES), size=n, p=CLASS_WEIGHTS)
        out = []
        for i, c in enumerate(classes):
            cls = CLASSES[int(c)]
            kw: dict = {}
            if cls == "or_hot":
                terms = self._zipf(rng, self.hot, int(rng.integers(2, 4)), s=0.5)
            elif cls == "or_ident":
                terms = self._uniform(rng, self.tail, int(rng.integers(1, 3)))
            elif cls == "and":
                terms = self._zipf(rng, self.vocab, 2, s=0.8)
                kw["mode"] = "and"
            elif cls == "phrase":
                terms = self._span(rng, int(rng.integers(2, 4)))
                kw["mode"] = "phrase"
            else:
                terms = self._near_pair(rng)
                kw["mode"] = "near"
            if cls == "phrase":
                parts = (" ".join(terms),)
            elif len(terms) > 1 and rng.random() < 0.15:  # multi-part fusion
                parts = (" ".join(terms[:1]), " ".join(terms[1:]))
            else:
                parts = (" ".join(terms),)
            r = rng.random()
            if r < 0.08:
                kw["scope"] = self.repos[int(rng.integers(0, len(self.repos)))]
            elif r < 0.16:
                kw["threshold"] = float(round(rng.uniform(0.5, 3.0), 1))
            elif r < 0.24:
                ex = [t for t in self._zipf(rng, self.hot, 3, s=0.5) if t not in terms]
                kw["exclude"] = tuple(ex[:1])
            kw["limit"] = 20 if rng.random() < 0.2 else 10
            out.append((cls, QuerySpec(first_id + i, parts, **kw)))
        return out
