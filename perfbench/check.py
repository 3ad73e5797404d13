"""Correctness checks against the single-process oracle (oracle.py).

A query passes when the engine returns the oracle's documents in the same
order with bitwise-equal ``exact_score``. Tombstoned documents are removed
from the oracle ranking before truncation. A build passes when its doc count
and duplicate count equal the oracle's.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

from smse_backend_ray import oracle as orc
from smse_backend_ray.config import NEAR_DEFAULT_SLOP
from smse_backend_ray.sources.corpus import doc_id_from_key


def expected_duplicates(corpus) -> int:
    keys = Counter(
        doc_id_from_key(r, p, c)
        for r, p, c in zip(
            corpus["repo"].to_pylist(), corpus["path"].to_pylist(), corpus["commit"].to_pylist()
        )
    )
    return sum(1 for n in keys.values() if n > 1)


def build_ok(idx, manifest: dict, expected_dups: int) -> bool:
    stats = manifest["stats"]
    dups = manifest["stages"]["dedup"].get("metrics", {}).get("duplicates")
    return stats["n_docs"] == idx.n_docs and dups == expected_dups


def _restricted(idx, terms: list[str]):
    """View of ``idx`` whose token streams cover only docs holding every
    term: phrase/near matching scans every stream, and no other doc can
    match. Postings, docs and corpus statistics are shared unchanged."""
    docs = None
    for t in set(terms):
        ids = set(idx.postings.get(t, ()))
        docs = ids if docs is None else docs & ids
    tokens = {d: idx.tokens[d] for d in (docs or ())}
    return dataclasses.replace(idx, tokens=tokens)


def oracle_rows(idx, qs, tombstones: frozenset = frozenset()) -> list[tuple[int, float]]:
    """(doc_id, exact score) of the oracle's top ``qs.limit``."""
    limit = qs.limit + len(tombstones)
    kw = dict(scope=qs.scope, limit=limit, threshold=qs.threshold, exclude=qs.exclude)
    parts = list(qs.parts)
    if qs.mode == "and":
        rows = orc.oracle_conj_search(idx, parts, **kw)
    elif qs.mode == "phrase":
        phrase = orc.tokenize(parts[0])
        rows = orc.oracle_phrase_search(_restricted(idx, phrase), parts[0], **kw)
    elif qs.mode == "near":
        qtf, _ = orc.fuse_parts(parts)
        slop = NEAR_DEFAULT_SLOP if qs.slop is None else qs.slop
        rows = orc.oracle_near_search(_restricted(idx, list(qtf)), parts, slop, **kw)
    else:
        rows = orc.oracle_search(idx, parts, **kw)
    rows = [r for r in rows if r["doc_id"] not in tombstones][: qs.limit]
    return [(r["doc_id"], r["score"]) for r in rows]


def engine_rows(result, qid: int) -> list[tuple[int, float]]:
    """(doc_id, exact score) of one query's rows in a search_batch result,
    in result (rank) order."""
    qids = result["query_id"].to_pylist()
    docs = result["doc_id"].to_pylist()
    scores = result["exact_score"].to_pylist()
    return [(d, s) for q, d, s in zip(qids, docs, scores) if q == qid]
