"""Single-process exact oracle: dict inverted index + BM25 (SURVEY.md §7.3).

This is the conformance target for every distributed stage: same analyzer,
same doc_id assignment, same BM25 variant, same (rounded score DESC, doc_id
ASC) total order, same fixed term-ascending summation order — so the Ray
engine's scores must be *bitwise* equal, not just close.

Reference analogs: the search core (smse_backend/services/search.py:77-222)
and its DB-side top-k (:97-110), collapsed into one in-memory implementation.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

import pyarrow as pa

from smse_backend_ray.config import (
    DEFAULT_TOP_K,
    SCORE_DECIMALS,
    BM25Params,
)
from smse_backend_ray.functions import bm25
from smse_backend_ray.functions.analyzer import term_counts, tokenize  # noqa: F401 (term_counts re-exported)
from smse_backend_ray.functions.fusion import fuse_parts
from smse_backend_ray.functions.normalize import NORMALIZERS
from smse_backend_ray.functions.rounding import round_half_away
from smse_backend_ray.sources.corpus import doc_id_from_key


@dataclass
class OracleDoc:
    doc_id: int
    repo: str
    path: str
    commit: str
    lang: str
    content_sha256: str
    n_bytes: int
    dl: int


@dataclass
class OracleIndex:
    params: BM25Params
    docs: dict[int, OracleDoc] = field(default_factory=dict)
    postings: dict[str, dict[int, int]] = field(default_factory=dict)  # term -> {doc_id: tf}
    tokens: dict[int, list[str]] = field(default_factory=dict)  # doc_id -> kept-token stream
    n_docs: int = 0
    avgdl: float = 0.0

    def df(self, term: str) -> int:
        return len(self.postings.get(term, ()))


def build_oracle_index(
    corpus: pa.Table,
    params: BM25Params | None = None,
    allowed_langs: tuple[str, ...] | None = None,
) -> OracleIndex:
    params = params or BM25Params()
    idx = OracleIndex(params=params)
    rows = corpus.select(["repo", "path", "commit", "lang", "content"]).to_pylist()
    # dedup winner = min content_sha256 per doc_id (sqlgen.DOCS_CTE twin)
    for r in rows:
        if allowed_langs is not None and r["lang"] not in allowed_langs:
            continue
        did = doc_id_from_key(r["repo"], r["path"], r["commit"])
        sha = hashlib.sha256(r["content"].encode()).hexdigest()
        prev = idx.docs.get(did)
        if prev is not None and prev.content_sha256 <= sha:
            continue
        if prev is not None:
            # replace winner: remove previous postings for this doc
            for tfs in idx.postings.values():
                tfs.pop(did, None)
        toks = tokenize(r["content"])
        tcs = sorted(Counter(toks).items())  # == term_counts(content)
        dl = len(toks)
        idx.tokens[did] = toks
        idx.docs[did] = OracleDoc(
            doc_id=did,
            repo=r["repo"],
            path=r["path"],
            commit=r["commit"],
            lang=r["lang"],
            content_sha256=sha,
            n_bytes=len(r["content"].encode()),
            dl=dl,
        )
        for term, tf in tcs:
            idx.postings.setdefault(term, {})[did] = tf
    idx.n_docs = len(idx.docs)
    idx.avgdl = (
        sum(d.dl for d in idx.docs.values()) / idx.n_docs if idx.n_docs else 0.0
    )
    return idx


def oracle_search(
    idx: OracleIndex,
    parts: list[str],
    scope: str = "",
    limit: int = DEFAULT_TOP_K,
    threshold: float | None = None,
    normalize: str = "none",
    exclude=(),
) -> list[dict]:
    """Exact BM25 top-k. Returns rows with rank, doc meta, exact + rounded score.

    Order of operations mirrors the reference search core
    (smse_backend/services/search.py:135-222): score -> threshold filter
    (score >= t, the `not <` form :180-184) -> (optional, default-off)
    normalization :190-197 -> global sort -> limit -> projection.
    """
    qtf, _ = fuse_parts(parts)
    return _score_and_rank(
        idx, qtf, None, scope, limit, threshold, normalize,
        excl=_excluded_docs(idx, exclude),
    )


def _excluded_docs(idx: OracleIndex, exclude) -> "set[int] | None":
    """Docs containing ANY kept excluded term (boolean NOT twin of
    scorer.excluded_ids / the bad CTE in sqlgen exclusion SQL)."""
    if not exclude:
        return None
    out: set[int] = set()
    for p in exclude:
        for t in set(tokenize(p)):
            out |= set(idx.postings.get(t, ()))
    return out


def oracle_conj_search(
    idx: OracleIndex,
    parts: list[str],
    scope: str = "",
    limit: int = DEFAULT_TOP_K,
    threshold: float | None = None,
    normalize: str = "none",
    exclude=(),
) -> list[dict]:
    """Conjunctive (AND-mode) twin of ShardIndex.match (AND mode): only docs
    containing EVERY kept query term score; a kept term with df=0 yields no
    rows. Scoring of the surviving docs is the identical BM25 sum."""
    qtf, _ = fuse_parts(parts)
    cand: set[int] | None = None
    for term in sorted(qtf):
        post = idx.postings.get(term)
        if not post:
            return []
        cand = set(post) if cand is None else cand & set(post)
        if not cand:
            return []
    return _score_and_rank(
        idx, qtf, cand, scope, limit, threshold, normalize,
        excl=_excluded_docs(idx, exclude),
    )


def oracle_phrase_search(
    idx: OracleIndex,
    text: str,
    scope: str = "",
    limit: int = DEFAULT_TOP_K,
    threshold: float | None = None,
    normalize: str = "none",
    exclude=(),
) -> list[dict]:
    """Exact-phrase twin of ShardIndex.match (phrase): a doc matches iff the
    query's kept-token sequence occurs contiguously in the doc's kept-token
    stream; matches score with the standard BM25 sum over the phrase's term
    multiset (engine<->SQL pair with sqlgen.phrase_topk_sql)."""
    phrase = tokenize(text)
    if not phrase:
        return []
    qtf = dict(Counter(phrase))
    L = len(phrase)
    cand = {
        did
        for did, toks in idx.tokens.items()
        if any(toks[s : s + L] == phrase for s in range(len(toks) - L + 1))
    }
    if not cand:
        return []
    return _score_and_rank(
        idx, qtf, cand, scope, limit, threshold, normalize,
        excl=_excluded_docs(idx, exclude),
    )


def oracle_near_search(
    idx: OracleIndex,
    parts: list[str],
    slop: int,
    scope: str = "",
    limit: int = DEFAULT_TOP_K,
    threshold: float | None = None,
    normalize: str = "none",
    exclude=(),
) -> list[dict]:
    """Proximity twin of ShardIndex.match (near): a doc matches iff some
    kept-token window of span <= slop (max pos - min pos) contains at least
    one occurrence of EVERY distinct kept query term (df=0 kept term -> no
    rows). Matches score with the standard BM25 sum (engine<->SQL pair with
    sqlgen.near_topk_sql)."""
    qtf, _ = fuse_parts(parts)
    uniq = sorted(qtf)
    for term in uniq:
        if not idx.postings.get(term):
            return []
    cand = set()
    for did, toks in idx.tokens.items():
        pos = {t: [] for t in uniq}
        for i, tok in enumerate(toks):
            if tok in pos:
                pos[tok].append(i)
        if any(not p for p in pos.values()):
            continue
        # sorted-merge shrinking window (independent scalar re-derivation)
        merged = sorted((p, t) for t in uniq for p in pos[t])
        count = {t: 0 for t in uniq}
        missing = len(uniq)
        best = None
        i = 0
        for j, (pj, tj) in enumerate(merged):
            if count[tj] == 0:
                missing -= 1
            count[tj] += 1
            while missing == 0:
                span = pj - merged[i][0]
                if best is None or span < best:
                    best = span
                ti = merged[i][1]
                count[ti] -= 1
                if count[ti] == 0:
                    missing += 1
                i += 1
        if best is not None and best <= slop:
            cand.add(did)
    if not cand:
        return []
    return _score_and_rank(
        idx, qtf, cand, scope, limit, threshold, normalize,
        excl=_excluded_docs(idx, exclude),
    )


def _score_and_rank(
    idx: OracleIndex,
    qtf: dict[str, int],
    cand: "set[int] | None",
    scope: str,
    limit: int,
    threshold: float | None,
    normalize: str,
    excl: "set[int] | None" = None,
) -> list[dict]:
    scores: dict[int, float] = {}
    for term in sorted(qtf):  # FIXED summation order (term ascending)
        post = idx.postings.get(term)
        if not post:
            continue
        w = qtf[term] * bm25.idf(idx.n_docs, len(post))
        for did, tf in post.items():
            if cand is not None and did not in cand:
                continue
            if excl is not None and did in excl:
                continue
            d = idx.docs[did]
            contrib = w * bm25.tfnorm_scalar(tf, d.dl, idx.avgdl, idx.params)
            scores[did] = scores.get(did, 0.0) + contrib
    rows = []
    for did, sc in scores.items():
        d = idx.docs[did]
        if scope and d.repo != scope:
            continue
        rsc = round_half_away(sc, SCORE_DECIMALS)
        if threshold is not None and not rsc >= threshold:
            continue
        rows.append(
            {
                "doc_id": did,
                "path": d.path,
                "repo": d.repo,
                "lang": d.lang,
                "score": sc,
                "rscore": rsc,
            }
        )
    rows.sort(key=lambda r: (-r["rscore"], r["doc_id"]))
    rows = rows[:limit]
    norm = NORMALIZERS[normalize]
    if norm is not None and rows:
        import numpy as np

        normed = norm(np.array([r["rscore"] for r in rows]))
        for r, v in zip(rows, normed):
            r["norm_score"] = float(v)
    for i, r in enumerate(rows):
        r["rank"] = i + 1
    return rows
