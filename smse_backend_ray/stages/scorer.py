"""Shard scorer: the stateful stage of the query path.

Reference analog: the pgvector index queried per modality with DB-side top-k
(smse_backend/services/search.py:97-110) and the worker-resident model state
(module globals loaded once per worker, smse_backend/tasks.py:35-39). Here the
per-worker state is an index shard: a ``ShardSearcher`` Ray actor loads its
shards' segment + docmeta parquet ONCE in ``__init__`` and then answers top-k
for batches of queries with vectorized numpy scoring.

Shard state stays COLUMNAR: segments are held as one Arrow table with a
term -> row-index dict; per-term entries (posting bytes) are materialized
lazily on first query of the term and postings decode lazily on top of that. Actor start cost is O(1 table concat + 1 string-column pass),
flat as the vocabulary grows — never a to_pylist of every segment row.

All index reads go through state/fs.IndexFS, so shards load from any
pyarrow.fs location (local, file://, s3://, or an injected FileSystem).

Score determinism (SURVEY.md §4): contributions are accumulated in FIXED
term-ascending order per doc (see ``_accumulate``) — one scalar add per
(doc, term) into a zero-initialized accumulator, the exact float addition
sequence of the single-process oracle, so scores are bitwise equal.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from smse_backend_ray.config import SCORE_DECIMALS, BM25Params
from smse_backend_ray.functions.bm25 import tfnorm_vec
from smse_backend_ray.functions.rounding import round_half_away
from smse_backend_ray.functions.codec import decode_postings
from smse_backend_ray.state.fs import resolve


def _accumulate(
    id_parts: list[np.ndarray], c_parts: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Sum per-term contribution arrays per doc in STRICT term-ascending
    order: one scalar add per (doc, term) into a zero-initialized dense
    accumulator — the exact float addition sequence of the oracle's
    ``scores[did] += contrib`` loop. (np.add.reduceat is NOT usable here:
    its segment reduction is pairwise/SIMD-ordered and drifts by 1 ulp.)"""
    uniq = np.unique(np.concatenate(id_parts))
    scores = np.zeros(uniq.size, dtype=np.float64)
    for ids, contrib in zip(id_parts, c_parts):
        pos = np.searchsorted(uniq, ids)
        scores[pos] += contrib  # ids unique within a term -> plain fancy add
    return uniq, scores


def _min_cover_span(arrs: list[np.ndarray]) -> int:
    """Minimal (max - min) span of a position set containing at least one
    position from every array. ``arrs`` are one doc's per-term kept
    positions: each sorted ascending, mutually disjoint (one token = one
    term). Classic sorted-merge shrinking-window sweep, O(total log total)."""
    k = len(arrs)
    if k == 1:
        return 0
    pos = np.concatenate(arrs)
    lab = np.repeat(np.arange(k), [a.size for a in arrs])
    o = np.argsort(pos, kind="stable")
    pos, lab = pos[o], lab[o]
    count = np.zeros(k, dtype=np.int64)
    missing = k
    best = np.iinfo(np.int64).max
    i = 0
    for j in range(pos.size):
        if count[lab[j]] == 0:
            missing -= 1
        count[lab[j]] += 1
        while missing == 0:
            span = int(pos[j] - pos[i])
            if span < best:
                best = span
            count[lab[i]] -= 1
            if count[lab[i]] == 0:
                missing += 1
            i += 1
    return best


SEGMENT_COLS = ["term", "docs_bytes", "tfs_bytes", "dls_bytes"]
# positional column family (EngineConfig.with_positions builds only)
POS_SEGMENT_COLS = ["pos_bytes"]


class ShardIndex:
    """Columnar view of one shard (segments + doc metadata)."""

    def __init__(
        self,
        index_dir,
        shard_id: int,
        avgdl: float,
        params: BM25Params,
        block_size: int = 128,
    ):
        ifs = resolve(index_dir)
        self.shard_id = shard_id
        self.avgdl = avgdl
        self.params = params
        self.block_size = block_size

        seg_files = ifs.list_files(
            f"segments/shard_id={shard_id}", suffix=".parquet"
        )
        # positional indexes carry pos_bytes in EVERY segment file
        # (with_positions is frozen per build; appends reuse the manifest
        # cfg) — one footer read of the first file decides
        self.has_positions = bool(seg_files) and (
            "pos_bytes" in ifs.parquet_file(seg_files[0]).schema_arrow.names
        )
        self._seg_cols = SEGMENT_COLS + (POS_SEGMENT_COLS if self.has_positions else [])
        self._entry_cols = self._seg_cols[1:]
        if seg_files:
            parts = ifs.read_tables(seg_files, columns=self._seg_cols)
            seg = pa.concat_tables(parts).combine_chunks()
            # the only full-vocabulary pass: one STABLE C++ sort by term
            # (stability keeps generation order within a term — file order,
            # which append_index relies on only for determinism of caches;
            # scores are order-free across generations, disjoint doc sets).
            # Term lookup is then a binary search over the sorted column —
            # no Python-per-row dict build, which at real-corpus vocabulary
            # (millions of terms) cost seconds per actor.
            seg = seg.take(pa.compute.sort_indices(seg["term"])).combine_chunks()
            self._terms_sorted = seg["term"].to_numpy(zero_copy_only=False)
        else:
            seg = None
            self._terms_sorted = np.empty(0, dtype=object)
        self._seg = seg
        self._ent_cache: dict[str, list[dict]] = {}
        self._dec_cache: dict[str, tuple] = {}
        self._pos_cache: dict[str, tuple] = {}
        self._pos_seg_cache: dict[str, tuple] = {}

        # docs are hive-partitioned by shard_id (optionally nested under
        # wave_* dirs in file-mode builds); read only this shard's meta cols
        meta_files = [
            f
            for f in ifs.list_files("docs", recursive=True, suffix=".parquet")
            if f"shard_id={shard_id}/" in f
        ]
        if meta_files:
            m = pa.concat_tables(
                ifs.read_tables(meta_files, columns=["doc_id", "repo", "path", "lang"])
            )
            order = pa.compute.sort_indices(m["doc_id"])
            m = m.take(order).combine_chunks()
            self.meta_ids = m["doc_id"].to_numpy()
            # metadata stays COMPACT Arrow at rest (no per-row Python strings
            # for the whole shard); rows become Python only for the <=k
            # survivors of each query (_finalize)
            self.meta = m.select(["repo", "path", "lang"])
        else:
            self.meta_ids = np.empty(0, dtype=np.int64)
            self.meta = pa.table(
                {c: pa.array([], type=pa.string()) for c in ("repo", "path", "lang")}
            )

    # -- lazy per-term state ----------------------------------------------

    def _entries(self, term: str) -> list[dict] | None:
        """Materialize a term's segment rows (one per generation) from the
        columnar table (cached); decode state attaches to the dicts lazily."""
        ents = self._ent_cache.get(term)
        if ents is not None:
            return ents
        lo = int(np.searchsorted(self._terms_sorted, term, side="left"))
        hi = int(np.searchsorted(self._terms_sorted, term, side="right"))
        if lo == hi:
            return None
        ents = [{c: self._seg[c][i].as_py() for c in self._entry_cols} for i in range(lo, hi)]
        self._ent_cache[term] = ents
        return ents

    def _ent_decoded(self, ent: dict):
        if "dec" not in ent:
            ent["dec"] = decode_postings(ent, self.block_size)
        return ent["dec"]

    def _decoded(self, term: str):
        """Full posting arrays for a term: the single generation's decode, or
        the concatenation across generations (doc sets are disjoint, so the
        per-(doc, term) contribution set — and therefore the accumulation
        result — is independent of concatenation order)."""
        ents = self._entries(term)
        if ents is None:
            return None
        if len(ents) == 1:
            return self._ent_decoded(ents[0])
        dec = self._dec_cache.get(term)
        if dec is None:
            parts = [self._ent_decoded(e) for e in ents]
            dec = tuple(np.concatenate([p[i] for p in parts]) for i in range(3))
            self._dec_cache[term] = dec
        return dec

    def _decoded_pos(self, term: str):
        """(doc_ids, tfs, flat_positions) for a term, concatenated across
        generations in the SAME ents order as ``_decoded`` — posting k owns
        positions [cum_tf[k], cum_tf[k+1]). Requires a positional index."""
        hit = self._pos_cache.get(term)
        if hit is not None:
            return hit
        ents = self._entries(term)
        if ents is None:
            return None
        from smse_backend_ray.functions.codec import decode_positions

        id_parts, tf_parts, pos_parts = [], [], []
        for e in ents:
            ids, tfs, _dls = self._ent_decoded(e)
            id_parts.append(ids)
            tf_parts.append(tfs)
            pos_parts.append(decode_positions(e, tfs))
        out = (
            np.concatenate(id_parts),
            np.concatenate(tf_parts),
            np.concatenate(pos_parts),
        )
        self._pos_cache[term] = out
        return out

    def excluded_ids(self, terms: list[str]) -> np.ndarray:
        """Union of doc_ids containing ANY of ``terms`` in this shard
        (boolean-NOT support: merged into the tombstone filter, which
        applies BEFORE scope/threshold/top-k on every scoring path)."""
        parts = []
        for t in terms:
            dec = self._decoded(t)
            if dec is not None:
                parts.append(dec[0])
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))

    def _conj_candidates(self, terms: list[str]) -> "np.ndarray | None":
        """doc_ids (sorted) containing EVERY term, or None when any term is
        absent from this shard. Docs live in exactly one shard, so the
        per-shard intersection is globally correct."""
        cand = None
        for t in terms:
            dec = self._decoded(t)
            if dec is None:
                return None
            ids = np.sort(dec[0])  # generations concatenate unsorted
            cand = ids if cand is None else np.intersect1d(cand, ids, assume_unique=True)
            if cand.size == 0:
                return cand
        return cand

    def _restricted_scores(
        self, terms, weights, cand: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray] | None":
        """Exact (uniq doc_ids, raw scores) of the candidate doc set in fixed
        term-asc order (bitwise == the oracle's restricted accumulation)."""
        id_parts, c_parts = [], []
        for term, w in zip(terms, weights):
            dec = self._decoded(term)
            if dec is None:
                continue
            doc_ids, tfs, dls = dec
            m = np.isin(doc_ids, cand, assume_unique=True)
            id_parts.append(doc_ids[m])
            c_parts.append(w * tfnorm_vec(tfs[m], dls[m], self.avgdl, self.params))
        if not id_parts:
            return None
        return _accumulate(id_parts, c_parts)

    def _score_restricted(
        self, terms, weights, cand: np.ndarray, scope: str, k: int, tombstones=None
    ) -> dict:
        r = self._restricted_scores(terms, weights, cand)
        if r is None:
            return self._empty()
        return self._finalize(r[0], r[1], scope, k, tombstones)

    def score_conj(self, terms, weights, scope: str = "", k: int = 30, tombstones=None) -> dict:
        """Conjunctive (AND) top-k: only docs containing EVERY query term
        score; scoring itself is the same BM25 sum (frozen semantics mirrored
        by the oracle and sqlgen.bm25_conj_topk_sql)."""
        cand = self._conj_candidates(terms)
        if cand is None or cand.size == 0:
            return self._empty()
        return self._score_restricted(terms, weights, cand, scope, k, tombstones)

    def score_phrase(
        self, phrase: list[str], terms, weights, scope: str = "", k: int = 30, tombstones=None
    ) -> dict:
        """Exact-phrase top-k (requires a positional index).

        A doc matches iff the phrase's kept-token sequence occurs contiguously
        in the doc's kept-token stream: positions(q0) chained through
        ``P = P[isin(P + j, positions(qj))]``. Matching docs score with the
        same BM25 sum over the phrase's term multiset (qtf*idf weights).
        Frozen semantics mirrored by oracle.oracle_phrase_search and
        sqlgen.phrase_topk_sql. Duplicate phrase terms are handled naturally
        by the position chain.
        """
        matched = self._phrase_matches(phrase)
        if matched is None or matched.size == 0:
            return self._empty()
        return self._score_restricted(terms, weights, matched, scope, k, tombstones)

    # doc-rank-offset key base for cross-doc vectorized position math:
    # global key = rank(doc in cand) * _POS_OFF + kept_position. Safe while
    # dl + phrase length < 2^32 (a 4-billion-token doc) and ranks < 2^31.
    _POS_OFF = np.int64(1) << 32

    def _pos_segments(self, term: str) -> tuple:
        """(sorted_ids, order, tfs, starts) for a positional term, cached:
        the doc_id -> position-segment lookup shared by the candidate
        gathers below (ids concatenate unsorted across generations, hence
        the explicit sort view)."""
        hit = self._pos_seg_cache.get(term)
        if hit is None:
            ids, tfs, _flat = self._decoded_pos(term)
            starts = np.concatenate(([0], np.cumsum(tfs)))[:-1]
            order = np.argsort(ids, kind="stable")
            hit = (ids[order], order, tfs, starts)
            self._pos_seg_cache[term] = hit
        return hit

    def _cand_seg(self, term: str, cand: np.ndarray) -> tuple:
        """(tfs_sel, starts_sel) of the candidate docs' position segments,
        in cand order. cand MUST be a subset of the term's doc list (the
        conjunctive-candidate invariant), so the lookup is an exact hit."""
        sids, order, tfs, starts = self._pos_segments(term)
        pos_in = order[np.searchsorted(sids, cand)]
        return tfs[pos_in], starts[pos_in]

    def _cand_gpos(self, term: str, cand: np.ndarray) -> np.ndarray:
        """All occurrences of ``term`` in candidate docs as global keys
        rank*_POS_OFF + position — gathers ONLY the candidate docs'
        position segments (O(occurrences within cand), never a pass over
        every occurrence of the term in the shard), ascending."""
        _ids, _tfs, flat = self._decoded_pos(term)
        L, off = self._cand_seg(term, cand)
        tok_off = np.concatenate(([0], np.cumsum(L)))
        idx = (
            np.arange(int(tok_off[-1]), dtype=np.int64)
            - np.repeat(tok_off[:-1], L)
            + np.repeat(off, L)
        )
        rank = np.repeat(np.arange(cand.size, dtype=np.int64), L)
        return rank * self._POS_OFF + flat[idx]

    def _cand_minmax(self, term: str, cand: np.ndarray) -> tuple:
        """(min_pos, max_pos) of ``term`` per candidate doc — O(1) per doc
        from the segment bounds (positions are stored ascending per doc)."""
        _ids, _tfs, flat = self._decoded_pos(term)
        L, off = self._cand_seg(term, cand)
        return flat[off], flat[off + L - 1]

    def _phrase_matches(self, phrase: list[str]) -> "np.ndarray | None":
        """doc_ids (sorted) whose kept-token stream contains the phrase.

        Fully vectorized across candidate docs: occurrences become global
        keys rank*OFF + pos, and the phrase chain ``P = P[isin(P+j, Q_j)]``
        runs once over ALL candidates (within-doc +j never crosses an OFF
        boundary, so cross-doc matches are impossible)."""
        self._require_positions("phrase")
        uniq = sorted(set(phrase))
        cand = self._conj_candidates(uniq)
        if cand is None or cand.size == 0:
            return cand
        gpos = {t: self._cand_gpos(t, cand) for t in uniq}
        P = gpos[phrase[0]]
        for off, t in enumerate(phrase[1:], 1):
            if P.size == 0:
                break
            P = P[np.isin(P + off, gpos[t], assume_unique=True)]
        if P.size == 0:
            return np.empty(0, dtype=np.int64)
        return cand[np.unique(P // self._POS_OFF)]

    def score_near(
        self, terms, weights, slop: int, scope: str = "", k: int = 30, tombstones=None
    ) -> dict:
        """Proximity top-k (requires a positional index): a doc matches iff
        some kept-token window of span <= ``slop`` (max position - min
        position) contains at least one occurrence of EVERY distinct query
        term. ``terms`` MUST be the full distinct kept term list (the driver
        short-circuits df=0 terms to an empty result). Matching docs score
        with the same BM25 sum. Frozen semantics mirrored by
        oracle.oracle_near_search and sqlgen.near_topk_sql."""
        matched = self._near_matches(terms, slop)
        if matched is None or matched.size == 0:
            return self._empty()
        return self._score_restricted(terms, weights, matched, scope, k, tombstones)

    def _near_matches(self, terms: list[str], slop: int) -> "np.ndarray | None":
        """doc_ids (sorted) with all distinct terms in a span<=slop window.

        Vectorized across candidate docs via global rank*OFF+pos keys: for
        every occurrence position p (window END), the minimal window ending
        at p spans p - min_t(latest occurrence of t <= p in the same doc) —
        the classic last-seen sweep, computed with one sorted merge and one
        searchsorted per term instead of a per-doc Python two-pointer
        (bitwise-identical match set; parity-fuzzed against
        _min_cover_span in tests)."""
        self._require_positions("near")
        cand = self._conj_candidates(terms)
        if cand is None or cand.size == 0:
            return cand
        if len(terms) == 1:
            return cand  # a single term's own position is a span-0 window
        # cheap per-doc span LOWER BOUND before the occurrence sweep: any
        # window containing one occurrence of every term has end >=
        # max_t(min_pos(t)) and start <= min_t(max_pos(t)), so min cover
        # span >= max_t(min_pos) - min_t(max_pos). Docs whose bound exceeds
        # slop are provably non-matching and skip occurrence decode — the
        # surviving set is bitwise-identical (necessary condition only).
        # O(1) per (term, doc) from the segment bounds; the expensive
        # O(occ log occ) merged sweep then runs on survivors only.
        lbmax = ubmin = None
        for t in terms:
            mn, mx = self._cand_minmax(t, cand)
            lbmax = mn if lbmax is None else np.maximum(lbmax, mn)
            ubmin = mx if ubmin is None else np.minimum(ubmin, mx)
        cand = cand[(lbmax - ubmin) <= slop]
        if cand.size == 0:
            return np.empty(0, dtype=np.int64)
        # _cand_gpos is ascending by construction (rank-major, positions
        # ascending per doc segment), so no per-term sort is needed, and the
        # concatenation of k sorted runs merges in O(n log k) with the
        # run-detecting stable sort instead of O(n log n) quicksort
        gs = [self._cand_gpos(t, cand) for t in terms]
        merged = np.sort(np.concatenate(gs), kind="stable")
        doc_of = merged // self._POS_OFF
        ok = np.ones(merged.size, dtype=bool)
        big = np.iinfo(np.int64).max
        best_min = np.full(merged.size, big, dtype=np.int64)
        for g in gs:
            j = np.searchsorted(g, merged, side="right") - 1
            latest = g[np.maximum(j, 0)]
            same = (j >= 0) & (latest // self._POS_OFF == doc_of)
            ok &= same
            best_min = np.minimum(best_min, np.where(same, latest, big))
        hit = ok & ((merged - best_min) <= slop)
        if not hit.any():
            return np.empty(0, dtype=np.int64)
        return cand[np.unique(doc_of[hit])]

    def _require_positions(self, what: str) -> None:
        if not self.has_positions:
            raise RuntimeError(
                f"{what} search requires a positional index "
                "(EngineConfig.with_positions=True at build time)"
            )

    # -- scoring -----------------------------------------------------------

    def score_query(
        self,
        terms: list[str],
        weights: list[float],
        scope: str = "",
        k: int = 30,
        tombstones: "np.ndarray | None" = None,
    ) -> dict:
        """Top-k for one query on this shard.

        ``terms`` MUST be sorted ascending with ``weights[i] = qtf_i * idf_i``
        (computed by the driver from the global df table). Returns candidate
        arrays (doc_id, score, rscore) plus their (repo, path, lang) rows as
        an Arrow ``meta`` table, ordered by (rscore DESC, doc_id ASC),
        truncated to k.
        """
        r = self._or_scores(terms, weights)
        if r is None:
            return self._empty()
        return self._finalize(r[0], r[1], scope, k, tombstones)

    def _or_scores(self, terms, weights) -> "tuple[np.ndarray, np.ndarray] | None":
        """(uniq doc_ids, raw scores) of every doc containing any term."""
        id_parts: list[np.ndarray] = []
        c_parts: list[np.ndarray] = []
        for term, w in zip(terms, weights):
            dec = self._decoded(term)
            if dec is None:
                continue
            doc_ids, tfs, dls = dec
            id_parts.append(doc_ids)
            c_parts.append(w * tfnorm_vec(tfs, dls, self.avgdl, self.params))
        if not id_parts:
            return None
        return _accumulate(id_parts, c_parts)

    def _job_scores(self, job: dict) -> "tuple[np.ndarray, np.ndarray] | None":
        """(uniq doc_ids, raw scores) of ALL matching docs for a mode job —
        no scope/threshold/tombstone/top-k applied. Mode semantics identical
        to the corresponding score_* entry point."""
        terms, weights = job["terms"], job["weights"]
        if job.get("phrase"):
            matched = self._phrase_matches(job["phrase"])
        elif job.get("mode") == "near":
            matched = self._near_matches(terms, job["slop"])
        elif job.get("mode") == "and":
            matched = self._conj_candidates(terms)
        else:
            return self._or_scores(terms, weights)
        if matched is None or matched.size == 0:
            return None
        return self._restricted_scores(terms, weights, matched)

    def facet_counts(
        self, job: dict, facets=("repo", "lang"), tombstones=None
    ) -> dict:
        """Per-facet value counts over ALL matching docs of a job (the
        search-UI filter-sidebar analog; A3/A4 aggregation family) — no
        top-k truncation. Match/scope/threshold/tombstone semantics are
        identical to the corresponding score_* path; threshold applies to
        the ROUNDED score like the result set. Frozen pair:
        sqlgen.facets_sql."""
        r = self._job_scores(job)
        empty = {"facet": [], "value": [], "n_docs": []}
        if r is None:
            return empty
        doc_ids, scores = r
        threshold = job.get("threshold")
        if tombstones is not None and tombstones.size:
            m = ~np.isin(doc_ids, tombstones)
            doc_ids, scores = doc_ids[m], scores[m]
        if threshold is not None:
            m = round_half_away(scores, SCORE_DECIMALS) >= threshold
            doc_ids, scores = doc_ids[m], scores[m]
        if doc_ids.size == 0:
            return empty
        pos = np.searchsorted(self.meta_ids, doc_ids)
        scope = job.get("scope", "")
        if scope:
            repo_c = self.meta["repo"].take(pa.array(pos))
            m = pa.compute.equal(repo_c, scope).to_numpy(zero_copy_only=False)
            pos = pos[m]
            if pos.size == 0:
                return empty
        idx = pa.array(pos)
        out = {"facet": [], "value": [], "n_docs": []}
        for facet in facets:
            vc = pa.compute.value_counts(self.meta[facet].take(idx).combine_chunks())
            vals = vc.field("values").to_pylist()
            cnts = vc.field("counts").to_pylist()
            out["facet"].extend([facet] * len(vals))
            out["value"].extend(vals)
            out["n_docs"].extend(cnts)
        return out

    def _finalize(
        self,
        doc_ids: np.ndarray,
        scores: np.ndarray,
        scope: str,
        k: int,
        tombstones: np.ndarray | None = None,
    ) -> dict:
        if tombstones is not None and tombstones.size:
            m = ~np.isin(doc_ids, tombstones)
            doc_ids, scores = doc_ids[m], scores[m]
        pos = np.searchsorted(self.meta_ids, doc_ids)
        # all candidate doc_ids exist in meta by construction
        if scope:
            # Arrow-side compare: candidates' repo never round-trips Python
            repo_c = self.meta["repo"].take(pa.array(pos))
            m = pa.compute.equal(repo_c, scope).to_numpy(zero_copy_only=False)
            doc_ids, scores, pos = doc_ids[m], scores[m], pos[m]
        rscore = round_half_away(scores, SCORE_DECIMALS)
        order = np.lexsort((doc_ids, -rscore))[:k]
        return {
            "doc_id": doc_ids[order],
            "score": scores[order],
            "rscore": rscore[order],
            # the <=k survivors' (repo, path, lang) rows, still Arrow
            "meta": self.meta.take(pos[order]),
        }

    def _empty(self) -> dict:
        f = np.empty(0, dtype=np.float64)
        return {
            "doc_id": np.empty(0, dtype=np.int64), "score": f, "rscore": f,
            "meta": self.meta.slice(0, 0),
        }


def _job_tombstones(
    job: dict, sh: ShardIndex, tombstones: "np.ndarray | None"
) -> "np.ndarray | None":
    """Effective per-shard tombstone array for a job: the engine's sorted
    tombstone ids (shipped once per actor call), the job's own excluded ids
    (more_like_this drops its source doc) and (boolean NOT) the shard's docs
    containing any excluded term — all filter BEFORE scope/threshold/top-k
    in _finalize."""
    ex = job.get("exclude_terms")
    out = tombstones
    for extra in (job.get("exclude_ids"), sh.excluded_ids(ex) if ex else None):
        if extra is not None and extra.size:
            out = extra if out is None or not out.size else np.union1d(out, extra)
    return out


def _score_job(sh: ShardIndex, job: dict, tomb: "np.ndarray | None") -> dict:
    """One job's top-k on one shard, dispatched on the job's mode."""
    terms, weights = job["terms"], job["weights"]
    kw = {"scope": job.get("scope", ""), "k": job["k"], "tombstones": tomb}
    if job.get("phrase"):
        return sh.score_phrase(job["phrase"], terms, weights, **kw)
    if job.get("mode") == "near":
        return sh.score_near(terms, weights, job["slop"], **kw)
    if job.get("mode") == "and":
        return sh.score_conj(terms, weights, **kw)
    return sh.score_query(terms, weights, **kw)


@ray.remote
class ShardSearcher:
    """Actor owning one or more shards (actor-pool stage ST1/ST4 analog:
    state loaded once in __init__, smse_backend/tasks.py:35-103)."""

    def __init__(
        self,
        index_dir,
        shard_ids: list[int],
        avgdl: float,
        params_dict: dict,
        block_size: int = 128,
    ):
        params = BM25Params(**params_dict)
        self.shards = [
            ShardIndex(index_dir, s, avgdl, params, block_size) for s in shard_ids
        ]

    def ping(self) -> bool:
        return True

    def facets(self, jobs: list[dict], tombstones: "np.ndarray | None" = None) -> pa.Table:
        """Per-query facet counts over this actor's shards (partial counts;
        the driver sums across shards — each doc lives in exactly one shard,
        so the global sums are exact)."""
        cols = {"query_id": [], "facet": [], "value": [], "n_docs": []}
        for job in jobs:
            for sh in self.shards:
                r = sh.facet_counts(job, tombstones=_job_tombstones(job, sh, tombstones))
                n = len(r["facet"])
                if not n:
                    continue
                cols["query_id"].extend([job["query_id"]] * n)
                cols["facet"].extend(r["facet"])
                cols["value"].extend(r["value"])
                cols["n_docs"].extend(r["n_docs"])
        return pa.table(
            {
                "query_id": pa.array(cols["query_id"], type=pa.int64()),
                "facet": pa.array(cols["facet"], type=pa.string()),
                "value": pa.array(cols["value"], type=pa.string()),
                "n_docs": pa.array(cols["n_docs"], type=pa.int64()),
            }
        )

    def search(self, jobs: list[dict], tombstones: "np.ndarray | None" = None) -> tuple:
        """jobs: [{terms, weights, scope, k, mode...}] plus the engine's
        sorted tombstone ids -> the candidates of every (job, shard) as flat
        columns: (job index into ``jobs``, doc_id int64, score f64, rscore
        f64, repo, path, lang). Numbers travel as numpy arrays and strings
        as plain lists, never as a pa.Table: Ray's Arrow table reducer costs
        ~10x a tuple of arrays for a few dozen rows."""
        jix, ids, sc, rs = [], [], [], []
        meta: dict[str, list] = {"repo": [], "path": [], "lang": []}
        for j, job in enumerate(jobs):
            for sh in self.shards:
                r = _score_job(sh, job, _job_tombstones(job, sh, tombstones))
                n = len(r["doc_id"])
                if not n:
                    continue
                jix.append(np.full(n, j, dtype=np.int64))
                ids.append(r["doc_id"])
                sc.append(r["score"])
                rs.append(r["rscore"])
                for c, vals in r["meta"].to_pydict().items():
                    meta[c].extend(vals)

        def cat(parts: list, dtype) -> np.ndarray:
            return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

        return (
            cat(jix, np.int64), cat(ids, np.int64), cat(sc, np.float64),
            cat(rs, np.float64), meta["repo"], meta["path"], meta["lang"],
        )
