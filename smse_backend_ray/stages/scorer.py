"""Shard scorer: the stateful stage of the query path.

Reference analog: the pgvector index queried per modality with DB-side top-k
(smse_backend/services/search.py:97-110) and the worker-resident model state
(module globals loaded once per worker, smse_backend/tasks.py:35-39). Here the
per-worker state is an index over one or more shards: a serve actor is
``ray.remote(ShardIndex)``, which loads its shards' segment + docmeta
parquet ONCE in ``__init__`` and then answers top-k for batches of queries
with vectorized numpy scoring.

An actor's shards are ONE index: shards hold disjoint doc sets, exactly as
segment generations do, so their segment files concatenate into one
term-sorted Arrow table (a term's rows, one per shard x generation, are
contiguous) and their doc files into one doc_id-sorted meta table. A
term's postings decode straight from its rows' binary buffers on first
query of the term (decoded postings, and positions for positional terms,
share the index's one LRU, bounded at config.DECODE_CACHE_MAX_BYTES).
Actor start cost is O(1 table concat + 1 sort), flat as the vocabulary
grows — never a to_pylist of every segment row.

Every query mode goes through one path: ``ShardIndex.match`` (the only mode
dispatch) scores one job; ``ShardIndex.hits`` concatenates its matches over
every job of an actor call, and ``ShardIndex.visible`` applies the
tombstone + scope filter to all of them at once. Results then finalize
ONCE per call over every job (``ShardIndex.search``: rounding, one sort,
each job's top-k cut, the survivors' meta rows); facets count the same
visible rows (``ShardIndex.facet_counts``).

All index reads go through state/fs.IndexFS, so shards load from any
pyarrow.fs location (local, file://, s3://, or an injected FileSystem).

Score determinism (SURVEY.md §4): contributions are accumulated in FIXED
term-ascending order per doc (see ``_accumulate``) — one scalar add per
(doc, term) into a zero-initialized accumulator, the exact float addition
sequence of the single-process oracle, so scores are bitwise equal.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pyarrow as pa

from smse_backend_ray import config
from smse_backend_ray.config import SCORE_DECIMALS, BM25Params
from smse_backend_ray.functions.bm25 import tfnorm_vec
from smse_backend_ray.functions.rounding import round_half_away
from smse_backend_ray.functions.codec import decode_positions, decode_postings
from smse_backend_ray.state.catalog import Catalog
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


def _member(x: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    """``np.isin(x, sorted_arr)`` for a SORTED haystack: one searchsorted
    and one gather, where isin sorts both arrays on every call."""
    if not sorted_arr.size:
        return np.zeros(x.shape, dtype=bool)
    i = np.searchsorted(sorted_arr, x)
    return sorted_arr[np.minimum(i, sorted_arr.size - 1)] == x


def _codes(col: pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """int32 dictionary codes of a string column, plus the value of each
    code as an object array. A null gets the last code, whose value is
    None: it is counted as a facet value, and no scope string maps to it."""
    enc = pa.compute.dictionary_encode(col.combine_chunks())
    values = np.array(enc.dictionary.to_pylist() + [None], dtype=object)
    codes = enc.indices.fill_null(values.size - 1).to_numpy(zero_copy_only=False)
    return codes.astype(np.int32), values


class _ByteLRU:
    """Least-recently-used map of tuples of numpy arrays, bounded by the
    summed ``nbytes`` of the cached arrays. A value larger than the whole
    bound is not cached."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._d: OrderedDict = OrderedDict()  # key -> (value, nbytes)

    def get(self, key):
        hit = self._d.get(key)
        if hit is None:
            return None
        self._d.move_to_end(key)
        return hit[0]

    def put(self, key, value: tuple) -> None:
        n = sum(a.nbytes for a in value)
        if n > self.max_bytes:
            return
        self._d[key] = (value, n)
        self.nbytes += n
        while self.nbytes > self.max_bytes:
            self.nbytes -= self._d.popitem(last=False)[1][1]


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
# the meta columns held as int32 codes: scope filters and facet counts
FACETS = ("repo", "lang")


def _job(terms, weights, scope: str, k: int, **mode) -> dict:
    return {"terms": terms, "weights": weights, "scope": scope, "k": k, **mode}


class ShardIndex:
    """Columnar view of one or more shards (segments + doc metadata): the
    whole state of a serve actor."""

    def __init__(
        self,
        index_dir,
        shard_id: int | None,
        avgdl: float,
        params: BM25Params,
        block_size: int = 128,
        files: tuple[list[str], list[str]] | None = None,
    ):
        """``files``: the committed (segment files, doc files) of every
        shard the index holds, from the caller's snapshot of the manifest;
        None opens shard ``shard_id`` from the manifest's lists now."""
        ifs = resolve(index_dir)
        self.avgdl = avgdl
        self.params = params
        self.block_size = block_size

        if files is None:
            cat = Catalog(ifs)
            files = (cat.shard_files("segments", shard_id), cat.shard_files("docs", shard_id))
        seg_files, meta_files = files
        # positional indexes carry pos_bytes in EVERY segment file
        # (with_positions is frozen per build; appends reuse the manifest
        # cfg) — one footer read of the first file decides
        self.has_positions = bool(seg_files) and (
            "pos_bytes" in ifs.parquet_file(seg_files[0]).schema_arrow.names
        )
        if seg_files:
            cols = SEGMENT_COLS + (POS_SEGMENT_COLS if self.has_positions else [])
            seg = pa.concat_tables(ifs.read_tables(seg_files, columns=cols))
            # the only full-vocabulary pass: one STABLE C++ sort by term
            # (stability keeps file order within a term — shard and
            # generation order, which append_index relies on only for
            # determinism of caches; scores are order-free across shards
            # and generations, disjoint doc sets).
            # Term lookup is then a binary search over the sorted column —
            # no Python-per-row dict build, which at real-corpus vocabulary
            # (millions of terms) cost seconds per actor.
            seg = seg.take(pa.compute.sort_indices(seg["term"])).combine_chunks()
            self._terms_sorted = seg["term"].to_numpy(zero_copy_only=False)
        else:
            seg = None
            self._terms_sorted = np.empty(0, dtype=object)
        self._seg = seg
        # ("post", term) -> (doc_ids, tfs, tf-norms), and for positional
        # terms ("pos", term) -> (flat positions, sorted doc_ids, tfs,
        # starts): one LRU bounded in bytes
        self._cache = _ByteLRU(config.DECODE_CACHE_MAX_BYTES)

        # read only the meta cols
        if meta_files:
            m = pa.concat_tables(
                ifs.read_tables(meta_files, columns=["doc_id", "repo", "path", "lang"])
            )
            m = m.take(pa.compute.sort_indices(m["doc_id"])).combine_chunks()
        else:
            m = pa.table(
                {"doc_id": pa.array([], type=pa.int64()),
                 **{c: pa.array([], type=pa.string()) for c in ("repo", "path", "lang")}}
            )
        # per meta row (doc_id order): paths stay COMPACT Arrow at rest (no
        # per-row Python strings for the whole index; rows become Python
        # only for the <=k survivors of each job, ``search``); repo and lang
        # are int32 codes into their distinct values, compared (scope) and
        # counted (facets) as integers
        self.meta_ids = m["doc_id"].to_numpy()
        self.paths = m["path"].combine_chunks()
        self.codes, self.values = {}, {}
        for c in FACETS:
            self.codes[c], self.values[c] = _codes(m[c])
        self._repo_code = {v: i for i, v in enumerate(self.values["repo"][:-1])}

    # -- lazy per-term state ----------------------------------------------

    def _rows(self, term: str) -> range:
        """The term's segment rows (one per shard x generation) in the
        sorted table."""
        lo = int(np.searchsorted(self._terms_sorted, term, side="left"))
        return range(lo, int(np.searchsorted(self._terms_sorted, term, side="right")))

    def _stream(self, col: str, i: int) -> pa.Buffer:
        """Row ``i``'s posting stream: a zero-copy view of the Arrow buffer."""
        return self._seg[col][i].as_buffer()

    def _decoded(self, term: str):
        """(doc_ids, tfs, tf-norms) of a term, cached: each row (one per
        shard x generation) is decoded straight from the segment table's
        buffers, concatenated across rows (doc sets are disjoint, so the
        per-(doc, term) contribution set — and therefore the accumulation
        result — is independent of concatenation order). The doc lengths
        are read only to compute the tf-norms, which the cache keeps in
        their place."""
        dec = self._cache.get(("post", term))
        if dec is None:
            rows = self._rows(term)
            if not rows:
                return None
            parts = [
                decode_postings({c: self._stream(c, i) for c in SEGMENT_COLS[1:]}, self.block_size)
                for i in rows
            ]
            ids, tfs, dls = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
            dec = (ids, tfs, tfnorm_vec(tfs, dls, self.avgdl, self.params))
            self._cache.put(("post", term), dec)
        return dec

    def _positions(self, term: str) -> tuple:
        """(flat positions, sorted doc_ids, tfs, starts) of a positional
        term, cached; the doc with the k-th smallest id owns positions
        flat[starts[k] : starts[k] + tfs[k]] (rows concatenate their
        postings unsorted, so tfs and starts are permuted into id order).
        The entry stands alone: it holds every array that ``_cand_seg``
        reads. The term's per-row position streams decode as ONE stream
        against the decoded tfs: position deltas reset at every posting
        start, and a row boundary is a posting start."""
        hit = self._cache.get(("pos", term))
        if hit is None:
            ids, tfs, _tfn = self._decoded(term)
            stream = np.concatenate(
                [np.frombuffer(self._stream("pos_bytes", i), dtype=np.uint8) for i in self._rows(term)]
            )
            order = np.argsort(ids, kind="stable")
            starts = np.concatenate(([0], np.cumsum(tfs)))[:-1]
            hit = (decode_positions({"pos_bytes": stream}, tfs), ids[order], tfs[order], starts[order])
            self._cache.put(("pos", term), hit)
        return hit

    def excluded_ids(self, terms: list[str]) -> np.ndarray:
        """Union of doc_ids containing ANY of ``terms`` in this index
        (boolean-NOT support: merged into the tombstone filter, which
        applies BEFORE scope/threshold/top-k in every mode)."""
        parts = [dec[0] for dec in map(self._decoded, terms) if dec is not None]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))

    # -- matching ------------------------------------------------------------

    def match(self, job: dict) -> "tuple[np.ndarray, np.ndarray] | None":
        """(uniq doc_ids, raw scores) of EVERY doc of this index that matches
        the job — no tombstone/scope/threshold/top-k applied — or None.

        The only branch on the job's mode. OR matches any doc containing a
        term; AND (``_conj_candidates``), phrase (``_phrase_matches``) and
        near (``_near_matches``) first restrict to a candidate doc set.
        Every mode then scores with the same BM25 sum: ``terms`` MUST be
        sorted ascending with ``weights[i] = qtf_i * idf_i`` (the driver's
        global df), and contributions accumulate in fixed term-ascending
        order (``_accumulate``), bitwise equal to the oracle. Frozen pairs:
        oracle.oracle_search / sqlgen.bm25_topk_sql (OR),
        oracle_conj_search / bm25_conj_topk_sql (AND),
        oracle_phrase_search / phrase_topk_sql (phrase),
        oracle_near_search / near_topk_sql (near)."""
        terms, weights = job["terms"], job["weights"]
        cand = None
        if job.get("phrase"):
            cand = self._phrase_matches(job["phrase"])
        elif job.get("mode") == "near":
            cand = self._near_matches(terms, job["slop"])
        elif job.get("mode") == "and":
            cand = self._conj_candidates(terms)
        if cand is not None and not cand.size:
            return None
        id_parts, c_parts = [], []
        for term, w in zip(terms, weights):
            dec = self._decoded(term)
            if dec is None:
                continue
            doc_ids, _tfs, tfn = dec
            if cand is not None:
                m = _member(doc_ids, cand)
                doc_ids, tfn = doc_ids[m], tfn[m]
            id_parts.append(doc_ids)
            c_parts.append(w * tfn)
        if not id_parts:
            return None
        return _accumulate(id_parts, c_parts)

    def _conj_candidates(self, terms: list[str]) -> np.ndarray:
        """doc_ids (sorted) containing EVERY term; empty when any term is
        absent from this index. Docs live in exactly one shard, so the
        intersection over an index's shards is globally correct. AND mode
        matches exactly these docs."""
        cand = np.empty(0, dtype=np.int64)
        for i, t in enumerate(terms):
            dec = self._decoded(t)
            if dec is None:
                return np.empty(0, dtype=np.int64)
            ids = np.sort(dec[0])  # generations concatenate unsorted
            cand = ids if i == 0 else np.intersect1d(cand, ids, assume_unique=True)
            if cand.size == 0:
                break
        return cand

    # doc-rank-offset key base for cross-doc vectorized position math:
    # global key = rank(doc in cand) * _POS_OFF + kept_position. Safe while
    # dl + phrase length < 2^32 (a 4-billion-token doc) and ranks < 2^31.
    _POS_OFF = np.int64(1) << 32

    def _cand_seg(self, term: str, cand: np.ndarray) -> tuple:
        """(flat positions, tfs_sel, starts_sel): the candidate docs'
        position segments, in cand order. cand MUST be a subset of the
        term's doc list (the conjunctive-candidate invariant), so the lookup
        is an exact hit."""
        flat, sids, tfs, starts = self._positions(term)
        i = np.searchsorted(sids, cand)
        return flat, tfs[i], starts[i]

    def _cand_gpos(self, term: str, cand: np.ndarray) -> np.ndarray:
        """All occurrences of ``term`` in candidate docs as global keys
        rank*_POS_OFF + position — gathers ONLY the candidate docs'
        position segments (O(occurrences within cand), never a pass over
        every occurrence of the term in the index), ascending."""
        flat, L, off = self._cand_seg(term, cand)
        tok_off = np.concatenate(([0], np.cumsum(L)))
        idx = (
            np.arange(int(tok_off[-1]), dtype=np.int64)
            - np.repeat(tok_off[:-1], L)
            + np.repeat(off, L)
        )
        rank = np.repeat(np.arange(cand.size, dtype=np.int64), L)
        return rank * self._POS_OFF + flat[idx]

    def _phrase_matches(self, phrase: list[str]) -> np.ndarray:
        """doc_ids (sorted) whose kept-token stream contains the phrase
        (requires a positional index).

        A doc matches iff the phrase's kept-token sequence occurs
        contiguously in its kept-token stream: positions(q0) chained through
        ``P = P[isin(P + j, positions(qj))]``; duplicate phrase terms are
        handled naturally by the chain. Matching docs score over the
        phrase's term multiset (qtf*idf weights). Fully vectorized across
        candidate docs: occurrences become global keys rank*OFF + pos, and
        the chain runs once over ALL candidates (within-doc +j never crosses
        an OFF boundary, so cross-doc matches are impossible)."""
        self._require_positions("phrase")
        uniq = sorted(set(phrase))
        cand = self._conj_candidates(uniq)
        if cand.size == 0:
            return cand
        gpos = {t: self._cand_gpos(t, cand) for t in uniq}
        P = gpos[phrase[0]]
        for off, t in enumerate(phrase[1:], 1):
            if P.size == 0:
                break
            P = P[_member(P + off, gpos[t])]
        return cand[np.unique(P // self._POS_OFF)]

    def _near_matches(self, terms: list[str], slop: int) -> np.ndarray:
        """doc_ids (sorted) with all distinct terms in a span<=slop window
        (requires a positional index).

        A doc matches iff some kept-token window of span <= ``slop`` (max
        position - min position) contains at least one occurrence of EVERY
        distinct query term. ``terms`` MUST be the full distinct kept term
        list (the driver short-circuits df=0 terms to an empty result).

        Vectorized across candidate docs via global rank*OFF+pos keys: for
        every occurrence position p (window END), the minimal window ending
        at p spans p - min_t(latest occurrence of t <= p in the same doc) —
        the classic last-seen sweep, computed with one sorted merge and one
        searchsorted per term instead of a per-doc Python two-pointer
        (bitwise-identical match set; parity-fuzzed against
        _min_cover_span in tests)."""
        self._require_positions("near")
        cand = self._conj_candidates(terms)
        if cand.size == 0 or len(terms) == 1:
            return cand  # a single term's own position is a span-0 window
        # cheap per-doc span LOWER BOUND before the occurrence sweep: any
        # window containing one occurrence of every term has end >=
        # max_t(min_pos(t)) and start <= min_t(max_pos(t)), so min cover
        # span >= max_t(min_pos) - min_t(max_pos). Docs whose bound exceeds
        # slop are provably non-matching and skip occurrence decode — the
        # surviving set is bitwise-identical (necessary condition only).
        # O(1) per (term, doc) from the segment bounds (positions ascend
        # per doc); the O(occ log occ) merged sweep runs on survivors only.
        lbmax = ubmin = None
        for t in terms:
            flat, L, off = self._cand_seg(t, cand)
            mn, mx = flat[off], flat[off + L - 1]
            lbmax = mn if lbmax is None else np.maximum(lbmax, mn)
            ubmin = mx if ubmin is None else np.minimum(ubmin, mx)
        cand = cand[(lbmax - ubmin) <= slop]
        if cand.size == 0:
            return cand
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
        return cand[np.unique(doc_of[hit])]

    def _require_positions(self, what: str) -> None:
        # an index with no segment file (its shards are empty) has no
        # footer to tell; it matches nothing in any mode
        if self._seg is not None and not self.has_positions:
            raise RuntimeError(
                f"{what} search requires a positional index "
                "(EngineConfig.with_positions=True at build time)"
            )

    # -- results -------------------------------------------------------------

    def _excluded(self, job: dict) -> "np.ndarray | None":
        """The job's own excluded doc ids in this index, sorted: its
        ``exclude_ids`` (more_like_this drops its source doc) and (boolean
        NOT) the docs containing any excluded term."""
        ex = job.get("exclude_terms")
        parts = [
            a for a in (job.get("exclude_ids"), self.excluded_ids(ex) if ex else None)
            if a is not None
        ]
        return np.unique(np.concatenate(parts)) if parts else None

    def hits(self, jobs: list[dict]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(job index, doc_id, raw score) of every match of every job in
        this index, concatenated job by job, minus each job's own
        exclusions (``_excluded``)."""
        js, ids, sc = [], [], []
        for j, job in enumerate(jobs):
            r = self.match(job)
            if r is None:
                continue
            d, s = r
            ex = self._excluded(job)
            if ex is not None:
                keep = ~_member(d, ex)
                d, s = d[keep], s[keep]
            js.append(j)
            ids.append(d)
            sc.append(s)
        jix = np.repeat(np.array(js, dtype=np.int64), [d.size for d in ids])
        return jix, _cat(ids, np.int64), _cat(sc, np.float64)

    def visible(self, jobs: list[dict], jix, doc_ids, scores, tombstones) -> tuple:
        """``hits`` rows minus tombstoned docs (``tombstones``: sorted ids)
        and, for each job with a scope, docs of other repos — both BEFORE
        threshold and top-k, like every exclusion. Returns the surviving
        (job index, doc_id, score, meta row position) columns."""
        keep = None
        if tombstones is not None and tombstones.size:
            keep = ~_member(doc_ids, tombstones)
        pos = np.searchsorted(self.meta_ids, doc_ids)  # every matched doc is in meta
        scopes = [job.get("scope", "") for job in jobs]
        if any(scopes):
            # per job: -1 = no scope; a repo this index lacks gets a code no
            # row has (one past the null code)
            absent = self.values["repo"].size
            want = np.array(
                [self._repo_code.get(s, absent) if s else -1 for s in scopes], dtype=np.int64
            )[jix]
            m = (want < 0) | (self.codes["repo"][pos] == want)
            keep = m if keep is None else keep & m
        if keep is not None:
            jix, doc_ids, scores, pos = jix[keep], doc_ids[keep], scores[keep], pos[keep]
        return jix, doc_ids, scores, pos

    def search(self, jobs: list[dict], tombstones: "np.ndarray | None" = None) -> tuple:
        """jobs: [{terms, weights, scope, k, mode...}] plus the engine's
        sorted tombstone ids -> each job's top-k candidates, finalized ONCE
        for the call: the tombstone + scope filter runs once over all jobs;
        then one rounding, one (job, rscore DESC, doc_id ASC) sort, each
        job's cut to its k, one path take and two code lookups for the
        survivors. Returns flat columns (job index into ``jobs``, doc_id
        int64, score f64, rscore f64, repo, path, lang) in that sort order.
        Numbers travel as numpy arrays and strings as plain lists, never as
        a pa.Table: Ray's Arrow table reducer costs ~10x a tuple of arrays
        for a few dozen rows.

        A per-actor cut keeps every row the driver's threshold + limit cut
        can keep: k >= limit, rows passing the threshold are a prefix of
        each job's order, and this order is the driver's order restricted
        to the actor's rows."""
        jix, doc_id, score, pos = self.visible(jobs, *self.hits(jobs), tombstones)
        rscore = round_half_away(score, SCORE_DECIMALS)
        order = np.lexsort((doc_id, -rscore, jix))
        js = jix[order]
        rank = np.arange(js.size) - np.searchsorted(js, js)  # 0 at each job's start
        order = order[rank < np.array([job["k"] for job in jobs], dtype=np.int64)[js]]
        # the survivors' rows become Python strings here (numpy's tolist:
        # ~10x faster than Arrow's to_pylist)
        rows = pos[order]
        repo, lang = (self.values[c][self.codes[c][rows]].tolist() for c in FACETS)
        path = self.paths.take(rows).to_numpy(zero_copy_only=False).tolist()
        return jix[order], doc_id[order], score[order], rscore[order], repo, path, lang

    def top_k(self, job: dict, tombstones: "np.ndarray | None" = None) -> dict:
        """One job's top-k through ``search``: doc_id, score, rscore, repo,
        path and lang, ordered by (rscore DESC, doc_id ASC) and truncated
        to k."""
        cols = self.search([job], tombstones)
        return dict(zip(("doc_id", "score", "rscore", "repo", "path", "lang"), cols[1:]))

    # one-mode job builders over top_k, for in-process probes (perfbench)
    def score_query(self, terms, weights, scope: str = "", k: int = 30, tombstones=None) -> dict:
        return self.top_k(_job(terms, weights, scope, k), tombstones)

    def score_conj(self, terms, weights, scope: str = "", k: int = 30, tombstones=None) -> dict:
        return self.top_k(_job(terms, weights, scope, k, mode="and"), tombstones)

    def score_phrase(
        self, phrase: list[str], terms, weights, scope: str = "", k: int = 30, tombstones=None
    ) -> dict:
        return self.top_k(_job(terms, weights, scope, k, phrase=phrase), tombstones)

    def score_near(
        self, terms, weights, slop: int, scope: str = "", k: int = 30, tombstones=None
    ) -> dict:
        return self.top_k(_job(terms, weights, scope, k, mode="near", slop=slop), tombstones)

    def facet_counts(self, jobs: list[dict], tombstones=None) -> tuple:
        """(job index int64, facet, value, n_docs int64) counts over ALL
        matching docs of each job in this index (the search-UI
        filter-sidebar analog; A3/A4 aggregation family) — no top-k
        truncation. Match, tombstone and scope semantics are those of
        ``top_k``; threshold applies to the ROUNDED score like the result
        set. Each count is a bincount of the facet's codes. Frozen pair:
        sqlgen.facets_sql."""
        jix, _ids, scores, pos = self.visible(jobs, *self.hits(jobs), tombstones)
        thr = np.array([-np.inf if j.get("threshold") is None else j["threshold"] for j in jobs])
        keep = round_half_away(scores, SCORE_DECIMALS) >= thr[jix]
        jix, pos = jix[keep], pos[keep]
        bounds = np.searchsorted(jix, np.arange(len(jobs) + 1))
        out, fac, val, cnt = [], [], [], []
        for j in np.flatnonzero(np.diff(bounds)):
            rows = pos[bounds[j] : bounds[j + 1]]
            for f in FACETS:
                n = np.bincount(self.codes[f][rows])
                nz = np.flatnonzero(n)
                out.append(np.full(nz.size, j, dtype=np.int64))
                fac += [f] * nz.size
                val += self.values[f][nz].tolist()
                cnt.append(n[nz])
        return _cat(out, np.int64), fac, val, _cat(cnt, np.int64)


def _cat(parts: list, dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)
