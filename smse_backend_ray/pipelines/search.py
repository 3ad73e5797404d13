"""Query engine: scatter/gather over shard-scorer actors + reference search
semantics (SURVEY.md §3.2 re-expression of smse_backend/services/search.py
and routes/search.py).

Query path: analyze parts with the SAME analyzer as ingest (symmetry,
tasks.py:219 vs :250) -> multiset-union fusion (A1) -> idf from the global df
table (binary search over the resident term-sorted df column) -> scatter to
the shard actor pool (per-actor top-k, T1) -> gather of flat numpy columns
-> ONE vectorized merge for the whole batch: threshold filter (M9, keeps
score >= t), global (rounded score DESC, doc_id ASC) sort + per-query limit
(T2), result projection/enrichment (M10/M11/J1) -> optional default-OFF
normalization (M7/M8; reference disables at services/search.py:193) ->
query-log + search-record append (query history, T3).
"""

from __future__ import annotations

import time
from bisect import bisect_left

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads

import ray

from smse_backend_ray import config
from smse_backend_ray.config import (
    DEFAULT_TOP_K,
    SCORE_DECIMALS,
    SHARD_CANDIDATE_K,
    BM25Params,
)
from smse_backend_ray.functions.bm25 import idf as idf_fn
from smse_backend_ray.functions.fusion import fuse_parts
from smse_backend_ray.functions.normalize import NORMALIZERS
from smse_backend_ray.queryset import QuerySpec
from smse_backend_ray.stages.scorer import ShardIndex
from smse_backend_ray.state.catalog import Catalog, by_shard
from smse_backend_ray.state.fs import IndexFS

RESULT_SCHEMA = pa.schema(
    [
        ("query_id", pa.int64()),
        ("rank", pa.int32()),
        ("doc_id", pa.int64()),
        ("path", pa.string()),
        ("repo", pa.string()),
        ("lang", pa.string()),
        ("score", pa.float64()),
        ("exact_score", pa.float64()),
    ]
)

# a serve actor: one ShardIndex over the files of all of its shards
_ShardActor = ray.remote(ShardIndex)


class SearchEngine:
    """Serving handle over a built index. Creates ``num_actors`` scorer
    actors, each ONE ``ShardIndex`` over the files of all of its shards:
    full replicas of every shard when their estimated state fits
    ``config.SERVE_REPLICA_MEMORY_SHARE`` of the memory Ray reports
    (default count: the CPUs Ray reports, at most one per shard), else
    shards packed into replica sets (default: one actor per shard).
    ``pack=True`` packs whatever the size, for batch-only use: a batch
    costs one call per actor in either layout, and replicas would only
    decode its terms once per replica and hold more memory. State (decoded
    segments, doc meta) loads once per actor (ST1 analog)."""

    def __init__(self, index_dir, num_actors: int | None = None, pack: bool = False):
        self.index_dir = index_dir
        self.cat = Catalog(index_dir)
        self.ifs: IndexFS = self.cat.ifs
        # every file the engine opens is one this manifest lists (its
        # commit point, state/catalog.py); opening writes nothing
        cfg = self.cat.get_config()
        stats = self.cat.get_stats()
        self.n_docs = stats["n_docs"]
        self.avgdl = stats["avgdl"]
        self.n_shards = cfg["n_shards"]
        self.params = BM25Params(**cfg["bm25"])
        # Actor layout: a replica set is a list of actors that together
        # hold every shard.
        # - Full replicas: every actor opens every shard and is a set of
        #   its own, so a query costs one actor call (a call's fixed CPU
        #   cost exceeds the scoring of most queries). Chosen when n
        #   replicas' estimated state fits config.SERVE_REPLICA_MEMORY_SHARE
        #   of Ray's memory; n defaults to the CPUs Ray reports, as more
        #   replicas than CPUs add memory and no parallelism.
        # - Packing: otherwise (or pack=True) shards spread over
        #   min(n, n_shards) actors per set, and n > n_shards spawns
        #   n // n_shards sets.
        # search_batch sends a single job to one set and LPT-splits a batch
        # across sets (_split). Results are identical in every layout:
        # every job is scored on every shard exactly once.
        ray.get_runtime_context()  # connects to Ray, as the actor starts below would
        res = ray.cluster_resources()
        n = num_actors or max(1, min(self.n_shards, int(res.get("CPU", 1))))
        if not pack and n * self._replica_bytes() <= config.SERVE_REPLICA_MEMORY_SHARE * res.get("memory", 0):
            per_set = 1
        else:
            n = num_actors or self.n_shards
            per_set = min(n, self.n_shards)
        n_sets = max(1, n // per_set)
        # actor g of a set holds shards s with s % per_set == g: its
        # (segment files, doc files), shard-ascending
        files = [([], []) for _ in range(per_set)]
        for i, t in enumerate(("segments", "docs")):
            for s, paths in sorted(by_shard(self.ifs, self.cat.files(t)).items()):
                files[s % per_set][i].extend(paths)
        self.actor_sets = [
            [_ShardActor.remote(self.ifs, None, self.avgdl, self.params, cfg.get("block_size", 128), f)
             for f in files]
            for _ in range(n_sets)
        ]
        # the df table stays resident, term-sorted (the build writes one
        # term-sorted file; indexes from older builds may hold several):
        # every df lookup is a binary search over it, never a parquet
        # scan. Read while the actors start.
        df = pa.concat_tables(self.ifs.read_tables(self.cat.files("df"), columns=["term", "df"]))
        df = df.take(pa.compute.sort_indices(df["term"]))
        self._df_terms = df["term"].to_numpy()
        self._df = df["df"].to_numpy().astype(np.int64)
        ray.get([a.__ray_ready__.remote() for st in self.actor_sets for a in st])
        # sorted, shipped once per actor call (not per job)
        self._tomb_ids = np.array(sorted(self._load_tombstones()), dtype=np.int64)
        self._next_query_id = self._load_next_query_id()

    def _replica_bytes(self) -> int:
        """Estimate of the memory one full replica adds: twice the bytes of
        the committed segment and doc files on disk (an actor holds the
        segments and the docs' meta columns, a subset of the doc files; a
        replica of a 100k-doc index held 125-155 MB for 89 MB on disk) plus
        a full decode cache."""
        return config.DECODE_CACHE_MAX_BYTES + 2 * self.ifs.total_size(
            self.cat.files("segments") + self.cat.files("docs")
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        for st in self.actor_sets:
            for a in st:
                ray.kill(a)
        self.actor_sets = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # ------------------------------------------------------------------
    # tombstone deletes (reference DELETE /api/contents analog,
    # smse_backend/routes/content.py — removes a document from search
    # visibility immediately; corpus statistics refresh at the next
    # rebuild, matching the batch-index model)
    # ------------------------------------------------------------------

    TOMBSTONES = "tombstones.json"

    def _load_tombstones(self) -> set[int]:
        # shared reader (with .bak crash recovery) in state/catalog.py —
        # the same set compact_index vacuums
        from smse_backend_ray.state.catalog import read_tombstones

        return read_tombstones(self.ifs)

    @property
    def _tombstones(self) -> set[int]:
        """The deleted doc ids, as a set (a copy)."""
        return set(self._tomb_ids.tolist())

    def delete_doc(self, doc_id: int) -> None:
        """Remove a doc from all future results (persisted; atomic write)."""
        d = int(doc_id)
        i = int(np.searchsorted(self._tomb_ids, d))
        if i == self._tomb_ids.size or self._tomb_ids[i] != d:
            self._tomb_ids = np.insert(self._tomb_ids, i, d)
        self.ifs.write_json_atomic(self.TOMBSTONES, self._tomb_ids.tolist())

    # ------------------------------------------------------------------
    def _docs(self):
        """The doc table of the CURRENT manifest, for the point reads of
        explain, more_like_this and snippets: gc may have deleted the doc
        files of the engine's own manifest (it keeps them for one file
        commit), and every doc the engine serves is in the current ones
        unless a compaction vacuumed it."""
        return Catalog(self.ifs).dataset("docs")

    # ------------------------------------------------------------------
    def _df_of(self, terms) -> list[int]:
        """Corpus df of each term (0 = not in the vocabulary): a binary
        search per term over the resident term-sorted df column (plain
        bisect — a query has a handful of terms, too few to repay numpy's
        per-call overhead)."""
        col, out = self._df_terms, []
        for t in terms:
            i = bisect_left(col, t)
            out.append(int(self._df[i]) if i < col.size and col[i] == t else 0)
        return out

    def idf_weights(self, qtf: dict[str, int]) -> tuple[list[str], list[float]]:
        """Sorted terms + qtf*idf weights of the query terms in the
        vocabulary."""
        terms = sorted(qtf)
        out_t, out_w = [], []
        for t, d in zip(terms, self._df_of(terms)):
            if d:
                out_t.append(t)
                out_w.append(qtf[t] * idf_fn(self.n_docs, d))
        return out_t, out_w

    # ------------------------------------------------------------------
    @staticmethod
    def _job(qid, terms, weights, scope="", limit=DEFAULT_TOP_K, threshold=None) -> dict:
        """One scatter job: what the shards score (terms, weights, scope, k)
        plus what the merge applies (query_id, limit, threshold)."""
        return {
            "query_id": qid, "terms": terms, "weights": weights, "scope": scope,
            "k": max(limit, SHARD_CANDIDATE_K), "limit": limit, "threshold": threshold,
        }

    def _job_for(self, qs) -> dict | None:
        """Build the scatter job of QuerySpec ``qs``, or None when the query
        provably has no results (no kept terms; or AND/phrase mode with a
        kept term whose corpus df is 0 — no doc can contain every term, so
        skip the scatter entirely). Frozen semantics mirrored by oracle.py
        (oracle_conj_search/oracle_phrase_search) and sqlgen
        (bm25_conj_topk_sql/phrase_topk_sql)."""
        # validate BEFORE any provably-empty early return, so an invalid
        # request errors loudly instead of silently returning no rows
        mode, parts = qs.mode, qs.parts
        if mode not in ("or", "and", "phrase", "near"):
            raise ValueError(f"unknown query mode {mode!r}")
        if mode == "phrase" and len(parts) != 1:
            raise ValueError("phrase mode requires exactly one query part")
        qtf, _majority = fuse_parts(parts)  # raises on no valid parts (400 analog)
        terms, weights = self.idf_weights(qtf)
        if not terms:
            return None
        if mode != "or" and len(terms) < len(qtf):
            return None  # some kept term has df=0 -> conjunction can't match
        job = self._job(qs.query_id, terms, weights, qs.scope, qs.limit, qs.threshold)
        if mode == "and":
            job["mode"] = "and"
        elif mode == "phrase":
            from smse_backend_ray.functions.analyzer import tokenize

            job["phrase"] = tokenize(parts[0])
        elif mode == "near":
            from smse_backend_ray.config import NEAR_DEFAULT_SLOP

            s = NEAR_DEFAULT_SLOP if qs.slop is None else int(qs.slop)
            if s < 0:
                raise ValueError("slop must be >= 0")
            job["mode"] = "near"
            job["slop"] = s
        if qs.exclude:
            from smse_backend_ray.functions.analyzer import tokenize

            ex_terms = sorted({t for p in qs.exclude for t in tokenize(p)})
            if ex_terms:
                job["exclude_terms"] = ex_terms
        return job

    def search(
        self,
        parts: list[str] | str,
        scope: str = "",
        limit: int = DEFAULT_TOP_K,
        threshold: float | None = None,
        normalize: str = "none",
        query_id: int | None = None,
        log: bool = False,
        mode: str = "or",
        slop: int | None = None,
        exclude: tuple = (),
    ) -> pa.Table:
        """One query as a one-spec search_batch; ``normalize`` rescales the
        returned scores (the query log keeps the BM25 scores)."""
        if isinstance(parts, str):
            parts = [parts]
        qid = query_id if query_id is not None else self._next_query_id
        norm = NORMALIZERS[normalize]
        qs = QuerySpec(qid, tuple(parts), scope, limit, threshold, mode, slop, tuple(exclude))
        result = self.search_batch([qs], log=log)
        if norm is not None and result.num_rows:
            i = RESULT_SCHEMA.get_field_index("score")
            normed = norm(result["score"].to_numpy())
            result = result.set_column(i, "score", pa.array(normed, type=pa.float64()))
        return result

    def search_batch(self, queries, log: bool = False) -> pa.Table:
        """Batch path for a list of queryset.QuerySpec; one scatter/gather.
        Every spec gets its own ranked block, in input order — two specs may
        share a query_id."""
        jobs = [self._job_for(qs) for qs in queries]
        out, counts = self._gather([j for j in jobs if j is not None])
        if log and jobs:
            sizes, start = iter(counts.tolist()), 0
            for qs, job in zip(queries, jobs):
                n = 0 if job is None else next(sizes)
                sub = out.slice(start, n)
                self._log_query(qs.query_id, list(qs.parts), qs.scope, qs.limit, sub)
                start += n
            # keep the auto-id counter ahead of explicit batch ids so a
            # later search(log=True) can't reuse (and overwrite) a
            # just-logged query's log/record files
            top = max(qs.query_id for qs in queries)
            self._next_query_id = max(self._next_query_id, top + 1)
        return out

    # ------------------------------------------------------------------
    EXPLAIN_SCHEMA = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("term", pa.string()),
            ("qtf", pa.int64()),
            ("df", pa.int64()),
            ("tf", pa.int64()),
            ("dl", pa.int64()),
            ("contrib", pa.float64()),
        ]
    )

    def explain(self, parts: list[str] | str, doc_ids) -> pa.Table:
        """Score explanation: one row per (doc, query term present in the
        doc) with the BM25 inputs and the term's contribution
        qtf*idf*tfnorm (rounded SCORE_DECIMALS — the sum of a doc's rounded
        contributions tracks its score up to rounding). Driver-side only:
        query analysis + a doc_id pushdown point read of the docs store.
        Frozen pair: sqlgen.explain_sql."""
        from smse_backend_ray.functions.bm25 import tfnorm_scalar
        from smse_backend_ray.functions.rounding import round_half_away

        if isinstance(parts, str):
            parts = [parts]
        qtf, _ = fuse_parts(parts)
        terms = sorted(qtf)
        df = dict(zip(terms, self._df_of(terms)))
        doc_ids = sorted({int(d) for d in doc_ids})
        t = self._docs().to_table(
            columns=["doc_id", "terms", "tfs", "dl"],
            filter=pads.field("doc_id").isin(doc_ids),
        )
        out = {k: [] for k in ("doc_id", "term", "qtf", "df", "tf", "dl", "contrib")}
        for r in sorted(t.to_pylist(), key=lambda r: r["doc_id"]):
            tfs = dict(zip(r["terms"], r["tfs"]))
            for term in terms:
                tf = tfs.get(term)
                d = df[term]
                if not tf or not d:
                    continue
                contrib = (
                    qtf[term]
                    * idf_fn(self.n_docs, d)
                    * tfnorm_scalar(tf, r["dl"], self.avgdl, self.params)
                )
                out["doc_id"].append(r["doc_id"])
                out["term"].append(term)
                out["qtf"].append(qtf[term])
                out["df"].append(d)
                out["tf"].append(int(tf))
                out["dl"].append(r["dl"])
                out["contrib"].append(round_half_away(contrib, SCORE_DECIMALS))
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], type=pa.int64()),
                "term": pa.array(out["term"], type=pa.string()),
                "qtf": pa.array(out["qtf"], type=pa.int64()),
                "df": pa.array(out["df"], type=pa.int64()),
                "tf": pa.array(out["tf"], type=pa.int64()),
                "dl": pa.array(out["dl"], type=pa.int64()),
                "contrib": pa.array(out["contrib"], type=pa.float64()),
            },
            schema=self.EXPLAIN_SCHEMA,
        )

    # ------------------------------------------------------------------
    def search_prefix(
        self,
        prefix: str,
        scope: str = "",
        limit: int = DEFAULT_TOP_K,
        threshold: float | None = None,
        query_id: int = 0,
        cap: int | None = None,
    ) -> pa.Table:
        """Prefix (wildcard) query ``prefix*``: expand to the vocabulary
        terms starting with the lowercased prefix — term-ASCENDING, capped
        at ``cap`` (default config.PREFIX_MAX_EXPANSIONS) — then score as a
        standard OR query with qtf=1 per expanded term. Expansion reads
        ONLY the [prefix, prefix+1) range of the resident term-sorted df
        column (two binary searches). Frozen pair: sqlgen.prefix_topk_sql."""
        from smse_backend_ray.config import PREFIX_MAX_EXPANSIONS

        cap = PREFIX_MAX_EXPANSIONS if cap is None else cap
        p = prefix.lower()
        if not p:
            raise ValueError("empty prefix")
        hi = p[:-1] + chr(ord(p[-1]) + 1)  # analyzer terms are ASCII
        lo, up = (int(np.searchsorted(self._df_terms, x)) for x in (p, hi))
        terms = self._df_terms[lo:up][:cap].tolist()
        if not terms:
            return RESULT_SCHEMA.empty_table()
        weights = [idf_fn(self.n_docs, d) for d in self._df[lo:up][:cap].tolist()]
        job = self._job(query_id, terms, weights, scope, limit, threshold)
        return self._gather([job])[0]

    # ------------------------------------------------------------------
    MLT_SCHEMA = pa.schema(
        [
            ("src_id", pa.int64()),
            ("rank", pa.int32()),
            ("doc_id", pa.int64()),
            ("path", pa.string()),
            ("repo", pa.string()),
            ("lang", pa.string()),
            ("score", pa.float64()),
        ]
    )

    def more_like_this(
        self, src_doc_ids, m: int | None = None, limit: int = DEFAULT_TOP_K
    ) -> pa.Table:
        """Related documents: for each source doc, BM25 top-k over the
        source's ``m`` highest tf*idf terms (qtf=1 each; ties break term
        ascending), with the source itself excluded via the per-job
        tombstone path. Source term vectors come from a doc_id
        filter-pushdown point read of the docs store (J2 analog). Frozen
        pair: sqlgen.mlt_sql."""
        from smse_backend_ray.config import MLT_TOP_TERMS

        m = MLT_TOP_TERMS if m is None else m
        src_doc_ids = sorted({int(d) for d in src_doc_ids})
        t = self._docs().to_table(
            columns=["doc_id", "terms", "tfs"],
            filter=pads.field("doc_id").isin(src_doc_ids),
        )
        rows = {r["doc_id"]: r for r in t.to_pylist()}
        for sid in src_doc_ids:
            if sid not in rows:
                raise KeyError(f"doc {sid} not found in the index")
        vocab = sorted({term for r in rows.values() for term in r["terms"]})
        df = dict(zip(vocab, self._df_of(vocab)))
        jobs = []
        for sid in src_doc_ids:
            r = rows[sid]
            ranked = sorted(
                (-(tf * idf_fn(self.n_docs, df[term])), term)
                for term, tf in zip(r["terms"], r["tfs"])
                if df[term]
            )
            sel = sorted(term for _, term in ranked[:m])
            if not sel:
                continue
            weights = [idf_fn(self.n_docs, df[term]) for term in sel]
            job = self._job(sid, sel, weights, limit=limit)
            job["exclude_ids"] = np.array([sid], dtype=np.int64)
            jobs.append(job)
        if not jobs:
            return self.MLT_SCHEMA.empty_table()
        out = self._gather(jobs)[0]
        return out.select(
            ["query_id", "rank", "doc_id", "path", "repo", "lang", "score"]
        ).rename_columns(self.MLT_SCHEMA.names)

    # ------------------------------------------------------------------
    def snippets(self, queries, lead: int | None = None, window: int | None = None) -> pa.Table:
        """Query-dependent snippets for the top-k results (search-UI result
        highlighting; M12 derived-artifact analog made query-aware).

        For each (query, result doc): anchor = the smallest kept position of
        any kept query term in the doc; snippet = the doc's kept tokens
        [max(0, anchor-lead), +window) joined with spaces. Doc streams are
        rebuilt from the docs store's (terms, tfs, poss) columns via a
        filter-pushdown point read of ONLY the <=k result docs (J2 lookup
        analog) — requires a positional build. Frozen pair:
        sqlgen.snippets_sql."""
        from smse_backend_ray.config import SNIPPET_LEAD, SNIPPET_WINDOW

        lead = SNIPPET_LEAD if lead is None else lead
        window = SNIPPET_WINDOW if window is None else window
        res = self.search_batch(queries)
        schema = pa.schema(
            [
                ("query_id", pa.int64()),
                ("rank", pa.int32()),
                ("doc_id", pa.int64()),
                ("snippet", pa.string()),
            ]
        )
        if res.num_rows == 0:
            return schema.empty_table()
        doc_ids = sorted(set(res["doc_id"].to_pylist()))
        ds = self._docs()
        if "poss" not in ds.schema.names:
            raise RuntimeError(
                "snippets require a positional build "
                "(EngineConfig.with_positions=True at build time)"
            )
        t = ds.to_table(
            columns=["doc_id", "terms", "tfs", "poss"],
            filter=pads.field("doc_id").isin(doc_ids),
        )
        streams: dict[int, np.ndarray] = {}
        for r in t.to_pylist():
            occ_terms = np.repeat(
                np.asarray(r["terms"], dtype=object),
                np.asarray(r["tfs"], dtype=np.int64),
            )
            poss = np.asarray(r["poss"], dtype=np.int64)
            stream = np.empty(len(poss), dtype=object)
            stream[poss] = occ_terms
            streams[r["doc_id"]] = stream
        qterms: dict[int, set] = {}
        for qs in queries:
            qtf, _ = fuse_parts(list(qs.parts))
            qterms[qs.query_id] = set(qtf)
        out_snips = []
        for row in res.select(["query_id", "doc_id"]).to_pylist():
            stream = streams[row["doc_id"]]
            qt = qterms[row["query_id"]]
            hits = np.flatnonzero(np.isin(stream, list(qt)))
            # every result doc contains >=1 kept query term (score > 0)
            start = max(0, int(hits[0]) - lead)
            out_snips.append(" ".join(stream[start : start + window]))
        return pa.table(
            {
                "query_id": res["query_id"],
                "rank": res["rank"],
                "doc_id": res["doc_id"],
                "snippet": pa.array(out_snips, type=pa.string()),
            },
            schema=schema,
        )

    # ------------------------------------------------------------------
    FACET_SCHEMA = pa.schema(
        [
            ("query_id", pa.int64()),
            ("facet", pa.string()),
            ("value", pa.string()),
            ("n_docs", pa.int64()),
        ]
    )

    def facet_counts(self, queries) -> pa.Table:
        """Per-query facet (repo/lang) counts over ALL matching docs — the
        search-UI filter-sidebar analog. Match semantics (mode, scope,
        threshold on rounded score, tombstones) are identical to
        search_batch, WITHOUT top-k truncation. Per-actor partial counts sum
        exactly (each doc lives in one shard); each (query, facet) keeps its
        FACET_MAX_VALUES largest values by (n_docs DESC, value ASC), which
        bounds the result when a facet has huge cardinality. Frozen pair:
        sqlgen.facets_sql."""
        from smse_backend_ray.config import FACET_MAX_VALUES

        jobs = [j for j in map(self._job_for, queries) if j is not None]
        job, parts = self._scatter("facet_counts", jobs)
        if not job.size:
            return self.FACET_SCHEMA.empty_table()
        # one int64 key per (query_id, facet) that sorts like the pair
        names, fcode = np.unique(np.array([f for p in parts for f in p[1]]), return_inverse=True)
        qids = np.array([j["query_id"] for j in jobs], dtype=np.int64)
        t = pa.table(
            {
                "key": qids[job] * names.size + fcode,
                "value": pa.array([v for p in parts for v in p[2]], type=pa.string()),
                "n_docs": np.concatenate([p[3] for p in parts]),
            }
        ).group_by(["key", "value"]).aggregate([("n_docs", "sum")])
        by = [("key", "ascending"), ("n_docs_sum", "descending"), ("value", "ascending")]
        t = t.take(pa.compute.sort_indices(t, sort_keys=by))
        key = t["key"].to_numpy()
        t = t.filter(np.arange(key.size) - np.searchsorted(key, key) < FACET_MAX_VALUES)
        t = t.take(pa.compute.sort_indices(t, sort_keys=[by[0], by[2]]))
        key = t["key"].to_numpy()
        return pa.table(
            {
                "query_id": key // names.size,
                "facet": names[key % names.size],
                "value": t["value"],
                "n_docs": t["n_docs_sum"],
            },
            schema=self.FACET_SCHEMA,
        )

    # ------------------------------------------------------------------
    def _split(self, jobs: list[dict]) -> list[np.ndarray]:
        """Job indices per replica set; a single job goes to the first set
        alone. Query cost is skewed — a hot-term query scans ~N rows while
        an identifier query scans a handful — so balance by estimated cost
        (total df of the job's terms = rows scanned), heaviest-first to the
        least-loaded set (LPT). Which
        replica scores a query never changes the result, only the wall
        balance."""
        n_sets = len(self.actor_sets)
        if n_sets == 1 or len(jobs) == 1:
            return [np.arange(len(jobs))]
        costs = [sum(self._df_of(j["terms"])) for j in jobs]
        loads = [0] * n_sets
        chunks: list[list[int]] = [[] for _ in range(n_sets)]
        for i in sorted(range(len(jobs)), key=lambda i: (-costs[i], i)):
            s = loads.index(min(loads))
            chunks[s].append(i)
            loads[s] += costs[i]
        return [np.array(c, dtype=np.int64) for c in chunks]

    def _scatter(self, method: str, jobs: list[dict]) -> tuple[np.ndarray, list]:
        """Send each replica set its share of ``jobs`` (``_split``): one
        ``method`` call per actor of the set, tombstones shipped once per
        call — so a single job costs one call on a full-replica layout and
        ``min(n, n_shards)`` calls on a packed one. Returns the actors'
        flat column tuples and, per concatenated row, the index of its job
        in ``jobs`` (the first column of every part)."""
        if not self.actor_sets:
            raise RuntimeError("SearchEngine is closed")
        futs, owners = [], []
        for ix, st in zip(self._split(jobs), self.actor_sets):
            if not ix.size:
                continue
            sub = [jobs[i] for i in ix]
            for a in st:
                futs.append(getattr(a, method).remote(sub, self._tomb_ids))
                owners.append(ix)
        parts = ray.get(futs)
        job = [ix[p[0]] for ix, p in zip(owners, parts)]
        return np.concatenate(job) if job else np.empty(0, dtype=np.int64), parts

    def _gather(self, jobs: list[dict]) -> tuple[pa.Table, np.ndarray]:
        """Scatter every job to every shard once, then ONE vectorized merge
        of all candidates: per-job threshold on the rounded score (keeps >=,
        the reference's `not <` form) -> total order (job, rscore DESC,
        doc_id ASC) -> each job's own limit -> rank; mirrors
        services/search.py:171-215. Returns the RESULT_SCHEMA table, query
        blocks in ``jobs`` order, and each job's row count."""
        if not jobs:
            return RESULT_SCHEMA.empty_table(), np.zeros(0, dtype=np.int64)
        job, parts = self._scatter("search", jobs)
        doc_id, score, rscore = (np.concatenate([p[c] for p in parts]) for c in (1, 2, 3))
        thr = np.array([-np.inf if j["threshold"] is None else j["threshold"] for j in jobs])
        keep = np.flatnonzero(rscore >= thr[job])
        order = keep[np.lexsort((doc_id[keep], -rscore[keep], job[keep]))]
        js = job[order]
        rank = np.arange(js.size) - np.searchsorted(js, js) + 1  # 1 at each job's start
        sel = rank <= np.array([j["limit"] for j in jobs])[js]
        order, js, rank = order[sel], js[sel], rank[sel]
        pick = order.tolist()

        def strings(c: int) -> list:  # the kept rows of string column c
            col = [v for p in parts for v in p[c]]
            return [col[i] for i in pick]

        qids = np.array([j["query_id"] for j in jobs], dtype=np.int64)
        out = pa.table(
            {
                "query_id": qids[js],
                "rank": rank.astype(np.int32),
                "doc_id": doc_id[order],
                "path": strings(5),
                "repo": strings(4),
                "lang": strings(6),
                "score": rscore[order],
                "exact_score": score[order],
            },
            schema=RESULT_SCHEMA,
        )
        return out, np.bincount(js, minlength=len(jobs))

    # ------------------------------------------------------------------
    # query log / history (reference Query + SearchRecord tables,
    # smse_backend/models/query.py, models/search_record.py; history API
    # routes/search.py:242-316)
    # ------------------------------------------------------------------

    def _load_next_query_id(self) -> int:
        if not self.ifs.list_files("querylog"):
            return 1
        t = self.ifs.pads_dataset("querylog").to_table(columns=["query_id"])
        return (pa.compute.max(t["query_id"]).as_py() or 0) + 1

    # optional deterministic clock for the query log: a callable qid -> epoch
    # seconds (float). None (default) = wall clock. The driver-gate history
    # entry injects a frozen function so history output is reproducible and
    # SQL-oracle-comparable; production callers leave it unset.
    log_ts_fn = None

    def _log_query(self, qid, parts, scope, limit, result: pa.Table) -> None:
        ts = self.log_ts_fn(qid) if self.log_ts_fn is not None else time.time()
        self.ifs.mkdirs("querylog")
        self.ifs.mkdirs("search_records")
        self.ifs.write_table(
            pa.table(
                {
                    "query_id": pa.array([qid], type=pa.int64()),
                    "text": pa.array([" | ".join(parts)], type=pa.string()),
                    "n_parts": pa.array([len(parts)], type=pa.int32()),
                    "scope": pa.array([scope], type=pa.string()),
                    "limit": pa.array([limit], type=pa.int32()),
                    "timestamp": pa.array([ts], type=pa.float64()),
                    "n_results": pa.array([result.num_rows], type=pa.int32()),
                }
            ),
            f"querylog/q_{qid:012d}.parquet",
        )
        rec = result.select(["query_id", "rank", "doc_id", "score"]).append_column(
            "retrieved_at", pa.array([ts] * result.num_rows, type=pa.float64())
        )
        self.ifs.write_table(rec, f"search_records/q_{qid:012d}.parquet")

    def history(self, limit: int = 10, offset: int = 0) -> dict:
        """Timestamp-descending query history with pagination echo
        (routes/search.py:242-283 incl. total/has_more)."""
        if not self.ifs.list_files("querylog"):
            return {"queries": [], "total": 0, "limit": limit, "offset": offset, "has_more": False}
        t = self.ifs.pads_dataset("querylog").to_table()
        idx = pa.compute.sort_indices(
            t, sort_keys=[("timestamp", "descending"), ("query_id", "descending")]
        )
        total = t.num_rows
        page = t.take(idx).slice(offset, limit)
        # strftime-formatted timestamp per row (reference formats history
        # timestamps with "%Y-%m-%d %H:%M:%S", smse_backend/routes/user.py:24)
        import datetime as _dt

        rows = page.to_pylist()
        for r in rows:
            r["timestamp_str"] = _dt.datetime.fromtimestamp(
                r["timestamp"], tz=_dt.timezone.utc
            ).strftime("%Y-%m-%d %H:%M:%S")
        return {
            "queries": rows,
            "total": total,
            "limit": limit,
            "offset": offset,
            "has_more": offset + limit < total,
        }

    def get_results(self, query_id: int) -> pa.Table:
        """Replay stored search records (routes/search.py:286-316)."""
        rel = f"search_records/q_{query_id:012d}.parquet"
        if not self.ifs.exists(rel):
            raise KeyError(f"query {query_id} not found")
        return self.ifs.read_table(rel)

    def delete_query(self, query_id: int) -> None:
        """Cascade delete of a stored query + its records
        (routes/search.py:319-331; FK CASCADE analog)."""
        for sub in ("querylog", "search_records"):
            rel = f"{sub}/q_{query_id:012d}.parquet"
            if self.ifs.exists(rel):
                self.ifs.delete_file(rel)
