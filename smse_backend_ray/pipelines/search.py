"""Query engine: scatter/gather over shard-scorer actors + reference search
semantics (SURVEY.md §3.2 re-expression of smse_backend/services/search.py
and routes/search.py).

Query path: analyze parts with the SAME analyzer as ingest (symmetry,
tasks.py:219 vs :250) -> multiset-union fusion (A1) -> idf from the global df
table (filter-pushdown read of only the query's terms) -> scatter to the
shard actor pool (per-shard top-k, T1) -> gather -> threshold filter (M9,
keeps score >= t) -> optional default-OFF normalization (M7/M8; reference
disables at services/search.py:193) -> global (rounded score DESC, doc_id
ASC) sort + limit (T2) -> result projection/enrichment (M10/M11/J1) ->
query-log + search-record append (query history, T3).
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads

import ray

from smse_backend_ray.config import (
    DEFAULT_TOP_K,
    SCORE_DECIMALS,
    SHARD_CANDIDATE_K,
    BM25Params,
)
from smse_backend_ray.functions.bm25 import idf as idf_fn
from smse_backend_ray.functions.fusion import fuse_parts
from smse_backend_ray.functions.normalize import NORMALIZERS
from smse_backend_ray.stages.scorer import ShardSearcher
from smse_backend_ray.state.catalog import Catalog
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


class SearchEngine:
    """Serving handle over a built index. Creates one actor per shard group;
    state (decoded segments, doc meta) loads once per actor (ST1 analog)."""

    def __init__(self, index_dir, num_actors: int | None = None):
        self.index_dir = index_dir
        self.cat = Catalog(index_dir)
        self.ifs: IndexFS = self.cat.ifs
        # recover a doc store parked at docs.bak by a compaction that died
        # mid-swap (before any shard actor tries to read docs/)
        self.ifs.restore_swap_backup("docs")
        cfg = self.cat.get_config()
        stats = self.cat.get_stats()
        self.n_docs = stats["n_docs"]
        self.avgdl = stats["avgdl"]
        self.n_shards = cfg["n_shards"]
        self.params = BM25Params(**cfg["bm25"])
        # Actor layout: num_actors <= n_shards packs shards into fewer
        # actors; num_actors > n_shards spawns FULL REPLICA SETS (each set
        # covers every shard) and search_batch round-robins query sub-batches
        # across sets — the serve-path throughput scale-out (on a cluster,
        # sets land on different nodes; qps scales with sets until CPUs run
        # out, at the cost of one copy of shard state per set). Results are
        # identical regardless of layout: every query is scored on every
        # shard exactly once.
        n = num_actors or self.n_shards
        n_sets = max(1, n // self.n_shards)
        per_set = min(n, self.n_shards)
        mk = lambda g: ShardSearcher.remote(  # noqa: E731
            self.ifs,
            g,
            self.avgdl,
            {"k1": self.params.k1, "b": self.params.b},
            cfg.get("block_size", 128),
        )
        groups: list[list[int]] = [[] for _ in range(per_set)]
        for s in range(self.n_shards):
            groups[s % per_set].append(s)
        self.actor_sets = [[mk(g) for g in groups] for _ in range(n_sets)]
        self.actors = self.actor_sets[0]
        ray.get([a.ping.remote() for st in self.actor_sets for a in st])
        self._df_ds = self.ifs.pads_dataset("df")
        self._df_cache: dict[str, int] = {}  # term -> df (0 = known absent)
        self._tombstones = self._load_tombstones()
        self._next_query_id = self._load_next_query_id()

    # ------------------------------------------------------------------
    def close(self) -> None:
        for st in self.actor_sets:
            for a in st:
                ray.kill(a)
        self.actor_sets = []
        self.actors = []

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

    def delete_doc(self, doc_id: int) -> None:
        """Remove a doc from all future results (persisted; atomic write)."""
        self._tombstones.add(int(doc_id))
        self.ifs.write_json_atomic(self.TOMBSTONES, sorted(self._tombstones))

    # ------------------------------------------------------------------
    def idf_weights(self, qtf: dict[str, int]) -> tuple[list[str], list[float]]:
        """Sorted terms + qtf*idf weights; df via filter-pushdown read of the
        term-sorted df table (only the query's terms leave storage)."""
        terms = sorted(qtf)
        missing = [t for t in terms if t not in self._df_cache]
        if missing:
            tbl = self._df_ds.to_table(
                columns=["term", "df"], filter=pads.field("term").isin(missing)
            )
            found = dict(zip(tbl["term"].to_pylist(), tbl["df"].to_pylist()))
            for t in missing:
                self._df_cache[t] = int(found.get(t, 0))
        out_t, out_w = [], []
        for t in terms:
            d = self._df_cache[t]
            if d:
                out_t.append(t)
                out_w.append(qtf[t] * idf_fn(self.n_docs, d))
        return out_t, out_w

    # ------------------------------------------------------------------
    def _job_for(
        self, qid: int, parts: list[str], scope: str, limit: int, mode: str,
        slop: int | None = None, exclude: tuple = (),
    ) -> dict | None:
        """Build one scatter job, or None when the query provably has no
        results (no kept terms; or AND/phrase mode with a kept term whose
        corpus df is 0 — no doc can contain every term, so skip the
        scatter entirely). Frozen semantics mirrored by oracle.py
        (oracle_conj_search/oracle_phrase_search) and sqlgen
        (bm25_conj_topk_sql/phrase_topk_sql)."""
        # validate BEFORE any provably-empty early return, so an invalid
        # request errors loudly instead of silently returning no rows
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
        job = {
            "query_id": qid,
            "terms": terms,
            "weights": weights,
            "scope": scope,
            "k": max(limit, SHARD_CANDIDATE_K),
            "tombstones": sorted(self._tombstones),
        }
        if mode == "and":
            job["mode"] = "and"
        elif mode == "phrase":
            from smse_backend_ray.functions.analyzer import tokenize

            job["phrase"] = tokenize(parts[0])
        elif mode == "near":
            from smse_backend_ray.config import NEAR_DEFAULT_SLOP

            s = NEAR_DEFAULT_SLOP if slop is None else int(slop)
            if s < 0:
                raise ValueError("slop must be >= 0")
            job["mode"] = "near"
            job["slop"] = s
        if exclude:
            from smse_backend_ray.functions.analyzer import tokenize

            ex_terms = sorted({t for p in exclude for t in tokenize(p)})
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
        if isinstance(parts, str):
            parts = [parts]
        qid = query_id if query_id is not None else self._next_query_id
        job = self._job_for(qid, parts, scope, limit, mode, slop, exclude)
        if job is not None:
            cands = pa.concat_tables(
                ray.get([a.search.remote([job]) for a in self.actors])
            )
            result = self._merge(cands, qid, limit, threshold, normalize)
        else:
            result = RESULT_SCHEMA.empty_table()
        if log:
            self._log_query(qid, parts, scope, limit, result)
            self._next_query_id = max(self._next_query_id, qid) + 1
        return result

    def search_batch(self, queries, log: bool = False) -> pa.Table:
        """Batch path for a list of queryset.QuerySpec; one scatter/gather."""
        jobs, metas = [], {}
        for qs in queries:
            metas[qs.query_id] = qs
            job = self._job_for(
                qs.query_id, list(qs.parts), qs.scope, qs.limit,
                getattr(qs, "mode", "or"), getattr(qs, "slop", None),
                getattr(qs, "exclude", ()),
            )
            if job is not None:
                jobs.append(job)
        results = [RESULT_SCHEMA.empty_table()]
        if jobs:
            # split the query batch across replica sets (one scatter/gather;
            # each set scores its sub-batch on every shard). Query cost is
            # skewed — a hot-term query scans ~N rows while an identifier
            # query scans a handful — so balance by estimated cost (total df
            # of the job's terms = rows scanned), heaviest-first to the
            # least-loaded set (LPT). Which replica scores a query never
            # changes the result, only the wall balance.
            sets = self.actor_sets
            if len(sets) > 1 and len(jobs) > 1:
                costs = [
                    sum(self._df_cache.get(t, 0) for t in j["terms"]) for j in jobs
                ]
                order = sorted(range(len(jobs)), key=lambda i: (-costs[i], i))
                loads = [0] * len(sets)
                chunks: list[list[dict]] = [[] for _ in sets]
                for i in order:
                    s = loads.index(min(loads))
                    chunks[s].append(jobs[i])
                    loads[s] += costs[i]
            else:
                chunks = [jobs]
            futs = [
                a.search.remote(chunk)
                for chunk, st in zip(chunks, sets)
                if chunk
                for a in st
            ]
            cands = pa.concat_tables(ray.get(futs))
            for qid, qs in metas.items():
                sub = cands.filter(pa.compute.equal(cands["query_id"], qid))
                results.append(
                    self._merge(sub, qid, qs.limit, qs.threshold, "none")
                )
        out = pa.concat_tables(results)
        if log:
            for qid, qs in metas.items():
                sub = out.filter(pa.compute.equal(out["query_id"], qid))
                self._log_query(qid, list(qs.parts), qs.scope, qs.limit, sub)
            if metas:
                # keep the auto-id counter ahead of explicit batch ids so a
                # later search(log=True) can't reuse (and overwrite) a
                # just-logged query's log/record files
                self._next_query_id = max(self._next_query_id, max(metas) + 1)
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
        self.idf_weights(qtf)  # warm df cache
        doc_ids = sorted({int(d) for d in doc_ids})
        t = self.ifs.pads_dataset("docs").to_table(
            columns=["doc_id", "terms", "tfs", "dl"],
            filter=pads.field("doc_id").isin(doc_ids),
        )
        out = {k: [] for k in ("doc_id", "term", "qtf", "df", "tf", "dl", "contrib")}
        for r in sorted(t.to_pylist(), key=lambda r: r["doc_id"]):
            tfs = dict(zip(r["terms"], r["tfs"]))
            for term in sorted(qtf):
                tf = tfs.get(term)
                d = self._df_cache.get(term, 0)
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
        ONLY the [prefix, prefix+1) key range of the term-sorted df table
        (filter pushdown). Frozen pair: sqlgen.prefix_topk_sql."""
        from smse_backend_ray.config import PREFIX_MAX_EXPANSIONS

        cap = PREFIX_MAX_EXPANSIONS if cap is None else cap
        p = prefix.lower()
        if not p:
            raise ValueError("empty prefix")
        hi = p[:-1] + chr(ord(p[-1]) + 1)  # analyzer terms are ASCII
        tbl = self._df_ds.to_table(
            columns=["term", "df"],
            filter=(pads.field("term") >= p) & (pads.field("term") < hi),
        )
        pairs = sorted(zip(tbl["term"].to_pylist(), tbl["df"].to_pylist()))[:cap]
        if not pairs:
            return RESULT_SCHEMA.empty_table()
        terms = [t for t, _ in pairs]
        weights = [idf_fn(self.n_docs, d) for _, d in pairs]
        job = {
            "query_id": query_id,
            "terms": terms,
            "weights": weights,
            "scope": scope,
            "k": max(limit, SHARD_CANDIDATE_K),
            "tombstones": sorted(self._tombstones),
        }
        cands = pa.concat_tables(
            ray.get([a.search.remote([job]) for a in self.actors])
        )
        return self._merge(cands, query_id, limit, threshold, "none")

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
        t = self.ifs.pads_dataset("docs").to_table(
            columns=["doc_id", "terms", "tfs"],
            filter=pads.field("doc_id").isin(src_doc_ids),
        )
        rows = {r["doc_id"]: r for r in t.to_pylist()}
        for sid in src_doc_ids:
            if sid not in rows:
                raise KeyError(f"doc {sid} not found in the index")
        # warm the df cache for EVERY source's terms in ONE pushdown read
        self.idf_weights({term: 1 for r in rows.values() for term in r["terms"]})
        jobs = []
        for sid in src_doc_ids:
            r = rows[sid]
            ranked = sorted(
                (-(tf * idf_fn(self.n_docs, self._df_cache[term])), term)
                for term, tf in zip(r["terms"], r["tfs"])
                if self._df_cache.get(term)
            )
            sel = sorted(term for _, term in ranked[:m])
            if not sel:
                continue
            jobs.append(
                {
                    "query_id": sid,
                    "terms": sel,
                    "weights": [
                        idf_fn(self.n_docs, self._df_cache[term]) for term in sel
                    ],
                    "scope": "",
                    "k": max(limit, SHARD_CANDIDATE_K),
                    "tombstones": sorted(self._tombstones | {sid}),
                }
            )
        if not jobs:
            return self.MLT_SCHEMA.empty_table()
        cands = pa.concat_tables(
            ray.get([a.search.remote(jobs) for a in self.actors])
        )
        results = []
        for job in jobs:
            sub = cands.filter(pa.compute.equal(cands["query_id"], job["query_id"]))
            results.append(self._merge(sub, job["query_id"], limit, None, "none"))
        out = pa.concat_tables(results)
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
        ds = self.ifs.pads_dataset("docs")
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
        search_batch, WITHOUT top-k truncation. Per-shard partial counts sum
        exactly (each doc lives in one shard). Frozen pair:
        sqlgen.facets_sql."""
        jobs = []
        for qs in queries:
            job = self._job_for(
                qs.query_id, list(qs.parts), qs.scope, qs.limit,
                getattr(qs, "mode", "or"), getattr(qs, "slop", None),
                getattr(qs, "exclude", ()),
            )
            if job is not None:
                job["threshold"] = qs.threshold
                jobs.append(job)
        if not jobs:
            return self.FACET_SCHEMA.empty_table()
        parts = pa.concat_tables(
            ray.get([a.facets.remote(jobs) for a in self.actors])
        )
        if parts.num_rows == 0:
            return self.FACET_SCHEMA.empty_table()
        g = parts.group_by(["query_id", "facet", "value"]).aggregate(
            [("n_docs", "sum")]
        )
        out = pa.table(
            {
                "query_id": g["query_id"],
                "facet": g["facet"],
                "value": g["value"],
                "n_docs": pa.compute.cast(g["n_docs_sum"], pa.int64()),
            },
            schema=self.FACET_SCHEMA,
        )
        # keep the FACET_MAX_VALUES largest values per (query, facet) by
        # (n_docs DESC, value ASC) — bounds the result when a facet has
        # huge cardinality (millions of repos at corpus scale)
        from smse_backend_ray.config import FACET_MAX_VALUES

        order = pa.compute.sort_indices(
            out,
            sort_keys=[
                ("query_id", "ascending"),
                ("facet", "ascending"),
                ("n_docs", "descending"),
                ("value", "ascending"),
            ],
        )
        out = out.take(order)
        if out.num_rows:
            qa = out["query_id"].to_numpy()
            fa = np.asarray(out["facet"].to_pylist(), dtype=object)
            new = np.empty(len(qa), dtype=bool)
            new[0] = True
            new[1:] = (qa[1:] != qa[:-1]) | (fa[1:] != fa[:-1])
            gid = np.cumsum(new) - 1
            starts = np.flatnonzero(new)
            pos = np.arange(len(qa)) - starts[gid]
            out = out.filter(pa.array(pos < FACET_MAX_VALUES))
        return out.take(
            pa.compute.sort_indices(
                out,
                sort_keys=[
                    ("query_id", "ascending"),
                    ("facet", "ascending"),
                    ("value", "ascending"),
                ],
            )
        )

    # ------------------------------------------------------------------
    def _merge(
        self,
        cands: pa.Table,
        qid: int,
        limit: int,
        threshold: float | None,
        normalize: str,
    ) -> pa.Table:
        """Global merge: threshold -> total order (rscore DESC, doc_id ASC)
        -> limit -> rank; mirrors services/search.py:171-215 ordering of
        operations."""
        doc_id = cands["doc_id"].to_numpy()
        score = cands["score"].to_numpy()
        rscore = cands["rscore"].to_numpy()
        if threshold is not None:
            m = rscore >= threshold  # keeps >=, the reference's `not <` form
            doc_id, score, rscore = doc_id[m], score[m], rscore[m]
            cands = cands.filter(pa.array(m))
        order = np.lexsort((doc_id, -rscore))[:limit]
        n = len(order)
        out_score = rscore[order]
        norm = NORMALIZERS[normalize]
        if norm is not None and n:
            out_score = norm(out_score)
        return pa.table(
            {
                "query_id": pa.array([qid] * n, type=pa.int64()),
                "rank": pa.array(np.arange(1, n + 1, dtype=np.int32)),
                "doc_id": pa.array(doc_id[order], type=pa.int64()),
                "path": cands["path"].take(pa.array(order)),
                "repo": cands["repo"].take(pa.array(order)),
                "lang": cands["lang"].take(pa.array(order)),
                "score": pa.array(out_score, type=pa.float64()),
                "exact_score": pa.array(score[order], type=pa.float64()),
            },
            schema=RESULT_SCHEMA,
        )

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
