"""Bulk (offline) search as a pure Ray Data pipeline.

The serving path (pipelines/search.py) holds decoded shards in an actor pool
— right for interactive top-k. For OFFLINE workloads (score a million mined
queries against the index once), the better shape is to stream the INDEX:

  read segments parquet, predicate-pushdown ``term IN (all query terms)``
  -> map_batches decode + per-term (doc_ids, tf-norm) arrays, fanned out to
     QUERY BUCKETS (not queries)
  -> groupby(query_bucket).map_groups: per query in the bucket, term-ordered
     exact accumulation + top-k

Hot-term fanout is BOUNDED: queries are hashed into ``n_qbuckets`` reduce
buckets and a term's decoded posting arrays ship once per bucket that needs
the term — a term shared by a million queries duplicates min(n_qbuckets,
n_queries) times in the shuffle, not a million. Only the posting lists of
queried terms leave storage (each shard's segment file is one term-sorted
table, so row-group pruning works), nothing is pinned in memory.

Scores are bitwise-identical to the oracle/serving path: each per-query
accumulation walks its terms ascending, and the several shard-rows of one
term carry disjoint doc sets, so row order within a term cannot change any
sum (see stages/scorer._accumulate).

Scope filtering and metadata enrichment are not part of this path (bulk
output is (query_id, rank, doc_id, score); join doc meta downstream if
needed). Query modes: "or" (default) and "and" (conjunctive), plus
boolean-NOT exclusion terms — the excluded/required sets derive from the
same bucket-shipped posting rows, so modes cost no extra shuffle. Phrase
and near need positional decode and stay serving-path features.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from smse_backend_ray.config import DEFAULT_TOP_K, SCORE_DECIMALS, BM25Params
from smse_backend_ray.functions.bm25 import idf as idf_fn
from smse_backend_ray.functions.bm25 import tfnorm_vec
from smse_backend_ray.functions.codec import decode_postings
from smse_backend_ray.functions.collect import collect_table
from smse_backend_ray.functions.fusion import fuse_parts
from smse_backend_ray.functions.rounding import round_half_away
from smse_backend_ray.state.catalog import Catalog

RESULT_SCHEMA = pa.schema(
    [
        ("query_id", pa.int64()),
        ("rank", pa.int32()),
        ("doc_id", pa.int64()),
        ("score", pa.float64()),
        ("exact_score", pa.float64()),
    ]
)

N_QUERY_BUCKETS = 64


def bulk_search(
    index_dir,
    queries,
    limit: int = DEFAULT_TOP_K,
    n_qbuckets: int = N_QUERY_BUCKETS,
    out_dir: str | None = None,
) -> pa.Table:
    """``queries``: sequence of queryset.QuerySpec (parts + limit are used;
    scope/threshold are serving-path features). Returns RESULT_SCHEMA rows
    sorted by (query_id, rank).

    ``out_dir``: when set, results are WRITTEN as qbucket-partitioned
    parquet (one directory per query bucket — the resumable-output shape:
    a re-run can skip finished buckets) instead of being collected; the
    return value is then a small per-bucket manifest (qbucket, n_rows).
    At 10^6-query offline batches the result set is itself fact-scale and
    must never funnel through the driver."""
    cat = Catalog(index_dir)
    ifs = cat.ifs
    stats = cat.get_stats()
    cfg = cat.get_config()
    n_docs = stats["n_docs"]
    avgdl = stats["avgdl"]
    block_size = cfg["block_size"]
    params = BM25Params(**cfg["bm25"])

    # driver-side query analysis (tiny): per-query term weights + the
    # term -> query-bucket fanout map
    import pyarrow.dataset as pads

    df_ds = ifs.pads_dataset("df")
    term_buckets: dict[str, set[int]] = {}
    # qbucket -> {query_id: (limit, [(term, weight)...], mode, exclude_terms)}
    plans: dict[int, dict[int, tuple]] = {}
    from smse_backend_ray.functions.analyzer import tokenize

    for qs in queries:
        mode = getattr(qs, "mode", "or")
        if mode not in ("or", "and"):
            raise ValueError(
                "bulk_search supports or/and modes (phrase/near need the "
                "positional serving path)"
            )
        qtf, _ = fuse_parts(list(qs.parts))
        terms = sorted(qtf)
        ex_all = sorted(
            {t for p in getattr(qs, "exclude", ()) for t in tokenize(p)}
        )
        tbl = df_ds.to_table(
            columns=["term", "df"],
            filter=pads.field("term").isin(terms + ex_all),
        )
        dfm = dict(zip(tbl["term"].to_pylist(), tbl["df"].to_pylist()))
        tw = [(t, qtf[t] * idf_fn(n_docs, dfm[t])) for t in terms if dfm.get(t)]
        if not tw:
            continue
        if mode == "and" and len(tw) < len(qtf):
            continue  # a kept term has df=0 -> provably empty (serving twin)
        ex_terms = [t for t in ex_all if dfm.get(t)]
        qb = zlib.crc32(str(qs.query_id).encode()) % n_qbuckets
        plans.setdefault(qb, {})[qs.query_id] = (
            getattr(qs, "limit", limit) or limit,
            tw,
            mode,
            ex_terms,
        )
        for t in [t for t, _w in tw] + ex_terms:
            term_buckets.setdefault(t, set()).add(qb)
    if not term_buckets:
        if out_dir is not None:
            return pa.schema(
                [("qbucket", pa.int64()), ("n_rows", pa.int64())]
            ).empty_table()
        return RESULT_SCHEMA.empty_table()

    needed = sorted(term_buckets)
    fanout_ref = ray.put(
        ({t: sorted(b) for t, b in term_buckets.items()}, avgdl, block_size, params)
    )
    plans_ref = ray.put(plans)

    seg = ifs.ray_read_parquet(
        "segments",
        # prune at the read: the bulk path needs only the three byte streams
        # (block metadata / positional payloads never leave storage here)
        columns=["term", "docs_bytes", "tfs_bytes", "dls_bytes"],
        filter=pc.field("term").isin(needed),  # row-group pushdown
    )

    def contribs(batch: pa.Table) -> pa.Table:
        """One decoded (doc_ids, tfnorm) row per segment row PER QUERY BUCKET
        needing the term — the decode happens once; shuffle duplication is
        bounded by the bucket count, never the query count. Posting arrays
        stay numpy end-to-end: output list columns are built from ONE
        concatenated value buffer + offsets (never per-element tolist)."""
        tb, a_avgdl, a_bs, a_params = ray.get(fanout_ref)
        qbs: list[int] = []
        terms_out: list[str] = []
        id_parts: list[np.ndarray] = []
        tfn_parts: list[np.ndarray] = []
        for row in batch.to_pylist():
            buckets = tb.get(row["term"])
            if not buckets:
                continue
            ids, tfs, dls = decode_postings(row, a_bs)
            tfn = tfnorm_vec(tfs, dls, a_avgdl, a_params)
            for qb in buckets:
                qbs.append(qb)
                terms_out.append(row["term"])
                id_parts.append(ids)
                tfn_parts.append(tfn)
        n = len(qbs)
        lens = np.fromiter((p.size for p in id_parts), dtype=np.int64, count=n)
        offs = pa.array(
            np.concatenate(([0], np.cumsum(lens))).astype(np.int32), type=pa.int32()
        )
        flat_ids = (
            np.concatenate(id_parts) if n else np.empty(0, dtype=np.int64)
        )
        flat_tfn = (
            np.concatenate(tfn_parts) if n else np.empty(0, dtype=np.float64)
        )
        return pa.table(
            {
                "qbucket": pa.array(qbs, type=pa.int32()),
                "term": pa.array(terms_out, type=pa.string()),
                "doc_ids": pa.ListArray.from_arrays(
                    offs, pa.array(flat_ids, type=pa.int64())
                ),
                "tfn": pa.ListArray.from_arrays(
                    offs, pa.array(flat_tfn, type=pa.float64())
                ),
            }
        )

    def bucket_topk(g: pa.Table) -> pa.Table:
        """All queries of one bucket, scored from the bucket's term rows;
        per query: terms ascending, shard-rows of one term disjoint."""
        qb = g["qbucket"][0].as_py()
        qplans = ray.get(plans_ref)[qb]
        by_term: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        doc_col = g["doc_ids"].combine_chunks()
        flat_ids = np.asarray(doc_col.values, dtype=np.int64)
        offs = np.asarray(doc_col.offsets, dtype=np.int64)
        flat_tfn = np.asarray(g["tfn"].combine_chunks().values, dtype=np.float64)
        for i, t in enumerate(g["term"].to_pylist()):
            by_term.setdefault(t, []).append(
                (flat_ids[offs[i] : offs[i + 1]], flat_tfn[offs[i] : offs[i + 1]])
            )
        out = {"query_id": [], "rank": [], "doc_id": [], "score": [], "exact_score": []}
        for qid in sorted(qplans):
            k, tw, mode, ex_terms = qplans[qid]
            cand = None
            if mode == "and":
                # doc must carry EVERY query term (shard rows of one term
                # are disjoint -> the union per term, then intersect)
                for t, _w in tw:
                    parts = [ids for ids, _ in by_term.get(t, ())]
                    ids_t = (
                        np.unique(np.concatenate(parts))
                        if parts
                        else np.empty(0, dtype=np.int64)
                    )
                    cand = (
                        ids_t
                        if cand is None
                        else np.intersect1d(cand, ids_t, assume_unique=True)
                    )
                    if cand.size == 0:
                        break
                if cand is None or cand.size == 0:
                    continue
            id_parts, c_parts = [], []
            for t, w in tw:  # already term-ascending
                for ids, tfn in by_term.get(t, ()):
                    if cand is not None:
                        m = np.isin(ids, cand, assume_unique=True)
                        ids, tfn = ids[m], tfn[m]
                    id_parts.append(ids)
                    c_parts.append(w * tfn)
            if not id_parts:
                continue
            uniq = np.unique(np.concatenate(id_parts))
            scores = np.zeros(uniq.size, dtype=np.float64)
            for ids, contrib in zip(id_parts, c_parts):
                scores[np.searchsorted(uniq, ids)] += contrib
            if ex_terms:
                bad_parts = [
                    ids for t in ex_terms for ids, _ in by_term.get(t, ())
                ]
                if bad_parts:
                    bad = np.unique(np.concatenate(bad_parts))
                    keep = ~np.isin(uniq, bad)
                    uniq, scores = uniq[keep], scores[keep]
            if uniq.size == 0:
                continue
            rscore = round_half_away(scores, SCORE_DECIMALS)
            top = np.lexsort((uniq, -rscore))[:k]
            n = len(top)
            out["query_id"].extend([qid] * n)
            out["rank"].extend(range(1, n + 1))
            out["doc_id"].extend(uniq[top].tolist())
            out["score"].extend(rscore[top].tolist())
            out["exact_score"].extend(scores[top].tolist())
        n_out = len(out["query_id"])
        return pa.table(
            {
                "query_id": pa.array(out["query_id"], type=pa.int64()),
                "rank": pa.array(out["rank"], type=pa.int32()),
                "doc_id": pa.array(out["doc_id"], type=pa.int64()),
                "score": pa.array(out["score"], type=pa.float64()),
                "exact_score": pa.array(out["exact_score"], type=pa.float64()),
                "qbucket": pa.array([qb] * n_out, type=pa.int64()),
            }
        )

    results = (
        seg.map_batches(contribs, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("qbucket")
        .map_groups(bucket_topk, batch_format="pyarrow")
    )
    if out_dir is not None:
        results.write_parquet(out_dir, partition_cols=["qbucket"])
        import pyarrow.dataset as pads_mod

        frags = pads_mod.dataset(out_dir, partitioning="hive").to_table(
            columns=["qbucket"]
        )
        g = frags.group_by("qbucket").aggregate([([], "count_all")])
        m = pa.table(
            {
                "qbucket": pc.cast(g["qbucket"], pa.int64()),
                "n_rows": pc.cast(g["count_all"], pa.int64()),
            }
        )
        return m.take(pc.sort_indices(m["qbucket"]))
    t = collect_table(
        results, empty_schema=RESULT_SCHEMA.append(pa.field("qbucket", pa.int64()))
    )
    t = t.drop_columns(["qbucket"])
    return t.take(
        pc.sort_indices(
            t, sort_keys=[("query_id", "ascending"), ("rank", "ascending")]
        )
    )
