"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module; nothing
here (or in the library) calls ``ray.init``/``ray.shutdown``.

Each ``queries()`` entry pairs a Ray Data pipeline from smse_backend_ray with
its DuckDB twin in ``oracle_sql()`` (generated from the same frozen constants
in smse_backend_ray.config / functions.sqlgen). The corpus for the BM25
engine entries is derived deterministically from the driver's ``documents``
table (sources/corpus.py == sqlgen.CORPUS_CTE), matching the BASELINE.json
input_hint shape (repo, path, commit, lang, content).
"""

from __future__ import annotations

import os
import shutil
from collections.abc import Callable
from typing import Any

_INDEX_CACHE: dict[str, str] = {}


def _index_for(sf_dir: str) -> str:
    """Build (once per process per sf_dir) the full index for the derived
    corpus; returns the index directory."""
    if sf_dir in _INDEX_CACHE:
        return _INDEX_CACHE[sf_dir]
    from smse_backend_ray.config import EngineConfig
    from smse_backend_ray.pipelines.build import build_index
    from smse_backend_ray.sources.corpus import corpus_from_documents

    idx_dir = f"/tmp/smse_entry_index_{os.getpid()}_{os.path.basename(os.path.normpath(sf_dir))}"
    shutil.rmtree(idx_dir, ignore_errors=True)
    build_index(
        corpus=corpus_from_documents(sf_dir),
        index_dir=idx_dir,
        cfg=EngineConfig(n_shards=8),
    )
    _INDEX_CACHE[sf_dir] = idx_dir
    return idx_dir


_INCR_INDEX_CACHE: dict[str, str] = {}


def _incr_index_for(sf_dir: str) -> str:
    """Index built in TWO generations — base build over the even corpus rows
    + ``append_index`` of the odd rows — so the incremental-append path runs
    inside the driver gate. Its oracle is the SAME SQL as bm25_topk: an
    appended index is bitwise-equivalent to a full rebuild of the union
    corpus (pipelines/build.py append_index; tests/test_append.py)."""
    if sf_dir in _INCR_INDEX_CACHE:
        return _INCR_INDEX_CACHE[sf_dir]
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from smse_backend_ray.config import EngineConfig
    from smse_backend_ray.pipelines.build import append_index, build_index
    from smse_backend_ray.sources.corpus import corpus_table_from_documents

    t = corpus_table_from_documents(sf_dir)
    parity = pc.bit_wise_and(pa.array(range(len(t))), 1)
    idx_dir = (
        f"/tmp/smse_entry_incr_index_{os.getpid()}_"
        f"{os.path.basename(os.path.normpath(sf_dir))}"
    )
    shutil.rmtree(idx_dir, ignore_errors=True)
    build_index(
        corpus=ray.data.from_arrow(t.filter(pc.equal(parity, 0))),
        index_dir=idx_dir,
        cfg=EngineConfig(n_shards=8),
    )
    append_index(ray.data.from_arrow(t.filter(pc.equal(parity, 1))), idx_dir)
    _INCR_INDEX_CACHE[sf_dir] = idx_dir
    return idx_dir


_POS_INDEX_CACHE: dict[str, str] = {}


def _pos_index_for(sf_dir: str) -> str:
    """Index built WITH the positional column family (EngineConfig
    .with_positions) for the exact-phrase entry. Kept separate from the
    flagship index so the default build stays position-free (the opt-in
    costs segment bytes; BASELINE.md 'Positional postings')."""
    if sf_dir in _POS_INDEX_CACHE:
        return _POS_INDEX_CACHE[sf_dir]
    from smse_backend_ray.config import EngineConfig
    from smse_backend_ray.pipelines.build import build_index
    from smse_backend_ray.sources.corpus import corpus_from_documents

    idx_dir = (
        f"/tmp/smse_entry_pos_index_{os.getpid()}_"
        f"{os.path.basename(os.path.normpath(sf_dir))}"
    )
    shutil.rmtree(idx_dir, ignore_errors=True)
    build_index(
        corpus=corpus_from_documents(sf_dir),
        index_dir=idx_dir,
        cfg=EngineConfig(n_shards=8, with_positions=True),
    )
    _POS_INDEX_CACHE[sf_dir] = idx_dir
    return idx_dir


# deterministic tombstone set for the compaction entry: doc_id % 17 == 3
# (SQL twin: docs_where="doc_id % 17 != 3" — both sides share the literal)
_VACUUM_MOD, _VACUUM_RESIDUE = 17, 3
_COMPACT_INDEX_CACHE: dict[str, str] = {}


def _compacted_index_for(sf_dir: str) -> str:
    """Index that went through the full maintenance lifecycle inside the
    driver gate: full build -> tombstone every doc with
    doc_id % 17 == 3 (the DELETE /api/contents analog,
    smse_backend/routes/content.py) -> ``compact_index(vacuum=True)``.
    Compaction is bitwise-equal to a rebuild of the surviving corpus
    (tests/test_compact.py), so its oracle is bm25_topk SQL over the
    filtered docs CTE (stats/df re-derive from the survivors)."""
    if sf_dir in _COMPACT_INDEX_CACHE:
        return _COMPACT_INDEX_CACHE[sf_dir]
    from smse_backend_ray.config import EngineConfig
    from smse_backend_ray.pipelines.build import compact_index, build_index
    from smse_backend_ray.sources.corpus import corpus_from_documents
    from smse_backend_ray.state.catalog import Catalog

    idx_dir = (
        f"/tmp/smse_entry_compact_index_{os.getpid()}_"
        f"{os.path.basename(os.path.normpath(sf_dir))}"
    )
    shutil.rmtree(idx_dir, ignore_errors=True)
    build_index(
        corpus=corpus_from_documents(sf_dir),
        index_dir=idx_dir,
        cfg=EngineConfig(n_shards=8),
    )
    cat = Catalog(idx_dir)
    ids = cat.dataset("docs").to_table(columns=["doc_id"])["doc_id"].to_pylist()
    dead = sorted(d for d in ids if d % _VACUUM_MOD == _VACUUM_RESIDUE)
    cat.ifs.write_json_atomic("tombstones.json", dead)
    compact_index(idx_dir)
    _COMPACT_INDEX_CACHE[sf_dir] = idx_dir
    return idx_dir


def _search_result(sf_dir: str, queries, index_for=None) -> Any:
    import pyarrow as pa

    from smse_backend_ray.pipelines.search import SearchEngine

    idx = (index_for or _index_for)(sf_dir)
    with SearchEngine(idx) as eng:
        t = eng.search_batch(queries)
    # driver-comparable projection: rounded score, oracle column order
    t = t.select(["query_id", "rank", "doc_id", "path", "repo", "lang", "score"])
    order = pa.compute.sort_indices(
        t, sort_keys=[("query_id", "ascending"), ("rank", "ascending")]
    )
    return t.take(order)


# ---------------------------------------------------------------------------


def entry() -> Any:
    """Flagship pipeline on sf0.001: build the inverted index from the derived
    corpus and run the full frozen query set; returns the result table."""
    from smse_backend_ray.queryset import ALL_QUERIES

    return _search_result("/root/testdata/sf0.001", ALL_QUERIES).to_pandas()


# ---------------------------------------------------------------------------


def _q_ingest_docs(sf_dir: str) -> Any:
    from smse_backend_ray.state.catalog import Catalog

    idx = _index_for(sf_dir)
    t = Catalog(idx).dataset("docs").to_table(
        columns=["doc_id", "repo", "path", "commit", "lang", "content_sha256", "n_bytes", "dl"]
    )
    import pyarrow as pa

    return t.take(pa.compute.sort_indices(t["doc_id"]))


def _q_corpus_stats(sf_dir: str) -> Any:
    import pyarrow as pa

    from smse_backend_ray.state.catalog import Catalog

    idx = _index_for(sf_dir)
    s = Catalog(idx).get_stats()
    return pa.table(
        {
            "n_docs": pa.array([s["n_docs"]], type=pa.int64()),
            "sum_dl": pa.array([s["sum_dl"]], type=pa.int64()),
            "avgdl": pa.array([s["avgdl"]], type=pa.float64()),
        }
    )


def _q_term_df(sf_dir: str) -> Any:
    from smse_backend_ray.state.catalog import Catalog

    idx = _index_for(sf_dir)
    return Catalog(idx).dataset("df").to_table(columns=["term", "df"])


def _q_postings(sf_dir: str) -> Any:
    """Decode the compressed segments back to (term, doc_id, tf) triples —
    proves the SPIMI shuffle + codec are lossless end-to-end."""
    import pyarrow as pa

    from smse_backend_ray.functions.codec import decode_postings
    from smse_backend_ray.state.catalog import Catalog

    cat = Catalog(_index_for(sf_dir))
    block_size = cat.get_config()["block_size"]
    terms, dids, tfs = [], [], []
    for t in cat.ifs.read_tables(cat.files("segments")):
        for row in t.to_pylist():
            ids, tf, _ = decode_postings(row, block_size)
            terms.extend([row["term"]] * len(ids))
            dids.extend(ids.tolist())
            tfs.extend(tf.tolist())
    out = pa.table(
        {
            "term": pa.array(terms, type=pa.string()),
            "doc_id": pa.array(dids, type=pa.int64()),
            "tf": pa.array(tfs, type=pa.int64()),
        }
    )
    return out.take(
        pa.compute.sort_indices(
            out, sort_keys=[("term", "ascending"), ("doc_id", "ascending")]
        )
    )


def _q_lang_counts(sf_dir: str) -> Any:
    import pyarrow as pa

    from smse_backend_ray.state.catalog import Catalog

    idx = _index_for(sf_dir)
    t = Catalog(idx).dataset("docs").to_table(columns=["lang"])
    g = t.group_by("lang").aggregate([("lang", "count")])
    out = pa.table(
        {
            "lang": g["lang"],
            "n_docs": pa.compute.cast(g["lang_count"], pa.int64()),
        }
    )
    return out.take(pa.compute.sort_indices(out["lang"]))


def _q_top_terms(sf_dir: str, n: int = 20) -> Any:
    """Hot-term head by df (term-skew profile; the groupby-salting target)."""
    import pyarrow as pa

    from smse_backend_ray.state.catalog import Catalog

    idx = _index_for(sf_dir)
    t = Catalog(idx).dataset("df").to_table()
    order = pa.compute.sort_indices(
        t, sort_keys=[("df", "descending"), ("term", "ascending")]
    )
    return t.take(order).slice(0, n)


def _q_path_parse(sf_dir: str) -> Any:
    """Filename/extension extraction (reference Content.filename/extension
    properties, smse_backend/models/content.py:43-62)."""
    import pyarrow as pa

    from smse_backend_ray.state.catalog import Catalog

    idx = _index_for(sf_dir)
    t = Catalog(idx).dataset("docs").to_table(columns=["doc_id", "path"])
    paths = t["path"].to_pylist()
    fnames = [p.rsplit("/", 1)[-1] for p in paths]
    exts = [f.rsplit(".", 1)[1].lower() if "." in f else "" for f in fnames]
    out = pa.table(
        {
            "doc_id": t["doc_id"],
            "path": t["path"],
            "filename": pa.array(fnames, type=pa.string()),
            "ext": pa.array(exts, type=pa.string()),
        }
    )
    return out.take(pa.compute.sort_indices(out["doc_id"]))


def _q_repo_sizes(sf_dir: str) -> Any:
    """Per-repo size rollup via Ray pre-agg + groupby (A4 analog)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from smse_backend_ray.state.catalog import Catalog

    idx = _index_for(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("repo").aggregate([("n_bytes", "sum"), ("repo", "count")])
        return pa.table(
            {
                "repo": g["repo"],
                "bytes": g["n_bytes_sum"],
                "cnt": pc.cast(g["repo_count"], pa.int64()),
            }
        )

    agg = (
        Catalog(idx).ray_dataset("docs", columns=["repo", "n_bytes"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("repo")
        .aggregate(Sum("cnt", alias_name="n_docs"), Sum("bytes", alias_name="total_bytes"))
    )
    from smse_backend_ray.functions.collect import collect_table

    t = collect_table(agg)
    t = pa.table(
        {
            "repo": t["repo"],
            "n_docs": pc.cast(t["n_docs"], pa.int64()),
            "total_bytes": pc.cast(t["total_bytes"], pa.int64()),
        }
    )
    return t.take(pa.compute.sort_indices(t["repo"]))


def _q_top_docs_per_repo(sf_dir: str, k: int = 3) -> Any:
    """Grouped top-k over the index docs table (combiner-then-shuffle; see
    pipelines/grouped_topk.py for the scale shape)."""
    import pyarrow.compute as pc

    from smse_backend_ray.functions.collect import collect_table
    from smse_backend_ray.pipelines.grouped_topk import grouped_topk
    from smse_backend_ray.state.catalog import Catalog

    idx = _index_for(sf_dir)
    ds = Catalog(idx).ray_dataset("docs", columns=["repo", "doc_id", "n_bytes"])
    t = collect_table(grouped_topk(ds, "repo", "n_bytes", k))
    t = t.select(["repo", "rank", "doc_id", "n_bytes"])
    return t.take(
        pc.sort_indices(t, sort_keys=[("repo", "ascending"), ("rank", "ascending")])
    )


def _q_bm25(queries, index_for=None) -> Callable[[str], Any]:
    def run(sf_dir: str) -> Any:
        return _search_result(sf_dir, queries, index_for)

    return run


def _q_facets(sf_dir: str) -> Any:
    """Per-query facet counts (repo/lang) over ALL matching docs — the
    search-UI filter sidebar (no top-k truncation; scope + threshold
    applied like the result set)."""
    from smse_backend_ray.pipelines.search import SearchEngine
    from smse_backend_ray.queryset import BASE_QUERIES, SCOPED_QUERIES

    idx = _index_for(sf_dir)
    with SearchEngine(idx) as eng:
        return eng.facet_counts(BASE_QUERIES + SCOPED_QUERIES)


def _q_snippets(sf_dir: str) -> Any:
    """Query-dependent result snippets (kept-token window around the first
    matched term) for the flagship query set, from the positional build."""
    from smse_backend_ray.pipelines.search import SearchEngine
    from smse_backend_ray.queryset import BASE_QUERIES

    idx = _pos_index_for(sf_dir)
    with SearchEngine(idx) as eng:
        return eng.snippets(BASE_QUERIES)


def _q_mlt(sf_dir: str) -> Any:
    """More-like-this: related docs for the MLT_N_SRC smallest doc_ids (top
    tf*idf query terms per source, source excluded from its own results)."""
    from smse_backend_ray.config import MLT_N_SRC
    from smse_backend_ray.pipelines.search import SearchEngine
    from smse_backend_ray.state.catalog import Catalog

    idx = _index_for(sf_dir)
    ids = sorted(
        Catalog(idx).dataset("docs").to_table(columns=["doc_id"])["doc_id"].to_pylist()
    )[:MLT_N_SRC]
    with SearchEngine(idx) as eng:
        return eng.more_like_this(ids)


# frozen prefix-query fixture: (query_id, prefix)
_PREFIXES = ((600, "pa"), (601, "wi"), (602, "s"), (603, "qqzz"))


def _q_prefix(sf_dir: str) -> Any:
    """Prefix (wildcard) queries: deterministic term-asc capped expansion
    over the df table key range, then standard OR scoring."""
    import pyarrow as pa

    from smse_backend_ray.pipelines.search import SearchEngine

    idx = _index_for(sf_dir)
    with SearchEngine(idx) as eng:
        t = pa.concat_tables(
            [eng.search_prefix(p, query_id=qid) for qid, p in _PREFIXES]
        )
    t = t.select(["query_id", "rank", "doc_id", "path", "repo", "lang", "score"])
    order = pa.compute.sort_indices(
        t, sort_keys=[("query_id", "ascending"), ("rank", "ascending")]
    )
    return t.take(order)


# frozen fuzzy-suggest fixture: (query_id, misspelled term)
_SUGGEST_QUERIES = (
    (650, "hach"),    # substitution of "hash"
    (651, "mergee"),  # insertion on "merge"
    (652, "tabl"),    # deletion of "table"
    (653, "data"),    # exact vocab hit (lev 0) + near terms
    (654, "qqzzxx"),  # no suggestion
    (655, "sow"),     # two candidates (row, slow) — df-rank tie-break
)


def _q_suggest(sf_dir: str) -> Any:
    """Fuzzy term suggestions: the queries' edit neighborhoods looked up in
    the committed df table."""
    from smse_backend_ray.pipelines.suggest import suggest

    return suggest(_index_for(sf_dir), _SUGGEST_QUERIES)


_EXPLAIN_TEXT = "hash join table batch merge"
_EXPLAIN_N_DOCS = 5


def _q_explain(sf_dir: str) -> Any:
    """Per-term BM25 score breakdown for the smallest doc_ids (the search
    debugging/explain API)."""
    from smse_backend_ray.pipelines.search import SearchEngine
    from smse_backend_ray.state.catalog import Catalog

    idx = _index_for(sf_dir)
    ids = sorted(
        Catalog(idx).dataset("docs").to_table(columns=["doc_id"])["doc_id"].to_pylist()
    )[:_EXPLAIN_N_DOCS]
    with SearchEngine(idx) as eng:
        return eng.explain(_EXPLAIN_TEXT, ids)


def _q_bm25_bulk(sf_dir: str) -> Any:
    """Bulk search path (pipelines/bulk_search.py): the serving engine run
    over the query list in search_batch chunks, results projected to
    (query_id, rank, doc_id, score)."""
    from smse_backend_ray.pipelines.bulk_search import bulk_search
    from smse_backend_ray.queryset import BASE_QUERIES

    idx = _index_for(sf_dir)
    return bulk_search(idx, BASE_QUERIES).select(
        ["query_id", "rank", "doc_id", "score"]
    )


def _q_bm25_bulk_modal(sf_dir: str) -> Any:
    """Bulk path with conj + exclusion modes: the unscoped/unthresholded
    subset of the modal fixtures, the set its SQL twin in oracle_sql()
    covers (bulk applies scope/threshold like serving;
    tests/test_bulk_search.py checks those specs against search_batch)."""
    from smse_backend_ray.pipelines.bulk_search import bulk_search
    from smse_backend_ray.queryset import CONJ_QUERIES, EXCLUDE_QUERIES

    specs = tuple(
        q for q in CONJ_QUERIES + EXCLUDE_QUERIES
        if not q.scope and q.threshold is None
    )
    idx = _index_for(sf_dir)
    return bulk_search(idx, specs).select(["query_id", "rank", "doc_id", "score"])


# frozen clock for the history gate: log ts = _HIST_TS_BASE + query_id
# seconds (strictly increasing with query_id, so ts-DESC order is
# deterministic); _HIST_PAGE = pagination limit the entry walks with.
_HIST_TS_BASE = 1_700_000_000
_HIST_PAGE = 4


def _q_history(sf_dir: str) -> Any:
    """Query-history pagination gate (reference Query/SearchRecord history
    API, smse_backend/routes/search.py:242-283): run the flagship query set
    with logging ON under the frozen deterministic clock, then page through
    the REAL ``history()`` serve path (timestamp DESC, limit/offset,
    total/has_more echo) and return every page as one table. SQL twin:
    sqlgen.history_sql (n_results from the bm25 top-k twin, row_number
    pagination)."""
    import pyarrow as pa

    from smse_backend_ray.pipelines.search import SearchEngine
    from smse_backend_ray.queryset import BASE_QUERIES

    idx = _index_for(sf_dir)
    with SearchEngine(idx) as eng:
        # fresh log: the cached index dir may carry a querylog from an
        # earlier call in this process — the entry must be idempotent
        for qs in BASE_QUERIES:
            eng.delete_query(qs.query_id)
        eng.log_ts_fn = lambda qid: float(_HIST_TS_BASE + qid)
        eng.search_batch(BASE_QUERIES, log=True)
        out: dict[str, list] = {
            "page": [], "query_id": [], "text": [], "n_parts": [],
            "scope": [], "lim": [], "n_results": [], "ts_str": [],
            "total": [], "has_more": [],
        }
        page = 0
        while True:
            h = eng.history(limit=_HIST_PAGE, offset=page * _HIST_PAGE)
            for r in h["queries"]:
                out["page"].append(page)
                out["query_id"].append(r["query_id"])
                out["text"].append(r["text"])
                out["n_parts"].append(r["n_parts"])
                out["scope"].append(r["scope"])
                out["lim"].append(r["limit"])
                out["n_results"].append(r["n_results"])
                out["ts_str"].append(r["timestamp_str"])
                out["total"].append(h["total"])
                out["has_more"].append(h["has_more"])
            if not h["has_more"]:
                break
            page += 1
    return pa.table(
        {
            "page": pa.array(out["page"], type=pa.int64()),
            "query_id": pa.array(out["query_id"], type=pa.int64()),
            "text": pa.array(out["text"], type=pa.string()),
            "n_parts": pa.array(out["n_parts"], type=pa.int64()),
            "scope": pa.array(out["scope"], type=pa.string()),
            "lim": pa.array(out["lim"], type=pa.int64()),
            "n_results": pa.array(out["n_results"], type=pa.int64()),
            "ts_str": pa.array(out["ts_str"], type=pa.string()),
            "total": pa.array(out["total"], type=pa.int64()),
            "has_more": pa.array(out["has_more"], type=pa.bool_()),
        }
    )


def _q_multimodal(sf_dir: str) -> Any:
    """Media pipeline with REAL decoders (PPM/PNG/JPEG/WAV/SMV1 synth
    payloads -> decode + feature actor pools). Rows-only in the gate but
    SELF-VALIDATING: the entry asserts the decoded geometry/duration of
    every row equals the synthesizer's ground truth before returning
    (stages/multimodal.py media_pipeline_checked)."""
    from smse_backend_ray.stages.multimodal import media_pipeline_checked

    return media_pipeline_checked(300)


def queries() -> dict[str, Callable[[str], Any]]:
    from smse_backend_ray.pipelines import (
        curate,
        dedup,
        events,
        packing,
        pii,
        relational,
        sampling,
        simsearch,
        textstats,
    )
    from smse_backend_ray.queryset import (
        BASE_QUERIES,
        CONJ_QUERIES,
        EXCLUDE_QUERIES,
        MULTIPART_QUERIES,
        NEAR_QUERIES,
        PHRASE_QUERIES,
        SCOPED_QUERIES,
    )

    # ENTRY ORDER IS LOAD-BEARING: the driver's correctness sweep covers
    # roughly the FIRST 50 entries of this dict (budget truncation), so the
    # dict is ordered in three blocks:
    #   A. entries whose driver rows are oldest or missing: first the 13
    #      that have never had one (TPC-H Q7/Q8/Q9/Q12/Q15/Q17/Q19/Q22
    #      shapes, doc_split_assign, doc_term_pairs, three events ops), then
    #      the session-9 operators and the rest — first, so the sweep budget
    #      lands on them;
    #   B. the core engine + pipeline surface;
    #   C. cheap, long-green entries (all value-exact in CORRECTNESS_r04) —
    #      last, so they are the ones dropped if the budget truncates.
    return {
        # --- block A: never driver-swept first, then the newest -----------
        "line_priority_counts": relational.line_priority_counts,
        "volume_shipping": relational.volume_shipping,
        "small_qty_order_revenue": relational.small_qty_order_revenue,
        "top_supplier_revenue": relational.top_supplier_revenue,
        "idle_customer_balance": relational.idle_customer_balance,
        "banded_revenue": relational.banded_revenue,
        "market_share": relational.market_share,
        "doc_split_assign": sampling.doc_split_assign,
        "product_type_profit": relational.product_type_profit,
        "doc_term_pairs": textstats.term_pair_counts,
        "events_value_quantiles": events.event_value_quantiles,
        "events_value_histogram": events.event_value_histogram,
        "events_type_transitions": events.event_type_transitions,
        "lang_confusion": textstats.lang_confusion,
        "quality_by_source": textstats.quality_by_source,
        "quality_zscore": textstats.quality_zscore,
        "doc_bigram_logprob": textstats.bigram_logprob,
        "doc_vocab_growth": textstats.vocab_growth,
        "top_terms_per_lang": textstats.top_terms_per_lang,
        "events_activity_histogram": events.user_activity_histogram,
        "events_active_users": events.weekly_active_users,
        "events_gap_quantiles": events.event_gap_quantiles,
        "dedup_containment": dedup.containment_pairs,
        "dup_rate_by_source": dedup.dup_rate_by_source,
        "dedup_impact": dedup.dedup_impact,
        "dedup_survivors": dedup.dedup_survivors,
        "doc_chunks": textstats.doc_chunks,
        "doc_pack_bins": packing.pack_bins,
        "doc_substring_dup": dedup.substring_dup_stats,
        "doc_pii": pii.doc_pii,
        "doc_cooc_pmi": textstats.term_cooc_pmi,
        "doc_keywords": textstats.doc_keywords,
        "events_funnel": events.event_funnel,
        "doc_length_quantiles": textstats.doc_length_quantiles,
        "shipping_priority": relational.shipping_priority,
        "returned_item_revenue": relational.returned_item_revenue,
        "doc_shuffle": sampling.doc_shuffle,
        "curation_pipeline": curate.curation_pipeline,
        "events_retention": events.events_retention,
        # rows-only in the gate, but SELF-VALIDATING: asserts mean top-k
        # recall vs exact brute force >= PQ_RECALL_FLOOR before returning
        "knn_pq": simsearch.knn_pq_checked,
        "knn_ivfpq": simsearch.knn_ivfpq_checked,
        "knn_bruteforce": simsearch.knn_bruteforce,
        "knn_ivf_full_probe": lambda sf: simsearch.knn_ivf(sf, nprobe=16),
        "dedup_embedding": dedup.embedding_dup_pairs,
        # rows-only in the gate, but SELF-VALIDATING: the entry asserts
        # IVF pairs ⊆ exact pairs and recall ≥ IVF_DEDUP_RECALL_FLOOR
        # before returning (raises on violation — the driver sees an error,
        # not silently-wrong rows)
        "dedup_embedding_ivf": dedup.embedding_dup_pairs_ivf_checked,
        "events_hourly_agg": events.hourly_window_agg,
        "events_sessions": events.user_sessions,
        "events_recent": events.recent_events,
        "events_props_agg": events.props_agg,
        "doc_sample": sampling.doc_sample,
        "doc_sample_stratified": sampling.doc_sample_stratified,
        "search_history": _q_history,
        "forecast_revenue": relational.forecast_revenue,
        "large_order_customers": relational.large_order_customers,
        "events_running_totals": events.user_running_totals,
        "embedding_dim_stats": simsearch.embedding_dim_stats,
        "doc_kmv_distinct": textstats.kmv_distinct,
        "doc_sample_balanced": sampling.doc_sample_balanced,
        "doc_sample_temperature": sampling.doc_sample_temperature,
        "doc_rollup_counts": textstats.doc_rollup_counts,
        "embedding_label_centroids": simsearch.embedding_label_centroids,
        "dedup_winnow_pairs": dedup.winnow_dup_pairs,
        "dedup_winnow_clusters": dedup.winnow_dup_clusters,
        # --- block B: core engine + pipeline surface ----------------------
        "ingest_docs": _q_ingest_docs,
        "corpus_stats": _q_corpus_stats,
        "term_df": _q_term_df,
        "postings_decoded": _q_postings,
        "bm25_topk": _q_bm25(BASE_QUERIES),
        "bm25_topk_incremental": _q_bm25(BASE_QUERIES, _incr_index_for),
        "bm25_topk_compacted": _q_bm25(BASE_QUERIES, _compacted_index_for),
        "bm25_bulk": _q_bm25_bulk,
        "bm25_bulk_modal": _q_bm25_bulk_modal,
        "bm25_topk_scoped": _q_bm25(SCOPED_QUERIES),
        "bm25_topk_multipart": _q_bm25(MULTIPART_QUERIES),
        "bm25_topk_conj": _q_bm25(CONJ_QUERIES),
        "bm25_topk_phrase": _q_bm25(PHRASE_QUERIES, _pos_index_for),
        "bm25_topk_near": _q_bm25(NEAR_QUERIES, _pos_index_for),
        "bm25_facets": _q_facets,
        "bm25_snippets": _q_snippets,
        "bm25_more_like_this": _q_mlt,
        "bm25_topk_prefix": _q_prefix,
        "bm25_topk_exclude": _q_bm25(EXCLUDE_QUERIES),
        "bm25_explain": _q_explain,
        "term_suggest": _q_suggest,
        "multimodal_pipeline": _q_multimodal,  # rows-only (synth media, real codecs)
        "dedup_exact": dedup.exact_dedup,
        "dedup_jaccard": dedup.jaccard_pairs,
        "dedup_clusters": dedup.dedup_clusters,
        "dedup_minhash_lsh": dedup.minhash_lsh_pairs,
        "dedup_simhash": dedup.simhash_pairs,
        "events_asof_join": events.asof_join,
        "events_range_join": events.range_join,
        "events_sliding_agg": events.sliding_window_agg,
        "doc_winnow": textstats.winnow_rows,
        "doc_validate": lambda sf: textstats.validate(_index_for(sf)),
        "doc_decontaminate": textstats.decontaminate,
        # --- block C: long-green cheap entries (r04 value-exact) ----------
        "doc_token_stats": textstats.token_stats,
        "doc_quality": textstats.quality,
        "doc_lang_id": textstats.lang_id,
        "doc_fingerprint": textstats.fingerprint,
        "doc_preview": textstats.preview,
        "doc_repetition": textstats.repetition,
        "doc_logprob": textstats.unigram_logprob,
        "lang_counts": _q_lang_counts,
        "path_parse": _q_path_parse,
        "top_terms": _q_top_terms,
        "repo_sizes": _q_repo_sizes,
        "top_docs_per_repo": _q_top_docs_per_repo,
        "revenue_by_month": relational.revenue_by_month,
        "nation_revenue": relational.nation_revenue,
        "order_priority_counts": relational.order_priority_counts,
        "cust_order_distribution": relational.cust_order_distribution,
        "promo_revenue_share": relational.promo_revenue_share,
    }


def oracle_sql() -> dict[str, str]:
    from smse_backend_ray.config import (
        MLT_N_SRC,
        MLT_TOP_TERMS,
        PREFIX_MAX_EXPANSIONS,
        BM25Params,
    )
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines import curate as curate_mod
    from smse_backend_ray.pipelines import dedup as dedup_mod
    from smse_backend_ray.pipelines import events as events_mod
    from smse_backend_ray.pipelines import pii as pii_mod
    from smse_backend_ray.pipelines import packing as packing_mod
    from smse_backend_ray.pipelines import relational as relational_mod
    from smse_backend_ray.pipelines import sampling as sampling_mod
    from smse_backend_ray.pipelines import textstats as textstats_mod
    from smse_backend_ray.pipelines import simsearch as simsearch_mod
    from smse_backend_ray.queryset import (
        ALL_QUERIES,
        BASE_QUERIES,
        CONJ_QUERIES,
        EXCLUDE_QUERIES,
        MULTIPART_QUERIES,
        NEAR_QUERIES,
        PHRASE_QUERIES,
        SCOPED_QUERIES,
    )

    p = BM25Params()
    return {
        "ingest_docs": sqlgen.ingest_docs_sql(),
        "corpus_stats": sqlgen.corpus_stats_sql(),
        "term_df": sqlgen.term_df_sql(),
        "top_terms": sqlgen.top_terms_sql(20),
        "postings_decoded": sqlgen.postings_sql(),
        "lang_counts": sqlgen.lang_counts_sql(),
        "path_parse": sqlgen.path_parse_sql(),
        "repo_sizes": sqlgen.repo_sizes_sql(),
        "top_docs_per_repo": sqlgen.top_docs_per_repo_sql(3),
        "bm25_topk": sqlgen.bm25_topk_sql(BASE_QUERIES, p),
        # append == rebuild (bitwise), so the incremental index shares the
        # full-build oracle
        "bm25_topk_incremental": sqlgen.bm25_topk_sql(BASE_QUERIES, p),
        "bm25_topk_compacted": sqlgen.bm25_topk_sql(
            BASE_QUERIES,
            p,
            docs_where=f"doc_id % {_VACUUM_MOD} != {_VACUUM_RESIDUE}",
        ),
        "bm25_bulk": sqlgen.bm25_topk_sql(BASE_QUERIES, p, meta_cols=False),
        "bm25_bulk_modal": (
            "SELECT * FROM (\n"
            + sqlgen.bm25_conj_topk_sql(
                tuple(q for q in CONJ_QUERIES if not q.scope and q.threshold is None),
                p,
                meta_cols=False,
            )
            + "\n) UNION ALL SELECT * FROM (\n"
            + sqlgen.bm25_exclude_topk_sql(
                tuple(
                    q for q in EXCLUDE_QUERIES if not q.scope and q.threshold is None
                ),
                p,
                meta_cols=False,
            )
            + "\n) ORDER BY query_id, rank"
        ),
        "bm25_topk_scoped": sqlgen.bm25_topk_sql(SCOPED_QUERIES, p),
        "bm25_topk_multipart": sqlgen.bm25_topk_sql(MULTIPART_QUERIES, p),
        "bm25_topk_conj": sqlgen.bm25_conj_topk_sql(CONJ_QUERIES, p),
        "bm25_topk_phrase": sqlgen.phrase_topk_sql(PHRASE_QUERIES, p),
        "bm25_topk_near": sqlgen.near_topk_sql(NEAR_QUERIES, p),
        "bm25_facets": sqlgen.facets_sql(BASE_QUERIES + SCOPED_QUERIES, p),
        "bm25_snippets": sqlgen.snippets_sql(BASE_QUERIES, p),
        "bm25_more_like_this": sqlgen.mlt_sql(MLT_N_SRC, MLT_TOP_TERMS, 10, p),
        "bm25_topk_prefix": sqlgen.prefix_topk_sql(
            _PREFIXES, 10, PREFIX_MAX_EXPANSIONS, p
        ),
        "term_suggest": sqlgen.suggest_sql(_SUGGEST_QUERIES),
        "search_history": sqlgen.history_sql(
            BASE_QUERIES, p, _HIST_PAGE, _HIST_TS_BASE
        ),
        "bm25_topk_exclude": sqlgen.bm25_exclude_topk_sql(EXCLUDE_QUERIES, p),
        "bm25_explain": sqlgen.explain_sql(_EXPLAIN_TEXT, _EXPLAIN_N_DOCS, p),
        "doc_token_stats": sqlgen.token_stats_sql(),
        "doc_quality": sqlgen.quality_sql(),
        "doc_lang_id": sqlgen.lang_id_sql(),
        "doc_fingerprint": sqlgen.fingerprint_sql(),
        "doc_winnow": sqlgen.winnow_sql(
            textstats_mod.WINNOW_K, textstats_mod.WINNOW_W
        ),
        "doc_preview": sqlgen.preview_sql(),
        "doc_repetition": sqlgen.repetition_sql(textstats_mod.REP_GRAM_K),
        "doc_logprob": sqlgen.unigram_logprob_sql(),
        "doc_decontaminate": sqlgen.decontaminate_sql(
            [part for q in ALL_QUERIES for part in q.parts],
            textstats_mod.REP_GRAM_K,
        ),
        "doc_validate": sqlgen.validate_sql(),
        "dedup_exact": sqlgen.exact_dedup_sql(),
        "dedup_jaccard": sqlgen.jaccard_pairs_sql(
            dedup_mod.JACCARD_THRESHOLD,
            dedup_mod.SHINGLE_K,
            dedup_mod.JACCARD_SHINGLE_DF_CAP,
        ),
        "dedup_containment": sqlgen.containment_pairs_sql(
            dedup_mod.CONTAIN_THRESHOLD,
            dedup_mod.SHINGLE_K,
            dedup_mod.JACCARD_SHINGLE_DF_CAP,
        ),
        "dup_rate_by_source": sqlgen.dup_rate_by_source_sql(
            dedup_mod.JACCARD_THRESHOLD,
            dedup_mod.SHINGLE_K,
            dedup_mod.JACCARD_SHINGLE_DF_CAP,
        ),
        "dedup_impact": sqlgen.dedup_impact_sql(
            dedup_mod.JACCARD_THRESHOLD,
            dedup_mod.SHINGLE_K,
            dedup_mod.JACCARD_SHINGLE_DF_CAP,
        ),
        "dedup_clusters": sqlgen.dedup_clusters_sql(
            dedup_mod.JACCARD_THRESHOLD,
            dedup_mod.SHINGLE_K,
            dedup_mod.JACCARD_SHINGLE_DF_CAP,
        ),
        # dedup_minhash_lsh and dedup_simhash are value-oracled (md5 /
        # splitmix bit math expressed in DuckDB); dedup_embedding_ivf stays
        # rows-only (k-means layout) with its pytest recall gate.
        "dedup_minhash_lsh": sqlgen.minhash_lsh_pairs_sql(
            dedup_mod.JACCARD_THRESHOLD,
            dedup_mod.SHINGLE_K,
            dedup_mod.JACCARD_SHINGLE_DF_CAP,
            dedup_mod.MINHASH_PERMS,
            dedup_mod.LSH_BANDS,
        ),
        "dedup_simhash": sqlgen.simhash_pairs_sql(),
        "dedup_winnow_pairs": sqlgen.winnow_dup_pairs_sql(
            textstats_mod.WINNOW_K,
            textstats_mod.WINNOW_W,
            dedup_mod.WINNOW_DUP_FP_DF_CAP,
            dedup_mod.WINNOW_DUP_MIN_SHARED,
        ),
        "dedup_winnow_clusters": sqlgen.winnow_dup_clusters_sql(
            textstats_mod.WINNOW_K,
            textstats_mod.WINNOW_W,
            dedup_mod.WINNOW_DUP_FP_DF_CAP,
            dedup_mod.WINNOW_DUP_MIN_SHARED,
        ),
        "line_priority_counts": relational_mod.line_priority_counts_sql(),
        "volume_shipping": relational_mod.volume_shipping_sql(),
        "small_qty_order_revenue": relational_mod.small_qty_order_revenue_sql(),
        "top_supplier_revenue": relational_mod.top_supplier_revenue_sql(),
        "idle_customer_balance": relational_mod.idle_customer_balance_sql(),
        "banded_revenue": relational_mod.banded_revenue_sql(),
        "market_share": relational_mod.market_share_sql(),
        "product_type_profit": relational_mod.product_type_profit_sql(),
        "doc_term_pairs": sqlgen.term_pairs_sql(),
        "events_value_quantiles": events_mod.event_value_quantiles_sql(),
        "events_value_histogram": events_mod.event_value_histogram_sql(),
        "events_type_transitions": events_mod.event_type_transitions_sql(),
        "events_activity_histogram": events_mod.user_activity_histogram_sql(),
        "events_active_users": events_mod.weekly_active_users_sql(),
        "events_gap_quantiles": events_mod.event_gap_quantiles_sql(),
        "lang_confusion": sqlgen.lang_confusion_sql(),
        "quality_by_source": sqlgen.quality_by_source_sql(),
        "quality_zscore": sqlgen.quality_zscore_sql(),
        "doc_bigram_logprob": sqlgen.bigram_logprob_sql(),
        "doc_vocab_growth": sqlgen.vocab_growth_sql(),
        "top_terms_per_lang": sqlgen.top_terms_per_lang_sql(),
        "doc_split_assign": sampling_mod.doc_split_assign_sql(),
        "doc_substring_dup": sqlgen.substring_dup_sql(
            dedup_mod.SUBSTR_DUP_K, dedup_mod.SUBSTR_DUP_MIN_DF
        ),
        "dedup_survivors": sqlgen.dedup_survivors_sql(
            dedup_mod.JACCARD_THRESHOLD,
            dedup_mod.SHINGLE_K,
            dedup_mod.JACCARD_SHINGLE_DF_CAP,
        ),
        "doc_pack_bins": packing_mod.pack_bins_sql(),
        "doc_chunks": sqlgen.doc_chunks_sql(
            textstats_mod.CHUNK_W, textstats_mod.CHUNK_S
        ),
        "doc_pii": pii_mod.pii_sql(),
        "doc_cooc_pmi": sqlgen.cooc_pmi_sql(),
        "doc_keywords": sqlgen.keywords_sql(),
        "doc_length_quantiles": sqlgen.dl_quantiles_sql(),
        "doc_kmv_distinct": textstats_mod.kmv_distinct_sql(),
        "doc_rollup_counts": textstats_mod.doc_rollup_counts_sql(),
        "dedup_embedding": sqlgen.embedding_dup_pairs_sql(dedup_mod.EMB_DUP_THRESHOLD),
        "knn_bruteforce": sqlgen.knn_sql(simsearch_mod.N_QUERIES, simsearch_mod.TOP_K),
        "embedding_dim_stats": simsearch_mod.embedding_dim_stats_sql(),
        "embedding_label_centroids": simsearch_mod.embedding_label_centroids_sql(),
        "knn_ivf_full_probe": sqlgen.knn_sql(simsearch_mod.N_QUERIES, simsearch_mod.TOP_K),
        "events_asof_join": events_mod.asof_join_sql(),
        "events_range_join": events_mod.range_join_sql(),
        "shipping_priority": relational_mod.shipping_priority_sql(),
        "returned_item_revenue": relational_mod.returned_item_revenue_sql(),
        "forecast_revenue": relational_mod.forecast_revenue_sql(),
        "large_order_customers": relational_mod.large_order_customers_sql(),
        "revenue_by_month": relational_mod.revenue_by_month_sql(),
        "nation_revenue": relational_mod.nation_revenue_sql(),
        "order_priority_counts": relational_mod.order_priority_counts_sql(),
        "cust_order_distribution": relational_mod.cust_order_distribution_sql(),
        "promo_revenue_share": relational_mod.promo_revenue_share_sql(),
        "events_sliding_agg": events_mod.sliding_window_agg_sql(),
        "events_funnel": events_mod.event_funnel_sql(),
        "events_retention": events_mod.events_retention_sql(),
        "events_hourly_agg": events_mod.hourly_window_agg_sql(),
        "events_sessions": events_mod.user_sessions_sql(),
        "events_running_totals": events_mod.user_running_totals_sql(),
        "events_recent": events_mod.recent_events_sql(),
        "events_props_agg": events_mod.props_agg_sql(),
        "doc_sample": sampling_mod.doc_sample_sql(),
        "doc_sample_balanced": sampling_mod.doc_sample_balanced_sql(),
        "doc_sample_temperature": sampling_mod.doc_sample_temperature_sql(),
        "doc_shuffle": sampling_mod.doc_shuffle_sql(),
        "curation_pipeline": curate_mod.curation_sql(),
        "doc_sample_stratified": sampling_mod.doc_sample_stratified_sql(),
    }
