"""Deduplication operators over the ``documents`` / ``embeddings`` tables —
the training-data-pipeline additions (exact, n-gram Jaccard, MinHash-LSH,
SimHash, embedding-cosine near-dup).

Reference analog: uniqueness constraints + existence-check-then-insert
(SURVEY.md D2/D3; smse_backend/models/content.py:11, routes/auth.py:28-33) —
generalized to content-level near-dup detection as required for a 100 TB
training-data engine.

Scale notes (the partitioning assumptions each operator relies on):
  - exact: winner-per-fingerprint via groupby(fingerprint) — the shuffle
    carries only (fingerprint, doc_id) pairs, never content.
  - jaccard: exact inverted-index join on shingles; a shingle shared by d
    docs emits d*(d-1)/2 candidate pairs, so this is for verification /
    small scopes. The scale path is minhash_lsh (bounded band buckets).
  - minhash_lsh: shingle -> 64 minhashes -> 16 bands of 4 -> groupby(band
    bucket) -> candidate pairs -> DISTRIBUTED exact-Jaccard verify over the
    candidate docs only. Only band-bucket collisions shuffle; the driver
    sees pair ids, never text.
  - simhash: banding AND hamming verification run distributed
    (groupby(16-bit chunk bucket)); oversized buckets are capped + logged.
  - embedding near-dup: exact = distributed block-pair sweep (per-task
    pushdown reads, no broadcast, no driver-held vectors); scale path =
    IVF-bucketed blocking over pipelines/simsearch.build_ivf_index.
"""

from __future__ import annotations

import hashlib
import os
import struct

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from smse_backend_ray.config import (
    HOT_SHINGLE_BROADCAST_MAX,
    JACCARD_SHINGLE_DF_CAP,
    SIMHASH_BUCKET_CAP,
    SIMHASH_MAX_HAMMING,
)
from smse_backend_ray.functions.analyzer import split_subtokens
from smse_backend_ray.functions.collect import collect_table
from smse_backend_ray.functions.rounding import round_half_away
from smse_backend_ray.pipelines.simsearch import _emb_matrix
from smse_backend_ray.sources.corpus import _parquet_rows, read_table

SHINGLE_K = 3
JACCARD_THRESHOLD = 0.5
MINHASH_PERMS = 64
LSH_BANDS = 16  # 16 bands x 4 rows
# the driver's synthetic embeddings max out near cos 0.51; 0.4 yields a
# meaningful (60-ish) deterministic pair set for the correctness gate
EMB_DUP_THRESHOLD = 0.4


from smse_backend_ray.functions.joins import anti_join as _anti_join
from smse_backend_ray.functions.joins import attach_unique as _attach_unique
from smse_backend_ray.functions.joins import grouped_aggregate as _grouped_agg
from smse_backend_ray.functions.joins import hash_strings as _hash_strings
from smse_backend_ray.functions.joins import semi_join as _semi_join
from smse_backend_ray.functions.joins import with_schema as _with_schema


def _compact(ds_mat, rows_per_block: int = 4096):
    """Coalesce a MATERIALIZED candidate-bounded dataset to few blocks.

    Bucketed exchanges emit one block per bucket; a 257-row result spread
    over ~128 near-empty blocks makes every downstream stage pay a task
    per block (~50 ms each — measured 5-10 s per attach in the verify
    path). Tiny data, tiny repartition: ~0.5 s buys back all of it."""
    n = ds_mat.count()
    blocks = max(2, min(64, -(-n // rows_per_block)))
    return ds_mat.repartition(blocks).materialize()


def _read_documents(sf_dir: str) -> "ray.data.Dataset":
    return read_table(sf_dir, "documents", ["doc_id", "text"])


def doc_shingles(text: str, k: int = SHINGLE_K) -> list[str]:
    """Distinct word k-gram shingles of the raw subtoken stream (sorted)."""
    toks = split_subtokens(text or "")
    return sorted(
        {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}
    )


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def exact_dedup(sf_dir: str) -> pa.Table:
    """Winner (min doc_id) per md5(text) fingerprint -> surviving docs."""

    def fp_batch(t: pa.Table) -> pa.Table:
        fps = [hashlib.md5((x or "").encode()).hexdigest() for x in t["text"].to_pylist()]
        # per-batch partial winner (combiner) before the tiny global groupby
        part = pa.table(
            {"fingerprint": pa.array(fps), "doc_id": t["doc_id"]}
        )
        g = part.group_by("fingerprint").aggregate([("doc_id", "min")])
        # by-name selection (group_by column order varies across pyarrow versions)
        return pa.table({"fingerprint": g["fingerprint"], "doc_id": g["doc_id_min"]})

    from ray.data.aggregate import Min

    winners = _grouped_agg(
        _read_documents(sf_dir).map_batches(
            fp_batch, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["fingerprint"],
        [("doc_id", "min", "doc_id")],
        nb=_doc_buckets(sf_dir),
    )
    t = collect_table(winners)
    t = t.select(["doc_id", "fingerprint"])
    return t.take(pc.sort_indices(t["doc_id"]))


# ---------------------------------------------------------------------------
# exact n-gram Jaccard pairs (inverted shingle index)
# ---------------------------------------------------------------------------

def _gram_rows(t: pa.Table, k: int) -> pa.Table:
    """(doc_id, shingle) word-k-gram rows, DISTINCT per doc — fully
    vectorized: the Arrow-C++ subtoken split, k-gram strings via one join
    over shifted flat-token views (masked at doc boundaries), and the
    per-doc distinct via a C++ group_by. Row ORDER differs from the scalar
    doc_shingles (consumers are all groupbys/aggregates — order-free; the
    parity test compares as sets)."""
    from smse_backend_ray.functions.analyzer import subtokens_batch

    empty = pa.table(
        {"doc_id": pa.array([], type=pa.int64()), "shingle": pa.array([], type=pa.string())}
    )
    toks = subtokens_batch(t["text"])
    flat = toks.values
    total = len(flat)
    if total < k:
        # tiny batch: scalar fallback keeps the edge cases trivial
        ids, shs = [], []
        for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            for s in doc_shingles(text, k):
                ids.append(did)
                shs.append(s)
        return pa.table(
            {"doc_id": pa.array(ids, type=pa.int64()), "shingle": pa.array(shs)}
        ) if ids else empty
    off = np.asarray(toks.offsets, dtype=np.int64)
    counts = np.diff(off)
    doc_idx = np.repeat(np.arange(len(toks), dtype=np.int64), counts)
    n_grams = total - (k - 1)
    parts = [flat.slice(i, n_grams) for i in range(k)]
    grams = pc.binary_join_element_wise(*parts, " ")
    # a gram starting at flat position i is valid iff all K tokens belong to
    # the same doc: local position <= count(doc) - K
    local = np.arange(total) - off[doc_idx]
    valid = (local[:n_grams] <= counts[doc_idx[:n_grams]] - k)
    if not valid.any():
        return empty
    vm = pa.array(valid)
    dids = pa.array(
        t["doc_id"].to_numpy(zero_copy_only=False)[doc_idx[:n_grams][valid]],
        type=pa.int64(),
    )
    distinct = (
        pa.table({"doc_id": dids, "shingle": grams.filter(vm)})
        .group_by(["doc_id", "shingle"])
        .aggregate([])
    )
    return distinct


def _shingle_rows(t: pa.Table) -> pa.Table:
    """The Jaccard/minhash shingle stage: _gram_rows at the frozen SHINGLE_K."""
    return _gram_rows(t, SHINGLE_K)


# JACCARD_SHINGLE_DF_CAP (imported from config.py — single-sourced with the
# DuckDB oracle defaults): without it one ubiquitous shingle emits d^2/2
# candidate rows and kills the job at scale.


_PAIR_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("n", pa.int64())])


def _pair_groups_count() -> int:
    from smse_backend_ray.functions.joins import cpu_scaled_buckets

    return cpu_scaled_buckets()


def _pairs_within_key(ds, key_col: str, nb: int | None = None):
    """(key_col, doc_id) rows -> (a, b, n) PARTIAL pair counts: every
    (a < b) doc pair sharing a key value, counted once per shared key
    (caller finishes with groupby(a, b).Sum).

    Scale shape: the naive groupby(key).map_groups calls a PYTHON function
    once per key — hundreds of thousands of tiny groups made this the
    dedup family's wall (measured 52-60 s at 5k docs / 16 CPUs). Instead
    keys hash into a few FAT groups (the bucket-encoder pattern) and each
    group emits every in-key pair in a handful of numpy passes (lexsort ->
    segment bounds -> upper-triangle expansion via repeat/arange), then
    pre-aggregates (a, b) partials in Arrow C++ before the global
    exchange. Requires each doc to appear AT MOST ONCE per key (true for
    distinct shingle sets and band signatures) so within-segment doc ids
    are strictly increasing and a < b holds by construction. Per-group
    memory is O(total rows / n_buckets + emitted pairs in the bucket);
    pair blowup stays bounded by the callers' df caps. ``nb`` overrides
    the CPU-scaled group count (callers pass the doc-scaled hint)."""
    nb = nb or _pair_groups_count()

    def bucket(t: pa.Table) -> pa.Table:
        h = _hash_strings(t[key_col])
        return pa.table(
            {
                "kb": pa.array((h % np.uint64(nb)).astype(np.int64), type=pa.int64()),
                "k": t[key_col],
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
            }
        )

    def emit(g: pa.Table) -> pa.Table:
        if g.num_rows < 2:
            return _PAIR_SCHEMA.empty_table()
        k = np.asarray(g["k"].to_numpy(zero_copy_only=False), dtype=object)
        d = g["doc_id"].to_numpy()
        order = np.lexsort((d, k))
        k_s, d_s = k[order], d[order]
        newseg = np.empty(len(k_s), dtype=bool)
        newseg[0] = True
        newseg[1:] = k_s[1:] != k_s[:-1]
        seg_id = np.cumsum(newseg) - 1
        seg_start = np.flatnonzero(newseg)
        local_pos = np.arange(len(k_s)) - seg_start[seg_id]
        total = int(local_pos.sum())
        if total == 0:
            return _PAIR_SCHEMA.empty_table()
        # element i (local pos p) pairs with its p predecessors in-segment
        b_idx = np.repeat(np.arange(len(k_s)), local_pos)
        starts = np.repeat(seg_start[seg_id], local_pos)
        csum = np.concatenate(([0], np.cumsum(local_pos)))
        within = np.arange(total) - np.repeat(csum[:-1], local_pos)
        a_idx = starts + within
        part = (
            pa.table(
                {
                    "a": pa.array(d_s[a_idx], type=pa.int64()),
                    "b": pa.array(d_s[b_idx], type=pa.int64()),
                }
            )
            .group_by(["a", "b"])
            .aggregate([("a", "count")])
        )
        return pa.table(
            {
                "a": part["a"],
                "b": part["b"],
                "n": pc.cast(part["a_count"], pa.int64()),
            }
        )

    return (
        ds.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("kb")
        .map_groups(emit, batch_format="pyarrow")
    )


def _score_jaccard(
    inter_ds, sizes_ds, threshold: float, formula: str = "jaccard"
) -> pa.Table:
    """(a, b, inter) dataset ⋈ (doc_id, n) sizes dataset -> verified pairs.

    ``formula`` picks the set-overlap score (and output column name):
    "jaccard" = i / (na + nb - i); "containment" = i / min(na, nb) — the
    Broder max-containment, which flags subset/superset duplication that
    Jaccard misses when set sizes differ widely.

    Fully distributed: the per-doc shingle-set sizes stay a Dataset and are
    attached with two distributed unique-key joins (on a, then on b) — no
    driver-side dict of O(corpus) / O(candidate-docs) sizes, no broadcast.
    The joins run on joins.attach_unique (one sort-shuffle groupby each),
    NOT Dataset.join: candidate pairs are sparse, and Ray 2.49's hash-join
    aggregator crashes on hash partitions that receive no rows (see the
    dsjoin docstring; caught by the adversarial fuzz)."""
    inter_schema = pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), ("inter", pa.int64())]
    )
    # both inputs are MATERIALIZED by the callers, so count() is free and
    # sizes the bucket exchange to the data: a 257-row verify set through
    # the default 8*cpus buckets paid hundreds of near-empty reduce tasks
    # per attach (measured 7-12 s each); data-scaled buckets make it ~1 s.
    n = inter_ds.count() + sizes_ds.count()
    nb = max(4, min(64, -(-n // 512)))
    ja = _attach_unique(
        inter_ds, sizes_ds.rename_columns({"n": "na"}),
        "a", "doc_id", inter_schema, pa.schema([("na", pa.int64())]), nb=nb,
    )
    jb = _attach_unique(
        ja, sizes_ds.rename_columns({"n": "nb"}),
        "b", "doc_id",
        pa.schema(list(inter_schema) + [("na", pa.int64())]),
        pa.schema([("nb", pa.int64())]), nb=nb,
    )

    col = formula

    def score(t: pa.Table) -> pa.Table:
        it = t["inter"].to_numpy().astype(np.float64)
        na = t["na"].to_numpy().astype(np.float64)
        nb = t["nb"].to_numpy().astype(np.float64)
        if formula == "containment":
            j = it / np.minimum(na, nb)
        else:
            j = it / (na + nb - it)
        m = j >= threshold
        return pa.table(
            {
                "a": pc.cast(t["a"].filter(pa.array(m)), pa.int64()),
                "b": pc.cast(t["b"].filter(pa.array(m)), pa.int64()),
                col: pa.array(round_half_away(j[m], 4), type=pa.float64()),
            }
        )

    out = jb.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
    t = collect_table(
        out,
        empty_schema=pa.schema(
            [("a", pa.int64()), ("b", pa.int64()), (col, pa.float64())]
        ),
    )
    if t.num_rows == 0:
        return pa.table(
            {"a": pa.array([], type=pa.int64()), "b": pa.array([], type=pa.int64()),
             col: pa.array([], type=pa.float64())}
        )
    return t.take(pc.sort_indices(t, sort_keys=[("a", "ascending"), ("b", "ascending")]))


def _keep_latest(cache: dict, key, value) -> None:
    """Store ``value`` as the cache's ONLY entry: a process that walks
    several sf dirs, thresholds or caps keeps the latest result, never
    one table per key it has seen."""
    cache.clear()
    cache[key] = value


_HOT_SHINGLE_CACHE: dict[tuple, tuple[tuple, object]] = {}


def _global_hot_shingles(sf_dir: str, df_cap: int, op: str):
    """Distributed global shingle-df pass -> (materialized Dataset of
    shingles with df > cap, their count). Logged when non-empty — never a
    silent drop. Stays a DATASET: the hot set grows with corpus vocabulary
    at fixed cap, so it must never be required to fit on the driver.
    Memoized per (documents stamp, df_cap) — jaccard_pairs and
    minhash_lsh_pairs both need the identical hot set and otherwise each
    pay the full corpus df pass. The cache holds ONE entry (the latest
    key): each entry pins materialized object-store blocks, so a process
    that walks several sf dirs or caps must not keep them all alive."""
    stamp = _docs_stamp(sf_dir)
    hit = _HOT_SHINGLE_CACHE.get((stamp[0], df_cap))
    if hit and hit[0] == stamp:
        return hit[1]
    shingles = _read_documents(sf_dir).map_batches(
        _shingle_rows, batch_format="pyarrow", zero_copy_batch=True
    )
    hot_ds = _with_schema(
        _grouped_agg(
            shingles, ["shingle"], [("doc_id", "count", "df")],
            nb=_doc_buckets(sf_dir),
        )
        .filter(expr=f"df > {df_cap}")
        .select_columns(["shingle"]),
        pa.schema([("shingle", pa.string())]),
    ).materialize()
    n_hot = hot_ds.count()
    if n_hot:
        import logging

        logging.getLogger(__name__).warning(
            "%s: excluding %d shingles with df > %d from Jaccard sets",
            op, n_hot, df_cap,
        )
    out = (_compact(hot_ds), n_hot)
    _keep_latest(_HOT_SHINGLE_CACHE, (stamp[0], df_cap), (stamp, out))
    return out


def _drop_hot_stage(ds, hot):
    """Filter (doc_id, shingle) rows down to shingles NOT in the hot set.

    Two shapes by hot-set size: a small set broadcasts once (`ray.put` of
    an Arrow array, one `pc.is_in` C++ call per batch — no per-row Python);
    past HOT_SHINGLE_BROADCAST_MAX it switches to a distributed bucketed
    anti-join so no driver-held structure scales with vocabulary."""
    hot_ds, n_hot = hot
    if n_hot == 0:
        return ds
    shingle_schema = pa.schema([("doc_id", pa.int64()), ("shingle", pa.string())])
    if n_hot <= HOT_SHINGLE_BROADCAST_MAX:
        hot_arr = collect_table(hot_ds)["shingle"].combine_chunks()
        hot_ref = ray.put(hot_arr)

        def drop_hot(t: pa.Table) -> pa.Table:
            return t.filter(
                pc.invert(pc.is_in(t["shingle"], value_set=ray.get(hot_ref)))
            )

        return ds.map_batches(drop_hot, batch_format="pyarrow", zero_copy_batch=True)
    return _anti_join(ds, hot_ds, ["shingle"], shingle_schema)


WINNOW_DUP_FP_DF_CAP = 64   # fingerprints in more docs are boilerplate
WINNOW_DUP_MIN_SHARED = 2   # pair needs >= this many shared fingerprints


def winnow_dup_pairs(
    sf_dir: str,
    df_cap: int = WINNOW_DUP_FP_DF_CAP,
    min_shared: int = WINNOW_DUP_MIN_SHARED,
) -> pa.Table:
    """MOSS-style near-dup pairs over winnow fingerprints (Schleimer/
    Wilkerson/Aiken): doc pairs sharing >= ``min_shared`` distinct
    fingerprints, after dropping fingerprints with document frequency >
    ``df_cap`` (ubiquitous boilerplate would otherwise emit d^2/2 pairs).
    THE plagiarism/near-dup detector for a source-code corpus — robust to
    local edits because fingerprints are windowed k-gram minima.

    Frozen pair with sqlgen.winnow_dup_pairs_sql (same winnow CTE prelude
    as the winnow_rows twin — one copy, can't diverge).

    Scale shape: identical to jaccard_pairs — a deliberate 2-pass stream
    (global fingerprint-df pass -> hot drop by broadcast-or-anti-join,
    then the fat-bucket pair triangle), every stage vectorized, pair
    blowup bounded by the df cap. Fingerprint sets are ~20x smaller than
    shingle sets (the winnowing window keeps ~1/W of grams), so this is
    the CHEAPER near-dup signal at equal robustness."""
    from smse_backend_ray.pipelines.textstats import winnow_fingerprints_one

    def fp_rows(t: pa.Table) -> pa.Table:
        ids, fps = [], []
        for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            for v in winnow_fingerprints_one(text):
                ids.append(did)
                fps.append(str(v))
        # column named "shingle" so the shared dedup machinery
        # (_drop_hot_stage / _pairs_within_key) applies verbatim — the
        # column semantically is "the dedup key"
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "shingle": pa.array(fps, type=pa.string()),
            }
        )

    def rows_ds():
        return _read_documents(sf_dir).map_batches(
            fp_rows, batch_format="pyarrow", zero_copy_batch=True
        )

    nb = _doc_buckets(sf_dir)
    dfs = _grouped_agg(
        rows_ds(), ["shingle"], [("doc_id", "count", "df")], nb=nb
    )
    hot_ds = dfs.map_batches(
        lambda t: t.filter(pc.greater(t["df"], df_cap)).select(["shingle"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()
    n_hot = hot_ds.count()
    if n_hot:
        import logging

        logging.getLogger(__name__).warning(
            "winnow_dup_pairs: dropping %d fingerprints with df > %d",
            n_hot, df_cap,
        )
    kept = _drop_hot_stage(rows_ds(), (hot_ds, n_hot))
    inter = _grouped_agg(
        _pairs_within_key(kept, "shingle", nb=nb),
        ["a", "b"], [("n", "sum", "n_shared")], nb=nb,
    )
    out_schema = pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), ("n_shared", pa.int64())]
    )
    t = collect_table(
        inter.map_batches(
            lambda t: t.filter(pc.greater_equal(t["n_shared"], min_shared)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        empty_schema=out_schema,
    )
    t = pa.table(
        {
            "a": pc.cast(t["a"], pa.int64()),
            "b": pc.cast(t["b"], pa.int64()),
            "n_shared": pc.cast(t["n_shared"], pa.int64()),
        }
    )
    return t.take(
        pc.sort_indices(t, sort_keys=[("a", "ascending"), ("b", "ascending")])
    )


_JACCARD_CACHE: dict[tuple, tuple[tuple, pa.Table]] = {}


def _docs_stamp(sf_dir: str) -> tuple:
    """(path, size, mtime) stamp of the documents table (mtime alone is
    too coarse on second-granularity filesystems)."""
    path = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(path)
    return (path, st.st_size, st.st_mtime)


def jaccard_pairs(
    sf_dir: str,
    threshold: float = JACCARD_THRESHOLD,
    df_cap: int = JACCARD_SHINGLE_DF_CAP,
) -> pa.Table:
    """Exact shingle-Jaccard pairs via a distributed inverted shingle index.
    Shingles with global df > ``df_cap`` are dropped from every shingle set
    (sizes AND intersections; the SQL oracle AND the minhash verifier apply
    the identical cap), and the drop is logged — never silent.

    Deliberate 2-pass design: the corpus is shingled twice (once for the
    global hot-shingle df pass, once for sizes/intersections). Both passes
    STREAM with bounded memory; the 1-pass alternative — materializing the
    full (doc_id, shingle) row set to feed both consumers — pins tokens x
    docs rows in the object store, which is the wrong trade at 100 TB.

    The verified pair table of the LATEST (documents stamp, threshold,
    df_cap) is memoized: dedup_clusters and dedup_survivors both start
    from these pairs, and each gate entry otherwise re-runs the full
    two-pass shingle sweep."""
    ckey = (_docs_stamp(sf_dir), float(threshold), int(df_cap))
    hit = _JACCARD_CACHE.get(ckey[1:])
    if hit and hit[0] == ckey[0]:
        return hit[1]
    inter, sizes_ds = _shingle_inter_sizes(sf_dir, df_cap, "jaccard_pairs")
    out = _score_jaccard(inter, sizes_ds, threshold)
    _keep_latest(_JACCARD_CACHE, ckey[1:], (ckey[0], out))
    _release_candidates(ckey[0], int(df_cap))
    return out


_SHINGLE_CAND_CACHE: dict[tuple, tuple[tuple, tuple]] = {}


def _release_candidates(stamp: tuple, df_cap: int) -> None:
    """Drop the shared candidate tables of (documents, df_cap) once BOTH
    jaccard_pairs and containment_pairs have cached a scored table for them:
    the tables pin materialized object-store blocks, and the two scored
    caches now answer every repeat call. A call with a new threshold
    recomputes the candidate pass."""
    def scored(cache: dict) -> bool:
        return any(k[1] == df_cap and v[0] == stamp for k, v in cache.items())

    if scored(_JACCARD_CACHE) and scored(_CONTAIN_CACHE):
        _SHINGLE_CAND_CACHE.pop((stamp[0], df_cap), None)


def _shingle_inter_sizes(sf_dir: str, df_cap: int, op: str):
    """The shared exact-overlap candidate pass: hot-capped shingle stream
    -> (materialized candidate-pair intersections, materialized per-doc
    set sizes). jaccard_pairs and containment_pairs consume the SAME
    tables (memoized per (documents stamp, df_cap)) and differ only in
    the score formula applied on top."""
    stamp = _docs_stamp(sf_dir)
    hit = _SHINGLE_CAND_CACHE.get((stamp[0], int(df_cap)))
    if hit and hit[0] == stamp:
        return hit[1]

    docs = _read_documents(sf_dir)
    shingles = docs.map_batches(_shingle_rows, batch_format="pyarrow", zero_copy_batch=True)
    shingles = _drop_hot_stage(
        shingles, _global_hot_shingles(sf_dir, df_cap, op)
    )

    # doc shingle-set sizes: stays a DATASET (joined in _score_jaccard, never
    # a driver dict — O(corpus) entries at scale). Materialized because the
    # scorer joins it twice; it is (doc_id, n) rows, tiny next to the corpus.
    nb_doc = _doc_buckets(sf_dir)
    sizes_ds = _compact(_grouped_agg(
        shingles, ["doc_id"], [("shingle", "count", "n")], nb=nb_doc
    ).materialize())

    # MATERIALIZE the candidate-pair table before scoring: chaining the
    # whole thing into one lazy DAG stacks 4+ sort stages into a single
    # streaming execution, which measured ~4x slower than staged runs
    # (BASELINE.md round-3 dedup notes); inter is candidate-bounded, so the
    # checkpoint is small by construction.
    inter = _compact(_grouped_agg(
        _pairs_within_key(shingles, "shingle", nb=nb_doc),
        ["a", "b"], [("n", "sum", "inter")], nb=nb_doc,
    ).materialize())
    _SHINGLE_CAND_CACHE[(stamp[0], int(df_cap))] = (stamp, (inter, sizes_ds))
    return inter, sizes_ds


CONTAIN_THRESHOLD = 0.9


def containment_pairs(
    sf_dir: str,
    threshold: float = CONTAIN_THRESHOLD,
    df_cap: int = JACCARD_SHINGLE_DF_CAP,
) -> pa.Table:
    """Exact shingle max-containment pairs (Broder): containment =
    i / min(na, nb) over the SAME hot-capped shingle sets as
    jaccard_pairs. The asymmetric signal Jaccard misses — a short doc
    fully embedded in a long one scores containment 1.0 but Jaccard
    ~na/nb, so quote/boilerplate/subset duplication needs this operator.

    Frozen pair with sqlgen.containment_pairs_sql — the ONE
    sqlgen._overlap_pairs_cte candidate prelude both twins share; score
    = round4(i / least(na, nb) in DOUBLE), threshold compared on the RAW
    double (like Jaccard).

    Scale shape: identical to jaccard_pairs — the candidate pass is the
    shared memoized _shingle_inter_sizes tables, so running both signals
    costs ONE shingle sweep."""
    ckey = (_docs_stamp(sf_dir), float(threshold), int(df_cap))
    hit = _CONTAIN_CACHE.get(ckey[1:])
    if hit and hit[0] == ckey[0]:
        return hit[1]
    inter, sizes_ds = _shingle_inter_sizes(sf_dir, df_cap, "containment_pairs")
    out = _score_jaccard(inter, sizes_ds, threshold, formula="containment")
    _keep_latest(_CONTAIN_CACHE, ckey[1:], (ckey[0], out))
    _release_candidates(ckey[0], int(df_cap))
    return out


_CONTAIN_CACHE: dict[tuple, tuple[tuple, pa.Table]] = {}


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup (scale path; verified against exact Jaccard)
# ---------------------------------------------------------------------------

_MINHASH_C1 = np.array(
    [0x9E3779B97F4A7C15 * (p + 1) & 0xFFFFFFFFFFFFFFFF for p in range(MINHASH_PERMS)],
    dtype=np.uint64,
)
_MINHASH_C2 = np.uint64(0xBF58476D1CE4E5B9)


def _minhash_sig(shingles: list[str]) -> np.ndarray | None:
    """Scalar reference (frozen; _minhash_sig_batch must match bitwise)."""
    if not shingles:
        return None
    # deterministic hash per (perm, shingle): md5(perm || shingle) first 8B
    sig = np.full(MINHASH_PERMS, np.iinfo(np.uint64).max, dtype=np.uint64)
    base = np.array(
        [
            struct.unpack("<Q", hashlib.md5(s.encode()).digest()[:8])[0]
            for s in shingles
        ],
        dtype=np.uint64,
    )
    # 64 cheap xor-multiply permutations of the base hash (splitmix-style)
    for p in range(MINHASH_PERMS):
        x = base ^ np.uint64(0x9E3779B97F4A7C15 * (p + 1) & 0xFFFFFFFFFFFFFFFF)
        x = (x * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        x ^= x >> np.uint64(31)
        sig[p] = x.min()
    return sig


def _minhash_sig_batch(shingle_lists: list[list[str]]) -> np.ndarray:
    """Vectorized signatures for a whole batch: ONE (rows x 64) permutation
    matrix + per-doc minimum.reduceat, instead of 64 tiny numpy ops per doc.
    Returns (n_docs, 64) uint64; rows for shingle-less docs are all-ones
    (the scalar path's None). Bitwise-equal to _minhash_sig (tested)."""
    counts = np.fromiter((len(s) for s in shingle_lists), dtype=np.int64,
                         count=len(shingle_lists))
    out = np.full((len(shingle_lists), MINHASH_PERMS),
                  np.iinfo(np.uint64).max, dtype=np.uint64)
    total = int(counts.sum())
    if not total:
        return out
    base = np.fromiter(
        (
            struct.unpack("<Q", hashlib.md5(s.encode()).digest()[:8])[0]
            for lst in shingle_lists
            for s in lst
        ),
        dtype=np.uint64,
        count=total,
    )
    x = base[:, None] ^ _MINHASH_C1[None, :]
    x = x * _MINHASH_C2  # uint64 wraps mod 2^64
    x ^= x >> np.uint64(31)
    nz = counts > 0
    offsets = np.concatenate(([0], np.cumsum(counts)))[:-1][nz]
    out[nz] = np.minimum.reduceat(x, offsets, axis=0)
    return out


def minhash_lsh_pairs(
    sf_dir: str,
    threshold: float = JACCARD_THRESHOLD,
    df_cap: int = JACCARD_SHINGLE_DF_CAP,
) -> pa.Table:
    """LSH candidate generation + DISTRIBUTED exact-Jaccard verification.
    Output schema == jaccard_pairs (pairs it found; high recall, verified
    precision). Verification applies the SAME global shingle df cap as
    jaccard_pairs (one extra distributed df pass), so verified values are
    identical to the exact path even on corpora with hot shingles.

    Scale shape: only band-bucket collisions shuffle, and the candidate pair
    set STAYS A DATASET end to end — the driver never holds a pair list, a
    doc-id list, or a sizes dict (all were O(candidates) broadcasts before).
    Candidate docs are selected with a distributed semi-join against the
    corpus, re-shingled in map_batches, intersections counted with a
    shingle-group shuffle over candidate docs only, then restricted to the
    LSH candidate pairs with a (a, b) semi-join and scored via sizes joins
    (_score_jaccard). All joins here run on joins.semi_join /
    joins.attach_unique (sort-shuffle, empty-partition-safe) — candidate
    sets are sparse and Ray's hash-join aggregator crashes on empty hash
    partitions (dsjoin docstring)."""
    from ray.data.aggregate import Count

    def band_rows(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        lists = [doc_shingles(x) for x in texts]
        sigs = _minhash_sig_batch(lists)  # one matrix op for the whole batch
        r = MINHASH_PERMS // LSH_BANDS
        dids, keys = [], []
        for did, lst, sig in zip(t["doc_id"].to_pylist(), lists, sigs):
            if not lst:
                continue
            for b in range(LSH_BANDS):
                h = hashlib.md5(sig[b * r : (b + 1) * r].tobytes()).hexdigest()[:16]
                dids.append(did)
                keys.append(f"{b}:{h}")  # band folded into the bucket key
        return pa.table(
            {
                "doc_id": pa.array(dids, type=pa.int64()),
                "bkey": pa.array(keys, type=pa.string()),
            }
        )

    empty = pa.table(
        {"a": pa.array([], type=pa.int64()), "b": pa.array([], type=pa.int64()),
         "jaccard": pa.array([], type=pa.float64())}
    )

    # candidate pairs, distinct-ed distributed; STAYS a Dataset (materialized
    # in the object store — O(LSH collisions), never on the driver). A pair
    # colliding in k bands shuffles k rows but survives distinct-ing once.
    from ray.data.aggregate import Sum

    nb_doc = _doc_buckets(sf_dir)
    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    cands = _with_schema(
        _grouped_agg(
            _pairs_within_key(
                _read_documents(sf_dir).map_batches(
                    band_rows, batch_format="pyarrow", zero_copy_batch=True
                ),
                "bkey",
                nb=nb_doc,
            ),
            ["a", "b"],
            [("n", "sum", "n_bands")],
            nb=nb_doc,
        ).select_columns(["a", "b"]),
        pair_schema,
    ).materialize()
    cands = _compact(cands)
    if cands.count() == 0:
        return empty

    # candidate doc ids, distinct-ed distributed
    need_ids = _with_schema(
        _grouped_agg(
            cands.select_columns(["a"]).rename_columns({"a": "doc_id"})
            .union(cands.select_columns(["b"]).rename_columns({"b": "doc_id"})),
            ["doc_id"],
            [("doc_id", "count", "_c")],
            nb=nb_doc,
        ).select_columns(["doc_id"]),
        pa.schema([("doc_id", pa.int64())]),
    )

    # distributed verification over candidate docs only, selected with a
    # semi-join (no O(candidates) isin literal in the read filter);
    # materialized because two consumers (sizes, intersections) read it —
    # bounded by the candidate set, not the corpus. The hot-shingle cap
    # matches jaccard_pairs exactly.
    cand_shingles = _drop_hot_stage(
        _semi_join(
            _read_documents(sf_dir), need_ids, ["doc_id"],
            pa.schema([("doc_id", pa.int64()), ("text", pa.string())]),
            nb=nb_doc,
        )
        .map_batches(_shingle_rows, batch_format="pyarrow", zero_copy_batch=True),
        _global_hot_shingles(sf_dir, df_cap, "minhash_lsh_pairs"),
    ).materialize()
    cand_shingles = _compact(cand_shingles)
    sizes_ds = _compact(_grouped_agg(
        cand_shingles, ["doc_id"], [("shingle", "count", "n")], nb=nb_doc
    ).materialize())

    # all shingle-co-occurrence pairs among candidate docs (bounded by the
    # hot-shingle df cap), then restricted to the LSH candidate pairs with a
    # distributed semi-join — no broadcast pair set.
    inter = _semi_join(
        _with_schema(
            _grouped_agg(
                _pairs_within_key(cand_shingles, "shingle", nb=nb_doc),
                ["a", "b"],
                [("n", "sum", "inter")],
                nb=nb_doc,
            ),
            pa.schema([("a", pa.int64()), ("b", pa.int64()), ("inter", pa.int64())]),
        ),
        cands, ["a", "b"],
        pa.schema([("a", pa.int64()), ("b", pa.int64()), ("inter", pa.int64())]),
        nb=nb_doc,
    ).materialize()  # candidate-bounded checkpoint (see jaccard_pairs note)
    inter = _compact(inter)
    return _score_jaccard(inter, sizes_ds, threshold)


# ---------------------------------------------------------------------------
# SimHash fingerprints + near-dup pairs
# ---------------------------------------------------------------------------

def simhash64(text: str) -> int:
    """Scalar reference simhash (the frozen definition; the batch path
    below must match it bit for bit — tested)."""
    toks = split_subtokens(text or "")
    if not toks:
        return 0
    acc = np.zeros(64, dtype=np.int64)
    for t in toks:
        h = struct.unpack("<Q", hashlib.md5(t.encode()).digest()[:8])[0]
        bits = (np.uint64(h) >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        acc += np.where(bits.astype(bool), 1, -1)
    out = np.uint64(0)
    for i in range(64):
        if acc[i] > 0:
            out |= np.uint64(1) << np.uint64(i)
    return int(out)


_BIT_WEIGHTS = np.uint64(1) << np.arange(64, dtype=np.uint64)


_SIMHASH_CHUNK_TOKENS = 1 << 18  # 256k tokens -> <=64 MB int32 bit matrix


def simhash_batch(texts: list[str]) -> np.ndarray:
    """Vectorized simhash64 over a batch: per-token md5 (C-speed) is the only
    per-item pass; the ±1 bit accumulation runs in bounded token chunks
    (reduceat per contiguous doc run + scatter-add of the tiny per-run
    partials), so peak memory is ~64 MB regardless of batch text volume and
    arbitrarily large single docs are handled. Integer adds — order-free,
    bit-identical to the scalar simhash64."""
    counts = np.zeros(len(texts), dtype=np.int64)
    flat: list[int] = []
    for i, txt in enumerate(texts):
        toks = split_subtokens(txt or "")
        counts[i] = len(toks)
        flat.extend(
            struct.unpack("<Q", hashlib.md5(t.encode()).digest()[:8])[0] for t in toks
        )
    out = np.zeros(len(texts), dtype=np.uint64)
    if not flat:
        return out
    h = np.array(flat, dtype=np.uint64)
    doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
    shifts = np.arange(64, dtype=np.uint64)[None, :]
    acc = np.zeros((len(texts), 64), dtype=np.int64)
    for s in range(0, h.size, _SIMHASH_CHUNK_TOKENS):
        sl = slice(s, s + _SIMHASH_CHUNK_TOKENS)
        pm = 2 * ((h[sl, None] >> shifts) & np.uint64(1)).astype(np.int32) - 1
        di = doc_idx[sl]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(di)) + 1))
        part = np.add.reduceat(pm, starts, axis=0)  # per contiguous doc run
        np.add.at(acc, di[starts], part)
    nz = np.flatnonzero(counts)
    out[nz] = ((acc[nz] > 0).astype(np.uint64) * _BIT_WEIGHTS[None, :]).sum(axis=1)
    return out


def _popcount64(x: np.ndarray) -> np.ndarray:
    if not x.size:
        return np.zeros(0, dtype=np.int64)
    return np.unpackbits(np.ascontiguousarray(x).view(np.uint8)).reshape(-1, 64).sum(axis=1)


# banding recall cap SIMHASH_BUCKET_CAP (imported from config.py —
# single-sourced with the DuckDB oracle): buckets larger than it are skipped
# (and LOGGED — a 16-bit chunk shared by that many docs carries ~no near-dup
# signal, but the drop is surfaced, never silent)


def simhash_pairs(sf_dir: str, max_hamming: int = SIMHASH_MAX_HAMMING) -> pa.Table:
    """Near-dup pairs by simhash hamming distance, banded by 16-bit chunks
    (a pair within hamming<=3 must agree on >=1 of 4 chunks).

    Fully distributed: hash in map_batches, band via groupby(chunk bucket),
    pair + exact-hamming-verify INSIDE each bucket group (every group row
    carries the full 64-bit hash), then a distributed (a, b) dedupe — the
    driver never sees the hash set, only the final pair table. The shuffle
    carries 4 rows of (bucket, doc_id, simhash) per doc.
    """

    def sh_batch(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "simhash": pa.array(simhash_batch(t["text"].to_pylist()), type=pa.uint64()),
            }
        )

    def chunk_rows(t: pa.Table) -> pa.Table:
        h = np.asarray(t["simhash"])
        d = np.asarray(t["doc_id"])
        keys, dids, hs = [], [], []
        for c in range(4):
            val = ((h >> np.uint64(16 * c)) & np.uint64(0xFFFF)).astype(np.int64)
            keys.append((np.int64(c) << np.int64(16)) | val)  # bucket key = chunk || value
            dids.append(d)
            hs.append(h)
        return pa.table(
            {
                "bkey": pa.array(np.concatenate(keys), type=pa.int64()),
                "doc_id": pa.array(np.concatenate(dids), type=pa.int64()),
                "simhash": pa.array(np.concatenate(hs), type=pa.uint64()),
            }
        )

    def pair_group(g: pa.Table) -> pa.Table:
        """MANY 16-bit-chunk keys per FAT group, vectorized (a per-key
        map_groups would pay the Ray per-small-unit tax over <=262k keys):
        lexsort by (bkey, doc_id) -> segment bounds -> per-segment cap
        markers -> upper-triangle pair expansion -> one popcount verify."""
        empty = pa.table(
            {"a": pa.array([], type=pa.int64()), "b": pa.array([], type=pa.int64()),
             "hamming": pa.array([], type=pa.int64())}
        )
        if g.num_rows < 2:
            return empty
        bk = g["bkey"].to_numpy()
        d = g["doc_id"].to_numpy()
        h = g["simhash"].to_numpy()
        order = np.lexsort((d, bk))
        bk, d, h = bk[order], d[order], h[order]
        newseg = np.empty(len(bk), dtype=bool)
        newseg[0] = True
        newseg[1:] = bk[1:] != bk[:-1]
        seg_id = np.cumsum(newseg) - 1
        seg_start = np.flatnonzero(newseg)
        seg_sizes = np.diff(np.concatenate((seg_start, [len(bk)])))
        oversized = seg_sizes > SIMHASH_BUCKET_CAP
        out_tabs = []
        if oversized.any():
            out_tabs.append(pa.table(
                {"a": pa.array(np.full(int(oversized.sum()), -1), type=pa.int64()),
                 "b": pa.array(bk[seg_start[oversized]], type=pa.int64()),
                 "hamming": pa.array(-seg_sizes[oversized], type=pa.int64())}
            ))
        local_pos = np.arange(len(bk)) - seg_start[seg_id]
        pairable = ~oversized[seg_id]
        eff_pos = np.where(pairable, local_pos, 0)
        total = int(eff_pos.sum())
        if total:
            b_idx = np.repeat(np.arange(len(bk)), eff_pos)
            starts = np.repeat(seg_start[seg_id], eff_pos)
            csum = np.concatenate(([0], np.cumsum(eff_pos)))
            within = np.arange(total) - np.repeat(csum[:-1], eff_pos)
            a_idx = starts + within
            dist = _popcount64(h[a_idx] ^ h[b_idx])
            keep = dist <= max_hamming
            out_tabs.append(pa.table(
                {"a": pa.array(d[a_idx][keep], type=pa.int64()),
                 "b": pa.array(d[b_idx][keep], type=pa.int64()),
                 "hamming": pa.array(dist[keep], type=pa.int64())}
            ))
        return pa.concat_tables(out_tabs) if out_tabs else empty

    from smse_backend_ray.functions.joins import _bucket_of

    nbk = _doc_buckets(sf_dir)

    def fatten(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__fb", pa.array(_bucket_of(t, ["bkey"], nbk), type=pa.int64())
        )

    pairs_ds = _grouped_agg(
        _read_documents(sf_dir)
        .map_batches(sh_batch, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(chunk_rows, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(fatten, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__fb")
        .map_groups(pair_group, batch_format="pyarrow"),
        # a pair can surface from up to 4 chunks: distributed dedupe (the
        # min is chunk-independent — hamming is a pair property)
        ["a", "b"],
        [("hamming", "min", "hamming")],
        nb=nbk,
    )
    t = collect_table(pairs_ds)
    markers = t.filter(pc.equal(t["a"], -1))
    if markers.num_rows:
        import logging

        logging.getLogger(__name__).warning(
            "simhash_pairs: skipped %d oversized banding buckets "
            "(cap %d; %d member rows) — banding recall reduced in those buckets",
            markers.num_rows,
            SIMHASH_BUCKET_CAP,
            -int(pc.sum(markers["hamming"]).as_py()),
        )
        t = t.filter(pc.not_equal(t["a"], -1))
    t = pa.table(
        {
            "a": t["a"],
            "b": t["b"],
            "hamming": pc.cast(t["hamming"], pa.int32()),
        }
    )
    return t.take(pc.sort_indices(t, sort_keys=[("a", "ascending"), ("b", "ascending")]))


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------

def embedding_dup_pairs(
    sf_dir: str, threshold: float = EMB_DUP_THRESHOLD, block_rows: int = 4096
) -> pa.Table:
    """Exact pairs (a < b) with cosine >= threshold, as a DISTRIBUTED
    block-pair sweep: vec_id space is cut into fixed ranges and one Ray task
    per (block_i <= block_j) pair reads JUST those two ranges via parquet
    predicate pushdown and does one float64 matmul. Nothing is broadcast and
    the driver never holds a vector — memory is O(block²) per task while the
    (inherent for an exact all-pairs op) O(N²) compute spreads over
    nb*(nb+1)/2 tasks. The IVF-bucketed variant below is the sub-quadratic
    scale path."""
    from math import ceil

    from ray.data.aggregate import Count, Max, Min

    path = os.path.join(sf_dir, "embeddings.parquet")
    mm = read_table(sf_dir, "embeddings", ["vec_id"], repartition=False).aggregate(
        Count(alias_name="n"), Min("vec_id", alias_name="lo"), Max("vec_id", alias_name="hi")
    )
    if not mm["n"]:
        return pa.table(
            {"a": pa.array([], type=pa.int64()), "b": pa.array([], type=pa.int64()),
             "cosine": pa.array([], type=pa.float64())}
        )
    lo, hi = int(mm["lo"]), int(mm["hi"])
    # number of blocks derives from the ROW count (id VALUES may be sparse —
    # value-derived block counts would explode the task grid); block
    # boundaries split the id VALUE range evenly into that many pieces
    nb = max(1, ceil(int(mm["n"]) / block_rows))
    span = hi - lo + 1
    bounds = [lo + (span * i) // nb for i in range(nb)] + [hi + 1]

    def rng(i: int) -> tuple[int, int]:
        return bounds[i], bounds[i + 1]

    tasks = [{"i": i, "j": j} for i in range(nb) for j in range(i, nb)]

    def pair_block(batch: pa.Table) -> pa.Table:
        import pyarrow.dataset as pads

        dset = pads.dataset(path)

        def load(i: int):
            a, b = rng(i)
            t = dset.to_table(
                columns=["vec_id", "embedding"],
                filter=(pads.field("vec_id") >= a) & (pads.field("vec_id") < b),
            )
            ids = np.asarray(t["vec_id"])
            M = _emb_matrix(t["embedding"])
            return ids, M, np.sqrt((M * M).sum(axis=1))

        outs = []
        for i, j in zip(batch["i"].to_pylist(), batch["j"].to_pylist()):
            ia, Ma, na = load(i)
            ib, Mb, nbn = (ia, Ma, na) if i == j else load(j)
            if not len(ia) or not len(ib):
                continue
            sims = (Ma @ Mb.T) / np.outer(na, nbn)
            ri, cj = np.nonzero((sims >= threshold) & (ia[:, None] < ib[None, :]))
            outs.append(
                pa.table(
                    {
                        "a": pa.array(ia[ri], type=pa.int64()),
                        "b": pa.array(ib[cj], type=pa.int64()),
                        "cosine": pa.array(
                            round_half_away(sims[ri, cj], 4), type=pa.float64()
                        ),
                    }
                )
            )
        if not outs:
            return pa.table(
                {"a": pa.array([], type=pa.int64()), "b": pa.array([], type=pa.int64()),
                 "cosine": pa.array([], type=pa.float64())}
            )
        return pa.concat_tables(outs)

    out = ray.data.from_items(tasks).map_batches(
        pair_block, batch_format="pyarrow", batch_size=1
    )
    t = collect_table(out)
    return t.take(pc.sort_indices(t, sort_keys=[("a", "ascending"), ("b", "ascending")]))


def embedding_dup_pairs_ivf(
    sf_dir: str,
    threshold: float = EMB_DUP_THRESHOLD,
    assign_probes: int = 2,
) -> pa.Table:
    """Sub-quadratic near-dup blocking via the IVF cluster layout
    (pipelines/simsearch.build_ivf_index): each vector is assigned to its
    ``assign_probes`` nearest centroids, pairs are generated ONLY within a
    shared cluster (groupby(cluster) shuffle, O(sum cluster²) compute), then
    deduped distributed. High recall for cosine-similar pairs (similar
    vectors land in the same or adjacent Voronoi cells — multi-assignment
    covers the boundaries); precision exact (cosines verified in-group).
    Rows-only gate + recall test vs the exact sweep."""
    from ray.data.aggregate import Max

    from smse_backend_ray.pipelines.simsearch import build_ivf_index

    _, cents = build_ivf_index(sf_dir)
    cents_ref = ray.put(cents)

    def assign_rows(t: pa.Table) -> pa.Table:
        C = ray.get(cents_ref)
        V = _emb_matrix(t["embedding"])
        d = ((V[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        near = np.argsort(d, axis=1, kind="stable")[:, :assign_probes]
        ids = np.asarray(t["vec_id"])
        emb = t["embedding"]
        parts = []
        for p in range(assign_probes):
            parts.append(
                pa.table(
                    {
                        "cluster": pa.array(near[:, p].astype(np.int32), type=pa.int32()),
                        "vec_id": pa.array(ids, type=pa.int64()),
                        "embedding": emb,
                    }
                )
            )
        return pa.concat_tables(parts)

    def pair_group(g: pa.Table) -> pa.Table:
        ids = np.asarray(g["vec_id"])
        order = np.argsort(ids, kind="stable")
        # multi-assignment can duplicate a vec within a group via different
        # probes only across groups, but be safe: distinct vec_ids
        uniq_mask = np.concatenate(([True], np.diff(ids[order]) != 0))
        sel = order[uniq_mask]
        ids = ids[sel]
        M = _emb_matrix(g["embedding"].take(pa.array(sel)))
        if len(ids) < 2:
            return pa.table(
                {"a": pa.array([], type=pa.int64()), "b": pa.array([], type=pa.int64()),
                 "cosine": pa.array([], type=pa.float64())}
            )
        n = np.sqrt((M * M).sum(axis=1))
        sims = (M @ M.T) / np.outer(n, n)
        ri, cj = np.nonzero((sims >= threshold) & (ids[:, None] < ids[None, :]))
        return pa.table(
            {
                "a": pa.array(ids[ri], type=pa.int64()),
                "b": pa.array(ids[cj], type=pa.int64()),
                "cosine": pa.array(round_half_away(sims[ri, cj], 4), type=pa.float64()),
            }
        )

    out = (
        read_table(sf_dir, "embeddings", ["vec_id", "embedding"])
        .map_batches(assign_rows, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("cluster")
        .map_groups(pair_group, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Max("cosine", alias_name="cosine"))
    )
    t = collect_table(out)
    return t.take(pc.sort_indices(t, sort_keys=[("a", "ascending"), ("b", "ascending")]))


# recall the IVF blocking must clear vs the exact sweep on the gate corpus
# (checked entry below + tests/test_pipelines.py — change both or neither)
IVF_DEDUP_RECALL_FLOOR = 0.5


def embedding_dup_pairs_ivf_checked(
    sf_dir: str, threshold: float = EMB_DUP_THRESHOLD
) -> pa.Table:
    """Self-validating IVF near-dup entry: runs the IVF-blocked sweep AND
    the exact sweep, then asserts the two invariants the SQL oracle cannot
    express — (1) precision is exact (IVF pairs ⊆ exact pairs: every
    returned cosine really clears the threshold) and (2) recall ≥
    IVF_DEDUP_RECALL_FLOOR. The driver's rows-only gate therefore rides on
    a checked output, not an unchecked one. Gate-scale only (the exact
    sweep is O(N²) by definition); the unchecked embedding_dup_pairs_ivf
    is the production path."""
    ivf = embedding_dup_pairs_ivf(sf_dir, threshold)
    exact = embedding_dup_pairs(sf_dir, threshold)
    ip = set(zip(ivf["a"].to_pylist(), ivf["b"].to_pylist()))
    ep = set(zip(exact["a"].to_pylist(), exact["b"].to_pylist()))
    if ip - ep:
        raise AssertionError(
            f"IVF emitted {len(ip - ep)} pairs absent from the exact sweep"
        )
    recall = (len(ip & ep) / len(ep)) if ep else 1.0
    if recall < IVF_DEDUP_RECALL_FLOOR:
        raise AssertionError(
            f"IVF blocking recall {recall:.3f} < floor {IVF_DEDUP_RECALL_FLOOR}"
        )
    return ivf


# ---------------------------------------------------------------------------
# Near-dup clusters: connected components over verified pairs
# ---------------------------------------------------------------------------

CLUSTER_MAX_ITERS = 64


def _cc_emit_msgs(g: pa.Table) -> pa.Table:
    """One key group = a node's label row (dst null) + its outgoing edges.
    Emit the node's label as a candidate to itself and every neighbor."""
    dst = g["dst"]
    is_lbl = pc.is_null(dst).to_numpy(zero_copy_only=False)
    lbl = int(pc.min(g["lbl"].filter(pa.array(is_lbl))).as_py())
    key = int(g["key"][0].as_py())
    neigh = g["dst"].filter(pa.array(~is_lbl)).to_pylist()
    nodes = [key] + neigh
    return pa.table(
        {
            "node": pa.array(nodes, type=pa.int64()),
            "cand": pa.array([lbl] * len(nodes), type=pa.int64()),
            "own": pa.array([True] + [False] * len(neigh)),
        }
    )


def _cc_min_reduce(g: pa.Table) -> pa.Table:
    """One node group: new label = min candidate; changed vs own label."""
    node = int(g["node"][0].as_py())
    cands = g["cand"].to_numpy()
    old = int(pc.min(g["cand"].filter(g["own"])).as_py())
    new = int(cands.min())
    return pa.table(
        {
            "node": pa.array([node], type=pa.int64()),
            "label": pa.array([new], type=pa.int64()),
            "changed": pa.array([1 if new < old else 0], type=pa.int64()),
        }
    )


def _cc_jump_emit(g: pa.Table) -> pa.Table:
    """One key group k = a node id: k's label row (req null) + jump requests
    from every node u whose label is k. Emit (u, label(k)) per requester —
    the pointer-doubling step label'(u) = label(label(u)) as one shuffle."""
    req = g["req"]
    is_lbl = pc.is_null(req).to_numpy(zero_copy_only=False)
    lk = int(pc.min(g["lbl"].filter(pa.array(is_lbl))).as_py())
    requesters = req.filter(pa.array(~is_lbl))
    return pa.table(
        {
            "node": pc.cast(requesters, pa.int64()),
            "label": pa.array([lk] * len(requesters), type=pa.int64()),
        }
    )


def _cc_labels_driver(
    edges_t: pa.Table, max_iters: int
) -> tuple[pa.Table, int, bool]:
    """Driver-side twin of the distributed _cc_labels rounds (numpy over
    compact node indices): per round, new(u) = min(label(u), min over
    edges of label(v)), then one pointer jump new = new[new]. Node ids map
    to sorted compact indices, so index order == id order and the
    component-min index maps back to the component-min doc_id."""
    nodes = np.unique(edges_t["u"].to_numpy(zero_copy_only=False))
    u = np.searchsorted(nodes, edges_t["u"].to_numpy(zero_copy_only=False))
    v = np.searchsorted(nodes, edges_t["v"].to_numpy(zero_copy_only=False))
    lab = np.arange(len(nodes), dtype=np.int64)
    rounds, converged = 0, False
    for _ in range(max_iters):
        rounds += 1
        new = lab.copy()
        np.minimum.at(new, u, lab[v])
        new = new[new]  # pointer jump (labels are compact indices, lab(x) <= x)
        if np.array_equal(new, lab):
            converged = True
            break
        lab = new
    out = pa.table(
        {
            "node": pa.array(nodes, type=pa.int64()),
            "label": pa.array(nodes[lab], type=pa.int64()),
        }
    )
    return out, rounds, converged


def _cc_labels(edges_t: pa.Table, max_iters: int) -> tuple[pa.Table, int, bool]:
    """Distributed connected components over a bidirectional (u, v) edge
    table -> ((node, label=component min) table, rounds used, converged).

    Each round = min-label propagation over neighbors (two bounded groupbys
    over label ∪ edge rows) followed by one POINTER-JUMP shuffle
    (label'(u) = label(label(u)) — valid because label values are always
    node ids in the same component with label(x) <= x, so jumping is
    monotone and component-preserving). The jump makes convergence
    O(log diameter) rounds instead of O(diameter): a 200-link chain closes
    in ~8 rounds, not 200 (tests pin this). Convergence is checked with a
    scalar aggregate on the min step — its fixpoint implies labels are
    constant per component, hence the component min.

    Edge tables at or under config.CC_DRIVER_MAX rows run the SAME
    iteration in numpy on the driver (the verified pair set is
    candidate-bounded; at gate scale the distributed rounds cost ~2 s of
    pure exchange latency per round for <100 edges). Identical labels by
    construction — min-propagation + pointer jumping over compact node
    indices, component-preserving either way (tested equal)."""
    from smse_backend_ray import config as _config

    if edges_t.num_rows <= _config.CC_DRIVER_MAX:
        return _cc_labels_driver(edges_t, max_iters)
    nodes = pc.unique(edges_t["u"])
    edges = ray.data.from_arrow(edges_t).materialize()
    labels = ray.data.from_arrow(
        pa.table({"node": nodes, "label": nodes})
    ).materialize()

    def lbl_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": t["node"],
                "dst": pa.nulls(t.num_rows, type=pa.int64()),
                "lbl": t["label"],
            }
        )

    def edge_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": t["u"],
                "dst": t["v"],
                "lbl": pa.nulls(t.num_rows, type=pa.int64()),
            }
        )

    def jump_lbl_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": t["node"],
                "req": pa.nulls(t.num_rows, type=pa.int64()),
                "lbl": t["label"],
            }
        )

    def jump_req_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": t["label"],
                "req": t["node"],
                "lbl": pa.nulls(t.num_rows, type=pa.int64()),
            }
        )

    rounds, converged = 0, False
    for _ in range(max_iters):
        rounds += 1
        msgs = (
            labels.map_batches(lbl_rows, batch_format="pyarrow", zero_copy_batch=True)
            .union(
                edges.map_batches(
                    edge_rows, batch_format="pyarrow", zero_copy_batch=True
                )
            )
            .groupby("key")
            .map_groups(_cc_emit_msgs, batch_format="pyarrow")
        )
        new = (
            msgs.groupby("node")
            .map_groups(_cc_min_reduce, batch_format="pyarrow")
            .materialize()
        )
        changed = new.sum("changed")
        labels = new.drop_columns(["changed"]).materialize()
        if not changed:
            converged = True
            break
        labels = (
            labels.map_batches(
                jump_lbl_rows, batch_format="pyarrow", zero_copy_batch=True
            )
            .union(
                labels.map_batches(
                    jump_req_rows, batch_format="pyarrow", zero_copy_batch=True
                )
            )
            .groupby("key")
            .map_groups(_cc_jump_emit, batch_format="pyarrow")
            .materialize()
        )
    return collect_table(labels), rounds, converged


def _clusters_from_pairs(
    pairs: pa.Table, max_iters: int, op_name: str
) -> pa.Table:
    """Shared CC tail for every pair-producing dedup signal: (a, b) pair
    table -> (doc_id, cluster_id = component-min doc_id, cluster_size),
    sorted by doc_id. See _cc_labels for the distributed iteration shape;
    ``op_name`` labels the non-convergence warning."""
    empty = pa.table(
        {
            "doc_id": pa.array([], type=pa.int64()),
            "cluster_id": pa.array([], type=pa.int64()),
            "cluster_size": pa.array([], type=pa.int64()),
        }
    )
    if pairs.num_rows == 0:
        return empty

    a, b = pairs["a"], pairs["b"]
    edges_t = pa.table(
        {
            "u": pa.concat_arrays([a.combine_chunks(), b.combine_chunks()]),
            "v": pa.concat_arrays([b.combine_chunks(), a.combine_chunks()]),
        }
    )
    t, _rounds, converged = _cc_labels(edges_t, max_iters)
    if not converged:
        import logging

        logging.getLogger(__name__).warning(
            "%s: label propagation hit max_iters=%d before "
            "convergence — labels may span partial components",
            op_name, max_iters,
        )
    # one row per candidate doc (bounded, like pairs)
    sz = t.group_by("label").aggregate([("label", "count")])
    size_of = dict(
        zip(sz["label"].to_pylist(), pc.cast(sz["label_count"], pa.int64()).to_pylist())
    )
    out = pa.table(
        {
            "doc_id": t["node"],
            "cluster_id": t["label"],
            "cluster_size": pa.array(
                [size_of[x] for x in t["label"].to_pylist()], type=pa.int64()
            ),
        }
    )
    return out.take(pc.sort_indices(out["doc_id"]))


def dedup_clusters(
    sf_dir: str,
    threshold: float = JACCARD_THRESHOLD,
    max_iters: int = CLUSTER_MAX_ITERS,
    df_cap: int = JACCARD_SHINGLE_DF_CAP,
) -> pa.Table:
    """Connected components over the verified Jaccard pairs -> per-doc
    cluster assignment (cluster_id = min doc_id in the component) and
    cluster size. The canonical 'pick one representative per near-dup
    group' step a training pipeline runs after pair generation.

    Scale shape: see _cc_labels — iterative distributed min-label
    propagation + pointer jumping, O(log diameter) rounds, state lives in a
    materialized label Dataset (one row per CANDIDATE doc, not per corpus
    doc). Capped at ``max_iters`` with a logged warning, never a silent
    stop. The DuckDB twin computes the same closure with a recursive CTE."""
    return _clusters_from_pairs(
        jaccard_pairs(sf_dir, threshold, df_cap), max_iters, "dedup_clusters"
    )


def winnow_dup_clusters(
    sf_dir: str,
    df_cap: int = WINNOW_DUP_FP_DF_CAP,
    min_shared: int = WINNOW_DUP_MIN_SHARED,
    max_iters: int = CLUSTER_MAX_ITERS,
) -> pa.Table:
    """Connected components over the MOSS-style winnow-fingerprint pairs
    (winnow_dup_pairs) — the grouping step of fingerprint-based near-dup
    removal on a source-code corpus. Same output contract as
    dedup_clusters: (doc_id, cluster_id = component-min doc_id,
    cluster_size) per candidate doc, sorted by doc_id.

    Scale shape: pair generation is the bounded winnow_dup_pairs sweep;
    the closure is the shared _clusters_from_pairs tail (distributed
    min-label propagation + pointer jumping, O(log diameter) rounds).
    Frozen with sqlgen.winnow_dup_clusters_sql (recursive-CTE closure over
    the identical pair query)."""
    return _clusters_from_pairs(
        winnow_dup_pairs(sf_dir, df_cap, min_shared),
        max_iters,
        "winnow_dup_clusters",
    )


# ---------------------------------------------------------------------------
# Exact-substring duplication coverage (per-doc duplicated-gram fraction)
# ---------------------------------------------------------------------------

SUBSTR_DUP_K = 6       # word 6-grams over the raw subtoken stream (frozen with SQL)
SUBSTR_DUP_MIN_DF = 2  # a gram is "duplicated" when >= 2 distinct docs carry it


def _read_doc_ids(sf_dir: str) -> "ray.data.Dataset":
    # doc_id-only scan is cheap columnar work — coarse blocks (the 64-row
    # text-stage floor manufactured ~80 near-empty tasks at 5k docs)
    return read_table(sf_dir, "documents", ["doc_id"], rows_per_block=4096)


def _doc_buckets(sf_dir: str) -> int:
    """Exchange bucket count for doc-count-scaled joins (footer row count
    only LOWERS the CPU-scaled default — joins.cpu_scaled_buckets)."""
    from smse_backend_ray.functions.joins import cpu_scaled_buckets

    return cpu_scaled_buckets(
        rows=_parquet_rows(os.path.join(sf_dir, "documents.parquet"))
    )


def substring_dup_stats(
    sf_dir: str, k: int = SUBSTR_DUP_K, min_df: int = SUBSTR_DUP_MIN_DF
) -> pa.Table:
    """Exact-substring duplication coverage (the gram-level analog of the
    suffix-array dedup in Lee et al. 2021, "Deduplicating Training Data
    Makes Language Models Better"): for every doc, the fraction of its
    distinct word k-grams that at least ``min_df`` distinct docs share.
    Output: (doc_id, n_grams, n_dup, dup_frac rounded 4) for EVERY doc —
    gram-less docs (fewer than k subtokens) emit (0, 0, 0.0). A training
    pipeline thresholds dup_frac to drop boilerplate-heavy documents.

    Scale shape — one tokenization pass, two exchanges, no driver state:
      1. gram rows hash into fat buckets by gram string (a gram lives in
         exactly ONE bucket, so within-bucket df IS global df); each bucket
         computes df, flags duplicated grams with one C++ is_in, and
         pre-aggregates per-doc (n_grams, n_dup) partials;
      2. a grouped sum by doc_id merges the per-bucket partials;
      3. a bucketed LEFT-OUTER join (joins.attach_left) attaches the
         totals to the pruned doc_id read so gram-less docs survive with
         zeros — never a driver-side dict of per-doc counts."""
    from smse_backend_ray.functions.joins import attach_left as _attach_left

    nb = _doc_buckets(sf_dir)

    def tag(t: pa.Table) -> pa.Table:
        g = _gram_rows(t, k)
        h = _hash_strings(g["shingle"])
        return pa.table(
            {
                "kb": pa.array((h % np.uint64(nb)).astype(np.int64), type=pa.int64()),
                "doc_id": pc.cast(g["doc_id"], pa.int64()),
                "shingle": g["shingle"],
            }
        )

    part_schema = pa.schema(
        [("doc_id", pa.int64()), ("n_grams_part", pa.int64()), ("n_dup_part", pa.int64())]
    )

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return part_schema.empty_table()
        df = g.group_by("shingle").aggregate([("doc_id", "count")])
        dup = df.filter(
            pc.greater_equal(df["doc_id_count"], min_df)
        )["shingle"].combine_chunks()
        flag = pc.cast(pc.is_in(g["shingle"], value_set=dup), pa.int64())
        per = (
            pa.table({"doc_id": g["doc_id"], "dup": flag})
            .group_by("doc_id")
            .aggregate([("dup", "sum"), ("dup", "count")])
        )
        return pa.table(
            {
                "doc_id": per["doc_id"],
                "n_grams_part": pc.cast(per["dup_count"], pa.int64()),
                "n_dup_part": pc.cast(per["dup_sum"], pa.int64()),
            }
        )

    grams = _read_documents(sf_dir).map_batches(
        tag, batch_format="pyarrow", zero_copy_batch=True
    )
    per_doc = _with_schema(
        _grouped_agg(
            grams.groupby("kb").map_groups(per_bucket, batch_format="pyarrow"),
            ["doc_id"],
            [("n_grams_part", "sum", "n_grams"), ("n_dup_part", "sum", "n_dup")],
            nb=nb,
        ),
        pa.schema([("doc_id", pa.int64()), ("n_grams", pa.int64()), ("n_dup", pa.int64())]),
    )
    joined = _attach_left(
        _read_doc_ids(sf_dir),
        per_doc,
        "doc_id",
        "doc_id",
        pa.schema([("doc_id", pa.int64())]),
        pa.schema([("n_grams", pa.int64()), ("n_dup", pa.int64())]),
        nb=_doc_buckets(sf_dir),
    )

    def finish(t: pa.Table) -> pa.Table:
        ng = pc.fill_null(t["n_grams"], 0).to_numpy(zero_copy_only=False)
        nd = pc.fill_null(t["n_dup"], 0).to_numpy(zero_copy_only=False)
        frac = np.zeros(len(ng), dtype=np.float64)
        nz = ng > 0
        frac[nz] = round_half_away(nd[nz].astype(np.float64) / ng[nz], 4)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_grams": pa.array(ng, type=pa.int64()),
                "n_dup": pa.array(nd, type=pa.int64()),
                "dup_frac": pa.array(frac, type=pa.float64()),
            }
        )

    out = collect_table(
        joined.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True),
        empty_schema=pa.schema(
            [("doc_id", pa.int64()), ("n_grams", pa.int64()),
             ("n_dup", pa.int64()), ("dup_frac", pa.float64())]
        ),
    )
    return out.take(pc.sort_indices(out["doc_id"]))


# ---------------------------------------------------------------------------
# Near-dup survivors: the keep-list a training run actually materializes
# ---------------------------------------------------------------------------


def dedup_survivors(
    sf_dir: str, threshold: float = JACCARD_THRESHOLD
) -> pa.Table:
    """The corpus keep-list after near-dup clustering: every doc except the
    non-representative members of each verified-Jaccard cluster (the
    representative is the cluster min doc_id — dedup_clusters' cluster_id).
    This is the table a training pipeline joins against to emit the
    deduplicated corpus.

    Scale shape: the loser set is candidate-bounded (rows of
    dedup_clusters, never the corpus), shipped once into a distributed
    bucketed anti-join against the pruned doc_id read — the corpus side
    streams, nothing corpus-sized lands on the driver."""
    clusters = dedup_clusters(sf_dir, threshold)
    losers = clusters.filter(
        pc.not_equal(clusters["doc_id"], clusters["cluster_id"])
    ).select(["doc_id"])
    schema = pa.schema([("doc_id", pa.int64())])
    base = _read_doc_ids(sf_dir)
    if losers.num_rows:
        surv = _anti_join(
            base, ray.data.from_arrow(losers), ["doc_id"], schema,
            nb=_doc_buckets(sf_dir),
        )
    else:
        surv = base
    t = collect_table(surv, empty_schema=schema)
    return t.take(pc.sort_indices(t["doc_id"]))


def dup_rate_by_source(
    sf_dir: str,
    threshold: float = JACCARD_THRESHOLD,
    df_cap: int = JACCARD_SHINGLE_DF_CAP,
) -> pa.Table:
    """Cross-source duplication matrix: near-dup pair counts per
    UNORDERED source pair — the curation diagnostic showing which
    providers duplicate each other (mirror sites, re-crawls, forks)
    before choosing per-source sampling weights.

    Frozen pair with sqlgen.dup_rate_by_source_sql: pairs are EXACTLY
    jaccard_pairs (same threshold/df_cap — the twin wraps
    jaccard_pairs_sql as a CTE, so the pair set can't fork); source_a =
    min, source_b = max in string order; exact counts, ordered by both
    keys.

    Scale shape: the verified pair table is candidate-bounded (and
    memoized) and sources attach with the same distributed unique-key
    joins as _score_jaccard — no driver dict of O(corpus) sources; the
    matrix itself is |sources|^2-bounded."""
    pairs = jaccard_pairs(sf_dir, threshold, df_cap)
    empty = pa.table(
        {
            "source_a": pa.array([], type=pa.string()),
            "source_b": pa.array([], type=pa.string()),
            "n_pairs": pa.array([], type=pa.int64()),
        }
    )
    if pairs.num_rows == 0:
        return empty
    src_ds = read_table(sf_dir, "documents", ["doc_id", "source"], repartition=False)
    pairs_ds = ray.data.from_arrow(pairs.select(["a", "b"]))
    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    nb = max(4, min(64, -(-pairs.num_rows // 512)))
    ja = _attach_unique(
        pairs_ds, src_ds.rename_columns({"source": "sa"}),
        "a", "doc_id", pair_schema, pa.schema([("sa", pa.string())]), nb=nb,
    )
    jb = _attach_unique(
        ja, src_ds.rename_columns({"source": "sb"}),
        "b", "doc_id",
        pa.schema(list(pair_schema) + [("sa", pa.string())]),
        pa.schema([("sb", pa.string())]), nb=nb,
    )
    t = collect_table(
        jb,
        empty_schema=pa.schema(
            list(pair_schema) + [("sa", pa.string()), ("sb", pa.string())]
        ),
    )
    if t.num_rows == 0:
        return empty
    lo = pc.min_element_wise(t["sa"], t["sb"])
    hi = pc.max_element_wise(t["sa"], t["sb"])
    g = (
        pa.table({"source_a": lo, "source_b": hi})
        .group_by(["source_a", "source_b"])
        .aggregate([("source_a", "count")])
    )
    out = pa.table(
        {
            "source_a": g["source_a"],
            "source_b": g["source_b"],
            "n_pairs": pc.cast(g["source_a_count"], pa.int64()),
        }
    )
    return out.take(
        pc.sort_indices(
            out,
            sort_keys=[("source_a", "ascending"), ("source_b", "ascending")],
        )
    )


def dedup_impact(
    sf_dir: str,
    threshold: float = JACCARD_THRESHOLD,
    df_cap: int = JACCARD_SHINGLE_DF_CAP,
) -> pa.Table:
    """One-row dedup impact report: corpus size before/after the near-dup
    keep-list, in docs AND raw subtokens — the "how much data did dedup
    cost us" number a pipeline owner reads before signing off on a
    training corpus.

    Frozen pair with sqlgen.dedup_impact_sql: the keep-list is EXACTLY
    dedup_survivors' rule (losers = non-representative members of
    dedup_clusters; the twin composes dedup_clusters_sql so the cluster
    set can't fork); n_subtokens = RAW non-empty subtoken count (the
    token_stats n_subtokens stream); keep rates = round4 of exact-int
    double divisions, 0.0 on an empty denominator.

    Scale shape: losers are candidate-bounded (rows of dedup_clusters —
    the same bound dedup_survivors ships into its anti-join), broadcast
    once via ray.put; the corpus streams ONE pass of per-batch
    (docs, survivors, subtokens, surviving subtokens) int partials that
    fold to a single driver row."""
    from smse_backend_ray.functions.analyzer import _flat_subtokens

    clusters = dedup_clusters(sf_dir, threshold, df_cap=df_cap)
    losers = clusters.filter(
        pc.not_equal(clusters["doc_id"], clusters["cluster_id"])
    )["doc_id"].combine_chunks()
    losers_ref = ray.put(losers)

    def partial(t: pa.Table) -> pa.Table:
        flat, doc_idx, n = _flat_subtokens(t["text"])
        ne = pc.greater(pc.binary_length(flat), 0).to_numpy(zero_copy_only=False)
        n_raw = np.bincount(doc_idx[ne], minlength=n).astype(np.int64)
        keep = pc.invert(
            pc.is_in(pc.cast(t["doc_id"], pa.int64()), value_set=ray.get(losers_ref))
        ).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n_docs": pa.array([n], type=pa.int64()),
                "n_survivors": pa.array([int(keep.sum())], type=pa.int64()),
                "n_subtokens": pa.array([int(n_raw.sum())], type=pa.int64()),
                "n_subtokens_surviving": pa.array(
                    [int(n_raw[keep].sum())], type=pa.int64()
                ),
            }
        )

    pschema = pa.schema(
        [("n_docs", pa.int64()), ("n_survivors", pa.int64()),
         ("n_subtokens", pa.int64()), ("n_subtokens_surviving", pa.int64())]
    )
    t = collect_table(
        _read_documents(sf_dir).map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True
        ),
        empty_schema=pschema,
    )
    nd = int(pc.sum(t["n_docs"]).as_py() or 0)
    ns = int(pc.sum(t["n_survivors"]).as_py() or 0)
    nt = int(pc.sum(t["n_subtokens"]).as_py() or 0)
    nts = int(pc.sum(t["n_subtokens_surviving"]).as_py() or 0)
    from smse_backend_ray.functions.rounding import round_half_away

    dkr = float(round_half_away(np.array([ns / nd]), 4)[0]) if nd else 0.0
    tkr = float(round_half_away(np.array([nts / nt]), 4)[0]) if nt else 0.0
    return pa.table(
        {
            "n_docs": pa.array([nd], type=pa.int64()),
            "n_survivors": pa.array([ns], type=pa.int64()),
            "n_subtokens": pa.array([nt], type=pa.int64()),
            "n_subtokens_surviving": pa.array([nts], type=pa.int64()),
            "doc_keep_rate": pa.array([dkr], type=pa.float64()),
            "token_keep_rate": pa.array([tkr], type=pa.float64()),
        }
    )
