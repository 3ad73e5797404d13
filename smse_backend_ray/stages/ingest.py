"""Ingest + analysis stages (stateless ``map_batches`` transforms).

Reference analogs:
  - key synthesis + size probe on upload (smse_backend/services/
    file_storage.py:534-570) -> deterministic doc_id + sha256 + n_bytes here
    (uuid naming :499-515 is replaced by a content-derived id: FIXTURES.md
    forbids run-order identity);
  - extension allowlist check (smse_backend/utils/file_extensions.py:49-59)
    -> ``allowed_langs`` filter;
  - text preprocessing before encoding (smse_backend/tasks.py:96-103, applied
    :219) -> the shared code-aware analyzer.

All stages are Arrow-in/Arrow-out and vectorized except the tokenizer itself
(a compiled-regex pass per document, C-speed, embarrassingly parallel).
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from smse_backend_ray.config import EngineConfig
from smse_backend_ray.functions.analyzer import term_counts_batch
from smse_backend_ray.sources.corpus import doc_id_from_key

# ingest_batch's frozen output columns, MINUS the two per-build tags
# (partition_id: file-mode lineage; shard_id: re-derivable as
# doc_id % n_shards). The canonical projection for jobs that rewrite the doc
# store (compaction) — defined here, next to the function that owns the
# schema, so the two cannot drift.
DOC_SCHEMA_COLS = [
    "doc_id", "repo", "path", "commit", "lang",
    "content_sha256", "n_bytes", "dl", "terms", "tfs",
]


def ingest_batch(batch: pa.Table, cfg: EngineConfig) -> pa.Table:
    """corpus batch -> analyzed docs batch.

    Output schema: doc_id, repo, path, commit, lang, content_sha256, n_bytes,
    dl, terms (list<string> sorted asc), tfs (list<int32>), shard_id.
    """
    from smse_backend_ray.sources.corpus import (
        n_bytes_column,
        sha256_hex_column,
        validate_corpus_schema,
    )

    validate_corpus_schema(batch.schema)
    if cfg.allowed_langs is not None:  # vectorized allowlist predicate (M2)
        batch = batch.filter(
            pc.is_in(batch["lang"], value_set=pa.array(cfg.allowed_langs))
        )
    content = pc.fill_null(batch["content"], "")
    batch = batch.set_column(
        batch.column_names.index("content"), "content", content
    )
    repos = batch["repo"].to_pylist()
    paths = batch["path"].to_pylist()
    commits = batch["commit"].to_pylist()

    # the only per-row pass left: sha256/doc-id hashing (C-speed hashlib);
    # tokenization runs fully vectorized in Arrow C++ (term_counts_batch,
    # bitwise-equal to the frozen scalar term_counts — parity-fuzzed)
    doc_ids = np.fromiter(
        (doc_id_from_key(r, p, c) for r, p, c in zip(repos, paths, commits)),
        dtype=np.int64,
        count=len(repos),
    )
    poss_l = None
    if cfg.with_positions:
        from smse_backend_ray.functions.analyzer import term_positions_batch

        terms_l, tfs_l, poss_l = term_positions_batch(content)
    else:
        terms_l, tfs_l = term_counts_batch(content)
    # dl = per-row sum(tf) via offset prefix-sums (integer, order-free)
    off = np.asarray(tfs_l.offsets, dtype=np.int64)
    csum = np.concatenate(([0], np.cumsum(np.asarray(tfs_l.values, dtype=np.int64))))
    dl = pa.array(csum[off[1:]] - csum[off[:-1]], type=pa.int64())

    cols: dict[str, pa.Array | pa.ChunkedArray] = {}
    if "partition_id" in batch.column_names:  # file-mode lineage tag
        cols["partition_id"] = pc.cast(batch["partition_id"], pa.int32())
    cols.update(
        {
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "repo": batch["repo"],
            "path": batch["path"],
            "commit": batch["commit"],
            "lang": batch["lang"],
            "content_sha256": sha256_hex_column(batch["content"]),
            "n_bytes": n_bytes_column(batch["content"]),
            "dl": dl,
            "terms": terms_l,
            "tfs": tfs_l,
            "shard_id": pa.array(doc_ids % cfg.n_shards, type=pa.int32()),
        }
    )
    if poss_l is not None:
        # kept-stream token positions, flattened term-major per doc (aligned
        # with terms/tfs; len == dl). Persisted in docs/ so compaction can
        # re-encode positional segments without re-reading content.
        cols["poss"] = poss_l
    return pa.table(cols)


def term_bucket(term: str, n_buckets: int) -> int:
    """Deterministic term -> shuffle bucket (process-stable, unlike hash())."""
    return zlib.crc32(term.encode()) % n_buckets


def encode_runs(
    terms: "pa.Array | pa.ChunkedArray",
    doc_ids: "pa.Array | pa.ChunkedArray",
    tfs: "pa.Array | pa.ChunkedArray",
    dls: "pa.Array | pa.ChunkedArray",
    n_buckets: int,
) -> pa.Table:
    """Per-term posting runs (list columns) -> compact shuffle rows.

    The posting shuffle's payload is the dominant exchange of the whole
    build (~16 raw bytes/posting as int64/int32 lists). Rows ship as raw
    little-endian int64 doc_ids + int32 dls + varint tfs (~13 bytes/posting)
    — only the compression that is FREE to decode. An earlier version
    delta-varinted the doc_ids too: the sha-derived 15-digit ids are sparse,
    so the "deltas" still cost 7-8 varint bytes (no volume win over raw
    int64) while the multi-byte vectorized varint decode burned ~130 s CPU
    per 1M docs in numpy temporaries — a measured ~1.7x single-node build
    slowdown at 32 CPUs (BASELINE.md, "shuffle payload format"). tf is
    almost always < 128, so its varint stream hits the single-byte fast
    path (an astype) on both sides.

    Output: bucket:int32, term:string, n:int32 (run length),
    docs_b (int64-LE bytes) / tfs_b (varint) / dls_b (int32-LE bytes).
    ``explode_preagg_batch`` appends the actual shuffle key (``skey``,
    shard-aware) after this — encode_runs is order-preserving (output row i
    == input run i), which that append relies on.
    """
    from smse_backend_ray.functions.codec import varint_encode_with_lens

    doc_col = doc_ids.combine_chunks() if isinstance(doc_ids, pa.ChunkedArray) else doc_ids
    tf_col = tfs.combine_chunks() if isinstance(tfs, pa.ChunkedArray) else tfs
    dl_col = dls.combine_chunks() if isinstance(dls, pa.ChunkedArray) else dls
    offsets = np.asarray(doc_col.offsets, dtype=np.int64)
    flat_docs = np.asarray(doc_col.values, dtype=np.int64)
    run_lens = np.diff(offsets)
    n_runs = run_lens.size
    if n_runs == 0 or flat_docs.size == 0:
        return _empty_runs_table()
    flat_tfs = np.asarray(tf_col.values, dtype=np.int64)
    flat_dls = np.asarray(dl_col.values, dtype=np.int64)
    # no per-run doc sort: the reduce side lexsorts (segment, doc_id)
    # globally, and fixed-width streams gain nothing from ordering

    docs_b = flat_docs.astype("<i8", copy=False).tobytes()
    dls_b = flat_dls.astype("<i4").tobytes()
    tfs_b, t_lens = varint_encode_with_lens(flat_tfs.astype(np.uint64))

    def bin_col(data: bytes, run_bounds: np.ndarray) -> pa.Array:
        return pa.Array.from_buffers(
            pa.binary(), n_runs,
            [None, pa.py_buffer(run_bounds.astype(np.int32).tobytes()), pa.py_buffer(data)],
        )

    tf_cum = np.concatenate(([0], np.cumsum(t_lens)))
    uterms = terms.to_pylist()
    return pa.table(
        {
            "bucket": pa.array(
                [term_bucket(t, n_buckets) for t in uterms], type=pa.int32()
            ),
            "term": terms,
            "n": pa.array(run_lens, type=pa.int32()),
            "docs_b": bin_col(docs_b, offsets * 8),
            "tfs_b": bin_col(tfs_b, tf_cum[offsets]),
            "dls_b": bin_col(dls_b, offsets * 4),
        }
    )


def _empty_runs_table(pos: bool = False) -> pa.Table:
    cols = {
        "bucket": pa.array([], type=pa.int32()),
        "term": pa.array([], type=pa.string()),
        "n": pa.array([], type=pa.int32()),
        "docs_b": pa.array([], type=pa.binary()),
        "tfs_b": pa.array([], type=pa.binary()),
        "dls_b": pa.array([], type=pa.binary()),
    }
    if pos:
        cols["pos_b"] = pa.array([], type=pa.binary())
        cols["skey"] = pa.array([], type=pa.int64())
    return pa.table(cols)


def decode_runs(group: pa.Table) -> tuple[list, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle rows -> (run_terms, run_lens, flat_docs, flat_tfs, flat_dls).
    doc/dl streams are fixed-width (a frombuffer view each); tf is one
    vectorized varint decode (runs concatenate into a single valid
    stream — per-run boundaries come from the ``n`` column)."""
    from smse_backend_ray.functions.codec import varint_decode

    run_terms = group["term"].to_pylist()
    run_lens = np.asarray(group["n"], dtype=np.int64)

    def stream(col: str) -> np.ndarray:
        arr = group[col].combine_chunks()
        bufs = arr.buffers()
        off = np.frombuffer(bufs[1], dtype=np.int32)[arr.offset : arr.offset + len(arr) + 1]
        data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else np.empty(0, np.uint8)
        return data[off[0] : off[-1]]

    flat_docs = np.frombuffer(stream("docs_b").tobytes(), dtype="<i8").astype(np.int64, copy=False)
    flat_tfs = varint_decode(stream("tfs_b")).astype(np.int64)
    flat_dls = np.frombuffer(stream("dls_b").tobytes(), dtype="<i4").astype(np.int64)
    return run_terms, run_lens, flat_docs, flat_tfs, flat_dls


def explode_preagg_batch(batch: pa.Table, n_buckets: int, n_shards: int) -> pa.Table:
    """Analyzed docs batch -> per-batch pre-aggregated posting runs.

    This is the SPIMI partial / salted pre-aggregation step (SURVEY.md A6):
    within one batch every (term, shard) contributes ONE row holding its
    (doc_id, tf, dl) postings, so a hot term ("def", "return", ...) produces
    at most n_batches * n_shards shuffle rows instead of df(term) rows.

    The shuffle key ``skey`` is SHARD-AWARE (SURVEY.md §4 "salt hot terms"):
    skey = crc32-term-bucket * n_shards + (doc_id % n_shards). Keying the
    exchange on (term bucket, shard) instead of term bucket alone bounds the
    hottest term's reduce group at O(df_shard) = O(docs / n_shards) — which
    scales with cluster size — instead of O(global df), which at 10^11 docs
    would put ~10^10 postings of a ubiquitous identifier into ONE encode
    task. Segments are per (term, shard) anyway, and global df lives in the
    df/ rollup (build._run_df sums df_shard), so no information is lost.
    Payloads ship in the compact decode-free layout of ``encode_runs``.
    """
    terms = batch["terms"]
    flat_terms = pc.list_flatten(terms)
    parent = pc.list_parent_indices(terms)
    doc_ids = pc.take(batch["doc_id"], parent)
    shard = pa.array(
        np.asarray(doc_ids, dtype=np.int64) % n_shards, type=pa.int32()
    )
    flat = pa.table(
        {
            "term": flat_terms,
            "shard": shard,
            "doc_id": doc_ids,
            "tf": pc.cast(pc.list_flatten(batch["tfs"]), pa.int32()),
            "dl": pc.cast(pc.take(batch["dl"], parent), pa.int32()),
        }
    )
    g = flat.group_by(["term", "shard"]).aggregate(
        [("doc_id", "list"), ("tf", "list"), ("dl", "list")]
    )
    runs = encode_runs(
        g["term"], g["doc_id_list"], g["tf_list"], g["dl_list"], n_buckets
    )
    # encode_runs is order-preserving, so runs row i == group row i
    skey = (
        np.asarray(runs["bucket"], dtype=np.int64) * n_shards
        + np.asarray(g["shard"], dtype=np.int64)
    )
    return runs.append_column("skey", pa.array(skey, type=pa.int64()))


def explode_preagg_batch_pos(batch: pa.Table, n_buckets: int, n_shards: int) -> pa.Table:
    """Positional twin of ``explode_preagg_batch``: same pre-aggregated
    (term, shard) runs plus a ``pos_b`` payload (the run's kept-stream token
    positions, raw int32-LE — decode-free, like the other streams; per-
    posting boundaries are the tf stream, so no extra metadata ships).

    The grouping here is an explicit stable sort instead of Arrow group_by:
    the doc/tf/dl lists and the position stream are all built from the SAME
    sorted layout, so their per-run alignment is by construction (group_by's
    hash-scan member order would have to be re-matched to a separately-
    gathered position stream). Member order within a run is otherwise
    irrelevant — BucketEncoder lexsorts every group by (segment, doc_id)
    and gathers the position runs with it.
    """
    terms = batch["terms"]
    flat_terms = pc.list_flatten(terms)
    if isinstance(flat_terms, pa.ChunkedArray):
        flat_terms = flat_terms.combine_chunks()
    parent = pc.list_parent_indices(terms)
    doc_np = np.asarray(pc.take(batch["doc_id"], parent), dtype=np.int64)
    tf_np = np.asarray(pc.list_flatten(batch["tfs"]), dtype=np.int64)
    dl_np = np.asarray(pc.take(batch["dl"], parent), dtype=np.int64)
    pos_vals = np.asarray(pc.list_flatten(batch["poss"]), dtype=np.int64)
    n_flat = len(flat_terms)
    if n_flat == 0:
        return _empty_runs_table(pos=True)
    shard_np = doc_np % n_shards
    tf_cum = np.concatenate(([0], np.cumsum(tf_np)))  # flat row -> pos slice

    denc = flat_terms.dictionary_encode()
    codes = np.asarray(denc.indices, dtype=np.int64)
    dictionary = denc.dictionary
    key = codes * n_shards + shard_np
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    bounds = np.flatnonzero(np.diff(key_s)) + 1
    rstarts = np.concatenate(([0], bounds))
    n_runs = rstarts.size

    # gather each sorted flat-row's position slice (vectorized var-len gather)
    tf_s = tf_np[order]
    total_pos = pos_vals.size
    dst_cum = np.concatenate(([0], np.cumsum(tf_s)))
    gather = np.repeat(tf_cum[order], tf_s) + (
        np.arange(total_pos, dtype=np.int64) - np.repeat(dst_cum[:-1], tf_s)
    )
    pos_s = pos_vals[gather]

    roff = pa.array(
        np.concatenate((rstarts, [n_flat])).astype(np.int32), type=pa.int32()
    )
    run_terms = dictionary.take(pa.array(key_s[rstarts] // n_shards))
    runs = encode_runs(
        run_terms,
        pa.ListArray.from_arrays(roff, pa.array(doc_np[order], type=pa.int64())),
        pa.ListArray.from_arrays(roff, pa.array(tf_s, type=pa.int64())),
        pa.ListArray.from_arrays(roff, pa.array(dl_np[order], type=pa.int64())),
        n_buckets,
    )
    # pos_b: raw int32-LE slices per run (boundary = run's total tf)
    pos_bounds = np.concatenate((dst_cum[rstarts], [total_pos]))
    pos_b = pa.Array.from_buffers(
        pa.binary(), n_runs,
        [None, pa.py_buffer((pos_bounds * 4).astype(np.int32).tobytes()),
         pa.py_buffer(pos_s.astype("<i4").tobytes())],
    )
    runs = runs.append_column("pos_b", pos_b)
    skey = (
        np.asarray(runs["bucket"], dtype=np.int64) * n_shards
        + (key_s[rstarts] % n_shards)
    )
    return runs.append_column("skey", pa.array(skey, type=pa.int64()))


def decode_run_positions(group: pa.Table) -> np.ndarray:
    """pos_b shuffle rows -> one flat int64 position stream (per-posting
    boundaries come from the decoded tf stream)."""
    arr = group["pos_b"].combine_chunks()
    bufs = arr.buffers()
    off = np.frombuffer(bufs[1], dtype=np.int32)[arr.offset : arr.offset + len(arr) + 1]
    data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else np.empty(0, np.uint8)
    return np.frombuffer(
        data[off[0] : off[-1]].tobytes(), dtype="<i4"
    ).astype(np.int64, copy=False)


class BucketEncoder:
    """Per-group merge + encode (the reduce side of the posting shuffle).

    One call receives ALL pre-aggregated runs for one shuffle key — since
    the shard-aware key that is ONE SHARD of the terms hashed into one
    bucket, bounding group size at O(docs/shard) regardless of term skew.
    For each (term, shard) it k-way-merges the runs into one sorted posting
    list and encodes its delta-varint streams (functions/codec.py). Global
    df(term) is NOT computed here (a group no longer sees every shard of a
    term); it lives solely in the df/ rollup, which sums the per-segment
    df_shard column (build._run_df) — the same sum that already made
    incremental appends exact. The encoder itself stays shard-agnostic
    (handles multi-shard groups identically), so the segment BYTES are
    independent of the shuffle key choice (tests/test_bucket_encoder.py).

    ``avgdl`` is unused: segment rows carry no score-dependent data. The
    argument stays so existing callers keep working.
    """

    def __init__(self, avgdl: float, cfg: EngineConfig):
        self.cfg = cfg

    def __call__(self, group: pa.Table) -> pa.Table:
        """Whole-bucket vectorized merge+encode.

        A realistic corpus vocabulary makes per-term encoding Python-bound
        (hundreds of thousands of tiny segments per build), so the entire
        bucket is processed in a handful of numpy passes: factorize terms ->
        lexsort all postings by (term, shard, doc_id) -> compute the delta
        resets (every block_size postings) with masks -> THREE whole-bucket
        varint encodes -> slice per-segment bytes analytically from the
        length prefix sums.
        Output is byte-identical to per-term codec.encode_postings (tested).
        """
        from smse_backend_ray.functions.codec import varint_encode_with_lens

        cfg = self.cfg
        ns = cfg.n_shards
        bs = cfg.block_size

        has_pos = "pos_b" in group.column_names
        run_terms, run_lens, flat_docs, flat_tfs, flat_dls = decode_runs(group)
        n = flat_docs.size
        if n == 0:
            return _empty_segment_table(pos=has_pos)

        # factorize run terms -> sorted unique codes; spread to postings
        terms_sorted = sorted(set(run_terms))
        code_of = {t: i for i, t in enumerate(terms_sorted)}
        run_codes = np.fromiter((code_of[t] for t in run_terms), dtype=np.int64, count=len(run_terms))
        post_codes = np.repeat(run_codes, run_lens)

        # segment = (term, shard); sort postings by (segment, doc_id)
        seg_key = post_codes * ns + (flat_docs % ns)
        order = np.lexsort((flat_docs, seg_key))
        seg_s = seg_key[order]
        doc_s = flat_docs[order]
        tf_s = flat_tfs[order]
        dl_s = flat_dls[order]

        bounds = np.flatnonzero(np.diff(seg_s)) + 1
        seg_starts = np.concatenate(([0], bounds))
        seg_ends = np.concatenate((bounds, [n]))
        seg_sizes = seg_ends - seg_starts

        # delta stream with the absolute value every block_size postings
        # of each segment
        pos_in_seg = np.arange(n, dtype=np.int64) - np.repeat(seg_starts, seg_sizes)
        resets = np.flatnonzero((pos_in_seg % bs) == 0)
        deltas = doc_s.astype(np.uint64).copy()
        deltas[1:] -= doc_s[:-1].astype(np.uint64)
        deltas[resets] = doc_s[resets].astype(np.uint64)

        docs_b, doc_lens = varint_encode_with_lens(deltas)
        tfs_b, tf_lens = varint_encode_with_lens(tf_s.astype(np.uint64))
        dls_b, dl_lens = varint_encode_with_lens(dl_s.astype(np.uint64))
        cum_doc = np.concatenate(([0], np.cumsum(doc_lens)))
        cum_tf = np.concatenate(([0], np.cumsum(tf_lens)))
        cum_dl = np.concatenate(([0], np.cumsum(dl_lens)))

        # per-segment identity (global df lives in the df/ rollup only)
        seg_code = seg_s[seg_starts]
        seg_term_code = seg_code // ns
        seg_shard = (seg_code % ns).astype(np.int32)

        docs_mv, tfs_mv, dls_mv = docs_b, tfs_b, dls_b
        seg_docs = [docs_mv[cum_doc[s]:cum_doc[e]] for s, e in zip(seg_starts, seg_ends)]
        seg_tfs = [tfs_mv[cum_tf[s]:cum_tf[e]] for s, e in zip(seg_starts, seg_ends)]
        seg_dls = [dls_mv[cum_dl[s]:cum_dl[e]] for s, e in zip(seg_starts, seg_ends)]
        term_arr = pa.array(
            [terms_sorted[c] for c in seg_term_code], type=pa.string()
        )

        pos_cols: dict[str, pa.Array] = {}
        if has_pos:
            # gather each sorted posting's position run, delta-encode within
            # postings (absolute at posting starts), one whole-bucket varint
            # pass, slice per segment analytically — same shape as the
            # doc/tf/dl streams above
            flat_pos = decode_run_positions(group)
            src_cum = np.concatenate(([0], np.cumsum(flat_tfs)))
            tf_sorted = tf_s  # == flat_tfs[order]
            dst_cum = np.concatenate(([0], np.cumsum(tf_sorted)))
            total_pos = flat_pos.size
            gather = np.repeat(src_cum[:-1][order], tf_sorted) + (
                np.arange(total_pos, dtype=np.int64)
                - np.repeat(dst_cum[:-1], tf_sorted)
            )
            pos_sorted = flat_pos[gather]
            pstarts = dst_cum[:-1]
            pdeltas = pos_sorted.astype(np.uint64).copy()
            if total_pos:
                pdeltas[1:] -= pos_sorted[:-1].astype(np.uint64)
                pdeltas[pstarts] = pos_sorted[pstarts].astype(np.uint64)
            pos_stream, pos_lens = varint_encode_with_lens(pdeltas)
            cum_pos = np.concatenate(([0], np.cumsum(pos_lens)))
            seg_pos = [
                pos_stream[cum_pos[dst_cum[s]] : cum_pos[dst_cum[e]]]
                for s, e in zip(seg_starts, seg_ends)
            ]
            pos_cols = {"pos_bytes": pa.array(seg_pos, type=pa.binary())}

        return pa.table(
            {
                "shard_id": pa.array(seg_shard, type=pa.int32()),
                "term": term_arr,
                # df_shard is (generation, shard)-local (postings in this
                # segment row); the df/ rollup sums df_shard across shards
                # and generations (build._run_df) to get global df
                "df_shard": pa.array(seg_sizes, type=pa.int64()),
                "docs_bytes": pa.array(seg_docs, type=pa.binary()),
                "tfs_bytes": pa.array(seg_tfs, type=pa.binary()),
                "dls_bytes": pa.array(seg_dls, type=pa.binary()),
                **pos_cols,
            }
        )


def _empty_segment_table(pos: bool = False) -> pa.Table:
    cols = {
        "shard_id": pa.array([], type=pa.int32()),
        "term": pa.array([], type=pa.string()),
        "df_shard": pa.array([], type=pa.int64()),
        "docs_bytes": pa.array([], type=pa.binary()),
        "tfs_bytes": pa.array([], type=pa.binary()),
        "dls_bytes": pa.array([], type=pa.binary()),
    }
    if pos:
        cols["pos_bytes"] = pa.array([], type=pa.binary())
    return pa.table(cols)


def cfg_buckets(cfg: EngineConfig, n_docs: int | None = None) -> int:
    """TERM-bucket count for the posting shuffle. The actual shuffle key is
    (term bucket, shard), so the reduce-group count is
    ``cfg_buckets(...) * n_shards``; this function picks the bucket count so
    that GROUP count hits the targets below (SURVEY.md §4 skew row).

    Group-count target scales with cluster CPUs — at 64 groups the encode
    stage's hottest group was a 23 s straggler gating a 1M-doc build
    (measured; mean task 4.3 s). 24 groups/CPU keeps the tail short without
    exploding fixed costs: on the 1M corpus the stage measured 22.4 s at
    8 groups/CPU vs 13.6 s at 24/CPU (8 CPUs) and 34.5 -> 13.3 s (16 CPUs),
    plateauing by 48/CPU, with the 2-CPU level unchanged (round-3 probes,
    /tmp/seg_probe_r3.py pattern).

    When ``n_docs`` is known (the stats stage precedes segments) the target
    also scales with DATA size, both ways:
      - small corpora cap at ~1k docs/group so a 32-CPU session doesn't
        shred a 10k-doc build into 256 near-empty map_groups tasks (fixed
        per-task cost dominated the driver's 100k-doc bench config);
      - huge corpora get a floor of ~50k docs/group (≈60 MB decoded
        postings at avgdl~115) so per-reduce-task heap stays bounded even
        when 8*cpus would make groups arbitrarily fat. (Per-TERM group
        memory is additionally bounded at O(docs/shard) by the shard-aware
        key, independent of term skew.)
    """
    try:
        import ray

        cpus = (
            int(ray.cluster_resources().get("CPU", 32))
            if ray.is_initialized()
            else 32
        )
    except Exception:  # pragma: no cover - resource query is best-effort
        cpus = 32
    cpu_scaled = max(64, cfg.n_shards * 8, 24 * cpus)
    if n_docs is None:
        groups = cpu_scaled
    else:
        data_cap = -(-n_docs // 1_000)  # ceil; small data -> few groups
        heap_floor = -(-n_docs // 50_000)  # huge data -> enough groups
        groups = max(cfg.n_shards, min(cpu_scaled, data_cap), heap_floor)
    return max(1, -(-groups // cfg.n_shards))
