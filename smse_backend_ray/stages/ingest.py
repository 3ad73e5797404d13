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
from smse_backend_ray.functions.analyzer import sorted_codes, term_counts_batch, term_positions_batch
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
    # tokenization runs vectorized (Arrow C++ regexes + one numpy sort:
    # term_counts_batch, bitwise-equal to the frozen scalar term_counts —
    # parity-fuzzed)
    doc_ids = np.fromiter(
        (doc_id_from_key(r, p, c) for r, p, c in zip(repos, paths, commits)),
        dtype=np.int64,
        count=len(repos),
    )
    poss_l = None
    if cfg.with_positions:
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


# ---------------------------------------------------------------------------
# posting-exchange probes
# ---------------------------------------------------------------------------
#
# The build has no posting exchange (pipelines/build.py encodes each shard
# from its own doc files). term_bucket, encode_runs, decode_runs,
# explode_preagg_batch, BucketEncoder and cfg_buckets are kept only for the
# ``perfbench/layers.py`` trace probes (``ingest.explode_rows_per_s``,
# ``encode_postings_per_s``, ``skey_skew``), plain postings only.


def term_bucket(term: str, n_buckets: int) -> int:
    """Deterministic term -> shuffle bucket (process-stable, unlike hash()).
    Kept only for the perfbench/layers.py probes."""
    return zlib.crc32(term.encode()) % n_buckets


def encode_runs(
    terms: "pa.Array | pa.ChunkedArray",
    doc_ids: "pa.Array | pa.ChunkedArray",
    tfs: "pa.Array | pa.ChunkedArray",
    dls: "pa.Array | pa.ChunkedArray",
    n_buckets: int,
) -> pa.Table:
    """Per-term posting runs (list columns) -> compact shuffle rows. Kept
    only for the perfbench/layers.py probes.

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

    tf_cum = np.concatenate(([0], np.cumsum(t_lens)))
    uterms = terms.to_pylist()
    return pa.table(
        {
            "bucket": pa.array(
                [term_bucket(t, n_buckets) for t in uterms], type=pa.int32()
            ),
            "term": terms,
            "n": pa.array(run_lens, type=pa.int32()),
            "docs_b": _bin_col(docs_b, offsets * 8),
            "tfs_b": _bin_col(tfs_b, tf_cum[offsets]),
            "dls_b": _bin_col(dls_b, offsets * 4),
        }
    )


def _bin_col(data: bytes, bounds: np.ndarray) -> pa.Array:
    """Binary column whose value i is ``data[bounds[i]:bounds[i + 1]]``
    (``bounds[0] == 0``), laid over ``data`` without copying it."""
    if bounds[-1] >= 2**31:  # int32 offsets; callers encode bounded batches
        raise ValueError("a binary column holds < 2 GiB of values")
    return pa.Array.from_buffers(
        pa.binary(), len(bounds) - 1,
        [None, pa.py_buffer(np.asarray(bounds).astype(np.int32)), pa.py_buffer(data)],
    )


def _empty_runs_table() -> pa.Table:
    return pa.table({
        "bucket": pa.array([], type=pa.int32()),
        "term": pa.array([], type=pa.string()),
        "n": pa.array([], type=pa.int32()),
        "docs_b": pa.array([], type=pa.binary()),
        "tfs_b": pa.array([], type=pa.binary()),
        "dls_b": pa.array([], type=pa.binary()),
    })


def decode_runs(group: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle rows -> (run_lens, flat_docs, flat_tfs, flat_dls); the run
    terms stay in the rows' Arrow ``term`` column. doc/dl streams are
    fixed-width (a frombuffer view each); tf is one vectorized varint
    decode (runs concatenate into a single valid stream — per-run
    boundaries come from the ``n`` column). Kept only for the
    perfbench/layers.py probes."""
    from smse_backend_ray.functions.codec import varint_decode

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
    return run_lens, flat_docs, flat_tfs, flat_dls


def explode_preagg_batch(batch: pa.Table, n_buckets: int, n_shards: int) -> pa.Table:
    """Analyzed docs batch -> per-batch pre-aggregated posting runs. Kept
    only for the perfbench/layers.py probes.

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
    task. Payloads ship in the compact decode-free layout of ``encode_runs``.
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


class BucketEncoder:
    """Per-group merge + encode: the reduce side of the posting exchange the
    build no longer runs. Kept only for the perfbench/layers.py probes.

    One call receives pre-aggregated runs (``explode_preagg_batch``),
    decodes the runs payload (``decode_runs``) and hands the flat postings
    to ``encode_segments``, the encoder the build calls per shard; so its
    segment rows equal the build's (tests/test_bucket_encoder.py).
    ``avgdl`` is unused: segment rows carry no score-dependent data."""

    def __init__(self, avgdl: float, cfg: EngineConfig):
        self.cfg = cfg

    def __call__(self, group: pa.Table) -> pa.Table:
        run_lens, flat_docs, flat_tfs, flat_dls = decode_runs(group)
        run_codes, term_dict = sorted_codes(group["term"])
        return encode_segments(
            np.repeat(run_codes, run_lens), term_dict, flat_docs, flat_tfs, flat_dls, self.cfg,
        )


def _gather_runs(values: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``values[starts[i] : starts[i] + lens[i]]`` for every i, back to back
    (one vectorized variable-length gather)."""
    dst = np.concatenate(([0], np.cumsum(lens)))
    return values[np.repeat(starts, lens) + np.arange(dst[-1], dtype=np.int64) - np.repeat(dst[:-1], lens)]


# postings per encode pass: the encoder's numpy temporaries take ~170
# bytes per posting (measured), so a shard-sized input is encoded in term
# ranges of about this many postings (a term never spans two passes) and
# each encode of the shard-local build holds ~170 MB of them at most
_ENCODE_PASS_POSTINGS = 1_000_000


def encode_segments(
    codes: np.ndarray,
    term_dict: pa.Array,
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    cfg: EngineConfig,
    positions: np.ndarray | None = None,
) -> pa.Table:
    """Flat postings -> one segment row per (term, shard), term-sorted.

    ``codes`` index ``term_dict`` (sorted; see ``analyzer.sorted_codes``), one per
    posting, aligned with ``doc_ids`` / ``tfs`` / ``dls`` in any order;
    ``positions``, when given, is the postings' position runs back to back
    (``tfs[i]`` values each, in the same order). Inputs above
    _ENCODE_PASS_POSTINGS are encoded one term range at a time."""
    n = doc_ids.size
    if n <= _ENCODE_PASS_POSTINGS:
        return _encode_pass(codes, term_dict, doc_ids, tfs, dls, cfg, positions)
    # pass of each posting = its term's range; a stable counting sort on
    # the pass id lists every pass's postings in input order
    per_term = np.cumsum(np.bincount(codes, minlength=len(term_dict)))
    pass_id = (per_term // _ENCODE_PASS_POSTINGS)[codes]
    by_pass = np.argsort(pass_id, kind="stable")
    cuts = np.concatenate(([0], np.flatnonzero(np.diff(pass_id[by_pass])) + 1, [n]))
    del pass_id
    src_cum = np.concatenate(([0], np.cumsum(tfs))) if positions is not None else None
    parts = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        idx = by_pass[a:b]
        pos = None if positions is None else _gather_runs(positions, src_cum[idx], tfs[idx])
        parts.append(_encode_pass(codes[idx], term_dict, doc_ids[idx], tfs[idx], dls[idx], cfg, pos))
    return pa.concat_tables(parts)


def _encode_pass(codes, term_dict, doc_ids, tfs, dls, cfg, positions) -> pa.Table:
    """encode_segments over one in-memory pass. A realistic vocabulary
    makes per-term encoding Python-bound (hundreds of thousands of tiny
    segments per build), so all postings go through a handful of numpy
    passes: lexsort by (term, shard, doc_id) -> delta resets (every
    block_size postings) with masks -> one varint encode per stream ->
    binary columns laid over each stream at the segment boundaries of its
    cumulative varint lengths, with no per-segment copy. Byte-identical to
    per-term codec.encode_postings (tested)."""
    from smse_backend_ray.functions.codec import varint_encode_with_lens

    ns = cfg.n_shards
    bs = cfg.block_size
    n = doc_ids.size
    if n == 0:
        return _empty_segment_table(pos=positions is not None)

    # segment = (term, shard); sort postings by (segment, doc_id)
    seg_key = codes * ns + (doc_ids % ns)
    order = np.lexsort((doc_ids, seg_key))
    seg_s = seg_key[order]
    doc_s = doc_ids[order]
    tf_s = tfs[order]

    bounds = np.flatnonzero(np.diff(seg_s)) + 1
    seg_starts = np.concatenate(([0], bounds))
    seg_edges = np.concatenate((seg_starts, [n]))
    seg_sizes = np.diff(seg_edges)

    # delta stream with the absolute value every block_size postings
    # of each segment
    pos_in_seg = np.arange(n, dtype=np.int64) - np.repeat(seg_starts, seg_sizes)
    resets = np.flatnonzero((pos_in_seg % bs) == 0)
    deltas = doc_s.astype(np.uint64)
    deltas[1:] -= doc_s[:-1].astype(np.uint64)
    deltas[resets] = doc_s[resets].astype(np.uint64)

    def stream_col(values: np.ndarray, edges: np.ndarray) -> pa.Array:
        data, lens = varint_encode_with_lens(values.astype(np.uint64, copy=False))
        return _bin_col(data, np.concatenate(([0], np.cumsum(lens)))[edges])

    # per-segment identity (global df lives in the df/ rollup only)
    seg_code = seg_s[seg_starts]
    cols = {
        "shard_id": pa.array((seg_code % ns).astype(np.int32), type=pa.int32()),
        "term": term_dict.take(pa.array(seg_code // ns)),
        # df_shard is (generation, shard)-local (postings in this segment
        # row); the df/ rollup sums df_shard across shards and generations
        # (build._run_df) to get global df
        "df_shard": pa.array(seg_sizes, type=pa.int64()),
        "docs_bytes": stream_col(deltas, seg_edges),
        "tfs_bytes": stream_col(tf_s, seg_edges),
        "dls_bytes": stream_col(dls[order], seg_edges),
    }
    if positions is not None:
        # gather each sorted posting's position run, delta-encode within
        # postings (absolute at posting starts) — same shape as the
        # doc/tf/dl streams above, cut at the segments' position offsets
        src_cum = np.concatenate(([0], np.cumsum(tfs)))
        dst_cum = np.concatenate(([0], np.cumsum(tf_s)))
        pos_sorted = _gather_runs(positions, src_cum[order], tf_s)
        pstarts = dst_cum[:-1]
        pdeltas = pos_sorted.astype(np.uint64)
        if pos_sorted.size:
            pdeltas[1:] -= pos_sorted[:-1].astype(np.uint64)
            pdeltas[pstarts] = pos_sorted[pstarts].astype(np.uint64)
        cols["pos_bytes"] = stream_col(pdeltas, dst_cum[seg_edges])
    return pa.table(cols)


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
    """TERM-bucket count of the posting shuffle key (term bucket, shard):
    ``cfg_buckets(...) * n_shards`` groups, 24 per cluster CPU (at least 64
    and 8 per shard), capped at ~1k docs a group for small corpora and
    floored at ~50k docs a group for huge ones when ``n_docs`` is known.
    Kept only for the perfbench/layers.py probes."""
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
