"""Bulk (offline) search: the serving path run over a query list in chunks.

One ``SearchEngine`` opens the index once, packed (one scorer actor per
shard, each a ``ShardIndex`` over its shard's files: a chunk is one call
per actor either way, and full replicas would each decode the chunk's
terms and hold the whole index); the
queries go through ``SearchEngine.search_batch`` in input-order chunks of
``CHUNK_QUERIES``, so each chunk is one scatter/gather and the
driver holds at most one chunk's result at a time while writing. There is
no bulk-only kernel: scoring, modes (OR, AND, phrase/near on a positional
index, exclusion), scope, threshold, tombstones and the per-spec result
blocks are the serve path's, and so are its results, bitwise.

Output rows are (query_id, rank, doc_id, score, exact_score): the serve
columns without the doc metadata (join doc meta downstream if needed).
"""

from __future__ import annotations

import posixpath

import pyarrow as pa
import pyarrow.compute as pc

from smse_backend_ray.pipelines.search import SearchEngine
from smse_backend_ray.state.fs import IndexFS

RESULT_SCHEMA = pa.schema(
    [
        ("query_id", pa.int64()),
        ("rank", pa.int32()),
        ("doc_id", pa.int64()),
        ("score", pa.float64()),
        ("exact_score", pa.float64()),
    ]
)
MANIFEST_SCHEMA = pa.schema([("part", pa.string()), ("n_rows", pa.int64())])

# queries per search_batch call: large enough to amortize the per-call
# actor round trip, small enough to bound one call's candidate columns
CHUNK_QUERIES = 256


def _chunks(eng: SearchEngine, queries):
    """Each chunk's RESULT_SCHEMA rows, chunks in input order."""
    for i in range(0, len(queries), CHUNK_QUERIES):
        yield eng.search_batch(queries[i : i + CHUNK_QUERIES]).select(RESULT_SCHEMA.names)


def bulk_search(index_dir, queries, out_dir: str | None = None) -> pa.Table:
    """``queries``: sequence of queryset.QuerySpec, each scored exactly as
    ``SearchEngine.search_batch`` scores it. Returns RESULT_SCHEMA rows
    sorted by (query_id, rank); the sort is stable, so specs that share a
    query_id keep their input order.

    ``out_dir``: when set, results are WRITTEN as one parquet file per
    chunk (``part-NNNNN.parquet``) instead of being collected, and the
    return value is the (part, n_rows) manifest. The parts are written to
    ``<out_dir>.tmp`` and then replace ``out_dir`` whole, so a re-run
    leaves exactly one run's parts and a crashed run leaves no half-written
    ``out_dir``. At 10^6-query offline batches the result set is itself
    fact-scale and must never funnel through the driver."""
    queries = list(queries)
    with SearchEngine(index_dir, pack=True) as eng:  # batches only
        if out_dir is None:
            t = pa.concat_tables([RESULT_SCHEMA.empty_table(), *_chunks(eng, queries)])
            return t.take(
                pc.sort_indices(
                    t, sort_keys=[("query_id", "ascending"), ("rank", "ascending")]
                )
            )
        out = IndexFS(out_dir)
        parent = IndexFS((out.fs, posixpath.dirname(out.root)))
        name = posixpath.basename(out.root)
        tmp = name + ".tmp"
        if parent.exists(tmp):
            parent.delete_dir(tmp)
        parent.mkdirs(tmp)
        parts, n_rows = [], []
        for i, t in enumerate(_chunks(eng, queries)):
            parts.append(f"part-{i:05d}.parquet")
            n_rows.append(t.num_rows)
            parent.write_table(t, f"{tmp}/{parts[-1]}")
        parent.commit_dir(tmp, name)
    return pa.table({"part": parts, "n_rows": n_rows}, schema=MANIFEST_SCHEMA)
