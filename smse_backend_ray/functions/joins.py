"""Distributed join helpers.

One implementation: ``attach_unique`` / ``attach_left`` / ``semi_join`` /
``anti_join`` are bucketed joins, a side-tagged union through
``arrow_kernels.exchange``. Rows hash into a few FAT buckets (never one
group per key — a per-key map_groups pays a Python call per key, measured
as the dedup family's wall), and each bucket joins its two sides with
pyarrow's in-memory C++ Table.join. Empty partitions are a non-event on
this path, and the per-bucket join is exact.

The engine never calls Ray's ``Dataset.join``. SPARSE-INPUT CAVEAT: Ray
2.49's hash-join aggregator materializes a partition that received no
blocks as a ZERO-COLUMN table, and pyarrow's join then dies with 'No match
... for key field reference'. It is only safe when every hash partition
is near-certain to receive rows on both sides, which candidate-bounded
inputs (dedup pairs, semi-joins) do not guarantee. Found by the
adversarial-corpus fuzz (tests/test_sqlgen_fuzz.py).
"""

from __future__ import annotations


def cpu_scaled_buckets(
    mult: int = 8,
    floor: int = 16,
    rows: int | None = None,
    rows_per_bucket: int = 2048,
) -> int:
    """The ONE cluster-size-scaled bucket/range-count helper (exchange
    bucket counts, pair-group counts, ordered-scan ranges all derive from
    it).

    ``rows`` (optional, e.g. the source parquet footer count) only LOWERS
    the CPU-scaled target: every non-empty bucket is one ``fn`` call of the
    exchange, so a tiny input through 8*cpus buckets pays dozens of
    near-empty calls per exchange (its output blocks are bundled by rows
    whatever the bucket count). Bucket placement never affects exchange
    output (each key lives in exactly one bucket either way), so the hint
    is free to vary with input size."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:  # pragma: no cover
        cpus = 8
    n = max(floor, mult * cpus)
    if rows is not None:
        n = min(n, max(4, rows // rows_per_bucket))
    return n


def hash_strings(col, seed: int = 0):
    """Vectorized 64-bit hash of an Arrow string column -> np.uint64 array
    (polars' Rust hash; one C call). Replaces the Python-per-row crc32 that
    taxed the map side of every dedup exchange. Bucket assignment only needs
    within-run consistency, so the hash function is NOT frozen — exchange
    outputs are exact per bucket regardless of placement."""
    import numpy as np
    import polars as pl
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pl.from_arrow(col).hash(seed=seed).to_numpy().astype(np.uint64)


def _bucket_of(table, keys, nb):
    """Deterministic per-row bucket from the key columns (int64: Knuth
    multiplicative; string: vectorized hash_strings; xor-combined across
    columns)."""
    import numpy as np
    import pyarrow as pa

    h = np.zeros(table.num_rows, dtype=np.uint64)
    for i, k in enumerate(keys):
        col = table[k]
        if pa.types.is_integer(col.type):
            v = col.to_numpy(zero_copy_only=False).astype(np.uint64)
            hk = (v * np.uint64(2654435761)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        else:
            hk = hash_strings(col)
        rot = (i * 7) % 64
        if rot:
            hk = (hk << np.uint64(rot)) | (hk >> np.uint64(64 - rot))
        h ^= hk
    return (h % np.uint64(nb)).astype(np.int64)


def _bucketed_join(
    left, right, keys, left_schema, right_schema, joiner, nb=None,
    keep_left_on_empty_right=False,
):
    """Common machinery: a side-tagged union of both inputs through the one
    ``arrow_kernels.exchange`` on ``keys``; each FAT bucket splits back
    into its two sides and runs ``joiner(left_tbl, right_tbl) -> Table``.

    ``nb`` sizes the exchange: every non-empty bucket is one per-bucket
    join call, so a tiny input through the default (8*cpus) buckets pays
    dozens of near-empty calls per stage. Callers that know the input is
    small pass a small nb. The joined rows come back in ``exchange``'s
    bundled blocks, so chained joins keep their block count."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from smse_backend_ray.functions.arrow_kernels import arrow_map, exchange

    lnames = [f.name for f in left_schema]
    rnames = [f.name for f in right_schema]
    all_fields = list(left_schema) + [
        f for f in right_schema if f.name not in lnames
    ]
    mixed_schema = pa.schema([("__side", pa.int8())] + all_fields)

    def tag(side, names):
        def fn(t: "pa.Table") -> "pa.Table":
            if t.num_columns == 0 or t.num_rows == 0:
                return mixed_schema.empty_table()
            cols = [pa.array(np.full(t.num_rows, side, dtype=np.int8))] + [
                t[f.name]
                if f.name in names and f.name in t.column_names
                else pa.nulls(t.num_rows, f.type)
                for f in all_fields
            ]
            return pa.Table.from_arrays(cols, names=mixed_schema.names).cast(mixed_schema)

        return fn

    out_schema = joiner(left_schema.empty_table(), right_schema.empty_table()).schema

    def per_bucket(g: "pa.Table") -> "pa.Table":
        lmask = pc.equal(g["__side"], 0)
        lt = g.filter(lmask).select(lnames)
        rt = g.filter(pc.invert(lmask)).select(rnames)
        if lt.num_rows == 0 or (rt.num_rows == 0 and not keep_left_on_empty_right):
            return out_schema.empty_table()
        return joiner(lt, rt)

    sides = [arrow_map(left, tag(0, lnames)), arrow_map(right, tag(1, rnames))]
    return exchange(sides, keys, per_bucket, out_schema, nb=nb)


def _attach(left, right, lkey, rkey, left_schema, payload_schema, nb, how):
    """Join a UNIQUE-keyed right payload onto left rows (``how`` = pyarrow
    join type): the right key is renamed to the left key's name, so
    pyarrow coalesces the key columns. Output: left + payload columns."""
    import pyarrow as pa

    names = [f.name for f in left_schema] + [f.name for f in payload_schema]
    right = right.rename_columns({rkey: lkey}) if rkey != lkey else right
    right_schema = pa.schema([left_schema.field(lkey)] + list(payload_schema))
    return _bucketed_join(
        left, right, [lkey], left_schema, right_schema,
        lambda lt, rt: lt.join(rt, lkey, join_type=how).select(names), nb=nb,
        keep_left_on_empty_right=how == "left outer",
    )


def attach_unique(left, right, lkey, rkey, left_schema, payload_schema, nb=None):
    """INNER-join a UNIQUE-keyed right payload onto left rows (bucketed;
    pyarrow C++ join per bucket). Output: left columns + payload columns
    for every left row whose key has a right row. ``nb``: see
    _bucketed_join — pass small for known-small inputs."""
    return _attach(left, right, lkey, rkey, left_schema, payload_schema, nb, "inner")


def attach_left(left, right, lkey, rkey, left_schema, payload_schema, nb=None):
    """LEFT-OUTER-join a UNIQUE-keyed right payload onto left rows
    (bucketed; pyarrow C++ 'left outer' per bucket). Every left row
    survives; payload columns are null where the key has no right row
    (including buckets whose right side is entirely empty). ``nb``: see
    _bucketed_join — pass small for known-small inputs."""
    return _attach(left, right, lkey, rkey, left_schema, payload_schema, nb, "left outer")


def _filter_join(left, right, keys, left_schema, nb, how):
    """Keep left rows by key presence in ``right`` (``how`` = pyarrow
    'left semi' / 'left anti'); only right's key columns ship."""
    import pyarrow as pa

    keys = list(keys)
    names = [f.name for f in left_schema]
    right_schema = pa.schema([left_schema.field(k) for k in keys])
    return _bucketed_join(
        left, right, keys, left_schema, right_schema,
        lambda lt, rt: lt.join(rt, keys=keys, join_type=how).select(names), nb=nb,
        keep_left_on_empty_right=how == "left anti",
    )


def semi_join(left, right, keys, left_schema, nb=None):
    """LEFT-SEMI join on ``keys`` (column names shared by both sides):
    keep left rows whose key appears in right (bucketed; pyarrow C++
    'left semi' per bucket). ``nb``: see _bucketed_join."""
    return _filter_join(left, right, keys, left_schema, nb, "left semi")


def anti_join(left, right, keys, left_schema, nb=None):
    """LEFT-ANTI join on ``keys`` (column names shared by both sides):
    keep left rows whose key does NOT appear in right (bucketed; pyarrow
    C++ 'left anti' per bucket). Buckets where the right side is empty
    keep every left row. ``nb``: see _bucketed_join."""
    return _filter_join(left, right, keys, left_schema, nb, "left anti")


def grouped_aggregate(ds, keys, schema, nb=None, **outs):
    """High-cardinality groupby-aggregate: ``arrow_kernels.exchange`` +
    ``agg`` — rows bucket by key hash into a few FAT groups, each
    aggregated with pyarrow's C++ Table.group_by, output blocks typed
    ``schema`` (keys + the ``name=(col, op)`` outputs, in order).

    Ray 2.49's Aggregate operator costs ~230us of CPU PER DISTINCT GROUP
    (measured: 264 s CPU for 1.1M (a, b) pair groups that pyarrow
    aggregates in under a second) — it is only usable when group count is
    small. Each key lives in exactly one bucket, so per-bucket aggregation
    is globally exact. ``nb``: see _bucketed_join."""
    from smse_backend_ray.functions.arrow_kernels import agg, exchange

    return exchange(ds, keys, lambda g: agg(g, keys, **outs), schema, nb=nb)
