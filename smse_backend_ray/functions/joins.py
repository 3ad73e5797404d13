"""Distributed join helpers.

Two implementations, chosen by input shape:

- ``dsjoin`` — Ray-native hash join. SPARSE-INPUT CAVEAT: Ray 2.49's
  aggregator materializes a partition that received no blocks as a
  ZERO-COLUMN table and pyarrow's join then dies with 'No match ... for
  key field reference' — only safe when every hash partition is
  near-certain to receive rows on both sides (dense keys, rows >>
  num_partitions; the relational fact/dim rollups). Found by the
  adversarial-corpus fuzz (tests/test_sqlgen_fuzz.py).

- ``attach_unique`` / ``semi_join`` — bucketed sort-shuffle joins for
  sparse/candidate-bounded inputs: rows hash into a few FAT buckets (never
  one group per key — a per-key map_groups pays a Python call per key,
  measured as the dedup family's wall), and each bucket joins its two
  sides with pyarrow's in-memory C++ Table.join. Empty partitions are a
  non-event on this path, and the per-bucket join is exact.
"""

from __future__ import annotations


def dsjoin(left, right, join_type, num_partitions, on, right_on=None):
    return left.join(
        right,
        join_type,
        num_partitions,
        on=on,
        right_on=right_on,
        aggregator_ray_remote_args={"num_cpus": 0.01},
    )


def cpu_scaled_buckets(
    mult: int = 8,
    floor: int = 16,
    rows: int | None = None,
    rows_per_bucket: int = 2048,
) -> int:
    """The ONE cluster-size-scaled bucket/range-count helper (exchange
    bucket counts, pair-group counts, packing ranges all derive from it).

    ``rows`` (optional, e.g. the source parquet footer count) only LOWERS
    the CPU-scaled target: every bucket is a reduce task AND an output
    block, so a tiny input through 8*cpus buckets pays dozens of
    near-empty tasks per exchange. Bucket placement never affects exchange
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


def _n_buckets() -> int:
    return cpu_scaled_buckets()


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
    """Common machinery: tag rows with (bucket, side), union, groupby
    bucket, run ``joiner(left_tbl, right_tbl) -> Table`` per FAT group.
    Sides are reconstructed from a marker column; schema-less empty blocks
    are normalized away.

    ``nb`` sizes the exchange: every bucket becomes a reduce task AND an
    output block, so a tiny input through the default (8*cpus) buckets
    pays hundreds of near-empty tasks per stage — chained stages made that
    the dedup verify wall (measured 7-12 s per attach on 257 rows).
    Callers that know the input is small pass a small nb."""
    import numpy as np
    import pyarrow as pa

    nb = nb or _n_buckets()
    lnames = [f.name for f in left_schema]
    rnames = [f.name for f in right_schema]
    all_fields = list(left_schema) + [
        f for f in right_schema if f.name not in lnames
    ]
    mixed_schema = pa.schema(
        [("__b", pa.int64()), ("__side", pa.int8())] + all_fields
    )

    def tag(side):
        def fn(t: "pa.Table") -> "pa.Table":
            names = lnames if side == 0 else rnames
            if t.num_columns == 0 or t.num_rows == 0:
                return mixed_schema.empty_table()
            cols = {
                "__b": pa.array(_bucket_of(t, keys, nb), type=pa.int64()),
                "__side": pa.array(
                    np.full(t.num_rows, side, dtype=np.int8)
                ),
            }
            for f in all_fields:
                cols[f.name] = (
                    t[f.name]
                    if f.name in names and f.name in t.column_names
                    else pa.nulls(t.num_rows, f.type)
                )
            return pa.table(cols)

        return fn

    out_schema = joiner(left_schema.empty_table(), right_schema.empty_table()).schema

    def per_bucket(g: "pa.Table") -> "pa.Table":
        side = g["__side"].to_numpy(zero_copy_only=False)
        lmask = side == 0
        lt = g.filter(pa.array(lmask)).select(lnames)
        rt = g.filter(pa.array(~lmask)).select(rnames)
        if lt.num_rows == 0 or (rt.num_rows == 0 and not keep_left_on_empty_right):
            return out_schema.empty_table()
        return joiner(lt, rt)

    mixed = left.map_batches(
        tag(0), batch_format="pyarrow", zero_copy_batch=True
    ).union(right.map_batches(tag(1), batch_format="pyarrow", zero_copy_batch=True))
    return mixed.groupby("__b").map_groups(per_bucket, batch_format="pyarrow")


def attach_unique(left, right, lkey, rkey, left_schema, payload_schema, nb=None):
    """INNER-join a UNIQUE-keyed right payload onto left rows (bucketed;
    pyarrow C++ join per bucket). Output: left columns + payload columns
    for every left row whose key has a right row. ``nb``: see
    _bucketed_join — pass small for known-small inputs."""
    import pyarrow as pa

    lnames = [f.name for f in left_schema]
    pnames = [f.name for f in payload_schema]
    # bucket-hash the same column name on both sides: rename the right key
    # to the left key's name up front
    right_renamed = right.rename_columns({rkey: lkey}) if rkey != lkey else right
    right_schema = pa.schema(
        [(lkey, left_schema.field(lkey).type)] + list(payload_schema)
    )

    def joiner(lt: "pa.Table", rt: "pa.Table") -> "pa.Table":
        # same key name on both sides: pyarrow coalesces the key columns
        return lt.join(rt, lkey, join_type="inner").select(lnames + pnames)

    return _bucketed_join(
        left, right_renamed, [lkey], left_schema, right_schema, joiner, nb=nb
    )


def attach_left(left, right, lkey, rkey, left_schema, payload_schema, nb=None):
    """LEFT-OUTER-join a UNIQUE-keyed right payload onto left rows
    (bucketed; pyarrow C++ 'left outer' per bucket). Every left row
    survives; payload columns are null where the key has no right row
    (including buckets whose right side is entirely empty). ``nb``: see
    _bucketed_join — pass small for known-small inputs."""
    import pyarrow as pa

    lnames = [f.name for f in left_schema]
    pnames = [f.name for f in payload_schema]
    right_renamed = right.rename_columns({rkey: lkey}) if rkey != lkey else right
    right_schema = pa.schema(
        [(lkey, left_schema.field(lkey).type)] + list(payload_schema)
    )

    def joiner(lt: "pa.Table", rt: "pa.Table") -> "pa.Table":
        return lt.join(rt, lkey, join_type="left outer").select(lnames + pnames)

    return _bucketed_join(
        left, right_renamed, [lkey], left_schema, right_schema, joiner, nb=nb,
        keep_left_on_empty_right=True,
    )


def semi_join(left, right, keys, left_schema, nb=None):
    """LEFT-SEMI join on ``keys`` (column names shared by both sides):
    keep left rows whose key appears in right (bucketed; pyarrow C++
    'left semi' per bucket). ``nb``: see _bucketed_join."""
    import pyarrow as pa

    right_schema = pa.schema([(k, left_schema.field(k).type) for k in keys])
    lnames = [f.name for f in left_schema]

    def joiner(lt: "pa.Table", rt: "pa.Table") -> "pa.Table":
        return lt.join(rt, keys=list(keys), join_type="left semi").select(lnames)

    def right_keys_only(t: "pa.Table") -> "pa.Table":
        if t.num_columns == 0 or t.num_rows == 0:
            return right_schema.empty_table()
        return t.select(keys)

    right_k = right.map_batches(
        right_keys_only, batch_format="pyarrow", zero_copy_batch=True
    )
    return _bucketed_join(left, right_k, list(keys), left_schema, right_schema, joiner, nb=nb)


def anti_join(left, right, keys, left_schema, nb=None):
    """LEFT-ANTI join on ``keys`` (column names shared by both sides):
    keep left rows whose key does NOT appear in right (bucketed; pyarrow
    C++ 'left anti' per bucket). Buckets where the right side is empty
    keep every left row. ``nb``: see _bucketed_join."""
    import pyarrow as pa

    right_schema = pa.schema([(k, left_schema.field(k).type) for k in keys])
    lnames = [f.name for f in left_schema]

    def joiner(lt: "pa.Table", rt: "pa.Table") -> "pa.Table":
        return lt.join(rt, keys=list(keys), join_type="left anti").select(lnames)

    def right_keys_only(t: "pa.Table") -> "pa.Table":
        if t.num_columns == 0 or t.num_rows == 0:
            return right_schema.empty_table()
        return t.select(keys)

    right_k = right.map_batches(
        right_keys_only, batch_format="pyarrow", zero_copy_batch=True
    )
    return _bucketed_join(
        left, right_k, list(keys), left_schema, right_schema, joiner, nb=nb,
        keep_left_on_empty_right=True,
    )


def with_schema(ds, schema):
    """Normalize a Dataset's blocks to ``schema``.

    Ray 2.49's Aggregate operator emits EMPTY partitions as zero-column
    blocks (the 'Failed to hash the schemas' warning); downstream consumers
    that inspect columns then break. This map replaces schema-less empties
    with a typed empty table and column-projects the rest."""
    import pyarrow as pa

    def fix(t: "pa.Table") -> "pa.Table":
        if t.num_columns == 0 or t.num_rows == 0:
            return schema.empty_table()
        return t.select(schema.names).cast(schema)

    return ds.map_batches(fix, batch_format="pyarrow", zero_copy_batch=True)


def grouped_aggregate(ds, keys, aggs, nb=None):
    """High-cardinality groupby-aggregate: bucket rows by key hash into a
    few FAT groups, aggregate each with pyarrow's C++ Table.group_by.

    Ray 2.49's Aggregate operator costs ~230us of CPU PER DISTINCT GROUP
    (measured: 264 s CPU for 1.1M (a, b) pair groups that pyarrow
    aggregates in under a second) — it is only usable when group count is
    small. Each key lives in exactly one bucket, so per-bucket aggregation
    is globally exact.

    ``aggs``: list of (value_col, op, out_name) with op in
    {sum, count, min, max}. Output columns: keys + out_names. ``nb``: see
    _bucketed_join — pass small for known-small inputs."""
    import pyarrow as pa

    nb = nb or _n_buckets()

    def tag(t: "pa.Table") -> "pa.Table":
        if t.num_columns == 0 or t.num_rows == 0:
            return None  # filtered below
        return t.append_column(
            "__b", pa.array(_bucket_of(t, keys, nb), type=pa.int64())
        )

    def tag_safe(t: "pa.Table") -> "pa.Table":
        out = tag(t)
        if out is None:
            # typed empty: keys + value cols unknown here; emit zero rows of
            # whatever schema this block had plus __b so union stays sane
            return t.append_column("__b", pa.array([], type=pa.int64()))
        return out

    def agg_group(g: "pa.Table") -> "pa.Table":
        ga = g.group_by(list(keys)).aggregate([(c, op) for c, op, _ in aggs])
        return ga.select(list(keys) + [f"{c}_{op}" for c, op, _ in aggs]).rename_columns(
            list(keys) + [out for _, _, out in aggs]
        )

    return (
        ds.map_batches(tag_safe, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(agg_group, batch_format="pyarrow")
    )
