"""Sequence packing over the ``documents`` table — assign every doc a global
token offset and a fixed-size context-window bin, the step a training-data
pipeline runs to pack documents into model sequences.

The interesting primitive is the DISTRIBUTED ORDERED PREFIX SUM over doc_id
order (``pack_bins``): Ray Data has no scan operator, so it is built as the
classic two-level scan —

  1. one streaming pass computes per-doc token counts (Arrow-C++ tokenizer,
     counts only — text never shuffles);
  2. docs range-partition by doc_id into R contiguous ranges (equal-width
     over [min, max] — balanced for dense or hash-uniform ids; skewed ids
     degrade balance, never correctness);
  3. per-range SUMS (R scalars) come back to the driver, which computes the
     R exclusive range offsets — the only driver-held state, O(ranges) not
     O(docs);
  4. one groupby(range).map_groups pass sorts each FAT range by doc_id,
     takes a vectorized cumsum, and adds the range offset.

SQL twin: a plain window cumsum (``pack_bins_sql``) — exact integer math on
both sides, so the driver gate hash-compares it.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from smse_backend_ray.functions.analyzer import subtokens_batch
from smse_backend_ray.functions.collect import collect_table
from smse_backend_ray.functions.sqlgen import subtoken_expr
from smse_backend_ray.sources.corpus import _parquet_rows, read_table

# model context window the packer fills (frozen with the SQL twin)
PACK_WINDOW = 2048


def _n_ranges(sf_dir: str | None = None) -> int:
    # the docs footer row count only LOWERS the CPU-scaled range count;
    # the result is semantics-free (pack_bins is R-invariant by test)
    from smse_backend_ray.functions.joins import cpu_scaled_buckets

    rows = (
        _parquet_rows(os.path.join(sf_dir, "documents.parquet"))
        if sf_dir else None
    )
    return cpu_scaled_buckets(mult=4, floor=8, rows=rows)


def _token_counts(sf_dir: str) -> "ray.data.Dataset":
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def counts(t: pa.Table) -> pa.Table:
        toks = subtokens_batch(t["text"])
        n = np.diff(np.asarray(toks.offsets, dtype=np.int64))
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "n_tokens": pa.array(n, type=pa.int64()),
            }
        )

    return ds.map_batches(counts, batch_format="pyarrow", zero_copy_batch=True)


def pack_bins(sf_dir: str, window: int = PACK_WINDOW, n_ranges: int | None = None) -> pa.Table:
    """(doc_id, n_tokens, start_offset, bin) for every doc, where
    start_offset is the exclusive prefix sum of n_tokens in doc_id order and
    bin = start_offset // window. Deterministic and partition-invariant:
    the offsets depend only on (doc_id, n_tokens), not on R or placement."""
    R = n_ranges or _n_ranges(sf_dir)
    counts = _token_counts(sf_dir).materialize()
    if counts.count() == 0:
        return pa.schema(
            [("doc_id", pa.int64()), ("n_tokens", pa.int64()),
             ("start_offset", pa.int64()), ("bin", pa.int64())]
        ).empty_table()
    from ray.data.aggregate import Max, Min

    bounds = counts.aggregate(
        Min("doc_id", alias_name="mn"), Max("doc_id", alias_name="mx")
    )  # one pass
    mn, mx = bounds["mn"], bounds["mx"]
    span = (mx - mn) + 1

    def rid_of(ids: np.ndarray) -> np.ndarray:
        # equal-width ranges over [mn, mx]; int64-safe for 15-digit ids * R
        return ((ids.astype(np.int64) - mn) * R) // span

    def partials(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        p = (
            pa.table({"rid": pa.array(rid_of(ids), type=pa.int64()), "s": t["n_tokens"]})
            .group_by("rid")
            .aggregate([("s", "sum")])
        )
        return pa.table({"rid": p["rid"], "s": pc.cast(p["s_sum"], pa.int64())})

    # per-range sums -> R scalars on the driver -> exclusive range offsets
    part = collect_table(
        counts.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
    )
    sums = np.zeros(R, dtype=np.int64)
    np.add.at(sums, part["rid"].to_numpy(), part["s"].to_numpy())
    range_off = np.concatenate(([0], np.cumsum(sums)[:-1]))
    off_ref = ray.put(range_off)

    def tag(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        return t.append_column("rid", pa.array(rid_of(ids), type=pa.int64()))

    def per_range(g: pa.Table) -> pa.Table:
        rid = int(g["rid"][0].as_py())
        base = int(ray.get(off_ref)[rid])
        order = pc.sort_indices(g["doc_id"])
        ids = g["doc_id"].take(order)
        nt = g["n_tokens"].take(order).to_numpy()
        start = base + np.concatenate(([0], np.cumsum(nt)[:-1]))
        return pa.table(
            {
                "doc_id": pc.cast(ids, pa.int64()),
                "n_tokens": pa.array(nt, type=pa.int64()),
                "start_offset": pa.array(start, type=pa.int64()),
                "bin": pa.array(start // window, type=pa.int64()),
            }
        )

    out = collect_table(
        counts.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("rid")
        .map_groups(per_range, batch_format="pyarrow")
    )
    return out.take(pc.sort_indices(out["doc_id"]))


def pack_bins_sql(window: int = PACK_WINDOW) -> str:
    """Window-cumsum twin of pack_bins (frozen engine<->SQL pair: n_tokens =
    count of non-empty raw subtokens; start_offset = exclusive prefix sum in
    doc_id order; bin = start_offset // window — exact integer math)."""
    return f"""
WITH raw0 AS (
  SELECT doc_id, unnest(l) AS term
  FROM (SELECT doc_id, {subtoken_expr('text')} AS l FROM documents)
),
per AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens
  FROM raw0 WHERE term <> '' GROUP BY doc_id
),
alln AS (
  SELECT d.doc_id, COALESCE(p.n_tokens, 0) AS n_tokens
  FROM documents d LEFT JOIN per p USING (doc_id)
),
scan AS (
  SELECT doc_id, n_tokens,
         CAST(COALESCE(sum(n_tokens) OVER (
           ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
         ), 0) AS BIGINT) AS start_offset
  FROM alln
)
SELECT doc_id, n_tokens, start_offset,
       CAST(start_offset // {window} AS BIGINT) AS bin
FROM scan ORDER BY doc_id
"""
