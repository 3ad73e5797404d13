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
  3. per-range SUMS come back to the driver, which computes the exclusive
     range offsets — the only driver-held state, O(ranges) not O(docs);
  4. one ``exchange`` on the range id hashes MANY ranges into each fat
     group; a group sorts by (range, doc_id) and adds each range's offset
     to the exclusive cumsum within its run of range ids (run_rank) — no
     Python call per range.

Steps 3-4 are ``arrow_kernels.ordered_scan``, the one two-level scan
(shared with sampling.doc_shuffle and curate.curation_pipeline).

SQL twin: a plain window cumsum (``pack_bins_sql``) — exact integer math on
both sides, so the driver gate hash-compares it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Max, Min

from smse_backend_ray.functions.analyzer import subtokens_batch
from smse_backend_ray.functions.arrow_kernels import arrow_map, int64_schema, ordered_scan, scan_ranges
from smse_backend_ray.functions.collect import collect_table
from smse_backend_ray.functions.sqlgen import subtoken_expr
from smse_backend_ray.sources.corpus import read_table

# model context window the packer fills (frozen with the SQL twin)
PACK_WINDOW = 2048


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
    R = scan_ranges(sf_dir, n_ranges)
    counts = _token_counts(sf_dir).materialize()
    schema = int64_schema("doc_id", "n_tokens", "start_offset")
    if counts.count() == 0:
        return schema.append(pa.field("bin", pa.int64())).empty_table()
    bounds = counts.aggregate(Min("doc_id", alias_name="mn"), Max("doc_id", alias_name="mx"))
    mn, span = bounds["mn"], bounds["mx"] - bounds["mn"] + 1

    def tag(t: pa.Table) -> pa.Table:
        # equal-width ranges over [mn, mx]; int64-safe for 15-digit ids * R
        return t.append_column("rid", pa.array((t["doc_id"].to_numpy() - mn) * R // span))

    ds = ordered_scan(arrow_map(counts, tag), ["doc_id"], {"start_offset": "n_tokens"}, schema, R)
    out = collect_table(ds, empty_schema=schema).sort_by("doc_id")
    return out.append_column("bin", pa.array(out["start_offset"].to_numpy() // window))


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
