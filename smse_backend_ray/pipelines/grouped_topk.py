"""Grouped top-k: the per-key head of a global ordering (reference analog:
per-user result caps / pagination heads, smse_backend/services/search.py —
generalized to any key).

Scale shape (SURVEY.md T1/T2 pattern, reused for arbitrary keys): a
per-batch COMBINER keeps at most k rows per key inside ``map_batches``
before the shuffle, so the ``groupby(key)`` exchange carries
O(k x keys_per_batch x n_batches) rows instead of the whole table; the
per-group finalize re-applies the same selection and stamps ranks. Hot keys
cost k rows per map batch, never their full row count.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from smse_backend_ray.functions.arrow_kernels import run_rank


def _topk_batch(
    t: pa.Table, key: str, by: str, k: int, tiebreak: str, with_rank: bool
) -> pa.Table:
    """Keep the first k rows per ``key`` under (by DESC, tiebreak ASC) order.
    Fully vectorized: one sort + one run-boundary scan."""
    if t.num_rows == 0:
        return (
            t.append_column("rank", pa.array([], type=pa.int64())) if with_rank else t
        )
    t = t.sort_by([(key, "ascending"), (by, "descending"), (tiebreak, "ascending")])
    rank = run_rank(t[key].to_numpy(zero_copy_only=False))[2]
    mask = rank <= k
    out = t.filter(pa.array(mask))
    if with_rank:
        out = out.append_column("rank", pa.array(rank[mask], type=pa.int64()))
    return out


def grouped_topk(
    ds: "ray.data.Dataset", key: str, by: str, k: int, tiebreak: str = "doc_id"
) -> "ray.data.Dataset":
    """Top-k rows per ``key`` ordered by (``by`` DESC, ``tiebreak`` ASC),
    with a 1-based ``rank`` column. ``tiebreak`` must be unique per row for
    the rank order to be deterministic."""
    combined = ds.map_batches(
        lambda t: _topk_batch(t, key, by, k, tiebreak, with_rank=False),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return combined.groupby(key).map_groups(
        lambda g: _topk_batch(g, key, by, k, tiebreak, with_rank=True),
        batch_format="pyarrow",
    )
