"""Arrow kernels shared by the SQL-twinned operators (relational, events,
textstats).

Each operator's plan stays visible at its call site — per-batch combine ->
exchange (``joins._bucketed_join`` / ``joins.grouped_aggregate`` /
``exchange``) -> per-bucket roll -> driver merge. These helpers are the
vocabulary the steps are written in, so each micro-pattern has ONE copy:

- ``arrow_map``: the zero-copy pyarrow ``map_batches`` every stage uses;
- ``agg``: GROUP BY with named outputs, sum/count outputs as int64;
- ``int64_schema``: the mostly-int64 partial schemas the exchanges ship;
- ``in_window``: the half-open ``lo <= col < hi`` mask;
- ``run_rank``: run starts, run ids and 1-based rank within the runs of
  sorted keys (the per-user / per-doc numpy segment pass);
- ``exchange``: one key-hash exchange with a vectorized per-bucket kernel
  and typed output blocks (many keys per bucket, never a call per key);
- ``hist_quantiles``: exact linear-interpolation quantiles over a
  (group, value, count) histogram.

Plain pyarrow covers the rest: ``Table.sort_by`` for full sorts,
``Schema.empty_table()`` for empty tables, and ``lt.join(rt, key)`` with
the same key name on both sides (pyarrow coalesces the key columns).
"""

from __future__ import annotations

import datetime

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_INT_OPS = ("sum", "count", "count_distinct")


def arrow_map(ds, fn):
    """``ds.map_batches(fn)`` over zero-copy pyarrow batches."""
    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def int64_schema(*names: str, **typed: pa.DataType) -> pa.Schema:
    """Schema of int64 ``names`` followed by the ``typed`` fields."""
    return pa.schema([(n, pa.int64()) for n in names] + list(typed.items()))


def agg(t: pa.Table, keys, **outs) -> pa.Table:
    """``SELECT keys, op(col) AS name ... GROUP BY keys`` for
    ``name=(col, op)``: key columns first, then the outputs in argument
    order; integer sum/count outputs are int64. No outputs = the distinct
    key rows. Group order is pyarrow's (callers sort when it matters)."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    g = t.group_by(keys).aggregate([spec for spec in outs.values()])
    cols = {k: g[k] for k in keys}
    for name, (col, op) in outs.items():
        v = g[f"{col}_{op}"]
        if op in _INT_OPS and pa.types.is_integer(v.type):
            v = pc.cast(v, pa.int64())
        cols[name] = v
    return pa.table(cols)


def _bound(v):
    return datetime.datetime.fromisoformat(v) if isinstance(v, str) else v


def in_window(col, lo, hi):
    """Half-open ``lo <= col < hi`` mask (null rows -> null, which
    ``filter`` drops). Date bounds (``datetime`` or ISO strings) compare
    on timestamp[us]; pass them captured at driver time — a worker's own
    config import would win inside a closure."""
    lo, hi = _bound(lo), _bound(hi)
    if isinstance(lo, datetime.datetime):
        col = pc.cast(col, pa.timestamp("us"))
    return pc.and_(pc.greater_equal(col, pa.scalar(lo)), pc.less(col, pa.scalar(hi)))


def run_rank(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Runs of equal rows in keys sorted by (keys[0], keys[1], ...):
    ``(start, run, rank)`` = run-start mask, 0-based run id and 1-based
    rank within the run. A run ends where ANY key changes."""
    n = len(keys[0])
    start = np.zeros(n, dtype=bool)
    if n:
        start[0] = True
        for k in keys:
            start[1:] |= k[1:] != k[:-1]
    run = np.cumsum(start) - 1
    rank = np.arange(1, n + 1, dtype=np.int64) - np.flatnonzero(start)[run]
    return start, run, rank


def exchange(ds, key: str, fn, schema: pa.Schema, nb: int | None = None):
    """One exchange on a hash bucket of ``key``: every key's rows meet in
    one group, and ``fn(group) -> Table`` runs once per group over MANY
    keys (vectorized inside — a group per key pays a Python call per
    key). Output blocks are typed ``schema``; empty groups and empty
    blocks never reach ``fn``. ``nb`` defaults to the CPU-scaled
    ``joins._n_buckets()``; placement never changes the output."""
    from smse_backend_ray.functions import joins

    nb = nb or joins._n_buckets()

    def tag(t: pa.Table) -> pa.Table:
        b = joins._bucket_of(t, [key], nb) if t.num_columns else np.zeros(0, np.int64)
        return t.append_column("__b", pa.array(b, type=pa.int64()))

    def per_group(g: pa.Table) -> pa.Table:
        if not g.num_rows or key not in g.column_names:
            return schema.empty_table()
        return fn(g.drop_columns(["__b"])).select(schema.names).cast(schema)

    grouped = arrow_map(ds, tag).groupby("__b").map_groups(
        per_group, batch_format="pyarrow"
    )
    return joins.with_schema(grouped, schema)


def hist_quantiles(
    t: pa.Table, key: str, value: str, count: str, probs, n_name: str, scale: float = 1.0
) -> pa.Table:
    """Exact quantiles per ``key`` from a (key, value, count) histogram
    (one row per distinct (key, value)): pos = q*(n-1), v = v_lo +
    frac*(v_hi - v_lo) in double, then / ``scale``, rounded half-away 4 —
    the DuckDB ``quantile_cont`` formula. Output (key, n_name, p<100q>...)
    ordered by key; no rows for an empty histogram."""
    from smse_backend_ray.functions.rounding import round_half_away

    pcols = [f"p{int(round(q * 100)):d}" for q in probs]
    fields = [(key, pa.string()), (n_name, pa.int64())] + [(c, pa.float64()) for c in pcols]
    t = t.sort_by([(key, "ascending"), (value, "ascending")])
    keys = t[key].to_numpy(zero_copy_only=False)
    vals = t[value].to_numpy().astype(np.float64)
    cnts = t[count].to_numpy()
    starts = np.flatnonzero(run_rank(keys)[0])
    rows: dict[str, list] = {f: [] for f, _ in fields}
    for s, e in zip(starts, np.append(starts[1:], len(keys))):
        v, cum = vals[s:e], np.cumsum(cnts[s:e])
        n = int(cum[-1])
        rows[key].append(str(keys[s]))
        rows[n_name].append(n)
        for q, col in zip(probs, pcols):
            pos = q * (n - 1)
            lo, hi = int(np.floor(pos)), int(np.ceil(pos))
            # value at 0-based rank r = the first bin whose cumulative
            # count exceeds r
            v_lo = v[np.searchsorted(cum, lo + 1, side="left")]
            v_hi = v[np.searchsorted(cum, hi + 1, side="left")]
            val = (v_lo + (pos - lo) * (v_hi - v_lo)) / scale
            rows[col].append(float(round_half_away(np.array([val]), 4)[0]))
    return pa.table({f: pa.array(rows[f], type=ty) for f, ty in fields})
