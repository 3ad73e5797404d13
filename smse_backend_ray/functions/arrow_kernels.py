"""Arrow kernels shared by the SQL-twinned operators (relational, events,
textstats, dedup, simsearch, sampling, packing, curate).

Each operator's plan stays visible at its call site — per-batch combine ->
``exchange`` (directly, or as ``joins.attach_*`` / ``semi_join`` /
``grouped_aggregate``) -> per-bucket roll -> driver merge. These helpers are the
vocabulary the steps are written in, so each micro-pattern has ONE copy:

- ``arrow_map``: the zero-copy pyarrow ``map_batches`` every stage uses;
- ``agg``: GROUP BY with named outputs, sum/count outputs as int64;
- ``int64_schema``: the mostly-int64 partial schemas the exchanges ship;
- ``in_window``: the half-open ``lo <= col < hi`` mask;
- ``run_rank``: run starts, run ids and 1-based rank within the runs of
  sorted keys (the per-user / per-doc numpy segment pass);
- ``exchange``: THE key-hash exchange with a vectorized per-bucket kernel
  and typed, row-bundled output blocks (many keys per bucket, never a call
  per key);
  ``joins`` builds its joins and ``grouped_aggregate`` on it;
- ``ordered_scan``: THE two-level distributed exclusive prefix scan (per-
  range partial sums -> driver bases -> one ``exchange`` on the range id),
  with ``scan_ranges`` its one range-count sizing;
- ``run_pairs``: the upper-triangle (a < b) row pairs within each run of
  equal keys, with a run-size cap that reports what it skips;
- ``top_k``: per-group top-k by (score DESC, item ASC) in one lexsort;
- ``hist_quantiles``: exact linear-interpolation quantiles over a
  (group, value, count) histogram.

Plain pyarrow covers the rest: ``Table.sort_by`` for full sorts,
``Schema.empty_table()`` for empty tables, and ``lt.join(rt, key)`` with
the same key name on both sides (pyarrow coalesces the key columns).
"""

from __future__ import annotations

import datetime
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from smse_backend_ray.functions.collect import collect_table

_INT_OPS = ("sum", "count", "count_distinct")
# rows per output block of ``exchange`` (its closing map's batch size)
EXCHANGE_BLOCK_ROWS = 4096


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


def exchange(ds, keys, fn, schema: pa.Schema | None, nb: int | None = None):
    """THE bucket exchange: rows hash into ``nb`` fat buckets on ``keys``
    (a column name or a list), every key's rows meet in one group, and
    ``fn(group) -> Table`` runs once per group over MANY keys (vectorized
    inside — a group per key pays a Python call per key). Empty groups
    never reach ``fn``. ``ds`` may be a list of Datasets: each is tagged in
    its own map (fused into its last map) before they union — a join ships
    both sides this way. ``nb`` defaults to the CPU-scaled
    ``joins.cpu_scaled_buckets()``; placement never changes the output.

    Ray 2.49's sort-based groupby emits one block per INPUT block, most of
    them empty at a small ``nb``. One closing map bundles them into blocks
    of at least ``EXCHANGE_BLOCK_ROWS`` rows (at most rows / that + 1
    blocks; an empty one only when the whole output is empty), so a chain
    or union of exchanges keeps its block count, and types them
    ``schema``. ``schema=None`` keeps ``fn``'s own output types (for a
    caller that cannot name them before the run); an all-empty output then
    stays a zero-column block, which ``collect_table`` drops."""
    from smse_backend_ray.functions import joins

    keys = [keys] if isinstance(keys, str) else list(keys)
    nb = nb or joins.cpu_scaled_buckets()

    def tag(t: pa.Table) -> pa.Table:
        # a zero-row block keeps its columns (typed); only a zero-column
        # block (Ray's own empty partition upstream) has none to keep
        b = joins._bucket_of(t, keys, nb) if t.num_columns else np.zeros(0, np.int64)
        return t.append_column("__b", pa.array(b, type=pa.int64()))

    def per_group(g: pa.Table) -> pa.Table:
        if not g.num_rows or not set(keys) <= set(g.column_names):
            return pa.table({}) if schema is None else schema.empty_table()
        out = fn(g.drop_columns(["__b"]))
        return out if schema is None else out.select(schema.names).cast(schema)

    def typed(t: pa.Table) -> pa.Table:
        return t if schema is None or t.num_columns else schema.empty_table()

    tagged = [arrow_map(d, tag) for d in (ds if isinstance(ds, list) else [ds])]
    if len(tagged) > 1:
        tagged = [tagged[0].union(*tagged[1:])]
    grouped = tagged[0].groupby("__b").map_groups(per_group, batch_format="pyarrow")
    return grouped.map_batches(typed, batch_format="pyarrow", zero_copy_batch=True,
                               batch_size=EXCHANGE_BLOCK_ROWS)


def scan_ranges(sf_dir: str, n_ranges: int | None = None) -> int:
    """The range count R of an ordered scan over ``sf_dir``'s documents:
    ``n_ranges`` when given, else the CPU-scaled count, lowered by the
    documents footer row count. R only spreads the work; a scan's output
    is R-invariant (tested per operator)."""
    from smse_backend_ray.functions.joins import cpu_scaled_buckets
    from smse_backend_ray.sources.corpus import _parquet_rows

    rows = _parquet_rows(os.path.join(sf_dir, "documents.parquet"))
    return n_ranges or cpu_scaled_buckets(mult=4, floor=8, rows=rows)


def ordered_scan(ds, order, outs: dict, schema: pa.Schema, nb: int | None = None):
    """THE two-level distributed exclusive prefix scan (Blelloch, "Prefix
    Sums and Their Applications", 1990) over rows in (rid, *order) order.
    Every row carries an int64 range id ``rid`` monotone in that order
    (all of range r's rows precede range r+1's). For each ``name: col``
    of ``outs`` a row gets the sum of ``col`` over every row before it;
    ``col=None`` counts rows instead, a 0-based rank.

    One ``arrow_map`` sums each range per block; the driver turns those
    sums into exclusive per-range bases (O(ranges) state); one
    ``exchange`` on ``rid`` then sorts each group by (rid, *order) and
    adds each range's base to the exclusive cumsum within its run of rid
    — many ranges per group, no Python call per range. ``ds`` is read
    twice, so it is materialized here. Output blocks are typed ``schema``
    (columns of ``ds`` and the outs); None when ``ds`` has no rows."""
    ds = ds.materialize()
    sums = {n: ("rid", "count") if c is None else (c, "sum") for n, c in outs.items()}
    part = collect_table(arrow_map(ds, lambda t: agg(t, "rid", **sums)),
                         empty_schema=int64_schema("rid", *outs))
    if not part.num_rows:
        return None
    part = agg(part, "rid", **{n: (n, "sum") for n in outs}).sort_by("rid")
    rids = part["rid"].to_numpy()
    bases = {n: np.cumsum(part[n].to_numpy()) - part[n].to_numpy() for n in outs}

    def scan(g: pa.Table) -> pa.Table:
        g = g.sort_by([("rid", "ascending")] + [(o, "ascending") for o in order])
        r = g["rid"].to_numpy()
        start, run, _ = run_rank(r)
        first, base_at = np.flatnonzero(start)[run], np.searchsorted(rids, r)
        for name, col in outs.items():
            v = np.ones(len(r), np.int64) if col is None else g[col].to_numpy()
            c = np.cumsum(v) - v  # exclusive over the group, rebased per run
            g = g.append_column(name, pa.array(bases[name][base_at] + c - c[first], pa.int64()))
        return g

    return exchange(ds, "rid", scan, schema, nb)


def run_pairs(key: np.ndarray, order: np.ndarray, cap: int | None = None):
    """Every in-run row pair: rows sort by (key, order), and each row pairs
    with every EARLIER row of its run of equal ``key`` — the upper
    triangle, so ``order[a] <= order[b]``. Returns ``(a, b, skipped)``:
    original-row indices of each pair, and ``skipped = (first row, size)``
    of the runs longer than ``cap``, which emit no pairs."""
    perm = np.lexsort((order, key))
    start, run, rank = run_rank(key[perm])
    starts = np.flatnonzero(start)
    sizes = np.diff(np.append(starts, len(perm)))
    over = sizes > cap if cap is not None else np.zeros(len(starts), bool)
    pos = np.where(over[run], 0, rank - 1)  # row i pairs with its pos predecessors
    b = np.repeat(np.arange(len(perm)), pos)
    first = np.cumsum(pos) - pos
    a = np.repeat(starts[run], pos) + np.arange(len(b)) - np.repeat(first, pos)
    return perm[a], perm[b], (perm[starts[over]], sizes[over])


def top_k(group: np.ndarray, item: np.ndarray, score: np.ndarray, k: int, mask=None):
    """Per-``group`` top-``k`` rows by (score DESC, item ASC) — callers pass
    the ROUNDED score, so ties break on the item. ``mask`` (optional bool)
    keeps only its rows (an IVF probe). Returns ``(idx, rank)``: input row
    indices in (group ASC, score DESC, item ASC) order, 1-based rank."""
    idx = np.flatnonzero(mask) if mask is not None else np.arange(len(group))
    idx = idx[np.lexsort((item[idx], -score[idx], group[idx]))]
    rank = run_rank(group[idx])[2]
    keep = rank <= k
    return idx[keep], rank[keep]


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
