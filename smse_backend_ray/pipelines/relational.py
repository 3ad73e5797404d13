"""Relational pipelines over the TPC-H-style tables — the generic
wide-join / broadcast-join / rollup shapes a data engine must carry beyond
the search surface (the reference's only relational work is tiny
SQLAlchemy lookups, smse_backend/routes/search.py:88-127; these are the
distributed equivalents).

Float policy (README): money columns are 2-decimal doubles; every sum is
taken in EXACT SCALED INTEGERS — revenue = round(price*100) * (100 -
round(discount*100)) in 1e-4 dollar units, an int64 — so results are
independent of batch/partition order and hash-compare against DuckDB
bit-for-bit. No double accumulations anywhere.

Two join shapes, chosen by side size (SURVEY.md §4 guidance):
  - revenue_by_month: lineitem ⋈ orders is BIG-⋈-BIG -> per-batch combiner
    on the fact side, then a real distributed hash join (Dataset.join) on
    the key, then a small groupby rollup.
  - nation_revenue: supplier/nation are DIMENSION tables -> ray.put the
    joined dim once, map-side lookup inside map_batches (broadcast join;
    never a shuffle for the small side).

Every pyarrow join below joins on the SAME key name on both sides: pyarrow
coalesces the two key columns into one, so no right-key rename is needed.
"""

from __future__ import annotations

import datetime
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data.aggregate import Sum

from smse_backend_ray import config
from smse_backend_ray.functions.arrow_kernels import agg, arrow_map, in_window, int64_schema
from smse_backend_ray.functions.collect import collect_table
from smse_backend_ray.functions.joins import (
    _bucketed_join,
    anti_join,
    attach_left,
    attach_unique,
    cpu_scaled_buckets,
    grouped_aggregate,
    semi_join,
)
from smse_backend_ray.functions.rounding import round_half_away
from smse_backend_ray.sources.corpus import _parquet_rows, read_table

_US = pa.timestamp("us")


def _scan(sf_dir: str, table: str, columns: list[str], fn):
    """Fact/dimension scan + per-batch map. Cheap columnar work
    (filter/cast/int math): the 4096-row block floor of read_table."""
    return arrow_map(read_table(sf_dir, table, columns, rows_per_block=4096), fn)


def _dim(sf_dir: str, table: str, columns: list[str], key: str | None = None, keys=None):
    """Driver-side read of a dimension table; ``keys`` makes it a
    pushed-down point read of ``key IN keys`` (<= N survivor enrichment)."""
    import pyarrow.dataset as pads

    f = pads.field(key).isin(keys) if keys else None
    return pads.dataset(os.path.join(sf_dir, f"{table}.parquet")).to_table(
        columns=columns, filter=f
    )


def _lookup(sf_dir: str, table: str, key: str, columns: list[str], keys: list) -> dict:
    """{key: row} point read of ``keys``. FK integrity assumption (TPC-H
    guarantees it; the SQL twin's inner join would silently drop an orphan
    BEFORE top-N, so surfacing it loudly keeps the frozen pair honest
    rather than divergent)."""
    rows = {r[key]: r for r in _dim(sf_dir, table, [key] + columns, key, keys).to_pylist()}
    missing = [k for k in keys if k not in rows]
    if missing:
        raise ValueError(f"keys absent from {table}.{key}: {missing[:5]}")
    return rows


def _nations(sf_dir: str):
    """(names, nation index, supplier index): the nation names sorted (a
    stable int code per name), nationkey -> name code, and suppkey -> its
    nation's name code — the tiny supplier ⋈ nation dim chain every
    broadcast lookup below uses."""
    nat = _dim(sf_dir, "nation", ["n_nationkey", "n_name"])
    nkey = nat["n_nationkey"].to_numpy()
    names = sorted(set(nat["n_name"].to_pylist()))
    code = {n: i for i, n in enumerate(names)}
    nat_idx = np.full(int(nkey.max()) + 1, -1, dtype=np.int64)
    nat_idx[nkey] = [code[n] for n in nat["n_name"].to_pylist()]
    sup = _dim(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    skeys = sup["s_suppkey"].to_numpy()
    sup_idx = np.full(int(skeys.max()) + 1, -1, dtype=np.int64)
    sup_idx[skeys] = nat_idx[sup["s_nationkey"].to_numpy()]
    return pa.array(names, type=pa.string()), nat_idx, sup_idx


def _fact_buckets(sf_dir: str, table: str) -> int:
    """Exchange bucket count sized to the query's fact table (footer row
    count; only lowers the CPU-scaled default — joins.cpu_scaled_buckets)."""
    return cpu_scaled_buckets(rows=_parquet_rows(os.path.join(sf_dir, f"{table}.parquet")))


def _cents(col) -> np.ndarray:
    """Exact cents of a non-negative 2-decimal column: floor(x*100+0.5)."""
    return np.floor(col.to_numpy(zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)


def _revenue_scaled(t: pa.Table) -> np.ndarray:
    """Exact 1e-4-dollar units: round(p*100) * (100 - round(d*100)).
    Half-away rounding via floor(x+0.5) — values are non-negative."""
    return _cents(t["l_extendedprice"]) * (100 - _cents(t["l_discount"]))


def _rev_by(t: pa.Table, col: str, key: str) -> pa.Table:
    """Per-batch combiner: exact revenue summed per ``t[col]`` (as int64
    ``key``) — one row per key leaves the batch, not one per lineitem."""
    part = pa.table({key: pc.cast(t[col], pa.int64()), "rev": _revenue_scaled(t)})
    return agg(part, key, rev=("rev", "sum"))


def _keys(t: pa.Table, mask, col: str, key: str) -> pa.Table:
    """The int64 ``col`` of the rows passing ``mask``, named ``key``."""
    return pa.table({key: pc.cast(t.filter(mask)[col], pa.int64())})


def _total(t: pa.Table, col: str) -> int:
    return int(pc.sum(t[col]).as_py() or 0)


def revenue_by_month(sf_dir: str) -> pa.Table:
    """Monthly gross revenue: lineitem ⋈ orders on orderkey, rolled up by
    order month (ym = year*100 + month, exact int32). The fact side is
    pre-combined per batch to one row per orderkey BEFORE the join —
    the combiner halves (here: 4x's) the exchange and is the load-bearing
    move when the fact table is 10^11 rows. Join + month rollup are FUSED
    into the one orderkey exchange (_bucketed_join): each bucket emits a
    <= #months partial, and the final merge is a driver-side pyarrow
    group_by over nb * #months rows — exact integer sums, order-free,
    bounded by calendar size (not corpus size) at any scale. Replaces the
    Dataset.join + Ray Aggregate chain whose per-partition aggregator actors
    started ~180 worker processes for a 60 k-row input (measured 13-23 s;
    this path: ~1 s)."""

    def combine(t: pa.Table) -> pa.Table:
        part = pa.table({"l_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
                         "rev": _revenue_scaled(t)})
        return agg(part, "l_orderkey", rev=("rev", "sum"), n=("rev", "count"))

    def ord_ym(t: pa.Table) -> pa.Table:
        dt = pc.cast(t["o_orderdate"], _US)
        ym = (pc.year(dt).to_numpy(zero_copy_only=False) * 100
              + pc.month(dt).to_numpy(zero_copy_only=False)).astype(np.int32)
        return pa.table({"l_orderkey": pc.cast(t["o_orderkey"], pa.int64()), "ym": ym})

    def join_month_partial(lt: pa.Table, rt: pa.Table) -> pa.Table:
        j = lt.join(rt, "l_orderkey", join_type="inner")
        return agg(j, "ym", rev=("rev", "sum"), n=("n", "sum"))

    rolled = _bucketed_join(
        _scan(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"], combine),
        _scan(sf_dir, "orders", ["o_orderkey", "o_orderdate"], ord_ym),
        ["l_orderkey"], int64_schema("l_orderkey", "rev", "n"),
        int64_schema("l_orderkey", ym=pa.int32()),
        join_month_partial, nb=_fact_buckets(sf_dir, "lineitem"),
    )
    t = collect_table(rolled, empty_schema=int64_schema("rev", "n", ym=pa.int32()))
    return agg(t, "ym", revenue_scaled=("rev", "sum"), n_items=("n", "sum")).sort_by("ym")


def revenue_by_month_sql() -> str:
    return """
SELECT CAST(year(o_orderdate) * 100 + month(o_orderdate) AS INTEGER) AS ym,
       CAST(SUM(CAST(round(l_extendedprice * 100, 0) AS BIGINT)
                * (100 - CAST(round(l_discount * 100, 0) AS BIGINT))) AS BIGINT)
         AS revenue_scaled,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY 1 ORDER BY 1
"""


def nation_revenue(sf_dir: str) -> pa.Table:
    """Revenue by supplier nation: the dimension chain supplier ⋈ nation is
    tiny (10^2 / 25 rows even at 100 TB fact scale), so it is joined
    driver-side once, broadcast via ``ray.put``, and the fact table does a
    map-side array lookup — no shuffle for the small side, one combiner
    groupby for the rollup."""
    names, _, sup_idx = _nations(sf_dir)
    ref = ray.put(sup_idx)

    def partial(t: pa.Table) -> pa.Table:
        idx = ray.get(ref)[t["l_suppkey"].to_numpy()]
        sums = np.zeros(len(names), dtype=np.int64)
        cnts = np.zeros(len(names), dtype=np.int64)
        np.add.at(sums, idx, _revenue_scaled(t))
        np.add.at(cnts, idx, 1)
        nz = np.flatnonzero(cnts)
        return pa.table({"nidx": nz, "rev": sums[nz], "n": cnts[nz]})

    # per-block partials are <= 25 rows (nation count), so the final merge
    # is a driver-side pyarrow group_by over blocks * 25 rows — exact
    # integer sums, order-free; a Ray Aggregate exchange here is pure
    # overhead at every scale
    rolled = _scan(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"], partial)
    t = collect_table(rolled, empty_schema=int64_schema("nidx", "rev", "n"))
    g = agg(t, "nidx", revenue_scaled=("rev", "sum"), n_items=("n", "sum"))
    return g.set_column(0, "n_name", names.take(g["nidx"])).sort_by("n_name")


def order_priority_counts(sf_dir: str) -> pa.Table:
    """TPC-H Q4 shape (EXISTS semi-join): orders placed in 1996 that have
    at least one qualifying lineitem (l_discount > 0.05), counted by
    o_orderpriority. The fact side shrinks to DISTINCT qualifying orderkeys
    per batch (combiner) before the bucketed distributed semi-join; the
    orders side prunes to the date window and two columns at the read."""

    def window(t: pa.Table) -> pa.Table:
        m = in_window(t["o_orderdate"], "1996-01-01", "1997-01-01")
        return t.filter(m).select(["o_orderkey", "o_orderpriority"])

    def qualifying(t: pa.Table) -> pa.Table:
        # per-batch DISTINCT combiner: the semi-join right side carries one
        # row per (batch, orderkey), not one per lineitem
        k = agg(t.filter(pc.greater(t["l_discount"], 0.05)), "l_orderkey")
        return k.rename_columns(["o_orderkey"])

    kept = semi_join(
        _scan(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"], window),
        _scan(sf_dir, "lineitem", ["l_orderkey", "l_discount"], qualifying),
        keys=["o_orderkey"],
        left_schema=int64_schema("o_orderkey", o_orderpriority=pa.string()),
        nb=_fact_buckets(sf_dir, "orders"),
    )
    rolled = (
        arrow_map(kept, lambda t: agg(t, "o_orderpriority", n=("o_orderkey", "count")))
        .groupby("o_orderpriority")
        .aggregate(Sum("n", alias_name="n_orders"))
    )
    t = collect_table(rolled)
    t = pa.table({"o_orderpriority": t["o_orderpriority"],
                  "n_orders": pc.cast(t["n_orders"], pa.int64())})
    return t.sort_by("o_orderpriority")


def order_priority_counts_sql() -> str:
    return """
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_orders
FROM orders
WHERE o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate < TIMESTAMP '1997-01-01'
  AND EXISTS (
    SELECT 1 FROM lineitem
    WHERE l_orderkey = o_orderkey AND l_discount > CAST(0.05 AS DOUBLE)
  )
GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


def cust_order_distribution(sf_dir: str) -> pa.Table:
    """TPC-H Q13 shape: the count-of-counts histogram of orders per
    customer, INCLUDING zero-order customers — per-batch combiner ->
    distributed groupby for per-customer counts, then a bucketed LEFT
    OUTER attach onto the customer key column (joins.attach_left keeps
    every customer; missing payload -> 0), then a second tiny rollup."""
    counts = (
        _scan(sf_dir, "orders", ["o_custkey"],
              lambda t: agg(t, "o_custkey", n=("o_custkey", "count")))
        .groupby("o_custkey")
        .aggregate(Sum("n", alias_name="c_count"))
    )
    joined = attach_left(
        read_table(sf_dir, "customer", ["c_custkey"], rows_per_block=4096),
        counts, "c_custkey", "o_custkey",
        int64_schema("c_custkey"), int64_schema("c_count"),
        nb=_fact_buckets(sf_dir, "customer"),
    )

    def hist(t: pa.Table) -> pa.Table:
        c = pa.table({"c_count": pc.fill_null(pc.cast(t["c_count"], pa.int64()), 0)})
        return agg(c, "c_count", n=("c_count", "count"))

    rolled = (
        arrow_map(joined, hist).groupby("c_count").aggregate(Sum("n", alias_name="n_custs"))
    )
    t = collect_table(rolled)
    t = pa.table({"c_count": pc.cast(t["c_count"], pa.int64()),
                  "n_custs": pc.cast(t["n_custs"], pa.int64())})
    return t.sort_by([("n_custs", "descending"), ("c_count", "descending")])


def cust_order_distribution_sql() -> str:
    return """
SELECT c_count, CAST(count(*) AS BIGINT) AS n_custs FROM (
  SELECT c_custkey, CAST(COALESCE(cnt, 0) AS BIGINT) AS c_count
  FROM customer LEFT JOIN (
    SELECT o_custkey, count(*) AS cnt FROM orders GROUP BY o_custkey
  ) oc ON c_custkey = o_custkey
)
GROUP BY c_count ORDER BY n_custs DESC, c_count DESC
"""


def promo_revenue_share(sf_dir: str) -> pa.Table:
    """TPC-H Q14 shape: promo revenue share of 1996 shipments. The part
    dimension becomes a dense partkey -> is-promo bitmap broadcast via
    ``ray.put`` (one bit-ish byte per part; at dimension cardinalities
    where the bitmap outgrows the object store, switch to
    joins.attach_unique); the fact side does a map-side lookup and emits
    one exact-integer partial row per batch. The final ratio is ONE double
    division of two exact int64 sums, rounded half-away 4."""
    part = _dim(sf_dir, "part", ["p_partkey", "p_type"])
    pk = part["p_partkey"].to_numpy()
    promo = pc.equal(part["p_type"], "PROMO").to_numpy(zero_copy_only=False)
    # int8 LUT: 1=promo, 0=non-promo, -1=partkey absent from part — rows
    # whose partkey has no part row are DROPPED from both sums, exactly
    # like the SQL twin's inner join (no referential-integrity assumption)
    lut = np.full(int(pk.max()) + 1, -1, dtype=np.int8)
    lut[pk] = promo.astype(np.int8)
    ref = ray.put(lut)

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(in_window(t["l_shipdate"], "1996-01-01", "1997-01-01"))
        rev = _revenue_scaled(t)
        lut_ = ray.get(ref)
        keys = t["l_partkey"].to_numpy()
        flags = np.where(keys < len(lut_), lut_[np.minimum(keys, len(lut_) - 1)], -1)
        return pa.table({"k": [0], "promo": [int(rev[flags == 1].sum())],
                         "total": [int(rev[flags >= 0].sum())]})

    rolled = (
        _scan(sf_dir, "lineitem",
              ["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"], partial)
        .groupby("k")
        .aggregate(Sum("promo", alias_name="promo_revenue_scaled"),
                   Sum("total", alias_name="total_revenue_scaled"))
    )
    t = collect_table(rolled)
    p = int(t["promo_revenue_scaled"][0].as_py())
    tot = int(t["total_revenue_scaled"][0].as_py())
    pct = round_half_away(100.0 * p / tot, 4) if tot else 0.0
    return pa.table({"promo_revenue_scaled": [p], "total_revenue_scaled": [tot],
                     "promo_pct": pa.array([pct], type=pa.float64())})


def promo_revenue_share_sql() -> str:
    return """
SELECT promo_revenue_scaled, total_revenue_scaled,
       CASE WHEN total_revenue_scaled = 0 THEN 0.0
            ELSE round(100 * CAST(promo_revenue_scaled AS DOUBLE)
                       / CAST(total_revenue_scaled AS DOUBLE), 4)
       END AS promo_pct
FROM (
  SELECT
    CAST(SUM(CASE WHEN p_type = 'PROMO' THEN
      CAST(round(l_extendedprice * 100, 0) AS BIGINT)
      * (100 - CAST(round(l_discount * 100, 0) AS BIGINT)) ELSE 0 END) AS BIGINT)
      AS promo_revenue_scaled,
    CAST(SUM(CAST(round(l_extendedprice * 100, 0) AS BIGINT)
      * (100 - CAST(round(l_discount * 100, 0) AS BIGINT))) AS BIGINT)
      AS total_revenue_scaled
  FROM lineitem JOIN part ON l_partkey = p_partkey
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1997-01-01'
)
"""


def nation_revenue_sql() -> str:
    return """
SELECT n_name,
       CAST(SUM(CAST(round(l_extendedprice * 100, 0) AS BIGINT)
                * (100 - CAST(round(l_discount * 100, 0) AS BIGINT))) AS BIGINT)
         AS revenue_scaled,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation ON s_nationkey = n_nationkey
GROUP BY n_name ORDER BY n_name
"""


def shipping_priority(sf_dir: str) -> pa.Table:
    """TPC-H Q3 shape (shipping priority): top-N revenue of orders from one
    market segment placed before the cutoff with lineitems still shipping
    after it.

    Frozen pair with ``shipping_priority_sql`` (constants in config.Q3_*):
    revenue in exact 1e-4-dollar units (_revenue_scaled — order-free int
    sums), ties broken (revenue_scaled DESC, o_orderdate ASC,
    l_orderkey ASC), top config.Q3_TOP_N.

    Scale shape: both dimensions prune AT THE SCAN (segment filter on
    customer, date window on orders, shipdate filter on lineitem); the
    customer->orders reduction is a bucketed distributed semi-join (the
    segment side is NOT broadcast — customer is a fact-scale table at
    100 TB); lineitem pre-combines per batch to one row per orderkey
    before the bucketed inner join; the final top-N runs per-block on
    complete groups (grouped_aggregate emits each key exactly once) and
    the driver merges N-row partials."""
    seg = config.Q3_SEGMENT
    cutoff = pa.scalar(datetime.datetime.fromisoformat(config.Q3_CUTOFF))
    top_n = config.Q3_TOP_N
    order = [("revenue_scaled", "descending"), ("odate_us", "ascending"),
             ("l_orderkey", "ascending")]

    def ord_window(t: pa.Table) -> pa.Table:
        kept = t.filter(pc.less(pc.cast(t["o_orderdate"], _US), cutoff))
        return pa.table({
            "o_orderkey": pc.cast(kept["o_orderkey"], pa.int64()),
            "o_custkey": pc.cast(kept["o_custkey"], pa.int64()),
            "odate_us": pc.cast(pc.cast(kept["o_orderdate"], _US), pa.int64()),
        })

    orders = arrow_map(
        semi_join(
            _scan(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"], ord_window),
            _scan(sf_dir, "customer", ["c_custkey", "c_mktsegment"],
                  lambda t: _keys(t, pc.equal(t["c_mktsegment"], seg), "c_custkey",
                                  "o_custkey")),
            keys=["o_custkey"],
            left_schema=int64_schema("o_orderkey", "o_custkey", "odate_us"),
            nb=_fact_buckets(sf_dir, "orders"),
        ),
        # rename to the fact-side key so the fused join buckets both sides
        # on the same column name
        lambda t: t.select(["o_orderkey", "odate_us"]).rename_columns(
            ["l_orderkey", "odate_us"]
        ),
    )

    def li_combine(t: pa.Table) -> pa.Table:
        kept = t.filter(pc.greater(pc.cast(t["l_shipdate"], _US), cutoff))
        return _rev_by(kept, "l_orderkey", "l_orderkey")

    # join + rollup + top-N FUSED into the one orderkey exchange: the
    # rollup key (l_orderkey, odate_us) contains the bucket key, so every
    # group is complete within its bucket and per-bucket aggregate + top-N
    # is globally exact — one all-to-all instead of the
    # attach_unique -> grouped_aggregate -> block_topn chain (3 exchanges)
    def join_roll_topn(lt: pa.Table, rt: pa.Table) -> pa.Table:
        j = lt.join(rt, "l_orderkey", join_type="inner")
        g = agg(j, ["l_orderkey", "odate_us"], revenue_scaled=("rev", "sum"))
        return g.sort_by(order).slice(0, top_n)

    rolled = _bucketed_join(
        _scan(sf_dir, "lineitem",
              ["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"], li_combine),
        orders, ["l_orderkey"], int64_schema("l_orderkey", "rev"),
        int64_schema("l_orderkey", "odate_us"), join_roll_topn,
        nb=_fact_buckets(sf_dir, "lineitem"),
    )
    t = collect_table(
        rolled, empty_schema=int64_schema("l_orderkey", "odate_us", "revenue_scaled")
    ).sort_by(order).slice(0, top_n)
    return pa.table({"l_orderkey": t["l_orderkey"], "revenue_scaled": t["revenue_scaled"],
                     "o_orderdate": pc.cast(t["odate_us"], _US)})


def shipping_priority_sql() -> str:
    from smse_backend_ray import config

    seg = config.Q3_SEGMENT.replace("'", "''")
    return f"""
SELECT l_orderkey,
       CAST(SUM(CAST(round(l_extendedprice * 100, 0) AS BIGINT)
                * (100 - CAST(round(l_discount * 100, 0) AS BIGINT))) AS BIGINT)
         AS revenue_scaled,
       o_orderdate
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = '{seg}'
  AND o_orderdate < TIMESTAMP '{config.Q3_CUTOFF}'
  AND l_shipdate > TIMESTAMP '{config.Q3_CUTOFF}'
GROUP BY l_orderkey, o_orderdate
ORDER BY revenue_scaled DESC, o_orderdate, l_orderkey
LIMIT {config.Q3_TOP_N}
"""


def returned_item_revenue(sf_dir: str) -> pa.Table:
    """TPC-H Q10 shape (returned-item reporting): top-N customers by
    revenue from returned lineitems on orders placed in a date window.

    Frozen pair with ``returned_item_revenue_sql`` (constants in
    config.Q10_*): revenue in exact 1e-4-dollar units (_revenue_scaled),
    ties (revenue_scaled DESC, c_custkey ASC), top config.Q10_TOP_N.

    Scale shape: orders prune to the window and two columns at the read;
    lineitem prunes to the returnflag and pre-combines per batch to one
    row per orderkey; the orderkey->custkey hop is a bucketed inner join;
    the per-customer rollup is one grouped_aggregate exchange; top-N folds
    per-block over complete groups. Customer/nation enrichment happens
    AFTER top-N on <= N surviving keys — a parquet point read with a
    pushed-down key filter, never a fact-scale join (the same <= k
    enrichment shape as the search result join, stages/scorer.py)."""
    lo, hi = config.Q10_DATE_LO, config.Q10_DATE_HI
    flag, top_n = config.Q10_RETURNFLAG, config.Q10_TOP_N
    order = [("revenue_scaled", "descending"), ("o_custkey", "ascending")]

    def ord_window(t: pa.Table) -> pa.Table:
        kept = t.filter(in_window(t["o_orderdate"], lo, hi))
        return pa.table({"o_orderkey": pc.cast(kept["o_orderkey"], pa.int64()),
                         "o_custkey": pc.cast(kept["o_custkey"], pa.int64())})

    joined = attach_unique(
        _scan(sf_dir, "lineitem",
              ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
              lambda t: _rev_by(t.filter(pc.equal(t["l_returnflag"], flag)),
                                "l_orderkey", "l_orderkey")),
        _scan(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"], ord_window),
        "l_orderkey", "o_orderkey", int64_schema("l_orderkey", "rev"),
        int64_schema("o_custkey"),
    )
    rolled_schema = int64_schema("o_custkey", "revenue_scaled")
    rolled = grouped_aggregate(joined, ["o_custkey"], rolled_schema, revenue_scaled=("rev", "sum"))
    t = collect_table(
        arrow_map(rolled, lambda b: b.sort_by(order).slice(0, top_n)),
        empty_schema=rolled_schema,
    ).sort_by(order).slice(0, top_n)

    # <= N survivors: pushed-down point read of customer, tiny nation lookup
    keys = t["o_custkey"].to_pylist()
    meta = _lookup(sf_dir, "customer", "c_custkey", ["c_name", "c_acctbal", "c_nationkey"], keys)
    nat = _dim(sf_dir, "nation", ["n_nationkey", "n_name"])
    nname = dict(zip(nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist()))
    rows = [meta[k] for k in keys]
    return pa.table({
        "c_custkey": pa.array(keys, type=pa.int64()),
        "c_name": pa.array([r["c_name"] for r in rows], type=pa.string()),
        "revenue_scaled": t["revenue_scaled"],
        "c_acctbal": pa.array([r["c_acctbal"] for r in rows], type=pa.float64()),
        "n_name": pa.array([nname[r["c_nationkey"]] for r in rows], type=pa.string()),
    })


def returned_item_revenue_sql() -> str:
    from smse_backend_ray import config

    flag = config.Q10_RETURNFLAG.replace("'", "''")
    return f"""
SELECT c_custkey, c_name,
       CAST(SUM(CAST(round(l_extendedprice * 100, 0) AS BIGINT)
                * (100 - CAST(round(l_discount * 100, 0) AS BIGINT))) AS BIGINT)
         AS revenue_scaled,
       c_acctbal, n_name
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN nation ON c_nationkey = n_nationkey
WHERE o_orderdate >= TIMESTAMP '{config.Q10_DATE_LO}'
  AND o_orderdate < TIMESTAMP '{config.Q10_DATE_HI}'
  AND l_returnflag = '{flag}'
GROUP BY c_custkey, c_name, c_acctbal, n_name
ORDER BY revenue_scaled DESC, c_custkey
LIMIT {config.Q10_TOP_N}
"""


def forecast_revenue(sf_dir: str) -> pa.Table:
    """TPC-H Q6 shape (forecasting revenue change): total discounted
    revenue of lineitems shipped in a window with a narrow discount band
    and small quantities.

    Frozen pair with ``forecast_revenue_sql`` (constants in config.Q6_*):
    discount eligibility compares ROUNDED cents (floor(d*100+0.5), exact
    int both sides — a float BETWEEN would be representation-sensitive);
    revenue = sum of round(p*100) * round(d*100) in exact 1e-4-dollar
    int64 units, order-free.

    Scale shape: the whole query is one embarrassingly parallel
    map_batches pass over the pruned 4-column scan — each batch folds to
    a single (revenue, count) partial and the driver sums a per-block
    handful of rows. No shuffle at any scale."""
    lo, hi = config.Q6_DATE_LO, config.Q6_DATE_HI
    dlo, dhi = config.Q6_DISC_LO_C, config.Q6_DISC_HI_C
    qmax = float(config.Q6_QTY_MAX)

    def partial(t: pa.Table) -> pa.Table:
        m = pc.and_(in_window(t["l_shipdate"], lo, hi), pc.less(t["l_quantity"], qmax))
        kept = t.filter(m)
        d = _cents(kept["l_discount"])
        band = (d >= dlo) & (d <= dhi)
        rev = _cents(kept["l_extendedprice"])[band] * d[band]
        return pa.table({"rev": [int(rev.sum())], "n": [int(band.sum())]})

    parts = collect_table(
        _scan(sf_dir, "lineitem",
              ["l_shipdate", "l_quantity", "l_extendedprice", "l_discount"], partial),
        empty_schema=int64_schema("rev", "n"),
    )
    return pa.table({"revenue_scaled": [_total(parts, "rev")],
                     "n_items": [_total(parts, "n")]})


def forecast_revenue_sql() -> str:
    from smse_backend_ray import config

    return f"""
SELECT CAST(COALESCE(SUM(CAST(round(l_extendedprice * 100, 0) AS BIGINT)
                         * CAST(round(l_discount * 100, 0) AS BIGINT)), 0)
            AS BIGINT) AS revenue_scaled,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '{config.Q6_DATE_LO}'
  AND l_shipdate < TIMESTAMP '{config.Q6_DATE_HI}'
  AND CAST(round(l_discount * 100, 0) AS BIGINT)
        BETWEEN {config.Q6_DISC_LO_C} AND {config.Q6_DISC_HI_C}
  AND l_quantity < {config.Q6_QTY_MAX}
"""


def large_order_customers(sf_dir: str) -> pa.Table:
    """TPC-H Q18 shape (large-volume customers): orders whose total
    lineitem quantity exceeds a high threshold, with order + customer
    meta, top-N by order value.

    Frozen pair with ``large_order_customers_sql`` (constants in
    config.Q18_*): quantities sum as exact scaled ints (round(q*100),
    order-free), HAVING compares > Q18_MIN_QTY*100, ties
    (o_totalprice DESC, o_orderkey ASC), top Q18_TOP_N.

    Scale shape: lineitem pre-combines per batch to one row per orderkey,
    then ONE grouped_aggregate exchange on orderkey; the HAVING filter
    leaves a tiny qualifying set by construction (the threshold sits in
    the far tail of the per-order quantity distribution — Q18's defining
    property), so order/customer enrichment is a pushed-down parquet
    point read over the surviving keys, never a fact-scale join. Top-N
    folds per block over complete groups before the driver merge."""
    thr = int(config.Q18_MIN_QTY) * 100
    top_n = int(config.Q18_TOP_N)

    def li_combine(t: pa.Table) -> pa.Table:
        part = pa.table({"l_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
                         "qty": _cents(t["l_quantity"])})
        return agg(part, "l_orderkey", qty=("qty", "sum"))

    rolled_schema = int64_schema("l_orderkey", "total_qty_scaled")
    rolled = grouped_aggregate(
        _scan(sf_dir, "lineitem", ["l_orderkey", "l_quantity"], li_combine),
        ["l_orderkey"], rolled_schema, nb=_fact_buckets(sf_dir, "lineitem"),
        total_qty_scaled=("qty", "sum"),
    )
    qual = collect_table(
        arrow_map(rolled, lambda t: t.filter(pc.greater(t["total_qty_scaled"], thr))),
        empty_schema=rolled_schema,
    )
    out_schema = int64_schema(
        "c_custkey", c_name=pa.string(), o_orderkey=pa.int64(), o_orderdate=_US,
        o_totalprice=pa.float64(), total_qty_scaled=pa.int64(),
    )
    if not qual.num_rows:
        return out_schema.empty_table()

    okeys = qual["l_orderkey"].to_pylist()
    qty_of = dict(zip(okeys, qual["total_qty_scaled"].to_pylist()))
    orders = _dim(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"],
                  "o_orderkey", okeys)
    if not orders.num_rows:
        # FK-broken/partial warehouse: no qualifying orderkey exists in
        # orders — return empty WITHOUT the customer read (an empty isin
        # key list would otherwise fall to filter=None = a full scan)
        return out_schema.empty_table()
    orders = orders.sort_by([("o_totalprice", "descending"), ("o_orderkey", "ascending")])
    orders = orders.slice(0, top_n)
    ckeys = orders["o_custkey"].to_pylist()
    cust = _lookup(sf_dir, "customer", "c_custkey", ["c_name"], ckeys)
    return pa.table({
        "c_custkey": pa.array(ckeys, type=pa.int64()),
        "c_name": pa.array([cust[k]["c_name"] for k in ckeys], type=pa.string()),
        "o_orderkey": orders["o_orderkey"],
        "o_orderdate": pc.cast(orders["o_orderdate"], _US),
        "o_totalprice": pc.cast(orders["o_totalprice"], pa.float64()),
        "total_qty_scaled": pa.array(
            [qty_of[k] for k in orders["o_orderkey"].to_pylist()], type=pa.int64()
        ),
    })


def large_order_customers_sql() -> str:
    from smse_backend_ray import config

    return f"""
WITH q AS (
  SELECT l_orderkey,
         CAST(SUM(CAST(round(l_quantity * 100, 0) AS BIGINT)) AS BIGINT)
           AS total_qty_scaled
  FROM lineitem
  GROUP BY 1
  HAVING SUM(CAST(round(l_quantity * 100, 0) AS BIGINT))
           > {int(config.Q18_MIN_QTY) * 100}
)
SELECT c_custkey, c_name, o_orderkey, o_orderdate, o_totalprice,
       q.total_qty_scaled
FROM q
JOIN orders ON o_orderkey = q.l_orderkey
JOIN customer ON c_custkey = o_custkey
ORDER BY o_totalprice DESC, o_orderkey
LIMIT {config.Q18_TOP_N}
"""


def line_priority_counts(sf_dir: str) -> pa.Table:
    """TPC-H Q12 shape adapted to this warehouse's columns (the classic
    Q12 groups by l_shipmode, which this lineitem lacks; l_linestatus is
    the stand-in grain — the join/CASE-count skeleton is identical):
    lines shipped in [Q12_DATE_LO, Q12_DATE_HI) joined to their order's
    priority, counted per l_linestatus as high (o_orderpriority in
    Q12_HIGH_PRIORITIES) vs low.

    Scale shape: the lineitem side pre-combines to one row per
    (orderkey, linestatus) per batch BEFORE the one orderkey exchange;
    the orders side ships only (orderkey, is_high int8-as-int64). Join +
    rollup are FUSED per bucket (each bucket emits <= #linestatus rows),
    so the driver merges nb * #linestatus rows — exact integer sums,
    order-free (the revenue_by_month pattern)."""
    lo, hi = config.Q12_DATE_LO, config.Q12_DATE_HI
    high_set = pa.array(list(config.Q12_HIGH_PRIORITIES))

    def li_combine(t: pa.Table) -> pa.Table:
        t = t.filter(in_window(t["l_shipdate"], lo, hi))
        part = pa.table({"l_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
                         "l_linestatus": t["l_linestatus"]})
        return agg(part, ["l_orderkey", "l_linestatus"], n=("l_orderkey", "count"))

    def ord_high(t: pa.Table) -> pa.Table:
        hi_m = pc.is_in(t["o_orderpriority"], value_set=high_set)
        return pa.table({"l_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
                         "is_high": pc.cast(hi_m, pa.int64())})

    def join_roll(lt: pa.Table, rt: pa.Table) -> pa.Table:
        j = lt.join(rt, "l_orderkey", join_type="inner")
        n = j["n"].to_numpy(zero_copy_only=False)
        ih = j["is_high"].to_numpy(zero_copy_only=False)
        part = pa.table({"l_linestatus": j["l_linestatus"], "high": n * ih,
                         "low": n * (1 - ih)})
        return agg(part, "l_linestatus", high=("high", "sum"), low=("low", "sum"))

    rolled = _bucketed_join(
        _scan(sf_dir, "lineitem", ["l_orderkey", "l_linestatus", "l_shipdate"], li_combine),
        _scan(sf_dir, "orders", ["o_orderkey", "o_orderpriority"], ord_high),
        ["l_orderkey"], int64_schema("l_orderkey", "n", l_linestatus=pa.string()),
        int64_schema("l_orderkey", "is_high"), join_roll,
        nb=_fact_buckets(sf_dir, "lineitem"),
    )
    t = collect_table(rolled, empty_schema=int64_schema("high", "low", l_linestatus=pa.string()))
    g = agg(t, "l_linestatus", high_line_count=("high", "sum"), low_line_count=("low", "sum"))
    return g.sort_by("l_linestatus")


def line_priority_counts_sql() -> str:
    from smse_backend_ray import config

    hs = ", ".join(f"'{p}'" for p in config.Q12_HIGH_PRIORITIES)
    return f"""
SELECT l_linestatus,
       CAST(SUM(CASE WHEN o_orderpriority IN ({hs}) THEN 1 ELSE 0 END)
            AS BIGINT) AS high_line_count,
       CAST(SUM(CASE WHEN o_orderpriority IN ({hs}) THEN 0 ELSE 1 END)
            AS BIGINT) AS low_line_count
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE l_shipdate >= TIMESTAMP '{config.Q12_DATE_LO}'
  AND l_shipdate < TIMESTAMP '{config.Q12_DATE_HI}'
GROUP BY l_linestatus ORDER BY l_linestatus
"""


def volume_shipping(sf_dir: str) -> pa.Table:
    """TPC-H Q7 shape generalized to the full nation matrix (classic Q7
    restricts to one nation pair; the full matrix is the same plan with a
    calendar*nations^2-bounded output): exact scaled-int revenue between
    every (supplier nation, customer nation) pair per ship year, window
    [Q7_DATE_LO, Q7_DATE_HI).

    Scale shape — a 3-hop chain with ONE broadcast and TWO fused
    exchanges, never a 6-table shuffle:
      1. supplier ⋈ nation is a tiny dim chain -> driver-joined once,
         ray.put, map-side array lookup on the lineitem side (the
         nation_revenue pattern);
      2. customer nation reaches orders via a bucketed join on custkey
         (customer is corpus-scaled — NOT broadcastable at 100 TB);
      3. the lineitem partials (pre-combined per batch to one row per
         (orderkey, supp_nation, year)) meet the enriched orders in a
         second bucketed join on orderkey, rolled up per bucket to
         <= nations^2 * years rows. Driver merge is bounded by plan
         shape, not corpus size."""
    lo, hi = config.Q7_DATE_LO, config.Q7_DATE_HI
    names, nat_idx, sup_idx = _nations(sf_dir)
    ref = ray.put((sup_idx, nat_idx))

    def li_combine(t: pa.Table) -> pa.Table:
        t = t.filter(in_window(t["l_shipdate"], lo, hi))
        yr = pc.year(pc.cast(t["l_shipdate"], _US)).to_numpy(zero_copy_only=False)
        part = pa.table({
            "l_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
            "sidx": ray.get(ref)[0][t["l_suppkey"].to_numpy()],
            "l_year": yr.astype(np.int32),
            "rev": _revenue_scaled(t),
        })
        return agg(part, ["l_orderkey", "sidx", "l_year"], rev=("rev", "sum"))

    # exchange 1: orders pick up the customer's nation index on custkey
    def ord_keys(t: pa.Table) -> pa.Table:
        return pa.table({"c_custkey": pc.cast(t["o_custkey"], pa.int64()),
                         "o_orderkey": pc.cast(t["o_orderkey"], pa.int64())})

    def cust_keys(t: pa.Table) -> pa.Table:
        return pa.table({"c_custkey": pc.cast(t["c_custkey"], pa.int64()),
                         "cidx": ray.get(ref)[1][t["c_nationkey"].to_numpy()]})

    def join_cust(lt: pa.Table, rt: pa.Table) -> pa.Table:
        j = lt.join(rt, "c_custkey", join_type="inner")
        return j.select(["o_orderkey", "cidx"]).rename_columns(["l_orderkey", "cidx"])

    enriched = _bucketed_join(
        _scan(sf_dir, "orders", ["o_orderkey", "o_custkey"], ord_keys),
        _scan(sf_dir, "customer", ["c_custkey", "c_nationkey"], cust_keys),
        ["c_custkey"], int64_schema("c_custkey", "o_orderkey"),
        int64_schema("c_custkey", "cidx"), join_cust, nb=_fact_buckets(sf_dir, "orders"),
    )

    # exchange 2: fact partials meet enriched orders on orderkey; fused
    # per-bucket rollup to <= nations^2 * years rows
    def join_roll(lt: pa.Table, rt: pa.Table) -> pa.Table:
        j = lt.join(rt, "l_orderkey", join_type="inner")
        return agg(j, ["sidx", "cidx", "l_year"], rev=("rev", "sum"))

    rolled = _bucketed_join(
        _scan(sf_dir, "lineitem",
              ["l_orderkey", "l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
              li_combine),
        enriched, ["l_orderkey"], int64_schema("l_orderkey", "sidx", "rev", l_year=pa.int32()),
        int64_schema("l_orderkey", "cidx"), join_roll, nb=_fact_buckets(sf_dir, "lineitem"),
    )
    t = collect_table(rolled, empty_schema=int64_schema("sidx", "cidx", "rev", l_year=pa.int32()))
    g = agg(t, ["sidx", "cidx", "l_year"], revenue_scaled=("rev", "sum"))
    out = pa.table({"supp_nation": names.take(g["sidx"]), "cust_nation": names.take(g["cidx"]),
                    "l_year": g["l_year"], "revenue_scaled": g["revenue_scaled"]})
    return out.sort_by([("supp_nation", "ascending"), ("cust_nation", "ascending"),
                        ("l_year", "ascending")])


def volume_shipping_sql() -> str:
    from smse_backend_ray import config

    return f"""
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
       CAST(year(l_shipdate) AS INTEGER) AS l_year,
       CAST(SUM(CAST(round(l_extendedprice * 100, 0) AS BIGINT)
                * (100 - CAST(round(l_discount * 100, 0) AS BIGINT)))
            AS BIGINT) AS revenue_scaled
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN customer ON o_custkey = c_custkey
JOIN nation n1 ON s_nationkey = n1.n_nationkey
JOIN nation n2 ON c_nationkey = n2.n_nationkey
WHERE l_shipdate >= TIMESTAMP '{config.Q7_DATE_LO}'
  AND l_shipdate < TIMESTAMP '{config.Q7_DATE_HI}'
GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
"""


def small_qty_order_revenue(sf_dir: str) -> pa.Table:
    """TPC-H Q17 shape (small-quantity-order revenue): lines of
    Q17_BRAND / p_size < Q17_SIZE_MAX parts whose quantity is under 20%
    of that part's average line quantity; one-row result (revenue,
    line count, avg_yearly).

    The correlated-subquery threshold is frozen in CROSS-MULTIPLIED
    exact-int form — a line qualifies iff 5 * round(q*100) * n_part <
    sum_part(round(q*100)) — so eligibility never touches a double
    division and matches small_qty_order_revenue_sql bit-for-bit.

    Scale shape: the fact side pre-combines per batch to one row per
    (partkey, quantity-cents) — lines with equal quantity of the same
    part qualify together, so (n, price_sum) carry them losslessly —
    then ONE partkey exchange joins the brand-filtered part keys
    (dimension side ships keys only). Every line of a part lands in the
    same bucket, so per-part (n, total) computed in-bucket is globally
    exact and each bucket emits a single (revenue, n_lines) partial;
    the driver folds #buckets rows. Reference analog: the SQLAlchemy
    aggregate lookups in smse_backend/routes/search.py:88-127."""
    brand, size_max = config.Q17_BRAND, config.Q17_SIZE_MAX

    def li_combine(t: pa.Table) -> pa.Table:
        part = pa.table({"p_partkey": pc.cast(t["l_partkey"], pa.int64()),
                         "q_s": _cents(t["l_quantity"]),
                         "price_s": _cents(t["l_extendedprice"])})
        return agg(part, ["p_partkey", "q_s"], price_sum=("price_s", "sum"),
                   n=("price_s", "count"))

    def part_keys(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.equal(t["p_brand"], brand), pc.less(t["p_size"], size_max))
        return _keys(t, m, "p_partkey", "p_partkey")

    def join_roll(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lt = lt.join(rt, "p_partkey", join_type="left semi")
        lt = lt.append_column("qn", pc.multiply(lt["q_s"], lt["n"]))
        per_part = agg(lt, "p_partkey", cnt=("n", "sum"), tot=("qn", "sum"))
        j = lt.join(per_part, "p_partkey", join_type="inner")
        q_s, cnt, tot, price, nrow = (
            j[c].to_numpy(zero_copy_only=False) for c in ("q_s", "cnt", "tot", "price_sum", "n")
        )
        elig = 5 * q_s * cnt < tot
        return pa.table({"rev": [int(price[elig].sum())], "n_lines": [int(nrow[elig].sum())]})

    rolled = _bucketed_join(
        _scan(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"], li_combine),
        _scan(sf_dir, "part", ["p_partkey", "p_brand", "p_size"], part_keys),
        ["p_partkey"], int64_schema("p_partkey", "q_s", "price_sum", "n"),
        int64_schema("p_partkey"), join_roll, nb=_fact_buckets(sf_dir, "lineitem"),
    )
    t = collect_table(rolled, empty_schema=int64_schema("rev", "n_lines"))
    rev = _total(t, "rev")
    avg_yearly = round_half_away(rev / 100.0 / float(config.Q17_YEARS), 4)
    return pa.table({"revenue_scaled": [rev], "n_lines": [_total(t, "n_lines")],
                     "avg_yearly": pa.array([avg_yearly], type=pa.float64())})


def small_qty_order_revenue_sql() -> str:
    from smse_backend_ray import config

    return f"""
WITH pq AS (
  SELECT l_partkey,
         CAST(count(*) AS BIGINT) AS cnt,
         CAST(SUM(CAST(round(l_quantity * 100, 0) AS BIGINT)) AS BIGINT) AS tot
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE p_brand = '{config.Q17_BRAND}' AND p_size < {config.Q17_SIZE_MAX}
  GROUP BY 1
)
SELECT COALESCE(CAST(SUM(CAST(round(l_extendedprice * 100, 0) AS BIGINT))
                AS BIGINT), 0) AS revenue_scaled,
       CAST(count(*) AS BIGINT) AS n_lines,
       round(COALESCE(CAST(SUM(CAST(round(l_extendedprice * 100, 0)
                AS BIGINT)) AS BIGINT), 0) / 100.0 / {config.Q17_YEARS}.0, 4)
         AS avg_yearly
FROM lineitem JOIN pq USING (l_partkey)
WHERE 5 * CAST(round(l_quantity * 100, 0) AS BIGINT) * cnt < tot
"""


def top_supplier_revenue(sf_dir: str) -> pa.Table:
    """TPC-H Q15 shape (top supplier): per-supplier scaled-int revenue
    over ship window [Q15_DATE_LO, Q15_DATE_HI); winners are ALL
    suppliers at the exact-int maximum (ties kept), s_suppkey ASC,
    enriched with s_name via a pushed-down point read.

    Scale shape: per-batch supplier partials -> ONE grouped_aggregate
    exchange on suppkey -> per-block LOCAL winners (each output block
    keeps only its max-revenue rows, <= a handful) -> driver folds
    #blocks candidate sets and takes the global max. The driver never
    sees the full supplier ledger, only block winners; enrichment is an
    isin point read over the tied key set. Frozen pair with
    top_supplier_revenue_sql."""
    lo, hi = config.Q15_DATE_LO, config.Q15_DATE_HI

    def winners(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["rev"], pc.max(t["rev"]))) if t.num_rows else t

    rolled_schema = int64_schema("s_suppkey", "rev")
    rolled = grouped_aggregate(
        _scan(sf_dir, "lineitem",
              ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
              lambda t: _rev_by(t.filter(in_window(t["l_shipdate"], lo, hi)),
                                "l_suppkey", "s_suppkey")),
        ["s_suppkey"], rolled_schema, nb=_fact_buckets(sf_dir, "lineitem"), rev=("rev", "sum"),
    )
    cand = winners(collect_table(arrow_map(rolled, winners), empty_schema=rolled_schema))
    if not cand.num_rows:
        return int64_schema("s_suppkey", s_name=pa.string(),
                            total_revenue_scaled=pa.int64()).empty_table()
    mx = pc.max(cand["rev"]).as_py()
    skeys = sorted(cand["s_suppkey"].to_pylist())
    sup = _lookup(sf_dir, "supplier", "s_suppkey", ["s_name"], skeys)
    return pa.table({
        "s_suppkey": pa.array(skeys, type=pa.int64()),
        "s_name": pa.array([sup[k]["s_name"] for k in skeys], type=pa.string()),
        "total_revenue_scaled": pa.array([mx] * len(skeys), type=pa.int64()),
    })


def top_supplier_revenue_sql() -> str:
    from smse_backend_ray import config

    return f"""
WITH r AS (
  SELECT l_suppkey AS s_suppkey,
         CAST(SUM(CAST(round(l_extendedprice * 100, 0) AS BIGINT)
                  * (100 - CAST(round(l_discount * 100, 0) AS BIGINT)))
              AS BIGINT) AS rev
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '{config.Q15_DATE_LO}'
    AND l_shipdate < TIMESTAMP '{config.Q15_DATE_HI}'
  GROUP BY 1
)
SELECT r.s_suppkey, s_name, rev AS total_revenue_scaled
FROM r JOIN supplier ON supplier.s_suppkey = r.s_suppkey
WHERE rev = (SELECT max(rev) FROM r)
ORDER BY r.s_suppkey
"""


def idle_customer_balance(sf_dir: str) -> pa.Table:
    """TPC-H Q22 shape adapted (global sales opportunity): customers
    with above-average positive balance and NO orders on/after
    Q22_CUTOFF (classic Q22's "no orders at all" set is empty in this
    warehouse), counted + balance-summed per nation.

    The scalar-subquery average is frozen in CROSS-MULTIPLIED exact-int
    form — eligible iff round(bal*100) * n_pos > sum_pos(round(bal*100))
    — so the threshold never touches a double division; positivity is
    the raw-double test c_acctbal > 0 on both sides. Frozen pair with
    idle_customer_balance_sql.

    Scale shape: pass 1 folds the two scalar ints per batch (driver
    sums #blocks partials); the recent-order side pre-combines to
    DISTINCT custkeys per batch before ONE custkey anti-join exchange;
    survivors filter map-side against the two broadcast scalars and
    fold to <= #nations rows per block. Nation names are a driver-side
    broadcast dict (25 rows at any scale)."""
    cutoff = pa.scalar(datetime.datetime.fromisoformat(config.Q22_CUTOFF))

    # pass 1: the two scalars (count, scaled sum) over positive balances
    def pos_partial(t: pa.Table) -> pa.Table:
        bal = t.filter(pc.greater(t["c_acctbal"], 0.0))["c_acctbal"]
        return pa.table({"n": [len(bal)], "s": [int(_cents(pc.abs(bal)).sum())]})

    pos = collect_table(_scan(sf_dir, "customer", ["c_acctbal"], pos_partial),
                        empty_schema=int64_schema("n", "s"))
    n_pos, sum_pos = _total(pos, "n"), _total(pos, "s")
    if n_pos == 0:
        # avg over an empty set is NULL -> no customer qualifies
        return int64_schema(n_name=pa.string(), n_cust=pa.int64(),
                            total_acctbal_scaled=pa.int64()).empty_table()

    def cust_cols(t: pa.Table) -> pa.Table:
        bal = t["c_acctbal"].to_numpy(zero_copy_only=False)
        bal_s = np.where(bal >= 0, np.floor(bal * 100.0 + 0.5), -np.floor(-bal * 100.0 + 0.5))
        return pa.table({"c_custkey": pc.cast(t["c_custkey"], pa.int64()),
                         "c_nationkey": pc.cast(t["c_nationkey"], pa.int64()),
                         "bal_s": bal_s.astype(np.int64)})

    def recent_keys(t: pa.Table) -> pa.Table:
        k = t.filter(pc.greater_equal(pc.cast(t["o_orderdate"], _US), cutoff))["o_custkey"]
        return pa.table({"c_custkey": pc.unique(pc.cast(k, pa.int64()))})

    idle = anti_join(
        _scan(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"], cust_cols),
        _scan(sf_dir, "orders", ["o_custkey", "o_orderdate"], recent_keys),
        ["c_custkey"], int64_schema("c_custkey", "c_nationkey", "bal_s"),
        nb=_fact_buckets(sf_dir, "customer"),
    )

    def nation_partial(t: pa.Table) -> pa.Table:
        elig = pc.greater(pc.multiply(t["bal_s"], pa.scalar(n_pos, type=pa.int64())),
                          pa.scalar(sum_pos, type=pa.int64()))
        return agg(t.filter(elig), "c_nationkey", n_cust=("bal_s", "count"),
                   bal=("bal_s", "sum"))

    t = collect_table(arrow_map(idle, nation_partial),
                      empty_schema=int64_schema("c_nationkey", "n_cust", "bal"))
    g = agg(t, "c_nationkey", n_cust=("n_cust", "sum"), total_acctbal_scaled=("bal", "sum"))
    nat = _dim(sf_dir, "nation", ["n_nationkey", "n_name"])
    n2name = dict(zip(nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist()))
    names = pa.array([n2name[k] for k in g["c_nationkey"].to_pylist()], type=pa.string())
    return g.set_column(0, "n_name", names).sort_by("n_name")


def idle_customer_balance_sql() -> str:
    from smse_backend_ray import config

    return f"""
WITH pos AS (
  SELECT CAST(count(*) AS BIGINT) AS n,
         CAST(SUM(CAST(round(c_acctbal * 100, 0) AS BIGINT)) AS BIGINT) AS s
  FROM customer WHERE c_acctbal > 0.0
)
SELECT n_name, CAST(count(*) AS BIGINT) AS n_cust,
       CAST(SUM(CAST(round(c_acctbal * 100, 0) AS BIGINT)) AS BIGINT)
         AS total_acctbal_scaled
FROM customer JOIN nation ON n_nationkey = c_nationkey, pos
WHERE CAST(round(c_acctbal * 100, 0) AS BIGINT) * pos.n > pos.s
  AND NOT EXISTS (
    SELECT 1 FROM orders
    WHERE o_custkey = c_custkey
      AND o_orderdate >= TIMESTAMP '{config.Q22_CUTOFF}'
  )
GROUP BY 1 ORDER BY 1
"""


def banded_revenue(sf_dir: str) -> pa.Table:
    """TPC-H Q19 shape (discounted revenue, disjunctive predicates):
    lines whose part matches ANY Q19_BANDS entry (brand equal, p_size in
    [1, size_max]) with ROUNDED quantity cents inside that band's
    [qty_lo*100, qty_hi*100]; one-row (revenue, line count).

    Scale shape: the part side ships (partkey, band BITMASK) for parts
    matching >= 1 band's part-predicate only (keys + one int64); the
    fact side pre-combines per batch to one row per (partkey,
    quantity-cents) carrying (rev_sum, n) — band eligibility depends
    only on that pair, so the collapse is lossless. ONE partkey
    exchange; each bucket evaluates the OR across bands vectorized and
    emits a single partial. Frozen pair with banded_revenue_sql."""
    bands = list(config.Q19_BANDS)

    def li_combine(t: pa.Table) -> pa.Table:
        part = pa.table({"p_partkey": pc.cast(t["l_partkey"], pa.int64()),
                         "q_s": _cents(t["l_quantity"]), "rev": _revenue_scaled(t)})
        return agg(part, ["p_partkey", "q_s"], rev_sum=("rev", "sum"), n=("rev", "count"))

    def part_masks(t: pa.Table) -> pa.Table:
        size = t["p_size"].to_numpy(zero_copy_only=False)
        mask = np.zeros(t.num_rows, dtype=np.int64)
        for i, (brand, size_max, _lo, _hi) in enumerate(bands):
            bm = pc.equal(t["p_brand"], brand).to_numpy(zero_copy_only=False)
            mask |= (bm & (size >= 1) & (size <= size_max)) << i
        keep = mask != 0
        return _keys(t, pa.array(keep), "p_partkey", "p_partkey").append_column(
            "band_mask", pa.array(mask[keep], type=pa.int64())
        )

    def join_roll(lt: pa.Table, rt: pa.Table) -> pa.Table:
        j = lt.join(rt, "p_partkey", join_type="inner")
        q_s = j["q_s"].to_numpy(zero_copy_only=False)
        mask = j["band_mask"].to_numpy(zero_copy_only=False)
        elig = np.zeros(len(q_s), dtype=bool)
        for i, (_brand, _size_max, lo, hi) in enumerate(bands):
            elig |= ((mask >> i) & 1).astype(bool) & (q_s >= lo * 100) & (q_s <= hi * 100)
        rev = j["rev_sum"].to_numpy(zero_copy_only=False)
        n = j["n"].to_numpy(zero_copy_only=False)
        return pa.table({"rev": [int(rev[elig].sum())], "n_lines": [int(n[elig].sum())]})

    rolled = _bucketed_join(
        _scan(sf_dir, "lineitem",
              ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"], li_combine),
        _scan(sf_dir, "part", ["p_partkey", "p_brand", "p_size"], part_masks),
        ["p_partkey"], int64_schema("p_partkey", "q_s", "rev_sum", "n"),
        int64_schema("p_partkey", "band_mask"), join_roll,
        nb=_fact_buckets(sf_dir, "lineitem"),
    )
    t = collect_table(rolled, empty_schema=int64_schema("rev", "n_lines"))
    return pa.table({"revenue_scaled": [_total(t, "rev")], "n_lines": [_total(t, "n_lines")]})


def banded_revenue_sql() -> str:
    from smse_backend_ray import config

    ors = " OR ".join(
        f"(p_brand = '{b}' AND p_size BETWEEN 1 AND {sm} "
        f"AND CAST(round(l_quantity * 100, 0) AS BIGINT) "
        f"BETWEEN {lo * 100} AND {hi * 100})"
        for b, sm, lo, hi in config.Q19_BANDS
    )
    return f"""
SELECT COALESCE(CAST(SUM(CAST(round(l_extendedprice * 100, 0) AS BIGINT)
                * (100 - CAST(round(l_discount * 100, 0) AS BIGINT)))
                AS BIGINT), 0) AS revenue_scaled,
       CAST(count(*) AS BIGINT) AS n_lines
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE {ors}
"""


def market_share(sf_dir: str) -> pa.Table:
    """TPC-H Q8 shape (national market share): yearly share of
    Q8_NATION-supplied revenue within Q8_REGION customers' orders of
    Q8_TYPE parts, order window [Q8_DATE_LO, Q8_DATE_HI). Both revenue
    sums are exact scaled ints; the share is ONE double division per
    year, rounded 4 — identical on both sides. Frozen pair with
    market_share_sql.

    Scale shape — the classic 3-exchange plan, small sides never
    shuffled at fact scale:
      1. supplier ⋈ nation is a tiny dim chain -> broadcast LUT
         (suppkey -> is-Q8_NATION flag) folded into the lineitem
         combiner, which emits (partkey, orderkey, rev, rev_nat);
      2. partkey exchange: semi-join against Q8_TYPE part keys (the
         part side ships keys only), then re-combine to one row per
         orderkey;
      3. custkey exchange joins window-filtered orders to region
         customers (region membership via broadcast nationkey set),
         then the orderkey exchange meets the fact partials, fused to
         <= #years rows per bucket. Driver merge is calendar-bounded."""
    lo, hi, ptype = config.Q8_DATE_LO, config.Q8_DATE_HI, config.Q8_TYPE

    nat = _dim(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"])
    reg = _dim(sf_dir, "region", ["r_regionkey", "r_name"])
    region_keys = {k for k, nm in zip(reg["r_regionkey"].to_pylist(), reg["r_name"].to_pylist())
                   if nm == config.Q8_REGION}
    nkeys = nat["n_nationkey"].to_pylist()
    region_arr = np.array(sorted(
        k for k, rk in zip(nkeys, nat["n_regionkey"].to_pylist()) if rk in region_keys
    ), dtype=np.int64)
    nation_keys = sorted(k for k, nm in zip(nkeys, nat["n_name"].to_pylist())
                         if nm == config.Q8_NATION)
    sup = _dim(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    skeys = sup["s_suppkey"].to_numpy()
    sup_is_nat = np.zeros(int(skeys.max()) + 1, dtype=np.int64)
    sup_is_nat[skeys] = np.isin(sup["s_nationkey"].to_numpy(), np.array(nation_keys))
    ref = ray.put(sup_is_nat)

    def li_combine(t: pa.Table) -> pa.Table:
        rev = _revenue_scaled(t)
        part = pa.table({"p_partkey": pc.cast(t["l_partkey"], pa.int64()),
                         "l_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
                         "rev": rev, "rev_nat": rev * ray.get(ref)[t["l_suppkey"].to_numpy()]})
        return agg(part, ["p_partkey", "l_orderkey"], rev=("rev", "sum"),
                   rev_nat=("rev_nat", "sum"))

    kept = semi_join(
        _scan(sf_dir, "lineitem",
              ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
              li_combine),
        _scan(sf_dir, "part", ["p_partkey", "p_type"],
              lambda t: _keys(t, pc.equal(t["p_type"], ptype), "p_partkey", "p_partkey")),
        ["p_partkey"], int64_schema("p_partkey", "l_orderkey", "rev", "rev_nat"),
        nb=_fact_buckets(sf_dir, "lineitem"),
    )
    kept = arrow_map(kept, lambda t: agg(t, "l_orderkey", rev=("rev", "sum"),
                                         rev_nat=("rev_nat", "sum")))

    def cust_keys(t: pa.Table) -> pa.Table:
        m = np.isin(t["c_nationkey"].to_numpy(zero_copy_only=False), region_arr)
        return _keys(t, pa.array(m), "c_custkey", "c_custkey")

    def ord_window(t: pa.Table) -> pa.Table:
        t = t.filter(in_window(t["o_orderdate"], lo, hi))
        yr = pc.year(pc.cast(t["o_orderdate"], _US)).to_numpy(zero_copy_only=False)
        return pa.table({"c_custkey": pc.cast(t["o_custkey"], pa.int64()),
                         "l_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
                         "o_year": yr.astype(np.int32)})

    enriched = arrow_map(
        semi_join(
            _scan(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"], ord_window),
            _scan(sf_dir, "customer", ["c_custkey", "c_nationkey"], cust_keys),
            ["c_custkey"], int64_schema("c_custkey", "l_orderkey", o_year=pa.int32()),
            nb=_fact_buckets(sf_dir, "orders"),
        ),
        lambda t: t.select(["l_orderkey", "o_year"]),
    )

    def join_roll(lt: pa.Table, rt: pa.Table) -> pa.Table:
        j = lt.join(rt, "l_orderkey", join_type="inner")
        return agg(j, "o_year", rev=("rev", "sum"), rev_nat=("rev_nat", "sum"))

    rolled = _bucketed_join(
        kept, enriched, ["l_orderkey"], int64_schema("l_orderkey", "rev", "rev_nat"),
        int64_schema("l_orderkey", o_year=pa.int32()), join_roll,
        nb=_fact_buckets(sf_dir, "lineitem"),
    )
    t = collect_table(rolled, empty_schema=int64_schema("rev", "rev_nat", o_year=pa.int32()))
    g = agg(t, "o_year", total_revenue_scaled=("rev", "sum"),
            nation_revenue_scaled=("rev_nat", "sum"))
    share = [
        round_half_away(float(n) / float(d), 4) if d else 0.0
        for n, d in zip(g["nation_revenue_scaled"].to_pylist(),
                        g["total_revenue_scaled"].to_pylist())
    ]
    return g.append_column("mkt_share", pa.array(share, type=pa.float64())).sort_by("o_year")


def market_share_sql() -> str:
    from smse_backend_ray import config

    return f"""
WITH f AS (
  SELECT CAST(year(o_orderdate) AS INTEGER) AS o_year,
         CAST(round(l_extendedprice * 100, 0) AS BIGINT)
           * (100 - CAST(round(l_discount * 100, 0) AS BIGINT)) AS rev,
         CASE WHEN n1.n_name = '{config.Q8_NATION}' THEN 1 ELSE 0 END AS is_nat
  FROM lineitem
  JOIN part ON p_partkey = l_partkey AND p_type = '{config.Q8_TYPE}'
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation n1 ON n1.n_nationkey = s_nationkey
  JOIN orders ON o_orderkey = l_orderkey
  JOIN customer ON c_custkey = o_custkey
  JOIN nation n2 ON n2.n_nationkey = c_nationkey
  JOIN region ON r_regionkey = n2.n_regionkey
    AND r_name = '{config.Q8_REGION}'
  WHERE o_orderdate >= TIMESTAMP '{config.Q8_DATE_LO}'
    AND o_orderdate < TIMESTAMP '{config.Q8_DATE_HI}'
)
SELECT o_year,
       CAST(SUM(rev) AS BIGINT) AS total_revenue_scaled,
       CAST(SUM(rev * is_nat) AS BIGINT) AS nation_revenue_scaled,
       round(CAST(SUM(rev * is_nat) AS DOUBLE) / CAST(SUM(rev) AS DOUBLE), 4)
         AS mkt_share
FROM f GROUP BY 1 ORDER BY 1
"""


def product_type_profit(sf_dir: str) -> pa.Table:
    """TPC-H Q9 shape reduced to this corpus's tables (no partsupp ->
    no ps_supplycost term): profit of parts whose p_name contains
    config.Q9_PART_WORD, grouped by (supplier nation, order year) —
    profit = exact scaled-int revenue sum in 1e-4-dollar units, ordered
    (nation ASC, o_year DESC) like the classic Q9.

    Scale shape — the Q7 chain with a part filter in front:
      1. supplier ⋈ nation is the tiny dim chain -> driver-joined once,
         ray.put, map-side array lookup on the lineitem side;
      2. the p_name-filtered part keys semi-join the per-batch-combined
         lineitem partials in ONE partkey exchange (dimension side ships
         keys only — the part table is corpus-scaled, NOT broadcast);
      3. the surviving (orderkey, sidx) partials meet orders' (orderkey,
         year) in a second bucketed exchange, rolled up per bucket to
         <= nations x years rows. Driver merge is bounded by plan shape.
    Frozen pair with product_type_profit_sql."""
    names, _, sup_idx = _nations(sf_dir)
    ref = ray.put(sup_idx)
    word = str(config.Q9_PART_WORD)  # captured at driver time (closures
    # ship to workers whose own config import would win otherwise)

    def li_combine(t: pa.Table) -> pa.Table:
        part = pa.table({"p_partkey": pc.cast(t["l_partkey"], pa.int64()),
                         "l_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
                         "sidx": ray.get(ref)[t["l_suppkey"].to_numpy()],
                         "rev": _revenue_scaled(t)})
        return agg(part, ["p_partkey", "l_orderkey", "sidx"], rev=("rev", "sum"))

    def join_part(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lt = lt.join(rt, "p_partkey", join_type="left semi")
        return agg(lt, ["l_orderkey", "sidx"], rev=("rev", "sum"))

    survivors = _bucketed_join(
        _scan(sf_dir, "lineitem",
              ["l_partkey", "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
              li_combine),
        _scan(sf_dir, "part", ["p_partkey", "p_name"],
              lambda t: _keys(t, pc.match_substring(t["p_name"], word), "p_partkey",
                              "p_partkey")),
        ["p_partkey"], int64_schema("p_partkey", "l_orderkey", "sidx", "rev"),
        int64_schema("p_partkey"), join_part, nb=_fact_buckets(sf_dir, "lineitem"),
    )

    def ord_year(t: pa.Table) -> pa.Table:
        yr = pc.year(pc.cast(t["o_orderdate"], _US)).to_numpy(zero_copy_only=False)
        return pa.table({"l_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
                         "o_year": yr.astype(np.int32)})

    def join_roll(lt: pa.Table, rt: pa.Table) -> pa.Table:
        j = lt.join(rt, "l_orderkey", join_type="inner")
        return agg(j, ["sidx", "o_year"], rev=("rev", "sum"))

    rolled = _bucketed_join(
        survivors, _scan(sf_dir, "orders", ["o_orderkey", "o_orderdate"], ord_year),
        ["l_orderkey"], int64_schema("l_orderkey", "sidx", "rev"),
        int64_schema("l_orderkey", o_year=pa.int32()), join_roll,
        nb=_fact_buckets(sf_dir, "orders"),
    )
    t = collect_table(rolled, empty_schema=int64_schema("sidx", "rev", o_year=pa.int32()))
    g = agg(t, ["sidx", "o_year"], profit_scaled=("rev", "sum"))
    out = g.set_column(0, "nation", names.take(g["sidx"]))
    return out.sort_by([("nation", "ascending"), ("o_year", "descending")])


def product_type_profit_sql() -> str:
    from smse_backend_ray import config

    # literal substring match like the engine's pc.match_substring: LIKE
    # would read % and _ in the word as wildcards
    word = str(config.Q9_PART_WORD).replace("'", "''")
    return f"""
SELECT n_name AS nation,
       CAST(year(o_orderdate) AS INTEGER) AS o_year,
       CAST(SUM(CAST(round(l_extendedprice * 100, 0) AS BIGINT)
                * (100 - CAST(round(l_discount * 100, 0) AS BIGINT)))
            AS BIGINT) AS profit_scaled
FROM lineitem
JOIN part ON p_partkey = l_partkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation ON s_nationkey = n_nationkey
JOIN orders ON o_orderkey = l_orderkey
WHERE contains(p_name, '{word}')
GROUP BY 1, 2 ORDER BY 1, 2 DESC
"""
