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
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from smse_backend_ray.functions.collect import collect_table
from smse_backend_ray.sources.corpus import _parallel_blocks, _parquet_rows


def _read(sf_dir: str, table: str, columns: list[str]) -> "ray.data.Dataset":
    # cheap columnar scans (filter/cast/int math): 4096-row floor — see
    # _parallel_blocks; the CPU cap keeps large inputs unchanged
    path = os.path.join(sf_dir, f"{table}.parquet")
    ds = ray.data.read_parquet(path, columns=columns)
    return ds.repartition(
        _parallel_blocks(_parquet_rows(path), rows_per_block=4096)
    )


def _fact_buckets(sf_dir: str, table: str) -> int:
    """Exchange bucket count sized to the query's fact table (footer row
    count; only lowers the CPU-scaled default — joins.cpu_scaled_buckets)."""
    from smse_backend_ray.functions.joins import cpu_scaled_buckets

    path = os.path.join(sf_dir, f"{table}.parquet")
    return cpu_scaled_buckets(rows=_parquet_rows(path))


def _revenue_scaled(price: np.ndarray, discount: np.ndarray) -> np.ndarray:
    """Exact 1e-4-dollar units: round(p*100) * (100 - round(d*100)).
    Half-away rounding via floor(x+0.5) — values are non-negative."""
    p = np.floor(price * 100.0 + 0.5).astype(np.int64)
    d = np.floor(discount * 100.0 + 0.5).astype(np.int64)
    return p * (100 - d)


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
    dsjoin + Ray Aggregate chain whose per-partition aggregator actors
    started ~180 worker processes for a 60 k-row input (measured 13-23 s;
    this path: ~1 s)."""
    from smse_backend_ray.functions.joins import _bucketed_join

    def combine(t: pa.Table) -> pa.Table:
        rev = _revenue_scaled(
            t["l_extendedprice"].to_numpy(), t["l_discount"].to_numpy()
        )
        part = pa.table(
            {"l_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
             "rev": pa.array(rev)}
        )
        g = part.group_by("l_orderkey").aggregate([("rev", "sum"), ("rev", "count")])
        return pa.table(
            {
                "l_orderkey": g["l_orderkey"],
                "rev": pc.cast(g["rev_sum"], pa.int64()),
                "n": pc.cast(g["rev_count"], pa.int64()),
            }
        )

    facts = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]
    ).map_batches(combine, batch_format="pyarrow", zero_copy_batch=True)

    def ord_ym(t: pa.Table) -> pa.Table:
        dt = pc.cast(t["o_orderdate"], pa.timestamp("us"))
        ym = (
            pc.year(dt).to_numpy(zero_copy_only=False) * 100
            + pc.month(dt).to_numpy(zero_copy_only=False)
        ).astype(np.int32)
        return pa.table(
            {"l_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
             "ym": pa.array(ym)}
        )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).map_batches(
        ord_ym, batch_format="pyarrow", zero_copy_batch=True
    )

    facts_schema = pa.schema(
        [("l_orderkey", pa.int64()), ("rev", pa.int64()), ("n", pa.int64())]
    )
    orders_schema = pa.schema([("l_orderkey", pa.int64()), ("ym", pa.int32())])

    def join_month_partial(lt: pa.Table, rt: pa.Table) -> pa.Table:
        rt = rt.rename_columns(
            ["__rk" if nm == "l_orderkey" else nm for nm in rt.column_names]
        )
        j = lt.join(rt, keys=["l_orderkey"], right_keys=["__rk"],
                    join_type="inner")
        g = j.group_by("ym").aggregate([("rev", "sum"), ("n", "sum")])
        return pa.table(
            {"ym": g["ym"], "rev": pc.cast(g["rev_sum"], pa.int64()),
             "n": pc.cast(g["n_sum"], pa.int64())}
        )

    partial_schema = pa.schema(
        [("ym", pa.int32()), ("rev", pa.int64()), ("n", pa.int64())]
    )
    rolled = _bucketed_join(
        facts, orders, ["l_orderkey"], facts_schema, orders_schema,
        join_month_partial, nb=_fact_buckets(sf_dir, "lineitem"),
    )
    t = collect_table(rolled, empty_schema=partial_schema)
    g = t.group_by("ym").aggregate([("rev", "sum"), ("n", "sum")])
    t = pa.table(
        {
            "ym": pc.cast(g["ym"], pa.int32()),
            "revenue_scaled": pc.cast(g["rev_sum"], pa.int64()),
            "n_items": pc.cast(g["n_sum"], pa.int64()),
        }
    )
    return t.take(pc.sort_indices(t["ym"]))


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
    import pyarrow.parquet as pq

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_nationkey"]
    )
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    nkey = nat["n_nationkey"].to_numpy()
    names = nat["n_name"].to_pylist()
    name_of = dict(zip(nkey.tolist(), names))
    # dense suppkey -> nation-name-index arrays (suppkeys are 1..N)
    skeys = sup["s_suppkey"].to_numpy()
    snat = sup["s_nationkey"].to_numpy()
    lut = np.full(int(skeys.max()) + 1, -1, dtype=np.int64)
    lut[skeys] = snat
    names_sorted = sorted(set(names))
    name_idx = {n: i for i, n in enumerate(names_sorted)}
    nat_to_idx = np.full(int(nkey.max()) + 1, -1, dtype=np.int64)
    for k, nm in name_of.items():
        nat_to_idx[k] = name_idx[nm]
    ref = ray.put((lut, nat_to_idx))

    def partial(t: pa.Table) -> pa.Table:
        lut_, n2i = ray.get(ref)
        rev = _revenue_scaled(
            t["l_extendedprice"].to_numpy(), t["l_discount"].to_numpy()
        )
        idx = n2i[lut_[t["l_suppkey"].to_numpy()]]
        sums = np.zeros(len(names_sorted), dtype=np.int64)
        cnts = np.zeros(len(names_sorted), dtype=np.int64)
        np.add.at(sums, idx, rev)
        np.add.at(cnts, idx, 1)
        nz = np.flatnonzero(cnts)
        return pa.table(
            {
                "nidx": pa.array(nz, type=pa.int64()),
                "rev": pa.array(sums[nz], type=pa.int64()),
                "n": pa.array(cnts[nz], type=pa.int64()),
            }
        )

    # per-block partials are <= 25 rows (nation count), so the final merge
    # is a driver-side pyarrow group_by over blocks * 25 rows — exact
    # integer sums, order-free; a Ray Aggregate exchange here is pure
    # overhead at every scale
    partial_schema = pa.schema(
        [("nidx", pa.int64()), ("rev", pa.int64()), ("n", pa.int64())]
    )
    rolled = _read(
        sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    t = collect_table(rolled, empty_schema=partial_schema)
    g = t.group_by("nidx").aggregate([("rev", "sum"), ("n", "sum")])
    t = pa.table(
        {
            "n_name": pa.array(
                [names_sorted[i] for i in g["nidx"].to_pylist()], type=pa.string()
            ),
            "revenue_scaled": pc.cast(g["rev_sum"], pa.int64()),
            "n_items": pc.cast(g["n_sum"], pa.int64()),
        }
    )
    return t.take(pc.sort_indices(t["n_name"]))


def order_priority_counts(sf_dir: str) -> pa.Table:
    """TPC-H Q4 shape (EXISTS semi-join): orders placed in 1996 that have
    at least one qualifying lineitem (l_discount > 0.05), counted by
    o_orderpriority. The fact side shrinks to DISTINCT qualifying orderkeys
    per batch (combiner) before the bucketed distributed semi-join; the
    orders side prunes to the date window and two columns at the read."""
    import datetime

    from smse_backend_ray.functions.joins import semi_join

    lo = datetime.datetime(1996, 1, 1)
    hi = datetime.datetime(1997, 1, 1)

    def window(t: pa.Table) -> pa.Table:
        dt = pc.cast(t["o_orderdate"], pa.timestamp("us"))
        m = pc.and_(
            pc.greater_equal(dt, pa.scalar(lo)), pc.less(dt, pa.scalar(hi))
        )
        return t.filter(m).select(["o_orderkey", "o_orderpriority"])

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(window, batch_format="pyarrow", zero_copy_batch=True)

    def qualifying(t: pa.Table) -> pa.Table:
        m = pc.greater(t["l_discount"], 0.05)
        k = t.filter(m).select(["l_orderkey"])
        # per-batch DISTINCT combiner: the semi-join right side carries one
        # row per (batch, orderkey), not one per lineitem
        g = k.group_by("l_orderkey").aggregate([])
        return g.rename_columns(["o_orderkey"])

    quals = _read(sf_dir, "lineitem", ["l_orderkey", "l_discount"]).map_batches(
        qualifying, batch_format="pyarrow", zero_copy_batch=True
    )
    left_schema = pa.schema(
        [("o_orderkey", pa.int64()), ("o_orderpriority", pa.string())]
    )
    kept = semi_join(
        orders, quals, keys=["o_orderkey"], left_schema=left_schema,
        nb=_fact_buckets(sf_dir, "orders"),
    )

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("o_orderpriority").aggregate([("o_orderkey", "count")])
        return pa.table(
            {
                "o_orderpriority": g["o_orderpriority"],
                "n": pc.cast(g["o_orderkey_count"], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    rolled = (
        kept.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("o_orderpriority")
        .aggregate(Sum("n", alias_name="n_orders"))
    )
    t = collect_table(rolled)
    t = pa.table(
        {
            "o_orderpriority": t["o_orderpriority"],
            "n_orders": pc.cast(t["n_orders"], pa.int64()),
        }
    )
    return t.take(pc.sort_indices(t["o_orderpriority"]))


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
    from ray.data.aggregate import Sum

    from smse_backend_ray.functions.joins import attach_left

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("o_custkey").aggregate([("o_custkey", "count")])
        return pa.table(
            {
                "o_custkey": g["o_custkey"],
                "n": pc.cast(g["o_custkey_count"], pa.int64()),
            }
        )

    counts = (
        _read(sf_dir, "orders", ["o_custkey"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("o_custkey")
        .aggregate(Sum("n", alias_name="c_count"))
    )
    cust = _read(sf_dir, "customer", ["c_custkey"])
    joined = attach_left(
        cust,
        counts,
        "c_custkey",
        "o_custkey",
        pa.schema([("c_custkey", pa.int64())]),
        pa.schema([("c_count", pa.int64())]),
        nb=_fact_buckets(sf_dir, "customer"),
    )

    def hist(t: pa.Table) -> pa.Table:
        c = pc.fill_null(pc.cast(t["c_count"], pa.int64()), 0)
        g = (
            pa.table({"c_count": c})
            .group_by("c_count")
            .aggregate([("c_count", "count")])
        )
        return pa.table(
            {
                "c_count": g["c_count"],
                "n": pc.cast(g["c_count_count"], pa.int64()),
            }
        )

    rolled = (
        joined.map_batches(hist, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("c_count")
        .aggregate(Sum("n", alias_name="n_custs"))
    )
    t = collect_table(rolled)
    t = pa.table(
        {
            "c_count": pc.cast(t["c_count"], pa.int64()),
            "n_custs": pc.cast(t["n_custs"], pa.int64()),
        }
    )
    return t.take(
        pc.sort_indices(
            t, sort_keys=[("n_custs", "descending"), ("c_count", "descending")]
        )
    )


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
    import datetime

    import pyarrow.parquet as pq

    from smse_backend_ray.functions.rounding import round_half_away

    part = pq.read_table(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_type"]
    )
    pk = part["p_partkey"].to_numpy()
    promo = pc.equal(part["p_type"], "PROMO").to_numpy(zero_copy_only=False)
    # int8 LUT: 1=promo, 0=non-promo, -1=partkey absent from part — rows
    # whose partkey has no part row are DROPPED from both sums, exactly
    # like the SQL twin's inner join (no referential-integrity assumption)
    lut = np.full(int(pk.max()) + 1, -1, dtype=np.int8)
    lut[pk] = promo.astype(np.int8)
    ref = ray.put(lut)
    lo = datetime.datetime(1996, 1, 1)
    hi = datetime.datetime(1997, 1, 1)

    def partial(t: pa.Table) -> pa.Table:
        dt = pc.cast(t["l_shipdate"], pa.timestamp("us"))
        m = pc.and_(
            pc.greater_equal(dt, pa.scalar(lo)), pc.less(dt, pa.scalar(hi))
        )
        t = t.filter(m)
        rev = _revenue_scaled(
            t["l_extendedprice"].to_numpy(), t["l_discount"].to_numpy()
        )
        lut_ = ray.get(ref)
        keys = t["l_partkey"].to_numpy()
        flags = np.where(keys < len(lut_), lut_[np.minimum(keys, len(lut_) - 1)], -1)
        matched = flags >= 0
        return pa.table(
            {
                "k": pa.array([0], type=pa.int64()),
                "promo": pa.array([int(rev[flags == 1].sum())], type=pa.int64()),
                "total": pa.array([int(rev[matched].sum())], type=pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    rolled = (
        _read(
            sf_dir,
            "lineitem",
            ["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
        )
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("k")
        .aggregate(Sum("promo", alias_name="promo_revenue_scaled"),
                   Sum("total", alias_name="total_revenue_scaled"))
    )
    t = collect_table(rolled)
    p = int(t["promo_revenue_scaled"][0].as_py())
    tot = int(t["total_revenue_scaled"][0].as_py())
    pct = round_half_away(100.0 * p / tot, 4) if tot else 0.0
    return pa.table(
        {
            "promo_revenue_scaled": pa.array([p], type=pa.int64()),
            "total_revenue_scaled": pa.array([tot], type=pa.int64()),
            "promo_pct": pa.array([pct], type=pa.float64()),
        }
    )


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
    import datetime

    from smse_backend_ray import config
    from smse_backend_ray.functions.joins import _bucketed_join, semi_join

    seg = config.Q3_SEGMENT
    cutoff = datetime.datetime.fromisoformat(config.Q3_CUTOFF)
    top_n = config.Q3_TOP_N

    def seg_keys(t: pa.Table) -> pa.Table:
        m = pc.equal(t["c_mktsegment"], seg)
        return pa.table(
            {"o_custkey": pc.cast(t.filter(m)["c_custkey"], pa.int64())}
        )

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        seg_keys, batch_format="pyarrow", zero_copy_batch=True
    )

    def ord_window(t: pa.Table) -> pa.Table:
        dt = pc.cast(t["o_orderdate"], pa.timestamp("us"))
        kept = t.filter(pc.less(dt, pa.scalar(cutoff)))
        return pa.table(
            {
                "o_orderkey": pc.cast(kept["o_orderkey"], pa.int64()),
                "o_custkey": pc.cast(kept["o_custkey"], pa.int64()),
                "odate_us": pc.cast(
                    pc.cast(kept["o_orderdate"], pa.timestamp("us")), pa.int64()
                ),
            }
        )

    orders_schema = pa.schema(
        [("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
         ("odate_us", pa.int64())]
    )
    orders = semi_join(
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
        .map_batches(ord_window, batch_format="pyarrow", zero_copy_batch=True),
        cust,
        keys=["o_custkey"],
        left_schema=orders_schema,
        nb=_fact_buckets(sf_dir, "orders"),
    ).map_batches(
        # rename to the fact-side key so the fused join buckets both sides
        # on the same column name
        lambda t: t.select(["o_orderkey", "odate_us"]).rename_columns(
            ["l_orderkey", "odate_us"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def li_combine(t: pa.Table) -> pa.Table:
        dt = pc.cast(t["l_shipdate"], pa.timestamp("us"))
        kept = t.filter(pc.greater(dt, pa.scalar(cutoff)))
        rev = _revenue_scaled(
            kept["l_extendedprice"].to_numpy(zero_copy_only=False),
            kept["l_discount"].to_numpy(zero_copy_only=False),
        )
        g = (
            pa.table(
                {"l_orderkey": pc.cast(kept["l_orderkey"], pa.int64()),
                 "rev": pa.array(rev, type=pa.int64())}
            )
            .group_by("l_orderkey")
            .aggregate([("rev", "sum")])
        )
        return pa.table(
            {"l_orderkey": g["l_orderkey"],
             "rev": pc.cast(g["rev_sum"], pa.int64())}
        )

    facts = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ).map_batches(li_combine, batch_format="pyarrow", zero_copy_batch=True)

    facts_schema = pa.schema([("l_orderkey", pa.int64()), ("rev", pa.int64())])
    rolled_schema = pa.schema(
        [("l_orderkey", pa.int64()), ("odate_us", pa.int64()),
         ("revenue_scaled", pa.int64())]
    )

    # join + rollup + top-N FUSED into the one orderkey exchange: the
    # rollup key (l_orderkey, odate_us) contains the bucket key, so every
    # group is complete within its bucket and per-bucket aggregate + top-N
    # is globally exact — one all-to-all instead of the
    # attach_unique -> grouped_aggregate -> block_topn chain (3 exchanges)
    def join_roll_topn(lt: pa.Table, rt: pa.Table) -> pa.Table:
        rt = rt.rename_columns(
            ["__rk" if n == "l_orderkey" else n for n in rt.column_names]
        )
        j = lt.join(rt, keys=["l_orderkey"], right_keys=["__rk"],
                    join_type="inner")
        g = j.group_by(["l_orderkey", "odate_us"]).aggregate([("rev", "sum")])
        t = pa.table(
            {"l_orderkey": g["l_orderkey"], "odate_us": g["odate_us"],
             "revenue_scaled": pc.cast(g["rev_sum"], pa.int64())}
        )
        idx = pc.sort_indices(
            t,
            sort_keys=[("revenue_scaled", "descending"),
                       ("odate_us", "ascending"), ("l_orderkey", "ascending")],
        )
        return t.take(idx[:top_n])

    rolled = _bucketed_join(
        facts,
        orders,
        ["l_orderkey"],
        facts_schema,
        pa.schema([("l_orderkey", pa.int64()), ("odate_us", pa.int64())]),
        join_roll_topn,
        nb=_fact_buckets(sf_dir, "lineitem"),
    )

    t = collect_table(rolled, empty_schema=rolled_schema)
    idx = pc.sort_indices(
        t,
        sort_keys=[("revenue_scaled", "descending"),
                   ("odate_us", "ascending"), ("l_orderkey", "ascending")],
    )
    t = t.take(idx[: min(top_n, t.num_rows)])
    return pa.table(
        {
            "l_orderkey": t["l_orderkey"],
            "revenue_scaled": t["revenue_scaled"],
            "o_orderdate": pc.cast(t["odate_us"], pa.timestamp("us")),
        }
    )


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
    import datetime

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from smse_backend_ray import config
    from smse_backend_ray.functions.joins import (
        attach_unique,
        grouped_aggregate,
        with_schema,
    )

    lo = datetime.datetime.fromisoformat(config.Q10_DATE_LO)
    hi = datetime.datetime.fromisoformat(config.Q10_DATE_HI)
    flag = config.Q10_RETURNFLAG
    top_n = config.Q10_TOP_N

    def ord_window(t: pa.Table) -> pa.Table:
        dt = pc.cast(t["o_orderdate"], pa.timestamp("us"))
        m = pc.and_(
            pc.greater_equal(dt, pa.scalar(lo)), pc.less(dt, pa.scalar(hi))
        )
        kept = t.filter(m)
        return pa.table(
            {
                "o_orderkey": pc.cast(kept["o_orderkey"], pa.int64()),
                "o_custkey": pc.cast(kept["o_custkey"], pa.int64()),
            }
        )

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(ord_window, batch_format="pyarrow", zero_copy_batch=True)

    def li_combine(t: pa.Table) -> pa.Table:
        kept = t.filter(pc.equal(t["l_returnflag"], flag))
        rev = _revenue_scaled(
            kept["l_extendedprice"].to_numpy(zero_copy_only=False),
            kept["l_discount"].to_numpy(zero_copy_only=False),
        )
        g = (
            pa.table(
                {"l_orderkey": pc.cast(kept["l_orderkey"], pa.int64()),
                 "rev": pa.array(rev, type=pa.int64())}
            )
            .group_by("l_orderkey")
            .aggregate([("rev", "sum")])
        )
        return pa.table(
            {"l_orderkey": g["l_orderkey"],
             "rev": pc.cast(g["rev_sum"], pa.int64())}
        )

    facts = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    ).map_batches(li_combine, batch_format="pyarrow", zero_copy_batch=True)

    facts_schema = pa.schema([("l_orderkey", pa.int64()), ("rev", pa.int64())])
    joined = attach_unique(
        facts, orders, "l_orderkey", "o_orderkey", facts_schema,
        pa.schema([("o_custkey", pa.int64())]),
    )

    rolled_schema = pa.schema(
        [("o_custkey", pa.int64()), ("revenue_scaled", pa.int64())]
    )
    rolled = with_schema(
        grouped_aggregate(
            joined, ["o_custkey"], [("rev", "sum", "revenue_scaled")]
        ),
        rolled_schema,
    )

    def block_topn(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return rolled_schema.empty_table()
        idx = pc.sort_indices(
            t,
            sort_keys=[("revenue_scaled", "descending"),
                       ("o_custkey", "ascending")],
        )
        return t.take(idx[:top_n])

    t = collect_table(
        rolled.map_batches(
            block_topn, batch_format="pyarrow", zero_copy_batch=True
        ),
        empty_schema=rolled_schema,
    )
    idx = pc.sort_indices(
        t,
        sort_keys=[("revenue_scaled", "descending"), ("o_custkey", "ascending")],
    )
    t = t.take(idx[: min(top_n, t.num_rows)])

    # <= N survivors: pushed-down point read of customer, tiny nation lookup
    keys = t["o_custkey"].to_pylist()
    cust = pads.dataset(os.path.join(sf_dir, "customer.parquet")).to_table(
        columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
        filter=pads.field("c_custkey").isin(keys) if keys else None,
    )
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    nname = dict(zip(nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist()))
    meta = {
        r["c_custkey"]: r for r in cust.to_pylist()
    }
    # FK integrity assumption (TPC-H guarantees it; the SQL twin's inner
    # join would silently drop an orphan BEFORE top-N, so surfacing it
    # loudly here keeps the frozen pair honest rather than divergent)
    missing = [k for k in keys if k not in meta]
    if missing:
        raise ValueError(
            f"orders reference custkeys absent from customer: {missing[:5]}"
        )
    rows = [meta[k] for k in keys]
    return pa.table(
        {
            "c_custkey": pa.array(keys, type=pa.int64()),
            "c_name": pa.array([r["c_name"] for r in rows], type=pa.string()),
            "revenue_scaled": t["revenue_scaled"],
            "c_acctbal": pa.array(
                [r["c_acctbal"] for r in rows], type=pa.float64()
            ),
            "n_name": pa.array(
                [nname[r["c_nationkey"]] for r in rows], type=pa.string()
            ),
        }
    )


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
    import datetime

    from smse_backend_ray import config

    lo = datetime.datetime.fromisoformat(config.Q6_DATE_LO)
    hi = datetime.datetime.fromisoformat(config.Q6_DATE_HI)
    dlo, dhi = config.Q6_DISC_LO_C, config.Q6_DISC_HI_C
    qmax = float(config.Q6_QTY_MAX)

    partial_schema = pa.schema([("rev", pa.int64()), ("n", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        dt = pc.cast(t["l_shipdate"], pa.timestamp("us"))
        m = pc.and_(
            pc.and_(pc.greater_equal(dt, pa.scalar(lo)), pc.less(dt, pa.scalar(hi))),
            pc.less(t["l_quantity"], qmax),
        )
        kept = t.filter(m)
        d = np.floor(
            kept["l_discount"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        band = (d >= dlo) & (d <= dhi)
        p = np.floor(
            kept["l_extendedprice"].to_numpy(zero_copy_only=False)[band] * 100.0
            + 0.5
        ).astype(np.int64)
        rev = p * d[band]
        return pa.table(
            {
                "rev": pa.array([int(rev.sum())], type=pa.int64()),
                "n": pa.array([int(band.sum())], type=pa.int64()),
            }
        )

    parts = collect_table(
        _read(
            sf_dir,
            "lineitem",
            ["l_shipdate", "l_quantity", "l_extendedprice", "l_discount"],
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        empty_schema=partial_schema,
    )
    return pa.table(
        {
            "revenue_scaled": pa.array(
                [int(pc.sum(parts["rev"]).as_py() or 0)], type=pa.int64()
            ),
            "n_items": pa.array(
                [int(pc.sum(parts["n"]).as_py() or 0)], type=pa.int64()
            ),
        }
    )


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
    import pyarrow.dataset as pads

    from smse_backend_ray import config
    from smse_backend_ray.functions.joins import grouped_aggregate, with_schema

    thr = int(config.Q18_MIN_QTY) * 100
    top_n = int(config.Q18_TOP_N)

    def li_combine(t: pa.Table) -> pa.Table:
        q = np.floor(
            t["l_quantity"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        g = (
            pa.table(
                {
                    "l_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
                    "qty": pa.array(q, type=pa.int64()),
                }
            )
            .group_by("l_orderkey")
            .aggregate([("qty", "sum")])
        )
        return pa.table(
            {"l_orderkey": g["l_orderkey"], "qty": pc.cast(g["qty_sum"], pa.int64())}
        )

    facts = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]).map_batches(
        li_combine, batch_format="pyarrow", zero_copy_batch=True
    )
    rolled_schema = pa.schema(
        [("l_orderkey", pa.int64()), ("total_qty_scaled", pa.int64())]
    )
    rolled = with_schema(
        grouped_aggregate(
            facts,
            ["l_orderkey"],
            [("qty", "sum", "total_qty_scaled")],
            nb=_fact_buckets(sf_dir, "lineitem"),
        ),
        rolled_schema,
    )

    def having(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t["total_qty_scaled"], thr))

    qual = collect_table(
        rolled.map_batches(having, batch_format="pyarrow", zero_copy_batch=True),
        empty_schema=rolled_schema,
    )
    out_schema = pa.schema(
        [
            ("c_custkey", pa.int64()),
            ("c_name", pa.string()),
            ("o_orderkey", pa.int64()),
            ("o_orderdate", pa.timestamp("us")),
            ("o_totalprice", pa.float64()),
            ("total_qty_scaled", pa.int64()),
        ]
    )
    if not qual.num_rows:
        return out_schema.empty_table()

    okeys = qual["l_orderkey"].to_pylist()
    qty_of = dict(zip(okeys, qual["total_qty_scaled"].to_pylist()))
    orders = pads.dataset(os.path.join(sf_dir, "orders.parquet")).to_table(
        columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"],
        filter=pads.field("o_orderkey").isin(okeys),
    )
    if not orders.num_rows:
        # FK-broken/partial warehouse: no qualifying orderkey exists in
        # orders — return empty WITHOUT the customer read (an empty isin
        # key list would otherwise fall to filter=None = a full scan)
        return out_schema.empty_table()
    idx = pc.sort_indices(
        orders,
        sort_keys=[("o_totalprice", "descending"), ("o_orderkey", "ascending")],
    )
    orders = orders.take(idx[: min(top_n, orders.num_rows)])

    ckeys = orders["o_custkey"].to_pylist()
    cust = pads.dataset(os.path.join(sf_dir, "customer.parquet")).to_table(
        columns=["c_custkey", "c_name"],
        filter=pads.field("c_custkey").isin(ckeys) if ckeys else None,
    )
    cname = dict(zip(cust["c_custkey"].to_pylist(), cust["c_name"].to_pylist()))
    missing = [k for k in ckeys if k not in cname]
    if missing:
        # FK integrity assumption, surfaced loudly (same stance as Q10)
        raise ValueError(
            f"orders reference custkeys absent from customer: {missing[:5]}"
        )
    return pa.table(
        {
            "c_custkey": pa.array(ckeys, type=pa.int64()),
            "c_name": pa.array([cname[k] for k in ckeys], type=pa.string()),
            "o_orderkey": orders["o_orderkey"],
            "o_orderdate": pc.cast(orders["o_orderdate"], pa.timestamp("us")),
            "o_totalprice": pc.cast(orders["o_totalprice"], pa.float64()),
            "total_qty_scaled": pa.array(
                [qty_of[k] for k in orders["o_orderkey"].to_pylist()],
                type=pa.int64(),
            ),
        }
    )


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
    import datetime

    from smse_backend_ray import config
    from smse_backend_ray.functions.joins import _bucketed_join

    lo = datetime.datetime.fromisoformat(config.Q12_DATE_LO)
    hi = datetime.datetime.fromisoformat(config.Q12_DATE_HI)
    high_set = list(config.Q12_HIGH_PRIORITIES)

    def li_combine(t: pa.Table) -> pa.Table:
        dt = pc.cast(t["l_shipdate"], pa.timestamp("us"))
        m = pc.and_(
            pc.greater_equal(dt, pa.scalar(lo)), pc.less(dt, pa.scalar(hi))
        )
        part = pa.table(
            {
                "l_orderkey": pc.cast(t.filter(m)["l_orderkey"], pa.int64()),
                "l_linestatus": t.filter(m)["l_linestatus"],
            }
        )
        g = part.group_by(["l_orderkey", "l_linestatus"]).aggregate(
            [("l_orderkey", "count")]
        )
        return pa.table(
            {
                "l_orderkey": g["l_orderkey"],
                "l_linestatus": g["l_linestatus"],
                "n": pc.cast(g["l_orderkey_count"], pa.int64()),
            }
        )

    facts = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_linestatus", "l_shipdate"]
    ).map_batches(li_combine, batch_format="pyarrow", zero_copy_batch=True)

    def ord_high(t: pa.Table) -> pa.Table:
        hi_m = pc.is_in(t["o_orderpriority"], value_set=pa.array(high_set))
        return pa.table(
            {
                "l_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
                "is_high": pc.cast(hi_m, pa.int64()),
            }
        )

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_orderpriority"]
    ).map_batches(ord_high, batch_format="pyarrow", zero_copy_batch=True)

    facts_schema = pa.schema(
        [("l_orderkey", pa.int64()), ("l_linestatus", pa.string()),
         ("n", pa.int64())]
    )
    orders_schema = pa.schema(
        [("l_orderkey", pa.int64()), ("is_high", pa.int64())]
    )

    def join_roll(lt: pa.Table, rt: pa.Table) -> pa.Table:
        rt = rt.rename_columns(
            ["__rk" if nm == "l_orderkey" else nm for nm in rt.column_names]
        )
        j = lt.join(rt, keys=["l_orderkey"], right_keys=["__rk"],
                    join_type="inner")
        n = j["n"].to_numpy(zero_copy_only=False)
        ih = j["is_high"].to_numpy(zero_copy_only=False)
        part = pa.table(
            {
                "l_linestatus": j["l_linestatus"],
                "high": pa.array(n * ih, type=pa.int64()),
                "low": pa.array(n * (1 - ih), type=pa.int64()),
            }
        )
        g = part.group_by("l_linestatus").aggregate(
            [("high", "sum"), ("low", "sum")]
        )
        return pa.table(
            {
                "l_linestatus": g["l_linestatus"],
                "high": pc.cast(g["high_sum"], pa.int64()),
                "low": pc.cast(g["low_sum"], pa.int64()),
            }
        )

    partial_schema = pa.schema(
        [("l_linestatus", pa.string()), ("high", pa.int64()),
         ("low", pa.int64())]
    )
    rolled = _bucketed_join(
        facts, orders, ["l_orderkey"], facts_schema, orders_schema,
        join_roll, nb=_fact_buckets(sf_dir, "lineitem"),
    )
    t = collect_table(rolled, empty_schema=partial_schema)
    g = t.group_by("l_linestatus").aggregate([("high", "sum"), ("low", "sum")])
    t = pa.table(
        {
            "l_linestatus": g["l_linestatus"],
            "high_line_count": pc.cast(g["high_sum"], pa.int64()),
            "low_line_count": pc.cast(g["low_sum"], pa.int64()),
        }
    )
    return t.take(pc.sort_indices(t["l_linestatus"]))


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
    import datetime

    import pyarrow.parquet as pq

    from smse_backend_ray import config
    from smse_backend_ray.functions.joins import _bucketed_join

    lo = datetime.datetime.fromisoformat(config.Q7_DATE_LO)
    hi = datetime.datetime.fromisoformat(config.Q7_DATE_HI)

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    )
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name"],
    )
    nkey = nat["n_nationkey"].to_numpy()
    names = nat["n_name"].to_pylist()
    # dense nationkey -> name index; names_sorted gives a stable int code
    names_sorted = sorted(set(names))
    name_idx = {n: i for i, n in enumerate(names_sorted)}
    nat_to_idx = np.full(int(nkey.max()) + 1, -1, dtype=np.int64)
    for k, nm in zip(nkey.tolist(), names):
        nat_to_idx[k] = name_idx[nm]
    skeys = sup["s_suppkey"].to_numpy()
    snat = sup["s_nationkey"].to_numpy()
    sup_lut = np.full(int(skeys.max()) + 1, -1, dtype=np.int64)
    sup_lut[skeys] = nat_to_idx[snat]
    ref = ray.put((sup_lut, nat_to_idx))

    def li_combine(t: pa.Table) -> pa.Table:
        sup_lut_, _ = ray.get(ref)
        dt = pc.cast(t["l_shipdate"], pa.timestamp("us"))
        m = pc.and_(
            pc.greater_equal(dt, pa.scalar(lo)), pc.less(dt, pa.scalar(hi))
        )
        t = t.filter(m)
        rev = _revenue_scaled(
            t["l_extendedprice"].to_numpy(), t["l_discount"].to_numpy()
        )
        yr = pc.year(pc.cast(t["l_shipdate"], pa.timestamp("us"))).to_numpy(
            zero_copy_only=False
        ).astype(np.int32)
        part = pa.table(
            {
                "l_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
                "sidx": pa.array(
                    sup_lut_[t["l_suppkey"].to_numpy()], type=pa.int64()
                ),
                "l_year": pa.array(yr, type=pa.int32()),
                "rev": pa.array(rev, type=pa.int64()),
            }
        )
        g = part.group_by(["l_orderkey", "sidx", "l_year"]).aggregate(
            [("rev", "sum")]
        )
        return pa.table(
            {
                "l_orderkey": g["l_orderkey"],
                "sidx": g["sidx"],
                "l_year": pc.cast(g["l_year"], pa.int32()),
                "rev": pc.cast(g["rev_sum"], pa.int64()),
            }
        )

    facts = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_suppkey", "l_shipdate", "l_extendedprice",
         "l_discount"],
    ).map_batches(li_combine, batch_format="pyarrow", zero_copy_batch=True)

    # exchange 1: orders pick up the customer's nation index on custkey
    def ord_keys(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": pc.cast(t["o_custkey"], pa.int64()),
                "o_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
            }
        )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        ord_keys, batch_format="pyarrow", zero_copy_batch=True
    )

    def cust_keys(t: pa.Table) -> pa.Table:
        _, n2i = ray.get(ref)
        return pa.table(
            {
                "c_custkey": pc.cast(t["c_custkey"], pa.int64()),
                "cidx": pa.array(
                    n2i[t["c_nationkey"].to_numpy()], type=pa.int64()
                ),
            }
        )

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        cust_keys, batch_format="pyarrow", zero_copy_batch=True
    )

    ord_schema = pa.schema([("c_custkey", pa.int64()), ("o_orderkey", pa.int64())])
    cust_schema = pa.schema([("c_custkey", pa.int64()), ("cidx", pa.int64())])

    def join_cust(lt: pa.Table, rt: pa.Table) -> pa.Table:
        rt = rt.rename_columns(
            ["__rk" if nm == "c_custkey" else nm for nm in rt.column_names]
        )
        j = lt.join(rt, keys=["c_custkey"], right_keys=["__rk"],
                    join_type="inner")
        return j.select(["o_orderkey", "cidx"]).rename_columns(
            ["l_orderkey", "cidx"]
        )

    enriched = _bucketed_join(
        orders, cust, ["c_custkey"], ord_schema, cust_schema, join_cust,
        nb=_fact_buckets(sf_dir, "orders"),
    )

    # exchange 2: fact partials meet enriched orders on orderkey; fused
    # per-bucket rollup to <= nations^2 * years rows
    facts_schema = pa.schema(
        [("l_orderkey", pa.int64()), ("sidx", pa.int64()),
         ("l_year", pa.int32()), ("rev", pa.int64())]
    )
    enr_schema = pa.schema([("l_orderkey", pa.int64()), ("cidx", pa.int64())])

    def join_roll(lt: pa.Table, rt: pa.Table) -> pa.Table:
        rt = rt.rename_columns(
            ["__rk" if nm == "l_orderkey" else nm for nm in rt.column_names]
        )
        j = lt.join(rt, keys=["l_orderkey"], right_keys=["__rk"],
                    join_type="inner")
        g = j.group_by(["sidx", "cidx", "l_year"]).aggregate([("rev", "sum")])
        return pa.table(
            {
                "sidx": g["sidx"],
                "cidx": g["cidx"],
                "l_year": pc.cast(g["l_year"], pa.int32()),
                "rev": pc.cast(g["rev_sum"], pa.int64()),
            }
        )

    partial_schema = pa.schema(
        [("sidx", pa.int64()), ("cidx", pa.int64()),
         ("l_year", pa.int32()), ("rev", pa.int64())]
    )
    rolled = _bucketed_join(
        facts, enriched, ["l_orderkey"], facts_schema, enr_schema,
        join_roll, nb=_fact_buckets(sf_dir, "lineitem"),
    )
    t = collect_table(rolled, empty_schema=partial_schema)
    g = t.group_by(["sidx", "cidx", "l_year"]).aggregate([("rev", "sum")])
    out = pa.table(
        {
            "supp_nation": pa.array(
                [names_sorted[i] for i in g["sidx"].to_pylist()],
                type=pa.string(),
            ),
            "cust_nation": pa.array(
                [names_sorted[i] for i in g["cidx"].to_pylist()],
                type=pa.string(),
            ),
            "l_year": pc.cast(g["l_year"], pa.int32()),
            "revenue_scaled": pc.cast(g["rev_sum"], pa.int64()),
        }
    )
    return out.take(
        pc.sort_indices(
            out,
            sort_keys=[("supp_nation", "ascending"),
                       ("cust_nation", "ascending"),
                       ("l_year", "ascending")],
        )
    )


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
    from smse_backend_ray import config
    from smse_backend_ray.functions.joins import _bucketed_join
    from smse_backend_ray.functions.rounding import round_half_away

    def li_combine(t: pa.Table) -> pa.Table:
        q = np.floor(
            t["l_quantity"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        p = np.floor(
            t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        part = pa.table(
            {
                "p_partkey": pc.cast(t["l_partkey"], pa.int64()),
                "q_s": pa.array(q, type=pa.int64()),
                "price_s": pa.array(p, type=pa.int64()),
            }
        )
        g = part.group_by(["p_partkey", "q_s"]).aggregate(
            [("price_s", "sum"), ("price_s", "count")]
        )
        return pa.table(
            {
                "p_partkey": g["p_partkey"],
                "q_s": g["q_s"],
                "price_sum": pc.cast(g["price_s_sum"], pa.int64()),
                "n": pc.cast(g["price_s_count"], pa.int64()),
            }
        )

    facts = _read(
        sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"]
    ).map_batches(li_combine, batch_format="pyarrow", zero_copy_batch=True)

    def part_keys(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.equal(t["p_brand"], config.Q17_BRAND),
            pc.less(t["p_size"], config.Q17_SIZE_MAX),
        )
        return pa.table(
            {"p_partkey": pc.cast(t.filter(m)["p_partkey"], pa.int64())}
        )

    parts = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]).map_batches(
        part_keys, batch_format="pyarrow", zero_copy_batch=True
    )

    facts_schema = pa.schema(
        [("p_partkey", pa.int64()), ("q_s", pa.int64()),
         ("price_sum", pa.int64()), ("n", pa.int64())]
    )
    keys_schema = pa.schema([("p_partkey", pa.int64())])

    def join_roll(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lt = lt.join(rt.rename_columns(["__rk"]), keys=["p_partkey"],
                     right_keys=["__rk"], join_type="left semi")
        if not lt.num_rows:
            return pa.table(
                {"rev": pa.array([], type=pa.int64()),
                 "n_lines": pa.array([], type=pa.int64())}
            )
        qn = pc.multiply(lt["q_s"], lt["n"])
        per_part = (
            pa.table({"p_partkey": lt["p_partkey"], "n": lt["n"], "qn": qn})
            .group_by("p_partkey")
            .aggregate([("n", "sum"), ("qn", "sum")])
        )
        j = lt.join(
            per_part.rename_columns(["__rk", "cnt", "tot"]),
            keys=["p_partkey"], right_keys=["__rk"], join_type="inner",
        )
        q_s = j["q_s"].to_numpy(zero_copy_only=False)
        cnt = j["cnt"].to_numpy(zero_copy_only=False)
        tot = j["tot"].to_numpy(zero_copy_only=False)
        elig = 5 * q_s * cnt < tot
        price = j["price_sum"].to_numpy(zero_copy_only=False)
        nrow = j["n"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "rev": pa.array([int(price[elig].sum())], type=pa.int64()),
                "n_lines": pa.array([int(nrow[elig].sum())], type=pa.int64()),
            }
        )

    partial_schema = pa.schema([("rev", pa.int64()), ("n_lines", pa.int64())])
    rolled = _bucketed_join(
        facts, parts, ["p_partkey"], facts_schema, keys_schema, join_roll,
        nb=_fact_buckets(sf_dir, "lineitem"),
    )
    t = collect_table(rolled, empty_schema=partial_schema)
    rev = int(pc.sum(t["rev"]).as_py() or 0)
    n_lines = int(pc.sum(t["n_lines"]).as_py() or 0)
    avg_yearly = round_half_away(rev / 100.0 / float(config.Q17_YEARS), 4)
    return pa.table(
        {
            "revenue_scaled": pa.array([rev], type=pa.int64()),
            "n_lines": pa.array([n_lines], type=pa.int64()),
            "avg_yearly": pa.array([avg_yearly], type=pa.float64()),
        }
    )


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
    import datetime

    import pyarrow.dataset as pads

    from smse_backend_ray import config
    from smse_backend_ray.functions.joins import grouped_aggregate, with_schema

    lo = datetime.datetime.fromisoformat(config.Q15_DATE_LO)
    hi = datetime.datetime.fromisoformat(config.Q15_DATE_HI)

    def li_combine(t: pa.Table) -> pa.Table:
        dt = pc.cast(t["l_shipdate"], pa.timestamp("us"))
        m = pc.and_(
            pc.greater_equal(dt, pa.scalar(lo)), pc.less(dt, pa.scalar(hi))
        )
        t = t.filter(m)
        rev = _revenue_scaled(
            t["l_extendedprice"].to_numpy(), t["l_discount"].to_numpy()
        )
        g = (
            pa.table(
                {
                    "s_suppkey": pc.cast(t["l_suppkey"], pa.int64()),
                    "rev": pa.array(rev, type=pa.int64()),
                }
            )
            .group_by("s_suppkey")
            .aggregate([("rev", "sum")])
        )
        return pa.table(
            {"s_suppkey": g["s_suppkey"], "rev": pc.cast(g["rev_sum"], pa.int64())}
        )

    facts = _read(
        sf_dir, "lineitem",
        ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ).map_batches(li_combine, batch_format="pyarrow", zero_copy_batch=True)

    rolled_schema = pa.schema([("s_suppkey", pa.int64()), ("rev", pa.int64())])
    rolled = with_schema(
        grouped_aggregate(
            facts, ["s_suppkey"], [("rev", "sum", "rev")],
            nb=_fact_buckets(sf_dir, "lineitem"),
        ),
        rolled_schema,
    )

    def block_winners(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return rolled_schema.empty_table()
        mx = pc.max(t["rev"])
        return t.filter(pc.equal(t["rev"], mx))

    cand = collect_table(
        rolled.map_batches(
            block_winners, batch_format="pyarrow", zero_copy_batch=True
        ),
        empty_schema=rolled_schema,
    )
    out_schema = pa.schema(
        [("s_suppkey", pa.int64()), ("s_name", pa.string()),
         ("total_revenue_scaled", pa.int64())]
    )
    if not cand.num_rows:
        return out_schema.empty_table()
    mx = pc.max(cand["rev"]).as_py()
    winners = cand.filter(pc.equal(cand["rev"], mx))
    skeys = sorted(winners["s_suppkey"].to_pylist())
    sup = pads.dataset(os.path.join(sf_dir, "supplier.parquet")).to_table(
        columns=["s_suppkey", "s_name"],
        filter=pads.field("s_suppkey").isin(skeys),
    )
    name_of = dict(zip(sup["s_suppkey"].to_pylist(), sup["s_name"].to_pylist()))
    missing = [k for k in skeys if k not in name_of]
    if missing:
        raise ValueError(
            f"lineitem references suppkeys absent from supplier: {missing[:5]}"
        )
    return pa.table(
        {
            "s_suppkey": pa.array(skeys, type=pa.int64()),
            "s_name": pa.array([name_of[k] for k in skeys], type=pa.string()),
            "total_revenue_scaled": pa.array(
                [mx] * len(skeys), type=pa.int64()
            ),
        }
    )


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
    import datetime

    import pyarrow.parquet as pq

    from smse_backend_ray import config
    from smse_backend_ray.functions.joins import anti_join

    cutoff = datetime.datetime.fromisoformat(config.Q22_CUTOFF)

    # pass 1: the two scalars (count, scaled sum) over positive balances
    def pos_partial(t: pa.Table) -> pa.Table:
        m = pc.greater(t["c_acctbal"], 0.0)
        bal = t.filter(m)["c_acctbal"].to_numpy(zero_copy_only=False)
        bal_s = np.floor(np.abs(bal) * 100.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "n": pa.array([len(bal_s)], type=pa.int64()),
                "s": pa.array([int(bal_s.sum())], type=pa.int64()),
            }
        )

    pos_schema = pa.schema([("n", pa.int64()), ("s", pa.int64())])
    pos = collect_table(
        _read(sf_dir, "customer", ["c_acctbal"]).map_batches(
            pos_partial, batch_format="pyarrow", zero_copy_batch=True
        ),
        empty_schema=pos_schema,
    )
    n_pos = int(pc.sum(pos["n"]).as_py() or 0)
    sum_pos = int(pc.sum(pos["s"]).as_py() or 0)

    out_schema = pa.schema(
        [("n_name", pa.string()), ("n_cust", pa.int64()),
         ("total_acctbal_scaled", pa.int64())]
    )
    if n_pos == 0:
        # avg over an empty set is NULL -> no customer qualifies
        return out_schema.empty_table()

    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name"],
    )
    nkey = nat["n_nationkey"].to_numpy()
    n2name = dict(zip(nkey.tolist(), nat["n_name"].to_pylist()))

    def cust_cols(t: pa.Table) -> pa.Table:
        bal = t["c_acctbal"].to_numpy(zero_copy_only=False)
        bal_s = np.where(
            bal >= 0,
            np.floor(bal * 100.0 + 0.5),
            -np.floor(-bal * 100.0 + 0.5),
        ).astype(np.int64)
        return pa.table(
            {
                "c_custkey": pc.cast(t["c_custkey"], pa.int64()),
                "c_nationkey": pc.cast(t["c_nationkey"], pa.int64()),
                "bal_s": pa.array(bal_s, type=pa.int64()),
            }
        )

    cust = _read(
        sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"]
    ).map_batches(cust_cols, batch_format="pyarrow", zero_copy_batch=True)

    def recent_keys(t: pa.Table) -> pa.Table:
        dt = pc.cast(t["o_orderdate"], pa.timestamp("us"))
        k = t.filter(pc.greater_equal(dt, pa.scalar(cutoff)))["o_custkey"]
        return pa.table(
            {"c_custkey": pc.unique(pc.cast(k, pa.int64()))}
        )

    recent = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"]).map_batches(
        recent_keys, batch_format="pyarrow", zero_copy_batch=True
    )

    cust_schema = pa.schema(
        [("c_custkey", pa.int64()), ("c_nationkey", pa.int64()),
         ("bal_s", pa.int64())]
    )
    idle = anti_join(
        cust, recent, ["c_custkey"], cust_schema,
        nb=_fact_buckets(sf_dir, "customer"),
    )

    def nation_partial(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.table(
                {"c_nationkey": pa.array([], type=pa.int64()),
                 "n_cust": pa.array([], type=pa.int64()),
                 "bal": pa.array([], type=pa.int64())}
            )
        elig = pc.greater(
            pc.multiply(t["bal_s"], pa.scalar(n_pos, type=pa.int64())),
            pa.scalar(sum_pos, type=pa.int64()),
        )
        t = t.filter(elig)
        g = t.group_by("c_nationkey").aggregate(
            [("bal_s", "sum"), ("bal_s", "count")]
        )
        return pa.table(
            {
                "c_nationkey": g["c_nationkey"],
                "n_cust": pc.cast(g["bal_s_count"], pa.int64()),
                "bal": pc.cast(g["bal_s_sum"], pa.int64()),
            }
        )

    partial_schema = pa.schema(
        [("c_nationkey", pa.int64()), ("n_cust", pa.int64()),
         ("bal", pa.int64())]
    )
    t = collect_table(
        idle.map_batches(
            nation_partial, batch_format="pyarrow", zero_copy_batch=True
        ),
        empty_schema=partial_schema,
    )
    g = t.group_by("c_nationkey").aggregate([("n_cust", "sum"), ("bal", "sum")])
    out = pa.table(
        {
            "n_name": pa.array(
                [n2name[k] for k in g["c_nationkey"].to_pylist()],
                type=pa.string(),
            ),
            "n_cust": pc.cast(g["n_cust_sum"], pa.int64()),
            "total_acctbal_scaled": pc.cast(g["bal_sum"], pa.int64()),
        }
    )
    return out.take(pc.sort_indices(out["n_name"]))


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
    from smse_backend_ray import config
    from smse_backend_ray.functions.joins import _bucketed_join

    bands = list(config.Q19_BANDS)

    def li_combine(t: pa.Table) -> pa.Table:
        q = np.floor(
            t["l_quantity"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        rev = _revenue_scaled(
            t["l_extendedprice"].to_numpy(), t["l_discount"].to_numpy()
        )
        part = pa.table(
            {
                "p_partkey": pc.cast(t["l_partkey"], pa.int64()),
                "q_s": pa.array(q, type=pa.int64()),
                "rev": pa.array(rev, type=pa.int64()),
            }
        )
        g = part.group_by(["p_partkey", "q_s"]).aggregate(
            [("rev", "sum"), ("rev", "count")]
        )
        return pa.table(
            {
                "p_partkey": g["p_partkey"],
                "q_s": g["q_s"],
                "rev_sum": pc.cast(g["rev_sum"], pa.int64()),
                "n": pc.cast(g["rev_count"], pa.int64()),
            }
        )

    facts = _read(
        sf_dir, "lineitem",
        ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(li_combine, batch_format="pyarrow", zero_copy_batch=True)

    def part_masks(t: pa.Table) -> pa.Table:
        size = t["p_size"].to_numpy(zero_copy_only=False)
        mask = np.zeros(t.num_rows, dtype=np.int64)
        for i, (brand, size_max, _lo, _hi) in enumerate(bands):
            bm = pc.equal(t["p_brand"], brand).to_numpy(zero_copy_only=False)
            mask |= (bm & (size >= 1) & (size <= size_max)) << i
        keep = mask != 0
        return pa.table(
            {
                "p_partkey": pc.cast(t["p_partkey"], pa.int64()).filter(
                    pa.array(keep)
                ),
                "band_mask": pa.array(mask[keep], type=pa.int64()),
            }
        )

    parts = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]).map_batches(
        part_masks, batch_format="pyarrow", zero_copy_batch=True
    )

    facts_schema = pa.schema(
        [("p_partkey", pa.int64()), ("q_s", pa.int64()),
         ("rev_sum", pa.int64()), ("n", pa.int64())]
    )
    mask_schema = pa.schema(
        [("p_partkey", pa.int64()), ("band_mask", pa.int64())]
    )

    def join_roll(lt: pa.Table, rt: pa.Table) -> pa.Table:
        rt = rt.rename_columns(["__rk", "band_mask"])
        j = lt.join(rt, keys=["p_partkey"], right_keys=["__rk"],
                    join_type="inner")
        if not j.num_rows:
            return pa.table(
                {"rev": pa.array([], type=pa.int64()),
                 "n_lines": pa.array([], type=pa.int64())}
            )
        q_s = j["q_s"].to_numpy(zero_copy_only=False)
        mask = j["band_mask"].to_numpy(zero_copy_only=False)
        elig = np.zeros(len(q_s), dtype=bool)
        for i, (_brand, _size_max, lo, hi) in enumerate(bands):
            elig |= (
                ((mask >> i) & 1).astype(bool)
                & (q_s >= lo * 100)
                & (q_s <= hi * 100)
            )
        rev = j["rev_sum"].to_numpy(zero_copy_only=False)
        n = j["n"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "rev": pa.array([int(rev[elig].sum())], type=pa.int64()),
                "n_lines": pa.array([int(n[elig].sum())], type=pa.int64()),
            }
        )

    partial_schema = pa.schema([("rev", pa.int64()), ("n_lines", pa.int64())])
    rolled = _bucketed_join(
        facts, parts, ["p_partkey"], facts_schema, mask_schema, join_roll,
        nb=_fact_buckets(sf_dir, "lineitem"),
    )
    t = collect_table(rolled, empty_schema=partial_schema)
    return pa.table(
        {
            "revenue_scaled": pa.array(
                [int(pc.sum(t["rev"]).as_py() or 0)], type=pa.int64()
            ),
            "n_lines": pa.array(
                [int(pc.sum(t["n_lines"]).as_py() or 0)], type=pa.int64()
            ),
        }
    )


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
    import datetime

    import pyarrow.parquet as pq

    from smse_backend_ray import config
    from smse_backend_ray.functions.joins import _bucketed_join, semi_join
    from smse_backend_ray.functions.rounding import round_half_away

    lo = datetime.datetime.fromisoformat(config.Q8_DATE_LO)
    hi = datetime.datetime.fromisoformat(config.Q8_DATE_HI)

    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    reg = pq.read_table(
        os.path.join(sf_dir, "region.parquet"),
        columns=["r_regionkey", "r_name"],
    )
    region_keys = {
        k
        for k, nm in zip(
            reg["r_regionkey"].to_pylist(), reg["r_name"].to_pylist()
        )
        if nm == config.Q8_REGION
    }
    nkey = nat["n_nationkey"].to_numpy()
    in_region_nations = {
        int(k)
        for k, rk in zip(nkey.tolist(), nat["n_regionkey"].to_pylist())
        if rk in region_keys
    }
    nation_keys = {
        int(k)
        for k, nm in zip(nkey.tolist(), nat["n_name"].to_pylist())
        if nm == config.Q8_NATION
    }
    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    )
    skeys = sup["s_suppkey"].to_numpy()
    snat = sup["s_nationkey"].to_numpy()
    sup_is_nat = np.zeros(int(skeys.max()) + 1, dtype=np.int64)
    sup_is_nat[skeys] = np.isin(snat, np.array(sorted(nation_keys))).astype(
        np.int64
    )
    ref = ray.put(sup_is_nat)

    def li_combine(t: pa.Table) -> pa.Table:
        lut = ray.get(ref)
        rev = _revenue_scaled(
            t["l_extendedprice"].to_numpy(), t["l_discount"].to_numpy()
        )
        is_nat = lut[t["l_suppkey"].to_numpy()]
        part = pa.table(
            {
                "p_partkey": pc.cast(t["l_partkey"], pa.int64()),
                "l_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
                "rev": pa.array(rev, type=pa.int64()),
                "rev_nat": pa.array(rev * is_nat, type=pa.int64()),
            }
        )
        g = part.group_by(["p_partkey", "l_orderkey"]).aggregate(
            [("rev", "sum"), ("rev_nat", "sum")]
        )
        return pa.table(
            {
                "p_partkey": g["p_partkey"],
                "l_orderkey": g["l_orderkey"],
                "rev": pc.cast(g["rev_sum"], pa.int64()),
                "rev_nat": pc.cast(g["rev_nat_sum"], pa.int64()),
            }
        )

    facts = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice",
         "l_discount"],
    ).map_batches(li_combine, batch_format="pyarrow", zero_copy_batch=True)

    def type_keys(t: pa.Table) -> pa.Table:
        m = pc.equal(t["p_type"], config.Q8_TYPE)
        return pa.table(
            {"p_partkey": pc.cast(t.filter(m)["p_partkey"], pa.int64())}
        )

    parts = _read(sf_dir, "part", ["p_partkey", "p_type"]).map_batches(
        type_keys, batch_format="pyarrow", zero_copy_batch=True
    )
    facts_schema = pa.schema(
        [("p_partkey", pa.int64()), ("l_orderkey", pa.int64()),
         ("rev", pa.int64()), ("rev_nat", pa.int64())]
    )
    kept = semi_join(
        facts, parts, ["p_partkey"], facts_schema,
        nb=_fact_buckets(sf_dir, "lineitem"),
    )

    def order_combine(t: pa.Table) -> pa.Table:
        g = t.group_by("l_orderkey").aggregate(
            [("rev", "sum"), ("rev_nat", "sum")]
        )
        return pa.table(
            {
                "l_orderkey": g["l_orderkey"],
                "rev": pc.cast(g["rev_sum"], pa.int64()),
                "rev_nat": pc.cast(g["rev_nat_sum"], pa.int64()),
            }
        )

    kept = kept.map_batches(
        order_combine, batch_format="pyarrow", zero_copy_batch=True
    )

    region_arr = np.array(sorted(in_region_nations), dtype=np.int64)

    def cust_keys(t: pa.Table) -> pa.Table:
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False)
        m = np.isin(nk, region_arr)
        return pa.table(
            {
                "c_custkey": pc.cast(
                    t["c_custkey"].filter(pa.array(m)), pa.int64()
                )
            }
        )

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        cust_keys, batch_format="pyarrow", zero_copy_batch=True
    )

    def ord_window(t: pa.Table) -> pa.Table:
        dt = pc.cast(t["o_orderdate"], pa.timestamp("us"))
        m = pc.and_(
            pc.greater_equal(dt, pa.scalar(lo)), pc.less(dt, pa.scalar(hi))
        )
        t = t.filter(m)
        yr = pc.year(pc.cast(t["o_orderdate"], pa.timestamp("us"))).to_numpy(
            zero_copy_only=False
        ).astype(np.int32)
        return pa.table(
            {
                "c_custkey": pc.cast(t["o_custkey"], pa.int64()),
                "l_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
                "o_year": pa.array(yr, type=pa.int32()),
            }
        )

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(ord_window, batch_format="pyarrow", zero_copy_batch=True)

    ord_schema = pa.schema(
        [("c_custkey", pa.int64()), ("l_orderkey", pa.int64()),
         ("o_year", pa.int32())]
    )
    enriched = semi_join(
        orders, cust, ["c_custkey"], ord_schema,
        nb=_fact_buckets(sf_dir, "orders"),
    ).map_batches(
        lambda t: t.select(["l_orderkey", "o_year"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )

    kept_schema = pa.schema(
        [("l_orderkey", pa.int64()), ("rev", pa.int64()),
         ("rev_nat", pa.int64())]
    )
    enr_schema = pa.schema([("l_orderkey", pa.int64()), ("o_year", pa.int32())])

    def join_roll(lt: pa.Table, rt: pa.Table) -> pa.Table:
        rt = rt.rename_columns(["__rk", "o_year"])
        j = lt.join(rt, keys=["l_orderkey"], right_keys=["__rk"],
                    join_type="inner")
        g = j.group_by("o_year").aggregate(
            [("rev", "sum"), ("rev_nat", "sum")]
        )
        return pa.table(
            {
                "o_year": pc.cast(g["o_year"], pa.int32()),
                "rev": pc.cast(g["rev_sum"], pa.int64()),
                "rev_nat": pc.cast(g["rev_nat_sum"], pa.int64()),
            }
        )

    partial_schema = pa.schema(
        [("o_year", pa.int32()), ("rev", pa.int64()), ("rev_nat", pa.int64())]
    )
    rolled = _bucketed_join(
        kept, enriched, ["l_orderkey"], kept_schema, enr_schema, join_roll,
        nb=_fact_buckets(sf_dir, "lineitem"),
    )
    t = collect_table(rolled, empty_schema=partial_schema)
    g = t.group_by("o_year").aggregate([("rev", "sum"), ("rev_nat", "sum")])
    tot = g["rev_sum"].to_numpy(zero_copy_only=False)
    natv = g["rev_nat_sum"].to_numpy(zero_copy_only=False)
    share = [
        round_half_away(float(n) / float(d), 4) if d else 0.0
        for n, d in zip(natv.tolist(), tot.tolist())
    ]
    out = pa.table(
        {
            "o_year": pc.cast(g["o_year"], pa.int32()),
            "total_revenue_scaled": pa.array(tot, type=pa.int64()),
            "nation_revenue_scaled": pa.array(natv, type=pa.int64()),
            "mkt_share": pa.array(share, type=pa.float64()),
        }
    )
    return out.take(pc.sort_indices(out["o_year"]))


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
    import pyarrow.parquet as pq

    from smse_backend_ray import config
    from smse_backend_ray.functions.joins import _bucketed_join

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    )
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name"],
    )
    nkey = nat["n_nationkey"].to_numpy()
    names = nat["n_name"].to_pylist()
    names_sorted = sorted(set(names))
    name_idx = {n: i for i, n in enumerate(names_sorted)}
    nat_to_idx = np.full(int(nkey.max()) + 1, -1, dtype=np.int64)
    for k, nm in zip(nkey.tolist(), names):
        nat_to_idx[k] = name_idx[nm]
    skeys = sup["s_suppkey"].to_numpy()
    snat = sup["s_nationkey"].to_numpy()
    sup_lut = np.full(int(skeys.max()) + 1, -1, dtype=np.int64)
    sup_lut[skeys] = nat_to_idx[snat]
    ref = ray.put(sup_lut)

    def li_combine(t: pa.Table) -> pa.Table:
        lut = ray.get(ref)
        rev = _revenue_scaled(
            t["l_extendedprice"].to_numpy(), t["l_discount"].to_numpy()
        )
        part = pa.table(
            {
                "p_partkey": pc.cast(t["l_partkey"], pa.int64()),
                "l_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
                "sidx": pa.array(
                    lut[t["l_suppkey"].to_numpy()], type=pa.int64()
                ),
                "rev": pa.array(rev, type=pa.int64()),
            }
        )
        g = part.group_by(["p_partkey", "l_orderkey", "sidx"]).aggregate(
            [("rev", "sum")]
        )
        return pa.table(
            {
                "p_partkey": g["p_partkey"],
                "l_orderkey": g["l_orderkey"],
                "sidx": g["sidx"],
                "rev": pc.cast(g["rev_sum"], pa.int64()),
            }
        )

    facts = _read(
        sf_dir, "lineitem",
        ["l_partkey", "l_orderkey", "l_suppkey", "l_extendedprice",
         "l_discount"],
    ).map_batches(li_combine, batch_format="pyarrow", zero_copy_batch=True)

    word = str(config.Q9_PART_WORD)  # captured at driver time (closures
    # ship to workers whose own config import would win otherwise)

    def part_keys(t: pa.Table) -> pa.Table:
        m = pc.match_substring(t["p_name"], word)
        return pa.table(
            {"p_partkey": pc.cast(t.filter(m)["p_partkey"], pa.int64())}
        )

    parts = _read(sf_dir, "part", ["p_partkey", "p_name"]).map_batches(
        part_keys, batch_format="pyarrow", zero_copy_batch=True
    )

    facts_schema = pa.schema(
        [("p_partkey", pa.int64()), ("l_orderkey", pa.int64()),
         ("sidx", pa.int64()), ("rev", pa.int64())]
    )
    keys_schema = pa.schema([("p_partkey", pa.int64())])

    def join_part(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lt = lt.join(rt.rename_columns(["__rk"]), keys=["p_partkey"],
                     right_keys=["__rk"], join_type="left semi")
        g = lt.group_by(["l_orderkey", "sidx"]).aggregate([("rev", "sum")])
        return pa.table(
            {"l_orderkey": g["l_orderkey"], "sidx": g["sidx"],
             "rev": pc.cast(g["rev_sum"], pa.int64())}
        )

    surv_schema = pa.schema(
        [("l_orderkey", pa.int64()), ("sidx", pa.int64()),
         ("rev", pa.int64())]
    )
    survivors = _bucketed_join(
        facts, parts, ["p_partkey"], facts_schema, keys_schema, join_part,
        nb=_fact_buckets(sf_dir, "lineitem"),
    )

    def ord_year(t: pa.Table) -> pa.Table:
        dt = pc.cast(t["o_orderdate"], pa.timestamp("us"))
        yr = pc.year(dt).to_numpy(zero_copy_only=False).astype(np.int32)
        return pa.table(
            {"l_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
             "o_year": pa.array(yr, type=pa.int32())}
        )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).map_batches(
        ord_year, batch_format="pyarrow", zero_copy_batch=True
    )
    ord_schema = pa.schema([("l_orderkey", pa.int64()), ("o_year", pa.int32())])

    def join_roll(lt: pa.Table, rt: pa.Table) -> pa.Table:
        rt = rt.rename_columns(
            ["__rk" if nm == "l_orderkey" else nm for nm in rt.column_names]
        )
        j = lt.join(rt, keys=["l_orderkey"], right_keys=["__rk"],
                    join_type="inner")
        g = j.group_by(["sidx", "o_year"]).aggregate([("rev", "sum")])
        return pa.table(
            {"sidx": g["sidx"], "o_year": pc.cast(g["o_year"], pa.int32()),
             "rev": pc.cast(g["rev_sum"], pa.int64())}
        )

    partial_schema = pa.schema(
        [("sidx", pa.int64()), ("o_year", pa.int32()), ("rev", pa.int64())]
    )
    rolled = _bucketed_join(
        survivors, orders, ["l_orderkey"], surv_schema, ord_schema,
        join_roll, nb=_fact_buckets(sf_dir, "orders"),
    )
    t = collect_table(rolled, empty_schema=partial_schema)
    g = t.group_by(["sidx", "o_year"]).aggregate([("rev", "sum")])
    out = pa.table(
        {
            "nation": pa.array(
                [names_sorted[i] for i in g["sidx"].to_pylist()],
                type=pa.string(),
            ),
            "o_year": pc.cast(g["o_year"], pa.int32()),
            "profit_scaled": pc.cast(g["rev_sum"], pa.int64()),
        }
    )
    return out.take(
        pc.sort_indices(
            out,
            sort_keys=[("nation", "ascending"), ("o_year", "descending")],
        )
    )


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
