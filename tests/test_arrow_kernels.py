"""The shared Arrow kernels (functions/arrow_kernels.py) and the one parquet
reader (sources/corpus.read_table) against the hand-written idioms they
replace, on empty, zero-column, null-keyed, single-run and chunked
inputs."""

from __future__ import annotations

import datetime

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from smse_backend_ray.functions.arrow_kernels import (
    agg,
    exchange,
    hist_quantiles,
    in_window,
    int64_schema,
    run_rank,
)
from smse_backend_ray.functions.collect import collect_table
from smse_backend_ray.functions.rounding import round_half_away

CHUNKED = pa.concat_tables([
    pa.table({"k": pa.array([1, 2, None], pa.int32()), "s": ["a", "b", "a"],
              "v": pa.array([10, 20, 30], pa.int32())}),
    pa.table({"k": pa.array([2, None, 1], pa.int32()), "s": ["b", None, "a"],
              "v": pa.array([40, 50, 60], pa.int32())}),
])
CASES = {
    "empty": CHUNKED.slice(0, 0),
    "single_run": pa.table({"k": pa.array([7, 7, 7], pa.int32()), "s": ["x"] * 3,
                            "v": pa.array([1, 2, 3], pa.int32())}),
    "null_keyed": CHUNKED.filter(pc.is_null(CHUNKED["k"])),
    "chunked": CHUNKED,
}


def _agg_by_hand(t: pa.Table) -> pa.Table:
    g = t.group_by(["k", "s"]).aggregate([("v", "sum"), ("v", "count"), ("v", "max")])
    return pa.table({"k": g["k"], "s": g["s"], "total": pc.cast(g["v_sum"], pa.int64()),
                     "n": pc.cast(g["v_count"], pa.int64()), "hi": g["v_max"]})


@pytest.mark.parametrize("case", sorted(CASES))
def test_agg_matches_group_by_rename_cast(case):
    t = CASES[case]
    got = agg(t, ["k", "s"], total=("v", "sum"), n=("v", "count"), hi=("v", "max"))
    order = [("k", "ascending"), ("s", "ascending")]
    assert got.sort_by(order).equals(_agg_by_hand(t).sort_by(order))
    # sum/count outputs are int64; other ops keep their type
    assert got.schema.field("total").type == pa.int64()
    assert got.schema.field("hi").type == pa.int32()
    distinct = agg(t, "k")
    assert distinct.column_names == ["k"]
    assert distinct.num_rows == len(set(t["k"].to_pylist()))


def test_agg_zero_column_input_raises():
    # a zero-column block names no key: a loud error, never a silent empty
    with pytest.raises(pa.ArrowInvalid):
        agg(pa.table({}), "k", n=("k", "count"))


@pytest.mark.parametrize("n", [0, 3, 6])
def test_in_window_matches_hand_written_mask(n):
    lo, hi = datetime.datetime(1996, 1, 1), datetime.datetime(1997, 1, 1)
    days = [datetime.datetime(1995, 12, 31), lo, datetime.datetime(1996, 6, 1), hi, None, hi]
    col = pa.chunked_array([pa.array(days[:3], pa.timestamp("us")),
                            pa.array(days[3:], pa.timestamp("us"))]).slice(0, n)
    dt = pc.cast(col, pa.timestamp("us"))
    want = pc.and_(pc.greater_equal(dt, pa.scalar(lo)), pc.less(dt, pa.scalar(hi)))
    assert in_window(col, lo, hi).equals(want)
    # ISO bounds (a config string captured at driver time) are the same
    assert in_window(col, "1996-01-01", "1997-01-01").equals(want)


def test_in_window_numeric_bounds():
    v = pa.chunked_array([[0, 5, None], [10, 9]])
    assert in_window(v, 5, 10).to_pylist() == [False, True, None, False, True]


def _runs_by_hand(*keys):
    n = len(keys[0])
    new = np.zeros(n, dtype=bool)
    if n:
        new[0] = True
        for k in keys:
            new[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(new)
    seg_id = np.cumsum(new) - 1
    return new, seg_id, np.arange(n) - starts[seg_id] + 1


@pytest.mark.parametrize("keys", [
    (np.array([], dtype=np.int64),),
    (np.array([3, 3, 3], dtype=np.int64),),
    (np.array([1, 1, 2, 5, 5, 5, 9], dtype=np.int64),),
    (np.array(["a", "a", "b", None, None], dtype=object),),
    (np.array([1, 1, 1, 2, 2]), np.array([0, 1, 1, 1, 1])),
])
def test_run_rank_matches_segment_block(keys):
    start, run, rank = run_rank(*keys)
    want = _runs_by_hand(*keys)
    for got, exp in zip((start, run, rank), want):
        assert np.array_equal(got, exp)


def test_run_rank_from_chunked_column():
    col = pa.chunked_array([[4, 4, 6], [6, 6, 8]])
    start, run, rank = run_rank(col.to_numpy())
    assert start.tolist() == [True, False, True, False, False, True]
    assert run.tolist() == [0, 0, 1, 1, 1, 2]
    assert rank.tolist() == [1, 2, 1, 2, 3, 1]


def _quantiles_by_hand(t, key, value, count, probs):
    t = t.take(pc.sort_indices(t, sort_keys=[(key, "ascending"), (value, "ascending")]))
    keys = t[key].to_numpy(zero_copy_only=False)
    vals = t[value].to_numpy().astype(np.float64)
    cnts = t[count].to_numpy()
    rows = []
    if not len(keys):
        return rows
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    new[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(new)
    for s, e in zip(starts, np.append(starts[1:], len(keys))):
        v, cum = vals[s:e], np.cumsum(cnts[s:e])
        n = int(cum[-1])
        row = [str(keys[s]), n]
        for q in probs:
            pos = q * (n - 1)
            lo, hi = int(np.floor(pos)), int(np.ceil(pos))
            v_lo = v[np.searchsorted(cum, lo + 1, side="left")]
            v_hi = v[np.searchsorted(cum, hi + 1, side="left")]
            row.append(float(round_half_away(np.array([v_lo + (pos - lo) * (v_hi - v_lo)]), 4)[0]))
        rows.append(row)
    return rows


@pytest.mark.parametrize("case", ["empty", "single_run", "chunked"])
def test_hist_quantiles_matches_interpolation_loop(case):
    hist = pa.concat_tables([
        pa.table({"g": ["b", "a", "a"], "v": pa.array([3, 1, 4], pa.int64()),
                  "c": pa.array([2, 1, 5], pa.int64())}),
        pa.table({"g": ["b", "a"], "v": pa.array([9, 2], pa.int64()),
                  "c": pa.array([1, 1], pa.int64())}),
    ])
    t = {"empty": hist.slice(0, 0), "single_run": hist.filter(pc.equal(hist["g"], "a")),
         "chunked": hist}[case]
    probs = (0.25, 0.5, 0.9)
    got = hist_quantiles(t, "g", "v", "c", probs, "n")
    assert got.column_names == ["g", "n", "p25", "p50", "p90"]
    want = _quantiles_by_hand(t, "g", "v", "c", probs)
    assert [list(r.values()) for r in got.to_pylist()] == want


@pytest.mark.parametrize("join_type", ["inner", "left outer"])
def test_same_name_join_equals_renamed_key_join(join_type):
    """Joining on the same key name on both sides (pyarrow coalesces the
    key columns) equals the right-key-renamed join it replaced, null
    keys and unmatched rows included."""
    lt = pa.concat_tables([pa.table({"k": [1, 2, None], "a": [1, 2, 3]}),
                           pa.table({"k": [4, 1], "a": [4, 5]})])
    rt = pa.table({"k": [1, None, 2, 7], "b": [10, 20, 30, 40]})
    renamed = lt.join(rt.rename_columns(["__rk", "b"]), keys=["k"], right_keys=["__rk"],
                      join_type=join_type).select(["k", "a", "b"])
    plain = lt.join(rt, "k", join_type=join_type)
    assert plain.column_names == ["k", "a", "b"]
    assert plain.sort_by("a").equals(renamed.sort_by("a"))


def _old_user_exchange(ds, fn, nb):
    """The per-user exchange chain the helper replaces: Knuth user bucket
    tag -> groupby -> map_groups -> collect."""
    def tag(t):
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ub = ((u * np.uint64(2654435761)) % np.uint64(nb)).astype(np.int64)
        return t.append_column("__ub", pa.array(ub, type=pa.int64()))

    out = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return collect_table(out.groupby("__ub").map_groups(
        lambda g: fn(g.drop_columns(["__ub"])), batch_format="pyarrow"))


@pytest.mark.parametrize("n_users", [0, 1, 50])
def test_exchange_matches_user_bucket_chain(ray_session, n_users):
    import ray.data

    rows = [{"user_id": i % n_users, "v": i} for i in range(3 * n_users)]
    schema = int64_schema("user_id", "total")

    def per_bucket(g):
        return agg(g, "user_id", total=("v", "sum"))

    if rows:
        ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(3)
    else:  # zero-row, zero-column input blocks
        ds = ray.data.from_arrow(pa.table({}))
    got = collect_table(exchange(ds, "user_id", per_bucket, schema, nb=4), empty_schema=schema)
    assert got.schema == schema
    got = got.sort_by("user_id")
    if rows:
        assert got.equals(_old_user_exchange(ds, per_bucket, 4).sort_by("user_id").cast(schema))
        assert got["total"].to_pylist() == [
            sum(r["v"] for r in rows if r["user_id"] == u) for u in range(n_users)
        ]
    else:
        assert got.num_rows == 0


@pytest.mark.parametrize("with_filter", [False, True])
def test_read_table_equals_read_parquet_repartition(ray_session, sf_dir, with_filter):
    import pyarrow.dataset as pads

    import ray.data

    from smse_backend_ray.sources.corpus import (
        _parallel_blocks,
        _parquet_rows,
        read_blocks,
        read_table,
    )

    path = f"{sf_dir}/events.parquet"
    cols = ["event_id", "ts", "user_id", "value"]
    kw = {}
    if with_filter:
        mid = pa.scalar(datetime.datetime(2024, 1, 15), pa.timestamp("us"))
        kw["filter"] = pads.field("ts") >= mid
    ds = read_table(sf_dir, "events", cols, **kw)
    old = ray.data.read_parquet(path, columns=cols, **kw).repartition(
        _parallel_blocks(_parquet_rows(path)))
    assert ds.materialize().num_blocks() == read_blocks(sf_dir, "events")
    got = collect_table(ds).sort_by("event_id")
    want = collect_table(old).sort_by("event_id").replace_schema_metadata(None)
    assert got.equals(want)
    if with_filter:
        assert 0 < got.num_rows < pads.dataset(path).count_rows()
    assert not read_table(sf_dir, "events", cols, repartition=False).schema().base_schema.metadata
