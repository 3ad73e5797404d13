"""Windowed aggregation over the ``events`` stream table.

The reference has no streaming operators (SURVEY.md §2.9) — its closest
artifact is the periodic cleanup job. These operators supply the
batch-over-ordered-log window semantics a training-data pipeline needs:
tumbling time windows (groupby on a truncated timestamp) and gap-based
sessionization (per-key ordered scan inside an ``exchange`` group). Ordering
assumption: sessionization sorts each user's events by ts within the group;
event time is taken as-is (no watermarks/late data — SURVEY.md §2.9).

Per-user operators share one plan (``_by_user``): ONE exchange on a
user-hash bucket, MANY users per reduce group, vectorized inside (a group
per user pays a Python call per user — the Ray per-small-unit tax,
catastrophic at 10^9 users; BASELINE.md round-3), then a driver fold of
the bounded per-bucket partials. ``range_join`` has no user key: its
time-bucket and tile passes are exchanges too, with one composite
(group, ts) window sweep (``_window_sweep``) per group of many buckets.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import Sum

from smse_backend_ray.config import RANGE_JOIN_BUCKET_PAIR_CAP
from smse_backend_ray.functions.arrow_kernels import (
    agg,
    arrow_map,
    exchange,
    hist_quantiles,
    int64_schema,
    run_rank,
)
from smse_backend_ray.functions.collect import collect_table
from smse_backend_ray.functions.joins import grouped_aggregate
from smse_backend_ray.functions.rounding import round_half_away
from smse_backend_ray.sources.corpus import read_table

SESSION_GAP_MIN = 30
_COLS = ["event_id", "ts", "user_id", "event_type", "value"]
_US = pa.timestamp("us")


def _read(sf_dir: str, columns: list[str] = _COLS, ts_range_us=None):
    """events.parquet scan; ``ts_range_us`` = (lo, hi) epoch-us half-open
    bound pushed into the parquet read (row-group stats pruning) — used by
    re-scan passes that only need a time slice of the stream."""
    f = None
    if ts_range_us is not None:
        import pyarrow.dataset as pads

        lo, hi = (pa.scalar(v, type=_US) for v in ts_range_us)
        f = (pads.field("ts") >= lo) & (pads.field("ts") < hi)
    return read_table(sf_dir, "events", columns, filter=f)


def _by_user(ds, per_bucket, schema: pa.Schema) -> pa.Table:
    """ONE exchange on a user-hash bucket; ``per_bucket`` resolves all of a
    bucket's users in one numpy pass; the typed partials are collected."""
    return collect_table(exchange(ds, "user_id", per_bucket, schema), empty_schema=schema)


def _epoch_us(ts: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Exact epoch microseconds (casts through timestamp[us], no floats)."""
    return pc.cast(pc.cast(ts, _US), pa.int64()).to_numpy()


def _timeline(g: pa.Table, *within: np.ndarray):
    """The frozen per-user event order (user_id, *within, ts, event_id):
    (permutation, sorted user ids, sorted epoch-us ts)."""
    u = pc.cast(g["user_id"], pa.int64()).to_numpy()
    ts = _epoch_us(g["ts"])
    eid = pc.cast(g["event_id"], pa.int64()).to_numpy()
    order = np.lexsort((eid, ts, *reversed(within), u))
    return order, u[order], ts[order]


def _scaled4(col) -> np.ndarray:
    """round(value*10000)::int64 — the half-away formula of rounding.py,
    kept in the scaled-integer domain (SQL twin: round(value*10000, 0)).
    NULL arrives as NaN and scales to 0: SQL SUM skips NULLs, which in the
    exact-integer domain is identical to adding 0 (and the int64 cast
    would otherwise turn NaN into INT64_MIN garbage)."""
    v = col.to_numpy(zero_copy_only=False).astype(np.float64)
    v = np.where(np.isnan(v), 0.0, v)
    return (np.sign(v) * np.floor(np.abs(v) * 10000.0 + 0.5)).astype(np.int64)


def _round4_scaled(iv) -> pa.Array:
    return pa.array(round_half_away(iv.to_numpy().astype(np.float64) / 10000.0, 4),
                    type=pa.float64())


def hourly_window_agg(sf_dir: str) -> pa.Table:
    """Tumbling 1h windows per event_type: count + sum(value).

    Pre-aggregates inside map_batches (one row per (window, type) per batch)
    before the small groupby — the combiner pattern (SURVEY.md A5/A6).

    Float determinism: values are rounded to 4 decimals as SCALED int64
    BEFORE summation (engine<->SQL lockstep pair with
    ``hourly_window_agg_sql``), so the sum is exact-integer and therefore
    independent of batch/partition order — unlike a double sum, whose
    result depends on Ray's re-reduce order (README float policy)."""

    def partial(t: pa.Table) -> pa.Table:
        # n stays count(*), matching the SQL twin's count of all rows
        part = pa.table({"window": pc.floor_temporal(t["ts"], unit="hour"),
                         "event_type": t["event_type"], "iv": _scaled4(t["value"])})
        return agg(part, ["window", "event_type"], sum_iv=("iv", "sum"), n=("iv", "count"))

    t = collect_table(
        arrow_map(_read(sf_dir), partial)
        .groupby(["window", "event_type"])
        .aggregate(Sum("sum_iv", alias_name="sum_iv"), Sum("n", alias_name="n"))
    )
    t = pa.table({"window": pc.cast(t["window"], _US), "event_type": t["event_type"],
                  "n": pc.cast(t["n"], pa.int64()), "sum_value": _round4_scaled(t["sum_iv"])})
    return t.sort_by([("window", "ascending"), ("event_type", "ascending")])


def hourly_window_agg_sql() -> str:
    # sum over 4-decimal-scaled BIGINTs (exact, order-free), then back to
    # double — MUST stay in lockstep with hourly_window_agg's partial()
    return """
SELECT date_trunc('hour', ts) AS window, event_type,
       CAST(count(*) AS BIGINT) AS n,
       round(SUM(CAST(round(value * 10000, 0) AS BIGINT)) / 10000.0, 4) AS sum_value
FROM events GROUP BY 1, 2 ORDER BY 1, 2
"""


def user_sessions(sf_dir: str, gap_min: int = SESSION_GAP_MIN) -> pa.Table:
    """Gap-based sessionization per user: a new session starts when the gap
    to the previous event exceeds ``gap_min`` minutes. Returns per-user
    session count + total events.

    Scale shape: ONE exchange on a user-hash bucket; inside a bucket ALL
    its users sessionize in a single numpy pass (lexsort by (user, ts,
    event_id) -> user segment bounds -> gap diffs -> per-user bincount) —
    never a Python call per user."""
    gap_us = gap_min * 60 * 1_000_000

    def per_bucket(g: pa.Table) -> pa.Table:
        _, u, ts = _timeline(g)
        start, run, _ = run_rank(u)
        new_session = start.copy()
        new_session[1:] |= (~start[1:]) & (np.diff(ts) > gap_us)
        return pa.table({"user_id": u[start],
                         "n_sessions": np.bincount(run, weights=new_session).astype(np.int64),
                         "n_events": np.bincount(run).astype(np.int64)})

    schema = int64_schema("user_id", "n_sessions", "n_events")
    return _by_user(_read(sf_dir), per_bucket, schema).sort_by("user_id")


def user_running_totals(sf_dir: str) -> pa.Table:
    """Per-event window values over each user's timeline: 1-based sequence
    number, microsecond gap to the previous event (-1 sentinel on the
    first — a NULL would be compared as NaN by the float-coercing gate
    comparator), and the running sum of the 4-decimal-scaled value — the
    LAG / ROW_NUMBER / cumulative-SUM window-function family.

    Frozen pair with ``user_running_totals_sql``: ordering (ts ASC,
    event_id ASC) within user; values scaled round(v*10000)::int64 BEFORE
    the running sum (exact, order-free; NULL/NaN values add 0 — the twin
    COALESCEs), so every prefix sum is bit-exact.

    Scale shape: ONE exchange on a user-hash bucket; inside a bucket all
    users compute in a single numpy pass (lexsort -> segment bounds ->
    arange/diff/cumsum with per-segment rebasing) — never a Python call
    per user or per row."""

    def per_bucket(g: pa.Table) -> pa.Table:
        order, u, ts = _timeline(g)
        start, run, seq = run_rank(u)
        gap = np.zeros(len(u), dtype=np.int64)
        gap[1:] = np.diff(ts)
        gap[start] = -1
        cs = np.cumsum(_scaled4(g["value"])[order])
        base = np.concatenate(([0], cs))[np.flatnonzero(start)[run]]
        return pa.table({"user_id": u,
                         "event_id": pc.cast(g["event_id"], pa.int64()).to_numpy()[order],
                         "seq": seq, "gap_us": gap, "cum_value_scaled": cs - base})

    schema = int64_schema("user_id", "event_id", "seq", "gap_us", "cum_value_scaled")
    t = _by_user(_read(sf_dir), per_bucket, schema)
    return t.sort_by([("user_id", "ascending"), ("seq", "ascending")])


def user_running_totals_sql() -> str:
    return """
SELECT user_id, event_id,
       CAST(row_number() OVER w AS BIGINT) AS seq,
       COALESCE(date_diff('microsecond', lag(ts) OVER w, ts), -1) AS gap_us,
       CAST(SUM(COALESCE(CAST(round(value * 10000, 0) AS BIGINT), 0))
            OVER (w ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
            AS BIGINT) AS cum_value_scaled
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
ORDER BY user_id, seq
"""


RECENT_HOURS = 24


def _max_ts_us(sf_dir: str) -> int | None:
    """Global max(ts) in epoch-microseconds via a tiny distributed aggregate
    (one row per batch -> driver max); never a driver-side column scan.
    None when the table is empty or ts is entirely null (the SQL twin
    degrades to zero rows in both cases)."""

    def bmax(t: pa.Table) -> pa.Table:
        m = pc.max(pc.cast(t["ts"], pa.int64())).as_py() if t.num_rows else None
        return pa.table({"m": pa.array([] if m is None else [m], type=pa.int64())})

    ds = arrow_map(read_table(sf_dir, "events", ["ts"], repartition=False), bmax)
    vals = collect_table(ds, empty_schema=int64_schema("m"))["m"].to_pylist()
    return max(vals) if vals else None


def recent_events(sf_dir: str, hours: int = RECENT_HOURS) -> pa.Table:
    """Age-threshold filter + strftime row formatting (reference F7/F8:
    ``now() - timedelta(hours=24)`` cleanup threshold
    smse_backend/services/file_storage.py:687 and history-row
    ``strftime("%Y-%m-%d %H:%M:%S")`` smse_backend/routes/user.py:24).

    The threshold anchors on max(ts) in the data, not wall clock, so the
    result is deterministic. The filter pushes down to the parquet read
    (row-group pruning — at stream scale only the recent tail is scanned);
    formatting is a vectorized per-batch kernel. Timestamps are truncated to
    whole seconds before formatting: Arrow's %S emits fractional seconds,
    DuckDB's does not."""
    mx = _max_ts_us(sf_dir)
    if mx is None:  # empty table / all-null ts: zero rows, like the oracle
        return int64_schema("event_id", "user_id", event_type=pa.string(),
                            ts_str=pa.string()).empty_table()
    thresh = pa.scalar(mx - hours * 3600 * 1_000_000, type=pa.int64()).cast(_US)

    def fmt(t: pa.Table) -> pa.Table:
        # floor THEN cast to second resolution: %S on a sub-second type
        # prints fractional digits, which DuckDB's %S never does
        secs = pc.cast(pc.floor_temporal(t["ts"], unit="second"), pa.timestamp("s"))
        return t.drop_columns(["ts"]).append_column(
            "ts_str", pc.strftime(secs, format="%Y-%m-%d %H:%M:%S")
        )

    ds = read_table(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"],
                    filter=pc.field("ts") >= thresh, repartition=False)
    return collect_table(arrow_map(ds, fmt)).sort_by("event_id")


def recent_events_sql(hours: int = RECENT_HOURS) -> str:
    return f"""
WITH mx AS (SELECT max(ts) AS m FROM events)
SELECT event_id, user_id, event_type,
       strftime(date_trunc('second', ts), '%Y-%m-%d %H:%M:%S') AS ts_str
FROM events, mx
WHERE ts >= m - INTERVAL {hours} HOUR
ORDER BY event_id
"""


def props_agg(sf_dir: str) -> pa.Table:
    """Semi-structured props extraction + rollup: pull the integer ``k``
    field out of the JSON-string ``props`` column (vectorized
    ``pc.extract_regex`` — no per-row json.loads) and aggregate per
    event_type with the map-side combiner pattern. Reference analog: the
    free-form ``User.preferences JSON`` column (smse_backend/models/
    user.py:18) — applied data-side at stream scale."""

    def partial(t: pa.Table) -> pa.Table:
        ex = pc.extract_regex(t["props"], pattern=r'"k": (?P<k>\d+)')
        k = pc.cast(pc.struct_field(ex, "k"), pa.int64())  # null when no match
        # count skips nulls
        return agg(pa.table({"event_type": t["event_type"], "k": k}), "event_type",
                   sum_k=("k", "sum"), n=("k", "count"))

    t = collect_table(
        arrow_map(read_table(sf_dir, "events", ["event_type", "props"]), partial)
        .groupby("event_type")
        .aggregate(Sum("n", alias_name="n"), Sum("sum_k", alias_name="sum_k"))
    )
    t = pa.table({"event_type": t["event_type"], "n": pc.cast(t["n"], pa.int64()),
                  "sum_k": pc.cast(t["sum_k"], pa.int64())})
    return t.sort_by("event_type")


def props_agg_sql() -> str:
    return r"""
SELECT event_type, CAST(count(k) AS BIGINT) AS n, CAST(sum(k) AS BIGINT) AS sum_k
FROM (SELECT event_type,
             CAST(NULLIF(regexp_extract(props, '"k": (\d+)', 1), '') AS BIGINT) AS k
      FROM events)
GROUP BY event_type ORDER BY event_type
"""


def user_sessions_sql(gap_min: int = SESSION_GAP_MIN) -> str:
    return f"""
WITH ordered AS (
  SELECT user_id, ts,
         lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_ts
  FROM events
),
marks AS (
  SELECT user_id,
         CASE WHEN prev_ts IS NULL
                   OR date_diff('microsecond', prev_ts, ts) > {gap_min * 60 * 1000000}
              THEN 1 ELSE 0 END AS new_session
  FROM ordered
)
SELECT user_id, CAST(SUM(new_session) AS BIGINT) AS n_sessions,
       CAST(count(*) AS BIGINT) AS n_events
FROM marks GROUP BY user_id ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# as-of join + range join (the two classic interval operators Ray Data lacks)
# ---------------------------------------------------------------------------

ASOF_LEFT_TYPE = "error"     # the triggering stream
ASOF_RIGHT_TYPE = "click"    # the context stream matched as-of
RANGE_JOIN_WINDOW_S = 300


def asof_join(
    sf_dir: str,
    left_type: str = ASOF_LEFT_TYPE,
    right_type: str = ASOF_RIGHT_TYPE,
) -> pa.Table:
    """AS-OF join: each ``left_type`` event is matched to the LATEST
    ``right_type`` event of the same user with ts <= the left ts (inner —
    lefts with no prior right are dropped). Ties on ts break by the larger
    event_id, making the match deterministic (DuckDB's native ASOF JOIN
    leaves equal-ts ties unspecified, so the oracle uses the equivalent
    window formulation).

    Scale shape: ONE exchange on a user-hash bucket; inside a bucket ALL
    its users match in a single MERGED-RANK pass — both streams sort by
    (user, ts, side, event_id) with rights ordered before lefts at equal
    (user, ts), every left's match is "the number of rights at-or-before
    my merged slot, minus one", and a user-equality check discards
    cross-user ranks. No per-user (let alone per-row) Python: at 10^9
    users a group per user would pay a Python call each (the Ray
    per-small-unit tax, BASELINE.md round-3)."""
    schema = int64_schema("event_id", "user_id", "ts_us", "match_event_id", "match_ts_us",
                          "lag_us")

    def per_bucket(g: pa.Table) -> pa.Table:
        et = g["event_type"].to_numpy(zero_copy_only=False)
        u = pc.cast(g["user_id"], pa.int64()).to_numpy()
        ts = _epoch_us(g["ts"])
        eid = pc.cast(g["event_id"], pa.int64()).to_numpy()
        lm, rm = et == left_type, et == right_type
        if not lm.any() or not rm.any():
            return schema.empty_table()
        lu, lts, leid = u[lm], ts[lm], eid[lm]
        rorder = np.lexsort((eid[rm], ts[rm], u[rm]))
        ru, rts, reid = u[rm][rorder], ts[rm][rorder], eid[rm][rorder]
        # merged rank: sort keys (user, ts, side, event_id), rights (side 0)
        # before lefts at equal (user, ts) so a same-instant right matches
        side = np.concatenate([np.zeros(len(ru), np.int8), np.ones(len(lu), np.int8)])
        order = np.lexsort((np.concatenate([reid, leid]), side,
                            np.concatenate([rts, lts]), np.concatenate([ru, lu])))
        side_sorted = side[order]
        left_slots = np.flatnonzero(side_sorted == 1)
        # index into the sorted rights, and back to the left arrays
        match = np.cumsum(side_sorted == 0)[left_slots] - 1
        lidx = order[left_slots] - len(ru)
        valid = match >= 0
        valid[valid] &= ru[match[valid]] == lu[lidx[valid]]
        li, mi = lidx[valid], match[valid]
        return pa.table({"event_id": leid[li], "user_id": lu[li], "ts_us": lts[li],
                         "match_event_id": reid[mi], "match_ts_us": rts[mi],
                         "lag_us": lts[li] - rts[mi]})

    ds = _read(sf_dir, ["event_id", "ts", "user_id", "event_type"]).filter(
        expr=f"event_type == '{left_type}' or event_type == '{right_type}'"
    )
    return _by_user(ds, per_bucket, schema).sort_by("event_id")


def asof_join_sql(
    left_type: str = ASOF_LEFT_TYPE, right_type: str = ASOF_RIGHT_TYPE
) -> str:
    """Window-formulated ASOF twin (deterministic under equal-ts ties,
    unlike DuckDB's native ASOF JOIN — see asof_join)."""
    return f"""
WITH l AS (SELECT event_id, user_id, ts FROM events
           WHERE event_type = '{left_type}'),
r AS (SELECT event_id, user_id, ts FROM events
      WHERE event_type = '{right_type}'),
j AS (
  SELECT l.event_id, l.user_id,
         epoch_us(l.ts) AS ts_us,
         r.event_id AS match_event_id,
         epoch_us(r.ts) AS match_ts_us,
         row_number() OVER (PARTITION BY l.event_id
                            ORDER BY r.ts DESC, r.event_id DESC) AS rn
  FROM l JOIN r ON l.user_id = r.user_id AND r.ts <= l.ts
)
SELECT event_id, user_id, ts_us, match_event_id, match_ts_us,
       ts_us - match_ts_us AS lag_us
FROM j WHERE rn = 1 ORDER BY event_id
"""


_PAIRS = int64_schema("event_id", "match_event_id", "gap_us")


def _window_sweep(g: pa.Table, *keys: np.ndarray, w_us: int):
    """The window sweep of every group of equal ``keys`` at once: left
    rows (role 0) meet the right rows (role 1) of their own group with
    0 <= left ts - right ts <= w_us. Returns ``(lefts, rights, lo, hi)``:
    row indices of g, both in (keys, ts, event_id) order, and left i pairs
    with ``rights[lo[i]:hi[i]]``. Each group's ts values shift into an
    int64 range of their own (group span + window + 1 wide), so one
    composite (group, ts) key and one searchsorted pair serve all groups."""
    ts, eid = g["ts_us"].to_numpy(), g["event_id"].to_numpy()
    order = np.lexsort((eid, ts, *reversed(keys)))
    start, run, _ = run_rank(*(k[order] for k in keys))
    first = np.flatnonzero(start)
    lo_ts = ts[order][first]
    span = ts[order][np.append(first[1:], len(order)) - 1] - lo_ts + w_us + 1
    k = ts[order] + (np.cumsum(span) - span - lo_ts)[run]
    left = g["role"].to_numpy(zero_copy_only=False)[order] == 0
    lo = np.searchsorted(k[~left], k[left] - w_us, side="left")
    hi = np.searchsorted(k[~left], k[left], side="right")
    return order[left], order[~left], lo, hi


def _expand_pairs(g: pa.Table, lefts, rights, lo, hi) -> pa.Table:
    """Every (left, right) pair of a ``_window_sweep``: left i with
    ``rights[lo[i]:hi[i]]``."""
    ts, eid = g["ts_us"].to_numpy(), g["event_id"].to_numpy()
    n = hi - lo
    li = np.repeat(lefts, n)
    ri = rights[np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(int(n.sum()))]
    return pa.table({"event_id": eid[li], "match_event_id": eid[ri],
                     "gap_us": ts[li] - ts[ri]}).cast(_PAIRS)


def range_join(
    sf_dir: str,
    window_s: int = RANGE_JOIN_WINDOW_S,
    left_type: str = ASOF_LEFT_TYPE,
    right_type: str = ASOF_RIGHT_TYPE,
    pair_cap: int = RANGE_JOIN_BUCKET_PAIR_CAP,
) -> pa.Table:
    """RANGE (interval) join ACROSS ALL USERS: every (left, right) event
    pair with 0 <= left.ts - right.ts <= window. No per-user key exists, so
    co-location uses the classic TIME-BUCKET exchange: a left keys to bucket
    floor(ts/window); a right replicates to ITS bucket and the next one, so
    every qualifying pair meets in the left's bucket exactly once (a right
    never pairs from its +1 copy with a left of the same bucket twice — the
    left lives in exactly one bucket). In-bucket pairing is a vectorized
    two-searchsorted window sweep. Shuffle cost: 2x the right stream + 1x
    the left stream, independent of the window's selectivity; the
    partitioning assumption is time locality, the natural one for interval
    predicates.

    A PATHOLOGICAL bucket whose pair expansion exceeds ``pair_cap`` (e.g.
    every event inside one window) is NOT truncated: it is re-exchanged
    through a second, TILED pass — lefts and rights split into
    sqrt(pair_cap)-sized ts-sorted tiles, each overlapping (left-tile,
    right-tile) combination becomes its own reduce group, and every group
    expands at most ~pair_cap pairs. Output is exact; only the fat buckets
    pay the extra exchange (rows shipped ~ 2 * pairs / sqrt(pair_cap),
    strictly below the pair count itself)."""
    w_us = window_s * 1_000_000

    def bucket_rows(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        ts = _epoch_us(t["ts"])
        eid = pc.cast(t["event_id"], pa.int64()).to_numpy()
        lm, rm = et == left_type, et == right_type
        b_r = ts[rm] // w_us
        return pa.table({
            "bucket": np.concatenate([ts[lm] // w_us, b_r, b_r + 1]),
            "role": np.concatenate([np.zeros(int(lm.sum()), np.int8),
                                    np.ones(2 * int(rm.sum()), np.int8)]),
            "event_id": np.concatenate([eid[lm], eid[rm], eid[rm]]),
            "ts_us": np.concatenate([ts[lm], ts[rm], ts[rm]]),
        })

    def pair_buckets(g: pa.Table) -> pa.Table:
        b = g["bucket"].to_numpy()
        lefts, rights, lo, hi = _window_sweep(g, b, w_us=w_us)
        buckets, inv = np.unique(b[lefts], return_inverse=True)
        total = np.bincount(inv, weights=hi - lo, minlength=len(buckets)).astype(np.int64)
        fat = total > pair_cap
        # pathological buckets (all intervals overlap one window): defer
        # their pair expansion to the tiled second pass — emit a marker row
        # each that the caller collects. event_id=-1 flags the marker;
        # match_event_id carries the bucket id, gap_us the -pair count.
        markers = pa.table({"event_id": np.full(int(fat.sum()), -1), "match_event_id": buckets[fat],
                            "gap_us": -total[fat]}).cast(_PAIRS)
        keep = ~fat[inv]
        return pa.concat_tables([markers, _expand_pairs(g, lefts[keep], rights, lo[keep], hi[keep])])

    def bucketed(extra_filter=None, ts_range_us=None):
        ds = arrow_map(
            _read(sf_dir, ["event_id", "ts", "event_type"], ts_range_us).filter(
                expr=f"event_type == '{left_type}' or event_type == '{right_type}'"
            ),
            bucket_rows,
        )
        return ds if extra_filter is None else arrow_map(ds, extra_filter)

    t = collect_table(exchange(bucketed(), "bucket", pair_buckets, _PAIRS), empty_schema=_PAIRS)
    markers = t.filter(pc.equal(t["event_id"], -1))
    if markers.num_rows:
        import logging

        logging.getLogger(__name__).warning(
            "range_join: tiling %d oversized time buckets "
            "(pair cap %d; %d pairs re-exchanged through the tiled pass)",
            markers.num_rows,
            pair_cap,
            -int(pc.sum(markers["gap_us"]).as_py()),
        )
        t = pa.concat_tables([
            t.filter(pc.not_equal(t["event_id"], -1)),
            _range_join_fat(bucketed, markers["match_event_id"], w_us, pair_cap),
        ])
    return t.sort_by([("event_id", "ascending"), ("match_event_id", "ascending")])


def _range_join_fat(bucketed, fat_buckets, w_us: int, pair_cap: int) -> pa.Table:
    """Exact pair expansion for the buckets whose pair count exceeds
    ``pair_cap``: the classic blocked nested-loop tiling as a second
    exchange. Within each fat bucket, lefts and rights are split into
    ts-sorted tiles of c = isqrt(pair_cap) rows; every (left-tile,
    right-tile) combination whose ts ranges can satisfy the window
    predicate becomes its own (bucket, tile) reduce group, so no task ever
    expands more than ~c^2 <= pair_cap pairs. Each qualifying pair is
    examined exactly once: a left lives in one left-tile, a right in one
    right-tile, and the coverage scan emits each combination once.

    The re-scan is PRUNED at the parquet read: every row a fat bucket b
    needs has ts in [(b-1)*w, (b+1)*w) (lefts in b; rights replicated from
    b and b-1), so a [min-1, max+1] window bound over the fat bucket ids
    is pushed down as a row-group filter — one hot second in a year of
    events re-reads only that neighborhood, not the whole stream. The
    in-flight ``only_fat`` filter then keeps exactness for sparse fat sets
    inside the coarse bound."""
    import math

    c = max(1, math.isqrt(max(1, pair_cap)))
    fat = fat_buckets.combine_chunks() if isinstance(fat_buckets, pa.ChunkedArray) else fat_buckets
    b_lo = int(pc.min(fat).as_py())
    b_hi = int(pc.max(fat).as_py())
    ts_range_us = ((b_lo - 1) * w_us, (b_hi + 1) * w_us)
    tile_schema = int64_schema("bucket", "tile", role=pa.int8(), event_id=pa.int64(),
                               ts_us=pa.int64())

    def only_fat(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["bucket"], value_set=fat))

    def tile_rows(g: pa.Table) -> pa.Table:
        b = g["bucket"].to_numpy()
        lefts, rights, lo, hi = _window_sweep(g, b, w_us=w_us)
        lb, rb = b[lefts], b[rights]
        idx, tiles = [], []
        for x in np.unique(lb):  # one fat bucket: its lefts l0:l1, rights r0:r1
            l0, l1 = np.searchsorted(lb, [x, x + 1])
            r0, r1 = np.searchsorted(rb, [x, x + 1])
            nR = max(1, -(-(r1 - r0) // c))
            for l_lo in range(l0, l1, c):
                l_hi = min(l_lo + c, l1)
                # lo/hi rise with the left ts: the tile's right range is
                # its first left's lo to its last left's hi
                r_lo, r_hi = lo[l_lo] - r0, hi[l_hi - 1] - r0
                for j in range(r_lo // c, (r_hi - 1) // c + 1) if r_lo < r_hi else ():
                    rows = np.concatenate([lefts[l_lo:l_hi],
                                           rights[r0 + j * c:min(r0 + (j + 1) * c, r1)]])
                    idx.append(rows)
                    tiles.append(np.full(len(rows), (l_lo - l0) // c * nR + j, dtype=np.int64))
        if not idx:
            return tile_schema.empty_table()
        return g.take(np.concatenate(idx)).append_column("tile", pa.array(np.concatenate(tiles)))

    def pair_tiles(g: pa.Table) -> pa.Table:
        return _expand_pairs(g, *_window_sweep(g, g["bucket"].to_numpy(), g["tile"].to_numpy(),
                                               w_us=w_us))

    tiled = exchange(bucketed(extra_filter=only_fat, ts_range_us=ts_range_us), "bucket",
                     tile_rows, tile_schema)
    return collect_table(exchange(tiled, ["bucket", "tile"], pair_tiles, _PAIRS),
                         empty_schema=_PAIRS)


def range_join_sql(
    window_s: int = RANGE_JOIN_WINDOW_S,
    left_type: str = ASOF_LEFT_TYPE,
    right_type: str = ASOF_RIGHT_TYPE,
) -> str:
    return f"""
SELECT l.event_id, r.event_id AS match_event_id,
       epoch_us(l.ts) - epoch_us(r.ts) AS gap_us
FROM events l JOIN events r
  ON r.ts <= l.ts
 AND date_diff('microsecond', r.ts, l.ts) <= {window_s * 1_000_000}
WHERE l.event_type = '{left_type}' AND r.event_type = '{right_type}'
ORDER BY l.event_id, r.event_id
"""


# ---------------------------------------------------------------------------
# sliding (hopping) windows — tumbling + sessions exist above; this is the
# third classic window shape (SURVEY.md §2.9)
# ---------------------------------------------------------------------------

SLIDING_WINDOW_HOURS = 6  # 6h window hopping every 1h


def sliding_window_agg(
    sf_dir: str, window_hours: int = SLIDING_WINDOW_HOURS
) -> pa.Table:
    """Hopping-window aggregate: every event contributes to the
    ``window_hours`` windows (1h hop) that cover it -> (window_start, n,
    sum_value).

    Scale shape: events are FIRST combined to per-hour partials inside
    map_batches, and only those partials replicate x window_hours into the
    exchange — the shuffle carries O(hours x windows) rows, never
    O(events x windows). Sums are 4-decimal scaled int64 (exact,
    order-free) like the tumbling twin."""
    offs = np.arange(window_hours, dtype=np.int64) * 3_600_000_000

    def partial(t: pa.Table) -> pa.Table:
        hour = pc.cast(pc.floor_temporal(pc.cast(t["ts"], _US), unit="hour"), pa.int64())
        g = agg(pa.table({"h": hour, "iv": _scaled4(t["value"])}), "h",
                sum_iv=("iv", "sum"), n=("iv", "count"))
        h = g["h"].to_numpy()
        return pa.table({
            "window_us": (h[:, None] - offs[None, :]).reshape(-1),  # starts h, h-1h, ...
            "sum_iv": np.repeat(g["sum_iv"].to_numpy(), window_hours),
            "n": np.repeat(g["n"].to_numpy(), window_hours),
        })

    t = collect_table(
        arrow_map(_read(sf_dir), partial)
        .groupby("window_us")
        .aggregate(Sum("sum_iv", alias_name="sum_iv"), Sum("n", alias_name="n"))
    )
    t = pa.table({"window": pc.cast(t["window_us"], _US), "n": pc.cast(t["n"], pa.int64()),
                  "sum_value": _round4_scaled(t["sum_iv"])})
    return t.sort_by("window")


def sliding_window_agg_sql(window_hours: int = SLIDING_WINDOW_HOURS) -> str:
    # lockstep with sliding_window_agg: scaled-int sums; every event joins
    # the window_hours hourly starts covering it via generate_series
    return f"""
WITH hourly AS (
  SELECT date_trunc('hour', ts) AS h,
         CAST(round(value * 10000, 0) AS BIGINT) AS iv
  FROM events
),
w AS (
  SELECT unnest(generate_series(
           h - INTERVAL {window_hours - 1} HOUR, h, INTERVAL 1 HOUR
         )) AS win, iv
  FROM hourly
)
SELECT win AS window, CAST(count(*) AS BIGINT) AS n,
       round(SUM(iv) / 10000.0, 4) AS sum_value
FROM w GROUP BY win ORDER BY win
"""


# ---------------------------------------------------------------------------
# Ordered funnel analysis
# ---------------------------------------------------------------------------


def event_funnel(sf_dir: str, steps: "tuple[str, ...] | None" = None) -> pa.Table:
    """Greedy first-match funnel over the event log: how many users reach
    each ordered step (reference analog: the usage-analytics rollup the CRUD
    app derives from its request log, smse/models/search_history.py — here
    generalized to an ordered multi-step conversion funnel).

    Frozen pair with ``event_funnel_sql`` (steps = config.FUNNEL_STEPS):
    t_1(user) = min ts of a step-1 event; t_k(user) = min ts of a step-k
    event with ts STRICTLY > t_{k-1}(user); a user reaches step k iff t_k
    exists. Output one row per step: (step 1-based, event_type, n_users,
    conv_rate = round4(n_users_k / n_users_1 in double), NULL if step 1 is
    empty), ordered by step.

    Scale shape: non-funnel rows are dropped AT THE SCAN (only
    (user_id, ts_us, step) of matching rows enter the exchange); ONE
    exchange on a user-hash bucket; inside a bucket ALL users advance
    through the K steps together via segmented-min passes (np.minimum.at
    over compact user indices — K C-kernel passes, never a Python call per
    user); each bucket emits K partial counts and the driver folds the
    K x n_buckets rows."""
    from smse_backend_ray import config

    steps = tuple(steps if steps is not None else config.FUNNEL_STEPS)
    if not steps:
        raise ValueError("funnel needs at least one step")
    k_steps = len(steps)
    step_set = pa.array(list(steps), type=pa.string())
    sentinel = np.iinfo(np.int64).max

    def pre(t: pa.Table) -> pa.Table:
        step = pc.index_in(t["event_type"], value_set=step_set)
        return pa.table({"user_id": pc.cast(t["user_id"], pa.int64()),
                         "ts_us": _epoch_us(t["ts"]),
                         "step": pc.cast(step, pa.int64())}).filter(pc.is_valid(step))

    def per_bucket(g: pa.Table) -> pa.Table:
        ts, st = g["ts_us"].to_numpy(), g["step"].to_numpy()
        uniq, uidx = np.unique(g["user_id"].to_numpy(), return_inverse=True)
        counts = np.zeros(k_steps, dtype=np.int64)
        t_prev = np.zeros(len(uniq), dtype=np.int64)  # step 0: no lower bound
        for k in range(k_steps):
            # strict ts > t_prev; unreached users hold the max sentinel,
            # which no event timestamp exceeds
            valid = (st == k) if k == 0 else (st == k) & (ts > t_prev[uidx])
            tk = np.full(len(uniq), sentinel, dtype=np.int64)
            np.minimum.at(tk, uidx[valid], ts[valid])
            counts[k] = int((tk < sentinel).sum())
            t_prev = tk
        return pa.table({"step": np.arange(1, k_steps + 1), "n_users": counts})

    ds = arrow_map(_read(sf_dir, ["user_id", "ts", "event_type"]), pre)
    t = _by_user(ds, per_bucket, int64_schema("step", "n_users"))
    n = np.zeros(k_steps, dtype=np.int64)
    np.add.at(n, t["step"].to_numpy() - 1, t["n_users"].to_numpy())
    s1 = int(n[0])
    conv = round_half_away(n.astype(np.float64) / s1, 4) if s1 > 0 else [None] * k_steps
    return pa.table({
        "step": np.arange(1, k_steps + 1, dtype=np.int64),
        "event_type": pa.array(list(steps), type=pa.string()),
        "n_users": n,
        "conv_rate": pa.array(conv, type=pa.float64()),
    })


def event_funnel_sql(steps: "tuple[str, ...] | None" = None) -> str:
    """DuckDB twin of event_funnel — MUST stay in lockstep (strict ts >
    previous step's min ts, greedy first-match, round4 double division)."""
    from smse_backend_ray import config

    steps = tuple(steps if steps is not None else config.FUNNEL_STEPS)
    if not steps:
        raise ValueError("funnel needs at least one step")

    def _sq(s: str) -> str:
        return s.replace("'", "''")

    ctes = [
        "f1 AS (SELECT user_id, min(ts) AS t FROM events "
        f"WHERE event_type = '{_sq(steps[0])}' GROUP BY user_id)"
    ]
    for k in range(2, len(steps) + 1):
        ctes.append(
            f"f{k} AS (SELECT e.user_id, min(e.ts) AS t FROM events e "
            f"JOIN f{k - 1} p ON e.user_id = p.user_id "
            f"WHERE e.event_type = '{_sq(steps[k - 1])}' AND e.ts > p.t "
            "GROUP BY e.user_id)"
        )
    selects = [
        f"SELECT CAST({k} AS BIGINT) AS step, '{_sq(s)}' AS event_type, "
        f"(SELECT CAST(count(*) AS BIGINT) FROM f{k}) AS n_users"
        for k, s in enumerate(steps, start=1)
    ]
    return (
        "WITH " + ",\n".join(ctes) + ",\nn AS (\n  "
        + "\n  UNION ALL ".join(selects)
        + "\n)\nSELECT step, event_type, n_users,\n"
        "       CASE WHEN (SELECT n_users FROM n WHERE step = 1) = 0 THEN NULL\n"
        "            ELSE round(CAST(n_users AS DOUBLE) /\n"
        "                       (SELECT n_users FROM n WHERE step = 1), 4)\n"
        "       END AS conv_rate\n"
        "FROM n ORDER BY step"
    )


# ---------------------------------------------------------------------------
# Weekly retention cohorts
# ---------------------------------------------------------------------------


def _user_weeks(t: pa.Table, name: str) -> pa.Table:
    """Per-batch DISTINCT (user_id, week start in epoch us) rows — the
    exchange carries one row per (user, week) per batch, not one per
    event."""
    week = pc.cast(pc.floor_temporal(pc.cast(t["ts"], _US), unit="week"), pa.int64())
    return agg(pa.table({"user_id": pc.cast(t["user_id"], pa.int64()), name: week}),
               ["user_id", name])


def events_retention(sf_dir: str) -> pa.Table:
    """Weekly retention-cohort matrix: users grouped by the Monday-aligned
    week of their FIRST event (any type), counted in every later week they
    were active (reference analog: the per-user activity rollup over the
    CRUD app's search_history log, generalized to cohort retention).

    Frozen pair with ``events_retention_sql``: cohort_week =
    date_trunc('week', min ts over the user's events); a user counts in
    (cohort_week, week_offset) iff they have ANY event in the week
    cohort_week + 7*offset days; offsets are exact integers (both ends are
    Monday-aligned truncations, so the day difference is a multiple of 7).
    Output (cohort_week, week_offset, n_users) ordered by both keys.

    Scale shape: ONE user-hash-bucket exchange of 2-column slims; inside a
    bucket each user's rows co-locate, so min-ts, the distinct
    (user, week) set and the per-(cohort, offset) user counts are all
    globally exact per bucket (users are disjoint across buckets) and fold
    on the driver over at most |weeks|^2/2 tiny partial rows per bucket."""
    week_us = 7 * 86400 * 1_000_000

    def per_bucket(g: pa.Table) -> pa.Table:
        d = agg(g, ["user_id", "week_us"])
        w = d["week_us"].to_numpy()
        uniq, uidx = np.unique(d["user_id"].to_numpy(), return_inverse=True)
        cohort = np.full(len(uniq), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(cohort, uidx, w)
        p = pa.table({"cohort_us": cohort[uidx], "week_offset": (w - cohort[uidx]) // week_us})
        return agg(p, ["cohort_us", "week_offset"], n_users=("week_offset", "count"))

    ds = arrow_map(_read(sf_dir, ["user_id", "ts"]), lambda t: _user_weeks(t, "week_us"))
    t = _by_user(ds, per_bucket, int64_schema("cohort_us", "week_offset", "n_users"))
    # driver fold: sum the per-bucket partials (tiny — weeks x offsets)
    f = agg(t, ["cohort_us", "week_offset"], n_users=("n_users", "sum"))
    f = f.set_column(0, "cohort_week", pc.cast(f["cohort_us"], _US))
    return f.sort_by([("cohort_week", "ascending"), ("week_offset", "ascending")])


def events_retention_sql() -> str:
    """DuckDB twin of events_retention — MUST stay in lockstep (Monday
    date_trunc both sides, day-diff // 7 offsets, distinct users)."""
    return """
WITH f AS (
  SELECT user_id, CAST(date_trunc('week', min(ts)) AS TIMESTAMP) AS cw
  FROM events GROUP BY user_id
),
a AS (
  SELECT DISTINCT user_id, CAST(date_trunc('week', ts) AS TIMESTAMP) AS w
  FROM events
)
SELECT f.cw AS cohort_week,
       CAST(date_diff('day', f.cw, a.w) // 7 AS BIGINT) AS week_offset,
       CAST(count(*) AS BIGINT) AS n_users
FROM a JOIN f ON a.user_id = f.user_id
GROUP BY 1, 2 ORDER BY 1, 2
"""

def event_value_quantiles(sf_dir: str) -> pa.Table:
    """Per-event-type exact value quantiles (probs = config.EV_QUANTILES)
    — the per-metric distribution profile an event pipeline publishes
    (reference analog: the per-modality size stats of the CRUD app's
    stats route, over the stream table instead of documents).

    Frozen pair with ``event_value_quantiles_sql``: values are 4-decimal
    scaled ints round(v*10000)::int64, NULLs excluded on both sides;
    quantile = linear interpolation over the sorted scaled ints
    (pos = q*(n-1), v = v_lo + frac*(v_hi - v_lo), double — the
    doc_length_quantiles formula), then /10000.0, rounded 4. Output
    (event_type, n_events, p25, p50, p75, p90) ordered by event_type.

    Scale shape: EXACT quantiles without a distributed sort — the scaled
    value domain is far smaller than the event count at stream scale, so
    per-batch (type, v_s) count partials combine through one
    grouped_aggregate exchange into a histogram bounded by distinct
    values, and the driver finishes on that histogram (cumsum +
    interpolation), never on per-event data."""
    from smse_backend_ray import config

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["value"]))
        part = pa.table({"event_type": t["event_type"], "v_s": _scaled4(t["value"])})
        return agg(part, ["event_type", "v_s"], cnt=("v_s", "count"))

    hist_schema = int64_schema("v_s", "cnt", event_type=pa.string())
    hist = grouped_aggregate(arrow_map(_read(sf_dir, ["event_type", "value"]), partial),
                             ["event_type", "v_s"], hist_schema, cnt=("cnt", "sum"))
    t = collect_table(hist, empty_schema=hist_schema)
    return hist_quantiles(t, "event_type", "v_s", "cnt", tuple(config.EV_QUANTILES),
                          "n_events", scale=10000.0)


def event_value_quantiles_sql() -> str:
    """DuckDB twin of event_value_quantiles — quantile_cont over the
    4-decimal-scaled BIGINTs, /10000.0, round4 (frozen pair)."""
    from smse_backend_ray import config

    probs = tuple(config.EV_QUANTILES)
    cols = ",\n       ".join(
        f"round(quantile_cont(v_s, {q!r}) / 10000.0, 4) "
        f"AS p{int(round(q * 100)):d}"
        for q in probs
    )
    return f"""
WITH v AS (
  SELECT event_type, CAST(round(value * 10000, 0) AS BIGINT) AS v_s
  FROM events WHERE value IS NOT NULL
)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_events,
       {cols}
FROM v GROUP BY event_type ORDER BY event_type
"""


def event_value_histogram(sf_dir: str) -> pa.Table:
    """Fixed-width value histogram per event_type: bin =
    floor(v_s / EV_HIST_STEP_S) over the 4-decimal-scaled values — the
    bounded-output distribution sketch that replaces a full sort when a
    pipeline only needs the shape of a metric (config.EV_HIST_STEP_S).

    Frozen pair with ``event_value_histogram_sql``: v_s =
    round(v*10000)::int64, NULLs excluded; the bin division runs in
    DOUBLE on both sides (exact for |v_s| < 2^53); per (event_type, bin)
    the row count and the exact-int value sum (then /10000.0 round4);
    bin_lo = round4(bin * step / 10000.0). Ordered (event_type, bin).

    Scale shape: per-batch (type, bin) partials -> ONE grouped_aggregate
    exchange -> driver finish on |types| x |bins| rows. Output is bounded
    by the bin grid, never by the event count."""
    from smse_backend_ray import config

    step = float(config.EV_HIST_STEP_S)

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["value"]))
        iv = _scaled4(t["value"])
        part = pa.table({"event_type": t["event_type"],
                         "bin": np.floor(iv.astype(np.float64) / step).astype(np.int64),
                         "iv": iv})
        return agg(part, ["event_type", "bin"], sum_iv=("iv", "sum"), n=("iv", "count"))

    part_schema = int64_schema("bin", "sum_iv", "n", event_type=pa.string())
    t = collect_table(
        grouped_aggregate(arrow_map(_read(sf_dir, ["event_type", "value"]), partial),
                          ["event_type", "bin"], part_schema,
                          sum_iv=("sum_iv", "sum"), n=("n", "sum")),
        empty_schema=part_schema,
    )
    bin_lo = round_half_away(t["bin"].to_numpy().astype(np.float64) * step / 10000.0, 4)
    out = pa.table({"event_type": t["event_type"], "bin": t["bin"],
                    "bin_lo": pa.array(bin_lo, type=pa.float64()), "n": t["n"],
                    "sum_value": _round4_scaled(t["sum_iv"])})
    return out.sort_by([("event_type", "ascending"), ("bin", "ascending")])


def event_value_histogram_sql() -> str:
    """DuckDB twin of event_value_histogram (frozen pair — double bin
    division, exact-int sums)."""
    from smse_backend_ray import config

    s = int(config.EV_HIST_STEP_S)
    return f"""
WITH v AS (
  SELECT event_type, CAST(round(value * 10000, 0) AS BIGINT) AS v_s
  FROM events WHERE value IS NOT NULL
),
b AS (
  SELECT event_type,
         CAST(floor(CAST(v_s AS DOUBLE) / {s}.0) AS BIGINT) AS bin, v_s
  FROM v
)
SELECT event_type, bin,
       round(bin * {s} / 10000.0, 4) AS bin_lo,
       CAST(count(*) AS BIGINT) AS n,
       round(SUM(v_s) / 10000.0, 4) AS sum_value
FROM b GROUP BY 1, 2 ORDER BY 1, 2
"""


def event_type_transitions(sf_dir: str) -> pa.Table:
    """Per-user consecutive event-type transition counts — the first-order
    Markov matrix over each user's timeline (the sequence statistic a
    behavioral pipeline derives before training session models).

    Frozen pair with ``event_type_transitions_sql``: each user's events
    order by (ts ASC, event_id ASC) — the user_running_totals order — and
    every adjacent (prev_type -> event_type) pair counts once; the first
    event of a user has no predecessor and emits nothing. Output
    (prev_type, event_type, n) ordered by both types.

    Scale shape: ONE user-hash-bucket exchange of 4-column slims; inside
    a bucket all users resolve in a single numpy pass (lexsort + shifted
    compare — no per-user Python), and each bucket emits at most
    |types|^2 partial rows; the driver folds #buckets x |types|^2."""

    def per_bucket(g: pa.Table) -> pa.Table:
        order, u, _ = _timeline(g)
        idx = np.flatnonzero(~run_rank(u)[0])  # a same-user predecessor
        et = g["event_type"].take(order)
        pairs = pa.table({"prev_type": et.take(idx - 1), "event_type": et.take(idx)})
        return agg(pairs, ["prev_type", "event_type"], n=("event_type", "count"))

    schema = int64_schema("n", prev_type=pa.string(), event_type=pa.string())
    t = _by_user(_read(sf_dir, ["user_id", "event_id", "ts", "event_type"]), per_bucket, schema)
    f = agg(t, ["prev_type", "event_type"], n=("n", "sum"))
    return f.sort_by([("prev_type", "ascending"), ("event_type", "ascending")])


def event_type_transitions_sql() -> str:
    """DuckDB twin of event_type_transitions — LAG over the frozen
    (ts, event_id) per-user order."""
    return """
WITH s AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
         ) AS prev_type
  FROM events
)
SELECT prev_type, event_type, CAST(count(*) AS BIGINT) AS n
FROM s WHERE prev_type IS NOT NULL
GROUP BY 1, 2 ORDER BY 1, 2
"""


def user_activity_histogram(sf_dir: str) -> pa.Table:
    """Power-of-two histogram of per-user event counts — the power-law
    activity profile (how many one-event users vs whales) a pipeline
    checks before choosing user-partitioned batch sizes.

    Frozen pair with ``user_activity_histogram_sql``: bucket =
    bit_length(n) - 1 (i.e. floor(log2 n) computed EXACTLY in integers —
    engine np.frexp exponent, twin length(bin(n)) - 1; never a float
    log), lo_events = 1 << bucket; per bucket the user count and total
    event count. Ordered by bucket.

    Scale shape: per-batch (user, n) count partials -> ONE user-hash
    bucket exchange completes each user's total (users are disjoint
    across buckets) -> per-bucket histogram partial of <= 64 rows ->
    driver fold."""

    def pre(t: pa.Table) -> pa.Table:
        u = pa.table({"user_id": pc.cast(t["user_id"], pa.int64())})
        return agg(u, "user_id", n=("user_id", "count"))

    def per_bucket(g: pa.Table) -> pa.Table:
        n = agg(g, "user_id", n=("n", "sum"))["n"].to_numpy()
        # exact floor(log2 n) for n >= 1: frexp returns (m in [0.5, 1), e)
        # with n = m * 2^e exactly (ints < 2^53), so e-1 is the bit length
        # minus one — no float log anywhere
        bucket = (np.frexp(n.astype(np.float64))[1] - 1).astype(np.int64)
        return agg(pa.table({"bucket": bucket, "n": n}), "bucket",
                   n_users=("n", "count"), n_events=("n", "sum"))

    ds = arrow_map(_read(sf_dir, ["user_id"]), pre)
    t = _by_user(ds, per_bucket, int64_schema("bucket", "n_users", "n_events"))
    f = agg(t, "bucket", n_users=("n_users", "sum"), n_events=("n_events", "sum"))
    lo = np.left_shift(np.int64(1), f["bucket"].to_numpy().astype(np.int64))
    return f.add_column(1, "lo_events", pa.array(lo, type=pa.int64())).sort_by("bucket")


def user_activity_histogram_sql() -> str:
    """DuckDB twin of user_activity_histogram — bit-length buckets via
    length(bin(n)), integer shift for lo_events (frozen pair)."""
    return """
WITH c AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1
)
SELECT CAST(length(bin(n)) - 1 AS BIGINT) AS bucket,
       CAST(CAST(1 AS BIGINT) << (length(bin(n)) - 1) AS BIGINT) AS lo_events,
       CAST(count(*) AS BIGINT) AS n_users,
       CAST(SUM(n) AS BIGINT) AS n_events
FROM c GROUP BY 1, 2 ORDER BY 1
"""


def weekly_active_users(sf_dir: str) -> pa.Table:
    """WAU / MAU / stickiness per ISO week: distinct weekly actives,
    distinct actives over the trailing 4 ISO weeks [w-3, w], and the
    wau/mau ratio — the engagement dashboard row every event pipeline
    ships.

    Frozen pair with ``weekly_active_users_sql``: week =
    floor_temporal(ts, 'week') <-> date_trunc('week', ts)::TIMESTAMP
    (both ISO-Monday; boundary-pinned in tests), mau window = the 4 weeks
    ending at w (a (user, w') active row contributes to windows
    w'..w'+21d), stickiness = round4(wau / mau in DOUBLE), output only
    weeks with events (mau-only expansion weeks are dropped).

    Scale shape: per-batch distinct (user, week) -> ONE user-hash bucket
    exchange (users disjoint across buckets, so per-bucket distincts and
    counts are exact partials) -> x4 window expansion + second in-bucket
    distinct -> (week, wau, mau) partials bounded by |weeks| per bucket
    -> driver fold."""
    week_us = 7 * 86_400_000_000

    def per_bucket(g: pa.Table) -> pa.Table:
        uw = agg(g, ["user_id", "week"])
        wau = agg(uw, "week", wau=("user_id", "count"))
        u, w = uw["user_id"].to_numpy(), uw["week"].to_numpy()
        win = np.concatenate([w + np.int64(week_us * k) for k in range(4)])
        muw = agg(pa.table({"user_id": np.tile(u, 4), "week": win}), ["user_id", "week"])
        # every active week is inside its own window: mau covers wau's weeks
        f = agg(muw, "week", mau=("user_id", "count")).join(wau, "week")
        return f.set_column(f.schema.get_field_index("wau"), "wau", pc.fill_null(f["wau"], 0))

    ds = arrow_map(_read(sf_dir, ["user_id", "ts"]), lambda t: _user_weeks(t, "week"))
    t = _by_user(ds, per_bucket, int64_schema("week", "wau", "mau"))
    f = agg(t, "week", wau=("wau", "sum"), mau=("mau", "sum"))
    f = f.filter(pc.greater(f["wau"], 0))  # mau-only expansion weeks carry no events
    wau, mau = f["wau"].to_numpy(), f["mau"].to_numpy()
    stick = round_half_away(wau.astype(np.float64) / mau, 4)
    f = f.set_column(0, "week", pc.cast(f["week"], _US))
    return f.append_column("stickiness", pa.array(stick, type=pa.float64())).sort_by("week")


def weekly_active_users_sql() -> str:
    """DuckDB twin of weekly_active_users — date_trunc('week') weeks,
    trailing-4-week distinct-user window, round4 stickiness (frozen
    pair)."""
    return """
WITH uw AS (SELECT DISTINCT user_id,
       CAST(date_trunc('week', ts) AS TIMESTAMP) AS week FROM events),
wau AS (SELECT week, CAST(count(*) AS BIGINT) AS wau FROM uw GROUP BY week),
mau AS (
  SELECT w.week AS week, CAST(count(DISTINCT u.user_id) AS BIGINT) AS mau
  FROM (SELECT DISTINCT week FROM uw) w
  JOIN uw u ON u.week <= w.week AND u.week >= w.week - INTERVAL 21 DAY
  GROUP BY w.week
)
SELECT wau.week AS week, wau.wau AS wau, mau.mau AS mau,
       round(CAST(wau.wau AS DOUBLE) / mau.mau, 4) AS stickiness
FROM wau JOIN mau ON mau.week = wau.week
ORDER BY week
"""


def event_gap_quantiles(sf_dir: str) -> pa.Table:
    """Per-event-type inter-arrival time quantiles: the distribution of
    whole-second gaps between a user's consecutive events of the same
    type — the cadence profile read before choosing session timeouts and
    window sizes (probs = config.EV_QUANTILES, in seconds).

    Frozen pair with ``event_gap_quantiles_sql``: gaps are over the
    frozen (ts ASC, event_id ASC) order within (user_id, event_type)
    (each stream's first event emits nothing); gap_sec = (ts_us -
    prev_us) // 1_000_000 — gaps are NON-NEGATIVE so DuckDB's truncating
    // equals numpy's floor here (the signed-epoch trap doesn't apply);
    quantiles = the DL_QUANTILES linear interpolation over the sorted
    int seconds, rounded 4.

    Scale shape: one user-hash exchange (users disjoint, so per-bucket
    gap extraction is exact); whole-second quantization bounds the
    histogram by the time RANGE, not the event count, so the
    (type, gap_sec) partials fold on the driver like
    event_value_quantiles."""
    from smse_backend_ray import config

    def per_bucket(g: pa.Table) -> pa.Table:
        et = np.asarray(g["event_type"].to_numpy(zero_copy_only=False), dtype=object)
        codes = np.unique(et, return_inverse=True)[1]
        order, u, ts = _timeline(g, codes)
        # a predecessor of the same (user, type) stream
        idx = np.flatnonzero(~run_rank(u, codes[order])[0])
        gap_sec = (ts[idx] - ts[idx - 1]) // 1_000_000  # non-negative
        h = pa.table({"event_type": g["event_type"].take(order[idx]), "gap_sec": gap_sec})
        return agg(h, ["event_type", "gap_sec"], cnt=("gap_sec", "count"))

    schema = int64_schema("gap_sec", "cnt", event_type=pa.string())
    t = _by_user(_read(sf_dir, ["user_id", "ts", "event_id", "event_type"]), per_bucket, schema)
    t = agg(t, ["event_type", "gap_sec"], cnt=("cnt", "sum"))
    return hist_quantiles(t, "event_type", "gap_sec", "cnt", tuple(config.EV_QUANTILES),
                          "n_gaps")


def event_gap_quantiles_sql() -> str:
    """DuckDB twin of event_gap_quantiles — LAG over the frozen
    (ts, event_id) per-(user, type) order, truncating // on the
    non-negative µs gap, quantile_cont over int seconds, round4."""
    from smse_backend_ray import config

    probs = tuple(config.EV_QUANTILES)
    cols = ",\n       ".join(
        f"round(quantile_cont(gap_sec, {q!r}), 4) "
        f"AS p{int(round(q * 100)):d}"
        for q in probs
    )
    return f"""
WITH s AS (
  SELECT event_type, ts,
         LAG(ts) OVER (PARTITION BY user_id, event_type
                       ORDER BY ts, event_id) AS prev
  FROM events
),
g AS (
  SELECT event_type,
         (CAST(epoch_us(ts) AS BIGINT) - CAST(epoch_us(prev) AS BIGINT))
           // 1000000 AS gap_sec
  FROM s WHERE prev IS NOT NULL
)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_gaps,
       {cols}
FROM g GROUP BY event_type ORDER BY event_type
"""
