"""Session-8 operators: per-type event-value quantiles / histogram,
event-type transition counts, adjacent kept-token pair counts, and the
TPC-H Q9 (product-type profit) shape — twin parity at sf0.001 plus
hand-built fixtures pinning the edge semantics each frozen pair relies on
(NULL exclusion, negative-value floor bins, (ts, event_id) tie order,
top-N total order, part-filter conservation)."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write_events(tmp_path, rows):
    t = pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [
                ("event_id", pa.int64()),
                ("ts", pa.timestamp("us")),
                ("user_id", pa.int64()),
                ("event_type", pa.string()),
                ("value", pa.float64()),
                ("props", pa.string()),
            ]
        ),
    )
    pq.write_table(t, f"{tmp_path}/events.parquet")
    return str(tmp_path)


def _duck_events(sf):
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')"
    )
    return con


# ---------------------------------------------------------------------------
# event_value_quantiles
# ---------------------------------------------------------------------------


def test_event_value_quantiles_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.pipelines.events import (
        event_value_quantiles,
        event_value_quantiles_sql,
    )

    got = event_value_quantiles(sf_dir)
    want = duck.sql(event_value_quantiles_sql()).fetch_arrow_table()
    assert want.to_pydict() == got.to_pydict()
    assert got.num_rows > 0
    # quantiles are monotone within a row
    for row in got.to_pylist():
        assert row["p25"] <= row["p50"] <= row["p75"] <= row["p90"]


def test_event_value_quantiles_nulls_and_numpy(ray_session, tmp_path):
    """NULL values are excluded on both sides (an all-NULL type emits no
    row); the interpolation matches numpy's linear quantile over the
    4-decimal-scaled values, including negatives."""
    import datetime

    from smse_backend_ray import config
    from smse_backend_ray.functions.rounding import round_half_away
    from smse_backend_ray.pipelines.events import (
        event_value_quantiles,
        event_value_quantiles_sql,
    )

    t0 = datetime.datetime(2024, 1, 1)
    rng = np.random.default_rng(20260820)
    rows = []
    eid = 0
    vals_a = [-3.25, 0.0, 1.5, 2.0001, 99.9999]
    for v in vals_a:
        eid += 1
        rows.append(
            {"event_id": eid, "ts": t0, "user_id": 1, "event_type": "a",
             "value": v, "props": "{}"}
        )
    # type b: random values with interleaved NULLs
    vals_b = []
    for i in range(37):
        eid += 1
        v = None if i % 5 == 0 else float(rng.normal(0, 20))
        if v is not None:
            vals_b.append(v)
        rows.append(
            {"event_id": eid, "ts": t0, "user_id": 2, "event_type": "b",
             "value": v, "props": "{}"}
        )
    # type c: ALL NULL -> no output row
    for i in range(3):
        eid += 1
        rows.append(
            {"event_id": eid, "ts": t0, "user_id": 3, "event_type": "c",
             "value": None, "props": "{}"}
        )
    sf = _write_events(tmp_path, rows)

    got = event_value_quantiles(sf)
    assert got["event_type"].to_pylist() == ["a", "b"]
    for row, vals in zip(got.to_pylist(), [vals_a, vals_b]):
        v = np.asarray(vals, dtype=np.float64)
        v_s = (np.sign(v) * np.floor(np.abs(v) * 10000.0 + 0.5)).astype(
            np.int64
        )
        assert row["n_events"] == len(v)
        for q in config.EV_QUANTILES:
            col = f"p{int(round(q * 100)):d}"
            want = float(
                round_half_away(
                    np.array(
                        [np.quantile(v_s.astype(np.float64), q,
                                     method="linear") / 10000.0]
                    ),
                    4,
                )[0]
            )
            assert row[col] == want, (row["event_type"], col)

    con = _duck_events(sf)
    orc = con.sql(event_value_quantiles_sql()).fetch_arrow_table()
    assert orc.to_pydict() == got.to_pydict()


# ---------------------------------------------------------------------------
# event_value_histogram
# ---------------------------------------------------------------------------


def test_event_value_histogram_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.pipelines.events import (
        event_value_histogram,
        event_value_histogram_sql,
    )

    got = event_value_histogram(sf_dir)
    want = duck.sql(event_value_histogram_sql()).fetch_arrow_table()
    assert want.to_pydict() == got.to_pydict()
    # bins partition the non-null events
    n_events = duck.sql(
        "SELECT count(*) FROM events WHERE value IS NOT NULL"
    ).fetchone()[0]
    import pyarrow.compute as pc

    assert pc.sum(got["n"]).as_py() == n_events


def test_event_value_histogram_negative_bins(ray_session, tmp_path):
    """Negative values floor toward -inf (bin -1 covers [-step, 0));
    NULLs excluded; per-bin sums are exact scaled ints."""
    import datetime

    from smse_backend_ray import config
    from smse_backend_ray.pipelines.events import (
        event_value_histogram,
        event_value_histogram_sql,
    )

    t0 = datetime.datetime(2024, 1, 1)
    step = config.EV_HIST_STEP_S  # 250000 scaled = 25.0
    vals = [-50.0001, -25.0, -0.0001, 0.0, 24.9999, 25.0, 77.7, None]
    rows = [
        {"event_id": i + 1, "ts": t0, "user_id": 1, "event_type": "x",
         "value": v, "props": "{}"}
        for i, v in enumerate(vals)
    ]
    sf = _write_events(tmp_path, rows)
    got = event_value_histogram(sf)
    by_bin = {r["bin"]: r for r in got.to_pylist()}
    # -50.0001 -> scaled -500001 -> bin -3; -25.0 -> -250000 -> bin -1
    # (exactly -step/step = -1.0, floor -1); -0.0001 -> -1 -> bin -1;
    # 0.0 and 24.9999 -> bin 0; 25.0 -> bin 1; 77.7 -> bin 3
    assert set(by_bin) == {-3, -1, 0, 1, 3}
    assert by_bin[-3]["n"] == 1 and by_bin[-1]["n"] == 2
    assert by_bin[0]["n"] == 2 and by_bin[1]["n"] == 1 and by_bin[3]["n"] == 1
    assert by_bin[-1]["bin_lo"] == -25.0
    assert by_bin[-1]["sum_value"] == -25.0001
    assert by_bin[0]["sum_value"] == 24.9999

    con = _duck_events(sf)
    orc = con.sql(event_value_histogram_sql()).fetch_arrow_table()
    assert orc.to_pydict() == got.to_pydict()


# ---------------------------------------------------------------------------
# event_type_transitions
# ---------------------------------------------------------------------------


def test_event_type_transitions_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.pipelines.events import (
        event_type_transitions,
        event_type_transitions_sql,
    )

    got = event_type_transitions(sf_dir)
    want = duck.sql(event_type_transitions_sql()).fetch_arrow_table()
    assert want.to_pydict() == got.to_pydict()
    # every event except each user's first contributes exactly one pair
    import pyarrow.compute as pc

    n_events = duck.sql("SELECT count(*) FROM events").fetchone()[0]
    n_users = duck.sql("SELECT count(DISTINCT user_id) FROM events").fetchone()[0]
    assert pc.sum(got["n"]).as_py() == n_events - n_users


def test_event_type_transitions_tie_order(ray_session, tmp_path):
    """Tied timestamps order by event_id (the frozen running-totals
    order); single-event users emit nothing."""
    import datetime

    from smse_backend_ray.pipelines.events import (
        event_type_transitions,
        event_type_transitions_sql,
    )

    t0 = datetime.datetime(2024, 1, 1)
    rows = [
        # user 1: same ts for all three -> order by event_id: a, b, c
        {"event_id": 3, "ts": t0, "user_id": 1, "event_type": "c",
         "value": 1.0, "props": "{}"},
        {"event_id": 1, "ts": t0, "user_id": 1, "event_type": "a",
         "value": 1.0, "props": "{}"},
        {"event_id": 2, "ts": t0, "user_id": 1, "event_type": "b",
         "value": 1.0, "props": "{}"},
        # user 2: single event -> no pair
        {"event_id": 4, "ts": t0, "user_id": 2, "event_type": "a",
         "value": 1.0, "props": "{}"},
        # user 3: ts order beats event_id
        {"event_id": 6, "ts": t0, "user_id": 3, "event_type": "b",
         "value": 1.0, "props": "{}"},
        {"event_id": 5, "ts": t0 + datetime.timedelta(seconds=1),
         "user_id": 3, "event_type": "c", "value": 1.0, "props": "{}"},
    ]
    sf = _write_events(tmp_path, rows)
    got = event_type_transitions(sf)
    assert got.to_pylist() == [
        {"prev_type": "a", "event_type": "b", "n": 1},
        {"prev_type": "b", "event_type": "c", "n": 2},
    ]
    con = _duck_events(sf)
    orc = con.sql(event_type_transitions_sql()).fetch_arrow_table()
    assert orc.to_pydict() == got.to_pydict()


# ---------------------------------------------------------------------------
# term_pair_counts
# ---------------------------------------------------------------------------


def test_term_pair_counts_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray import config
    from smse_backend_ray.functions.sqlgen import term_pairs_sql
    from smse_backend_ray.pipelines.textstats import term_pair_counts

    got = term_pair_counts(sf_dir)
    want = duck.sql(term_pairs_sql()).fetch_arrow_table()
    assert want.to_pydict() == got.to_pydict()
    assert 0 < got.num_rows <= config.PAIR_TOP_N
    # frozen total order
    rows = got.to_pylist()
    keys = [(-r["n_pairs"], r["term_a"], r["term_b"]) for r in rows]
    assert keys == sorted(keys)
    assert all(r["n_docs"] <= r["n_pairs"] for r in rows)


def test_term_pair_counts_semantics(ray_session, tmp_path):
    """Known micro-corpus: pair counts over the KEPT stream (dropped
    tokens splice their neighbors together), n_docs is distinct, empty
    and single-token docs contribute nothing."""
    from smse_backend_ray.functions.analyzer import tokenize
    from smse_backend_ray.functions.sqlgen import term_pairs_sql
    from smse_backend_ray.pipelines.textstats import term_pair_counts

    texts = [
        "alpha beta alpha beta",   # (alpha,beta) x2, (beta,alpha) x1
        "alpha beta",              # (alpha,beta) x1
        "gamma",                   # single kept token -> nothing
        "",                        # empty -> nothing
        "alpha a beta",            # 1-char token dropped by the analyzer?
    ]
    rows = [
        {"doc_id": i + 1, "text": t, "lang": "en", "source": "s0",
         "n_chars": len(t)}
        for i, t in enumerate(texts)
    ]
    sf = str(tmp_path)
    pq.write_table(pa.Table.from_pylist(rows), f"{sf}/documents.parquet")

    got = term_pair_counts(sf)
    by_pair = {(r["term_a"], r["term_b"]): r for r in got.to_pylist()}

    # reference truth from the frozen scalar analyzer
    truth: dict[tuple[str, str], list] = {}
    for did, t in enumerate(texts, start=1):
        toks = tokenize(t)
        for a, b in zip(toks, toks[1:]):
            truth.setdefault((a, b), []).append(did)
    for pair, docs in truth.items():
        assert by_pair[pair]["n_pairs"] == len(docs)
        assert by_pair[pair]["n_docs"] == len(set(docs))
    assert set(by_pair) == set(truth)

    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    orc = con.sql(term_pairs_sql()).fetch_arrow_table()
    assert orc.to_pydict() == got.to_pydict()


# ---------------------------------------------------------------------------
# product_type_profit (Q9 shape)
# ---------------------------------------------------------------------------


def test_product_type_profit_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray import config
    from smse_backend_ray.pipelines import relational

    t = relational.product_type_profit(sf_dir)
    want = duck.sql(relational.product_type_profit_sql()).fetch_arrow_table()
    assert want.to_pydict() == t.to_pydict()
    # conservation: the matrix total equals the flat filtered revenue sum
    tot = duck.sql(
        "SELECT CAST(SUM(CAST(round(l_extendedprice*100,0) AS BIGINT) * "
        "(100 - CAST(round(l_discount*100,0) AS BIGINT))) AS BIGINT) "
        "FROM lineitem JOIN part ON p_partkey = l_partkey "
        f"WHERE p_name LIKE '%{config.Q9_PART_WORD}%'"
    ).fetchone()[0]
    import pyarrow.compute as pc

    assert pc.sum(t["profit_scaled"]).as_py() == tot
    # classic Q9 order: nation ASC, year DESC
    rows = t.to_pylist()
    keys = [(r["nation"], -r["o_year"]) for r in rows]
    assert keys == sorted(keys)


def test_product_type_profit_no_match_word(ray_session, sf_dir, monkeypatch):
    from smse_backend_ray import config
    from smse_backend_ray.pipelines import relational

    monkeypatch.setattr(config, "Q9_PART_WORD", "zzz_no_such_part")
    t = relational.product_type_profit(sf_dir)
    assert t.num_rows == 0
    assert t.schema.names == ["nation", "o_year", "profit_scaled"]


def test_product_type_profit_literal_word_matches_sql(ray_session, tmp_path, monkeypatch):
    """The part word is a literal substring on both sides: % and _ are not
    wildcards and a quote does not break the SQL twin."""
    import datetime

    from smse_backend_ray import config
    from smse_backend_ray.pipelines import relational

    word = "50%_o'k"
    monkeypatch.setattr(config, "Q9_PART_WORD", word)
    day = datetime.datetime(1995, 3, 1)
    tables = {
        # part 1 holds the word literally; part 2 would match it as a LIKE
        # pattern ('50' + any run + any char + "o'k"); part 3 matches nothing
        "part": pa.table({
            "p_partkey": pa.array([1, 2, 3], pa.int64()),
            "p_name": ["big 50%_o'k gear", "big 50xyzo'k gear", "plain gear"],
        }),
        "lineitem": pa.table({
            "l_orderkey": pa.array([10, 10, 11], pa.int64()),
            "l_partkey": pa.array([1, 2, 3], pa.int64()),
            "l_suppkey": pa.array([1, 1, 1], pa.int64()),
            "l_extendedprice": [100.0, 200.0, 300.0],
            "l_discount": [0.05, 0.0, 0.0],
        }),
        "orders": pa.table({
            "o_orderkey": pa.array([10, 11], pa.int64()),
            "o_orderdate": pa.array([day, day], pa.timestamp("us")),
        }),
        "supplier": pa.table({
            "s_suppkey": pa.array([1], pa.int64()),
            "s_nationkey": pa.array([0], pa.int32()),
        }),
        "nation": pa.table({
            "n_nationkey": pa.array([0], pa.int32()),
            "n_name": ["FRANCE"],
        }),
    }
    con = duckdb.connect()
    for name, t in tables.items():
        pq.write_table(t, tmp_path / f"{name}.parquet")
        con.sql(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{tmp_path}/{name}.parquet')")

    got = relational.product_type_profit(str(tmp_path))
    want = con.sql(relational.product_type_profit_sql()).fetch_arrow_table()
    assert want.to_pydict() == got.to_pydict()
    assert got.to_pylist() == [
        {"nation": "FRANCE", "o_year": 1995, "profit_scaled": 10000 * 95}
    ]
