"""Simulate the driver's correctness gate: run every queries() entry and its
oracle_sql() twin on the same sf dir, compare row count + schema + sorted
values. Usage: python scripts/driver_sim.py [sf_dir] [entry_name ...]

Each entry's name is printed (``run <name>``, flushed) before it starts, so
a process that dies inside an entry names it; the sweep's total wall is
printed last. An entry (or the ``entry()`` smoke) that runs longer than
ENTRY_TIMEOUT_S is taken for a hang: faulthandler dumps every driver
thread's stack to stderr and the process exits non-zero."""

from __future__ import annotations

import faulthandler
import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

import ray

# per-entry watchdog (s): the slowest entry of an sf0.01 sweep took 5.2 s
# on a 1-CPU host, and a Ray Data task once hung inside an entry for 381 s
ENTRY_TIMEOUT_S = 300


def to_pandas(x):
    if hasattr(x, "to_pandas"):
        return x.to_pandas()
    return x


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def compare(name: str, mine: pd.DataFrame, orc: pd.DataFrame) -> list[str]:
    problems = []
    if len(mine) != len(orc):
        problems.append(f"rowcount {len(mine)} != {len(orc)}")
        return problems
    if sorted(mine.columns) != sorted(orc.columns):
        problems.append(f"columns {sorted(mine.columns)} != {sorted(orc.columns)}")
        return problems
    a, b = canon(mine), canon(orc)
    for c in a.columns:
        if np.issubdtype(a[c].dtype, np.floating) or np.issubdtype(b[c].dtype, np.floating):
            av = a[c].astype(float).to_numpy()
            bv = b[c].astype(float).to_numpy()
            if not np.array_equal(av, bv):
                bad = np.flatnonzero(av != bv)
                problems.append(
                    f"float col {c}: {len(bad)} diffs, first {av[bad[0]]!r} vs {bv[bad[0]]!r}"
                )
        else:
            if not a[c].equals(b[c]):
                if a[c].dtype != b[c].dtype:
                    problems.append(f"col {c}: dtype {a[c].dtype} vs {b[c].dtype}")
                neq = a[c][a[c] != b[c]]
                if len(neq):
                    problems.append(
                        f"col {c}: {len(neq)} value diffs, first idx {neq.index[0]}: "
                        f"{a[c][neq.index[0]]!r} vs {b[c][neq.index[0]]!r}"
                    )
        if np.issubdtype(a[c].dtype, np.integer) != np.issubdtype(b[c].dtype, np.integer):
            problems.append(f"dtype mismatch col {c}: {a[c].dtype} vs {b[c].dtype}")
    return problems


def main():
    t_sweep = time.perf_counter()
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in (
        "region nation customer supplier part orders lineitem events documents embeddings"
    ).split():
        # partial sf dirs (e.g. a fuzz corpus that only has documents) still
        # replay the entries whose tables exist
        if os.path.exists(f"{sf_dir}/{t}.parquet"):
            con.sql(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
            )

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    only = set(sys.argv[2:])  # optional entry-name filter (skips entry() smoke)
    if only:
        unknown = only - qs.keys()
        if unknown:
            print(f"unknown entry names: {sorted(unknown)}")
            return 1
        qs = {k: v for k, v in qs.items() if k in only}
    n_bad = 0
    for name, fn in qs.items():
        print(f"run {name}", flush=True)
        faulthandler.dump_traceback_later(ENTRY_TIMEOUT_S, exit=True)
        t0 = time.perf_counter()
        mine = to_pandas(fn(sf_dir))
        dt = time.perf_counter() - t0
        faulthandler.cancel_dump_traceback_later()
        if name not in sqls:
            print(f"{name:26s} rows={len(mine):6d} {dt:6.1f}s (rows-only, no oracle)")
            continue
        orc = con.sql(sqls[name]).df()
        problems = compare(name, mine, orc)
        status = "OK" if not problems else "FAIL"
        if problems:
            n_bad += 1
        print(f"{name:26s} rows={len(mine):6d} oracle={len(orc):6d} {dt:6.1f}s {status}")
        for p in problems[:4]:
            print(f"    - {p}")
    # entry smoke
    if not only:
        faulthandler.dump_traceback_later(ENTRY_TIMEOUT_S, exit=True)
        e = to_pandas(entrymod.entry())
        faulthandler.cancel_dump_traceback_later()
        print(f"entry() -> {len(e)} rows, cols {list(e.columns)}")
    print(f"sweep wall {time.perf_counter() - t_sweep:.1f}s")
    print("BAD:", n_bad)
    return n_bad


if __name__ == "__main__":
    rc = main()
    ray.shutdown()
    sys.exit(1 if rc else 0)
