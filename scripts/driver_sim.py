"""Simulate the driver's correctness gate: run every queries() entry and its
oracle_sql() twin on the same sf dir, compare row count + schema + sorted
values. Usage: python scripts/driver_sim.py [sf_dir] [entry_name ...]

Each entry's name is printed (``run <name>``, flushed) before it starts, so
a process that dies inside an entry names it; the sweep's total wall and
its count of recurring Ray Data schema warnings (SCHEMA_WARNINGS, counted
from the driver's log records) are printed last. An entry (or the
``entry()`` smoke) that runs longer than ENTRY_TIMEOUT_S is taken for a
hang: faulthandler dumps every driver
thread's stack to stderr, every descendant process (the local Ray
cluster's raylet, workers and agents) is killed and the process exits
non-zero."""

from __future__ import annotations

import contextlib
import faulthandler
import logging
import os
import signal
import sys
import threading
import time
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd

import ray

# per-entry watchdog (s): the slowest entry of an sf0.01 sweep took 5.2 s
# on a 1-CPU host, and a Ray Data task once hung inside an entry for 381 s
ENTRY_TIMEOUT_S = 300
# faulthandler's own exit fires this much later, in case the main thread
# holds the GIL and the watchdog thread never runs
BACKSTOP_S = 60
# Ray Data warnings a clean sweep should not repeat: a map's or an
# exchange's blocks disagreeing on schema (an untyped empty block mostly)
SCHEMA_WARNINGS = ("different schema than the previous", "Failed to hash the schemas")


class WarningCount(logging.Handler):
    """Counts the log records that contain one of SCHEMA_WARNINGS."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.n = 0

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        self.n += any(w in msg for w in SCHEMA_WARNINGS)


def _descendants(root: int) -> set[int]:
    """Pids of every live process below ``root`` (from /proc)."""
    children: dict[int, list[int]] = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # exited while listing
            continue
        if fields[0] != "Z":
            children.setdefault(int(fields[1]), []).append(int(stat.parent.name))
    out, todo = set(), [root]
    while todo:
        for c in children.get(todo.pop(), ()):
            out.add(c)
            todo.append(c)
    return out


def _on_hang() -> None:
    faulthandler.dump_traceback(all_threads=True)
    for pid in _descendants(os.getpid()):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    os._exit(1)


@contextlib.contextmanager
def watchdog():
    """Treat a body that runs longer than ENTRY_TIMEOUT_S as a hang."""
    timer = threading.Timer(ENTRY_TIMEOUT_S, _on_hang)
    timer.daemon = True
    timer.start()
    faulthandler.dump_traceback_later(ENTRY_TIMEOUT_S + BACKSTOP_S, exit=True)
    try:
        yield
    finally:
        timer.cancel()
        faulthandler.cancel_dump_traceback_later()


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
    warnings = WarningCount()
    logging.getLogger("ray.data").addHandler(warnings)

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
        t0 = time.perf_counter()
        with watchdog():
            mine = to_pandas(fn(sf_dir))
        dt = time.perf_counter() - t0
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
        with watchdog():
            e = to_pandas(entrymod.entry())
        print(f"entry() -> {len(e)} rows, cols {list(e.columns)}")
    print(f"sweep wall {time.perf_counter() - t_sweep:.1f}s")
    print(f"schema warnings {warnings.n}")
    print("BAD:", n_bad)
    return n_bad


if __name__ == "__main__":
    rc = main()
    ray.shutdown()
    sys.exit(1 if rc else 0)
