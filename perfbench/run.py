"""Benchmark for the ray-bm25 engine: index build, Zipfian query log, and
batched serving beside deletes.

    python3 perfbench/run.py --workload build --seed 1 --seconds 5 --trace 0

Run from the repository root. One closed-loop client in one process drives
the engine through its public API on a seeded synthetic corpus: 4 index
shards served by 2 ``ShardSearcher`` actors, Ray sized to the CPUs this
process may run on. Every run executes these phases in order:

  set-up  Ray start and a positional ``build_index`` of the corpus
  serve   three rounds, each over a fresh copy of the positional build:
    zipf    a newly opened engine answers the next slice of a Zipfian query
            log one query at a time (``search_batch([q])``), caches cold;
            at least 250 queries a round, and for a third of the window on
            ``query-zipf``; 8 ``delete_doc`` calls after every 25 queries
    churn   the same engine replays three batches of another log, each
            timed after an untimed warm call, with the round's deletes in
            force
  build   ``build``: fresh default-config builds for the ``--seconds``
          window (three on a quiet host at 12 s); ``query-zipf``: the set-up
          build stands for the write path

Serve runs before the build window, so it meets the same process state on
both workloads. Every end-to-end metric is reported on every workload.
The serve metrics are CPU costs per query, taken from the calmer half of
their time slices (see ``Bench.phase_serve`` for why); ``setup_s``,
``build_docs_per_s`` and ``engine_load_s`` are wall-clock.

Every build and a seeded sample of queries are checked against
``oracle.py``; an exception or a mismatch is a failed operation. The last
stdout line is the JSON result; the line before it records the run
conditions. ``--trace 1`` installs spans around calls into the engine's
modules, runs in-process probes of single layers, and reports the
per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import logging
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"

N_SHARDS = 4
NUM_ACTORS = 2
DEFAULT_DOCS = 3000

WORKLOADS = ("build", "query-zipf")

SERVE_ROUNDS = 3     # fresh engine over a fresh index copy each round
ZIPF_QUERIES = 250   # per round, at least
ZIPF_STEP = 25       # zipf queries per step; the steal share is measured per step
DELETES_PER_STEP = 8
ZIPF_LOG = 6000      # queries generated; the window never reaches the end
BATCH = 64
CHURN_BATCHES = 3    # per round

# oracle sample per phase (phrase/near oracles scan token streams: keep few)
ZIPF_CHECKS = {"or_hot": 4, "or_ident": 4, "and": 4, "phrase": 2, "near": 2}
CHURN_CHECKS_PER_BATCH = 1


def _median(xs):
    return float(statistics.median(xs))


def _pctl(xs, q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(xs)
    return float(xs[max(0, math.ceil(q * len(xs)) - 1)])


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


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


def _gone(pid: int) -> bool:
    """True once ``pid`` has exited (no such process, or a zombie)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def _wait_gone(pids: set[int], timeout: float) -> set[int]:
    """Wait until every pid has exited; return those still alive."""
    end = time.monotonic() + timeout
    while True:
        alive = {p for p in pids if not _gone(p)}
        if not alive or time.monotonic() > end:
            return alive
        time.sleep(0.2)


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks of all CPUs so far, from /proc/stat."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    return (v[7] if len(v) > 7 else 0), sum(v)


class Steal:
    """Share of CPU time taken by other guests of the host while the block
    ran: ``with Steal() as st: ...`` then ``st.share``."""

    def __enter__(self):
        self.start = _cpu_ticks()
        return self

    def __exit__(self, *exc):
        steal, total = _cpu_ticks()
        self.share = (steal - self.start[0]) / max(1, total - self.start[1])


def _calm(groups: list[tuple]) -> list[tuple]:
    """The calmer half (at least one) of ``(steal share, samples)`` groups."""
    return sorted(groups, key=lambda g: g[0])[: max(1, (len(groups) + 1) // 2)]


class ThreadClock:
    """CPU milliseconds used so far by every thread of some processes, to
    the nanosecond: the first field of each thread's schedstat. The files
    stay open and are re-read in place, which costs a few microseconds per
    thread instead of an open per thread per reading; threads started
    after the clock are not counted."""

    def __init__(self, pids: list[int]):
        self.fds = []
        for pid in pids:
            for tid in os.listdir(f"/proc/{pid}/task"):
                try:
                    self.fds.append(os.open(f"/proc/{pid}/task/{tid}/schedstat", os.O_RDONLY))
                except OSError:  # thread exited
                    pass

    def ms(self) -> float:
        total = 0
        for fd in self.fds:
            try:
                total += int(os.pread(fd, 64, 0).split()[0])
            except OSError:  # thread exited
                pass
        return total / 1e6

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for fd in self.fds:
            os.close(fd)


def _vmrss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS for pid {pid}")


class Bench:
    def __init__(self, args):
        self.args = args
        self.seconds = float(args.seconds)
        self.n_docs = int(args.docs)
        self.n_shards = N_SHARDS
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.kept: list[tuple] = []  # (what, QuerySpec, tombstones, engine rows)
        self.e2e: dict[str, tuple[float, str]] = {}
        self.wall: dict[str, float] = {}  # wall-clock serve figures, for the run conditions
        self.layer: dict[str, tuple[float, str]] = {}
        self.tracer = None
        if args.trace:
            from tracing import Tracer

            self.tracer = Tracer()
        self.work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"

    # -- helpers ---------------------------------------------------------
    def span(self, name: str):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name)

    @contextmanager
    def untraced(self, eng):
        """Run ``eng`` without the span wrappers installed by ``open_engine``
        and ``run``."""
        import smse_backend_ray.pipelines.search as search_mod

        saved = {k: eng.__dict__.pop(k) for k in ("idf_weights", "delete_doc")}
        traced_fuse = search_mod.fuse_parts
        search_mod.fuse_parts = self._fuse
        try:
            yield
        finally:
            eng.__dict__.update(saved)
            search_mod.fuse_parts = traced_fuse

    def fail(self, what: str, exc: BaseException | None = None, n: int = 1) -> None:
        self.failed += n
        msg = f"perfbench: FAILED {what}"
        if exc is not None:
            msg += "\n" + "".join(traceback.format_exception(exc))
        print(msg, file=sys.stderr)

    def check(self, what: str, ok: bool) -> None:
        self.checked += 1
        if not ok:
            self.fail(f"oracle mismatch: {what}")

    # -- set-up ----------------------------------------------------------
    def setup(self) -> None:
        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        import check
        from corpus import make_corpus
        from querylog import QueryLog
        from smse_backend_ray.oracle import build_oracle_index

        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.corpus = make_corpus(self.args.seed, self.n_docs)
        self.corpus_dir = self.work / "corpus"
        self.corpus_dir.mkdir()
        pq.write_table(self.corpus, self.corpus_dir / "part-0.parquet")
        self.content_bytes = pc.sum(pc.binary_length(self.corpus["content"])).as_py()
        self.oracle = build_oracle_index(self.corpus)
        self.expected_dups = check.expected_duplicates(self.corpus)
        qlog = QueryLog(self.oracle, self.corpus["repo"].to_pylist())
        self.zipf_log = qlog.make(self.args.seed, ZIPF_LOG)
        churn = qlog.make(self.args.seed + 1_000_003, BATCH * CHURN_BATCHES * SERVE_ROUNDS,
                          first_id=10**6)
        self.churn_batches = [
            churn[i : i + BATCH] for i in range(0, len(churn), BATCH)
        ]
        ids = np.array(sorted(self.oracle.docs), dtype=np.int64)
        # each round deletes its own slice; deletes never take more than
        # half of the corpus (smoke-test sizes)
        self.delete_order = np.random.default_rng([self.args.seed, 11]).permutation(ids)[
            : len(ids) // 2].tolist()

        t0 = time.perf_counter()
        self.ray_init()
        self.pos_idx = self.work / "idx_pos"
        self.setup_build = self.build_once(self.pos_idx, with_positions=True)
        self.setup_s = time.perf_counter() - t0
        if self.setup_build is None:
            raise RuntimeError("the positional set-up build failed")

    def ray_init(self) -> None:
        import ray
        from ray.data import DataContext

        os.environ["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        kwargs = {}
        # Ray keeps AF_UNIX sockets (107-byte path limit) at <temp dir>/
        # session_<date>_<time>_<usec>_<pid>/sockets/plasma_store, 64 bytes
        # past the temp dir: use the checkout when that fits, else Ray's default
        tmp = WORK / f"r{os.getpid()}"
        if len(str(tmp)) + 64 <= 107:
            tmp.mkdir(parents=True, exist_ok=True)
            kwargs["_temp_dir"] = str(tmp)
        ray.init(
            address="local",
            num_cpus=len(os.sched_getaffinity(0)),
            object_store_memory=768 * 1024 * 1024,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            **kwargs,
        )
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    def build_once(self, idx: Path, with_positions: bool = False):
        """One fresh build, checked against the oracle. Returns (wall s,
        manifest) or None when it failed."""
        import ray

        import check
        from smse_backend_ray.config import EngineConfig
        from smse_backend_ray.pipelines.build import build_index

        shutil.rmtree(idx, ignore_errors=True)
        cfg = EngineConfig(n_shards=N_SHARDS, with_positions=with_positions)
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            with self.span("pipelines/build.build_index"):
                cat = build_index(
                    corpus=ray.data.read_parquet(str(self.corpus_dir)),
                    index_dir=str(idx), cfg=cfg,
                )
            wall = time.perf_counter() - t0
            manifest = cat.manifest()
        except Exception as e:  # a failed build is a failed operation
            self.fail(f"build_index(with_positions={with_positions})", e)
            return None
        self.check(f"build n_docs/duplicates (positions={with_positions})",
                   check.build_ok(self.oracle, manifest, self.expected_dups))
        return wall, manifest

    # -- phases ----------------------------------------------------------
    def phase_build(self) -> None:
        """``build``: default-config builds fill the window. Other workloads
        take the write-path numbers from the positional set-up build."""
        if self.args.workload == "build":
            idx, builds = self.work / "idx_default", []
            t_end = time.perf_counter() + self.seconds
            while True:
                r = self.build_once(idx)
                if r is not None:
                    builds.append(r)
                if time.perf_counter() >= t_end:
                    break
            if not builds:
                raise RuntimeError("every build failed")
        else:
            idx, builds = self.pos_idx, [self.setup_build]
        self.build_idx = idx
        # one build's wall varies by a quarter from build to build even on
        # an idle host: the median of the window's builds
        self.e2e["build_docs_per_s"] = (
            self.corpus.num_rows / _median([w for w, _ in builds]), "1/s")
        self.e2e["index_bytes_per_input_byte"] = (_dir_bytes(idx) / self.content_bytes, "ratio")
        for s in ("docs", "dedup", "stats", "segments", "df"):
            walls = [m["stages"][s]["completed_at"] - m["stages"][s]["started_at"] for _, m in builds]
            self.layer[f"build.{s}_s"] = (_median(walls), "s")
        for d in ("docs", "segments", "df"):
            self.layer[f"build.{d}_bytes"] = (float(_dir_bytes(idx / d)), "bytes")

    def open_engine(self, idx: Path):
        from smse_backend_ray.pipelines.search import SearchEngine

        t0 = time.perf_counter()
        with self.span("pipelines/search.SearchEngine"):
            eng = SearchEngine(str(idx), num_actors=NUM_ACTORS)
        load = time.perf_counter() - t0
        if self.tracer is not None:
            seen: set[str] = set()
            idf = eng.idf_weights

            def idf_weights(qtf):
                self.df_missed += sum(1 for t in qtf if t not in seen)
                seen.update(qtf)
                with self.tracer.span("pipelines/search.idf_weights"):
                    return idf(qtf)

            eng.idf_weights = idf_weights
            eng.delete_doc = self.tracer.wrap("pipelines/search.delete_doc", eng.delete_doc)
        return eng, load

    def actor_pids(self, eng) -> list[int]:
        import ray

        return ray.get([
            a.__ray_call__.remote(lambda actor: os.getpid())
            for st in eng.actor_sets for a in st
        ])

    def actor_rss_mb(self, eng) -> float:
        return sum(_vmrss_mb(p) for p in self.actor_pids(eng))

    def phase_serve(self) -> None:
        """``SERVE_ROUNDS`` rounds, each over a fresh copy of the positional
        build: open an engine, serve a slice of the zipf log in steps with
        deletes between them, then the round's churn batches, and close it.

        Other tenants of the host take CPU time from this guest in bursts of
        ten seconds and more (the steal time in /proc/stat), and a burst
        slows every serve call by up to half. Two measures keep the serve
        metrics to the program's own work:

        * each query and batch is charged the CPU time that every thread of
          the client and of the shard actors spent on it, which leaves out
          the waits for a CPU (thread CPU time still counts stolen time);
        * each figure comes from the calmer half of its time slices (zipf
          steps, churn batches), ranked by the steal share over the slice.

        Wall-clock latencies and rates are recorded with the run conditions;
        the steal shares too."""
        from querylog import CLASSES

        from smse_backend_ray.state.catalog import read_tombstones

        loads, rss, steps, batches, shipped = [], [], [], [], []
        self.zipf_want = dict(ZIPF_CHECKS)
        self.zipf_next = 0
        for r in range(SERVE_ROUNDS):
            idx = self.work / "idx_serve"
            shutil.rmtree(idx, ignore_errors=True)
            shutil.copytree(self.pos_idx, idx)
            eng, load = self.open_engine(idx)
            loads.append(load)
            try:
                pids = [os.getpid()] + self.actor_pids(eng)
                if self.tracer is not None and r == 0:
                    self.layer["serve.actor_rss_mb.start"] = (self.actor_rss_mb(eng), "MB")
                tomb: set[int] = set()
                steps += self.zipf(eng, r, pids, tomb)
                batches += self.churn(eng, r, pids, tomb, shipped)
                rss.append(self.actor_rss_mb(eng))
                if self.tracer is not None and r == SERVE_ROUNDS - 1:
                    import layers

                    self.layer["serve.actor_rss_mb.end"] = (rss[-1], "MB")
                    self.layer.update(layers.serve_layers(self, eng))
                    self.layer.update(layers.fs_layers(self, idx, tomb))
                # the engine persisted every delete it acknowledged
                self.check(f"tombstones on disk, round {r}",
                           read_tombstones(eng.ifs) == tomb)
            finally:
                eng.close()

        calm = _calm(steps)
        qs = [x for _, (q, _) in calm for x in q]  # (class, wall ms, CPU ms)
        self.n_zipf = (len(qs), sum(len(q) for _, (q, _) in steps))
        self.steal = {"zipf_steps": _median([s for s, _ in steps]),
                      "zipf_steps_kept": _median([s for s, _ in calm])}
        # an open now and then takes little more than half the usual time
        # (1.0 against 1.6-2.1 s): the median of all rounds
        self.e2e["engine_load_s"] = (_median(loads), "s")
        cpu = [c for _, _, c in qs]
        self.e2e["query_cpu_p50_ms"] = (_median(cpu), "ms")
        self.e2e["query_cpu_p99_ms"] = (_pctl(cpu, 0.99), "ms")
        wall = [w for _, w, _ in qs]
        self.wall["query_p50_ms"] = _median(wall)
        self.wall["query_p99_ms"] = _pctl(wall, 0.99)
        for c in CLASSES:
            self.e2e[f"{c}_cpu_ms"] = (_median([x for k, _, x in qs if k == c]), "ms")
            self.wall[f"{c}_p50_ms"] = _median([w for k, w, _ in qs if k == c])
        calm_b = [b for _, b in _calm(batches)]  # (wall s, CPU ms)
        self.e2e["batch_cpu_ms_per_query"] = (_median([c for _, c in calm_b]) / BATCH, "ms")
        self.wall["batch_qps"] = BATCH * len(calm_b) / sum(w for w, _ in calm_b)
        self.e2e["serve_rss_mb"] = (_median(rss), "MB")
        # a delete's cost is the atomic tombstone write, whose time follows
        # the disk's other traffic rather than the steal share: a layer
        # metric, over every step
        self.layer["fs.delete_doc_p50_ms"] = (_median([x for _, (_, d) in steps for x in d]), "ms")
        if self.tracer is not None:
            import layers

            self.tracer.request = None
            self.layer.update(layers.search_layers(self))
            self.layer["search.tombstone_ids_shipped"] = (_median(shipped), "count")
        self.verify_queries()

    def zipf(self, eng, rnd: int, pids: list[int], tomb: set[int]) -> list[tuple]:
        """Closed loop over the next slice of the zipf log, one query per
        ``search_batch`` call, caches cold at the start of the round. At
        least ``--zipf-queries`` queries; on ``query-zipf``, also until the
        round's share of the window has passed. After every ``ZIPF_STEP``
        queries, ``DELETES_PER_STEP`` seeded deletes. Returns one
        ``(steal share, ([(class, wall ms, CPU ms)], [delete ms]))`` per step."""
        import check

        window = self.args.workload == "query-zipf"
        t_end = time.perf_counter() + self.seconds / SERVE_ROUNDS
        deletes = iter(self.delete_order[rnd::SERVE_ROUNDS])
        steps = []
        n = 0
        while self.zipf_next < len(self.zipf_log) and (
            n < self.args.zipf_queries or (window and time.perf_counter() < t_end)
        ):
            lat, del_ms = [], []
            with Steal() as st, ThreadClock(pids) as clock:
                for cls, qs in self.zipf_log[self.zipf_next : self.zipf_next + ZIPF_STEP]:
                    self.zipf_next += 1
                    n += 1
                    self.attempted += 1
                    if self.tracer is not None:
                        self.tracer.request = qs.query_id
                    try:
                        c0 = clock.ms()
                        t0 = time.perf_counter()
                        with self.span("pipelines/search.search_batch"):
                            res = eng.search_batch([qs])
                        dt = time.perf_counter() - t0
                        cpu = clock.ms() - c0
                    except Exception as e:
                        self.fail(f"search {cls} {qs}", e)
                        continue
                    lat.append((cls, dt * 1000.0, cpu))
                    if self.zipf_want[cls]:
                        self.zipf_want[cls] -= 1
                        self.kept.append((f"{cls} {qs} (+{len(tomb)} tombstones)", qs,
                                          frozenset(tomb), check.engine_rows(res, qs.query_id)))
                for d in itertools.islice(deletes, DELETES_PER_STEP):
                    self.attempted += 1
                    try:
                        t0 = time.perf_counter()
                        eng.delete_doc(d)
                        del_ms.append((time.perf_counter() - t0) * 1000.0)
                        tomb.add(d)
                    except Exception as e:
                        self.fail(f"delete_doc({d})", e)
            steps.append((st.share, (lat, del_ms)))
        return steps

    def churn(self, eng, rnd: int, pids: list[int], tomb: set[int], shipped: list[int]) -> list[tuple]:
        """The round's fixed-size batches of the churn log, each measured
        after an untimed warm call of the same batch, with every delete of
        the round in force. Returns one ``(steal share, (wall s, CPU ms))``
        per batch."""
        import check

        out = []
        for batch in self.churn_batches[rnd * CHURN_BATCHES : (rnd + 1) * CHURN_BATCHES]:
            specs = [qs for _, qs in batch]
            self.attempted += len(specs)
            try:
                with Steal() as st:
                    eng.search_batch(specs)
                    with ThreadClock(pids) as clock:
                        c0 = clock.ms()
                        t0 = time.perf_counter()
                        with self.span("pipelines/search.search_batch"):
                            res = eng.search_batch(specs)
                        wall = time.perf_counter() - t0
                        cpu = clock.ms() - c0
            except Exception as e:  # every query of the batch failed
                self.fail(f"search_batch of {len(specs)}", e, n=len(specs))
                continue
            out.append((st.share, (wall, cpu)))
            # every job carries the full tombstone list to every actor
            shipped.append(len(tomb) * len(specs) * NUM_ACTORS)
            for qs in specs[:CHURN_CHECKS_PER_BATCH]:
                self.kept.append((f"churn {qs} (+{len(tomb)} tombstones)", qs,
                                  frozenset(tomb), check.engine_rows(res, qs.query_id)))
        return out

    def verify_queries(self) -> None:
        import check

        for what, qs, dead, rows in self.kept:
            self.check(what, rows == check.oracle_rows(self.oracle, qs, dead))

    # -- run -------------------------------------------------------------
    def run(self) -> dict:
        if self.tracer is not None:
            import smse_backend_ray.pipelines.search as search_mod

            self.df_missed = 0
            self._fuse = search_mod.fuse_parts
            search_mod.fuse_parts = self.tracer.wrap("functions/analyzer.fuse_parts", self._fuse)
        for phase in (self.setup, self.phase_serve, self.phase_build):
            t0 = time.perf_counter()
            phase()
            print(f"perfbench: {phase.__name__} {time.perf_counter() - t0:.1f} s", file=sys.stderr)
            if phase == self.setup:
                # the oracle and query logs stay alive all run: keep the
                # collector from rescanning them inside timed engine calls
                gc.collect()
                gc.freeze()
        if self.tracer is not None:
            import layers

            self.layer.update(layers.build_layers(self))
            metrics = self.layer
        else:
            self.e2e["setup_s"] = (self.setup_s, "s")
            metrics = self.e2e
        ok = self.failed == 0 and self.checked > 0
        return {
            "correct": ok,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in sorted(metrics.items())},
        }

    def conditions(self) -> dict:
        import numpy
        import pyarrow
        import ray

        src = hashlib.sha256()
        for p in sorted((ROOT / "smse_backend_ray").rglob("*.py")):
            src.update(p.read_bytes())
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.seconds,
            "trace": self.args.trace,
            "corpus_docs": self.n_docs,
            "corpus_content_bytes": getattr(self, "content_bytes", None),
            "shards": N_SHARDS,
            "actors": NUM_ACTORS,
            "cpus": len(os.sched_getaffinity(0)),
            "ray": ray.__version__,
            "pyarrow": pyarrow.__version__,
            "numpy": numpy.__version__,
            "git_commit": commit,
            "source_sha256": src.hexdigest()[:16],
            "loadavg_1m_start": self.load_start,
            "zipf_queries_kept_of_run": getattr(self, "n_zipf", None),
            "steal_share": getattr(self, "steal", None),
            "serve_wall": self.wall,
            "failed_share": self.failed / max(1, self.attempted),
        }

    def close(self) -> None:
        import ray

        if self.tracer is not None:
            import smse_backend_ray.pipelines.search as search_mod

            search_mod.fuse_parts = self._fuse
            self.tracer.write(WORK / f"spans-{self.args.workload}-s{self.args.seed}.json")
        # ray.shutdown() signals Ray's processes but does not wait for the
        # raylet's worker processes: wait for every process this run started
        started = _descendants(os.getpid())
        if ray.is_initialized():
            ray.shutdown()
        for p in _wait_gone(started, 20.0):
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _wait_gone(started, 10.0)
        shutil.rmtree(self.work, ignore_errors=True)
        shutil.rmtree(WORK / f"r{os.getpid()}", ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--docs", type=int, default=DEFAULT_DOCS, help="corpus size")
    ap.add_argument("--zipf-queries", type=int, default=ZIPF_QUERIES,
                    help="minimum zipf queries per serve round (smaller only for smoke tests)")
    args = ap.parse_args(argv)
    load_start = os.getloadavg()[0]
    sys.path[:0] = [str(ROOT), str(HERE)]
    try:
        import ray  # noqa: F401

        import smse_backend_ray.pipelines.search  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import the engine from {ROOT}: {e}", file=sys.stderr)
        return 2
    bench = Bench(args)
    bench.load_start = load_start
    # a terminated run still stops Ray and its workers (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = bench.run()
        cond = bench.conditions()
    finally:
        bench.close()
    print(json.dumps({"conditions": cond}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
