"""Per-layer metrics of a traced run.

Spans recorded around the engine's public calls give the engine-side serve
layers; in-process probes give the layers that run inside Ray tasks and
actors (ingest, codec, shard scoring), each on a fixed seeded input:

  pipelines/build   stage walls from ``Catalog.manifest()``, output sizes
  stages/ingest     ``ingest_batch``, ``explode_preagg_batch``,
                    ``BucketEncoder`` throughput; shuffle-group skew
  functions/codec   encoded bytes per posting, ``decode_postings`` rate
  pipelines/search  analyze, df lookup, gather overhead, tombstones shipped
  stages/scorer     ``ShardIndex`` load, per-class score time, decode time,
                    postings scanned, results per posting
  state/fs          tombstone file size, atomic tombstone write time
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from querylog import CLASSES

PROBE_PER_CLASS = 10
INGEST_PROBE_DOCS = 2000


def _median(xs) -> float:
    return float(statistics.median(xs))


def _timed(fn, reps: int = 3) -> float:
    """Median wall seconds of ``reps`` calls."""
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return _median(walls)


# -- pipelines/search ---------------------------------------------------------

def search_layers(b) -> dict:
    """Driver-side steps of the zipf phase, from its spans: median analyze
    time per query, and mean df-lookup time per query (the median query hits
    the df cache; the cold-term misses carry the cost)."""
    t = b.tracer
    df = list(t.per_request("pipelines/search.idf_weights").values())
    return {
        "search.analyze_us": (
            _median(t.per_request("functions/analyzer.fuse_parts").values()) * 1e6, "us"),
        "search.df_lookup_ms": (sum(df) / len(df) * 1e3, "ms"),
        "search.df_terms_missed": (float(b.df_missed), "count"),
    }


# -- stages/scorer + gather + tracing overhead --------------------------------

def _job(oracle, qs) -> dict:
    """Scoring inputs of one query, as ``SearchEngine`` derives them (fused qtf,
    term-ascending qtf*idf weights, excluded terms)."""
    from smse_backend_ray.config import NEAR_DEFAULT_SLOP, SHARD_CANDIDATE_K
    from smse_backend_ray.functions import bm25
    from smse_backend_ray.functions.analyzer import tokenize
    from smse_backend_ray.functions.fusion import fuse_parts

    qtf, _ = fuse_parts(list(qs.parts))
    terms = [t for t in sorted(qtf) if oracle.df(t)]
    return {
        "mode": qs.mode,
        "terms": terms,
        "weights": [qtf[t] * bm25.idf(oracle.n_docs, oracle.df(t)) for t in terms],
        "phrase": tokenize(qs.parts[0]) if qs.mode == "phrase" else None,
        "slop": NEAR_DEFAULT_SLOP if qs.slop is None else qs.slop,
        "scope": qs.scope,
        "k": max(qs.limit, SHARD_CANDIDATE_K),
        "exclude": sorted({t for p in qs.exclude for t in tokenize(p)}),
    }


def _score(sh, job) -> dict:
    tomb = sh.excluded_ids(job["exclude"]) if job["exclude"] else None
    args = (job["terms"], job["weights"])
    kw = {"scope": job["scope"], "k": job["k"], "tombstones": tomb}
    if job["mode"] == "phrase":
        return sh.score_phrase(job["phrase"], *args, **kw)
    if job["mode"] == "near":
        return sh.score_near(*args, job["slop"], **kw)
    if job["mode"] == "and":
        return sh.score_conj(*args, **kw)
    return sh.score_query(*args, **kw)


def serve_layers(b, eng) -> dict:
    """In-process ``ShardIndex`` probes of the scorer, plus the gather
    overhead and tracing overhead measured on the open (warm) engine."""
    from smse_backend_ray.config import BM25Params
    from smse_backend_ray.stages.scorer import ShardIndex
    from smse_backend_ray.state.catalog import Catalog

    cat = Catalog(str(b.pos_idx))
    cfg, stats = cat.get_config(), cat.get_stats()
    params = BM25Params(**cfg["bm25"])
    loads, shards = [], []
    for s in range(cfg["n_shards"]):
        t0 = time.perf_counter()
        shards.append(ShardIndex(str(b.pos_idx), s, stats["avgdl"], params, cfg.get("block_size", 128)))
        loads.append(time.perf_counter() - t0)

    probe = {c: [qs for cls, qs in b.zipf_log if cls == c][:PROBE_PER_CLASS] for c in CLASSES}
    oracle = b.oracle
    score_ms: dict[str, list[float]] = {c: [] for c in CLASSES}
    scanned: dict[str, list[int]] = {c: [] for c in CLASSES}
    decode_ms, gather_ms, overhead = [], [], []
    warm_ns = postings = results = 0
    for cls, specs in probe.items():
        for i, qs in enumerate(specs):
            job = _job(oracle, qs)
            cold, warm, n_res = [], [], 0
            for sh in shards:
                t0 = time.perf_counter()
                _score(sh, job)
                t1 = time.perf_counter()
                r = _score(sh, job)
                t2 = time.perf_counter()
                cold.append(t1 - t0)
                warm.append(t2 - t1)
                n_res += len(r["doc_id"])
            n_post = sum(oracle.df(t) for t in set(job["terms"]) | set(job["exclude"]))
            score_ms[cls].append(max(warm) * 1e3)
            scanned[cls].append(n_post)
            decode_ms.append(max(c - w for c, w in zip(cold, warm)) * 1e3)
            warm_ns += sum(warm) * 1e9
            postings += n_post
            results += n_res

            # gather: engine wall minus engine-side steps minus the slowest shard
            eng.search_batch([qs])  # warm this query's actor caches
            rid = ("gather", qs.query_id)
            b.tracer.request = rid
            t0 = time.perf_counter()
            eng.search_batch([qs])
            wall = time.perf_counter() - t0
            b.tracer.request = None
            engine_side = sum(
                b.tracer.durations(n, request=rid)[0]
                for n in ("functions/analyzer.fuse_parts", "pipelines/search.idf_weights")
            )
            gather_ms.append((wall - engine_side - max(warm)) * 1e3)

            # tracing overhead: the same warm call with and without spans,
            # alternating which goes first
            walls = {}
            for traced in ((False, True) if i % 2 else (True, False)):
                with (nullcontext() if traced else b.untraced(eng)):
                    t0 = time.perf_counter()
                    with (b.tracer.span("pipelines/search.search_batch") if traced else nullcontext()):
                        eng.search_batch([qs])
                    walls[traced] = time.perf_counter() - t0
            overhead.append(walls[True] / walls[False] - 1.0)

    out = {
        "scorer.shard_load_s": (_median(loads), "s"),
        "scorer.decode_ms": (_median(decode_ms), "ms"),
        "scorer.ns_per_posting": (warm_ns / postings, "ns"),
        "scorer.results_per_kposting": (1000.0 * results / postings, "ratio"),
        "search.gather_ms": (_median(gather_ms), "ms"),
        "tracing.overhead_frac": (_median(overhead), "ratio"),
    }
    for c in CLASSES:
        out[f"scorer.score_ms.{c}"] = (_median(score_ms[c]), "ms")
        out[f"scorer.postings_scanned.{c}"] = (_median(scanned[c]), "count")
    return out


# -- state/fs -----------------------------------------------------------------

def fs_layers(b, idx, tomb: set[int]) -> dict:
    from smse_backend_ray.state.fs import IndexFS

    probe = IndexFS(str(b.work / "fs_probe"))
    probe.mkdirs()
    ids = sorted(tomb)
    walls = []
    for _ in range(20):
        t0 = time.perf_counter()
        probe.write_json_atomic("tombstones.json", ids)
        walls.append(time.perf_counter() - t0)
    return {
        "fs.tombstones_bytes": (float((idx / "tombstones.json").stat().st_size), "bytes"),
        "fs.delete_write_ms": (_median(walls) * 1e3, "ms"),
    }


# -- stages/ingest + functions/analyzer + functions/codec ---------------------

def build_layers(b) -> dict:
    from smse_backend_ray.config import EngineConfig
    from smse_backend_ray.functions.codec import decode_postings
    from smse_backend_ray.stages.ingest import (
        BucketEncoder,
        cfg_buckets,
        explode_preagg_batch,
        ingest_batch,
    )
    from smse_backend_ray.state.catalog import Catalog

    cfg = EngineConfig(n_shards=b.n_shards)
    stats = Catalog(str(b.build_idx)).get_stats()
    nb = cfg_buckets(cfg, n_docs=int(stats["n_docs"]))

    batch = b.corpus.slice(0, INGEST_PROBE_DOCS)
    docs = ingest_batch(batch, cfg)
    flat_rows = int(pc.sum(pc.list_value_length(docs["terms"])).as_py())
    runs = explode_preagg_batch(docs, nb, b.n_shards)
    runs = runs.take(pc.sort_indices(runs["skey"]))
    keys = runs["skey"].to_numpy()
    cuts = np.concatenate(([0], np.flatnonzero(np.diff(keys)) + 1, [len(keys)]))
    groups = [runs.slice(s, e - s) for s, e in zip(cuts[:-1], cuts[1:])]
    enc = BucketEncoder(stats["avgdl"], cfg)
    n_postings = int(pc.sum(runs["n"]).as_py())
    out = {
        "ingest.docs_per_s": (batch.num_rows / _timed(lambda: ingest_batch(batch, cfg)), "1/s"),
        "ingest.explode_rows_per_s": (
            flat_rows / _timed(lambda: explode_preagg_batch(docs, nb, b.n_shards)), "1/s"),
        "ingest.encode_postings_per_s": (
            n_postings / _timed(lambda: [enc(g) for g in groups]), "1/s"),
    }

    # shuffle-group skew over the whole corpus, batched as the build batches
    analyzed = pa.concat_tables(
        ingest_batch(b.corpus.slice(i, 2048), cfg) for i in range(0, b.corpus.num_rows, 2048)
    )
    step = max(cfg.batch_size, 8192)
    skeys = np.concatenate([
        explode_preagg_batch(analyzed.slice(i, step), nb, b.n_shards)["skey"].to_numpy()
        for i in range(0, analyzed.num_rows, step)
    ])
    _, counts = np.unique(skeys, return_counts=True)
    out["ingest.skey_skew"] = (float(counts.max() / np.median(counts)), "ratio")

    # codec: encoded posting bytes of the workload's build, and decode rate
    seg = Catalog(str(b.build_idx)).ifs.pads_dataset("segments", partitioning="hive").to_table(
        columns=["shard_id", "df_shard", "docs_bytes", "tfs_bytes", "dls_bytes"]
    )
    enc_bytes = sum(
        pc.sum(pc.binary_length(seg[c])).as_py() for c in ("docs_bytes", "tfs_bytes", "dls_bytes")
    )
    out["codec.bytes_per_posting"] = (enc_bytes / pc.sum(seg["df_shard"]).as_py(), "bytes")
    shard0 = seg.filter(pc.equal(seg["shard_id"], 0))
    rows = shard0.select(["docs_bytes", "tfs_bytes", "dls_bytes"]).to_pylist()
    block = int(cfg.block_size)
    wall = _timed(lambda: [decode_postings(r, block) for r in rows])
    out["codec.decode_postings_per_s"] = (pc.sum(shard0["df_shard"]).as_py() / wall, "1/s")
    return out
