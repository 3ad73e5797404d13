"""Index build orchestration (SURVEY.md §3.1 re-expression).

One build = staged Ray Data jobs with persisted intermediates and a lineage
manifest (state/catalog.py). Stages:

  docs      corpus -> ingest/analyze map_batches -> docs/ parquet,
            hive-partitioned by shard_id (scorers read their shard dir
            directly; no separate doc-meta table needed). File-mode builds
            run in waves with per-partition lineage; dataset-mode builds are
            a single stage with no exchange: read + analyze run as one
            task per input block, and a separate write operator bundles
            their output blocks, >= batch_size x n_shards rows per write
            task
  dedup     exact dedup on doc_id (winner = min content_sha256; SURVEY.md
            D2): one (doc_id, content_sha256) scan per shard, then only the
            doc files that hold a losing row are rewritten, each to a new file
  stats     N / sum_dl / avgdl: sums of per-file row counts and dl sums
            -> manifest (broadcast later)
  segments  one delta-varint posting row per (term, shard) (stages/ingest.py
            encode_segments, functions/codec.py), each shard encoded
            straight from its own docs/**/shard_id=S/ files
  df        distinct (term, df) table, term-sorted for filter-pushdown reads,
            summed on the driver over every shard's (term, df_shard) rows

All index I/O goes through state/fs.IndexFS (pyarrow.fs), so ``index_dir``
may be a local path, a ``file://``/``s3://`` URI, or a (FileSystem, path)
pair — build and serve work against shared/remote storage on a multi-node
cluster (reference StorageBackend contract,
smse_backend/services/file_storage.py:32-73 + S3 impl :220-431).

Every stage writes new files under names no write reuses (a dedup rewrite
is a new file beside the one it replaces) and publishes them with one
manifest write (state/catalog.py), the stage's commit point; readers open
only the listed files, and each writer ends with Catalog.drop_unlisted. A
restart skips completed stages / partitions via the manifest.

No stage after docs runs an exchange. The docs layout co-locates a shard:
every copy of a doc_id, every id an append collides with and every segment
row sits in one docs/**/shard_id=S/ dir, so dedup, the append's collision
drop, stats and segments are each one function mapped over the doc files
per shard (or per file), and df is one driver-side group_by over the
per-shard (term, df_shard) rows. One plan at every size; the only choice
is the executor of that map (_map_doc_files): driver threads when the doc
files total <= EngineConfig.driver_agg_max_bytes on disk, else Ray tasks.
"""

from __future__ import annotations

import functools
import posixpath
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from smse_backend_ray.config import EngineConfig
from smse_backend_ray.functions.analyzer import sorted_codes
from smse_backend_ray.stages.ingest import DOC_SCHEMA_COLS, encode_segments, ingest_batch
from smse_backend_ray.state.catalog import TOMBSTONES_REL, Catalog, by_shard, read_tombstones
from smse_backend_ray.state.fs import IndexFS, new_tag

DOCS_DIR = "docs"
SEGMENTS_DIR = "segments"
DF_DIR = "df"

# stage dependency order: invalidating one invalidates all after it
STAGE_ORDER = ["docs", "dedup", "stats", "segments", "df"]


def _cluster_cpus() -> int:
    try:
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 8


# ---------------------------------------------------------------------------
# docs stage
# ---------------------------------------------------------------------------

def _docs_write_args(cfg: EngineConfig) -> dict:
    """write_parquet arguments of a hive-partitioned doc-store write.

    Every write task emits one file per shard, so unbundled, W input blocks
    become W x S small files that every later stage lists and opens. The
    write bundles its input blocks up to batch_size x n_shards rows a task
    instead: rows split by doc_id % S, so a shard's file holds about
    batch_size rows on average, and a write of R rows makes at most
    S x (R // (batch_size x S) + 1) files. The bundling sits at the write,
    not in an exchange: the blocks before it stay where their map task left
    them.

    The explicit scheduling strategy keeps the write a separate operator.
    Ray Data fuses a map into the next map operator when their remote args
    match, and a fused chain bundles its INPUT rows to the write's
    min_rows_per_file, so the analyze would run as one task per
    batch_size x n_shards input rows instead of one per block (a 100k-doc,
    8-shard build: ~12 analyze tasks whatever the core count). "DEFAULT"
    is Ray's locality-aware placement, which suits a task that reads a
    bundle of several blocks."""
    return {
        "partition_cols": ["shard_id"],
        "min_rows_per_file": cfg.batch_size * cfg.n_shards,
        "ray_remote_args": {"scheduling_strategy": "DEFAULT"},
    }


def _run_docs_from_dataset(
    corpus: "ray.data.Dataset", ifs: IndexFS, cfg: EngineConfig, rel: str = DOCS_DIR
) -> tuple["ray.data.Dataset", list[str]]:
    """Analyze ``corpus`` and write its doc files under ``rel``; returns the
    written dataset (its ``stats()`` are the docs job's) and the files."""
    # schema validation happens inside ingest_batch (corpus.schema() here
    # would trigger a separate partial execution of the upstream pipeline)
    ingest = functools.partial(ingest_batch, cfg=cfg)
    # batch_size=None: per-block batches, so the read and the analyze fuse
    # into one task per input block. An explicit batch_size here would
    # bundle MANY upstream blocks into one task and collapse parallelism;
    # the row bundling belongs to the separate write (_docs_write_args)
    docs = corpus.map_batches(ingest, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    return docs, ifs.write_dataset(docs, rel, **_docs_write_args(cfg))


def _run_docs_from_files(
    files: list[str], ifs: IndexFS, cfg: EngineConfig, cat: Catalog
) -> None:
    """Wave-committed file-mode build with per-partition lineage (one input
    file = one partition; reference Task-per-file analog,
    smse_backend/services/embedding.py:18). Each wave's commit publishes
    its doc files with its partition records, in place of any files an
    earlier run listed under the same wave dir."""
    partitions = {i: [f] for i, f in enumerate(sorted(files))}
    pending = cat.plan_partitions(partitions)
    ingest = functools.partial(ingest_batch, cfg=cfg)
    for w in range(0, len(pending), cfg.wave_size):
        wave = pending[w : w + cfg.wave_size]
        t0 = time.time()
        parts = []
        for pid in wave:
            ds = ray.data.read_parquet(partitions[pid])
            ds = ds.map_batches(
                functools.partial(_tag_partition, pid=pid), batch_format="pyarrow"
            )
            parts.append(ds)
        ds = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
        docs = ds.map_batches(ingest, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
        wave_rel = f"{DOCS_DIR}/wave_{wave[0]:06d}"
        written = ifs.write_dataset(docs, wave_rel, **_docs_write_args(cfg))
        # per-partition metrics from the written wave (columnar, cheap)
        t = pa.concat_tables(ifs.read_tables(written, columns=["partition_id", "n_bytes", "dl"]))
        g = t.group_by("partition_id").aggregate(
            [("partition_id", "count"), ("n_bytes", "sum"), ("dl", "sum")]
        )
        metrics = {
            int(r["partition_id"]): {
                "rows": int(r["partition_id_count"]),
                "bytes": int(r["n_bytes_sum"]),
                "tokens": int(r["dl_sum"]),
                "wave_secs": round(time.time() - t0, 3),
            }
            for r in g.to_pylist()
        }
        prior = [f for f in cat.files(DOCS_DIR) if not f.startswith(ifs.join(wave_rel) + "/")]
        cat.mark_partitions_done(wave, metrics, ifs.join(wave_rel), files={DOCS_DIR: prior + written})


def _tag_partition(batch: pa.Table, pid: int) -> pa.Table:
    return batch.append_column(
        "partition_id", pa.array([pid] * len(batch), type=pa.int32())
    )


# ---------------------------------------------------------------------------
# one map over the doc files (every stage after docs; see the module doc)
# ---------------------------------------------------------------------------

@ray.remote(max_retries=0)
def _doc_files_task(fn, ifs: IndexFS, items: list, *shared) -> list:
    return [fn(ifs, it, *shared) for it in items]


def _on_driver(ifs: IndexFS, paths: list[str], cfg: EngineConfig) -> bool:
    """Whether the doc files ``paths`` total <= driver_agg_max_bytes on
    disk — the executor choice of every stage after docs."""
    return ifs.total_size(paths) <= cfg.driver_agg_max_bytes


def _docs_metrics(ifs: IndexFS, paths: list[str]) -> dict:
    """The docs stage's manifest metrics: ``files``, ``bytes_written`` and
    ``rows`` (from the doc files' parquet footers)."""
    rows = sum(ifs.parquet_file(p).metadata.num_rows for p in paths)
    return {"files": len(paths), "bytes_written": ifs.total_size(paths), "rows": int(rows)}


def _map_doc_files(ifs: IndexFS, on_driver: bool, fn, items: list, *shared) -> list:
    """``[fn(ifs, item, *shared) for item in items]``: on a driver thread
    pool (the IndexFS.read_tables pattern) or as Ray tasks, one per
    CPU-sized group of items.

    Neither executor returns while an item is still running: a failure is
    raised only once every task has finished, so no write lands after the
    caller has seen it. Ray tasks are never retried — the recovery is
    always the resumed stage, which rescans."""
    if not items:
        return []
    if on_driver:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(min(8, len(items))) as ex:
            return list(ex.map(lambda it: fn(ifs, it, *shared), items))
    refs = [ray.put(s) for s in shared]
    groups = np.array_split(np.arange(len(items)), min(len(items), _cluster_cpus()))
    tasks = [_doc_files_task.remote(fn, ifs, [items[i] for i in g], *refs) for g in groups]
    ray.wait(tasks, num_returns=len(tasks))
    return [r for rs in ray.get(tasks) for r in rs]


# ---------------------------------------------------------------------------
# dedup stage (exact; SURVEY.md D2) and the append's collision drop
# ---------------------------------------------------------------------------

def _shard_dups(ifs: IndexFS, files: list[str]) -> tuple[int, list]:
    """(number of duplicated doc_ids, [(file, losing rows)]) of one shard's
    doc files. Each duplicated id keeps the row with the smallest
    (content_sha256, file path, row): equal-sha copies are identical rows,
    and the tie-break makes the pick deterministic, so a stage resumed
    after a crash picks the same row."""
    ts = ifs.read_tables(files, columns=["doc_id", "content_sha256"])
    t = pa.concat_tables(ts)
    ids = t["doc_id"].to_numpy()
    s = np.sort(ids)
    dup = np.unique(s[1:][s[1:] == s[:-1]])
    if not dup.size:
        return 0, []
    lens = [x.num_rows for x in ts]
    hit = np.flatnonzero(np.isin(ids, dup))
    file_of = np.repeat(np.arange(len(files)), lens)[hit]
    rows = (np.arange(len(ids)) - np.repeat(np.cumsum(lens) - lens, lens))[hit]
    key = pa.table({
        "doc_id": ids[hit], "sha": t["content_sha256"].take(hit), "file": file_of, "row": rows,
    })
    order = pc.sort_indices(key, sort_keys=[(c, "ascending") for c in key.column_names]).to_numpy()
    by_id = ids[hit][order]
    lose = order[np.r_[False, by_id[1:] == by_id[:-1]]]
    return dup.size, [(files[f], rows[lose[file_of[lose] == f]]) for f in np.unique(file_of[lose])]


def _shard_collisions(ifs: IndexFS, job: tuple) -> tuple[int, list]:
    """(number of colliding doc_ids, [(new file, colliding rows)]) of one
    shard: the rows of the new generation's doc files whose doc_id the
    index's doc files of the same shard already hold."""
    new_files, old_files = job
    old = [t["doc_id"].to_numpy() for t in ifs.read_tables(old_files, columns=["doc_id"])]
    old = np.concatenate(old) if old else np.empty(0, np.int64)
    hits, drops = [], []
    for f, t in zip(new_files, ifs.read_tables(new_files, columns=["doc_id"])):
        ids = t["doc_id"].to_numpy()
        rows = np.flatnonzero(np.isin(ids, old))
        if rows.size:
            hits.append(ids[rows])
            drops.append((f, rows))
    return (np.unique(np.concatenate(hits)).size if hits else 0), drops


def _rewrite_doc_file(ifs: IndexFS, job: tuple) -> tuple[int, int]:
    """Write doc file ``path`` without the rows at ``drop`` to the new file
    ``new`` (same schema); the original stays as it is."""
    path, new, drop = job
    t = ifs.read_table(path)
    keep = np.ones(t.num_rows, dtype=bool)
    keep[drop] = False
    ifs.write_table(t.filter(pa.array(keep)), new)
    return len(drop), ifs.info(new).size


def _rewrite_doc_files(ifs: IndexFS, on_driver: bool, paths: list[str], drops: list) -> tuple[dict, list[str]]:
    """Rewrite each doc file of ``drops`` (a list of (file, rows)) without
    those rows, to a new file beside it. Returns the metrics and ``paths``
    with each rewritten file replaced by its rewrite."""
    tag = new_tag()
    jobs = [
        (path, f"{posixpath.dirname(path)}/{tag}_{i:06d}.parquet", rows)
        for i, (path, rows) in enumerate(sorted(drops, key=lambda d: d[0]))
    ]
    done = _map_doc_files(ifs, on_driver, _rewrite_doc_file, jobs)
    new = {path: rewrite for path, rewrite, _ in jobs}
    return {
        "files_rewritten": len(jobs),
        "rows_dropped": int(sum(n for n, _ in done)),
        "bytes_written": int(sum(b for _, b in done)),
    }, [new.get(p, p) for p in paths]


def _run_dedup(ifs: IndexFS, cfg: EngineConfig, paths: list[str]) -> dict:
    """Exact dedup on doc_id (SURVEY.md D2) over the doc files ``paths``:
    one row per id, the one with the smallest content_sha256. Every copy of
    an id sits in one shard, so detection and the winner pick are one scan
    of (doc_id, content_sha256) per shard (_shard_dups); then only the doc
    files that hold a losing row are rewritten, each to a new file.

    Returns the stage metrics plus, under ``"docs"``, ``paths`` with each
    rewritten file replaced by its rewrite, for the caller to publish."""
    on_driver = _on_driver(ifs, paths, cfg)
    found = _map_doc_files(ifs, on_driver, _shard_dups, list(by_shard(ifs, paths).values()))
    m, docs = _rewrite_doc_files(ifs, on_driver, paths, [d for _, ds in found for d in ds])
    return {"duplicates": sum(n for n, _ in found), **m, "docs": docs}


# ---------------------------------------------------------------------------
# stats / segments / df stages
# ---------------------------------------------------------------------------

def _file_stats(ifs: IndexFS, path: str) -> tuple[int, int]:
    dl = ifs.read_table(path, columns=["dl"])["dl"]
    return len(dl), int(pc.sum(dl).as_py() or 0)


def _run_stats(ifs: IndexFS, cfg: EngineConfig, paths: list[str]) -> dict:
    """N and sum(dl) of the doc files ``paths``: sums of every file's row
    count and dl sum."""
    done = _map_doc_files(ifs, _on_driver(ifs, paths, cfg), _file_stats, paths)
    n_docs = sum(n for n, _ in done)
    sum_dl = sum(s for _, s in done)
    return {
        "n_docs": n_docs,
        "sum_dl": sum_dl,
        "avgdl": (sum_dl / n_docs) if n_docs else 0.0,
    }


def _run_segments(ifs: IndexFS, cfg: EngineConfig, paths: list[str]) -> tuple[dict, list[str]]:
    """Doc files ``paths`` -> one new segments/shard_id=S/<tag>.parquet per
    shard: one row per (term, shard) holding the delta-varint posting
    streams (stages/ingest.encode_segments).

    A segment row never spans shards, so each shard's segment table is
    encoded straight from its own docs/**/shard_id=S/ files (_encode_shard).
    The unit of memory is one shard's postings, the unit a packed serve
    actor holds.

    Returns the stage metrics (``postings`` (sum of df_shard),
    ``segment_rows``, ``bytes_written``, ``bytes_per_posting``) and the
    written files."""
    tag = new_tag()
    jobs = [(s, files, f"{SEGMENTS_DIR}/shard_id={s}/{tag}.parquet")
            for s, files in sorted(by_shard(ifs, paths).items())]
    done = _map_doc_files(ifs, _on_driver(ifs, paths, cfg), _encode_shard, jobs, cfg)
    rows, postings, size = (sum(col) for col in zip(*done)) if done else (0, 0, 0)
    return {
        "postings": postings,
        "segment_rows": rows,
        "bytes_written": size,
        "bytes_per_posting": round(size / postings, 3) if postings else 0.0,
    }, [ifs.join(job[2]) for job, d in zip(jobs, done) if d[0]]


def _encode_shard(ifs: IndexFS, job: tuple, cfg: EngineConfig) -> tuple[int, int, int]:
    """(segment rows, postings, file bytes) of one shard's segment file
    ``out``, encoded from the shard's doc files: flatten the per-doc term
    lists, then encode_segments. A shard without postings writes no file."""
    shard, files, out = job
    cols = ["doc_id", "dl", "terms", "tfs"] + (["poss"] if cfg.with_positions else [])
    t = pa.concat_tables(ifs.read_tables(files, columns=cols))
    lens = pc.list_value_length(t["terms"]).to_numpy()

    def flat(col: str) -> np.ndarray:
        return pc.list_flatten(t[col]).to_numpy().astype(np.int64, copy=False)

    codes, term_dict = sorted_codes(pc.list_flatten(t["terms"]))
    seg = encode_segments(
        codes, term_dict,
        np.repeat(t["doc_id"].to_numpy(), lens), flat("tfs"), np.repeat(t["dl"].to_numpy(), lens),
        cfg, flat("poss") if cfg.with_positions else None,
    )
    if not seg.num_rows:
        return 0, 0, 0
    ifs.mkdirs(posixpath.dirname(out))
    ifs.write_table(seg.drop_columns(["shard_id"]), out)
    return seg.num_rows, int(pc.sum(seg["df_shard"]).as_py()), ifs.info(out).size


def _run_df(ifs: IndexFS, seg_paths: list[str]) -> tuple[dict, list[str]]:
    """df(term) = sum of per-(generation, shard) posting counts: each
    segment row covers a disjoint doc set, so the integer sum is the global
    df. One group_by on the driver over every segment file's
    (term, df_shard) rows — O(segment rows) time and memory — written as
    one new term-sorted file (filter-pushdown reads; SearchEngine keeps it
    resident). Returns the stage metrics (``terms``, ``bytes_written``) and
    the file."""
    ts = ifs.read_tables(seg_paths, columns=["term", "df_shard"])
    t = pa.concat_tables(ts) if ts else pa.table(
        {"term": pa.array([], pa.string()), "df_shard": pa.array([], pa.int64())}
    )
    g = t.group_by("term").aggregate([("df_shard", "sum")])
    # select by NAME: pyarrow group_by column order has differed across
    # versions; a positional rename would silently swap term/df
    df = pa.table({"term": g["term"], "df": g["df_shard_sum"]}).sort_by("term")
    out = f"{DF_DIR}/{new_tag()}.parquet"
    ifs.mkdirs(DF_DIR)
    ifs.write_table(df, out)
    return {"terms": df.num_rows, "bytes_written": ifs.info(out).size}, [ifs.join(out)]


# ---------------------------------------------------------------------------
# public entry
# ---------------------------------------------------------------------------

def build_index(
    corpus: "ray.data.Dataset | None" = None,
    index_dir="",
    cfg: EngineConfig | None = None,
    input_files: list[str] | None = None,
    resume: bool = True,
) -> Catalog:
    """Build (or resume) a full index under ``index_dir`` (any IndexFS
    location: local path, URI, or (FileSystem, path) pair).

    Exactly one of ``corpus`` (a Dataset) or ``input_files`` (parquet paths,
    enables per-partition lineage/resume) must be given.
    """
    assert (corpus is None) != (input_files is None), "pass corpus XOR input_files"
    cfg = cfg or EngineConfig()
    cfg.validate()
    cat = Catalog(index_dir)
    ifs = cat.ifs
    if not resume:
        cat.invalidate_from(STAGE_ORDER)

    from dataclasses import asdict

    cat.set_config({**asdict(cfg), "analyzer": "code-v1"})

    if not cat.stage_done("docs"):
        cat.mark_stage("docs", "running")
        if input_files is not None:
            _run_docs_from_files(input_files, ifs, cfg, cat)
            docs = cat.files(DOCS_DIR)
        else:
            _, docs = _run_docs_from_dataset(corpus, ifs, cfg)
        cat.mark_stage("docs", "done", _docs_metrics(ifs, docs), files={DOCS_DIR: docs})

    if not cat.stage_done("dedup"):
        cat.mark_stage("dedup", "running")
        m, files = {"duplicates": "skipped"}, None
        if cfg.dedup:
            m = _run_dedup(ifs, cfg, cat.files(DOCS_DIR))
            files = {DOCS_DIR: m.pop("docs")}
        cat.mark_stage("dedup", "done", m, files=files)

    if not cat.stage_done("stats"):
        cat.mark_stage("stats", "running")
        stats = _run_stats(ifs, cfg, cat.files(DOCS_DIR))
        cat.mark_stage("stats", "done", stats, stats=stats)

    if not cat.stage_done("segments"):
        cat.mark_stage("segments", "running")
        m, segs = _run_segments(ifs, cfg, cat.files(DOCS_DIR))
        cat.mark_stage("segments", "done", m, files={SEGMENTS_DIR: segs})

    if not cat.stage_done("df"):
        cat.mark_stage("df", "running")
        m, df = _run_df(ifs, cat.files(SEGMENTS_DIR))
        cat.mark_stage("df", "done", m, files={DF_DIR: df})

    cat.drop_unlisted()
    return cat


# ---------------------------------------------------------------------------
# incremental append (segment generations)
# ---------------------------------------------------------------------------
#
# Reference analog: uploading new files into the LIVE index (POST
# /api/contents -> embedding task inserts rows beside the existing ones,
# smse_backend/routes/content.py + services/embedding.py) — the reference
# never rebuilds its pgvector table to add a document. Here an append builds
# a new segment GENERATION with the same staged pipeline as a base build and
# merges it in: generations hold disjoint doc sets, so N/sum_dl/df merge as
# exact integer sums and search over the appended index is BITWISE equal to
# a full rebuild of the union corpus (tests/test_append.py).


def _gen_docs_rel(gen: int) -> str:
    return f"{DOCS_DIR}/gen_{gen:06d}"


def _append_collisions(
    ifs: IndexFS, cfg: EngineConfig, old_paths: list[str], new_paths: list[str]
) -> tuple[int, list[str]]:
    """Drop from the new generation's doc files ``new_paths`` every row
    whose doc_id the index's doc files ``old_paths`` already hold
    (existence-check first-wins, SURVEY.md D3: the OLD document survives —
    the reference's unique content_path constraint keeps the first upload,
    smse_backend/models/content.py:11). An id and its copies share a shard,
    so each shard's new files are checked against the index's files of the
    same shard only, on driver threads when both sides' doc files are under
    the budget. Returns the number of colliding ids and the new
    generation's doc files after the drop."""
    on_driver = _on_driver(ifs, new_paths, cfg) and _on_driver(ifs, old_paths, cfg)
    old = by_shard(ifs, old_paths)
    jobs = [(files, old.get(s, [])) for s, files in by_shard(ifs, new_paths).items()]
    found = _map_doc_files(ifs, on_driver, _shard_collisions, jobs)
    _, new_paths = _rewrite_doc_files(ifs, on_driver, new_paths, [d for _, ds in found for d in ds])
    return sum(n for n, _ in found), new_paths


def _check_cfg(cat: Catalog, cfg: EngineConfig | None) -> EngineConfig:
    """``cfg``, or the config pinned in the manifest when it is None. The
    index's files encode n_shards (the docs/segments shard dirs),
    block_size (the delta resets of every posting stream) and
    with_positions (the segment columns), so a config that differs from the
    manifest on any of them would write a generation the engine cannot
    serve: refuse it before anything is written."""
    pinned = EngineConfig.from_dict(cat.get_config())
    if cfg is None:
        return pinned
    for f in ("n_shards", "block_size", "with_positions"):
        if getattr(cfg, f) != getattr(pinned, f):
            raise ValueError(
                f"cfg.{f}={getattr(cfg, f)!r} does not match the index's "
                f"{f}={getattr(pinned, f)!r}"
            )
    return cfg


def _base_catalog(index_dir, op: str) -> Catalog:
    cat = Catalog(index_dir)
    for s in STAGE_ORDER:
        if not cat.stage_done(s):
            raise RuntimeError(f"{op} requires a completed base build (stage {s!r} not done)")
    return cat


def append_index(
    corpus: "ray.data.Dataset",
    index_dir="",
    cfg: EngineConfig | None = None,
) -> Catalog:
    """Add documents to an EXISTING index without rebuilding it.

    The new docs run the same staged pipeline as a base build (ingest ->
    within-batch dedup -> stats -> shard-local segments) and commit as
    generation G: doc files under ``docs/gen_{G}/shard_id=*``, one new
    segment file per shard beside the live ones in ``segments/shard_id=*/``
    (uniform directory depth — shard discovery and parquet pushdown keep
    working unchanged), a new df file (the exact integer re-rollup over
    every generation) and the merged stats.

    Docs whose doc_id already exists are dropped (D3 existence-check
    first-wins). Segment rows hold only doc ids, tfs and dls, so every score
    is computed at query time from the merged avgdl and results stay exactly
    equal to a full rebuild. Crash safety: every file the append writes is
    new and unlisted until ONE manifest write publishes them all with the
    generation record and the merged stats; a crash before it leaves the
    index as it was, and the files it wrote are garbage for
    Catalog.drop_unlisted (which ends every writer). Engines open on the
    old manifest keep serving the old index — (re)open engines after
    append, the same eventual-visibility contract as tombstones
    (SURVEY.md §2.9).
    """
    cat = _base_catalog(index_dir, "append")
    ifs = cat.ifs
    cfg = _check_cfg(cat, cfg)
    cfg.validate()
    gen = max((int(g) for g in cat.generations()), default=0) + 1

    _, new = _run_docs_from_dataset(corpus, ifs, cfg, _gen_docs_rel(gen))
    if cfg.dedup:
        new = _run_dedup(ifs, cfg, new)["docs"]
    pre_stats = _run_stats(ifs, cfg, new)
    n_coll, new = _append_collisions(ifs, cfg, cat.files(DOCS_DIR), new)
    if pre_stats["n_docs"] == 0 or n_coll == pre_stats["n_docs"]:
        # nothing new (empty input, or every doc already indexed): no-op
        cat.drop_unlisted()
        return cat

    gen_stats = _run_stats(ifs, cfg, new) if n_coll else pre_stats
    base = cat.get_stats()
    n_docs = int(base["n_docs"]) + int(gen_stats["n_docs"])
    sum_dl = int(base["sum_dl"]) + int(gen_stats["sum_dl"])
    merged = {"n_docs": n_docs, "sum_dl": sum_dl, "avgdl": sum_dl / n_docs}

    segs = cat.files(SEGMENTS_DIR) + _run_segments(ifs, cfg, new)[1]
    rec = {
        "status": "done",
        "n_docs": int(gen_stats["n_docs"]),
        "sum_dl": int(gen_stats["sum_dl"]),
        "dropped_existing": n_coll,
        "committed_at": time.time(),
    }
    files = {DOCS_DIR: cat.files(DOCS_DIR) + new, SEGMENTS_DIR: segs, DF_DIR: _run_df(ifs, segs)[1]}
    cat.commit_generation(gen, rec, merged, files)
    cat.drop_unlisted()
    return cat


# ---------------------------------------------------------------------------
# compaction / vacuum
# ---------------------------------------------------------------------------

def compact_index(index_dir, cfg: EngineConfig | None = None, vacuum: bool = True) -> Catalog:
    """Merge all segment generations back into one (and, with ``vacuum``,
    physically drop tombstoned docs).

    Appends leave one segment row per (term, shard, generation) and deletes
    leave tombstone filtering on the query path; both stay exact but cost
    per-query work that grows with every append/delete. Compaction rewrites
    the doc store flat (``docs/shard_id=*``), re-encodes ONE segment
    generation, re-rolls df, sets the post-vacuum stats, resets
    tombstones — bitwise-identical search results to a full rebuild of the
    surviving corpus (tests/test_compact.py). Reference analog: the
    reference's delete semantics refresh corpus statistics "at the next
    rebuild" (DELETE /api/contents, smse_backend/routes/content.py) — this
    IS that rebuild, without re-ingesting content.

    Crash safety: the new doc, segment and df files are written beside the
    old ones, and ONE manifest write publishes them with the new stats and
    the collapsed generation records; until it lands, readers open the old
    files, which stay on disk (Catalog.drop_unlisted keeps the files the
    previous file commit listed, for engines still opening on it). Then the
    vacuumed ids are subtracted from the tombstones: until that write, the
    stale ids only filter docs that no longer exist. Deletes issued WHILE
    compaction runs are preserved (only the vacuumed set is subtracted,
    never a blind reset). With ``vacuum=False`` (merge generations only)
    tombstones are left untouched and keep filtering.
    """
    cat = _base_catalog(index_dir, "compact")
    ifs = cat.ifs
    cfg = _check_cfg(cat, cfg)
    cfg.validate()

    tombs: list[int] = sorted(read_tombstones(ifs)) if vacuum else []
    if not tombs and not cat.generations():
        return cat  # single generation, nothing tombstoned: no-op

    cat.mark_stage("compact", "running")

    # 1. flatten the doc store: the listed doc files (generation/wave dirs
    # nest at mixed depths and file-mode files carry an extra partition_id
    # column — projecting the frozen doc schema unifies both), drop
    # tombstoned rows, re-derive shard_id (doc_id scheme is frozen:
    # shard = doc_id % n_shards)
    tomb_ref = ray.put(np.asarray(tombs, dtype=np.int64))
    n_shards = cfg.n_shards

    def reshard(t: pa.Table) -> pa.Table:
        dead = ray.get(tomb_ref)
        if dead.size:
            t = t.filter(pc.invert(pc.is_in(t["doc_id"], value_set=pa.array(dead))))
        shard = t["doc_id"].to_numpy() % n_shards  # same numpy mod as ingest_batch
        return t.append_column("shard_id", pa.array(shard, type=pa.int32()))

    doc_cols = DOC_SCHEMA_COLS + (["poss"] if cfg.with_positions else [])
    docs = cat.ray_dataset(DOCS_DIR, columns=doc_cols).map_batches(
        reshard, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    docs = ifs.write_dataset(docs, DOCS_DIR, **_docs_write_args(cfg))

    # 2. stats over the surviving corpus, one fresh segment generation, df
    stats = _run_stats(ifs, cfg, docs)
    segs = _run_segments(ifs, cfg, docs)[1]
    files = {DOCS_DIR: docs, SEGMENTS_DIR: segs, DF_DIR: _run_df(ifs, segs)[1]}
    cat.mark_stage("compact", "done", {"vacuumed": len(tombs)}, files=files, stats=stats, generations={})

    # 3. visibility cleanup: the vacuumed ids are now physically gone —
    # subtract exactly them, preserving any tombstones added while this
    # compaction ran (those docs survive in the new docs/segments and must
    # keep filtering)
    if vacuum and tombs:
        live = read_tombstones(ifs)
        ifs.write_json_atomic(TOMBSTONES_REL, sorted(live - set(tombs)))
    cat.drop_unlisted()
    return cat
