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
            doc files that hold a losing row are rewritten, in place
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

Every stage writes to a temp dir and renames on success (idempotent commit;
dedup renames each rewritten file over its original); a restart skips
completed stages / partitions via the manifest.

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
import re
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from smse_backend_ray.config import EngineConfig
from smse_backend_ray.functions.analyzer import sorted_codes
from smse_backend_ray.stages.ingest import DOC_SCHEMA_COLS, encode_segments, ingest_batch
from smse_backend_ray.state.catalog import TOMBSTONES_REL, Catalog, read_tombstones
from smse_backend_ray.state.fs import IndexFS

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


def _run_docs_from_dataset(corpus: "ray.data.Dataset", ifs: IndexFS, cfg: EngineConfig) -> "ray.data.Dataset":
    """Analyze ``corpus`` and write the doc store; returns the written
    dataset (its ``stats()`` are the docs job's)."""
    # schema validation happens inside ingest_batch (corpus.schema() here
    # would trigger a separate partial execution of the upstream pipeline)
    ingest = functools.partial(ingest_batch, cfg=cfg)
    # batch_size=None: per-block batches, so the read and the analyze fuse
    # into one task per input block. An explicit batch_size here would
    # bundle MANY upstream blocks into one task and collapse parallelism;
    # the row bundling belongs to the separate write (_docs_write_args)
    docs = corpus.map_batches(ingest, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    ifs.atomic_write_dataset(docs, DOCS_DIR, **_docs_write_args(cfg))
    return docs


def _run_docs_from_files(
    files: list[str], ifs: IndexFS, cfg: EngineConfig, cat: Catalog
) -> None:
    """Wave-committed file-mode build with per-partition lineage (one input
    file = one partition; reference Task-per-file analog,
    smse_backend/services/embedding.py:18)."""
    ifs.mkdirs(DOCS_DIR)
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
        ifs.atomic_write_dataset(docs, wave_rel, **_docs_write_args(cfg))
        # per-partition metrics from the written wave (columnar, cheap)
        t = ifs.pads_dataset(wave_rel).to_table(columns=["partition_id", "n_bytes", "dl"])
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
        cat.mark_partitions_done(wave, metrics, ifs.join(wave_rel))


def _tag_partition(batch: pa.Table, pid: int) -> pa.Table:
    return batch.append_column(
        "partition_id", pa.array([pid] * len(batch), type=pa.int32())
    )


# ---------------------------------------------------------------------------
# one map over the doc files (every stage after docs; see the module doc)
# ---------------------------------------------------------------------------

# a doc file's shard, from its hive dir — matched with the trailing "/" the
# way ShardIndex matches it, so shard 1 never picks up shard_id=10
_SHARD_DIR = re.compile(r"/shard_id=(\d+)/")

# root-level staging dir of the per-file doc rewrite: outside docs/, so no
# reader of docs/ ever sees a staged file, and *.tmp, so Catalog.gc collects
# what a crash leaves behind
_REWRITE_TMP = DOCS_DIR + "_rewrite.tmp"


@ray.remote(max_retries=0)
def _doc_files_task(fn, ifs: IndexFS, items: list, *shared) -> list:
    return [fn(ifs, it, *shared) for it in items]


def _doc_files(ifs: IndexFS, cfg: EngineConfig) -> tuple[list[str], int, bool]:
    """Sorted full paths of the docs/ parquet files, their total bytes on
    disk, and whether that total is <= driver_agg_max_bytes (sizes from the
    one listing, no footer reads) — the executor choice of every stage
    after docs."""
    infos = sorted(
        (i for i in ifs.list_infos(DOCS_DIR, recursive=True)
         if i.is_file and i.path.endswith(".parquet")),
        key=lambda i: i.path,
    )
    size = sum(i.size for i in infos)
    return [i.path for i in infos], size, size <= cfg.driver_agg_max_bytes


def _docs_metrics(ifs: IndexFS, cfg: EngineConfig) -> dict:
    """The docs stage's manifest metrics: ``files`` and ``bytes_written``
    from the one listing of _doc_files, ``rows`` from the doc files'
    parquet footers."""
    paths, size, _ = _doc_files(ifs, cfg)
    rows = sum(ifs.parquet_file(p).metadata.num_rows for p in paths)
    return {"files": len(paths), "bytes_written": size, "rows": int(rows)}


def _by_shard(ifs: IndexFS, paths: list[str]) -> dict[int, list[str]]:
    """``paths`` grouped by their hive shard_id dir, in input order."""
    out: dict[int, list[str]] = {}
    for p in paths:
        out.setdefault(int(_SHARD_DIR.search(p[len(ifs.root):]).group(1)), []).append(p)
    return out


def _map_doc_files(ifs: IndexFS, on_driver: bool, fn, items: list, *shared) -> list:
    """``[fn(ifs, item, *shared) for item in items]``: on a driver thread
    pool (the IndexFS.read_tables pattern) or as Ray tasks, one per
    CPU-sized group of items.

    Neither executor repeats an item or returns while one is still running:
    a doc rewrite drops rows by the positions its scan saw, so a second run
    over the rewritten file would drop the wrong rows. Ray tasks are never
    retried, and a failure is raised only once every task has finished —
    the recovery is always the resumed stage, which rescans."""
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
    """Rewrite one doc file without the rows at ``drop``: same schema, staged
    under the root-level *.tmp dir, then moved over the original."""
    path, staged, drop = job
    t = ifs.read_table(path)
    keep = np.ones(t.num_rows, dtype=bool)
    keep[drop] = False
    ifs.write_table(t.filter(pa.array(keep)), staged)
    size = ifs.info(staged).size
    ifs.replace(staged, path)
    return len(drop), size


def _rewrite_doc_files(ifs: IndexFS, on_driver: bool, drops: list) -> dict:
    """Rewrite each doc file of ``drops`` (a list of (file, rows)) in place
    without those rows; files are rewritten in path order."""
    if not drops:
        return {"files_rewritten": 0, "rows_dropped": 0, "bytes_written": 0}
    if ifs.exists(_REWRITE_TMP):
        ifs.delete_dir(_REWRITE_TMP)
    ifs.mkdirs(_REWRITE_TMP)
    jobs = [
        (path, f"{_REWRITE_TMP}/{i:06d}.parquet", rows)
        for i, (path, rows) in enumerate(sorted(drops, key=lambda d: d[0]))
    ]
    done = _map_doc_files(ifs, on_driver, _rewrite_doc_file, jobs)
    ifs.delete_dir(_REWRITE_TMP)
    return {
        "files_rewritten": len(jobs),
        "rows_dropped": int(sum(n for n, _ in done)),
        "bytes_written": int(sum(b for _, b in done)),
    }


def _run_dedup(ifs: IndexFS, cfg: EngineConfig, cat: Catalog | None = None) -> dict:
    """Exact dedup on doc_id (SURVEY.md D2): one docs/ row per id, the one
    with the smallest content_sha256. Every copy of an id sits in one
    shard, so detection and the winner pick are one scan of
    (doc_id, content_sha256) per shard (_shard_dups); then only the doc
    files that hold a losing row are rewritten, in place.

    With ``cat``, the duplicate count is recorded in the manifest before the
    first file rewrite: a stage resumed after a crash finds only the ids the
    crash left duplicated, and keeps the recorded count. The other metrics
    count the work of the run that finished the stage."""
    # a crash inside a rewrite's replace, on a filesystem whose move cannot
    # overwrite, leaves a <file>.bak under docs/: mend it before the scan
    ifs.restore_replace_backups(DOCS_DIR)
    paths, _, on_driver = _doc_files(ifs, cfg)
    found = _map_doc_files(ifs, on_driver, _shard_dups, list(_by_shard(ifs, paths).values()))
    m = {"duplicates": sum(n for n, _ in found)}
    if cat is not None:
        recorded = cat.stage_metrics("dedup").get("duplicates")
        if recorded is None:
            cat.set_stage_metrics("dedup", m)
        else:
            m["duplicates"] = recorded
    return {**m, **_rewrite_doc_files(ifs, on_driver, [d for _, ds in found for d in ds])}


# ---------------------------------------------------------------------------
# stats / segments / df stages
# ---------------------------------------------------------------------------

def _file_stats(ifs: IndexFS, path: str) -> tuple[int, int]:
    dl = ifs.read_table(path, columns=["dl"])["dl"]
    return len(dl), int(pc.sum(dl).as_py() or 0)


def _run_stats(ifs: IndexFS, cfg: EngineConfig) -> dict:
    """N and sum(dl): sums of every doc file's row count and dl sum."""
    paths, _, on_driver = _doc_files(ifs, cfg)
    done = _map_doc_files(ifs, on_driver, _file_stats, paths)
    n_docs = sum(n for n, _ in done)
    sum_dl = sum(s for _, s in done)
    return {
        "n_docs": n_docs,
        "sum_dl": sum_dl,
        "avgdl": (sum_dl / n_docs) if n_docs else 0.0,
    }


_SEGMENTS_TMP = SEGMENTS_DIR + ".tmp"


def _run_segments(ifs: IndexFS, cfg: EngineConfig) -> dict:
    """docs/ -> segments/shard_id=S/part-0.parquet: one row per (term, shard)
    holding the delta-varint posting streams (stages/ingest.encode_segments).

    A segment row never spans shards, so each shard's segment table is
    encoded straight from its own docs/**/shard_id=S/ files (_encode_shard),
    staged under segments.tmp/shard_id=S/ and moved into place in one
    commit. The unit of memory is one shard's postings, the unit a
    ShardSearcher actor holds.

    Returns the stage metrics: ``postings`` (sum of df_shard),
    ``segment_rows``, ``bytes_written``, ``bytes_per_posting``."""
    paths, _, on_driver = _doc_files(ifs, cfg)
    if ifs.exists(_SEGMENTS_TMP):
        ifs.delete_dir(_SEGMENTS_TMP)
    ifs.mkdirs(_SEGMENTS_TMP)
    done = _map_doc_files(ifs, on_driver, _encode_shard, sorted(_by_shard(ifs, paths).items()), cfg)
    ifs.commit_dir(_SEGMENTS_TMP, SEGMENTS_DIR)
    rows, postings, size = (sum(col) for col in zip(*done)) if done else (0, 0, 0)
    return {
        "postings": postings,
        "segment_rows": rows,
        "bytes_written": size,
        "bytes_per_posting": round(size / postings, 3) if postings else 0.0,
    }


def _encode_shard(ifs: IndexFS, job: tuple, cfg: EngineConfig) -> tuple[int, int, int]:
    """(segment rows, postings, file bytes) of one shard's segment file,
    encoded from the shard's doc files: flatten the per-doc term lists,
    then encode_segments. A shard without postings writes no file."""
    shard, files = job
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
    staged = f"{_SEGMENTS_TMP}/shard_id={shard}/part-0.parquet"
    ifs.mkdirs(posixpath.dirname(staged))
    ifs.write_table(seg.drop_columns(["shard_id"]), staged)
    return seg.num_rows, int(pc.sum(seg["df_shard"]).as_py()), ifs.info(staged).size


def _dir_bytes(ifs: IndexFS, rel: str) -> int:
    return sum(i.size for i in ifs.list_infos(rel, recursive=True) if i.is_file)


def _run_df(ifs: IndexFS) -> dict:
    """df(term) = sum of per-(generation, shard) posting counts: each
    segment row covers a disjoint doc set, so the integer sum is the global
    df. One group_by on the driver over every segment file's
    (term, df_shard) rows — O(segment rows) time and memory — written as
    one term-sorted file (filter-pushdown reads; SearchEngine keeps it
    resident). Returns the stage metrics: ``terms`` and ``bytes_written``."""
    files = ifs.list_files(SEGMENTS_DIR, recursive=True, suffix=".parquet")
    ts = ifs.read_tables(files, columns=["term", "df_shard"])
    t = pa.concat_tables(ts) if ts else pa.table(
        {"term": pa.array([], pa.string()), "df_shard": pa.array([], pa.int64())}
    )
    g = t.group_by("term").aggregate([("df_shard", "sum")])
    # select by NAME: pyarrow group_by column order has differed across
    # versions; a positional rename would silently swap term/df
    df = pa.table({"term": g["term"], "df": g["df_shard_sum"]}).sort_by("term")
    tmp = DF_DIR + ".tmp"
    if ifs.exists(tmp):
        ifs.delete_dir(tmp)
    ifs.mkdirs(tmp)
    ifs.write_table(df, f"{tmp}/df.parquet")
    ifs.commit_dir(tmp, DF_DIR)
    return {"terms": df.num_rows, "bytes_written": _dir_bytes(ifs, DF_DIR)}


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
        else:
            _run_docs_from_dataset(corpus, ifs, cfg)
        cat.mark_stage("docs", "done", _docs_metrics(ifs, cfg))

    if not cat.stage_done("dedup"):
        cat.mark_stage("dedup", "running")
        m = _run_dedup(ifs, cfg, cat) if cfg.dedup else {"duplicates": "skipped"}
        cat.mark_stage("dedup", "done", m)

    if not cat.stage_done("stats"):
        cat.mark_stage("stats", "running")
        stats = _run_stats(ifs, cfg)
        cat.set_stats(stats)
        cat.mark_stage("stats", "done", stats)

    if not cat.stage_done("segments"):
        cat.mark_stage("segments", "running")
        m = _run_segments(ifs, cfg)
        cat.mark_stage("segments", "done", m)

    if not cat.stage_done("df"):
        cat.mark_stage("df", "running")
        m = _run_df(ifs)
        cat.mark_stage("df", "done", m)

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


def _gen_seg_prefix(gen: int) -> str:
    return f"gen{gen:06d}_"


def _rollback_generation(ifs: IndexFS, cat: Catalog, gen: int) -> None:
    """Remove every trace of an uncommitted generation (crash mid-append),
    then restore the df rollup to the surviving segments."""
    ws = f"_append_gen_{gen:06d}.tmp"
    if ifs.exists(ws):
        ifs.delete_dir(ws)
    rel = _gen_docs_rel(gen)
    if ifs.exists(rel):
        ifs.delete_dir(rel)
    pre = _gen_seg_prefix(gen)
    removed = False
    for f in ifs.list_files(SEGMENTS_DIR, recursive=True, suffix=".parquet"):
        if posixpath.basename(f).startswith(pre):
            ifs.fs.delete_file(f)
            removed = True
    if removed:
        _run_df(ifs)  # df may already include the dead generation
    cat.drop_generation(gen)


def _append_collisions(ifs: IndexFS, wfs: IndexFS, cfg: EngineConfig) -> int:
    """Drop from the new generation's doc files (under ``wfs``) every row
    whose doc_id the index already holds (existence-check first-wins,
    SURVEY.md D3: the OLD document survives — the reference's unique
    content_path constraint keeps the first upload,
    smse_backend/models/content.py:11). An id and its copies share a shard,
    so each shard's new files are checked against the index's files of the
    same shard only, on driver threads when both sides' doc files are under
    the budget. Returns the number of colliding ids."""
    new_paths, _, new_small = _doc_files(wfs, cfg)
    old_paths, _, old_small = _doc_files(ifs, cfg)
    on_driver = new_small and old_small
    old = _by_shard(ifs, old_paths)
    jobs = [(files, old.get(s, [])) for s, files in _by_shard(wfs, new_paths).items()]
    # through ``ifs``: the workspace sits under its root, so both sides'
    # full paths resolve (a full path outside an IndexFS's root does not)
    found = _map_doc_files(ifs, on_driver, _shard_collisions, jobs)
    _rewrite_doc_files(wfs, on_driver, [d for _, ds in found for d in ds])
    return sum(n for n, _ in found)


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


def append_index(
    corpus: "ray.data.Dataset",
    index_dir="",
    cfg: EngineConfig | None = None,
) -> Catalog:
    """Add documents to an EXISTING index without rebuilding it.

    The new docs run the same staged pipeline as a base build (ingest ->
    within-batch dedup -> stats -> shard-local segments) inside a workspace dir,
    then commit as generation G: doc parquet at ``docs/gen_{G}/shard_id=*``,
    segment files moved into the live ``segments/shard_id=*/`` dirs under a
    ``gen{G}_`` prefix (uniform directory depth — shard discovery, bulk
    search and parquet pushdown keep working unchanged), df/ rollup
    recomputed (exact integer sums), stats merged last.

    Docs whose doc_id already exists are dropped (D3 existence-check
    first-wins). Segment rows hold only doc ids, tfs and dls, so every score
    is computed at query time from the merged avgdl and results stay exactly
    equal to a full rebuild. Crash safety: an uncommitted generation is
    rolled back on the next append (manifest status gate); workspace dirs
    are ``*.tmp`` so Catalog.gc also collects orphans. Engines open
    mid-commit may see the new postings before the new stats — (re)open
    engines after append, the same eventual-visibility contract as
    tombstones (SURVEY.md §2.9).
    """
    cat = Catalog(index_dir)
    ifs = cat.ifs
    for s in STAGE_ORDER:
        if not cat.stage_done(s):
            raise RuntimeError(f"append requires a completed base build (stage {s!r} not done)")
    cfg = _check_cfg(cat, cfg)
    cfg.validate()
    # A prior compact_index may have died between parking the doc store at
    # docs.bak and moving the new one in. Recover BEFORE creating any
    # docs/gen_* (which would make docs/ exist again and permanently strand
    # the .bak — the only copy of the base corpus' doc metadata).
    if not ifs.restore_swap_backup(DOCS_DIR) and ifs.exists(DOCS_DIR + ".bak"):
        raise RuntimeError(
            f"{DOCS_DIR}.bak exists beside a live {DOCS_DIR}/ — a prior "
            "doc-store swap died in an ambiguous state; resolve manually "
            "before appending"
        )

    gens = cat.generations()
    for g_str, rec in sorted(gens.items(), key=lambda kv: int(kv[0])):
        if rec.get("status") != "done":
            _rollback_generation(ifs, cat, int(g_str))
    gens = cat.generations()
    gen = max((int(g) for g in gens), default=0) + 1

    ws = f"_append_gen_{gen:06d}.tmp"
    if ifs.exists(ws):
        ifs.delete_dir(ws)
    wfs = IndexFS((ifs.fs, ifs.join(ws)))
    wfs.mkdirs()

    _run_docs_from_dataset(corpus, wfs, cfg)
    if cfg.dedup:
        _run_dedup(wfs, cfg)
    pre_stats = _run_stats(wfs, cfg)
    n_coll = _append_collisions(ifs, wfs, cfg)
    if pre_stats["n_docs"] == 0 or n_coll == pre_stats["n_docs"]:
        # nothing new (empty input, or every doc already indexed): no-op
        ifs.delete_dir(ws)
        return cat

    gen_stats = _run_stats(wfs, cfg) if n_coll else pre_stats
    base = cat.get_stats()
    n_docs = int(base["n_docs"]) + int(gen_stats["n_docs"])
    sum_dl = int(base["sum_dl"]) + int(gen_stats["sum_dl"])
    merged = {"n_docs": n_docs, "sum_dl": sum_dl, "avgdl": sum_dl / n_docs}

    _run_segments(wfs, cfg)

    cat.set_generation(
        gen,
        {
            "status": "committing",
            "n_docs": int(gen_stats["n_docs"]),
            "sum_dl": int(gen_stats["sum_dl"]),
            "dropped_existing": n_coll,
        },
    )
    ifs.move(f"{ws}/{DOCS_DIR}", _gen_docs_rel(gen))
    pre = _gen_seg_prefix(gen)
    for f in wfs.list_files(SEGMENTS_DIR, recursive=True, suffix=".parquet"):
        rel = f[len(wfs.root) + 1 :]  # segments/shard_id=S/<name>.parquet
        parts = rel.split("/")
        ifs.mkdirs(f"{SEGMENTS_DIR}/{parts[1]}")
        ifs.fs.move(f, ifs.join(f"{SEGMENTS_DIR}/{parts[1]}/{pre}{parts[-1]}"))
    ifs.delete_dir(ws)

    _run_df(ifs)  # exact integer re-rollup across all generations
    # merged stats + status='done' in ONE manifest write: a crash between
    # separate writes would leave stats inflated after rollback (which
    # removes the generation's docs/segments but could not un-merge stats)
    rec = cat.generations()[str(gen)]
    rec["status"] = "done"
    rec["committed_at"] = time.time()
    cat.commit_generation(gen, rec, merged)
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

    Crash-safe ordering: docs .bak-swap (the old doc store — the ONLY copy
    of the corpus — survives until the new one is in place; a crash mid-swap
    is recovered by restore_swap_backup on the next run) -> segments swap
    (re-derivable from docs, plain swap suffices) -> df -> stats ->
    tombstone subtraction -> generation records collapsed. Until the
    tombstone update commits, stale state keeps filtering on the query path,
    so a reader never sees a deleted doc mid-compaction; deletes issued
    WHILE compaction runs are preserved (only the vacuumed set is
    subtracted, never a blind reset). With ``vacuum=False`` (merge
    generations only) tombstones are left untouched and keep filtering.
    """
    cat = Catalog(index_dir)
    ifs = cat.ifs
    for s in STAGE_ORDER:
        if not cat.stage_done(s):
            raise RuntimeError(f"compact requires a completed base build (stage {s!r} not done)")
    cfg = _check_cfg(cat, cfg)
    cfg.validate()
    ifs.restore_swap_backup(DOCS_DIR)  # prior compaction died mid doc swap
    for g_str, rec in sorted(cat.generations().items(), key=lambda kv: int(kv[0])):
        if rec.get("status") != "done":
            _rollback_generation(ifs, cat, int(g_str))

    tombs: list[int] = sorted(read_tombstones(ifs)) if vacuum else []
    if not tombs and not cat.generations():
        return cat  # single generation, nothing tombstoned: no-op

    cat.mark_stage("compact", "running")

    # 1. flatten the doc store: explicit FILE list (generation/wave dirs nest
    # at mixed depths and file-mode files carry an extra partition_id column
    # — projecting the frozen doc schema unifies both), drop tombstoned rows,
    # re-derive shard_id (doc_id scheme is frozen: shard = doc_id % n_shards)
    tomb_ref = ray.put(np.asarray(tombs, dtype=np.int64))
    n_shards = cfg.n_shards

    def reshard(t: pa.Table) -> pa.Table:
        dead = ray.get(tomb_ref)
        if dead.size:
            t = t.filter(pc.invert(pc.is_in(t["doc_id"], value_set=pa.array(dead))))
        shard = t["doc_id"].to_numpy() % n_shards  # same numpy mod as ingest_batch
        return t.append_column("shard_id", pa.array(shard, type=pa.int32()))

    doc_cols = DOC_SCHEMA_COLS + (["poss"] if cfg.with_positions else [])
    docs = ifs.ray_read_parquet_files(
        ifs.list_files(DOCS_DIR, recursive=True, suffix=".parquet"),
        columns=doc_cols,
    ).map_batches(reshard, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    ifs.atomic_swap_dataset(docs, DOCS_DIR, **_docs_write_args(cfg))

    # 2. stats over the surviving corpus, then one fresh segment generation
    stats = _run_stats(ifs, cfg)
    _run_segments(ifs, cfg)
    _run_df(ifs)
    cat.set_stats(stats)

    # 3. visibility cleanup: the vacuumed ids are now physically gone —
    # subtract exactly them, preserving any tombstones added while this
    # compaction ran (those docs survive in the new docs/segments and must
    # keep filtering); generations merged
    if vacuum and tombs:
        live = read_tombstones(ifs)
        ifs.write_json_atomic(TOMBSTONES_REL, sorted(live - set(tombs)))
    for g_str in list(cat.generations()):
        cat.drop_generation(int(g_str))
    cat.mark_stage("compact", "done", {"vacuumed": len(tombs)})
    return cat
