"""Index build orchestration (SURVEY.md §3.1 re-expression).

One build = staged Ray Data jobs with persisted intermediates and a lineage
manifest (state/catalog.py). Stages:

  docs      corpus -> ingest/analyze map_batches -> docs/ parquet,
            hive-partitioned by shard_id (scorers read their shard dir
            directly; no separate doc-meta table needed). File-mode builds
            run in waves with per-partition lineage; dataset-mode builds are
            a single stage.
  dedup     exact dedup on doc_id (winner = min content_sha256) — skew-aware:
            duplicate detection runs on the projected id column only, and
            only rows of *duplicated* ids are shuffled; unique rows stream
            through untouched (SURVEY.md D2)
  stats     N / sum_dl / avgdl aggregates -> manifest (broadcast later)
  segments  SPIMI explode + per-batch combine -> groupby(bucket) merge ->
            delta-varint posting streams (stages/ingest.py, functions/codec.py)
  df        distinct (term, df) table, term-sorted for filter-pushdown reads

All index I/O goes through state/fs.IndexFS (pyarrow.fs), so ``index_dir``
may be a local path, a ``file://``/``s3://`` URI, or a (FileSystem, path)
pair — build and serve work against shared/remote storage on a multi-node
cluster (reference StorageBackend contract,
smse_backend/services/file_storage.py:32-73 + S3 impl :220-431).

Every stage writes to a temp dir and renames on success (idempotent commit);
a restart skips completed stages / partitions via the manifest.

Small-data adaptivity: metadata-only reductions (duplicate detection, global
stats, the df rollup) switch between a driver-side pyarrow path (when the
projected columns are under EngineConfig.driver_agg_max_bytes) and the
distributed Ray path — a 100 TB build keeps every reduction distributed,
while a test/bench build does not pay shuffle-job fixed costs for
kilobyte-sized reductions.
"""

from __future__ import annotations

import functools
import time

import posixpath

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count, Sum

from smse_backend_ray.config import EngineConfig
from smse_backend_ray.stages.ingest import (
    DOC_SCHEMA_COLS,
    BucketEncoder,
    cfg_buckets,
    explode_preagg_batch,
    ingest_batch,
)
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

def _run_docs_from_dataset(corpus: "ray.data.Dataset", ifs: IndexFS, cfg: EngineConfig) -> None:
    # schema validation happens inside ingest_batch (corpus.schema() here
    # would trigger a separate partial execution of the upstream pipeline)
    ingest = functools.partial(ingest_batch, cfg=cfg)
    # batch_size=None: per-block batches. An explicit batch_size here makes
    # the fused map+write chain bundle MANY upstream blocks into one task
    # (bundling counts the chain's INPUT rows) and collapses parallelism.
    docs = corpus.map_batches(ingest, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    # coalesce before the hive-partitioned write: every write task emits one
    # file PER SHARD, so W tasks x S shards files — uncoalesced that is a
    # small-file storm that dominates every downstream read. Target scales
    # WITH the cluster (cpus, not cpus/2): capping write parallelism below
    # the core count made the docs stage a fixed-cost floor that flattened
    # 4->16 CPU scaling
    docs = docs.repartition(max(8, _cluster_cpus()))
    ifs.atomic_write_dataset(docs, DOCS_DIR, partition_cols=["shard_id"])


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
        ifs.atomic_write_dataset(docs, wave_rel, partition_cols=["shard_id"])
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
# dedup stage (exact, skew-aware; SURVEY.md D2)
# ---------------------------------------------------------------------------

_META_CACHE: dict[str, tuple[tuple, pa.Table]] = {}


def _docs_meta_table(ifs: IndexFS) -> pa.Table:
    """One driver-side scan of (doc_id, dl) shared by the dedup-detect and
    stats stages. The cache stamp is the full (path, size, mtime) file set —
    mtime alone is too coarse on second-granularity filesystems (S3), where
    a dedup rewrite landing within the same second as the original write
    would otherwise serve the stale pre-dedup table to the stats stage."""
    key = ifs.join(DOCS_DIR)
    stamp = tuple(sorted(
        (i.path, i.size, i.mtime.timestamp() if i.mtime else 0.0)
        for i in ifs.list_infos(DOCS_DIR, recursive=True) if i.is_file
    ))
    hit = _META_CACHE.get(key)
    if hit and hit[0] == stamp:
        return hit[1]
    t = ifs.pads_dataset(DOCS_DIR).to_table(columns=["doc_id", "dl"])
    _META_CACHE[key] = (stamp, t)
    return t


def _find_dup_ids(ifs: IndexFS, cfg: EngineConfig) -> set[int]:
    if ifs.column_bytes(DOCS_DIR, ["doc_id", "dl"], budget=cfg.driver_agg_max_bytes) <= cfg.driver_agg_max_bytes:
        ids = _docs_meta_table(ifs)["doc_id"]
        g = pa.table({"doc_id": ids}).group_by("doc_id").aggregate([("doc_id", "count")])
        dup = g.filter(pc.greater(g["doc_id_count"], 1))
        return set(dup["doc_id"].to_pylist())
    counts = (
        ifs.ray_read_parquet(DOCS_DIR, columns=["doc_id"])
        .groupby("doc_id")
        .aggregate(Count(alias_name="n"))
    )
    from smse_backend_ray.functions.collect import collect_table

    dup_tbl = collect_table(counts.filter(expr="n > 1"))
    return set(dup_tbl["doc_id"].to_pylist()) if dup_tbl.num_rows else set()


def _run_dedup(ifs: IndexFS, cfg: EngineConfig) -> dict:
    dup_ids = _find_dup_ids(ifs, cfg)
    if not dup_ids:
        return {"duplicates": 0}

    # only duplicate-id rows shuffle; unique rows stream through
    dup_ref = ray.put(dup_ids)

    def split(t: pa.Table, keep_dups: bool) -> pa.Table:
        ids = ray.get(dup_ref)
        mask = pc.is_in(t["doc_id"], value_set=pa.array(sorted(ids), type=pa.int64()))
        return t.filter(mask if keep_dups else pc.invert(mask))

    def winner(g: pa.Table) -> pa.Table:
        # deterministic first-wins rule: min content_sha256
        # (stay in Arrow — list columns don't round-trip through pandas)
        i = pc.sort_indices(g["content_sha256"])[0].as_py()
        return g.slice(i, 1)

    full = ifs.ray_read_parquet(DOCS_DIR)
    clean = full.map_batches(functools.partial(split, keep_dups=False), batch_format="pyarrow")
    dups = (
        full.map_batches(functools.partial(split, keep_dups=True), batch_format="pyarrow")
        .groupby("doc_id")
        .map_groups(winner, batch_format="pyarrow")
    )
    deduped = clean.union(dups)
    tmp_rel = DOCS_DIR + "_dedup"
    ifs.atomic_write_dataset(deduped, tmp_rel, partition_cols=["shard_id"])
    ifs.delete_dir(DOCS_DIR)
    ifs.move(tmp_rel, DOCS_DIR)
    return {"duplicates": len(dup_ids)}


# ---------------------------------------------------------------------------
# stats / segments / df stages
# ---------------------------------------------------------------------------

def _run_stats(ifs: IndexFS, cfg: EngineConfig) -> dict:
    if ifs.column_bytes(DOCS_DIR, ["doc_id", "dl"], budget=cfg.driver_agg_max_bytes) <= cfg.driver_agg_max_bytes:
        dl = _docs_meta_table(ifs)["dl"]
        n_docs = len(dl)
        sum_dl = int(pc.sum(dl).as_py() or 0)
    else:
        ds = ifs.ray_read_parquet(DOCS_DIR, columns=["dl"])
        row = ds.aggregate(Count(alias_name="n_docs"), Sum("dl", alias_name="sum_dl"))
        n_docs = int(row["n_docs"])
        sum_dl = int(row["sum_dl"] or 0)
    return {
        "n_docs": n_docs,
        "sum_dl": sum_dl,
        "avgdl": (sum_dl / n_docs) if n_docs else 0.0,
    }


def _run_segments(ifs: IndexFS, cfg: EngineConfig, stats: dict) -> None:
    nb = cfg_buckets(cfg, n_docs=int(stats.get("n_docs") or 0) or None)
    cols = ["doc_id", "dl", "terms", "tfs"]
    explode = explode_preagg_batch
    if cfg.with_positions:
        from smse_backend_ray.stages.ingest import explode_preagg_batch_pos

        cols.append("poss")
        explode = explode_preagg_batch_pos
    ds = ifs.ray_read_parquet(DOCS_DIR, columns=cols)
    runs = ds.map_batches(
        functools.partial(explode, n_buckets=nb, n_shards=cfg.n_shards),
        batch_format="pyarrow",
        zero_copy_batch=True,
        # large batches: each batch emits one run-row per distinct
        # (term, shard), so hot terms produce n_batches * n_shards rows —
        # bigger batches shrink the shuffle volume
        batch_size=max(cfg.batch_size, 8192),
    )
    # NO coalesce before the exchange: a plain repartition here funnels its
    # reduce through ONE task (822 MB serialized point, measured on the 1M
    # corpus) and leaves the sort-shuffle only a handful of giant map
    # blocks; the raw map fragments parallelize strictly better.
    enc = BucketEncoder(stats["avgdl"], cfg)

    def encode_bucket(group: pa.Table) -> pa.Table:
        return enc(group)

    # skey = (term bucket, shard): the hottest term's reduce group is
    # bounded at O(docs/shard) — the SURVEY §4 skew mandate (see
    # explode_preagg_batch)
    seg = runs.groupby("skey").map_groups(encode_bucket, batch_format="pyarrow")
    ifs.atomic_write_dataset(seg, SEGMENTS_DIR, partition_cols=["shard_id"])


def _run_df(ifs: IndexFS, cfg: EngineConfig) -> None:
    # df(term) = sum of per-(generation, shard) posting counts: each segment
    # row covers a disjoint doc set, so integer sum == global df. (A plain
    # base build is one generation; sum(df_shard) == the replicated df
    # column exactly.)
    if ifs.column_bytes(SEGMENTS_DIR, ["term", "df_shard"], budget=cfg.driver_agg_max_bytes) <= cfg.driver_agg_max_bytes:
        t = ifs.pads_dataset(SEGMENTS_DIR).to_table(columns=["term", "df_shard"])
        g = t.group_by("term").aggregate([("df_shard", "sum")])
        # select by NAME: pyarrow group_by column order has differed across
        # versions; a positional rename would silently swap term/df
        g = pa.table({"term": g["term"], "df": g["df_shard_sum"]}).sort_by("term")
        tmp = DF_DIR + ".tmp"
        if ifs.exists(tmp):
            ifs.delete_dir(tmp)
        ifs.mkdirs(tmp)
        ifs.write_table(g, f"{tmp}/df.parquet")
        if ifs.exists(DF_DIR):
            ifs.delete_dir(DF_DIR)
        ifs.move(tmp, DF_DIR)
        return
    ds = ifs.ray_read_parquet(SEGMENTS_DIR, columns=["term", "df_shard"])
    df_tbl = ds.groupby("term").aggregate(Sum("df_shard", alias_name="df")).sort("term")
    ifs.atomic_write_dataset(df_tbl, DF_DIR)


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
        cat.mark_stage("docs", "done")

    if not cat.stage_done("dedup"):
        cat.mark_stage("dedup", "running")
        m = _run_dedup(ifs, cfg) if cfg.dedup else {"duplicates": "skipped"}
        cat.mark_stage("dedup", "done", m)

    if not cat.stage_done("stats"):
        cat.mark_stage("stats", "running")
        stats = _run_stats(ifs, cfg)
        cat.set_stats(stats)
        cat.mark_stage("stats", "done", stats)

    if not cat.stage_done("segments"):
        cat.mark_stage("segments", "running")
        _run_segments(ifs, cfg, cat.get_stats())
        cat.mark_stage("segments", "done")

    if not cat.stage_done("df"):
        cat.mark_stage("df", "running")
        _run_df(ifs, cfg)
        cat.mark_stage("df", "done")

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


def _rollback_generation(ifs: IndexFS, cfg: EngineConfig, cat: Catalog, gen: int) -> None:
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
        _run_df(ifs, cfg)  # df may already include the dead generation
    cat.drop_generation(gen)


def _append_collisions(ifs: IndexFS, wfs: IndexFS, cfg: EngineConfig) -> set[int]:
    """doc_ids of the new generation already present in the index
    (existence-check first-wins, SURVEY.md D3: the OLD document survives —
    the reference's unique content_path constraint keeps the first upload,
    smse_backend/models/content.py:11)."""
    small = (
        ifs.column_bytes(DOCS_DIR, ["doc_id", "dl"], budget=cfg.driver_agg_max_bytes) <= cfg.driver_agg_max_bytes
        and wfs.column_bytes(DOCS_DIR, ["doc_id", "dl"], budget=cfg.driver_agg_max_bytes) <= cfg.driver_agg_max_bytes
    )
    if small:
        existing = _docs_meta_table(ifs)["doc_id"].combine_chunks()
        new_ids = wfs.pads_dataset(DOCS_DIR).to_table(columns=["doc_id"])["doc_id"]
        mask = pc.is_in(new_ids, value_set=existing)
        return set(pc.filter(new_ids, mask).to_pylist())
    # scale path: flag-union -> per-id integer sum; ids are unique per side
    # (both sides deduped), so sum == 3 <=> present on both. Only the
    # collision set — bounded by the smaller side, normally tiny — reaches
    # the driver. Docs are read as explicit FILE lists: generations nest at
    # different depths, which would break hive partition inference.

    def _tag(flag: int):
        def f(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "doc_id": t["doc_id"],
                    "flag": pa.array(np.full(len(t), flag, dtype=np.int8)),
                }
            )

        return f

    old = ifs.ray_read_parquet_files(
        ifs.list_files(DOCS_DIR, recursive=True, suffix=".parquet"),
        columns=["doc_id"],
    ).map_batches(_tag(1), batch_format="pyarrow")
    new = wfs.ray_read_parquet_files(
        wfs.list_files(DOCS_DIR, recursive=True, suffix=".parquet"),
        columns=["doc_id"],
    ).map_batches(_tag(2), batch_format="pyarrow")
    both = old.union(new).groupby("doc_id").aggregate(Sum("flag", alias_name="s"))
    from smse_backend_ray.functions.collect import collect_table

    coll = collect_table(both.filter(expr="s == 3"))
    return set(coll["doc_id"].to_pylist()) if coll.num_rows else set()


def append_index(
    corpus: "ray.data.Dataset",
    index_dir="",
    cfg: EngineConfig | None = None,
) -> Catalog:
    """Add documents to an EXISTING index without rebuilding it.

    The new docs run the same staged pipeline as a base build (ingest ->
    within-batch dedup -> stats -> SPIMI segments) inside a workspace dir,
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
    for s in STAGE_ORDER:
        if not cat.stage_done(s):
            raise RuntimeError(f"append requires a completed base build (stage {s!r} not done)")
    cfg = cfg or EngineConfig.from_dict(cat.get_config())
    cfg.validate()

    gens = cat.generations()
    for g_str, rec in sorted(gens.items(), key=lambda kv: int(kv[0])):
        if rec.get("status") != "done":
            _rollback_generation(ifs, cfg, cat, int(g_str))
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
    coll = _append_collisions(ifs, wfs, cfg)
    if pre_stats["n_docs"] == 0 or len(coll) == pre_stats["n_docs"]:
        # nothing new (empty input, or every doc already indexed): no-op
        ifs.delete_dir(ws)
        return cat
    if coll:
        dup_ref = ray.put(np.fromiter(sorted(coll), dtype=np.int64, count=len(coll)))

        def drop_existing(t: pa.Table) -> pa.Table:
            ids = ray.get(dup_ref)
            return t.filter(
                pc.invert(pc.is_in(t["doc_id"], value_set=pa.array(ids)))
            )

        filt = wfs.ray_read_parquet(DOCS_DIR).map_batches(
            drop_existing, batch_format="pyarrow"
        )
        tmp_rel = DOCS_DIR + "_filtered"
        wfs.atomic_write_dataset(filt, tmp_rel, partition_cols=["shard_id"])
        wfs.delete_dir(DOCS_DIR)
        wfs.move(tmp_rel, DOCS_DIR)

    gen_stats = _run_stats(wfs, cfg) if coll else pre_stats
    base = cat.get_stats()
    n_docs = int(base["n_docs"]) + int(gen_stats["n_docs"])
    sum_dl = int(base["sum_dl"]) + int(gen_stats["sum_dl"])
    merged = {"n_docs": n_docs, "sum_dl": sum_dl, "avgdl": sum_dl / n_docs}

    _run_segments(wfs, cfg, gen_stats)

    cat.set_generation(
        gen,
        {
            "status": "committing",
            "n_docs": int(gen_stats["n_docs"]),
            "sum_dl": int(gen_stats["sum_dl"]),
            "dropped_existing": len(coll),
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

    _run_df(ifs, cfg)  # exact integer re-rollup across all generations
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
    ifs.restore_swap_backup(DOCS_DIR)  # prior compaction died mid doc swap
    for s in STAGE_ORDER:
        if not cat.stage_done(s):
            raise RuntimeError(f"compact requires a completed base build (stage {s!r} not done)")
    cfg = cfg or EngineConfig.from_dict(cat.get_config())
    cfg.validate()
    for g_str, rec in sorted(cat.generations().items(), key=lambda kv: int(kv[0])):
        if rec.get("status") != "done":
            _rollback_generation(ifs, cfg, cat, int(g_str))

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
    docs = docs.repartition(max(8, _cluster_cpus()))
    ifs.atomic_swap_dataset(docs, DOCS_DIR, partition_cols=["shard_id"])

    # 2. stats over the surviving corpus, then one fresh segment generation
    stats = _run_stats(ifs, cfg)
    _run_segments(ifs, cfg, stats)
    _run_df(ifs, cfg)
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
