"""Lineage manifest, commit point and resume (reference ``Task`` table
analog, smse_backend/models/task.py:6-34; status reconciliation
smse_backend/routes/task.py:30-52).

The manifest is a JSON file under the index location recording, per build
stage and per input partition: input fingerprint, status, timestamps, metrics
and output path. Resume = anti-join of planned partitions against completed
ones (the engine's only anti-join, SURVEY.md §2.4 J3).

The manifest is also the index's one commit point (Lucene's ``segments_N``):
it lists the live parquet files of the index tables ``docs``, ``segments``
and ``df``. Writers put new files under names no write reuses and publish
them with one manifest write (write temp + rename), together with the stage,
generation and stats records of that write; readers open exactly the listed
files (``files``, ``dataset``, ``ray_dataset``). A file no manifest lists is
garbage for ``gc``, which keeps the files the previous file commit listed,
so an engine that read it can finish opening. A manifest written before the
file lists existed gets them from the table dirs on load (``_load``).

All I/O goes through state/fs.IndexFS, so the index may live on any
pyarrow.fs filesystem (local path, file:// or s3:// URI, or an explicit
(FileSystem, path) pair) — the reference's pluggable StorageBackend contract
(smse_backend/services/file_storage.py:32-73).
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from dataclasses import asdict, dataclass, field

import pyarrow.fs as pafs

from smse_backend_ray.state.fs import IndexFS, resolve


@dataclass
class PartitionRecord:
    partition_id: int
    input_fingerprint: str
    status: str = "pending"  # pending | done
    started_at: float | None = None
    completed_at: float | None = None
    metrics: dict = field(default_factory=dict)
    output_path: str = ""


TOMBSTONES_REL = "tombstones.json"

# the tables whose files the manifest lists
TABLES = ("docs", "segments", "df")

# a table file's shard, from its hive dir — matched with the trailing "/",
# so shard 1 never picks up shard_id=10
_SHARD_DIR = re.compile(r"/shard_id=(\d+)/")


def by_shard(ifs: IndexFS, paths: list[str]) -> dict[int, list[str]]:
    """Full ``paths`` grouped by their hive shard_id dir, in input order."""
    out: dict[int, list[str]] = {}
    for p in paths:
        out.setdefault(int(_SHARD_DIR.search(p[len(ifs.root):]).group(1)), []).append(p)
    return out


def read_tombstones(ifs: IndexFS) -> set[int]:
    """The live tombstone set (deleted doc_ids pending vacuum). Recovers
    from ``tombstones.json.bak`` when a non-overwriting-move filesystem
    crashed mid write_json_atomic swap — losing tombstones would silently
    resurrect deleted docs. Shared by the query path (SearchEngine) and
    maintenance (compact_index) so the two can never read differently."""
    if ifs.exists(TOMBSTONES_REL):
        return set(ifs.read_json(TOMBSTONES_REL))
    if ifs.exists(TOMBSTONES_REL + ".bak"):
        return set(ifs.read_json(TOMBSTONES_REL + ".bak"))
    return set()


def fingerprint_files(files: list[str]) -> str:
    """Deterministic partition fingerprint: path + size + mtime per file.
    (Input corpus files, not index state — local paths in file-mode builds.)"""
    h = hashlib.sha256()
    for f in sorted(files):
        st = os.stat(f)
        h.update(f"{f}|{st.st_size}|{int(st.st_mtime)}\n".encode())
    return h.hexdigest()[:16]


class Catalog:
    """Manifest manager for one index location."""

    MANIFEST = "manifest.json"

    def __init__(self, index_dir):
        self.ifs: IndexFS = resolve(index_dir)
        self.index_dir = index_dir
        self.ifs.mkdirs()
        self._state = self._load()

    def _load(self) -> dict:
        if self.ifs.exists(self.MANIFEST):
            state = self.ifs.read_json(self.MANIFEST)
        # non-atomic-move filesystems park the live manifest at .bak while
        # swapping (fs.write_json_atomic); recover it after a mid-swap crash
        elif self.ifs.exists(self.MANIFEST + ".bak"):
            state = self.ifs.read_json(self.MANIFEST + ".bak")
        else:
            return {"stages": {}, "partitions": {}, "config": {}, "stats": {}, "prefs": {}, "files": {}}
        if "files" not in state:
            # an index from before the manifest listed its files: each table
            # was every parquet file under its dir, so list them as such
            # (the next manifest write records the lists)
            root = len(self.ifs.root) + 1
            state["files"] = {
                t: [p[root:] for p in self.ifs.list_files(t, recursive=True, suffix=".parquet")]
                for t in TABLES
            }
        return state

    def _commit(self, files: dict | None = None, stats: dict | None = None) -> None:
        """One manifest write; ``files`` ({table: full paths}) and ``stats``
        are published by it. A write with ``files`` records the files the
        previous file commit listed and this one does not as ``retired``:
        gc keeps them until the next file commit, for engines that read the
        previous one."""
        if files:
            listed = self._state.setdefault("files", {})
            old = {f for fs in listed.values() for f in fs}
            root = self.ifs.root + "/"
            for t, paths in files.items():
                listed[t] = sorted(p[len(root):] if p.startswith(root) else p for p in paths)
            self._state["retired"] = sorted(old - {f for fs in listed.values() for f in fs})
        if stats is not None:
            self._state["stats"] = stats
        self.ifs.write_json_atomic(self.MANIFEST, self._state)

    def manifest(self) -> dict:
        """Read-only snapshot of the full manifest (stages/partitions/..)."""
        return dict(self._state)

    # -- committed table files: the only files a reader opens --------------
    def files(self, table: str) -> list[str]:
        """Full paths of ``table``'s committed files, sorted."""
        return [self.ifs.join(r) for r in self._state.get("files", {}).get(table, [])]

    def shard_files(self, table: str, shard: int) -> list[str]:
        return by_shard(self.ifs, self.files(table)).get(shard, [])

    def dataset(self, table: str):
        """pyarrow dataset over ``table``'s committed files (hive shard_id
        column included)."""
        import pyarrow.dataset as pads

        return pads.dataset(self.files(table), filesystem=self.ifs.fs, partitioning="hive",
                            partition_base_dir=self.ifs.join(table))

    def ray_dataset(self, table: str, **kwargs):
        """Ray Dataset over ``table``'s committed files."""
        return self.ifs.ray_read_parquet_files(self.files(table), **kwargs)

    # -- config / stats ----------------------------------------------------
    def set_config(self, cfg_dict: dict) -> None:
        self._state["config"] = cfg_dict
        self._commit()

    def get_config(self) -> dict:
        return self._state["config"]

    def get_stats(self) -> dict:
        return self._state["stats"]

    # -- preferences (reference User.preferences JSON get/merge/clear,
    #    smse_backend/models/user.py:18, routes/user.py:93-141) -----------
    def get_prefs(self) -> dict:
        return dict(self._state.get("prefs", {}))

    def merge_prefs(self, updates: dict) -> dict:
        """Shallow-merge semantics of the reference's preferences PUT."""
        prefs = self._state.setdefault("prefs", {})
        prefs.update(updates)
        self._commit()
        return dict(prefs)

    # -- stage-level lineage ----------------------------------------------
    def stage_done(self, stage: str) -> bool:
        return self._state["stages"].get(stage, {}).get("status") == "done"

    def mark_stage(
        self, stage: str, status: str, metrics: dict | None = None,
        files: dict | None = None, stats: dict | None = None,
        generations: dict | None = None,
    ) -> None:
        """Record a stage's status (and metrics); ``files``, ``stats`` and
        ``generations``, when given, are published in the same manifest
        write — a stage's commit point."""
        rec = self._state["stages"].setdefault(stage, {})
        rec["status"] = status
        if status == "running":
            # (re)start the clock: a stage resumed after a driver crash must
            # not count the downtime since its first start as wall time
            rec["started_at"] = time.time()
            rec.pop("completed_at", None)
        else:
            rec.setdefault("started_at", time.time())
        if status == "done":
            rec["completed_at"] = time.time()
        if metrics:
            rec["metrics"] = metrics
        if generations is not None:
            self._state["generations"] = generations
        self._commit(files, stats)

    def stage_metrics(self, stage: str) -> dict:
        return dict(self._state["stages"].get(stage, {}).get("metrics", {}))

    def invalidate_from(self, stages: list[str]) -> None:
        for s in stages:
            self._state["stages"].pop(s, None)
        self._commit()

    # -- segment generations (incremental appends; pipelines/build.py
    #    append_index) -----------------------------------------------------
    def generations(self) -> dict[str, dict]:
        return dict(self._state.get("generations", {}))

    def commit_generation(self, gen: int, rec: dict, stats: dict, files: dict) -> None:
        """Publish a generation's files, its record and the merged corpus
        stats in ONE manifest write: readers see all of the append or none
        of it."""
        self._state.setdefault("generations", {})[str(gen)] = rec
        self._commit(files, stats)

    # -- partition-level lineage ------------------------------------------
    def plan_partitions(
        self, partitions: dict[int, list[str]]
    ) -> list[int]:
        """Register partitions (id -> input files); return the PENDING ids —
        a completed partition whose fingerprint still matches is skipped
        (resume without recomputation). A fingerprint mismatch re-queues it.
        """
        pending = []
        for pid, files in sorted(partitions.items()):
            fp = fingerprint_files(files)
            rec = self._state["partitions"].get(str(pid))
            if rec and rec["status"] == "done" and rec["input_fingerprint"] == fp:
                continue
            self._state["partitions"][str(pid)] = asdict(
                PartitionRecord(pid, fp, status="pending", started_at=time.time())
            )
            pending.append(pid)
        self._commit()
        return pending

    def mark_partitions_done(
        self, pids: list[int], metrics: dict[int, dict], output_path: str,
        files: dict | None = None,
    ) -> None:
        """Mark ``pids`` done, publishing ``files`` in the same write."""
        for pid in pids:
            rec = self._state["partitions"][str(pid)]
            rec["status"] = "done"
            rec["completed_at"] = time.time()
            rec["metrics"] = metrics.get(pid, {})
            rec["output_path"] = output_path
        self._commit(files)

    def completed_partitions(self) -> list[int]:
        return sorted(
            int(pid)
            for pid, rec in self._state["partitions"].items()
            if rec["status"] == "done"
        )

    # -- maintenance (reference periodic cleanup analog:
    #    smse_backend/services/file_cleanup.py:5-26 runs every 24h deleting
    #    query temp files older than 24h,
    #    smse_backend/services/file_storage.py:675-708) ------------------
    def gc(self, max_age_hours: float = 24.0, now: float | None = None) -> dict:
        """Delete query-log/search-record files older than ``max_age_hours``,
        orphaned temp state (*.tmp dirs/files from interrupted runs) and
        the index tables' unlisted files (drop_unlisted). Returns counts.
        Driver-side cron pass, not a dataset op (SURVEY.md §2.9)."""
        now = now if now is not None else time.time()
        cutoff = now - max_age_hours * 3600
        removed = {"query_files": 0, "tmp_dirs": 0}
        for sub in ("querylog", "search_records"):
            for info in self.ifs.list_infos(sub):
                if not info.is_file:
                    continue
                if info.mtime is None:
                    # unknown age (some pyarrow.fs backends omit mtimes):
                    # never treat as expired — deleting fresh query logs is
                    # worse than retaining stale ones
                    continue
                if info.mtime.timestamp() < cutoff:
                    self.ifs.fs.delete_file(info.path)
                    removed["query_files"] += 1
        for info in self.ifs.list_infos():
            if not info.path.endswith(".tmp"):
                continue
            # orphaned temp state can be a DIR (a bulk output) or a
            # FILE (manifest.json.tmp left by a crash); count only removals
            # that actually happened
            try:
                if info.type == pafs.FileType.Directory:
                    self.ifs.fs.delete_dir(info.path)
                else:
                    self.ifs.fs.delete_file(info.path)
                removed["tmp_dirs"] += 1
            except OSError:
                pass
        removed["unlisted_files"] = self.drop_unlisted()
        return removed

    def drop_unlisted(self) -> int:
        """Delete every file under the index tables that the latest manifest
        neither lists nor retired: what a crashed or superseded write left.
        Returns the number deleted."""
        self._state = self._load()
        keep = {self.ifs.join(r) for fs in self._state.get("files", {}).values() for r in fs}
        keep |= {self.ifs.join(r) for r in self._state.get("retired", [])}
        n = 0
        for t in TABLES:
            for info in self.ifs.list_infos(t, recursive=True):
                if info.is_file and info.path not in keep:
                    self.ifs.fs.delete_file(info.path)
                    n += 1
        return n
