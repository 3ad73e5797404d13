"""Lineage manifest + resume (reference ``Task`` table analog,
smse_backend/models/task.py:6-34; status reconciliation
smse_backend/routes/task.py:30-52).

The manifest is a JSON file under the index location recording, per build
stage and per input partition: input fingerprint, status, timestamps, metrics
and output path. Commits are atomic (write temp + rename — the idempotent
write protocol SURVEY.md §4 requires). Resume = anti-join of planned
partitions against completed ones (the engine's only anti-join, SURVEY.md
§2.4 J3).

All I/O goes through state/fs.IndexFS, so the index may live on any
pyarrow.fs filesystem (local path, file:// or s3:// URI, or an explicit
(FileSystem, path) pair) — the reference's pluggable StorageBackend contract
(smse_backend/services/file_storage.py:32-73).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import asdict, dataclass, field

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
            return self.ifs.read_json(self.MANIFEST)
        # non-atomic-move filesystems park the live manifest at .bak while
        # swapping (fs.write_json_atomic); recover it after a mid-swap crash
        if self.ifs.exists(self.MANIFEST + ".bak"):
            return self.ifs.read_json(self.MANIFEST + ".bak")
        return {"stages": {}, "partitions": {}, "config": {}, "stats": {}, "prefs": {}}

    def _commit(self) -> None:
        self.ifs.write_json_atomic(self.MANIFEST, self._state)

    def manifest(self) -> dict:
        """Read-only snapshot of the full manifest (stages/partitions/..)."""
        return dict(self._state)

    # -- config / stats ----------------------------------------------------
    def set_config(self, cfg_dict: dict) -> None:
        self._state["config"] = cfg_dict
        self._commit()

    def get_config(self) -> dict:
        return self._state["config"]

    def set_stats(self, stats: dict) -> None:
        self._state["stats"] = stats
        self._commit()

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

    def clear_prefs(self) -> None:
        self._state["prefs"] = {}
        self._commit()

    # -- stage-level lineage ----------------------------------------------
    def stage_done(self, stage: str) -> bool:
        return self._state["stages"].get(stage, {}).get("status") == "done"

    def mark_stage(self, stage: str, status: str, metrics: dict | None = None) -> None:
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
        self._commit()

    def stage_metrics(self, stage: str) -> dict:
        return dict(self._state["stages"].get(stage, {}).get("metrics", {}))

    def set_stage_metrics(self, stage: str, metrics: dict) -> None:
        """Record a running stage's metrics without touching its status or
        clock (a count that must survive a crash mid-stage)."""
        self._state["stages"].setdefault(stage, {})["metrics"] = metrics
        self._commit()

    def invalidate_from(self, stages: list[str]) -> None:
        for s in stages:
            self._state["stages"].pop(s, None)
        self._commit()

    # -- segment generations (incremental appends; pipelines/build.py
    #    append_index) -----------------------------------------------------
    def generations(self) -> dict[str, dict]:
        return dict(self._state.get("generations", {}))

    def set_generation(self, gen: int, rec: dict) -> None:
        self._state.setdefault("generations", {})[str(gen)] = rec
        self._commit()

    def drop_generation(self, gen: int) -> None:
        self._state.get("generations", {}).pop(str(gen), None)
        self._commit()

    def commit_generation(self, gen: int, rec: dict, stats: dict) -> None:
        """Atomically publish a generation record AND the merged corpus
        stats in ONE manifest write. Appends must use this for the final
        status='done' commit: a crash between separate set_stats and
        set_generation calls would leave stats inflated after the rollback
        path removes the generation's docs/segments (scores would diverge
        from the oracle forever)."""
        self._state.setdefault("generations", {})[str(gen)] = rec
        self._state["stats"] = stats
        self._commit()

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
        self, pids: list[int], metrics: dict[int, dict], output_path: str
    ) -> None:
        for pid in pids:
            rec = self._state["partitions"][str(pid)]
            rec["status"] = "done"
            rec["completed_at"] = time.time()
            rec["metrics"] = metrics.get(pid, {})
            rec["output_path"] = output_path
        self._commit()

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
        """Delete query-log/search-record files older than ``max_age_hours``
        and orphaned temp state (*.tmp dirs/files from interrupted runs).
        Returns counts. Driver-side cron pass, not a dataset op
        (SURVEY.md §2.9)."""
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
            # orphaned temp state can be a DIR (stage output) or a FILE
            # (manifest.json.tmp left by a crash); count only removals that
            # actually happened
            try:
                import pyarrow.fs as pafs

                if info.type == pafs.FileType.Directory:
                    self.ifs.fs.delete_dir(info.path)
                else:
                    self.ifs.fs.delete_file(info.path)
                removed["tmp_dirs"] += 1
            except OSError:
                pass
        return removed
