"""Filesystem-agnostic index storage seam (pyarrow.fs).

Reference analog: the ``StorageBackend`` ABC with local + S3 implementations
selected by config (smse_backend/services/file_storage.py:32-73, S3 impl
:220-431, selection :441-462). Here the seam is a single ``IndexFS`` object
wrapping a ``pyarrow.fs.FileSystem`` + root path; every byte of index state
(docs/segments/df parquet, manifest, tombstones, query log) goes through it,
so ``index_dir`` may be a local path, a URI (``file://``, ``s3://`` — any
scheme ``pyarrow.fs.FileSystem.from_uri`` resolves), or an explicit
``(FileSystem, path)`` pair (how tests exercise a remote-FS stand-in via
``SubTreeFileSystem`` without network access).

Commit protocol: the index tables (docs/segments/df parquet) are immutable
files under names no write reuses (``write_dataset``, ``new_tag``); a writer
publishes them with one manifest write (state/catalog.py), a single-file
``replace`` (an atomic rename on local filesystems, a single-object PUT on
S3-likes). Readers open the files the manifest lists. Outputs that are not
index tables (bulk and simsearch outputs) are whole directories
written to ``<dest>.tmp`` and moved into place (``atomic_write_dataset``).

IndexFS is picklable (pyarrow filesystems ship by value), so Ray actors and
map_batches tasks receive the location object directly.
"""

from __future__ import annotations

import json
import posixpath
import uuid
from typing import Any

import pyarrow.fs as pafs


def new_tag() -> str:
    """A fresh file-name prefix: no two writes share one."""
    return uuid.uuid4().hex[:16]


class _TaggedNames:
    """Ray Data file names that start with a write's tag (a duck-typed
    ``ray.data.datasource.FilenameProvider``: importing ray.data here would
    cost every serve actor ~0.5 s at start)."""

    def __init__(self, tag: str):
        self.tag = tag

    def get_filename_for_block(self, block, write_uuid, task_index, block_index) -> str:
        return f"{self.tag}_{write_uuid}_{task_index:06}_{block_index:06}"


class IndexFS:
    """One index location: (filesystem, root path) + the I/O helpers the
    engine needs. All relative paths use "/" separators (posix)."""

    def __init__(self, location: Any):
        if isinstance(location, IndexFS):
            self.fs, self.root, self.location = location.fs, location.root, location.location
            return
        if isinstance(location, tuple):
            self.fs, self.root = location
            self.root = self.root.rstrip("/")
            self.location = location
            return
        if not isinstance(location, str):
            raise TypeError(f"index location must be str/tuple/IndexFS, got {type(location)}")
        if "://" in location:
            fs, path = pafs.FileSystem.from_uri(location)
            self.fs, self.root = fs, path.rstrip("/")
        else:
            import os

            self.fs = pafs.LocalFileSystem()
            self.root = os.path.abspath(location)
        self.location = location

    # -- paths -------------------------------------------------------------
    def join(self, *parts: str) -> str:
        return posixpath.join(self.root, *parts) if parts else self.root

    # -- metadata ops ------------------------------------------------------
    def info(self, rel: str = "") -> pafs.FileInfo:
        return self.fs.get_file_info(self._full(rel))

    def exists(self, rel: str = "") -> bool:
        return self.info(rel).type != pafs.FileType.NotFound

    def mkdirs(self, rel: str = "") -> None:
        self.fs.create_dir(self.join(rel), recursive=True)

    def delete_file(self, rel: str) -> None:
        self.fs.delete_file(self.join(rel))

    def delete_dir(self, rel: str = "") -> None:
        self.fs.delete_dir(self.join(rel))

    def move(self, src_rel: str, dst_rel: str) -> None:
        """Rename within this filesystem (atomic on local FS)."""
        self.fs.move(self.join(src_rel), self.join(dst_rel))

    def list_infos(self, rel: str = "", recursive: bool = False) -> list[pafs.FileInfo]:
        sel = pafs.FileSelector(self.join(rel), recursive=recursive, allow_not_found=True)
        return list(self.fs.get_file_info(sel))

    def list_files(
        self, rel: str = "", recursive: bool = False, suffix: str | None = None
    ) -> list[str]:
        """Sorted FULL paths of plain files under ``rel``."""
        out = [
            i.path
            for i in self.list_infos(rel, recursive=recursive)
            if i.is_file and (suffix is None or i.path.endswith(suffix))
        ]
        return sorted(out)

    # -- streams / JSON ----------------------------------------------------
    def open_input(self, path: str):
        """``path`` may be relative to root or a full path from list_files."""
        return self.fs.open_input_file(self._full(path))

    def open_output(self, path: str):
        return self.fs.open_output_stream(self._full(path))

    def _full(self, path: str) -> str:
        return path if path.startswith(self.root) else self.join(path)

    def read_json(self, rel: str) -> Any:
        with self.open_input(rel) as f:
            return json.loads(f.read().decode())

    def write_json_atomic(self, rel: str, obj: Any) -> None:
        tmp = rel + ".tmp"
        with self.open_output(tmp) as f:
            f.write(json.dumps(obj, indent=1, sort_keys=True).encode())
        self.replace(tmp, rel)

    def replace(self, src: str, dst: str) -> None:
        """Move the file ``src`` over the file ``dst`` (each relative to root
        or a full path from list_files). POSIX rename overwrites: an atomic
        replace, no crash window. On filesystems whose move cannot overwrite
        an existing dest, the live file is renamed ASIDE to ``<dst>.bak``
        first (never delete the only good copy — if the cause is persistent,
        the backup still holds it), then the new one moves in and the backup
        is dropped. A crash between those moves leaves the backup behind,
        and readers of the JSON file (the manifest, the tombstones) fall
        back to it."""
        src, dst = self._full(src), self._full(dst)
        try:
            self.fs.move(src, dst)
        except OSError:
            bak = dst + ".bak"
            if self._exists_full(bak):
                self.fs.delete_file(bak)
            if self._exists_full(dst):
                self.fs.move(dst, bak)
            self.fs.move(src, dst)
            if self._exists_full(bak):
                self.fs.delete_file(bak)

    def total_size(self, paths) -> int:
        """Bytes on disk of the files ``paths`` (one metadata call)."""
        return sum(i.size for i in self.fs.get_file_info([self._full(p) for p in paths]))

    def _exists_full(self, path: str) -> bool:
        return self.fs.get_file_info(path).type != pafs.FileType.NotFound

    # -- parquet -----------------------------------------------------------
    def pads_dataset(self, rel: str = "", **kwargs):
        import pyarrow.dataset as pads

        return pads.dataset(self.join(rel), filesystem=self.fs, **kwargs)

    def read_table(self, path: str, **kwargs):
        import pyarrow.parquet as pq

        return pq.read_table(self._full(path), filesystem=self.fs, **kwargs)

    def read_tables(self, paths, columns=None, max_workers: int = 8) -> list:
        """Threaded multi-file parquet read, result order == input order.
        The serve-path shard loader reads dozens of small per-wave files;
        reading them sequentially dominated ShardIndex load (~0.15 s of
        0.30 s per shard at 100k docs). Threads, not pads.dataset: the
        pyarrow.dataset import drags in pandas (~0.35 s per actor worker),
        the wrong trade for actor cold-start."""
        paths = list(paths)
        if not paths:
            return []
        if len(paths) == 1:
            return [self.read_table(paths[0], columns=columns)]
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(min(max_workers, len(paths))) as ex:
            return list(ex.map(lambda p: self.read_table(p, columns=columns), paths))

    def write_table(self, table, rel: str, **kwargs) -> None:
        import pyarrow.parquet as pq

        pq.write_table(table, self._full(rel), filesystem=self.fs, **kwargs)

    def parquet_file(self, path: str):
        import pyarrow.parquet as pq

        return pq.ParquetFile(self.open_input(path))

    # -- Ray Data ----------------------------------------------------------
    @property
    def _is_plain_local(self) -> bool:
        return type(self.fs) is pafs.LocalFileSystem

    def _ray_fs_kwargs(self) -> dict:
        """Ray Data reads/writes take the explicit handle ONLY for non-local
        filesystems: a user-supplied handle bypasses Ray's resolved-local
        fast path and costs ~30% on local writes (measured), while remote /
        injected filesystems need the handle to work at all."""
        return {} if self._is_plain_local else {"filesystem": self.fs}

    def ray_read_parquet_files(self, files: list[str], **kwargs):
        """Read an explicit FILE list (full paths, e.g. from list_files).
        No directory discovery -> no hive partition inference, which makes
        this the safe reader for trees whose partition dirs nest at mixed
        depths (docs/shard_id=* beside docs/gen_*/shard_id=*)."""
        import ray.data

        return ray.data.read_parquet(list(files), **self._ray_fs_kwargs(), **kwargs)

    def write_dataset(self, ds, rel: str, **kwargs) -> list[str]:
        """write_parquet under ``rel`` beside whatever is there, every file
        named with a fresh tag; returns the full paths of the files written
        (unlisted until a manifest commit publishes them)."""
        tag = new_tag()
        ds.write_parquet(self.join(rel), filename_provider=_TaggedNames(tag),
                         **self._ray_fs_kwargs(), **kwargs)
        return [f for f in self.list_files(rel, recursive=True, suffix=".parquet")
                if posixpath.basename(f).startswith(tag)]

    def atomic_write_dataset(self, ds, rel: str, **kwargs) -> None:
        """write_parquet to ``rel``.tmp then swap the whole dir into place
        (outputs that are not index tables; SURVEY.md §4 retries row). The
        PREVIOUS ``rel`` is deleted before the move."""
        tmp = rel + ".tmp"
        if self.exists(tmp):
            self.delete_dir(tmp)
        ds.write_parquet(self.join(tmp), **self._ray_fs_kwargs(), **kwargs)
        self.commit_dir(tmp, rel)

    def commit_dir(self, tmp: str, rel: str) -> None:
        """Move the fully written dir ``tmp`` to ``rel``, deleting the
        previous ``rel`` first (the commit step of atomic_write_dataset)."""
        if self.exists(rel):
            self.delete_dir(rel)
        self.move(tmp, rel)


def resolve(location: Any) -> IndexFS:
    return location if isinstance(location, IndexFS) else IndexFS(location)
