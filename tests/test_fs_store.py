"""Filesystem-agnostic index store (state/fs.IndexFS): build + serve against
a ``file://`` URI and against an injected ``pyarrow.fs.SubTreeFileSystem``
(the in-sandbox stand-in for a remote/shared filesystem — exercises exactly
the non-local code paths: explicit FileSystem handles in every parquet
read/write, FileSelector listings instead of glob/os.walk, move-based
commits). Reference contract: pluggable StorageBackend
(smse_backend/services/file_storage.py:32-73, S3 impl :220-431)."""

from __future__ import annotations

import shutil

import pyarrow as pa
import pyarrow.fs as pafs
import pytest

import ray.data

from smse_backend_ray.config import EngineConfig
from smse_backend_ray.pipelines.build import append_index, build_index
from smse_backend_ray.pipelines.bulk_search import bulk_search
from smse_backend_ray.pipelines.search import SearchEngine
from smse_backend_ray.state.catalog import Catalog
from smse_backend_ray.state.fs import IndexFS

from test_build import planted_corpus

CFG = EngineConfig(n_shards=2, allowed_langs=("py", "go"))


@pytest.fixture(scope="module")
def local_baseline(ray_session):
    """Plain-local-path build of the planted corpus (parity reference)."""
    idx = "/tmp/smse_test_fs_local"
    shutil.rmtree(idx, ignore_errors=True)
    build_index(corpus=ray.data.from_arrow(planted_corpus()), index_dir=idx, cfg=CFG)
    with SearchEngine(idx) as eng:
        rows = eng.search(["hashMap lookup"], limit=20).to_pylist()
    return rows


def _roundtrip(location, baseline):
    build_index(
        corpus=ray.data.from_arrow(planted_corpus()), index_dir=location, cfg=CFG
    )
    # resume on the same location is a no-op (stages all done)
    cat = build_index(
        corpus=ray.data.from_arrow(planted_corpus()), index_dir=location, cfg=CFG
    )
    assert all(cat.stage_done(s) for s in ("docs", "dedup", "stats", "segments", "df"))
    with SearchEngine(location) as eng:
        rows = eng.search(["hashMap lookup"], limit=20, log=True).to_pylist()
        assert rows == baseline  # bitwise-equal scores across storage backends
        # query log + history + replay + tombstones live on the same fs
        h = eng.history(limit=5)
        assert h["total"] == 1 and h["queries"][0]["n_results"] == len(rows)
        assert "timestamp_str" in h["queries"][0]
        qid = h["queries"][0]["query_id"]
        assert eng.get_results(qid).num_rows == len(rows)
        eng.delete_doc(rows[0]["doc_id"])
        rows2 = eng.search(["hashMap lookup"], limit=20).to_pylist()
        assert {r["doc_id"] for r in rows2} == {r["doc_id"] for r in rows[1:]}
    # reopen: tombstones persisted through the fs
    with SearchEngine(location) as eng:
        rows3 = eng.search(["hashMap lookup"], limit=20).to_pylist()
        assert rows3 == rows2
    return cat


def test_file_uri_index(ray_session, local_baseline, tmp_path_factory):
    root = tmp_path_factory.mktemp("fs_uri")
    _roundtrip(f"file://{root}/idx", local_baseline)


def test_subtree_filesystem_index(ray_session, local_baseline, tmp_path_factory):
    """Remote-FS stand-in: all I/O through an explicit SubTreeFileSystem
    handle rooted away from CWD; no code path may fall back to os/glob."""
    base = str(tmp_path_factory.mktemp("fs_subtree"))
    sub = pafs.SubTreeFileSystem(base, pafs.LocalFileSystem())
    loc = (sub, "deep/idx")
    cat = _roundtrip(loc, local_baseline)

    # manifest/prefs round-trip through the injected fs
    cat.merge_prefs({"theme": "dark"})
    assert Catalog(loc).get_prefs() == {"theme": "dark"}

    # bulk (Dataset-streaming) search works through the same handle
    from smse_backend_ray.queryset import QuerySpec

    t = bulk_search(loc, [QuerySpec(query_id=1, parts=("hashMap lookup",))])
    assert t.num_rows > 0

    # append through the same handle: the collision check reads the index's
    # doc files beside the workspace's, both as root-relative paths
    n_before = cat.get_stats()["n_docs"]
    extra = pa.table({
        "repo": ["org/a", "org/c"], "path": ["src/main.py", "src/new.py"],
        "commit": ["c1", "c3"], "lang": ["py", "py"],
        "content": ["collides with an indexed doc", "hashMap lookup appended"],
    })
    cat = append_index(ray.data.from_arrow(extra), loc)
    assert cat.get_stats()["n_docs"] == n_before + 1
    assert cat.generations()["1"]["dropped_existing"] == 1
    with SearchEngine(loc) as eng:
        paths = set(eng.search(["hashMap lookup"], limit=20)["path"].to_pylist())
    assert "src/new.py" in paths

    # gc removes orphaned tmp state through the fs
    ifs = IndexFS(loc)
    ifs.mkdirs("zombie.tmp")
    with ifs.open_output("manifest.json.tmp") as f:
        f.write(b"{}")
    removed = Catalog(loc).gc(max_age_hours=0.0)
    assert removed["tmp_dirs"] == 2
    assert not ifs.exists("zombie.tmp") and not ifs.exists("manifest.json.tmp")


def test_indexfs_location_forms(tmp_path):
    a = IndexFS(str(tmp_path / "x"))
    b = IndexFS(f"file://{tmp_path}/x")
    assert a.root == b.root == str(tmp_path / "x")
    c = IndexFS((pafs.LocalFileSystem(), str(tmp_path / "y")))
    c.mkdirs()
    c.write_json_atomic("m.json", {"k": 1})
    assert c.read_json("m.json") == {"k": 1}
    assert IndexFS(c).root == c.root  # idempotent wrap


def test_read_tables_order_and_edges(tmp_path):
    """Threaded multi-file read returns tables in INPUT order (the shard
    loader zips them against wave metadata), honors column pruning, and
    handles the 0/1-file edges without spawning a pool."""
    import pyarrow as pa

    ifs = IndexFS(str(tmp_path / "idx"))
    ifs.mkdirs("d")
    for i in range(12):
        ifs.write_table(
            pa.table({"i": pa.array([i] * 3, type=pa.int64()),
                      "x": pa.array([f"v{i}"] * 3)}),
            f"d/part_{i:02d}.parquet",
        )
    paths = [f"d/part_{i:02d}.parquet" for i in range(12)]
    tabs = ifs.read_tables(paths, columns=["i"])
    assert [t["i"][0].as_py() for t in tabs] == list(range(12))
    assert all(t.column_names == ["i"] for t in tabs)
    assert ifs.read_tables([]) == []
    one = ifs.read_tables([paths[7]])
    assert len(one) == 1 and one[0]["i"][0].as_py() == 7
    # shuffled input order is preserved, not path-sorted
    rev = ifs.read_tables(list(reversed(paths)))
    assert [t["i"][0].as_py() for t in rev] == list(range(11, -1, -1))
