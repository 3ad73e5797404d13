"""One commit point (state/catalog.py): index tables are immutable files
named by the manifest.

Fault injection raises before every index write (``IndexFS.write_table``,
``write_dataset`` and ``write_json_atomic``, the manifest's own commit) of
each writer: the build (docs stage, dedup rewrite, stats, segments, df),
``append_index`` and ``compact_index``. After each raise the index the
manifest names answers bitwise-equal to the old state or the new one, a
rerun completes and equals an uninterrupted run, and ``Catalog.gc`` leaves
only listed files. An engine opened at every write step of a compaction
serves the old or the new index and writes nothing, and the files of the
previous commit survive gc for an engine still opening on them."""

from __future__ import annotations

import json
import shutil
import threading
from pathlib import Path

import pyarrow as pa
import pytest

import ray.data

from smse_backend_ray.config import EngineConfig
from smse_backend_ray.pipelines.build import append_index, build_index, compact_index
from smse_backend_ray.pipelines.search import SearchEngine
from smse_backend_ray.stages.scorer import ShardIndex
from smse_backend_ray.state.catalog import TABLES, Catalog
from smse_backend_ray.state.fs import IndexFS

CFG = EngineConfig(n_shards=2, batch_size=8)
QUERIES = [["alpha common"], ["beta"], ["gamma tok"], ["common"], ["delta9 epsilon3"]]


def _corpus(tag: str, n: int, dups: int = 0) -> pa.Table:
    """``n`` docs of repo ``tag``; the first ``dups`` keys appear twice,
    with a second content (the dedup stage's rewrite has work)."""
    rows = [(f"{tag}/{i}.py", f"{tag} alpha{i % 5} common tok delta{i % 11} epsilon{i % 4} "
             + "beta " * (i % 3) + ("gamma " if i % 2 else "")) for i in range(n)]
    rows += [(p, c + " copy gamma") for p, c in rows[:dups]]
    return pa.table({
        "repo": [tag] * len(rows), "path": [p for p, _ in rows], "commit": ["c1"] * len(rows),
        "lang": ["python"] * len(rows), "content": [c for _, c in rows],
    })


BASE, EXTRA = _corpus("r0", 60, dups=6), _corpus("r1", 30, dups=3)


class _Injected(RuntimeError):
    pass


def _hook_writes(mp, at: int | None = None, before=None) -> dict:
    """Count index writes: call ``before()`` ahead of each (the writes of a
    thread pool then run one at a time, none while ``before`` runs), and
    raise instead of the ``at``-th."""
    seen = {"n": 0}
    lock, gate = threading.Lock(), threading.Lock()
    for name in ("write_table", "write_dataset", "write_json_atomic"):
        real = getattr(IndexFS, name)

        def hooked(self, *a, _real=real, _name=name, **kw):
            with lock:
                seen["n"] += 1
                n = seen["n"]
            if before is not None:
                with gate:
                    before()
                    return _real(self, *a, **kw)
            if n == at:
                raise _Injected(f"injected crash before write {n} ({_name})")
            return _real(self, *a, **kw)

        mp.setattr(IndexFS, name, hooked)
    return seen


def _answers(idx: str) -> list:
    with SearchEngine(idx, num_actors=1) as eng:
        return [eng.search(q, limit=10).to_pylist() for q in QUERIES]


def _state(idx: str) -> tuple:
    """The committed index: stats and the sorted docs/segments/df tables."""
    cat = Catalog(idx)
    docs = cat.dataset("docs").to_table(columns=["doc_id", "content_sha256", "dl", "shard_id"])
    seg = cat.dataset("segments").to_table()
    return (
        cat.get_stats(),
        docs.sort_by("doc_id"),
        seg.sort_by([(c, "ascending") for c in ("shard_id", "term", "docs_bytes")]),
        cat.dataset("df").to_table().sort_by("term"),
    )


def _assert_only_listed(idx: str) -> None:
    cat, ifs = Catalog(idx), IndexFS(idx)
    for t in TABLES:
        assert ifs.list_files(t, recursive=True) == cat.files(t), t


def _assert_listed_or_retired(idx: str) -> None:
    """The table files on disk are exactly the listed ones and those the
    previous file commit listed."""
    cat = Catalog(idx)
    want = {f for t in TABLES for f in cat.files(t)}
    want |= {cat.ifs.join(r) for r in cat.manifest().get("retired", [])}
    assert {f for t in TABLES for f in cat.ifs.list_files(t, recursive=True)} == want


def _assert_gc_leaves_listed(idx: str) -> None:
    """After gc, the table files on disk are the listed ones plus those
    the previous manifest listed (kept for engines still opening on it)."""
    cat = Catalog(idx)
    cat.gc()
    retired = {cat.ifs.join(r) for r in cat.manifest().get("retired", [])}
    for t in TABLES:
        on_disk = set(cat.ifs.list_files(t, recursive=True))
        assert set(cat.files(t)) <= on_disk <= set(cat.files(t)) | retired, t


def _tree(idx: str) -> dict:
    return {i.path: (i.size, i.mtime) for i in IndexFS(idx).list_infos(recursive=True) if i.is_file}


def _faults(monkeypatch, run, after_raise) -> int:
    """``run(n)`` with a raise before its n-th write, n = 1, 2, ... until it
    completes; ``after_raise(n)`` after each raise. Returns the number of
    write steps."""
    n = 0
    while True:
        n += 1
        with monkeypatch.context() as mp:
            _hook_writes(mp, at=n)
            try:
                run(n)
            except _Injected:
                pass
            else:
                return n - 1
        after_raise(n)


@pytest.fixture(scope="module")
def states(ray_session, tmp_path_factory):
    """Uninterrupted runs: a build of BASE, that build plus an append of
    EXTRA, that append with five docs tombstoned, and that one compacted."""
    root = tmp_path_factory.mktemp("commit")
    out = {n: str(root / n) for n in ("built", "appended", "tombstoned", "compacted")}
    build_index(corpus=ray.data.from_arrow(BASE), index_dir=out["built"], cfg=CFG)
    shutil.copytree(out["built"], out["appended"])
    append_index(ray.data.from_arrow(EXTRA), out["appended"])
    shutil.copytree(out["appended"], out["tombstoned"])
    with SearchEngine(out["tombstoned"], num_actors=1) as eng:
        for d in eng.search(["common"], limit=5)["doc_id"].to_pylist():
            eng.delete_doc(d)
    shutil.copytree(out["tombstoned"], out["compacted"])
    compact_index(out["compacted"])
    return {"root": root, **out}


def test_fresh_build_lists_every_table_file(states):
    """After a fresh build the docs/, segments/ and df/ parquet files are
    exactly the manifest's lists."""
    _assert_only_listed(states["built"])
    assert all(Catalog(states["built"]).files(t) for t in TABLES)


def test_no_orphans_after_build_append_compact(states, tmp_path):
    """build -> append -> compact -> one more commit leaves no unlisted
    file: the files the compaction dropped are kept (for engines that read
    the manifest before it) through manifest writes that publish no files,
    and only until the next file commit."""
    idx = str(tmp_path / "idx")
    shutil.copytree(states["compacted"], idx)
    cat = Catalog(idx)
    retired = cat.manifest()["retired"]
    assert retired and all(cat.ifs.exists(r) for r in retired)
    cat.merge_prefs({"theme": "dark"})
    assert cat.gc()["unlisted_files"] == 0
    assert Catalog(idx).manifest()["retired"] == retired
    append_index(ray.data.from_arrow(_corpus("r2", 12)), idx)
    assert not any(cat.ifs.exists(r) for r in retired)
    assert Catalog(idx).gc()["unlisted_files"] == 0
    _assert_listed_or_retired(idx)


@pytest.mark.parametrize("writer", ["append", "compact"])
def test_index_of_older_builds(states, tmp_path, writer):
    """A manifest written before the file lists existed (each table was
    every parquet file under its dir): gc deletes none of the index's
    files, an engine serves it as before and writes nothing, and an append
    or a compaction on it equals one on the same index with listed files."""
    idx, ref = str(tmp_path / "older"), str(tmp_path / "ref")
    shutil.copytree(states["built"], idx)
    shutil.copytree(states["built"], ref)
    man = Path(idx) / "manifest.json"
    m = json.loads(man.read_text())
    del m["files"]
    m.pop("retired", None)
    man.write_text(json.dumps(m))
    tree = _tree(idx)
    assert Catalog(idx).gc()["unlisted_files"] == 0
    assert _answers(idx) == _answers(states["built"])
    assert _tree(idx) == tree
    for d in (idx, ref):
        if writer == "append":
            append_index(ray.data.from_arrow(EXTRA), d)
        else:
            with SearchEngine(d, num_actors=1) as eng:
                for doc in eng.search(["common"], limit=5)["doc_id"].to_pylist():
                    eng.delete_doc(doc)
            compact_index(d)
    assert _state(idx) == _state(ref)
    assert _answers(idx) == _answers(ref)
    assert Catalog(idx).gc()["unlisted_files"] == 0
    _assert_listed_or_retired(idx)


def test_build_fault_at_every_write(states, monkeypatch):
    """A build that raises before any of its writes: a rerun completes and
    equals an uninterrupted build, and gc leaves only listed files."""
    want = _state(states["built"])
    root = states["root"]

    def run(n):
        idx = str(root / f"build_{n}")
        build_index(corpus=ray.data.from_arrow(BASE), index_dir=idx, cfg=CFG)

    def after_raise(n):
        idx = str(root / f"build_{n}")
        _assert_gc_leaves_listed(idx)
        build_index(corpus=ray.data.from_arrow(BASE), index_dir=idx, cfg=CFG)
        assert _state(idx) == want
        Catalog(idx).gc()
        _assert_only_listed(idx)
        shutil.rmtree(idx)

    steps = _faults(monkeypatch, run, after_raise)
    m = Catalog(states["built"]).manifest()["stages"]
    assert m["dedup"]["metrics"]["files_rewritten"] > 0  # the rewrite was driven
    assert steps >= 12


@pytest.mark.parametrize("writer", ["append", "compact"])
def test_writer_fault_at_every_write(states, monkeypatch, writer):
    """An append or a compaction that raises before any of its writes: the
    index the manifest names answers bitwise-equal to the old state or the
    new one, a rerun completes and equals an uninterrupted run, and gc
    leaves only listed files."""
    old, new = ("built", "appended") if writer == "append" else ("tombstoned", "compacted")
    old_answers, new_answers = _answers(states[old]), _answers(states[new])
    assert old_answers != new_answers
    want = _state(states[new])
    root = states["root"]

    def rerun(idx):
        if writer == "append":
            append_index(ray.data.from_arrow(EXTRA), idx)
        else:
            compact_index(idx)

    def run(n):
        idx = str(root / f"{writer}_{n}")
        shutil.copytree(states[old], idx)
        rerun(idx)

    def after_raise(n):
        idx = str(root / f"{writer}_{n}")
        assert _answers(idx) in (old_answers, new_answers), n
        _assert_gc_leaves_listed(idx)
        rerun(idx)
        assert _state(idx) == want
        assert _answers(idx) == new_answers
        _assert_gc_leaves_listed(idx)
        shutil.rmtree(idx)

    assert _faults(monkeypatch, run, after_raise) >= 4


def test_engine_open_at_every_compaction_write(states, monkeypatch, tmp_path):
    """An engine opened before each write of a compaction serves the old or
    the new index (never an empty shard), and opening it writes nothing."""
    idx = str(tmp_path / "idx")
    shutil.copytree(states["tombstoned"], idx)
    old_answers, new_answers = _answers(states["tombstoned"]), _answers(states["compacted"])
    seen = []

    def open_engine():
        before = _tree(idx)
        got = _answers(idx)
        assert _tree(idx) == before
        assert got in (old_answers, new_answers)
        seen.append(got == new_answers)

    with monkeypatch.context() as mp:
        _hook_writes(mp, before=open_engine)
        compact_index(idx)
    open_engine()
    assert seen[0] is False and seen[-1] is True and len(seen) >= 5


def test_previous_commit_survives_gc(states, tmp_path):
    """An engine that read the manifest before a compaction can still open
    every shard after the compaction committed and gc ran."""
    idx = str(tmp_path / "idx")
    shutil.copytree(states["appended"], idx)
    snap = Catalog(idx)
    compact_index(idx)
    assert Catalog(idx).gc()["unlisted_files"] == 0
    params = __import__("smse_backend_ray.config", fromlist=["BM25Params"]).BM25Params()
    for s in range(CFG.n_shards):
        files = (snap.shard_files("segments", s), snap.shard_files("docs", s))
        sh = ShardIndex(idx, s, snap.get_stats()["avgdl"], params, CFG.block_size, files=files)
        assert sh._seg is not None and sh.meta_ids.size


def test_open_engine_reads_docs_after_two_file_commits(states, tmp_path):
    """An engine opened before a compaction and a later append (whose
    cleanup deletes the doc files of the engine's own manifest) still
    answers explain and more_like_this: their point reads open the doc
    files of the current manifest."""
    idx = str(tmp_path / "idx")
    shutil.copytree(states["appended"], idx)
    with SearchEngine(idx, num_actors=1) as eng:
        ids = eng.search(["common"], limit=3)["doc_id"].to_pylist()
        want = eng.explain(["common tok"], ids), eng.more_like_this(ids[:1])
        snap = eng.cat.files("docs")
        compact_index(idx)
        append_index(ray.data.from_arrow(_corpus("r3", 8)), idx)
        Catalog(idx).gc()
        assert not any(eng.ifs.exists(f) for f in snap)
        assert eng.explain(["common tok"], ids).equals(want[0])
        assert eng.more_like_this(ids[:1]).equals(want[1])
