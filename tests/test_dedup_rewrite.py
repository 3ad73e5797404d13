"""Exact dedup as an in-place rewrite of only the doc files that lose a row
(pipelines/build.py _run_dedup: a per-shard scan, then _rewrite_doc_files).

A planted file-mode corpus spreads its duplicates over three doc files:
a distinct-sha pair inside one file, a distinct-sha pair across files, an
equal-sha pair across files, an id with three copies, and a file whose only
duplicated row is that id's winner. Checked on both executors (driver
threads and Ray tasks), through a crash mid-rewrite, and through appends
(which drop their collisions with the same per-file rewrite). A second
planted corpus spreads duplicated ids over several shards."""

from __future__ import annotations

import hashlib
import posixpath
import time

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.fs as pafs
import pyarrow.parquet as pq
import pytest

import ray.data

from smse_backend_ray.config import EngineConfig
from smse_backend_ray.oracle import build_oracle_index, oracle_search
from smse_backend_ray.pipelines import build
from smse_backend_ray.pipelines.build import append_index, build_index
from smse_backend_ray.pipelines.search import SearchEngine
from smse_backend_ray.sources.corpus import doc_id_from_key
from smse_backend_ray.state.catalog import Catalog
from smse_backend_ray.state.fs import IndexFS


def _sha(s: str) -> str:
    return hashlib.sha256(s.encode()).hexdigest()


# three copies of one key: the min-sha copy goes to the last file
_TRI = sorted(["tri scan red", "tri scan green", "tri scan blue blue"], key=_sha)


def _part(rows) -> pa.Table:
    cols = list(zip(*rows))
    return pa.table({
        n: pa.array(c) for n, c in zip(("repo", "path", "commit", "lang", "content"), cols)
    })


PARTS = [
    _part([
        ("org/u", "u0.py", "c1", "py", "unique zero hashMap lookup"),
        ("org/a", "a.py", "c1", "py", "alpha hashMap one"),          # same file,
        ("org/a", "a.py", "c1", "py", "alpha hashMap two two"),      # distinct sha
        ("org/b", "b.py", "c1", "py", "beta lookup first"),
        ("org/c", "c.py", "c1", "py", "gamma same content lookup"),
        ("org/t", "t.py", "c1", "py", _TRI[1]),
    ]),
    _part([
        ("org/u", "u1.py", "c1", "py", "unique one scan"),
        ("org/b", "b.py", "c1", "py", "beta lookup second second"),  # across files
        ("org/c", "c.py", "c1", "py", "gamma same content lookup"),  # equal sha
        ("org/t", "t.py", "c1", "py", _TRI[2]),
    ]),
    _part([
        ("org/u", "u2.py", "c1", "py", "unique two hashMap"),
        ("org/t", "t.py", "c1", "py", _TRI[0]),                      # the winner
    ]),
]
CORPUS = pa.concat_tables(PARTS)
N_INPUT = CORPUS.num_rows
N_DUP_IDS = 4  # a, b, c, t
QUERIES = [["hashMap lookup"], ["alpha"], ["beta second"], ["gamma"], ["tri scan blue"], ["unique"]]


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("dedup_parts")
    files = []
    for i, t in enumerate(PARTS):
        files.append(str(d / f"part_{i}.parquet"))
        pq.write_table(t, files[-1])
    return files


@pytest.fixture(scope="module")
def oidx():
    return build_oracle_index(CORPUS)


def _cfg(**kw) -> EngineConfig:
    # one shard, one input file per wave: with _hook_dedup, each input file
    # is exactly one doc file
    return EngineConfig(n_shards=1, wave_size=1, **kw)


def _doc_bytes(idx: str) -> dict[str, bytes]:
    ifs = IndexFS(idx)
    return {f: ifs.open_input(f).read() for f in ifs.list_files("docs", recursive=True)}


def _hook_dedup(monkeypatch, before: dict) -> None:
    """After the docs stage's waves: merge each wave's doc files into one
    (the docs stage splits even a 2-row input into several files, so the
    planted layout needs this to be exact) and publish the merged files in
    their place, then snapshot the doc files' bytes."""
    real = build._run_docs_from_files

    def hooked(files, ifs, cfg, cat):
        real(files, ifs, cfg, cat)
        by_dir: dict[str, list[str]] = {}
        for f in cat.files("docs"):
            by_dir.setdefault(posixpath.dirname(f), []).append(f)
        merged = []
        for d, fs in sorted(by_dir.items()):
            merged.append(f"{d}/part-0.parquet")
            pq.write_table(pa.concat_tables(ifs.read_tables(fs)), merged[-1])
        cat.mark_stage("docs", "running", files={"docs": merged})
        for f in set(f for fs in by_dir.values() for f in fs) - set(merged):
            ifs.fs.delete_file(f)
        before.update(_doc_bytes(ifs.root))

    monkeypatch.setattr(build, "_run_docs_from_files", hooked)


def _docs(idx: str) -> pa.Table:
    return pads.dataset(f"{idx}/docs").to_table().sort_by("doc_id")


def _segments(idx: str) -> pa.Table:
    t = pads.dataset(f"{idx}/segments", partitioning="hive").to_table()
    return t.sort_by([("shard_id", "ascending"), ("term", "ascending")])


def _df(idx: str) -> pa.Table:
    return pads.dataset(f"{idx}/df").to_table().sort_by("term")


def _assert_search_matches_oracle(idx: str, oidx) -> None:
    with SearchEngine(idx) as eng:
        for q in QUERIES:
            got = eng.search(q, limit=20).to_pylist()
            exp = oracle_search(oidx, q, limit=20)
            assert [(g["doc_id"], g["exact_score"]) for g in got] == [
                (e["doc_id"], e["score"]) for e in exp
            ], q


@pytest.fixture(scope="module")
def built(ray_session, input_files, tmp_path_factory):
    """{label: (index dir, doc bytes before dedup)} for both executors."""
    out = {}
    for label, cfg in (("driver", _cfg()), ("ray", _cfg(driver_agg_max_bytes=0))):
        idx, before = str(tmp_path_factory.mktemp(f"dedup_{label}")), {}
        with pytest.MonkeyPatch.context() as mp:
            _hook_dedup(mp, before)
            build_index(input_files=input_files, index_dir=idx, cfg=cfg)
        out[label] = (idx, before)
    return out


@pytest.mark.parametrize("label", ["driver", "ray"])
def test_min_sha_row_survives(built, oidx, label):
    idx, before = built[label]
    assert len(before) == 3, "premise: one doc file per input file"
    docs = _docs(idx)
    assert docs.num_rows == oidx.n_docs == N_INPUT - 5
    assert len(set(docs["doc_id"].to_pylist())) == docs.num_rows
    for r in docs.to_pylist():
        assert r["content_sha256"] == oidx.docs[r["doc_id"]].content_sha256
    t_id = doc_id_from_key("org/t", "t.py", "c1")
    assert docs.filter(pa.compute.equal(docs["doc_id"], t_id))["content_sha256"].to_pylist() == [
        _sha(_TRI[0])
    ]
    # the equal-sha pair keeps the copy of the first file (path tie-break)
    c_id = doc_id_from_key("org/c", "c.py", "c1")
    assert docs.filter(pa.compute.equal(docs["doc_id"], c_id))["partition_id"].to_pylist() == [0]
    _assert_search_matches_oracle(idx, oidx)


@pytest.mark.parametrize("label", ["driver", "ray"])
def test_only_losing_files_rewritten(built, label):
    idx, before = built[label]
    after = _doc_bytes(idx)
    assert sorted(after) == Catalog(idx).files("docs"), "the doc files are the listed ones"
    last = max(before)  # wave_000002: its only duplicated row is the winner
    assert after[last] == before[last]
    replaced = sorted(set(before) - set(after))
    changed = sorted(set(after) - set(before))  # each a new file beside the one it replaces
    assert len(changed) == len(replaced) == 2
    assert [posixpath.dirname(f) for f in changed] == [posixpath.dirname(f) for f in replaced]
    for f, old in zip(changed, replaced):  # same schema, hive shard_id not written into the file
        assert pq.read_schema(f).equals(pq.ParquetFile(pa.BufferReader(before[old])).schema_arrow)
    m = Catalog(idx).manifest()["stages"]["dedup"]["metrics"]
    assert m == {
        "duplicates": N_DUP_IDS,
        "files_rewritten": 2,
        "rows_dropped": N_INPUT - Catalog(idx).get_stats()["n_docs"],
        "bytes_written": sum(len(after[f]) for f in changed),
    }


def test_executors_agree(built):
    assert _docs(built["driver"][0]).equals(_docs(built["ray"][0]))
    assert _df(built["driver"][0]).equals(_df(built["ray"][0]))


@pytest.mark.parametrize("label", ["driver", "ray"])
def test_crash_mid_rewrite_resumes(ray_session, built, input_files, oidx, tmp_path, monkeypatch, label):
    """The rewrite of the second losing file raises while the first one's is
    still running; the build raises only after that rewrite has landed (as
    a new, unlisted file), readers of the manifest still see every row, and
    the resumed build equals an uninterrupted one, with no unlisted file
    left under docs/. Ray tasks run the same rewrite function, so both
    executors are driven through the crash."""
    ref = built["driver"][0]
    cfg = _cfg() if label == "driver" else _cfg(driver_agg_max_bytes=0)
    idx = str(tmp_path / "idx")
    real = build._rewrite_doc_file

    def crashing(ifs, job):
        if "wave_000001" in job[0]:
            raise RuntimeError("injected crash in the dedup rewrite")
        time.sleep(1.0)
        return real(ifs, job)

    _hook_dedup(monkeypatch, {})
    monkeypatch.setattr(build, "_rewrite_doc_file", crashing)
    with pytest.raises(Exception, match="injected crash"):
        build_index(input_files=input_files, index_dir=idx, cfg=cfg)
    monkeypatch.setattr(build, "_rewrite_doc_file", real)

    cat = Catalog(idx)
    assert not cat.stage_done("dedup")
    assert cat.stage_metrics("dedup") == {}
    ifs = IndexFS(idx)
    files = ifs.list_files("docs", recursive=True)
    assert all(f.endswith(".parquet") for f in files)
    assert len(cat.files("docs")) == 3 and len(files) == 4
    first = sorted(set(files) - set(cat.files("docs")))
    assert "wave_000000" in first[0]
    assert pq.ParquetFile(first[0]).metadata.num_rows < PARTS[0].num_rows, (
        "the slow rewrite landed before the crash was raised"
    )
    seen = cat.dataset("docs").to_table(columns=["doc_id"])["doc_id"]
    via_ray = cat.ray_dataset("docs", columns=["doc_id"]).to_arrow_refs()
    via_ray = pa.concat_tables(ray.get(via_ray))["doc_id"]
    assert sorted(seen.to_pylist()) == sorted(via_ray.to_pylist())
    assert len(seen) == N_INPUT  # the listed files are the pre-dedup ones

    build_index(input_files=input_files, index_dir=idx, cfg=cfg)  # resume
    assert _docs(idx).equals(_docs(ref))
    assert _segments(idx).equals(_segments(ref))
    assert _df(idx).equals(_df(ref))
    m = Catalog(idx).manifest()["stages"]["dedup"]["metrics"]
    assert m["duplicates"] == N_DUP_IDS
    assert ifs.list_files("docs", recursive=True) == Catalog(idx).files("docs")
    _assert_search_matches_oracle(idx, oidx)


def test_no_duplicates_on_ray_detection(ray_session, tmp_path):
    """On Ray tasks, a corpus without duplicates: the per-shard scans find
    none and no doc file is touched."""
    idx = str(tmp_path / "idx")
    build_index(
        corpus=ray.data.from_arrow(PARTS[2]), index_dir=idx,
        cfg=EngineConfig(n_shards=2, driver_agg_max_bytes=0),
    )
    m = Catalog(idx).manifest()["stages"]["dedup"]["metrics"]
    assert m == {"duplicates": 0, "files_rewritten": 0, "rows_dropped": 0, "bytes_written": 0}
    assert _docs(idx).num_rows == PARTS[2].num_rows


class _NoOverwriteFS(pafs.LocalFileSystem):
    """A filesystem whose move cannot overwrite an existing file."""

    def move(self, src, dest):
        if self.get_file_info(dest).type != pafs.FileType.NotFound:
            raise OSError(f"{dest} exists")
        super().move(src, dest)


def _undeduped_copy(built, root) -> IndexFS:
    """The driver build's doc files as they were before dedup, under
    ``root`` on a filesystem whose move cannot overwrite."""
    idx, before = built["driver"]
    for f, data in before.items():
        dst = root / posixpath.relpath(f, idx)
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_bytes(data)
    return IndexFS((_NoOverwriteFS(), str(root)))


def test_rewrite_on_non_overwriting_move(built, tmp_path):
    """On a filesystem whose move cannot overwrite, the rewrite writes new
    files and the dedup stage's manifest write (over the docs stage's) goes
    through replace's fallback: the committed docs equal the build's and
    no backup is left."""
    ifs = _undeduped_copy(built, tmp_path)
    cat = Catalog(ifs)
    cat.mark_stage("docs", "done", files={"docs": ifs.list_files("docs", recursive=True)})
    m = build._run_dedup(ifs, _cfg(), cat.files("docs"))
    assert m["files_rewritten"] == 2
    cat.mark_stage("dedup", "done", m, files={"docs": m.pop("docs")})
    cat = Catalog(ifs)
    assert cat.stage_done("dedup")
    got = cat.dataset("docs").to_table().drop_columns(["shard_id"]).sort_by("doc_id")
    assert got.equals(_docs(built["driver"][0]))
    assert not ifs.list_files("docs", recursive=True, suffix=".bak")
    assert not ifs.exists("manifest.json.bak")


class _CrashingFS(_NoOverwriteFS):
    """A non-overwriting filesystem that raises inside replace's fallback
    on the manifest: after parking the live manifest at .bak ("aside") or
    before dropping that backup once the new manifest moved in
    ("moved_in")."""

    crash = None

    def move(self, src, dest):
        super().move(src, dest)
        if self.crash == "aside" and dest.endswith("manifest.json.bak"):
            raise OSError("injected crash after setting the manifest aside")

    def delete_file(self, path):
        if self.crash == "moved_in" and path.endswith("manifest.json.bak") and self.get_file_info(
            path[: -len(".bak")]
        ).type != pafs.FileType.NotFound:
            raise OSError("injected crash before dropping the manifest backup")
        super().delete_file(path)


@pytest.mark.parametrize("after", ["aside", "moved_in"])
def test_crash_inside_replace_fallback(built, input_files, tmp_path, after):
    """The dedup stage commits with one manifest write; on a filesystem whose
    move cannot overwrite, that write goes through replace's fallback. A
    crash between the fallback's moves leaves manifest.json.bak: alone (the
    live manifest was set aside) or beside the new manifest (which had moved
    in). A reopen reads the old state or the new one, and the resumed build
    mends either and equals an uninterrupted one."""
    fs = _CrashingFS()
    undeduped = _undeduped_copy(built, tmp_path)
    ifs = IndexFS((fs, undeduped.root))
    cat = Catalog(ifs)
    cat.mark_stage("docs", "done", files={"docs": ifs.list_files("docs", recursive=True)})
    m = build._run_dedup(ifs, _cfg(), cat.files("docs"))
    fs.crash = after
    with pytest.raises(OSError, match="injected crash"):
        cat.mark_stage("dedup", "done", m, files={"docs": m.pop("docs")})
    fs.crash = None
    reopened = Catalog(ifs)
    assert reopened.stage_done("dedup") == (after == "moved_in")
    n_rows = reopened.dataset("docs").count_rows()
    assert n_rows == (N_INPUT - 5 if after == "moved_in" else N_INPUT)
    build_index(input_files=input_files, index_dir=ifs, cfg=_cfg())  # resume
    assert _docs(str(tmp_path)).equals(_docs(built["driver"][0]))
    assert not ifs.list_files("docs", recursive=True, suffix=".bak")
    assert not ifs.exists("manifest.json.bak")


def test_appends_drop_collisions_and_bound_meta_cache(ray_session, oidx, tmp_path):
    """Appends of the later parts: every colliding id keeps its OLD row
    (existence-check first-wins). No stage keeps a per-index cache."""
    idx = str(tmp_path / "idx")
    cfg = EngineConfig(n_shards=2)
    build_index(corpus=ray.data.from_arrow(PARTS[0]), index_dir=idx, cfg=cfg)
    first = _docs(idx)
    for t in PARTS[1:]:
        append_index(ray.data.from_arrow(t), idx)
    assert not hasattr(build, "_META_CACHE")
    docs = _docs(idx)
    assert docs.num_rows == len(set(docs["doc_id"].to_pylist())) == oidx.n_docs
    old = dict(zip(first["doc_id"].to_pylist(), first["content_sha256"].to_pylist()))
    for did, sha in zip(docs["doc_id"].to_pylist(), docs["content_sha256"].to_pylist()):
        if did in old:
            assert sha == old[did]


def _multi_shard_corpus(n_shards: int) -> tuple[pa.Table, int]:
    """Three input parts whose duplicated ids (2-3 copies each, distinct
    contents, some copies in other parts) fall in every one of ``n_shards``
    shards, plus unique rows. Returns the corpus and its duplicated-id
    count."""
    keys = [("org/m", f"m{i}.py", "c1") for i in range(40)]
    by_shard: dict[int, list] = {}
    for k in keys:
        by_shard.setdefault(doc_id_from_key(*k) % n_shards, []).append(k)
    assert len(by_shard) == n_shards
    parts: list[list] = [[], [], []]
    n_dup = 0
    for s, ks in sorted(by_shard.items()):
        for j, k in enumerate(ks[:2]):
            copies = 2 + j  # one id with 2 copies, one with 3, per shard
            for c in range(copies):
                parts[c].append((*k, "py", f"dup {k[1]} copy{c} " + "tok " * c))
            n_dup += 1
        for k in ks[2:4]:
            parts[0].append((*k, "py", f"unique {k[1]}"))
    return [_part(p) for p in parts], n_dup


@pytest.mark.parametrize("label", ["driver", "ray"])
def test_duplicates_in_several_shards(ray_session, tmp_path, monkeypatch, label):
    """Duplicated ids in every shard, each shard's copies spread over
    several doc files: the build keeps each id's min-sha row (the oracle's
    pick), and the manifest's duplicate count survives a crash mid-rewrite
    and the resume."""
    n_shards = 3
    parts, n_dup = _multi_shard_corpus(n_shards)
    corpus = pa.concat_tables(parts)
    # batch_size 1: every input part is its own write task, so one id's
    # copies sit in several doc files of its shard
    extra = {} if label == "driver" else {"driver_agg_max_bytes": 0}
    cfg = EngineConfig(n_shards=n_shards, batch_size=1, **extra)
    ref, idx = str(tmp_path / "ref"), str(tmp_path / "idx")

    def ds():
        return ray.data.from_arrow(parts)

    build_index(corpus=ds(), index_dir=ref, cfg=cfg)
    oidx = build_oracle_index(corpus)
    docs = _docs(ref)
    assert docs.num_rows == oidx.n_docs == len(set(corpus.column("path").to_pylist()))
    for r in docs.to_pylist():
        assert r["content_sha256"] == oidx.docs[r["doc_id"]].content_sha256
    m = Catalog(ref).manifest()["stages"]["dedup"]["metrics"]
    assert m["duplicates"] == n_dup and m["rows_dropped"] == corpus.num_rows - oidx.n_docs
    assert m["files_rewritten"] > n_shards  # several files per shard lost a row
    with SearchEngine(ref) as eng:
        for q in (["dup copy0"], ["tok"], ["unique"]):
            got = eng.search(q, limit=50).to_pylist()
            exp = oracle_search(oidx, q, limit=50)
            assert [(g["doc_id"], g["exact_score"]) for g in got] == [
                (e["doc_id"], e["score"]) for e in exp
            ], q

    real = build._rewrite_doc_file

    def crashing(ifs, job):
        if "/shard_id=1/" in job[0]:
            raise RuntimeError("injected crash in the dedup rewrite")
        time.sleep(0.5)
        return real(ifs, job)

    monkeypatch.setattr(build, "_rewrite_doc_file", crashing)
    with pytest.raises(Exception, match="injected crash"):
        build_index(corpus=ds(), index_dir=idx, cfg=cfg)
    monkeypatch.setattr(build, "_rewrite_doc_file", real)
    cat = Catalog(idx)
    assert not cat.stage_done("dedup")
    assert cat.stage_metrics("dedup") == {}

    build_index(corpus=ds(), index_dir=idx, cfg=cfg)  # resume
    assert Catalog(idx).manifest()["stages"]["dedup"]["metrics"]["duplicates"] == n_dup
    assert _docs(idx).equals(_docs(ref))
    assert _segments(idx).equals(_segments(ref))
    assert _df(idx).equals(_df(ref))
