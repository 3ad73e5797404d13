"""One shard-local build at every size (pipelines/build.py).

Every stage after docs is one map over the docs/**/shard_id=S/ files;
driver_agg_max_bytes only picks the executor: driver threads by default,
Ray tasks with EngineConfig(driver_agg_max_bytes=0). Both executors must
write the segment and df tables pinned in DIGESTS (recorded from the build
that still ran a (term bucket, shard) posting exchange above the budget,
whose two paths wrote exactly these tables), record the same stage
metrics, and serve search equal to the oracle. Covered: positional and
plain builds, dataset- and file-mode builds, an append generation,
compaction, a one-shard corpus, an empty shard, and a crash inside one
shard's encode."""

from __future__ import annotations

import hashlib
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

import ray.data

from smse_backend_ray.config import BM25Params, EngineConfig
from smse_backend_ray.oracle import build_oracle_index, oracle_search
from smse_backend_ray.pipelines import build
from smse_backend_ray.pipelines.build import append_index, build_index, compact_index
from smse_backend_ray.pipelines.search import SearchEngine
from smse_backend_ray.sources.corpus import corpus_table_from_documents
from smse_backend_ray.sources.synth import synth_corpus_table
from smse_backend_ray.stages.scorer import ShardIndex
from smse_backend_ray.state.catalog import TABLES, Catalog, by_shard
from smse_backend_ray.state.fs import IndexFS

EXECUTORS = {"driver": {}, "ray": {"driver_agg_max_bytes": 0}}
QUERIES = [["hash join table"], ["sample query"], ["index"], ["parse value"], ["test"]]

# (segments, df): _digest of the sorted hive-read tables (pyarrow 16.1 IPC
# bytes). The plain, compacted and file-mode/positional corpora share
# tables: compaction of the even+odd append equals a plain build, and a
# file-mode build of the same rows equals a dataset-mode one.
_DF = "6cabd5bf2e22cfd4e7929a675da1e872006d94ee39b608b84012a69689d28233"
DIGESTS = {
    "plain": ("d56d9009bbcfdab3c292fec9e8d5ae46145591142cc891425b6b8cfc88cc212d", _DF),
    "positional": ("a13c02e8fe1666ebc535231144bec79ff3e003909641bf04792bbfd795a27f37", _DF),
    "files": ("a13c02e8fe1666ebc535231144bec79ff3e003909641bf04792bbfd795a27f37", _DF),
    "appended": ("676ebf6f5c27704ab9ac929f7c3b6347525df5de85d9796cf4536a91eae6764f", _DF),
    "compacted": ("d56d9009bbcfdab3c292fec9e8d5ae46145591142cc891425b6b8cfc88cc212d", _DF),
    "one_shard": (
        "f246150f1ef28d8b6a03993b5e3d786081d9610f64db62480bc9298b867b65ce",
        "d56c190c0635f6be12f9be3cde473b7d24c2abbf5a630a3c18bf937e6ea62f79",
    ),
    "empty_shard": (
        "cf29ff7051e20eaa793e12b59e7c208bf2b9a491c21f0b629b715d07ece342f1",
        "047acf4e4bf68077fe268a2375628d285b37e733481e3f20dafde9783da1727b",
    ),
}


def _segments(idx: str) -> pa.Table:
    # docs_bytes breaks the tie between generations of one (shard, term):
    # their doc sets are disjoint
    t = Catalog(idx).dataset("segments").to_table()
    return t.sort_by([(c, "ascending") for c in ("shard_id", "term", "docs_bytes")])


def _df(idx: str) -> pa.Table:
    return Catalog(idx).dataset("df").to_table().sort_by("term")


def _digest(t: pa.Table) -> str:
    t = t.replace_schema_metadata(None).combine_chunks()
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


def _assert_pinned(idx: str, corpus: str) -> None:
    assert _segments(idx).num_rows
    assert (_digest(_segments(idx)), _digest(_df(idx))) == DIGESTS[corpus]


def _dir_bytes(idx: str, rel: str) -> int:
    return sum(i.size for i in IndexFS(idx).list_infos(rel, recursive=True) if i.is_file)


def _assert_only_listed(idx: str) -> None:
    """The table dirs hold exactly the manifest's files."""
    cat, ifs = Catalog(idx), IndexFS(idx)
    for t in TABLES:
        assert ifs.list_files(t, recursive=True) == cat.files(t), t


def _assert_stage_metrics(idx: str) -> None:
    stages = Catalog(idx).manifest()["stages"]
    seg, df = _segments(idx), _df(idx)
    m = stages["segments"]["metrics"]
    postings = pc.sum(seg["df_shard"]).as_py()
    size = _dir_bytes(idx, "segments")
    assert m == {
        "postings": postings,
        "segment_rows": seg.num_rows,
        "bytes_written": size,
        "bytes_per_posting": round(size / postings, 3),
    }
    assert stages["df"]["metrics"] == {"terms": df.num_rows, "bytes_written": _dir_bytes(idx, "df")}
    assert pc.sum(df["df"]).as_py() == postings
    # one df file, whichever executor ran the build
    assert len(IndexFS(idx).list_files("df")) == 1
    _assert_only_listed(idx)


def _assert_search_matches_oracle(idx: str, oidx, queries=QUERIES) -> None:
    with SearchEngine(idx) as eng:
        for q in queries:
            got = eng.search(q, limit=20).to_pylist()
            exp = oracle_search(oidx, q, limit=20)
            assert [(g["doc_id"], g["exact_score"]) for g in got] == [
                (e["doc_id"], e["score"]) for e in exp
            ], q


@pytest.fixture(scope="module")
def corpus(sf_dir) -> pa.Table:
    return corpus_table_from_documents(sf_dir)


@pytest.fixture(scope="module")
def oidx(corpus):
    return build_oracle_index(corpus)


@pytest.fixture(scope="module")
def input_files(corpus, tmp_path_factory):
    d = tmp_path_factory.mktemp("seg_parts")
    files = []
    for i, start in enumerate(range(0, corpus.num_rows, 180)):
        files.append(str(d / f"part_{i}.parquet"))
        pq.write_table(corpus.slice(start, 180), files[-1])
    return files


def _build_each(root, name: str, **build_kw) -> dict[str, str]:
    """{executor: index dir} of one build under each executor."""
    cfg_kw = build_kw.pop("cfg_kw", {})
    out = {}
    for label, extra in EXECUTORS.items():
        idx = str(root / f"{name}_{label}")
        build_index(index_dir=idx, cfg=EngineConfig(**cfg_kw, **extra), **build_kw)
        out[label] = idx
    return out


@pytest.mark.parametrize(
    "mode,positional",
    [("dataset", False), ("dataset", True), ("files", True)],
)
def test_paths_agree(ray_session, corpus, oidx, input_files, tmp_path, mode, positional):
    cfg_kw = {"n_shards": 3, "with_positions": positional, "wave_size": 2}
    if mode == "dataset":
        each = _build_each(tmp_path, mode, corpus=ray.data.from_arrow(corpus), cfg_kw=cfg_kw)
    else:
        each = _build_each(tmp_path, mode, input_files=input_files, cfg_kw=cfg_kw)
        # file-mode doc files sit under docs/wave_*/shard_id=S and carry
        # the extra partition_id column
        docs = IndexFS(each["driver"]).list_files("docs", recursive=True, suffix=".parquet")
        assert all("/wave_" in f for f in docs)
        assert "partition_id" in pq.read_schema(docs[0]).names
    corpus_name = "files" if mode == "files" else ("positional" if positional else "plain")
    for idx in each.values():
        _assert_pinned(idx, corpus_name)
        _assert_stage_metrics(idx)
        _assert_search_matches_oracle(idx, oidx)
        # one segment file per shard, without shard_id
        files = IndexFS(idx).list_files("segments", recursive=True, suffix=".parquet")
        assert [f.rsplit("/", 2)[1] for f in files] == [f"shard_id={s}" for s in range(3)]
        want = ["term", "df_shard", "docs_bytes", "tfs_bytes", "dls_bytes"]
        assert pq.read_schema(files[0]).names == want + (["pos_bytes"] if positional else [])
    if positional:
        with SearchEngine(each["driver"]) as a, SearchEngine(each["ray"]) as b:
            for q, m in (("hash join", "phrase"), ("join table", "near")):
                assert a.search(q, mode=m).to_pylist() == b.search(q, mode=m).to_pylist()


@pytest.fixture(scope="module")
def appended(ray_session, corpus, tmp_path_factory):
    """{executor: index dir} of an even-rows base build plus an odd-rows
    append."""
    par = pc.bit_wise_and(pa.array(range(corpus.num_rows)), 1)
    even, odd = corpus.filter(pc.equal(par, 0)), corpus.filter(pc.equal(par, 1))
    root = tmp_path_factory.mktemp("seg_append")
    each = _build_each(root, "append", corpus=ray.data.from_arrow(even), cfg_kw={"n_shards": 3})
    for label, idx in each.items():
        append_index(ray.data.from_arrow(odd), idx, cfg=EngineConfig(n_shards=3, **EXECUTORS[label]))
    return each


def test_append_generation(appended, oidx):
    for idx in appended.values():
        _assert_pinned(idx, "appended")
        # one segment file per generation in each shard dir, one df file
        cat = Catalog(idx)
        assert [len(v) for _, v in sorted(by_shard(cat.ifs, cat.files("segments")).items())] == [2, 2, 2]
        assert len(cat.files("df")) == 1
        _assert_search_matches_oracle(idx, oidx)


def test_compact(appended, oidx, tmp_path):
    for label, idx in appended.items():
        dst = str(tmp_path / label)
        shutil.copytree(idx, dst)
        compact_index(dst, cfg=EngineConfig(n_shards=3, **EXECUTORS[label]))
        assert Catalog(dst).generations() == {}
        _assert_pinned(dst, "compacted")
        _assert_search_matches_oracle(dst, oidx)


def test_more_than_one_term_bucket(ray_session, tmp_path):
    """The one-shard corpus: 1,200 docs in shard 0 (the posting exchange
    split it over more than one term bucket)."""
    t = synth_corpus_table(1_200, tokens_per_doc=24)
    each = _build_each(tmp_path, "one", corpus=ray.data.from_arrow(t), cfg_kw={"n_shards": 1})
    oidx = build_oracle_index(t)
    terms = _df(each["driver"]).sort_by([("df", "descending")])["term"].to_pylist()
    for idx in each.values():
        _assert_pinned(idx, "one_shard")
        _assert_stage_metrics(idx)
        _assert_search_matches_oracle(idx, oidx, [[terms[0]], [terms[5], terms[-1]]])


def test_empty_shard(ray_session, corpus, tmp_path):
    t = corpus.slice(0, 3)
    each = _build_each(tmp_path, "empty", corpus=ray.data.from_arrow(t), cfg_kw={"n_shards": 6})
    oidx = build_oracle_index(t)
    terms = _df(each["driver"])["term"].to_pylist()
    for idx in each.values():
        _assert_pinned(idx, "empty_shard")
        shards = set(_segments(idx)["shard_id"].to_pylist())
        assert len(shards) < 6
        ifs = IndexFS(idx)
        for s in set(range(6)) - shards:
            assert not ifs.exists(f"segments/shard_id={s}")
        _assert_stage_metrics(idx)
        _assert_search_matches_oracle(idx, oidx, [[terms[0]], [terms[-1]]])


def test_shard_dirs_match_exactly(tmp_path):
    """Doc files of shard 1 and shard 10 never mix (the ShardIndex match)."""
    ifs = IndexFS(str(tmp_path))
    paths = [ifs.join(f"docs/shard_id={s}/part.parquet") for s in (1, 10, 11)]
    assert by_shard(ifs, paths) == {s: [p] for s, p in zip((1, 10, 11), paths)}


def test_crash_in_one_shard_resumes(ray_session, corpus, oidx, tmp_path, monkeypatch):
    """The second shard's encode raises after the other two shards' files
    are written: the manifest lists none of them, so no reader sees them,
    Catalog.gc collects them, and the resumed build equals an
    uninterrupted one (segments, df, stage metrics, stats)."""
    cfg = EngineConfig(n_shards=3)
    ref, idx = str(tmp_path / "ref"), str(tmp_path / "idx")
    build_index(corpus=ray.data.from_arrow(corpus), index_dir=ref, cfg=cfg)
    real = build._encode_shard

    def crashing(ifs, job, cfg):
        if job[0] == 1:
            raise RuntimeError("injected crash in a shard encode")
        time.sleep(0.5)
        return real(ifs, job, cfg)

    monkeypatch.setattr(build, "_encode_shard", crashing)
    with pytest.raises(RuntimeError, match="injected crash"):
        build_index(corpus=ray.data.from_arrow(corpus), index_dir=idx, cfg=cfg)
    monkeypatch.setattr(build, "_encode_shard", real)

    cat = Catalog(idx)
    assert cat.stage_done("stats") and not cat.stage_done("segments")
    ifs = IndexFS(idx)
    staged = ifs.list_files("segments", recursive=True)
    assert [f.rsplit("/", 2)[1] for f in staged] == ["shard_id=0", "shard_id=2"]
    assert cat.files("segments") == []
    for s in range(3):
        assert ShardIndex(idx, s, 1.0, BM25Params())._seg is None
    assert cat.gc()["unlisted_files"] == 2
    assert not ifs.list_files("segments", recursive=True)

    build_index(corpus=ray.data.from_arrow(corpus), index_dir=idx, cfg=cfg)  # resume
    assert _segments(idx).equals(_segments(ref))
    assert _df(idx).equals(_df(ref))
    got, want = Catalog(idx).manifest(), Catalog(ref).manifest()
    assert got["stats"] == want["stats"]
    for s in build.STAGE_ORDER:
        assert got["stages"][s]["status"] == "done"
        assert got["stages"][s].get("metrics") == want["stages"][s].get("metrics"), s
    _assert_only_listed(idx)
    _assert_search_matches_oracle(idx, oidx)


def test_build_job_reports_stage_walls_and_metrics(ray_session, corpus, tmp_path):
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "build_job.py")
    spec = importlib.util.spec_from_file_location("build_job", path)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    idx = str(tmp_path / "idx")
    build_index(corpus=ray.data.from_arrow(corpus.slice(0, 40)), index_dir=idx,
                cfg=EngineConfig(n_shards=2))
    cat = Catalog(idx)
    stages = cat.manifest()["stages"]
    for s in build.STAGE_ORDER:
        rep = job._stage_report(stages[s])
        assert rep["status"] == "done" and rep["wall_s"] >= 0
        assert rep["metrics"] == stages[s].get("metrics", {})
    assert set(job._stage_report(stages["segments"])["metrics"]) == {
        "postings", "segment_rows", "bytes_written", "bytes_per_posting",
    }
    assert set(job._stage_report(stages["docs"])["metrics"]) == {"files", "bytes_written", "rows"}
    cat.mark_stage("df", "running")
    assert job._stage_report(cat.manifest()["stages"]["df"])["wall_s"] is None
