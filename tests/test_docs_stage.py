"""Docs stage without an exchange (pipelines/build._run_docs_from_dataset).

Read + analyze run once per input block, and a separate hive-partitioned
write operator bundles their output to >= batch_size x n_shards rows per
write task (build._docs_write_args), so a write of R rows into S shards
makes at most S x (R // (batch_size x S) + 1) doc files. A build from
many small input blocks must equal a one-block build (docs, segments, df,
stats), stay within that bound, and record the docs-stage manifest
metrics. compact_index and the waves of a file-mode build write their doc
store the same way."""

from __future__ import annotations

import hashlib
import random
import re

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

import ray.data

from smse_backend_ray.config import EngineConfig
from smse_backend_ray.pipelines.build import (
    _run_docs_from_dataset,
    append_index,
    build_index,
    compact_index,
)
from smse_backend_ray.sources.corpus import corpus_table_from_documents, doc_id_from_key
from smse_backend_ray.state.catalog import Catalog
from smse_backend_ray.state.fs import IndexFS

CFG = {"n_shards": 2, "batch_size": 32}


def _table(idx: str, rel: str, keys: list[str]) -> pa.Table:
    t = Catalog(idx).dataset(rel).to_table()
    return t.sort_by([(k, "ascending") for k in keys])


def _doc_infos(idx: str) -> list:
    """File infos of the index's committed doc files."""
    cat = Catalog(idx)
    return cat.ifs.fs.get_file_info(cat.files("docs"))


def _file_bound(rows: int, cfg: EngineConfig) -> int:
    per_task = cfg.batch_size * cfg.n_shards
    return cfg.n_shards * (rows // per_task + 1)


@pytest.fixture(scope="module")
def corpus(sf_dir) -> pa.Table:
    return corpus_table_from_documents(sf_dir)


@pytest.fixture(scope="module")
def builds(ray_session, corpus, tmp_path_factory) -> dict[str, str]:
    """Dataset-mode builds from one and from 40 input blocks, and a
    file-mode build of 40 input files committed as one wave."""
    root = tmp_path_factory.mktemp("docs_stage")
    out = {}
    for name, ds in (
        ("one", ray.data.from_arrow(corpus)),
        ("many", ray.data.from_arrow(corpus).repartition(40)),
    ):
        out[name] = str(root / name)
        build_index(corpus=ds, index_dir=out[name], cfg=EngineConfig(**CFG))
    files = []
    step = -(-corpus.num_rows // 40)
    for i, start in enumerate(range(0, corpus.num_rows, step)):
        files.append(str(root / f"part_{i:02d}.parquet"))
        pq.write_table(corpus.slice(start, step), files[-1])
    out["files"] = str(root / "files")
    build_index(input_files=files, index_dir=out["files"], cfg=EngineConfig(**CFG, wave_size=len(files)))
    return out


def test_many_blocks_equal_one_block(builds):
    one, many = builds["one"], builds["many"]
    assert _table(one, "docs", ["doc_id"]).equals(_table(many, "docs", ["doc_id"]))
    seg_keys = ["shard_id", "term"]
    assert _table(one, "segments", seg_keys).equals(_table(many, "segments", seg_keys))
    assert _table(one, "df", ["term"]).equals(_table(many, "df", ["term"]))
    assert Catalog(one).get_stats() == Catalog(many).get_stats()


def test_doc_file_count_within_bound(builds, corpus):
    cfg = EngineConfig(**CFG)
    bound = _file_bound(corpus.num_rows, cfg)
    # 40 unbundled blocks (or input files) would write 40 x 2 files
    assert bound < 40 * cfg.n_shards
    assert set(builds) == {"one", "many", "files"}
    for idx in builds.values():
        assert 0 < len(_doc_infos(idx)) <= bound
    assert all("/wave_000000/" in i.path for i in _doc_infos(builds["files"]))


def test_analyze_runs_once_per_input_block(ray_session, corpus, tmp_path):
    """The write is its own operator: fused into it, the analyze would be
    bundled to the write's min_rows_per_file and run once per write task."""
    cfg = EngineConfig(**CFG)
    docs, _ = _run_docs_from_dataset(
        ray.data.from_arrow(corpus).repartition(40), IndexFS(str(tmp_path)), cfg
    )
    tasks = {
        name: int(n)
        for name, n in re.findall(r"^Operator \d+ (.+?): (\d+) tasks executed", docs.stats(), re.M)
    }
    analyze = [k for k in tasks if "MapBatches" in k]
    assert analyze and all("Write" not in k for k in analyze), tasks
    assert tasks[analyze[0]] == 40
    assert tasks["Write"] <= corpus.num_rows // (cfg.batch_size * cfg.n_shards) + 1


def test_docs_stage_metrics(builds):
    for idx in builds.values():
        m = Catalog(idx).manifest()
        docs = m["stages"]["docs"]["metrics"]
        # the dedup rewrite replaces each file it rewrites by one new file
        assert docs["files"] == len(_doc_infos(idx))
        assert docs["rows"] == m["stats"]["n_docs"] + m["stages"]["dedup"]["metrics"]["rows_dropped"]
        assert docs["bytes_written"] > 0


def test_docs_stage_metrics_without_dedup(ray_session, corpus, tmp_path):
    idx = str(tmp_path / "nodedup")
    build_index(
        corpus=ray.data.from_arrow(corpus).repartition(8), index_dir=idx,
        cfg=EngineConfig(**CFG, dedup=False),
    )
    infos = _doc_infos(idx)
    assert Catalog(idx).manifest()["stages"]["docs"]["metrics"] == {
        "files": len(infos),
        "bytes_written": sum(i.size for i in infos),
        "rows": corpus.num_rows,
    }


def test_compact_doc_files_within_bound(ray_session, corpus, tmp_path):
    par = pc.bit_wise_and(pa.array(range(corpus.num_rows)), 1)
    even, odd = corpus.filter(pc.equal(par, 0)), corpus.filter(pc.equal(par, 1))
    cfg = EngineConfig(**CFG)
    inc, full = str(tmp_path / "inc"), str(tmp_path / "full")
    build_index(corpus=ray.data.from_arrow(even).repartition(20), index_dir=inc, cfg=cfg)
    append_index(ray.data.from_arrow(odd).repartition(20), inc)
    compact_index(inc)
    build_index(corpus=ray.data.from_arrow(corpus), index_dir=full, cfg=cfg)
    docs_cols = ["doc_id", "dl", "terms", "tfs", "shard_id"]
    assert _table(inc, "docs", ["doc_id"]).select(docs_cols).equals(
        _table(full, "docs", ["doc_id"]).select(docs_cols)
    )
    n_docs = Catalog(inc).get_stats()["n_docs"]
    assert 0 < len(_doc_infos(inc)) <= _file_bound(n_docs, cfg)


def test_doc_id_from_key_equals_digit_filter():
    """doc_id_from_key's str.translate digit pass equals the first-15-digits
    filter it replaced, on random keys (non-ASCII included)."""
    rng = random.Random(7)
    alphabet = "abcXYZ019/_.-\u00e9\u5317 "
    for _ in range(3000):
        repo, path, commit = ("".join(rng.choices(alphabet, k=rng.randint(0, 12))) for _ in range(3))
        h = hashlib.sha256(f"{repo}\n{path}\n{commit}".encode()).hexdigest()
        assert doc_id_from_key(repo, path, commit) == int("".join(c for c in h if c.isdigit())[:15])
