"""Bulk search (the serving engine run over query chunks) must equal
SearchEngine.search_batch exactly, and the oracle bitwise."""

from __future__ import annotations

import dataclasses
import shutil

import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from smse_backend_ray.config import EngineConfig
from smse_backend_ray.oracle import build_oracle_index, oracle_search
from smse_backend_ray.pipelines.build import build_index
from smse_backend_ray.pipelines.bulk_search import (
    CHUNK_QUERIES,
    RESULT_SCHEMA,
    bulk_search,
)
from smse_backend_ray.pipelines.search import SearchEngine
from smse_backend_ray.queryset import (
    ALL_QUERIES,
    BASE_QUERIES,
    MULTIPART_QUERIES,
    NEAR_QUERIES,
    PHRASE_QUERIES,
    QuerySpec,
)
from smse_backend_ray.sources.corpus import (
    corpus_from_documents,
    corpus_table_from_documents,
)

IDX = "/tmp/smse_test_bulk_idx"
POS_IDX = "/tmp/smse_test_bulk_pos_idx"

SORT_KEYS = [("query_id", "ascending"), ("rank", "ascending")]


@pytest.fixture(scope="module")
def bulk_idx(ray_session, sf_dir):
    shutil.rmtree(IDX, ignore_errors=True)
    build_index(
        corpus=corpus_from_documents(sf_dir), index_dir=IDX, cfg=EngineConfig(n_shards=4)
    )
    return build_oracle_index(corpus_table_from_documents(sf_dir))


@pytest.fixture(scope="module")
def bulk_pos_idx(ray_session, sf_dir):
    shutil.rmtree(POS_IDX, ignore_errors=True)
    build_index(
        corpus=corpus_from_documents(sf_dir),
        index_dir=POS_IDX,
        cfg=EngineConfig(n_shards=4, with_positions=True),
    )
    return POS_IDX


def _served(idx, specs) -> pa.Table:
    """search_batch over the whole list, projected and sorted like bulk."""
    with SearchEngine(idx) as eng:
        t = eng.search_batch(specs).select(RESULT_SCHEMA.names)
    return t.take(pa.compute.sort_indices(t, sort_keys=SORT_KEYS))


def _read_parts(out_dir) -> pa.Table:
    t = pads.dataset(out_dir).to_table()
    return t.take(pa.compute.sort_indices(t, sort_keys=SORT_KEYS))


def test_bulk_search_matches_oracle(bulk_idx):
    oidx = bulk_idx
    queries = BASE_QUERIES + MULTIPART_QUERIES  # unscoped set
    got = bulk_search(IDX, queries)
    rows = got.to_pylist()
    by_q: dict[int, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    n_checked = 0
    for qs in queries:
        exp = oracle_search(oidx, list(qs.parts), limit=qs.limit)
        mine = by_q.get(qs.query_id, [])
        assert len(mine) == len(exp), qs.query_id
        for g, e in zip(mine, exp):
            assert g["doc_id"] == e["doc_id"]
            assert g["rank"] == e["rank"]
            assert g["exact_score"] == e["score"]  # bitwise
            n_checked += 1
    assert n_checked > 50


def test_bulk_search_no_hit(bulk_idx):
    from smse_backend_ray.queryset import QuerySpec

    out = bulk_search(IDX, [QuerySpec(999, ("qqzzquux nohitterm",))])
    assert out.num_rows == 0
    assert out.schema.names == ["query_id", "rank", "doc_id", "score", "exact_score"]


def test_bulk_search_parquet_sink_matches_collect(bulk_idx, tmp_path):
    """out_dir mode writes one parquet part per query chunk whose rows
    equal the collected path exactly; the manifest counts per part. A
    second run into the same dir replaces the first run's parts instead
    of adding to them."""
    want = bulk_search(IDX, BASE_QUERIES)
    assert want.num_rows > 0
    out_dir = str(tmp_path / "bulk_out")
    for _ in range(2):
        manifest = bulk_search(IDX, BASE_QUERIES, out_dir=out_dir)
        assert manifest.column_names == ["part", "n_rows"]
        assert manifest["part"].to_pylist() == ["part-00000.parquet"]
        assert int(pa.compute.sum(manifest["n_rows"]).as_py()) == want.num_rows
        assert _read_parts(out_dir).equals(want)
    assert not (tmp_path / "bulk_out.tmp").exists()


def test_bulk_search_parts_per_chunk(bulk_idx, tmp_path):
    """A list longer than one chunk writes one part per chunk, in input
    order; together they equal the collected result."""
    specs = [
        QuerySpec(i, q.parts) for i, q in enumerate(BASE_QUERIES * 30)
    ]  # 300 specs: two chunks
    manifest = bulk_search(IDX, specs, out_dir=str(tmp_path / "o"))
    assert manifest["part"].to_pylist() == ["part-00000.parquet", "part-00001.parquet"]
    first = pads.dataset(str(tmp_path / "o" / "part-00000.parquet")).to_table()
    assert set(first["query_id"].to_pylist()) <= set(range(CHUNK_QUERIES))
    assert _read_parts(str(tmp_path / "o")).equals(bulk_search(IDX, specs))


def _dup_and_long_specs() -> list:
    """ALL_QUERIES, two specs that share a query id with an earlier one
    (one identical, one a different query), then enough re-numbered
    copies to cross a chunk boundary."""
    specs = list(ALL_QUERIES)
    specs += [BASE_QUERIES[3], QuerySpec(3, ("sort merge",), limit=4)]
    base = 1000
    while len(specs) <= CHUNK_QUERIES + 20:
        for q in ALL_QUERIES:
            specs.append(dataclasses.replace(q, query_id=base))
            base += 1
    return specs


@pytest.mark.parametrize("case", ["all_queries", "dup_and_long"])
def test_bulk_equals_search_batch(bulk_idx, case):
    """Scoped, thresholded, AND and exclusion specs included: bulk is the
    serve path's result, projected and stably sorted by (query_id, rank)."""
    specs = list(ALL_QUERIES) if case == "all_queries" else _dup_and_long_specs()
    assert (len(specs) > CHUNK_QUERIES) == (case == "dup_and_long")
    got = bulk_search(IDX, specs)
    want = _served(IDX, specs)
    assert got.num_rows > 0
    assert got.equals(want)
    if case == "dup_and_long":
        # each spec sharing id 3 keeps its own ranked block
        with SearchEngine(IDX) as eng:
            n = [eng.search_batch([q]).num_rows for q in specs if q.query_id == 3]
        assert len(n) == 3 and min(n) > 0
        assert pa.compute.sum(pa.compute.equal(got["query_id"], 3)).as_py() == sum(n)


def test_bulk_equals_search_batch_positional(bulk_pos_idx):
    specs = list(PHRASE_QUERIES + NEAR_QUERIES + ALL_QUERIES)
    got = bulk_search(bulk_pos_idx, specs)
    assert set(got["query_id"].to_pylist()) & {q.query_id for q in PHRASE_QUERIES}
    assert set(got["query_id"].to_pylist()) & {q.query_id for q in NEAR_QUERIES}
    assert got.equals(_served(bulk_pos_idx, specs))


def test_bulk_search_respects_tombstones(bulk_idx, tmp_path):
    """A doc deleted through SearchEngine.delete_doc leaves bulk results
    as it leaves served ones (own index copy: the module index is shared)."""
    idx = str(tmp_path / "idx")
    shutil.copytree(IDX, idx)
    q3 = [q for q in BASE_QUERIES if q.query_id == 3]
    with SearchEngine(idx) as eng:
        top = eng.search_batch(q3)["doc_id"][0].as_py()
        eng.delete_doc(top)
    got = bulk_search(idx, BASE_QUERIES)
    assert top not in got["doc_id"].to_pylist()
    assert got.filter(pa.compute.equal(got["query_id"], 3)).num_rows > 0
    assert got.equals(_served(idx, BASE_QUERIES))
