"""Compaction/vacuum (pipelines/build.py compact_index): merging segment
generations and physically applying tombstones must be bitwise-equal to a
full rebuild of the surviving corpus."""

from __future__ import annotations

import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from smse_backend_ray.config import EngineConfig
from smse_backend_ray.pipelines.build import append_index, build_index, compact_index
from smse_backend_ray.pipelines.search import SearchEngine
from smse_backend_ray.queryset import ALL_QUERIES
from smse_backend_ray.sources.corpus import corpus_table_from_documents, doc_id_from_key
from smse_backend_ray.state.catalog import Catalog, by_shard


def _ds(table: pa.Table):
    import ray.data

    return ray.data.from_arrow(table)


def _df_table(idx: str) -> pa.Table:
    return Catalog(idx).dataset("df").to_table().sort_by("term")


def test_compact_merges_generations(ray_session, sf_dir):
    t = corpus_table_from_documents(sf_dir)
    par = pc.bit_wise_and(pa.array(range(len(t))), 1)
    cfg = EngineConfig(n_shards=4)

    inc = "/tmp/smse_test_compact_inc"
    full = "/tmp/smse_test_compact_full"
    shutil.rmtree(inc, ignore_errors=True)
    shutil.rmtree(full, ignore_errors=True)
    build_index(corpus=_ds(t.filter(pc.equal(par, 0))), index_dir=inc, cfg=cfg)
    append_index(_ds(t.filter(pc.equal(par, 1))), inc)
    cat = compact_index(inc)
    build_index(corpus=_ds(t), index_dir=full, cfg=cfg)

    assert cat.generations() == {}
    # one segment file (one generation) per shard
    assert all(len(v) == 1 for v in by_shard(cat.ifs, cat.files("segments")).values())
    assert cat.get_stats() == Catalog(full).get_stats()
    assert _df_table(inc).equals(_df_table(full))
    with SearchEngine(full) as a, SearchEngine(inc) as b:
        assert a.search_batch(ALL_QUERIES).to_pylist() == b.search_batch(
            ALL_QUERIES
        ).to_pylist()


def test_vacuum_applies_tombstones(ray_session, sf_dir):
    t = corpus_table_from_documents(sf_dir)
    cfg = EngineConfig(n_shards=4)
    idx = "/tmp/smse_test_compact_vac"
    ref = "/tmp/smse_test_compact_vacref"
    shutil.rmtree(idx, ignore_errors=True)
    shutil.rmtree(ref, ignore_errors=True)
    build_index(corpus=_ds(t), index_dir=idx, cfg=cfg)

    # tombstone 5 deterministic docs, vacuum, and rebuild the reference
    # index WITHOUT those corpus rows
    ids = [
        doc_id_from_key(r["repo"], r["path"], r["commit"])
        for r in t.slice(0, 5).to_pylist()
    ]
    with SearchEngine(idx) as eng:
        for d in ids:
            eng.delete_doc(d)
    cat = compact_index(idx, vacuum=True)
    assert cat.manifest()["stages"]["compact"]["metrics"] == {"vacuumed": 5}

    build_index(corpus=_ds(t.slice(5)), index_dir=ref, cfg=cfg)
    assert cat.get_stats() == Catalog(ref).get_stats()
    assert _df_table(idx).equals(_df_table(ref))
    with SearchEngine(ref) as a, SearchEngine(idx) as b:
        assert a.search_batch(ALL_QUERIES).to_pylist() == b.search_batch(
            ALL_QUERIES
        ).to_pylist()
        # tombstone file reset: deleted docs stay gone without filtering
        assert b._tombstones == set()


def test_compact_noop_when_single_generation(ray_session, sf_dir):
    idx = "/tmp/smse_test_compact_noop"
    shutil.rmtree(idx, ignore_errors=True)
    t = corpus_table_from_documents(sf_dir)
    cat = build_index(corpus=_ds(t), index_dir=idx, cfg=EngineConfig(n_shards=4))
    before = cat.ifs.list_files("segments", recursive=True, suffix=".parquet")
    cat2 = compact_index(idx)
    assert cat2.ifs.list_files("segments", recursive=True, suffix=".parquet") == before
    assert "compact" not in cat2.manifest()["stages"]


def test_no_vacuum_preserves_tombstones(ray_session, sf_dir):
    """compact(vacuum=False) merges generations only: tombstoned docs stay
    in the index and the tombstone file keeps filtering them (the review
    found the original implementation blanked it, resurrecting deletes)."""
    t = corpus_table_from_documents(sf_dir)
    par = pc.bit_wise_and(pa.array(range(len(t))), 1)
    cfg = EngineConfig(n_shards=4)
    idx = "/tmp/smse_test_compact_novac"
    ref = "/tmp/smse_test_compact_novacref"
    shutil.rmtree(idx, ignore_errors=True)
    shutil.rmtree(ref, ignore_errors=True)
    build_index(corpus=_ds(t.filter(pc.equal(par, 0))), index_dir=idx, cfg=cfg)
    append_index(_ds(t.filter(pc.equal(par, 1))), idx)
    ids = [
        doc_id_from_key(r["repo"], r["path"], r["commit"])
        for r in t.slice(0, 3).to_pylist()
    ]
    with SearchEngine(idx) as eng:
        for d in ids:
            eng.delete_doc(d)
    cat = compact_index(idx, vacuum=False)
    assert cat.generations() == {}
    # reference: full rebuild of the UNION corpus with the same deletes
    build_index(corpus=_ds(t), index_dir=ref, cfg=cfg)
    with SearchEngine(ref) as a, SearchEngine(idx) as b:
        assert b._tombstones == set(ids)
        for d in ids:
            a.delete_doc(d)
        assert a.search_batch(ALL_QUERIES).to_pylist() == b.search_batch(
            ALL_QUERIES
        ).to_pylist()


def test_docs_swap_crash_recovery(ray_session, sf_dir, monkeypatch):
    """A compaction that died after writing its new doc store, before its
    manifest commit, leaves the index as it was (the old doc files stay
    listed, the new ones unlisted); the next compact run completes."""
    from smse_backend_ray.pipelines import build

    t = corpus_table_from_documents(sf_dir)
    idx = "/tmp/smse_test_compact_crash"
    shutil.rmtree(idx, ignore_errors=True)
    cfg = EngineConfig(n_shards=4)
    build_index(corpus=_ds(t.slice(0, 100)), index_dir=idx, cfg=cfg)
    append_index(_ds(t.slice(100, 100)), idx)
    listed = Catalog(idx).files("docs")

    def crash(*a, **kw):
        raise RuntimeError("injected crash after the doc-store write")

    monkeypatch.setattr(build, "_run_segments", crash)
    with pytest.raises(RuntimeError, match="injected crash"):
        compact_index(idx)
    monkeypatch.undo()
    cat = Catalog(idx)
    assert cat.files("docs") == listed and len(cat.generations()) == 1
    assert len(cat.ifs.list_files("docs", recursive=True)) > len(listed)
    cat2 = compact_index(idx)
    assert cat2.generations() == {}
    with SearchEngine(idx) as eng:
        assert eng.search("hash join table", limit=3).num_rows > 0


def test_doc_schema_cols_match_ingest_output(ray_session):
    """DOC_SCHEMA_COLS (the compaction rewrite projection) must equal
    ingest_batch's frozen output minus the derived shard tag — drift would
    silently strip columns from the doc store during compaction."""
    from smse_backend_ray.stages.ingest import DOC_SCHEMA_COLS, ingest_batch

    batch = pa.table(
        {
            "repo": ["r"],
            "path": ["p"],
            "commit": ["c"],
            "lang": ["en"],
            "content": ["hello world"],
        }
    )
    out = ingest_batch(batch, EngineConfig(n_shards=4))
    assert set(out.column_names) == set(DOC_SCHEMA_COLS) | {"shard_id"}
