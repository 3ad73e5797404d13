"""Incremental append (segment generations, pipelines/build.py append_index)
must be indistinguishable from a full rebuild over the union corpus:
bitwise-equal search results, identical df table and stats. Also covers D3
existence-check first-wins on re-appended docs, crashed-generation rollback,
appends that shift the global avgdl, and indexes whose segment files still
carry the per-block columns earlier releases wrote."""

from __future__ import annotations

import glob
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from smse_backend_ray.config import EngineConfig
from smse_backend_ray.pipelines.build import append_index, build_index
from smse_backend_ray.pipelines.search import SearchEngine
from smse_backend_ray.queryset import ALL_QUERIES, QuerySpec
from smse_backend_ray.sources.corpus import corpus_table_from_documents
from smse_backend_ray.state.catalog import Catalog

IDX_FULL = "/tmp/smse_test_append_full"
IDX_INC = "/tmp/smse_test_append_inc"


def _ds(table: pa.Table):
    import ray.data

    return ray.data.from_arrow(table)


@pytest.fixture(scope="module")
def split_corpus(ray_session, sf_dir):
    t = corpus_table_from_documents(sf_dir)
    idx = pa.array(range(len(t)))
    even = t.filter(pa.compute.equal(pa.compute.bit_wise_and(idx, 1), 0))
    odd = t.filter(pa.compute.equal(pa.compute.bit_wise_and(idx, 1), 1))
    return t, even, odd


@pytest.fixture(scope="module")
def indexes(split_corpus):
    full_t, even, odd = split_corpus
    cfg = EngineConfig(n_shards=4)
    shutil.rmtree(IDX_FULL, ignore_errors=True)
    shutil.rmtree(IDX_INC, ignore_errors=True)
    build_index(corpus=_ds(full_t), index_dir=IDX_FULL, cfg=cfg)
    build_index(corpus=_ds(even), index_dir=IDX_INC, cfg=cfg)
    append_index(_ds(odd), IDX_INC)  # config comes from the manifest
    return IDX_FULL, IDX_INC


def test_stats_and_generations(indexes):
    full, inc = Catalog(indexes[0]), Catalog(indexes[1])
    assert full.get_stats() == inc.get_stats()  # ints + identical avgdl division
    gens = inc.generations()
    assert list(gens) == ["1"] and gens["1"]["status"] == "done"
    assert gens["1"]["dropped_existing"] == 0


def test_df_table_identical(indexes):
    a = Catalog(indexes[0]).dataset("df").to_table().sort_by("term")
    b = Catalog(indexes[1]).dataset("df").to_table().sort_by("term")
    assert a.equals(b)


@pytest.mark.parametrize("strategy", ["exact"])
def test_search_bitwise_parity(indexes, strategy):
    with SearchEngine(indexes[0]) as full, SearchEngine(indexes[1]) as inc:
        a = full.search_batch(ALL_QUERIES).to_pylist()
        b = inc.search_batch(ALL_QUERIES).to_pylist()
    assert a == b  # includes exact float equality on score columns


def test_reappend_is_noop(indexes, split_corpus):
    """D3 existence-check first-wins: re-appending already-indexed docs drops
    every row and commits no new generation."""
    _, _, odd = split_corpus
    cat = append_index(_ds(odd), indexes[1])
    assert cat.get_stats()["n_docs"] == Catalog(indexes[0]).get_stats()["n_docs"]
    assert list(cat.generations()) == ["1"]


def _mk_corpus(rows: list[tuple[str, str, str]]) -> pa.Table:
    return pa.table(
        {
            "repo": pa.array([r[0] for r in rows], type=pa.string()),
            "path": pa.array([r[1] for r in rows], type=pa.string()),
            "commit": pa.array(["c0"] * len(rows), type=pa.string()),
            "lang": pa.array(["python"] * len(rows), type=pa.string()),
            "content": pa.array([r[2] for r in rows], type=pa.string()),
        }
    )


def _search_all(idx: str, queries) -> list:
    with SearchEngine(idx) as eng:
        return [eng.search(q, limit=10).to_pylist() for q in queries]


def test_append_avgdl_shift_matches_rebuild(ray_session):
    """Append LONG docs to a short-doc base: the global avgdl grows, so every
    base-generation tf-norm changes. Appended search must still equal a full
    rebuild bitwise."""
    idx = "/tmp/smse_test_append_avgdl"
    shutil.rmtree(idx, ignore_errors=True)
    base = _mk_corpus(
        [("r0", f"a/{i}.py", f"alphatok beta{i % 7} " * (1 + i % 3)) for i in range(160)]
    )
    longdocs = _mk_corpus(
        [
            ("r1", f"b/{i}.py", ("alphatok " + f"gamma{i % 5} filler{i} " * 40))
            for i in range(160)
        ]
    )
    cfg = EngineConfig(n_shards=2, block_size=16)
    build_index(corpus=_ds(base), index_dir=idx, cfg=cfg)
    append_index(_ds(longdocs), idx)

    full_idx = "/tmp/smse_test_append_avgdl_full"
    shutil.rmtree(full_idx, ignore_errors=True)
    build_index(
        corpus=_ds(pa.concat_tables([base, longdocs])), index_dir=full_idx, cfg=cfg
    )
    queries = ("alphatok", "alphatok gamma2", "beta3 alphatok filler7")
    got, want = _search_all(idx, queries), _search_all(full_idx, queries)
    assert all(got) and got == want


def _tree(ifs) -> dict:
    """(size, mtime) of every file under the index root."""
    return {i.path: (i.size, i.mtime) for i in ifs.list_infos(recursive=True) if i.is_file}


def _assert_only_listed(cat: Catalog) -> None:
    """Every table file on disk is one the manifest lists or the last file
    change retired (kept for engines still opening on it)."""
    cat = Catalog(cat.ifs)
    keep = set(cat.files("docs") + cat.files("segments") + cat.files("df"))
    keep |= {cat.ifs.join(r) for r in cat.manifest().get("retired", [])}
    for t in ("docs", "segments", "df"):
        assert set(cat.ifs.list_files(t, recursive=True)) <= keep, t


def _crash_in(monkeypatch, name: str):
    """Make pipelines/build.<name> raise; returns the undo."""
    from smse_backend_ray.pipelines import build

    def crash(*a, **kw):
        raise RuntimeError(f"injected crash in {name}")

    monkeypatch.setattr(build, name, crash)
    return monkeypatch.undo


def test_crashed_generation_rolls_back(ray_session, monkeypatch):
    """An append that dies after writing its doc and segment files, before
    its one manifest write, leaves no generation: the next append takes
    the same number, completes, and no file of the crashed one remains."""
    idx = "/tmp/smse_test_append_crash"
    shutil.rmtree(idx, ignore_errors=True)
    base = _mk_corpus([("r0", f"x/{i}.py", f"delta{i} common tok") for i in range(40)])
    cfg = EngineConfig(n_shards=2)
    cat = build_index(corpus=_ds(base), index_dir=idx, cfg=cfg)
    listed = {t: cat.files(t) for t in ("docs", "segments", "df")}

    extra = _mk_corpus([("r1", f"y/{i}.py", f"epsilon{i} common tok") for i in range(40)])
    undo = _crash_in(monkeypatch, "_run_df")
    with pytest.raises(RuntimeError, match="injected crash"):
        append_index(_ds(extra), idx)
    undo()
    ifs = cat.ifs
    crashed = Catalog(idx)
    assert crashed.generations() == {}
    assert {t: crashed.files(t) for t in listed} == listed
    stray = set(ifs.list_files("docs/gen_000001", recursive=True))
    stray |= set(ifs.list_files("segments", recursive=True)) - set(listed["segments"])
    assert stray
    with SearchEngine(idx) as eng:
        assert eng.search("common", limit=80).num_rows == 40

    cat2 = append_index(_ds(extra), idx)
    gens = cat2.generations()
    assert list(gens) == ["1"] and gens["1"]["status"] == "done"
    on_disk = {f for t in ("docs", "segments") for f in ifs.list_files(t, recursive=True)}
    assert not stray & on_disk
    _assert_only_listed(cat2)
    # index still searches and sees both halves
    with SearchEngine(idx) as eng:
        got = eng.search("common", limit=80)
        assert got.num_rows == 80


def test_append_recovers_parked_doc_store(ray_session, monkeypatch):
    """A compaction that died after writing its new doc store, before its
    manifest commit: the NEXT append works on the listed (pre-compaction)
    doc store — the only copy of the base corpus' doc metadata — and the
    index serves both halves."""
    idx = "/tmp/smse_test_append_bak"
    shutil.rmtree(idx, ignore_errors=True)
    base = _mk_corpus([("r0", f"x/{i}.py", f"zeta{i} common tok") for i in range(40)])
    cat = build_index(corpus=_ds(base), index_dir=idx, cfg=EngineConfig(n_shards=2))
    with SearchEngine(idx) as eng:
        eng.delete_doc(0)  # a tombstone, so the compaction is not a no-op
    listed = cat.files("docs")
    from smse_backend_ray.pipelines.build import compact_index

    undo = _crash_in(monkeypatch, "_run_segments")
    with pytest.raises(RuntimeError, match="injected crash"):
        compact_index(idx)
    undo()
    assert Catalog(idx).files("docs") == listed
    extra = _mk_corpus([("r1", f"y/{i}.py", f"eta{i} common tok") for i in range(40)])
    cat2 = append_index(_ds(extra), idx)
    assert set(listed) <= set(cat2.files("docs"))
    assert cat2.get_stats()["n_docs"] == 80
    _assert_only_listed(cat2)
    with SearchEngine(idx) as eng:
        assert eng.search("common", limit=80).num_rows == 80


def test_append_ignores_unlisted_doc_files(ray_session):
    """A doc file the manifest does not list (here: a stray copy of a
    listed one, as a crashed writer leaves) is never read: the append's
    collision check and stats see only the listed files, and the append
    ends by deleting the stray."""
    idx = "/tmp/smse_test_append_bak2"
    shutil.rmtree(idx, ignore_errors=True)
    base = _mk_corpus([("r0", f"x/{i}.py", f"theta{i} tok") for i in range(20)])
    cat = build_index(corpus=_ds(base), index_dir=idx, cfg=EngineConfig(n_shards=2))
    src = cat.files("docs")[0]
    stray = src.rsplit("/", 1)[0] + "/stray.parquet"
    cat.ifs.fs.copy_file(src, stray)
    extra = _mk_corpus([("r1", "y/0.py", "iota tok")])
    cat2 = append_index(_ds(extra), idx)
    assert cat2.get_stats()["n_docs"] == 21
    assert not cat.ifs.exists(stray[len(cat.ifs.root) + 1:])
    with SearchEngine(idx) as eng:
        assert eng.search("tok", limit=50).num_rows == 21


def test_engine_open_recovers_parked_doc_store(ray_session, monkeypatch):
    """SearchEngine open after a compaction died between its doc-store
    write and its manifest commit serves the listed (old) index, and the
    open writes nothing."""
    idx = "/tmp/smse_test_engine_bak"
    shutil.rmtree(idx, ignore_errors=True)
    base = _mk_corpus([("r0", f"x/{i}.py", f"kappa{i} common tok") for i in range(40)])
    extra = _mk_corpus([("r1", f"y/{i}.py", f"lambda{i} tok") for i in range(10)])
    cat = build_index(corpus=_ds(base), index_dir=idx, cfg=EngineConfig(n_shards=2))
    append_index(_ds(extra), idx)
    from smse_backend_ray.pipelines.build import compact_index

    undo = _crash_in(monkeypatch, "_run_segments")
    with pytest.raises(RuntimeError, match="injected crash"):
        compact_index(idx)
    undo()
    before = _tree(cat.ifs)
    with SearchEngine(idx) as eng:
        assert eng.search("common", limit=40).num_rows == 40
    assert _tree(cat.ifs) == before


def _add_legacy_block_columns(f: str, block_size: int, avgdl: float, params) -> None:
    """Rewrite one segment file in the layout earlier releases wrote: the
    same streams plus per-block byte offsets, last doc ids, tf-norm maxima
    (block-max pruning metadata) and the avgdl those maxima were encoded at."""
    from smse_backend_ray.functions.bm25 import tfnorm_vec
    from smse_backend_ray.functions.codec import (
        decode_postings,
        varint_decode,
        varint_encode_with_lens,
    )

    t = pq.read_table(f)
    extra = {k: [] for k in ("block_doc_off", "block_tf_off", "block_dl_off", "block_last", "block_max")}
    pos_off = []

    def offsets(stream: bytes, value_starts) -> list:
        _, lens = varint_encode_with_lens(varint_decode(stream))
        return np.concatenate(([0], np.cumsum(lens)))[value_starts].tolist()

    for row in t.to_pylist():
        ids, tfs, dls = decode_postings(row, block_size)
        starts = np.arange(0, ids.size, block_size)
        ends = np.minimum(starts + block_size, ids.size)
        extra["block_doc_off"].append(offsets(row["docs_bytes"], starts))
        extra["block_tf_off"].append(offsets(row["tfs_bytes"], starts))
        extra["block_dl_off"].append(offsets(row["dls_bytes"], starts))
        extra["block_last"].append(ids[ends - 1].tolist())
        tfn = tfnorm_vec(tfs, dls, avgdl, params)
        extra["block_max"].append(np.maximum.reduceat(tfn, starts).tolist())
        if "pos_bytes" in row:
            cum_tf = np.concatenate(([0], np.cumsum(tfs)))
            pos_off.append(offsets(row["pos_bytes"], cum_tf[starts]))
    cols = {c: t[c] for c in ("term", "df_shard")}
    cols["enc_avgdl"] = pa.array([avgdl] * t.num_rows, type=pa.float64())
    cols.update({c: t[c] for c in ("docs_bytes", "tfs_bytes", "dls_bytes")})
    for k, v in extra.items():
        vt = pa.float64() if k == "block_max" else pa.int64()
        cols[k] = pa.array(v, type=pa.list_(vt))
    if "pos_bytes" in t.column_names:
        cols["pos_bytes"] = t["pos_bytes"]
        cols["block_pos_off"] = pa.array(pos_off, type=pa.list_(pa.int64()))
    pq.write_table(pa.table(cols), f)


@pytest.mark.parametrize("with_positions", [False, True])
def test_legacy_block_columns_open_and_append(ray_session, with_positions):
    """Indexes written with the per-block columns still open with bitwise
    equal results, and an append onto one (new generations lack those
    columns) matches a full rebuild bitwise."""
    from smse_backend_ray.config import BM25Params

    tag = "pos" if with_positions else "plain"
    idx = f"/tmp/smse_test_append_legacy_{tag}"
    full_idx = f"/tmp/smse_test_append_legacy_{tag}_full"
    shutil.rmtree(idx, ignore_errors=True)
    shutil.rmtree(full_idx, ignore_errors=True)
    base = _mk_corpus(
        [("r0", f"x/{i}.py", f"lam{i % 9} common tok " * (1 + i % 4)) for i in range(120)]
    )
    extra = _mk_corpus(
        [("r1", f"y/{i}.py", f"mu{i % 5} common " + "tok filler " * 12) for i in range(60)]
    )
    cfg = EngineConfig(n_shards=2, block_size=8, with_positions=with_positions)
    cat = build_index(corpus=_ds(base), index_dir=idx, cfg=cfg)
    queries = ["common", "lam3 tok", "mu2 common tok", "filler lam1"]
    before = _search_all(idx, queries)
    stats = cat.get_stats()
    files = glob.glob(f"{idx}/segments/shard_id=*/*.parquet")
    for f in files:
        _add_legacy_block_columns(f, cfg.block_size, stats["avgdl"], BM25Params())
    assert "block_max" in pq.read_schema(files[0]).names
    assert _search_all(idx, queries) == before

    append_index(_ds(extra), idx)
    build_index(corpus=_ds(pa.concat_tables([base, extra])), index_dir=full_idx, cfg=cfg)
    assert Catalog(idx).get_stats() == Catalog(full_idx).get_stats()
    got, want = _search_all(idx, queries), _search_all(full_idx, queries)
    assert all(got) and got == want
    if with_positions:
        # "common"/"tok" have postings in both generations: the modal
        # matchers and facets read them through the merged caches
        modal = [(q, m) for q in ("common tok", "tok filler") for m in ("phrase", "and", "near")]
        specs = tuple(QuerySpec(i, (q,), mode=m) for i, (q, m) in enumerate(modal))
        with SearchEngine(idx) as a, SearchEngine(full_idx) as b:
            for q, m in modal:
                pa_, pb = a.search(q, mode=m), b.search(q, mode=m)
                assert pa_.num_rows and pa_.to_pylist() == pb.to_pylist(), (q, m)
            fa, fb = a.facet_counts(specs), b.facet_counts(specs)
        assert fa.num_rows and fa.equals(fb)


def _tree_bytes(root) -> dict:
    return {str(p): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("field,value", [("n_shards", 3), ("block_size", 16), ("with_positions", True)])
def test_mismatched_cfg_is_refused(ray_session, tmp_path, field, value):
    """A cfg whose n_shards, block_size or with_positions differs from the
    manifest would write docs into shard dirs the engine never opens, or
    streams it decodes with the wrong block size: append and compact raise
    before writing anything, and the index still serves every doc."""
    from smse_backend_ray.pipelines.build import compact_index

    idx = tmp_path / "idx"
    base = _mk_corpus([("r0", f"x/{i}.py", f"kappa{i} common tok") for i in range(30)])
    build_index(corpus=_ds(base), index_dir=str(idx), cfg=EngineConfig(n_shards=2))
    before = _tree_bytes(idx)
    cfg = EngineConfig(**{"n_shards": 2, field: value})
    extra = _mk_corpus([("r1", f"y/{i}.py", f"lambda{i} common tok") for i in range(30)])
    with pytest.raises(ValueError, match=field):
        append_index(_ds(extra), str(idx), cfg=cfg)
    with pytest.raises(ValueError, match=field):
        compact_index(str(idx), cfg=cfg)
    assert _tree_bytes(idx) == before
    # the matching cfg (and the manifest's) still append
    append_index(_ds(extra), str(idx), cfg=EngineConfig(n_shards=2))
    with SearchEngine(str(idx)) as eng:
        assert eng.search("common", limit=80).num_rows == 60
