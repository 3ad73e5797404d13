"""End-to-end engine tests: distributed build + search vs the exact oracle
(rank identity AND bitwise score identity — the north_rule gate), plus the
reference's search-API semantics (SURVEY.md §5: thresholds, scope, history,
replay, delete, normalizers)."""

from __future__ import annotations

import shutil

import pyarrow as pa
import pytest

from smse_backend_ray import config
from smse_backend_ray.config import EngineConfig
from smse_backend_ray.oracle import build_oracle_index, oracle_search
from smse_backend_ray.pipelines.build import build_index
from smse_backend_ray.pipelines.search import SearchEngine
from smse_backend_ray.queryset import ALL_QUERIES
from smse_backend_ray.sources.corpus import (
    corpus_from_documents,
    corpus_table_from_documents,
)

IDX_DIR = "/tmp/smse_test_index"


@pytest.fixture(scope="session")
def built_index(ray_session, sf_dir):
    shutil.rmtree(IDX_DIR, ignore_errors=True)
    corpus = corpus_from_documents(sf_dir)
    cat = build_index(corpus=corpus, index_dir=IDX_DIR, cfg=EngineConfig(n_shards=4))
    return cat


@pytest.fixture(scope="session")
def oidx(sf_dir):
    return build_oracle_index(corpus_table_from_documents(sf_dir))


@pytest.fixture(scope="session")
def engine(built_index):
    eng = SearchEngine(IDX_DIR)
    yield eng
    eng.close()


def test_stats_match_oracle(built_index, oidx):
    stats = built_index.get_stats()
    assert stats["n_docs"] == oidx.n_docs
    assert stats["avgdl"] == pytest.approx(oidx.avgdl, rel=1e-12)


@pytest.mark.parametrize("strategy", ["exact"])
def test_rank_and_score_identity(engine, oidx, strategy):
    """Every query in the frozen set: same doc_ids, same ranks, bitwise-equal
    BM25 scores between the distributed engine and the oracle."""
    for qs in ALL_QUERIES:
        got = engine.search(
            list(qs.parts), scope=qs.scope, limit=qs.limit, threshold=qs.threshold
        ).to_pylist()
        exp = oracle_search(
            oidx, list(qs.parts), scope=qs.scope, limit=qs.limit, threshold=qs.threshold
        )
        assert len(got) == len(exp), f"q{qs.query_id}: row count"
        for g, e in zip(got, exp):
            assert g["doc_id"] == e["doc_id"], f"q{qs.query_id} rank {e['rank']}"
            assert g["rank"] == e["rank"]
            assert g["exact_score"] == e["score"], f"q{qs.query_id}: score not bitwise equal"
            assert g["score"] == e["rscore"]


def test_no_hit_query(engine):
    t = engine.search(["qqzzquux nohitterm"])
    assert t.num_rows == 0
    assert t.schema.names == [
        "query_id", "rank", "doc_id", "path", "repo", "lang", "score", "exact_score",
    ]


def test_invalid_query_rejected(engine):
    with pytest.raises(ValueError):
        engine.search([])
    with pytest.raises(ValueError):
        engine.search(["the def return"])  # stop/keyword-only -> 400 analog


def test_scope_filters_results(engine):
    t = engine.search(["table value"], scope="src3", limit=50)
    assert t.num_rows > 0
    assert set(t["repo"].to_pylist()) == {"src3"}


def test_threshold_keeps_geq(engine):
    full = engine.search(["table value"], limit=50)
    thr = full["score"][5].as_py()
    cut = engine.search(["table value"], limit=50, threshold=thr)
    assert cut.num_rows == sum(1 for s in full["score"].to_pylist() if s >= thr)


def test_normalizers_opt_in(engine):
    raw = engine.search(["hash join table"], limit=5)
    sm = engine.search(["hash join table"], limit=5, normalize="softmax")
    mm = engine.search(["hash join table"], limit=5, normalize="minmax")
    assert raw["doc_id"].to_pylist() == sm["doc_id"].to_pylist() == mm["doc_id"].to_pylist()
    import numpy as np

    assert np.isclose(sum(sm["score"].to_pylist()), 1.0)
    mvals = mm["score"].to_pylist()
    assert mvals[0] == 1.0 and mvals[-1] == 0.0


def test_multipart_fusion_matches_single_concat(engine, oidx):
    """Multiset-union fusion: parts ["hash table", "hash value"] score like
    the concatenated text with qtf(hash)=2."""
    t_parts = engine.search(["hash table", "hash value"], limit=10)
    t_concat = engine.search(["hash table hash value"], limit=10)
    assert t_parts["doc_id"].to_pylist() == t_concat["doc_id"].to_pylist()
    assert t_parts["exact_score"].to_pylist() == t_concat["exact_score"].to_pylist()


def test_query_log_history_and_replay(engine):
    r1 = engine.search(["hash join table"], limit=3, log=True)
    q1 = r1["query_id"][0].as_py()
    engine.search(["sort merge"], limit=2, log=True)
    h = engine.history(limit=1, offset=0)
    assert h["total"] >= 2 and h["has_more"] is True
    assert h["queries"][0]["text"] == "sort merge"  # timestamp-descending
    h2 = engine.history(limit=10, offset=h["total"])
    assert h2["queries"] == [] and h2["has_more"] is False
    rep = engine.get_results(q1)
    assert rep["doc_id"].to_pylist() == r1["doc_id"].to_pylist()
    engine.delete_query(q1)
    with pytest.raises(KeyError):
        engine.get_results(q1)


def test_batch_log_advances_auto_query_id(engine):
    """search_batch(log=True) must advance the auto-id counter past the
    batch's explicit query_ids, so a later search(log=True) with an auto id
    can never reuse (and overwrite) a just-logged query's files."""
    from smse_backend_ray.queryset import QuerySpec

    qid = engine._next_query_id + 5  # explicit id ahead of the counter
    engine.search_batch([QuerySpec(qid, ("hash join table",), limit=2)], log=True)
    batch_rep = engine.get_results(qid)
    r = engine.search(["sort merge"], limit=2, log=True)  # auto id
    assert r["query_id"][0].as_py() > qid
    # the batch-logged record survived untouched
    assert engine.get_results(qid)["doc_id"].to_pylist() == batch_rep["doc_id"].to_pylist()
    engine.delete_query(qid)
    engine.delete_query(r["query_id"][0].as_py())


def test_decoded_postings_match_oracle(built_index, oidx):
    """The compressed segments decode back to exactly the oracle's index."""
    import glob
    import pyarrow.parquet as pq

    from smse_backend_ray.functions.codec import decode_postings

    block_size = built_index.get_config()["block_size"]
    seen: dict[str, dict[int, int]] = {}
    files = glob.glob(f"{IDX_DIR}/segments/shard_id=*/*.parquet")
    assert files
    for f in files:
        t = pq.read_table(f)
        # segment rows hold exactly what the readers decode
        assert t.column_names == ["term", "df_shard", "docs_bytes", "tfs_bytes", "dls_bytes"]
        for row in t.to_pylist():
            ids, tfs, dls = decode_postings(row, block_size)
            d = seen.setdefault(row["term"], {})
            for did, tf, dl in zip(ids.tolist(), tfs.tolist(), dls.tolist()):
                assert did not in d
                d[did] = tf
                assert oidx.docs[did].dl == dl
    assert set(seen) == set(oidx.postings)
    for term, post in oidx.postings.items():
        assert seen[term] == post


def test_ingest_sha256_invariant(built_index, sf_dir):
    """Per-row content sha256 equality input -> docs table (input_hint)."""
    import hashlib

    import pyarrow.dataset as pads

    corpus = corpus_table_from_documents(sf_dir)
    expected = {
        (r["repo"], r["path"]): hashlib.sha256(r["content"].encode()).hexdigest()
        for r in corpus.to_pylist()
    }
    docs = pads.dataset(f"{IDX_DIR}/docs").to_table(
        columns=["repo", "path", "content_sha256"]
    )
    got = {
        (r["repo"], r["path"]): r["content_sha256"] for r in docs.to_pylist()
    }
    assert got == expected


def test_replica_sets_identical_results(built_index, engine, monkeypatch):
    """Every replica set answers its share of a batch (the LPT split of
    jobs across sets) with exactly the default layout's results: full
    replicas (each actor its own set) and, with the replicas' memory share
    at 0, packed sets — num_actors < n_shards packs shards into fewer
    actors, num_actors > n_shards spawns several full sets."""
    base = engine.search_batch(ALL_QUERIES).to_pylist()
    # full replicas, whatever memory the host has free
    monkeypatch.setattr(config, "SERVE_REPLICA_MEMORY_SHARE", float("inf"))
    for n in (2, 9):  # replicated: n sets of 1 actor x 4 shards
        with SearchEngine(IDX_DIR, num_actors=n) as eng:
            assert [len(st) for st in eng.actor_sets] == [1] * n
            assert eng.search_batch(ALL_QUERIES).to_pylist() == base
    monkeypatch.setattr(config, "SERVE_REPLICA_MEMORY_SHARE", 0)
    for n in (2, 9):  # packed: 2 -> one set of 2 actors x 2 shards; 9 -> 2 full sets
        with SearchEngine(IDX_DIR, num_actors=n) as eng:
            n_sets = len(eng.actor_sets)
            assert n_sets == (2 if n == 9 else 1)
            assert eng.search_batch(ALL_QUERIES).to_pylist() == base
