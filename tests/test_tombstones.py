"""Tombstone deletes (reference DELETE /api/contents analog): immediate
search invisibility, persistence across engine restarts, unchanged scores
for surviving docs (stats refresh only at rebuild), oracle parity."""

from __future__ import annotations

import os
import shutil

import pytest

from smse_backend_ray.config import EngineConfig
from smse_backend_ray.oracle import build_oracle_index, oracle_search
from smse_backend_ray.pipelines.build import build_index
from smse_backend_ray.pipelines.search import SearchEngine
from smse_backend_ray.sources.corpus import (
    corpus_from_documents,
    corpus_table_from_documents,
)

IDX = "/tmp/smse_test_tomb_idx"


@pytest.fixture(scope="module")
def tomb_idx(ray_session, sf_dir):
    shutil.rmtree(IDX, ignore_errors=True)
    build_index(
        corpus=corpus_from_documents(sf_dir), index_dir=IDX, cfg=EngineConfig(n_shards=4)
    )
    return IDX


def test_delete_doc_removes_from_results(tomb_idx):
    with SearchEngine(tomb_idx) as eng:
        before = eng.search(["hash join table"], limit=10).to_pylist()
        victim = before[0]["doc_id"]
        eng.delete_doc(victim)
        after = eng.search(["hash join table"], limit=10).to_pylist()
        assert victim not in [r["doc_id"] for r in after]
        # survivors keep their exact scores (global stats unchanged until
        # rebuild) and everyone shifts up one rank
        assert [r["doc_id"] for r in after][: len(before) - 1] == [
            r["doc_id"] for r in before[1:]
        ]
        for a, b in zip(after, before[1:]):
            assert a["exact_score"] == b["exact_score"]
            assert a["rank"] == b["rank"] - 1


def test_tombstones_persist_and_oracle_parity(tomb_idx, sf_dir):
    """A fresh engine reloads the tombstones and returns the oracle's
    ranking with the deleted docs removed, scores bitwise equal."""
    assert os.path.exists(os.path.join(tomb_idx, "tombstones.json"))
    with SearchEngine(tomb_idx) as eng:  # fresh engine reloads tombstones
        got = eng.search(["hash join table"], limit=10).to_pylist()
        tombs = set(eng._tombstones)
    assert tombs  # loaded from disk
    oidx = build_oracle_index(corpus_table_from_documents(sf_dir))
    exp = [
        r
        for r in oracle_search(oidx, ["hash join table"], limit=10 + len(tombs))
        if r["doc_id"] not in tombs
    ][:10]
    assert [r["doc_id"] for r in got] == [r["doc_id"] for r in exp]
    assert [r["exact_score"] for r in got] == [r["score"] for r in exp]


def test_tombstones_bak_recovery(tomb_idx):
    """A crash mid-swap on a non-atomic-move fs leaves only tombstones.json.bak;
    the engine must recover it instead of resurrecting deleted docs."""
    live = os.path.join(tomb_idx, "tombstones.json")
    bak = live + ".bak"
    with SearchEngine(tomb_idx) as eng:
        tombs = sorted(eng._tombstones)
    assert tombs  # earlier tests deleted docs
    os.replace(live, bak)  # simulate the mid-swap crash window
    try:
        with SearchEngine(tomb_idx) as eng:
            assert sorted(eng._tombstones) == tombs
    finally:
        os.replace(bak, live)
