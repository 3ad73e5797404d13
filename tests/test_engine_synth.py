"""Engine vs oracle on the synthetic code corpus (sources/synth.py): bigger
posting lists (many delta-reset blocks per term), planted duplicate contents, empty files,
disallowed langs, Zipfian keyword head."""

from __future__ import annotations

import shutil

import pytest

import ray.data

from smse_backend_ray.config import EngineConfig
from smse_backend_ray.oracle import build_oracle_index, oracle_search
from smse_backend_ray.pipelines.build import build_index
from smse_backend_ray.pipelines.search import SearchEngine
from smse_backend_ray.sources.synth import _LANGS, synth_corpus_table

IDX = "/tmp/smse_test_synth_idx"
N_DOCS = 800

SYNTH_QUERIES = [
    ["hash index scan"],
    ["binary search tree node"],
    ["mapValue", "buffer_pool"],
    ["merge sort batch stream"],
    ["page"],                      # very common single term
    ["cache42v"],                  # numeric-suffixed identifier
]


@pytest.fixture(scope="module")
def synth_idx(ray_session):
    shutil.rmtree(IDX, ignore_errors=True)
    corpus = synth_corpus_table(N_DOCS)
    cfg = EngineConfig(n_shards=4, allowed_langs=_LANGS)
    build_index(corpus=ray.data.from_arrow(corpus), index_dir=IDX, cfg=cfg)
    oidx = build_oracle_index(corpus, allowed_langs=_LANGS)
    return oidx


@pytest.mark.parametrize("strategy", ["exact"])
def test_synth_rank_identity(synth_idx, strategy):
    oidx = synth_idx
    with SearchEngine(IDX) as eng:
        for parts in SYNTH_QUERIES:
            got = eng.search(parts, limit=10).to_pylist()
            exp = oracle_search(oidx, parts, limit=10)
            assert len(got) == len(exp), parts
            for g, e in zip(got, exp):
                assert g["doc_id"] == e["doc_id"], (parts, e["rank"])
                assert g["exact_score"] == e["score"], parts


def test_synth_stats_and_badlang(synth_idx):
    from smse_backend_ray.state.catalog import Catalog

    oidx = synth_idx
    stats = Catalog(IDX).get_stats()
    assert stats["n_docs"] == oidx.n_docs
    # bad-lang rows were filtered on both sides
    assert all(d.lang in _LANGS for d in oidx.docs.values())
    assert stats["avgdl"] == pytest.approx(oidx.avgdl, rel=1e-12)
