"""Serve-path scatter/gather: the one vectorized merge behind search,
search_batch, search_prefix and more_like_this (and the scatter that
facet_counts shares); the per-actor finalize that cuts each job's top-k over
all of an actor's shards; the sorted-array membership test behind the
tombstone and candidate filters; the resident term-sorted df column behind
idf_weights, on a Ray-task build and on a df/ of several unsorted files as
older builds wrote it.

A mixed batch must equal, Table for Table, the concatenation of per-query
search() calls, and match the Python oracle bitwise with tombstones in force,
on one and on several replica sets (the gather maps each replica set's job
indices back to batch positions), and with shards packed several to an actor
(the per-actor cut)."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from smse_backend_ray import config
from smse_backend_ray.config import PREFIX_MAX_EXPANSIONS, EngineConfig, BM25Params
from smse_backend_ray.functions import sqlgen
from smse_backend_ray.functions.bm25 import idf
from smse_backend_ray.oracle import (
    build_oracle_index,
    oracle_conj_search,
    oracle_near_search,
    oracle_phrase_search,
    oracle_search,
)
from smse_backend_ray.pipelines.build import build_index
from smse_backend_ray.pipelines.search import SearchEngine
from smse_backend_ray.queryset import ALL_QUERIES, QuerySpec
from smse_backend_ray.sources.corpus import (
    corpus_from_documents,
    corpus_table_from_documents,
)
from smse_backend_ray.stages.scorer import ShardIndex, _codes, _member
from smse_backend_ray.state.catalog import Catalog

POS_IDX = "/tmp/smse_test_gather_pos_idx"
RAY_DF_IDX = "/tmp/smse_test_gather_raydf_idx"
TIE_IDX = "/tmp/smse_test_gather_tie_idx"
LEGACY_DF_IDX = "/tmp/smse_test_gather_legacy_df_idx"
EMPTY_SHARD_IDX = "/tmp/smse_test_gather_empty_shard_idx"

VOCAB = [
    "hash", "join", "table", "sort", "merge", "batch", "value", "fast",
    "scan", "row", "alpha", "beta", "key", "window", "filter",
]

# OR / AND / phrase / near; scope, threshold, exclude; limits 10 and 20; a
# no-hit query, a threshold nothing reaches; a limit above
# SHARD_CANDIDATE_K; query ids not ascending
MIXED = (
    QuerySpec(57, ("hash join",)),
    QuerySpec(12, ("sort merge batch",), mode="and", limit=20),
    QuerySpec(40, ("alpha beta",), mode="phrase"),
    QuerySpec(33, ("window filter",), mode="near", slop=3, limit=20),
    QuerySpec(5, ("table value scan",), scope="src1"),
    QuerySpec(90, ("key row fast",), threshold=1.0, limit=20),
    QuerySpec(21, ("fast scan",), exclude=("row",), limit=20),
    QuerySpec(3, ("qqzz nohitzz",)),
    QuerySpec(70, ("hash",), threshold=1e9),
    QuerySpec(8, ("beta key",), mode="and", scope="src2", exclude=("alpha",)),
    QuerySpec(64, ("hash scan",), limit=40),
)


def _corpus(n=150, seed=5) -> pa.Table:
    rng = np.random.default_rng(seed)
    rows = [
        {
            "repo": f"src{i % 4}",
            "path": f"docs/{i:04d}.txt",
            "commit": f"c{i}",
            "lang": "en",
            "content": " ".join(rng.choice(VOCAB, size=int(rng.integers(3, 40)))),
        }
        for i in range(n)
    ]
    return pa.Table.from_pylist(rows)


@pytest.fixture(scope="module")
def pos_idx(ray_session):
    t = _corpus()
    shutil.rmtree(POS_IDX, ignore_errors=True)
    build_index(
        corpus=ray.data.from_arrow(t),
        index_dir=POS_IDX,
        cfg=EngineConfig(n_shards=3, with_positions=True),
    )
    return build_oracle_index(t)


def _engine_call(eng, qs):
    return eng.search(
        list(qs.parts), scope=qs.scope, limit=qs.limit, threshold=qs.threshold,
        query_id=qs.query_id, mode=qs.mode, slop=qs.slop, exclude=qs.exclude,
    )


ROW = ("doc_id", "path", "repo", "lang", "exact_score")


def _rows(t: pa.Table) -> list[tuple]:
    return list(zip(*(t[c].to_pylist() for c in ROW)))


def _oracle(oidx, qs, dead: set[int]) -> list[tuple]:
    """(doc_id, path, repo, lang, exact score) of the oracle ranking with
    ``dead`` removed."""
    kw = {"scope": qs.scope, "limit": qs.limit + len(dead),
          "threshold": qs.threshold, "exclude": qs.exclude}
    if qs.mode == "and":
        rows = oracle_conj_search(oidx, list(qs.parts), **kw)
    elif qs.mode == "phrase":
        rows = oracle_phrase_search(oidx, qs.parts[0], **kw)
    elif qs.mode == "near":
        rows = oracle_near_search(oidx, list(qs.parts), qs.slop, **kw)
    else:
        rows = oracle_search(oidx, list(qs.parts), **kw)
    return [
        (r["doc_id"], r["path"], r["repo"], r["lang"], r["score"])
        for r in rows if r["doc_id"] not in dead
    ][: qs.limit]


@pytest.fixture(autouse=True)
def _replicas_fit(monkeypatch):
    """Full replicas whatever memory the host has free (Ray's memory
    resource follows it), so the layout asserts below hold on any host;
    test_layout_follows_ray_memory checks the rule itself."""
    monkeypatch.setattr(config, "SERVE_REPLICA_MEMORY_SHARE", float("inf"))


def _pack(monkeypatch) -> None:
    """Force the packed actor layout on every SearchEngine opened after
    this (a memory share of 0 leaves full replicas no room)."""
    monkeypatch.setattr(config, "SERVE_REPLICA_MEMORY_SHARE", 0)


@pytest.mark.parametrize("fits", [True, False])
def test_layout_follows_ray_memory(pos_idx, fits, monkeypatch):
    """A default engine opens full replicas, one per CPU Ray reports (at
    most one per shard), exactly when their estimated state fits
    SERVE_REPLICA_MEMORY_SHARE of Ray's memory resource, and one packed
    actor per shard when it does not."""
    share = 0.5
    monkeypatch.setattr(config, "SERVE_REPLICA_MEMORY_SHARE", share)
    probe = SearchEngine.__new__(SearchEngine)
    probe.cat = Catalog(POS_IDX)
    probe.ifs = probe.cat.ifs
    need = 2 * probe._replica_bytes()  # two replicas for two CPUs
    res = {"CPU": 2.0, "memory": need / share * (1 if fits else 0.999)}
    monkeypatch.setattr(ray, "cluster_resources", lambda: res)
    with SearchEngine(POS_IDX) as eng:
        assert [len(st) for st in eng.actor_sets] == ([1, 1] if fits else [3])


# replicated: every actor a full replica, its own replica set (None -> one
# per CPU Ray reports, here 4, at most one per shard). Packed: None -> one shard per actor; 6 -> two replica
# sets; 1 -> all three shards in one actor; 2 -> a 2+1 split
@pytest.mark.parametrize("num_actors", [None, 6, 1, 2])
def test_mixed_batch_equals_single_queries_and_oracle(pos_idx, num_actors, monkeypatch):
    oidx = pos_idx
    with SearchEngine(POS_IDX, num_actors=num_actors) as eng:
        assert [len(st) for st in eng.actor_sets] == [1] * (num_actors or 3)
        # tombstone the current top hit of two queries (persisted: each
        # later parametrization adds two more)
        for qs in (MIXED[0], MIXED[4]):
            eng.delete_doc(_engine_call(eng, qs)["doc_id"][0].as_py())
        dead = set(eng._tombstones)
        assert len(dead) >= 2
        out = eng.search_batch(MIXED)
        singles = [_engine_call(eng, qs) for qs in MIXED]
        facets = eng.facet_counts(MIXED)
    assert out.equals(pa.concat_tables(singles))
    # facets scatter through the same replica-set split as search
    assert facets.num_rows and set(facets["query_id"].to_pylist()) < {qs.query_id for qs in MIXED}
    if num_actors is not None:
        with SearchEngine(POS_IDX) as one:
            assert one.facet_counts(MIXED).equals(facets)
    # query blocks in input order, each ranked 1..n
    assert out["query_id"].to_pylist() == [
        qs.query_id for qs, t in zip(MIXED, singles) for _ in range(t.num_rows)
    ]
    assert not set(out["doc_id"].to_pylist()) & dead
    for qs, got in zip(MIXED, singles):
        exp = _oracle(oidx, qs, dead)
        assert _rows(got) == exp, qs
        assert got["rank"].to_pylist() == list(range(1, len(exp) + 1))
    n = {qs.query_id: t.num_rows for qs, t in zip(MIXED, singles)}
    assert n[3] == 0 and n[70] == 0  # no-hit, and a threshold nothing reaches
    assert n[12] > 10 or n[21] > 10  # a limit-20 block longer than 10
    assert n[64] == 40  # more than SHARD_CANDIDATE_K rows
    # the packed layout answers the same batch with the same tables
    _pack(monkeypatch)
    with SearchEngine(POS_IDX, num_actors=num_actors) as eng:
        assert len(eng.actor_sets) == (2 if num_actors == 6 else 1)
        assert len(eng.actor_sets[0]) == {None: 3, 6: 3, 1: 1, 2: 2}[num_actors]
        assert eng.search_batch(MIXED).equals(out)
        assert eng.facet_counts(MIXED).equals(facets)


@pytest.mark.parametrize("num_actors", [1, 2, 3, 6])  # 1, 2, n_shards, 2 x n_shards
@pytest.mark.parametrize("layout", ["replicated", "packed"])
def test_every_layout_equals_oracle(pos_idx, layout, num_actors, monkeypatch):
    """Every actor count answers a mixed batch with the oracle's rows, in
    the full-replica layout and in the packed one."""
    if layout == "packed":
        _pack(monkeypatch)
    with SearchEngine(POS_IDX, num_actors=num_actors) as eng:
        per_set = 1 if layout == "replicated" else min(num_actors, 3)
        assert [len(st) for st in eng.actor_sets] == [per_set] * (num_actors // per_set)
        dead = set(eng._tombstones)
        out = eng.search_batch(MIXED)
    start = 0
    for qs in MIXED:
        exp = _oracle(pos_idx, qs, dead)
        got = out.slice(start, len(exp))
        assert got["query_id"].to_pylist() == [qs.query_id] * len(exp), qs
        assert _rows(got) == exp, qs
        start += len(exp)
    assert start == out.num_rows


@pytest.mark.parametrize("layout", ["replicated", "packed", "pack=True"])
def test_single_query_actor_calls(pos_idx, layout, monkeypatch):
    """A one-query search_batch makes one actor call on full replicas, and
    one per actor of a set (here one per shard) when the shards are packed:
    for want of memory, or asked for (bulk_search's batch-only engine)."""
    if layout == "packed":
        _pack(monkeypatch)
    get, sent = ray.get, []

    def counting_get(refs, *a, **kw):
        sent.append(len(refs))
        return get(refs, *a, **kw)

    with SearchEngine(POS_IDX, pack=layout == "pack=True") as eng:
        monkeypatch.setattr(ray, "get", counting_get)
        eng.search_batch([MIXED[0]])
    assert sent == [1 if layout == "replicated" else 3]


def _tie_corpus() -> pa.Table:
    """45 docs with identical content (one score, so doc_id alone orders
    them) over five repos, two docs of a repo of their own (so at least one
    of three shards lacks it), and some filler."""
    rng = np.random.default_rng(11)
    rows = [
        {"repo": f"tie{i % 5}", "path": f"tie/{i:03d}.txt", "commit": f"t{i}",
         "lang": "en", "content": "tiealpha tiebeta"}
        for i in range(45)
    ]
    rows += [
        {"repo": "lonely", "path": f"lonely/{i}.txt", "commit": f"l{i}",
         "lang": "en", "content": "tiealpha hash join"}
        for i in range(2)
    ]
    rows += [
        {"repo": f"src{i % 3}", "path": f"fill/{i:03d}.txt", "commit": f"f{i}",
         "lang": "en", "content": " ".join(rng.choice(VOCAB, size=int(rng.integers(3, 20))))}
        for i in range(30)
    ]
    return pa.Table.from_pylist(rows)


@pytest.fixture(scope="module")
def tie_idx(ray_session):
    t = _tie_corpus()
    shutil.rmtree(TIE_IDX, ignore_errors=True)
    build_index(corpus=ray.data.from_arrow(t), index_dir=TIE_IDX, cfg=EngineConfig(n_shards=3))
    return build_oracle_index(t)


TIES = (
    QuerySpec(1, ("tiebeta",), limit=5),
    QuerySpec(2, ("tiebeta",), limit=35),
    QuerySpec(3, ("tiealpha tiebeta",), limit=35),
    QuerySpec(4, ("tiealpha",), scope="lonely"),  # a repo one shard lacks
    QuerySpec(5, ("tiealpha",), scope="nosuchrepo"),  # a repo no shard has
)


@pytest.mark.parametrize("num_actors", [1, 3])
def test_tied_scores_cut_per_actor_in_doc_id_order(tie_idx, num_actors, monkeypatch):
    """Ties across shards: whether one actor holds all three shards (a full
    replica, or num_actors=1 packed) or each shard has its own (3 packed),
    every block equals the oracle's ranks and its doc_id-ascending tie
    order."""
    oidx = tie_idx
    with SearchEngine(TIE_IDX, num_actors=num_actors) as eng:
        assert [len(st) for st in eng.actor_sets] == [1] * num_actors
        replicated = eng.search_batch(TIES)
    _pack(monkeypatch)
    with SearchEngine(TIE_IDX, num_actors=num_actors) as eng:
        assert [len(st) for st in eng.actor_sets] == [num_actors]
        out = eng.search_batch(TIES)
        singles = [_engine_call(eng, qs) for qs in TIES]
    assert replicated.equals(out)
    assert out.equals(pa.concat_tables(singles))
    for qs, got in zip(TIES, singles):
        assert _rows(got) == _oracle(oidx, qs, set()), qs
        assert got["rank"].to_pylist() == list(range(1, got.num_rows + 1))
    n = [t.num_rows for t in singles]
    assert n == [5, 35, 35, 2, 0]
    for t in singles[:3]:  # one tied score, doc_ids ascending
        assert len(set(t["exact_score"].to_pylist())) == 1
        assert t["doc_id"].to_pylist() == sorted(t["doc_id"].to_pylist())


def test_null_repo_code_matches_no_scope(tie_idx):
    """A null repo gets the last code, whose value is None; no scope string
    maps to it, so a shard whose repos are all null has no scoped hits."""
    codes, values = _codes(pa.chunked_array([["b", None, "a", "b"]]))
    assert codes.dtype == np.int32
    assert [values[c] for c in codes] == ["b", None, "a", "b"]
    assert codes[1] == values.size - 1
    stats = Catalog(TIE_IDX).get_stats()
    sh = ShardIndex(TIE_IDX, 0, stats["avgdl"], BM25Params())
    jobs = [
        {"terms": ["tiealpha"], "weights": [1.0], "scope": s, "k": 30}
        for s in ("", *sorted(sh._repo_code), "nosuchrepo")
    ]
    hits = sh.hits(jobs)
    jix, ids, _sc, _pos = sh.visible(jobs, *hits, None)
    assert (jix == 0).sum() == (hits[0] == 0).sum() > 0  # unscoped: every hit
    # the scoped jobs (every repo of the shard, and one it lacks) split
    # the unscoped hits
    assert (jix > 0).sum() == (jix == 0).sum()
    sh.codes["repo"][:] = sh.values["repo"].size - 1  # every doc's repo is null
    jix, *_ = sh.visible(jobs, *hits, None)
    assert (jix == 0).all() and jix.size == (hits[0] == 0).sum()


@pytest.mark.parametrize(
    "hay, needles",
    [
        ([], [3, 1, 2]),  # empty haystack
        ([2, 4, 6], []),  # empty needles
        ([10, 20, 30], [-5, 0, 9, 31, 40, 10**12]),  # below the min, above the max
        ([1, 3, 5, 7], [7, 3, 3, 8, 1, 1, 0, 5, 6, 7]),  # duplicate, unsorted
        ([5], [5, 5, 4, 6]),
    ],
)
def test_sorted_membership_equals_isin(hay, needles):
    h = np.array(hay, dtype=np.int64)
    x = np.array(needles, dtype=np.int64)
    got = _member(x, h)
    assert got.dtype == bool and got.shape == x.shape
    assert np.array_equal(got, np.isin(x, h))


def test_closed_engine_raises(pos_idx):
    eng = SearchEngine(POS_IDX)
    eng.close()
    for call in (
        lambda: eng.search("hash join"),
        lambda: eng.search_prefix("ha"),
        lambda: eng.search_batch(MIXED[:3]),
        lambda: eng.facet_counts(MIXED[:3]),
    ):
        with pytest.raises(RuntimeError, match="SearchEngine is closed"):
            call()


def test_duplicate_query_ids_keep_their_own_blocks(pos_idx):
    """Two specs sharing a query_id: each keeps its own terms, limit and
    threshold, ranked separately, in input order."""
    specs = (
        QuerySpec(7, ("hash join",), limit=3),
        QuerySpec(4, ("alpha",), limit=2),
        QuerySpec(7, ("sort merge",), limit=5, threshold=0.5),
    )
    with SearchEngine(POS_IDX) as eng:
        out = eng.search_batch(specs)
        singles = [_engine_call(eng, qs) for qs in specs]
    assert [t.num_rows for t in singles] == [3, 2, 5]
    assert out.equals(pa.concat_tables(singles))
    assert out["rank"].to_pylist() == [1, 2, 3, 1, 2, 1, 2, 3, 4, 5]


def test_idf_weights_vocabulary_boundaries(pos_idx):
    oidx = pos_idx
    vocab = sorted(oidx.postings)
    first, last, mid = vocab[0], vocab[-1], vocab[len(vocab) // 2]
    before, after, absent = "0" * 3, "zzzzzz", mid + "qqz"
    assert before < first and after > last and first < absent < last
    assert absent not in oidx.postings
    qtf = {before: 1, first: 2, absent: 1, mid: 1, last: 3, after: 1}
    with SearchEngine(POS_IDX) as eng:
        terms, weights = eng.idf_weights(qtf)
        assert eng.idf_weights({}) == ([], [])
        assert eng.idf_weights({before: 1, after: 1}) == ([], [])
    assert terms == [first, mid, last]
    assert weights == [
        qtf[t] * idf(oidx.n_docs, len(oidx.postings[t])) for t in terms
    ]


def _distinct_term_loop(sh: ShardIndex) -> list[dict]:
    """OR on every vocabulary term, then AND, phrase and near on each
    neighbouring pair: every query meets a term the previous one did not."""
    out = [sh.score_query([t], [1.0]) for t in VOCAB]
    for a, b in zip(VOCAB, VOCAB[1:]):
        terms = sorted({a, b})
        out.append(sh.score_conj(terms, [1.0, 2.0]))
        out.append(sh.score_phrase([a, b], terms, [1.0, 2.0]))
        out.append(sh.score_near(terms, [1.0, 2.0], slop=4))
    return [{k: np.asarray(v).tolist() for k, v in r.items()} for r in out]


def test_decode_cache_lru_stays_under_its_byte_cap(pos_idx, monkeypatch):
    """With the cap at a quarter of what the loop decodes, the shard's one
    postings + positions LRU stays at or below its cap after every query
    (it evicts), and every result equals the uncapped run's — also on a
    second pass that re-decodes evicted terms, and after every postings
    entry is dropped while the positions entries stay."""
    stats = Catalog(POS_IDX).get_stats()
    full = ShardIndex(POS_IDX, 0, stats["avgdl"], BM25Params())
    want = _distinct_term_loop(full)
    cap = full._cache.nbytes // 4
    assert cap > 0 and full._cache.nbytes <= config.DECODE_CACHE_MAX_BYTES
    monkeypatch.setattr(config, "DECODE_CACHE_MAX_BYTES", cap)
    sh = ShardIndex(POS_IDX, 0, stats["avgdl"], BM25Params())
    got, peak = [], 0
    orig = sh._cache.put

    def put(key, value):
        nonlocal peak
        orig(key, value)
        peak = max(peak, sh._cache.nbytes)

    sh._cache.put = put
    for _ in range(2):
        got.append(_distinct_term_loop(sh))
    assert 0 < peak <= cap
    for key in [k for k in sh._cache._d if k[0] == "post"]:
        sh._cache._d.pop(key)  # positions entries now outlive their postings
    got.append(_distinct_term_loop(sh))
    assert got == [want] * 3


def _one_index(idx: str) -> ShardIndex:
    """One ShardIndex over every shard's committed files, as a full-replica
    serve actor holds them."""
    cat = Catalog(idx)
    files = (cat.files("segments"), cat.files("docs"))
    return ShardIndex(idx, None, cat.get_stats()["avgdl"], BM25Params(), files=files)


def test_decode_cache_is_one_lru_per_actor(pos_idx, monkeypatch):
    """An actor's shards are one ShardIndex with one decode LRU: over the
    files of shards 0-2, with the cap at a quarter of what it decodes, the
    cache stays at or below the cap and every result equals the uncapped
    run's. The engine's one actor holds one cache, keyed by term alone."""
    assert Catalog(POS_IDX).get_config()["n_shards"] == 3
    free = _one_index(POS_IDX)
    want = _distinct_term_loop(free)
    cap = free._cache.nbytes // 4
    assert cap > 0
    monkeypatch.setattr(config, "DECODE_CACHE_MAX_BYTES", cap)
    sh, peak = _one_index(POS_IDX), 0
    orig = sh._cache.put

    def put(key, value):
        nonlocal peak
        orig(key, value)
        peak = max(peak, sh._cache.nbytes)

    sh._cache.put = put
    assert _distinct_term_loop(sh) == want
    assert 0 < peak <= cap and {k[0] for k in sh._cache._d} == {"post", "pos"}
    with SearchEngine(POS_IDX, num_actors=1) as eng:
        (actor,) = eng.actor_sets[0]
        eng.search_batch(MIXED)
        keys = ray.get(actor.__ray_call__.remote(lambda a: list(a._cache._d)))
    assert keys and all(len(k) == 2 and k[0] in ("post", "pos") for k in keys)


def _merged(parts: list[tuple], jobs: list[dict]) -> list[tuple]:
    """Per-shard ``search`` replies merged as the driver merges actors':
    one (job, rscore DESC, doc_id ASC) order, each job cut to its k. Rows
    (job, doc_id, score bits, rscore, repo, path, lang)."""
    jix, ids, sc, rs = (np.concatenate([p[c] for p in parts]) for c in range(4))
    strs = [np.array([v for p in parts for v in p[c]], dtype=object) for c in (4, 5, 6)]
    order = np.lexsort((ids, -rs, jix))
    js = jix[order]
    order = order[np.arange(js.size) - np.searchsorted(js, js) < np.array([j["k"] for j in jobs])[js]]
    return _bitrows((jix[order], ids[order], sc[order], rs[order], *(c[order] for c in strs)))


def _bitrows(cols: tuple) -> list[tuple]:
    jix, ids, sc, rs, *strs = cols
    return list(zip(jix.tolist(), ids.tolist(), sc.view(np.int64).tolist(), rs.tolist(),
                    *(list(c) for c in strs)))


@pytest.mark.parametrize("which", ["positional", "ties"])
def test_one_index_over_every_shard_equals_merged_shards(pos_idx, tie_idx, which):
    """One ShardIndex over every shard's files returns the per-shard
    indexes' merged ``search`` rows — the same doc_ids and bitwise-equal
    scores — and ``facet_counts`` equal to the per-shard sums, for OR, AND,
    phrase and near jobs with scope, exclude, threshold and tombstones,
    at the engine's k and at a k that cuts across shards."""
    idx = POS_IDX if which == "positional" else TIE_IDX
    specs = MIXED if which == "positional" else TIES + (
        QuerySpec(6, ("tiealpha tiebeta",), mode="and", limit=35, exclude=("hash",)),
        QuerySpec(7, ("tiealpha hash",), threshold=0.5, limit=20),
    )
    with SearchEngine(idx, num_actors=1) as eng:
        jobs = [j for j in map(eng._job_for, specs) if j is not None]
    jobs += [dict(j, k=3) for j in jobs]
    assert {j.get("mode") for j in jobs} >= {None, "and"}
    one = _one_index(idx)
    shards = [ShardIndex(idx, s, one.avgdl, BM25Params()) for s in range(3)]
    tomb = one.meta_ids[::7].copy()
    got = _bitrows(one.search(jobs, tomb))
    assert len(got) > len(jobs)
    assert got == _merged([sh.search(jobs, tomb) for sh in shards], jobs)

    def counts(parts) -> dict:
        out: dict = {}
        for jix, fac, val, n in parts:
            for key, c in zip(zip(jix.tolist(), fac, val), n.tolist()):
                out[key] = out.get(key, 0) + c
        return out

    facets = one.facet_counts(jobs, tomb)
    assert len(set(zip(facets[0].tolist(), facets[1], facets[2]))) == facets[0].size > 0
    assert counts([facets]) == counts(sh.facet_counts(jobs, tomb) for sh in shards)


def test_empty_shards_serve_phrase_and_near(ray_session):
    """A positional index with more shards than docs: the shards with no
    segment file match nothing, and do not fail a phrase or near query
    with "requires a positional index", in either layout."""
    t = pa.Table.from_pylist([
        {"repo": "r", "path": f"p{i}", "commit": "c", "lang": "en", "content": "hash join table"}
        for i in range(2)
    ])
    shutil.rmtree(EMPTY_SHARD_IDX, ignore_errors=True)
    build_index(corpus=ray.data.from_arrow(t), index_dir=EMPTY_SHARD_IDX,
                cfg=EngineConfig(n_shards=4, with_positions=True))
    assert len(Catalog(EMPTY_SHARD_IDX).files("segments")) < 4
    oidx = build_oracle_index(t)
    specs = (QuerySpec(1, ("hash join",), mode="phrase"),
             QuerySpec(2, ("table hash",), mode="near", slop=2))
    for pack in (False, True):
        with SearchEngine(EMPTY_SHARD_IDX, pack=pack) as eng:
            for qs in specs:
                got = _engine_call(eng, qs)
                assert got.num_rows == 2 and _rows(got) == _oracle(oidx, qs, set()), (pack, qs)


@pytest.fixture(scope="module")
def ray_df_idx(ray_session, sf_dir):
    """sf0.001 built with every stage after docs on Ray tasks: df/ is still
    one term-sorted file, summed on the driver."""
    shutil.rmtree(RAY_DF_IDX, ignore_errors=True)
    build_index(
        corpus=corpus_from_documents(sf_dir),
        index_dir=RAY_DF_IDX,
        cfg=EngineConfig(n_shards=4, driver_agg_max_bytes=0),
    )
    return build_oracle_index(corpus_table_from_documents(sf_dir))


def test_ray_path_df_engine_matches_oracle_and_prefix_sql(ray_df_idx, duck):
    oidx = ray_df_idx
    prefixes = ((600, "pa"), (601, "wi"), (602, "s"), (603, "qqzz"))
    with SearchEngine(RAY_DF_IDX) as eng:
        assert len(eng.ifs.list_files("df", suffix=".parquet")) == 1
        # the resident column is the whole vocabulary, term-sorted
        assert eng._df_terms.tolist() == sorted(oidx.postings)
        for qs in ALL_QUERIES:
            got = _engine_call(eng, qs)
            exp = _oracle(oidx, qs, set())
            assert _rows(got) == exp, qs
        got = pa.concat_tables([eng.search_prefix(p, query_id=q) for q, p in prefixes])
    cols = ["query_id", "rank", "doc_id", "path", "repo", "lang", "score"]
    want = duck.sql(
        sqlgen.prefix_topk_sql(prefixes, 10, PREFIX_MAX_EXPANSIONS, BM25Params())
    ).fetch_arrow_table()
    assert want.num_rows > 0
    assert got.select(cols).to_pylist() == want.select(cols).to_pylist()


def test_multi_file_unsorted_df_of_older_builds(ray_df_idx):
    """Older builds wrote df/ as several files, not term-sorted across
    them, and a manifest that lists no files (each table was its dir): the
    engine still sorts the resident column and scores exactly."""
    import pyarrow.parquet as pq

    oidx = ray_df_idx
    shutil.rmtree(LEGACY_DF_IDX, ignore_errors=True)
    shutil.copytree(RAY_DF_IDX, LEGACY_DF_IDX)
    (old,) = Catalog(LEGACY_DF_IDX).files("df")
    df = pq.read_table(old)
    rev = df.take(pa.array(np.arange(df.num_rows)[::-1]))
    half = df.num_rows // 2
    pq.write_table(rev.slice(0, half), f"{LEGACY_DF_IDX}/df/part-a.parquet")
    pq.write_table(rev.slice(half), f"{LEGACY_DF_IDX}/df/part-b.parquet")
    Path(old).unlink()
    man = Path(f"{LEGACY_DF_IDX}/manifest.json")
    m = json.loads(man.read_text())
    del m["files"]
    m.pop("retired", None)
    man.write_text(json.dumps(m))
    with SearchEngine(LEGACY_DF_IDX) as eng:
        assert len(eng.ifs.list_files("df", suffix=".parquet")) == 2
        assert eng._df_terms.tolist() == sorted(oidx.postings)
        for qs in ALL_QUERIES:
            assert _rows(_engine_call(eng, qs)) == _oracle(oidx, qs, set()), qs
