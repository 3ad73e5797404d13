"""Conjunctive (AND) and exact-phrase search modes vs the Python oracle.

Engine path: pipelines/search.py _job_for -> stages/scorer.py score_conj /
score_phrase over the positional column family. Oracle twins:
oracle.oracle_conj_search / oracle.oracle_phrase_search (and the DuckDB
twins sqlgen.bm25_conj_topk_sql / phrase_topk_sql, exercised by the driver
gate entries bm25_topk_conj / bm25_topk_phrase). Scores must be BITWISE
equal — the restricted accumulation keeps the frozen term-ascending order.
"""

from __future__ import annotations

import shutil

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from smse_backend_ray import config
from smse_backend_ray.config import EngineConfig
from smse_backend_ray.oracle import (
    build_oracle_index,
    oracle_conj_search,
    oracle_phrase_search,
    oracle_search,
)
from smse_backend_ray.pipelines.build import build_index
from smse_backend_ray.pipelines.search import SearchEngine
from smse_backend_ray.queryset import QuerySpec

POS_IDX = "/tmp/smse_test_modes_pos_idx"
PLAIN_IDX = "/tmp/smse_test_modes_plain_idx"


def _corpus(n=120, seed=11) -> list[dict]:
    rng = np.random.default_rng(seed)
    vocab = [
        "hash", "join", "table", "sort", "merge", "batch", "value", "fast",
        "scan", "row", "alpha", "beta", "key", "window", "filter",
    ]
    rows = []
    for i in range(n):
        words = list(rng.choice(vocab, size=int(rng.integers(4, 50))))
        # sprinkle stopwords so kept-stream adjacency differs from raw text
        if i % 7 == 0:
            words.insert(1, "the")
        rows.append(
            {
                "repo": f"src{i % 4}",
                "path": f"docs/{i:04d}.txt",
                "commit": f"c{i}",
                "lang": "en",
                "content": " ".join(words),
            }
        )
    # planted docs: repeated-term phrase + stopword-split phrase
    rows.append(dict(rows[0], path="docs/planted1.txt", commit="p1",
                     content="alpha beta alpha beta gamma"))
    rows.append(dict(rows[0], path="docs/planted2.txt", commit="p2",
                     content="hash the join sorted output"))
    return rows


@pytest.fixture(scope="module")
def modes_idx(ray_session):
    rows = _corpus()
    t = pa.Table.from_pylist(rows)
    shutil.rmtree(POS_IDX, ignore_errors=True)
    shutil.rmtree(PLAIN_IDX, ignore_errors=True)
    build_index(
        corpus=ray.data.from_arrow(t),
        index_dir=POS_IDX,
        cfg=EngineConfig(n_shards=3, with_positions=True, block_size=16),
    )
    build_index(
        corpus=ray.data.from_arrow(t),
        index_dir=PLAIN_IDX,
        cfg=EngineConfig(n_shards=3),
    )
    return build_oracle_index(t)


CONJ_CASES = [
    (["hash join"], "", None),
    (["sort merge batch"], "", None),
    (["alpha beta"], "src0", None),
    (["window filter", "key"], "", 0.3),
    (["hash nohitzz"], "", None),  # df=0 term -> provably empty
]

PHRASE_CASES = [
    "sort merge",
    "alpha beta alpha",          # overlapping repeated-term phrase
    "hash the join",             # stopword dropped from BOTH streams
    "hash join table",
    "alpha",                     # single-token phrase == term match
    "merge nohitzz",             # no-hit
]


def test_conj_matches_oracle(modes_idx):
    oidx = modes_idx
    with SearchEngine(POS_IDX) as eng:
        for parts, scope, thr in CONJ_CASES:
            got = eng.search(parts, scope=scope, threshold=thr, limit=10,
                             mode="and").to_pylist()
            exp = oracle_conj_search(oidx, parts, scope=scope, threshold=thr,
                                     limit=10)
            assert len(got) == len(exp), parts
            for g, e in zip(got, exp):
                assert g["doc_id"] == e["doc_id"], parts
                assert g["exact_score"] == e["score"], parts


def test_phrase_matches_oracle(modes_idx):
    oidx = modes_idx
    with SearchEngine(POS_IDX) as eng:
        for text in PHRASE_CASES:
            got = eng.search([text], limit=10, mode="phrase").to_pylist()
            exp = oracle_phrase_search(oidx, text, limit=10)
            assert len(got) == len(exp), text
            for g, e in zip(got, exp):
                assert g["doc_id"] == e["doc_id"], text
                assert g["exact_score"] == e["score"], text


def test_phrase_finds_planted_docs(modes_idx):
    oidx = modes_idx
    # overlapping repeat: "alpha beta alpha" occurs only in planted1
    hits = {r["doc_id"] for r in oracle_phrase_search(oidx, "alpha beta alpha")}
    planted1 = [d for d, t in oidx.tokens.items()
                if t[:5] == ["alpha", "beta", "alpha", "beta", "gamma"]]
    assert planted1 and set(planted1) <= hits
    # stopword-split: planted2's raw text is "hash the join ..." — kept
    # stream is (hash, join, ...) so the phrase "hash join" matches it
    hits2 = {r["doc_id"] for r in oracle_phrase_search(oidx, "hash join")}
    planted2 = [d for d, t in oidx.tokens.items() if t[:3] == ["hash", "join", "sorted"]]
    assert planted2 and set(planted2) <= hits2


def test_conj_subset_of_or_mode(modes_idx):
    oidx = modes_idx
    parts = ["sort merge batch"]
    conj = {r["doc_id"] for r in oracle_conj_search(oidx, parts, limit=1000)}
    disj = {r["doc_id"] for r in oracle_search(oidx, parts, limit=1000)}
    assert conj <= disj
    # every conj hit really contains every term
    for did in conj:
        for term in ("sort", "merge", "batch"):
            assert did in oidx.postings[term]
    with SearchEngine(POS_IDX) as eng:
        got = {r["doc_id"] for r in eng.search(parts, limit=1000, mode="and").to_pylist()}
    assert got == conj


def test_phrase_requires_positional_index(modes_idx):
    with SearchEngine(PLAIN_IDX) as eng:
        with pytest.raises(Exception, match="positional"):
            eng.search(["sort merge"], mode="phrase")
        # AND mode needs no positions — works on the plain index
        assert eng.search(["sort merge"], mode="and").num_rows >= 0


def test_phrase_tombstone_filtered(modes_idx):
    oidx = modes_idx
    with SearchEngine(POS_IDX) as eng:
        base = eng.search(["sort merge"], mode="phrase", limit=5).to_pylist()
        if not base:
            pytest.skip("no phrase hits in corpus draw")
        dead = base[0]["doc_id"]
        eng.delete_doc(dead)
        try:
            after = eng.search(["sort merge"], mode="phrase", limit=5).to_pylist()
            assert dead not in {r["doc_id"] for r in after}
            exp = [r for r in oracle_phrase_search(oidx, "sort merge", limit=6)
                   if r["doc_id"] != dead][:5]
            assert [r["doc_id"] for r in after] == [e["doc_id"] for e in exp]
        finally:
            eng.ifs.delete_file(eng.TOMBSTONES)


NEAR_CASES = [
    (["hash join"], 3, "", None),
    (["sort merge batch"], 6, "", None),
    (["alpha beta"], 0, "", None),       # 2 distinct terms, slop 0 -> empty
    (["alpha"], 0, "", None),            # 1 term, slop 0 -> plain term match
    (["window filter", "key"], 10, "src1", None),
    (["hash nohitzz"], 50, "", None),    # df=0 term -> provably empty
]


def test_near_matches_oracle(modes_idx):
    from smse_backend_ray.oracle import oracle_near_search

    oidx = modes_idx
    with SearchEngine(POS_IDX) as eng:
        for parts, slop, scope, thr in NEAR_CASES:
            got = eng.search(parts, scope=scope, threshold=thr, limit=10,
                             mode="near", slop=slop).to_pylist()
            exp = oracle_near_search(oidx, parts, slop, scope=scope,
                                     threshold=thr, limit=10)
            assert len(got) == len(exp), (parts, slop)
            for g, e in zip(got, exp):
                assert g["doc_id"] == e["doc_id"], (parts, slop)
                assert g["exact_score"] == e["score"], (parts, slop)


def test_near_nests_between_phrase_and_conj(modes_idx):
    """phrase hits ⊆ near(slop=len-1 one-sided window) ... ⊆ conj hits."""
    from smse_backend_ray.oracle import oracle_conj_search, oracle_near_search

    oidx = modes_idx
    parts = ["sort merge"]
    ph = {r["doc_id"] for r in oracle_phrase_search(oidx, "sort merge", limit=1000)}
    nr = {r["doc_id"] for r in oracle_near_search(oidx, parts, 1, limit=1000)}
    cj = {r["doc_id"] for r in oracle_conj_search(oidx, parts, limit=1000)}
    assert ph <= nr <= cj
    # a huge slop makes near degenerate to conj
    nr_all = {r["doc_id"] for r in oracle_near_search(oidx, parts, 10**6, limit=1000)}
    assert nr_all == cj
    with SearchEngine(POS_IDX) as eng:
        got = {r["doc_id"] for r in eng.search(parts, limit=1000, mode="near",
                                               slop=1).to_pylist()}
    assert got == nr


def test_min_cover_span_unit():
    from smse_backend_ray.stages.scorer import _min_cover_span

    a = lambda *xs: np.asarray(xs, dtype=np.int64)  # noqa: E731
    assert _min_cover_span([a(5)]) == 0
    assert _min_cover_span([a(0, 10), a(4)]) == 4
    assert _min_cover_span([a(0, 9), a(4), a(5, 100)]) == 5
    assert _min_cover_span([a(1), a(2), a(3)]) == 2
    assert _min_cover_span([a(0, 7), a(1, 8), a(2, 6)]) == 2  # best window at tail
    assert _min_cover_span([a(0), a(1000)]) == 1000


def test_near_requires_positional_index(modes_idx):
    with SearchEngine(PLAIN_IDX) as eng:
        with pytest.raises(Exception, match="positional"):
            eng.search(["sort merge"], mode="near", slop=2)
        with pytest.raises(ValueError):
            eng.search(["sort merge"], mode="near", slop=-1)


def test_vectorized_match_paths_random_parity(modes_idx):
    """The phrase chain and near last-seen sweep run vectorized across ALL
    candidate docs (global rank*OFF+pos keys) — fuzz them against the
    independent scalar oracle over random vocab queries."""
    from smse_backend_ray.oracle import oracle_near_search

    oidx = modes_idx
    rng = np.random.default_rng(23)
    vocab = ["hash", "join", "table", "sort", "merge", "batch", "value",
             "fast", "scan", "row", "alpha", "beta", "key", "window", "filter"]
    with SearchEngine(POS_IDX) as eng:
        for _ in range(25):
            n = int(rng.integers(2, 5))
            words = list(rng.choice(vocab, size=n, replace=True))
            text = " ".join(words)
            got = eng.search([text], limit=50, mode="phrase").to_pylist()
            exp = oracle_phrase_search(oidx, text, limit=50)
            assert [g["doc_id"] for g in got] == [e["doc_id"] for e in exp], text
            slop = int(rng.integers(0, 7))
            gotn = eng.search([text], limit=50, mode="near", slop=slop).to_pylist()
            expn = oracle_near_search(oidx, [text], slop, limit=50)
            assert [g["doc_id"] for g in gotn] == [e["doc_id"] for e in expn], (text, slop)
            assert [g["exact_score"] for g in gotn] == [e["score"] for e in expn], (text, slop)


def _oracle_facets(rows):
    """Expected facet counts from oracle result rows (untruncated)."""
    out = {}
    for r in rows:
        for facet in ("repo", "lang"):
            key = (facet, r[facet if facet != "lang" else "lang"])
            out[key] = out.get(key, 0) + 1
    return out


def test_facet_counts_all_modes(modes_idx):
    from smse_backend_ray.oracle import oracle_conj_search, oracle_near_search

    oidx = modes_idx
    BIG = 10**9
    specs = (
        QuerySpec(700, ("hash join",)),                      # OR
        QuerySpec(701, ("sort merge",), mode="phrase"),
        QuerySpec(702, ("sort merge batch",), mode="and"),
        QuerySpec(703, ("hash join",), mode="near", slop=3),
        QuerySpec(704, ("table value",), scope="src2"),      # scoped OR
        QuerySpec(705, ("hash key row",), threshold=0.5),    # thresholded OR
        QuerySpec(706, ("qqzz nohit",)),                     # empty
    )
    exp = {
        700: _oracle_facets(oracle_search(oidx, ["hash join"], limit=BIG)),
        701: _oracle_facets(oracle_phrase_search(oidx, "sort merge", limit=BIG)),
        702: _oracle_facets(oracle_conj_search(oidx, ["sort merge batch"], limit=BIG)),
        703: _oracle_facets(oracle_near_search(oidx, ["hash join"], 3, limit=BIG)),
        704: _oracle_facets(oracle_search(oidx, ["table value"], scope="src2", limit=BIG)),
        705: _oracle_facets(oracle_search(oidx, ["hash key row"], threshold=0.5, limit=BIG)),
        706: {},
    }
    with SearchEngine(POS_IDX) as eng:
        t = eng.facet_counts(specs)
    got = {}
    for r in t.to_pylist():
        got.setdefault(r["query_id"], {})[(r["facet"], r["value"])] = r["n_docs"]
    for qid, e in exp.items():
        assert got.get(qid, {}) == e, qid
    # facet counts are richer than top-k: every query's repo counts sum to
    # its total match count (lang counts sum to the same total)
    for qid, e in exp.items():
        if not e:
            continue
        repo_total = sum(v for (f, _), v in e.items() if f == "repo")
        lang_total = sum(v for (f, _), v in e.items() if f == "lang")
        assert repo_total == lang_total


def test_snippets_match_token_streams(modes_idx):
    """Engine snippets == windows computed from the oracle's kept-token
    streams (anchor = first matched term, [max(0,a-LEAD), +WINDOW))."""
    from smse_backend_ray.config import SNIPPET_LEAD, SNIPPET_WINDOW
    from smse_backend_ray.functions.fusion import fuse_parts

    oidx = modes_idx
    specs = (
        QuerySpec(800, ("hash join",)),
        QuerySpec(801, ("alpha beta",), limit=5),
        QuerySpec(802, ("sort merge",), mode="phrase", limit=4),
    )
    with SearchEngine(POS_IDX) as eng:
        t = eng.snippets(specs)
        res = eng.search_batch(specs)
    assert t.num_rows == res.num_rows
    by_q = {qs.query_id: set(fuse_parts(list(qs.parts))[0]) for qs in specs}
    for r in t.to_pylist():
        toks = oidx.tokens[r["doc_id"]]
        anchor = min(i for i, tok in enumerate(toks) if tok in by_q[r["query_id"]])
        start = max(0, anchor - SNIPPET_LEAD)
        assert r["snippet"] == " ".join(toks[start : start + SNIPPET_WINDOW]), r
        # snippet contains at least one query term
        assert set(r["snippet"].split()) & by_q[r["query_id"]]


def test_snippets_require_positional_build(modes_idx):
    with SearchEngine(PLAIN_IDX) as eng:
        with pytest.raises(Exception, match="positional"):
            eng.snippets((QuerySpec(810, ("hash join",)),))


def test_more_like_this_properties(modes_idx):
    """MLT invariants: source never appears in its own results; query terms
    are the source's top tf*idf terms; results equal a hand-built oracle
    search over those terms with the source excluded."""
    from smse_backend_ray.functions import bm25

    oidx = modes_idx
    srcs = sorted(oidx.docs)[:5]
    with SearchEngine(POS_IDX) as eng:
        t = eng.more_like_this(srcs, limit=8)
    assert set(t.column_names) == {
        "src_id", "rank", "doc_id", "path", "repo", "lang", "score"
    }
    got = {}
    for r in t.to_pylist():
        assert r["doc_id"] != r["src_id"]
        got.setdefault(r["src_id"], []).append((r["rank"], r["doc_id"], r["score"]))
    from smse_backend_ray.config import MLT_TOP_TERMS, SCORE_DECIMALS
    from smse_backend_ray.functions.rounding import round_half_away

    for sid in srcs:
        toks = oidx.tokens[sid]
        tf = {}
        for tok in toks:
            tf[tok] = tf.get(tok, 0) + 1
        ranked = sorted(
            (-(c * bm25.idf(oidx.n_docs, len(oidx.postings[term]))), term)
            for term, c in tf.items()
        )
        sel = sorted(term for _, term in ranked[:MLT_TOP_TERMS])
        # hand-built restricted oracle: OR search on sel terms, drop source
        exp = [
            r for r in oracle_search(oidx, [" ".join(sel)], limit=9)
            if r["doc_id"] != sid
        ][:8]
        # NOTE: " ".join(sel) re-tokenizes to exactly sel (all kept terms)
        got_rows = sorted(got.get(sid, []))
        assert [g[1] for g in got_rows] == [e["doc_id"] for e in exp], sid
        assert [g[2] for g in got_rows] == [
            round_half_away(e["score"], SCORE_DECIMALS) for e in exp
        ], sid


def test_replica_sets_serve_modal_batches(modes_idx, monkeypatch):
    """Several replica sets LPT-split the batch — six full replicas, or
    (replicas' memory share 0) two packed sets of three shards; results must
    be identical to the default layout for every mode."""
    specs = (
        QuerySpec(930, ("hash join",), mode="and"),
        QuerySpec(931, ("sort merge",), mode="phrase", limit=4),
        QuerySpec(932, ("alpha beta",), mode="near", slop=5),
        QuerySpec(933, ("table row",), exclude=("key",)),
        QuerySpec(934, ("batch value",)),
    )
    with SearchEngine(POS_IDX) as one:
        base = one.search_batch(specs)
    # full replicas, whatever memory the host has free
    monkeypatch.setattr(config, "SERVE_REPLICA_MEMORY_SHARE", float("inf"))
    with SearchEngine(POS_IDX, num_actors=6) as many:  # 6 full replicas
        assert [len(st) for st in many.actor_sets] == [1] * 6
        replicated = many.search_batch(specs)
    monkeypatch.setattr(config, "SERVE_REPLICA_MEMORY_SHARE", 0)
    with SearchEngine(POS_IDX, num_actors=6) as many:  # 2 sets x 3 shards
        assert len(many.actor_sets) == 2
        got = many.search_batch(specs)
    import pyarrow.compute as pc

    key = [("query_id", "ascending"), ("rank", "ascending")]
    for t in (got, replicated):
        assert base.take(pc.sort_indices(base, sort_keys=key)).equals(
            t.take(pc.sort_indices(t, sort_keys=key))
        )


def test_facet_value_cap(modes_idx, monkeypatch):
    """FACET_MAX_VALUES keeps the largest values per (query, facet) by
    (n_docs DESC, value ASC) — uncapped results truncate consistently."""
    import smse_backend_ray.config as cfg

    with SearchEngine(POS_IDX) as eng:
        full = eng.facet_counts((QuerySpec(920, ("hash join",)),))
        monkeypatch.setattr(cfg, "FACET_MAX_VALUES", 2)
        capped = eng.facet_counts((QuerySpec(920, ("hash join",)),))
    for facet in ("repo", "lang"):
        fr = [r for r in full.to_pylist() if r["facet"] == facet]
        cr = [r for r in capped.to_pylist() if r["facet"] == facet]
        exp = sorted(fr, key=lambda r: (-r["n_docs"], r["value"]))[:2]
        assert sorted((r["value"], r["n_docs"]) for r in cr) == sorted(
            (r["value"], r["n_docs"]) for r in exp
        )


def test_explain_sums_to_score(modes_idx):
    """The sum of a doc's explain contributions equals its search score up
    to contribution-level rounding; inputs (tf, df, dl, qtf) match the
    oracle index exactly."""
    from smse_backend_ray.config import SCORE_DECIMALS

    oidx = modes_idx
    parts = ["hash join table"]
    with SearchEngine(POS_IDX) as eng:
        res = eng.search(parts, limit=5).to_pylist()
        ids = [r["doc_id"] for r in res]
        ex = eng.explain(parts, ids).to_pylist()
    by_doc = {}
    for r in ex:
        by_doc.setdefault(r["doc_id"], []).append(r)
        assert r["tf"] == oidx.postings[r["term"]][r["doc_id"]]
        assert r["df"] == len(oidx.postings[r["term"]])
        assert r["dl"] == oidx.docs[r["doc_id"]].dl
    for r in res:
        total = sum(e["contrib"] for e in by_doc[r["doc_id"]])
        # contributions round individually; the doc score rounds once
        n_terms = len(by_doc[r["doc_id"]])
        assert abs(total - r["score"]) <= n_terms * 10 ** -SCORE_DECIMALS, r


def test_exclusion_all_modes(modes_idx):
    """Boolean NOT composes with every mode and with facets; engine equals
    the oracle's excluded-set semantics bitwise."""
    from smse_backend_ray.oracle import oracle_conj_search

    oidx = modes_idx
    from smse_backend_ray.oracle import oracle_near_search

    cases = [
        (("hash join",), "or", ("table",)),
        (("sort merge",), "or", ("batch", "window")),
        (("alpha beta",), "and", ("gamma",)),
        (("hash join",), "or", ("hash",)),        # self-exclusion: join-without-hash docs survive
        (("key row",), "or", ("zzznope",)),       # df=0 exclusion no-op
        (("sort merge",), "phrase", ("batch",)),
        (("hash join",), "near", ("table",)),
    ]
    with SearchEngine(POS_IDX) as eng:
        for parts, mode, excl in cases:
            got = eng.search(list(parts), limit=10, mode=mode,
                             exclude=excl).to_pylist()
            if mode == "and":
                exp = oracle_conj_search(oidx, list(parts), limit=10, exclude=excl)
            elif mode == "phrase":
                exp = oracle_phrase_search(oidx, parts[0], limit=10, exclude=excl)
            elif mode == "near":
                from smse_backend_ray.config import NEAR_DEFAULT_SLOP

                exp = oracle_near_search(
                    oidx, list(parts), NEAR_DEFAULT_SLOP, limit=10, exclude=excl
                )
            else:
                exp = oracle_search(oidx, list(parts), limit=10, exclude=excl)
            assert [g["doc_id"] for g in got] == [e["doc_id"] for e in exp], (parts, excl)
            assert [g["exact_score"] for g in got] == [e["score"] for e in exp], (parts, excl)
            # no result doc contains an excluded term
            for g in got:
                toks = set(oidx.tokens[g["doc_id"]])
                for p in excl:
                    from smse_backend_ray.functions.analyzer import tokenize
                    assert not (set(tokenize(p)) & toks), (g, excl)
        # facets respect exclusion too
        spec = QuerySpec(910, ("hash join",), exclude=("table",))
        fac = eng.facet_counts((spec,))
        exp_rows = oracle_search(oidx, ["hash join"], limit=10**9, exclude=("table",))
        exp_counts = _oracle_facets(exp_rows)
        got_counts = {
            (r["facet"], r["value"]): r["n_docs"] for r in fac.to_pylist()
        }
        assert got_counts == exp_counts


def test_prefix_search_expansion_and_cap(modes_idx):
    """Prefix expansion = term-asc vocabulary slice (capped); scoring equals
    an OR oracle search over exactly the expanded terms with qtf=1."""
    oidx = modes_idx
    with SearchEngine(POS_IDX) as eng:
        for prefix, cap in (("s", None), ("ba", None), ("f", 1), ("zzz", None)):
            vocab = sorted(t for t in oidx.postings if t.startswith(prefix))
            if cap is not None:
                vocab = vocab[:cap]
            got = eng.search_prefix(prefix, limit=10, cap=cap).to_pylist()
            if not vocab:
                assert got == []
                continue
            exp = oracle_search(oidx, [" ".join(vocab)], limit=10)
            assert [g["doc_id"] for g in got] == [e["doc_id"] for e in exp], prefix
            assert [g["exact_score"] for g in got] == [e["score"] for e in exp], prefix
        with pytest.raises(ValueError):
            eng.search_prefix("")


def test_batch_path_modes(modes_idx):
    oidx = modes_idx
    specs = (
        QuerySpec(900, ("hash join",), mode="and"),
        QuerySpec(901, ("sort merge",), mode="phrase", limit=4),
        QuerySpec(902, ("alpha beta",)),
    )
    with SearchEngine(POS_IDX) as eng:
        out = eng.search_batch(specs)
    import pyarrow.compute as pc

    sub = lambda q: out.filter(pc.equal(out["query_id"], q)).to_pylist()  # noqa: E731
    exp0 = oracle_conj_search(oidx, ["hash join"], limit=10)
    exp1 = oracle_phrase_search(oidx, "sort merge", limit=4)
    exp2 = oracle_search(oidx, ["alpha beta"], limit=10)
    for qid, exp in ((900, exp0), (901, exp1), (902, exp2)):
        got = sorted(sub(qid), key=lambda r: r["rank"])
        assert [g["doc_id"] for g in got] == [e["doc_id"] for e in exp], qid
        assert [g["exact_score"] for g in got] == [e["score"] for e in exp], qid
