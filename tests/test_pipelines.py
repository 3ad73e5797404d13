"""Tests for the training-data pipelines — focused on the rows-only
operators the driver's SQL gate cannot verify (MinHash-LSH recall, SimHash,
IVF recall) plus spot checks of the oracled ones."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from smse_backend_ray.pipelines import dedup, events, simsearch, textstats


def _pairs(t):
    return set(zip(t["a"].to_pylist(), t["b"].to_pylist()))


def test_minhash_lsh_matches_exact_jaccard(ray_session, sf_dir):
    """On the deterministic driver corpus, 16x4 LSH banding at tau=0.5 finds
    exactly the true Jaccard pairs (verification makes precision exact; this
    asserts recall on this dataset)."""
    exact = dedup.jaccard_pairs(sf_dir)
    lsh = dedup.minhash_lsh_pairs(sf_dir)
    assert _pairs(lsh) == _pairs(exact)
    # verified jaccard values agree too
    je = dict(zip(_pairs(exact), exact["jaccard"].to_pylist()))
    jl = dict(zip(_pairs(lsh), lsh["jaccard"].to_pylist()))
    assert je == jl


def test_shingle_rows_matches_scalar():
    """Vectorized shingle emission == scalar doc_shingles per doc as a SET
    (row order is free — all consumers aggregate)."""
    import pyarrow as pa

    texts = ["the quick brown fox", "a b", "", "x " * 40,
             "naïve café über tokyo one two three", "a b c"]
    ids = [7, 3, 9, 1, 4, 2]
    t = pa.table({"doc_id": pa.array(ids, type=pa.int64()), "text": pa.array(texts)})
    got = dedup._shingle_rows(t)
    gset = set(zip(got["doc_id"].to_pylist(), got["shingle"].to_pylist()))
    want = {(d, s) for d, x in zip(ids, texts) for s in dedup.doc_shingles(x)}
    assert gset == want and got.num_rows == len(want)


def test_minhash_sig_batch_matches_scalar():
    """The batched signature path is bitwise-equal to the frozen scalar
    _minhash_sig, including empty docs interleaved between non-empty ones."""
    lists = [
        ["a b c", "b c d", "c d e"],
        [],
        ["x y z"],
        [],
        ["a b c"],
        ["zzz " * 3, "q w e", "naïve café x"],
    ]
    got = dedup._minhash_sig_batch(lists)
    for i, lst in enumerate(lists):
        want = dedup._minhash_sig(lst)
        if want is None:
            assert (got[i] == np.iinfo(np.uint64).max).all()
        else:
            assert (got[i] == want).all()


def test_simhash_properties():
    a = "the quick brown fox jumps over the lazy dog " * 5
    b = a.replace("lazy", "sleepy")
    c = "completely different content about database indexes and queries"
    ha, hb, hc = dedup.simhash64(a), dedup.simhash64(b), dedup.simhash64(c)
    assert ha == dedup.simhash64(a)  # deterministic
    d_ab = bin(ha ^ hb).count("1")
    d_ac = bin(ha ^ hc).count("1")
    assert d_ab < d_ac
    assert dedup.simhash64("") == 0


def test_simhash_pairs_are_near_dups(ray_session, sf_dir):
    t = dedup.simhash_pairs(sf_dir)
    assert (np.asarray(t["hamming"]) <= 3).all()
    assert t.num_rows > 0  # word-soup corpus has near-dup docs


def test_simhash_batch_matches_scalar():
    texts = [
        "the quick brown fox " * 3,
        "",
        "def foo(barBaz): return qux_quux",
        "你好 世界",
        "a b c d e f g h",
    ]
    assert dedup.simhash_batch(texts).tolist() == [dedup.simhash64(t) for t in texts]


def test_dedup_clusters_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.functions import sqlgen

    t = dedup.dedup_clusters(sf_dir)
    want = duck.sql(
        sqlgen.dedup_clusters_sql(
            dedup.JACCARD_THRESHOLD, dedup.SHINGLE_K, dedup.JACCARD_SHINGLE_DF_CAP
        )
    ).arrow()
    assert t.to_pylist() == want.to_pylist()
    # consistency: both endpoints of every verified pair share a cluster
    pairs = dedup.jaccard_pairs(sf_dir)
    lbl = dict(zip(t["doc_id"].to_pylist(), t["cluster_id"].to_pylist()))
    for x, y in zip(pairs["a"].to_pylist(), pairs["b"].to_pylist()):
        assert lbl[x] == lbl[y]


def test_winnow_dup_clusters_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines import textstats

    t = dedup.winnow_dup_clusters(sf_dir)
    want = duck.sql(
        sqlgen.winnow_dup_clusters_sql(
            textstats.WINNOW_K,
            textstats.WINNOW_W,
            dedup.WINNOW_DUP_FP_DF_CAP,
            dedup.WINNOW_DUP_MIN_SHARED,
        )
    ).arrow()
    assert t.to_pylist() == want.to_pylist()
    # consistency with the pair source: both endpoints of every MOSS pair
    # share a cluster, cluster_id is the component-min doc_id
    pairs = dedup.winnow_dup_pairs(sf_dir)
    lbl = dict(zip(t["doc_id"].to_pylist(), t["cluster_id"].to_pylist()))
    for x, y in zip(pairs["a"].to_pylist(), pairs["b"].to_pylist()):
        assert lbl[x] == lbl[y]
    assert all(cid <= did for did, cid in lbl.items())


def test_cc_chain_converges_in_log_rounds():
    """Pointer jumping bounds connected-components rounds by O(log diameter):
    a 200-link chain (worst case for plain min propagation, which needs 200
    rounds) must close in ~2*log2(200)+slack rounds, converged, with every
    node labeled by the chain head."""
    import pyarrow as pa

    n = 201
    u = list(range(n - 1)) + list(range(1, n))
    v = list(range(1, n)) + list(range(n - 1))
    edges = pa.table(
        {"u": pa.array(u, type=pa.int64()), "v": pa.array(v, type=pa.int64())}
    )
    labels, rounds, converged = dedup._cc_labels(edges, max_iters=64)
    assert converged
    assert rounds <= 20
    assert set(labels["label"].to_pylist()) == {0}
    assert sorted(labels["node"].to_pylist()) == list(range(n))


def test_cc_labels_are_component_minima():
    """Connected components label every node with its component's min id
    on a graph with a chain, a triangle, an isolated pair, and
    non-contiguous node ids."""
    import pyarrow as pa

    pairs = [(10, 20), (20, 30), (30, 40), (100, 200), (200, 300),
             (100, 300), (7, 9000)]
    u = [a for a, b in pairs] + [b for a, b in pairs]
    v = [b for a, b in pairs] + [a for a, b in pairs]
    edges = pa.table(
        {"u": pa.array(u, type=pa.int64()), "v": pa.array(v, type=pa.int64())}
    )
    labels, _, converged = dedup._cc_labels(edges, max_iters=64)
    assert converged
    assert dict(zip(labels["node"].to_pylist(), labels["label"].to_pylist())) == {
        10: 10, 20: 10, 30: 10, 40: 10,
        100: 100, 200: 100, 300: 100, 7: 7, 9000: 7,
    }


def test_embedding_dedup_block_invariant(ray_session, sf_dir):
    """The block-pair sweep's output is independent of block size (and the
    upper-triangle handling of diagonal blocks is exercised at tiny blocks)."""
    a = dedup.embedding_dup_pairs(sf_dir)
    b = dedup.embedding_dup_pairs(sf_dir, block_rows=17)
    assert a.to_pylist() == b.to_pylist()


def test_embedding_dedup_ivf_blocking(ray_session, sf_dir):
    """IVF-bucketed blocking: exact precision (every returned pair really
    clears the threshold) and usable recall vs the exact sweep — asserted
    by the self-validating checked entry (raises on either violation),
    spot-verified here against the exact sweep directly."""
    ivf = dedup.embedding_dup_pairs_ivf_checked(sf_dir)
    exact = dedup.embedding_dup_pairs(sf_dir)
    ep = _pairs(exact)
    ip = _pairs(ivf)
    assert not (ip - ep)  # precision 1.0
    if ep:
        assert len(ep & ip) / len(ep) >= dedup.IVF_DEDUP_RECALL_FLOOR


def test_ivf_full_probe_equals_bruteforce(ray_session, sf_dir):
    bf = simsearch.knn_bruteforce(sf_dir)
    ivf = simsearch.knn_ivf(sf_dir, nprobe=simsearch.IVF_CLUSTERS)
    assert bf.to_pylist() == ivf.to_pylist()


def test_ivf_partial_probe_recall(ray_session, sf_dir):
    bf = simsearch.knn_bruteforce(sf_dir)
    ivf = simsearch.knn_ivf(sf_dir, nprobe=4)
    recalls = []
    for q in set(bf["query_vec_id"].to_pylist()):
        truth = {
            v for qq, v in zip(bf["query_vec_id"].to_pylist(), bf["vec_id"].to_pylist())
            if qq == q
        }
        got = {
            v for qq, v in zip(ivf["query_vec_id"].to_pylist(), ivf["vec_id"].to_pylist())
            if qq == q
        }
        recalls.append(len(truth & got) / len(truth))
    assert np.mean(recalls) >= 0.5  # 4/16 clusters probed


def test_ivf_sampled_training(ray_session, sf_dir, tmp_path):
    """Forcing train_target below the table size activates the hash-sampled
    k-means path: the sample (hence centroids) is deterministic across runs,
    actually differs from full-corpus training, and full-probe search over
    the resulting layout is still exactly brute force (exactness is
    centroid-independent)."""
    full = simsearch.train_centroids(sf_dir)
    c1 = simsearch.train_centroids(sf_dir, train_target=64)
    c2 = simsearch.train_centroids(sf_dir, train_target=64)
    assert np.array_equal(c1, c2)
    assert not np.array_equal(c1, full)
    bf = simsearch.knn_bruteforce(sf_dir)
    ivf = simsearch.knn_ivf(
        sf_dir,
        nprobe=simsearch.IVF_CLUSTERS,
        train_target=64,
        out_dir=str(tmp_path / "ivf_sampled"),
    )
    assert bf.to_pylist() == ivf.to_pylist()


def test_exact_dedup_first_wins(ray_session, sf_dir):
    t = dedup.exact_dedup(sf_dir)
    fps = t["fingerprint"].to_pylist()
    assert len(fps) == len(set(fps))  # one winner per fingerprint


def test_quality_bounds(ray_session, sf_dir):
    t = textstats.quality(sf_dir)
    q = np.asarray(t["quality"])
    assert ((q >= 0) & (q <= 1)).all()


def test_lang_id_paths():
    """All four prediction paths on handcrafted inputs (the driver corpus's
    lang column is a synthetic label unrelated to its word-soup text)."""
    import pyarrow as pa

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array(
                [
                    "你好 世界 再见",                      # no ASCII runs -> zh
                    "the cat and the dog is in that house",  # en markers
                    "el perro es un animal que vive en la casa",  # es markers
                    "zxqv wvut plonk",                      # no marker hits
                ]
            ),
        }
    )
    out = textstats.lang_id_batch(t)
    assert out["pred_lang"].to_pylist() == ["zh", "en", "es", "unknown"]


def _textstats_corpus_strategy():
    """Texts mixing arbitrary unicode with the words the three textstats
    predicates branch on: stopwords, language markers, digits, long runs."""
    from hypothesis import strategies as st

    from smse_backend_ray.config import LANG_MARKERS, STOPWORDS

    pool = sorted(STOPWORDS)[:12] + [w for ws in LANG_MARKERS.values() for w in sorted(ws)[:4]]
    pool += ["42", "x1", "camelCaseWord", "x" * 31, "ab", "北京"]
    word = st.one_of(
        st.sampled_from(pool),
        st.text(
            alphabet=st.characters(min_codepoint=1, max_codepoint=0x2FF),
            max_size=8,
        ),
    )
    text = st.lists(word, max_size=12).map(" ".join)
    return st.lists(text, max_size=8)


@settings(max_examples=80, deadline=None)
@given(texts=_textstats_corpus_strategy())
def test_token_stats_batch_matches_scalar(texts):
    """Vectorized token_stats is bitwise-equal to the frozen per-doc
    reference (counts exact, mean = int-sum/int-count in double)."""
    import pyarrow as pa

    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }
    )
    out = textstats.token_stats_batch(t)
    for i, txt in enumerate(texts):
        ref = textstats._token_stats_one(txt)
        got = (
            out["n_subtokens"][i].as_py(),
            out["n_tokens"][i].as_py(),
            out["n_distinct_terms"][i].as_py(),
            out["mean_subtoken_len"][i].as_py(),
        )
        assert got == ref


@settings(max_examples=80, deadline=None)
@given(texts=_textstats_corpus_strategy())
def test_quality_batch_matches_scalar(texts):
    """Vectorized quality/stop_ratio is bitwise-equal to the frozen per-doc
    reference (same IEEE op order in the 0.3/0.7 blend)."""
    import pyarrow as pa

    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }
    )
    out = textstats.quality_batch(t)
    for i, txt in enumerate(texts):
        n, sr, q = textstats._quality_one(txt)
        assert out["n_subtokens"][i].as_py() == n
        assert out["stop_ratio"][i].as_py() == sr
        assert out["quality"][i].as_py() == q


@settings(max_examples=80, deadline=None)
@given(texts=_textstats_corpus_strategy())
def test_lang_id_batch_matches_scalar(texts):
    """Vectorized lang-ID reproduces the frozen per-doc argmax + tie rule."""
    import pyarrow as pa

    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }
    )
    out = textstats.lang_id_batch(t)
    assert out["pred_lang"].to_pylist() == [
        textstats._lang_id_one(txt) for txt in texts
    ]


def test_winnow_fingerprints_properties():
    from smse_backend_ray.pipelines.textstats import winnow_fingerprints_one

    base = (
        "the quick brown fox jumps over the lazy dog while parsing tokens "
        "and building index segments for search engines every day " * 3
    )
    fp1 = winnow_fingerprints_one(base)
    assert fp1 == winnow_fingerprints_one(base)  # deterministic
    assert len(fp1) > 3
    # local edit preserves most fingerprints (the point of winnowing)
    edited = base.replace("lazy dog", "sleepy cat", 1)
    fp2 = set(winnow_fingerprints_one(edited))
    overlap = len(set(fp1) & fp2) / len(fp1)
    assert overlap > 0.6
    # unrelated text shares ~nothing
    other = "completely unrelated database transaction log replication " * 6
    fp3 = set(winnow_fingerprints_one(other))
    assert len(set(fp1) & fp3) == 0
    assert winnow_fingerprints_one("") == []
    assert winnow_fingerprints_one("one two") == []  # shorter than k


def test_winnow_pipeline(ray_session, sf_dir):
    t = textstats.winnow_fingerprints(sf_dir)
    assert t.num_rows == 500
    assert t.schema.field("fingerprints").type == __import__("pyarrow").list_(
        __import__("pyarrow").int64()
    )


def test_winnow_rows_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.functions.sqlgen import winnow_sql

    t = textstats.winnow_rows(sf_dir)
    want = duck.sql(winnow_sql(textstats.WINNOW_K, textstats.WINNOW_W)).arrow()
    assert t.num_rows == want.num_rows
    assert t.to_pylist() == want.to_pylist()


def test_props_agg_matches_sql(ray_session, sf_dir, duck):
    t = events.props_agg(sf_dir)
    want = duck.sql(events.props_agg_sql()).arrow()
    assert t.to_pylist() == want.to_pylist()


def test_recent_events_matches_sql(ray_session, sf_dir, duck):
    t = events.recent_events(sf_dir)
    want = duck.sql(events.recent_events_sql()).arrow()
    assert t.num_rows == want.num_rows
    assert t.column_names == want.column_names
    assert t.to_pylist() == want.to_pylist()


def test_doc_sample_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.pipelines import sampling

    t = sampling.doc_sample(sf_dir)
    want = duck.sql(sampling.doc_sample_sql()).arrow()
    assert t.to_pylist() == want.to_pylist()
    # roughly pct percent kept
    n_docs = duck.sql("SELECT count(*) FROM documents").fetchone()[0]
    assert 0 < t.num_rows < n_docs


def test_doc_sample_stratified_nests(ray_session, sf_dir, duck):
    from smse_backend_ray.pipelines import sampling

    t = sampling.doc_sample_stratified(sf_dir)
    want = duck.sql(sampling.doc_sample_stratified_sql()).arrow()
    assert t.to_pylist() == want.to_pylist()
    # nesting: every doc kept at rate r is kept at any rate >= r
    lo = set(sampling.doc_sample(sf_dir, pct=10)["doc_id"].to_pylist())
    hi = set(sampling.doc_sample(sf_dir, pct=30)["doc_id"].to_pylist())
    assert lo <= hi


def test_doc_split_assign_semantics_and_twin(ray_session, sf_dir, duck):
    from smse_backend_ray.pipelines import sampling

    t = sampling.doc_split_assign(sf_dir)
    want = duck.sql(sampling.doc_split_assign_sql()).arrow()
    assert t.to_pylist() == want.to_pylist()
    # exhaustive partition: every doc in exactly one split
    n_docs = duck.sql("SELECT count(*) FROM documents").fetchone()[0]
    assert t.num_rows == n_docs
    splits = t["split"].to_pylist()
    assert set(splits) <= {"train", "val", "test"}
    # rough proportions (train dominates by construction)
    assert splits.count("train") > splits.count("val")
    assert splits.count("train") > splits.count("test")
    # nesting with the Bernoulli sample: the same frozen key means any
    # doc_sample(pct <= train_pct) is ENTIRELY inside the train split
    sample = set(sampling.doc_sample(sf_dir, pct=10)["doc_id"].to_pylist())
    train = {
        d for d, s in zip(t["doc_id"].to_pylist(), splits) if s == "train"
    }
    assert sample <= train
    # growth stability: assignment of a doc depends only on its id — the
    # first half of the corpus alone assigns identically
    half = t.slice(0, t.num_rows // 2)
    again = sampling.doc_split_assign(sf_dir).slice(0, t.num_rows // 2)
    assert half.equals(again)


def test_asof_and_range_join_match_bruteforce(ray_session, sf_dir):
    """The distributed shapes (per-user groupby asof; time-bucket exchange
    range join) reproduce a driver-side brute force exactly — including the
    gap == window boundary and the deterministic equal-ts tie-break."""
    import os

    import pyarrow.parquet as pq

    ev = pq.read_table(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "event_type"],
    )
    ts = events._epoch_us(ev["ts"])
    rows = sorted(
        zip(
            ev["event_id"].to_pylist(),
            ts.tolist(),
            ev["user_id"].to_pylist(),
            ev["event_type"].to_pylist(),
        )
    )
    lefts = [(e, t, u) for e, t, u, k in rows if k == events.ASOF_LEFT_TYPE]
    rights = [(e, t, u) for e, t, u, k in rows if k == events.ASOF_RIGHT_TYPE]

    want_asof = []
    for e, t, u in lefts:
        cand = [(rt, re) for re, rt, ru in rights if ru == u and rt <= t]
        if cand:
            rt, re = max(cand)
            want_asof.append((e, u, t, re, rt, t - rt))
    got = events.asof_join(sf_dir)
    assert list(zip(*[got[c].to_pylist() for c in got.column_names])) == sorted(
        want_asof
    )

    w_us = events.RANGE_JOIN_WINDOW_S * 1_000_000
    want_range = sorted(
        (e, re, t - rt)
        for e, t, _u in lefts
        for re, rt, _ru in rights
        if 0 <= t - rt <= w_us
    )
    got = events.range_join(sf_dir)
    assert list(zip(*[got[c].to_pylist() for c in got.column_names])) == want_range


def test_repetition_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.functions import sqlgen

    t = textstats.repetition(sf_dir)
    want = duck.sql(sqlgen.repetition_sql(textstats.REP_GRAM_K)).arrow()
    assert t.to_pylist() == want.to_pylist()
    # the signal is live on this corpus: word-soup docs repeat bigrams
    assert max(t["dup_frac"].to_pylist()) > 0


def test_decontaminate_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.queryset import ALL_QUERIES

    t = textstats.decontaminate(sf_dir)
    want = duck.sql(
        sqlgen.decontaminate_sql(
            [p for q in ALL_QUERIES for p in q.parts], textstats.REP_GRAM_K
        )
    ).arrow()
    assert t.to_pylist() == want.to_pylist()
    assert t.num_rows > 0 and min(t["n_hits"].to_pylist()) >= 1


def test_relational_rollups_match_sql(ray_session, sf_dir, duck):
    """Hash-join and broadcast-join rollups are exact (scaled-int sums —
    no float accumulation order anywhere)."""
    from smse_backend_ray.pipelines import relational

    t = relational.revenue_by_month(sf_dir)
    want = duck.sql(relational.revenue_by_month_sql()).arrow()
    assert t.to_pylist() == want.to_pylist()
    t = relational.nation_revenue(sf_dir)
    want = duck.sql(relational.nation_revenue_sql()).arrow()
    assert t.to_pylist() == want.to_pylist()


def test_grouped_topk_partition_invariant(ray_session):
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from smse_backend_ray.functions.collect import collect_table
    from smse_backend_ray.pipelines.grouped_topk import grouped_topk

    n = 100
    t = pa.table(
        {
            "repo": pa.array([f"r{i % 5}" for i in range(n)]),
            "doc_id": pa.array(list(range(n)), type=pa.int64()),
            "n_bytes": pa.array([(i * 37) % 101 for i in range(n)], type=pa.int64()),
        }
    )

    def run(n_parts):
        out = collect_table(
            grouped_topk(ray.data.from_arrow(t).repartition(n_parts), "repo", "n_bytes", 3)
        ).select(["repo", "rank", "doc_id", "n_bytes"])
        return out.take(
            pc.sort_indices(out, sort_keys=[("repo", "ascending"), ("rank", "ascending")])
        )

    a, b = run(1), run(7)
    assert a.to_pylist() == b.to_pylist()
    # python reference
    rows = sorted(t.to_pylist(), key=lambda r: (r["repo"], -r["n_bytes"], r["doc_id"]))
    want = []
    seen: dict[str, int] = {}
    for r in rows:
        c = seen.get(r["repo"], 0)
        if c < 3:
            want.append({**r, "rank": c + 1})
            seen[r["repo"]] = c + 1
    want = [
        {"repo": w["repo"], "rank": w["rank"], "doc_id": w["doc_id"], "n_bytes": w["n_bytes"]}
        for w in want
    ]
    assert a.to_pylist() == want


def test_sessions_vs_events_totals(ray_session, sf_dir, duck):
    t = events.user_sessions(sf_dir)
    total_events = duck.sql("SELECT count(*) FROM events").fetchone()[0]
    assert sum(t["n_events"].to_pylist()) == total_events
    assert (np.asarray(t["n_sessions"]) >= 1).all()


def test_validate_batch_flags():
    import pyarrow as pa

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "path": pa.array(["src/ok.py", "../evil.py", "sp ace.py", "ok/d.txt"]),
            "commit": pa.array(["a" * 32, "a" * 32, "xyz", "0" * 32]),
            "lang": pa.array(["py", "PY!", "toolonglang", "go"]),
            "n_bytes": pa.array([10, 5, 0, 0], type=pa.int64()),
        }
    )
    out = textstats.validate_batch(t).to_pylist()
    assert [r["valid_path"] for r in out] == [True, False, False, True]
    assert [r["valid_commit"] for r in out] == [True, True, False, True]
    assert [r["valid_lang"] for r in out] == [True, False, False, True]
    assert [r["non_empty"] for r in out] == [True, True, False, False]


def test_ivf_layout_resume(ray_session, sf_dir, tmp_path, monkeypatch):
    """A pre-existing layout dir + centroids sidecar is resumed without
    retraining (cross-process cache-miss path)."""
    out = str(tmp_path / "ivf_layout")
    l1, c1 = simsearch.build_ivf_index(sf_dir, out_dir=out)
    simsearch._IVF_CACHE.clear()  # simulate a fresh process
    monkeypatch.setattr(
        simsearch, "train_centroids",
        lambda *a, **k: (_ for _ in ()).throw(AssertionError("retrained")),
    )
    l2, c2 = simsearch.build_ivf_index(sf_dir, out_dir=out)
    assert np.array_equal(c1, c2)


def test_hourly_agg_matches_sql(ray_session, sf_dir, duck):
    t = events.hourly_window_agg(sf_dir)
    want = duck.sql(events.hourly_window_agg_sql()).arrow()
    assert t.num_rows == want.num_rows
    assert t.to_pylist() == want.to_pylist()


def test_scaled_round_matches_duckdb_on_boundaries():
    """The hourly-agg lockstep pair (CLAUDE.md): engine's
    floor(|v|*1e4+0.5)::int64 must equal DuckDB's
    CAST(round(value*10000, 0) AS BIGINT) bit-for-bit, including .00005
    ties, negative ties, and values just under a representable half."""
    import duckdb
    import numpy as np

    rng = np.random.default_rng(7)
    vals = np.concatenate(
        [
            rng.uniform(-1000, 1000, 500),
            np.round(rng.uniform(-10, 10, 200), 4) + 0.00005,  # exact ties
            -(np.round(rng.uniform(0, 10, 100), 4) + 0.00005),
            np.array([0.0, -0.0, 0.49999999999999994, -0.49999999999999994]),
        ]
    )
    con = duckdb.connect()
    con.register("v_tbl", __import__("pyarrow").table({"v": vals}))
    sql = con.sql(
        "SELECT CAST(round(v * 10000, 0) AS BIGINT) FROM v_tbl"
    ).fetchnumpy()
    got_sql = next(iter(sql.values()))
    eng = (np.sign(vals) * np.floor(np.abs(vals) * 10000.0 + 0.5)).astype(np.int64)
    assert (got_sql == eng).all()


def test_hourly_agg_null_values(ray_session, tmp_path):
    """Null `value` rows must contribute 0 to the scaled-int sum (SQL SUM
    skips NULLs) instead of NaN->int64 platform garbage (ADVICE r2)."""
    import datetime as dt

    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    h0 = dt.datetime(2026, 1, 1, 10, 15)
    rows = [
        (1, h0, 7, "click", 1.5),
        (2, h0, 7, "click", None),
        (3, h0, 8, "click", 2.25),
        (4, h0, 8, "view", None),
        (5, h0, 9, "view", 3.0),
    ]
    t = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "user_id": pa.array([r[2] for r in rows], pa.int64()),
            "event_type": pa.array([r[3] for r in rows], pa.string()),
            "value": pa.array([r[4] for r in rows], pa.float64()),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    got = events.hourly_window_agg(str(tmp_path))
    con = duckdb.connect()
    con.sql(
        "CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{tmp_path}/events.parquet')"
    )
    want = con.sql(events.hourly_window_agg_sql()).arrow()
    con.close()
    assert got.to_pylist() == want.cast(got.schema).to_pylist()


def test_drop_hot_stage_paths_agree(ray_session, monkeypatch):
    """The broadcast (pc.is_in) and distributed anti-join shapes of the
    hot-shingle filter are interchangeable: same surviving rows."""
    import pyarrow as pa
    import ray.data

    rows = pa.table(
        {
            "doc_id": pa.array([1, 1, 2, 2, 3, 3, 4], type=pa.int64()),
            "shingle": pa.array(["hot a", "cold b", "hot a", "cold c",
                                 "hot d", "cold b", "cold e"]),
        }
    )
    hot = pa.table({"shingle": pa.array(["hot a", "hot d", "absent f"])})
    ds = ray.data.from_arrow(rows).repartition(3)
    hot_ds = ray.data.from_arrow(hot)

    def run():
        t = dedup.collect_table(
            dedup._drop_hot_stage(ds, (hot_ds, hot.num_rows)),
            empty_schema=rows.schema,
        )
        return sorted(zip(t["doc_id"].to_pylist(), t["shingle"].to_pylist()))

    want = [(1, "cold b"), (2, "cold c"), (3, "cold b"), (4, "cold e")]
    assert run() == want  # broadcast path (3 <= cap)
    monkeypatch.setattr(dedup, "HOT_SHINGLE_BROADCAST_MAX", 0)
    assert run() == want  # anti-join path
    # empty hot set is a no-op stage
    assert dedup._drop_hot_stage(ds, (hot_ds, 0)) is ds


def test_hot_shingle_cache_keeps_one_entry(ray_session, sf_dir, tmp_path):
    """Each cached hot-shingle set pins materialized Datasets: walking two
    sf dirs keeps only the latest, and a repeat call on it is a cache hit."""
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{sf_dir}/documents.parquet")
    dirs = []
    for i, n in enumerate((200, 120)):
        d = tmp_path / f"sf{i}"
        d.mkdir()
        pq.write_table(docs.slice(0, n), d / "documents.parquet")
        dirs.append(str(d))
    dedup._MEMO.pop("hot", None)
    first = dedup._global_hot_shingles(dirs[0], 2, "test")
    assert dedup._global_hot_shingles(dirs[0], 2, "test") is first
    second = dedup._global_hot_shingles(dirs[1], 2, "test")
    key, _ = dedup._MEMO["hot"]  # the slot holds one entry: the latest
    assert key == (dedup._docs_stamp(dirs[1]), 2)
    assert dedup._global_hot_shingles(dirs[1], 2, "test") is second
    assert first[1] > second[1] > 0  # the hot sets differ


def test_anti_join_keeps_left_on_empty_right(ray_session):
    """Bucketed left-anti join: buckets with no right rows keep every left
    row (the _bucketed_join empty-side short-circuit must not drop them),
    and a fully-empty right returns left unchanged."""
    import pyarrow as pa
    import ray.data

    from smse_backend_ray.functions import joins

    schema = pa.schema([("doc_id", pa.int64()), ("shingle", pa.string())])
    left = pa.table(
        {
            "doc_id": pa.array(list(range(20)), type=pa.int64()),
            "shingle": pa.array([f"s{i}" for i in range(20)]),
        }
    )
    right = pa.table({"shingle": pa.array(["s3", "s7", "nope"])})

    got = dedup.collect_table(
        joins.anti_join(
            ray.data.from_arrow(left).repartition(4),
            ray.data.from_arrow(right),
            ["shingle"], schema, nb=8,
        ),
        empty_schema=schema,
    )
    assert sorted(got["doc_id"].to_pylist()) == [
        i for i in range(20) if i not in (3, 7)
    ]

    got2 = dedup.collect_table(
        joins.anti_join(
            ray.data.from_arrow(left).repartition(4),
            ray.data.from_arrow(right.slice(0, 0)),
            ["shingle"], schema, nb=8,
        ),
        empty_schema=schema,
    )
    assert sorted(got2["doc_id"].to_pylist()) == list(range(20))


def test_hash_strings_vectorized():
    """hash_strings is deterministic within a run, seed-sensitive, and
    chunk-layout-independent (ChunkedArray vs flat Array)."""
    import pyarrow as pa

    from smse_backend_ray.functions.joins import hash_strings

    vals = ["a", "b", "a", "", "longer shingle text here"]
    flat = hash_strings(pa.array(vals))
    chunked = hash_strings(pa.chunked_array([vals[:2], vals[2:]]))
    assert flat.tolist() == chunked.tolist()
    assert flat[0] == flat[2] and flat[0] != flat[1]
    assert hash_strings(pa.array(vals), seed=1).tolist() != flat.tolist()


def test_range_join_bucket_pair_cap(ray_session, tmp_path, caplog):
    """A pathological all-overlapping time bucket whose pair expansion
    exceeds the cap is re-exchanged through the tiled second pass: output
    stays EXACT (equal to the uncapped run) while every reduce group stays
    under ~pair_cap pairs, and the tiling is logged. Default cap never
    trips on this fixture."""
    import logging

    import pyarrow as pa
    import pyarrow.parquet as pq

    w_us = events.RANGE_JOIN_WINDOW_S * 1_000_000
    base = 1_700_000_000_000_000  # µs; aligned far from bucket edges
    base -= base % w_us
    ts, etype, eid = [], [], []
    # bucket A: 20 errors + 20 clicks interleaved inside one window
    for i in range(20):
        ts += [base + 1000 * (2 * i), base + 1000 * (2 * i + 1)]
        etype += ["click", "error"]
        eid += [2 * i, 2 * i + 1]
    # bucket B (far away): one click then one error 1 s later -> 1 pair
    far = base + 1000 * w_us
    ts += [far, far + 1_000_000]
    etype += ["click", "error"]
    eid += [1000, 1001]
    tbl = pa.table(
        {
            "event_id": pa.array(eid, type=pa.int64()),
            "ts": pa.array(ts, type=pa.timestamp("us")),
            "user_id": pa.array([7] * len(eid), type=pa.int64()),
            "event_type": pa.array(etype),
            "value": pa.array([1.0] * len(eid)),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")

    full = events.range_join(str(tmp_path))
    # bucket A: error 2i+1 matches clicks 0..2i -> sum(i+1 for i in 0..19)
    assert full.num_rows == sum(i + 1 for i in range(20)) + 1
    with caplog.at_level(logging.WARNING, logger="smse_backend_ray.pipelines.events"):
        capped = events.range_join(str(tmp_path), pair_cap=10)
    # the oversized bucket went through the tiled pass: output is complete
    assert capped.to_pylist() == full.to_pylist()
    assert any("tiling 1 oversized time buckets" in r.message for r in caplog.records)


def test_range_join_tiled_identical_ts(ray_session, tmp_path):
    """Degenerate fat bucket: EVERY event shares one timestamp, so no
    time-grain split could ever help — the tiled pass must still produce
    the complete n_left x n_right cross product with bounded per-tile
    expansion (this is the case a recursive bucket split cannot handle)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    w_us = events.RANGE_JOIN_WINDOW_S * 1_000_000
    base = 1_600_000_000_000_000
    base -= base % w_us
    n = 12
    eid = list(range(2 * n))
    etype = ["click", "error"] * n
    tbl = pa.table(
        {
            "event_id": pa.array(eid, type=pa.int64()),
            "ts": pa.array([base] * (2 * n), type=pa.timestamp("us")),
            "user_id": pa.array([1] * (2 * n), type=pa.int64()),
            "event_type": pa.array(etype),
            "value": pa.array([1.0] * (2 * n)),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = events.range_join(str(tmp_path), pair_cap=9)  # tiles of 3x3
    want = sorted(
        (le, re, 0)
        for le, lt in zip(eid, etype)
        if lt == events.ASOF_LEFT_TYPE
        for re, rt in zip(eid, etype)
        if rt == events.ASOF_RIGHT_TYPE
    )
    assert list(zip(*[got[c].to_pylist() for c in got.column_names])) == want


def test_range_join_tiled_randomized(ray_session, tmp_path):
    """Randomized cap-vs-uncapped equivalence: clustered event times create
    several fat buckets separated by sparse stretches (so the fat pass's
    coarse ts-window read bound spans non-fat buckets that only_fat must
    drop), plus events far outside the bound that the pruned rescan never
    reads. The tiled output must equal the uncapped output exactly."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(20260819)
    w_us = events.RANGE_JOIN_WINDOW_S * 1_000_000
    base = 1_600_000_000_000_000
    base -= base % w_us
    ts = []
    # three dense clusters (fat buckets) with sparse buckets between them
    for cluster_bucket in (0, 3, 7):
        ts.extend(base + cluster_bucket * w_us + rng.integers(0, w_us, 40))
    ts.extend(base + rng.integers(0, 10 * w_us, 30))          # sparse filler
    ts.extend(base + 1000 * w_us + rng.integers(0, w_us, 6))  # far outliers
    ts = np.array(sorted(int(x) for x in ts), dtype=np.int64)
    n = len(ts)
    etype = rng.choice(
        [events.ASOF_LEFT_TYPE, events.ASOF_RIGHT_TYPE, "view"], size=n
    )
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(n), type=pa.int64()),
            "ts": pa.array(ts, type=pa.timestamp("us")),
            "user_id": pa.array(rng.integers(1, 5, n), type=pa.int64()),
            "event_type": pa.array(etype.tolist()),
            "value": pa.array(rng.random(n)),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    full = events.range_join(str(tmp_path), pair_cap=10**9)
    assert full.num_rows > 100  # the fixture genuinely produces fat buckets
    capped = events.range_join(str(tmp_path), pair_cap=50)
    assert capped.to_pylist() == full.to_pylist()


def test_substring_dup_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.functions import sqlgen

    t = dedup.substring_dup_stats(sf_dir)
    want = duck.sql(
        sqlgen.substring_dup_sql(dedup.SUBSTR_DUP_K, dedup.SUBSTR_DUP_MIN_DF)
    ).arrow()
    assert t.to_pylist() == want.to_pylist()
    # invariants: every doc appears once; n_dup <= n_grams; frac in [0, 1]
    assert t.num_rows == len(set(t["doc_id"].to_pylist()))
    nd, ng = np.asarray(t["n_dup"]), np.asarray(t["n_grams"])
    assert (nd <= ng).all()
    f = np.asarray(t["dup_frac"])
    assert ((f >= 0) & (f <= 1)).all()
    assert nd.sum() > 0  # word-soup corpus genuinely shares 6-grams


def test_dedup_survivors_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.functions import sqlgen

    surv = dedup.dedup_survivors(sf_dir)
    want = duck.sql(
        sqlgen.dedup_survivors_sql(
            dedup.JACCARD_THRESHOLD, dedup.SHINGLE_K, dedup.JACCARD_SHINGLE_DF_CAP
        )
    ).arrow()
    assert surv.to_pylist() == want.to_pylist()
    # survivors = all docs minus cluster non-representatives; reps survive
    cl = dedup.dedup_clusters(sf_dir)
    losers = {
        d for d, c in zip(cl["doc_id"].to_pylist(), cl["cluster_id"].to_pylist())
        if d != c
    }
    reps = set(cl["cluster_id"].to_pylist())
    s = set(surv["doc_id"].to_pylist())
    assert s.isdisjoint(losers)
    assert reps <= s
    import pyarrow.parquet as pq

    all_ids = set(
        pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])["doc_id"].to_pylist()
    )
    assert s | losers == all_ids


def test_pack_bins_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.pipelines import packing

    t = packing.pack_bins(sf_dir)
    want = duck.sql(packing.pack_bins_sql()).arrow()
    assert t.to_pylist() == want.to_pylist()
    # scan invariant: offsets are the exclusive prefix sum in doc_id order
    nt = np.asarray(t["n_tokens"])
    off = np.asarray(t["start_offset"])
    assert off[0] == 0
    assert (off[1:] == off[:-1] + nt[:-1]).all()
    assert (np.asarray(t["bin"]) == off // packing.PACK_WINDOW).all()


def test_pack_bins_partition_invariant(ray_session, sf_dir):
    """The two-level scan's output is independent of the range count R."""
    from smse_backend_ray.pipelines import packing

    a = packing.pack_bins(sf_dir, n_ranges=3)
    b = packing.pack_bins(sf_dir, n_ranges=17)
    assert a.to_pylist() == b.to_pylist()


def test_attach_left_semantics(ray_session):
    """attach_left: every left row survives; payload null where unmatched;
    empty right side keeps all left rows."""
    import pyarrow as pa
    import ray.data

    from smse_backend_ray.functions.joins import attach_left

    lschema = pa.schema([("k", pa.int64()), ("x", pa.string())])
    pschema = pa.schema([("v", pa.int64())])
    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, 3, 4], type=pa.int64()),
                  "x": pa.array(list("abcd"))})
    )
    right = ray.data.from_arrow(
        pa.table({"kk": pa.array([2, 4], type=pa.int64()),
                  "v": pa.array([20, 40], type=pa.int64())})
    )
    from smse_backend_ray.functions.collect import collect_table

    out = collect_table(attach_left(left, right, "k", "kk", lschema, pschema, nb=4))
    rows = {r["k"]: (r["x"], r["v"]) for r in out.to_pylist()}
    assert rows == {1: ("a", None), 2: ("b", 20), 3: ("c", None), 4: ("d", 40)}

    empty_right = ray.data.from_arrow(
        pa.table({"kk": pa.array([], type=pa.int64()),
                  "v": pa.array([], type=pa.int64())})
    )
    out2 = collect_table(
        attach_left(left, empty_right, "k", "kk", lschema, pschema, nb=4)
    )
    assert sorted(r["k"] for r in out2.to_pylist()) == [1, 2, 3, 4]
    assert all(r["v"] is None for r in out2.to_pylist())


def test_unigram_logprob_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.functions import sqlgen

    t = textstats.unigram_logprob(sf_dir)
    want = duck.sql(sqlgen.unigram_logprob_sql()).arrow()
    assert t.to_pylist() == want.to_pylist()
    # LM sanity: probs < 1 so every non-empty doc has negative avg log-prob
    lp = np.asarray(t["avg_logprob"])
    dl = np.asarray(t["dl"])
    assert (lp[dl > 0] < 0).all()
    assert (lp[dl == 0] == 0.0).all()


def test_unigram_logprob_broadcast_matches_distributed(
    ray_session, sf_dir, monkeypatch
):
    """The LM-broadcast fast path (vocab <= LM_BROADCAST_MAX: map-side
    index_in attach + per-doc sentinel rows) must be BITWISE equal to the
    fully distributed term-attach + dl=0 attach_left fallback."""
    from smse_backend_ray import config

    fast = textstats.unigram_logprob(sf_dir)
    monkeypatch.setattr(config, "LM_BROADCAST_MAX", 0)
    slow = textstats.unigram_logprob(sf_dir)
    assert fast.equals(slow)


def test_substring_dup_all_short_docs(ray_session, tmp_path):
    """A corpus where every doc has fewer than K subtokens: zero gram rows
    anywhere, the shared-gram set is empty, and every doc still emits the
    (0, 0, 0.0) row through the left-outer attach."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "doc_id": pa.array([5, 2, 9], type=pa.int64()),
            "text": pa.array(["one two", "", "a b c"]),
            "lang": pa.array(["en"] * 3),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = dedup.substring_dup_stats(str(tmp_path))
    assert out.to_pylist() == [
        {"doc_id": 2, "n_grams": 0, "n_dup": 0, "dup_frac": 0.0},
        {"doc_id": 5, "n_grams": 0, "n_dup": 0, "dup_frac": 0.0},
        {"doc_id": 9, "n_grams": 0, "n_dup": 0, "dup_frac": 0.0},
    ]


def test_doc_chunks_overlap_and_coverage(ray_session, tmp_path):
    """Passage chunking: multi-chunk docs overlap by CHUNK_W-CHUNK_S kept
    tokens, every token is covered, reconstruction matches tokenize, and
    the engine agrees with the DuckDB twin on a long-doc corpus."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from smse_backend_ray.functions.analyzer import tokenize
    from smse_backend_ray.functions.sqlgen import doc_chunks_sql
    from smse_backend_ray.pipelines.textstats import CHUNK_S, CHUNK_W, doc_chunks

    words = ["alpha", "beta", "gamma", "delta", "hash", "join", "sort", "merge"]
    rows = [
        {"doc_id": 1, "text": " ".join(words[i % 8] for i in range(150)),
         "lang": "en", "source": "s0", "n_chars": 0},
        {"doc_id": 2, "text": "short doc only few tokens", "lang": "en",
         "source": "s0", "n_chars": 0},
        {"doc_id": 3, "text": "", "lang": "en", "source": "s0", "n_chars": 0},
        {"doc_id": 4, "text": " ".join(words[(i * 3) % 8] for i in range(64)),
         "lang": "en", "source": "s0", "n_chars": 0},   # exactly one window
        {"doc_id": 5, "text": " ".join(words[(i * 5) % 8] for i in range(65)),
         "lang": "en", "source": "s0", "n_chars": 0},   # one past the window
    ]
    sf = str(tmp_path)
    pq.write_table(pa.Table.from_pylist(rows), f"{sf}/documents.parquet")
    got = doc_chunks(sf)
    by_doc = {}
    for r in got.to_pylist():
        by_doc.setdefault(r["doc_id"], []).append(r)
    assert 3 not in by_doc  # empty doc -> no chunks
    assert len(by_doc[2]) == 1 and len(by_doc[4]) == 1
    assert len(by_doc[5]) == 2  # dl=65 > W -> starts 0 and 48
    assert len(by_doc[1]) == 1 + (max(150 - CHUNK_W, 0) + CHUNK_S - 1) // CHUNK_S
    for did, chs in by_doc.items():
        toks = tokenize(rows[did - 1]["text"])
        covered = set()
        for c in sorted(chs, key=lambda r: r["chunk_id"]):
            start = c["start_p"]
            win = toks[start : start + CHUNK_W]
            assert c["chunk_text"] == " ".join(win)
            assert c["n_tokens"] == len(win)
            covered.update(range(start, start + len(win)))
        assert covered == set(range(len(toks)))  # full coverage
        starts = [c["start_p"] for c in sorted(chs, key=lambda r: r["chunk_id"])]
        last_i = (max(len(toks) - CHUNK_W, 0) + CHUNK_S - 1) // CHUNK_S
        assert starts == [i * CHUNK_S for i in range(last_i + 1)]
    # DuckDB twin agrees on the same corpus
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')")
    orc = con.sql(doc_chunks_sql(CHUNK_W, CHUNK_S)).df()
    mine = got.to_pandas()
    assert len(orc) == len(mine)
    for col in ("doc_id", "chunk_id", "start_p", "n_tokens", "chunk_text"):
        assert list(orc[col]) == list(mine[col]), col


def test_term_cooc_pmi_semantics_and_twin(ray_session, tmp_path, monkeypatch):
    """PMI collocations: eligibility df floor, per-doc lexicographic term
    cap, min co-doc count, and the round4(ln) formula — engine vs an
    in-test brute-force reference vs the DuckDB twin, with constants
    monkeypatched so every rule visibly binds on a tiny corpus."""
    import math

    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import smse_backend_ray.config as config
    from smse_backend_ray.functions.analyzer import tokenize
    from smse_backend_ray.functions.sqlgen import cooc_pmi_sql
    from smse_backend_ray.functions.rounding import round_half_away
    from smse_backend_ray.pipelines.textstats import term_cooc_pmi

    monkeypatch.setattr(config, "COOC_MIN_DF", 2)
    monkeypatch.setattr(config, "COOC_DOC_TERM_CAP", 3)  # binds below
    monkeypatch.setattr(config, "COOC_MIN_PAIRS", 2)

    texts = [
        "alpha beta gamma delta",          # 4 eligible terms -> cap drops delta's pairs
        "alpha beta gamma",
        "alpha beta",
        "gamma delta",
        "delta zulu",                       # zulu df=1 -> ineligible
        "",                                 # empty doc
    ]
    rows = [
        {"doc_id": i + 1, "text": t, "lang": "en", "source": "s0", "n_chars": 0}
        for i, t in enumerate(texts)
    ]
    sf = str(tmp_path)
    pq.write_table(pa.Table.from_pylist(rows), f"{sf}/documents.parquet")

    got = term_cooc_pmi(sf)

    # brute-force reference with the same frozen rules
    n_docs = len(rows)
    doc_terms = [sorted(set(tokenize(t))) for t in texts]
    df = {}
    for ts in doc_terms:
        for t in ts:
            df[t] = df.get(t, 0) + 1
    pairs: dict[tuple, int] = {}
    for ts in doc_terms:
        elig = [t for t in ts if df[t] >= 2][:3]  # MIN_DF, then the cap
        for i in range(len(elig)):
            for j in range(i + 1, len(elig)):
                pairs[(elig[i], elig[j])] = pairs.get((elig[i], elig[j]), 0) + 1
    want = sorted(
        (a, b, n, df[a], df[b],
         float(round_half_away(np.array([math.log((n_docs * n) / (df[a] * df[b]))]), 4)[0]))
        for (a, b), n in pairs.items() if n >= 2
    )
    got_rows = [
        (r["a"], r["b"], r["n_ab"], r["df_a"], r["df_b"], r["pmi"])
        for r in got.to_pylist()
    ]
    assert got_rows == want
    # cap=3 on doc 1's eligible [alpha, beta, delta, gamma] drops gamma, so
    # (delta, gamma) co-occurs only in doc 4 and dies at MIN_PAIRS=2 —
    # the only survivor is (alpha, beta)
    assert {(a, b) for a, b, *_ in got_rows} == {("alpha", "beta")}

    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')")

    def twin_matches(engine_t):
        orc = con.sql(cooc_pmi_sql()).fetch_arrow_table()
        assert orc.num_rows == engine_t.num_rows
        for col in ("a", "b", "n_ab", "df_a", "df_b", "pmi"):
            assert orc[col].to_pylist() == engine_t[col].to_pylist(), col

    twin_matches(got)  # twin under the tight cap

    # with the cap loosened, (delta, gamma) reaches 2 co-docs and appears;
    # the twin (which reads the same config constants) still agrees
    monkeypatch.setattr(config, "COOC_DOC_TERM_CAP", 100)
    loose = term_cooc_pmi(sf)
    assert ("delta", "gamma") in {(r["a"], r["b"]) for r in loose.to_pylist()}
    twin_matches(loose)


def test_doc_keywords_semantics_and_twin(ray_session, tmp_path, monkeypatch):
    """tf-idf keywords: tf/df accounting, the round4 formula, the ROUNDED
    tfidf DESC + term ASC rank order, and the top-K cap — engine vs an
    in-test brute-force reference vs the DuckDB twin, with K monkeypatched
    so the cap visibly binds."""
    import math
    from collections import Counter

    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import smse_backend_ray.config as config
    from smse_backend_ray.functions.analyzer import tokenize
    from smse_backend_ray.functions.rounding import round_half_away
    from smse_backend_ray.functions.sqlgen import keywords_sql
    from smse_backend_ray.pipelines.textstats import doc_keywords

    monkeypatch.setattr(config, "KEYWORDS_TOP_K", 2)  # binds below

    texts = [
        "alpha beta beta gamma gamma gamma",  # 3 candidates -> K=2 drops one
        "alpha beta",                          # equal tf, equal df -> term tie
        "gamma delta delta",
        "",                                    # empty doc -> no rows
    ]
    rows = [
        {"doc_id": i + 1, "text": t, "lang": "en", "source": "s0", "n_chars": 0}
        for i, t in enumerate(texts)
    ]
    sf = str(tmp_path)
    pq.write_table(pa.Table.from_pylist(rows), f"{sf}/documents.parquet")

    got = doc_keywords(sf)

    # brute-force reference with the same frozen rules
    n_docs = len(rows)
    toks = [tokenize(t) for t in texts]
    df = Counter()
    for ts in toks:
        df.update(set(ts))
    want = []
    for i, ts in enumerate(toks):
        tf = Counter(ts)
        scored = sorted(
            (
                (-float(round_half_away(
                    np.array([c * math.log(n_docs / df[t])]), 4)[0]), t, c)
                for t, c in tf.items()
            )
        )[:2]
        for r, (neg, t, c) in enumerate(scored, start=1):
            want.append((i + 1, r, t, c, df[t], -neg))
    got_rows = [
        (r["doc_id"], r["rank"], r["term"], r["tf"], r["df"], r["tfidf"])
        for r in got.to_pylist()
    ]
    assert got_rows == want
    # doc 2: alpha and beta tie exactly (tf=1, df=2 both) -> term ASC ranks
    d2 = [(r, t) for (d, r, t, *_rest) in got_rows if d == 2]
    assert d2 == [(1, "alpha"), (2, "beta")]
    # doc 1 had 3 candidate terms; K=2 cap binds
    assert sum(1 for d, *_ in got_rows if d == 1) == 2
    assert all(d != 4 for d, *_ in got_rows)  # empty doc yields no rows

    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    orc = con.sql(keywords_sql()).fetch_arrow_table()
    assert orc.num_rows == got.num_rows
    for col in ("doc_id", "rank", "term", "tf", "df", "tfidf"):
        assert orc[col].to_pylist() == got[col].to_pylist(), col


def test_event_funnel_semantics_and_twin(ray_session, tmp_path):
    """Funnel rules that the sf corpora don't exercise (every synthetic user
    completes all steps): greedy first-match, STRICT ts > previous step,
    out-of-order events not counting, partial funnels, and the NULL
    conv_rate when step 1 is empty — engine vs hand-computed truth vs the
    DuckDB twin."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from smse_backend_ray.pipelines.events import event_funnel, event_funnel_sql

    # (user, ts_us, type) — hand-built so each rule binds:
    #  u1: click AT signup ts (strict > drops it), later click counts;
    #      purchase BEFORE that click is dropped, later purchase counts
    #  u2: click only BEFORE signup -> stops at step 1
    #  u3: purchase before its click -> stops at step 2
    #  u4: never signs up -> reaches nothing
    #  u5: clean completion
    evs = [
        (1, 100, "signup"), (1, 100, "click"), (1, 150, "click"),
        (1, 140, "purchase"), (1, 200, "purchase"),
        (2, 50, "click"), (2, 60, "signup"),
        (3, 10, "signup"), (3, 20, "click"), (3, 15, "purchase"),
        (4, 1, "click"), (4, 2, "purchase"),
        (5, 5, "signup"), (5, 6, "click"), (5, 7, "purchase"),
    ]
    t = pa.table(
        {
            "event_id": pa.array(range(len(evs)), type=pa.int64()),
            "ts": pa.array([e[1] for e in evs], type=pa.timestamp("us")),
            "user_id": pa.array([e[0] for e in evs], type=pa.int64()),
            "event_type": pa.array([e[2] for e in evs], type=pa.string()),
            "value": pa.array([1.0] * len(evs), type=pa.float64()),
        }
    )
    sf = str(tmp_path)
    pq.write_table(t, f"{sf}/events.parquet")

    got = event_funnel(sf)
    assert got.to_pydict() == {
        "step": [1, 2, 3],
        "event_type": ["signup", "click", "purchase"],
        "n_users": [4, 3, 2],
        "conv_rate": [1.0, 0.75, 0.5],
    }

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')")
    orc = con.sql(event_funnel_sql()).fetch_arrow_table()
    assert orc.to_pydict() == got.to_pydict()

    # empty step 1 -> zero counts, NULL conv_rate; twin agrees
    steps = ("refund", "purchase")
    got2 = event_funnel(sf, steps=steps)
    assert got2["n_users"].to_pylist() == [0, 0]
    assert got2["conv_rate"].to_pylist() == [None, None]
    orc2 = con.sql(event_funnel_sql(steps=steps)).fetch_arrow_table()
    assert orc2.to_pydict() == got2.to_pydict()

    # longer custom funnel with a repeated type is rejected nowhere — each
    # step matches independently by equality (view -> click -> purchase)
    steps3 = ("view", "signup", "click", "purchase")
    got3 = event_funnel(sf, steps=steps3)
    orc3 = con.sql(event_funnel_sql(steps=steps3)).fetch_arrow_table()
    assert orc3.to_pydict() == got3.to_pydict()
    assert got3["n_users"].to_pylist()[0] == 0  # no view events at all


def test_doc_length_quantiles_semantics_and_twin(ray_session, tmp_path):
    """Per-lang exact dl quantiles from the bounded-domain histogram:
    empty docs count as dl=0, single-doc langs, interpolated (fractional)
    positions — engine vs numpy linear quantiles on the expanded dls vs
    the DuckDB quantile_cont twin, including a randomized corpus."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from smse_backend_ray.functions.analyzer import tokenize
    from smse_backend_ray.functions.rounding import round_half_away
    from smse_backend_ray.functions.sqlgen import dl_quantiles_sql
    from smse_backend_ray.pipelines.textstats import doc_length_quantiles
    from smse_backend_ray import config

    rng = np.random.default_rng(20260819)
    words = ["alpha", "beta", "gamma", "delta", "zulu", "omega"]
    texts = ["", "alpha", "alpha beta gamma"]          # en: dl 0, 1, 3
    langs = ["en", "en", "en"]
    texts.append("alpha beta")                          # fr: single doc
    langs.append("fr")
    for _ in range(25):                                 # de: random lengths
        n = int(rng.integers(0, 12))
        texts.append(" ".join(rng.choice(words, n)))
        langs.append("de")
    rows = [
        {"doc_id": i + 1, "text": t, "lang": lang, "source": "s0", "n_chars": 0}
        for i, (t, lang) in enumerate(zip(texts, langs))
    ]
    sf = str(tmp_path)
    pq.write_table(pa.Table.from_pylist(rows), f"{sf}/documents.parquet")

    got = doc_length_quantiles(sf)

    # reference: numpy linear quantiles over the kept-token counts
    by_lang: dict[str, list[int]] = {}
    for t, lang in zip(texts, langs):
        by_lang.setdefault(lang, []).append(len(tokenize(t)))
    assert got["lang"].to_pylist() == sorted(by_lang)
    for row in got.to_pylist():
        dls = np.array(sorted(by_lang[row["lang"]]), dtype=np.float64)
        assert row["n_docs"] == len(dls)
        for q in config.DL_QUANTILES:
            col = f"p{int(round(q * 100)):d}"
            want = float(round_half_away(
                np.array([np.quantile(dls, q, method="linear")]), 4)[0])
            assert row[col] == want, (row["lang"], col)

    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')")
    orc = con.sql(dl_quantiles_sql()).fetch_arrow_table()
    assert orc.to_pydict() == got.to_pydict()


def test_shipping_priority_semantics_and_twin(ray_session, tmp_path, monkeypatch):
    """Q3 shape on a hand-built micro-warehouse: strict date boundaries
    (order ON the cutoff excluded, lineitem shipped ON the cutoff
    excluded), segment filter, exact scaled-int revenue, the (revenue
    DESC, o_orderdate ASC, l_orderkey ASC) tie order, and the top-N cap —
    engine vs hand-computed truth vs the DuckDB twin."""
    import datetime

    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import smse_backend_ray.config as config
    from smse_backend_ray.pipelines.relational import (
        shipping_priority,
        shipping_priority_sql,
    )

    monkeypatch.setattr(config, "Q3_SEGMENT", "BUILDING")
    monkeypatch.setattr(config, "Q3_CUTOFF", "2000-01-01")
    monkeypatch.setattr(config, "Q3_TOP_N", 3)
    D = datetime.datetime(2000, 1, 1)
    before, after = datetime.datetime(1999, 6, 1), datetime.datetime(2000, 6, 1)

    cust = pa.table({
        "c_custkey": pa.array([1, 2, 3], type=pa.int64()),
        "c_name": ["a", "b", "c"],
        "c_nationkey": pa.array([0, 0, 0], type=pa.int64()),
        "c_acctbal": pa.array([0.0, 0.0, 0.0]),
        "c_mktsegment": ["BUILDING", "AUTOMOBILE", "BUILDING"],
    })
    # o10: qualifies. o11: order date ON cutoff -> excluded (strict <).
    # o12: wrong segment. o13/o14: revenue tie -> date then key order.
    orders = pa.table({
        "o_orderkey": pa.array([10, 11, 12, 13, 14], type=pa.int64()),
        "o_custkey": pa.array([1, 1, 2, 3, 1], type=pa.int64()),
        "o_orderstatus": ["O"] * 5,
        "o_totalprice": pa.array([0.0] * 5),
        "o_orderdate": pa.array([before, D, before, before, before],
                                type=pa.timestamp("us")),
        "o_orderpriority": ["1-URGENT"] * 5,
    })
    # lineitems: ship date must be STRICTLY after the cutoff
    li_rows = [
        (10, after, 100.0, 0.10),   # 10000 * 90 = 900000
        (10, after, 50.0, 0.00),    # 5000 * 100 = 500000 -> o10 total 1400000
        (10, D, 999.0, 0.0),        # shipped ON cutoff -> dropped
        (11, after, 999.0, 0.0),    # order excluded by date
        (12, after, 999.0, 0.0),    # wrong segment
        (13, after, 60.0, 0.00),    # 6000 * 100 = 600000
        (14, after, 60.0, 0.00),    # same revenue as o13 -> tie on key
    ]
    lineitem = pa.table({
        "l_orderkey": pa.array([r[0] for r in li_rows], type=pa.int64()),
        "l_partkey": pa.array([0] * len(li_rows), type=pa.int64()),
        "l_suppkey": pa.array([0] * len(li_rows), type=pa.int64()),
        "l_linenumber": pa.array(list(range(len(li_rows))), type=pa.int64()),
        "l_quantity": pa.array([1.0] * len(li_rows)),
        "l_extendedprice": pa.array([r[2] for r in li_rows]),
        "l_discount": pa.array([r[3] for r in li_rows]),
        "l_tax": pa.array([0.0] * len(li_rows)),
        "l_returnflag": ["N"] * len(li_rows),
        "l_linestatus": ["O"] * len(li_rows),
        "l_shipdate": pa.array([r[1] for r in li_rows], type=pa.timestamp("us")),
    })
    sf = str(tmp_path)
    pq.write_table(cust, f"{sf}/customer.parquet")
    pq.write_table(orders, f"{sf}/orders.parquet")
    pq.write_table(lineitem, f"{sf}/lineitem.parquet")

    got = shipping_priority(sf)
    assert got.to_pydict() == {
        "l_orderkey": [10, 13, 14],
        "revenue_scaled": [1400000, 600000, 600000],
        "o_orderdate": [before, before, before],
    }

    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")
    orc = con.sql(shipping_priority_sql()).fetch_arrow_table()
    assert orc.to_pydict() == got.to_pydict()

    # top-N binds: N=1 keeps only the highest-revenue order, twin agrees
    monkeypatch.setattr(config, "Q3_TOP_N", 1)
    got1 = shipping_priority(sf)
    assert got1["l_orderkey"].to_pylist() == [10]
    orc1 = con.sql(shipping_priority_sql()).fetch_arrow_table()
    assert orc1.to_pydict() == got1.to_pydict()


def test_returned_item_revenue_semantics_and_twin(ray_session, tmp_path, monkeypatch):
    """Q10 shape on a micro-warehouse: returnflag filter, half-open date
    window ([lo, hi)), scaled-int revenue across a customer's multiple
    orders, (revenue DESC, c_custkey ASC) tie order, top-N cap, and the
    customer/nation enrichment — engine vs hand truth vs the DuckDB twin."""
    import datetime

    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import smse_backend_ray.config as config
    from smse_backend_ray.pipelines.relational import (
        returned_item_revenue,
        returned_item_revenue_sql,
    )

    monkeypatch.setattr(config, "Q10_RETURNFLAG", "R")
    monkeypatch.setattr(config, "Q10_DATE_LO", "2000-01-01")
    monkeypatch.setattr(config, "Q10_DATE_HI", "2000-04-01")
    monkeypatch.setattr(config, "Q10_TOP_N", 2)
    lo = datetime.datetime(2000, 1, 1)
    hi = datetime.datetime(2000, 4, 1)
    inside = datetime.datetime(2000, 2, 1)

    nation = pa.table({
        "n_nationkey": pa.array([0, 1], type=pa.int64()),
        "n_name": ["N_A", "N_B"],
        "n_regionkey": pa.array([0, 0], type=pa.int64()),
    })
    cust = pa.table({
        "c_custkey": pa.array([1, 2, 3], type=pa.int64()),
        "c_name": ["ann", "bob", "cyd"],
        "c_nationkey": pa.array([0, 1, 0], type=pa.int64()),
        "c_acctbal": pa.array([10.5, -2.25, 0.0]),
        "c_mktsegment": ["BUILDING"] * 3,
    })
    # o20/o21: cust 1, both in-window (revenue spans orders).
    # o22: ON lo (inclusive). o23: ON hi (excluded). o24: cust 3 ties cust 2.
    orders = pa.table({
        "o_orderkey": pa.array([20, 21, 22, 23, 24], type=pa.int64()),
        "o_custkey": pa.array([1, 1, 2, 2, 3], type=pa.int64()),
        "o_orderstatus": ["O"] * 5,
        "o_totalprice": pa.array([0.0] * 5),
        "o_orderdate": pa.array([inside, inside, lo, hi, inside],
                                type=pa.timestamp("us")),
        "o_orderpriority": ["1-URGENT"] * 5,
    })
    li_rows = [
        (20, "R", 100.0, 0.10),  # 900000
        (21, "R", 50.0, 0.00),   # 500000 -> cust1 total 1400000
        (21, "N", 999.0, 0.0),   # wrong flag
        (22, "R", 60.0, 0.00),   # cust2 600000 (order on lo counts)
        (23, "R", 999.0, 0.0),   # order on hi -> excluded
        (24, "R", 60.0, 0.00),   # cust3 600000 -> revenue tie with cust2
    ]
    lineitem = pa.table({
        "l_orderkey": pa.array([r[0] for r in li_rows], type=pa.int64()),
        "l_partkey": pa.array([0] * len(li_rows), type=pa.int64()),
        "l_suppkey": pa.array([0] * len(li_rows), type=pa.int64()),
        "l_linenumber": pa.array(list(range(len(li_rows))), type=pa.int64()),
        "l_quantity": pa.array([1.0] * len(li_rows)),
        "l_extendedprice": pa.array([r[2] for r in li_rows]),
        "l_discount": pa.array([r[3] for r in li_rows]),
        "l_tax": pa.array([0.0] * len(li_rows)),
        "l_returnflag": pa.array([r[1] for r in li_rows], type=pa.string()),
        "l_linestatus": ["O"] * len(li_rows),
        "l_shipdate": pa.array([inside] * len(li_rows), type=pa.timestamp("us")),
    })
    sf = str(tmp_path)
    pq.write_table(cust, f"{sf}/customer.parquet")
    pq.write_table(orders, f"{sf}/orders.parquet")
    pq.write_table(lineitem, f"{sf}/lineitem.parquet")
    pq.write_table(nation, f"{sf}/nation.parquet")

    got = returned_item_revenue(sf)
    # top-2: cust1 (1400000), then the 600000 tie broken by custkey -> cust2
    assert got.to_pydict() == {
        "c_custkey": [1, 2],
        "c_name": ["ann", "bob"],
        "revenue_scaled": [1400000, 600000],
        "c_acctbal": [10.5, -2.25],
        "n_name": ["N_A", "N_B"],
    }

    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem", "nation"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")
    orc = con.sql(returned_item_revenue_sql()).fetch_arrow_table()
    assert orc.to_pydict() == got.to_pydict()


def test_doc_shuffle_semantics_and_twin(ray_session, tmp_path):
    """Deterministic shuffle rank: rank = position in (shuffle_key ASC,
    doc_id ASC) order, key collisions (ids 2^32 apart) break by doc_id,
    output is range-count invariant, and the DuckDB twin agrees."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from smse_backend_ray.pipelines.sampling import (
        doc_shuffle,
        doc_shuffle_sql,
        sample_key,
    )

    # ids 7 and 7 + 2^32 collide on the key -> doc_id breaks the tie
    ids = [7, 7 + 2**32, 3, 1_000_003, 999999937, 42]
    rows = [
        {"doc_id": i, "text": "x", "lang": "en", "source": "s0", "n_chars": 1}
        for i in ids
    ]
    sf = str(tmp_path)
    pq.write_table(pa.Table.from_pylist(rows), f"{sf}/documents.parquet")

    got = doc_shuffle(sf)
    keys = sample_key(np.array(ids, dtype=np.int64)).astype(np.int64)
    want = sorted(zip(keys.tolist(), ids))
    assert got["doc_id"].to_pylist() == [d for _, d in want]
    assert got["shuffle_key"].to_pylist() == [k for k, _ in want]
    assert got["rank"].to_pylist() == list(range(len(ids)))
    # the planted collision actually collides and orders by doc_id
    k7 = [k for k, d in zip(keys.tolist(), ids) if d in (7, 7 + 2**32)]
    assert k7[0] == k7[1]
    pos = {d: r for r, d in enumerate(got["doc_id"].to_pylist())}
    assert pos[7] + 1 == pos[7 + 2**32]

    assert doc_shuffle(sf, n_ranges=2).to_pydict() == got.to_pydict()

    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')")
    orc = con.sql(doc_shuffle_sql()).fetch_arrow_table()
    assert orc.to_pydict() == got.to_pydict()


def test_curation_pipeline_semantics_and_twin(ray_session, tmp_path, monkeypatch):
    """Composite curation: dedup-FIRST rule (a duplicate of a failing
    winner is dropped even if it would pass the filters itself), quality
    floor on the ROUNDED value, lang allowlist, sample cut, and the
    rank/pack math over survivors — engine vs hand truth vs the twin."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import smse_backend_ray.config as config
    from smse_backend_ray.functions.analyzer import split_subtokens
    from smse_backend_ray.pipelines.curate import curation_pipeline, curation_sql
    from smse_backend_ray.pipelines.sampling import sample_key

    monkeypatch.setattr(config, "CURATE_MIN_QUALITY", 0.4)
    monkeypatch.setattr(config, "CURATE_LANGS", ("en", "de"))
    monkeypatch.setattr(config, "CURATE_SAMPLE_PCT", 100)  # sample off first

    longtext = " ".join(["alpha beta gamma delta"] * 15)  # 60 toks, q >= 0.42
    shorttext = "alpha beta"                              # q ~ 0.014 -> fails
    rows = [
        # dup group A: winner id 1 (en) kept; id 5 dropped as a duplicate
        {"doc_id": 1, "text": longtext, "lang": "en"},
        {"doc_id": 5, "text": longtext, "lang": "en"},
        # dup group B: winner id 2 FAILS quality -> ids 2 and 6 BOTH drop,
        # even though id 6 is an allowed lang and would pass sampling
        {"doc_id": 2, "text": shorttext, "lang": "en"},
        {"doc_id": 6, "text": shorttext, "lang": "en"},
        # lang filter: zh not in the allowlist
        {"doc_id": 3, "text": longtext + " zz", "lang": "zh"},
        # clean survivor
        {"doc_id": 4, "text": longtext + " yy qq", "lang": "de"},
    ]
    for r in rows:
        r.update({"source": "s0", "n_chars": 0})
    sf = str(tmp_path)
    pq.write_table(pa.Table.from_pylist(rows), f"{sf}/documents.parquet")

    got = curation_pipeline(sf)
    # survivors: ids 1 and 4, ordered by (sample_key, doc_id)
    keys = {i: int(sample_key(np.array([i]))[0]) for i in (1, 4)}
    order = [d for _, d in sorted((keys[i], i) for i in (1, 4))]
    assert got["doc_id"].to_pylist() == order
    assert got["rank"].to_pylist() == [0, 1]
    n1 = len(split_subtokens(longtext))
    n4 = len(split_subtokens(longtext + " yy qq"))
    first_n = n1 if order[0] == 1 else n4
    assert got["n_tokens"].to_pylist() == ([n1, n4] if order == [1, 4] else [n4, n1])
    assert got["start_offset"].to_pylist() == [0, first_n]
    assert got["bin"].to_pylist() == [0, 0]

    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')")
    assert con.sql(curation_sql()).fetch_arrow_table().to_pydict() == got.to_pydict()

    # sampling binds: a tiny pct keeps only docs under the key threshold,
    # ranks stay dense, twin agrees
    monkeypatch.setattr(config, "CURATE_SAMPLE_PCT", 30)
    got2 = curation_pipeline(sf)
    assert got2["rank"].to_pylist() == list(range(got2.num_rows))
    assert set(got2["doc_id"].to_pylist()) <= {1, 4}
    assert con.sql(curation_sql()).fetch_arrow_table().to_pydict() == got2.to_pydict()


def test_events_retention_semantics_and_twin(ray_session, tmp_path):
    """Retention cohorts: cohort = Monday-truncated week of the user's
    FIRST event of ANY type; repeat events inside one week count once;
    offsets are whole weeks; users sum per (cohort, offset) — engine vs
    hand truth vs the DuckDB twin."""
    import datetime

    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from smse_backend_ray.pipelines.events import (
        events_retention,
        events_retention_sql,
    )

    W0 = datetime.datetime(2024, 1, 1)          # a Monday
    day = datetime.timedelta(days=1)
    wk = datetime.timedelta(days=7)
    evs = [
        # u1: first event Sunday of week0 -> cohort W0; active weeks 0 and 2
        (1, W0 + 6 * day, "view"), (1, W0 + 6 * day + day / 24, "click"),
        (1, W0 + 2 * wk, "purchase"),
        # u2: cohort W0; active weeks 0, 1, 2 (two events in week 1 -> once)
        (2, W0, "signup"), (2, W0 + wk, "view"), (2, W0 + wk + day, "view"),
        (2, W0 + 2 * wk + 3 * day, "error"),
        # u3: cohort W1 only
        (3, W0 + wk + 2 * day, "view"),
    ]
    t = pa.table(
        {
            "event_id": pa.array(range(len(evs)), type=pa.int64()),
            "ts": pa.array([e[1] for e in evs], type=pa.timestamp("us")),
            "user_id": pa.array([e[0] for e in evs], type=pa.int64()),
            "event_type": pa.array([e[2] for e in evs], type=pa.string()),
            "value": pa.array([1.0] * len(evs), type=pa.float64()),
        }
    )
    sf = str(tmp_path)
    pq.write_table(t, f"{sf}/events.parquet")

    got = events_retention(sf)
    assert got.to_pydict() == {
        "cohort_week": [W0, W0, W0, W0 + wk],
        "week_offset": [0, 1, 2, 0],
        "n_users": [2, 1, 2, 1],
    }

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')")
    orc = con.sql(events_retention_sql()).fetch_arrow_table()
    assert orc.to_pydict() == got.to_pydict()


def test_relational_fused_rollups_bucket_invariant(ray_session, sf_dir, monkeypatch):
    """The fused join+rollup(+top-N) exchanges (Q1-by-month, Q3) argue
    exactness from bucket-key containment: every rollup group lives
    entirely inside one bucket, so per-bucket aggregation is globally
    exact for ANY bucket count. Pin it: nb=1 (everything in one bucket)
    and nb=97 (prime, scatters groups) must equal the default."""
    from smse_backend_ray.pipelines import relational

    base_q1 = relational.revenue_by_month(sf_dir)
    base_q3 = relational.shipping_priority(sf_dir)
    base_q12 = relational.line_priority_counts(sf_dir)
    base_q7 = relational.volume_shipping(sf_dir)
    for forced in (1, 97):
        monkeypatch.setattr(relational, "_fact_buckets", lambda *a: forced)
        assert relational.revenue_by_month(sf_dir).equals(base_q1), forced
        assert relational.shipping_priority(sf_dir).equals(base_q3), forced
        assert relational.line_priority_counts(sf_dir).equals(base_q12), forced
        assert relational.volume_shipping(sf_dir).equals(base_q7), forced


def test_line_priority_counts_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.pipelines import relational

    t = relational.line_priority_counts(sf_dir)
    want = duck.sql(relational.line_priority_counts_sql()).arrow()
    assert t.to_pylist() == want.to_pylist()
    # every windowed line is exactly one of high/low
    n = duck.sql(
        "SELECT count(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "WHERE l_shipdate >= TIMESTAMP '1996-01-01' "
        "AND l_shipdate < TIMESTAMP '1997-01-01'"
    ).fetchone()[0]
    import pyarrow.compute as _pc

    assert (
        _pc.sum(t["high_line_count"]).as_py()
        + _pc.sum(t["low_line_count"]).as_py()
        == n
    )


def test_volume_shipping_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.pipelines import relational

    t = relational.volume_shipping(sf_dir)
    want = duck.sql(relational.volume_shipping_sql()).arrow()
    assert t.to_pylist() == want.to_pylist()
    # matrix total equals the plain windowed revenue sum (no pair lost)
    tot = duck.sql(
        "SELECT CAST(SUM(CAST(round(l_extendedprice*100,0) AS BIGINT) * "
        "(100 - CAST(round(l_discount*100,0) AS BIGINT))) AS BIGINT) "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "WHERE l_shipdate >= TIMESTAMP '1996-01-01' "
        "AND l_shipdate < TIMESTAMP '1998-01-01'"
    ).fetchone()[0]
    import pyarrow.compute as _pc

    assert _pc.sum(t["revenue_scaled"]).as_py() == tot


def test_small_qty_order_revenue_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.pipelines import relational

    t = relational.small_qty_order_revenue(sf_dir)
    want = duck.sql(relational.small_qty_order_revenue_sql()).arrow()
    assert t.to_pylist() == want.to_pylist()
    assert t.num_rows == 1 and t["n_lines"][0].as_py() > 0
    # the cross-multiplied threshold equals the 0.2*avg predicate: every
    # qualifying line's q_s is strictly under tot/(5*cnt) for its part
    rows = duck.sql(
        """
        WITH pq AS (
          SELECT l_partkey, count(*) cnt,
                 SUM(CAST(round(l_quantity*100,0) AS BIGINT)) tot
          FROM lineitem JOIN part ON p_partkey = l_partkey
          WHERE p_brand = 'Brand#13' AND p_size < 26 GROUP BY 1)
        SELECT CAST(round(l_quantity*100,0) AS BIGINT) q_s, cnt, tot
        FROM lineitem JOIN pq USING (l_partkey)
        WHERE 5 * CAST(round(l_quantity*100,0) AS BIGINT) * cnt < tot
        """
    ).fetchall()
    assert len(rows) == t["n_lines"][0].as_py()
    for q_s, cnt, tot in rows:
        assert q_s < 0.2 * (tot / cnt) + 1e-9


def test_top_supplier_revenue_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.pipelines import relational

    t = relational.top_supplier_revenue(sf_dir)
    want = duck.sql(relational.top_supplier_revenue_sql()).arrow()
    assert t.to_pylist() == want.to_pylist()
    assert t.num_rows >= 1
    # the winner's revenue is the true per-supplier max in the window
    mx = duck.sql(
        "SELECT max(rev) FROM (SELECT CAST(SUM(CAST(round(l_extendedprice"
        "*100,0) AS BIGINT) * (100 - CAST(round(l_discount*100,0) AS "
        "BIGINT))) AS BIGINT) rev FROM lineitem WHERE l_shipdate >= "
        "TIMESTAMP '1996-01-01' AND l_shipdate < TIMESTAMP '1996-04-01' "
        "GROUP BY l_suppkey)"
    ).fetchone()[0]
    assert t["total_revenue_scaled"][0].as_py() == mx


def test_top_supplier_revenue_keeps_ties(ray_session, sf_dir):
    """Force an all-tie world (every supplier at the max) via a 1-supplier
    window slice is impractical on real data; instead pin the tie rule on
    the block-winner fold: feeding duplicated max rows through the final
    merge must keep every distinct tied suppkey, ascending."""
    import pyarrow as pa
    import pyarrow.compute as pc

    cand = pa.table(
        {"s_suppkey": pa.array([7, 3, 7, 5], type=pa.int64()),
         "rev": pa.array([9, 9, 9, 4], type=pa.int64())}
    )
    mx = pc.max(cand["rev"]).as_py()
    winners = cand.filter(pc.equal(cand["rev"], mx))
    skeys = sorted(set(winners["s_suppkey"].to_pylist()))
    assert skeys == [3, 7]


def test_idle_customer_balance_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.pipelines import relational

    t = relational.idle_customer_balance(sf_dir)
    want = duck.sql(relational.idle_customer_balance_sql()).arrow()
    assert t.to_pylist() == want.to_pylist()
    assert t.num_rows > 0
    # anti-join half: no counted customer has a recent order
    n_idle_above = duck.sql(
        """
        WITH pos AS (SELECT count(*) n,
               SUM(CAST(round(c_acctbal*100,0) AS BIGINT)) s
               FROM customer WHERE c_acctbal > 0.0)
        SELECT count(*) FROM customer, pos
        WHERE CAST(round(c_acctbal*100,0) AS BIGINT) * pos.n > pos.s
          AND NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey
              AND o_orderdate >= TIMESTAMP '1999-01-01')
        """
    ).fetchone()[0]
    import pyarrow.compute as _pc

    assert _pc.sum(t["n_cust"]).as_py() == n_idle_above


def test_banded_revenue_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.pipelines import relational

    t = relational.banded_revenue(sf_dir)
    want = duck.sql(relational.banded_revenue_sql()).arrow()
    assert t.to_pylist() == want.to_pylist()
    # disjunction counts each line ONCE even when bands overlap: the sum
    # of per-band counts is an upper bound hit only if bands are disjoint
    per_band = 0
    from smse_backend_ray import config

    for b, sm, lo, hi in config.Q19_BANDS:
        per_band += duck.sql(
            f"SELECT count(*) FROM lineitem JOIN part ON p_partkey = "
            f"l_partkey WHERE p_brand = '{b}' AND p_size BETWEEN 1 AND {sm} "
            f"AND CAST(round(l_quantity*100,0) AS BIGINT) "
            f"BETWEEN {lo*100} AND {hi*100}"
        ).fetchone()[0]
    assert t["n_lines"][0].as_py() <= per_band


def test_market_share_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.pipelines import relational

    t = relational.market_share(sf_dir)
    want = duck.sql(relational.market_share_sql()).arrow()
    assert t.to_pylist() == want.to_pylist()
    # share is a true fraction of the two exact int columns
    for row in t.to_pylist():
        assert 0.0 <= row["mkt_share"] <= 1.0
        assert row["nation_revenue_scaled"] <= row["total_revenue_scaled"]


def test_new_relational_bucket_invariant(ray_session, sf_dir, monkeypatch):
    """Same containment argument as test_relational_fused_rollups_bucket_
    invariant for the session-7 operators: per-part groups (Q17/Q19),
    per-supplier groups (Q15), per-custkey anti-join (Q22) and the Q8
    chain each live entirely inside one bucket, so any bucket count gives
    identical output."""
    from smse_backend_ray.pipelines import relational

    base = {
        "q17": relational.small_qty_order_revenue(sf_dir),
        "q15": relational.top_supplier_revenue(sf_dir),
        "q22": relational.idle_customer_balance(sf_dir),
        "q19": relational.banded_revenue(sf_dir),
        "q8": relational.market_share(sf_dir),
    }
    for forced in (1, 97):
        monkeypatch.setattr(relational, "_fact_buckets", lambda *a: forced)
        assert relational.small_qty_order_revenue(sf_dir).equals(base["q17"])
        assert relational.top_supplier_revenue(sf_dir).equals(base["q15"])
        assert relational.idle_customer_balance(sf_dir).equals(base["q22"])
        assert relational.banded_revenue(sf_dir).equals(base["q19"])
        assert relational.market_share(sf_dir).equals(base["q8"])


def test_exchange_sizing_hints_only_lower(ray_session):
    """The row hints on the block/bucket sizing helpers must only LOWER
    the CPU-scaled targets — large inputs (the 100 TB regime) are sized by
    CPUs exactly as before, tiny inputs stop manufacturing near-empty
    tasks."""
    from smse_backend_ray.functions.joins import cpu_scaled_buckets
    from smse_backend_ray.sources.corpus import _parallel_blocks

    cpu_default = cpu_scaled_buckets()
    assert cpu_scaled_buckets(rows=10**12) == cpu_default
    assert cpu_scaled_buckets(rows=0) == 4          # floor of the hint
    assert cpu_scaled_buckets(rows=2048 * 16) == min(cpu_default, 16)

    blk_default = _parallel_blocks()
    assert _parallel_blocks(10**12) == blk_default
    assert _parallel_blocks(10**12, rows_per_block=4096) == blk_default
    assert _parallel_blocks(100) == min(blk_default, 1)  # 100//64 -> 1 block
    assert _parallel_blocks(100, rows_per_block=4096) == 1


def test_forecast_revenue_semantics_and_twin(ray_session, tmp_path, monkeypatch):
    """Q6 shape on a micro-warehouse: half-open ship-date window, ROUNDED
    discount-cent band (inclusive both ends), strict quantity cap, exact
    scaled-int revenue — engine vs hand truth vs the DuckDB twin."""
    import datetime

    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import smse_backend_ray.config as config
    from smse_backend_ray.pipelines.relational import (
        forecast_revenue,
        forecast_revenue_sql,
    )

    monkeypatch.setattr(config, "Q6_DATE_LO", "2000-01-01")
    monkeypatch.setattr(config, "Q6_DATE_HI", "2001-01-01")
    monkeypatch.setattr(config, "Q6_DISC_LO_C", 5)
    monkeypatch.setattr(config, "Q6_DISC_HI_C", 7)
    monkeypatch.setattr(config, "Q6_QTY_MAX", 24)
    lo = datetime.datetime(2000, 1, 1)
    hi = datetime.datetime(2001, 1, 1)
    mid = datetime.datetime(2000, 6, 1)

    # (shipdate, qty, price, discount, note)
    rows = [
        (lo, 1.0, 100.0, 0.05, "on lo -> in; 10000*5 = 50000"),
        (mid, 23.0, 10.0, 0.07, "hi edge of band; 1000*7 = 7000"),
        (hi, 1.0, 999.0, 0.05, "on hi -> out (strict <)"),
        (mid, 24.0, 999.0, 0.05, "qty == cap -> out (strict <)"),
        (mid, 1.0, 999.0, 0.04, "below band -> out"),
        (mid, 1.0, 999.0, 0.08, "above band -> out"),
    ]
    lineitem = pa.table({
        "l_orderkey": pa.array([1] * len(rows), type=pa.int64()),
        "l_quantity": pa.array([r[1] for r in rows]),
        "l_extendedprice": pa.array([r[2] for r in rows]),
        "l_discount": pa.array([r[3] for r in rows]),
        "l_shipdate": pa.array([r[0] for r in rows], type=pa.timestamp("us")),
    })
    sf = str(tmp_path)
    pq.write_table(lineitem, f"{sf}/lineitem.parquet")

    got = forecast_revenue(sf)
    assert got.to_pydict() == {"revenue_scaled": [57000], "n_items": [2]}

    con = duckdb.connect()
    con.sql(f"CREATE VIEW lineitem AS SELECT * FROM read_parquet('{sf}/lineitem.parquet')")
    orc = con.sql(forecast_revenue_sql()).fetch_arrow_table()
    assert orc.to_pydict() == got.to_pydict()

    # empty qualifying set: engine emits 0, the twin COALESCEs to 0
    monkeypatch.setattr(config, "Q6_QTY_MAX", 0)
    got0 = forecast_revenue(sf)
    assert got0.to_pydict() == {"revenue_scaled": [0], "n_items": [0]}
    assert con.sql(forecast_revenue_sql()).fetch_arrow_table().to_pydict() == got0.to_pydict()


def test_large_order_customers_semantics_and_twin(ray_session, tmp_path, monkeypatch):
    """Q18 shape on a micro-warehouse: scaled-int quantity sums, strict
    HAVING threshold, (o_totalprice DESC, o_orderkey ASC) tie order,
    top-N cap, customer enrichment — engine vs hand truth vs twin."""
    import datetime

    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import smse_backend_ray.config as config
    from smse_backend_ray.pipelines.relational import (
        large_order_customers,
        large_order_customers_sql,
    )

    monkeypatch.setattr(config, "Q18_MIN_QTY", 10)
    monkeypatch.setattr(config, "Q18_TOP_N", 2)
    d = datetime.datetime(2000, 3, 1)

    # o1: qty 10 == threshold -> excluded (strict >). o2: 10.5 -> in but
    # its price (50) loses to the o3/o4 price tie (70) and TOP_N=2 cuts
    # it. o3 and o4 price-tie -> o_orderkey ASC order.
    li = [(1, 4.0), (1, 6.0), (2, 10.5), (3, 12.0), (4, 11.0)]
    lineitem = pa.table({
        "l_orderkey": pa.array([r[0] for r in li], type=pa.int64()),
        "l_quantity": pa.array([r[1] for r in li]),
    })
    orders = pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4], type=pa.int64()),
        "o_custkey": pa.array([7, 8, 9, 7], type=pa.int64()),
        "o_totalprice": pa.array([99.0, 50.0, 70.0, 70.0]),
        "o_orderdate": pa.array([d] * 4, type=pa.timestamp("us")),
    })
    customer = pa.table({
        "c_custkey": pa.array([7, 8, 9], type=pa.int64()),
        "c_name": ["carol", "dave", "erin"],
    })
    sf = str(tmp_path)
    pq.write_table(lineitem, f"{sf}/lineitem.parquet")
    pq.write_table(orders, f"{sf}/orders.parquet")
    pq.write_table(customer, f"{sf}/customer.parquet")

    got = large_order_customers(sf)
    assert got.to_pydict() == {
        "c_custkey": [9, 7],
        "c_name": ["erin", "carol"],
        "o_orderkey": [3, 4],
        "o_orderdate": [d, d],
        "o_totalprice": [70.0, 70.0],
        "total_qty_scaled": [1200, 1100],
    }

    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")
    orc = con.sql(large_order_customers_sql()).fetch_arrow_table()
    assert orc.to_pydict() == got.to_pydict()

    # threshold above every order -> empty, both sides
    monkeypatch.setattr(config, "Q18_MIN_QTY", 1000)
    got0 = large_order_customers(sf)
    assert got0.num_rows == 0
    assert con.sql(large_order_customers_sql()).fetch_arrow_table().num_rows == 0


def test_user_running_totals_semantics_and_twin(ray_session, tmp_path):
    """Window-family semantics on a handcrafted stream: (ts, event_id) tie
    order, -1 first-gap sentinel, per-user cumsum rebasing, scaled-int
    exactness on negative values, NULL value adds 0 — engine vs hand truth
    vs the DuckDB twin."""
    import datetime

    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from smse_backend_ray.pipelines.events import (
        user_running_totals,
        user_running_totals_sql,
    )

    t0 = datetime.datetime(2024, 1, 1)
    s = lambda k: t0 + datetime.timedelta(seconds=k)
    # user 1: ts tie at s(5) broken by event_id (11 before 12); negative +
    # fractional values. user 2: single event, NULL value.
    rows = [
        (10, s(0), 1, 1.5),
        (11, s(5), 1, -0.25),
        (12, s(5), 1, 2.0),
        (13, s(65), 1, 0.00004),   # rounds to 0.0000 scaled 0
        (20, s(3), 2, None),
    ]
    events = pa.table({
        "event_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "ts": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], type=pa.int64()),
        "event_type": pa.array(["x"] * len(rows)),
        "value": pa.array([r[3] for r in rows], type=pa.float64()),
        "props": pa.array(["{}"] * len(rows)),
    })
    sf = str(tmp_path)
    pq.write_table(events, f"{sf}/events.parquet")

    got = user_running_totals(sf)
    assert got.to_pydict() == {
        "user_id": [1, 1, 1, 1, 2],
        "event_id": [10, 11, 12, 13, 20],
        "seq": [1, 2, 3, 4, 1],
        "gap_us": [-1, 5_000_000, 0, 60_000_000, -1],
        "cum_value_scaled": [15000, 12500, 32500, 32500, 0],
    }

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')")
    orc = con.sql(user_running_totals_sql()).fetch_arrow_table()
    assert orc.to_pydict() == got.to_pydict()


def test_embedding_dim_stats_semantics_and_twin(ray_session, tmp_path):
    """Per-dim stats on a handcrafted table: scaled-int sums over negative /
    rounding-edge float32 payloads, exact min/max, mean rounding — engine
    vs hand truth vs the DuckDB twin."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from smse_backend_ray.pipelines.simsearch import (
        embedding_dim_stats,
        embedding_dim_stats_sql,
    )

    vecs = [
        [1.5, -0.25],
        [0.00004, 2.0],
        [-1.0, 0.5],
    ]
    emb = pa.table({
        "vec_id": pa.array([0, 1, 2], type=pa.int64()),
        "embedding": pa.array(vecs, type=pa.list_(pa.float32())),
        "label": pa.array([0, 0, 0], type=pa.int32()),
    })
    sf = str(tmp_path)
    pq.write_table(emb, f"{sf}/embeddings.parquet")

    got = embedding_dim_stats(sf)
    f32 = lambda x: float(np.float32(x))
    assert got.to_pydict() == {
        "dim": [0, 1],
        "n": [3, 3],
        # dim0: 15000 + round(0.4)=0 + -10000 = 5000; dim1: -2500+20000+5000
        "sum_scaled": [5000, 22500],
        "mean_v": [0.1667, 0.75],
        "min_v": [-1.0, -0.25],
        "max_v": [1.5, 2.0],
    }
    assert got["min_v"][0].as_py() == f32(-1.0)

    con = duckdb.connect()
    con.sql(f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{sf}/embeddings.parquet')")
    orc = con.sql(embedding_dim_stats_sql()).fetch_arrow_table()
    assert orc.to_pydict() == got.to_pydict()


def test_kmv_distinct_estimate_and_exact_path(ray_session, sf_dir, tmp_path):
    """KMV sketch: on the driver corpus the estimate lands within 20% of
    the true distinct-gram count (k=256 -> ~6% expected error); on a tiny
    corpus (fewer distinct grams than k) the sketch is exhaustive and the
    estimate is exact."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from smse_backend_ray.pipelines.textstats import kmv_distinct, kmv_distinct_sql

    got = kmv_distinct(sf_dir)
    est = got["est_distinct"][0].as_py()
    con = duckdb.connect()
    con.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf_dir}/documents.parquet')"
    )
    # exact distinct HASH count via the twin's own gram CTEs
    sql = kmv_distinct_sql()
    exact = con.sql(
        sql[: sql.index("sk AS")] + "x AS (SELECT 1) SELECT count(*) FROM hashes"
    ).fetchone()[0]
    assert abs(est - exact) / exact < 0.20
    # twin agreement on the full frozen output
    orc = con.sql(sql).fetch_arrow_table()
    assert orc.to_pydict() == got.to_pydict()

    # tiny corpus: 3 docs, few grams -> exhaustive sketch, exact estimate
    docs = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": pa.array([
            "alpha beta gamma delta epsilon zeta",
            "alpha beta gamma delta epsilon zeta eta",
            "one two three four five",
        ]),
        "lang": pa.array(["en"] * 3),
    })
    sf2 = str(tmp_path)
    pq.write_table(docs, f"{sf2}/documents.parquet")
    got2 = kmv_distinct(sf2)
    # doc1: 2 grams, doc2: 3 grams (2 shared with doc1), doc3: 1 gram
    assert got2["n_sketch"][0].as_py() == 4
    assert got2["est_distinct"][0].as_py() == 4.0
    con2 = duckdb.connect()
    con2.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf2}/documents.parquet')"
    )
    assert con2.sql(kmv_distinct_sql()).fetch_arrow_table().to_pydict() == got2.to_pydict()


def test_doc_sample_balanced_properties(ray_session, sf_dir):
    """Balanced sample: exactly min(cap, n_lang) rows per language, ranks
    dense, and the picks equal the brute-force (sample_key, doc_id) order
    computed driver-side — partition-invariant by construction."""
    import pyarrow.parquet as pq_mod

    from smse_backend_ray.pipelines.sampling import (
        BALANCED_CAP,
        doc_sample_balanced,
        sample_key,
    )

    got = doc_sample_balanced(sf_dir)
    docs = pq_mod.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    ids = docs["doc_id"].to_numpy()
    langs = docs["lang"].to_pylist()
    key = sample_key(ids)
    by_lang: dict[str, list] = {}
    for i, lg in enumerate(langs):
        by_lang.setdefault(lg, []).append((int(key[i]), int(ids[i])))
    want = {}
    for lg, rows in by_lang.items():
        want[lg] = [d for _, d in sorted(rows)[:BALANCED_CAP]]
    got_by_lang: dict[str, list] = {}
    for lg, rk, did in zip(
        got["lang"].to_pylist(), got["rank"].to_pylist(), got["doc_id"].to_pylist()
    ):
        got_by_lang.setdefault(lg, []).append((rk, did))
    assert set(got_by_lang) == set(want)
    for lg, rows in got_by_lang.items():
        assert [r for r, _ in rows] == list(range(1, len(rows) + 1))
        assert [d for _, d in rows] == want[lg]
        assert len(rows) == min(BALANCED_CAP, len(by_lang[lg]))


def test_doc_sample_temperature_properties(ray_session, sf_dir):
    """Temperature sample: the rarest language is kept in full (threshold
    = 2^32 exactly, above every uint32 key); every kept doc matches the
    brute-force threshold rule; kept fractions order inversely with
    language size."""
    import pyarrow.parquet as pq_mod

    from smse_backend_ray.pipelines.sampling import (
        SAMPLE_MOD,
        doc_sample_temperature,
        sample_key,
    )

    got = doc_sample_temperature(sf_dir)
    docs = pq_mod.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    ids = docs["doc_id"].to_numpy()
    langs = docs["lang"].to_pylist()
    n_by_lang: dict[str, int] = {}
    for lg in langs:
        n_by_lang[lg] = n_by_lang.get(lg, 0) + 1
    n_min = min(n_by_lang.values())
    thr = {
        lg: int(np.floor(float(SAMPLE_MOD) * np.sqrt(float(n_min) / n)))
        for lg, n in n_by_lang.items()
    }
    key = sample_key(ids)
    want = {
        int(d)
        for d, lg, k in zip(ids, langs, key)
        if int(k) < thr[lg]
    }
    assert set(got["doc_id"].to_pylist()) == want
    rare = min(n_by_lang, key=lambda lg: (n_by_lang[lg], lg))
    kept_by_lang: dict[str, int] = {}
    for lg in got["lang"].to_pylist():
        kept_by_lang[lg] = kept_by_lang.get(lg, 0) + 1
    assert kept_by_lang.get(rare, 0) == n_by_lang[rare]  # rarest kept whole


def test_fold_partials_invariance(ray_session, sf_dir, monkeypatch):
    """Forcing the tree-fold level on (FOLD_FAN_IN=1 makes every source
    exceed it) leaves doc_sample_balanced, doc_kmv_distinct, and
    embedding_dim_stats outputs IDENTICAL — the fold functions are true
    combiners, placement only."""
    import smse_backend_ray.config as config_mod
    from smse_backend_ray.pipelines.sampling import doc_sample_balanced
    from smse_backend_ray.pipelines.simsearch import embedding_dim_stats
    from smse_backend_ray.pipelines.textstats import doc_rollup_counts, kmv_distinct

    base = {
        "balanced": doc_sample_balanced(sf_dir).to_pydict(),
        "kmv": kmv_distinct(sf_dir).to_pydict(),
        "dim": embedding_dim_stats(sf_dir).to_pydict(),
        "rollup": doc_rollup_counts(sf_dir).to_pydict(),
    }
    monkeypatch.setattr(config_mod, "FOLD_FAN_IN", 1)
    assert doc_sample_balanced(sf_dir).to_pydict() == base["balanced"]
    assert kmv_distinct(sf_dir).to_pydict() == base["kmv"]
    assert embedding_dim_stats(sf_dir).to_pydict() == base["dim"]
    assert doc_rollup_counts(sf_dir).to_pydict() == base["rollup"]


def test_doc_sample_temperature_null_lang(ray_session, tmp_path):
    """NULL-lang rows participate in n_min (SQL GROUP BY keeps the NULL
    group in the count table) but are never kept (inner join) — engine
    matches the twin on a fixture with a NULL-lang majority group."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq_mod

    from smse_backend_ray.pipelines.sampling import (
        doc_sample_temperature,
        doc_sample_temperature_sql,
    )

    n = 40
    langs = (["en"] * 30) + (["de"] * 6) + ([None] * 4)
    docs = pa.table({
        "doc_id": pa.array(range(1, n + 1), type=pa.int64()),
        "text": pa.array(["word " * 5] * n),
        "lang": pa.array(langs, type=pa.string()),
    })
    sf = str(tmp_path)
    pq_mod.write_table(docs, f"{sf}/documents.parquet")

    got = doc_sample_temperature(sf)
    assert None not in set(got["lang"].to_pylist())
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')")
    orc = con.sql(doc_sample_temperature_sql()).fetch_arrow_table()
    assert orc.to_pydict() == got.to_pydict()


def test_curation_pipeline_range_invariant(ray_session, sf_dir):
    """The key-range count only spreads the ordered scan: one range and
    13 ranges give the same survivors, ranks and pack offsets."""
    from smse_backend_ray.pipelines.curate import curation_pipeline

    one = curation_pipeline(sf_dir, n_ranges=1)
    assert one.num_rows > 1
    assert one.to_pydict() == curation_pipeline(sf_dir, n_ranges=13).to_pydict()


def test_curation_parquet_sink_matches_collect(ray_session, sf_dir, tmp_path):
    """curation_pipeline(out_dir=) writes shard-partitioned parquet whose
    rows equal the collected path exactly; the manifest counts per shard."""
    import pyarrow.dataset as pads

    from smse_backend_ray.pipelines.curate import curation_pipeline

    want = curation_pipeline(sf_dir)
    out_dir = str(tmp_path / "curated")
    manifest = curation_pipeline(sf_dir, out_dir=out_dir)
    assert int(np.sum(manifest["n_rows"].to_numpy())) == want.num_rows

    import pyarrow as pa

    got = pads.dataset(out_dir, partitioning="hive").to_table(
        columns=[c for c in want.column_names]
    )
    got = got.take(pa.compute.sort_indices(got["rank"]))
    assert got.to_pydict() == want.to_pydict()


def test_embedding_label_centroids_semantics(ray_session, tmp_path):
    """Centroids on a handcrafted table: per-label scatter-add sums,
    negative values, single-member labels — engine vs hand truth vs twin,
    and invariance under the forced tree-fold."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq_mod

    import smse_backend_ray.config as config_mod
    from smse_backend_ray.pipelines.simsearch import (
        embedding_label_centroids,
        embedding_label_centroids_sql,
    )

    emb = pa.table({
        "vec_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "embedding": pa.array(
            [[1.0, 2.0], [3.0, -4.0], [0.5, 0.5], [-1.0, 1.0]],
            type=pa.list_(pa.float32()),
        ),
        "label": pa.array([7, 7, 9, 7], type=pa.int32()),
    })
    sf = str(tmp_path)
    pq_mod.write_table(emb, f"{sf}/embeddings.parquet")

    got = embedding_label_centroids(sf)
    assert got.to_pydict() == {
        "label": [7, 7, 9, 9],
        "dim": [0, 1, 0, 1],
        "n": [3, 3, 1, 1],
        "sum_scaled": [30000, -10000, 5000, 5000],
        "mean_v": [1.0, -0.3333, 0.5, 0.5],
    }
    con = duckdb.connect()
    con.sql(f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{sf}/embeddings.parquet')")
    orc = con.sql(embedding_label_centroids_sql()).fetch_arrow_table()
    assert orc.to_pydict() == got.to_pydict()


def test_winnow_dup_pairs_semantics(ray_session, sf_dir, tmp_path):
    """MOSS overlap pairs: on the driver corpus the winnow pairs cover the
    exact-Jaccard near-dups (both detect the planted near-duplicates); on
    a planted fixture a locally-edited copy still pairs with its original
    (the winnowing robustness property), the df cap drops boilerplate
    fingerprints, and the twin agrees."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq_mod

    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines import dedup
    from smse_backend_ray.pipelines.textstats import WINNOW_K, WINNOW_W

    wp = dedup.winnow_dup_pairs(sf_dir)
    wset = set(zip(wp["a"].to_pylist(), wp["b"].to_pylist()))
    jac = dedup.jaccard_pairs(sf_dir)
    jset = set(zip(jac["a"].to_pylist(), jac["b"].to_pylist()))
    # winnowing SAMPLES ~1/W of grams, so a borderline Jaccard pair can
    # share < min_shared sampled fingerprints — assert high recall, not
    # containment (measured: 24/25 on the driver corpus)
    assert jset and len(jset & wset) / len(jset) >= 0.9

    base = (
        "def parse_http_request(stream): return HeaderBlock(stream) "
        "with fallback retry limits and checksum validation logic "
        "for every incoming frame buffer in the queue " * 3
    )
    edited = base.replace("checksum validation", "digest verification", 1)
    boiler = "copyright header license apache version two point zero"
    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "text": pa.array([base, edited, boiler + " alpha", boiler + " beta"]),
        "lang": pa.array(["en"] * 4),
    })
    sf2 = str(tmp_path)
    pq_mod.write_table(docs, f"{sf2}/documents.parquet")
    got = dedup.winnow_dup_pairs(sf2)
    pairs = set(zip(got["a"].to_pylist(), got["b"].to_pylist()))
    assert (1, 2) in pairs  # edit-robust: original pairs with edited copy
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf2}/documents.parquet')")
    orc = con.sql(
        sqlgen.winnow_dup_pairs_sql(
            WINNOW_K, WINNOW_W,
            dedup.WINNOW_DUP_FP_DF_CAP, dedup.WINNOW_DUP_MIN_SHARED,
        )
    ).fetch_arrow_table()
    assert orc.to_pydict() == got.to_pydict()

    # df cap engaged: cap=0 drops every fingerprint -> no pairs, twin agrees
    got0 = dedup.winnow_dup_pairs(sf2, df_cap=0)
    assert got0.num_rows == 0
    orc0 = con.sql(
        sqlgen.winnow_dup_pairs_sql(WINNOW_K, WINNOW_W, 0, dedup.WINNOW_DUP_MIN_SHARED)
    ).fetch_arrow_table()
    assert orc0.num_rows == 0
