"""Session-9 operators: stored-label vs classifier language confusion
matrix, per-source quality rollup, and the power-of-two user-activity
histogram — twin parity at sf0.001 plus hand-built fixtures pinning the
edge semantics each frozen pair relies on (exact bit-length buckets at
power-of-two boundaries, the strict-< curation threshold in exact-int
form, empty-doc 'zh' prediction cells)."""

from __future__ import annotations

import os

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq


def _write_docs(tmp_path, rows):
    t = pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [
                ("doc_id", pa.int64()),
                ("text", pa.string()),
                ("lang", pa.string()),
                ("source", pa.string()),
            ]
        ),
    )
    pq.write_table(t, os.path.join(tmp_path, "documents.parquet"))
    return str(tmp_path)


def _duck_docs(sf):
    con = duckdb.connect()
    con.sql(
        "CREATE VIEW documents AS SELECT * FROM read_parquet("
        f"'{sf}/documents.parquet')"
    )
    return con


def _write_events(tmp_path, rows):
    t = pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [
                ("event_id", pa.int64()),
                ("ts", pa.timestamp("us")),
                ("user_id", pa.int64()),
                ("event_type", pa.string()),
                ("value", pa.float64()),
                ("props", pa.string()),
            ]
        ),
    )
    pq.write_table(t, os.path.join(tmp_path, "events.parquet"))
    return str(tmp_path)


# ---------------------------------------------------------------------------
# lang_confusion
# ---------------------------------------------------------------------------


def test_lang_confusion_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines.textstats import lang_confusion

    got = lang_confusion(sf_dir)
    want = duck.sql(sqlgen.lang_confusion_sql()).fetch_arrow_table()
    assert got.to_pydict() == want.to_pydict()
    rows = got.to_pylist()
    assert rows  # non-degenerate corpus
    n_docs = duck.sql("SELECT count(*) FROM documents").fetchone()[0]
    assert sum(r["n_docs"] for r in rows) == n_docs  # every doc in one cell


def test_lang_confusion_cells_agree_with_lang_id(ray_session, sf_dir):
    """The matrix marginals must equal the frozen classifier's prediction
    counts and the stored-label counts — the confusion matrix is a pure
    regroup of (lang, lang_id) with nothing dropped."""
    import collections

    from smse_backend_ray.pipelines.textstats import lang_confusion, lang_id

    m = lang_confusion(sf_dir).to_pylist()
    preds = lang_id(sf_dir)
    pred_counts = collections.Counter(preds["pred_lang"].to_pylist())
    marg = collections.Counter()
    for r in m:
        marg[r["pred_lang"]] += r["n_docs"]
    assert marg == pred_counts


def test_lang_confusion_empty_doc_predicts_zh(ray_session, tmp_path):
    """Docs with no ASCII subtokens land in the (stored, 'zh') cell on
    BOTH sides (raw-CTE absence <-> n_raw == 0)."""
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines.textstats import lang_confusion

    sf = _write_docs(
        tmp_path,
        [
            {"doc_id": 0, "text": "", "lang": "en", "source": "s"},
            {"doc_id": 1, "text": "你好世界", "lang": "zh", "source": "s"},
            {"doc_id": 2, "text": "the and of the", "lang": "en", "source": "s"},
            {"doc_id": 3, "text": "qqq zzz xxx", "lang": "de", "source": "s"},
        ],
    )
    con = _duck_docs(sf)
    got = lang_confusion(sf)
    want = con.sql(sqlgen.lang_confusion_sql()).fetch_arrow_table()
    assert got.to_pylist() == want.to_pylist()
    cells = {(r["lang"], r["pred_lang"]): r["n_docs"] for r in got.to_pylist()}
    assert cells[("en", "zh")] == 1  # empty text
    assert cells[("zh", "zh")] == 1  # non-ASCII text
    assert cells[("en", "en")] == 1
    assert cells[("de", "unknown")] == 1  # tokens, zero marker hits


# ---------------------------------------------------------------------------
# quality_by_source
# ---------------------------------------------------------------------------


def test_quality_by_source_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines.textstats import quality_by_source

    got = quality_by_source(sf_dir)
    want = duck.sql(sqlgen.quality_by_source_sql()).fetch_arrow_table()
    assert got.to_pydict() == want.to_pydict()
    rows = got.to_pylist()
    assert rows
    n_docs = duck.sql("SELECT count(*) FROM documents").fetchone()[0]
    assert sum(r["n_docs"] for r in rows) == n_docs
    for r in rows:
        assert 0.0 <= r["mean_quality"] <= 1.0
        assert 0 <= r["n_low"] <= r["n_docs"]


def test_quality_by_source_threshold_is_strict(ray_session, tmp_path):
    """A doc whose ROUNDED quality equals CURATE_MIN_QUALITY exactly is
    NOT counted low (strict < in the exact-int domain): 50 raw subtokens
    with 25 stopword hits -> quality = round(0.3*0.5 + 0.7*0.5, 4) = 0.5
    = the bar. Empty docs (quality 0) are low."""
    from smse_backend_ray import config
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines.textstats import quality_batch, quality_by_source

    assert config.CURATE_MIN_QUALITY == 0.5  # fixture is built for this bar
    at_bar = " ".join(["and"] * 25 + ["zz"] * 25)
    sf = _write_docs(
        tmp_path,
        [
            {"doc_id": 0, "text": at_bar, "lang": "en", "source": "a"},
            {"doc_id": 1, "text": "", "lang": "en", "source": "a"},
            {"doc_id": 2, "text": " ".join(["zz"] * 100), "lang": "en", "source": "b"},
        ],
    )
    q = quality_batch(
        pa.table({"doc_id": pa.array([0], type=pa.int64()), "text": [at_bar]})
    )
    assert q["quality"].to_pylist() == [0.5]  # fixture really sits on the bar
    con = _duck_docs(sf)
    got = quality_by_source(sf)
    want = con.sql(sqlgen.quality_by_source_sql()).fetch_arrow_table()
    assert got.to_pylist() == want.to_pylist()
    by_src = {r["source"]: r for r in got.to_pylist()}
    assert by_src["a"]["n_low"] == 1  # only the empty doc; 0.5 is not < 0.5
    assert by_src["a"]["mean_quality"] == 0.25  # (0.5 + 0.0) / 2
    assert by_src["b"]["n_low"] == 0
    assert by_src["b"]["mean_quality"] == 0.7  # min(100,100)/100 * 0.7


def test_quality_zscore_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines.textstats import quality_zscore

    got = quality_zscore(sf_dir)
    want = duck.sql(sqlgen.quality_zscore_sql()).fetch_arrow_table()
    assert got.to_pydict() == want.to_pydict()
    assert got.num_rows == duck.sql("SELECT count(*) FROM documents").fetchone()[0]


def test_quality_zscore_degenerate_sources(ray_session, tmp_path):
    """Constant-quality and single-doc sources freeze z = 0.0 (var <= 0
    rule) on BOTH sides; a two-doc source standardizes to +/-1."""
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines.textstats import quality_zscore

    t100 = " ".join(["zz"] * 100)  # quality 0.7
    sf = _write_docs(
        tmp_path,
        [
            # source a: identical docs -> var 0 -> z 0.0
            {"doc_id": 0, "text": t100, "lang": "en", "source": "a"},
            {"doc_id": 1, "text": t100, "lang": "en", "source": "a"},
            # source b: single doc -> var 0 -> z 0.0
            {"doc_id": 2, "text": "", "lang": "en", "source": "b"},
            # source c: two distinct docs -> z = -1, +1
            {"doc_id": 3, "text": "", "lang": "en", "source": "c"},
            {"doc_id": 4, "text": t100, "lang": "en", "source": "c"},
        ],
    )
    con = _duck_docs(sf)
    got = quality_zscore(sf)
    want = con.sql(sqlgen.quality_zscore_sql()).fetch_arrow_table()
    assert got.to_pylist() == want.to_pylist()
    z = {r["doc_id"]: r["quality_z"] for r in got.to_pylist()}
    assert z[0] == 0.0 and z[1] == 0.0 and z[2] == 0.0
    assert z[3] == -1.0 and z[4] == 1.0


# ---------------------------------------------------------------------------
# containment_pairs
# ---------------------------------------------------------------------------


def test_containment_pairs_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines import dedup

    got = dedup.containment_pairs(sf_dir)
    want = duck.sql(
        sqlgen.containment_pairs_sql(
            dedup.CONTAIN_THRESHOLD, dedup.SHINGLE_K,
            dedup.JACCARD_SHINGLE_DF_CAP,
        )
    ).fetch_arrow_table()
    assert got.to_pydict() == want.to_pydict()
    for r in got.to_pylist():
        assert r["a"] < r["b"]
        assert r["containment"] >= dedup.CONTAIN_THRESHOLD


def test_containment_catches_subset_jaccard_misses(ray_session, tmp_path):
    """The operator's reason to exist: a short doc fully embedded in a much
    longer one has containment 1.0 but Jaccard << threshold — the pair
    must appear in containment_pairs and NOT in jaccard_pairs."""
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines import dedup

    short = "alpha beta gamma delta epsilon zeta"
    filler = " ".join(f"w{i} x{i} y{i}" for i in range(40))
    long_doc = short + " " + filler
    sf = _write_docs(
        tmp_path,
        [
            {"doc_id": 1, "text": short, "lang": "en", "source": "s"},
            {"doc_id": 2, "text": long_doc, "lang": "en", "source": "s"},
            {"doc_id": 3, "text": "totally unrelated words here now", "lang": "en", "source": "s"},
        ],
    )
    cont = dedup.containment_pairs(sf)
    jac = dedup.jaccard_pairs(sf)
    cpairs = {(r["a"], r["b"]): r["containment"] for r in cont.to_pylist()}
    assert cpairs.get((1, 2)) == 1.0  # every shingle of 1 is in 2
    assert (1, 2) not in {(r["a"], r["b"]) for r in jac.to_pylist()}
    # twin parity on the fixture too
    con = _duck_docs(sf)
    want = con.sql(
        sqlgen.containment_pairs_sql(
            dedup.CONTAIN_THRESHOLD, dedup.SHINGLE_K,
            dedup.JACCARD_SHINGLE_DF_CAP,
        )
    ).fetch_arrow_table()
    assert cont.to_pylist() == want.to_pylist()


def test_shared_candidates_evicted_once_both_scored(ray_session, tmp_path, monkeypatch):
    """The candidate tables jaccard_pairs and containment_pairs share stay
    cached only until both have cached their scored tables; repeat calls
    then come from the scored caches, unchanged."""
    from smse_backend_ray.pipelines import dedup

    monkeypatch.setattr(dedup, "_MEMO", {})
    sf = _write_docs(
        tmp_path,
        [
            {"doc_id": i, "text": "alpha beta gamma delta epsilon " + "w" * i, "lang": "en", "source": "s"}
            for i in range(4)
        ],
    )
    jac = dedup.jaccard_pairs(sf)
    assert "cand" in dedup._MEMO  # containment has not run yet
    cont = dedup.containment_pairs(sf)
    assert "cand" not in dedup._MEMO
    assert jac.num_rows and cont.num_rows
    assert dedup.jaccard_pairs(sf).equals(jac)
    assert dedup.containment_pairs(sf).equals(cont)
    assert "cand" not in dedup._MEMO


def test_module_caches_keep_latest_entry(ray_session, sf_dir, tmp_path, monkeypatch):
    """The memoized dedup pair tables and IVF layouts keep ONE entry, the
    latest key: a process that walks several thresholds or sf dirs does
    not pin one table (or layout) per key it has seen."""
    import shutil

    from smse_backend_ray.pipelines import dedup, simsearch

    monkeypatch.setattr(dedup, "_MEMO", {})
    monkeypatch.setattr(simsearch, "_IVF_CACHE", {})
    sf = _write_docs(
        tmp_path,
        [
            {"doc_id": i, "text": "alpha beta gamma delta epsilon " + "w" * i, "lang": "en", "source": "s"}
            for i in range(4)
        ],
    )
    for thr in (0.5, 0.6):
        jac = dedup.jaccard_pairs(sf, threshold=thr)
        cont = dedup.containment_pairs(sf, threshold=thr)
        assert dedup._MEMO["jaccard"][0][1] == dedup._MEMO["containment"][0][1] == thr
    # the latest entry still answers its repeat call
    assert dedup.jaccard_pairs(sf, threshold=0.6).equals(jac)
    assert dedup.containment_pairs(sf, threshold=0.6).equals(cont)

    other = tmp_path / "emb_copy"
    other.mkdir()
    shutil.copy(f"{sf_dir}/embeddings.parquet", other / "embeddings.parquet")
    for i, d in enumerate((sf_dir, str(other))):
        simsearch.build_ivf_index(d, out_dir=str(tmp_path / f"ivf{i}"), n_clusters=4)
        assert len(simsearch._IVF_CACHE) == 1


def test_jaccard_alone_keeps_one_candidate_entry(ray_session, tmp_path, monkeypatch):
    """jaccard_pairs without containment_pairs never releases the shared
    candidate tables, so walking several df caps must still keep ONE
    candidate entry (each pins materialized object-store blocks), and the
    latest cap's repeat call is a memo hit."""
    from smse_backend_ray.pipelines import dedup

    monkeypatch.setattr(dedup, "_MEMO", {})
    sf = _write_docs(
        tmp_path,
        [
            {"doc_id": i, "text": "alpha beta gamma delta epsilon " + "w" * i, "lang": "en", "source": "s"}
            for i in range(4)
        ],
    )
    for cap in (2, 3, 50):
        last = dedup.jaccard_pairs(sf, df_cap=cap)
    # one candidate slot, holding the latest cap only
    assert [k for k in dedup._MEMO if k == "cand"] == ["cand"]
    assert dedup._MEMO["cand"][0][1] == 50

    def boom(*a, **k):
        raise AssertionError("candidate pass re-run on a memo hit")

    monkeypatch.setattr(dedup, "_shingle_inter_sizes", boom)
    assert dedup.jaccard_pairs(sf, df_cap=50).equals(last)


# ---------------------------------------------------------------------------
# bigram_logprob
# ---------------------------------------------------------------------------


def test_bigram_logprob_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines.textstats import bigram_logprob

    got = bigram_logprob(sf_dir)
    want = duck.sql(sqlgen.bigram_logprob_sql()).fetch_arrow_table()
    assert got.to_pydict() == want.to_pydict()
    assert got.num_rows == duck.sql("SELECT count(*) FROM documents").fetchone()[0]
    for r in got.to_pylist():
        assert r["avg_logprob"] <= 0.0  # ln p <= 0 always


def test_bigram_logprob_hand_fixture(ray_session, tmp_path):
    """Known tiny LM: corpus bigram counts (xx,yy)=2 (yy,xx)=2 (xx,zz)=1,
    contexts xx->3 yy->2; short docs (< 2 kept tokens) freeze (0, 0.0)."""
    import math

    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.functions.rounding import round_half_away
    from smse_backend_ray.pipelines.textstats import bigram_logprob

    sf = _write_docs(
        tmp_path,
        [
            {"doc_id": 0, "text": "", "lang": "en", "source": "s"},
            {"doc_id": 1, "text": "foo", "lang": "en", "source": "s"},
            {"doc_id": 2, "text": "xx yy xx yy xx", "lang": "en", "source": "s"},
            {"doc_id": 3, "text": "xx zz", "lang": "en", "source": "s"},
        ],
    )
    con = _duck_docs(sf)
    got = bigram_logprob(sf)
    want = con.sql(sqlgen.bigram_logprob_sql()).fetch_arrow_table()
    assert got.to_pylist() == want.to_pylist()
    rows = {r["doc_id"]: r for r in got.to_pylist()}
    assert rows[0] == {"doc_id": 0, "n_bigrams": 0, "avg_logprob": 0.0}
    assert rows[1]["n_bigrams"] == 0 and rows[1]["avg_logprob"] == 0.0
    # d2: 2*ln(2/3) + 2*ln(2/2) over 4 bigrams
    assert rows[2]["n_bigrams"] == 4
    assert rows[2]["avg_logprob"] == round_half_away(
        (2 * math.log(2.0 / 3.0)) / 4.0, 4
    )
    # d3: ln(1/3) over 1 bigram
    assert rows[3]["avg_logprob"] == round_half_away(math.log(1.0 / 3.0), 4)
    # diagnostic property: the repetitive doc is more "fluent" under the
    # corpus LM than the rare-bigram doc
    assert rows[2]["avg_logprob"] > rows[3]["avg_logprob"]


# ---------------------------------------------------------------------------
# dup_rate_by_source
# ---------------------------------------------------------------------------


def test_dup_rate_by_source_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines import dedup

    got = dedup.dup_rate_by_source(sf_dir)
    want = duck.sql(
        sqlgen.dup_rate_by_source_sql(
            dedup.JACCARD_THRESHOLD, dedup.SHINGLE_K,
            dedup.JACCARD_SHINGLE_DF_CAP,
        )
    ).fetch_arrow_table()
    assert got.to_pydict() == want.to_pydict()
    n_pairs = dedup.jaccard_pairs(sf_dir).num_rows
    assert sum(r["n_pairs"] for r in got.to_pylist()) == n_pairs
    for r in got.to_pylist():
        assert r["source_a"] <= r["source_b"]  # unordered-pair normal form


def test_dup_rate_by_source_cross_source_fixture(ray_session, tmp_path):
    """A doc duplicated across two sources lands in the (min, max) cell
    regardless of which doc_id carries which source."""
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines import dedup

    text = "alpha beta gamma delta epsilon zeta eta theta"
    sf = _write_docs(
        tmp_path,
        [
            {"doc_id": 1, "text": text, "lang": "en", "source": "zz_mirror"},
            {"doc_id": 2, "text": text, "lang": "en", "source": "aa_origin"},
            {"doc_id": 3, "text": text, "lang": "en", "source": "aa_origin"},
            {"doc_id": 4, "text": "unrelated words entirely here", "lang": "en",
             "source": "aa_origin"},
        ],
    )
    con = _duck_docs(sf)
    got = dedup.dup_rate_by_source(sf)
    want = con.sql(
        sqlgen.dup_rate_by_source_sql(
            dedup.JACCARD_THRESHOLD, dedup.SHINGLE_K,
            dedup.JACCARD_SHINGLE_DF_CAP,
        )
    ).fetch_arrow_table()
    assert got.to_pylist() == want.to_pylist()
    cells = {(r["source_a"], r["source_b"]): r["n_pairs"] for r in got.to_pylist()}
    assert cells[("aa_origin", "zz_mirror")] == 2  # (1,2), (1,3)
    assert cells[("aa_origin", "aa_origin")] == 1  # (2,3)


# ---------------------------------------------------------------------------
# top_terms_per_lang
# ---------------------------------------------------------------------------


def test_top_terms_per_lang_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray import config
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines.textstats import top_terms_per_lang

    got = top_terms_per_lang(sf_dir)
    want = duck.sql(sqlgen.top_terms_per_lang_sql()).fetch_arrow_table()
    assert got.to_pydict() == want.to_pydict()
    per_lang: dict[str, list] = {}
    for r in got.to_pylist():
        per_lang.setdefault(r["lang"], []).append(r)
    for rows in per_lang.values():
        assert len(rows) <= config.TOP_TERMS_PER_LANG_K
        assert [r["rank"] for r in rows] == list(range(1, len(rows) + 1))
        # frozen total order within a lang: tf DESC, term ASC
        keys = [(-r["tf"], r["term"]) for r in rows]
        assert keys == sorted(keys)


def test_top_terms_per_lang_tie_and_cap(ray_session, tmp_path):
    """tf ties break term-ASC; a lang with fewer distinct terms than K
    emits them all; counts are occurrences (not doc counts)."""
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines.textstats import top_terms_per_lang

    sf = _write_docs(
        tmp_path,
        [
            {"doc_id": 1, "text": "bb aa bb cc", "lang": "en", "source": "s"},
            {"doc_id": 2, "text": "aa cc", "lang": "en", "source": "s"},
            {"doc_id": 3, "text": "zz", "lang": "de", "source": "s"},
        ],
    )
    con = _duck_docs(sf)
    got = top_terms_per_lang(sf)
    want = con.sql(sqlgen.top_terms_per_lang_sql()).fetch_arrow_table()
    assert got.to_pylist() == want.to_pylist()
    en = [r for r in got.to_pylist() if r["lang"] == "en"]
    # tf: aa=2, bb=2, cc=2 -> tie broken term-ASC
    assert [(r["term"], r["tf"], r["rank"]) for r in en] == [
        ("aa", 2, 1), ("bb", 2, 2), ("cc", 2, 3)
    ]
    de = [r for r in got.to_pylist() if r["lang"] == "de"]
    assert de == [{"lang": "de", "term": "zz", "tf": 1, "rank": 1}]


# ---------------------------------------------------------------------------
# vocab_growth
# ---------------------------------------------------------------------------


def test_vocab_growth_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines.textstats import vocab_growth

    got = vocab_growth(sf_dir)
    want = duck.sql(sqlgen.vocab_growth_sql()).fetch_arrow_table()
    assert got.to_pydict() == want.to_pydict()
    rows = got.to_pylist()
    # monotone non-decreasing curve; pct=100 is the full vocabulary
    for a, b in zip(rows, rows[1:]):
        assert a["vocab"] <= b["vocab"]
        assert a["n_prefix_docs"] <= b["n_prefix_docs"]
    full_vocab = duck.sql(
        "SELECT count(DISTINCT term) FROM ("
        + sqlgen._doc_kept_tokens() + ")"
    ).fetchone()[0]
    assert rows[-1]["pct"] == 100
    assert rows[-1]["vocab"] == full_vocab


def test_vocab_growth_integer_ceil_boundary(ray_session, tmp_path):
    """k = (pct*N + 99) // 100 exact-int ceil: N=3 with pct=10 gives k=1
    (a float 0.1*3 ceil could flap); the shuffle-order prefix decides
    which doc's terms count at each grid point — twin-exact on a corpus
    where every doc has disjoint vocab."""
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines.sampling import doc_shuffle
    from smse_backend_ray.pipelines.textstats import vocab_growth

    sf = _write_docs(
        tmp_path,
        [
            {"doc_id": 1, "text": "aa bb cc", "lang": "en", "source": "s"},
            {"doc_id": 2, "text": "dd ee", "lang": "en", "source": "s"},
            {"doc_id": 3, "text": "ff", "lang": "en", "source": "s"},
        ],
    )
    con = _duck_docs(sf)
    got = vocab_growth(sf)
    want = con.sql(sqlgen.vocab_growth_sql()).fetch_arrow_table()
    assert got.to_pylist() == want.to_pylist()
    rows = {r["pct"]: r for r in got.to_pylist()}
    assert rows[10]["n_prefix_docs"] == 1   # ceil(0.3) = 1
    assert rows[50]["n_prefix_docs"] == 2   # ceil(1.5) = 2
    assert rows[100]["n_prefix_docs"] == 3
    assert rows[100]["vocab"] == 6
    # the pct=10 vocab is exactly the first shuffled doc's term count
    first = doc_shuffle(sf).to_pylist()[0]["doc_id"]
    sizes = {1: 3, 2: 2, 3: 1}
    assert rows[10]["vocab"] == sizes[first]


# ---------------------------------------------------------------------------
# dedup_impact
# ---------------------------------------------------------------------------


def test_dedup_impact_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines import dedup

    got = dedup.dedup_impact(sf_dir)
    want = duck.sql(
        sqlgen.dedup_impact_sql(
            dedup.JACCARD_THRESHOLD, dedup.SHINGLE_K,
            dedup.JACCARD_SHINGLE_DF_CAP,
        )
    ).fetch_arrow_table()
    assert got.to_pydict() == want.to_pydict()
    r = got.to_pylist()[0]
    # consistency with the keep-list entry itself
    assert r["n_survivors"] == dedup.dedup_survivors(sf_dir).num_rows
    assert 0 < r["n_survivors"] <= r["n_docs"]
    assert 0 < r["n_subtokens_surviving"] <= r["n_subtokens"]


def test_dedup_impact_fixture(ray_session, tmp_path):
    """Three identical docs + one unique: keep-list keeps the min doc_id
    of the cluster, so docs 2/3 (and exactly their subtokens) drop."""
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines import dedup

    text = "alpha beta gamma delta epsilon zeta"
    sf = _write_docs(
        tmp_path,
        [
            {"doc_id": 1, "text": text, "lang": "en", "source": "s"},
            {"doc_id": 2, "text": text, "lang": "en", "source": "s"},
            {"doc_id": 3, "text": text, "lang": "en", "source": "s"},
            {"doc_id": 4, "text": "unrelated words here", "lang": "en",
             "source": "s"},
        ],
    )
    con = _duck_docs(sf)
    got = dedup.dedup_impact(sf)
    want = con.sql(
        sqlgen.dedup_impact_sql(
            dedup.JACCARD_THRESHOLD, dedup.SHINGLE_K,
            dedup.JACCARD_SHINGLE_DF_CAP,
        )
    ).fetch_arrow_table()
    assert got.to_pylist() == want.to_pylist()
    r = got.to_pylist()[0]
    assert r["n_docs"] == 4 and r["n_survivors"] == 2
    assert r["n_subtokens"] == 6 + 6 + 6 + 3
    assert r["n_subtokens_surviving"] == 6 + 3
    assert r["doc_keep_rate"] == 0.5
    assert r["token_keep_rate"] == 0.4286  # 9/21 round4


# ---------------------------------------------------------------------------
# user_activity_histogram
# ---------------------------------------------------------------------------


def test_user_activity_histogram_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.pipelines.events import (
        user_activity_histogram,
        user_activity_histogram_sql,
    )

    got = user_activity_histogram(sf_dir)
    want = duck.sql(user_activity_histogram_sql()).fetch_arrow_table()
    assert got.to_pydict() == want.to_pydict()
    rows = got.to_pylist()
    assert rows
    n_events = duck.sql("SELECT count(*) FROM events").fetchone()[0]
    n_users = duck.sql("SELECT count(DISTINCT user_id) FROM events").fetchone()[0]
    assert sum(r["n_events"] for r in rows) == n_events
    assert sum(r["n_users"] for r in rows) == n_users


def test_weekly_active_users_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.pipelines.events import (
        weekly_active_users,
        weekly_active_users_sql,
    )

    got = weekly_active_users(sf_dir)
    want = duck.sql(weekly_active_users_sql()).fetch_arrow_table()
    assert got.to_pydict() == want.cast(got.schema).to_pydict()
    for r in got.to_pylist():
        assert 1 <= r["wau"] <= r["mau"]
        assert 0.0 < r["stickiness"] <= 1.0


def test_weekly_active_users_window_fixture(ray_session, tmp_path):
    """Trailing-4-week MAU and the ISO-Monday week boundary: a Sunday
    23:59 event and a Monday 00:00 event one minute later land in
    DIFFERENT weeks; a user active in week w still counts toward mau of
    w+3 but not w+4."""
    import datetime

    from smse_backend_ray.pipelines.events import (
        weekly_active_users,
        weekly_active_users_sql,
    )

    mon = datetime.datetime(2024, 1, 1)  # a Monday
    wk = datetime.timedelta(days=7)
    rows = [
        # user 1: Sunday 23:59 of week0 (still week0), user 2: Monday 00:00
        # of week1 — one minute later, different week
        {"event_id": 0, "ts": mon + wk - datetime.timedelta(minutes=1),
         "user_id": 1, "event_type": "click", "value": 1.0, "props": "{}"},
        {"event_id": 1, "ts": mon + wk,
         "user_id": 2, "event_type": "click", "value": 1.0, "props": "{}"},
        # user 1 again in week 3 (within 4-week window of week 0? w3 window
        # covers w0..w3) and user 3 only in week 4
        {"event_id": 2, "ts": mon + 3 * wk,
         "user_id": 1, "event_type": "click", "value": 1.0, "props": "{}"},
        {"event_id": 3, "ts": mon + 4 * wk,
         "user_id": 3, "event_type": "click", "value": 1.0, "props": "{}"},
    ]
    sf = _write_events(tmp_path, rows)
    con = duckdb.connect()
    con.sql(
        "CREATE VIEW events AS SELECT * FROM read_parquet("
        f"'{sf}/events.parquet')"
    )
    got = weekly_active_users(sf)
    want = con.sql(weekly_active_users_sql()).fetch_arrow_table()
    assert got.to_pydict() == want.cast(got.schema).to_pydict()
    by_week = {r["week"].date(): r for r in got.to_pylist()}
    d = datetime.date
    assert by_week[d(2024, 1, 1)] == {
        "week": datetime.datetime(2024, 1, 1), "wau": 1, "mau": 1,
        "stickiness": 1.0,
    }
    # week1: wau = {u2}; mau = {u1 (w0), u2}
    assert by_week[d(2024, 1, 8)]["wau"] == 1
    assert by_week[d(2024, 1, 8)]["mau"] == 2
    # week3: wau = {u1}; mau window w0..w3 = {u1, u2}
    assert by_week[d(2024, 1, 22)]["mau"] == 2
    # week4: wau = {u3}; mau window w1..w4 = {u1 (w3), u2 (w1), u3} — u1's
    # week-0 activity has aged out but week-3 hasn't
    assert by_week[d(2024, 1, 29)]["mau"] == 3
    assert by_week[d(2024, 1, 29)]["stickiness"] == 0.3333


def test_event_gap_quantiles_matches_sql(ray_session, sf_dir, duck):
    from smse_backend_ray.pipelines.events import (
        event_gap_quantiles,
        event_gap_quantiles_sql,
    )

    got = event_gap_quantiles(sf_dir)
    want = duck.sql(event_gap_quantiles_sql()).fetch_arrow_table()
    assert got.to_pydict() == want.to_pydict()
    for r in got.to_pylist():
        assert r["p25"] <= r["p50"] <= r["p75"] <= r["p90"]
        assert r["p25"] >= 0.0


def test_event_gap_quantiles_stream_isolation(ray_session, tmp_path):
    """Gaps never cross user or type boundaries: interleaved streams with
    known gaps — user 1 'a' events 10s apart, user 1 'b' events 100s
    apart, user 2 'a' events 7s apart — yield exactly those per-type gap
    populations (tied timestamps break by event_id)."""
    import datetime

    from smse_backend_ray.pipelines.events import (
        event_gap_quantiles,
        event_gap_quantiles_sql,
    )

    t0 = datetime.datetime(2024, 3, 1)
    rows, eid = [], 0

    def add(uid, typ, offsets):
        nonlocal eid
        for o in offsets:
            rows.append(
                {"event_id": eid, "ts": t0 + datetime.timedelta(seconds=o),
                 "user_id": uid, "event_type": typ, "value": 1.0,
                 "props": "{}"}
            )
            eid += 1

    add(1, "a", [0, 10, 20, 30])      # gaps 10, 10, 10
    add(1, "b", [0, 100, 200])        # gaps 100, 100
    add(2, "a", [5, 12, 19])          # gaps 7, 7
    sf = _write_events(tmp_path, rows)
    con = duckdb.connect()
    con.sql(
        "CREATE VIEW events AS SELECT * FROM read_parquet("
        f"'{sf}/events.parquet')"
    )
    got = event_gap_quantiles(sf)
    want = con.sql(event_gap_quantiles_sql()).fetch_arrow_table()
    assert got.to_pydict() == want.to_pydict()
    by_type = {r["event_type"]: r for r in got.to_pylist()}
    # type a gaps: [7, 7, 10, 10, 10] -> p50 = 10.0, p25 = 7.0
    assert by_type["a"]["n_gaps"] == 5
    assert by_type["a"]["p50"] == 10.0
    assert by_type["a"]["p25"] == 7.0
    # type b gaps: [100, 100]
    assert by_type["b"]["n_gaps"] == 2
    assert by_type["b"]["p50"] == 100.0


def test_session9_ops_bucket_invariant(ray_session, sf_dir, monkeypatch):
    """Partition invariance for the session-9 distributed operators:
    every per-user / per-doc group lives entirely inside one hash
    bucket, so forcing the exchange to 1 or 97 buckets must reproduce
    identical tables (the repo's standard containment pin)."""
    from smse_backend_ray.functions import joins
    from smse_backend_ray.pipelines import events, textstats

    base = {
        "hist": events.user_activity_histogram(sf_dir),
        "wau": events.weekly_active_users(sf_dir),
        "gaps": events.event_gap_quantiles(sf_dir),
        "bigram": textstats.bigram_logprob(sf_dir),
    }
    for forced in (1, 97):
        monkeypatch.setattr(joins, "cpu_scaled_buckets", lambda *a, **k: forced)
        monkeypatch.setattr(textstats, "_doc_buckets", lambda *a, **k: forced)
        assert events.user_activity_histogram(sf_dir).equals(base["hist"])
        assert events.weekly_active_users(sf_dir).equals(base["wau"])
        assert events.event_gap_quantiles(sf_dir).equals(base["gaps"])
        assert textstats.bigram_logprob(sf_dir).equals(base["bigram"])


def test_user_activity_histogram_power_of_two_edges(ray_session, tmp_path):
    """Exact bit-length bucketing at the boundaries: counts 1,2,3,4,7,8
    land in buckets 0,1,1,2,2,3 on BOTH sides (no float log anywhere —
    frexp exponent <-> length(bin(n)))."""
    import datetime

    from smse_backend_ray.pipelines.events import (
        user_activity_histogram,
        user_activity_histogram_sql,
    )

    t0 = datetime.datetime(2024, 1, 1)
    rows, eid = [], 0
    for uid, n in enumerate([1, 2, 3, 4, 7, 8]):
        for j in range(n):
            rows.append(
                {
                    "event_id": eid,
                    "ts": t0 + datetime.timedelta(minutes=eid),
                    "user_id": uid,
                    "event_type": "click",
                    "value": 1.0,
                    "props": "{}",
                }
            )
            eid += 1
    sf = _write_events(tmp_path, rows)
    con = duckdb.connect()
    con.sql(
        "CREATE VIEW events AS SELECT * FROM read_parquet("
        f"'{sf}/events.parquet')"
    )
    got = user_activity_histogram(sf)
    want = con.sql(user_activity_histogram_sql()).fetch_arrow_table()
    assert got.to_pylist() == want.to_pylist()
    by_bucket = {r["bucket"]: r for r in got.to_pylist()}
    assert by_bucket[0] == {"bucket": 0, "lo_events": 1, "n_users": 1, "n_events": 1}
    assert by_bucket[1] == {"bucket": 1, "lo_events": 2, "n_users": 2, "n_events": 5}
    assert by_bucket[2] == {"bucket": 2, "lo_events": 4, "n_users": 2, "n_events": 11}
    assert by_bucket[3] == {"bucket": 3, "lo_events": 8, "n_users": 1, "n_events": 8}


def test_dedup_impact_df_cap_matches_sql(ray_session, tmp_path):
    """A df_cap below the shared shingles' df drops every shingle the three
    copies share: no pair survives and nothing is removed — on both twins."""
    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines import dedup

    text = "alpha beta gamma delta epsilon zeta"
    sf = _write_docs(
        tmp_path,
        [
            {"doc_id": i, "text": text, "lang": "en", "source": "s"}
            for i in (1, 2, 3)
        ],
    )
    con = _duck_docs(sf)
    got = dedup.dedup_impact(sf, df_cap=2)
    want = con.sql(
        sqlgen.dedup_impact_sql(dedup.JACCARD_THRESHOLD, dedup.SHINGLE_K, 2)
    ).fetch_arrow_table()
    assert got.to_pylist() == want.to_pylist()
    assert got.to_pylist()[0]["n_survivors"] == 3
