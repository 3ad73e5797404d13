"""Fuzzy term suggestion (pipelines/suggest.py): the edit neighborhood
covers exactly the lev<=1 terms, suggestions equal brute-force lev<=1 over
the manifest's df table, and they follow appends and compactions."""

from __future__ import annotations

import shutil

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smse_backend_ray.config import MAX_TOKEN_LEN, SUGGEST_TOP, EngineConfig
from smse_backend_ray.pipelines.suggest import edits1, suggest
from smse_backend_ray.state.catalog import Catalog

VOCAB = ["hash", "hashes", "cash", "dash", "table", "tables", "cable",
         "merge", "merges", "verge", "sort", "sorts", "fort", "alpha"]


def _ref_lev(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _vocab(idx) -> dict[str, int]:
    t = Catalog(idx).dataset("df").to_table(columns=["term", "df"])
    return dict(zip(t["term"].to_pylist(), t["df"].to_pylist()))


def _check_bruteforce(idx, queries) -> None:
    """suggest == brute-force lev<=1 over the UTF-8 bytes of the query and
    the terms of the current df table (DuckDB's levenshtein counts bytes),
    ranked (lev, -df, term) and cut at SUGGEST_TOP."""
    vocab = _vocab(idx)
    got = suggest(idx, queries)
    assert got.schema.names == ["query_id", "rank", "term", "df", "lev"]
    rows = got.to_pylist()
    for qid, q in queries:
        exp = sorted(
            (lev, -d, t)
            for t, d in vocab.items()
            for lev in [_ref_lev(q.lower().encode(), t.encode())]
            if lev <= 1
        )[:SUGGEST_TOP]
        n = len(exp)
        g, rows = rows[:n], rows[n:]
        assert [(r["query_id"], r["rank"]) for r in g] == [(qid, r) for r in range(1, n + 1)]
        assert [(r["lev"], -r["df"], r["term"]) for r in g] == exp, (qid, q)
    assert rows == []


def _doc(i: int, content: str) -> dict:
    return {"repo": f"src{i % 3}", "path": f"d/{i:04d}.txt", "commit": f"c{i}",
            "lang": "en", "content": content}


def _build(idx: str, rows: list[dict]) -> None:
    import ray.data

    from smse_backend_ray.pipelines.build import build_index

    shutil.rmtree(idx, ignore_errors=True)
    build_index(corpus=ray.data.from_arrow(pa.Table.from_pylist(rows)), index_dir=idx,
                cfg=EngineConfig(n_shards=2))


@pytest.fixture(scope="module")
def suggest_idx(ray_session, tmp_path_factory):
    import numpy as np

    rng = np.random.default_rng(5)
    idx = str(tmp_path_factory.mktemp("suggestidx"))
    _build(idx, [_doc(i, " ".join(rng.choice(VOCAB, size=int(rng.integers(3, 25)))))
                 for i in range(80)])
    return idx


_TERM = st.text(alphabet="ab9", min_size=1, max_size=MAX_TOKEN_LEN)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab9Z-", max_size=MAX_TOKEN_LEN + 3), st.lists(_TERM, max_size=8))
def test_edits1_covers_exactly_lev_le1(q, terms):
    terms.append(q.lower()[1:MAX_TOKEN_LEN + 1] or "a")  # a likely neighbor
    e = edits1(q.lower())
    for t in terms:
        assert (t in e) == (_ref_lev(q.lower(), t) <= 1), (q, t)


def test_suggest_equals_bruteforce(suggest_idx):
    queries = [(0, "hash"), (1, "hasj"), (2, "tabel"), (3, "mergee"),
               (4, "ort"), (5, "zzz"), (6, "ASH"), (7, ""), (8, "so-t"),
               (9, "x" * (MAX_TOKEN_LEN + 2)), (10, "Sorts"), (7, "hash")]
    _check_bruteforce(suggest_idx, queries)
    assert suggest(suggest_idx, []).num_rows == 0


def test_suggest_equals_sql_twin_on_non_ascii(ray_session, tmp_path):
    """DuckDB's levenshtein (sqlgen.suggest_sql) counts UTF-8 bytes: 'hashé'
    is 2 edits from 'hash' and 'İ' (lowercased 'i' + U+0307) 2 from 'ix',
    so neither is suggested; ASCII queries rank as before."""
    import duckdb
    import pyarrow.parquet as pq

    from smse_backend_ray.functions import sqlgen
    from smse_backend_ray.pipelines.build import build_index
    from smse_backend_ray.sources.corpus import corpus_from_documents

    texts = ["hash ix table", "hash hashes ex", "ix tables cable", "hash ab"]
    pq.write_table(pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": texts,
                             "lang": ["en"] * len(texts), "source": ["s"] * len(texts)}),
                   tmp_path / "documents.parquet")
    idx = str(tmp_path / "idx")
    build_index(corpus=corpus_from_documents(str(tmp_path)), index_dir=idx,
                cfg=EngineConfig(n_shards=2))
    queries = [(0, "hashé"), (1, "İ"), (2, "é"), (3, "hasj"), (4, "IX"), (5, "tabl"),
               (6, "éx"), (7, "hash")]
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')")
    want = con.sql(sqlgen.suggest_sql(queries)).arrow()
    got = suggest(idx, queries)
    assert got.to_pylist() == want.to_pylist()
    assert {r["query_id"] for r in got.to_pylist()} == {3, 4, 5, 7}


def _near_miss(word: str, i: int, c: str) -> str:
    j = i % (len(word) + 1)
    return [word[:j] + c + word[j:],            # insert
            word[:j] + word[j + 1:],            # delete
            word[:j] + c + word[j + 1:]][i % 3]  # substitute


_QUERY = st.one_of(
    st.builds(_near_miss, st.sampled_from(VOCAB), st.integers(0, 8),
              st.sampled_from("aeHS9-é")),
    st.text(max_size=8),
    st.text(alphabet="abcHS", min_size=MAX_TOKEN_LEN, max_size=MAX_TOKEN_LEN + 4),
    st.sampled_from(VOCAB).map(str.upper),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_QUERY, min_size=1, max_size=8))
def test_suggest_equals_bruteforce_random(suggest_idx, texts):
    _check_bruteforce(suggest_idx, list(enumerate(texts)))


def test_suggest_follows_appends_and_compaction(ray_session, tmp_path):
    """Suggestions read the df table the manifest lists: a term that only
    appended docs contain is suggested with its new df, and a term whose
    only doc was vacuumed is gone."""
    import ray.data

    from smse_backend_ray.pipelines.build import append_index, compact_index
    from smse_backend_ray.pipelines.search import SearchEngine
    from smse_backend_ray.sources.corpus import doc_id_from_key

    idx = str(tmp_path / "idx")
    base = [_doc(i, f"{VOCAB[i % len(VOCAB)]} sort merge") for i in range(20)]
    base.append(_doc(20, "qwzvlonely sort"))
    _build(idx, base)
    queries = [(1, "zqxjvwor"), (2, "qwzvlonel"), (3, "sortt")]
    assert [r["term"] for r in suggest(idx, queries[:1]).to_pylist()] == []

    new = [_doc(i, "zqxjvword hash") for i in range(30, 33)]
    append_index(ray.data.from_arrow(pa.Table.from_pylist(new)), idx)
    got = suggest(idx, queries).to_pylist()
    assert [(r["query_id"], r["term"], r["df"]) for r in got if r["query_id"] < 3] == [
        (1, "zqxjvword", 3), (2, "qwzvlonely", 1)]
    _check_bruteforce(idx, queries)

    gone = base[20]
    with SearchEngine(idx) as eng:
        eng.delete_doc(doc_id_from_key(gone["repo"], gone["path"], gone["commit"]))
    compact_index(idx, vacuum=True)
    got = suggest(idx, queries).to_pylist()
    assert [r["term"] for r in got if r["query_id"] == 2] == []
    assert {r["term"]: r["df"] for r in got if r["query_id"] == 3}["sort"] == 20
    _check_bruteforce(idx, queries)
