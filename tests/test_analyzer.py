"""Analyzer unit tests + exhaustive DuckDB parity (SURVEY.md §7.2: everything
downstream depends on byte-identical analysis between Python and SQL)."""

from __future__ import annotations

import duckdb
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smse_backend_ray.config import STOPWORDS
from smse_backend_ray.functions.analyzer import (
    analyze_query,
    split_subtokens,
    term_counts,
    tokenize,
)
from smse_backend_ray.functions.sqlgen import subtoken_expr, token_filter_sql

TRICKY = [
    "getHTTPResponse2Go_fooBar",
    "parseHttpRequest parse_http_request PARSE HTTP",
    "camelCase snake_case SCREAMING_SNAKE XMLHttpRequest",
    "a ab abc the def return x1 1x 42 007",
    "  leading trailing  ",
    "",
    "éclair naïve 北京 привет mixedÉcase",
    "foo.bar(baz, qux); if (x>=2) { return None }",
    "x" * 31 + " " + "y" * 30 + " zz",
    "HTML5Parser v2Engine A1B2c3",
    "don't can't it's",
    "__init__ __main__ self.value",
    "tab\tnewline\nmixed\r\nspace",
]


def test_basic_camel_snake():
    assert tokenize("parseHttpRequest") == ["parse", "http", "request"]
    assert tokenize("parse_http_request") == ["parse", "http", "request"]
    assert tokenize("XMLHttpRequest") == ["xml", "http", "request"]


def test_stopword_and_keyword_filtering():
    assert tokenize("the def return table") == ["table"]
    assert "def" in STOPWORDS and "the" in STOPWORDS


def test_length_and_digit_filters():
    assert tokenize("a ab 42 x1") == ["ab", "x1"]
    assert tokenize("x" * 31) == []
    assert tokenize("x" * 30) == ["x" * 30]


def test_non_ascii_dropped():
    assert tokenize("北京 привет") == []
    # accented chars act as separators; ASCII runs survive
    # ("case" would be dropped as a code keyword)
    assert tokenize("mixedÉwords") == ["mixed", "words"]


def test_term_counts_sorted():
    tc = term_counts("beta alpha beta gamma alpha beta")
    assert tc == [("alpha", 2), ("beta", 3), ("gamma", 1)]


def test_analyze_query_symmetric_with_ingest():
    text = "getHTTPResponse2Go hash hashJoin"
    assert analyze_query(text) == dict(term_counts(text))


@pytest.fixture(scope="module")
def con():
    return duckdb.connect()


def _sql_tokens(con, text: str) -> list[str]:
    rows = con.execute(
        f"SELECT t.term FROM (SELECT ? AS s) src, "
        f"unnest({subtoken_expr('src.s')}) AS t(term) "
        f"WHERE {token_filter_sql('t.term')}",
        [text],
    ).fetchall()
    return [r[0] for r in rows]


def _sql_subtokens(con, text: str) -> list[str]:
    rows = con.execute(
        f"SELECT t.term FROM (SELECT ? AS s) src, "
        f"unnest({subtoken_expr('src.s')}) AS t(term) WHERE t.term <> ''",
        [text],
    ).fetchall()
    return [r[0] for r in rows]


@pytest.mark.parametrize("text", TRICKY)
def test_duckdb_parity_tricky(con, text):
    assert _sql_tokens(con, text) == tokenize(text)
    assert _sql_subtokens(con, text) == split_subtokens(text)


def test_duckdb_parity_documents_corpus(con):
    """Every document in the sf0.001 driver table tokenizes identically."""
    texts = [
        r[0]
        for r in con.sql(
            "SELECT text FROM read_parquet('/root/testdata/sf0.001/documents.parquet')"
        ).fetchall()
    ]
    assert len(texts) > 0
    for t in texts:
        assert _sql_tokens(con, t) == tokenize(t)


@settings(max_examples=120, deadline=None)
@given(
    texts=st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=1, max_codepoint=0x2FFF),
            max_size=80,
        ),
        max_size=8,
    )
)
def test_term_counts_batch_matches_scalar(texts):
    """The vectorized Arrow tokenizer is bitwise-equal to the frozen scalar
    reference on arbitrary unicode input (RE2 vs Python-re equivalence for
    the three analyzer regexes is load-bearing — the ingest hot path runs
    the batch twin)."""
    import pyarrow as pa

    from smse_backend_ray.functions.analyzer import term_counts, term_counts_batch

    col = pa.chunked_array([pa.array(texts, type=pa.string())])
    terms, tfs = term_counts_batch(col)
    for i, txt in enumerate(texts):
        got = list(zip(terms[i].as_py(), tfs[i].as_py()))
        assert got == term_counts(txt)


def test_term_counts_batch_empty_and_nulls():
    import pyarrow as pa

    from smse_backend_ray.functions.analyzer import term_counts_batch

    terms, tfs = term_counts_batch(pa.array([], type=pa.string()))
    assert len(terms) == 0
    terms, tfs = term_counts_batch(pa.array([None, "hashJoin table"], type=pa.string()))
    assert terms[0].as_py() == []
    assert terms[1].as_py() == ["hash", "join", "table"]


@settings(max_examples=120, deadline=None)
@given(
    texts=st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=1, max_codepoint=0x2FFF),
            max_size=80,
        ),
        max_size=8,
    )
)
def test_kept_tokens_batch_matches_scalar(texts):
    """The vectorized kept-token stream (doc_chunks' hot path) is
    bitwise-equal to the frozen scalar tokenize, in stream order."""
    import pyarrow as pa

    from smse_backend_ray.functions.analyzer import kept_tokens_batch, tokenize

    col = pa.chunked_array([pa.array(texts, type=pa.string())])
    toks = kept_tokens_batch(col)
    for i, txt in enumerate(texts):
        assert toks[i].as_py() == tokenize(txt)


def test_kept_tokens_batch_empty_and_nulls():
    import pyarrow as pa

    from smse_backend_ray.functions.analyzer import kept_tokens_batch

    assert len(kept_tokens_batch(pa.array([], type=pa.string()))) == 0
    toks = kept_tokens_batch(pa.array([None, "hashJoin the table"], type=pa.string()))
    assert toks[0].as_py() == []
    assert toks[1].as_py() == ["hash", "join", "table"]


# ---------------------------------------------------------------------------
# batch twins vs scalar references on every Arrow input shape
# ---------------------------------------------------------------------------

# ASCII alnum, punctuation and space, control bytes (NUL included), and
# 2/3/4-byte UTF-8 chars: steps 4-5 run ASCII kernels, which are exact only
# if step 1 leaves no byte >= 0x80
_BYTE_ALPHABET = (
    "aZ09xyHTTPgetFoo"
    " _-.,;!~\t\n\r"
    "\x00\x01\x1f\x7f"
    "\u0080\u00e9\u00ff\u07ff\u5317\uffff\U0001f600"
)

EDGE_ROWS = [
    None,
    "",
    "!!!",
    "...---...",
    " ",
    "-leading",
    "trailing-",
    "__both__",
    "é",
    "éfoo",
    "fooé",
    "\x00abc\x00def\x7f",
    "123 4567 ab12 12ab 1a 00 007x",
    "getHTTPResponse2Go_fooBar",
    "北京 привет mixedÉcase 😀emoji😀",
    "x" * 31 + "!" + "y" * 30,
]


def _arrow_shapes(texts):
    """The same rows as a plain, sliced, chunked and large_string array."""
    import pyarrow as pa

    plain = pa.array(texts, type=pa.string())
    padded = pa.array(["padHead!", *texts, "-padTail"], type=pa.string())
    cut = max(1, len(texts) // 2)
    return {
        "plain": plain,
        "sliced": padded.slice(1, len(texts)),
        "chunked": pa.chunked_array(
            [pa.array(texts[:cut], type=pa.string()), pa.array(texts[cut:], type=pa.string())],
            type=pa.string(),
        ),
        "large": pa.array(texts, type=pa.large_string()),
    }


def _check_batch_twins(texts):
    from smse_backend_ray.functions.analyzer import (
        kept_tokens_batch,
        subtokens_batch,
        term_counts_batch,
        term_positions,
        term_positions_batch,
    )

    ref = [t or "" for t in texts]
    for shape, col in _arrow_shapes(texts).items():
        terms, tfs = term_counts_batch(col)
        kept = kept_tokens_batch(col)
        subs = subtokens_batch(col)
        pterms, ptfs, poss = term_positions_batch(col)
        assert len(terms) == len(kept) == len(subs) == len(poss) == len(texts), shape
        for i, txt in enumerate(ref):
            assert list(zip(terms[i].as_py(), tfs[i].as_py())) == term_counts(txt), (shape, txt)
            assert kept[i].as_py() == tokenize(txt), (shape, txt)
            assert subs[i].as_py() == split_subtokens(txt), (shape, txt)
            assert pterms[i].as_py() == terms[i].as_py(), (shape, txt)
            assert ptfs[i].as_py() == tfs[i].as_py(), (shape, txt)
            flat = [p for _, ps in term_positions(txt) for p in ps]
            assert poss[i].as_py() == flat, (shape, txt)


def test_batch_twins_edge_rows():
    _check_batch_twins(EDGE_ROWS)
    # a row starting with a separator right after a row ending in one
    _check_batch_twins(["abc-", "-def", "ghi", "!jkl", "é", "émno"])
    _check_batch_twins(["!!!", "???"])  # every row is punctuation
    _check_batch_twins([None, None])
    _check_batch_twins([])


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(
        st.one_of(st.none(), st.text(alphabet=_BYTE_ALPHABET, max_size=40)),
        max_size=7,
    )
)
def test_batch_twins_match_scalar_fuzz(texts):
    """Every *_batch function equals its scalar reference on every input
    shape (plain, sliced, chunked, large_string), with nulls, empties,
    control bytes, multi-byte UTF-8 and separator runs at row edges."""
    _check_batch_twins(texts)
