"""Code-aware tokenizer — the single analyzer shared by ingest and query paths.

Reference analog: the text preprocessing pipeline applied before encoding
(smse_backend/tasks.py:96-103 — ``TextPipeline(chunk_size=240, chunk_overlap=10,
SimpleTokenizer(bpe))``) applied identically on the ingest path (tasks.py:219)
and the query path (tasks.py:250). The hard requirement inherited from that
design is *symmetric analysis*: the exact same pure function of the text runs
at index time and at query time.

The tokenizer is deliberately restricted to operations that DuckDB can
reproduce exactly (see functions/sqlgen.py), so the driver's SQL oracle is a
true end-to-end check:

  1. replace every run of non-ASCII-alphanumeric chars with a single space
  2. split ACRONYMTail boundaries:   ``([A-Z]+)([A-Z][a-z])`` -> ``\\1 \\2``
  3. split camelCase boundaries:     ``([a-z0-9])([A-Z])``    -> ``\\1 \\2``
  4. lowercase
  5. split on spaces; keep tokens with 2 <= len <= 30 that are not pure
     digits and not in the frozen stopword/keyword list

Step 1 runs *first* so lowercasing only ever sees ASCII (unicode case-folding
differences between Python and DuckDB can never leak into tokens).
"""

from __future__ import annotations

import re
from collections import Counter

from smse_backend_ray.config import (
    MAX_TOKEN_LEN,
    MIN_TOKEN_LEN,
    STOPWORDS,
)

_NON_ALNUM = re.compile(r"[^A-Za-z0-9]+")
_ACRONYM = re.compile(r"([A-Z]+)([A-Z][a-z])")
_CAMEL = re.compile(r"([a-z0-9])([A-Z])")
_PURE_DIGITS = re.compile(r"[0-9]+")


def split_subtokens(text: str) -> list[str]:
    """Raw subtoken stream: steps 1-4 + split, before any filtering.

    Used by quality/statistics operators that need the unfiltered stream.
    """
    s = _NON_ALNUM.sub(" ", text)
    s = _ACRONYM.sub(r"\1 \2", s)
    s = _CAMEL.sub(r"\1 \2", s)
    s = s.lower()
    return [t for t in s.split(" ") if t]


def _keep(tok: str) -> bool:
    return (
        MIN_TOKEN_LEN <= len(tok) <= MAX_TOKEN_LEN
        and not _PURE_DIGITS.fullmatch(tok)
        and tok not in STOPWORDS
    )


def tokenize(text: str) -> list[str]:
    """Full analysis chain: ordered token stream (dl = len of this list)."""
    return [t for t in split_subtokens(text) if _keep(t)]


def term_counts(text: str) -> list[tuple[str, int]]:
    """(term, tf) pairs sorted by term ascending. dl = sum of tfs.

    THE frozen scalar reference. ``term_counts_batch`` below is the
    vectorized twin the ingest hot path uses; it must stay bitwise-equal
    (tests/test_analyzer.py parity fuzz)."""
    c = Counter(tokenize(text))
    return sorted(c.items())


_STOP_ARRAY = None


def _flat_subtokens(content) -> tuple:
    """THE vectorized analyzer chain, steps 1-4 + split, flattened:
    (flat tokens StringArray incl. empties, doc_idx int64 ndarray, n rows).

    The ONE in-engine copy of the frozen Arrow-C++ regex chain (CLAUDE.md
    analyzer invariant) — every *_batch function below builds on this.
    RE2-vs-Python-re equivalence for these exact patterns is load-bearing
    and triple-checked: the DuckDB oracle runs the same three regexes
    (sqlgen.subtoken_expr), and the parity fuzz compares each batch
    function against its scalar reference on adversarial inputs. Step 4
    is ``ascii_lower``: the text is pure ASCII after step 1."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    s = pc.fill_null(content, "")
    s = pc.replace_substring_regex(s, pattern=r"[^A-Za-z0-9]+", replacement=" ")
    s = pc.replace_substring_regex(s, pattern=r"([A-Z]+)([A-Z][a-z])", replacement=r"\1 \2")
    s = pc.replace_substring_regex(s, pattern=r"([a-z0-9])([A-Z])", replacement=r"\1 \2")
    s = pc.ascii_lower(s)
    toks = pc.split_pattern(s, pattern=" ")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = toks.values
    n = len(toks)
    doc_idx = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(np.asarray(toks.offsets))
    )
    return flat, doc_idx, n


def _keep_mask(flat):
    """The frozen keep predicate (step 5) as a vectorized boolean mask:
    2 <= len <= 30 (ASCII after step 1, so byte length == char length),
    not pure digits, not a stopword. Empties fail the length floor."""
    import pyarrow as pa
    import pyarrow.compute as pc

    global _STOP_ARRAY
    if _STOP_ARRAY is None:
        _STOP_ARRAY = pa.array(sorted(STOPWORDS))
    ln = pc.binary_length(flat)
    keep = pc.and_(
        pc.and_(
            pc.greater_equal(ln, MIN_TOKEN_LEN), pc.less_equal(ln, MAX_TOKEN_LEN)
        ),
        pc.invert(pc.ascii_is_decimal(flat)),
    )
    return pc.and_(keep, pc.invert(pc.is_in(flat, value_set=_STOP_ARRAY)))


def _offsets(counts):
    """int32 list offsets from per-row element counts."""
    import numpy as np
    import pyarrow as pa

    return pa.array(np.concatenate(([0], np.cumsum(counts))).astype(np.int32), type=pa.int32())


def _list_from_mask(flat, doc_idx, n: int, keep):
    """Re-list the masked flat token stream: list<string> per row, stream
    order preserved."""
    import numpy as np
    import pyarrow as pa

    km = keep.to_numpy(zero_copy_only=False)
    return pa.ListArray.from_arrays(_offsets(np.bincount(doc_idx[km], minlength=n)), flat.filter(keep))


def sorted_codes(terms) -> tuple:
    """Factorize a string column: (int64 code per value, the sorted distinct
    values). Code order IS term order (bytewise; ASCII after analysis, so
    Python's str order too), so sorting by code sorts by term."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    denc = pc.cast(terms, pa.string()).dictionary_encode()
    by_term = np.asarray(pc.array_sort_indices(denc.dictionary), dtype=np.int64)
    rank = np.empty(by_term.size, dtype=np.int64)
    rank[by_term] = np.arange(by_term.size, dtype=np.int64)
    codes = rank[np.asarray(denc.indices, dtype=np.int64)]
    return codes, denc.dictionary.take(pa.array(by_term))


def _term_groups(content) -> tuple:
    """THE (doc, term) grouping of the kept-token stream, shared by the
    count and positions paths: kept tokens factorize to sorted term codes
    (``sorted_codes``) and one stable argsort of the (row, term) key
    orders them, keeping stream order inside each (row, term) group.
    Returns (terms list<string>, tfs list<int32>, kept row per token in
    stream order, the sort permutation, n rows)."""
    import numpy as np
    import pyarrow as pa

    flat, doc_idx, n = _flat_subtokens(content)
    keep = _keep_mask(flat)
    kept_doc = doc_idx[keep.to_numpy(zero_copy_only=False)]  # ascending (doc-major scan)
    codes, term_dict = sorted_codes(flat.filter(keep))
    # one int64 key (rows x distinct terms stays far below 2^63): a single
    # stable sort, ~2.5x faster than lexsort over the two columns
    key = kept_doc * len(term_dict) + codes
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = np.ones(key.size, dtype=bool)
    start[1:] = key[1:] != key[:-1]
    first = order[np.flatnonzero(start)]
    tf = np.diff(np.append(np.flatnonzero(start), key.size))
    goff = _offsets(np.bincount(kept_doc[first], minlength=n))
    terms = pa.ListArray.from_arrays(goff, term_dict.take(pa.array(codes[first])))
    tfs = pa.ListArray.from_arrays(goff, pa.array(tf.astype(np.int32), type=pa.int32()))
    return terms, tfs, kept_doc, order, n


def term_counts_batch(content) -> tuple:
    """Vectorized term_counts over a string Array/ChunkedArray ->
    (terms list<string>, tfs list<int32>), each row sorted by term asc.

    The regex chain and filter run in Arrow C++; the (doc, term) counts
    are ``_term_groups`` (dictionary codes + one numpy sort), the same
    pass term_positions_batch uses."""
    return _term_groups(content)[:2]


def subtokens_batch(content):
    """Vectorized split_subtokens over a string Array/ChunkedArray ->
    list<string> of raw subtokens per row (steps 1-4 + split, empties
    dropped). Same Arrow C++ chain as term_counts_batch minus the filter/
    count stages; bitwise-equal per row to the scalar split_subtokens
    (parity-fuzzed)."""
    import pyarrow.compute as pc

    flat, doc_idx, n = _flat_subtokens(content)
    keep = pc.greater(pc.binary_length(flat), 0)
    return _list_from_mask(flat, doc_idx, n, keep)


def kept_tokens_batch(content):
    """Vectorized ``tokenize`` over a string Array/ChunkedArray ->
    list<string> of KEPT tokens per row in stream order (the full analysis
    chain: steps 1-4 + split + length/digit/stopword filter). Same Arrow
    C++ chain as term_counts_batch without the count/sort stages;
    bitwise-equal per row to the scalar tokenize (parity-fuzzed in
    tests/test_analyzer.py)."""
    flat, doc_idx, n = _flat_subtokens(content)
    return _list_from_mask(flat, doc_idx, n, _keep_mask(flat))


def term_positions(text: str) -> list[tuple[str, list[int]]]:
    """(term, positions) pairs sorted by term ascending; positions are the
    0-based indexes of the term in the KEPT token stream (``tokenize``),
    ascending. THE frozen scalar reference for positional indexing:
    ``term_positions_batch`` below must stay bitwise-equal (parity fuzz),
    and the DuckDB twin is sqlgen.pos_tokens_cte (row_number over kept
    tokens). len(positions) == tf, so (term, len(pos)) == term_counts."""
    d: dict[str, list[int]] = {}
    for i, t in enumerate(tokenize(text)):
        d.setdefault(t, []).append(i)
    return sorted(d.items())


def term_positions_batch(content) -> tuple:
    """Vectorized term_positions over a string Array/ChunkedArray ->
    (terms list<string>, tfs list<int32>, poss list<int32>).

    terms/tfs are ``term_counts_batch``'s (one ``_term_groups`` pass);
    ``poss`` holds, per doc, the kept-stream positions flattened in the SAME
    (term asc, position asc) order the terms/tfs lists imply — so row i's
    positions for term j are ``poss[i][cum_tf[j-1]:cum_tf[j]]``."""
    import numpy as np
    import pyarrow as pa

    terms, tfs, kept_doc, order, n = _term_groups(content)
    counts = np.bincount(kept_doc, minlength=n)  # kept tokens per doc == dl
    pos = np.arange(kept_doc.size, dtype=np.int64) - (np.cumsum(counts) - counts)[kept_doc]
    poss = pa.ListArray.from_arrays(_offsets(counts), pa.array(pos[order].astype(np.int32), type=pa.int32()))
    return terms, tfs, poss


def analyze_query(text: str) -> dict[str, int]:
    """Query-side analysis: term -> query-term-frequency (qtf).

    Must be the same function of text as the ingest side (symmetry
    requirement; reference runs the same pipeline on both paths,
    smse_backend/tasks.py:219 vs :250).
    """
    return dict(Counter(tokenize(text)))
