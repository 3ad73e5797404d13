"""Fuzzy term suggestion over the committed df table.

Reference analog: query-assist behavior on the search surface
(smse_backend/routes/search.py query handling); re-expressed as one
filter-pushdown read of the vocabulary the manifest lists.

Distances count UTF-8 bytes, as DuckDB's ``levenshtein`` does: a query is
edited as its lowercased bytes, one latin-1 char per byte (ASCII queries
are unchanged). The analyzer only emits ``[a-z0-9]`` terms of at most
MAX_TOKEN_LEN chars, so every vocabulary term within levenshtein distance
1 of that byte string ``q`` is ``q`` itself, ``q`` with one byte deleted,
or ``q`` with one of those 36 chars substituted or inserted: at most
73*len(q)+37 strings, none when len(q) > MAX_TOKEN_LEN + 1. ``suggest``
reads only the df rows whose term is in the queries' edit sets (the prefix
query's df pushdown pattern), so suggestions follow every append,
compaction and rebuild.
Ranking: (lev ASC, df DESC, term ASC), top SUGGEST_TOP.

Frozen engine<->SQL pair with sqlgen.suggest_sql (DuckDB levenshtein twin).
"""

from __future__ import annotations

import string

import pyarrow as pa
import pyarrow.dataset as pads

from smse_backend_ray.config import MAX_TOKEN_LEN, SUGGEST_TOP
from smse_backend_ray.state.catalog import Catalog

_TERM_CHARS = string.ascii_lowercase + string.digits

SUGGEST_SCHEMA = pa.schema(
    [
        ("query_id", pa.int64()),
        ("rank", pa.int32()),
        ("term", pa.string()),
        ("df", pa.int64()),
        ("lev", pa.int64()),
    ]
)


def edits1(q: str) -> set[str]:
    """``q`` plus every string over the term alphabet one edit away from
    it: a superset of the vocabulary terms with levenshtein(q, term) <= 1."""
    if len(q) > MAX_TOKEN_LEN + 1:
        return set()
    out = {q}
    for i in range(len(q) + 1):
        head, tail = q[:i], q[i:]
        out.update(head + c + tail for c in _TERM_CHARS)
        if tail:
            out.add(head + tail[1:])
            out.update(head + c + tail[1:] for c in _TERM_CHARS)
    return out


def suggest(index_dir, queries) -> pa.Table:
    """Suggestions for ``queries`` = [(query_id, text)]: vocab terms with
    byte levenshtein <= 1, ranked (lev ASC, df DESC, term ASC), top
    SUGGEST_TOP. One df-table read of the terms in the union of the edit
    sets."""
    qs = [(qid, q.lower().encode().decode("latin-1")) for qid, q in queries]
    sets = [edits1(q) for _, q in qs]
    keys = pa.array(list(set().union(*sets)), type=pa.string())
    t = Catalog(index_dir).dataset("df").to_table(
        columns=["term", "df"], filter=pads.field("term").isin(keys)
    )
    vocab = dict(zip(t["term"].to_pylist(), t["df"].to_pylist()))
    rows = []
    for (qid, q), e in zip(qs, sets):
        hits = sorted((int(term != q), -vocab[term], term) for term in e & vocab.keys())
        rows += [
            {"query_id": qid, "rank": r, "term": term, "df": -negdf, "lev": lev}
            for r, (lev, negdf, term) in enumerate(hits[:SUGGEST_TOP], 1)
        ]
    return pa.Table.from_pylist(rows, schema=SUGGEST_SCHEMA)
