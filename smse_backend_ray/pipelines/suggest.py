"""Fuzzy term suggestion: SymSpell-style deletion-neighborhood index.

Reference analog: query-assist behavior on the search surface
(smse_backend/routes/search.py query handling); re-expressed as a
vocabulary-scale distributed build + point-lookup serve path.

Build (``build_suggest``): every vocabulary term (the df table) emits its
single-deletion neighborhood {term} ∪ {term minus one char} as
(dkey, term, df) rows — a Ray Dataset ``map_batches`` whose deletion slices
are VECTORIZED per position (<= MAX_TOKEN_LEN Arrow slice+concat passes, no
per-row Python) — sorted by dkey and written partitioned, so serve-time
lookups prune to matching row groups.

Serve (``suggest``): a query term's own deletion neighborhood is tiny
(len+1 keys); candidates = suggest-table rows whose dkey is in that set
(filter-pushdown read), then the classic SymSpell false-positive filter
(e.g. "ab"~"ba" share dkey "a"/"b" but lev=2) verifies TRUE levenshtein
distance <= 1. Ranking: (lev ASC, df DESC, term ASC), top SUGGEST_TOP.

Frozen engine<->SQL pair with sqlgen.suggest_sql (DuckDB levenshtein twin).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from smse_backend_ray.config import MAX_TOKEN_LEN, SUGGEST_TOP
from smse_backend_ray.state.catalog import Catalog
from smse_backend_ray.state.fs import IndexFS

SUGGEST_DIR = "suggest"


def deletion_keys(term: str) -> set[str]:
    """The term itself plus every single-character deletion (scalar
    reference for the vectorized batch twin below)."""
    return {term} | {term[:i] + term[i + 1 :] for i in range(len(term))}


def _explode_deletes(t: pa.Table) -> pa.Table:
    """Vectorized deletion-neighborhood explode: for each deletion position
    i, dkey = term[:i] + term[i+1:] computed as two Arrow slices + concat
    over the WHOLE batch (one pass per position, positions bounded by
    MAX_TOKEN_LEN)."""
    terms = t["term"].combine_chunks() if isinstance(t["term"], pa.ChunkedArray) else t["term"]
    dfs = t["df"]
    lens = pc.binary_length(terms).to_numpy()  # analyzer terms are ASCII
    parts = [pa.table({"dkey": terms, "term": terms, "df": dfs})]
    for i in range(int(lens.max()) if len(lens) else 0):
        mask = pa.array(lens > i)
        sub_t = terms.filter(mask)
        sub_d = dfs.filter(mask)
        dkey = pc.binary_join_element_wise(
            pc.utf8_slice_codeunits(sub_t, 0, i),
            pc.utf8_slice_codeunits(sub_t, i + 1, MAX_TOKEN_LEN + 1),
            "",
        )
        parts.append(pa.table({"dkey": dkey, "term": sub_t, "df": sub_d}))
    out = pa.concat_tables(parts)
    # a term with repeated chars yields duplicate (dkey, term) rows — drop.
    # Columns are picked BY NAME: pyarrow's group_by output column order
    # (keys vs aggregates first) has changed across majors, so a positional
    # rename would silently scramble the table on an upgrade.
    g = out.group_by(["dkey", "term"]).aggregate([("df", "max")])
    return pa.table({"dkey": g["dkey"], "term": g["term"], "df": g["df_max"]})


def build_suggest(index_dir) -> str:
    """Build the deletion-neighborhood table under <index>/suggest/ from the
    committed df table; sorted by dkey so point lookups prune row groups.
    Atomic commit via the IndexFS tmp-swap protocol."""
    cat = Catalog(index_dir)
    ifs = cat.ifs
    ds = cat.ray_dataset("df", columns=["term", "df"])
    out = ds.map_batches(
        _explode_deletes, batch_format="pyarrow", zero_copy_batch=True
    ).sort("dkey")
    ifs.atomic_write_dataset(out, SUGGEST_DIR)
    return ifs.join(SUGGEST_DIR)


def _lev_le1(a: str, b: str) -> int | None:
    """Levenshtein distance if <= 1, else None (O(len) bounded check)."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return None
    if la == lb:  # exactly one substitution allowed
        diff = sum(1 for x, y in zip(a, b) if x != y)
        return 1 if diff == 1 else None
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # b is a+1 chars: one insertion allowed
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return 1 if a[i:] == b[i + 1 :] else None


def suggest(index_dir, queries) -> pa.Table:
    """Suggestions for ``queries`` = [(query_id, text)]: vocab terms with
    levenshtein <= 1, ranked (lev ASC, df DESC, term ASC), top SUGGEST_TOP.
    Reads ONLY the rows whose dkey is in the queries' deletion
    neighborhoods (filter pushdown over the dkey-sorted table)."""
    ifs = IndexFS(index_dir)
    keys = sorted({k for _, q in queries for k in deletion_keys(q.lower())})
    ds = ifs.pads_dataset(SUGGEST_DIR)
    t = ds.to_table(filter=pads.field("dkey").isin(keys))
    cand: dict[str, int] = {}
    for term, d in zip(t["term"].to_pylist(), t["df"].to_pylist()):
        cand[term] = d
    out = {"query_id": [], "rank": [], "term": [], "df": [], "lev": []}
    for qid, q in queries:
        ql = q.lower()
        scored = []
        # the bounded-lev verify IS the membership rule (lev<=1 implies the
        # deletion neighborhoods intersect), so candidates pooled from other
        # queries' keys are simply rejected here — no per-pair set rebuild
        for term, d in cand.items():
            lev = _lev_le1(ql, term)
            if lev is not None:
                scored.append((lev, -d, term))
        scored.sort()
        for r, (lev, negdf, term) in enumerate(scored[:SUGGEST_TOP], 1):
            out["query_id"].append(qid)
            out["rank"].append(r)
            out["term"].append(term)
            out["df"].append(-negdf)
            out["lev"].append(lev)
    return pa.table(
        {
            "query_id": pa.array(out["query_id"], type=pa.int64()),
            "rank": pa.array(out["rank"], type=pa.int32()),
            "term": pa.array(out["term"], type=pa.string()),
            "df": pa.array(out["df"], type=pa.int64()),
            "lev": pa.array(out["lev"], type=pa.int64()),
        }
    )
