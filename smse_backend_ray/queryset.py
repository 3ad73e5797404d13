"""Frozen reference query set (FIXTURES.md §2).

Derived from the string literals the reference's own search tests exercise
(tests/test_routes/test_search.py:119 "sample query",
tests/test_routes/test_multimodal_search.py:90,112 "test query",
tests/test_routes/test_multipart_search.py:130,168 multi-part text), plus
seeded queries that hit the driver corpus vocabulary, camelCase/snake_case
identifier queries, a keyword-only (fully stopped-out) query and a no-hit
query. Frozen: the DuckDB oracle SQL inlines the same literals.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class QuerySpec:
    query_id: int
    parts: tuple[str, ...]            # 1..N query parts (multiset-union fused)
    scope: str = ""                   # repo filter; "" = all (reference user_id analog)
    limit: int = 10
    threshold: float | None = None
    # "or" = standard BM25 (any term), "and" = conjunctive (every term),
    # "phrase" = exact phrase over the kept-token stream, "near" = every
    # distinct term within a kept-token window of span <= slop (phrase and
    # near require a positional index; phrase parts must be a single string)
    mode: str = "or"
    slop: int | None = None               # near mode only; None = config default
    # analyzed like parts; docs containing ANY excluded kept term are
    # dropped from the match set (boolean NOT; works with every mode)
    exclude: tuple[str, ...] = ()

    @property
    def text(self) -> str:
        return " ".join(self.parts)


# Single-part, unscoped queries — the flagship bm25_topk set.
BASE_QUERIES: tuple[QuerySpec, ...] = (
    QuerySpec(0, ("sample query",)),
    QuerySpec(1, ("test query",)),
    QuerySpec(2, ("sample text query",)),
    QuerySpec(3, ("hash join table",)),
    QuerySpec(4, ("sort merge batch value",)),
    QuerySpec(5, ("fast scan row",)),
    QuerySpec(6, ("parseHttpRequest",)),          # camelCase identifier path
    QuerySpec(7, ("window_agg_key",)),            # snake_case identifier path
    QuerySpec(8, ("spark line part",)),
    QuerySpec(9, ("qqzzquux nohitterm",)),        # no-hit query
)

# Scoped / thresholded queries (scope = reference's user_id filter,
# smse_backend/services/search.py:104; threshold = M9 score floor).
SCOPED_QUERIES: tuple[QuerySpec, ...] = (
    QuerySpec(100, ("table value",), scope="src3", limit=5),
    QuerySpec(101, ("hash key row",), scope="src7", limit=10, threshold=0.5),
    QuerySpec(102, ("merge sort",), scope="src0", limit=10, threshold=0.0),
)

# Multi-part fusion queries (term multiset union across parts; reference
# analog smse_backend/routes/search.py:36-127 + services/embedding.py:56-98).
MULTIPART_QUERIES: tuple[QuerySpec, ...] = (
    QuerySpec(200, ("hash table", "hash value")),     # overlapping parts: qtf(hash)=2
    QuerySpec(201, ("sort merge", "batch", "window table")),
    QuerySpec(202, ("fast slow", "scan")),
)

# Conjunctive (AND-mode) queries: every kept term must appear in the doc.
# 302's third term has corpus df=0, so the whole query is provably empty —
# both engine (pipelines/search.py _job_for) and SQL return no rows.
CONJ_QUERIES: tuple[QuerySpec, ...] = (
    QuerySpec(300, ("hash join table",), mode="and"),
    QuerySpec(301, ("sort merge batch window",), mode="and", limit=8),
    QuerySpec(302, ("customer vector qqzzquux",), mode="and"),
    QuerySpec(303, ("window filter",), scope="src2", mode="and"),
    QuerySpec(304, ("data stream", "line"), mode="and", threshold=0.5),
)

# Exact-phrase queries (single part; served from a positional index).
# 401 exercises a repeated phrase term; 403 exercises the kept-stream
# semantics (a stopword between kept words does NOT break adjacency in the
# kept-token stream on either side); 404 is a guaranteed no-hit.
PHRASE_QUERIES: tuple[QuerySpec, ...] = (
    QuerySpec(400, ("sort merge",), mode="phrase"),
    QuerySpec(401, ("batch batch",), mode="phrase"),
    QuerySpec(402, ("data line join",), mode="phrase", limit=5),
    QuerySpec(403, ("the fast key",), mode="phrase"),
    QuerySpec(404, ("merge qqzzquux",), mode="phrase"),
)

# Proximity queries: all distinct kept terms within a window of span<=slop.
# 503's two distinct terms can never share a span-0 window — provably empty
# on both sides (semantics pin); 504 exercises scope + multi-part union.
NEAR_QUERIES: tuple[QuerySpec, ...] = (
    QuerySpec(500, ("hash join",), mode="near", slop=3),
    QuerySpec(501, ("sort batch",), mode="near", slop=1),
    QuerySpec(502, ("customer window merge",), mode="near", slop=10, limit=8),
    QuerySpec(503, ("data value",), mode="near", slop=0),
    QuerySpec(504, ("table row", "key"), mode="near", slop=6, scope="src5"),
    QuerySpec(505, ("stream",), mode="near", slop=0),  # k=1: span 0 matches
)

# Boolean-NOT queries: docs containing ANY kept excluded term are dropped
# from the match set before scope/threshold/ranking. 703's exclusion term
# has df=0 (a no-op); 704 combines exclusion with scope.
EXCLUDE_QUERIES: tuple[QuerySpec, ...] = (
    QuerySpec(700, ("hash join",), exclude=("table",)),
    QuerySpec(701, ("sort merge",), exclude=("batch", "window slow")),
    QuerySpec(702, ("data line",), exclude=("data",)),   # self-exclusion: only line-without-data docs survive
    QuerySpec(703, ("batch value",), exclude=("qqzzquux",)),
    QuerySpec(704, ("table row",), scope="src4", exclude=("key",)),
)

# The flagship set (entry(): every mode that runs on a position-free index;
# phrase/near ship separately on the positional build). Also the
# decontamination benchmark's query list — engine and SQL both derive from
# THIS tuple, so extending it keeps the pair in lockstep.
ALL_QUERIES: tuple[QuerySpec, ...] = (
    BASE_QUERIES + SCOPED_QUERIES + MULTIPART_QUERIES + CONJ_QUERIES + EXCLUDE_QUERIES
)

