"""smse_backend_ray — a Ray-Data-native full-text index + BM25 query engine.

Brand-new engine with the query/data-processing capability surface of
smse-org/SMSE-Backend (see SURVEY.md), re-expressed Ray-Data-first:
inverted-index build (SPIMI partials + groupby(term) shuffle merge into
delta-varint posting lists) and top-k BM25 retrieval on
document-partitioned index shards held by an actor pool, over Parquet
corpora of source-code files.
"""

__version__ = "0.1.0"
