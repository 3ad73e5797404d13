"""Frozen engine configuration.

The reference pins analyzer/scorer configuration per index build via its
``Model`` registry (reference: smse_backend/models/model.py:6-13, auto-created
default in smse_backend/tasks.py:286-297). We mirror that with frozen dataclass
specs; an index build writes the spec into its manifest so query-time analysis
is guaranteed symmetric with ingest-time analysis.

Everything here is a *single source of truth* shared by:
  - the Ray Data engine (ingest / index build / scorer),
  - the single-process Python oracle (oracle.py),
  - the DuckDB SQL oracle generator (functions/sqlgen.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Analyzer (code-aware tokenizer) — see functions/analyzer.py
# ---------------------------------------------------------------------------

ANALYZER_VERSION = "code-v1"

MIN_TOKEN_LEN = 2
MAX_TOKEN_LEN = 30

# English stopwords (reference analog: text preprocessing in the embedding
# pipeline, smse_backend/tasks.py:96-103) + programming-language keywords
# (north_star: "stopword/keyword filtering"). Frozen: changing this changes
# the index format version.
ENGLISH_STOPWORDS = (
    "the", "an", "and", "or", "of", "to", "in", "is", "are", "was", "were",
    "be", "been", "it", "its", "this", "that", "these", "those", "for", "on",
    "with", "as", "at", "by", "from", "not", "no", "but", "they", "them",
    "their", "you", "your", "we", "our", "he", "she", "his", "her",
)
CODE_KEYWORDS = (
    "def", "return", "if", "else", "elif", "while", "class", "import",
    "function", "fn", "func", "var", "let", "const", "static", "void",
    "true", "false", "null", "none", "nil", "new", "try", "catch", "except",
    "finally", "switch", "case", "break", "continue", "struct", "enum",
    "impl", "trait", "type", "interface", "package", "pub", "use", "mod",
)
STOPWORDS = frozenset(ENGLISH_STOPWORDS) | frozenset(CODE_KEYWORDS)

# shingles shared by more than this many docs are excluded from every
# Jaccard shingle set (engine pipelines/dedup.py AND the DuckDB oracle
# functions/sqlgen.py mirror this — single-sourced here per the lockstep
# rule). Bounds per-shingle pair emission at cap^2/2.
JACCARD_SHINGLE_DF_CAP = 256

# Hot-shingle exclusion strategy switch (pipelines/dedup._drop_hot_stage):
# hot sets at or under this size broadcast once as an Arrow array
# (pc.is_in per batch); larger sets use a distributed bucketed anti-join so
# no driver-held structure scales with vocabulary. Not semantic — both
# paths produce identical output (tested).
HOT_SHINGLE_BROADCAST_MAX = 65536

# unigram-LM broadcast bound (textstats.unigram_logprob): vocabularies at
# or under this many terms ship once via ray.put and attach map-side
# (pc.index_in per batch) — 2 exchanges instead of 4; larger vocabularies
# fall back to the fully distributed term-attach path. Not semantic — both
# paths produce bitwise-identical output (tested).
LM_BROADCAST_MAX = 2_000_000

# SimHash near-dup parameters (engine pipelines/dedup.py AND the DuckDB
# oracle functions/sqlgen.py mirror these — single-sourced here per the
# lockstep rule). Banding buckets larger than the cap are skipped (logged);
# pairs must clear hamming <= max to survive verification.
SIMHASH_BUCKET_CAP = 200
SIMHASH_MAX_HAMMING = 3

# Range-join per-time-bucket pair-expansion cap (pipelines/events.range_join,
# same treatment as SIMHASH_BUCKET_CAP): a bucket whose window sweep would
# emit more pairs than this is skipped and replaced by a marker row (logged,
# never silent) — bounds the quadratic blowup of a pathological corpus where
# every interval overlaps one window. Sized to never trip on time-local data.
RANGE_JOIN_BUCKET_PAIR_CAP = 2_000_000


# Language-ID marker words (textstats pipeline; frozen — the SQL oracle
# inlines the same lists). Prediction: no ASCII tokens -> "zh"; zero marker
# hits -> "unknown"; else argmax hits with ties broken by lang ascending.
LANG_MARKERS: dict[str, tuple[str, ...]] = {
    "de": ("der", "die", "das", "und", "ist", "nicht", "mit", "ein", "eine", "zu", "von"),
    "en": ("the", "and", "of", "to", "is", "in", "that", "it", "for", "on", "with"),
    "es": ("el", "la", "los", "las", "de", "que", "es", "en", "un", "una", "por"),
    "fr": ("le", "les", "des", "est", "et", "en", "une", "que", "dans", "pour", "du"),
}


# ---------------------------------------------------------------------------
# BM25 scoring (functions/bm25.py; reference analog: cosine ranking in
# smse_backend/services/search.py:97-110)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BM25Params:
    k1: float = 1.2
    b: float = 0.75


# Scores compared against the DuckDB oracle are rounded to this many decimals;
# ranking uses the *rounded* score (then doc_id ASC) so near-ties order
# identically across summation orders. Engine-vs-Python-oracle tests still
# assert exact float equality (same summation order on both sides).
SCORE_DECIMALS = 4


# ---------------------------------------------------------------------------
# Engine / index-build configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EngineConfig:
    """Configuration for one index build (pinned into the index manifest)."""

    n_shards: int = 8                    # document-partitioned index shards
    block_size: int = 128                # doc-id delta-reset interval (postings)
    bm25: BM25Params = field(default_factory=BM25Params)
    # lang allowlist (reference analog: ALLOWED_EXTENSIONS env allowlist,
    # smse_backend/utils/file_extensions.py:9-11). None = allow all.
    allowed_langs: tuple[str, ...] | None = None
    # exact dedup of identical (repo, path, commit) keys — reference analog:
    # unique content_path constraint (smse_backend/models/content.py:11)
    dedup: bool = True
    # positional postings (phrase-query support): docs carry a ``poss``
    # column (kept-stream token positions, term-major) and segments gain a
    # ``pos_bytes`` delta-varint stream.
    # OFF by default — positions add ~sum(dl) varints to the doc store
    # and the index (~40-60% size), the classic positional-index trade.
    # Frozen per build (appends/compaction refuse a different value).
    with_positions: bool = False
    # map_batches tuning
    batch_size: int = 1024               # docs per analyzer batch
    wave_size: int = 16                  # input partitions committed per wave (resume granularity)
    # executor of the build stages after docs (each one map over the doc
    # files per shard or per file): driver threads when the doc files
    # total <= this many bytes on disk, else Ray tasks. Same plan, same
    # output either way.
    driver_agg_max_bytes: int = 256 * 1024 * 1024

    def validate(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "EngineConfig":
        """Rebuild the config pinned in an index manifest (appends MUST reuse
        the frozen analyzer/shard/block parameters of the base build)."""
        return cls(
            n_shards=int(d["n_shards"]),
            block_size=int(d.get("block_size", 128)),
            bm25=BM25Params(**d["bm25"]) if isinstance(d.get("bm25"), dict) else BM25Params(),
            allowed_langs=tuple(d["allowed_langs"]) if d.get("allowed_langs") else None,
            dedup=bool(d.get("dedup", True)),
            with_positions=bool(d.get("with_positions", False)),
            batch_size=int(d.get("batch_size", 1024)),
            wave_size=int(d.get("wave_size", 16)),
            driver_agg_max_bytes=int(d.get("driver_agg_max_bytes", 256 * 1024 * 1024)),
        )


# Default per-query limits (reference: per-modality candidate k=30,
# smse_backend/services/search.py:78; final top-k=10, :139)
SHARD_CANDIDATE_K = 30
DEFAULT_TOP_K = 10

# Serve actor layout (SearchEngine): every actor is one ShardIndex over the
# files of its shards. The actors are full replicas (every actor holds every
# shard, so one query is one actor call) when the replicas' estimated state
# fits this share of the memory Ray reports for the cluster; otherwise the
# shards pack over the actors. A replica is estimated at twice the bytes of
# segments/ and docs/ on disk plus a full decode cache
# (SearchEngine._replica_bytes; measured in BASELINE.md "Full-replica serve
# actors"). The actors reserve no memory from Ray, so the other half stays
# for the driver, Ray Data work and the actor processes' own ~200 MB each,
# which either layout pays. 0 always packs.
SERVE_REPLICA_MEMORY_SHARE = 0.5

# Bound on a serve actor's decoded-term cache: the postings and positions of
# every shard the actor holds share its index's one LRU, keyed by term and
# sized from the arrays' nbytes. A fully decoded perfbench index holds
# ~12 MB, so the benchmark never evicts. Single queries on a 100k-doc synth
# index kept ~140 MB of hot terms: a 64 MiB bound evicted them and nearly
# doubled the hot-query p90 CPU (BASELINE.md "Full-replica serve actors").
DECODE_CACHE_MAX_BYTES = 256 * 1024 * 1024

# Proximity (mode="near") default window: a doc matches iff some kept-token
# window of span <= slop contains every distinct query term (frozen pair:
# scorer.ShardIndex.match <-> oracle.oracle_near_search <-> sqlgen.near_topk_sql)
NEAR_DEFAULT_SLOP = 8

# Query-dependent snippets (SearchEngine.snippets <-> sqlgen.snippets_sql):
# anchor = smallest kept position of any kept query term in the doc;
# snippet = kept tokens [max(0, anchor-LEAD), +WINDOW) joined with spaces
SNIPPET_LEAD = 2
SNIPPET_WINDOW = 8

# More-like-this (SearchEngine.more_like_this <-> sqlgen.mlt_sql): query =
# the source doc's MLT_TOP_TERMS highest tf*idf terms (ties term-asc),
# qtf=1 each; the source doc is excluded from its own results
MLT_TOP_TERMS = 5
MLT_N_SRC = 10  # gate entry sources: the MLT_N_SRC smallest doc_ids

# Prefix (wildcard) queries (SearchEngine.search_prefix <->
# sqlgen.prefix_topk_sql): expansion = vocabulary terms starting with the
# lowercased prefix, term-ASCENDING, capped at PREFIX_MAX_EXPANSIONS;
# qtf=1 per expanded term
PREFIX_MAX_EXPANSIONS = 50

# Facet counts: per (query, facet) the output keeps the FACET_MAX_VALUES
# largest values by (n_docs DESC, value ASC) after the cross-shard sum —
# bounds the result when a facet (e.g. repo) has huge cardinality
FACET_MAX_VALUES = 100

# Fuzzy term suggestion (pipelines/suggest.py <-> sqlgen.suggest_sql):
# the query's one-edit neighborhood looked up in the df table; results =
# vocab terms with levenshtein <= 1, ranked (lev ASC, df DESC,
# term ASC), top SUGGEST_TOP
SUGGEST_TOP = 5

# Term co-occurrence / PMI (textstats.term_cooc_pmi <-> sqlgen.cooc_pmi_sql,
# frozen pair): eligibility = distinct-doc df >= COOC_MIN_DF over the
# kept-token stream; per doc only the COOC_DOC_TERM_CAP lexicographically
# smallest eligible terms pair up (the 100 TB bound on the per-doc pair
# triangle — never binds on the gate corpus); pairs with co-doc count
# n_ab >= COOC_MIN_PAIRS survive; pmi = round(ln((N * n_ab) / (df_a *
# df_b)) computed in double, 4) with N = total documents rows.
COOC_MIN_DF = 5
COOC_DOC_TERM_CAP = 256
COOC_MIN_PAIRS = 3

# Per-doc tf-idf keywords (textstats.doc_keywords <-> sqlgen.keywords_sql,
# frozen pair): tf over the kept-token stream, df = distinct-doc count,
# tfidf = round4(tf * ln(N/df) in double); rank by ROUNDED tfidf DESC then
# term ASC, keep the top KEYWORDS_TOP_K per doc.
KEYWORDS_TOP_K = 10

# TPC-H Q3 shape (relational.shipping_priority <->
# relational.shipping_priority_sql, frozen pair): one market segment,
# orders strictly before the cutoff, lineitems shipped strictly after;
# revenue summed in exact 1e-4-dollar units (_revenue_scaled); ties
# (revenue_scaled DESC, o_orderdate ASC, l_orderkey ASC), top Q3_TOP_N.
Q3_SEGMENT = "BUILDING"
Q3_CUTOFF = "1998-06-30"
Q3_TOP_N = 10

# Composite curation pipeline (curate.curation_pipeline <->
# curate.curation_sql, frozen pair): exact-dedup winners (min doc_id per
# md5(text)) FIRST on the full corpus, then ROUNDED quality >=
# CURATE_MIN_QUALITY, stored lang IN CURATE_LANGS, sample_key(doc_id) <
# threshold(CURATE_SAMPLE_PCT); rank over survivors in (sample_key,
# doc_id) order; pack offsets = exclusive prefix sum of raw subtoken
# counts in rank order, bin = start_offset // PACK_WINDOW.
CURATE_MIN_QUALITY = 0.5
CURATE_LANGS = ("de", "en", "es", "fr")
CURATE_SAMPLE_PCT = 50

# TPC-H Q10 shape (relational.returned_item_revenue <->
# relational.returned_item_revenue_sql, frozen pair): lineitems with
# l_returnflag = Q10_RETURNFLAG on orders in [Q10_DATE_LO, Q10_DATE_HI);
# revenue summed in exact 1e-4-dollar units; ties (revenue_scaled DESC,
# c_custkey ASC), top Q10_TOP_N, enriched with customer + nation meta.
Q10_RETURNFLAG = "R"
Q10_DATE_LO = "1996-01-01"
Q10_DATE_HI = "1996-07-01"
Q10_TOP_N = 20

# TPC-H Q6 shape (relational.forecast_revenue <->
# relational.forecast_revenue_sql, frozen pair): lineitems shipped in
# [Q6_DATE_LO, Q6_DATE_HI) with rounded discount cents in
# [Q6_DISC_LO_C, Q6_DISC_HI_C] and quantity < Q6_QTY_MAX; revenue =
# sum of round(price*100) * round(discount*100), an exact 1e-4-dollar
# int64 (order-free).
Q6_DATE_LO = "1996-01-01"
Q6_DATE_HI = "1998-01-01"
Q6_DISC_LO_C = 5
Q6_DISC_HI_C = 7
Q6_QTY_MAX = 24

# TPC-H Q12 shape adapted to this warehouse's lineitem columns
# (relational.line_priority_counts <-> line_priority_counts_sql, frozen
# pair): lines shipped in [Q12_DATE_LO, Q12_DATE_HI) joined to their
# order's priority, counted per l_linestatus as high (o_orderpriority in
# Q12_HIGH_PRIORITIES) vs low.
Q12_DATE_LO = "1996-01-01"
Q12_DATE_HI = "1997-01-01"
Q12_HIGH_PRIORITIES = ("1-URGENT", "2-HIGH")

# TPC-H Q7 shape (relational.volume_shipping <-> volume_shipping_sql,
# frozen pair): exact scaled-int revenue between every (supplier nation,
# customer nation) pair per ship year, window [Q7_DATE_LO, Q7_DATE_HI).
Q7_DATE_LO = "1996-01-01"
Q7_DATE_HI = "1998-01-01"

# TPC-H Q17 shape (relational.small_qty_order_revenue <->
# small_qty_order_revenue_sql, frozen pair): lines of Q17_BRAND parts
# with p_size < Q17_SIZE_MAX whose quantity is under 20% of the part's
# average line quantity. The threshold is the CROSS-MULTIPLIED exact-int
# form 5 * round(q*100) * n_part < sum_part(round(q*100)) — never a
# double division, so eligibility is bit-identical on both sides.
Q17_BRAND = "Brand#13"
Q17_SIZE_MAX = 26
Q17_YEARS = 7  # avg_yearly divisor (the classic /7.0)

# TPC-H Q15 shape (relational.top_supplier_revenue <->
# top_supplier_revenue_sql, frozen pair): per-supplier scaled-int revenue
# over ship window [Q15_DATE_LO, Q15_DATE_HI); winners = ALL suppliers at
# the exact-int max (ties kept, s_suppkey ASC), enriched with s_name.
Q15_DATE_LO = "1996-01-01"
Q15_DATE_HI = "1996-04-01"

# TPC-H Q22 shape adapted (relational.idle_customer_balance <->
# idle_customer_balance_sql, frozen pair; classic Q22's "no orders at
# all" is empty in this warehouse, so idle = no orders on/after
# Q22_CUTOFF): customers with above-average positive balance — the
# average test is the cross-multiplied exact-int form
# round(bal*100) * n_pos > sum_pos(round(bal*100)) — and no recent
# orders, counted + balance-summed per nation.
Q22_CUTOFF = "1999-01-01"

# TPC-H Q19 shape (relational.banded_revenue <-> banded_revenue_sql,
# frozen pair): disjunctive (brand, max size, quantity band) predicates
# over lineitem x part; a line qualifies when ANY band matches its
# part's brand, p_size in [1, size_max] and ROUNDED quantity cents in
# [qty_lo*100, qty_hi*100]. Revenue = the exact scaled-int sum.
Q19_BANDS = (
    ("Brand#12", 5, 1, 11),
    ("Brand#23", 10, 10, 20),
    ("Brand#15", 15, 20, 30),
)

# TPC-H Q8 shape (relational.market_share <-> market_share_sql, frozen
# pair): yearly market share of Q8_NATION suppliers in Q8_REGION
# customers' orders of Q8_TYPE parts, order window [Q8_DATE_LO,
# Q8_DATE_HI); share = round4(nation_rev / total_rev), both sums exact
# scaled ints, the ratio one double division per year.
Q8_NATION = "NATION_13"
Q8_REGION = "EUROPE"
Q8_TYPE = "PROMO"
Q8_DATE_LO = "1996-01-01"
Q8_DATE_HI = "1998-01-01"

# TPC-H Q18 shape (relational.large_order_customers <->
# relational.large_order_customers_sql, frozen pair): orders whose total
# lineitem quantity (exact scaled-int sum of round(q*100)) exceeds
# Q18_MIN_QTY * 100, enriched with order + customer meta; ties
# (o_totalprice DESC, o_orderkey ASC), top Q18_TOP_N.
Q18_MIN_QTY = 250
Q18_TOP_N = 20

# Per-lang doc-length quantiles (textstats.doc_length_quantiles <->
# sqlgen.dl_quantiles_sql, frozen pair): dl = kept-token count per doc
# (empty docs count with dl = 0); quantiles are linear-interpolated
# (quantile_cont / numpy "linear": pos = q*(n-1), v = v_lo +
# frac*(v_hi - v_lo) in double), rounded 4. Output columns p{100q}
# derive from these probabilities.
DL_QUANTILES = (0.25, 0.5, 0.75, 0.9)

# KMV (bottom-k minimum values) distinct-gram sketch
# (textstats.kmv_distinct <-> textstats.kmv_distinct_sql, frozen pair):
# grams = KMV_GRAM_K-length subtoken windows joined by chr(1) (the winnow
# gram identity), hashed with the little-endian uint64 of the first 8 md5
# bytes (the minhash/simhash base hash — UNIFORM, unlike the md5-digit
# winnow hash whose short-digit-string tail floods a bottom-k) shifted
# right 1 bit to fit int64 (domain [0, 2^63)); sketch = the KMV_K
# smallest DISTINCT hash values; est_distinct = n_sketch when
# n_sketch < KMV_K (exact), else round4((KMV_K-1) * 2^63 / kth in double).
KMV_K = 256
KMV_GRAM_K = 5

# Tree-fold width for partial->driver merges (functions/collect.py
# fold_partials): above this many source blocks an associative combiner
# re-fold bounds the driver merge at O(FOLD_FAN_IN * partial size).
FOLD_FAN_IN = 64

# Event funnel (events.event_funnel <-> events.event_funnel_sql, frozen
# pair): greedy first-match funnel per user over the ordered event log —
# t_1 = min ts of a step-1 event; t_k = min ts of a step-k event with
# ts STRICTLY > t_{k-1}; a user reaches step k iff t_k exists.
# conv_rate = round4(n_users_k / n_users_1 in double), NULL when no user
# reaches step 1. Steps are matched by exact event_type equality.
FUNNEL_STEPS = ("signup", "click", "purchase")

# Per-type event-value quantiles (events.event_value_quantiles <->
# events.event_value_quantiles_sql, frozen pair): values are 4-decimal
# scaled ints round(value*10000)::int64 — NULL values are excluded on
# BOTH sides (quantile_cont skips NULLs; the engine filters them), so a
# type with only NULL values emits no row; quantiles linear-interpolate
# over the sorted scaled ints (pos = q*(n-1), v = v_lo + frac*(v_hi -
# v_lo) in double — the DL_QUANTILES formula, already proven to match
# DuckDB quantile_cont on integer inputs), then /10000.0 and round4.
# Output columns p{100q} derive from these probabilities.
EV_QUANTILES = (0.25, 0.5, 0.75, 0.9)

# Fixed-width event-value histogram (events.event_value_histogram <->
# events.event_value_histogram_sql, frozen pair): bin =
# floor(v_s / EV_HIST_STEP_S) with v_s = round(value*10000)::int64 and
# the division taken in DOUBLE on both sides (exact for |v_s| < 2^53 —
# numpy floor-divide of float64 == DuckDB floor(CAST AS DOUBLE) /);
# NULL values excluded; per (event_type, bin): n = count, sum_value =
# round4(sum(v_s)/10000.0) (exact-int sum, order-free), bin_lo =
# round4(bin * EV_HIST_STEP_S / 10000.0).
EV_HIST_STEP_S = 250_000  # bin width = 25.0 value units

# Corpus-wide adjacent kept-token pair counts (textstats.term_pair_counts
# <-> sqlgen.term_pairs_sql, frozen pair): pairs are (term[p], term[p+1])
# over each doc's KEPT-token stream with 0-based kept positions
# (analyzer.term_positions <-> sqlgen.pos_tokens_cte — the phrase-mode
# stream); n_pairs = total occurrences, n_docs = distinct docs containing
# the pair; rank (n_pairs DESC, term_a ASC, term_b ASC) — a total order,
# because (term_a, term_b) is unique after grouping — top PAIR_TOP_N.
PAIR_TOP_N = 50

# TPC-H Q9 shape without partsupp (relational.product_type_profit <->
# relational.product_type_profit_sql, frozen pair): the classic Q9
# profit rollup reduced to the tables this corpus carries (no partsupp
# -> no ps_supplycost term): profit = revenue = sum over lines of parts
# whose p_name contains Q9_PART_WORD of round(p*100) * (100 -
# round(d*100)) in 1e-4-dollar units, grouped by (supplier nation,
# order year), ordered (nation ASC, o_year DESC).
Q9_PART_WORD = "widget"

# vocab_growth (textstats.vocab_growth <-> sqlgen.vocab_growth_sql): the
# Heaps-law vocabulary growth curve is measured over the FROZEN shuffle
# order (sampling.doc_shuffle's rank — random order is the standard way
# to plot vocab growth, and the shuffle rank is already a frozen,
# partition-invariant quantity). Grid points are INTEGER percents of the
# corpus, prefix size k = (pct*N + 99) // 100 — exact integer ceil, never
# a float multiply (0.1*500 = 50.000000000000007 would ceil to 51).
VOCAB_GRID_PCT = (10, 25, 50, 75, 100)

# top_terms_per_lang (textstats.top_terms_per_lang <->
# sqlgen.top_terms_per_lang_sql): per-language vocabulary head, rank =
# (tf DESC, term ASC) row_number (total order: term unique per lang).
TOP_TERMS_PER_LANG_K = 10
