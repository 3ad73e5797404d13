"""DuckDB SQL generators that mirror the engine's frozen semantics exactly.

Each generated fragment reproduces, in ANSI-ish DuckDB SQL, the same pure
functions the engine runs (functions/analyzer.py tokenizer, doc_id assignment,
BM25 scoring). These are the *oracle* side of the driver's correctness gate;
they share every constant with the engine via config.py so there is a single
source of truth.

Reference parity notes are kept with the engine implementations; this module
is only about SQL equivalence.
"""

from __future__ import annotations

from smse_backend_ray.config import (
    JACCARD_SHINGLE_DF_CAP,
    MAX_TOKEN_LEN,
    MIN_TOKEN_LEN,
    SCORE_DECIMALS,
    SIMHASH_BUCKET_CAP,
    SIMHASH_MAX_HAMMING,
    STOPWORDS,
    BM25Params,
)


def stoplist_sql() -> str:
    """SQL literal list of the frozen stopword/keyword set (sorted)."""
    return ", ".join("'" + w + "'" for w in sorted(STOPWORDS))


def subtoken_expr(text_expr: str) -> str:
    """SQL expr producing the list of raw subtokens (analyzer steps 1-4)."""
    return (
        "string_split(lower(regexp_replace(regexp_replace(regexp_replace("
        f"{text_expr}, "
        "'[^A-Za-z0-9]+', ' ', 'g'), "
        "'([A-Z]+)([A-Z][a-z])', '\\1 \\2', 'g'), "
        "'([a-z0-9])([A-Z])', '\\1 \\2', 'g')), ' ')"
    )


def token_filter_sql(term_col: str = "term") -> str:
    """WHERE predicate matching analyzer._keep plus the empty-token drop."""
    return (
        f"{term_col} <> '' "
        f"AND length({term_col}) BETWEEN {MIN_TOKEN_LEN} AND {MAX_TOKEN_LEN} "
        f"AND NOT regexp_full_match({term_col}, '[0-9]+') "
        f"AND {term_col} NOT IN ({stoplist_sql()})"
    )


def tokens_cte(src: str, id_cols: str, text_col: str) -> str:
    """SELECT producing one row per kept token: (<id_cols>, term)."""
    return (
        f"SELECT {id_cols}, t.term AS term "
        f"FROM {src} AS src, unnest({subtoken_expr('src.' + text_col)}) AS t(term) "
        f"WHERE {token_filter_sql('t.term')}"
    )


# ---------------------------------------------------------------------------
# Corpus derivation from the driver's `documents` table
# ---------------------------------------------------------------------------
# The engine's input shape is fixed by BASELINE.json input_hint:
# (repo, path, commit, lang, content). For driver-comparable queries we derive
# that corpus deterministically from the `documents` table
# (doc_id, text, lang, source, n_chars) — see sources/corpus.py for the
# Python twin of this mapping.

CORPUS_CTE = (
    "SELECT source AS repo, "
    "'docs/' || lpad(CAST(doc_id AS VARCHAR), 8, '0') || '.txt' AS path, "
    "md5('c' || CAST(doc_id AS VARCHAR)) AS commit, "
    "lang AS lang, text AS content "
    "FROM documents"
)


def doc_id_expr(repo: str = "repo", path: str = "path", commit: str = "commit") -> str:
    """Deterministic doc_id: first 15 decimal digits of sha256(key) hex.

    (DuckDB 1.0 cannot cast hex->BIGINT, so both sides strip the hex letters
    and parse the leading 15 digits — deterministic and collision-safe at
    sandbox scale; the manifest records the scheme so a production build can
    swap in a 128-bit key.)
    """
    key = f"{repo} || chr(10) || {path} || chr(10) || {commit}"
    return (
        f"CAST(substr(regexp_replace(sha256({key}), '[a-f]', '', 'g'), 1, 15) AS BIGINT)"
    )


DOCS_CTE = (
    f"SELECT repo, path, commit, lang, content, "
    f"{doc_id_expr()} AS doc_id, "
    f"sha256(content) AS content_sha256, "
    f"CAST(octet_length(encode(content)) AS BIGINT) AS n_bytes "
    f"FROM corpus "
    f"QUALIFY row_number() OVER (PARTITION BY {doc_id_expr()} ORDER BY sha256(content)) = 1"
)


def with_corpus_docs(body: str, docs_where: str | None = None) -> str:
    """Wrap an oracle query body with the corpus+docs CTE prologue.

    ``docs_where`` filters the docs CTE (e.g. the vacuumed-tombstones oracle:
    compaction == rebuild of the surviving corpus, so its oracle is the same
    query over the filtered docs — N/avgdl/df all derive from docs)."""
    docs_cte = (
        DOCS_CTE
        if docs_where is None
        else f"SELECT * FROM ({DOCS_CTE}) WHERE {docs_where}"
    )
    return f"WITH corpus AS ({CORPUS_CTE}), docs AS ({docs_cte}) {body}"


# ---------------------------------------------------------------------------
# ingest / stats / df oracles (SURVEY.md S6, A5, A6 correctness gates)
# ---------------------------------------------------------------------------

_TOKS_CTE = (
    "SELECT src.doc_id AS doc_id, t.term AS term FROM docs AS src, "
    "unnest({expr}) AS t(term) WHERE {filt}"
)


def _toks() -> str:
    return _TOKS_CTE.format(expr=subtoken_expr("src.content"), filt=token_filter_sql("t.term"))


def _dl_cte() -> str:
    return (
        "SELECT d.doc_id, COALESCE(x.dl, 0) AS dl FROM docs d LEFT JOIN "
        "(SELECT doc_id, CAST(count(*) AS BIGINT) AS dl FROM toks GROUP BY doc_id) x USING (doc_id)"
    )


def ingest_docs_sql() -> str:
    """Deduped docs table with analysis length (ingest stage oracle)."""
    return with_corpus_docs(
        f", toks AS ({_toks()}), dl AS ({_dl_cte()}) "
        "SELECT d.doc_id, d.repo, d.path, d.commit, d.lang, d.content_sha256, "
        "d.n_bytes, dl.dl AS dl "
        "FROM docs d JOIN dl USING (doc_id) ORDER BY d.doc_id"
    )


def corpus_stats_sql() -> str:
    return with_corpus_docs(
        f", toks AS ({_toks()}), dl AS ({_dl_cte()}) "
        "SELECT CAST(count(*) AS BIGINT) AS n_docs, "
        "CAST(SUM(dl) AS BIGINT) AS sum_dl, "
        "CAST(SUM(dl) AS DOUBLE) / count(*) AS avgdl FROM dl"
    )


def term_df_sql() -> str:
    return with_corpus_docs(
        f", toks AS ({_toks()}) "
        "SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df "
        "FROM toks GROUP BY term ORDER BY term"
    )


def postings_sql() -> str:
    """Uncompressed posting triples — decode-the-index oracle (A6)."""
    return with_corpus_docs(
        f", toks AS ({_toks()}) "
        "SELECT term, doc_id, CAST(count(*) AS BIGINT) AS tf "
        "FROM toks GROUP BY term, doc_id ORDER BY term, doc_id"
    )


def lang_counts_sql() -> str:
    """Count-by-lang (majority-modality analog A2)."""
    return with_corpus_docs(
        "SELECT lang, CAST(count(*) AS BIGINT) AS n_docs FROM docs "
        "GROUP BY lang ORDER BY lang"
    )


def top_terms_sql(n: int) -> str:
    """Hot-term head profile (df DESC, term ASC) — the skew the salted
    pre-aggregation targets (SURVEY.md §4 skew row)."""
    return with_corpus_docs(
        f", toks AS ({_toks()}) "
        "SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df "
        f"FROM toks GROUP BY term ORDER BY df DESC, term ASC LIMIT {n}"
    )


def path_parse_sql() -> str:
    """Filename/extension extraction (M3 Content.filename + F1/F2 analogs,
    smse_backend/models/content.py:43-62)."""
    return with_corpus_docs(
        "SELECT doc_id, path, "
        "regexp_extract(path, '([^/]*)$', 1) AS filename, "
        "lower(regexp_extract(regexp_extract(path, '([^/]*)$', 1), "
        "'\\.([^.]*)$', 1)) AS ext "
        "FROM docs ORDER BY doc_id"
    )


def repo_sizes_sql() -> str:
    """Per-repo doc count + byte totals (A4 get_directory_size analog,
    smse_backend/services/file_storage.py:710-735; repo = the user_id/scope
    prefix the reference sums under)."""
    return with_corpus_docs(
        "SELECT repo, CAST(count(*) AS BIGINT) AS n_docs, "
        "CAST(SUM(n_bytes) AS BIGINT) AS total_bytes "
        "FROM docs GROUP BY repo ORDER BY repo"
    )


def _winnow_wmins_cte(k: int, w: int) -> str:
    """The shared winnow CTE prelude (toks -> ordered -> gram_str ->
    grams -> wmins) used by winnow_sql AND winnow_dup_pairs_sql — one
    copy so the twins can't diverge. The caller appends its own final
    CTEs + SELECT; the prelude ends after ``wmins`` with a trailing
    comma slot (caller adds ',\\n<cte>')."""
    toks_expr = subtoken_expr("src.text")
    leads = " || chr(1) || ".join(
        ["term"] + [f"lead(term,{j}) OVER w" for j in range(1, k)]
    )
    # COALESCE 0 mirrors the engine's all-letter-md5 fallback (_gram_hash)
    ghash = (
        "COALESCE(CAST(NULLIF(substr(regexp_replace(md5(gram), '[a-f]', '', 'g'),"
        " 1, 15), '') AS BIGINT), 0)"
    )
    return f"""
WITH toks AS (
  SELECT src.doc_id, t.term, t.pos
  FROM documents src,
  LATERAL (SELECT unnest({toks_expr}) AS term,
                  generate_subscripts({toks_expr}, 1) AS pos) t
  WHERE t.term <> ''
),
ordered AS (
  SELECT doc_id, term, row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS p
  FROM toks
),
gram_str AS (
  SELECT doc_id, p, {leads} AS gram,
         lead(term,{k - 1}) OVER w IS NOT NULL AS full_gram
  FROM ordered WINDOW w AS (PARTITION BY doc_id ORDER BY p)
),
grams AS (
  SELECT doc_id, p, {ghash} AS g, count(*) OVER (PARTITION BY doc_id) AS n_grams
  FROM (SELECT doc_id, p, gram FROM gram_str WHERE full_gram)
),
wmins AS (
  SELECT doc_id, p,
    min(g) OVER (PARTITION BY doc_id ORDER BY p
                 ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING) AS wmin,
    n_grams
  FROM grams
)"""


def winnow_dup_pairs_sql(
    k: int, w: int, df_cap: int, min_shared: int
) -> str:
    """MOSS-style near-dup pairs twin (pipelines/dedup.py winnow_dup_pairs):
    doc pairs sharing >= min_shared DISTINCT winnow fingerprints, after
    dropping fingerprints with document frequency > df_cap (boilerplate
    guard — identical cap on the engine side)."""
    return (
        _winnow_wmins_cte(k, w)
        + f""",
fps AS (
  SELECT DISTINCT doc_id, wmin AS fp
  FROM wmins WHERE p <= GREATEST(n_grams - {w} + 1, 1)
),
kept AS (
  SELECT doc_id, fp FROM fps
  WHERE fp IN (SELECT fp FROM fps GROUP BY fp HAVING count(*) <= {df_cap})
)
SELECT x.doc_id AS a, y.doc_id AS b,
       CAST(count(*) AS BIGINT) AS n_shared
FROM kept x JOIN kept y ON x.fp = y.fp AND x.doc_id < y.doc_id
GROUP BY 1, 2
HAVING count(*) >= {min_shared}
ORDER BY a, b
"""
    )


def winnow_sql(k: int, w: int) -> str:
    """Winnowing fingerprints twin (pipelines/textstats.py winnow_rows):
    ordered subtoken stream -> k-gram strings via lead() -> md5-digit gram
    hash -> windowed min -> first-seen dedup, exploded to
    (doc_id, fp_rank, fingerprint) rows. The engine's window tie rule is
    irrelevant to the output (dedup is by value), so a plain min() OVER
    reproduces it exactly."""
    return (
        _winnow_wmins_cte(k, w)
        + f""",
firsts AS (
  SELECT doc_id, wmin, min(p) AS fp
  FROM wmins WHERE p <= GREATEST(n_grams - {w} + 1, 1)
  GROUP BY doc_id, wmin
)
SELECT doc_id,
  CAST(row_number() OVER (PARTITION BY doc_id ORDER BY fp) AS BIGINT) AS fp_rank,
  wmin AS fingerprint
FROM firsts ORDER BY doc_id, fp_rank
"""
    )



def top_docs_per_repo_sql(k: int) -> str:
    """Grouped top-k twin (pipelines/grouped_topk.py): largest k docs per
    repo by (n_bytes DESC, doc_id ASC)."""
    return with_corpus_docs(
        "SELECT repo, CAST(rank AS BIGINT) AS rank, doc_id, n_bytes FROM ("
        "SELECT repo, doc_id, n_bytes, row_number() OVER "
        "(PARTITION BY repo ORDER BY n_bytes DESC, doc_id) AS rank FROM docs) "
        f"WHERE rank <= {k} ORDER BY repo, rank"
    )


# ---------------------------------------------------------------------------
# textstats oracles (pipelines/textstats.py twins; operate on `documents`)
# ---------------------------------------------------------------------------

_DOC_RAW = (
    "SELECT src.doc_id AS doc_id, t.term AS term FROM documents src, "
    "unnest({expr}) AS t(term) WHERE t.term <> ''"
)


def _doc_raw_tokens() -> str:
    return _DOC_RAW.format(expr=subtoken_expr("src.text"))


def _doc_kept_tokens() -> str:
    return (
        f"SELECT src.doc_id AS doc_id, t.term AS term FROM documents src, "
        f"unnest({subtoken_expr('src.text')}) AS t(term) "
        f"WHERE {token_filter_sql('t.term')}"
    )


def token_stats_sql() -> str:
    return f"""
WITH raw AS ({_doc_raw_tokens()}),
kept AS ({_doc_kept_tokens()}),
r AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n,
        CAST(SUM(length(term)) AS DOUBLE) / count(*) AS mean_len
      FROM raw GROUP BY doc_id),
k AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n,
        CAST(count(DISTINCT term) AS BIGINT) AS nd FROM kept GROUP BY doc_id)
SELECT d.doc_id,
  COALESCE(r.n, 0) AS n_subtokens,
  COALESCE(k.n, 0) AS n_tokens,
  COALESCE(k.nd, 0) AS n_distinct_terms,
  COALESCE(r.mean_len, 0.0) AS mean_subtoken_len
FROM documents d LEFT JOIN r ON r.doc_id = d.doc_id
LEFT JOIN k ON k.doc_id = d.doc_id
ORDER BY d.doc_id
"""


def _stop_ratio_cte() -> str:
    """THE one copy of the per-doc (n raw subtokens, stop ratio) CTE body
    — shared by quality_sql and quality_by_source_sql."""
    return f"""raw AS ({_doc_raw_tokens()}),
r AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n,
        CAST(SUM(CASE WHEN term IN ({stoplist_sql()}) THEN 1 ELSE 0 END) AS DOUBLE)
          / count(*) AS sr
      FROM raw GROUP BY doc_id)"""


# THE one copy of the frozen quality formula (twin of
# textstats.quality_batch) — references the r CTE from _stop_ratio_cte().
_QUALITY_EXPR = (
    "round(CAST(0.3 AS DOUBLE) * COALESCE(r.sr, 0.0) "
    "+ CAST(0.7 AS DOUBLE) * least(COALESCE(r.n, 0), 100) / 100, 4)"
)


def quality_sql() -> str:
    return f"""
WITH {_stop_ratio_cte()}
SELECT d.doc_id,
  COALESCE(r.n, 0) AS n_subtokens,
  round(COALESCE(r.sr, 0.0), 4) AS stop_ratio,
  {_QUALITY_EXPR} AS quality
FROM documents d LEFT JOIN r ON r.doc_id = d.doc_id
ORDER BY d.doc_id
"""


def unigram_logprob_sql() -> str:
    """Unigram-LM twin (textstats.unigram_logprob — frozen pair: kept-token
    stream, p(term) = tf_corpus/total as DOUBLE division, ln, per-doc mean
    rounded 4, dl=0 docs emit (0, 0.0))."""
    return f"""
WITH kept AS ({_doc_kept_tokens()}),
dt AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
       FROM kept GROUP BY doc_id, term),
freq AS (SELECT term, CAST(SUM(tf) AS BIGINT) AS tf_corpus FROM dt GROUP BY term),
tot AS (SELECT CAST(SUM(tf_corpus) AS DOUBLE) AS t FROM freq),
per AS (
  SELECT dt.doc_id, CAST(SUM(dt.tf) AS BIGINT) AS dl,
         SUM(dt.tf * ln(CAST(dt2.tf_corpus AS DOUBLE) / tot.t)) AS lp
  FROM dt JOIN freq dt2 USING (term) CROSS JOIN tot
  GROUP BY dt.doc_id
)
SELECT d.doc_id, COALESCE(per.dl, 0) AS dl,
       CASE WHEN COALESCE(per.dl, 0) = 0 THEN 0.0
            ELSE round(per.lp / per.dl, 4) END AS avg_logprob
FROM documents d LEFT JOIN per USING (doc_id)
ORDER BY d.doc_id
"""


def _lang_pred_body() -> str:
    """THE one copy of the lang-ID prediction SQL (per-doc (doc_id,
    pred_lang)) — shared by lang_id_sql and lang_confusion_sql so the
    classifier twin can never fork."""
    from smse_backend_ray.config import LANG_MARKERS

    langs = sorted(LANG_MARKERS)
    hit_cols = ", ".join(
        "SUM(CASE WHEN term IN ("
        + ", ".join("'" + w + "'" for w in LANG_MARKERS[lg])
        + f") THEN 1 ELSE 0 END) AS h_{lg}"
        for lg in langs
    )
    g = "greatest(" + ", ".join(f"h.h_{lg}" for lg in langs) + ")"
    argmax = " ".join(
        f"WHEN h.h_{lg} = {g} THEN '{lg}'" for lg in langs
    )
    return f"""
WITH raw AS ({_doc_raw_tokens()}),
h AS (SELECT doc_id, {hit_cols} FROM raw GROUP BY doc_id)
SELECT d.doc_id,
  CASE WHEN h.doc_id IS NULL THEN 'zh'
       WHEN {g} = 0 THEN 'unknown'
       {argmax}
  END AS pred_lang
FROM documents d LEFT JOIN h ON h.doc_id = d.doc_id
"""


def bigram_logprob_sql() -> str:
    """Bigram-LM twin (textstats.bigram_logprob — frozen pair: kept-token
    adjacency pairs, p(b|a) = n_ab/n_a as DOUBLE division then ln, per-doc
    mean rounded 4, docs with < 2 kept tokens emit (0, 0.0))."""
    pos = pos_tokens_cte("documents", "doc_id", "text")
    return f"""
WITH kt AS ({pos}),
pairs AS (
  SELECT k1.doc_id AS doc_id, k1.term AS a, k2.term AS b
  FROM kt k1 JOIN kt k2 ON k2.doc_id = k1.doc_id AND k2.p = k1.p + 1
),
dp AS (SELECT doc_id, a, b, CAST(count(*) AS BIGINT) AS tfp
       FROM pairs GROUP BY 1, 2, 3),
fab AS (SELECT a, b, CAST(SUM(tfp) AS BIGINT) AS n_ab FROM dp GROUP BY 1, 2),
fa AS (SELECT a, CAST(SUM(n_ab) AS BIGINT) AS n_a FROM fab GROUP BY 1),
per AS (
  SELECT dp.doc_id, CAST(SUM(dp.tfp) AS BIGINT) AS n_bigrams,
         SUM(dp.tfp * ln(CAST(fab.n_ab AS DOUBLE) / fa.n_a)) AS lp
  FROM dp JOIN fab USING (a, b) JOIN fa USING (a)
  GROUP BY dp.doc_id
)
SELECT d.doc_id, COALESCE(per.n_bigrams, 0) AS n_bigrams,
       CASE WHEN COALESCE(per.n_bigrams, 0) = 0 THEN 0.0
            ELSE round(per.lp / per.n_bigrams, 4) END AS avg_logprob
FROM documents d LEFT JOIN per USING (doc_id)
ORDER BY d.doc_id
"""


def lang_id_sql() -> str:
    return _lang_pred_body() + "ORDER BY d.doc_id\n"


def lang_confusion_sql() -> str:
    """Twin of textstats.lang_confusion — stored-label vs frozen lang-ID
    prediction confusion matrix (exact counts per cell, both keys ASC).
    The prediction body is _lang_pred_body(), the SAME text lang_id_sql
    runs, so the classifier halves cannot diverge."""
    return f"""
WITH p AS ({_lang_pred_body()})
SELECT d.lang AS lang, p.pred_lang AS pred_lang,
       CAST(count(*) AS BIGINT) AS n_docs
FROM documents d JOIN p ON p.doc_id = d.doc_id
GROUP BY 1, 2 ORDER BY 1, 2
"""


def quality_by_source_sql() -> str:
    """Twin of textstats.quality_by_source — per-source doc count, mean
    quality and below-curation-bar count. Frozen pair: q_s =
    round(quality*10000, 0)::BIGINT over the ROUNDED quality (the same
    expression quality_sql emits), mean_quality = round(sum_s/10000.0/n,
    4) with left-to-right double division, n_low counts q_s <
    round(CURATE_MIN_QUALITY*10000) — the exact-int threshold form."""
    from smse_backend_ray.config import CURATE_MIN_QUALITY

    thr_s = int(round(CURATE_MIN_QUALITY * 10000))
    return f"""
WITH {_stop_ratio_cte()},
q AS (SELECT d.source AS source,
        CAST(round({_QUALITY_EXPR} * 10000, 0) AS BIGINT) AS q_s
      FROM documents d LEFT JOIN r ON r.doc_id = d.doc_id)
SELECT source,
  CAST(count(*) AS BIGINT) AS n_docs,
  round(CAST(SUM(q_s) AS DOUBLE) / 10000.0 / count(*), 4) AS mean_quality,
  CAST(SUM(CASE WHEN q_s < {thr_s} THEN 1 ELSE 0 END) AS BIGINT) AS n_low
FROM q GROUP BY source ORDER BY source
"""


def quality_zscore_sql() -> str:
    """Twin of textstats.quality_zscore — per-source exact int64 moments
    (n, sum q_s, sum q_s^2) of the scaled ROUNDED quality, mean = s/n,
    var = ss/n - mean*mean (that op order), z = round4((q_s - mean) /
    sqrt(var)); var <= 0 freezes z = 0.0. IEEE-correctly-rounded double
    ops on both sides, so values match bitwise pre-round."""
    return f"""
WITH {_stop_ratio_cte()},
q AS (SELECT d.doc_id AS doc_id, d.source AS source,
        CAST(round({_QUALITY_EXPR} * 10000, 0) AS BIGINT) AS q_s
      FROM documents d LEFT JOIN r ON r.doc_id = d.doc_id),
m AS (SELECT source, CAST(count(*) AS BIGINT) AS n,
        CAST(SUM(q_s) AS BIGINT) AS s, CAST(SUM(q_s * q_s) AS BIGINT) AS ss
      FROM q GROUP BY source),
mm AS (SELECT source, CAST(s AS DOUBLE) / n AS mean,
         (CAST(ss AS DOUBLE) / n)
           - (CAST(s AS DOUBLE) / n) * (CAST(s AS DOUBLE) / n) AS var
       FROM m)
SELECT q.doc_id, q.source,
  CASE WHEN mm.var <= 0 THEN 0.0
       ELSE round((CAST(q.q_s AS DOUBLE) - mm.mean) / sqrt(mm.var), 4)
  END AS quality_z
FROM q JOIN mm ON mm.source = q.source
ORDER BY q.doc_id
"""


def top_terms_per_lang_sql() -> str:
    """Twin of textstats.top_terms_per_lang — per-lang kept-token tf,
    row_number over (tf DESC, term ASC), top TOP_TERMS_PER_LANG_K."""
    from smse_backend_ray.config import TOP_TERMS_PER_LANG_K

    return f"""
WITH kept AS ({_doc_kept_tokens()}),
lt AS (SELECT d.lang AS lang, k.term AS term, CAST(count(*) AS BIGINT) AS tf
       FROM kept k JOIN documents d ON d.doc_id = k.doc_id
       GROUP BY 1, 2)
SELECT lang, term, tf, rank FROM (
  SELECT lang, term, tf,
    CAST(row_number() OVER (PARTITION BY lang
                            ORDER BY tf DESC, term ASC) AS BIGINT) AS rank
  FROM lt)
WHERE rank <= {int(TOP_TERMS_PER_LANG_K)}
ORDER BY lang, rank
"""


def vocab_growth_sql() -> str:
    """Twin of textstats.vocab_growth — the Heaps-law curve over the frozen
    shuffle order (sampling._key_sql rank), k = (pct*N + 99) // 100 in
    exact INTEGER arithmetic on both sides (DuckDB's truncating // equals
    floor here because every operand is non-negative; never a float
    ceil)."""
    from smse_backend_ray.config import VOCAB_GRID_PCT
    from smse_backend_ray.pipelines.sampling import _key_sql

    rows = ", ".join(f"({int(p)})" for p in VOCAB_GRID_PCT)
    return f"""
WITH keyed AS (SELECT doc_id, {_key_sql()} AS sk FROM documents),
rk AS (SELECT doc_id,
         CAST(row_number() OVER (ORDER BY sk, doc_id) - 1 AS BIGINT) AS rank
       FROM keyed),
kept AS ({_doc_kept_tokens()}),
dt AS (SELECT DISTINCT doc_id, term FROM kept),
tm AS (SELECT dt.term, MIN(rk.rank) AS r
       FROM dt JOIN rk ON rk.doc_id = dt.doc_id GROUP BY dt.term),
g AS (SELECT v.pct AS pct,
        (v.pct * (SELECT count(*) FROM documents) + 99) // 100 AS k
      FROM (VALUES {rows}) v(pct))
SELECT CAST(g.pct AS BIGINT) AS pct,
       CAST(g.k AS BIGINT) AS n_prefix_docs,
       CAST((SELECT count(*) FROM tm WHERE tm.r < g.k) AS BIGINT) AS vocab
FROM g
ORDER BY pct
"""


def fingerprint_sql() -> str:
    return "SELECT doc_id, md5(text) AS fingerprint FROM documents ORDER BY doc_id"


# ---------------------------------------------------------------------------
# dedup / similarity oracles (pipelines/dedup.py, pipelines/simsearch.py)
# ---------------------------------------------------------------------------

def preview_sql() -> str:
    """Twin of textstats.preview_batch: first line truncated to 120 chars
    (char semantics on both sides), line count, preview char length."""
    return """
SELECT doc_id,
       substring(split_part(text, chr(10), 1), 1, 120) AS preview,
       length(substring(split_part(text, chr(10), 1), 1, 120)) AS preview_len,
       length(text) - length(replace(text, chr(10), '')) + 1 AS n_lines
FROM documents
ORDER BY doc_id
"""


def validate_sql() -> str:
    """Twin of textstats.validate_batch (same RE2 patterns)."""
    return with_corpus_docs(
        "SELECT doc_id, "
        "regexp_full_match(path, '[A-Za-z0-9_./-]+') AND NOT contains(path, '..') AS valid_path, "
        "regexp_full_match(lang, '[a-z0-9]{1,8}') AS valid_lang, "
        "regexp_full_match(commit, '[0-9a-f]{32}') AS valid_commit, "
        "n_bytes > 0 AS non_empty "
        "FROM docs ORDER BY doc_id"
    )


def exact_dedup_sql() -> str:
    return (
        "SELECT doc_id, md5(text) AS fingerprint FROM documents "
        "QUALIFY row_number() OVER (PARTITION BY md5(text) ORDER BY doc_id) = 1 "
        "ORDER BY doc_id"
    )


def _shingles_cte(k: int) -> str:
    """Distinct word k-gram shingles per doc over the raw subtoken stream."""
    grams = " || ' ' || ".join(
        "term" if i == 0 else f"lead(term, {i}) OVER (PARTITION BY doc_id ORDER BY pos)"
        for i in range(k)
    )
    return f"""
raw0 AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos
  FROM (SELECT doc_id, {subtoken_expr('text')} AS l FROM documents)
),
raw AS (SELECT doc_id, term, pos FROM raw0 WHERE term <> ''),
grams AS (
  SELECT doc_id, {grams} AS shingle,
         row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS rn,
         count(*) OVER (PARTITION BY doc_id) AS n
  FROM raw
),
shingles AS (SELECT DISTINCT doc_id, shingle FROM grams WHERE rn <= n - {k - 1})"""


def _overlap_pairs_cte(k: int, df_cap: int) -> str:
    """THE one copy of the exact set-overlap candidate prelude (hot-capped
    shingle sets -> sizes + pair intersections) — shared by
    jaccard_pairs_sql and containment_pairs_sql, mirroring the engine's
    shared dedup._shingle_inter_sizes pass."""
    return f"""
WITH {_shingles_cte(k).lstrip()},
hot AS (SELECT shingle FROM shingles GROUP BY shingle HAVING count(*) > {df_cap}),
kept AS (SELECT doc_id, shingle FROM shingles
         WHERE shingle NOT IN (SELECT shingle FROM hot)),
sizes AS (SELECT doc_id, count(*) AS n FROM kept GROUP BY doc_id),
inter AS (
  SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS i
  FROM kept s1 JOIN kept s2 ON s1.shingle = s2.shingle AND s1.doc_id < s2.doc_id
  GROUP BY s1.doc_id, s2.doc_id
)"""


def jaccard_pairs_sql(
    threshold: float, k: int, df_cap: int = JACCARD_SHINGLE_DF_CAP
) -> str:
    """Exact-Jaccard twin. ``df_cap`` mirrors the engine's
    JACCARD_SHINGLE_DF_CAP: shingles shared by more than df_cap docs are
    excluded from every shingle set (sizes AND intersections)."""
    return f"""{_overlap_pairs_cte(k, df_cap)}
SELECT inter.a, inter.b,
       round(CAST(inter.i AS DOUBLE) / (za.n + zb.n - inter.i), 4) AS jaccard
FROM inter JOIN sizes za ON za.doc_id = inter.a JOIN sizes zb ON zb.doc_id = inter.b
WHERE CAST(inter.i AS DOUBLE) / (za.n + zb.n - inter.i) >= {threshold}
ORDER BY inter.a, inter.b
"""


def dedup_impact_sql(
    threshold: float, k: int, df_cap: int = JACCARD_SHINGLE_DF_CAP
) -> str:
    """Twin of dedup.dedup_impact — keep-list from dedup_clusters_sql (the
    ONE cluster definition), RAW non-empty subtoken counts, round4 exact-
    int keep rates, 0.0 on empty denominators."""
    inner = dedup_clusters_sql(threshold, k, df_cap)
    return f"""
WITH cl AS ({inner}),
losers AS (SELECT doc_id FROM cl WHERE doc_id <> cluster_id),
raw AS ({_doc_raw_tokens()}),
rc AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n FROM raw GROUP BY doc_id),
dd AS (
  SELECT d.doc_id, COALESCE(rc.n, 0) AS n,
         d.doc_id NOT IN (SELECT doc_id FROM losers) AS keep
  FROM documents d LEFT JOIN rc ON rc.doc_id = d.doc_id
)
SELECT CAST(count(*) AS BIGINT) AS n_docs,
  CAST(COALESCE(SUM(CASE WHEN keep THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_survivors,
  CAST(COALESCE(SUM(n), 0) AS BIGINT) AS n_subtokens,
  CAST(COALESCE(SUM(CASE WHEN keep THEN n ELSE 0 END), 0) AS BIGINT)
    AS n_subtokens_surviving,
  CASE WHEN count(*) = 0 THEN 0.0
       ELSE round(CAST(SUM(CASE WHEN keep THEN 1 ELSE 0 END) AS DOUBLE)
                  / count(*), 4) END AS doc_keep_rate,
  CASE WHEN COALESCE(SUM(n), 0) = 0 THEN 0.0
       ELSE round(CAST(SUM(CASE WHEN keep THEN n ELSE 0 END) AS DOUBLE)
                  / SUM(n), 4) END AS token_keep_rate
FROM dd
"""


def dup_rate_by_source_sql(
    threshold: float, k: int, df_cap: int = JACCARD_SHINGLE_DF_CAP
) -> str:
    """Twin of dedup.dup_rate_by_source — wraps jaccard_pairs_sql as the
    pair CTE (so the pair set can't fork), attaches each side's source,
    counts per unordered (least, greatest) source pair."""
    return f"""
WITH p AS ({jaccard_pairs_sql(threshold, k, df_cap)})
SELECT least(da.source, db.source) AS source_a,
       greatest(da.source, db.source) AS source_b,
       CAST(count(*) AS BIGINT) AS n_pairs
FROM p JOIN documents da ON da.doc_id = p.a
       JOIN documents db ON db.doc_id = p.b
GROUP BY 1, 2 ORDER BY 1, 2
"""


def containment_pairs_sql(
    threshold: float, k: int, df_cap: int = JACCARD_SHINGLE_DF_CAP
) -> str:
    """Twin of dedup.containment_pairs — Broder max-containment
    i / least(na, nb) over the SAME candidate prelude as the Jaccard twin
    (_overlap_pairs_cte, one copy); round4, RAW-double threshold."""
    return f"""{_overlap_pairs_cte(k, df_cap)}
SELECT inter.a, inter.b,
       round(CAST(inter.i AS DOUBLE) / least(za.n, zb.n), 4) AS containment
FROM inter JOIN sizes za ON za.doc_id = inter.a JOIN sizes zb ON zb.doc_id = inter.b
WHERE CAST(inter.i AS DOUBLE) / least(za.n, zb.n) >= {threshold}
ORDER BY inter.a, inter.b
"""


def repetition_sql(k: int = 2) -> str:
    """Duplicate-bigram-fraction twin (textstats.repetition_batch — frozen
    engine<->SQL pair: word k-grams over the RAW subtoken stream, dup_frac
    rounded 4, gram-less docs emit (0, 0, 0.0))."""
    grams = " || ' ' || ".join(
        "term" if i == 0 else f"lead(term, {i}) OVER (PARTITION BY doc_id ORDER BY pos)"
        for i in range(k)
    )
    return f"""
WITH raw0 AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos
  FROM (SELECT doc_id, {subtoken_expr('text')} AS l FROM documents)
),
raw AS (SELECT doc_id, term, pos FROM raw0 WHERE term <> ''),
grams AS (
  SELECT doc_id, {grams} AS gram,
         row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS rn,
         count(*) OVER (PARTITION BY doc_id) AS n
  FROM raw
),
gkeep AS (SELECT doc_id, gram FROM grams WHERE rn <= n - {k - 1}),
per AS (
  SELECT doc_id, count(*) AS n_grams, count(DISTINCT gram) AS n_distinct
  FROM gkeep GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(per.n_grams, 0) AS n_grams,
       COALESCE(per.n_distinct, 0) AS n_distinct,
       CASE WHEN COALESCE(per.n_grams, 0) = 0 THEN 0.0
            ELSE round(CAST(per.n_grams - per.n_distinct AS DOUBLE)
                       / per.n_grams, 4) END AS dup_frac
FROM documents d LEFT JOIN per USING (doc_id)
ORDER BY d.doc_id
"""


def decontaminate_sql(parts: list[str], k: int = 2) -> str:
    """Decontamination twin (textstats.decontaminate): the benchmark gram
    set is built IN SQL from the same query parts (inlined as VALUES, each
    part shingled separately), so both sides share the frozen analyzer."""
    vals = ", ".join("('" + p.replace("'", "''") + "')" for p in parts)
    grams_doc = " || ' ' || ".join(
        "term" if i == 0 else f"lead(term, {i}) OVER (PARTITION BY doc_id ORDER BY pos)"
        for i in range(k)
    )
    grams_q = " || ' ' || ".join(
        "term" if i == 0 else f"lead(term, {i}) OVER (PARTITION BY qid ORDER BY pos)"
        for i in range(k)
    )
    return f"""
WITH qsrc AS (SELECT row_number() OVER () AS qid, part FROM (VALUES {vals}) v(part)),
qraw0 AS (
  SELECT qid, unnest(l) AS term, generate_subscripts(l, 1) AS pos
  FROM (SELECT qid, {subtoken_expr('part')} AS l FROM qsrc)
),
qraw AS (SELECT qid, term, pos FROM qraw0 WHERE term <> ''),
qgrams AS (
  SELECT qid, {grams_q} AS gram,
         row_number() OVER (PARTITION BY qid ORDER BY pos) AS rn,
         count(*) OVER (PARTITION BY qid) AS n
  FROM qraw
),
bench AS (SELECT DISTINCT gram FROM qgrams WHERE rn <= n - {k - 1}),
raw0 AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos
  FROM (SELECT doc_id, {subtoken_expr('text')} AS l FROM documents)
),
raw AS (SELECT doc_id, term, pos FROM raw0 WHERE term <> ''),
grams AS (
  SELECT doc_id, {grams_doc} AS gram,
         row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS rn,
         count(*) OVER (PARTITION BY doc_id) AS n
  FROM raw
),
dgrams AS (SELECT DISTINCT doc_id, gram FROM grams WHERE rn <= n - {k - 1})
SELECT doc_id, count(*) AS n_hits
FROM dgrams JOIN bench USING (gram)
GROUP BY doc_id ORDER BY doc_id
"""


def minhash_lsh_pairs_sql(
    threshold: float,
    k: int,
    df_cap: int = JACCARD_SHINGLE_DF_CAP,
    perms: int = 64,
    bands: int = 16,
) -> str:
    """MinHash+LSH twin (pipelines/dedup.py _minhash_sig / minhash_lsh_pairs
    — frozen engine<->SQL pair). Per-shingle base hash = little-endian
    uint64 of the first 8 md5 bytes (same expr as simhash); permutation p =
    splitmix-style xor-multiply-xorshift with the 64-bit wraparound multiply
    split into 32-bit halves in HUGEINT (x*C mod 2^64 = lo*C + ((hi*C mod
    2^32) << 32) mod 2^64 — int128 would overflow on the direct product).
    Banding: the engine buckets by md5 of each band's 4 signature uint64s;
    equal signatures collide in both, so grouping by the signature tuple
    itself (string_agg ordered by perm) reproduces the candidate set exactly
    short of a 64-bit md5 collision between UNEQUAL tuples (~2^-64, and any
    such phantom candidate would still need to pass exact-Jaccard
    verification to alter output). Verification = exact Jaccard on the
    df-capped shingle sets restricted to candidates, identical to
    jaccard_pairs_sql."""
    c1 = 0x9E3779B97F4A7C15
    c2 = 0xBF58476D1CE4E5B9
    r = perms // bands
    hexpr = (
        "CAST(('0x' || substr(m,15,2) || substr(m,13,2) || substr(m,11,2)"
        " || substr(m,9,2) || substr(m,7,2) || substr(m,5,2) || substr(m,3,2)"
        " || substr(m,1,2)) AS UBIGINT)"
    )
    return f"""
WITH {_shingles_cte(k).lstrip()},
base AS (
  SELECT doc_id, {hexpr} AS h
  FROM (SELECT doc_id, md5(shingle) AS m FROM shingles)
),
mixed AS (
  SELECT doc_id, pk,
    xor(h, CAST(({c1}::HUGEINT * pk) % 18446744073709551616 AS UBIGINT)) AS x0
  FROM base CROSS JOIN (SELECT unnest(generate_series(1, {perms})) AS pk) perms
),
mul AS (
  SELECT doc_id, pk,
    CAST(((  (x0 % 4294967296)::HUGEINT * {c2}
           + ((x0 // 4294967296)::HUGEINT * {c2} % 4294967296) * 4294967296
          ) % 18446744073709551616) AS UBIGINT) AS x1
  FROM mixed
),
sig AS (
  SELECT doc_id, pk, min(xor(x1, x1 >> 31)) AS v
  FROM mul GROUP BY doc_id, pk
),
bk AS (
  SELECT doc_id, (pk - 1) // {r} AS band,
         string_agg(CAST(v AS VARCHAR), ',' ORDER BY pk) AS key
  FROM sig GROUP BY doc_id, (pk - 1) // {r}
),
cands AS (
  SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
  FROM bk x JOIN bk y ON x.band = y.band AND x.key = y.key
                     AND x.doc_id < y.doc_id
),
hot AS (SELECT shingle FROM shingles GROUP BY shingle HAVING count(*) > {df_cap}),
kept AS (SELECT doc_id, shingle FROM shingles
         WHERE shingle NOT IN (SELECT shingle FROM hot)),
sizes AS (SELECT doc_id, count(*) AS n FROM kept GROUP BY doc_id),
inter AS (
  SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS i
  FROM kept s1 JOIN kept s2 ON s1.shingle = s2.shingle AND s1.doc_id < s2.doc_id
  JOIN cands c ON c.a = s1.doc_id AND c.b = s2.doc_id
  GROUP BY s1.doc_id, s2.doc_id
)
SELECT inter.a, inter.b,
       round(CAST(inter.i AS DOUBLE) / (za.n + zb.n - inter.i), 4) AS jaccard
FROM inter JOIN sizes za ON za.doc_id = inter.a JOIN sizes zb ON zb.doc_id = inter.b
WHERE CAST(inter.i AS DOUBLE) / (za.n + zb.n - inter.i) >= {threshold}
ORDER BY inter.a, inter.b
"""


def simhash_pairs_sql(
    max_hamming: int = SIMHASH_MAX_HAMMING, bucket_cap: int = SIMHASH_BUCKET_CAP
) -> str:
    """SimHash near-dup twin (pipelines/dedup.py simhash_pairs / simhash64 —
    frozen engine<->SQL pair). Per-token hash = little-endian uint64 of the
    first 8 md5 bytes (the substr shuffle reverses byte order); per-doc
    simhash = sign of the ±1 bit votes over the RAW subtoken stream
    (unfiltered, like the engine); token-less docs hash to 0. Banding: 4
    16-bit chunks, bucket key = (chunk << 16) | value; buckets above
    ``bucket_cap`` are excluded entirely (the engine logs + drops them), and
    surviving same-bucket pairs verify with exact bit_count hamming."""
    hexpr = (
        "CAST(('0x' || substr(m,15,2) || substr(m,13,2) || substr(m,11,2)"
        " || substr(m,9,2) || substr(m,7,2) || substr(m,5,2) || substr(m,3,2)"
        " || substr(m,1,2)) AS UBIGINT)"
    )
    return f"""
WITH toks AS (
  SELECT src.doc_id, t.term FROM documents src,
  unnest({subtoken_expr('src.text')}) AS t(term) WHERE t.term <> ''
),
th AS (SELECT doc_id, {hexpr} AS h
       FROM (SELECT doc_id, md5(term) AS m FROM toks)),
votes AS (
  SELECT doc_id, bit, SUM(CASE WHEN (h >> bit) & 1 = 1 THEN 1 ELSE -1 END) AS v
  FROM th CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS bit) bits
  GROUP BY doc_id, bit
),
sh0 AS (
  SELECT doc_id, CAST(COALESCE(SUM(CASE WHEN v > 0 THEN (1::HUGEINT << bit) END),
                               0) AS UBIGINT) AS simhash
  FROM votes GROUP BY doc_id
),
sh AS (
  SELECT d.doc_id, COALESCE(s.simhash, 0::UBIGINT) AS simhash
  FROM documents d LEFT JOIN sh0 s USING (doc_id)
),
chunks AS (
  SELECT doc_id, simhash,
         (c.c << 16) | CAST((simhash >> (16 * c.c)) & 65535 AS BIGINT) AS bkey
  FROM sh CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS c) c
),
sized AS (SELECT *, count(*) OVER (PARTITION BY bkey) AS bsz FROM chunks),
pairs AS (
  SELECT x.doc_id AS a, y.doc_id AS b,
         CAST(bit_count(xor(x.simhash, y.simhash)) AS BIGINT) AS hamming
  FROM sized x JOIN sized y ON x.bkey = y.bkey AND x.doc_id < y.doc_id
  WHERE x.bsz BETWEEN 2 AND {bucket_cap}
    AND bit_count(xor(x.simhash, y.simhash)) <= {max_hamming}
)
SELECT a, b, CAST(min(hamming) AS INTEGER) AS hamming
FROM pairs GROUP BY a, b ORDER BY a, b
"""


def _clusters_closure_sql(pairs_inner: str) -> str:
    """Shared CC closure: wrap any (a, b[, ...]) pair query in a recursive
    transitive-closure CTE, cluster_id = min doc_id reachable. The ONE copy
    both cluster twins (jaccard, winnow) compose — mirrors the engine's
    shared dedup._clusters_from_pairs tail."""
    return f"""
WITH RECURSIVE pairs AS ({pairs_inner}),
edges AS (SELECT a AS u, b AS v FROM pairs UNION ALL SELECT b, a FROM pairs),
nodes AS (SELECT DISTINCT u AS n FROM edges),
reach(n, m) AS (
  SELECT n, n FROM nodes
  UNION
  SELECT r.n, e.v FROM reach r JOIN edges e ON e.u = r.m
),
lbl AS (SELECT n AS doc_id, min(m) AS cluster_id FROM reach GROUP BY n)
SELECT doc_id, cluster_id,
       CAST(count(*) OVER (PARTITION BY cluster_id) AS BIGINT) AS cluster_size
FROM lbl ORDER BY doc_id
"""


def dedup_clusters_sql(
    threshold: float, k: int, df_cap: int = JACCARD_SHINGLE_DF_CAP
) -> str:
    """Connected-components twin (pipelines/dedup.py dedup_clusters):
    transitive closure over the verified Jaccard pairs via a recursive CTE,
    cluster_id = min doc_id reachable."""
    return _clusters_closure_sql(jaccard_pairs_sql(threshold, k, df_cap))


def winnow_dup_clusters_sql(
    k: int, w: int, df_cap: int, min_shared: int
) -> str:
    """Connected-components twin (pipelines/dedup.py winnow_dup_clusters):
    the same recursive closure over the MOSS-style winnow-fingerprint
    pairs (winnow_dup_pairs_sql)."""
    return _clusters_closure_sql(winnow_dup_pairs_sql(k, w, df_cap, min_shared))


def substring_dup_sql(k: int, min_df: int) -> str:
    """Exact-substring duplication twin (pipelines/dedup.substring_dup_stats
    — frozen engine<->SQL pair: distinct word k-grams over the RAW subtoken
    stream, a gram counts as duplicated when >= min_df distinct docs carry
    it, dup_frac rounded 4, gram-less docs emit (0, 0, 0.0))."""
    return f"""
WITH {_shingles_cte(k).lstrip()},
df AS (SELECT shingle, count(*) AS df FROM shingles GROUP BY shingle),
per AS (
  SELECT s.doc_id, CAST(count(*) AS BIGINT) AS n_grams,
         CAST(sum(CASE WHEN f.df >= {min_df} THEN 1 ELSE 0 END) AS BIGINT) AS n_dup
  FROM shingles s JOIN df f USING (shingle) GROUP BY s.doc_id
)
SELECT d.doc_id,
       COALESCE(per.n_grams, 0) AS n_grams,
       COALESCE(per.n_dup, 0) AS n_dup,
       CASE WHEN COALESCE(per.n_grams, 0) = 0 THEN 0.0
            ELSE round(CAST(per.n_dup AS DOUBLE) / per.n_grams, 4) END AS dup_frac
FROM documents d LEFT JOIN per USING (doc_id)
ORDER BY d.doc_id
"""


def dedup_survivors_sql(
    threshold: float, k: int, df_cap: int = JACCARD_SHINGLE_DF_CAP
) -> str:
    """Keep-list twin (pipelines/dedup.dedup_survivors): every doc except
    the non-representative members of each near-dup cluster (representative
    = cluster min doc_id = cluster_id)."""
    inner = dedup_clusters_sql(threshold, k, df_cap)
    return f"""
WITH cl AS ({inner})
SELECT d.doc_id FROM documents d
WHERE d.doc_id NOT IN (SELECT doc_id FROM cl WHERE doc_id <> cluster_id)
ORDER BY d.doc_id
"""


# cosine computed manually in DOUBLE — DuckDB's list_cosine_similarity runs
# in float32, which cannot be oracled against at 4-decimal precision
_EMB_UNNEST = (
    "unn AS (SELECT vec_id, unnest(embedding) AS x, "
    "generate_subscripts(embedding, 1) AS i FROM embeddings), "
    "dotn AS (SELECT vec_id, SUM(CAST(x AS DOUBLE) * CAST(x AS DOUBLE)) AS nrm "
    "FROM unn GROUP BY vec_id)"
)


def embedding_dup_pairs_sql(threshold: float) -> str:
    return f"""
WITH {_EMB_UNNEST},
dots AS (
  SELECT a.vec_id AS a, b.vec_id AS b,
         SUM(CAST(a.x AS DOUBLE) * CAST(b.x AS DOUBLE)) AS dot
  FROM unn a JOIN unn b ON a.i = b.i AND a.vec_id < b.vec_id
  GROUP BY a.vec_id, b.vec_id
)
SELECT d.a, d.b, round(d.dot / (sqrt(na.nrm) * sqrt(nb.nrm)), 4) AS cosine
FROM dots d JOIN dotn na ON na.vec_id = d.a JOIN dotn nb ON nb.vec_id = d.b
WHERE d.dot / (sqrt(na.nrm) * sqrt(nb.nrm)) >= {threshold}
ORDER BY d.a, d.b
"""


def knn_sql(n_queries: int, k: int) -> str:
    """Brute-force cosine top-k: query vecs = vec_id < n_queries; rank by
    (round(cos,4) DESC, vec_id ASC) — identical rule to the engine."""
    return f"""
WITH {_EMB_UNNEST},
dots AS (
  SELECT q.vec_id AS query_vec_id, v.vec_id AS vec_id,
         SUM(CAST(q.x AS DOUBLE) * CAST(v.x AS DOUBLE)) AS dot
  FROM unn q JOIN unn v ON q.i = v.i
  WHERE q.vec_id < {n_queries}
  GROUP BY q.vec_id, v.vec_id
),
sims AS (
  SELECT d.query_vec_id, d.vec_id,
         round(d.dot / (sqrt(nq.nrm) * sqrt(nv.nrm)), 4) AS cosine
  FROM dots d JOIN dotn nq ON nq.vec_id = d.query_vec_id
  JOIN dotn nv ON nv.vec_id = d.vec_id
),
ranked AS (
  SELECT query_vec_id, vec_id, cosine,
         row_number() OVER (PARTITION BY query_vec_id
                            ORDER BY cosine DESC, vec_id ASC) AS rnk
  FROM sims
)
SELECT query_vec_id, CAST(rnk AS INT) AS rank, vec_id, cosine
FROM ranked WHERE rnk <= {k}
ORDER BY query_vec_id, rank
"""


# ---------------------------------------------------------------------------
# BM25 oracle
# ---------------------------------------------------------------------------

def bm25_scored_ctes(params: BM25Params) -> str:
    """CTE chain (after corpus/docs/queries CTEs) computing BM25 scores.

    Expects a CTE named `queries(query_id, part)` with one row per query part
    (multi-part fusion = the term multiset union across parts; reference
    analog: mean-pool fusion in smse_backend/services/embedding.py:56-98).
    Produces CTE `scored(query_id, doc_id, score)`.
    """
    k1, b = params.k1, params.b
    return f"""
toks AS ({tokens_cte('docs', 'src.doc_id', 'content')}),
tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf FROM toks GROUP BY doc_id, term),
dl AS (
  SELECT d.doc_id, COALESCE(x.dl, 0) AS dl
  FROM docs d LEFT JOIN (SELECT doc_id, CAST(count(*) AS BIGINT) AS dl FROM toks GROUP BY doc_id) x USING (doc_id)
),
stats AS (SELECT CAST(count(*) AS BIGINT) AS n_docs, CAST(SUM(dl) AS DOUBLE) / count(*) AS avgdl FROM dl),
df AS (SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY term),
qtok AS (
  SELECT query_id, term, CAST(count(*) AS BIGINT) AS qtf
  FROM ({tokens_cte('queries', 'src.query_id', 'part')})
  GROUP BY query_id, term
),
scored AS (
  SELECT qt.query_id, tf.doc_id,
         SUM(qt.qtf
             * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * tf.tf * ({k1} + 1)
               / (tf.tf + {k1} * (1 - {b} + {b} * dl.dl / s.avgdl))) AS score
  FROM qtok qt
  JOIN tf ON tf.term = qt.term
  JOIN df ON df.term = qt.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY qt.query_id, tf.doc_id
)"""


def bm25_topk_sql(
    queries,
    params: BM25Params,
    meta_cols: bool = True,
    docs_where: str | None = None,
) -> str:
    """Full oracle for the flagship pipeline: top-k BM25 per QuerySpec.

    ``queries`` is a sequence of queryset.QuerySpec (per-query parts, scope,
    limit, threshold). Ranking uses (round(score, SCORE_DECIMALS) DESC,
    doc_id ASC) — identical to the engine — so near-ties order
    deterministically on both sides. The threshold keeps rounded score >=
    threshold (the reference's `not <` form, smse_backend/services/
    search.py:180-184) and applies BEFORE ranking/limit, like the reference
    (filter inside search_by_modality results, then global sort+limit:
    smse_backend/services/search.py:171-205). Scope '' = unscoped (the
    user_id filter analog, services/search.py:104).
    """

    _check_specs(queries, "bm25_topk_sql")
    part_vals, meta_vals = _query_values(queries)
    return with_corpus_docs(
        f"""
, queries(query_id, part) AS (VALUES {part_vals}),
qmeta(query_id, scope, lim, threshold) AS (VALUES {meta_vals}),
{bm25_scored_ctes(params).lstrip()},
ranked AS (
  SELECT sc.query_id, sc.doc_id, round(sc.score, {SCORE_DECIMALS}) AS rscore,
         d.path, d.repo, d.lang, m.lim
  FROM scored sc
  JOIN docs d ON d.doc_id = sc.doc_id
  JOIN qmeta m ON m.query_id = sc.query_id
  WHERE (m.scope = '' OR d.repo = m.scope)
    AND (m.threshold IS NULL OR round(sc.score, {SCORE_DECIMALS}) >= m.threshold)
),
topk AS (
  SELECT query_id, doc_id, rscore, path, repo, lang, lim,
         row_number() OVER (PARTITION BY query_id ORDER BY rscore DESC, doc_id ASC) AS rnk
  FROM ranked
)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rnk AS INT) AS rank,
       doc_id, {"path, repo, lang, " if meta_cols else ""}rscore AS score
FROM topk WHERE rnk <= lim
ORDER BY query_id, rank
""",
        docs_where=docs_where,
    )


# ---------------------------------------------------------------------------
# Conjunctive (AND) and exact-phrase BM25 oracles
# ---------------------------------------------------------------------------


def _sq(s: str) -> str:
    """SQL string literal (single-quote escaping)."""
    return "'" + s.replace("'", "''") + "'"


def _check_specs(queries, fn: str, modes=("or",), exclude_ok: bool = False) -> None:
    """Fail LOUDLY when a QuerySpec carries a field this SQL twin does not
    implement — a silent ignore would desync the engine<->SQL pair and
    surface only as an unexplained gate mismatch."""
    for qs in queries:
        m = getattr(qs, "mode", "or")
        if m not in modes:
            raise ValueError(f"{fn} does not implement mode={m!r} (query {qs.query_id})")
        if not exclude_ok and getattr(qs, "exclude", ()):
            raise ValueError(
                f"{fn} does not implement QuerySpec.exclude (query {qs.query_id}); "
                "use bm25_exclude_topk_sql or a pytest oracle"
            )


def _query_values(queries) -> tuple[str, str]:
    part_vals = ", ".join(
        f"({qs.query_id}, {_sq(p)})" for qs in queries for p in qs.parts
    )
    meta_vals = ", ".join(
        f"({qs.query_id}, {_sq(qs.scope)}, {qs.limit}, "
        + ("CAST(NULL AS DOUBLE)" if qs.threshold is None else str(qs.threshold))
        + ")"
        for qs in queries
    )
    return part_vals, meta_vals


def _bm25_restricted_sql(
    queries, params: BM25Params, extra_ctes: str, restrict: str,
    docs_where: str | None = None, meta_cols: bool = True,
) -> str:
    """Shared tail for restricted-candidate BM25 top-k: the standard scored
    CTE chain, an extra candidate CTE block, and a join that keeps only
    (query_id, doc_id) pairs the restriction admits."""
    part_vals, meta_vals = _query_values(queries)
    return with_corpus_docs(
        f"""
, queries(query_id, part) AS (VALUES {part_vals}),
qmeta(query_id, scope, lim, threshold) AS (VALUES {meta_vals}),
{bm25_scored_ctes(params).lstrip()},
{extra_ctes},
ranked AS (
  SELECT sc.query_id, sc.doc_id, round(sc.score, {SCORE_DECIMALS}) AS rscore,
         d.path, d.repo, d.lang, m.lim
  FROM scored sc
  JOIN {restrict} r ON r.query_id = sc.query_id AND r.doc_id = sc.doc_id
  JOIN docs d ON d.doc_id = sc.doc_id
  JOIN qmeta m ON m.query_id = sc.query_id
  WHERE (m.scope = '' OR d.repo = m.scope)
    AND (m.threshold IS NULL OR round(sc.score, {SCORE_DECIMALS}) >= m.threshold)
),
topk AS (
  SELECT query_id, doc_id, rscore, path, repo, lang, lim,
         row_number() OVER (PARTITION BY query_id ORDER BY rscore DESC, doc_id ASC) AS rnk
  FROM ranked
)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rnk AS INT) AS rank,
       doc_id, {"path, repo, lang, " if meta_cols else ""}rscore AS score
FROM topk WHERE rnk <= lim
ORDER BY query_id, rank
""",
        docs_where=docs_where,
    )


def bm25_conj_topk_sql(
    queries, params: BM25Params, docs_where: str | None = None, meta_cols: bool = True
) -> str:
    """Conjunctive (AND-mode) top-k twin (stages/scorer.py ShardIndex.match, AND):
    only docs containing EVERY kept query term score; a kept term absent
    from the corpus (df = 0) makes the query return no rows — identical to
    the engine, which short-circuits before the scatter
    (pipelines/search.py). Frozen engine<->SQL pair."""
    _check_specs(queries, "bm25_conj_topk_sql", modes=("and",))
    extra = """
qn AS (SELECT query_id, CAST(count(*) AS BIGINT) AS nq FROM qtok GROUP BY query_id),
conj AS (
  SELECT qt.query_id, tf.doc_id
  FROM qtok qt
  JOIN tf ON tf.term = qt.term
  JOIN qn ON qn.query_id = qt.query_id
  GROUP BY qt.query_id, tf.doc_id, qn.nq
  HAVING count(*) = qn.nq
)"""
    return _bm25_restricted_sql(
        queries, params, extra.strip(), "conj", docs_where, meta_cols=meta_cols
    )


def pos_tokens_cte(src: str, id_col: str, text_col: str) -> str:
    """Ordered kept-token stream with 0-based kept positions:
    (<id_col>, term, p). Frozen twin of analyzer.term_positions — p indexes
    into tokenize(text), i.e. positions are assigned AFTER the keep filter,
    matching the positional segment column family (ingest.py with_positions)."""
    e = subtoken_expr("src." + text_col)
    return (
        f"SELECT {id_col}, term, "
        f"CAST(row_number() OVER (PARTITION BY {id_col} ORDER BY pos) - 1 AS BIGINT) AS p "
        f"FROM (SELECT src.{id_col} AS {id_col}, t.term AS term, t.pos AS pos "
        f"FROM {src} AS src, LATERAL (SELECT unnest({e}) AS term, "
        f"generate_subscripts({e}, 1) AS pos) t "
        f"WHERE {token_filter_sql('t.term')})"
    )


def phrase_topk_sql(queries, params: BM25Params, docs_where: str | None = None) -> str:
    """Exact-phrase top-k twin (stages/scorer.py ShardIndex.match, phrase): a doc
    matches iff the query part's kept-token sequence occurs contiguously in
    the doc's kept-token stream (offset-chained positions); matching docs
    score with the standard BM25 sum over the phrase's term multiset.

    Match detection: join doc positions to query positions on term, group by
    candidate start offset (d.p - q.p); a start is a match iff every phrase
    offset matched, i.e. the group has exactly phrase-length rows (each
    (d.p, q.p) pair is unique, so counts cannot inflate — repeated phrase
    terms are handled naturally). Frozen engine<->SQL pair."""
    _check_specs(queries, "phrase_topk_sql", modes=("phrase",))
    for qs in queries:
        if len(qs.parts) != 1:
            raise ValueError(f"phrase query {qs.query_id} must have exactly one part")
    extra = f"""
dpos AS ({pos_tokens_cte('docs', 'doc_id', 'content')}),
qpos AS ({pos_tokens_cte('queries', 'query_id', 'part')}),
qlen AS (SELECT query_id, CAST(count(*) AS BIGINT) AS L FROM qpos GROUP BY query_id),
phits AS (
  SELECT DISTINCT query_id, doc_id FROM (
    SELECT q.query_id, d.doc_id
    FROM qpos q
    JOIN dpos d ON d.term = q.term
    JOIN qlen ON qlen.query_id = q.query_id
    GROUP BY q.query_id, d.doc_id, d.p - q.p, qlen.L
    HAVING count(*) = qlen.L
  )
)"""
    return _bm25_restricted_sql(queries, params, extra.strip(), "phits", docs_where)


def near_topk_sql(queries, params: BM25Params, docs_where: str | None = None) -> str:
    """Proximity top-k twin (stages/scorer.py ShardIndex.match, near): a doc matches iff
    some kept-token window of span <= the query's slop contains at least one
    occurrence of every distinct kept query term; matches score with the
    standard BM25 sum.

    The per-query k-way position join is generated from the query's distinct
    kept terms computed PYTHON-side with analyzer.tokenize — legitimate
    because tokenizer equivalence with subtoken_expr/token_filter_sql is
    itself a frozen, fuzz-tested invariant (tests/test_analyzer.py). A query
    whose kept terms include a corpus-df=0 term yields no rows via the join
    (no dpos rows for that term), matching the engine's driver-side
    short-circuit. Frozen engine<->SQL pair."""
    from smse_backend_ray.config import NEAR_DEFAULT_SLOP
    from smse_backend_ray.functions.analyzer import tokenize

    _check_specs(queries, "near_topk_sql", modes=("near",))
    selects = []
    for qs in queries:
        slop = NEAR_DEFAULT_SLOP if getattr(qs, "slop", None) is None else int(qs.slop)
        terms = sorted({t for p in qs.parts for t in tokenize(p)})
        if not terms:
            continue
        aliases = [f"t{i}" for i in range(len(terms))]
        frm = f"(SELECT doc_id, p FROM dpos WHERE term = {_sq(terms[0])}) t0"
        for i, t in enumerate(terms[1:], 1):
            frm += (
                f" JOIN (SELECT doc_id, p FROM dpos WHERE term = {_sq(t)}) t{i}"
                f" ON t{i}.doc_id = t0.doc_id"
            )
        if len(terms) == 1:
            where = "TRUE"  # span 0 <= any slop >= 0
        else:
            ps = ", ".join(f"{a}.p" for a in aliases)
            where = f"greatest({ps}) - least({ps}) <= {slop}"
        selects.append(
            f"SELECT DISTINCT CAST({qs.query_id} AS BIGINT) AS query_id, "
            f"t0.doc_id AS doc_id FROM {frm} WHERE {where}"
        )
    hits = "\n  UNION ALL\n  ".join(selects) or (
        "SELECT CAST(NULL AS BIGINT) AS query_id, CAST(NULL AS BIGINT) AS doc_id "
        "WHERE FALSE"
    )
    extra = f"""
dpos AS ({pos_tokens_cte('docs', 'doc_id', 'content')}),
nearhits AS (
  {hits}
)"""
    return _bm25_restricted_sql(queries, params, extra.strip(), "nearhits", docs_where)


def explain_sql(text: str, n_docs: int, params: BM25Params) -> str:
    """Score-explain twin (SearchEngine.explain): for the ``n_docs``
    smallest doc_ids, one row per query term present in the doc with the
    BM25 inputs and the rounded contribution. Frozen engine<->SQL pair."""
    k1, b = params.k1, params.b
    return with_corpus_docs(
        f"""
, toks AS ({_toks()}),
tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf FROM toks GROUP BY doc_id, term),
dl AS (
  SELECT d.doc_id, COALESCE(x.dl, 0) AS dl
  FROM docs d LEFT JOIN (SELECT doc_id, CAST(count(*) AS BIGINT) AS dl FROM toks GROUP BY doc_id) x USING (doc_id)
),
stats AS (SELECT CAST(count(*) AS BIGINT) AS n_docs, CAST(SUM(dl) AS DOUBLE) / count(*) AS avgdl FROM dl),
df AS (SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY term),
srcs AS (SELECT doc_id FROM docs ORDER BY doc_id LIMIT {n_docs}),
qtok AS (
  SELECT term, CAST(count(*) AS BIGINT) AS qtf
  FROM ({tokens_cte(f'(SELECT {_sq(text)} AS part)', "'q'", 'part')})
  GROUP BY term
)
SELECT s.doc_id, qt.term, qt.qtf, df.df, tf.tf, dl.dl,
       round(qt.qtf
             * ln(1 + (st.n_docs - df.df + 0.5) / (df.df + 0.5))
             * tf.tf * ({k1} + 1)
               / (tf.tf + {k1} * (1 - {b} + {b} * dl.dl / st.avgdl)),
             {SCORE_DECIMALS}) AS contrib
FROM srcs s
JOIN tf ON tf.doc_id = s.doc_id
JOIN qtok qt ON qt.term = tf.term
JOIN df ON df.term = tf.term
JOIN dl ON dl.doc_id = s.doc_id
CROSS JOIN stats st
ORDER BY s.doc_id, qt.term
"""
    )


def bm25_exclude_topk_sql(
    queries, params: BM25Params, docs_where: str | None = None, meta_cols: bool = True
) -> str:
    """Boolean-NOT twin (scorer.excluded_ids via the tombstone filter):
    standard OR-mode top-k where docs containing ANY kept excluded term
    (QuerySpec.exclude, analyzed like parts) are dropped BEFORE
    scope/threshold/ranking. Frozen engine<->SQL pair."""
    _check_specs(queries, "bm25_exclude_topk_sql", exclude_ok=True)
    part_vals, meta_vals = _query_values(queries)
    ex_vals = ", ".join(
        f"({qs.query_id}, {_sq(p)})"
        for qs in queries
        for p in getattr(qs, "exclude", ())
    ) or "(CAST(NULL AS BIGINT), CAST(NULL AS VARCHAR))"
    return with_corpus_docs(
        f"""
, queries(query_id, part) AS (VALUES {part_vals}),
qmeta(query_id, scope, lim, threshold) AS (VALUES {meta_vals}),
qex(query_id, part) AS (VALUES {ex_vals}),
{bm25_scored_ctes(params).lstrip()},
extok AS (
  SELECT DISTINCT query_id, term
  FROM ({tokens_cte('qex', 'src.query_id', 'part')})
),
bad AS (
  SELECT DISTINCT e.query_id, tf.doc_id
  FROM extok e JOIN tf ON tf.term = e.term
),
ranked AS (
  SELECT sc.query_id, sc.doc_id, round(sc.score, {SCORE_DECIMALS}) AS rscore,
         d.path, d.repo, d.lang, m.lim
  FROM scored sc
  JOIN docs d ON d.doc_id = sc.doc_id
  JOIN qmeta m ON m.query_id = sc.query_id
  LEFT JOIN bad b ON b.query_id = sc.query_id AND b.doc_id = sc.doc_id
  WHERE b.doc_id IS NULL
    AND (m.scope = '' OR d.repo = m.scope)
    AND (m.threshold IS NULL OR round(sc.score, {SCORE_DECIMALS}) >= m.threshold)
),
topk AS (
  SELECT query_id, doc_id, rscore, path, repo, lang, lim,
         row_number() OVER (PARTITION BY query_id ORDER BY rscore DESC, doc_id ASC) AS rnk
  FROM ranked
)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rnk AS INT) AS rank,
       doc_id, {"path, repo, lang, " if meta_cols else ""}rscore AS score
FROM topk WHERE rnk <= lim
ORDER BY query_id, rank
""",
        docs_where=docs_where,
    )


def suggest_sql(queries) -> str:
    """Fuzzy-suggestion twin (pipelines/suggest.py): vocab terms with
    levenshtein(query, term) <= 1, ranked (lev ASC, df DESC, term ASC),
    top config.SUGGEST_TOP. The engine's edit-neighborhood candidates (the
    query plus every one-edit string over the analyzer's term alphabet,
    looked up in the df table) are equivalent to this brute-force
    predicate. Frozen engine<->SQL pair."""
    from smse_backend_ray.config import SUGGEST_TOP

    vals = ", ".join(f"({qid}, {_sq(text.lower())})" for qid, text in queries)
    return with_corpus_docs(
        f"""
, toks AS ({_toks()}),
df AS (SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df FROM toks GROUP BY term),
q(query_id, qt) AS (VALUES {vals}),
cand AS (
  SELECT q.query_id, df.term, df.df,
         CAST(levenshtein(q.qt, df.term) AS BIGINT) AS lev
  FROM q JOIN df ON levenshtein(q.qt, df.term) <= 1
),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY query_id
      ORDER BY lev ASC, df DESC, term ASC) AS rnk
  FROM cand
)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rnk AS INT) AS rank,
       term, df, lev
FROM ranked WHERE rnk <= {SUGGEST_TOP}
ORDER BY query_id, rank
"""
    )


def prefix_topk_sql(
    prefixes, k: int, cap: int, params: BM25Params, docs_where: str | None = None
) -> str:
    """Prefix-query twin (SearchEngine.search_prefix): ``prefixes`` is a
    sequence of (query_id, prefix); expansion = df terms with the prefix,
    term-ASCENDING, capped at ``cap``; qtf=1 per expanded term; standard
    (rounded DESC, doc_id ASC) top-k. Frozen engine<->SQL pair."""
    k1, b = params.k1, params.b
    idf = "ln(1 + (st.n_docs - df.df + 0.5) / (df.df + 0.5))"
    vals = ", ".join(f"({qid}, {_sq(p.lower())})" for qid, p in prefixes)
    return with_corpus_docs(
        f"""
, toks AS ({_toks()}),
tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf FROM toks GROUP BY doc_id, term),
dl AS (
  SELECT d.doc_id, COALESCE(x.dl, 0) AS dl
  FROM docs d LEFT JOIN (SELECT doc_id, CAST(count(*) AS BIGINT) AS dl FROM toks GROUP BY doc_id) x USING (doc_id)
),
stats AS (SELECT CAST(count(*) AS BIGINT) AS n_docs, CAST(SUM(dl) AS DOUBLE) / count(*) AS avgdl FROM dl),
df AS (SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY term),
pq(query_id, prefix) AS (VALUES {vals}),
exp AS (
  SELECT query_id, term FROM (
    SELECT pq.query_id, df.term,
           row_number() OVER (PARTITION BY pq.query_id ORDER BY df.term ASC) AS r
    FROM pq JOIN df ON starts_with(df.term, pq.prefix)
  ) WHERE r <= {cap}
),
pscored AS (
  SELECT e.query_id, tf.doc_id,
         SUM({idf}
             * tf.tf * ({k1} + 1)
               / (tf.tf + {k1} * (1 - {b} + {b} * dl.dl / st.avgdl))) AS score
  FROM exp e
  JOIN tf ON tf.term = e.term
  JOIN df ON df.term = e.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats st
  GROUP BY e.query_id, tf.doc_id
),
ranked AS (
  SELECT sc.query_id, sc.doc_id, round(sc.score, {SCORE_DECIMALS}) AS rscore,
         d.path, d.repo, d.lang,
         row_number() OVER (PARTITION BY sc.query_id
             ORDER BY round(sc.score, {SCORE_DECIMALS}) DESC, sc.doc_id ASC) AS rnk
  FROM pscored sc JOIN docs d ON d.doc_id = sc.doc_id
)
SELECT CAST(query_id AS BIGINT) AS query_id, CAST(rnk AS INT) AS rank, doc_id,
       path, repo, lang, rscore AS score
FROM ranked WHERE rnk <= {k}
ORDER BY query_id, rank
""",
        docs_where=docs_where,
    )


def mlt_sql(
    n_src: int, m: int, k: int, params: BM25Params, docs_where: str | None = None
) -> str:
    """More-like-this twin (SearchEngine.more_like_this): sources = the
    ``n_src`` smallest doc_ids; per source, the ``m`` highest tf*idf terms
    (row_number ties term-asc), qtf=1 each; standard BM25 over those terms
    with the source doc excluded; (rounded DESC, doc_id ASC) top-k. Frozen
    engine<->SQL pair."""
    k1, b = params.k1, params.b
    idf = "ln(1 + (st.n_docs - df.df + 0.5) / (df.df + 0.5))"
    return with_corpus_docs(
        f"""
, toks AS ({_toks()}),
tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf FROM toks GROUP BY doc_id, term),
dl AS (
  SELECT d.doc_id, COALESCE(x.dl, 0) AS dl
  FROM docs d LEFT JOIN (SELECT doc_id, CAST(count(*) AS BIGINT) AS dl FROM toks GROUP BY doc_id) x USING (doc_id)
),
stats AS (SELECT CAST(count(*) AS BIGINT) AS n_docs, CAST(SUM(dl) AS DOUBLE) / count(*) AS avgdl FROM dl),
df AS (SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY term),
srcs AS (SELECT doc_id FROM docs ORDER BY doc_id LIMIT {n_src}),
mlt_terms AS (
  SELECT s.doc_id AS src_id, tf.term,
         row_number() OVER (PARTITION BY s.doc_id
             ORDER BY tf.tf * {idf} DESC, tf.term ASC) AS r
  FROM srcs s
  JOIN tf ON tf.doc_id = s.doc_id
  JOIN df ON df.term = tf.term
  CROSS JOIN stats st
),
qsel AS (SELECT src_id, term FROM mlt_terms WHERE r <= {m}),
mscored AS (
  SELECT q.src_id, tf.doc_id,
         SUM({idf}
             * tf.tf * ({k1} + 1)
               / (tf.tf + {k1} * (1 - {b} + {b} * dl.dl / st.avgdl))) AS score
  FROM qsel q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats st
  WHERE tf.doc_id <> q.src_id
  GROUP BY q.src_id, tf.doc_id
),
ranked AS (
  SELECT sc.src_id, sc.doc_id, round(sc.score, {SCORE_DECIMALS}) AS rscore,
         d.path, d.repo, d.lang,
         row_number() OVER (PARTITION BY sc.src_id
             ORDER BY round(sc.score, {SCORE_DECIMALS}) DESC, sc.doc_id ASC) AS rnk
  FROM mscored sc JOIN docs d ON d.doc_id = sc.doc_id
)
SELECT CAST(src_id AS BIGINT) AS src_id, CAST(rnk AS INT) AS rank, doc_id,
       path, repo, lang, rscore AS score
FROM ranked WHERE rnk <= {k}
ORDER BY src_id, rank
""",
        docs_where=docs_where,
    )


def snippets_sql(
    queries,
    params: BM25Params,
    lead: int | None = None,
    window: int | None = None,
    docs_where: str | None = None,
) -> str:
    """Snippets twin (SearchEngine.snippets): for each (query, top-k doc),
    the kept-token window [max(0, anchor-lead), +window) joined with spaces,
    where anchor = the smallest kept position of any kept query term in the
    doc. Frozen engine<->SQL pair (constants in config.SNIPPET_*)."""
    from smse_backend_ray.config import SNIPPET_LEAD, SNIPPET_WINDOW

    lead = SNIPPET_LEAD if lead is None else lead
    window = SNIPPET_WINDOW if window is None else window
    _check_specs(queries, "snippets_sql")
    part_vals, meta_vals = _query_values(queries)
    return with_corpus_docs(
        f"""
, queries(query_id, part) AS (VALUES {part_vals}),
qmeta(query_id, scope, lim, threshold) AS (VALUES {meta_vals}),
{bm25_scored_ctes(params).lstrip()},
ranked AS (
  SELECT sc.query_id, sc.doc_id, round(sc.score, {SCORE_DECIMALS}) AS rscore,
         m.lim
  FROM scored sc
  JOIN docs d ON d.doc_id = sc.doc_id
  JOIN qmeta m ON m.query_id = sc.query_id
  WHERE (m.scope = '' OR d.repo = m.scope)
    AND (m.threshold IS NULL OR round(sc.score, {SCORE_DECIMALS}) >= m.threshold)
),
topk AS (
  SELECT query_id, doc_id, lim,
         row_number() OVER (PARTITION BY query_id ORDER BY rscore DESC, doc_id ASC) AS rnk
  FROM ranked
),
hits AS (SELECT query_id, doc_id, rnk FROM topk WHERE rnk <= lim),
dpos AS ({pos_tokens_cte('docs', 'doc_id', 'content')}),
anchors AS (
  SELECT h.query_id, h.doc_id, h.rnk,
         greatest(CAST(min(d.p) AS BIGINT) - {lead}, 0) AS s
  FROM hits h
  JOIN qtok q ON q.query_id = h.query_id
  JOIN dpos d ON d.doc_id = h.doc_id AND d.term = q.term
  GROUP BY h.query_id, h.doc_id, h.rnk
)
SELECT CAST(a.query_id AS BIGINT) AS query_id, CAST(a.rnk AS INT) AS rank, a.doc_id,
       string_agg(d.term, ' ' ORDER BY d.p) AS snippet
FROM anchors a
JOIN dpos d ON d.doc_id = a.doc_id AND d.p >= a.s AND d.p < a.s + {window}
GROUP BY a.query_id, a.rnk, a.doc_id
ORDER BY a.query_id, a.rnk
""",
        docs_where=docs_where,
    )


def doc_chunks_sql(w: int, s: int) -> str:
    """Passage-chunking twin (textstats.doc_chunks): overlapping kept-token
    windows [i*s, i*s + w) per doc; last chunk index =
    ceil(max(dl - w, 0) / s) so every kept token is covered; chunk_text =
    window tokens joined by spaces in kept order. Frozen engine<->SQL
    pair."""
    return f"""
WITH kt AS ({pos_tokens_cte('documents', 'doc_id', 'text')}),
dl AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS dl FROM kt GROUP BY doc_id),
mx AS (SELECT (greatest(max(dl) - {w}, 0) + {s} - 1) // {s} AS m FROM dl),
nums AS (SELECT unnest(generate_series(0, (SELECT m FROM mx))) AS i),
starts AS (
  SELECT dl.doc_id, n.i AS chunk_id, n.i * {s} AS start_p
  FROM dl JOIN nums n ON n.i <= (greatest(dl.dl - {w}, 0) + {s} - 1) // {s}
)
SELECT st.doc_id, CAST(st.chunk_id AS BIGINT) AS chunk_id,
       CAST(st.start_p AS BIGINT) AS start_p,
       CAST(count(*) AS BIGINT) AS n_tokens,
       string_agg(k.term, ' ' ORDER BY k.p) AS chunk_text
FROM starts st
JOIN kt k ON k.doc_id = st.doc_id
  AND k.p >= st.start_p AND k.p < st.start_p + {w}
GROUP BY st.doc_id, st.chunk_id, st.start_p
ORDER BY st.doc_id, st.chunk_id
"""


def facets_sql(queries, params: BM25Params, docs_where: str | None = None) -> str:
    """Facet-counts twin (SearchEngine.facet_counts) for OR-mode queries:
    per query, repo and lang counts over ALL matching docs (any query term,
    scope + rounded-score threshold applied, NO top-k truncation). Frozen
    engine<->SQL pair."""
    from smse_backend_ray.config import FACET_MAX_VALUES as fmax

    _check_specs(queries, "facets_sql")
    part_vals, meta_vals = _query_values(queries)
    return with_corpus_docs(
        f"""
, queries(query_id, part) AS (VALUES {part_vals}),
qmeta(query_id, scope, lim, threshold) AS (VALUES {meta_vals}),
{bm25_scored_ctes(params).lstrip()},
matched AS (
  SELECT sc.query_id, d.repo, d.lang
  FROM scored sc
  JOIN docs d ON d.doc_id = sc.doc_id
  JOIN qmeta m ON m.query_id = sc.query_id
  WHERE (m.scope = '' OR d.repo = m.scope)
    AND (m.threshold IS NULL OR round(sc.score, {SCORE_DECIMALS}) >= m.threshold)
)
SELECT query_id, facet, value, n_docs FROM (
  SELECT CAST(query_id AS BIGINT) AS query_id, facet, value,
         CAST(count(*) AS BIGINT) AS n_docs,
         row_number() OVER (PARTITION BY query_id, facet
             ORDER BY count(*) DESC, value ASC) AS rnk
  FROM (
    SELECT query_id, 'repo' AS facet, repo AS value FROM matched
    UNION ALL
    SELECT query_id, 'lang' AS facet, lang AS value FROM matched
  )
  GROUP BY query_id, facet, value
)
WHERE rnk <= {fmax}
ORDER BY query_id, facet, value
""",
        docs_where=docs_where,
    )


def history_sql(
    queries, params: BM25Params, page_limit: int, ts_base: int
) -> str:
    """Query-history pagination twin (SearchEngine.history — reference
    routes/search.py:242-283): the same query metadata inlined as VALUES,
    n_results = per-query row count of the bm25 top-k twin (threshold +
    limit applied, zero-match queries log 0), order (timestamp DESC,
    query_id DESC) with row_number pagination in pages of ``page_limit``.
    Frozen engine<->SQL pair with the __ray_entry__ gate entry: the entry
    logs under the deterministic clock ts = ts_base + query_id and formats
    timestamps with the same '%Y-%m-%d %H:%M:%S' UTC strftime
    (make_timestamp(us) is a naive UTC timestamp on the SQL side, matching
    datetime.fromtimestamp(tz=utc) on the engine side)."""
    hist_vals = ", ".join(
        f"({qs.query_id}, {_sq(' | '.join(qs.parts))}, {len(qs.parts)}, "
        f"{_sq(qs.scope)}, {qs.limit})"
        for qs in queries
    )
    topk = bm25_topk_sql(queries, params, meta_cols=False)
    return f"""
WITH res AS (SELECT * FROM (
{topk}
)),
counts AS (
  SELECT query_id, CAST(count(*) AS BIGINT) AS n_results FROM res GROUP BY query_id
),
hist(query_id, text, n_parts, scope, lim) AS (VALUES {hist_vals}),
rows_ AS (
  SELECT h.query_id, h.text, h.n_parts, h.scope, h.lim,
         CAST({ts_base} + h.query_id AS BIGINT) AS ts_epoch,
         COALESCE(c.n_results, 0) AS n_results
  FROM hist h LEFT JOIN counts c USING (query_id)
),
ordered AS (
  SELECT *,
         row_number() OVER (ORDER BY ts_epoch DESC, query_id DESC) AS rn,
         CAST(count(*) OVER () AS BIGINT) AS total
  FROM rows_
)
SELECT CAST((rn - 1) // {page_limit} AS BIGINT) AS page,
       CAST(query_id AS BIGINT) AS query_id,
       text,
       CAST(n_parts AS BIGINT) AS n_parts,
       scope,
       CAST(lim AS BIGINT) AS lim,
       CAST(n_results AS BIGINT) AS n_results,
       strftime(make_timestamp(ts_epoch * 1000000), '%Y-%m-%d %H:%M:%S') AS ts_str,
       total,
       ((rn - 1) // {page_limit}) * {page_limit} + {page_limit} < total AS has_more
FROM ordered ORDER BY rn
"""


def cooc_pmi_sql() -> str:
    """Term co-occurrence / PMI twin (textstats.term_cooc_pmi — frozen
    pair; constants from config.COOC_*): distinct-doc df >= COOC_MIN_DF
    eligibility over the kept-token stream, per-doc pair set limited to
    the COOC_DOC_TERM_CAP lexicographically smallest eligible terms,
    co-document counts n_ab >= COOC_MIN_PAIRS, pmi = round4(ln((N *
    n_ab) / (df_a * df_b)) in double) with N = documents row count. PMI
    is a scalar per pair row, so there is no float-sum ordering to
    freeze."""
    from smse_backend_ray.config import (
        COOC_DOC_TERM_CAP,
        COOC_MIN_DF,
        COOC_MIN_PAIRS,
    )

    return f"""
WITH kept AS ({_doc_kept_tokens()}),
dterms AS (SELECT DISTINCT doc_id, term FROM kept),
df AS (SELECT term, CAST(count(*) AS BIGINT) AS df FROM dterms GROUP BY term),
elig AS (
  SELECT d.doc_id, d.term FROM dterms d JOIN df USING (term)
  WHERE df.df >= {COOC_MIN_DF}
  QUALIFY row_number() OVER (PARTITION BY d.doc_id ORDER BY d.term)
          <= {COOC_DOC_TERM_CAP}
),
pairs AS (
  SELECT x.term AS a, y.term AS b, CAST(count(*) AS BIGINT) AS n_ab
  FROM elig x JOIN elig y ON x.doc_id = y.doc_id AND x.term < y.term
  GROUP BY x.term, y.term
  HAVING count(*) >= {COOC_MIN_PAIRS}
),
nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents)
SELECT p.a, p.b, p.n_ab, da.df AS df_a, db.df AS df_b,
       round(ln((CAST(nn.n AS DOUBLE) * p.n_ab) / (CAST(da.df AS DOUBLE) * db.df)), 4) AS pmi
FROM pairs p
JOIN df da ON da.term = p.a
JOIN df db ON db.term = p.b
CROSS JOIN nn
ORDER BY p.a, p.b
"""

def keywords_sql() -> str:
    """Per-doc tf-idf keyword twin (textstats.doc_keywords — frozen pair;
    K = config.KEYWORDS_TOP_K): tf = kept-token occurrences of term in
    doc, df = distinct-doc count, tfidf = round(tf * ln(N / df), 4) in
    double with N = documents row count; rank = row_number over
    (ROUNDED tfidf DESC, term ASC) per doc, keep rank <= K. tfidf is a
    scalar per row — no float-sum ordering to freeze."""
    from smse_backend_ray.config import KEYWORDS_TOP_K

    return f"""
WITH kept AS ({_doc_kept_tokens()}),
tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
       FROM kept GROUP BY doc_id, term),
df AS (SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY term),
nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents),
scored AS (
  SELECT tf.doc_id, tf.term, tf.tf, df.df,
         round(tf.tf * ln(CAST(nn.n AS DOUBLE) / df.df), 4) AS tfidf
  FROM tf JOIN df USING (term) CROSS JOIN nn
),
ranked AS (
  SELECT doc_id, term, tf, df, tfidf,
         CAST(row_number() OVER (PARTITION BY doc_id
                                 ORDER BY tfidf DESC, term ASC) AS BIGINT) AS rank
  FROM scored
)
SELECT doc_id, rank, term, tf, df, tfidf
FROM ranked WHERE rank <= {KEYWORDS_TOP_K}
ORDER BY doc_id, rank
"""


def dl_quantiles_sql() -> str:
    """Twin of textstats.doc_length_quantiles — kept-token doc length
    (empty docs dl=0), linear-interpolated quantiles rounded 4, per lang."""
    from smse_backend_ray import config

    probs = tuple(config.DL_QUANTILES)
    cols = ",\n       ".join(
        f"round(quantile_cont(dl, {q!r}), 4) AS p{int(round(q * 100)):d}"
        for q in probs
    )
    return f"""
WITH kept AS ({_doc_kept_tokens()}),
k AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n FROM kept GROUP BY doc_id),
dl AS (SELECT d.lang AS lang, COALESCE(k.n, 0) AS dl
       FROM documents d LEFT JOIN k ON k.doc_id = d.doc_id)
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
       {cols}
FROM dl GROUP BY lang ORDER BY lang
"""

def term_pairs_sql() -> str:
    """Twin of textstats.term_pair_counts — adjacent kept-token pairs over
    the 0-based kept-position stream (pos_tokens_cte), ranked
    (n_pairs DESC, term_a ASC, term_b ASC) — a total order — top
    config.PAIR_TOP_N (frozen pair)."""
    from smse_backend_ray import config

    pos = pos_tokens_cte("documents", "doc_id", "text")
    return f"""
WITH pos AS ({pos}),
pr AS (
  SELECT a.doc_id AS doc_id, a.term AS term_a, b.term AS term_b
  FROM pos a JOIN pos b ON b.doc_id = a.doc_id AND b.p = a.p + 1
)
SELECT term_a, term_b,
       CAST(count(*) AS BIGINT) AS n_pairs,
       CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs
FROM pr GROUP BY 1, 2
ORDER BY n_pairs DESC, term_a, term_b
LIMIT {int(config.PAIR_TOP_N)}
"""
