"""Text-analysis operators over the ``documents`` table — the large-scale
training-data additions beyond the reference's surface (quality scoring /
language-ID / token accounting / fingerprinting), built on the same frozen
analyzer so the DuckDB oracles reproduce them exactly.

All stages are stateless ``map_batches`` transforms (Arrow in/out), built on
the vectorized Arrow-C++ analyzer chain (functions/analyzer._flat_subtokens);
the remaining per-row Python is md5-based hashing (fingerprint/winnow — no
vectorizable md5 exists in the env) and each keeps a frozen per-doc scalar
reference (_*_one) for the bitwise parity fuzz in tests.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from smse_backend_ray.config import LANG_MARKERS, STOPWORDS
from smse_backend_ray.functions.analyzer import (
    kept_tokens_batch,
    split_subtokens,
    term_counts_batch,
    tokenize,
)
from smse_backend_ray.functions.arrow_kernels import (
    agg,
    arrow_map,
    exchange,
    hist_quantiles,
    int64_schema,
    run_pairs,
    run_rank,
    top_k,
)
from smse_backend_ray.functions.collect import collect_table, fold_partials
from smse_backend_ray.functions.joins import (
    attach_left,
    attach_unique,
    cpu_scaled_buckets,
    grouped_aggregate,
    semi_join,
)
from smse_backend_ray.functions.rounding import round_half_away
from smse_backend_ray.sources.corpus import _parquet_rows, read_blocks, read_table

_DOC_COLS = ["doc_id", "text", "lang"]


def _docs(sf_dir: str, fn, columns: list[str] = _DOC_COLS):
    """The documents scan (read_table's per-row cost class: tokenize /
    hash work) with ``fn`` mapped over each batch."""
    return arrow_map(read_table(sf_dir, "documents", columns), fn)


def _n_docs(sf_dir: str) -> int | None:
    return _parquet_rows(os.path.join(sf_dir, "documents.parquet"))


def _doc_buckets(sf_dir: str, docs_per_bucket: int = 256) -> int:
    """Exchange bucket count for the doc-term-row exchanges (grouped df
    sums, term attaches, per-doc reduces): the documents footer row count
    only LOWERS the CPU-scaled default (joins.cpu_scaled_buckets). A
    bucket then carries <= docs_per_bucket docs' worth of doc-term rows
    (~60/doc) — fat enough for the C++ group/join kernels, small enough
    that a 500-doc gate input stops paying ~256 near-empty reduce tasks
    per exchange (chains of 3-4 exchanges made doc_logprob/cooc/keywords
    the slowest textstats gate entries; BASELINE.md 'Exchange sizing')."""
    return cpu_scaled_buckets(rows=_n_docs(sf_dir), rows_per_bucket=docs_per_bucket)


def _run(sf_dir: str, fn, order=("doc_id",)) -> pa.Table:
    """A per-doc map over the corpus, collected and sorted by ``order``."""
    return collect_table(_docs(sf_dir, fn)).sort_by([(k, "ascending") for k in order])


def _term_rank(col) -> tuple[np.ndarray, pa.Array]:
    """Ints-only term order: dictionary-encode the column once, remap each
    row's code to the lexicographic rank of its dictionary string (rank
    order == term order), so sorts and pair expansions run on int64 ranks
    — no Python string objects. Returns (rank per row, sorted vocab)."""
    enc = pc.dictionary_encode(col.combine_chunks())
    vorder = pc.sort_indices(enc.dictionary).to_numpy(zero_copy_only=False)
    rank = np.empty(len(vorder), dtype=np.int64)
    rank[vorder] = np.arange(len(vorder), dtype=np.int64)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return rank[codes], enc.dictionary.take(pa.array(vorder))


def _adjacent(toks: pa.ListArray) -> tuple[np.ndarray, np.ndarray]:
    """Adjacent kept-token pairs (i, i+1) inside one doc: the left flat
    positions i and each pair's doc index. Each doc's LAST position starts
    no pair (empty docs contribute nothing — their start == end)."""
    offs = np.asarray(toks.offsets, dtype=np.int64)
    dl = np.diff(offs)
    keep = np.ones(int(offs[-1]), dtype=bool)
    keep[offs[1:][dl > 0] - 1] = False
    idx = np.flatnonzero(keep)
    return idx, np.repeat(np.arange(len(dl), dtype=np.int64), dl)[idx]


def _fixed_doc_sum(key: str, n_name: str, n_col: str):
    """Per-doc float reduce with a FIXED accumulation order (the repo's
    convention for driver-compared float sums — scorer._accumulate): every
    doc's rows land in one doc_id-hash bucket, each bucket lexsorts by
    (doc_id, ``key``) and accumulates sequentially (np.add.at is ordered,
    unlike a C++ group sum whose order follows block arrival) — so lp_sum
    is bit-identical run to run. Returns the per-bucket kernel for
    ``exchange``: (doc_id, lp_sum, n_name = sum of ``n_col``)."""

    def reduce_fixed(g: pa.Table) -> pa.Table:
        d = g["doc_id"].to_numpy(zero_copy_only=False)
        k = np.asarray(g[key].to_numpy(zero_copy_only=False), dtype=object)
        order = np.lexsort((k, d))
        start, run, _ = run_rank(d[order])
        lp_sum = np.zeros(int(run[-1]) + 1, dtype=np.float64)
        np.add.at(lp_sum, run, g["lp"].to_numpy(zero_copy_only=False)[order])
        n = np.zeros(len(lp_sum), dtype=np.int64)
        np.add.at(n, run, g[n_col].to_numpy(zero_copy_only=False)[order])
        return pa.table({"doc_id": d[order][start], "lp_sum": lp_sum, n_name: n})

    return reduce_fixed


def _avg_logprob(n_name: str):
    """Per-doc finish: avg = round4(lp_sum / n) (0.0 when n = 0; a doc
    with no reduce row arrives with NULLs from attach_left)."""

    def finish(t: pa.Table) -> pa.Table:
        n = pc.fill_null(t[n_name], 0).to_numpy(zero_copy_only=False)
        lp = pc.fill_null(t["lp_sum"], 0.0).to_numpy(zero_copy_only=False)
        avg = np.zeros(len(n), dtype=np.float64)
        avg[n > 0] = round_half_away(lp[n > 0] / n[n > 0], 4)
        return pa.table({"doc_id": t["doc_id"], n_name: n.astype(np.int64), "avg_logprob": avg})

    return finish


def _token_stats_one(text: str) -> tuple[int, int, int, float]:
    """THE frozen per-doc reference for token_stats (parity fuzz only —
    the batch twin below is what runs)."""
    raw = split_subtokens(text or "")
    kept = tokenize(text or "")
    mean_len = (sum(len(r) for r in raw) / len(raw)) if raw else 0.0
    return len(raw), len(kept), len(set(kept)), mean_len


def token_stats_batch(batch: pa.Table) -> pa.Table:
    """Per-doc token accounting: raw subtokens, kept tokens, distinct terms,
    mean raw token length (0.0 when empty). Fully vectorized on the frozen
    Arrow-C++ analyzer chain (one _flat_subtokens pass, numpy bincounts, a
    C++ group_by for the distinct count); bitwise-equal to _token_stats_one
    (mean = exact-int sum / exact-int count in double on both sides)."""
    import pyarrow.compute as pc

    from smse_backend_ray.functions.analyzer import _flat_subtokens, _keep_mask

    flat, doc_idx, n = _flat_subtokens(batch["text"])
    ln = pc.binary_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    ne = ln > 0
    d_ne = doc_idx[ne]
    n_raw = np.bincount(d_ne, minlength=n)
    len_sum = np.bincount(d_ne, weights=ln[ne].astype(np.float64), minlength=n)
    mean_len = np.divide(
        len_sum, n_raw, out=np.zeros(n, dtype=np.float64), where=n_raw > 0
    )
    km = _keep_mask(flat).to_numpy(zero_copy_only=False)
    d_k = doc_idx[km]
    n_tok = np.bincount(d_k, minlength=n)
    if d_k.size:
        g = (
            pa.table({"d": pa.array(d_k), "t": flat.filter(pa.array(km))})
            .group_by("d")
            .aggregate([("t", "count_distinct")])
        )
        n_distinct = np.zeros(n, dtype=np.int64)
        n_distinct[g["d"].to_numpy()] = g["t_count_distinct"].to_numpy()
    else:
        n_distinct = np.zeros(n, dtype=np.int64)
    return pa.table(
        {
            "doc_id": pa.compute.cast(batch["doc_id"], pa.int64()),
            "n_subtokens": pa.array(n_raw, type=pa.int64()),
            "n_tokens": pa.array(n_tok, type=pa.int64()),
            "n_distinct_terms": pa.array(n_distinct, type=pa.int64()),
            "mean_subtoken_len": pa.array(mean_len, type=pa.float64()),
        }
    )


def _quality_one(text: str) -> tuple[int, float, float]:
    """THE frozen per-doc reference for quality (parity fuzz only)."""
    raw = split_subtokens(text or "")
    n = len(raw)
    sr = (sum(1 for r in raw if r in STOPWORDS) / n) if n else 0.0
    return n, round_half_away(sr, 4), round_half_away(
        0.3 * sr + 0.7 * min(n, 100) / 100, 4
    )


_STOP_VALUE_SET = None


def quality_batch(batch: pa.Table) -> pa.Table:
    """Heuristic quality score in [0,1] (frozen formula, SQL twin in sqlgen):

      stop_ratio = stopword hits / raw subtokens   (0 when empty)
      quality    = round(0.3 * stop_ratio + 0.7 * min(n_raw, 100)/100, 4)

    Vectorized on the Arrow chain (is_in for stop hits, numpy for the
    ratio math — same IEEE op order as the scalar reference, so bitwise
    parity holds; fuzz in tests/test_pipelines.py)."""
    import pyarrow.compute as pc

    from smse_backend_ray.functions.analyzer import _flat_subtokens

    global _STOP_VALUE_SET
    if _STOP_VALUE_SET is None:
        _STOP_VALUE_SET = pa.array(sorted(STOPWORDS))
    flat, doc_idx, n = _flat_subtokens(batch["text"])
    ne = pc.greater(pc.binary_length(flat), 0).to_numpy(zero_copy_only=False)
    stop = pc.is_in(flat, value_set=_STOP_VALUE_SET).to_numpy(zero_copy_only=False)
    n_raw = np.bincount(doc_idx[ne], minlength=n)
    n_stop = np.bincount(doc_idx[stop], minlength=n)
    sr = np.divide(
        n_stop, n_raw, out=np.zeros(n, dtype=np.float64), where=n_raw > 0
    )
    quals = round_half_away(0.3 * sr + 0.7 * np.minimum(n_raw, 100) / 100, 4)
    return pa.table(
        {
            "doc_id": pa.compute.cast(batch["doc_id"], pa.int64()),
            "n_subtokens": pa.array(n_raw, type=pa.int64()),
            "stop_ratio": pa.array(round_half_away(sr, 4), type=pa.float64()),
            "quality": pa.array(quals, type=pa.float64()),
        }
    )


def _lang_id_one(text: str) -> str:
    """THE frozen per-doc reference for lang_id (parity fuzz only)."""
    raw = split_subtokens(text or "")
    if not raw:
        return "zh"
    marker_sets = {lg: frozenset(ws) for lg, ws in LANG_MARKERS.items()}
    langs_sorted = sorted(marker_sets)
    hits = {lg: sum(1 for r in raw if r in marker_sets[lg]) for lg in langs_sorted}
    best = max(hits.values())
    if best == 0:
        return "unknown"
    return next(lg for lg in langs_sorted if hits[lg] == best)


_LANG_MARKER_ARRAYS: list | None = None


def lang_id_batch(batch: pa.Table) -> pa.Table:
    """Marker-word language ID: no ASCII subtokens -> 'zh'; zero marker hits
    -> 'unknown'; else argmax marker hits, ties broken by lang ascending
    (np.argmax returns the FIRST max over the lang-ascending axis, matching
    the scalar tie rule). One is_in per language over the shared flat
    stream — no per-row Python."""
    import pyarrow.compute as pc

    from smse_backend_ray.functions.analyzer import _flat_subtokens

    global _LANG_MARKER_ARRAYS
    if _LANG_MARKER_ARRAYS is None:
        _LANG_MARKER_ARRAYS = [
            (lg, pa.array(sorted(set(LANG_MARKERS[lg]))))
            for lg in sorted(LANG_MARKERS)
        ]
    flat, doc_idx, n = _flat_subtokens(batch["text"])
    ne = pc.greater(pc.binary_length(flat), 0).to_numpy(zero_copy_only=False)
    n_raw = np.bincount(doc_idx[ne], minlength=n)
    hits = np.zeros((len(_LANG_MARKER_ARRAYS), n), dtype=np.int64)
    for j, (_, markers) in enumerate(_LANG_MARKER_ARRAYS):
        m = pc.is_in(flat, value_set=markers).to_numpy(zero_copy_only=False)
        hits[j] = np.bincount(doc_idx[m], minlength=n)
    best = hits.max(axis=0) if len(_LANG_MARKER_ARRAYS) else np.zeros(n, dtype=np.int64)
    arg = hits.argmax(axis=0) if len(_LANG_MARKER_ARRAYS) else np.zeros(n, dtype=np.int64)
    lang_names = np.array([lg for lg, _ in _LANG_MARKER_ARRAYS], dtype=object)
    preds = np.where(
        n_raw == 0, "zh", np.where(best == 0, "unknown", lang_names[arg])
    )
    return pa.table(
        {
            "doc_id": pa.compute.cast(batch["doc_id"], pa.int64()),
            "pred_lang": pa.array(preds.tolist(), type=pa.string()),
        }
    )


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Content fingerprint (md5 hex; reference uuid/bcrypt analog F11/F12)."""
    doc_ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    fps = [hashlib.md5((t or "").encode()).hexdigest() for t in texts]
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "fingerprint": pa.array(fps, type=pa.string()),
        }
    )


WINNOW_K = 5      # k-gram length (in subtokens)
WINNOW_W = 4      # winnowing window (Schleimer/Wilkerson/Aiken MOSS scheme)
_GRAM_SEP = "\x01"


def _gram_hash(gram: str) -> int:
    """Stable gram hash: first 15 decimal digits of md5 hex — the same
    SQL-reproducible digit trick as sqlgen.doc_id_expr, so the DuckDB
    oracle computes the identical value."""
    h = hashlib.md5(gram.encode()).hexdigest()
    # "or 0": an all-letter md5 hex (p ~ 2e-14/gram, expected O(1) times at
    # 1e14 grams) maps to 0 instead of crashing; SQL twin COALESCEs to 0
    return int("".join(c for c in h if c.isdigit())[:15] or "0")


def winnow_fingerprints_one(text: str) -> list[int]:
    """Document fingerprint via winnowing: hash every k-gram of subtokens,
    keep the minimum hash of each window of W consecutive grams, dedup
    preserving first-seen order. Robust to local edits (MOSS scheme).

    The selection tie rule (leftmost vs rightmost min) provably cannot
    change the output: dedup is by VALUE, and consecutive windows sharing a
    min value collapse to one fingerprint either way — so only min VALUES
    per window matter, which is what the SQL twin (sqlgen.winnow_sql)
    computes with a plain windowed min()."""
    toks = split_subtokens(text or "")
    if len(toks) < WINNOW_K:
        return []
    n_grams = len(toks) - WINNOW_K + 1
    grams = [
        _gram_hash(_GRAM_SEP.join(toks[i : i + WINNOW_K])) for i in range(n_grams)
    ]
    if n_grams <= WINNOW_W:
        mins = [min(grams)]
    else:
        g = np.asarray(grams, dtype=np.int64)
        from numpy.lib.stride_tricks import sliding_window_view

        mins = sliding_window_view(g, WINNOW_W).min(axis=1).tolist()
    # dedup, preserve first-seen order
    seen: set[int] = set()
    uniq = []
    for v in mins:
        if v not in seen:
            seen.add(v)
            uniq.append(int(v))
    return uniq


def winnow_batch(batch: pa.Table) -> pa.Table:
    doc_ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    fps = [winnow_fingerprints_one(t) for t in texts]
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "fingerprints": pa.array(fps, type=pa.list_(pa.int64())),
            "n_fingerprints": pa.array([len(f) for f in fps], type=pa.int64()),
        }
    )


def winnow_rows_batch(batch: pa.Table) -> pa.Table:
    """Exploded winnow form for the driver gate: one row per
    (doc_id, fp_rank, fingerprint) — scalar columns hash cleanly in the
    driver's comparator, unlike list-valued cells."""
    doc_ids, ranks, fps = [], [], []
    for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
        for r, v in enumerate(winnow_fingerprints_one(text), start=1):
            doc_ids.append(did)
            ranks.append(r)
            fps.append(v)
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "fp_rank": pa.array(ranks, type=pa.int64()),
            "fingerprint": pa.array(fps, type=pa.int64()),
        }
    )


def winnow_fingerprints(sf_dir: str) -> pa.Table:
    return _run(sf_dir, winnow_batch)


def winnow_rows(sf_dir: str) -> pa.Table:
    return _run(sf_dir, winnow_rows_batch, ("doc_id", "fp_rank"))


def doc_rollup_counts(sf_dir: str) -> pa.Table:
    """OLAP rollup with subtotals over (source, lang): doc count + exact
    character sum at three grains — (source, lang), (source), and grand
    total — the GROUPING SETS shape of a corpus-composition report.

    Frozen pair with ``doc_rollup_counts_sql``: subtotal keys use the
    '__ALL__' sentinel via GROUPING() (NOT a COALESCE, which would
    conflate a NULL data value with a subtotal row); chars =
    SUM(COALESCE(length(text), 0)) — utf8 CHARACTER count, exact int64.

    Scale shape: per-batch partials group to the finest grain only
    ((source, lang) — bounded by the label-pair domain, never row count);
    the driver derives the coarser grains by re-aggregating the finest
    partials (exact integer sums are associative). Above FOLD_FAN_IN
    source blocks a tree-fold level bounds the driver merge. No key
    shuffle at any scale."""
    from smse_backend_ray.config import FOLD_FAN_IN

    keys = ["source", "lang"]

    def partial(t: pa.Table) -> pa.Table:
        chars = pc.coalesce(pc.utf8_length(t["text"]), pa.scalar(0, pa.int32()))
        part = t.select(keys).append_column("chars", pc.cast(chars, pa.int64()))
        return agg(part, keys, n=("chars", "count"), chars=("chars", "sum"))

    def fold(t: pa.Table) -> pa.Table:
        return agg(t, keys, n=("n", "sum"), chars=("chars", "sum"))

    ds = _docs(sf_dir, partial, ["source", "lang", "text"])
    if read_blocks(sf_dir, "documents") > FOLD_FAN_IN:
        ds = fold_partials(ds, fold)
    fine = fold(collect_table(ds, empty_schema=int64_schema(
        "n", "chars", source=pa.string(), lang=pa.string())))

    def grain(kept: list[str]) -> pa.Table:
        if kept:
            g = agg(fine, kept, n=("n", "sum"), chars=("chars", "sum"))
        else:
            g = pa.table({c: [int(pc.sum(fine[c]).as_py() or 0)] for c in ("n", "chars")})
        for k in keys:
            if k not in kept:
                g = g.append_column(k, pa.array(["__ALL__"] * g.num_rows, type=pa.string()))
        return g.select(keys + ["n", "chars"])

    out = pa.concat_tables([grain(keys), grain(["source"]), grain([])])
    return out.sort_by([("source", "ascending"), ("lang", "ascending")])


def doc_rollup_counts_sql() -> str:
    return """
SELECT CASE WHEN GROUPING(source) = 1 THEN '__ALL__' ELSE source END AS source,
       CASE WHEN GROUPING(lang) = 1 THEN '__ALL__' ELSE lang END AS lang,
       CAST(count(*) AS BIGINT) AS n,
       CAST(COALESCE(SUM(COALESCE(length(text), 0)), 0) AS BIGINT) AS chars
FROM documents
GROUP BY GROUPING SETS ((source, lang), (source), ())
ORDER BY 1, 2
"""


def kmv_distinct(sf_dir: str) -> pa.Table:
    """KMV (bottom-k minimum values) sketch of the corpus's distinct
    subtoken K-grams — the cardinality estimate a 100 TB pipeline runs
    instead of an exact COUNT(DISTINCT) all-to-all (Bar-Yossef et al. 2002;
    the estimator (k-1)/U(k) with U(k) = the k-th smallest normalized
    hash).

    Frozen pair with ``kmv_distinct_sql`` (constants in config.KMV_*):
    gram identity is the winnow pair's (chr(1)-joined subtoken windows);
    the hash is the minhash/simhash base hash — little-endian uint64 of
    the first 8 md5 bytes — shifted right 1 bit (int64, uniform on
    [0, 2^63); the md5-DIGIT winnow hash is unusable here: hex strings
    with < 15 digit chars yield short numbers that flood a bottom-k and
    bias the estimator 2-3x high). The sketch keeps the KMV_K smallest
    DISTINCT hash values; with fewer than KMV_K distinct hashes the
    estimate is the exact sketch size, else
    round4((KMV_K-1) * 2^63 / kth_hash).

    Scale shape: each batch emits its bottom-KMV_K distinct hashes (gram
    strings built by the vectorized window gather + binary_join, md5 only
    over the batch-unique grams); bottom-k of a union == bottom-k of the
    union of per-part bottom-ks, so the merge is associative — above
    FOLD_FAN_IN source blocks a tree-fold level re-applies the bottom-k
    combiner and the driver sees O(fan_in * k) rows regardless of corpus
    block count. No key shuffle at any scale."""
    import struct

    from smse_backend_ray.config import FOLD_FAN_IN, KMV_GRAM_K, KMV_K
    from smse_backend_ray.functions.analyzer import subtokens_batch

    K = KMV_GRAM_K
    schema = int64_schema("g")

    def partial(batch: pa.Table) -> pa.Table:
        toks = subtokens_batch(batch["text"])
        offs = np.asarray(toks.offsets, dtype=np.int64)
        n_grams = np.maximum(np.diff(offs) - K + 1, 0)
        total = int(n_grams.sum())
        if not total:
            return schema.empty_table()
        gdoc = np.repeat(np.arange(len(n_grams), dtype=np.int64), n_grams)
        first = np.concatenate(([0], np.cumsum(n_grams)))[:-1]
        gidx = np.arange(total, dtype=np.int64) - first[gdoc]
        idx = (np.arange(total * K, dtype=np.int64) % K) + np.repeat(offs[gdoc] + gidx, K)
        # int64 (large_list) offsets: the gather duplicates the token
        # stream K-fold, so int32 offsets would wrap K-times earlier than
        # the analyzer's own per-block int32 list limit
        windows = pa.LargeListArray.from_arrays(
            pa.array(np.arange(0, (total + 1) * K, K, dtype=np.int64), type=pa.int64()),
            toks.values.take(pa.array(idx, type=pa.int64())),
        )
        grams = pc.unique(pc.binary_join(windows, _GRAM_SEP))
        hashes = np.fromiter(
            (struct.unpack("<Q", hashlib.md5(g.encode()).digest()[:8])[0] >> 1
             for g in grams.to_pylist()),
            dtype=np.int64, count=len(grams),
        )
        return pa.table({"g": np.unique(hashes)[:KMV_K]})

    def bottomk_fold(t: pa.Table) -> pa.Table:
        return pa.table({"g": np.unique(t["g"].to_numpy())[:KMV_K]})

    ds = _docs(sf_dir, partial)
    if read_blocks(sf_dir, "documents") > FOLD_FAN_IN:
        ds = fold_partials(ds, bottomk_fold, FOLD_FAN_IN)
    sk = np.unique(collect_table(ds, empty_schema=schema)["g"].to_numpy())[:KMV_K]
    kth = int(sk[-1]) if sk.size else 0
    if sk.size < KMV_K:
        est = float(sk.size)
    else:
        est = round_half_away(((KMV_K - 1) * 9223372036854775808.0) / float(kth), 4)
    return pa.table({"k": [KMV_K], "n_sketch": [int(sk.size)], "kth_hash": [kth],
                     "est_distinct": pa.array([est], type=pa.float64())})


def kmv_distinct_sql() -> str:
    from smse_backend_ray.config import KMV_GRAM_K, KMV_K
    from smse_backend_ray.functions.sqlgen import subtoken_expr

    k = KMV_GRAM_K
    toks_expr = subtoken_expr("src.text")
    leads = " || chr(1) || ".join(
        ["term"] + [f"lead(term,{j}) OVER w" for j in range(1, k)]
    )
    # little-endian uint64 of the first 8 md5 bytes (the minhash/simhash
    # base-hash expr), >> 1 to fit BIGINT — uniform on [0, 2^63)
    hexpr = (
        "CAST(CAST(('0x' || substr(m,15,2) || substr(m,13,2) || substr(m,11,2)"
        " || substr(m,9,2) || substr(m,7,2) || substr(m,5,2) || substr(m,3,2)"
        " || substr(m,1,2)) AS UBIGINT) // 2 AS BIGINT)"
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
  SELECT {leads} AS gram,
         lead(term,{k - 1}) OVER w IS NOT NULL AS full_gram
  FROM ordered WINDOW w AS (PARTITION BY doc_id ORDER BY p)
),
hashes AS (
  SELECT DISTINCT {hexpr} AS g
  FROM (SELECT md5(gram) AS m FROM gram_str WHERE full_gram)
),
sk AS (SELECT g FROM hashes ORDER BY g LIMIT {KMV_K})
SELECT CAST({KMV_K} AS BIGINT) AS k,
       CAST(count(*) AS BIGINT) AS n_sketch,
       CAST(COALESCE(max(g), 0) AS BIGINT) AS kth_hash,
       CASE WHEN count(*) < {KMV_K} THEN CAST(count(*) AS DOUBLE)
            ELSE round(CAST({KMV_K} - 1 AS DOUBLE) * 9223372036854775808.0
                       / max(g), 4)
       END AS est_distinct
FROM sk
"""


def token_stats(sf_dir: str) -> pa.Table:
    return _run(sf_dir, token_stats_batch)


def quality(sf_dir: str) -> pa.Table:
    return _run(sf_dir, quality_batch)


def lang_id(sf_dir: str) -> pa.Table:
    return _run(sf_dir, lang_id_batch)


def fingerprint(sf_dir: str) -> pa.Table:
    return _run(sf_dir, fingerprint_batch)


def preview_batch(batch: pa.Table) -> pa.Table:
    """Derived preview artifact per doc (reference thumbnail-generation
    analog, smse_backend/services/thumbnail.py:100-150 — a cheap derived
    representation stored alongside the doc): first line truncated to 120
    chars + line count + preview char length."""
    texts = [t or "" for t in batch["text"].to_pylist()]
    previews = [t.split("\n", 1)[0][:120] for t in texts]
    return pa.table({
        "doc_id": pa.array(batch["doc_id"].to_pylist(), type=pa.int64()),
        "preview": pa.array(previews, type=pa.string()),
        "preview_len": pa.array([len(p) for p in previews], type=pa.int64()),
        "n_lines": pa.array([t.count("\n") + 1 for t in texts], type=pa.int64()),
    })


def preview(sf_dir: str) -> pa.Table:
    return _run(sf_dir, preview_batch)


VALID_PATH_RE = r"^[A-Za-z0-9_./-]+$"
VALID_LANG_RE = r"^[a-z0-9]{1,8}$"
VALID_COMMIT_RE = r"^[0-9a-f]{32}$"


def validate_batch(batch: pa.Table) -> pa.Table:
    """Field validation flags per doc (reference regex field validation
    analog: User.email regex check, smse_backend/models/user.py:25-30).
    Vectorized pyarrow RE2 kernels; patterns shared verbatim with the
    DuckDB twin (both RE2 dialects)."""
    path_ok = pc.and_(
        pc.match_substring_regex(batch["path"], VALID_PATH_RE),
        pc.invert(pc.match_substring(batch["path"], "..")),
    )
    return pa.table({
        "doc_id": batch["doc_id"],
        "valid_path": path_ok,
        "valid_lang": pc.match_substring_regex(batch["lang"], VALID_LANG_RE),
        "valid_commit": pc.match_substring_regex(batch["commit"], VALID_COMMIT_RE),
        "non_empty": pc.greater(batch["n_bytes"], 0),
    })


def validate(index_dir) -> pa.Table:
    """Run validation over a built index's docs table as a Ray job."""
    from smse_backend_ray.state.catalog import Catalog

    out = Catalog(index_dir).ray_dataset("docs", columns=["doc_id", "path", "commit", "lang", "n_bytes"])
    return collect_table(arrow_map(out, validate_batch)).sort_by("doc_id")


# ---------------------------------------------------------------------------
# repetition (Gopher-style duplicate n-gram fraction) + decontamination
# ---------------------------------------------------------------------------

REP_GRAM_K = 2  # word bigrams over the raw subtoken stream (frozen with SQL)


def _bigrams(text: str) -> list[str]:
    toks = split_subtokens(text or "")
    return [" ".join(toks[i : i + REP_GRAM_K]) for i in range(len(toks) - REP_GRAM_K + 1)]


def repetition_batch(batch: pa.Table) -> pa.Table:
    """Per-doc duplicate-bigram fraction (the Gopher/C4-style repetition
    quality signal): n_grams total word bigrams, n_distinct distinct ones,
    dup_frac = (n_grams - n_distinct) / n_grams rounded 4 (0.0 when the doc
    has no bigram). High dup_frac = boilerplate/looped text a training
    pipeline drops or downweights."""
    n_g, n_d, frac = [], [], []
    for t in batch["text"].to_pylist():
        grams = _bigrams(t)
        ng, nd = len(grams), len(set(grams))
        n_g.append(ng)
        n_d.append(nd)
        frac.append(float(round_half_away(np.float64((ng - nd) / ng), 4)) if ng else 0.0)
    return pa.table({
        "doc_id": pa.array(batch["doc_id"].to_pylist(), type=pa.int64()),
        "n_grams": pa.array(n_g, type=pa.int64()),
        "n_distinct": pa.array(n_d, type=pa.int64()),
        "dup_frac": pa.array(frac, type=pa.float64()),
    })


def repetition(sf_dir: str) -> pa.Table:
    return _run(sf_dir, repetition_batch)


def benchmark_grams() -> list[str]:
    """The decontamination benchmark set: distinct word bigrams of every
    query part in the frozen queryset (each part shingled separately — no
    cross-part grams), sorted. Tiny by construction — this is the small
    side a 100 TB run broadcasts."""
    from smse_backend_ray.queryset import ALL_QUERIES

    out: set[str] = set()
    for qs in ALL_QUERIES:
        for part in qs.parts:
            out.update(_bigrams(part))
    return sorted(out)


def decontaminate(sf_dir: str) -> pa.Table:
    """Benchmark decontamination: docs sharing at least one word bigram with
    the query set -> (doc_id, n_hits = count of DISTINCT contaminated
    bigrams). The canonical pre-training step that removes eval-set overlap
    from the corpus; the hit table is what you anti-join against.

    Scale shape: the benchmark gram set is broadcast once via ``ray.put``
    (it is tiny — eval sets are fixed); the corpus side is one stateless
    map_batches, no shuffle."""
    ref = ray.put(frozenset(benchmark_grams()))

    def hits(batch: pa.Table) -> pa.Table:
        bench = ray.get(ref)
        ids, ns = [], []
        for did, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            n = len(set(_bigrams(t)) & bench)
            if n:
                ids.append(did)
                ns.append(n)
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "n_hits": pa.array(ns, type=pa.int64())})

    return _run(sf_dir, hits)


# ---------------------------------------------------------------------------
# unigram LM average log-probability (CCNet-style quality signal)
# ---------------------------------------------------------------------------


def _term_rows_batch(batch: pa.Table) -> pa.Table:
    """Exploded (doc_id, term, tf) rows over the KEPT token stream — the
    vectorized term_counts_batch output flattened (tf aligns with dl)."""
    terms, tfs = term_counts_batch(batch["text"])
    counts = np.diff(np.asarray(terms.offsets, dtype=np.int64))
    doc_ids = np.repeat(batch["doc_id"].to_numpy(zero_copy_only=False), counts)
    return pa.table({"doc_id": pa.array(doc_ids, type=pa.int64()), "term": terms.values,
                     "tf": pc.cast(tfs.values, pa.int64())})


def unigram_logprob(sf_dir: str) -> pa.Table:
    """Per-doc average unigram log-probability under the corpus's own
    unigram LM (the CCNet / Wenzek-et-al quality signal: low avg log-prob =
    rare-token-heavy text a pipeline flags or buckets):

        p(term)    = tf_corpus(term) / total_kept_tokens
        avg_lp(d)  = round( Σ_t tf_d(t)·ln p(t) / dl(d), 4 )   (0.0 if dl=0)

    Scale shape — the corpus streams twice, no corpus-sized driver state:
      pass 1 builds the vocab-sized (term, tf_corpus) Dataset via a bucketed
      grouped sum; the only driver scalar is the total token count. Pass 2
      re-explodes doc terms; the LM attaches either MAP-SIDE (vocabulary at
      or under config.LM_BROADCAST_MAX ships once via ray.put, pc.index_in
      per batch, and a per-doc sentinel row lets the doc reduce emit EVERY
      doc — 2 exchanges total) or via the fully distributed bucketed join
      on term + dl=0 attach_left (4 exchanges, vocabulary never on the
      driver) above the bound. Both paths are bitwise-identical (tested:
      sentinel lp rows are exact 0.0 adds and the accumulation order is
      unchanged)."""
    from smse_backend_ray import config as _config

    nb_doc = _doc_buckets(sf_dir)
    freq_schema = pa.schema([("term", pa.string()), ("tf_corpus", pa.int64())])
    freq = grouped_aggregate(_docs(sf_dir, _term_rows_batch), ["term"], freq_schema,
                             nb=nb_doc, tf_corpus=("tf", "sum")).materialize()
    total = float(freq.sum("tf_corpus") or 0)

    base = read_table(sf_dir, "documents", ["doc_id"], repartition=False)
    out_schema = int64_schema("doc_id", "dl", avg_logprob=pa.float64())
    if total == 0:
        ids = collect_table(base)["doc_id"]
        return pa.table({"doc_id": ids, "dl": np.zeros(len(ids), dtype=np.int64),
                         "avg_logprob": np.zeros(len(ids))}).sort_by("doc_id")

    per_schema = int64_schema("doc_id", lp_sum=pa.float64(), dl=pa.int64())
    # sentinel rows (term "", lp 0.0, tf 0) sort first and add exact zeros
    # — bitwise no-ops on docs that also have real rows
    reduce_fixed = _fixed_doc_sum("term", "dl", "tf")
    finish = _avg_logprob("dl")

    if freq.count() <= _config.LM_BROADCAST_MAX:
        lm_t = collect_table(freq, empty_schema=freq_schema)
        lm_ref = ray.put((lm_t["term"].combine_chunks(), lm_t["tf_corpus"].combine_chunks()))

        def lp_rows(t: pa.Table) -> pa.Table:
            lm_terms_, lm_tfc_ = ray.get(lm_ref)
            terms, tfs = term_counts_batch(t["text"])
            dids = t["doc_id"].to_numpy(zero_copy_only=False)
            tf = tfs.values.to_numpy(zero_copy_only=False).astype(np.int64)
            # every real term exists in the LM (built from the same stream)
            tfc = pc.take(lm_tfc_, pc.index_in(terms.values, value_set=lm_terms_))
            # frozen: divide THEN ln
            p = tfc.to_numpy(zero_copy_only=False).astype(np.float64) / total
            real = pa.table({
                "doc_id": np.repeat(dids, np.diff(np.asarray(terms.offsets, dtype=np.int64))),
                "term": pc.cast(terms.values, pa.string()),
                "lp": tf.astype(np.float64) * np.log(p),
                "tf": tf,
            })
            sent = pa.table({"doc_id": dids, "term": pa.array([""] * len(dids), pa.string()),
                             "lp": np.zeros(len(dids)), "tf": np.zeros(len(dids), np.int64)})
            return pa.concat_tables([real.cast(sent.schema), sent])

        per_doc = exchange(_docs(sf_dir, lp_rows), "doc_id", reduce_fixed, per_schema, nb=nb_doc)
        out = collect_table(arrow_map(per_doc, finish), empty_schema=out_schema)
        return out.sort_by("doc_id")

    joined = attach_unique(
        _docs(sf_dir, _term_rows_batch), freq, "term", "term",
        int64_schema("doc_id", term=pa.string(), tf=pa.int64()),
        int64_schema("tf_corpus"), nb=nb_doc,
    )

    def contrib(t: pa.Table) -> pa.Table:
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        p = t["tf_corpus"].to_numpy(zero_copy_only=False).astype(np.float64) / total
        return pa.table({"doc_id": t["doc_id"], "term": t["term"], "lp": tf * np.log(p),
                         "tf": t["tf"]})

    per_doc = exchange(arrow_map(joined, contrib), "doc_id", reduce_fixed, per_schema, nb=nb_doc)
    final = attach_left(base, per_doc, "doc_id", "doc_id", int64_schema("doc_id"),
                        per_schema.remove(0), nb=nb_doc)
    out = collect_table(arrow_map(final, finish), empty_schema=out_schema)
    return out.sort_by("doc_id")


# ---------------------------------------------------------------------------
# Passage chunking (the long-document splitting step of a training pipeline)
# ---------------------------------------------------------------------------

CHUNK_W = 64  # window: kept tokens per chunk
CHUNK_S = 48  # stride: chunk i starts at kept position i*CHUNK_S (overlap 16)


def doc_chunks(sf_dir: str) -> pa.Table:
    """Overlapping kept-token passage windows per doc: chunk i covers kept
    positions [i*CHUNK_S, i*CHUNK_S + CHUNK_W); the last chunk index is
    ceil(max(dl - CHUNK_W, 0) / CHUNK_S), so every token lands in >=1
    chunk (the final window may be short) and a doc at or under one
    window yields exactly one chunk (dl=0 -> none).
    Output: (doc_id, chunk_id, start_p, n_tokens, chunk_text) with
    chunk_text = the window's kept tokens joined by spaces. Stateless
    map_batches, no shuffle; fully vectorized — the kept-token stream comes
    from the Arrow-C++ analyzer (kept_tokens_batch), window bounds are
    numpy offset arithmetic, and chunk_text is one gather + binary_join
    over the flat token buffer (no per-doc Python). Frozen engine<->SQL
    pair with sqlgen.doc_chunks_sql."""
    empty = int64_schema("doc_id", "chunk_id", "start_p", "n_tokens",
                         chunk_text=pa.string()).empty_table()

    def chunks(batch: pa.Table) -> pa.Table:
        toks = kept_tokens_batch(batch["text"])
        offs = np.asarray(toks.offsets, dtype=np.int64)
        dl = np.diff(offs)
        doc_ids = pc.cast(batch["doc_id"], pa.int64()).to_numpy()
        n_chunks = np.where(dl > 0, (np.maximum(dl - CHUNK_W, 0) + CHUNK_S - 1) // CHUNK_S + 1, 0)
        total_c = int(n_chunks.sum())
        if not total_c:
            return empty
        cdoc = np.repeat(np.arange(len(dl), dtype=np.int64), n_chunks)
        chunk_id = run_rank(cdoc)[2] - 1
        start = chunk_id * CHUNK_S
        ntok = np.minimum(CHUNK_W, dl[cdoc] - start)
        # gather window tokens from the flat kept-token buffer: chunk c's
        # tokens are flat[offs[doc] + start : +ntok] (windows overlap, so a
        # take by index — not a re-sliced ListArray — builds the values)
        tok_off = np.concatenate(([0], np.cumsum(ntok)))
        idx = (np.arange(int(tok_off[-1]), dtype=np.int64) - np.repeat(tok_off[:-1], ntok)
               + np.repeat(offs[cdoc] + start, ntok))
        windows = pa.ListArray.from_arrays(
            pa.array(tok_off.astype(np.int32), type=pa.int32()),
            toks.values.take(pa.array(idx, type=pa.int64())),
        )
        return pa.table({"doc_id": doc_ids[cdoc], "chunk_id": chunk_id, "start_p": start,
                         "n_tokens": ntok, "chunk_text": pc.binary_join(windows, " ")})

    return _run(sf_dir, chunks, ("doc_id", "chunk_id"))


# ---------------------------------------------------------------------------
# Term co-occurrence / PMI (collocation mining over the kept-token stream)
# ---------------------------------------------------------------------------


def _doc_terms(t: pa.Table) -> pa.Table:
    """(doc_id, term) rows of the kept-token stream, one per occurrence."""
    toks = kept_tokens_batch(t["text"])
    dids = pc.take(pc.cast(t["doc_id"], pa.int64()), pc.list_parent_indices(toks))
    return pa.table({"doc_id": dids, "term": toks.values})


def term_cooc_pmi(sf_dir: str) -> pa.Table:
    """Pointwise mutual information of term pairs sharing a document — the
    collocation-mining step a training pipeline runs to discover multiword
    expressions worth protecting from tokenization (Church & Hanks 1990).

    Frozen pair with sqlgen.cooc_pmi_sql (constants in config.COOC_*):
    eligibility = distinct-doc df >= COOC_MIN_DF over the kept-token
    stream; per doc only the COOC_DOC_TERM_CAP lexicographically smallest
    eligible terms pair up (a < b by string order); pairs with co-document
    count n_ab >= COOC_MIN_PAIRS survive; pmi = round4(ln((N * n_ab) /
    (df_a * df_b)) in double) with N = documents row count. PMI is a
    scalar expression per pair row — no float-sum order sensitivity.

    Scale shape: distinct (doc, term) rows stream through one df exchange;
    eligibility is a distributed semi-join (the eligible vocabulary never
    lands on the driver); the pair triangle runs inside doc-hash fat
    buckets (one vectorized expansion per bucket, per-doc width capped at
    COOC_DOC_TERM_CAP) with per-bucket Arrow pre-aggregation before the
    global (a, b) sum; dfs attach via two bucketed unique-key joins —
    the classic inverted-co-occurrence exchange, no all-pairs stage."""
    from smse_backend_ray.config import COOC_DOC_TERM_CAP, COOC_MIN_DF, COOC_MIN_PAIRS

    n_docs = _n_docs(sf_dir) or 0
    nb_doc = _doc_buckets(sf_dir)
    out_schema = int64_schema("n_ab", "df_a", "df_b", pmi=pa.float64())
    out_schema = pa.schema([("a", pa.string()), ("b", pa.string())] + list(out_schema))
    if not n_docs:
        return out_schema.empty_table()

    rows_schema = int64_schema("doc_id", term=pa.string())
    # distinct (doc_id, term) kept pairs, vectorized
    rows = _docs(sf_dir, lambda t: agg(_doc_terms(t), ["doc_id", "term"]))

    # distinct-doc df per term; eligibility stays a DATASET (vocab-scaled)
    df_ds = grouped_aggregate(rows, ["term"], pa.schema([("term", pa.string()), ("df", pa.int64())]),
                              nb=nb_doc, df=("doc_id", "count"),
                              ).filter(expr=f"df >= {COOC_MIN_DF}").materialize()

    # consumed exactly once by the pair exchange below — stream it (never
    # pin the full doc-term stream in the object store)
    elig = semi_join(rows, df_ds, ["term"], rows_schema, nb=nb_doc)
    pair_schema = pa.schema([("a", pa.string()), ("b", pa.string()), ("n", pa.int64())])

    def emit(g: pa.Table) -> pa.Table:
        # ints-only hot path: the whole triangle runs on int64 term ranks
        r, sorted_vocab = _term_rank(g["term"])
        d = g["doc_id"].to_numpy()
        # per-doc cap: only the first COOC_DOC_TERM_CAP terms (term-asc)
        # of a doc pair
        order = np.lexsort((r, d))
        capped = order[run_rank(d[order])[2] <= COOC_DOC_TERM_CAP]
        d, r = d[capped], r[capped]
        a, b, _ = run_pairs(d, r)
        if not len(a):
            return pair_schema.empty_table()
        part = agg(pa.table({"a": r[a], "b": r[b]}), ["a", "b"], n=("a", "count"))
        # decode ranks back to terms only for the aggregated pair rows
        # (pair-partial-bounded, not pair-expansion-bounded)
        return pa.table({"a": sorted_vocab.take(part["a"]), "b": sorted_vocab.take(part["b"]),
                         "n": part["n"]})

    pairs_schema = pa.schema([("a", pa.string()), ("b", pa.string()), ("n_ab", pa.int64())])
    pairs = grouped_aggregate(exchange(elig, "doc_id", emit, pair_schema, nb=nb_doc),
                              ["a", "b"], pairs_schema, nb=nb_doc, n_ab=("n", "sum"),
                              ).filter(expr=f"n_ab >= {COOC_MIN_PAIRS}").materialize()

    # attach dfs via two bucketed unique-key joins (pair-bounded inputs)
    npair = pairs.count()
    if npair == 0:
        return out_schema.empty_table()
    nbj = max(4, min(64, -(-npair // 512)))
    ja = attach_unique(pairs, df_ds.rename_columns({"df": "df_a"}), "a", "term",
                       pairs_schema, int64_schema("df_a"), nb=nbj)
    jb = attach_unique(ja, df_ds.rename_columns({"df": "df_b"}), "b", "term",
                       pairs_schema.append(pa.field("df_a", pa.int64())),
                       int64_schema("df_b"), nb=nbj)

    def score(t: pa.Table) -> pa.Table:
        n_ab, da, db = (t[c].to_numpy().astype(np.float64) for c in ("n_ab", "df_a", "df_b"))
        pmi = round_half_away(np.log((n_docs * n_ab) / (da * db)), 4)
        return t.append_column("pmi", pa.array(pmi, type=pa.float64())).cast(out_schema)

    out = collect_table(arrow_map(jb, score), empty_schema=out_schema)
    return out.sort_by([("a", "ascending"), ("b", "ascending")])

# ---------------------------------------------------------------------------
# Per-doc tf-idf keyword extraction
# ---------------------------------------------------------------------------


def doc_keywords(sf_dir: str) -> pa.Table:
    """Top-K tf-idf keywords per document — the per-doc representation step
    a training pipeline runs for topic tagging / cluster labelling
    (Sparck Jones idf; reference analog: the tag/metadata extraction the
    CRUD app stores per upload, smse/models/document.py).

    Frozen pair with sqlgen.keywords_sql (K = config.KEYWORDS_TOP_K):
    tf = kept-token occurrences of term in doc, df = distinct-doc count,
    tfidf = round4(tf * ln(N / df) in double) with N = documents rows;
    rank = row_number per doc over (ROUNDED tfidf DESC, term ASC), keep
    rank <= K. Output (doc_id, rank, term, tf, df, tfidf) ordered by
    (doc_id, rank); empty docs yield no rows.

    Scale shape: tf is computed fully IN-BATCH (a document lives in one
    row, so per-batch group_by is globally exact — zero exchange); df is
    one grouped_aggregate exchange over (doc, term) rows; df attaches via
    a bucketed unique-key join; the per-doc top-K runs inside doc-hash
    fat buckets with the same ints-only rank remap as term_cooc_pmi —
    no per-doc Python, no driver-side state."""
    from smse_backend_ray.config import KEYWORDS_TOP_K

    n_docs = _n_docs(sf_dir) or 0
    nb_doc = _doc_buckets(sf_dir)
    out_schema = int64_schema("doc_id", "rank", term=pa.string(), tf=pa.int64(),
                              df=pa.int64(), tfidf=pa.float64())
    if not n_docs:
        return out_schema.empty_table()

    tf_schema = int64_schema("doc_id", term=pa.string(), tf=pa.int64())
    rows = _docs(sf_dir, lambda t: agg(_doc_terms(t), ["doc_id", "term"], tf=("term", "count")))
    df_ds = grouped_aggregate(rows, ["term"], pa.schema([("term", pa.string()), ("df", pa.int64())]),
                              nb=nb_doc, df=("doc_id", "count")).materialize()
    joined = attach_unique(rows, df_ds, "term", "term", tf_schema, int64_schema("df"), nb=nb_doc)

    def score(t: pa.Table) -> pa.Table:
        tf, df = t["tf"].to_numpy().astype(np.float64), t["df"].to_numpy().astype(np.float64)
        tfidf = round_half_away(tf * np.log(n_docs / df), 4)
        return t.append_column("tfidf", pa.array(tfidf, type=pa.float64()))

    def topk(g: pa.Table) -> pa.Table:
        # term tie-break via the ints-only rank remap (see term_cooc_pmi)
        idx, rank = top_k(g["doc_id"].to_numpy(), _term_rank(g["term"])[0],
                          g["tfidf"].to_numpy(), KEYWORDS_TOP_K)
        return g.take(pa.array(idx)).append_column("rank", pa.array(rank))

    scored = arrow_map(joined, score)
    out = collect_table(exchange(scored, "doc_id", topk, out_schema, nb=nb_doc),
                        empty_schema=out_schema)
    return out.sort_by([("doc_id", "ascending"), ("rank", "ascending")])


# ---------------------------------------------------------------------------
# Per-lang doc-length quantiles (exact, histogram-based)
# ---------------------------------------------------------------------------


def doc_length_quantiles(sf_dir: str) -> pa.Table:
    """Exact per-lang quantiles of kept-token document length — the corpus
    length-profile a curation pipeline uses to set truncation/packing
    budgets (reference analog: the per-modality size stats the CRUD app
    exposes on its stats route, smse/routes/stats.py).

    Frozen pair with sqlgen.dl_quantiles_sql (probs = config.DL_QUANTILES):
    dl = kept-token count per doc (empty docs count, dl = 0); quantile =
    linear interpolation over the sorted dls (pos = q*(n-1), v = v_lo +
    frac*(v_hi - v_lo), double), rounded 4. Output (lang, n_docs,
    p25, p50, p75, p90) ordered by lang.

    Scale shape: EXACT quantiles without a distributed sort — dl has a
    bounded integer domain, so per-batch (lang, dl) count partials combine
    through one grouped_aggregate exchange into a histogram of at most
    |langs| x max_dl rows; the driver finishes on that tiny histogram
    (cumsum + interpolation), never on per-doc data."""
    from smse_backend_ray import config

    def partial(t: pa.Table) -> pa.Table:
        dl = pc.cast(pc.list_value_length(kept_tokens_batch(t["text"])), pa.int64())
        return agg(pa.table({"lang": t["lang"], "dl": dl}), ["lang", "dl"], cnt=("dl", "count"))

    hist_schema = int64_schema("dl", "cnt", lang=pa.string())
    hist = grouped_aggregate(_docs(sf_dir, partial), ["lang", "dl"], hist_schema, cnt=("cnt", "sum"))
    t = collect_table(hist, empty_schema=hist_schema)
    return hist_quantiles(t, "lang", "dl", "cnt", tuple(config.DL_QUANTILES), "n_docs")


# ---------------------------------------------------------------------------
# Adjacent-pair (bigram) counts over the kept-token stream
# ---------------------------------------------------------------------------


def term_pair_counts(sf_dir: str) -> pa.Table:
    """Top corpus-wide adjacent kept-token pairs — the bigram statistic a
    BPE-style tokenizer-training pass computes each merge round (Sennrich
    et al. 2016), and the collocation counterpart of term_cooc_pmi's
    document-level pairs (reference analog: the tag-frequency rollup the
    CRUD app exposes, smse/routes/stats.py, taken to token sequences).

    Frozen pair with sqlgen.term_pairs_sql (top config.PAIR_TOP_N): pairs
    are (term[p], term[p+1]) over each doc's KEPT-token stream — the
    phrase-mode position stream (analyzer.term_positions <->
    sqlgen.pos_tokens_cte); n_pairs counts every occurrence, n_docs the
    distinct docs containing the pair; rank (n_pairs DESC, term_a ASC,
    term_b ASC) — a TOTAL order because (term_a, term_b) is unique after
    grouping, so the top-N cut is deterministic.

    Scale shape: pairs never leave the batch raw — each batch emits
    (a, b, n_pairs, n_docs) partials (docs are whole within a batch, so
    per-batch distinct-doc counts sum exactly); ONE pair-hash
    grouped_aggregate exchange completes every pair's totals inside a
    single bucket; a per-block top-N prune (the frozen total order) then
    bounds the driver merge at O(blocks x N) — the global top-N of
    per-block top-Ns is exact because each block holds complete pairs."""
    from smse_backend_ray import config

    top_n = int(config.PAIR_TOP_N)
    order = [("n_pairs", "descending"), ("term_a", "ascending"), ("term_b", "ascending")]
    part_schema = pa.schema([("term_a", pa.string()), ("term_b", pa.string()),
                             ("n_pairs", pa.int64()), ("n_docs", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        toks = kept_tokens_batch(batch["text"])
        idx, doc_of = _adjacent(toks)
        pairs = pa.table({"term_a": toks.values.take(pa.array(idx)),
                          "term_b": toks.values.take(pa.array(idx + 1)), "doc": doc_of})
        # two C++ group_bys: (a, b, doc) occurrence counts, then (a, b)
        # with n_docs = rows (docs are whole within a batch)
        g1 = agg(pairs, ["term_a", "term_b", "doc"], n_pairs=("doc", "count"))
        return agg(g1, ["term_a", "term_b"], n_pairs=("n_pairs", "sum"),
                   n_docs=("n_pairs", "count"))

    agg_ds = grouped_aggregate(_docs(sf_dir, partial), ["term_a", "term_b"], part_schema,
                               n_pairs=("n_pairs", "sum"), n_docs=("n_docs", "sum"))
    top = arrow_map(agg_ds, lambda t: t.sort_by(order).slice(0, top_n))
    return collect_table(top, empty_schema=part_schema).sort_by(order).slice(0, top_n)


# ---------------------------------------------------------------------------
# Language-label confusion matrix and per-source quality rollup
# ---------------------------------------------------------------------------


def lang_confusion(sf_dir: str) -> pa.Table:
    """Stored-label vs classifier confusion matrix: (lang, pred_lang,
    n_docs) over the whole corpus — the label-agreement diagnostic a
    curation pipeline checks before trusting either signal for language
    filtering (reference analog: the modality-vs-extension consistency
    check in the CRUD app's upload validation).

    Frozen pair with sqlgen.lang_confusion_sql: pred_lang is the frozen
    lang_id prediction (lang_id_batch <-> sqlgen.lang_id_sql — already a
    lockstep pair); the matrix is a plain exact count per (stored,
    predicted) cell, ordered by both keys.

    Scale shape: per-batch (lang, pred) count partials (the classifier
    runs ONCE per doc, map-side); the matrix is bounded by
    (|langs|+2)^2 cells, so partials fold on the driver — no exchange."""
    keys = ["lang", "pred_lang"]

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"lang": batch["lang"], "pred_lang": lang_id_batch(batch)["pred_lang"]})
        return agg(t, keys, n_docs=("pred_lang", "count"))

    schema = int64_schema("n_docs", lang=pa.string(), pred_lang=pa.string())
    t = collect_table(_docs(sf_dir, partial), empty_schema=schema)
    return agg(t, keys, n_docs=("n_docs", "sum")).sort_by([(k, "ascending") for k in keys])


def _quality_scaled(batch: pa.Table) -> np.ndarray:
    """q_s = round(ROUNDED quality * 10000) as exact int64 (quality >= 0)."""
    q = quality_batch(batch)["quality"].to_numpy()
    return np.floor(q * 10000.0 + 0.5).astype(np.int64)


def quality_by_source(sf_dir: str) -> pa.Table:
    """Per-source quality rollup: doc count, mean quality, and the count
    below the curation bar — the per-provider dashboard row a corpus
    owner reads before adjusting source weights (reference analog: the
    per-repo size rollup, over the quality signal instead of bytes).

    Frozen pair with sqlgen.quality_by_source_sql: quality is the frozen
    ROUNDED score (quality_batch <-> sqlgen.quality_sql), re-scaled to
    exact ints q_s = round(q*10000) for the sum (order-free); mean =
    round4(sum_s / 10000.0 / n in double); n_low counts q_s <
    round(CURATE_MIN_QUALITY*10000) — the exact-int form of the
    curation threshold (no double comparison anywhere).

    Scale shape: per-batch (source, n, sum_s, n_low) partials; the
    rollup is bounded by |sources|, so partials fold on the driver."""
    from smse_backend_ray import config

    thr_s = int(round(config.CURATE_MIN_QUALITY * 10000))

    def partial(batch: pa.Table) -> pa.Table:
        q_s = _quality_scaled(batch)
        low = (q_s < thr_s).astype(np.int64)
        t = pa.table({"source": batch["source"], "q_s": q_s, "low": low})
        return agg(t, "source", sum_s=("q_s", "sum"), n=("q_s", "count"), n_low=("low", "sum"))

    schema = int64_schema("sum_s", "n", "n_low", source=pa.string())
    t = collect_table(_docs(sf_dir, partial, ["doc_id", "text", "source"]), empty_schema=schema)
    g = agg(t, "source", sum_s=("sum_s", "sum"), n_docs=("n", "sum"), n_low=("n_low", "sum"))
    sum_s, n = g["sum_s"].to_numpy().astype(np.float64), g["n_docs"].to_numpy().astype(np.float64)
    mean_q = pa.array(round_half_away(sum_s / 10000.0 / n, 4), type=pa.float64())
    return g.set_column(1, "mean_quality", mean_q).select(
        ["source", "n_docs", "mean_quality", "n_low"]).sort_by("source")


def quality_zscore(sf_dir: str) -> pa.Table:
    """Per-doc quality standardized within its source: z = (q_s - mean) /
    std over the 4-decimal-scaled quality — the feature-normalization
    stage (reference analog: the min-max/softmax normalizers M7/M8,
    grouped per provider) a curation pipeline applies before mixing
    sources with different quality scales.

    Frozen pair with sqlgen.quality_zscore_sql: q_s =
    round(ROUNDED-quality*10000)::int64 (the quality_by_source domain);
    per-source moments are EXACT int64 (n, sum q_s, sum q_s^2); mean =
    sum/n in double, var = sumsq/n - mean*mean (that op order), std =
    sqrt(var), z = round4((q_s - mean) / std); var <= 0 (constant source
    or n=1) freezes z = 0.0. All of +,-,*,/,sqrt are IEEE
    correctly-rounded so the doubles match bitwise.

    Scale shape: 2-pass — pass 1 folds |sources|-bounded exact moments
    on the driver (sumsq <= 1e8 * n_docs_per_source: int64-safe to ~9e10
    docs per source); pass 2 re-streams the corpus with the tiny
    (source -> mean, std) dict in the closure. The corpus is scored
    twice rather than materialized once (the jaccard_pairs 2-pass
    rationale)."""
    cols = ["doc_id", "text", "source"]

    def moments(batch: pa.Table) -> pa.Table:
        q_s = _quality_scaled(batch)
        t = pa.table({"source": batch["source"], "s": q_s, "ss": q_s * q_s})
        return agg(t, "source", s=("s", "sum"), ss=("ss", "sum"), n=("s", "count"))

    m = collect_table(_docs(sf_dir, moments, cols),
                      empty_schema=int64_schema("s", "ss", "n", source=pa.string()))
    mf = agg(m, "source", s=("s", "sum"), ss=("ss", "sum"), n=("n", "sum"))
    stats: dict[str, tuple[float, float]] = {}
    for src, s, ss, n in zip(*(mf[c].to_pylist() for c in ("source", "s", "ss", "n"))):
        mean = float(s) / float(n)
        var = float(ss) / float(n) - mean * mean
        stats[src] = (mean, np.sqrt(var) if var > 0 else 0.0)

    def score(batch: pa.Table) -> pa.Table:
        q_s = _quality_scaled(batch).astype(np.float64)
        ms = np.array([stats[s] for s in batch["source"].to_pylist()], dtype=np.float64)
        mean, std = ms.reshape(-1, 2).T
        z = np.where(std > 0, (q_s - mean) / np.where(std > 0, std, 1.0), 0.0)
        return pa.table({"doc_id": pc.cast(batch["doc_id"], pa.int64()), "source": batch["source"],
                         "quality_z": pa.array(round_half_away(z, 4), type=pa.float64())})

    oschema = int64_schema("doc_id", source=pa.string(), quality_z=pa.float64())
    return collect_table(_docs(sf_dir, score, cols), empty_schema=oschema).sort_by("doc_id")


def bigram_logprob(sf_dir: str) -> pa.Table:
    """Per-doc average bigram conditional log-probability under the
    corpus's own bigram LM — the order-2 sibling of unigram_logprob
    (fluency beyond word choice: scrambled-word text scores low here
    while passing the unigram signal):

        p(b|a)    = n_ab / n_a          (n_a = bigrams starting with a)
        avg_lp(d) = round( Σ_ab tf_d(ab)·ln p(b|a) / n_bigrams(d), 4 )
                    (0.0 when the doc has < 2 kept tokens)

    Frozen pair with sqlgen.bigram_logprob_sql: pairs are the
    kept-position adjacency stream (the term_pair_counts pair identity),
    p computed as double division THEN ln, per-doc mean rounded 4.

    Scale shape — always the fully distributed join path (the bigram
    vocabulary grows ~quadratically vs unigrams, so the unigram LM's
    broadcast fast path would rarely apply and is deliberately absent):
    per-batch (doc, pair) tf partials -> pair-bucketed corpus LM (n_ab)
    plus a context rollup (n_a, derived FROM the n_ab table — one corpus
    pair pass) -> two bucketed unique-key attaches -> doc-hash reduce
    with the repo's fixed (doc_id, pair) accumulation order -> dl=0
    attach_left. The LM never lands on the driver."""
    nb_doc = _doc_buckets(sf_dir)
    rows_schema = int64_schema("doc_id", term_a=pa.string(), pair=pa.string(), tfp=pa.int64())

    def pair_rows(batch: pa.Table) -> pa.Table:
        toks = kept_tokens_batch(batch["text"])
        idx, doc_of = _adjacent(toks)
        a = pc.cast(toks.values.take(pa.array(idx)), pa.string())
        b = pc.cast(toks.values.take(pa.array(idx + 1)), pa.string())
        t = pa.table({
            "doc_id": batch["doc_id"].to_numpy(zero_copy_only=False)[doc_of].astype(np.int64),
            "term_a": a,
            # kept tokens are alphanumeric runs, so ' ' can't collide inside
            # a term — same identity the SQL twin groups on as (a, b)
            "pair": pc.binary_join_element_wise(a, b, " "),
        })
        return agg(t, ["doc_id", "term_a", "pair"], tfp=("pair", "count"))

    fab_schema = pa.schema([("term_a", pa.string()), ("pair", pa.string()), ("n_ab", pa.int64())])
    fab = grouped_aggregate(_docs(sf_dir, lambda t: pair_rows(t).select(["term_a", "pair", "tfp"])),
                            ["term_a", "pair"], fab_schema, nb=nb_doc, n_ab=("tfp", "sum"),
                            ).materialize()
    fa = grouped_aggregate(fab, ["term_a"], pa.schema([("term_a", pa.string()), ("n_a", pa.int64())]),
                           nb=nb_doc, n_a=("n_ab", "sum")).materialize()

    j1 = attach_unique(_docs(sf_dir, pair_rows),
                       arrow_map(fab, lambda t: t.select(["pair", "n_ab"])), "pair", "pair",
                       rows_schema, int64_schema("n_ab"), nb=nb_doc)
    j2 = attach_unique(j1, fa, "term_a", "term_a",
                       rows_schema.append(pa.field("n_ab", pa.int64())),
                       int64_schema("n_a"), nb=nb_doc)

    def contrib(t: pa.Table) -> pa.Table:
        n_ab, n_a, tfp = (t[c].to_numpy(zero_copy_only=False).astype(np.float64)
                          for c in ("n_ab", "n_a", "tfp"))
        lp = tfp * np.log(n_ab / n_a)  # frozen: divide THEN ln
        return pa.table({"doc_id": t["doc_id"], "pair": t["pair"], "lp": lp, "tfp": t["tfp"]})

    # fixed (doc_id, pair)-ascending accumulation — the repo's frozen
    # float-sum convention (shared with unigram_logprob)
    per_schema = int64_schema("doc_id", lp_sum=pa.float64(), n_bigrams=pa.int64())
    per_doc = exchange(arrow_map(j2, contrib), "doc_id",
                       _fixed_doc_sum("pair", "n_bigrams", "tfp"), per_schema, nb=nb_doc)
    base = read_table(sf_dir, "documents", ["doc_id"], repartition=False)
    final = attach_left(base, per_doc, "doc_id", "doc_id", int64_schema("doc_id"),
                        per_schema.remove(0), nb=nb_doc)
    out_schema = int64_schema("doc_id", "n_bigrams", avg_logprob=pa.float64())
    out = collect_table(arrow_map(final, _avg_logprob("n_bigrams")), empty_schema=out_schema)
    return out.sort_by("doc_id")


def vocab_growth(sf_dir: str) -> pa.Table:
    """Heaps-law vocabulary growth curve: distinct kept terms seen within
    the first k docs of the FROZEN shuffle order, for k at integer-percent
    grid points of the corpus (config.VOCAB_GRID_PCT) — the sub-linear
    curve a tokenizer-budget / OOV analysis reads before sizing a vocab.

    Frozen pair with sqlgen.vocab_growth_sql: order = doc_shuffle's rank
    (the frozen Knuth-key shuffle — random order is how Heaps' law is
    measured, and the rank is already a frozen partition-invariant
    quantity); k = (pct*N + 99) // 100 (exact integer ceil, never a
    float multiply); vocab(k) = count of kept terms whose MIN rank < k.

    Scale shape: the two-level shuffle rank stays a DATASET
    (sampling.shuffle_ranks_ds), attaches to the distinct (doc, term)
    stream with one bucketed unique-key join, min-rank per term is one
    grouped exchange, and the curve itself is a |grid|-bounded histogram
    fold (searchsorted bucket per term, partial counts per block) — the
    vocabulary never lands on the driver."""
    from smse_backend_ray import config
    from smse_backend_ray.pipelines import sampling

    grid = [int(p) for p in config.VOCAB_GRID_PCT]
    n_docs = _n_docs(sf_dir)
    ks = np.asarray([(p * n_docs + 99) // 100 for p in grid], dtype=np.int64)
    counts = np.zeros(len(grid) + 1, dtype=np.int64)

    ranks = sampling.shuffle_ranks_ds(sf_dir)
    if ranks is not None:
        nb_doc = _doc_buckets(sf_dir)
        joined = attach_unique(
            _docs(sf_dir, _term_rows_batch),
            arrow_map(ranks, lambda t: t.select(["doc_id", "rank"])), "doc_id", "doc_id",
            int64_schema("doc_id", term=pa.string(), tf=pa.int64()), int64_schema("rank"),
            nb=nb_doc,
        )
        tm = grouped_aggregate(arrow_map(joined, lambda t: t.select(["term", "rank"])), ["term"],
                               pa.schema([("term", pa.string()), ("r", pa.int64())]),
                               nb=nb_doc, r=("rank", "min"))

        def hist_partial(t: pa.Table) -> pa.Table:
            # bucket = index of the FIRST grid point with r < k
            b = np.searchsorted(ks, t["r"].to_numpy(), side="right")
            return agg(pa.table({"b": b.astype(np.int64)}), "b", cnt=("b", "count"))

        h = collect_table(arrow_map(tm, hist_partial), empty_schema=int64_schema("b", "cnt"))
        np.add.at(counts, h["b"].to_numpy(), h["cnt"].to_numpy())
    return pa.table({"pct": pa.array(grid, type=pa.int64()), "n_prefix_docs": ks,
                     "vocab": np.cumsum(counts[: len(grid)])})


def top_terms_per_lang(sf_dir: str) -> pa.Table:
    """Per-language vocabulary head: the TOP_TERMS_PER_LANG_K most
    frequent kept terms per stored language (tf = kept-token
    occurrences) — the per-language dashboard a multilingual curation
    pass eyeballs for tokenizer fit and contamination.

    Frozen pair with sqlgen.top_terms_per_lang_sql: rank = row_number
    over (tf DESC, term ASC) per lang — a total order because term is
    unique within a lang after grouping; top config.TOP_TERMS_PER_LANG_K,
    output ordered (lang, rank).

    Scale shape: per-batch (lang, term) count partials -> ONE
    grouped_aggregate exchange completes each (lang, term) tf -> the
    grouped_topk combiner bounds every block at k rows per lang before
    the |langs|-keyed finalize (pipelines/grouped_topk.py — hot
    languages cost k rows per block, never their vocabulary)."""
    from smse_backend_ray import config
    from smse_backend_ray.pipelines.grouped_topk import grouped_topk

    def partial(batch: pa.Table) -> pa.Table:
        toks = kept_tokens_batch(batch["text"])
        t = pa.table({"lang": pc.take(batch["lang"], pc.list_parent_indices(toks)),
                      "term": pc.cast(toks.values, pa.string())})
        return agg(t, ["lang", "term"], tf=("term", "count"))

    schema = pa.schema([("lang", pa.string()), ("term", pa.string()), ("tf", pa.int64())])
    lt = grouped_aggregate(_docs(sf_dir, partial), ["lang", "term"], schema,
                           nb=_doc_buckets(sf_dir), tf=("tf", "sum"))
    t = collect_table(grouped_topk(lt, "lang", "tf", int(config.TOP_TERMS_PER_LANG_K),
                                   tiebreak="term"),
                      empty_schema=schema.append(pa.field("rank", pa.int64())))
    return t.sort_by([("lang", "ascending"), ("rank", "ascending")])
