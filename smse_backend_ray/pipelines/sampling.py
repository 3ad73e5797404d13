"""Deterministic corpus sampling over the ``documents`` table.

A 100 TB training-data pipeline subsamples constantly (ablation corpora,
per-language rebalancing, eval holdouts). These operators are hash-based
Bernoulli samples — membership depends only on ``doc_id``, never on run
order, partitioning or a seed carried in driver state — so a sample is
reproducible across runs and resumable mid-pipeline (the reference has no
sampling surface, SURVEY.md §2.5 T4; this is a training-data addition like
textstats/dedup).

Scale shape: a stateless ``map_batches`` filter — no shuffle, no driver
collection, nothing materialized; the decision hash is exact uint32 modular
arithmetic so the DuckDB oracle (HUGEINT-widened) reproduces it bit-for-bit.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

import ray.data

from smse_backend_ray.functions.collect import collect_table
from smse_backend_ray.sources.corpus import _parquet_rows, read_blocks, read_table

# Knuth multiplicative hash on the low 32 bits of doc_id; uniform on
# [0, 2^32) for any doc_id distribution (sequential driver ids included).
SAMPLE_MULT = 2654435761
SAMPLE_MOD = 2**32
SAMPLE_PCT = 20
# per-language keep rates (percent): downsample the dominant language,
# keep the tails — the classic corpus-rebalancing move.
STRATA_PCT = {"en": 10, "de": 30, "es": 30, "fr": 30, "zh": 30}
STRATA_DEFAULT_PCT = 20


def sample_key(doc_ids: np.ndarray) -> np.ndarray:
    """uint32 decision key; exact mod-2^32 arithmetic (see module doc)."""
    d = doc_ids.astype(np.uint64)
    return ((d % np.uint64(SAMPLE_MOD)) * np.uint64(SAMPLE_MULT)) % np.uint64(
        SAMPLE_MOD
    )


def _threshold(pct: int) -> int:
    return (SAMPLE_MOD * pct) // 100


def _read_docs(sf_dir: str) -> "ray.data.Dataset":
    return read_table(sf_dir, "documents", ["doc_id", "lang"])


def _key_sql() -> str:
    """SQL twin of ``sample_key`` (HUGEINT-widened exact modular arithmetic)."""
    return (
        f"CAST(((CAST(doc_id % {SAMPLE_MOD} AS HUGEINT) * {SAMPLE_MULT})"
        f" % {SAMPLE_MOD}) AS BIGINT)"
    )


def doc_sample(sf_dir: str, pct: int = SAMPLE_PCT) -> pa.Table:
    """Uniform ``pct``-percent Bernoulli sample of the documents table."""
    thr = _threshold(pct)

    def keep(t: pa.Table) -> pa.Table:
        key = sample_key(t["doc_id"].to_numpy())
        mask = key < thr
        return pa.table(
            {
                "doc_id": t["doc_id"].filter(pa.array(mask)),
                "lang": t["lang"].filter(pa.array(mask)),
                "sample_key": pa.array(key[mask].astype(np.int64), type=pa.int64()),
            }
        )

    t = collect_table(
        _read_docs(sf_dir).map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    )
    return t.take(pa.compute.sort_indices(t["doc_id"]))


def doc_sample_sql(pct: int = SAMPLE_PCT) -> str:
    return f"""
SELECT doc_id, lang, {_key_sql()} AS sample_key
FROM documents
WHERE {_key_sql()} < {_threshold(pct)}
ORDER BY doc_id
"""


def doc_sample_stratified(
    sf_dir: str, rates: dict[str, int] | None = None
) -> pa.Table:
    """Per-language Bernoulli rates (percent); unlisted languages use
    ``STRATA_DEFAULT_PCT``. Same decision key as ``doc_sample`` so strata
    nest: a doc kept at 10% is kept at every higher rate."""
    rates = dict(STRATA_PCT if rates is None else rates)

    def keep(t: pa.Table) -> pa.Table:
        key = sample_key(t["doc_id"].to_numpy())
        langs = t["lang"].to_numpy(zero_copy_only=False)
        thr = np.full(len(langs), _threshold(STRATA_DEFAULT_PCT), dtype=np.uint64)
        for lang, pct in rates.items():  # |rates| branches, each vectorized
            thr[langs == lang] = _threshold(pct)
        mask = key < thr
        return pa.table(
            {
                "doc_id": t["doc_id"].filter(pa.array(mask)),
                "lang": t["lang"].filter(pa.array(mask)),
            }
        )

    t = collect_table(
        _read_docs(sf_dir).map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    )
    return t.take(pa.compute.sort_indices(t["doc_id"]))


def doc_sample_stratified_sql(rates: dict[str, int] | None = None) -> str:
    rates = dict(STRATA_PCT if rates is None else rates)
    branches = " ".join(
        f"WHEN '{lang}' THEN {_threshold(pct)}" for lang, pct in sorted(rates.items())
    )
    thr = f"(CASE lang {branches} ELSE {_threshold(STRATA_DEFAULT_PCT)} END)"
    return f"""
SELECT doc_id, lang
FROM documents
WHERE {_key_sql()} < {thr}
ORDER BY doc_id
"""


BALANCED_CAP = 50  # docs kept per language (doc_sample_balanced)


def doc_sample_balanced(sf_dir: str, cap: int = BALANCED_CAP) -> pa.Table:
    """Language-balanced sample: EXACTLY min(cap, n_lang) docs per language,
    chosen in frozen (sample_key ASC, doc_id ASC) order — the fixed-size
    counterpart of ``doc_sample_stratified`` (rate-based): rebalancing to a
    hard per-language budget instead of a rate.

    Frozen pair with ``doc_sample_balanced_sql`` (row_number() OVER
    (PARTITION BY lang ORDER BY key, doc_id) <= cap); the same decision
    key as doc_sample, so balanced picks nest inside Bernoulli samples.

    Scale shape: per-batch each language folds to its cap smallest
    (key, doc_id) rows in one vectorized sort + segment-position mask
    (top-k of a union == top-k of the union of per-part top-ks); above
    FOLD_FAN_IN source blocks a tree-fold level re-applies the same
    combiner so the driver merge stays O(fan_in * n_langs * cap) no
    matter the corpus block count. No key shuffle."""
    import pyarrow.compute as pc

    from smse_backend_ray.config import FOLD_FAN_IN
    from smse_backend_ray.functions.collect import fold_partials

    out_schema = pa.schema(
        [("lang", pa.string()), ("rank", pa.int64()), ("doc_id", pa.int64()),
         ("skey", pa.int64())]
    )

    def _top_per_lang(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return out_schema.empty_table()
        order = pc.sort_indices(
            t,
            sort_keys=[("lang", "ascending"), ("skey", "ascending"),
                       ("doc_id", "ascending")],
        )
        s = t.take(order)
        langs = s["lang"].to_numpy(zero_copy_only=False)
        newl = np.empty(len(langs), dtype=bool)
        newl[0] = True
        newl[1:] = langs[1:] != langs[:-1]
        starts = np.flatnonzero(newl)
        seg = np.cumsum(newl) - 1
        pos = np.arange(len(langs), dtype=np.int64) - starts[seg]
        kept = s.filter(pa.array(pos < cap))
        return pa.table(
            {
                "lang": kept["lang"],
                "rank": pa.array(
                    (pos[pos < cap] + 1).astype(np.int64), type=pa.int64()
                ),
                "doc_id": kept["doc_id"],
                "skey": kept["skey"],
            }
        )

    def partial(t: pa.Table) -> pa.Table:
        key = sample_key(t["doc_id"].to_numpy()).astype(np.int64)
        return _top_per_lang(
            pa.table(
                {
                    "lang": t["lang"],
                    "rank": pa.array(np.zeros(len(key), dtype=np.int64)),
                    "doc_id": pa.compute.cast(t["doc_id"], pa.int64()),
                    "skey": pa.array(key, type=pa.int64()),
                }
            )
        )

    ds = _read_docs(sf_dir).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )
    if read_blocks(sf_dir, "documents") > FOLD_FAN_IN:
        ds = fold_partials(ds, _top_per_lang, FOLD_FAN_IN)
    parts = collect_table(ds, empty_schema=out_schema)
    out = _top_per_lang(parts).drop_columns(["skey"])
    return out.take(
        pa.compute.sort_indices(
            out, sort_keys=[("lang", "ascending"), ("rank", "ascending")]
        )
    )


def doc_sample_balanced_sql(cap: int = BALANCED_CAP) -> str:
    return f"""
SELECT lang,
       CAST(row_number() OVER w AS BIGINT) AS rank,
       doc_id
FROM documents
WINDOW w AS (PARTITION BY lang ORDER BY {_key_sql()}, doc_id)
QUALIFY row_number() OVER w <= {cap}
ORDER BY lang, rank
"""


def doc_sample_temperature(sf_dir: str) -> pa.Table:
    """Temperature (alpha = 0.5) language rebalancing — the XLM-R-style
    sampling that raises low-resource language share: per-doc keep rate
    r_lang = sqrt(n_min / n_lang) (rarest language kept fully, others
    downsampled by the square root of their relative size), decided by
    the frozen sample_key so picks nest with every other sample.

    Frozen pair with ``doc_sample_temperature_sql``: alpha is FIXED at
    0.5 because sqrt is IEEE-754 correctly rounded in both numpy and
    DuckDB — an arbitrary pow() would risk last-ulp divergence across
    libm builds. threshold_lang = floor(2^32 * sqrt(n_min/n_lang)) with
    n_min/n_lang divided in double; keep iff sample_key < threshold.

    Scale shape: pass 1 folds per-batch lang value-counts into a
    |langs|-row driver table (lang column only leaves the scan); the
    thresholds broadcast as a tiny dict into the pass-2 stateless filter.
    No shuffle at any scale."""
    import pyarrow.compute as pc

    count_schema = pa.schema([("lang", pa.string()), ("n", pa.int64())])

    def count_partial(t: pa.Table) -> pa.Table:
        # count_all, NOT ("lang","count"): counting the group key itself
        # returns 0 for a NULL-lang group, which would poison n_min. SQL's
        # GROUP BY lang keeps the NULL group in the count table (so it DOES
        # participate in min(n)) while the inner join never matches it —
        # mirrored below: NULL counts toward n_min, NULL-lang docs never kept.
        g = t.group_by("lang").aggregate([([], "count_all")])
        return pa.table(
            {"lang": g["lang"], "n": pc.cast(g["count_all"], pa.int64())}
        )

    parts = collect_table(
        read_table(sf_dir, "documents", ["lang"], rows_per_block=4096)
        .map_batches(count_partial, batch_format="pyarrow", zero_copy_batch=True),
        empty_schema=count_schema,
    )
    g = parts.group_by("lang").aggregate([("n", "sum")])
    langs = g["lang"].to_pylist()
    counts = g["n_sum"].to_numpy().astype(np.int64)
    out_schema = pa.schema(
        [("doc_id", pa.int64()), ("lang", pa.string()), ("thr", pa.int64())]
    )
    if not langs:
        return out_schema.empty_table()
    n_min = int(counts.min())
    thr = {
        lg: int(np.floor(float(SAMPLE_MOD) * np.sqrt(float(n_min) / float(n))))
        for lg, n in zip(langs, counts)
        if lg is not None  # NULL-lang rows count toward n_min, never kept
    }

    def keep(t: pa.Table) -> pa.Table:
        key = sample_key(t["doc_id"].to_numpy())
        lv = t["lang"].to_numpy(zero_copy_only=False)
        # zeros, not empty: a lang outside thr (NULL, or unseen in pass 1)
        # must never be kept — matches the SQL twin's inner join
        tv = np.zeros(len(lv), dtype=np.uint64)
        for lg, th in thr.items():  # |langs| branches, each vectorized
            tv[lv == lg] = np.uint64(th)
        mask = key < tv
        kept = t.filter(pa.array(mask))
        return pa.table(
            {
                "doc_id": pa.compute.cast(kept["doc_id"], pa.int64()),
                "lang": kept["lang"],
                "thr": pa.array(tv[mask].astype(np.int64), type=pa.int64()),
            }
        )

    t = collect_table(
        _read_docs(sf_dir).map_batches(
            keep, batch_format="pyarrow", zero_copy_batch=True
        ),
        empty_schema=out_schema,
    )
    return t.take(pa.compute.sort_indices(t["doc_id"]))


def doc_sample_temperature_sql() -> str:
    return f"""
WITH c AS (
  SELECT lang, CAST(count(*) AS BIGINT) AS n FROM documents GROUP BY lang
),
m AS (SELECT min(n) AS nmin FROM c),
thr AS (
  SELECT lang,
         CAST(floor({SAMPLE_MOD} * sqrt(CAST(nmin AS DOUBLE) / n)) AS BIGINT)
           AS t
  FROM c, m
)
SELECT d.doc_id, d.lang, thr.t AS thr
FROM documents d JOIN thr ON d.lang = thr.lang
WHERE {_key_sql()} < thr.t
ORDER BY d.doc_id
"""


_SHUFFLE_SCHEMA = pa.schema(
    [("rank", pa.int64()), ("doc_id", pa.int64()), ("shuffle_key", pa.int64())]
)


def shuffle_ranks_ds(sf_dir: str, n_ranges: int | None = None):
    """The distributed rank-assignment core of doc_shuffle, exposed as a
    DATASET (rank, doc_id, shuffle_key) so downstream operators
    (textstats.vocab_growth) can consume ranks without a driver
    materialization. Returns None when the corpus is empty. Semantics
    frozen with doc_shuffle/doc_shuffle_sql — this IS doc_shuffle minus
    the final collect."""
    import pyarrow.compute as pc

    from smse_backend_ray.functions.joins import cpu_scaled_buckets

    R = n_ranges or cpu_scaled_buckets(
        mult=4, floor=8,
        rows=_parquet_rows(os.path.join(sf_dir, "documents.parquet")),
    )  # rows hint only lowers R; rank output is R-invariant by test

    def keyed(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        key = sample_key(ids).astype(np.int64)
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "shuffle_key": pa.array(key, type=pa.int64()),
                "rid": pa.array(
                    (key * R) // SAMPLE_MOD, type=pa.int64()
                ),
            }
        )

    ds = read_table(sf_dir, "documents", ["doc_id"])
    keyed_ds = ds.map_batches(
        keyed, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    def partials(t: pa.Table) -> pa.Table:
        g = t.select(["rid"]).group_by("rid").aggregate([("rid", "count")])
        return pa.table(
            {"rid": g["rid"], "n": pc.cast(g["rid_count"], pa.int64())}
        )

    part = collect_table(
        keyed_ds.map_batches(
            partials, batch_format="pyarrow", zero_copy_batch=True
        ),
        empty_schema=pa.schema([("rid", pa.int64()), ("n", pa.int64())]),
    )
    if not part.num_rows:
        return None
    counts = np.zeros(R, dtype=np.int64)
    np.add.at(counts, part["rid"].to_numpy(), part["n"].to_numpy())
    base = np.concatenate(([0], np.cumsum(counts)[:-1]))
    base_ref = ray.put(base)

    def per_range(g: pa.Table) -> pa.Table:
        rid = int(g["rid"][0].as_py())
        b = int(ray.get(base_ref)[rid])
        order = pc.sort_indices(
            g, sort_keys=[("shuffle_key", "ascending"), ("doc_id", "ascending")]
        )
        s = g.take(order)
        return pa.table(
            {
                "rank": pa.array(
                    b + np.arange(s.num_rows, dtype=np.int64), type=pa.int64()
                ),
                "doc_id": s["doc_id"],
                "shuffle_key": s["shuffle_key"],
            }
        )

    return keyed_ds.groupby("rid").map_groups(per_range, batch_format="pyarrow")


def doc_shuffle(sf_dir: str, n_ranges: int | None = None) -> pa.Table:
    """Deterministic corpus shuffle: assign every doc a global training-order
    rank — the epoch-ordering step a training pipeline runs before packing.
    Membership in a rank depends only on doc_id (same frozen Knuth key as
    doc_sample), never on run order, partitioning or a driver seed.

    Frozen pair with ``doc_shuffle_sql``: shuffle_key = sample_key(doc_id)
    (exact mod-2^32 Knuth multiplicative hash); rank = 0-based position in
    (shuffle_key ASC, doc_id ASC) order. Output (rank, doc_id, shuffle_key)
    ordered by rank.

    Scale shape: the classic two-level scan (same machinery as
    packing.pack_bins) but over KEY ranges: keys are uniform on [0, 2^32)
    by construction, so R equal-width key ranges are balanced for ANY
    doc_id distribution; per-range counts (R scalars) give the driver the
    exclusive rank offsets; each fat range then sorts (key, doc_id) and
    adds its base — O(ranges) driver state, one exchange, no global sort
    (the ranked stream itself is shuffle_ranks_ds)."""
    import pyarrow.compute as pc

    ds = shuffle_ranks_ds(sf_dir, n_ranges)
    if ds is None:
        return _SHUFFLE_SCHEMA.empty_table()
    out = collect_table(ds, empty_schema=_SHUFFLE_SCHEMA)
    return out.take(pc.sort_indices(out["rank"]))


def doc_shuffle_sql() -> str:
    """Twin of doc_shuffle — row_number over the same frozen key order."""
    return f"""
WITH keyed AS (SELECT doc_id, {_key_sql()} AS shuffle_key FROM documents)
SELECT CAST(row_number() OVER (ORDER BY shuffle_key, doc_id) - 1 AS BIGINT)
         AS rank,
       doc_id, shuffle_key
FROM keyed ORDER BY rank
"""


# train/val/test split percentages (must sum to 100); assignment is the
# frozen sample_key partitioned at the exact integer thresholds
# [0, T(train)) / [T(train), T(train+val)) / [T(train+val), 2^32) — the
# same Knuth key as doc_sample, so split membership NESTS with every
# other sampling decision (a doc_sample(5) subset is entirely inside the
# train split when SPLIT_PCTS["train"] >= 5... for the same key ranges).
SPLIT_PCTS = {"train": 90, "val": 5, "test": 5}


def doc_split_assign(sf_dir: str) -> pa.Table:
    """Deterministic train/val/test split assignment — the holdout op
    every training-data pipeline needs. Membership depends only on
    doc_id (frozen Knuth key), never on partitioning, run order or a
    stored seed, so the split is reproducible across runs, resumable
    mid-pipeline, and STABLE UNDER CORPUS GROWTH: adding documents never
    moves an existing doc between splits (the leakage-safe property a
    row_number()-based split lacks). Stateless map_batches, no shuffle.
    Frozen pair with doc_split_assign_sql."""
    assert sum(SPLIT_PCTS.values()) == 100, SPLIT_PCTS
    t_train = _threshold(SPLIT_PCTS["train"])
    t_val = _threshold(SPLIT_PCTS["train"] + SPLIT_PCTS["val"])

    def assign(t: pa.Table) -> pa.Table:
        key = sample_key(t["doc_id"].to_numpy())
        split = np.where(
            key < t_train, "train", np.where(key < t_val, "val", "test")
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "lang": t["lang"],
                "split": pa.array(split, type=pa.string()),
                "sample_key": pa.array(key.astype(np.int64), type=pa.int64()),
            }
        )

    t = collect_table(
        _read_docs(sf_dir).map_batches(
            assign, batch_format="pyarrow", zero_copy_batch=True
        )
    )
    return t.take(pa.compute.sort_indices(t["doc_id"]))


def doc_split_assign_sql() -> str:
    t_train = _threshold(SPLIT_PCTS["train"])
    t_val = _threshold(SPLIT_PCTS["train"] + SPLIT_PCTS["val"])
    return f"""
SELECT doc_id, lang,
       CASE WHEN {_key_sql()} < {t_train} THEN 'train'
            WHEN {_key_sql()} < {t_val} THEN 'val'
            ELSE 'test' END AS split,
       {_key_sql()} AS sample_key
FROM documents
ORDER BY doc_id
"""
