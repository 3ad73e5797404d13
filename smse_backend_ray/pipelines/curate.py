"""End-to-end training-corpus curation over the ``documents`` table — the
composite pipeline a 100 TB pretraining run executes before tokenization:

  exact dedup -> quality floor -> lang allowlist -> Bernoulli sample
  -> deterministic shuffle rank -> sequence-pack offsets

Every stage reuses a frozen engine<->SQL primitive (fingerprint_batch /
quality_batch, sampling.sample_key, the pack_bins prefix-sum machinery),
so the WHOLE composite is value-oracled end-to-end by ``curation_sql``
(reference analog: the upload -> validate -> embed -> store chain,
smse_backend/services/pipeline.py:60-118, generalized to corpus curation).

Frozen semantics (constants in config.CURATE_*):
  1. dedup winners FIRST, on the full corpus: keep doc iff doc_id =
     min(doc_id) over its md5(text) fingerprint group (duplicates of a
     failing winner are still dropped — content-level dedup);
  2. ROUNDED quality (round4, quality_batch formula) >= CURATE_MIN_QUALITY;
  3. stored lang IN CURATE_LANGS;
  4. sample_key(doc_id) < threshold(CURATE_SAMPLE_PCT) (frozen Knuth key);
  5. rank = 0-based position over survivors in (sample_key, doc_id) order;
  6. n_tokens = raw subtoken count; start_offset = exclusive prefix sum of
     n_tokens in rank order; bin = start_offset // PACK_WINDOW.

Scale shape: one metadata pass (text never leaves the scan stage — only
(doc_id, lang, fingerprint, quality, n_tokens, key) rows move); one
fingerprint-bucket exchange for winners; one doc_id-bucket semi-join; then
the two-level ordered scan over KEY ranges — survivor keys are uniform on
[0, threshold) by construction (Bernoulli keep = key < threshold), so
equal-width ranges over [0, threshold) stay balanced after sampling; the
driver holds 2R scalars (rank base + token-offset base per range).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from smse_backend_ray.functions.collect import collect_table
from smse_backend_ray.sources.corpus import _parquet_rows, read_table


def curation_pipeline(
    sf_dir: str, n_ranges: int | None = None, out_dir: str | None = None
) -> pa.Table:
    """(rank, doc_id, lang, quality, n_tokens, start_offset, bin) for every
    curated survivor, ordered by rank. See module doc for the frozen rules.

    ``out_dir``: when set, survivor rows are WRITTEN as shard-partitioned
    parquet (shard = the ordered key range each row's rank derives from —
    one directory per range, so a failed run resumes per shard) and the
    return value is a small (shard, n_rows) manifest. A 100 TB curation's
    output is itself fact-scale and must not funnel through the driver."""
    from smse_backend_ray import config
    from smse_backend_ray.functions.analyzer import subtokens_batch
    from smse_backend_ray.functions.joins import (
        cpu_scaled_buckets,
        grouped_aggregate,
        semi_join,
        with_schema,
    )
    from smse_backend_ray.pipelines.packing import PACK_WINDOW
    from smse_backend_ray.pipelines.sampling import (
        SAMPLE_MOD,
        _threshold,
        sample_key,
    )
    from smse_backend_ray.pipelines.textstats import (
        fingerprint_batch,
        quality_batch,
    )

    min_q = float(config.CURATE_MIN_QUALITY)
    langs = frozenset(config.CURATE_LANGS)
    thr = _threshold(config.CURATE_SAMPLE_PCT)
    R = n_ranges or cpu_scaled_buckets(
        mult=4, floor=8,
        rows=_parquet_rows(os.path.join(sf_dir, "documents.parquet")),
    )  # rows hint only lowers R; output is R-invariant by test

    out_schema = pa.schema(
        [("rank", pa.int64()), ("doc_id", pa.int64()), ("lang", pa.string()),
         ("quality", pa.float64()), ("n_tokens", pa.int64()),
         ("start_offset", pa.int64()), ("bin", pa.int64())]
    )
    manifest_schema = pa.schema([("shard", pa.int64()), ("n_rows", pa.int64())])

    def _empty():
        return (manifest_schema if out_dir is not None else out_schema).empty_table()

    if thr <= 0:
        return _empty()

    def meta(t: pa.Table) -> pa.Table:
        q = quality_batch(t)
        fp = fingerprint_batch(t)
        toks = subtokens_batch(t["text"])
        nt = np.diff(np.asarray(toks.offsets, dtype=np.int64))
        ids = pc.cast(t["doc_id"], pa.int64())
        key = sample_key(ids.to_numpy()).astype(np.int64)
        return pa.table(
            {
                "doc_id": ids,
                "lang": t["lang"],
                "fingerprint": fp["fingerprint"],
                "quality": q["quality"],
                "n_tokens": pa.array(nt, type=pa.int64()),
                "skey": pa.array(key, type=pa.int64()),
            }
        )

    meta_schema = pa.schema(
        [("doc_id", pa.int64()), ("lang", pa.string()),
         ("fingerprint", pa.string()), ("quality", pa.float64()),
         ("n_tokens", pa.int64()), ("skey", pa.int64())]
    )
    ds = read_table(sf_dir, "documents", ["doc_id", "text", "lang"])
    rows = ds.map_batches(
        meta, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    # 1. dedup winners on the FULL corpus (one fingerprint-bucket exchange)
    winners = with_schema(
        grouped_aggregate(
            rows, ["fingerprint"], [("doc_id", "min", "doc_id")]
        ),
        pa.schema([("fingerprint", pa.string()), ("doc_id", pa.int64())]),
    ).map_batches(
        lambda t: t.select(["doc_id"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    deduped = semi_join(rows, winners, keys=["doc_id"], left_schema=meta_schema)

    # 2-4. per-survivor filters + the key-range tag (no exchange)
    def keep(t: pa.Table) -> pa.Table:
        q = t["quality"].to_numpy()
        key = t["skey"].to_numpy()
        lg = t["lang"].to_numpy(zero_copy_only=False)
        m = (q >= min_q) & (key < thr)
        m &= np.isin(lg, list(langs))
        kept = t.filter(pa.array(m))
        rid = (kept["skey"].to_numpy() * R) // thr
        return pa.table(
            {
                "doc_id": kept["doc_id"], "lang": kept["lang"],
                "quality": kept["quality"], "n_tokens": kept["n_tokens"],
                "skey": kept["skey"],
                "rid": pa.array(rid, type=pa.int64()),
            }
        )

    survivors = deduped.map_batches(
        keep, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    # 5-6. two-level ordered scan over key ranges: per-range (count,
    # token sum) -> driver computes 2R exclusive bases -> per-range finish
    def partials(t: pa.Table) -> pa.Table:
        g = (
            t.select(["rid", "n_tokens"])
            .group_by("rid")
            .aggregate([("n_tokens", "sum"), ("n_tokens", "count")])
        )
        return pa.table(
            {"rid": g["rid"],
             "s": pc.cast(g["n_tokens_sum"], pa.int64()),
             "n": pc.cast(g["n_tokens_count"], pa.int64())}
        )

    part = collect_table(
        survivors.map_batches(
            partials, batch_format="pyarrow", zero_copy_batch=True
        ),
        empty_schema=pa.schema(
            [("rid", pa.int64()), ("s", pa.int64()), ("n", pa.int64())]
        ),
    )
    if not part.num_rows:
        return _empty()
    tok_sums = np.zeros(R, dtype=np.int64)
    cnts = np.zeros(R, dtype=np.int64)
    np.add.at(tok_sums, part["rid"].to_numpy(), part["s"].to_numpy())
    np.add.at(cnts, part["rid"].to_numpy(), part["n"].to_numpy())
    rank_base = np.concatenate(([0], np.cumsum(cnts)[:-1]))
    off_base = np.concatenate(([0], np.cumsum(tok_sums)[:-1]))
    base_ref = ray.put((rank_base, off_base))

    window = PACK_WINDOW

    def per_range(g: pa.Table) -> pa.Table:
        rid = int(g["rid"][0].as_py())
        rb, ob = ray.get(base_ref)
        order = pc.sort_indices(
            g, sort_keys=[("skey", "ascending"), ("doc_id", "ascending")]
        )
        s = g.take(order)
        nt = s["n_tokens"].to_numpy()
        start = int(ob[rid]) + np.concatenate(([0], np.cumsum(nt)[:-1]))
        return pa.table(
            {
                "rank": pa.array(
                    int(rb[rid]) + np.arange(s.num_rows, dtype=np.int64),
                    type=pa.int64(),
                ),
                "doc_id": s["doc_id"], "lang": s["lang"],
                "quality": s["quality"],
                "n_tokens": pa.array(nt, type=pa.int64()),
                "start_offset": pa.array(start, type=pa.int64()),
                "bin": pa.array(start // window, type=pa.int64()),
                "shard": pa.array(
                    np.full(s.num_rows, rid, dtype=np.int64), type=pa.int64()
                ),
            }
        )

    finished = survivors.groupby("rid").map_groups(
        per_range, batch_format="pyarrow"
    )
    if out_dir is not None:
        finished.write_parquet(out_dir, partition_cols=["shard"])
        import pyarrow.dataset as pads_mod

        frags = pads_mod.dataset(out_dir, partitioning="hive").to_table(
            columns=["shard"]
        )
        g = frags.group_by("shard").aggregate([([], "count_all")])
        m = pa.table(
            {
                "shard": pc.cast(g["shard"], pa.int64()),
                "n_rows": pc.cast(g["count_all"], pa.int64()),
            }
        )
        return m.take(pc.sort_indices(m["shard"]))
    out = collect_table(
        finished,
        empty_schema=out_schema.append(pa.field("shard", pa.int64())),
    )
    out = out.drop_columns(["shard"])
    return out.take(pc.sort_indices(out["rank"]))


def curation_sql() -> str:
    """DuckDB twin of curation_pipeline — MUST stay in lockstep (see module
    doc; every fragment mirrors an existing frozen twin: quality_sql's
    formula text, fingerprint_sql's md5, sampling._key_sql, pack_bins_sql's
    window cumsum)."""
    from smse_backend_ray import config
    from smse_backend_ray.functions.sqlgen import (
        _doc_raw_tokens,
        stoplist_sql,
    )
    from smse_backend_ray.pipelines.packing import PACK_WINDOW
    from smse_backend_ray.pipelines.sampling import _key_sql, _threshold

    langs = ", ".join(
        "'" + lg.replace("'", "''") + "'" for lg in sorted(config.CURATE_LANGS)
    )
    thr = _threshold(config.CURATE_SAMPLE_PCT)
    return f"""
WITH raw AS ({_doc_raw_tokens()}),
r AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n,
        CAST(SUM(CASE WHEN term IN ({stoplist_sql()}) THEN 1 ELSE 0 END) AS DOUBLE)
          / count(*) AS sr
      FROM raw GROUP BY doc_id),
meta0 AS (
  SELECT d.doc_id AS doc_id, d.lang AS lang, md5(d.text) AS f,
         COALESCE(r.n, 0) AS n_tokens,
         round(CAST(0.3 AS DOUBLE) * COALESCE(r.sr, 0.0)
               + CAST(0.7 AS DOUBLE) * least(COALESCE(r.n, 0), 100) / 100, 4)
           AS quality
  FROM documents d LEFT JOIN r ON r.doc_id = d.doc_id
),
meta AS (SELECT *, {_key_sql()} AS skey FROM meta0),
win AS (SELECT min(doc_id) AS doc_id FROM meta GROUP BY f),
kept AS (
  SELECT m.* FROM meta m JOIN win w ON m.doc_id = w.doc_id
  WHERE m.quality >= CAST({float(config.CURATE_MIN_QUALITY)!r} AS DOUBLE)
    AND m.lang IN ({langs})
    AND m.skey < {thr}
),
ordered AS (
  SELECT doc_id, lang, quality, n_tokens,
         CAST(row_number() OVER (ORDER BY skey, doc_id) - 1 AS BIGINT) AS rank,
         CAST(COALESCE(sum(n_tokens) OVER (
           ORDER BY skey, doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
         ), 0) AS BIGINT) AS start_offset
  FROM kept
)
SELECT rank, doc_id, lang, quality, n_tokens, start_offset,
       CAST(start_offset // {PACK_WINDOW} AS BIGINT) AS bin
FROM ordered ORDER BY rank
"""
