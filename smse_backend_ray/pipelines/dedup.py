"""Deduplication operators over the ``documents`` / ``embeddings`` tables —
the training-data-pipeline additions (exact, n-gram Jaccard, MinHash-LSH,
SimHash, embedding-cosine near-dup).

Reference analog: uniqueness constraints + existence-check-then-insert
(SURVEY.md D2/D3; smse_backend/models/content.py:11, routes/auth.py:28-33) —
generalized to content-level near-dup detection as required for a 100 TB
training-data engine.

Every exchange below is ``arrow_kernels.exchange`` (directly, or as the
``joins`` attaches / semi- and anti-joins / ``grouped_aggregate``), every
in-key pair triangle is ``arrow_kernels.run_pairs``, and the memoized
tables share one keep-latest memo (``_memo``).

Scale notes (the partitioning assumptions each operator relies on):
  - exact: winner-per-fingerprint via the fingerprint exchange — the shuffle
    carries only (fingerprint, doc_id) pairs, never content.
  - jaccard: exact inverted-index join on shingles; a shingle shared by d
    docs emits d*(d-1)/2 candidate pairs, so this is for verification /
    small scopes. The scale path is minhash_lsh (bounded band buckets).
  - minhash_lsh: shingle -> 64 minhashes -> 16 bands of 4 -> band-key
    exchange -> candidate pairs -> DISTRIBUTED exact-Jaccard verify over the
    candidate docs only. Only band-bucket collisions shuffle; the driver
    sees pair ids, never text.
  - simhash: banding AND hamming verification run distributed
    (16-bit chunk-key exchange); oversized buckets are capped + logged.
  - embedding near-dup: exact = distributed block-pair sweep (per-task
    pushdown reads, no broadcast, no driver-held vectors); scale path =
    IVF-bucketed blocking over pipelines/simsearch.build_ivf_index.
"""

from __future__ import annotations

import hashlib
import os
import struct

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from smse_backend_ray.config import (
    HOT_SHINGLE_BROADCAST_MAX,
    JACCARD_SHINGLE_DF_CAP,
    SIMHASH_BUCKET_CAP,
    SIMHASH_MAX_HAMMING,
)
from smse_backend_ray.functions.analyzer import split_subtokens
from smse_backend_ray.functions.arrow_kernels import (
    agg,
    arrow_map,
    exchange,
    int64_schema,
    run_pairs,
    run_rank,
)
from smse_backend_ray.functions.collect import collect_table
from smse_backend_ray.functions.joins import (
    anti_join,
    attach_left,
    attach_unique,
    grouped_aggregate,
    semi_join,
)
from smse_backend_ray.functions.rounding import round_half_away
from smse_backend_ray.pipelines.simsearch import _emb_matrix, _sqdist
from smse_backend_ray.sources.corpus import _parquet_rows, read_table

SHINGLE_K = 3
JACCARD_THRESHOLD = 0.5
MINHASH_PERMS = 64
LSH_BANDS = 16  # 16 bands x 4 rows
# the driver's synthetic embeddings max out near cos 0.51; 0.4 yields a
# meaningful (60-ish) deterministic pair set for the correctness gate
EMB_DUP_THRESHOLD = 0.4

_DOC_KEY = pa.schema([("doc_id", pa.int64()), ("shingle", pa.string())])
_PAIR = int64_schema("a", "b")
_COSINE = int64_schema("a", "b", cosine=pa.float64())


def _small_nb(n_rows: int) -> int:
    """Exchange buckets for a candidate-bounded input of ``n_rows``: a
    257-row verify set through the default 8*cpus buckets paid hundreds of
    near-empty reduce tasks per attach (measured 7-12 s each)."""
    return max(4, min(64, -(-n_rows // 512)))


def _read_documents(sf_dir: str) -> "ray.data.Dataset":
    return read_table(sf_dir, "documents", ["doc_id", "text"])


def _by_pair(t: pa.Table) -> pa.Table:
    return t.sort_by([("a", "ascending"), ("b", "ascending")])


def doc_shingles(text: str, k: int = SHINGLE_K) -> list[str]:
    """Distinct word k-gram shingles of the raw subtoken stream (sorted)."""
    toks = split_subtokens(text or "")
    return sorted(
        {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}
    )


# ---------------------------------------------------------------------------
# the one dedup memo
# ---------------------------------------------------------------------------

_MEMO: dict[str, tuple] = {}


def _memo(slot: str, key: tuple, compute):
    """Keep-latest memo: each ``slot`` holds ONE (key, value), the latest.
    Values pin materialized object-store blocks or tables, so a process
    that walks several sf dirs, thresholds or caps keeps one per slot,
    never one per key it has seen. Keys carry the documents stamp."""
    hit = _MEMO.get(slot)
    if hit is not None and hit[0] == key:
        return hit[1]
    value = compute()
    _MEMO[slot] = (key, value)
    return value


def _docs_stamp(sf_dir: str) -> tuple:
    """(path, size, mtime) stamp of the documents table (mtime alone is
    too coarse on second-granularity filesystems)."""
    path = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(path)
    return (path, st.st_size, st.st_mtime)


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def exact_dedup(sf_dir: str) -> pa.Table:
    """Winner (min doc_id) per md5(text) fingerprint -> surviving docs."""

    def fp_batch(t: pa.Table) -> pa.Table:
        fps = [hashlib.md5((x or "").encode()).hexdigest() for x in t["text"].to_pylist()]
        # per-batch partial winner (combiner) before the global exchange
        part = pa.table({"fingerprint": pa.array(fps, pa.string()), "doc_id": t["doc_id"]})
        return agg(part, "fingerprint", doc_id=("doc_id", "min"))

    schema = pa.schema([("fingerprint", pa.string()), ("doc_id", pa.int64())])
    winners = grouped_aggregate(
        arrow_map(_read_documents(sf_dir), fp_batch), ["fingerprint"], schema,
        nb=_doc_buckets(sf_dir), doc_id=("doc_id", "min"),
    )
    t = collect_table(winners, empty_schema=schema)
    return t.select(["doc_id", "fingerprint"]).sort_by("doc_id")


# ---------------------------------------------------------------------------
# exact n-gram Jaccard pairs (inverted shingle index)
# ---------------------------------------------------------------------------

def _gram_rows(t: pa.Table, k: int) -> pa.Table:
    """(doc_id, shingle) word-k-gram rows, DISTINCT per doc — fully
    vectorized: the Arrow-C++ subtoken split, k-gram strings via one join
    over shifted flat-token views (masked at doc boundaries), and the
    per-doc distinct via a C++ group_by. Row ORDER differs from the scalar
    doc_shingles (consumers are all groupbys/aggregates — order-free; the
    parity test compares as sets)."""
    from smse_backend_ray.functions.analyzer import subtokens_batch

    toks = subtokens_batch(t["text"])
    flat = toks.values
    total = len(flat)
    if total < k:
        # tiny batch: scalar fallback keeps the edge cases trivial
        rows = [
            (did, s)
            for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())
            for s in doc_shingles(text, k)
        ]
        return pa.Table.from_pylist(
            [{"doc_id": d, "shingle": s} for d, s in rows], schema=_DOC_KEY
        )
    off = np.asarray(toks.offsets, dtype=np.int64)
    counts = np.diff(off)
    doc_idx = np.repeat(np.arange(len(toks), dtype=np.int64), counts)
    n_grams = total - (k - 1)
    parts = [flat.slice(i, n_grams) for i in range(k)]
    grams = pc.binary_join_element_wise(*parts, " ")
    # a gram starting at flat position i is valid iff all K tokens belong to
    # the same doc: local position <= count(doc) - K
    local = np.arange(total) - off[doc_idx]
    valid = (local[:n_grams] <= counts[doc_idx[:n_grams]] - k)
    if not valid.any():
        return _DOC_KEY.empty_table()
    dids = pa.array(
        t["doc_id"].to_numpy(zero_copy_only=False)[doc_idx[:n_grams][valid]],
        type=pa.int64(),
    )
    return agg(pa.table({"doc_id": dids, "shingle": grams.filter(pa.array(valid))}),
               ["doc_id", "shingle"])


def _shingle_rows(t: pa.Table) -> pa.Table:
    """The Jaccard/minhash shingle stage: _gram_rows at the frozen SHINGLE_K."""
    return _gram_rows(t, SHINGLE_K)


# JACCARD_SHINGLE_DF_CAP (imported from config.py — single-sourced with the
# DuckDB oracle defaults): without it one ubiquitous shingle emits d^2/2
# candidate rows and kills the job at scale.


def _pair_counts(ds, key_col: str, name: str, nb: int):
    """(key_col, doc_id) rows -> (a, b, ``name``) = the number of key
    values every (a < b) doc pair shares.

    Scale shape: keys hash into a few FAT groups through the one exchange
    (a per-key map_groups pays a PYTHON call per key — measured 52-60 s at
    5k docs / 16 CPUs) and each group emits every in-key pair with
    ``run_pairs``, pre-aggregating (a, b) partials in Arrow C++ before
    the (a, b) exchange sums them. Requires each doc to appear AT MOST
    ONCE per key (true for distinct shingle sets and band signatures), so
    a < b holds by construction. Per-group memory is O(total rows /
    n_buckets + emitted pairs in the bucket); pair blowup stays bounded
    by the callers' df caps."""

    def emit(g: pa.Table) -> pa.Table:
        d = g["doc_id"].to_numpy()
        a, b, _ = run_pairs(g[key_col].to_numpy(zero_copy_only=False), d)
        return agg(pa.table({"a": d[a], "b": d[b]}), ["a", "b"], n=("a", "count"))

    partial = exchange(ds, key_col, emit, int64_schema("a", "b", "n"), nb=nb)
    return grouped_aggregate(partial, ["a", "b"], int64_schema("a", "b", name), nb=nb,
                             **{name: ("n", "sum")})


def _score_jaccard(
    inter_ds, sizes_ds, threshold: float, formula: str = "jaccard"
) -> pa.Table:
    """(a, b, inter) dataset ⋈ (doc_id, n) sizes dataset -> verified pairs.

    ``formula`` picks the set-overlap score (and output column name):
    "jaccard" = i / (na + nb - i); "containment" = i / min(na, nb) — the
    Broder max-containment, which flags subset/superset duplication that
    Jaccard misses when set sizes differ widely.

    Fully distributed: the per-doc shingle-set sizes stay a Dataset and are
    attached with two distributed unique-key joins (on a, then on b) — no
    driver-side dict of O(corpus) / O(candidate-docs) sizes, no broadcast.
    The joins run on joins.attach_unique (the bucketed exchange), NOT
    Dataset.join: candidate pairs are sparse, and Ray 2.49's hash-join
    aggregator crashes on hash partitions that receive no rows (see the
    functions/joins.py module docstring; caught by the adversarial fuzz)."""
    inter_schema = int64_schema("a", "b", "inter")
    # both inputs are MATERIALIZED by the callers, so count() is free and
    # sizes the bucket exchange to the data
    nb = _small_nb(inter_ds.count() + sizes_ds.count())
    ja = attach_unique(
        inter_ds, sizes_ds.rename_columns({"n": "na"}),
        "a", "doc_id", inter_schema, int64_schema("na"), nb=nb,
    )
    jb = attach_unique(
        ja, sizes_ds.rename_columns({"n": "nb"}),
        "b", "doc_id", int64_schema("a", "b", "inter", "na"), int64_schema("nb"), nb=nb,
    )
    out_schema = int64_schema("a", "b", **{formula: pa.float64()})

    def score(t: pa.Table) -> pa.Table:
        it, na, nb = (t[c].to_numpy().astype(np.float64) for c in ("inter", "na", "nb"))
        j = it / np.minimum(na, nb) if formula == "containment" else it / (na + nb - it)
        m = j >= threshold
        return pa.table({"a": t["a"].filter(pa.array(m)), "b": t["b"].filter(pa.array(m)),
                         formula: round_half_away(j[m], 4)})

    return _by_pair(collect_table(arrow_map(jb, score), empty_schema=out_schema))


def _hot_keys(rows, df_cap: int, nb: int, msg: str):
    """Distributed global df pass over (doc_id, shingle) rows -> (materialized
    Dataset of the keys with df > cap, their count). Logged when non-empty
    — never a silent drop. Stays a DATASET: the hot set grows with corpus
    vocabulary at fixed cap, so it must never be required to fit on the
    driver."""
    hot = (
        grouped_aggregate(rows, ["shingle"], pa.schema([("shingle", pa.string()), ("df", pa.int64())]),
                          nb=nb, df=("doc_id", "count"))
        .filter(expr=f"df > {df_cap}")
        .select_columns(["shingle"])
        .materialize()
    )
    n_hot = hot.count()
    if n_hot:
        import logging

        logging.getLogger(__name__).warning(msg, n_hot, df_cap)
    return hot, n_hot


def _global_hot_shingles(sf_dir: str, df_cap: int, op: str):
    """The hot-shingle set of the corpus (``_hot_keys`` over its shingle
    rows), memoized per (documents stamp, df_cap): jaccard_pairs and
    minhash_lsh_pairs both need the identical hot set and otherwise each
    pay the full corpus df pass."""

    def compute():
        hot, n_hot = _hot_keys(
            arrow_map(_read_documents(sf_dir), _shingle_rows), df_cap, _doc_buckets(sf_dir),
            f"{op}: excluding %d shingles with df > %d from Jaccard sets",
        )
        return hot, n_hot

    return _memo("hot", (_docs_stamp(sf_dir), df_cap), compute)


def _drop_hot_stage(ds, hot):
    """Filter (doc_id, shingle) rows down to shingles NOT in the hot set.

    Two shapes by hot-set size: a small set broadcasts once (`ray.put` of
    an Arrow array, one `pc.is_in` C++ call per batch — no per-row Python);
    past HOT_SHINGLE_BROADCAST_MAX it switches to a distributed bucketed
    anti-join so no driver-held structure scales with vocabulary."""
    hot_ds, n_hot = hot
    if n_hot == 0:
        return ds
    if n_hot <= HOT_SHINGLE_BROADCAST_MAX:
        hot_ref = ray.put(collect_table(hot_ds)["shingle"].combine_chunks())

        def drop_hot(t: pa.Table) -> pa.Table:
            return t.filter(
                pc.invert(pc.is_in(t["shingle"], value_set=ray.get(hot_ref)))
            )

        return arrow_map(ds, drop_hot)
    return anti_join(ds, hot_ds, ["shingle"], _DOC_KEY)


WINNOW_DUP_FP_DF_CAP = 64   # fingerprints in more docs are boilerplate
WINNOW_DUP_MIN_SHARED = 2   # pair needs >= this many shared fingerprints


def winnow_dup_pairs(
    sf_dir: str,
    df_cap: int = WINNOW_DUP_FP_DF_CAP,
    min_shared: int = WINNOW_DUP_MIN_SHARED,
) -> pa.Table:
    """MOSS-style near-dup pairs over winnow fingerprints (Schleimer/
    Wilkerson/Aiken): doc pairs sharing >= ``min_shared`` distinct
    fingerprints, after dropping fingerprints with document frequency >
    ``df_cap`` (ubiquitous boilerplate would otherwise emit d^2/2 pairs).
    THE plagiarism/near-dup detector for a source-code corpus — robust to
    local edits because fingerprints are windowed k-gram minima.

    Frozen pair with sqlgen.winnow_dup_pairs_sql (same winnow CTE prelude
    as the winnow_rows twin — one copy, can't diverge).

    Scale shape: identical to jaccard_pairs — a deliberate 2-pass stream
    (global fingerprint-df pass -> hot drop by broadcast-or-anti-join,
    then the fat-bucket pair triangle), every stage vectorized, pair
    blowup bounded by the df cap. Fingerprint sets are ~20x smaller than
    shingle sets (the winnowing window keeps ~1/W of grams), so this is
    the CHEAPER near-dup signal at equal robustness."""
    from smse_backend_ray.pipelines.textstats import winnow_fingerprints_one

    def fp_rows(t: pa.Table) -> pa.Table:
        # column named "shingle" so the shared dedup machinery
        # (_hot_keys / _drop_hot_stage / _pair_counts) applies verbatim —
        # the column semantically is "the dedup key"
        return pa.Table.from_pylist(
            [
                {"doc_id": did, "shingle": str(v)}
                for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())
                for v in winnow_fingerprints_one(text)
            ],
            schema=_DOC_KEY,
        )

    def rows_ds():
        return arrow_map(_read_documents(sf_dir), fp_rows)

    nb = _doc_buckets(sf_dir)
    hot = _hot_keys(rows_ds(), df_cap, nb, "winnow_dup_pairs: dropping %d fingerprints with df > %d")
    inter = _pair_counts(_drop_hot_stage(rows_ds(), hot), "shingle", "n_shared", nb)
    return _by_pair(collect_table(inter.filter(expr=f"n_shared >= {min_shared}"),
                                  empty_schema=int64_schema("a", "b", "n_shared")))


def _shingle_inter_sizes(sf_dir: str, df_cap: int, op: str):
    """The shared exact-overlap candidate pass: hot-capped shingle stream
    -> (materialized candidate-pair intersections, materialized per-doc
    set sizes). jaccard_pairs and containment_pairs consume the SAME
    tables (memoized per (documents stamp, df_cap)) and differ only in
    the score formula applied on top."""

    def compute():
        shingles = _drop_hot_stage(
            arrow_map(_read_documents(sf_dir), _shingle_rows),
            _global_hot_shingles(sf_dir, df_cap, op),
        )
        nb = _doc_buckets(sf_dir)
        # doc shingle-set sizes: stays a DATASET (joined in _score_jaccard,
        # never a driver dict — O(corpus) entries at scale)
        sizes = grouped_aggregate(shingles, ["doc_id"], int64_schema("doc_id", "n"), nb=nb,
                                  n=("shingle", "count"))
        # MATERIALIZED checkpoints: chaining the whole thing into one lazy
        # DAG stacks 4+ sort stages into a single streaming execution,
        # which measured ~4x slower than staged runs (BASELINE.md round-3
        # dedup notes); both tables are candidate-bounded
        inter = _pair_counts(shingles, "shingle", "inter", nb)
        return inter.materialize(), sizes.materialize()

    return _memo("cand", (_docs_stamp(sf_dir), int(df_cap)), compute)


def _overlap_pairs(sf_dir: str, threshold: float, df_cap: int, formula: str, op: str):
    """jaccard_pairs / containment_pairs: score the shared candidate
    tables, memoized per (documents stamp, threshold, df_cap). The shared
    candidate tables are released once BOTH formulas hold a scored table
    for the same (documents, df_cap) — the two scored memos then answer
    every repeat call."""
    stamp = _docs_stamp(sf_dir)
    out = _memo(
        formula, (stamp, float(threshold), int(df_cap)),
        lambda: _score_jaccard(*_shingle_inter_sizes(sf_dir, df_cap, op), threshold, formula),
    )
    scored = [_MEMO.get(f, ((None,),))[0] for f in ("jaccard", "containment")]
    if all(k[0] == stamp and k[-1] == int(df_cap) for k in scored):
        _MEMO.pop("cand", None)
    return out


def jaccard_pairs(
    sf_dir: str,
    threshold: float = JACCARD_THRESHOLD,
    df_cap: int = JACCARD_SHINGLE_DF_CAP,
) -> pa.Table:
    """Exact shingle-Jaccard pairs via a distributed inverted shingle index.
    Shingles with global df > ``df_cap`` are dropped from every shingle set
    (sizes AND intersections; the SQL oracle AND the minhash verifier apply
    the identical cap), and the drop is logged — never silent.

    Deliberate 2-pass design: the corpus is shingled twice (once for the
    global hot-shingle df pass, once for sizes/intersections). Both passes
    STREAM with bounded memory; the 1-pass alternative — materializing the
    full (doc_id, shingle) row set to feed both consumers — pins tokens x
    docs rows in the object store, which is the wrong trade at 100 TB.

    The verified pair table of the LATEST (documents stamp, threshold,
    df_cap) is memoized: dedup_clusters and dedup_survivors both start
    from these pairs, and each gate entry otherwise re-runs the full
    two-pass shingle sweep."""
    return _overlap_pairs(sf_dir, threshold, df_cap, "jaccard", "jaccard_pairs")


CONTAIN_THRESHOLD = 0.9


def containment_pairs(
    sf_dir: str,
    threshold: float = CONTAIN_THRESHOLD,
    df_cap: int = JACCARD_SHINGLE_DF_CAP,
) -> pa.Table:
    """Exact shingle max-containment pairs (Broder): containment =
    i / min(na, nb) over the SAME hot-capped shingle sets as
    jaccard_pairs. The asymmetric signal Jaccard misses — a short doc
    fully embedded in a long one scores containment 1.0 but Jaccard
    ~na/nb, so quote/boilerplate/subset duplication needs this operator.

    Frozen pair with sqlgen.containment_pairs_sql — the ONE
    sqlgen._overlap_pairs_cte candidate prelude both twins share; score
    = round4(i / least(na, nb) in DOUBLE), threshold compared on the RAW
    double (like Jaccard).

    Scale shape: identical to jaccard_pairs — the candidate pass is the
    shared memoized _shingle_inter_sizes tables, so running both signals
    costs ONE shingle sweep."""
    return _overlap_pairs(sf_dir, threshold, df_cap, "containment", "containment_pairs")


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup (scale path; verified against exact Jaccard)
# ---------------------------------------------------------------------------

_MINHASH_C1 = np.array(
    [0x9E3779B97F4A7C15 * (p + 1) & 0xFFFFFFFFFFFFFFFF for p in range(MINHASH_PERMS)],
    dtype=np.uint64,
)
_MINHASH_C2 = np.uint64(0xBF58476D1CE4E5B9)


def _minhash_sig(shingles: list[str]) -> np.ndarray | None:
    """Scalar reference (frozen; _minhash_sig_batch must match bitwise)."""
    if not shingles:
        return None
    # deterministic hash per (perm, shingle): md5(perm || shingle) first 8B
    sig = np.full(MINHASH_PERMS, np.iinfo(np.uint64).max, dtype=np.uint64)
    base = np.array(
        [
            struct.unpack("<Q", hashlib.md5(s.encode()).digest()[:8])[0]
            for s in shingles
        ],
        dtype=np.uint64,
    )
    # 64 cheap xor-multiply permutations of the base hash (splitmix-style)
    for p in range(MINHASH_PERMS):
        x = base ^ np.uint64(0x9E3779B97F4A7C15 * (p + 1) & 0xFFFFFFFFFFFFFFFF)
        x = (x * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        x ^= x >> np.uint64(31)
        sig[p] = x.min()
    return sig


def _minhash_sig_batch(shingle_lists: list[list[str]]) -> np.ndarray:
    """Vectorized signatures for a whole batch: ONE (rows x 64) permutation
    matrix + per-doc minimum.reduceat, instead of 64 tiny numpy ops per doc.
    Returns (n_docs, 64) uint64; rows for shingle-less docs are all-ones
    (the scalar path's None). Bitwise-equal to _minhash_sig (tested)."""
    counts = np.fromiter((len(s) for s in shingle_lists), dtype=np.int64,
                         count=len(shingle_lists))
    out = np.full((len(shingle_lists), MINHASH_PERMS),
                  np.iinfo(np.uint64).max, dtype=np.uint64)
    total = int(counts.sum())
    if not total:
        return out
    base = np.fromiter(
        (
            struct.unpack("<Q", hashlib.md5(s.encode()).digest()[:8])[0]
            for lst in shingle_lists
            for s in lst
        ),
        dtype=np.uint64,
        count=total,
    )
    x = base[:, None] ^ _MINHASH_C1[None, :]
    x = x * _MINHASH_C2  # uint64 wraps mod 2^64
    x ^= x >> np.uint64(31)
    nz = counts > 0
    offsets = np.concatenate(([0], np.cumsum(counts)))[:-1][nz]
    out[nz] = np.minimum.reduceat(x, offsets, axis=0)
    return out


def minhash_lsh_pairs(
    sf_dir: str,
    threshold: float = JACCARD_THRESHOLD,
    df_cap: int = JACCARD_SHINGLE_DF_CAP,
) -> pa.Table:
    """LSH candidate generation + DISTRIBUTED exact-Jaccard verification.
    Output schema == jaccard_pairs (pairs it found; high recall, verified
    precision). Verification applies the SAME global shingle df cap as
    jaccard_pairs (one extra distributed df pass), so verified values are
    identical to the exact path even on corpora with hot shingles.

    Scale shape: only band-bucket collisions shuffle, and the candidate pair
    set STAYS A DATASET end to end — the driver never holds a pair list, a
    doc-id list, or a sizes dict (all were O(candidates) broadcasts before).
    Candidate docs are selected with a distributed semi-join against the
    corpus, re-shingled in map_batches, intersections counted with a
    shingle-group shuffle over candidate docs only, then restricted to the
    LSH candidate pairs with a (a, b) semi-join and scored via sizes joins
    (_score_jaccard). All joins here run on joins.semi_join /
    joins.attach_unique (sort-shuffle, empty-partition-safe) — candidate
    sets are sparse and Ray's hash-join aggregator crashes on empty hash
    partitions (functions/joins.py module docstring)."""
    def band_rows(t: pa.Table) -> pa.Table:
        lists = [doc_shingles(x) for x in t["text"].to_pylist()]
        sigs = _minhash_sig_batch(lists)  # one matrix op for the whole batch
        r = MINHASH_PERMS // LSH_BANDS
        rows = [
            {"doc_id": did, "bkey": f"{b}:" + hashlib.md5(sig[b * r : (b + 1) * r].tobytes())
             .hexdigest()[:16]}  # band folded into the bucket key
            for did, lst, sig in zip(t["doc_id"].to_pylist(), lists, sigs)
            if lst
            for b in range(LSH_BANDS)
        ]
        return pa.Table.from_pylist(rows, schema=pa.schema([("doc_id", pa.int64()), ("bkey", pa.string())]))

    # candidate pairs, distinct-ed distributed; STAYS a Dataset (materialized
    # in the object store — O(LSH collisions), never on the driver). A pair
    # colliding in k bands shuffles k rows but survives distinct-ing once.
    nb_doc = _doc_buckets(sf_dir)
    cands = (
        _pair_counts(arrow_map(_read_documents(sf_dir), band_rows), "bkey", "n_bands", nb_doc)
        .select_columns(["a", "b"]).materialize()
    )
    if cands.count() == 0:
        return int64_schema("a", "b", jaccard=pa.float64()).empty_table()

    # candidate doc ids, distinct-ed distributed
    need_ids = grouped_aggregate(
        [cands.select_columns([c]).rename_columns({c: "doc_id"}) for c in ("a", "b")],
        ["doc_id"], int64_schema("doc_id"), nb=nb_doc,
    )

    # distributed verification over candidate docs only, selected with a
    # semi-join (no O(candidates) isin literal in the read filter);
    # materialized because two consumers (sizes, intersections) read it —
    # bounded by the candidate set, not the corpus. The hot-shingle cap
    # matches jaccard_pairs exactly.
    cand_docs = semi_join(
        _read_documents(sf_dir), need_ids, ["doc_id"],
        pa.schema([("doc_id", pa.int64()), ("text", pa.string())]), nb=nb_doc,
    )
    cand_shingles = _drop_hot_stage(
        arrow_map(cand_docs, _shingle_rows),
        _global_hot_shingles(sf_dir, df_cap, "minhash_lsh_pairs"),
    ).materialize()
    sizes_ds = grouped_aggregate(
        cand_shingles, ["doc_id"], int64_schema("doc_id", "n"), nb=nb_doc, n=("shingle", "count"),
    ).materialize()

    # all shingle-co-occurrence pairs among candidate docs (bounded by the
    # hot-shingle df cap), then restricted to the LSH candidate pairs with a
    # distributed semi-join — no broadcast pair set.
    inter = semi_join(
        _pair_counts(cand_shingles, "shingle", "inter", nb_doc),
        cands, ["a", "b"], int64_schema("a", "b", "inter"), nb=nb_doc,
    ).materialize()  # candidate-bounded checkpoint (see jaccard_pairs note)
    return _score_jaccard(inter, sizes_ds, threshold)


# ---------------------------------------------------------------------------
# SimHash fingerprints + near-dup pairs
# ---------------------------------------------------------------------------

def simhash64(text: str) -> int:
    """Scalar reference simhash (the frozen definition; the batch path
    below must match it bit for bit — tested)."""
    toks = split_subtokens(text or "")
    if not toks:
        return 0
    acc = np.zeros(64, dtype=np.int64)
    for t in toks:
        h = struct.unpack("<Q", hashlib.md5(t.encode()).digest()[:8])[0]
        bits = (np.uint64(h) >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        acc += np.where(bits.astype(bool), 1, -1)
    out = np.uint64(0)
    for i in range(64):
        if acc[i] > 0:
            out |= np.uint64(1) << np.uint64(i)
    return int(out)


_BIT_WEIGHTS = np.uint64(1) << np.arange(64, dtype=np.uint64)


_SIMHASH_CHUNK_TOKENS = 1 << 18  # 256k tokens -> <=64 MB int32 bit matrix


def simhash_batch(texts: list[str]) -> np.ndarray:
    """Vectorized simhash64 over a batch: per-token md5 (C-speed) is the only
    per-item pass; the ±1 bit accumulation runs in bounded token chunks
    (reduceat per contiguous doc run + scatter-add of the tiny per-run
    partials), so peak memory is ~64 MB regardless of batch text volume and
    arbitrarily large single docs are handled. Integer adds — order-free,
    bit-identical to the scalar simhash64."""
    counts = np.zeros(len(texts), dtype=np.int64)
    flat: list[int] = []
    for i, txt in enumerate(texts):
        toks = split_subtokens(txt or "")
        counts[i] = len(toks)
        flat.extend(
            struct.unpack("<Q", hashlib.md5(t.encode()).digest()[:8])[0] for t in toks
        )
    out = np.zeros(len(texts), dtype=np.uint64)
    if not flat:
        return out
    h = np.array(flat, dtype=np.uint64)
    doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
    shifts = np.arange(64, dtype=np.uint64)[None, :]
    acc = np.zeros((len(texts), 64), dtype=np.int64)
    for s in range(0, h.size, _SIMHASH_CHUNK_TOKENS):
        sl = slice(s, s + _SIMHASH_CHUNK_TOKENS)
        pm = 2 * ((h[sl, None] >> shifts) & np.uint64(1)).astype(np.int32) - 1
        di = doc_idx[sl]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(di)) + 1))
        part = np.add.reduceat(pm, starts, axis=0)  # per contiguous doc run
        np.add.at(acc, di[starts], part)
    nz = np.flatnonzero(counts)
    out[nz] = ((acc[nz] > 0).astype(np.uint64) * _BIT_WEIGHTS[None, :]).sum(axis=1)
    return out


def _popcount64(x: np.ndarray) -> np.ndarray:
    bits = np.unpackbits(np.ascontiguousarray(x, dtype=np.uint64).view(np.uint8))
    return bits.reshape(-1, 64).sum(axis=1, dtype=np.int64)


# banding recall cap SIMHASH_BUCKET_CAP (imported from config.py —
# single-sourced with the DuckDB oracle): buckets larger than it are skipped
# (and LOGGED — a 16-bit chunk shared by that many docs carries ~no near-dup
# signal, but the drop is surfaced, never silent)


def simhash_pairs(sf_dir: str, max_hamming: int = SIMHASH_MAX_HAMMING) -> pa.Table:
    """Near-dup pairs by simhash hamming distance, banded by 16-bit chunks
    (a pair within hamming<=3 must agree on >=1 of 4 chunks).

    Fully distributed: hash in map_batches, band via the chunk-key exchange,
    pair + exact-hamming-verify INSIDE each bucket group (every group row
    carries the full 64-bit hash), then a distributed (a, b) dedupe — the
    driver never sees the hash set, only the final pair table. The shuffle
    carries 4 rows of (bucket, doc_id, simhash) per doc.
    """

    def chunk_rows(t: pa.Table) -> pa.Table:
        h = simhash_batch(t["text"].to_pylist())
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        # bucket key = chunk index || 16-bit chunk value
        keys = [(np.int64(c) << np.int64(16)) | ((h >> np.uint64(16 * c)) & np.uint64(0xFFFF))
                .astype(np.int64) for c in range(4)]
        return pa.table({"bkey": np.concatenate(keys), "doc_id": np.tile(d, 4).astype(np.int64),
                         "simhash": pa.array(np.tile(h, 4), pa.uint64())})

    def pair_group(g: pa.Table) -> pa.Table:
        """MANY 16-bit-chunk keys per FAT group: run_pairs over (bkey,
        doc_id), runs over the cap reported as (-1, bkey, -size) marker
        rows, then one popcount verify."""
        bk, d, h = (g[c].to_numpy() for c in ("bkey", "doc_id", "simhash"))
        a, b, (first, size) = run_pairs(bk, d, cap=SIMHASH_BUCKET_CAP)
        dist = _popcount64(h[a] ^ h[b])
        keep = dist <= max_hamming
        return pa.table({"a": np.concatenate([np.full(len(first), -1), d[a][keep]]),
                         "b": np.concatenate([bk[first], d[b][keep]]),
                         "hamming": np.concatenate([-size, dist[keep]])})

    nbk = _doc_buckets(sf_dir)
    schema = int64_schema("a", "b", "hamming")
    pairs = exchange(arrow_map(_read_documents(sf_dir), chunk_rows), "bkey", pair_group, schema,
                     nb=nbk)
    # a pair can surface from up to 4 chunks: distributed dedupe (the min
    # is chunk-independent — hamming is a pair property)
    t = collect_table(grouped_aggregate(pairs, ["a", "b"], schema, nb=nbk,
                                        hamming=("hamming", "min")), empty_schema=schema)
    markers = t.filter(pc.equal(t["a"], -1))
    if markers.num_rows:
        import logging

        logging.getLogger(__name__).warning(
            "simhash_pairs: skipped %d oversized banding buckets "
            "(cap %d; %d member rows) — banding recall reduced in those buckets",
            markers.num_rows,
            SIMHASH_BUCKET_CAP,
            -int(pc.sum(markers["hamming"]).as_py()),
        )
        t = t.filter(pc.not_equal(t["a"], -1))
    return _by_pair(t.set_column(2, "hamming", pc.cast(t["hamming"], pa.int32())))


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------

def embedding_dup_pairs(
    sf_dir: str, threshold: float = EMB_DUP_THRESHOLD, block_rows: int = 4096
) -> pa.Table:
    """Exact pairs (a < b) with cosine >= threshold, as a DISTRIBUTED
    block-pair sweep: vec_id space is cut into fixed ranges and one Ray task
    per (block_i <= block_j) pair reads JUST those two ranges via parquet
    predicate pushdown and does one float64 matmul. Nothing is broadcast and
    the driver never holds a vector — memory is O(block²) per task while the
    (inherent for an exact all-pairs op) O(N²) compute spreads over
    nb*(nb+1)/2 tasks. The IVF-bucketed variant below is the sub-quadratic
    scale path."""
    from math import ceil

    from ray.data.aggregate import Count, Max, Min

    path = os.path.join(sf_dir, "embeddings.parquet")
    mm = read_table(sf_dir, "embeddings", ["vec_id"], repartition=False).aggregate(
        Count(alias_name="n"), Min("vec_id", alias_name="lo"), Max("vec_id", alias_name="hi")
    )
    if not mm["n"]:
        return _COSINE.empty_table()
    lo, hi = int(mm["lo"]), int(mm["hi"])
    # number of blocks derives from the ROW count (id VALUES may be sparse —
    # value-derived block counts would explode the task grid); block
    # boundaries split the id VALUE range evenly into that many pieces
    nb = max(1, ceil(int(mm["n"]) / block_rows))
    span = hi - lo + 1
    bounds = [lo + (span * i) // nb for i in range(nb)] + [hi + 1]
    tasks = [{"i": i, "j": j} for i in range(nb) for j in range(i, nb)]

    def pair_block(batch: pa.Table) -> pa.Table:
        import pyarrow.dataset as pads

        dset = pads.dataset(path)

        def load(i: int):
            field = pads.field("vec_id")
            t = dset.to_table(columns=["vec_id", "embedding"],
                              filter=(field >= bounds[i]) & (field < bounds[i + 1]))
            return np.asarray(t["vec_id"]), _emb_matrix(t["embedding"])

        outs = [_COSINE.empty_table()]
        for i, j in zip(batch["i"].to_pylist(), batch["j"].to_pylist()):
            ia, Ma = load(i)
            ib, Mb = (ia, Ma) if i == j else load(j)
            if len(ia) and len(ib):
                outs.append(_cosine_pairs(ia, Ma, threshold, ib, Mb))
        return pa.concat_tables(outs)

    out = ray.data.from_items(tasks).map_batches(
        pair_block, batch_format="pyarrow", batch_size=1
    )
    return _by_pair(collect_table(out, empty_schema=_COSINE))


def _cosine_pairs(ia: np.ndarray, A: np.ndarray, threshold: float, ib=None, B=None) -> pa.Table:
    """(a, b, cosine) for every id pair a < b between the rows of (ia, A)
    and (ib, B) (default: A against itself) with cosine >= threshold,
    rounded 4 — the one cosine block of the exact sweep and the IVF
    blocking."""
    ib, B = (ia, A) if B is None else (ib, B)
    sims = (A @ B.T) / np.outer(np.sqrt((A * A).sum(axis=1)), np.sqrt((B * B).sum(axis=1)))
    ri, cj = np.nonzero((sims >= threshold) & (ia[:, None] < ib[None, :]))
    return pa.table([pa.array(ia[ri], pa.int64()), pa.array(ib[cj], pa.int64()),
                     pa.array(round_half_away(sims[ri, cj], 4), pa.float64())], schema=_COSINE)


def embedding_dup_pairs_ivf(
    sf_dir: str,
    threshold: float = EMB_DUP_THRESHOLD,
    assign_probes: int = 2,
) -> pa.Table:
    """Sub-quadratic near-dup blocking via the IVF cluster layout
    (pipelines/simsearch.build_ivf_index): each vector is assigned to its
    ``assign_probes`` nearest centroids, pairs are generated ONLY within a
    shared cluster (cluster-key exchange, O(sum cluster²) compute), then
    deduped distributed. High recall for cosine-similar pairs (similar
    vectors land in the same or adjacent Voronoi cells — multi-assignment
    covers the boundaries); precision exact (cosines verified in-group).
    Rows-only gate + recall test vs the exact sweep."""
    from smse_backend_ray.pipelines.simsearch import build_ivf_index

    _, cents = build_ivf_index(sf_dir)
    cents_ref = ray.put(cents)

    def assign_rows(t: pa.Table) -> pa.Table:
        d = _sqdist(_emb_matrix(t["embedding"]), ray.get(cents_ref))
        near = np.argsort(d, axis=1, kind="stable")[:, :assign_probes].astype(np.int32)
        return pa.concat_tables([
            pa.table({"cluster": near[:, p], "vec_id": pc.cast(t["vec_id"], pa.int64()),
                      "embedding": t["embedding"]})
            for p in range(assign_probes)
        ])

    def pair_group(g: pa.Table) -> pa.Table:
        # MANY clusters per group: one cosine block per cluster run over
        # its distinct vec_ids in id order
        g = g.sort_by([("cluster", "ascending"), ("vec_id", "ascending")])
        g = g.filter(pa.array(run_rank(g["cluster"].to_numpy(), g["vec_id"].to_numpy())[0]))
        cl, ids = g["cluster"].to_numpy(), g["vec_id"].to_numpy()
        bounds = np.append(np.flatnonzero(run_rank(cl)[0]), len(cl))
        return pa.concat_tables([_COSINE.empty_table()] + [
            _cosine_pairs(ids[s:e], _emb_matrix(g["embedding"].slice(s, e - s)), threshold)
            for s, e in zip(bounds[:-1], bounds[1:])
            if e - s > 1
        ])

    assigned = arrow_map(read_table(sf_dir, "embeddings", ["vec_id", "embedding"]), assign_rows)
    pairs = exchange(assigned, "cluster", pair_group, _COSINE, nb=len(cents))
    return _by_pair(collect_table(
        grouped_aggregate(pairs, ["a", "b"], _COSINE, cosine=("cosine", "max")),
        empty_schema=_COSINE,
    ))


# recall the IVF blocking must clear vs the exact sweep on the gate corpus
# (checked entry below + tests/test_pipelines.py — change both or neither)
IVF_DEDUP_RECALL_FLOOR = 0.5


def embedding_dup_pairs_ivf_checked(
    sf_dir: str, threshold: float = EMB_DUP_THRESHOLD
) -> pa.Table:
    """Self-validating IVF near-dup entry: runs the IVF-blocked sweep AND
    the exact sweep, then asserts the two invariants the SQL oracle cannot
    express — (1) precision is exact (IVF pairs ⊆ exact pairs: every
    returned cosine really clears the threshold) and (2) recall ≥
    IVF_DEDUP_RECALL_FLOOR. The driver's rows-only gate therefore rides on
    a checked output, not an unchecked one. Gate-scale only (the exact
    sweep is O(N²) by definition); the unchecked embedding_dup_pairs_ivf
    is the production path."""
    ivf = embedding_dup_pairs_ivf(sf_dir, threshold)
    exact = embedding_dup_pairs(sf_dir, threshold)
    ip = set(zip(ivf["a"].to_pylist(), ivf["b"].to_pylist()))
    ep = set(zip(exact["a"].to_pylist(), exact["b"].to_pylist()))
    if ip - ep:
        raise AssertionError(
            f"IVF emitted {len(ip - ep)} pairs absent from the exact sweep"
        )
    recall = (len(ip & ep) / len(ep)) if ep else 1.0
    if recall < IVF_DEDUP_RECALL_FLOOR:
        raise AssertionError(
            f"IVF blocking recall {recall:.3f} < floor {IVF_DEDUP_RECALL_FLOOR}"
        )
    return ivf


# ---------------------------------------------------------------------------
# Near-dup clusters: connected components over verified pairs
# ---------------------------------------------------------------------------

CLUSTER_MAX_ITERS = 64


def _cc_labels(edges_t: pa.Table, max_iters: int) -> tuple[pa.Table, int, bool]:
    """Connected components over a bidirectional (u, v) edge table ->
    ((node, label=component min) table, rounds used, converged), in numpy
    on the driver over compact node indices (the edge table is built from
    the collected verified pair set, which is candidate-bounded).

    Each round = min-label propagation over neighbours, new(u) =
    min(label(u), min over edges of label(v)), followed by one POINTER
    JUMP new = new[new] (valid because label values are always node
    indices in the same component with label(x) <= x, so jumping is
    monotone and component-preserving). The jump makes convergence
    O(log diameter) rounds instead of O(diameter): a 200-link chain closes
    in ~8 rounds, not 200 (tests pin this). A round that changes nothing
    is the fixpoint: labels are then constant per component, hence the
    component min. Node ids map to sorted compact indices, so index order
    == id order and the component-min index maps back to the
    component-min doc_id."""
    nodes = np.unique(edges_t["u"].to_numpy(zero_copy_only=False))
    u = np.searchsorted(nodes, edges_t["u"].to_numpy(zero_copy_only=False))
    v = np.searchsorted(nodes, edges_t["v"].to_numpy(zero_copy_only=False))
    lab = np.arange(len(nodes), dtype=np.int64)
    rounds, converged = 0, False
    for _ in range(max_iters):
        rounds += 1
        new = lab.copy()
        np.minimum.at(new, u, lab[v])
        new = new[new]  # pointer jump (labels are compact indices, lab(x) <= x)
        if np.array_equal(new, lab):
            converged = True
            break
        lab = new
    out = pa.table(
        {
            "node": pa.array(nodes, type=pa.int64()),
            "label": pa.array(nodes[lab], type=pa.int64()),
        }
    )
    return out, rounds, converged


def _clusters_from_pairs(
    pairs: pa.Table, max_iters: int, op_name: str
) -> pa.Table:
    """Shared CC tail for every pair-producing dedup signal: (a, b) pair
    table -> (doc_id, cluster_id = component-min doc_id, cluster_size),
    sorted by doc_id. See _cc_labels for the iteration;
    ``op_name`` labels the non-convergence warning."""
    if pairs.num_rows == 0:
        return int64_schema("doc_id", "cluster_id", "cluster_size").empty_table()

    a, b = pairs["a"].combine_chunks(), pairs["b"].combine_chunks()
    edges_t = pa.table({"u": pa.concat_arrays([a, b]), "v": pa.concat_arrays([b, a])})
    t, _rounds, converged = _cc_labels(edges_t, max_iters)
    if not converged:
        import logging

        logging.getLogger(__name__).warning(
            "%s: label propagation hit max_iters=%d before "
            "convergence — labels may span partial components",
            op_name, max_iters,
        )
    # one row per candidate doc (bounded, like pairs)
    sizes = agg(t, "label", cluster_size=("node", "count"))
    out = t.join(sizes, "label").select(["node", "label", "cluster_size"])
    return out.rename_columns(["doc_id", "cluster_id", "cluster_size"]).sort_by("doc_id")


def dedup_clusters(
    sf_dir: str,
    threshold: float = JACCARD_THRESHOLD,
    max_iters: int = CLUSTER_MAX_ITERS,
    df_cap: int = JACCARD_SHINGLE_DF_CAP,
) -> pa.Table:
    """Connected components over the verified Jaccard pairs -> per-doc
    cluster assignment (cluster_id = min doc_id in the component) and
    cluster size. The canonical 'pick one representative per near-dup
    group' step a training pipeline runs after pair generation.

    Scale shape: see _cc_labels — min-label propagation + pointer
    jumping, O(log diameter) rounds, over one label per CANDIDATE doc (not
    per corpus doc). Capped at ``max_iters`` with a logged warning, never a
    silent stop. The DuckDB twin computes the same closure with a recursive CTE."""
    return _clusters_from_pairs(
        jaccard_pairs(sf_dir, threshold, df_cap), max_iters, "dedup_clusters"
    )


def winnow_dup_clusters(
    sf_dir: str,
    df_cap: int = WINNOW_DUP_FP_DF_CAP,
    min_shared: int = WINNOW_DUP_MIN_SHARED,
    max_iters: int = CLUSTER_MAX_ITERS,
) -> pa.Table:
    """Connected components over the MOSS-style winnow-fingerprint pairs
    (winnow_dup_pairs) — the grouping step of fingerprint-based near-dup
    removal on a source-code corpus. Same output contract as
    dedup_clusters: (doc_id, cluster_id = component-min doc_id,
    cluster_size) per candidate doc, sorted by doc_id.

    Scale shape: pair generation is the bounded winnow_dup_pairs sweep;
    the closure is the shared _clusters_from_pairs tail (distributed
    min-label propagation + pointer jumping, O(log diameter) rounds).
    Frozen with sqlgen.winnow_dup_clusters_sql (recursive-CTE closure over
    the identical pair query)."""
    return _clusters_from_pairs(
        winnow_dup_pairs(sf_dir, df_cap, min_shared),
        max_iters,
        "winnow_dup_clusters",
    )


# ---------------------------------------------------------------------------
# Exact-substring duplication coverage (per-doc duplicated-gram fraction)
# ---------------------------------------------------------------------------

SUBSTR_DUP_K = 6       # word 6-grams over the raw subtoken stream (frozen with SQL)
SUBSTR_DUP_MIN_DF = 2  # a gram is "duplicated" when >= 2 distinct docs carry it


def _read_doc_ids(sf_dir: str) -> "ray.data.Dataset":
    # doc_id-only scan is cheap columnar work — coarse blocks (the 64-row
    # text-stage floor manufactured ~80 near-empty tasks at 5k docs)
    return read_table(sf_dir, "documents", ["doc_id"], rows_per_block=4096)


def _doc_buckets(sf_dir: str) -> int:
    """Exchange bucket count for doc-count-scaled joins (footer row count
    only LOWERS the CPU-scaled default — joins.cpu_scaled_buckets)."""
    from smse_backend_ray.functions.joins import cpu_scaled_buckets

    return cpu_scaled_buckets(
        rows=_parquet_rows(os.path.join(sf_dir, "documents.parquet"))
    )


def substring_dup_stats(
    sf_dir: str, k: int = SUBSTR_DUP_K, min_df: int = SUBSTR_DUP_MIN_DF
) -> pa.Table:
    """Exact-substring duplication coverage (the gram-level analog of the
    suffix-array dedup in Lee et al. 2021, "Deduplicating Training Data
    Makes Language Models Better"): for every doc, the fraction of its
    distinct word k-grams that at least ``min_df`` distinct docs share.
    Output: (doc_id, n_grams, n_dup, dup_frac rounded 4) for EVERY doc —
    gram-less docs (fewer than k subtokens) emit (0, 0, 0.0). A training
    pipeline thresholds dup_frac to drop boilerplate-heavy documents.

    Scale shape — one tokenization pass, two exchanges, no driver state:
      1. gram rows exchange into fat buckets by gram string (a gram lives
         in exactly ONE bucket, so within-bucket df IS global df); each bucket
         computes df, flags duplicated grams with one C++ is_in, and
         pre-aggregates per-doc (n_grams, n_dup) partials;
      2. a grouped sum by doc_id merges the per-bucket partials;
      3. a bucketed LEFT-OUTER join (joins.attach_left) attaches the
         totals to the pruned doc_id read so gram-less docs survive with
         zeros — never a driver-side dict of per-doc counts."""
    nb = _doc_buckets(sf_dir)
    part_schema = int64_schema("doc_id", "n_grams", "n_dup")

    def per_bucket(g: pa.Table) -> pa.Table:
        df = agg(g, "shingle", df=("doc_id", "count"))
        dup = df.filter(pc.greater_equal(df["df"], min_df))["shingle"].combine_chunks()
        flag = pc.cast(pc.is_in(g["shingle"], value_set=dup), pa.int64())
        return agg(pa.table({"doc_id": g["doc_id"], "dup": flag}), "doc_id",
                   n_grams=("dup", "count"), n_dup=("dup", "sum"))

    grams = arrow_map(_read_documents(sf_dir), lambda t: _gram_rows(t, k))
    per_doc = grouped_aggregate(
        exchange(grams, "shingle", per_bucket, part_schema, nb=nb), ["doc_id"], part_schema,
        nb=nb, n_grams=("n_grams", "sum"), n_dup=("n_dup", "sum"),
    )
    joined = attach_left(
        _read_doc_ids(sf_dir), per_doc, "doc_id", "doc_id",
        int64_schema("doc_id"), int64_schema("n_grams", "n_dup"), nb=nb,
    )
    out_schema = part_schema.append(pa.field("dup_frac", pa.float64()))

    def finish(t: pa.Table) -> pa.Table:
        ng = pc.fill_null(t["n_grams"], 0).to_numpy(zero_copy_only=False)
        nd = pc.fill_null(t["n_dup"], 0).to_numpy(zero_copy_only=False)
        frac = np.zeros(len(ng), dtype=np.float64)
        nz = ng > 0
        frac[nz] = round_half_away(nd[nz].astype(np.float64) / ng[nz], 4)
        return pa.table([t["doc_id"], ng, nd, frac], schema=out_schema)

    return collect_table(arrow_map(joined, finish), empty_schema=out_schema).sort_by("doc_id")


# ---------------------------------------------------------------------------
# Near-dup survivors: the keep-list a training run actually materializes
# ---------------------------------------------------------------------------


def dedup_survivors(
    sf_dir: str, threshold: float = JACCARD_THRESHOLD
) -> pa.Table:
    """The corpus keep-list after near-dup clustering: every doc except the
    non-representative members of each verified-Jaccard cluster (the
    representative is the cluster min doc_id — dedup_clusters' cluster_id).
    This is the table a training pipeline joins against to emit the
    deduplicated corpus.

    Scale shape: the loser set is candidate-bounded (rows of
    dedup_clusters, never the corpus), shipped once into a distributed
    bucketed anti-join against the pruned doc_id read — the corpus side
    streams, nothing corpus-sized lands on the driver."""
    clusters = dedup_clusters(sf_dir, threshold)
    losers = clusters.filter(
        pc.not_equal(clusters["doc_id"], clusters["cluster_id"])
    ).select(["doc_id"])
    schema = int64_schema("doc_id")
    surv = _read_doc_ids(sf_dir)
    if losers.num_rows:
        surv = anti_join(surv, ray.data.from_arrow(losers), ["doc_id"], schema,
                         nb=_doc_buckets(sf_dir))
    return collect_table(surv, empty_schema=schema).sort_by("doc_id")


def dup_rate_by_source(
    sf_dir: str,
    threshold: float = JACCARD_THRESHOLD,
    df_cap: int = JACCARD_SHINGLE_DF_CAP,
) -> pa.Table:
    """Cross-source duplication matrix: near-dup pair counts per
    UNORDERED source pair — the curation diagnostic showing which
    providers duplicate each other (mirror sites, re-crawls, forks)
    before choosing per-source sampling weights.

    Frozen pair with sqlgen.dup_rate_by_source_sql: pairs are EXACTLY
    jaccard_pairs (same threshold/df_cap — the twin wraps
    jaccard_pairs_sql as a CTE, so the pair set can't fork); source_a =
    min, source_b = max in string order; exact counts, ordered by both
    keys.

    Scale shape: the verified pair table is candidate-bounded (and
    memoized) and sources attach with the same distributed unique-key
    joins as _score_jaccard — no driver dict of O(corpus) sources; the
    matrix itself is |sources|^2-bounded."""
    pairs = jaccard_pairs(sf_dir, threshold, df_cap)
    out_schema = pa.schema([("source_a", pa.string()), ("source_b", pa.string()),
                            ("n_pairs", pa.int64())])
    if pairs.num_rows == 0:
        return out_schema.empty_table()
    src_ds = read_table(sf_dir, "documents", ["doc_id", "source"], repartition=False)
    nb = _small_nb(pairs.num_rows)
    ja = attach_unique(
        ray.data.from_arrow(pairs.select(["a", "b"])), src_ds.rename_columns({"source": "sa"}),
        "a", "doc_id", _PAIR, pa.schema([("sa", pa.string())]), nb=nb,
    )
    jb = attach_unique(
        ja, src_ds.rename_columns({"source": "sb"}), "b", "doc_id",
        _PAIR.append(pa.field("sa", pa.string())), pa.schema([("sb", pa.string())]), nb=nb,
    )
    t = collect_table(jb, empty_schema=int64_schema("a", "b", sa=pa.string(), sb=pa.string()))
    lo = pc.min_element_wise(t["sa"], t["sb"])
    hi = pc.max_element_wise(t["sa"], t["sb"])
    out = agg(pa.table({"source_a": lo, "source_b": hi}), ["source_a", "source_b"],
              n_pairs=("source_a", "count"))
    return out.sort_by([("source_a", "ascending"), ("source_b", "ascending")])


def dedup_impact(
    sf_dir: str,
    threshold: float = JACCARD_THRESHOLD,
    df_cap: int = JACCARD_SHINGLE_DF_CAP,
) -> pa.Table:
    """One-row dedup impact report: corpus size before/after the near-dup
    keep-list, in docs AND raw subtokens — the "how much data did dedup
    cost us" number a pipeline owner reads before signing off on a
    training corpus.

    Frozen pair with sqlgen.dedup_impact_sql: the keep-list is EXACTLY
    dedup_survivors' rule (losers = non-representative members of
    dedup_clusters; the twin composes dedup_clusters_sql so the cluster
    set can't fork); n_subtokens = RAW non-empty subtoken count (the
    token_stats n_subtokens stream); keep rates = round4 of exact-int
    double divisions, 0.0 on an empty denominator.

    Scale shape: losers are candidate-bounded (rows of dedup_clusters —
    the same bound dedup_survivors ships into its anti-join), broadcast
    once via ray.put; the corpus streams ONE pass of per-batch
    (docs, survivors, subtokens, surviving subtokens) int partials that
    fold to a single driver row."""
    from smse_backend_ray.functions.analyzer import _flat_subtokens

    clusters = dedup_clusters(sf_dir, threshold, df_cap=df_cap)
    losers = clusters.filter(
        pc.not_equal(clusters["doc_id"], clusters["cluster_id"])
    )["doc_id"].combine_chunks()
    losers_ref = ray.put(losers)

    def partial(t: pa.Table) -> pa.Table:
        flat, doc_idx, n = _flat_subtokens(t["text"])
        ne = pc.greater(pc.binary_length(flat), 0).to_numpy(zero_copy_only=False)
        n_raw = np.bincount(doc_idx[ne], minlength=n).astype(np.int64)
        keep = pc.invert(
            pc.is_in(pc.cast(t["doc_id"], pa.int64()), value_set=ray.get(losers_ref))
        ).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n_docs": pa.array([n], type=pa.int64()),
                "n_survivors": pa.array([int(keep.sum())], type=pa.int64()),
                "n_subtokens": pa.array([int(n_raw.sum())], type=pa.int64()),
                "n_subtokens_surviving": pa.array(
                    [int(n_raw[keep].sum())], type=pa.int64()
                ),
            }
        )

    pschema = int64_schema("n_docs", "n_survivors", "n_subtokens", "n_subtokens_surviving")
    t = collect_table(arrow_map(_read_documents(sf_dir), partial), empty_schema=pschema)
    nd = int(pc.sum(t["n_docs"]).as_py() or 0)
    ns = int(pc.sum(t["n_survivors"]).as_py() or 0)
    nt = int(pc.sum(t["n_subtokens"]).as_py() or 0)
    nts = int(pc.sum(t["n_subtokens_surviving"]).as_py() or 0)
    dkr = float(round_half_away(np.array([ns / nd]), 4)[0]) if nd else 0.0
    tkr = float(round_half_away(np.array([nts / nt]), 4)[0]) if nt else 0.0
    return pa.table(
        {
            "n_docs": pa.array([nd], type=pa.int64()),
            "n_survivors": pa.array([ns], type=pa.int64()),
            "n_subtokens": pa.array([nt], type=pa.int64()),
            "n_subtokens_surviving": pa.array([nts], type=pa.int64()),
            "doc_keep_rate": pa.array([dkr], type=pa.float64()),
            "token_keep_rate": pa.array([tkr], type=pa.float64()),
        }
    )
