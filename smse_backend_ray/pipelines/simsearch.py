"""Similarity search over the ``embeddings`` table (list<float> column):
brute-force cosine top-k as the exact baseline, and an IVF (inverted-file)
variant with a real cluster-partitioned storage layout as the scale path.

Patterns (SURVEY.md ST4 analog):
  - brute force: the query matrix is broadcast once via ``ray.put`` and every
    batch does one blocked float64 matmul against it — never a per-row Python
    loop, never a shuffle.
  - IVF: ``build_ivf_index`` trains k-means centroids with deterministic
    seeding (init = pushdown-filtered first k vectors, fixed iterations;
    per-iteration one small partial-(sum,count) reduction, no shuffle) and
    writes the vectors to parquet HIVE-PARTITIONED BY ASSIGNED CLUSTER.
    ``knn_ivf`` then reads ONLY the probed cluster partitions (I/O + compute
    pruning proportional to nprobe/n_clusters); with nprobe = n_clusters it
    reads everything and is exactly the brute-force result (that
    configuration is the driver-gated oracle; recall at lower nprobe is
    covered by tests).

Float caveat (documented risk class, see BASELINE.md): cosine dot products
come from per-batch BLAS matmuls whose accumulation order is not frozen; the
4-decimal rounding absorbs ulp drift except exactly at a .00005 boundary.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from smse_backend_ray.functions.arrow_kernels import agg, arrow_map, top_k
from smse_backend_ray.functions.collect import collect_table
from smse_backend_ray.functions.rounding import round_half_away
from smse_backend_ray.sources.corpus import (
    _parallel_blocks,
    _parquet_rows,
    read_blocks,
    read_table,
)

N_QUERIES = 5   # frozen: query vectors are vec_id < 5
TOP_K = 10
IVF_CLUSTERS = 16
IVF_ITERS = 10
# k-means training-sample target: ~512 points per centroid at 16 clusters.
# Tables at or under the target train on every row (bitwise-identical to
# full-corpus training — all gate-scale tables qualify); larger corpora
# train on a deterministic hash-Bernoulli sample of about this many rows.
IVF_TRAIN_TARGET = 8192

_TOPK = pa.schema([("query_vec_id", pa.int64()), ("rank", pa.int32()),
                   ("vec_id", pa.int64()), ("cosine", pa.float64())])


def _emb_path(sf_dir: str) -> str:
    return os.path.join(sf_dir, "embeddings.parquet")


def _corpus_tag(sf_dir: str) -> str:
    """Cache-dir identity for a corpus: basename for readability PLUS a
    hash of the full normalized path — two corpora that happen to share a
    directory name must never alias to the same default cache entry."""
    import hashlib

    p = os.path.normpath(sf_dir)
    return f"{os.path.basename(p)}-{hashlib.md5(p.encode()).hexdigest()[:8]}"


def _persisted(out_dir, suffix: str, build):
    """The persist-and-resume protocol of every ANN layout: a dataset dir at
    ``out_dir`` plus an .npy sidecar NEXT TO it (a foreign file inside a
    hive-partitioned dir breaks dataset discovery). An existing pair is
    RESUMED — no retrain, no rewrite; delete the dir to force a rebuild.
    Otherwise ``build(parent, name)`` writes the dir (IndexFS atomic
    protocol, any pyarrow.fs location) and returns the array, committed
    via tmp+move — a crash mid-write never leaves a truncated sidecar
    that the resume shortcut would load forever after. Returns (layout
    IndexFS, array)."""
    import io
    import posixpath

    from smse_backend_ray.state.fs import IndexFS, resolve

    layout = resolve(out_dir)
    parent = IndexFS((layout.fs, posixpath.dirname(layout.root)))
    name = posixpath.basename(layout.root)
    sidecar = name + suffix
    if layout.exists() and parent.exists(sidecar):
        with parent.open_input(sidecar) as f:
            return layout, np.load(io.BytesIO(f.read()))
    arr = build(parent, name)
    buf = io.BytesIO()
    np.save(buf, arr)
    with parent.open_output(sidecar + ".tmp") as f:
        f.write(buf.getvalue())
    parent.move(sidecar + ".tmp", sidecar)
    return layout, arr


def _emb_matrix(col) -> np.ndarray:
    """list<float> column -> (n, d) float64 matrix without a Python loop
    (``flatten`` honours a sliced batch's offset; ``values`` would not)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = np.asarray(arr.flatten(), dtype=np.float64)
    offs = np.asarray(arr.offsets, dtype=np.int64)
    widths = np.diff(offs)
    d = int(widths[0]) if len(widths) else 0
    assert (widths == d).all(), "ragged embedding column"
    return flat.reshape(-1, d) if d else flat.reshape(len(widths), 0)


def _norms(M: np.ndarray) -> np.ndarray:
    return np.sqrt((M * M).sum(axis=1))


def _sqdist(V: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(n, k) squared euclidean distances of V's rows to the centroids C —
    the one nearest-centroid expression (k-means, IVF assignment and
    probes, PQ subspace codes)."""
    return ((V[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)


def _load_queries(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    import pyarrow.dataset as pads

    t = pads.dataset(_emb_path(sf_dir)).to_table(
        columns=["vec_id", "embedding"], filter=pads.field("vec_id") < N_QUERIES
    )
    return np.asarray(t["vec_id"]), _emb_matrix(t["embedding"])


def _topk(q: np.ndarray, v: np.ndarray, s: np.ndarray, k: int, mask=None) -> pa.Table:
    """Per-query top-k rows of (query, vec_id, rounded cosine), ranked
    (round(cos,4) DESC, vec_id ASC) — the SQL oracle's exact rule."""
    idx, rank = top_k(q, v, s, k, mask)
    return pa.table([q[idx], rank.astype(np.int32), v[idx], s[idx]], schema=_TOPK)


def _knn_scan(ds, qids: np.ndarray, score, k: int, probe=None) -> pa.Table:
    """Per-query top-k over a vector scan: ``score(t)`` is a batch's
    (queries x rows) ROUNDED cosine matrix. With ``probe`` (per-query
    cluster ids) a row counts only for the queries that probed its
    cluster_id. Each batch keeps its partial top-k; the driver merges."""

    def batch_topk(t: pa.Table) -> pa.Table:
        vids = t["vec_id"].to_numpy()
        mask = None
        if probe is not None:
            mask = (t["cluster_id"].to_numpy()[None, :, None] == probe[:, None, :]).any(axis=2)
            mask = mask.ravel()
        return _topk(np.repeat(qids, len(vids)), np.tile(vids, len(qids)), score(t).ravel(), k, mask)

    c = collect_table(arrow_map(ds, batch_topk), empty_schema=_TOPK)
    return _topk(*(c[n].to_numpy() for n in ("query_vec_id", "vec_id", "cosine")), k)


def _cosines(Q: np.ndarray):
    """Batch scorer for _knn_scan: exact rounded cosines of Q against the
    batch's raw vectors."""
    qn = _norms(Q)

    def score(t: pa.Table) -> np.ndarray:
        V = _emb_matrix(t["embedding"])
        return round_half_away((Q @ V.T) / np.outer(qn, _norms(V)), 4)

    return score


def knn_bruteforce(sf_dir: str, k: int = TOP_K) -> pa.Table:
    qids, Q = _load_queries(sf_dir)
    ds = read_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    return _knn_scan(ds, qids, _cosines(Q), k)


# ---------------------------------------------------------------------------
# IVF: train -> cluster-partitioned layout -> probe-pruned search
# ---------------------------------------------------------------------------

def _seed_vectors(sf_dir: str, k: int) -> np.ndarray:
    """(k, d) matrix of the k smallest-vec_id vectors — the deterministic
    k-means seed shared by the IVF and PQ trainers. Fast path: pushdown
    filter ``vec_id < k`` (exact for dense 0-based ids — every gate
    table); sparse id spaces fall back to one vec_id-column scan for the k
    smallest ids, then a pushdown isin read. Raises a descriptive error
    when fewer than k vectors exist (instead of an opaque broadcast
    failure downstream)."""
    import pyarrow.dataset as pads

    dset = pads.dataset(_emb_path(sf_dir))
    t = dset.to_table(
        columns=["vec_id", "embedding"], filter=pads.field("vec_id") < k
    )
    if t.num_rows < k:
        ids = np.asarray(dset.to_table(columns=["vec_id"])["vec_id"])
        if ids.size < k:
            raise ValueError(
                f"k-means seeding needs at least {k} vectors; "
                f"embeddings table has {ids.size}"
            )
        want = np.sort(np.partition(ids, k - 1)[:k]).tolist()
        t = dset.to_table(
            columns=["vec_id", "embedding"], filter=pads.field("vec_id").isin(want)
        )
    return _emb_matrix(t.sort_by("vec_id")["embedding"])


def _train_rows(sf_dir: str, train_target: int | None):
    """The trainers' (vec_id, embedding) scan and whether it is sampled:
    every row at or under ``train_target`` (default IVF_TRAIN_TARGET),
    else a deterministic hash-Bernoulli sample of ~that many rows — the
    decision key is sampling.sample_key(vec_id), the repo's frozen
    engine<->SQL hash, so the sample is reproducible across runs and
    partitionings. The filter runs distributed."""
    from smse_backend_ray.pipelines.sampling import SAMPLE_MOD, sample_key

    target = train_target if train_target is not None else IVF_TRAIN_TARGET
    rows = _parquet_rows(_emb_path(sf_dir))
    ds = read_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    if rows is None or rows <= target:
        return ds, False
    thr = np.uint64((SAMPLE_MOD * target) // rows)
    return arrow_map(ds, lambda t: t.filter(pa.array(sample_key(t["vec_id"].to_numpy()) < thr))), True


def train_centroids(
    sf_dir: str,
    n_clusters: int = IVF_CLUSTERS,
    iters: int = IVF_ITERS,
    train_target: int | None = None,
) -> np.ndarray:
    """Deterministic distributed k-means: init = the first n_clusters vectors
    by vec_id (PUSHDOWN-filtered read — only those rows leave storage); each
    iteration broadcasts centroids and reduces per-batch partial (sum, count)
    — one small aggregation per iteration, no shuffle.

    Training set: ``_train_rows`` (the hash-Bernoulli sample above
    ``train_target``), so the centroids and the partition layout are
    reproducible. The training set is materialized ONCE: one full-table
    pass total, then each k-means iteration re-reads only the cached
    sample blocks — not ``iters`` complete streaming reads of a 100 TB
    table. Exactness is unaffected: full-probe IVF equals brute force for
    ANY centroids (tests pin this)."""
    cents = _seed_vectors(sf_dir, n_clusters).copy()
    ds = _train_rows(sf_dir, train_target)[0].select_columns(["embedding"]).materialize()

    for _ in range(iters):
        ref = ray.put(cents)

        def partial(tb: pa.Table) -> pa.Table:
            C = ray.get(ref)
            V = _emb_matrix(tb["embedding"])
            assign = _sqdist(V, C).argmin(axis=1)
            sums = np.zeros_like(C)
            np.add.at(sums, assign, V)
            counts = np.bincount(assign, minlength=len(C)).astype(np.int64)
            return pa.table(
                {
                    "cluster": pa.array(range(len(C)), type=pa.int32()),
                    "sum": pa.array(list(sums), type=pa.list_(pa.float64())),
                    "count": pa.array(counts, type=pa.int64()),
                }
            )

        parts = collect_table(arrow_map(ds, partial))
        sums = np.zeros_like(cents)
        counts = np.zeros(len(cents), dtype=np.int64)
        cl = np.asarray(parts["cluster"])
        np.add.at(sums, cl, _emb_matrix(parts["sum"]))
        np.add.at(counts, cl, np.asarray(parts["count"]))
        nz = counts > 0
        cents[nz] = sums[nz] / counts[nz, None]
    return cents


_IVF_CACHE: dict[tuple, tuple["IndexFS", np.ndarray]] = {}


def build_ivf_index(
    sf_dir: str,
    out_dir=None,
    n_clusters: int = IVF_CLUSTERS,
    train_target: int | None = None,
) -> tuple["IndexFS", np.ndarray]:
    """Train centroids and write the vectors HIVE-PARTITIONED BY ASSIGNED
    CLUSTER — the storage layout that makes IVF actually prune: a query
    probing p of c clusters reads p/c of the data. Returns (layout IndexFS,
    centroids); persisted and resumed by ``_persisted`` (centroids
    sidecar). The latest (sf_dir, out_dir, n_clusters) build is cached per
    process."""
    if out_dir is None:
        out_dir = f"/tmp/smse_ivf_{os.getpid()}_{_corpus_tag(sf_dir)}_{n_clusters}"
    key = (os.path.normpath(sf_dir), n_clusters, str(out_dir), train_target)
    hit = _IVF_CACHE.get(key)
    if hit and hit[0].exists():
        return hit

    def build(parent, name):
        cents = train_centroids(sf_dir, n_clusters, train_target=train_target)
        cents_ref = ray.put(cents)

        def assign_batch(t: pa.Table) -> pa.Table:
            assign = _sqdist(_emb_matrix(t["embedding"]), ray.get(cents_ref)).argmin(axis=1)
            # "cluster" becomes the hive partition dir; "cluster_id" stays a
            # physical column (Ray's per-fragment filter cannot see partition
            # fields, and per-row masking at query time needs the value)
            t = t.append_column("cluster", pa.array(assign.astype(np.int32)))
            return t.append_column("cluster_id", pa.array(assign.astype(np.int32)))

        assigned = arrow_map(
            read_table(sf_dir, "embeddings", ["vec_id", "embedding"]), assign_batch
        ).repartition(max(4, _parallel_blocks() // 8))  # bound files per cluster
        parent.atomic_write_dataset(assigned, name, partition_cols=["cluster"])
        return cents

    out = _persisted(out_dir, ".centroids.npy", build)
    _IVF_CACHE.clear()  # one entry: the latest layout
    _IVF_CACHE[key] = out
    return out


def _probes(Q: np.ndarray, cents: np.ndarray, nprobe: int):
    """Per-query ``nprobe`` nearest clusters and their sorted union."""
    probe = np.argsort(_sqdist(Q, cents), axis=1, kind="stable")[:, :nprobe]
    return probe, sorted({int(c) for c in probe.ravel()})


def _cluster_files(layout, clusters) -> list[str]:
    """Partition pruning by PATH: only the probed cluster directories are
    listed/read (Ray's per-fragment filter cannot bind partition fields,
    so pruning happens at path selection, the stronger form anyway)."""
    return sorted(f for c in clusters for f in layout.list_files(f"cluster={c}", suffix=".parquet"))


def knn_ivf(
    sf_dir: str,
    k: int = TOP_K,
    nprobe: int = IVF_CLUSTERS,
    *,
    train_target: int | None = None,
    out_dir=None,
) -> pa.Table:
    """IVF search over the cluster-partitioned layout: per query probe the
    ``nprobe`` nearest clusters; ONLY the union of probed partitions is read
    (partition-filter pushdown), and scores for a batch are masked to the
    queries that probed that batch's clusters. nprobe == n_clusters
    reproduces brute force exactly."""
    layout, cents = build_ivf_index(sf_dir, out_dir=out_dir, train_target=train_target)
    qids, Q = _load_queries(sf_dir)
    probe, probed = _probes(Q, cents, nprobe)
    ds = layout.ray_read_parquet_files(
        _cluster_files(layout, probed), columns=["vec_id", "embedding", "cluster_id"]
    )
    return _knn_scan(ds, qids, _cosines(Q), k, probe)


# ---------------------------------------------------------------------------
# Product quantization (PQ): memory-resident codes + asymmetric distance
# ---------------------------------------------------------------------------
# The complementary scale path to IVF: IVF prunes WHICH vectors are read,
# PQ shrinks HOW MUCH each vector costs — d float32 (256 B at d=64) down to
# PQ_M bytes + one norm, so multi-billion-vector tables fit node RAM. Codes
# score against a per-query lookup table (one np.take + row-sum per batch,
# no matmul). Approximate by construction -> gate entry is SELF-VALIDATING
# (recall vs exact brute force asserted in-entry, like the IVF dedup entry).

PQ_M = 16          # subspaces (d must be divisible by PQ_M)
PQ_K = 64          # centroids per subspace (codes fit uint8)
PQ_ITERS = 10
PQ_RERANK = 5      # ADC shortlist size = PQ_RERANK * k, exact-rescored
PQ_RECALL_FLOOR = 0.9  # mean top-k overlap vs brute force, pinned in-entry


def train_pq_codebooks(
    sf_dir: str, m: int = PQ_M, k: int = PQ_K, iters: int = PQ_ITERS,
    train_target: int | None = None,
) -> np.ndarray:
    """(m, k, d/m) float64 codebooks: per-subspace Lloyd k-means trained
    DRIVER-SIDE on the same bounded deterministic hash sample the IVF
    trainer uses (``_train_rows``; the sample never exceeds train_target
    rows, so driver compute is bounded regardless of corpus size). Init =
    sub-slices of the first k vectors by vec_id. Empty clusters keep
    their previous centroid (deterministic)."""
    import pyarrow.dataset as pads

    ds, sampled = _train_rows(sf_dir, train_target)
    if sampled:
        # only the ~target sampled rows ever reach the driver
        V = _emb_matrix(collect_table(ds)["embedding"])
    else:
        V = _emb_matrix(
            pads.dataset(_emb_path(sf_dir)).to_table(columns=["embedding"])["embedding"]
        )
    d = V.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    sub = d // m
    I = _seed_vectors(sf_dir, k)
    books = np.empty((m, k, sub), dtype=np.float64)
    for j in range(m):
        X = V[:, j * sub : (j + 1) * sub]
        C = I[:, j * sub : (j + 1) * sub].copy()
        for _ in range(iters):
            assign = _sqdist(X, C).argmin(axis=1)
            sums = np.zeros_like(C)
            np.add.at(sums, assign, X)
            counts = np.bincount(assign, minlength=k).astype(np.int64)
            nz = counts > 0
            C[nz] = sums[nz] / counts[nz, None]
        books[j] = C
    return books


def _pq_encoder(books: np.ndarray):
    """THE PQ encoder: batch -> (vec_id, codes fixed-list<uint8>[m], norm
    float64[, cluster, cluster_id]) — one vectorized argmin per subspace;
    the EXACT vector norm is kept so only the dot product is approximated
    (better ranking than reconstructed norms, one float of overhead). A
    batch carrying cluster_id keeps it, plus the "cluster" partition
    column of the IVF-PQ layout."""
    ref = ray.put(books)

    def encode(t: pa.Table) -> pa.Table:
        B = ray.get(ref)
        m, _, sub = B.shape
        V = _emb_matrix(t["embedding"])
        codes = np.stack(
            [_sqdist(V[:, j * sub : (j + 1) * sub], B[j]).argmin(axis=1) for j in range(m)], axis=1
        ).astype(np.uint8)
        out = {
            "vec_id": t["vec_id"],
            "codes": pa.FixedSizeListArray.from_arrays(pa.array(codes.reshape(-1)), m),
            "norm": pa.array(_norms(V), type=pa.float64()),
        }
        if "cluster_id" in t.column_names:
            out["cluster"] = out["cluster_id"] = t["cluster_id"]
        return pa.table(out)

    return encode


def pq_encode(sf_dir: str, books: np.ndarray) -> "ray.data.Dataset":
    """Dataset of the corpus' PQ codes (``_pq_encoder``)."""
    return arrow_map(read_table(sf_dir, "embeddings", ["vec_id", "embedding"]), _pq_encoder(books))


def _exact_rerank(
    sf_dir: str, short: pa.Table, qids: np.ndarray, Q: np.ndarray, k: int,
) -> pa.Table:
    """Exact rescore of an ADC shortlist: only the shortlisted vec_ids are
    point-read (pushdown) and exactly rescored; final (rounded DESC,
    vec_id ASC) top-k. Shared by knn_pq and knn_ivfpq."""
    import pyarrow.dataset as pads

    cand_ids = sorted(set(short["vec_id"].to_pylist()))
    if not cand_ids:
        return _TOPK.empty_table()
    raw = pads.dataset(_emb_path(sf_dir)).to_table(
        columns=["vec_id", "embedding"], filter=pads.field("vec_id").isin(cand_ids),
    ).sort_by("vec_id")
    rid = np.asarray(raw["vec_id"])
    RV = _emb_matrix(raw["embedding"])
    s_q, s_v = short["query_vec_id"].to_numpy(), short["vec_id"].to_numpy()
    pos = np.searchsorted(rid, s_v)
    qorder = np.argsort(qids)
    qi = qorder[np.searchsorted(qids, s_q, sorter=qorder)]
    exact = (Q[qi] * RV[pos]).sum(axis=1) / (_norms(Q)[qi] * _norms(RV)[pos])
    return _topk(s_q, s_v, round_half_away(exact, 4), k)


def _adc(Q: np.ndarray, books: np.ndarray):
    """Batch scorer for _knn_scan over PQ codes: per query LUT[j, c] =
    dot(q_j, book_j[c]); a batch's approximate dots are LUT gathers summed
    across subspaces — no matmul against raw vectors. cosine_hat =
    dot_hat / (||q|| * exact ||v||), rounded 4."""
    m, _, sub = books.shape
    luts = np.einsum("qms,mks->qmk", Q.reshape(len(Q), m, sub), books)
    qn = _norms(Q)

    def score(t: pa.Table) -> np.ndarray:
        codes = np.asarray(t["codes"].combine_chunks().values).reshape(-1, m)
        dots = luts[:, np.arange(m)[None, :], codes].sum(axis=2)
        return round_half_away(dots / (qn[:, None] * t["norm"].to_numpy()[None, :]), 4)

    return score


def build_pq_codes(
    sf_dir: str, out_dir=None, m: int = PQ_M, nk: int = PQ_K,
    train_target: int | None = None,
):
    """The FLAT PQ index artifact: the (vec_id, codes, norm) table written
    ONCE with a codebooks .npy sidecar (``_persisted``, the same
    persist-and-resume shape as build_ivf_index / build_ivfpq_codes).
    ``knn_pq`` scans these stored codes (17 B/vector) instead of re-encoding
    the raw corpus per call; re-encoding only happens when the layout is
    absent. The cache directory name carries every codebook parameter
    (m, nk, train_target) PLUS the corpus identity (_corpus_tag: basename +
    full-path hash) so same-process calls with different params — or with
    different same-named corpora — never read stale codes. Returns
    (codes IndexFS, codebooks)."""
    if out_dir is None:
        tt = "d" if train_target is None else str(train_target)
        out_dir = f"/tmp/smse_pq_{os.getpid()}_{_corpus_tag(sf_dir)}_{m}_{nk}_{tt}"

    def build(parent, name):
        books = train_pq_codebooks(sf_dir, m=m, k=nk, train_target=train_target)
        parent.atomic_write_dataset(pq_encode(sf_dir, books), name)
        return books

    return _persisted(out_dir, ".codebooks.npy", build)


def knn_pq(
    sf_dir: str, k: int = TOP_K, *, m: int = PQ_M, nk: int = PQ_K,
    train_target: int | None = None,
) -> pa.Table:
    """ADC search over STORED PQ codes (``_adc``): the per-vector cost is
    m byte lookups against the persisted 17-B/vector code table
    (build_pq_codes; the corpus is encoded once, not per query batch),
    ranked (round(cosine_hat,4) DESC, vec_id ASC). The code scan keeps a
    PQ_RERANK*k shortlist (per-batch candidates keep that FULL width —
    capping at k would make the rerank a no-op); only those few raw
    vectors are point-read and exactly rescored — recall limited only by
    whether the true top-k survive the shortlist."""
    codes_fs, books = build_pq_codes(sf_dir, m=m, nk=nk, train_target=train_target)
    qids, Q = _load_queries(sf_dir)
    files = sorted(codes_fs.list_files("", recursive=True, suffix=".parquet"))
    ds = codes_fs.ray_read_parquet_files(files, columns=["vec_id", "codes", "norm"])
    short = _knn_scan(ds, qids, _adc(Q, books), PQ_RERANK * k)
    return _exact_rerank(sf_dir, short, qids, Q, k)


def _check_recall(approx: pa.Table, sf_dir: str, k: int, floor: float, what: str) -> pa.Table:
    """Gate-entry guard: mean per-query top-k overlap of ``approx`` with
    the exact brute-force top-k must reach ``floor`` — the driver sees an
    error, never silently-wrong rows (same pattern as dedup_embedding_ivf)."""
    def sets(t: pa.Table) -> dict:
        out: dict[int, set] = {}
        for q, v in zip(t["query_vec_id"].to_pylist(), t["vec_id"].to_pylist()):
            out.setdefault(q, set()).add(v)
        return out

    a, e = sets(approx), sets(knn_bruteforce(sf_dir, k))
    recalls = [len(a.get(q, set()) & e[q]) / len(e[q]) for q in e]
    recall = float(np.mean(recalls)) if recalls else 0.0
    if recall < floor:
        raise AssertionError(f"{what} recall {recall:.3f} below pinned floor {floor}")
    return approx


def knn_pq_checked(sf_dir: str, k: int = TOP_K) -> pa.Table:
    """Gate entry: knn_pq with an IN-ENTRY recall assertion against the
    exact brute-force top-k (mean overlap >= PQ_RECALL_FLOOR)."""
    return _check_recall(knn_pq(sf_dir, k), sf_dir, k, PQ_RECALL_FLOOR, "PQ")


# ---------------------------------------------------------------------------
# IVF-PQ: probe-pruned I/O x byte codes x exact rerank (the composed index)
# ---------------------------------------------------------------------------

IVFPQ_NPROBE = 8
IVFPQ_RECALL_FLOOR = 0.8  # nprobe=8 of 16 clusters; pinned in-entry


def build_ivfpq_codes(
    sf_dir: str, out_dir=None, n_clusters: int = IVF_CLUSTERS,
    m: int = PQ_M, nk: int = PQ_K, train_target: int | None = None,
):
    """The composed layout: PQ codes HIVE-PARTITIONED BY IVF CLUSTER.
    Reads the existing cluster-partitioned raw layout (build_ivf_index),
    encodes each batch to codes + exact norm keeping cluster_id, writes a
    sibling codes layout. A probe of p/c clusters then reads p/c of a
    17-B-per-vector table instead of p/c of the raw vectors. Returns
    (codes IndexFS, centroids, codebooks)."""
    layout, cents = build_ivf_index(
        sf_dir, n_clusters=n_clusters, train_target=train_target
    )
    if out_dir is None:
        # the directory name carries EVERY parameter that shapes the codes
        # (cluster count, subspaces, centroids/subspace, training sample)
        # plus the corpus identity (_corpus_tag), so the resume shortcut
        # can never pair stale codes with mismatched codebooks or another
        # same-named corpus
        tt = "d" if train_target is None else str(train_target)
        out_dir = (
            f"/tmp/smse_ivfpq_{os.getpid()}_"
            f"{_corpus_tag(sf_dir)}_{n_clusters}_{m}_{nk}_{tt}"
        )

    def build(parent, name):
        books = train_pq_codebooks(sf_dir, m=m, k=nk, train_target=train_target)
        files = sorted(layout.list_files("", recursive=True, suffix=".parquet"))
        ds = layout.ray_read_parquet_files(files, columns=["vec_id", "embedding", "cluster_id"])
        parent.atomic_write_dataset(arrow_map(ds, _pq_encoder(books)), name,
                                    partition_cols=["cluster"])
        return books

    codes_fs, books = _persisted(out_dir, ".codebooks.npy", build)
    return codes_fs, cents, books


def knn_ivfpq(
    sf_dir: str, k: int = TOP_K, nprobe: int = IVFPQ_NPROBE,
    *, train_target: int | None = None,
) -> pa.Table:
    """IVF-PQ search: probe the ``nprobe`` nearest clusters per query, read
    ONLY those clusters' code partitions (path-pruned), ADC-score the codes
    (LUT gathers, no matmul), keep a PQ_RERANK*k shortlist, then exact-
    rescore just the shortlist from the source table. The 100 TB shape:
    I/O ~ nprobe/c of a 17-B-per-vector table; exact math touches <=
    PQ_RERANK*k vectors per query."""
    codes_fs, cents, books = build_ivfpq_codes(sf_dir, train_target=train_target)
    qids, Q = _load_queries(sf_dir)
    probe, probed = _probes(Q, cents, nprobe)
    ds = codes_fs.ray_read_parquet_files(
        _cluster_files(codes_fs, probed), columns=["vec_id", "codes", "norm", "cluster_id"]
    )
    short = _knn_scan(ds, qids, _adc(Q, books), PQ_RERANK * k, probe)
    return _exact_rerank(sf_dir, short, qids, Q, k)


def knn_ivfpq_checked(sf_dir: str, k: int = TOP_K) -> pa.Table:
    """Gate entry: knn_ivfpq with an in-entry recall assertion vs exact
    brute force (floor IVFPQ_RECALL_FLOOR — probing misses whole clusters
    by design, so the floor sits below the full-scan PQ floor)."""
    return _check_recall(knn_ivfpq(sf_dir, k), sf_dir, k, IVFPQ_RECALL_FLOOR, "IVF-PQ")


def embedding_dim_stats(sf_dir: str) -> pa.Table:
    """Per-dimension statistics of the embedding column — the sanity /
    normalization profile a training pipeline computes before indexing
    (mean shift, scale, clipped dims).

    Frozen pair with ``embedding_dim_stats_sql``: values promote
    float32 -> float64 (exact) on both sides; sums run over 4-decimal
    SCALED int64 (floor(|v|*1e4+0.5) with sign <-> round(v*10000,0)::
    BIGINT — exact, order-free); min/max are exact float64 of the
    stored float32 payload; mean = round4(sum_scaled / 10000.0 / n).

    Scale shape: one map_batches pass emitting a d-row partial per block
    (d = embedding width, corpus-size-independent); above FOLD_FAN_IN
    source blocks a tree-fold re-applies the grouped sum/min/max combiner
    so the driver group_by sees O(fan_in * d) rows regardless of corpus
    block count. No key shuffle at any scale."""
    from smse_backend_ray.config import FOLD_FAN_IN
    from smse_backend_ray.functions.collect import fold_partials

    partial_schema = pa.schema(
        [
            ("dim", pa.int64()),
            ("n", pa.int64()),
            ("sum_scaled", pa.int64()),
            ("min_v", pa.float64()),
            ("max_v", pa.float64()),
        ]
    )

    def partial(t: pa.Table) -> pa.Table:
        V = _emb_matrix(t["embedding"])
        n, d = V.shape
        if not n or not d:
            return partial_schema.empty_table()
        iv = (np.sign(V) * np.floor(np.abs(V) * 10000.0 + 0.5)).astype(np.int64)
        return pa.table(
            [np.arange(d, dtype=np.int64), np.full(d, n, dtype=np.int64),
             iv.sum(axis=0, dtype=np.int64), V.min(axis=0), V.max(axis=0)],
            schema=partial_schema,
        )

    def fold(t: pa.Table) -> pa.Table:
        return agg(t, "dim", n=("n", "sum"), sum_scaled=("sum_scaled", "sum"),
                   min_v=("min_v", "min"), max_v=("max_v", "max"))

    nb = read_blocks(sf_dir, "embeddings", rows_per_block=4096)
    ds = arrow_map(read_table(sf_dir, "embeddings", ["embedding"], rows_per_block=4096), partial)
    if nb > FOLD_FAN_IN:
        ds = fold_partials(ds, fold, FOLD_FAN_IN)
    g = fold(collect_table(ds, empty_schema=partial_schema))
    n, ss = g["n"].to_numpy(), g["sum_scaled"].to_numpy()
    out = pa.table(
        {
            "dim": g["dim"],
            "n": g["n"],
            "sum_scaled": g["sum_scaled"],
            "mean_v": pa.array(round_half_away(ss / 10000.0 / n, 4), type=pa.float64()),
            "min_v": g["min_v"],
            "max_v": g["max_v"],
        }
    )
    return out.sort_by("dim")


def embedding_dim_stats_sql() -> str:
    return """
WITH flat AS (
  SELECT CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS dim,
         CAST(unnest(embedding) AS DOUBLE) AS v
  FROM embeddings
)
SELECT dim, CAST(count(*) AS BIGINT) AS n,
       CAST(SUM(CAST(round(v * 10000, 0) AS BIGINT)) AS BIGINT) AS sum_scaled,
       round(SUM(CAST(round(v * 10000, 0) AS BIGINT)) / 10000.0 / count(*), 4)
         AS mean_v,
       MIN(v) AS min_v, MAX(v) AS max_v
FROM flat GROUP BY dim ORDER BY dim
"""


def embedding_label_centroids(sf_dir: str) -> pa.Table:
    """Per-label embedding centroids — the class-prototype computation a
    labeling-QA / clustering-eval pipeline runs (one mean vector per
    label), exploded to (label, dim) rows so the gate comparator sees
    scalars.

    Frozen pair with ``embedding_label_centroids_sql``: the same
    scaled-int discipline as embedding_dim_stats (elements promote
    float32 -> float64 exactly, sums run over round(v*1e4)::int64 —
    order-free), mean = round4(sum_scaled / 10000.0 / n).

    Scale shape: each block folds to one (labels_in_block x d) partial
    (label domain is small by construction — it's a class id); above
    FOLD_FAN_IN source blocks the grouped-sum tree-fold bounds the driver
    merge. No key shuffle at any scale."""
    from smse_backend_ray.config import FOLD_FAN_IN
    from smse_backend_ray.functions.collect import fold_partials

    partial_schema = pa.schema(
        [("label", pa.int64()), ("dim", pa.int64()),
         ("n", pa.int64()), ("sum_scaled", pa.int64())]
    )

    def partial(t: pa.Table) -> pa.Table:
        V = _emb_matrix(t["embedding"])
        n, d = V.shape
        if not n or not d:
            return partial_schema.empty_table()
        labels = pc.cast(t["label"], pa.int64()).to_numpy()
        iv = (np.sign(V) * np.floor(np.abs(V) * 10000.0 + 0.5)).astype(np.int64)
        uniq, inv = np.unique(labels, return_inverse=True)
        # one (labels x d) matmul-free fold: scatter-add rows by label
        sums = np.zeros((uniq.size, d), dtype=np.int64)
        np.add.at(sums, inv, iv)
        counts = np.bincount(inv, minlength=uniq.size).astype(np.int64)
        return pa.table(
            [np.repeat(uniq, d), np.tile(np.arange(d, dtype=np.int64), uniq.size),
             np.repeat(counts, d), sums.reshape(-1)],
            schema=partial_schema,
        )

    def fold(t: pa.Table) -> pa.Table:
        return agg(t, ["label", "dim"], n=("n", "sum"), sum_scaled=("sum_scaled", "sum"))

    nb = read_blocks(sf_dir, "embeddings", rows_per_block=4096)
    ds = arrow_map(
        read_table(sf_dir, "embeddings", ["label", "embedding"], rows_per_block=4096), partial
    )
    if nb > FOLD_FAN_IN:
        ds = fold_partials(ds, fold)
    merged = fold(collect_table(ds, empty_schema=partial_schema))
    n = merged["n"].to_numpy()
    ss = merged["sum_scaled"].to_numpy()
    mean = round_half_away(
        np.divide(ss / 10000.0, n, out=np.zeros(len(n)), where=n > 0), 4
    )
    out = merged.append_column("mean_v", pa.array(mean, type=pa.float64()))
    return out.sort_by([("label", "ascending"), ("dim", "ascending")])


def embedding_label_centroids_sql() -> str:
    return """
WITH flat AS (
  SELECT CAST(label AS BIGINT) AS label,
         CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS dim,
         CAST(unnest(embedding) AS DOUBLE) AS v
  FROM embeddings
)
SELECT label, dim, CAST(count(*) AS BIGINT) AS n,
       CAST(SUM(CAST(round(v * 10000, 0) AS BIGINT)) AS BIGINT) AS sum_scaled,
       round(SUM(CAST(round(v * 10000, 0) AS BIGINT)) / 10000.0 / count(*), 4)
         AS mean_v
FROM flat GROUP BY label, dim ORDER BY label, dim
"""
