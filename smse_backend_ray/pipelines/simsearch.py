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

from smse_backend_ray.functions.collect import collect_table
from smse_backend_ray.functions.rounding import round_half_away
from smse_backend_ray.sources.corpus import _parallel_blocks, _parquet_rows

N_QUERIES = 5   # frozen: query vectors are vec_id < 5
TOP_K = 10
IVF_CLUSTERS = 16
IVF_ITERS = 10
# k-means training-sample target: ~512 points per centroid at 16 clusters.
# Tables at or under the target train on every row (bitwise-identical to
# full-corpus training — all gate-scale tables qualify); larger corpora
# train on a deterministic hash-Bernoulli sample of about this many rows.
IVF_TRAIN_TARGET = 8192


def _emb_path(sf_dir: str) -> str:
    return os.path.join(sf_dir, "embeddings.parquet")


def _corpus_tag(sf_dir: str) -> str:
    """Cache-dir identity for a corpus: basename for readability PLUS a
    hash of the full normalized path — two corpora that happen to share a
    directory name must never alias to the same default cache entry."""
    import hashlib

    p = os.path.normpath(sf_dir)
    return f"{os.path.basename(p)}-{hashlib.md5(p.encode()).hexdigest()[:8]}"


def _save_sidecar_atomic(parent, sidecar: str, arr: np.ndarray) -> None:
    """Write an .npy sidecar via the tmp+move commit protocol (state/fs.py):
    a crash mid-write can never leave a truncated sidecar that the
    exists()-resume shortcut would np.load forever after."""
    import io

    buf = io.BytesIO()
    np.save(buf, arr)
    tmp = sidecar + ".tmp"
    with parent.open_output(tmp) as f:
        f.write(buf.getvalue())
    parent.move(tmp, sidecar)


def _load_sidecar(parent, sidecar: str) -> np.ndarray:
    import io

    with parent.open_input(sidecar) as f:
        return np.load(io.BytesIO(f.read()))


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


def _load_queries(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    import pyarrow.dataset as pads

    t = pads.dataset(_emb_path(sf_dir)).to_table(
        columns=["vec_id", "embedding"], filter=pads.field("vec_id") < N_QUERIES
    )
    ids = np.asarray(t["vec_id"])
    Q = _emb_matrix(t["embedding"])
    return ids, Q


def _topk_merge(parts: list[pa.Table], k: int) -> pa.Table:
    """Global top-k per query from per-batch candidates; rank by
    (round(cos,4) DESC, vec_id ASC) — the SQL oracle's exact rule."""
    t = pa.concat_tables(parts)
    qids = np.asarray(t["query_vec_id"])
    vids = np.asarray(t["vec_id"])
    sims = np.asarray(t["cosine"])
    out = {"query_vec_id": [], "rank": [], "vec_id": [], "cosine": []}
    for q in np.unique(qids):
        m = qids == q
        v, s = vids[m], sims[m]
        order = np.lexsort((v, -s))[:k]
        n = len(order)
        out["query_vec_id"].extend([int(q)] * n)
        out["rank"].extend(range(1, n + 1))
        out["vec_id"].extend(v[order].tolist())
        out["cosine"].extend(s[order].tolist())
    return pa.table(
        {
            "query_vec_id": pa.array(out["query_vec_id"], type=pa.int64()),
            "rank": pa.array(out["rank"], type=pa.int32()),
            "vec_id": pa.array(out["vec_id"], type=pa.int64()),
            "cosine": pa.array(out["cosine"], type=pa.float64()),
        }
    )


def knn_bruteforce(sf_dir: str, k: int = TOP_K) -> pa.Table:
    qids, Q = _load_queries(sf_dir)
    qnorms = np.sqrt((Q * Q).sum(axis=1))
    ref = ray.put((qids, Q, qnorms))

    def batch_topk(t: pa.Table) -> pa.Table:
        q_ids, Qm, q_n = ray.get(ref)
        vids = np.asarray(t["vec_id"])
        V = _emb_matrix(t["embedding"])
        vn = np.sqrt((V * V).sum(axis=1))
        sims = round_half_away((Qm @ V.T) / np.outer(q_n, vn), 4)
        out = {"query_vec_id": [], "vec_id": [], "cosine": []}
        kk = min(k, len(vids))
        for qi in range(len(q_ids)):
            s = sims[qi]
            order = np.lexsort((vids, -s))[:kk]  # per-batch partial top-k
            out["query_vec_id"].extend([int(q_ids[qi])] * len(order))
            out["vec_id"].extend(vids[order].tolist())
            out["cosine"].extend(s[order].tolist())
        return pa.table(
            {
                "query_vec_id": pa.array(out["query_vec_id"], type=pa.int64()),
                "vec_id": pa.array(out["vec_id"], type=pa.int64()),
                "cosine": pa.array(out["cosine"], type=pa.float64()),
            }
        )

    ds = ray.data.read_parquet(
        _emb_path(sf_dir), columns=["vec_id", "embedding"]
    ).repartition(_parallel_blocks(_parquet_rows(_emb_path(sf_dir))))
    cands = collect_table(ds.map_batches(batch_topk, batch_format="pyarrow", zero_copy_batch=True))
    return _topk_merge([cands], k)


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
    t = t.take(pc.sort_indices(t["vec_id"]))
    return _emb_matrix(t["embedding"])


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

    Training set: when the table exceeds ``train_target`` (default
    IVF_TRAIN_TARGET), a deterministic hash-Bernoulli sample of ~that many
    rows — the decision key is sampling.sample_key(vec_id), the repo's frozen
    engine<->SQL hash, so the sample (hence the centroids and the partition
    layout) is reproducible across runs and partitionings. The training set
    is materialized ONCE: one full-table pass total, then each k-means
    iteration re-reads only the cached sample blocks — not ``iters`` complete
    streaming reads of a 100 TB table. Exactness is unaffected: full-probe
    IVF equals brute force for ANY centroids (tests pin this)."""
    import pyarrow.dataset as pads

    from smse_backend_ray.pipelines.sampling import SAMPLE_MOD, sample_key

    cents = _seed_vectors(sf_dir, n_clusters).copy()

    target = train_target if train_target is not None else IVF_TRAIN_TARGET
    rows = _parquet_rows(_emb_path(sf_dir))
    ds = ray.data.read_parquet(
        _emb_path(sf_dir), columns=["vec_id", "embedding"]
    ).repartition(_parallel_blocks(rows))
    if rows is not None and rows > target:
        thr = np.uint64((SAMPLE_MOD * target) // rows)

        def keep(t: pa.Table) -> pa.Table:
            key = sample_key(t["vec_id"].to_numpy())
            return t.filter(pa.array(key < thr))

        ds = ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    ds = ds.select_columns(["embedding"]).materialize()

    for _ in range(iters):
        ref = ray.put(cents)

        def partial(tb: pa.Table) -> pa.Table:
            C = ray.get(ref)
            V = _emb_matrix(tb["embedding"])
            d = ((V[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
            assign = d.argmin(axis=1)
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

        parts = collect_table(
            ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        )
        sums = np.zeros_like(cents)
        counts = np.zeros(len(cents), dtype=np.int64)
        cl = np.asarray(parts["cluster"])
        ss = _emb_matrix(parts["sum"])
        cc = np.asarray(parts["count"])
        np.add.at(sums, cl, ss)
        np.add.at(counts, cl, cc)
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
    centroids); all layout I/O goes through state/fs.IndexFS (works against
    any pyarrow.fs location). Cached per (sf_dir, out_dir, n_clusters) per
    process; a pre-existing layout at ``out_dir`` is RESUMED (centroids
    loaded from the sidecar, no retrain) — delete the layout dir to force a
    rebuild after changing the embeddings table."""
    import posixpath

    from smse_backend_ray.state.fs import IndexFS, resolve

    if out_dir is None:
        out_dir = f"/tmp/smse_ivf_{os.getpid()}_{_corpus_tag(sf_dir)}_{n_clusters}"
    key = (os.path.normpath(sf_dir), n_clusters, str(out_dir), train_target)
    hit = _IVF_CACHE.get(key)
    if hit and hit[0].exists():
        return hit
    layout0 = resolve(out_dir)
    parent0 = IndexFS((layout0.fs, posixpath.dirname(layout0.root)))
    name0 = posixpath.basename(layout0.root)
    sidecar = name0 + ".centroids.npy"
    if layout0.exists() and parent0.exists(sidecar):
        # cross-process resume: the layout already exists — load the
        # centroids sidecar instead of retraining + rewriting
        cents = _load_sidecar(parent0, sidecar)
        _IVF_CACHE[key] = (layout0, cents)
        return layout0, cents
    cents = train_centroids(sf_dir, n_clusters, train_target=train_target)
    cents_ref = ray.put(cents)

    def assign_batch(t: pa.Table) -> pa.Table:
        C = ray.get(cents_ref)
        V = _emb_matrix(t["embedding"])
        d = ((V[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1).astype(np.int32)
        # "cluster" becomes the hive partition dir; "cluster_id" stays a
        # physical column (Ray's per-fragment filter cannot see partition
        # fields, and per-row masking at query time needs the value)
        t = t.append_column("cluster", pa.array(assign, type=pa.int32()))
        return t.append_column("cluster_id", pa.array(assign, type=pa.int32()))

    # layout0/parent0/name0 from above; parent-rooted view drives the atomic
    # dir swap and keeps the centroids sidecar NEXT TO the layout dir (a
    # foreign file inside a hive-partitioned dir breaks dataset discovery)
    assigned = (
        ray.data.read_parquet(_emb_path(sf_dir), columns=["vec_id", "embedding"])
        .repartition(_parallel_blocks(_parquet_rows(_emb_path(sf_dir))))
        .map_batches(assign_batch, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(max(4, _parallel_blocks() // 8))  # bound files per cluster
    )
    parent0.atomic_write_dataset(assigned, name0, partition_cols=["cluster"])
    _save_sidecar_atomic(parent0, sidecar, cents)
    _IVF_CACHE[key] = (layout0, cents)
    return layout0, cents


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
    qnorms = np.sqrt((Q * Q).sum(axis=1))
    qd = ((Q[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    probe = np.argsort(qd, axis=1, kind="stable")[:, :nprobe]  # per-query clusters
    probed_union = sorted({int(c) for row in probe for c in row})
    ref = ray.put((qids, Q, qnorms, probe))

    def batch_topk(t: pa.Table) -> pa.Table:
        q_ids, Qm, q_n, prb = ray.get(ref)
        vids = np.asarray(t["vec_id"])
        clusters = np.asarray(t["cluster_id"])
        V = _emb_matrix(t["embedding"])
        vn = np.sqrt((V * V).sum(axis=1))
        sims = round_half_away((Qm @ V.T) / np.outer(q_n, vn), 4)
        out = {"query_vec_id": [], "vec_id": [], "cosine": []}
        for qi in range(len(q_ids)):
            m = np.isin(clusters, prb[qi])
            if not m.any():
                continue
            v, s = vids[m], sims[qi][m]
            order = np.lexsort((v, -s))[: min(k, len(v))]
            out["query_vec_id"].extend([int(q_ids[qi])] * len(order))
            out["vec_id"].extend(v[order].tolist())
            out["cosine"].extend(s[order].tolist())
        return pa.table(
            {
                "query_vec_id": pa.array(out["query_vec_id"], type=pa.int64()),
                "vec_id": pa.array(out["vec_id"], type=pa.int64()),
                "cosine": pa.array(out["cosine"], type=pa.float64()),
            }
        )

    # partition pruning by PATH: only the probed cluster directories are
    # listed/read (Ray's per-fragment filter cannot bind partition fields,
    # so pruning happens at path selection, the stronger form anyway)
    paths = sorted(
        f
        for c in probed_union
        for f in layout.list_files(f"cluster={c}", suffix=".parquet")
    )
    ds = layout.ray_read_parquet_files(
        paths, columns=["vec_id", "embedding", "cluster_id"]
    )
    cands = collect_table(ds.map_batches(batch_topk, batch_format="pyarrow", zero_copy_batch=True))
    return _topk_merge([cands], k)


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
    trainer uses (sampling.sample_key; the sample never exceeds
    train_target rows, so driver compute is bounded regardless of corpus
    size). Init = sub-slices of the first k vectors by vec_id. Empty
    clusters keep their previous centroid (deterministic)."""
    import pyarrow.dataset as pads

    from smse_backend_ray.pipelines.sampling import SAMPLE_MOD, sample_key

    target = train_target if train_target is not None else IVF_TRAIN_TARGET
    rows = _parquet_rows(_emb_path(sf_dir))
    if rows is not None and rows > target:
        # the sample FILTER runs distributed (map_batches, same shape as
        # train_centroids); only the ~target sampled rows ever reach the
        # driver — never the full table
        thr = np.uint64((SAMPLE_MOD * target) // rows)

        def keep(t: pa.Table) -> pa.Table:
            key = sample_key(t["vec_id"].to_numpy())
            return t.filter(pa.array(key < thr))

        sample = collect_table(
            ray.data.read_parquet(_emb_path(sf_dir), columns=["vec_id", "embedding"])
            .repartition(_parallel_blocks(rows))
            .map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
        )
        V = _emb_matrix(sample["embedding"])
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
            dist = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
            assign = dist.argmin(axis=1)
            sums = np.zeros_like(C)
            np.add.at(sums, assign, X)
            counts = np.bincount(assign, minlength=k).astype(np.int64)
            nz = counts > 0
            C[nz] = sums[nz] / counts[nz, None]
        books[j] = C
    return books


def _encode_codes(V: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, m) uint8 PQ codes: vectorized per-subspace argmin (shared by the
    flat and the cluster-partitioned encoders)."""
    m, _, sub = books.shape
    codes = np.empty((len(V), m), dtype=np.uint8)
    for j in range(m):
        X = V[:, j * sub : (j + 1) * sub]
        dist = ((X[:, None, :] - books[j][None, :, :]) ** 2).sum(axis=2)
        codes[:, j] = dist.argmin(axis=1).astype(np.uint8)
    return codes


def _exact_rerank(
    sf_dir: str, short: pa.Table, qids: np.ndarray, Q: np.ndarray,
    qnorms: np.ndarray, k: int,
) -> pa.Table:
    """Exact rescore of an ADC shortlist: only the shortlisted vec_ids are
    point-read (pushdown) and exactly rescored; final (rounded DESC,
    vec_id ASC) top-k. Shared by knn_pq and knn_ivfpq."""
    import pyarrow.dataset as pads

    cand_ids = sorted(set(short["vec_id"].to_pylist()))
    if not cand_ids:
        return _topk_merge([short], k)
    raw = pads.dataset(_emb_path(sf_dir)).to_table(
        columns=["vec_id", "embedding"],
        filter=pads.field("vec_id").isin(cand_ids),
    )
    rid = np.asarray(raw["vec_id"])
    RV = _emb_matrix(raw["embedding"])
    rn = np.sqrt((RV * RV).sum(axis=1))
    order = np.argsort(rid)
    rid, RV, rn = rid[order], RV[order], rn[order]
    s_q = np.asarray(short["query_vec_id"])
    s_v = np.asarray(short["vec_id"])
    pos = np.searchsorted(rid, s_v)
    qpos = {int(q): i for i, q in enumerate(qids)}
    qi = np.asarray([qpos[int(x)] for x in s_q])
    exact = (Q[qi] * RV[pos]).sum(axis=1) / (qnorms[qi] * rn[pos])
    rescored = pa.table(
        {
            "query_vec_id": short["query_vec_id"],
            "vec_id": short["vec_id"],
            "cosine": pa.array(round_half_away(exact, 4), type=pa.float64()),
        }
    )
    return _topk_merge([rescored], k)


def pq_encode(sf_dir: str, books: np.ndarray) -> "ray.data.Dataset":
    """Dataset of (vec_id, codes fixed-list<uint8>[m], norm float64):
    one vectorized argmin per subspace per batch; the EXACT vector norm is
    kept so only the dot product is approximated (better ranking than
    reconstructed norms, one float of overhead)."""
    m, _, sub = books.shape
    ref = ray.put(books)

    def encode(t: pa.Table) -> pa.Table:
        B = ray.get(ref)
        V = _emb_matrix(t["embedding"])
        codes = _encode_codes(V, B)
        norms = np.sqrt((V * V).sum(axis=1))
        return pa.table(
            {
                "vec_id": t["vec_id"],
                "codes": pa.FixedSizeListArray.from_arrays(
                    pa.array(codes.reshape(-1), type=pa.uint8()), m
                ),
                "norm": pa.array(norms, type=pa.float64()),
            }
        )

    ds = ray.data.read_parquet(
        _emb_path(sf_dir), columns=["vec_id", "embedding"]
    ).repartition(_parallel_blocks(_parquet_rows(_emb_path(sf_dir))))
    return ds.map_batches(encode, batch_format="pyarrow", zero_copy_batch=True)


def build_pq_codes(
    sf_dir: str, out_dir=None, m: int = PQ_M, nk: int = PQ_K,
    train_target: int | None = None,
):
    """The FLAT PQ index artifact: the (vec_id, codes, norm) table written
    ONCE via the IndexFS atomic protocol with a codebooks .npy sidecar —
    the same persist-and-resume shape as build_ivf_index / build_ivfpq_codes.
    ``knn_pq`` scans these stored codes (17 B/vector) instead of re-encoding
    the raw corpus per call; re-encoding only happens when the layout is
    absent. The cache directory name carries every codebook parameter
    (m, nk, train_target) PLUS the corpus identity (_corpus_tag: basename +
    full-path hash) so same-process calls with different params — or with
    different same-named corpora — never read stale codes. Returns
    (codes IndexFS, codebooks)."""
    import posixpath

    from smse_backend_ray.state.fs import IndexFS, resolve

    if out_dir is None:
        tt = "d" if train_target is None else str(train_target)
        out_dir = (
            f"/tmp/smse_pq_{os.getpid()}_{_corpus_tag(sf_dir)}_{m}_{nk}_{tt}"
        )
    codes0 = resolve(out_dir)
    parent = IndexFS((codes0.fs, posixpath.dirname(codes0.root)))
    name = posixpath.basename(codes0.root)
    sidecar = name + ".codebooks.npy"
    if codes0.exists() and parent.exists(sidecar):
        return codes0, _load_sidecar(parent, sidecar)
    books = train_pq_codebooks(sf_dir, m=m, k=nk, train_target=train_target)
    parent.atomic_write_dataset(pq_encode(sf_dir, books), name)
    _save_sidecar_atomic(parent, sidecar, books)
    return codes0, books


def knn_pq(
    sf_dir: str, k: int = TOP_K, *, m: int = PQ_M, nk: int = PQ_K,
    train_target: int | None = None,
) -> pa.Table:
    """ADC search over STORED PQ codes: per query, LUT[j, c] =
    dot(q_j, book_j[c]); a batch's approximate dots are LUT gathers summed
    across subspaces — no matmul against raw vectors, the per-vector cost
    is m byte lookups against the persisted 17-B/vector code table
    (build_pq_codes; the corpus is encoded once, not per query batch).
    cosine_hat = dot_hat / (||q|| * exact ||v||), ranked
    (round(cosine_hat,4) DESC, vec_id ASC)."""
    codes_fs, books = build_pq_codes(
        sf_dir, m=m, nk=nk, train_target=train_target
    )
    qids, Q = _load_queries(sf_dir)
    qnorms = np.sqrt((Q * Q).sum(axis=1))
    sub = books.shape[2]
    # (n_queries, m, nk) lookup tables: LUT[q, j, c] = dot(q_subspace_j, book_j[c])
    luts = np.einsum("qms,mks->qmk", Q.reshape(len(Q), books.shape[0], sub), books)
    ref = ray.put((qids, qnorms, luts))

    def batch_topk(t: pa.Table) -> pa.Table:
        q_ids, q_n, L = ray.get(ref)
        vids = np.asarray(t["vec_id"])
        codes_arr = t["codes"].combine_chunks() if isinstance(t["codes"], pa.ChunkedArray) else t["codes"]
        mm = L.shape[1]
        codes = np.asarray(codes_arr.values).reshape(-1, mm)
        norms = np.asarray(t["norm"])
        out = {"query_vec_id": [], "vec_id": [], "cosine": []}
        # per-batch candidates keep the FULL rerank shortlist width —
        # capping at k here would make the exact rerank a no-op
        kk = min(PQ_RERANK * k, len(vids))
        for qi in range(len(q_ids)):
            dots = L[qi][np.arange(mm)[None, :], codes].sum(axis=1)
            s = round_half_away(dots / (q_n[qi] * norms), 4)
            order = np.lexsort((vids, -s))[:kk]
            out["query_vec_id"].extend([int(q_ids[qi])] * len(order))
            out["vec_id"].extend(vids[order].tolist())
            out["cosine"].extend(s[order].tolist())
        return pa.table(
            {
                "query_vec_id": pa.array(out["query_vec_id"], type=pa.int64()),
                "vec_id": pa.array(out["vec_id"], type=pa.int64()),
                "cosine": pa.array(out["cosine"], type=pa.float64()),
            }
        )

    files = sorted(codes_fs.list_files("", recursive=True, suffix=".parquet"))
    cands = collect_table(
        codes_fs.ray_read_parquet_files(
            files, columns=["vec_id", "codes", "norm"]
        ).map_batches(batch_topk, batch_format="pyarrow", zero_copy_batch=True)
    )
    # ADC shortlist -> EXACT rerank (the production PQ shape: the code scan
    # finds PQ_RERANK*k candidates cheaply; only those few raw vectors are
    # point-read and exactly rescored — recall limited only by whether the
    # true top-k survive the shortlist)
    short = _topk_merge([cands], PQ_RERANK * k)
    return _exact_rerank(sf_dir, short, qids, Q, qnorms, k)


def knn_pq_checked(sf_dir: str, k: int = TOP_K) -> pa.Table:
    """Gate entry: knn_pq with an IN-ENTRY recall assertion against the
    exact brute-force top-k (mean overlap >= PQ_RECALL_FLOOR) — the driver
    sees an error, never silently-wrong rows (same pattern as
    dedup_embedding_ivf)."""
    approx = knn_pq(sf_dir, k)
    exact = knn_bruteforce(sf_dir, k)

    def sets(t: pa.Table) -> dict:
        out: dict[int, set] = {}
        for r in t.to_pylist():
            out.setdefault(r["query_vec_id"], set()).add(r["vec_id"])
        return out

    a, e = sets(approx), sets(exact)
    recalls = [len(a.get(q, set()) & e[q]) / len(e[q]) for q in e]
    recall = float(np.mean(recalls)) if recalls else 0.0
    if recall < PQ_RECALL_FLOOR:
        raise AssertionError(
            f"PQ recall {recall:.3f} below pinned floor {PQ_RECALL_FLOOR}"
        )
    return approx


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
    import posixpath

    from smse_backend_ray.state.fs import IndexFS, resolve

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
    codes0 = resolve(out_dir)
    parent = IndexFS((codes0.fs, posixpath.dirname(codes0.root)))
    name = posixpath.basename(codes0.root)
    sidecar = name + ".codebooks.npy"
    if codes0.exists() and parent.exists(sidecar):
        # warm resume: codebooks come from the sidecar — no retrain pass
        # over the corpus sample on every later call
        return codes0, cents, _load_sidecar(parent, sidecar)
    books = train_pq_codebooks(sf_dir, m=m, k=nk, train_target=train_target)
    ref = ray.put(books)
    mm, _, sub = books.shape

    def encode(t: pa.Table) -> pa.Table:
        B = ray.get(ref)
        V = _emb_matrix(t["embedding"])
        codes = _encode_codes(V, B)
        norms = np.sqrt((V * V).sum(axis=1))
        cl = t["cluster_id"]
        return pa.table(
            {
                "vec_id": t["vec_id"],
                "codes": pa.FixedSizeListArray.from_arrays(
                    pa.array(codes.reshape(-1), type=pa.uint8()), mm
                ),
                "norm": pa.array(norms, type=pa.float64()),
                "cluster": cl,
                "cluster_id": cl,
            }
        )

    files = sorted(layout.list_files("", recursive=True, suffix=".parquet"))
    ds = layout.ray_read_parquet_files(
        files, columns=["vec_id", "embedding", "cluster_id"]
    ).map_batches(encode, batch_format="pyarrow", zero_copy_batch=True)
    parent.atomic_write_dataset(ds, name, partition_cols=["cluster"])
    _save_sidecar_atomic(parent, sidecar, books)
    return codes0, cents, books


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
    codes_fs, cents, books = build_ivfpq_codes(
        sf_dir, train_target=train_target
    )
    qids, Q = _load_queries(sf_dir)
    qnorms = np.sqrt((Q * Q).sum(axis=1))
    qd = ((Q[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    probe = np.argsort(qd, axis=1, kind="stable")[:, :nprobe]
    probed_union = sorted({int(c) for row in probe for c in row})
    mm, _, sub = books.shape
    luts = np.einsum("qms,mks->qmk", Q.reshape(len(Q), mm, sub), books)
    ref = ray.put((qids, qnorms, luts, probe))

    def batch_topk(t: pa.Table) -> pa.Table:
        q_ids, q_n, L, prb = ray.get(ref)
        vids = np.asarray(t["vec_id"])
        clusters = np.asarray(t["cluster_id"])
        codes_arr = (
            t["codes"].combine_chunks()
            if isinstance(t["codes"], pa.ChunkedArray)
            else t["codes"]
        )
        codes = np.asarray(codes_arr.values).reshape(-1, L.shape[1])
        norms = np.asarray(t["norm"])
        out = {"query_vec_id": [], "vec_id": [], "cosine": []}
        for qi in range(len(q_ids)):
            m = np.isin(clusters, prb[qi])
            if not m.any():
                continue
            dots = L[qi][np.arange(L.shape[1])[None, :], codes[m]].sum(axis=1)
            s = round_half_away(dots / (q_n[qi] * norms[m]), 4)
            v = vids[m]
            order = np.lexsort((v, -s))[: min(PQ_RERANK * k, len(v))]
            out["query_vec_id"].extend([int(q_ids[qi])] * len(order))
            out["vec_id"].extend(v[order].tolist())
            out["cosine"].extend(s[order].tolist())
        return pa.table(
            {
                "query_vec_id": pa.array(out["query_vec_id"], type=pa.int64()),
                "vec_id": pa.array(out["vec_id"], type=pa.int64()),
                "cosine": pa.array(out["cosine"], type=pa.float64()),
            }
        )

    paths = sorted(
        f
        for c in probed_union
        for f in codes_fs.list_files(f"cluster={c}", suffix=".parquet")
    )
    cands = collect_table(
        codes_fs.ray_read_parquet_files(
            paths, columns=["vec_id", "codes", "norm", "cluster_id"]
        ).map_batches(batch_topk, batch_format="pyarrow", zero_copy_batch=True)
    )
    short = _topk_merge([cands], PQ_RERANK * k)
    return _exact_rerank(sf_dir, short, qids, Q, qnorms, k)


def knn_ivfpq_checked(sf_dir: str, k: int = TOP_K) -> pa.Table:
    """Gate entry: knn_ivfpq with an in-entry recall assertion vs exact
    brute force (floor IVFPQ_RECALL_FLOOR — probing misses whole clusters
    by design, so the floor sits below the full-scan PQ floor)."""
    approx = knn_ivfpq(sf_dir, k)
    exact = knn_bruteforce(sf_dir, k)
    a: dict[int, set] = {}
    e: dict[int, set] = {}
    for r in approx.to_pylist():
        a.setdefault(r["query_vec_id"], set()).add(r["vec_id"])
    for r in exact.to_pylist():
        e.setdefault(r["query_vec_id"], set()).add(r["vec_id"])
    recalls = [len(a.get(q, set()) & e[q]) / len(e[q]) for q in e]
    recall = float(np.mean(recalls)) if recalls else 0.0
    if recall < IVFPQ_RECALL_FLOOR:
        raise AssertionError(
            f"IVF-PQ recall {recall:.3f} below pinned floor {IVFPQ_RECALL_FLOOR}"
        )
    return approx


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
    import pyarrow.compute as pc

    from smse_backend_ray.config import FOLD_FAN_IN
    from smse_backend_ray.functions.collect import collect_table, fold_partials
    from smse_backend_ray.functions.rounding import round_half_away
    from smse_backend_ray.sources.corpus import _parallel_blocks, _parquet_rows

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
            {
                "dim": pa.array(np.arange(d, dtype=np.int64)),
                "n": pa.array(np.full(d, n, dtype=np.int64)),
                "sum_scaled": pa.array(iv.sum(axis=0, dtype=np.int64)),
                "min_v": pa.array(V.min(axis=0)),
                "max_v": pa.array(V.max(axis=0)),
            }
        )

    def fold(t: pa.Table) -> pa.Table:
        g = t.group_by("dim").aggregate(
            [("n", "sum"), ("sum_scaled", "sum"), ("min_v", "min"),
             ("max_v", "max")]
        )
        return pa.table(
            {
                "dim": pc.cast(g["dim"], pa.int64()),
                "n": pc.cast(g["n_sum"], pa.int64()),
                "sum_scaled": pc.cast(g["sum_scaled_sum"], pa.int64()),
                "min_v": g["min_v_min"],
                "max_v": g["max_v_max"],
            }
        )

    path = _emb_path(sf_dir)
    nb = _parallel_blocks(_parquet_rows(path), rows_per_block=4096)
    ds = (
        ray.data.read_parquet(path, columns=["embedding"])
        .repartition(nb)
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    )
    if nb > FOLD_FAN_IN:
        ds = fold_partials(ds, fold, FOLD_FAN_IN)
    parts = collect_table(ds, empty_schema=partial_schema)
    g = parts.group_by("dim").aggregate(
        [("n", "sum"), ("sum_scaled", "sum"), ("min_v", "min"), ("max_v", "max")]
    )
    n = g["n_sum"].to_numpy().astype(np.int64)
    ss = g["sum_scaled_sum"].to_numpy().astype(np.int64)
    mean = round_half_away(ss / 10000.0 / n, 4)
    out = pa.table(
        {
            "dim": pc.cast(g["dim"], pa.int64()),
            "n": pa.array(n, type=pa.int64()),
            "sum_scaled": pa.array(ss, type=pa.int64()),
            "mean_v": pa.array(mean, type=pa.float64()),
            "min_v": pc.cast(g["min_v_min"], pa.float64()),
            "max_v": pc.cast(g["max_v_max"], pa.float64()),
        }
    )
    return out.take(pc.sort_indices(out["dim"]))


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
    import pyarrow.compute as pc

    from smse_backend_ray.config import FOLD_FAN_IN
    from smse_backend_ray.functions.collect import collect_table, fold_partials
    from smse_backend_ray.functions.rounding import round_half_away
    from smse_backend_ray.sources.corpus import _parallel_blocks, _parquet_rows

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
            {
                "label": pa.array(np.repeat(uniq, d), type=pa.int64()),
                "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), uniq.size)),
                "n": pa.array(np.repeat(counts, d), type=pa.int64()),
                "sum_scaled": pa.array(sums.reshape(-1), type=pa.int64()),
            }
        )

    def fold(t: pa.Table) -> pa.Table:
        g = t.group_by(["label", "dim"]).aggregate(
            [("n", "sum"), ("sum_scaled", "sum")]
        )
        return pa.table(
            {
                "label": pc.cast(g["label"], pa.int64()),
                "dim": pc.cast(g["dim"], pa.int64()),
                "n": pc.cast(g["n_sum"], pa.int64()),
                "sum_scaled": pc.cast(g["sum_scaled_sum"], pa.int64()),
            }
        )

    path = _emb_path(sf_dir)
    nb = _parallel_blocks(_parquet_rows(path), rows_per_block=4096)
    ds = (
        ray.data.read_parquet(path, columns=["label", "embedding"])
        .repartition(nb)
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    )
    if nb > FOLD_FAN_IN:
        ds = fold_partials(ds, fold)
    merged = fold(collect_table(ds, empty_schema=partial_schema))
    n = merged["n"].to_numpy().astype(np.int64)
    ss = merged["sum_scaled"].to_numpy().astype(np.int64)
    mean = round_half_away(
        np.divide(ss / 10000.0, n, out=np.zeros(len(n)), where=n > 0), 4
    )
    out = pa.table(
        {
            "label": merged["label"],
            "dim": merged["dim"],
            "n": merged["n"],
            "sum_scaled": merged["sum_scaled"],
            "mean_v": pa.array(mean, type=pa.float64()),
        }
    )
    return out.take(
        pa.compute.sort_indices(
            out, sort_keys=[("label", "ascending"), ("dim", "ascending")]
        )
    )


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
