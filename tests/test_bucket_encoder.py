"""BucketEncoder (whole-bucket vectorized path) must produce byte-identical
segments to the per-term reference codec path. The build no longer runs the
posting exchange; its runs payload, BucketEncoder and cfg_buckets stay for
the perfbench/layers.py probes. Since round 2 the shuffle
payload itself is varint-compressed (encode_runs/decode_runs), so the raw
runs tables here route through encode_runs first — exercising the
compressed map->reduce path end to end."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from smse_backend_ray.config import EngineConfig
from smse_backend_ray.functions.codec import decode_postings, encode_postings
from smse_backend_ray.stages.ingest import BucketEncoder, decode_runs, encode_runs


def _runs_table(rng, n_terms=40, n_runs=200, max_run=60):
    terms = [f"t{j:03d}" for j in range(n_terms)]
    rows = {"term": [], "doc_ids": [], "tfs": [], "dls": []}
    used: dict[str, set] = {t: set() for t in terms}
    for _ in range(n_runs):
        t = terms[int(rng.integers(0, n_terms))]
        k = int(rng.integers(1, max_run))
        cand = rng.choice(10**12, size=k * 3, replace=False)
        ids = [int(c) for c in cand if int(c) not in used[t]][:k]
        if not ids:
            continue
        used[t].update(ids)
        rows["term"].append(t)
        rows["doc_ids"].append(ids)
        rows["tfs"].append(rng.integers(1, 30, size=len(ids)).tolist())
        rows["dls"].append(rng.integers(1, 900, size=len(ids)).tolist())
    encoded = encode_runs(
        pa.array(rows["term"]),
        pa.array(rows["doc_ids"], type=pa.list_(pa.int64())),
        pa.array(rows["tfs"], type=pa.list_(pa.int32())),
        pa.array(rows["dls"], type=pa.list_(pa.int32())),
        n_buckets=64,
    )
    return rows, encoded


def test_encode_decode_runs_roundtrip():
    rng = np.random.default_rng(11)
    terms = ["alpha", "beta", "alpha"]
    ids = [sorted(rng.choice(10**12, size=5, replace=False).tolist()), [7], [1, 10**14]]
    tfs = [[1, 2, 3, 4, 5], [9], [2, 2]]
    dls = [[10, 20, 30, 40, 50], [7], [100, 200]]
    runs = encode_runs(
        pa.array(terms),
        pa.array(ids, type=pa.list_(pa.int64())),
        pa.array(tfs, type=pa.list_(pa.int32())),
        pa.array(dls, type=pa.list_(pa.int32())),
        n_buckets=8,
    )
    r_lens, f_ids, f_tfs, f_dls = decode_runs(runs)
    assert runs["term"].to_pylist() == terms
    assert r_lens.tolist() == [5, 1, 2]
    off = 0
    for i in range(3):
        sl = slice(off, off + len(ids[i]))
        order = np.argsort(np.array(ids[i], dtype=np.int64), kind="stable")
        assert f_ids[sl].tolist() == np.array(ids[i])[order].tolist()
        assert f_tfs[sl].tolist() == np.array(tfs[i])[order].tolist()
        assert f_dls[sl].tolist() == np.array(dls[i])[order].tolist()
        off += len(ids[i])


@pytest.mark.parametrize("block_size", [4, 128])
def test_vectorized_equals_per_term(block_size):
    rng = np.random.default_rng(5)
    cfg = EngineConfig(n_shards=4, block_size=block_size)
    avgdl = 123.75
    raw, group = _runs_table(rng)
    out = BucketEncoder(avgdl, cfg)(group)

    # reference: gather + per-(term, shard) codec encode, from the RAW runs
    gathered: dict[str, dict[int, list]] = {}
    for term, ids_l, tfs_l, dls_l in zip(
        raw["term"], raw["doc_ids"], raw["tfs"], raw["dls"]
    ):
        g = gathered.setdefault(term, {})
        for d, tf, dl in zip(ids_l, tfs_l, dls_l):
            g[d] = [tf, dl]
    expected = {}
    for term, posts in gathered.items():
        ids = np.array(sorted(posts), dtype=np.int64)
        tfs = np.array([posts[d][0] for d in ids], dtype=np.int64)
        dls = np.array([posts[d][1] for d in ids], dtype=np.int64)
        shards = ids % cfg.n_shards
        for s in np.unique(shards):
            m = shards == s
            expected[(term, int(s))] = encode_postings(ids[m], tfs[m], dls[m], block_size)

    got_rows = out.to_pylist()
    assert len(got_rows) == len(expected)
    for row in got_rows:
        enc = expected[(row["term"], row["shard_id"])]
        assert row["df_shard"] == enc["df"]
        for k in ("docs_bytes", "tfs_bytes", "dls_bytes"):
            assert row[k] == enc[k], (row["term"], k)
        # and decodes losslessly
        ids, tfs, dls = decode_postings(row, block_size)
        ids2, tfs2, dls2 = decode_postings(enc, block_size)
        assert (ids == ids2).all() and (tfs == tfs2).all() and (dls == dls2).all()


def test_empty_group():
    cfg = EngineConfig(n_shards=4)
    empty = encode_runs(
        pa.array([], type=pa.string()),
        pa.array([], type=pa.list_(pa.int64())),
        pa.array([], type=pa.list_(pa.int32())),
        pa.array([], type=pa.list_(pa.int32())),
        n_buckets=64,
    )
    out = BucketEncoder(100.0, cfg)(empty)
    assert out.num_rows == 0
    assert out.column_names == SEGMENT_COLUMNS


# the segment row holds exactly what the readers decode; a column added here
# must have a reader (stages/scorer.py SEGMENT_COLS, build._run_df)
SEGMENT_COLUMNS = ["shard_id", "term", "df_shard", "docs_bytes", "tfs_bytes", "dls_bytes"]


@pytest.mark.parametrize("positional", [False, True])
def test_encoder_output_columns(tmp_path, positional):
    """The segment columns of a built index (pos_bytes only when positional;
    shard_id is the hive dir) and, for plain postings, of BucketEncoder."""
    import pyarrow.dataset as pads
    import ray.data

    from smse_backend_ray.pipelines.build import build_index
    from smse_backend_ray.stages.ingest import explode_preagg_batch

    cfg = EngineConfig(n_shards=4, with_positions=positional)
    n_docs = 8
    content = pa.array(["alpha beta beta"] * n_docs)
    corpus = pa.table({
        "repo": pa.array(["org/r"] * n_docs), "path": pa.array([f"f{i}.py" for i in range(n_docs)]),
        "commit": pa.array(["c1"] * n_docs), "lang": pa.array(["py"] * n_docs), "content": content,
    })
    build_index(corpus=ray.data.from_arrow(corpus), index_dir=str(tmp_path), cfg=cfg)
    built = pads.dataset(str(tmp_path / "segments"), partitioning="hive").to_table()
    want = SEGMENT_COLUMNS + (["pos_bytes"] if positional else [])
    assert sorted(built.column_names) == sorted(want)
    assert built.num_rows == 2 * len(set(built["shard_id"].to_pylist()))
    if positional:
        return
    batch = {
        "doc_id": pa.array(range(100, 100 + n_docs), type=pa.int64()),
        "dl": pa.array([3] * n_docs, type=pa.int64()),
        "terms": pa.array([["alpha", "beta"]] * n_docs, type=pa.list_(pa.string())),
        "tfs": pa.array([[1, 2]] * n_docs, type=pa.list_(pa.int32())),
    }
    runs = explode_preagg_batch(pa.table(batch), n_buckets=2, n_shards=cfg.n_shards)
    out = BucketEncoder(3.0, cfg)(runs.drop_columns(["skey"]))
    assert out.num_rows == 2 * cfg.n_shards
    assert out.column_names == want
    empty = BucketEncoder(3.0, cfg)(runs.slice(0, 0).drop_columns(["skey"]))
    assert empty.schema == out.schema


def test_cfg_buckets_scales_with_data():
    """Term-bucket count tracks corpus size: the shuffle key is
    (bucket, shard), so cfg_buckets returns ceil(target_groups / n_shards)
    — small builds don't over-fragment, huge builds keep per-reduce-task
    heap bounded."""
    from smse_backend_ray.stages.ingest import cfg_buckets

    cfg = EngineConfig(n_shards=8)
    ns = cfg.n_shards

    def ceil_div(a, b):
        return -(-a // b)

    cpu_groups = cfg_buckets(cfg) * ns  # no n_docs -> CPU-scaled group count
    assert cpu_groups >= 64
    # tiny corpus: ~1k docs/group target collapses to n_shards groups
    # (1 term bucket) — never fewer
    assert cfg_buckets(cfg, n_docs=500) == 1
    assert cfg_buckets(cfg, n_docs=20_000) == ceil_div(
        max(ns, min(cpu_groups, 20)), ns
    )
    # medium corpus: capped by the CPU-scaled group count (unless the ~50k
    # docs/group heap floor already exceeds it)
    assert cfg_buckets(cfg, n_docs=10_000_000) == ceil_div(max(cpu_groups, 200), ns)
    # huge corpus: heap floor kicks in past 50k docs/group
    assert cfg_buckets(cfg, n_docs=1_000_000_000) == ceil_div(
        max(cpu_groups, 20_000), ns
    )


def test_hot_term_shuffle_key_is_shard_aware():
    """SURVEY §4 skew mandate: a term present in EVERY doc must spread its
    shuffle rows over n_shards distinct reduce keys, so the hottest term's
    reduce group is bounded at O(docs/shard) — never O(global df)."""
    from smse_backend_ray.stages.ingest import explode_preagg_batch, term_bucket

    cfg = EngineConfig(n_shards=4)
    n_docs, nb = 64, 3
    doc_ids = np.arange(1000, 1000 + n_docs, dtype=np.int64)
    batch = pa.table(
        {
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "dl": pa.array([2] * n_docs, type=pa.int64()),
            "terms": pa.array(
                [["hotterm", f"rare{i:03d}"] for i in range(n_docs)],
                type=pa.list_(pa.string()),
            ),
            "tfs": pa.array([[1, 1]] * n_docs, type=pa.list_(pa.int32())),
        }
    )
    runs = explode_preagg_batch(batch, n_buckets=nb, n_shards=cfg.n_shards)
    hot = runs.filter(pa.compute.equal(runs["term"], "hotterm"))
    skeys = sorted(set(hot["skey"].to_pylist()))
    hb = term_bucket("hotterm", nb)
    # one run per (hotterm, shard), each under its own shuffle key
    assert hot.num_rows == cfg.n_shards
    assert skeys == [hb * cfg.n_shards + s for s in range(cfg.n_shards)]
    # each run carries only its shard's postings (~n_docs/n_shards)
    assert sorted(hot["n"].to_pylist()) == [16, 16, 16, 16]
    # rare terms: exactly one run each, keyed consistently
    rare = runs.filter(pa.compute.equal(runs["term"], "rare007"))
    assert rare.num_rows == 1
    sk = rare["skey"][0].as_py()
    assert sk == term_bucket("rare007", nb) * cfg.n_shards + int(doc_ids[7] % 4)
    # and the whole-batch merge of these runs still encodes correctly
    out = BucketEncoder(2.0, cfg)(runs.drop_columns(["skey"]))
    hot_rows = out.filter(pa.compute.equal(out["term"], "hotterm"))
    assert sorted(hot_rows["df_shard"].to_pylist()) == [16, 16, 16, 16]


def test_bin_col_lies_over_the_stream():
    """Segment/run binary columns are laid over one stream without copies;
    offsets are int32, so a stream of 2 GiB or more is refused, never
    wrapped."""
    from smse_backend_ray.stages import ingest

    data = bytes(range(50))
    bounds = np.array([0, 3, 10, 10, 22, 31, 40, 50])
    col = ingest._bin_col(data, bounds)
    col.validate(full=True)
    assert col.to_pylist() == [data[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    with pytest.raises(ValueError, match="2 GiB"):
        ingest._bin_col(data, np.array([0, 2**31]))


@pytest.mark.parametrize("positional", [False, True])
def test_encode_in_term_range_passes(monkeypatch, positional):
    """A shard-sized input is encoded one term range at a time: the table
    equals the one-pass encode row for row, hot terms included."""
    from smse_backend_ray.stages import ingest

    rng = np.random.default_rng(3)
    cfg = EngineConfig(n_shards=2, block_size=4)
    n = 3_000
    terms = pa.array([f"t{i:03d}" for i in range(60)])
    codes = np.minimum(rng.zipf(1.3, n) - 1, 59).astype(np.int64)  # a hot head
    docs = rng.choice(10**12, size=n, replace=False).astype(np.int64)
    tfs = rng.integers(1, 5, size=n).astype(np.int64)
    dls = rng.integers(5, 90, size=n).astype(np.int64)
    pos = rng.integers(0, 90, size=int(tfs.sum())).astype(np.int64) if positional else None
    one = ingest.encode_segments(codes, terms, docs, tfs, dls, cfg, pos)
    monkeypatch.setattr(ingest, "_ENCODE_PASS_POSTINGS", 100)
    passes = ingest.encode_segments(codes, terms, docs, tfs, dls, cfg, pos)
    assert passes.num_rows == one.num_rows > 60
    assert passes.equals(one)
