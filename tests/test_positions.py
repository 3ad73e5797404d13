"""Positional postings: tokenizer parity, segment roundtrip, phrase engine.

The positional column family (EngineConfig.with_positions) adds a frozen
engine<->SQL pair: kept-stream token positions (analyzer.term_positions <->
sqlgen.pos_tokens_cte). These tests pin the Python scalar reference, the
vectorized Arrow twin, and the delta-varint segment encoding to each other.
"""

from __future__ import annotations

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smse_backend_ray.config import EngineConfig
from smse_backend_ray.functions.analyzer import (
    term_counts_batch,
    term_positions,
    term_positions_batch,
    tokenize,
)
from smse_backend_ray.functions.codec import decode_positions, decode_postings


# ---------------------------------------------------------------------------
# analyzer parity
# ---------------------------------------------------------------------------

TEXTS = [
    "def parseHttpRequest(self): return self.http request HTTP parse",
    "",
    "the the the",
    "foo bar foo baz FooBar foo_bar 123 ab",
    "hash join table hash join sort merge hash",
    "x",
]


def _regroup(terms, tfs, flat):
    out, o = [], 0
    for t, tf in zip(terms, tfs):
        out.append((t, flat[o : o + tf]))
        o += tf
    assert o == len(flat)
    return out


def test_positions_scalar_matches_tokenize_order():
    for txt in TEXTS:
        toks = tokenize(txt)
        tp = dict(term_positions(txt))
        seen = {}
        for i, t in enumerate(toks):
            seen.setdefault(t, []).append(i)
        assert tp == seen


def test_positions_batch_parity_fixed():
    arr = pa.array(TEXTS + [None], type=pa.string())
    t1, f1 = term_counts_batch(arr)
    t2, f2, p2 = term_positions_batch(arr)
    assert t1.to_pylist() == t2.to_pylist()
    assert f1.to_pylist() == f2.to_pylist()
    for i, txt in enumerate(TEXTS + [""]):
        assert _regroup(t2[i].as_py(), f2[i].as_py(), p2[i].as_py()) == term_positions(txt)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(max_size=60), max_size=8))
def test_positions_batch_parity_fuzz(texts):
    arr = pa.array(texts, type=pa.string())
    t1, f1 = term_counts_batch(arr)
    t2, f2, p2 = term_positions_batch(arr)
    assert t1.to_pylist() == t2.to_pylist()
    assert f1.to_pylist() == f2.to_pylist()
    for i, txt in enumerate(texts):
        assert _regroup(t2[i].as_py(), f2[i].as_py(), p2[i].as_py()) == term_positions(txt)


# ---------------------------------------------------------------------------
# positional index build roundtrip
# ---------------------------------------------------------------------------


def _synth_corpus(n=60, seed=7) -> list[dict]:
    rng = np.random.default_rng(seed)
    vocab = [
        "hash", "join", "table", "sort", "merge", "batch", "value", "fast",
        "scan", "row", "parseHttpRequest", "window_agg_key", "def", "return",
        "alpha", "beta",
    ]
    rows = []
    for i in range(n):
        content = " ".join(rng.choice(vocab, size=int(rng.integers(3, 40))))
        rows.append(
            {
                "repo": f"src{i % 5}",
                "path": f"docs/{i:04d}.txt",
                "commit": f"c{i}",
                "lang": "en",
                "content": content,
            }
        )
    return rows


@pytest.fixture(scope="module")
def pos_index(tmp_path_factory):
    import ray.data

    from smse_backend_ray.pipelines.build import build_index

    rows = _synth_corpus()
    idx = str(tmp_path_factory.mktemp("posidx"))
    shutil.rmtree(idx, ignore_errors=True)
    cfg = EngineConfig(n_shards=4, with_positions=True, block_size=8)
    build_index(
        corpus=ray.data.from_arrow(pa.Table.from_pylist(rows)),
        index_dir=idx,
        cfg=cfg,
    )
    return idx, cfg, rows


def test_positional_segment_roundtrip(pos_index):
    from smse_backend_ray.sources.corpus import doc_id_from_key

    idx, cfg, rows = pos_index
    exp = {}
    for r in rows:
        did = doc_id_from_key(r["repo"], r["path"], r["commit"])
        for term, poss in term_positions(r["content"]):
            exp[(did, term)] = poss
    got = {}
    for f in sorted(glob.glob(os.path.join(idx, "segments", "shard_id=*", "*.parquet"))):
        seg = pq.read_table(f)
        assert seg.column_names == [
            "term", "df_shard", "docs_bytes", "tfs_bytes", "dls_bytes", "pos_bytes",
        ]
        for row in seg.to_pylist():
            ids, tfs, _dls = decode_postings(row, cfg.block_size)
            flat = decode_positions(row, tfs)
            cum = np.concatenate(([0], np.cumsum(tfs)))
            for j, d in enumerate(ids):
                got[(int(d), row["term"])] = flat[cum[j] : cum[j + 1]].tolist()
    assert got == exp


def test_docs_store_carries_positions(pos_index):
    idx, _cfg, _rows = pos_index
    f = sorted(glob.glob(os.path.join(idx, "docs", "shard_id=*", "*.parquet")))[0]
    t = pq.read_table(f)
    assert "poss" in t.column_names
    # per-doc flattened positions length == dl
    for dl, poss in zip(t["dl"].to_pylist(), t["poss"].to_pylist()):
        assert len(poss) == dl


def test_positional_append_and_compact_match_rebuild(tmp_path, ray_session):
    """Incremental append and compaction must preserve the positional
    column family: phrase/near results on an appended positional index are
    BITWISE equal to a full rebuild; after tombstone+vacuum compaction they
    equal a rebuild of the surviving corpus."""
    import pyarrow.compute as pc
    import ray.data

    from smse_backend_ray.pipelines.build import (
        append_index,
        build_index,
        compact_index,
    )
    from smse_backend_ray.pipelines.search import SearchEngine

    rows = _synth_corpus(n=80, seed=11)
    t = pa.Table.from_pylist(rows)
    cfg = EngineConfig(n_shards=3, with_positions=True, block_size=8)

    full = str(tmp_path / "full")
    build_index(corpus=ray.data.from_arrow(t), index_dir=full, cfg=cfg)

    incr = str(tmp_path / "incr")
    parity = pc.bit_wise_and(pa.array(range(len(t))), 1)
    build_index(
        corpus=ray.data.from_arrow(t.filter(pc.equal(parity, 0))),
        index_dir=incr,
        cfg=cfg,
    )
    append_index(ray.data.from_arrow(t.filter(pc.equal(parity, 1))), incr)

    def run(idx, **kw):
        with SearchEngine(idx) as eng:
            return [
                eng.search(["hash join"], mode="phrase", limit=8).to_pylist(),
                eng.search(["sort merge batch"], mode="near", slop=4, limit=8).to_pylist(),
            ]

    assert run(incr) == run(full)

    # tombstone a doc that appears in the phrase results, then compact
    base = run(incr)[0]
    assert base, "fixture must produce phrase hits"
    dead = base[0]["doc_id"]
    with SearchEngine(incr) as eng:
        eng.delete_doc(dead)
    compact_index(incr)

    surv = str(tmp_path / "surv")
    keep = pc.invert(
        pc.is_in(
            pa.array(
                [_did(r) for r in rows],
                type=pa.int64(),
            ),
            value_set=pa.array([dead], type=pa.int64()),
        )
    )
    build_index(corpus=ray.data.from_arrow(t.filter(keep)), index_dir=surv, cfg=cfg)
    assert run(incr) == run(surv)


def _did(r: dict) -> int:
    from smse_backend_ray.sources.corpus import doc_id_from_key

    return doc_id_from_key(r["repo"], r["path"], r["commit"])


def test_default_build_has_no_position_columns(tmp_path):
    import ray.data

    from smse_backend_ray.pipelines.build import build_index

    rows = _synth_corpus(n=12, seed=3)
    idx = str(tmp_path / "plain")
    build_index(
        corpus=ray.data.from_arrow(pa.Table.from_pylist(rows)),
        index_dir=idx,
        cfg=EngineConfig(n_shards=2),
    )
    seg = pq.read_table(
        sorted(glob.glob(os.path.join(idx, "segments", "shard_id=*", "*.parquet")))[0]
    )
    assert "pos_bytes" not in seg.column_names
    docs = pq.read_table(
        sorted(glob.glob(os.path.join(idx, "docs", "shard_id=*", "*.parquet")))[0]
    )
    assert "poss" not in docs.column_names
