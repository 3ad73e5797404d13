from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smse_backend_ray.functions.codec import (
    decode_postings,
    encode_postings,
    varint_decode,
    varint_encode,
)


def test_varint_roundtrip_simple():
    vals = np.array([0, 1, 127, 128, 300, 2**32, 2**56 + 5], dtype=np.uint64)
    assert (varint_decode(varint_encode(vals)) == vals).all()


def test_varint_empty():
    assert varint_encode(np.empty(0, dtype=np.uint64)) == b""
    assert varint_decode(b"").size == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**62), max_size=200))
def test_varint_roundtrip_property(xs):
    vals = np.array(xs, dtype=np.uint64)
    assert (varint_decode(varint_encode(vals)) == vals).all()


def _random_postings(n, seed=7):
    rng = np.random.default_rng(seed)
    doc_ids = np.sort(rng.choice(10**15, size=n, replace=False)).astype(np.int64)
    tfs = rng.integers(1, 50, size=n).astype(np.int64)
    dls = rng.integers(1, 5000, size=n).astype(np.int64)
    return doc_ids, tfs, dls


@pytest.mark.parametrize("n,block_size", [(1, 128), (5, 2), (1000, 128), (257, 128)])
def test_postings_roundtrip(n, block_size):
    doc_ids, tfs, dls = _random_postings(n)
    enc = encode_postings(doc_ids, tfs, dls, block_size=block_size)
    assert enc["df"] == n
    d, t, l = decode_postings(enc, block_size)
    assert (d == doc_ids).all() and (t == tfs).all() and (l == dls).all()
    # the doc-id stream restarts from the absolute id every block_size
    deltas = varint_decode(enc["docs_bytes"]).astype(np.int64)
    resets = np.arange(0, n, block_size)
    assert (deltas[resets] == doc_ids[resets]).all()


@pytest.mark.parametrize(
    "block_size,digest",
    [
        (2, "74ccb31b27fb294efed1a274dfd756aa617062d9a6d254e176414d1d4cf45eea"),
        (128, "f508bad62a72bf2ceeb551686f55793fd09ebb1e1b883eb7a416c3e665f5b701"),
    ],
)
def test_stream_bytes_pinned(block_size, digest):
    """The on-disk doc-id/tf/dl streams are a frozen format: indexes built
    by earlier releases must keep decoding to the same postings."""
    enc = encode_postings(*_random_postings(1000), block_size=block_size)
    streams = enc["docs_bytes"] + enc["tfs_bytes"] + enc["dls_bytes"]
    assert hashlib.sha256(streams).hexdigest() == digest


def test_empty_postings():
    enc = encode_postings(np.empty(0), np.empty(0), np.empty(0), 128)
    assert enc["df"] == 0
    d, t, l = decode_postings(enc, 128)
    assert d.size == 0


def test_compression_is_effective():
    # dense ascending ids with small gaps: delta+varint must beat 8B/posting
    doc_ids = np.cumsum(np.random.default_rng(3).integers(1, 20, size=10000)).astype(np.int64)
    tfs = np.ones(10000, dtype=np.int64)
    dls = np.full(10000, 100, dtype=np.int64)
    enc = encode_postings(doc_ids, tfs, dls, 128)
    assert len(enc["docs_bytes"]) < 2 * 10000  # ~1 byte/delta + block resets
    assert len(enc["tfs_bytes"]) == 10000
