"""Posting-list codec: delta + LEB128-varint compression of a posting list.

Reference analog: the index payload the reference keeps in pgvector rows
(smse_backend/models/embedding.py:7-26) — here the payload is a compressed
posting list per (shard, term).

Layout per term (stored as parquet columns in the segment table): three
whole-list varint streams, ``docs_bytes`` (doc-id deltas), ``tfs_bytes`` and
``dls_bytes``. Doc ids are delta-encoded with the delta RESET to the absolute
id every ``block_size`` postings (the delta-reset interval; decoders must
use the build's ``block_size``).

Everything encodes/decodes in whole-stream vectorized numpy passes — no
per-posting Python loops.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# vectorized varint (LEB128)
# ---------------------------------------------------------------------------

def _varint_lens(v: np.ndarray) -> np.ndarray:
    nbytes = np.ones(v.size, dtype=np.int64)
    tmp = v >> np.uint64(7)
    while tmp.any():
        nbytes += tmp > 0
        tmp = tmp >> np.uint64(7)
    return nbytes


def varint_encode_with_lens(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Encode a uint array as LEB128 varints; also return per-value byte
    lengths (for analytic per-segment slicing)."""
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return b"", np.empty(0, dtype=np.int64)
    nbytes = _varint_lens(v)
    if nbytes[0] == 1 and int(nbytes.max()) == 1:  # all < 128: bytes ARE the stream
        return v.astype(np.uint8).tobytes(), nbytes
    offsets = np.zeros(v.size, dtype=np.int64)
    np.cumsum(nbytes[:-1], out=offsets[1:])
    out = np.zeros(int(nbytes.sum()), dtype=np.uint8)
    for j in range(int(nbytes.max())):
        mask = nbytes > j
        byte = ((v[mask] >> np.uint64(7 * j)) & np.uint64(0x7F)).astype(np.uint8)
        cont = ((nbytes[mask] > j + 1).astype(np.uint8)) << 7
        out[offsets[mask] + j] = byte | cont
    return out.tobytes(), nbytes


def varint_encode(values: np.ndarray) -> bytes:
    return varint_encode_with_lens(values)[0]


def varint_decode(buf: bytes | memoryview) -> np.ndarray:
    """Decode LEB128 varints -> uint64 array (vectorized)."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    is_last = (b & 0x80) == 0
    if is_last.all():  # all single-byte varints: the stream IS the values
        return b.astype(np.uint64)
    ends = np.flatnonzero(is_last)
    starts = np.empty(ends.size, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    idx = np.arange(b.size, dtype=np.int64)
    start_of = np.repeat(starts, ends - starts + 1)
    shifts = ((idx - start_of) * 7).astype(np.uint64)
    parts = (b & np.uint8(0x7F)).astype(np.uint64) << shifts
    return np.add.reduceat(parts, starts)


# ---------------------------------------------------------------------------
# posting streams
# ---------------------------------------------------------------------------

def encode_postings(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    block_size: int,
) -> dict:
    """doc_ids must be sorted ascending and unique. Returns the segment-row
    payload (see module docstring)."""
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    deltas = doc_ids.astype(np.uint64)
    deltas[1:] -= doc_ids[:-1].astype(np.uint64)
    resets = np.arange(0, doc_ids.size, block_size, dtype=np.int64)
    deltas[resets] = doc_ids[resets]  # absolute every block_size postings
    return {
        "df": int(doc_ids.size),
        "docs_bytes": varint_encode(deltas),
        "tfs_bytes": varint_encode(np.asarray(tfs, dtype=np.uint64)),
        "dls_bytes": varint_encode(np.asarray(dls, dtype=np.uint64)),
    }


def _resolve_doc_ids(deltas: np.ndarray, n: int, block_size: int) -> np.ndarray:
    """Delta stream (absolute every block_size postings) -> absolute doc ids."""
    raw = np.cumsum(deltas.astype(np.int64))
    starts = np.arange(0, n, block_size, dtype=np.int64)
    # after reset s: doc[i] = raw[i] - (raw[s] - delta[s])
    corr = raw[starts] - deltas[starts].astype(np.int64)
    reps = np.diff(np.append(starts, n))
    return raw - np.repeat(corr, reps)


def decode_postings(row: dict, block_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode the full posting list of one segment row -> (doc_ids, tfs, dls)."""
    tfs = varint_decode(row["tfs_bytes"]).astype(np.int64)
    n = tfs.size
    if n == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z.copy(), z.copy()
    deltas = varint_decode(row["docs_bytes"])
    dls = varint_decode(row["dls_bytes"]).astype(np.int64)
    return _resolve_doc_ids(deltas, n, block_size), tfs, dls


def decode_positions(row: dict, tfs: np.ndarray) -> np.ndarray:
    """Decode a positional segment's ``pos_bytes`` stream -> flat int64
    positions (kept-stream token indexes), delta-resolved with a reset at
    every posting start. ``tfs`` is the segment's decoded tf array — the
    posting boundaries (posting i owns positions [cum_tf[i], cum_tf[i+1]))."""
    deltas = varint_decode(row["pos_bytes"]).astype(np.int64)
    if deltas.size == 0:
        return np.empty(0, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    pstarts = np.concatenate(([0], np.cumsum(tfs)))[:-1]
    raw = np.cumsum(deltas)
    corr = raw[pstarts] - deltas[pstarts]
    return raw - np.repeat(corr, tfs)
