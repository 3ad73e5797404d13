"""Corpus sources.

The engine's input is a Parquet table with the shape fixed by BASELINE.json
``input_hint``: (repo, path, commit, lang, content). Reference analog: one
uploaded file per row (smse_backend/routes/content.py:18-57), with ``repo``
playing the role of the tenant ``user_id`` scope (smse_backend/services/
search.py:104) and ``lang`` the modality/extension role
(smse_backend/utils/file_extensions.py:14-30).

``corpus_from_documents`` is the Python twin of sqlgen.CORPUS_CTE — the same
deterministic mapping from the driver's ``documents`` table, so Ray results
and DuckDB oracle results are comparable end to end.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

CORPUS_COLUMNS = ("repo", "path", "commit", "lang", "content")


# deletes the hex letters of a lowercase hex digest, leaving its digits
_HEX_LETTERS = str.maketrans("", "", "abcdef")


def doc_id_from_key(repo: str, path: str, commit: str) -> int:
    """Deterministic doc_id (Python twin of sqlgen.doc_id_expr).

    First 15 decimal digits found in sha256("{repo}\\n{path}\\n{commit}") hex.
    Independent of run order and parallelism (FIXTURES.md requirement: doc
    identity derives from content/key, not run order).
    """
    h = hashlib.sha256(f"{repo}\n{path}\n{commit}".encode()).hexdigest()
    return int(h.translate(_HEX_LETTERS)[:15])


def _derive_batch(batch: pa.Table) -> pa.Table:
    doc_ids = batch["doc_id"].to_pylist()
    paths = [f"docs/{d:08d}.txt" for d in doc_ids]
    commits = [hashlib.md5(f"c{d}".encode()).hexdigest() for d in doc_ids]
    return pa.table(
        {
            "repo": batch["source"],
            "path": pa.array(paths, type=pa.string()),
            "commit": pa.array(commits, type=pa.string()),
            "lang": batch["lang"],
            "content": batch["text"],
        }
    )


def corpus_table_from_documents(sf_dir: str) -> pa.Table:
    """Driver-side (no Ray) twin of corpus_from_documents, for oracles/tests."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang", "source"],
    )
    return _derive_batch(t)


def _parallel_blocks(rows: int | None = None, rows_per_block: int = 64) -> int:
    """Block target so downstream map stages parallelize: a single-file
    parquet read yields ONE block, and Ray fuses the whole map chain into one
    task unless we split first (2-4x cores, ray_guide 'partitions ≈ 2-4x
    total cores'). When the caller knows the input row count (parquet footer
    — free), tiny inputs get proportionally fewer blocks: per-task fixed
    cost dominates long before parallelism helps.

    ``rows_per_block`` declares the stage's per-row cost class and only
    LOWERS the CPU-scaled target, so behavior at scale is unchanged:
    64 (default) for heavy per-row work (tokenize/regex/codec — ~ms/row),
    4096 for cheap columnar scans (filter/cast/int math — ~µs/row, where a
    64-row floor manufactured hundreds of near-empty tasks per stage and
    the dispatch tax dominated the relational gate entries 4x over;
    measured in BASELINE.md 'Exchange sizing')."""
    import ray as _ray

    try:
        cpus = int(_ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    target = max(16, cpus * 3)
    if rows is not None:
        target = min(target, max(1, rows // rows_per_block))
    return target


def _parquet_rows(path: str) -> int | None:
    try:
        import pyarrow.parquet as pq

        return pq.ParquetFile(path).metadata.num_rows
    except Exception:
        return None


def read_table(
    sf_dir, table: str | None, columns: list[str], filter=None,
    rows_per_block: int = 64, repartition: bool = True,
) -> "ray.data.Dataset":
    """THE parquet reader of the pipelines: ``<sf_dir>/<table>.parquet``
    (``table=None``: ``sf_dir`` names the parquet file(s) or directory
    itself) read through ``ray.data.read_parquet``.

    - The blocks carry no schema metadata. Files written from pandas carry
      a ``b'pandas'`` metadata dict; the schema dedup at the next exchange
      hashes it and logs ``Failed to hash the schemas`` per reduce task. An
      explicit read schema (the footer's fields, no metadata) drops it
      inside the read itself.
    - ``filter`` (a ``pyarrow.dataset`` expression) is pushed into the read
      (row-group pruning).
    - The read is repartitioned to ``read_blocks(...)`` blocks, sized by
      the footer row count and the stage's ``rows_per_block`` cost class
      (see ``_parallel_blocks``); ``repartition=False`` keeps the read's
      own blocks for a caller that sizes its blocks itself."""
    import pyarrow.dataset as pads

    path = sf_dir if table is None else os.path.join(sf_dir, f"{table}.parquet")
    footer = pads.dataset(path, format="parquet").schema
    schema = pa.schema([footer.field(c) for c in columns])
    kwargs = {} if filter is None else {"filter": filter}
    ds = ray.data.read_parquet(path, columns=columns, schema=schema, **kwargs)
    if not repartition:
        return ds
    return ds.repartition(_parallel_blocks(_parquet_rows(path), rows_per_block))


def read_blocks(sf_dir: str, table: str, rows_per_block: int = 64) -> int:
    """The block count ``read_table`` repartitions ``table`` to — fold
    triggers compare against this same value, so they cannot drift from
    the read."""
    return _parallel_blocks(
        _parquet_rows(os.path.join(sf_dir, f"{table}.parquet")), rows_per_block
    )


def corpus_from_documents(sf_dir: str) -> "ray.data.Dataset":
    """documents.parquet -> corpus Dataset (deterministic; see CORPUS_CTE)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text", "lang", "source"])
    return ds.map_batches(_derive_batch, batch_format="pyarrow", zero_copy_batch=True)


def replicated_corpus_from_documents(sf_dir: str, repl: int) -> "ray.data.Dataset":
    """Benchmark corpus: deterministic x``repl`` replication of the documents
    corpus with distinct (path, content) per replica (scales the build without
    external data; df scales uniformly)."""

    def expand(batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        langs = batch["lang"].to_pylist()
        srcs = batch["source"].to_pylist()
        out: dict[str, list] = {c: [] for c in CORPUS_COLUMNS}
        for d, txt, lang, src in zip(doc_ids, texts, langs, srcs):
            commit = hashlib.md5(f"c{d}".encode()).hexdigest()
            for r in range(repl):
                out["repo"].append(src)
                out["path"].append(f"docs/{d:08d}_r{r}.txt")
                out["commit"].append(commit)
                out["lang"].append(lang)
                out["content"].append(txt if r == 0 else f"{txt} rep{r}")
        return pa.table({c: pa.array(out[c], type=pa.string()) for c in CORPUS_COLUMNS})

    ds = read_table(
        sf_dir, "documents", ["doc_id", "text", "lang", "source"], repartition=False
    )
    # batch_size counts EXPAND INPUT rows, and downstream maps fuse into the
    # same task — scale it down by the expansion factor or the whole corpus
    # funnels through a handful of tasks
    return ds.repartition(_parallel_blocks()).map_batches(
        expand, batch_format="pyarrow", zero_copy_batch=True, batch_size=max(1, 4096 // repl)
    )


def corpus_from_files(
    paths, format: str = "parquet", rows_hint: int | None = None
) -> "ray.data.Dataset":
    """Read an input_hint-shaped corpus (repo, path, commit, lang, content —
    all strings) from parquet, CSV, or JSONL files into a build-ready
    Dataset. Parquet is the primary path (column-pruned at the read); CSV
    and JSONL cover the interchange dumps a migration actually starts from
    (Arrow's readers handle quoted newlines / unicode; every column is
    normalized to utf8 so a CSV that parses a commit hash as something
    exotic can't poison the doc_id derivation).

    Missing columns fail loudly on the FIRST batch (validate_corpus_schema)
    rather than deep inside the SPIMI stage."""
    fmt = format.lower()
    str_schema = pa.schema([(c, pa.string()) for c in CORPUS_COLUMNS])
    if fmt == "parquet":
        ds = read_table(paths, None, list(CORPUS_COLUMNS), repartition=False)
    elif fmt == "csv":
        # utf8 is FORCED at parse time: type inference + cast-back would
        # silently rewrite values (commit '00123' -> int64 -> '123'),
        # changing the derived doc_id with no error
        from pyarrow import csv as pacsv

        ds = ray.data.read_csv(
            paths,
            convert_options=pacsv.ConvertOptions(
                column_types={c: pa.string() for c in CORPUS_COLUMNS}
            ),
        )
    elif fmt in ("json", "jsonl"):
        from pyarrow import json as pajson

        ds = ray.data.read_json(
            paths,
            parse_options=pajson.ParseOptions(
                explicit_schema=str_schema, unexpected_field_behavior="ignore"
            ),
        )
    else:
        raise ValueError(f"unsupported corpus format: {format!r}")

    def project(t: pa.Table) -> pa.Table:
        validate_corpus_schema(t.schema)
        return pa.table(
            {c: pc.cast(t[c], pa.string()) for c in CORPUS_COLUMNS}
        )

    if rows_hint is None and fmt == "parquet" and isinstance(paths, str):
        rows_hint = _parquet_rows(paths) if paths.endswith(".parquet") else None
    return ds.repartition(_parallel_blocks(rows_hint)).map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True
    )


def validate_corpus_schema(schema: pa.Schema) -> None:
    missing = [c for c in CORPUS_COLUMNS if c not in schema.names]
    if missing:
        raise ValueError(f"corpus is missing required columns: {missing}")


def sha256_hex_column(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Vector sha256 over a utf8 column (per-row C-speed hashlib)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pa.array(
        [hashlib.sha256((v or "").encode()).hexdigest() for v in col.to_pylist()],
        type=pa.string(),
    )


def n_bytes_column(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """utf8 byte length (twin of SQL octet_length(encode(content)))."""
    return pc.cast(pc.binary_length(pc.cast(col, pa.binary())), pa.int64())
