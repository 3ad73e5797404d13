"""Index-build job entrypoint for ``ray job submit`` (north_rule deployment
path; reference analog: the Celery index task chain, smse_backend/tasks.py).

On a real cluster:

    ray job submit --working-dir . -- \
        python scripts/build_job.py --input 's3://bucket/corpus/*.parquet' \
        --index-dir s3://bucket/index/v1

Locally (auto-inits a local Ray session):

    python scripts/build_job.py --input /root/testdata/sf0.001/documents.parquet \
        --index-dir /tmp/idx --from-documents

Passing individual parquet files (the expanded glob) enables per-partition
lineage in the catalog: a resubmitted job skips finished partitions
(pipelines/build.py resume path). Prints one JSON line of build metrics:
per stage its status, wall seconds and the manifest's stage metrics.
"""

from __future__ import annotations

import argparse
import glob as globmod
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _stage_report(rec: dict) -> dict:
    """One manifest stage record as printed: status, wall seconds (None
    while the stage has not completed) and the stage's own metrics."""
    done, start = rec.get("completed_at"), rec.get("started_at")
    return {
        "status": rec.get("status"),
        "wall_s": round(done - start, 3) if done is not None and start is not None else None,
        "metrics": rec.get("metrics", {}),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--input",
        required=True,
        help="parquet file, directory, or glob over corpus files with "
        "columns (repo, path, commit, lang, content)",
    )
    ap.add_argument(
        "--format",
        choices=["parquet", "csv", "jsonl"],
        default="parquet",
        help="corpus file format; csv/jsonl stream through "
        "sources.corpus.corpus_from_files (parquet keeps per-file "
        "resume lineage, interchange formats build as one dataset)",
    )
    ap.add_argument("--index-dir", required=True, help="index root (local path or any pyarrow.fs URI)")
    ap.add_argument("--n-shards", type=int, default=None)
    ap.add_argument("--batch-size", type=int, default=None)
    ap.add_argument("--no-resume", action="store_true", help="rebuild from scratch, ignore prior lineage")
    ap.add_argument(
        "--with-positions",
        action="store_true",
        help="build the positional column family (enables phrase/near "
        "queries and snippets; ~+40%% segment bytes)",
    )
    ap.add_argument(
        "--append",
        action="store_true",
        help="incrementally append the input to an EXISTING index as a new "
        "segment generation (pipelines/build.py append_index) instead of "
        "building from scratch; already-indexed doc_ids are skipped",
    )
    ap.add_argument(
        "--from-documents",
        action="store_true",
        help="input is a testdata documents table (doc_id/path/text/...) "
        "rather than a raw (repo,path,commit,lang,content) corpus",
    )
    args = ap.parse_args(argv)
    if args.append and (
        args.n_shards is not None
        or args.batch_size is not None
        or args.no_resume
        or args.with_positions
    ):
        # append inherits cfg from the existing index manifest; silently
        # ignoring these would let an operator believe they resharded
        ap.error(
            "--append is incompatible with --n-shards/--batch-size/"
            "--no-resume/--with-positions (cfg comes from the manifest)"
        )

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)

    from smse_backend_ray.config import EngineConfig
    from smse_backend_ray.pipelines.build import build_index

    cfg_kwargs = {}
    if args.n_shards is not None:
        cfg_kwargs["n_shards"] = args.n_shards
    if args.batch_size is not None:
        cfg_kwargs["batch_size"] = args.batch_size
    if args.with_positions:
        cfg_kwargs["with_positions"] = True
    cfg = EngineConfig(**cfg_kwargs)

    # corpus construction is shared by build and append: either a documents
    # sf-dir (derived corpus) or a parquet file/dir/glob of raw corpus files
    files: list[str] | None = None
    if args.from_documents:
        from smse_backend_ray.sources.corpus import corpus_from_documents

        sf_dir = args.input
        if os.path.isfile(sf_dir):
            sf_dir = os.path.dirname(sf_dir)

        def make_corpus():
            return corpus_from_documents(sf_dir)

    elif args.format == "parquet":
        files = sorted(globmod.glob(args.input)) or [args.input]

        def make_corpus():
            return ray.data.read_parquet(files)

    else:
        from smse_backend_ray.sources.corpus import corpus_from_files

        fmt_files = sorted(globmod.glob(args.input)) or [args.input]

        def make_corpus():
            return corpus_from_files(fmt_files, format=args.format)

    t0 = time.time()
    if args.append:
        from smse_backend_ray.pipelines.build import append_index

        cat = append_index(make_corpus(), args.index_dir)
    elif files is not None:
        # file mode keeps per-partition lineage (resume skips finished files)
        cat = build_index(
            input_files=files,
            index_dir=args.index_dir,
            cfg=cfg,
            resume=not args.no_resume,
        )
    else:
        cat = build_index(
            corpus=make_corpus(),
            index_dir=args.index_dir,
            cfg=cfg,
            resume=not args.no_resume,
        )
    stats = cat.get_stats()
    out = {
        "index_dir": str(args.index_dir),
        "build_sec": round(time.time() - t0, 3),
        "n_docs": stats.get("n_docs"),
        "avgdl": stats.get("avgdl"),
        "stages": {s: _stage_report(m) for s, m in cat.manifest().get("stages", {}).items()},
        "generations": sorted(int(g) for g in cat.generations()),
    }
    print(json.dumps(out))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
