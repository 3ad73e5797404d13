"""Search job entrypoint for ``ray job submit`` (north_rule deployment path;
reference analog: POST /api/search, smse_backend/routes/search.py).

On a real cluster:

    ray job submit --working-dir . -- \
        python scripts/search_job.py --index-dir s3://bucket/index/v1 \
        --query "hash join table" --limit 10

Locally:

    python scripts/search_job.py --index-dir /tmp/idx -q "binary search tree"

Accepts repeated -q/--query flags or --queries-file (one query per line);
prints one JSON line per result row. --bulk routes through the offline
path (pipelines/bulk_search.py): the same serving engine fed in chunks of
queries, with the same results (tested), and with --output it writes the
results as parquet parts instead of printing them — right for millions of
queries.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--index-dir", required=True)
    ap.add_argument("-q", "--query", action="append", default=[], help="query text (repeatable)")
    ap.add_argument("--queries-file", help="file with one query per line")
    ap.add_argument("--limit", type=int, default=10)
    ap.add_argument("--scope", default="", help="repo/path prefix filter")
    ap.add_argument("--threshold", type=float, default=None, help="minimum rounded score")
    ap.add_argument(
        "--mode", choices=["or", "and", "phrase", "near"], default="or",
        help="query mode (phrase/near need a with_positions build)",
    )
    ap.add_argument("--slop", type=int, default=None, help="near-mode window span")
    ap.add_argument(
        "--exclude", action="append", default=[],
        help="boolean-NOT term(s); repeatable, analyzed like query text",
    )
    ap.add_argument(
        "--facets", action="store_true",
        help="also print repo/lang facet counts over the full match set",
    )
    ap.add_argument(
        "--snippets", action="store_true",
        help="also print kept-token snippets (needs a with_positions build)",
    )
    ap.add_argument("--bulk", action="store_true", help="use the offline chunked path")
    ap.add_argument(
        "--output",
        default=None,
        help="(bulk only) write results as one parquet part per query chunk "
        "to this directory (replacing what it held) instead of printing "
        "rows; prints the per-part manifest (fact-scale result sets must "
        "not funnel through the driver)",
    )
    ap.add_argument(
        "--num-actors",
        type=int,
        default=None,
        help="scorer actor count. When the actors fit "
        "SERVE_REPLICA_MEMORY_SHARE of Ray's memory as full replicas, each is "
        "one (one actor call per query; default: one per CPU, at most "
        "n_shards); otherwise shards pack into fewer actors (default: "
        "n_shards), and > n_shards spawns full replica sets for batch-serve "
        "throughput. --bulk ignores it: bulk_search packs one actor per shard",
    )
    args = ap.parse_args(argv)

    queries = list(args.query)
    if args.queries_file:
        with open(args.queries_file) as f:
            queries += [ln.strip() for ln in f if ln.strip()]
    if not queries:
        ap.error("no queries given (use -q or --queries-file)")

    if args.output and not args.bulk:
        ap.error("--output is a --bulk feature (the serving path prints rows)")
    if args.bulk and (args.facets or args.snippets):
        ap.error("--bulk does not print facets or snippets (serving-path features)")

    import ray

    # shut down only a Ray session this call started (a caller's stays up)
    own_ray = not ray.is_initialized()
    if own_ray:
        ray.init(address="local", include_dashboard=False)

    from smse_backend_ray.queryset import QuerySpec

    specs = [
        QuerySpec(
            query_id=i,
            parts=(q,),
            scope=args.scope,
            limit=args.limit,
            threshold=args.threshold,
            mode=args.mode,
            slop=args.slop,
            exclude=tuple(args.exclude),
        )
        for i, q in enumerate(queries)
    ]
    if args.bulk:
        from smse_backend_ray.pipelines.bulk_search import bulk_search

        if args.output:
            manifest = bulk_search(args.index_dir, specs, out_dir=args.output)
            for row in manifest.to_pylist():
                print(json.dumps({"output": args.output, **row}))
        else:
            out = bulk_search(args.index_dir, specs)
            for row in out.to_pylist():
                print(json.dumps({"query": queries[row["query_id"]], **row}, default=str))
    else:
        from smse_backend_ray.pipelines.search import SearchEngine

        with SearchEngine(args.index_dir, num_actors=args.num_actors) as eng:
            res = eng.search_batch(specs)  # one scatter/gather for the batch
            for row in res.to_pylist():
                print(json.dumps({"query": queries[row["query_id"]], **row}, default=str))
            if args.facets:
                for row in eng.facet_counts(specs).to_pylist():
                    print(json.dumps({"facet_row": True, **row}))
            if args.snippets:
                for row in eng.snippets(specs).to_pylist():
                    print(json.dumps({"snippet_row": True, **row}))
    if own_ray:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
