"""scripts/search_job.py: --bulk prints the serving path's rows for every
spec field the CLI sets, and --bulk --output replaces its output dir."""

from __future__ import annotations

import importlib.util
import json
import os
import shutil

import pytest

from smse_backend_ray.config import EngineConfig
from smse_backend_ray.pipelines.build import build_index
from smse_backend_ray.sources.corpus import corpus_from_documents

_spec = importlib.util.spec_from_file_location(
    "search_job", os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "search_job.py")
)
_job = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_job)
main = _job.main

IDX = "/tmp/smse_test_search_job_idx"
BULK_KEYS = ("query", "query_id", "rank", "doc_id", "score", "exact_score")


@pytest.fixture(scope="module")
def job_idx(ray_session, sf_dir):
    shutil.rmtree(IDX, ignore_errors=True)
    build_index(
        corpus=corpus_from_documents(sf_dir),
        index_dir=IDX,
        cfg=EngineConfig(n_shards=3, with_positions=True),
    )
    return IDX


def _run(capsys, *argv) -> list[dict]:
    assert main(list(argv)) == 0
    return [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]


@pytest.mark.parametrize(
    "flags",
    [
        ("--scope", "src3", "--limit", "5"),
        ("--scope", "src7", "--threshold", "0.5"),
        ("--mode", "near", "--slop", "3"),
        ("--mode", "phrase"),
    ],
)
def test_bulk_prints_serve_rows(job_idx, capsys, flags):
    qs = ("-q", "hash key row", "-q", "table value", "-q", "sort merge")
    served = _run(capsys, "--index-dir", job_idx, *qs, *flags)
    bulk = _run(capsys, "--index-dir", job_idx, *qs, *flags, "--bulk")
    assert served
    want = sorted(
        ({k: r[k] for k in BULK_KEYS} for r in served),
        key=lambda r: (r["query_id"], r["rank"]),
    )
    assert bulk == want


def test_bulk_output_rerun_prints_equal_manifests(job_idx, capsys, tmp_path):
    out = str(tmp_path / "out")
    argv = ("--index-dir", job_idx, "-q", "hash join table", "-q", "sort merge",
            "--bulk", "--output", out)
    first = _run(capsys, *argv)
    second = _run(capsys, *argv)
    rows = _run(capsys, *argv[:-2])
    assert first == second == [
        {"output": out, "part": "part-00000.parquet", "n_rows": len(rows)}
    ]
    assert os.listdir(out) == ["part-00000.parquet"]


def test_bulk_refuses_facets(job_idx, capsys):
    with pytest.raises(SystemExit):
        main(["--index-dir", job_idx, "-q", "hash", "--bulk", "--facets"])
