from __future__ import annotations

import os
import time

from smse_backend_ray.state.catalog import Catalog, fingerprint_files


def test_gc_removes_old_query_files_and_tmp(tmp_path):
    idx = str(tmp_path / "idx")
    cat = Catalog(idx)
    qdir = os.path.join(idx, "querylog")
    os.makedirs(qdir)
    old = os.path.join(qdir, "q_old.parquet")
    new = os.path.join(qdir, "q_new.parquet")
    for f in (old, new):
        open(f, "w").write("x")
    past = time.time() - 48 * 3600
    os.utime(old, (past, past))
    os.makedirs(os.path.join(idx, "segments.tmp"))
    removed = cat.gc(max_age_hours=24)
    assert removed == {"query_files": 1, "tmp_dirs": 1, "unlisted_files": 0}
    assert not os.path.exists(old) and os.path.exists(new)
    assert not os.path.exists(os.path.join(idx, "segments.tmp"))


def test_fingerprint_changes_with_content(tmp_path):
    f = tmp_path / "a.parquet"
    f.write_bytes(b"aaa")
    fp1 = fingerprint_files([str(f)])
    f.write_bytes(b"bbbb")  # size change
    assert fingerprint_files([str(f)]) != fp1


def test_plan_partitions_requeues_on_fingerprint_change(tmp_path):
    f = tmp_path / "p.parquet"
    f.write_bytes(b"v1")
    idx = str(tmp_path / "idx")
    cat = Catalog(idx)
    assert cat.plan_partitions({0: [str(f)]}) == [0]
    cat.mark_partitions_done([0], {0: {"rows": 1}}, "out")
    # unchanged -> skipped
    assert cat.plan_partitions({0: [str(f)]}) == []
    # input changed -> requeued
    f.write_bytes(b"v2-longer")
    assert Catalog(idx).plan_partitions({0: [str(f)]}) == [0]


def test_resumed_stage_wall_time_excludes_downtime(tmp_path):
    """A driver crashes with a stage running; the restarted driver reopens
    the manifest, re-runs the stage and completes it. The recorded wall
    time covers the re-run only, not the downtime since the first start."""
    idx = str(tmp_path / "idx")
    Catalog(idx).mark_stage("segments", "running")
    downtime = 0.5
    time.sleep(downtime)  # the driver is down
    cat = Catalog(idx)  # restarted driver
    assert not cat.stage_done("segments")
    cat.mark_stage("segments", "running")
    cat.mark_stage("segments", "done")
    rec = Catalog(idx).manifest()["stages"]["segments"]
    assert rec["status"] == "done"
    assert rec["completed_at"] - rec["started_at"] < downtime / 2
