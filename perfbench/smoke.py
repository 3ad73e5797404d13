"""Tiny-size smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json on a small corpus with tracing off and
on, and checks that each run passes its oracle checks and emits exactly the
metrics BENCHMARK.json names, each with its unit. Then checks that the
benchmark fails, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's files (no engine to import).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMALL = ["--seconds", "1", "--docs", "600", "--zipf-queries", "100"]


def run(command: list[str], cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = command + ["--workload", workload, "--seed", "3", "--trace", str(trace)]
    return subprocess.run(cmd + SMALL, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p = run(spec["command"], ROOT, w["name"], trace)
            where = f"{w['name']} --trace {trace}"
            if p.returncode != 0:
                problems.append(f"{where}: exit {p.returncode}\n{p.stderr[-3000:]}")
                continue
            r = json.loads(p.stdout.strip().splitlines()[-1])
            if set(r) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(r)}")
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                problems.append(f"{where}: correct={r['correct']} failed={r['failed']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ: missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units "
                                f"{sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
            bad = [k for k, v in r["metrics"].items() if not isinstance(v["value"], (int, float))]
            if bad:
                problems.append(f"{where}: non-numeric values {bad}")
            print(f"ok {where}: {len(got)} metrics", flush=True)

    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for d in spec["paths"]:
        shutil.copytree(ROOT / d, bare / d, ignore=shutil.ignore_patterns("__pycache__"))
    p = run(spec["command"], bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        problems.append(f"bare checkout: exit {p.returncode}, stdout {p.stdout[-200:]!r}")
    else:
        print("ok bare checkout fails without a result")

    for msg in problems:
        print("FAIL", msg, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
