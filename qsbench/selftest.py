"""Smoke test of the benchmark: one short run per workload and mode.

    python3 qsbench/selftest.py [WORKLOAD ...]

Run from the repository root.  Each run gets --seconds 1, so it makes one
op (one untraced and two traced ops with --trace 1).  The test checks the
result line's keys, that the run is correct, and that every metric of
BENCHMARK.json for that mode is emitted with its unit.  It then checks
that the benchmark refuses to run, with a nonzero exit and no result, in
a directory holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{where}: metrics differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{where}: {name} unit {entry.get('unit')!r} != {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
    return problems


def check_refuses_without_source() -> list[str]:
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".selftest-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns(".selftest-*", "traces"))
        proc = run(bare, BENCH["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    names = sys.argv[1:] or [w["name"] for w in BENCH["workloads"]]
    problems = check_refuses_without_source()
    for workload in names:
        for trace in (0, 1):
            found = check_result(workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
