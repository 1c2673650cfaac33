"""Quick self-check of the benchmark itself, at a tiny corpus scale.

Usage (from the repository root): ``python3 perfbench/selfcheck.py``

Checks that
* ``BENCHMARK.json`` has the expected shape;
* an untraced and a traced run of each workload exit 0, answer correctly
  and print exactly the metric names ``BENCHMARK.json`` lists;
* the event log attributes Spark jobs to the replayed steps: every Spark
  span ran jobs and tasks, and a two-stage query runs 12 jobs in
  ``search_ivfpq`` and 3 in ``rerank``, a BF search 5;
* without the program's sources the benchmark exits non-zero and prints
  no result.

Takes a few minutes; exits non-zero on the first failed check.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("query_small", "query_large")
TINY_SF = "0.1"
EXPECTED_JOBS = {"search_ivfpq.jobs": 12, "rerank.jobs": 3, "search_bf.jobs": 5}
SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def _run(cwd: Path, workload: str, trace: int, sf: str | None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    if sf is not None:
        cmd += ["--sf", sf]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _fail(msg: str, proc: subprocess.CompletedProcess | None = None) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    if proc is not None:
        print(proc.stderr[-3000:], file=sys.stderr)
    sys.exit(1)


def check_spec(spec: dict) -> None:
    if set(spec) != SPEC_KEYS:
        _fail(f"BENCHMARK.json keys {sorted(spec)} != {sorted(SPEC_KEYS)}")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)):
        _fail("metric names repeat")
    if not any(m["name"] == "setup_s" for m in spec["end_to_end"]):
        _fail("no setup_s metric")
    if any(not 0 < m["bound"] <= 0.25 for m in spec["end_to_end"]):
        _fail("an end-to-end bound is outside (0, 0.25]")


def check_run(spec: dict, workload: str, trace: int) -> dict:
    proc = _run(ROOT, workload, trace, TINY_SF)
    if proc.returncode != 0:
        _fail(f"{workload} trace={trace} exited {proc.returncode}", proc)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        _fail(f"{workload} trace={trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        report = json.loads(proc.stdout.strip().splitlines()[-2])
        _fail(f"{workload} trace={trace}: incorrect answers: {report['errors']}")
    listed = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        _fail(f"{workload} trace={trace}: printed metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    print(f"ok: {workload} trace={trace} ({result['attempted']} ops)")
    return result["metrics"]


def check_attribution(metrics: dict, workload: str) -> None:
    for name, n in EXPECTED_JOBS.items():
        if metrics[name]["value"] != n:
            _fail(f"{workload}: {name} = {metrics[name]['value']}, expected {n}")
    spans = {name.rsplit(".", 1)[0] for name in metrics if name.endswith(".jobs")}
    for span in sorted(spans):
        if not (metrics[f"{span}.jobs"]["value"] > 0 and metrics[f"{span}.tasks"]["value"] > 0):
            _fail(f"{workload}: span {span} has no attributed jobs or tasks")
    print(f"ok: {workload} event-log attribution ({len(spans)} Spark spans)")


def check_without_sources(spec: dict) -> None:
    bare = ROOT / "perfbench" / ".work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = _run(bare, "query_small", 0, None)
        if proc.returncode == 0 or proc.stdout.strip():
            _fail("a run without the program's sources succeeded or printed a result", proc)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: fails without sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_without_sources(spec)
    check_run(spec, "query_small", 0)
    for workload in WORKLOADS:
        check_attribution(check_run(spec, workload, 1), workload)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
