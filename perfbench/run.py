"""LOVO benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload query_small --seed 1 --seconds 5 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` also replays
the pipeline step by step under Spark job groups with the event log on,
and reports the per-layer metrics instead. The last line of standard
output is the result object; the line before it is a report with the
environment, corpus, per-metric sample counts and any failures. Metric
names and units come from ``BENCHMARK.json`` at the repository root.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"
HELD_OUT_SEED = 104729  # never run while the benchmark was tuned; re-check claims on it
DRIVER_MEMORY = "2g"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sf", type=float, default=None, help="override the corpus scale (self-check only)")
    return p.parse_args(argv)


def _cores() -> int:
    return min(4, len(os.sched_getaffinity(0)))


def _configure_spark_env(run_dir: Path, trace: bool) -> dict:
    """Environment for the Spark JVM and its Python workers, before launch.

    Session settings are ``jobs/common.get_spark``'s; the benchmark fixes
    the master and sets its shuffle-partition knob to the core count.
    Every scratch file Spark or Python writes stays under ``run_dir``.
    """
    cores = _cores()
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    os.environ["SPARK_SHUFFLE_PARTITIONS"] = str(cores)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ.pop("SPARK_LOCAL_DIRS", None)
    confs = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.local.dir": str(tmp),
        "spark.sql.warehouse.dir": str(run_dir / "warehouse"),
        "spark.driver.extraJavaOptions": f"-Djava.io.tmpdir={tmp} -Dderby.system.home={run_dir}",
    }
    if trace:
        events = run_dir / "events"
        events.mkdir()
        confs.update({
            "spark.eventLog.enabled": "true",
            "spark.eventLog.dir": events.as_uri(),
            "spark.eventLog.compress": "false",
            "spark.eventLog.rolling.enabled": "false",
        })
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [f"--master local[{cores}]", f"--driver-memory {DRIVER_MEMORY}"]
        + [f"--conf {shlex.quote(f'{k}={v}')}" for k, v in confs.items()]
        + ["pyspark-shell"]
    )
    return {"master": f"local[{cores}]", "shuffle_partitions": cores, "nproc": os.cpu_count()}


def _git_sha() -> str | None:
    """HEAD's sha when the checkout is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    """sha256 over the program's Python sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*.py")) + list((ROOT / "jobs").glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=60)
    SparkContext._gateway = None
    SparkContext._jvm = None


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args, run_dir: Path) -> tuple[dict, dict]:
    """One benchmark run, with its scratch files under ``run_dir``; returns (report, result)."""
    spec = load_spec()
    env = _configure_spark_env(run_dir, bool(args.trace))

    import pyarrow
    import pyspark
    from common import get_spark

    import workload as W

    wl = W.WORKLOADS[args.workload]
    if args.sf is not None:
        wl = W.Workload(wl.name, wl.dataset, args.sf, wl.qids)
    tally = W.Tally()
    phases = {}
    mark = time.perf_counter()

    def phase(name):
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    spark = get_spark("perfbench")
    phase("spark_start")
    try:
        # a traced run reports no set-up time, so it sets up once
        s = W.set_up(spark, wl, args.seed, tally, reps=1 if args.trace else W.SETUP_REPS)
        phase("set_up")
        truth = W.make_truth(s.lovo, s.patches, wl)
        phase("truth")
        timed = W.run_timed(s, truth, wl, args.seconds, tally)
        phase("timed")
        metrics, samples = _end_to_end(W, s, truth, timed, wl)
        if args.trace:
            import replay as R

            tracer = R.Tracer(spark.sparkContext)
            R.replay_queries(tracer, spark, s.lovo, truth, wl.qids, timed.answers, tally)
            # release the served index first: a persist of an identical plan
            # would reuse its cached tables and skip the work being traced
            s.lovo.close()
            tally.check(W.released(spark, s.base_bytes), "close() left index storage behind")
            R.replay_build(tracer, s.patches, s.lovo, s.corpus, tally)
            overhead = statistics.median(R.traced_query_s(tracer)) - statistics.median(
                timed.latencies["query"]
            )
            phase("replay")
        W.tear_down(spark, s, tally)
    finally:
        _stop_spark(spark)
    phase("tear_down")
    if args.trace:
        from eventlog import find_event_log, parse_event_log

        groups = parse_event_log(find_event_log(run_dir / "events"))
        metrics = R.layer_metrics(tracer, groups)
        metrics["tracing.overhead_s"] = overhead
        samples = {}
        listed = spec["per_layer"]
    else:
        listed = spec["end_to_end"]

    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "corpus": s.corpus,
        "k": truth.k,
        "phases_s": phases,
        "set_ups": {"setup_s": s.setup_s, "build_s": s.build_s, "index_bytes": s.index_bytes},
        "client": "closed loop, 1 client",
        "rounds": timed.rounds,
        "timed_wall_s": timed.wall_s,
        "latencies_s": timed.latencies,
        "error_rate": len(tally.errors) / tally.attempted,
        "errors": tally.errors,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"], "better": m["better"],
                        "n": samples.get(m["name"], 1)}
            for m in listed
        },
        "env": {
            **env,
            "git_sha": _git_sha(),
            "source_sha256": _source_digest(),
            "spark": pyspark.__version__,
            "pyarrow": pyarrow.__version__,
            "python": platform.python_version(),
            "driver_memory": DRIVER_MEMORY,
            "cost_scale": s.lovo.cfg.cost_scale,
        },
    }
    return report, result


def _end_to_end(W, s, truth, timed, wl) -> tuple[dict, dict]:
    lat = timed.latencies
    n_ops = sum(len(v) for v in lat.values())
    qids = [qid for qid in wl.qids if ("query", qid) in timed.answers]
    metrics = {
        "setup_s": statistics.median(s.setup_s),
        "query_p50_s": statistics.median(lat["query"]),
        "bf_p50_s": statistics.median(lat["bf"]),
        "qps": n_ops / timed.wall_s,
        "query_avep": W.mean_avep(timed.answers, truth, "query", qids),
        "index_mb": s.index_bytes[-1] / 2**20,
    }
    samples = {
        "setup_s": len(s.setup_s),
        "query_p50_s": len(lat["query"]),
        "bf_p50_s": len(lat["bf"]),
        "qps": n_ops,
        "query_avep": len(qids),
        "index_mb": 1,
    }
    return metrics, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.dont_write_bytecode = True
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "jobs" / "common.py").is_file():
        print(f"perfbench: no LOVO sources under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "jobs")]
    import workload

    if args.workload not in workload.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick from {sorted(workload.WORKLOADS)}",
              file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        report, result = run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(report, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
