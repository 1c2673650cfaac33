"""Per-job-group task statistics from a Spark event log.

The traced run enables ``spark.eventLog`` and runs each replayed step
under its own Spark job group. Once the session has stopped, the log is
complete and this module folds it into one record per job group: the
jobs it launched (with their submit/complete times, for the driver-only
share of a span), the tasks they ran, executor run time, time tasks
waited (scheduler delay + deserialisation) and failed tasks.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class GroupStats:
    """Spark work attributed to one job group."""

    jobs: int = 0
    tasks: int = 0
    failed_tasks: int = 0
    task_run_s: float = 0.0
    task_wait_s: float = 0.0
    job_spans: list[tuple[float, float]] = field(default_factory=list)

    def covered_s(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] during which at least one job was running."""
        clipped = sorted(
            (max(a, t0), min(b, t1)) for a, b in self.job_spans if b > t0 and a < t1
        )
        total, end = 0.0, t0
        for a, b in clipped:
            a = max(a, end)
            if b > a:
                total += b - a
                end = b
        return total


def _task_wait_s(info: dict, metrics: dict) -> float:
    """Scheduler delay + deserialisation, as the Spark UI derives them."""
    duration = info.get("Finish Time", 0) - info.get("Launch Time", 0)
    run = metrics.get("Executor Run Time", 0)
    deser = metrics.get("Executor Deserialize Time", 0)
    result_ser = metrics.get("Result Serialization Time", 0)
    getting = (
        info.get("Finish Time", 0) - info["Getting Result Time"]
        if info.get("Getting Result Time")
        else 0
    )
    delay = max(0, duration - run - deser - result_ser - getting)
    return (delay + deser) / 1000.0


def parse_event_log(path: Path) -> dict[str, GroupStats]:
    """Fold one uncompressed event log into ``{job group id: GroupStats}``.

    Jobs without a job group are collected under ``""``.
    """
    job_group: dict[int, str] = {}
    job_submit: dict[int, float] = {}
    stage_job: dict[int, int] = {}
    groups: dict[str, GroupStats] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            ev = json.loads(line)
            kind = ev.get("Event")
            if kind == "SparkListenerJobStart":
                jid = ev["Job ID"]
                group = (ev.get("Properties") or {}).get("spark.jobGroup.id") or ""
                job_group[jid] = group
                job_submit[jid] = ev["Submission Time"] / 1000.0
                for sid in ev.get("Stage IDs", []):
                    stage_job.setdefault(sid, jid)
                groups.setdefault(group, GroupStats()).jobs += 1
            elif kind == "SparkListenerJobEnd":
                jid = ev["Job ID"]
                if jid in job_group:
                    groups[job_group[jid]].job_spans.append(
                        (job_submit[jid], ev["Completion Time"] / 1000.0)
                    )
            elif kind == "SparkListenerTaskEnd":
                jid = stage_job.get(ev["Stage ID"])
                if jid is None:
                    continue
                g = groups[job_group[jid]]
                info = ev.get("Task Info", {})
                metrics = ev.get("Task Metrics") or {}
                g.tasks += 1
                reason = (ev.get("Task End Reason") or {}).get("Reason", "Success")
                if info.get("Failed") or info.get("Killed") or reason != "Success":
                    g.failed_tasks += 1
                g.task_run_s += metrics.get("Executor Run Time", 0) / 1000.0
                g.task_wait_s += _task_wait_s(info, metrics)
    return groups


def find_event_log(directory: Path) -> Path:
    """The single finished application log the traced run wrote."""
    logs = [p for p in directory.iterdir() if p.is_file() and not p.name.endswith(".inprogress")]
    if len(logs) != 1:
        raise RuntimeError(f"expected one finished event log in {directory}, found {logs}")
    return logs[0]
