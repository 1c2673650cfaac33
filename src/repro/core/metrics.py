"""Query results and evaluation metrics: IoU and Average Precision (§VII-A).

``QueryResult`` is the one result type every system returns — LOVO and
the six baselines alike — and ``top_k`` is the one path that turns a
scored DataFrame into its ranked ``RankedResult`` list.

A retrieved box is a positive match when its intersection-over-union
with a ground-truth box exceeds 0.5 (MSCOCO convention); AveP is the
area under the precision–recall curve computed over the ranked result
list, i.e. the mean of precision@rank over true-positive ranks, divided
by the number of ground-truth objects.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from pyspark.sql import DataFrame, Row
from pyspark.sql import functions as F


@dataclass(frozen=True)
class RankedResult:
    """One retrieved detection: frame identity, predicted box, score."""

    video_id: int
    frame_idx: int
    bbox: tuple[float, float, float, float]
    score: float


@dataclass
class QueryResult:
    """Ranked detections plus per-phase latency for one query.

    A single-stage system (every baseline, LOVO without rerank) reports
    all of its search time as ``fast_time``.
    """

    qid: str
    results: list[RankedResult]
    fast_time: float
    rerank_time: float = 0.0

    @property
    def search_time(self) -> float:
        return self.fast_time + self.rerank_time


def to_ranked(
    rows: Iterable[Row], *, score: str = "score", bbox: str = "bbox"
) -> list[RankedResult]:
    """Collected ``video_id, frame_idx, <bbox>, <score>`` rows → results."""
    return [
        RankedResult(r["video_id"], r["frame_idx"], tuple(r[bbox]), float(r[score]))
        for r in rows
    ]


def top_k(scored: DataFrame, k: int, *, score: str = "score") -> list[RankedResult]:
    """The ``k`` best rows of ``scored`` (``video_id, frame_idx, bbox, <score>``).

    Ties on ``score`` break by ``video_id`` then ``frame_idx``, not by
    how ``scored`` happens to be partitioned.
    """
    rows = (
        scored.orderBy(F.desc(score), F.asc("video_id"), F.asc("frame_idx"))
        .limit(k)
        .collect()
    )
    return to_ranked(rows, score=score)


@dataclass(frozen=True)
class EvalReport:
    """AveP plus the per-rank TP flags that produced it.

    ``tp_flags`` covers non-ignored ranks only; ``n_ignored`` counts
    re-detections of already-matched tracks (skipped, per detection-
    benchmark convention).
    """

    avep: float
    n_gt: int
    n_results: int
    tp_flags: tuple[bool, ...]
    n_ignored: int = 0

    @property
    def recall(self) -> float:
        return sum(self.tp_flags) / self.n_gt if self.n_gt else 0.0


def iou(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection-over-union of two ``[x1, y1, x2, y2]`` boxes."""
    ix1, iy1 = max(a[0], b[0]), max(a[1], b[1])
    ix2, iy2 = min(a[2], b[2]), min(a[3], b[3])
    iw, ih = max(0.0, ix2 - ix1), max(0.0, iy2 - iy1)
    inter = iw * ih
    area_a = max(0.0, a[2] - a[0]) * max(0.0, a[3] - a[1])
    area_b = max(0.0, b[2] - b[0]) * max(0.0, b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def average_precision(is_positive: Sequence[bool], n_gt: int) -> float:
    """AP of a ranked list given per-rank TP flags and the GT count.

    ``is_positive[i]`` says whether the result at rank ``i`` (0-based)
    was a true positive. AP = Σ_TP precision@rank / n_gt. Returns 0.0
    when there is no ground truth.
    """
    if n_gt <= 0:
        return 0.0
    tp = 0
    ap = 0.0
    for i, pos in enumerate(is_positive):
        if pos:
            tp += 1
            ap += tp / (i + 1)
    return ap / n_gt
