"""Exact ground truth and AveP scoring for workload queries.

Ground-truth semantics: an object *track* matches a query iff its tag
set is a superset of the query's tags (class + attributes + relations).
A retrieved ``(video, frame, bbox)`` at some rank is a true positive
when that frame contains a not-yet-matched ground-truth track whose box
has IoU > 0.5 with the retrieved box. A re-retrieval of an already
matched track is ignored, neither true nor false positive (standard
detection-benchmark rule for re-detections: an object persists across
key frames), so AveP counts each true object once, as in §VII-A where
the top 10×|GT| results are scored against labelled tracks.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.metrics import EvalReport, RankedResult, average_precision, iou
from repro.queries.workload import Query


def matches_query_expr(query: Query, tags_col: str = "tags"):
    """Spark Column: does ``tags_col`` (array) contain all query tags?"""
    q = list(query.tags)
    return F.size(F.array_intersect(F.col(tags_col), F.array(*[F.lit(t) for t in q]))) == len(q)


def gt_tracks(patches: DataFrame, query: Query) -> set[int]:
    """Distinct track ids matching ``query`` over the *whole* dataset."""
    rows = (
        patches.filter("is_object")
        .filter(matches_query_expr(query))
        .select("track_id")
        .distinct()
        .collect()
    )
    return {r["track_id"] for r in rows}


def gt_objects_pdf(patches: DataFrame, query: Query) -> pd.DataFrame:
    """Per-frame GT instances for ``query``: (video_id, frame_idx, track_id, bbox)."""
    return (
        patches.filter("is_object")
        .filter(matches_query_expr(query))
        .select("video_id", "frame_idx", "track_id", "bbox")
        .toPandas()
    )


def evaluate_ranking(
    results: list[RankedResult], gt_pdf: pd.DataFrame, *, iou_thresh: float = 0.5
) -> EvalReport:
    """Score a ranked result list against ground-truth instances.

    ``gt_pdf`` is the output of :func:`gt_objects_pdf`. Results must
    already be sorted by descending score (ties broken upstream).

    Matching rule per rank: a result is a **TP** when its frame contains
    a not-yet-matched GT track whose box overlaps at IoU > 0.5; it is
    **ignored** (neither TP nor FP, standard detection-benchmark
    semantics for re-detections) when the only overlap is with a track
    already matched at a better rank — a video object persists across
    key frames, so re-retrieving it is correct behaviour, not an error;
    anything else (wrong frame, or wrong box in a right frame) is a
    **FP**. AveP = Σ_TP precision@rank / n_gt over non-ignored ranks,
    with n_gt the number of distinct matching tracks.
    """
    n_gt = int(gt_pdf["track_id"].nunique()) if len(gt_pdf) else 0
    by_frame: dict[tuple[int, int], list[tuple[int, list[float]]]] = {}
    for _, r in gt_pdf.iterrows():
        by_frame.setdefault((int(r["video_id"]), int(r["frame_idx"])), []).append(
            (int(r["track_id"]), list(r["bbox"]))
        )
    matched: set[int] = set()
    flags: list[bool] = []
    n_ignored = 0
    for res in results:
        hit = False
        dup = False
        for track_id, box in by_frame.get((res.video_id, res.frame_idx), []):
            if iou(res.bbox, box) > iou_thresh:
                if track_id in matched:
                    dup = True
                else:
                    matched.add(track_id)
                    hit = True
                    break
        if hit:
            flags.append(True)
        elif dup:
            n_ignored += 1  # re-detection of an already-found object
        else:
            flags.append(False)
    return EvalReport(
        avep=average_precision(flags, n_gt),
        n_gt=n_gt,
        n_results=len(results),
        tp_flags=tuple(flags),
        n_ignored=n_ignored,
    )
