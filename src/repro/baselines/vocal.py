"""VOCAL — QA-index baseline (§VII-A, [21][45][46]).

Builds a static index at ingest: a detector trained on the predefined
MSCOCO-ish label set runs over frames and the detections are stored in
a class → (frame, box, confidence) inverted index (the spatio-temporal
scene-graph index reduced to its object-label core, which is the part a
pure object query exercises).

At query time only the head class is looked up: attributes, relations
and unseen classes (e.g. "suv") are invisible to the index, so complex
queries return near-random rankings or nothing — the Table I / Fig. 6
behaviour ("nearly unable to recognize most of the queries").
"""
from __future__ import annotations

import time

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.baselines.base import Baseline
from repro.queries.workload import Query
from repro.vocab.vocabulary import MSCOCO_CLASSES, tag_name


class Vocal(Baseline):
    name = "vocal"

    def process(self, patches: DataFrame) -> float:
        t0 = time.perf_counter()
        cost = self.cost
        n_frames = patches.select("video_id", "frame_idx").distinct().count()
        cost.burn("detector_frame", n_frames)
        predefined = [f"class:{c}" for c in MSCOCO_CLASSES]
        dets = (
            patches.filter("is_object")
            .withColumn(
                "cls",
                F.array_join(
                    F.array_intersect("tags", F.array(*[F.lit(t) for t in predefined])),
                    ",",
                ),
            )
            .filter(F.col("cls") != "")
            .select("cls", "video_id", "frame_idx", "track_id", "bbox", "patch_id")
        )
        # detector confidence: deterministic pseudo-random per patch
        dets = dets.withColumn(
            "score", F.pmod(F.xxhash64("patch_id"), F.lit(10000)) / 10000.0
        )
        self.index = dets.persist()
        self.index.count()
        self.processing_time = time.perf_counter() - t0
        return self.processing_time

    def search(self, query: Query) -> DataFrame | None:
        head = query.class_tags[0] if query.class_tags else None
        if head is None or tag_name(head) not in MSCOCO_CLASSES:
            return None  # unseen class: the static index cannot answer
        return self.index.filter(F.col("cls").contains(head)).select(
            "video_id", "frame_idx", "bbox", "score"
        )
