"""UMT — end-to-end moment-retrieval baseline (§VII-A, [39]).

Ingest is cheap (light clip-level features: mean of frame embeddings
per fixed-length clip) but *search* runs the full multi-modal
transformer over every clip for every query — the inverse cost profile
of LOVO (Table III: UMT processing 17–44 s, search 55–122 s). The
query-time pass is executed on a single partition: one model instance
processes the clip sequence, like one GPU would.

Retrieval is moment-level: the answer is a clip, localised only to the
most salient object of the clip's representative frame — which is why
UMT "faces challenges when searching for small objects within frames".
A training-domain bias penalises non-daily-life footage.
"""
from __future__ import annotations

import time

import zlib

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.baselines.base import Baseline
from repro.baselines.zelda import frame_features
from repro.queries.workload import Query


class Umt(Baseline):
    name = "umt"
    clip_len = 8  # frames per clip (a "moment" unit)

    def __init__(self, spark, cfg=None, *, daily_life: bool = False):
        super().__init__(spark, cfg)
        self.daily_life = daily_life

    def process(self, patches: DataFrame) -> float:
        t0 = time.perf_counter()
        frames = frame_features(
            patches, self.cfg, self.cost, cost_field="umt_encode_frame"
        )
        # clip features: mean of member-frame embeddings + the clip's
        # most salient box (largest area across member frames)
        clips = (
            frames.withColumn("clip_idx", (F.col("frame_idx") / self.clip_len).cast("int"))
            .groupBy("video_id", "clip_idx")
            .agg(
                F.collect_list("embedding").alias("embs"),
                F.collect_list("frame_idx").alias("fids"),
                F.collect_list("big_bbox").alias("boxes"),
            )
        )
        self.clips = clips.persist()
        self.clips.count()
        self.processing_time = time.perf_counter() - t0
        return self.processing_time

    def search(self, query: Query) -> DataFrame:
        q = self.vocab.embed_tags(list(query.tags))
        cost = self.cost
        daily = self.daily_life
        seed = self.cfg.seed
        bq = self.spark.sparkContext.broadcast(q)
        qsalt = zlib.crc32(query.qid.encode())

        def _attend(batches):
            for pdf in batches:
                if not len(pdf):
                    continue
                cost.burn("umt_search_clip", len(pdf))
                out = []
                for vid, cid, embs, fids, boxes in zip(
                    pdf["video_id"], pdf["clip_idx"], pdf["embs"], pdf["fids"], pdf["boxes"]
                ):
                    X = np.stack([np.asarray(e) for e in embs])
                    sims = X @ bq.value
                    best = int(np.argmax(sims))
                    rng = np.random.default_rng([seed, qsalt, int(vid), int(cid)])
                    # domain bias: the model was trained on daily-life
                    # footage; out of domain its scores get noisy
                    score = float(sims[best]) + (0.05 if daily else 0.30) * rng.standard_normal()
                    out.append((int(vid), int(fids[best]), list(boxes[best]), score))
                yield pd.DataFrame(out, columns=["video_id", "frame_idx", "bbox", "score"])

        schema = "video_id int, frame_idx int, bbox array<double>, score double"
        # one transformer instance = one GPU
        return self.clips.coalesce(1).mapInPandas(_attend, schema=schema)
