"""ZELDA — vision-based baseline (§VII-A, [44]).

Uses a CLIP-style model: every frame gets one *global* embedding at
ingest, and queries are answered by a brute-force cosine scan over
frame embeddings. Global pooling means (a) the embedding is dominated
by large/salient objects — small-object detail washes out, and the
returned box is the frame's most salient (largest) object ("identified
the largest but incomplete object", Fig. 7); (b) relations are poorly
grounded (CLIP's known weakness, §VIII), modelled with a low relation
weight in the query embedding.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from repro.baselines.base import Baseline
from repro.queries.workload import Query
from repro.vocab.encoders import CoarseTextEncoder, perceived_track_tags
from repro.vocab.vocabulary import Vocabulary

FRAME_SCHEMA = T.StructType(
    [
        T.StructField("video_id", T.IntegerType()),
        T.StructField("frame_idx", T.IntegerType()),
        T.StructField("embedding", T.ArrayType(T.DoubleType())),
        T.StructField("big_bbox", T.ArrayType(T.DoubleType())),
    ]
)


def frame_features(
    patches: DataFrame, cfg, cost, *, cost_field: str, noise_scale: float = 1.0
) -> DataFrame:
    """Global per-frame embeddings: area-weighted tag sums + noise.

    The largest object's box is carried along as the frame's salient
    region (what a global model can localise).
    """

    def _enc(key, pdf):
        vocab = Vocabulary(dim=cfg.dim, seed=cfg.vocab_seed)
        cost.burn(cost_field, 1.0)
        acc = np.zeros(cfg.dim)
        big_box, big_area = None, -1.0
        for is_obj, track_id, tags, bbox in zip(
            pdf["is_object"], pdf["track_id"], pdf["tags"], pdf["bbox"]
        ):
            if not is_obj:
                continue
            area = (bbox[2] - bbox[0]) * (bbox[3] - bbox[1])
            seen = perceived_track_tags(
                list(tags), seed=cfg.seed, track_id=int(track_id),
                dropout=cfg.attr_dropout, rel_dropout=cfg.rel_dropout,
            )
            for t in seen:
                acc += area * vocab.vec(t)
            if area > big_area:
                big_area, big_box = area, list(bbox)
        if big_box is None:  # empty frame: background only
            bg = [t for t in pdf["tags"].iloc[0]]
            for t in bg:
                acc += 0.01 * vocab.vec(t)
            big_box = [0.0, 0.0, 1.0, 1.0]
        n = np.linalg.norm(acc)
        if n > 0:
            acc = acc / n
        rng = np.random.default_rng([cfg.seed, 7, int(key[0]), int(key[1])])
        d = rng.standard_normal(cfg.dim)
        d *= noise_scale * cfg.visual_noise / max(np.linalg.norm(d), 1e-12)
        acc = acc + d
        acc /= max(np.linalg.norm(acc), 1e-12)
        return pd.DataFrame(
            {
                "video_id": [int(key[0])],
                "frame_idx": [int(key[1])],
                "embedding": [list(acc)],
                "big_bbox": [big_box],
            }
        )

    return patches.groupBy("video_id", "frame_idx").applyInPandas(
        _enc, schema=FRAME_SCHEMA
    )


class Zelda(Baseline):
    name = "zelda"

    def process(self, patches: DataFrame) -> float:
        t0 = time.perf_counter()
        self.frames = frame_features(
            patches, self.cfg, self.cost, cost_field="zelda_encode_frame"
        ).persist()
        self.frames.count()
        self.processing_time = time.perf_counter() - t0
        return self.processing_time

    def search(self, query: Query) -> DataFrame:
        enc = CoarseTextEncoder(self.vocab, rel_weight=0.3)
        q = enc.encode(list(query.tags))
        bq = self.spark.sparkContext.broadcast(q)

        def _score(batches):
            for pdf in batches:
                if not len(pdf):
                    continue
                X = np.stack(pdf["embedding"].to_numpy())
                yield pd.DataFrame(
                    {
                        "video_id": pdf["video_id"],
                        "frame_idx": pdf["frame_idx"],
                        "bbox": pdf["big_bbox"],
                        "score": X @ bq.value,
                    }
                )

        schema = "video_id int, frame_idx int, bbox array<double>, score double"
        return self.frames.mapInPandas(_score, schema=schema)
