"""Shared baseline scaffolding."""
from __future__ import annotations

import time

from pyspark.sql import DataFrame, SparkSession

from repro.core.config import LOVOConfig
from repro.core.metrics import QueryResult, top_k
from repro.queries.workload import Query
from repro.vocab.encoders import CostModel
from repro.vocab.vocabulary import Vocabulary


class Baseline:
    """Interface all baselines implement.

    ``process`` is the offline/ingest phase (may be a no-op for pure
    QD-search systems) and returns its wall-clock seconds; ``search``
    scores one workload query, and ``query`` times it and ranks its
    top k. Baselines reuse LOVOConfig's noise parameters so every system
    perceives the same synthetic world, and its ``cost_scale`` so
    measured times are comparable.
    """

    name: str = "base"

    def __init__(self, spark: SparkSession, cfg: LOVOConfig | None = None):
        self.spark = spark
        self.cfg = cfg or LOVOConfig()
        self.vocab = Vocabulary(dim=self.cfg.dim, seed=self.cfg.vocab_seed)
        self.cost: CostModel = self.cfg.cost()
        self.processing_time: float = 0.0

    def process(self, patches: DataFrame) -> float:
        """Offline phase; default no-op (QD-search baselines)."""
        self.patches = patches
        return 0.0

    def search(self, query: Query) -> DataFrame | None:
        """Scored detections ``video_id, frame_idx, bbox, score``.

        ``None`` means the query is outside the system's vocabulary: it
        answers nothing and runs no Spark job.
        """
        raise NotImplementedError

    def query(self, query: Query, *, k: int = 50) -> QueryResult:
        """Time ``search`` and rank its ``k`` best detections.

        A baseline has a single stage, so all of its time is ``fast_time``.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        t0 = time.perf_counter()
        scored = self.search(query)
        results = [] if scored is None else top_k(scored, k)
        return QueryResult(query.qid, results, fast_time=time.perf_counter() - t0)
