"""MIRIS — QD-search baseline (§VII-A, [24]).

Object-track queries driven by per-query planning: before the scan,
MIRIS tunes/trains its detector for the query (the paper attributes its
dominant cost to "manual plan and model parameter adjustments" — a large
fixed per-query setup burn here), then traverses the entire video with
the tuned tracker. The detector matches classes and, imperfectly,
appearance attributes; relations are out of vocabulary.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.baselines.base import Baseline
from repro.baselines.qdscan import qd_scan
from repro.queries.workload import Query


class Miris(Baseline):
    name = "miris"

    def search(self, query: Query) -> DataFrame:
        self.cost.burn("detector_setup", 1.0)  # per-query plan + tuning
        return qd_scan(
            self.patches,
            query,
            self.cost,
            cost_field="detector_frame",
            p_det=0.85,
            attr_recall=0.7,
            seed=self.cfg.seed,
        )
