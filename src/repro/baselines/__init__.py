"""Baseline systems from the paper's evaluation (§VII-A).

Each baseline is implemented over the same synthetic video substrate
and the same calibrated cost model, preserving the property the paper
contrasts: which query vocabulary it can answer (Table I) and where its
compute sits — index time vs. query time (Table III, Fig. 8).

* VOCAL  — QA-index: class-label inverted index over predefined classes.
* MIRIS  — QD-search: per-query detector tuning + full video scan.
* FiGO   — QD-search: detector cascade (cheap filter, accurate verify).
* ZELDA  — vision-based: CLIP-style global frame embeddings + BF scan.
* UMT    — end-to-end moment retrieval: clip features + heavy query-time
           attention.
* VISA   — LLM-based reasoning segmentation: sequential per-frame pass.
"""
from repro.baselines.base import Baseline
from repro.baselines.vocal import Vocal
from repro.baselines.miris import Miris
from repro.baselines.figo import Figo
from repro.baselines.zelda import Zelda
from repro.baselines.umt import Umt
from repro.baselines.visa import Visa

__all__ = [
    "Baseline",
    "Vocal",
    "Miris",
    "Figo",
    "Zelda",
    "Umt",
    "Visa",
]
