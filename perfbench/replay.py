"""Traced replay: ``LOVO.build`` and ``LOVO.query`` step by step.

Each step calls the public function of one layer and runs under its own
Spark job group, so the event log attributes every job and task to it.
A span records the step's wall-clock interval and the rows it produced;
:func:`layer_metrics` joins spans with the event log's per-group stats.

Spans (layer):
  encode_query   vocab.encoders      LOVO.encode_query
  pq_lut         index.pq            PQQuantizer.coarse_lut + residual_lut
  search_ivfpq   index.search_ivfpq  search_ivfpq(...).collect()
  rerank         core.rerank         candidate-frame fetch, rerank_frames, sort/limit/collect
  search_bf      index.search_bf     search_bf(...).collect()
  search_hnsw    index.hnsw          search_hnsw(...).collect()
  hnsw_build     index.hnsw          build_hnsw_shards + persist + count
  summary        video.keyframe, core.summary
                                     select_keyframes + keyframe_patches + encode_patches
  pq_train       index.pq            training sample + train_quantizer
  index_store    index.ivf, index.store
                                     assign_components + VectorStore.cache
"""
from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import functions as F

from repro.core.metrics import RankedResult
from repro.core.rerank import rerank_frames
from repro.core.summary import encode_patches, keyframe_patches
from repro.index.hnsw import build_hnsw_shards, search_hnsw
from repro.index.ivf import assign_components
from repro.index.pq import train_quantizer
from repro.index.search_bf import search_bf
from repro.index.search_ivfpq import search_ivfpq
from repro.index.store import VectorStore
from repro.queries.workload import query_by_id
from repro.video.generator import frames_df
from repro.video.keyframe import select_keyframes

# spans that only run driver code report wall time alone
DRIVER_SPANS = ("encode_query", "pq_lut")
AUX_GROUP = "perfbench.aux"


@dataclass
class Span:
    """One replayed step; times are epoch seconds, the event log's clock."""

    name: str
    group: str
    t0: float
    t1: float = 0.0
    rows_out: int = 0


@dataclass
class Tracer:
    """Spans in memory; each span gets its own Spark job group."""

    sc: object
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, list[float]] = field(default_factory=dict)

    @contextmanager
    def span(self, name: str):
        sp = Span(name, f"{name}#{len(self.spans)}", time.time())
        self.sc.setJobGroup(sp.group, name)
        try:
            yield sp
        finally:
            sp.t1 = time.time()
            self.sc.setJobGroup(AUX_GROUP, "perfbench bookkeeping")
            self.spans.append(sp)

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(float(value))


def _ranked(rows, score_col: str, bbox_col: str) -> list[RankedResult]:
    return [
        RankedResult(video_id=r["video_id"], frame_idx=r["frame_idx"],
                     bbox=tuple(r[bbox_col]), score=float(r[score_col]))
        for r in rows
    ]


def replay_build(tr: Tracer, patches, lovo, corpus: dict, tally) -> None:
    """``LOVO.build`` + ``build_index`` step by step, checked against ``lovo``'s build."""
    cfg = lovo.cfg
    tally.attempted += 1
    with tr.span("summary") as sp:
        frames = frames_df(patches)
        n_frames = frames.count()
        kfs = select_keyframes(frames, threshold=cfg.kf_threshold, interval=cfg.kf_interval)
        encoded = encode_patches(keyframe_patches(patches, kfs), cfg).persist()
        n_vectors = encoded.count()
        sp.rows_out = n_vectors
    with tr.span("pq_train") as sp:
        frac = min(1.0, cfg.train_sample / max(n_vectors, 1))
        emb = encoded.select("embedding")
        sample = (emb.sample(fraction=frac, seed=cfg.seed) if frac < 1.0 else emb).toPandas()
        quant = train_quantizer(
            np.stack(sample["embedding"].to_numpy()), n_subspaces=cfg.n_subspaces,
            k_coarse=cfg.k_coarse, k_residual=cfg.k_residual, seed=cfg.seed,
        )
        sp.rows_out = len(sample)
    with tr.span("index_store") as sp:
        store = VectorStore(
            components=assign_components(encoded, quant),
            vectors=encoded.select("patch_id", "embedding"),
            meta=encoded.drop("embedding"),
        ).cache()
        sp.rows_out = store.components.count()
    n_keyframes = encoded.select("video_id", "frame_idx").distinct().count()
    tr.count("summary.keyframe_frac", n_keyframes / n_frames)
    tr.count("index_store.vectors", n_vectors)
    tally.check(
        (n_vectors, n_keyframes) == (corpus["vectors"], corpus["keyframes"])
        and np.array_equal(quant.coarse, lovo.quant.coarse)
        and np.array_equal(quant.residual, lovo.quant.residual),
        "replayed build differs from LOVO.build in sizes or codebooks",
    )
    store.unpersist()
    encoded.unpersist()


def replay_queries(tr: Tracer, spark, lovo, truth, qids, answers, tally) -> None:
    """``LOVO.query`` (ivfpq + rerank, bf) and the HNSW variant, step by step.

    Replayed ``query`` and ``bf`` answers must equal the untraced answers.
    """
    cfg, store = lovo.cfg, lovo.store
    with tr.span("hnsw_build") as sp:
        shards = build_hnsw_shards(
            store.vectors, n_shards=cfg.hnsw_shards, m=cfg.hnsw_m,
            ef_construction=cfg.hnsw_ef, seed=cfg.seed,
        ).persist()
        sp.rows_out = shards.count()
    postings = {
        (r["p"], r["cluster"]): r["count"]
        for r in store.components.groupBy("p", "cluster").count().collect()
    }
    n_components = sum(postings.values())
    patches_per_frame: dict[tuple[int, int], int] = {}
    for vf in truth.frame_of.values():
        patches_per_frame[vf] = patches_per_frame.get(vf, 0) + 1
    for qid in qids:
        query, k = query_by_id(qid), truth.k[qid]
        exact = truth.exact_topk_ids(lovo.encode_query(query), k)
        with tr.span("encode_query"):
            q = lovo.encode_query(query)
        with tr.span("pq_lut"):
            clut = lovo.quant.coarse_lut(q)
            lovo.quant.residual_lut(q)
        a = min(cfg.top_a, clut.shape[1])
        visited = sum(
            postings.get((p, int(c)), 0) for p in range(clut.shape[0]) for c in np.argsort(-clut[p])[:a]
        )
        tr.count("search_ivfpq.postings_frac", visited / n_components)
        with tr.span("search_ivfpq") as sp:
            hits = search_ivfpq(store, lovo.quant, q, top_a=cfg.top_a, k=k, cost=cfg.cost()).collect()
            sp.rows_out = len(hits)
        tr.count("search_ivfpq.recall_at_k", len({r["patch_id"] for r in hits} & exact) / k)
        with tr.span("rerank") as sp:
            frames = sorted({(r["video_id"], r["frame_idx"]) for r in hits})
            cand = spark.createDataFrame(frames, "video_id int, frame_idx int")
            frame_patches = store.meta.join(F.broadcast(cand), ["video_id", "frame_idx"])
            ranked = (
                rerank_frames(frame_patches, query, cfg)
                .orderBy(F.desc("rerank_score"), F.asc("video_id"), F.asc("frame_idx"))
                .limit(cfg.n if cfg.n else len(frames))
                .collect()
            )
            sp.rows_out = len(ranked)
        tr.count("rerank.frames_in", len(frames))
        tr.count("rerank.patches_in", sum(patches_per_frame.get(f, 0) for f in frames))
        tally.attempted += 1
        tally.check(_ranked(ranked, "rerank_score", "bbox") == answers.get(("query", qid)),
                    f"replayed query {qid} differs from the untraced answer")
        with tr.span("search_bf") as sp:
            bf_hits = search_bf(store, q, k=k, cost=cfg.cost()).collect()
            sp.rows_out = len(bf_hits)
        tally.attempted += 1
        tally.check(_ranked(bf_hits, "score", "pred_bbox") == answers.get(("bf", qid)),
                    f"replayed bf {qid} differs from the untraced answer")
        with tr.span("search_hnsw") as sp:
            hh = search_hnsw(shards, store.meta, q, k=k, ef=cfg.hnsw_ef).collect()
            sp.rows_out = len(hh)
        tr.count("search_hnsw.recall_at_k", len({r["patch_id"] for r in hh} & exact) / k)
    shards.unpersist()


def traced_query_s(tr: Tracer) -> list[float]:
    """Per-query wall time of the replayed two-stage query (its four spans)."""
    steps = ("encode_query", "pq_lut", "search_ivfpq", "rerank")
    by_name = {n: [s.t1 - s.t0 for s in tr.spans if s.name == n] for n in steps}
    return [sum(v) for v in zip(*by_name.values())]


def layer_metrics(tr: Tracer, groups: dict) -> dict[str, float]:
    """Median over span instances of each span's stats, plus funnel counts."""
    per: dict[str, dict[str, list[float]]] = {}
    for sp in tr.spans:
        wall = sp.t1 - sp.t0
        st = per.setdefault(sp.name, {})
        st.setdefault("s", []).append(wall)
        if sp.name in DRIVER_SPANS:
            continue
        g = groups.get(sp.group)
        vals = {
            "driver_s": wall - (g.covered_s(sp.t0, sp.t1) if g else 0.0),
            "jobs": g.jobs if g else 0,
            "tasks": g.tasks if g else 0,
            "task_run_s": g.task_run_s if g else 0.0,
            "task_wait_s": g.task_wait_s if g else 0.0,
            "failed_tasks": g.failed_tasks if g else 0,
            "rows_out": sp.rows_out,
        }
        for stat, v in vals.items():
            st.setdefault(stat, []).append(v)
    out = {
        f"{name}.{stat}": statistics.median(vs)
        for name, stats in per.items()
        for stat, vs in stats.items()
    }
    out.update({name: statistics.median(vs) for name, vs in tr.counts.items()})
    return out
