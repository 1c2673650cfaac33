"""Workloads, set-up, the timed closed loop and its correctness checks.

Every workload runs the same op mix against the public ``repro`` API on
its own corpus:

* set-up, repeated ``SETUP_REPS`` times: generate the corpus from the
  seed and persist it, then ``LOVO.build``; the last set-up is kept;
* the timed phase, one client in a closed loop: for each query in turn,
  ``query`` (IVF-PQ fast search + rerank, Algorithm 2) then ``bf``
  (brute-force fast search, the w/o-ANNS row of Table IV).

An op that raises or fails a check counts as failed; the run goes on.
"""
from __future__ import annotations

import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core import LOVO
from repro.core.metrics import RankedResult
from repro.experiments.tables import job_config
from repro.queries.workload import query_by_id
from repro.video.generator import generate_dataset
from repro.video.groundtruth import evaluate_ranking, gt_objects_pdf
from repro.video.scenes import profile

SETUP_REPS = 2
SCORE_TOL = 1e-9
K_CAP = 150


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    sf: float
    qids: tuple[str, ...]


# Two queries per corpus, the complex one and a k = 150 one, so a run fits
# its time budget: a two-stage query costs 4-7 s of Spark jobs here.
WORKLOADS = {
    "query_small": Workload("query_small", "bellevue", 0.35, ("Q2.2", "Q2.3")),
    "query_large": Workload("query_large", "cityscapes", 3.0, ("Q1.1", "Q1.4")),
}

# op name -> (variant, use_rerank) for LOVO.query
OPS = {"query": ("ivfpq", True), "bf": ("bf", False)}


@dataclass
class Tally:
    """Ops attempted, and why each failed one failed."""

    attempted: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.errors.append(what)
        return ok


def storage_bytes(spark) -> int:
    """Memory + disk held by every persisted RDD, from Spark's storage info."""
    infos = spark.sparkContext._jsc.sc().getRDDStorageInfo()
    return sum(int(i.memSize()) + int(i.diskSize()) for i in infos)


def released(spark, level: int, timeout_s: float = 10.0) -> bool:
    """Wait until storage is back to ``level``; unpersist is asynchronous."""
    deadline = time.monotonic() + timeout_s
    while storage_bytes(spark) != level:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@dataclass
class Truth:
    """What the checks compare answers against, computed once at set-up."""

    k: dict[str, int]
    gt: dict[str, object]
    patch_ids: np.ndarray
    X: np.ndarray
    frame_of: dict[int, tuple[int, int]]

    def exact_order(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All stored vectors' exact scores and their descending order."""
        s = self.X @ np.asarray(q, dtype=np.float64)
        return s, np.argsort(-s, kind="stable")

    def exact_topk_ids(self, q: np.ndarray, k: int) -> set[int]:
        _, order = self.exact_order(q)
        return {int(i) for i in self.patch_ids[order[:k]]}


@dataclass
class Setup:
    lovo: LOVO
    patches: object
    base_bytes: int
    corpus: dict
    setup_s: list[float]
    build_s: list[float]
    index_bytes: list[int]


def k_for(gt) -> int:
    """§VII-A budget: 10×|GT| tracks, at least 10, capped at 150."""
    return max(10, min(10 * int(gt["track_id"].nunique()), K_CAP))


def make_truth(lovo: LOVO, patches, wl: Workload) -> Truth:
    gt = {qid: gt_objects_pdf(patches, query_by_id(qid)) for qid in wl.qids}
    vec = lovo.store.vectors.toPandas()
    meta = lovo.store.meta.select("patch_id", "video_id", "frame_idx").toPandas()
    return Truth(
        k={qid: k_for(g) for qid, g in gt.items()},
        gt=gt,
        patch_ids=vec["patch_id"].to_numpy(),
        X=np.stack(vec["embedding"].to_numpy()).astype(np.float64),
        frame_of={
            int(p): (int(v), int(f))
            for p, v, f in zip(meta["patch_id"], meta["video_id"], meta["frame_idx"])
        },
    )


def set_up(spark, wl: Workload, seed: int, tally: Tally, reps: int = SETUP_REPS) -> Setup:
    """Generate the corpus and build the index ``reps`` times.

    Every build must give the same sizes and codebooks, and ``close()``
    must hand back all the storage its build took.
    """
    prof = profile(wl.dataset, wl.sf)
    setup_s, build_s, index_bytes, signatures = [], [], [], set()
    lovo = patches = None
    for _ in range(reps):
        if lovo is not None:
            lovo.close()
            tally.check(released(spark, base), "close() left index storage behind")
            patches.unpersist(blocking=True)
        t0 = time.perf_counter()
        patches = generate_dataset(spark, prof, seed=seed).persist()
        n_rows = patches.count()
        base = storage_bytes(spark)
        lovo = LOVO(spark, job_config())
        t1 = time.perf_counter()
        tally.attempted += 1
        rep = lovo.build(patches)
        t2 = time.perf_counter()
        setup_s.append(t2 - t0)
        build_s.append(t2 - t1)
        index_bytes.append(storage_bytes(spark) - base)
        signatures.add(
            (rep.n_vectors, rep.n_keyframes, lovo.quant.coarse.tobytes(), lovo.quant.residual.tobytes())
        )
    tally.check(len(signatures) == 1, "builds differ in n_vectors, n_keyframes or codebooks")
    corpus = {
        "dataset": wl.dataset,
        "sf": wl.sf,
        "patch_rows": n_rows,
        "frames": rep.n_frames,
        "keyframes": rep.n_keyframes,
        "vectors": rep.n_vectors,
    }
    return Setup(lovo, patches, base, corpus, setup_s, build_s, index_bytes)


def tear_down(spark, s: Setup, tally: Tally) -> None:
    s.lovo.close()
    tally.check(released(spark, s.base_bytes), "close() left index storage behind")
    s.patches.unpersist()


def check_answer(op: str, results: list[RankedResult], q: np.ndarray, k: int, truth: Truth) -> list[str]:
    """Problems with one answer; empty when it passes every check."""
    bad = []
    scores = [r.score for r in results]
    if any(b > a for a, b in zip(scores, scores[1:])):
        bad.append("scores increase")
    if any(not all(0.0 <= c <= 1.0 for c in r.bbox) for r in results):
        bad.append("box outside [0, 1]")
    if op == "bf":
        bad += _check_exact(results, q, k, truth)
    elif not results:
        bad.append("no results")
    return bad


def _check_exact(results: list[RankedResult], q: np.ndarray, k: int, truth: Truth) -> list[str]:
    """BF must be the exact top-k, up to ties at the k-th score."""
    s, order = truth.exact_order(q)
    top = order[:k]
    want = np.asarray([s[i] for i in top])
    got = np.asarray([r.score for r in results])
    if len(got) != len(want) or np.max(np.abs(got - want), initial=0.0) > SCORE_TOL:
        return ["bf scores differ from the exact top-k"]
    kth = want[-1]
    above = Counter(
        truth.frame_of[int(truth.patch_ids[i])] for i in top if s[i] > kth + SCORE_TOL
    )
    got_above = Counter((r.video_id, r.frame_idx) for r in results if r.score > kth + SCORE_TOL)
    return [] if above == got_above else ["bf frames differ from the exact top-k"]


@dataclass
class Timed:
    """Outcome of the timed phase."""

    wall_s: float
    latencies: dict[str, list[float]]
    answers: dict[tuple[str, str], list[RankedResult]]
    rounds: int


def _run_op(lovo: LOVO, op: str, qid: str, k: int):
    variant, use_rerank = OPS[op]
    return lovo.query(query_by_id(qid), variant=variant, use_rerank=use_rerank, k=k).results


def run_timed(s: Setup, truth: Truth, wl: Workload, seconds: float, tally: Tally) -> Timed:
    """Closed loop, one client: ``query`` then ``bf`` for each query in turn.

    One untimed op of each kind first compiles its query plans, the largest
    and most variable cost of a run's first op; the timed answer to the same
    query must equal it. Then whole passes over the workload's queries run
    until ``seconds`` have passed, so every run answers and checks every
    query, the same number of times.
    """
    lovo, first_qid = s.lovo, wl.qids[0]
    answers: dict[tuple[str, str], list[RankedResult]] = {
        (op, first_qid): _run_op(lovo, op, first_qid, truth.k[first_qid]) for op in OPS
    }
    latencies: dict[str, list[float]] = {op: [] for op in OPS}
    t_begin = time.perf_counter()
    rounds = 0
    while rounds % len(wl.qids) or time.perf_counter() - t_begin < seconds:
        qid = wl.qids[rounds % len(wl.qids)]
        k = truth.k[qid]
        for op in OPS:
            tally.attempted += 1
            try:
                t0 = time.perf_counter()
                res = _run_op(lovo, op, qid, k)
                latencies[op].append(time.perf_counter() - t0)
            except Exception:  # noqa: BLE001 — a failed op is counted, the run goes on
                tally.errors.append(f"{op} {qid} raised:\n{traceback.format_exc()}")
                continue
            problems = check_answer(op, res, lovo.encode_query(query_by_id(qid)), k, truth)
            first = answers.setdefault((op, qid), res)
            if first != res:
                problems.append("answer differs from this query's earlier answer")
            tally.check(not problems, f"{op} {qid}: {'; '.join(problems)}")
        rounds += 1
    return Timed(time.perf_counter() - t_begin, latencies, answers, rounds)


def mean_avep(answers: dict, truth: Truth, op: str, qids) -> float:
    return float(np.mean([evaluate_ranking(answers[(op, qid)], truth.gt[qid]).avep for qid in qids]))
