"""Generic entrypoint: run one workload query end to end and print hits.

Usage: spark-submit jobs/run_query.py --qid Q2.1 --sf 0.3 --variant ivfpq
"""
import argparse
import os
import sys, pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from common import get_spark

from repro.core import LOVO
from repro.experiments.tables import job_config, k_for
from repro.queries.workload import query_by_id
from repro.video.generator import generate_dataset
from repro.video.groundtruth import evaluate_ranking
from repro.video.scenes import profile


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--qid", default="Q2.1")
    p.add_argument("--sf", type=float, default=float(os.environ.get("REPRO_SF", 0.3)))
    p.add_argument("--variant", default="ivfpq", choices=["bf", "ivfpq", "hnsw"])
    p.add_argument("--no-rerank", action="store_true")
    args = p.parse_args()
    query = query_by_id(args.qid)
    spark = get_spark("run_query")
    patches = generate_dataset(spark, profile(query.dataset, args.sf)).persist()
    system = LOVO(spark, job_config())
    system.build(patches)
    k, gt = k_for(patches, query)
    res = system.query(query, variant=args.variant, use_rerank=not args.no_rerank, k=k)
    ev = evaluate_ranking(res.results, gt)
    print(f"\n{query.qid}: {query.text!r} [{args.variant}, rerank={not args.no_rerank}]")
    print(f"AveP={ev.avep:.3f} recall={ev.recall:.2f} n_gt={ev.n_gt} "
          f"fast={res.fast_time:.2f}s rerank={res.rerank_time:.2f}s")
    for i, r in enumerate(res.results[:10]):
        print(f"  #{i} video={r.video_id} frame={r.frame_idx} score={r.score:.3f} "
              f"bbox={[round(b, 3) for b in r.bbox]}")
    spark.stop()


if __name__ == "__main__":
    main()
