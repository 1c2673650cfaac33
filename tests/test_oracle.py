"""Self-test of the DuckDB oracle on LOVO-shaped data.

A broken oracle would silently void every oracle-backed test in this
suite, so check that it accepts an equivalent Spark plan and rejects a
wrong row and a misnamed column.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent

SQL = (
    "SELECT video_id, frame_idx, max(score) AS best, count(*) AS n "
    "FROM hits JOIN meta USING (patch_id) WHERE is_object "
    "GROUP BY video_id, frame_idx"
)


@pytest.fixture(scope="module")
def tables(spark):
    """Fast-search hits and patch metadata, joined by patch id (§V-B)."""
    rng = np.random.default_rng(0)
    n = 60
    meta = pd.DataFrame(
        {
            "patch_id": np.arange(n, dtype=np.int64),
            "video_id": rng.integers(0, 3, n, dtype=np.int32),
            "frame_idx": rng.integers(0, 5, n, dtype=np.int32),
            "is_object": rng.random(n) < 0.7,
        }
    )
    hits = pd.DataFrame(
        {"patch_id": rng.choice(n, 40, replace=False), "score": rng.random(40)}
    )
    return spark.createDataFrame(hits), spark.createDataFrame(meta)


@pytest.fixture(scope="module")
def per_frame(tables):
    """Best hit score and hit count per frame; broadcast is off, so the
    join takes the shuffle path."""
    hits, meta = tables
    return (
        hits.join(meta, "patch_id")
        .filter("is_object")
        .groupBy("video_id", "frame_idx")
        .agg(F.max("score").alias("best"), F.count("*").alias("n"))
    )


def test_equivalent_plan_passes(tables, per_frame):
    hits, meta = tables
    assert_equivalent(per_frame, SQL, hits=hits, meta=meta)


def test_wrong_row_fails(tables, per_frame):
    hits, meta = tables
    first = per_frame.orderBy("video_id", "frame_idx").first()
    wrong = per_frame.withColumn(
        "best",
        F.when(
            (F.col("video_id") == first["video_id"])
            & (F.col("frame_idx") == first["frame_idx"]),
            F.col("best") + 0.5,
        ).otherwise(F.col("best")),
    )
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, SQL, hits=hits, meta=meta)


def test_column_name_mismatch_fails(tables, per_frame):
    hits, meta = tables
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(
            per_frame.withColumnRenamed("best", "top"), SQL, hits=hits, meta=meta
        )
