"""Tests for the cross-modality rerank stage."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.rerank import (
    _normalize,
    _softmax,
    decode_best_patch,
    enhance,
    rerank_frames,
    score_frame,
)
from repro.queries.workload import query_by_id
from repro.vocab.encoders import FineTextEncoder
from repro.vocab.vocabulary import Vocabulary
from tests.conftest import TEST_CFG


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary(dim=64, seed=7)


def _tok(vocab, tag, rng, noise=0.4):
    d = rng.standard_normal(64)
    d *= noise / np.linalg.norm(d)
    v = vocab.vec(tag) + d
    return v / np.linalg.norm(v)


def _frame_tokens(vocab, obj_tags_list, seed=0, n_bg=20):
    rng = np.random.default_rng(seed)
    rows, owners = [], []
    for i in range(n_bg):
        rows.append(_tok(vocab, "bg:road", rng))
        owners.append(i)
    for j, tags in enumerate(obj_tags_list):
        for t in tags:
            rows.append(_tok(vocab, t, rng))
            owners.append(1000 + j)
    return np.stack(rows), owners


def _score(vocab, obj_tags_list, X_T, seed):
    X_I, owners = _frame_tokens(vocab, obj_tags_list, seed=seed)
    return score_frame(X_I, X_T, owners)[0]


class TestNumerics:
    def test_softmax_rows_sum_to_one(self):
        s = _softmax(np.random.default_rng(0).standard_normal((5, 7)))
        np.testing.assert_allclose(s.sum(axis=1), 1.0)

    def test_normalize_unit_rows(self):
        x = _normalize(np.random.default_rng(0).standard_normal((4, 8)))
        np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0)

    def test_normalize_handles_zero(self):
        assert np.all(np.isfinite(_normalize(np.zeros((2, 4)))))


class TestEnhance:
    def test_shape(self, vocab):
        X_I, _ = _frame_tokens(vocab, [["class:bus"]])
        X_T = FineTextEncoder(vocab).encode_tokens(["class:bus", "attr:green"])
        assert enhance(X_I, X_T).shape == (len(X_I), 2)

    @pytest.mark.parametrize(
        "qtags",
        [
            ["class:bus", "attr:green"],
            ["class:car", "attr:red", "rel:center_of_road"],
            ["class:person", "attr:walking"],
        ],
        ids=["attrs", "rels", "simple"],
    )
    def test_exact_match_beats_partial_and_unrelated(self, vocab, qtags):
        X_T = FineTextEncoder(vocab).encode_tokens(qtags)
        s_exact = _score(vocab, [list(qtags)], X_T, seed=1)
        s_partial = _score(vocab, [list(qtags[:1])], X_T, seed=2)
        s_unrel = _score(vocab, [["class:dog"]], X_T, seed=3)
        assert s_exact > s_partial > s_unrel

    def test_missing_relation_demoted(self, vocab):
        """The ablation mechanism: rerank sees relations fast search cannot."""
        qtags = ["class:car", "attr:red", "rel:side_by_side"]
        X_T = FineTextEncoder(vocab).encode_tokens(qtags)
        with_rel = _score(vocab, [qtags], X_T, seed=4)
        without_rel = _score(vocab, [["class:car", "attr:red"]], X_T, seed=5)
        assert with_rel > without_rel

    def test_score_frame_returns_decoded_patch(self, vocab):
        X_I, owners = _frame_tokens(vocab, [["class:bus", "attr:green"]])
        X_T = FineTextEncoder(vocab).encode_tokens(["class:bus", "attr:green"])
        score, patch = score_frame(X_I, X_T, owners)
        assert -1.0 <= score <= 1.0
        assert patch == decode_best_patch(enhance(X_I, X_T), owners) == 1000


class TestDecodeBestPatch:
    def test_picks_covering_patch(self, vocab):
        """The patch matching the whole query wins over a hotter single token."""
        qtags = ["class:bus", "attr:green", "attr:white_roof"]
        X_T = FineTextEncoder(vocab).encode_tokens(qtags)
        X_I, owners = _frame_tokens(
            vocab, [qtags, ["class:bus"]], seed=6, n_bg=10
        )
        S = enhance(X_I, X_T)
        assert decode_best_patch(S, owners) == 1000  # the full-match object

    def test_synthetic_matrix(self):
        S = np.array([[0.9, 0.0], [0.1, 0.1], [0.5, 0.6]])
        owners = [7, 7, 8]
        # patch 7: per-text best (0.9, 0.1) mean 0.5; patch 8: (0.5,0.6) mean 0.55
        assert decode_best_patch(S, owners) == 8


class TestRerankFrames:
    @pytest.fixture(scope="class")
    def ranked(self, spark, lovo_built):
        system, _ = lovo_built
        q = query_by_id("Q2.1")
        hits = system.fast_search(q, variant="bf", k=30).collect()
        frames = sorted({(r["video_id"], r["frame_idx"]) for r in hits})
        cand = spark.createDataFrame(frames, "video_id int, frame_idx int")
        fp = system.store.meta.join(F.broadcast(cand), ["video_id", "frame_idx"])
        return rerank_frames(fp, q, TEST_CFG).collect(), frames

    def test_one_row_per_frame(self, ranked):
        rows, frames = ranked
        assert len(rows) == len(frames)
        assert {(r["video_id"], r["frame_idx"]) for r in rows} == set(frames)

    def test_scores_finite(self, ranked):
        rows, _ = ranked
        assert all(np.isfinite(r["rerank_score"]) for r in rows)

    def test_bbox_valid(self, ranked):
        rows, _ = ranked
        for r in rows:
            b = r["bbox"]
            assert 0 <= b[0] <= b[2] <= 1 and 0 <= b[1] <= b[3] <= 1

    def test_patch_belongs_to_frame(self, ranked, lovo_built):
        rows, _ = ranked
        system, _ = lovo_built
        meta = {
            r["patch_id"]: (r["video_id"], r["frame_idx"])
            for r in system.store.meta.select("patch_id", "video_id", "frame_idx").collect()
        }
        for r in rows:
            assert meta[r["patch_id"]] == (r["video_id"], r["frame_idx"])

    def test_deterministic(self, spark, lovo_built):
        system, _ = lovo_built
        q = query_by_id("Q2.3")
        hits = system.fast_search(q, variant="bf", k=10).collect()
        frames = sorted({(r["video_id"], r["frame_idx"]) for r in hits})
        cand = spark.createDataFrame(frames, "video_id int, frame_idx int")
        fp = system.store.meta.join(F.broadcast(cand), ["video_id", "frame_idx"])
        a = sorted((r["video_id"], r["frame_idx"], round(r["rerank_score"], 9))
                   for r in rerank_frames(fp, q, TEST_CFG).collect())
        b = sorted((r["video_id"], r["frame_idx"], round(r["rerank_score"], 9))
                   for r in rerank_frames(fp, q, TEST_CFG).collect())
        assert a == b
