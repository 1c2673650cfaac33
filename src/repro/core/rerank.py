"""Cross-Modality Rerank (§VI-B, Algorithm 2 stage 2).

For every candidate frame from fast search, a token-level cross-
attention pass re-scores the frame against the *full* query — including
the relation tags the coarse fast-search encoder dropped:

* image tokens ``X_I``: one noisy vector per (patch, tag) over all
  patches of the frame (the simulated BERT/ViT token features);
* text tokens ``X_T``: one vector per query tag (FineTextEncoder);
* feature enhancer: bidirectional residual cross-attention,
  ``X_I ← norm(X_I + softmax(X_I·X_Tᵀ/√d)·X_T)`` and symmetrically for
  ``X_T`` — the paper's image↔text attention layers;
* frame score ``l_s``: mean over text tokens of the best-matching image
  token similarity (every queried concept must be found *somewhere* in
  the frame — this is what demotes missing-relation distractors);
* decoder: the patch whose tokens best cover the whole query provides
  the output bounding box, reproducing "outputs the frames with the
  bounding boxes" (``score_frame`` runs both steps for one frame).

Runs as ``applyInPandas`` grouped by frame — the paper's per-frame
rerank map — burning calibrated cross-modal-transformer FLOPs per frame.
"""
from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.config import LOVOConfig
from repro.queries.workload import Query
from repro.vocab.encoders import (
    FineTextEncoder,
    perceived_track_tags,
    track_perturbation,
)
from repro.vocab.vocabulary import Vocabulary

RERANK_SCHEMA = T.StructType(
    [
        T.StructField("video_id", T.IntegerType()),
        T.StructField("frame_idx", T.IntegerType()),
        T.StructField("rerank_score", T.DoubleType()),
        T.StructField("bbox", T.ArrayType(T.DoubleType())),
        T.StructField("patch_id", T.LongType()),
    ]
)


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _normalize(x: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.maximum(n, 1e-12)


def enhance(
    X_I: np.ndarray, X_T: np.ndarray, *, mix: float = 0.5, temp: float = 12.0
) -> np.ndarray:
    """Feature enhancer: bidirectional cross-attention → similarity matrix S.

    ``mix`` weights the attended residual against the original token
    (the enhancer's residual connection keeps identity dominant).
    ``temp`` sharpens attention: our tokens are raw unit vectors whose
    dot products span only ±1, so the transformer convention of dividing
    logits by √d would make attention near-uniform — every token would
    absorb the same text mix and background tokens would outscore real
    matches. A learned Q/K projection provides this sharpening in a real
    model; ``temp`` stands in for it, concentrating each token's
    attention on its genuinely matching counterparts.
    """
    att_i = _softmax(X_I @ X_T.T * temp) @ X_T  # image-to-text attention
    att_t = _softmax(X_T @ X_I.T * temp) @ X_I  # text-to-image attention
    Xi = _normalize(X_I + mix * att_i)
    Xt = _normalize(X_T + mix * att_t)
    return Xi @ Xt.T  # (n_image_tokens, n_text_tokens)


def decode_best_patch(S: np.ndarray, owners: list[int]) -> int:
    """Decoder (§VI-B): the patch whose tokens best cover the query.

    Per patch, each text token is matched to that patch's best token and
    the matches are averaged — so the output box comes from the object
    that satisfies the *whole* query, not from whichever single token is
    globally hottest (a frame can contain a better-matching token on the
    wrong object).
    """
    best_patch, best_score = owners[0], -np.inf
    for pid in dict.fromkeys(owners):  # preserves first-seen order
        rows = [i for i, o in enumerate(owners) if o == pid]
        s = float(S[rows].max(axis=0).mean())
        if s > best_score:
            best_patch, best_score = pid, s
    return best_patch


def score_frame(
    X_I: np.ndarray, X_T: np.ndarray, owners: list[int]
) -> tuple[float, int]:
    """One frame's rerank: score ``l_s`` and the decoded best patch id.

    ``owners[i]`` is the patch id of image token ``X_I[i]``.
    """
    S = enhance(X_I, X_T)
    return float(S.max(axis=0).mean()), decode_best_patch(S, owners)


def rerank_frames(
    frame_patches: DataFrame, query: Query, cfg: LOVOConfig
) -> DataFrame:
    """Re-score candidate frames; one output row per frame.

    ``frame_patches`` holds the *metadata* rows (patch_id, tags,
    pred_bbox) of every patch belonging to a candidate frame.
    """
    cost = cfg.cost()
    qtags = list(query.tags)

    def _rerank(key, pdf):
        vocab = Vocabulary(dim=cfg.dim, seed=cfg.vocab_seed)
        X_T = FineTextEncoder(vocab).encode_tokens(qtags)
        cost.burn("lovo_rerank_frame", 1.0)
        rows, owners = [], []
        for pid, track_id, tags in zip(pdf["patch_id"], pdf["track_id"], pdf["tags"]):
            rng = np.random.default_rng([cfg.seed, 1, int(pid)])
            # the reranker looks at the same pixels the encoder did: an
            # attribute the perception misses is missed here too
            seen = perceived_track_tags(
                list(tags), seed=cfg.seed, track_id=int(track_id),
                dropout=cfg.attr_dropout, rel_dropout=cfg.rel_dropout,
            )
            for t in seen:
                d = rng.standard_normal(cfg.dim)
                d *= cfg.token_noise / max(np.linalg.norm(d), 1e-12)
                persistent = track_perturbation(
                    cfg.dim, cfg.token_track_noise, seed=cfg.seed,
                    track_id=int(track_id), salt=zlib.crc32(t.encode()),
                )
                v = vocab.vec(t) + persistent + d  # noises are norms
                rows.append(v / max(np.linalg.norm(v), 1e-12))
                owners.append(int(pid))
        if rows:
            score, best_pid = score_frame(np.stack(rows), X_T, owners)
        else:  # every token dropped: score the frame as irrelevant
            score = -1.0
            best_pid = int(pdf["patch_id"].iloc[0])
        best_box = list(pdf.loc[pdf["patch_id"] == best_pid, "pred_bbox"].iloc[0])
        return pd.DataFrame(
            {
                "video_id": [int(key[0])],
                "frame_idx": [int(key[1])],
                "rerank_score": [score],
                "bbox": [best_box],
                "patch_id": [best_pid],
            }
        )

    return frame_patches.groupBy("video_id", "frame_idx").applyInPandas(
        _rerank, schema=RERANK_SCHEMA
    )
