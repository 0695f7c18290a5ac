"""Referential game environment: batch construction, the margin ranking
objective, and success accounting.

The loss for one round is sum_k max(0, 1 - s_target + s_k) over the K
distractor scores, margin fixed at 1.  Success means the target's score
is strictly highest; ties count as failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import data


@dataclass
class GameInstance:
    target_features: np.ndarray
    distractor_features: np.ndarray  # (K, D)
    target_index: int
    target_concept: int = -1

    @property
    def candidates(self):
        """(K+1, D) candidate array with the target at target_index."""
        cand = np.insert(self.distractor_features, self.target_index,
                         self.target_features, axis=0)
        return cand


@dataclass
class GameBatch:
    """Batched instances: target features, shuffled candidates, indices."""

    target_feats: np.ndarray    # (B, D)
    cand_feats: np.ndarray      # (B, K+1, D)
    target_index: np.ndarray    # (B,)
    target_concepts: np.ndarray  # (B,)
    cand_concepts: np.ndarray   # (B, K+1)

    @property
    def batch_size(self):
        return self.target_feats.shape[0]


def make_batch(world, batch_size, k, rng, concepts=None):
    """Sample instances: each has a target and K distractors whose concepts
    all differ from each other and from the target; candidate order is
    uniformly shuffled.  The target's own image appears among candidates.
    concepts optionally restricts sampling to a subset of concept ids;
    the default draws from the whole world."""
    if k < 1:
        raise ValueError("make_batch: need at least one distractor")
    pool = (np.arange(world.n_concepts) if concepts is None
            else np.asarray(sorted(int(c) for c in concepts), dtype=int))
    if pool.size <= k:
        raise ValueError(f"make_batch: pool has {pool.size} concepts, "
                         f"need more than K={k}")
    b, n_cand = batch_size, k + 1
    cand_concepts = np.zeros((b, n_cand), dtype=int)
    target_index = np.zeros(b, dtype=int)
    for j in range(b):
        picked = pool[rng.choice(pool.size, size=n_cand, replace=False)]
        order = rng.permutation(n_cand)
        cand_concepts[j] = picked[order]
        target_index[j] = int(np.where(order == 0)[0][0])
    feats = data.sample_instances(world, cand_concepts.reshape(-1), rng)
    cand_feats = feats.reshape(b, n_cand, -1)
    target_feats = cand_feats[np.arange(b), target_index].copy()
    return GameBatch(target_feats=target_feats, cand_feats=cand_feats,
                     target_index=target_index,
                     target_concepts=cand_concepts[np.arange(b), target_index].copy(),
                     cand_concepts=cand_concepts)


def score_batch(g, cand_feats):
    """scores[b, k] = f(candidate bk) . g_b, as a (B, K+1) tensor."""
    return ag.batch_dot(ag.tensor(cand_feats), g)


def hinge_batch(scores, target_index):
    """Per-instance hinge values as a (B, 1) column.

    The target's own term in the row sum is the constant max(0, 1) = 1
    with exactly cancelling gradients, so it is subtracted back out.
    """
    n_cand = scores.shape[1]
    if n_cand < 2:
        raise ValueError("hinge_batch: need at least one distractor score")
    picked = ag.pick_per_row(scores, target_index)
    rep = ag.repeat_cols(picked, n_cand)
    viol = ag.relu(ag.add_const(ag.sub(scores, rep), 1.0))
    return ag.add_const(ag.sum_rows(viol), -1.0)


def success_mask(scores_data, target_index):
    """Strict-argmax success per row; ties fail."""
    b = scores_data.shape[0]
    t_scores = scores_data[np.arange(b), target_index]
    masked = scores_data.copy()
    masked[np.arange(b), target_index] = -np.inf
    return t_scores > masked.max(axis=1)


def image_probabilities(scores_data):
    shifted = scores_data - scores_data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)

