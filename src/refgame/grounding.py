"""Grounding the protocol in a reference language.

Two mechanisms share this module.  Indirect grounding adds a KL penalty
pulling the sender's message distribution toward a separately trained
language model: the per-instance estimate is sum_i [log q(w_i | .) -
log p_lm(w_i | .)] over one straight-through message, so the penalty is
differentiable both through the explicit log q terms and through the
one-hot token path into the frozen language model.  Direct grounding
co-trains the sender on captioning, minimizing L_caption + lambda *
L_game with a teacher-forced caption term and a straight-through game
term.  Caption words live in the agents' protocol vocabulary so both
mechanisms can align symbol meanings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import agents
from . import autograd as ag
from . import data
from . import game


def _check_lm_vocab(sender, lm):
    # row arithmetic below needs the two distributions on one outcome set
    if lm.vocab.size != sender.vocab.size:
        raise ValueError(f"grounding: lm vocabulary size {lm.vocab.size} does "
                         f"not match sender vocabulary size {sender.vocab.size}")


def kl_penalty_col(sender, lm, roll):
    """Per-instance KL estimates as a (B, 1) column.

    Each row is sum_t mask_t * [log q(w_t) - log p_lm(w_t)] at the emitted
    token (EOS position included).  Needs a straight-through rollout: the
    one-hot tokens select the per-step terms and carry the relaxation's
    gradient into the language-model conditioning path.
    """
    if roll.step_onehots is None:
        raise ValueError("kl_penalty_col: rollout has no one-hot tokens; "
                         "generate with straight_through mode")
    _check_lm_vocab(sender, lm)
    lm_rows = agents.lm_logp_rows(lm, roll.step_onehots,
                                  batch_size=roll.batch_size)
    total = ag.tensor(np.zeros((roll.batch_size, 1)))
    for t in range(roll.n_steps):
        diff = ag.sub(roll.step_logp_rows[t], lm_rows[t])
        term = ag.sum_rows(ag.mul(roll.step_onehots[t], diff))
        total = ag.add(total, ag.mul(term, roll.mask_col(t)))
    return total


def _kl_hard_col(sender, lm, roll):
    """KL column from hard token ids, for rollouts without a relaxation;
    gradient reaches the sender only through the explicit log q terms."""
    _check_lm_vocab(sender, lm)
    lm_rows = agents.lm_logp_rows(lm, [roll.tokens[t] for t in range(roll.n_steps)],
                                  batch_size=roll.batch_size)
    total = ag.tensor(np.zeros((roll.batch_size, 1)))
    for t in range(roll.n_steps):
        term = ag.sub(ag.pick_per_row(roll.step_logp_rows[t], roll.tokens[t]),
                      ag.pick_per_row(lm_rows[t], roll.tokens[t]))
        total = ag.add(total, ag.mul(term, roll.mask_col(t)))
    return total


def _grounded_graph(sender, receiver, lm, batch, beta, mode, rng, noise):
    beta = float(beta)
    if not np.isfinite(beta) or beta < 0:
        raise ValueError(f"grounded game loss: beta must be finite and "
                         f"non-negative, got {beta}")
    roll = agents.generate_batch(sender, batch.target_feats, mode,
                                 noise=noise, rng=rng)
    read_mode = "relaxed" if mode in ("relaxed", "straight_through") else "discrete"
    g = agents.read_batch(receiver, roll, read_mode)
    scores = game.score_batch(g, batch.cand_feats)
    hinge_col = game.hinge_batch(scores, batch.target_index)
    kl_col = None
    if beta != 0.0:
        kl_col = (kl_penalty_col(sender, lm, roll)
                  if roll.step_onehots is not None
                  else _kl_hard_col(sender, lm, roll))
        loss = ag.mean_all(ag.add(hinge_col, ag.scale(kl_col, beta)))
    else:
        # beta = 0 must build exactly the plain game graph, so zero-weight
        # grounding reproduces ungrounded training bit for bit
        loss = ag.mean_all(hinge_col)
    return loss, roll, scores, hinge_col, kl_col


def grounded_step(sender, receiver, lm, batch, beta,
                  mode="straight_through", rng=None, noise=None):
    """One grounded update's gradients and metrics; the language model is
    read but never trained here (freeze it beforehand)."""
    sender_ps = sender.param_set()
    receiver_ps = receiver.param_set()
    with ag.tape() as tp:
        sender_ps.zero_grads()
        receiver_ps.zero_grads()
        loss, roll, scores, hinge_col, kl_col = _grounded_graph(
            sender, receiver, lm, batch, beta, mode, rng, noise)
        tp.backward(loss)
    succ = game.success_mask(scores.data, batch.target_index)
    metrics = {
        "loss": loss.item(),
        "hinge": float(hinge_col.data.mean()),
        "success": float(succ.mean()),
        "mean_length": float(roll.lengths.mean()),
    }
    if kl_col is not None:
        metrics["kl"] = float(kl_col.data.mean())
    return sender_ps.grads(), receiver_ps.grads(), metrics


# ---------------------------------------------------------------------------
# direct grounding: captioning co-training


@dataclass
class CaptionBatch:
    features: np.ndarray
    tokens: np.ndarray
    mask: np.ndarray
    concept_ids: np.ndarray


def make_caption_batch(world, batch_size, rng, vocab, concepts=None,
                       table=None):
    """Sample captioned instances; captions use the protocol vocabulary
    (caption words as ordinary ids, protocol EOS as terminator).  A table
    mapping concept id to token sequence overrides the synthetic captions."""
    if table is None and vocab.size < world.caption_words:
        raise ValueError(f"vocabulary size {vocab.size} cannot hold "
                         f"{world.caption_words} caption words")
    pool = (np.arange(world.n_concepts) if concepts is None
            else np.asarray(sorted(int(c) for c in concepts), dtype=int))
    cids = pool[rng.integers(0, pool.size, size=batch_size)]
    feats = data.sample_instances(world, cids, rng)
    if table is None:
        seqs = [data.caption_for(world, int(c), eos_id=vocab.eos).caption
                for c in cids]
    else:
        seqs = [table[int(c)] for c in cids]
    tokens, mask = agents.pad_sequences(seqs, vocab.eos)
    return CaptionBatch(features=feats, tokens=tokens, mask=mask,
                        concept_ids=cids)


def _truncate_overlong(vocab, tokens, mask):
    if tokens.shape[0] > vocab.max_len:
        warnings.warn(f"caption longer than max_len={vocab.max_len}; truncating",
                      RuntimeWarning)
        tokens = tokens[:vocab.max_len]
        mask = mask[:vocab.max_len]
    return tokens, mask


def caption_nll_batch(sender, feats, tokens, mask):
    """Batch-mean teacher-forced caption NLL (per-caption token sums).

    tokens: (T, B) ids padded with EOS past each caption's end; mask: 1.0
    on real positions including the terminating EOS.
    """
    tokens = np.asarray(tokens, dtype=int)
    mask = np.asarray(mask, dtype=np.float64)
    if tokens.shape[0] == 0 or not mask[0].all():
        raise ValueError("caption_nll_batch: empty caption")
    if np.any(tokens < 0) or np.any(tokens > sender.vocab.eos):
        raise ValueError(f"caption tokens outside vocabulary "
                         f"(0..{sender.vocab.eos})")
    tokens, mask = _truncate_overlong(sender.vocab, tokens, mask)
    t_steps, b = tokens.shape
    ft = ag.tensor(np.asarray(feats, dtype=np.float64))
    h = sender.eta_h(ft)
    c = sender.eta_c(ft)
    x = sender.embed.hard([sender.vocab.start] * b)
    total = ag.tensor(np.zeros((b, 1)))
    for t in range(t_steps):
        h, c = sender.cell.step(x, h, c)
        logp = ag.log_softmax_rows(sender.proj(h))
        picked = ag.pick_per_row(logp, tokens[t])
        total = ag.add(total, ag.mul(picked,
                                     ag.tensor(mask[t].reshape(b, 1).copy())))
        if t + 1 < t_steps:
            x = sender.embed.hard(tokens[t])
    return ag.scale(ag.mean_all(total), -1.0)


def direct_grounding_step(sender, receiver, caption_batch, game_batch, lam,
                          rng=None, noise=None):
    """Combined gradients for L_caption + lambda * L_game.

    The caption term is teacher-forced; the game term uses the
    straight-through estimator.  lambda = 0 skips the game graph entirely,
    leaving every receiver gradient zero.
    """
    lam = float(lam)
    if not np.isfinite(lam) or lam < 0:
        raise ValueError(f"direct grounding: lambda must be finite and "
                         f"non-negative, got {lam}")
    sender_ps = sender.param_set()
    receiver_ps = receiver.param_set()
    with ag.tape() as tp:
        sender_ps.zero_grads()
        receiver_ps.zero_grads()
        cap = caption_nll_batch(sender, caption_batch.features,
                                caption_batch.tokens, caption_batch.mask)
        metrics = {"caption_nll": None}
        if lam > 0:
            roll = agents.generate_batch(sender, game_batch.target_feats,
                                         "straight_through", noise=noise, rng=rng)
            g = agents.read_batch(receiver, roll, "relaxed")
            scores = game.score_batch(g, game_batch.cand_feats)
            hinge_col = game.hinge_batch(scores, game_batch.target_index)
            total = ag.add(cap, ag.scale(ag.mean_all(hinge_col), lam))
        else:
            total = cap
        tp.backward(total)
    metrics["caption_nll"] = cap.item()
    metrics["loss"] = total.item()
    if lam > 0:
        succ = game.success_mask(scores.data, game_batch.target_index)
        metrics.update(hinge=float(hinge_col.data.mean()),
                       success=float(succ.mean()),
                       mean_length=float(roll.lengths.mean()))
    return sender_ps.grads(), receiver_ps.grads(), metrics
