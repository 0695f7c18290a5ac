"""Grounding the protocol in a reference language.

Two mechanisms share this module.  Indirect grounding adds a KL penalty
pulling the sender's message distribution toward a separately trained
language model: the per-instance estimate is sum_i [log q(w_i | .) -
log p_lm(w_i | .)] over one sampled message.  On a straight-through
message the penalty is differentiable both through the explicit log q
terms and through the one-hot token path into the frozen language model;
on any other message only through log q.  Direct grounding co-trains the
sender on captioning, minimizing L_caption + lambda * L_game with a
teacher-forced caption term and a straight-through game term.  Both
play the game through estimators.play_batch, and the language model and
the caption term share agents.teacher_forced_rows.  Caption words live
in the agents' protocol vocabulary so both mechanisms can align symbol
meanings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import agents
from . import autograd as ag
from . import data
from . import estimators as est


def _check_lm_vocab(sender, lm):
    # row arithmetic below needs the two distributions on one outcome set
    if lm.vocab.size != sender.vocab.size:
        raise ValueError(f"grounding: lm vocabulary size {lm.vocab.size} does "
                         f"not match sender vocabulary size {sender.vocab.size}")


def kl_penalty_col(sender, lm, roll):
    """Per-instance KL estimates as a (B, 1) column.

    Each row is sum_t mask_t * [log q(w_t) - log p_lm(w_t)] at the emitted
    token (EOS position included), the per-step terms selected by one-hot
    rows of the tokens.  A straight-through rollout supplies its own
    one-hots, which carry the relaxation's gradient into the
    language-model conditioning path.  Any other rollout gets constant
    one-hots, so the sender's gradient comes through log q alone.
    """
    _check_lm_vocab(sender, lm)
    onehots = roll.step_onehots
    if onehots is None:
        eye = np.eye(sender.vocab.n_outcomes)
        onehots = [ag.tensor(eye[roll.tokens[t]]) for t in range(roll.n_steps)]
    lm_rows = agents.teacher_forced_rows(lm, lm.cell.zero_state(roll.batch_size),
                                         onehots)
    total = ag.tensor(np.zeros((roll.batch_size, 1)))
    for t in range(roll.n_steps):
        diff = ag.sub(roll.step_logp_rows[t], lm_rows[t])
        term = ag.sum_rows(ag.mul(onehots[t], diff))
        total = ag.add(total, ag.mul(term, roll.mask_col(t)))
    return total


def grounded_step(sender, receiver, lm, batch, beta,
                  mode="straight_through", rng=None, noise=None):
    """One grounded update's gradients and metrics; the language model is
    read but never trained here (freeze it beforehand)."""
    beta = float(beta)
    if not np.isfinite(beta) or beta < 0:
        raise ValueError(f"grounded game loss: beta must be finite and "
                         f"non-negative, got {beta}")
    sender_ps = sender.param_set()
    receiver_ps = receiver.param_set()
    with ag.tape() as tp:
        sender_ps.zero_grads()
        receiver_ps.zero_grads()
        roll, scores, hinge_col = est.play_batch(sender, receiver, batch, mode,
                                                 noise=noise, rng=rng)
        if beta != 0.0:
            kl_col = kl_penalty_col(sender, lm, roll)
            loss = ag.mean_all(ag.add(hinge_col, ag.scale(kl_col, beta)))
        else:
            # beta = 0 must build exactly the plain game graph, so zero-weight
            # grounding reproduces ungrounded training bit for bit
            loss = ag.mean_all(hinge_col)
        tp.backward(loss)
    metrics = est.game_metrics(roll, scores, hinge_col, batch)
    metrics["loss"] = loss.item()
    if beta != 0.0:
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
    ft = ag.tensor(np.asarray(feats, dtype=np.float64))
    rows = agents.teacher_forced_rows(sender, (sender.eta_h(ft), sender.eta_c(ft)),
                                      tokens)
    return ag.scale(ag.mean_all(agents.masked_logp_col(rows, tokens, mask)), -1.0)


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
        if lam > 0:
            roll, scores, hinge_col = est.play_batch(
                sender, receiver, game_batch, "straight_through", noise=noise,
                rng=rng)
            total = ag.add(cap, ag.scale(ag.mean_all(hinge_col), lam))
        else:
            total = cap
        tp.backward(total)
    metrics = {"caption_nll": cap.item(), "loss": total.item()}
    if lam > 0:
        metrics.update(est.game_metrics(roll, scores, hinge_col, game_batch))
    return sender_ps.grads(), receiver_ps.grads(), metrics
