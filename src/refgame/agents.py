"""Sender, receiver, and the reference language model.

The sender maps image features to a token sequence; the receiver maps a
token sequence to a vector used to score candidate images; the language
model assigns probabilities to token sequences for grounding.

Every computation runs on (B, .) matrices (generate_batch, read_batch,
lm_logp_rows, lm_nll_batch) with post-termination positions masked out
of every sum; a single instance is a one-row batch.  The one
single-message path is receiver_read, which omission scoring calls once
per message and once per deletion.  It stays a plain one-row read
because a row of a batched matrix product can differ in the last bit
from the one-row product, which the exact-equality omission checks
against a one-row NumPy replay would catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from . import nn
from . import sampling as smp

MODES = ("sample", "greedy", "relaxed", "straight_through")


@dataclass(frozen=True)
class Vocabulary:
    """|V| ordinary symbols 0..size-1 plus reserved EOS and START.

    EOS competes with ordinary symbols in the sender's softmax; START is
    only ever an input, never an outcome.
    """

    size: int
    max_len: int

    def __post_init__(self):
        if self.size < 1 or self.max_len < 1:
            raise ValueError("Vocabulary: size and max_len must be >= 1")

    @property
    def eos(self):
        return self.size

    @property
    def start(self):
        return self.size + 1

    @property
    def n_outcomes(self):
        """Width of the generation softmax: ordinary symbols + EOS."""
        return self.size + 1

    @property
    def n_embed(self):
        """Embedding table rows: outcomes + START."""
        return self.size + 2


class Sender:
    """features -> message.  h_0, c_0 come from affine maps of the image
    features; each step emits softmax(W h + b) over |V|+1 outcomes."""

    def __init__(self, vocab, embed, cell, proj, eta_h, eta_c, tau=1.2, tau_net=None):
        self.vocab = vocab
        self.embed = embed
        self.cell = cell
        self.proj = proj
        self.eta_h = eta_h
        self.eta_c = eta_c
        self.tau = tau
        self.tau_net = tau_net

    @classmethod
    def create(cls, rng, vocab, feature_dim, embed_dim, hidden_dim,
               tau=1.2, learn_temperature=False, tau0=0.2, tau_hidden=0):
        embed = nn.EmbeddingTable.create(rng, vocab.n_embed, embed_dim)
        cell = nn.LstmCell.create(rng, embed_dim, hidden_dim)
        proj = nn.AffineMap.create(rng, hidden_dim, vocab.n_outcomes)
        eta_h = nn.AffineMap.create(rng, feature_dim, hidden_dim)
        eta_c = nn.AffineMap.create(rng, feature_dim, hidden_dim)
        tau_net = None
        if learn_temperature:
            tau_net = smp.TemperatureNet.create(rng, hidden_dim, tau0, hidden_units=tau_hidden)
        return cls(vocab, embed, cell, proj, eta_h, eta_c, tau=tau, tau_net=tau_net)

    def named_params(self, prefix="sender"):
        out = (self.embed.named_params(f"{prefix}.embed")
               + self.cell.named_params(f"{prefix}.cell")
               + self.proj.named_params(f"{prefix}.proj")
               + self.eta_h.named_params(f"{prefix}.eta_h")
               + self.eta_c.named_params(f"{prefix}.eta_c"))
        if self.tau_net is not None:
            out += self.tau_net.named_params(f"{prefix}.tau")
        return out

    def param_set(self, prefix="sender"):
        return nn.ParamSet(self.named_params(prefix))


class Receiver:
    """message -> interpretation vector g(h_last)."""

    def __init__(self, vocab, embed, cell, g_map):
        self.vocab = vocab
        self.embed = embed
        self.cell = cell
        self.g_map = g_map

    @classmethod
    def create(cls, rng, vocab, feature_dim, embed_dim, hidden_dim):
        embed = nn.EmbeddingTable.create(rng, vocab.n_embed, embed_dim)
        cell = nn.LstmCell.create(rng, embed_dim, hidden_dim)
        g_map = nn.AffineMap.create(rng, hidden_dim, feature_dim)
        return cls(vocab, embed, cell, g_map)

    def named_params(self, prefix="receiver"):
        return (self.embed.named_params(f"{prefix}.embed")
                + self.cell.named_params(f"{prefix}.cell")
                + self.g_map.named_params(f"{prefix}.g"))

    def param_set(self, prefix="receiver"):
        return nn.ParamSet(self.named_params(prefix))


class LanguageModel:
    """Unconditional sequence model over the same token inventory."""

    def __init__(self, vocab, embed, cell, proj):
        self.vocab = vocab
        self.embed = embed
        self.cell = cell
        self.proj = proj

    @classmethod
    def create(cls, rng, vocab, embed_dim, hidden_dim):
        embed = nn.EmbeddingTable.create(rng, vocab.n_embed, embed_dim)
        cell = nn.LstmCell.create(rng, embed_dim, hidden_dim)
        proj = nn.AffineMap.create(rng, hidden_dim, vocab.n_outcomes)
        return cls(vocab, embed, cell, proj)

    def named_params(self, prefix="lm"):
        return (self.embed.named_params(f"{prefix}.embed")
                + self.cell.named_params(f"{prefix}.cell")
                + self.proj.named_params(f"{prefix}.proj"))

    def param_set(self, prefix="lm"):
        return nn.ParamSet(self.named_params(prefix))

    def freeze(self):
        """Mark all parameters constant (reference model for grounding)."""
        for _, t in self.named_params():
            t.requires_grad = False
        return self


# ---------------------------------------------------------------------------
# batched rollout core


@dataclass
class BatchRollout:
    """One batched generation pass.

    tokens[t, b] is the token drawn at step t whether or not instance b
    was still alive; emitted[t, b] is 1.0 exactly for the message's real
    positions (every position up to and including EOS).  All graph sums
    already carry the emitted mask.
    """

    tokens: np.ndarray
    emitted: np.ndarray
    lengths: np.ndarray
    logp_sum: ag.Tensor
    step_logp_rows: list = field(default_factory=list)
    step_relaxed: list | None = None
    step_onehots: list | None = None
    noise: np.ndarray | None = None

    @property
    def n_steps(self):
        return self.tokens.shape[0]

    @property
    def batch_size(self):
        return self.tokens.shape[1]

    def mask_col(self, t):
        return ag.tensor(self.emitted[t].reshape(-1, 1).copy())


def _sender_inverse_temp(sender, h):
    """Per-step inverse temperature: learned (B, 1) column or fixed float."""
    if sender.tau_net is not None:
        return sender.tau_net.inverse_col(h)
    return 1.0 / float(sender.tau)


def generate_batch(sender, feats, mode, noise=None, rng=None, terminate=True):
    """Run the sender over a feature batch.

    feats: (B, D) array or constant Tensor.  noise: (L, B, |V|+1) Gumbel
    draws; if omitted for a stochastic mode it is drawn from rng.  The
    noise array always covers all L steps so random-stream consumption
    does not depend on where messages happen to terminate.

    terminate=False ignores EOS entirely (all L positions emitted); with
    relaxed mode this makes the whole rollout a smooth function of the
    parameters, which the pseudogradient control experiment relies on.
    """
    if mode not in MODES:
        raise ValueError(f"generate_batch: unknown mode {mode!r}")
    vocab = sender.vocab
    ft = feats if isinstance(feats, ag.Tensor) else ag.tensor(np.asarray(feats, dtype=np.float64))
    b = ft.shape[0]
    length, width = vocab.max_len, vocab.n_outcomes
    if mode != "greedy" and noise is None:
        if rng is None:
            raise ValueError(f"generate_batch: mode {mode!r} needs noise or rng")
        noise = smp.gumbel_noise(rng, (length, b, width))
    if noise is not None and noise.shape != (length, b, width):
        raise ag.ShapeError(f"generate_batch: noise shape {noise.shape}, "
                            f"expected {(length, b, width)}")

    h = sender.eta_h(ft)
    c = sender.eta_c(ft)
    x = sender.embed.hard([vocab.start] * b)
    alive = np.ones(b)
    tokens = np.zeros((length, b), dtype=int)
    emitted = np.zeros((length, b))
    logp_sum = ag.tensor(np.zeros((b, 1)))
    logp_rows_list = []
    relaxed_list = [] if mode in ("relaxed", "straight_through") else None
    onehot_list = [] if mode == "straight_through" else None
    steps = 0

    for t in range(length):
        h, c = sender.cell.step(x, h, c)
        logits = sender.proj(h)
        logp_rows = ag.log_softmax_rows(logits)
        if mode == "greedy":
            tok = np.argmax(logits.data, axis=1)
        elif mode == "sample":
            tok = np.argmax(logp_rows.data + noise[t], axis=1)
        else:
            inv = _sender_inverse_temp(sender, h)
            w = smp.gumbel_softmax_rows(logits, inv, noise[t])
            tok = np.argmax(w.data, axis=1)
            relaxed_list.append(w)
            if mode == "straight_through":
                onehot_list.append(ag.straight_through(w))
        tokens[t] = tok
        emitted[t] = alive
        logp_rows_list.append(logp_rows)
        mask = ag.tensor(alive.reshape(b, 1).copy())
        logp_sum = ag.add(logp_sum, ag.mul(ag.pick_per_row(logp_rows, tok), mask))
        steps = t + 1
        if terminate:
            alive = alive * (tok != vocab.eos)
            if not alive.any():
                break
        if t + 1 < length:
            if mode == "sample" or mode == "greedy":
                x = sender.embed.hard(tok)
            elif mode == "straight_through":
                x = sender.embed.soft(onehot_list[-1])
            else:
                x = sender.embed.soft(relaxed_list[-1])

    return BatchRollout(tokens=tokens[:steps], emitted=emitted[:steps],
                        lengths=emitted[:steps].sum(axis=0),
                        logp_sum=logp_sum, step_logp_rows=logp_rows_list,
                        step_relaxed=relaxed_list, step_onehots=onehot_list,
                        noise=noise)


def read_batch(receiver, rollout, mode="discrete"):
    """Receiver pass over a rollout: returns (B, D) interpretation vectors.

    Hidden and cell states freeze once an instance's message has ended,
    so the result equals a per-instance read of each trimmed message.
    """
    if mode not in ("discrete", "relaxed"):
        raise ValueError(f"read_batch: unknown mode {mode!r}")
    b = rollout.batch_size
    hs = receiver.cell.hidden_size
    h = ag.tensor(np.zeros((b, hs)))
    c = ag.tensor(np.zeros((b, hs)))
    for t in range(rollout.n_steps):
        x = _receiver_input(receiver, rollout, t, mode)
        h_new, c_new = receiver.cell.step(x, h, c)
        m = rollout.emitted[t].reshape(b, 1)
        h = ag.masked_carry(h_new, h, m)
        c = ag.masked_carry(c_new, c, m)
    return receiver.g_map(h)


def _receiver_input(receiver, rollout, t, mode):
    if mode == "relaxed":
        if rollout.step_onehots is not None:
            return receiver.embed.soft(rollout.step_onehots[t])
        if rollout.step_relaxed is not None:
            return receiver.embed.soft(rollout.step_relaxed[t])
    return receiver.embed.hard(rollout.tokens[t])


# ---------------------------------------------------------------------------
# single-message read


def receiver_read(receiver, tokens):
    """Interpret one discrete message; returns the (1, D) row g(h_last)."""
    if len(tokens) == 0:
        raise ValueError("receiver_read: empty message")
    hs = receiver.cell.hidden_size
    h = ag.tensor(np.zeros((1, hs)))
    c = ag.tensor(np.zeros((1, hs)))
    for tok in tokens:
        h, c = receiver.cell.step(receiver.embed.hard([int(tok)]), h, c)
    return receiver.g_map(h)


# ---------------------------------------------------------------------------
# language model operations


def _check_lm_tokens(lm, tokens):
    """Every id of a token array must be an ordinary symbol or EOS."""
    bad = (tokens < 0) | (tokens > lm.vocab.eos)
    if bad.any():
        raise ValueError(f"language model: token {tokens[bad][0]} outside "
                         f"vocabulary (0..{lm.vocab.eos})")


def lm_logp_rows(lm, token_reps, batch_size=None):
    """Teacher-forced log-probability rows.

    token_reps: one entry per message position, each an integer id array
    (B,) or a (B, |V|+1) row Tensor (relaxed/one-hot tokens).  Row t is
    the model's log-distribution over position t given positions < t,
    starting from START.  Returns a list of (B, |V|+1) tensors.
    """
    if not token_reps:
        raise ValueError("lm_logp_rows: empty sequence")
    first = token_reps[0]
    b = batch_size or (first.shape[0] if hasattr(first, "shape") else len(first))
    hs = lm.cell.hidden_size
    h = ag.tensor(np.zeros((b, hs)))
    c = ag.tensor(np.zeros((b, hs)))
    x = lm.embed.hard([lm.vocab.start] * b)
    rows = []
    for t in range(len(token_reps)):
        h, c = lm.cell.step(x, h, c)
        rows.append(ag.log_softmax_rows(lm.proj(h)))
        if t + 1 < len(token_reps):
            rep = token_reps[t]
            if isinstance(rep, ag.Tensor):
                x = lm.embed.soft(rep)
            else:
                x = lm.embed.hard(np.asarray(rep, dtype=int))
    return rows


def lm_nll_batch(lm, tokens, mask):
    """Masked teacher-forced negative log-likelihood.

    tokens: (T, B) int array padded past each sequence's EOS; mask: (T, B)
    with 1.0 on real positions.  Returns (total_nll Tensor scalar,
    n_tokens float).  Raises ValueError on an id outside 0..EOS.
    """
    _check_lm_tokens(lm, tokens)
    t_steps, b = tokens.shape
    rows = lm_logp_rows(lm, [tokens[t] for t in range(t_steps)], batch_size=b)
    total = ag.tensor(np.zeros((b, 1)))
    for t in range(t_steps):
        picked = ag.pick_per_row(rows[t], tokens[t])
        total = ag.add(total, ag.mul(picked, ag.tensor(mask[t].reshape(b, 1).copy())))
    return ag.scale(ag.sum_all(total), -1.0), float(mask.sum())


def pad_sequences(seqs, pad_id):
    """Pack variable-length id lists into (T, B) tokens plus a 0/1 mask."""
    t_max = max(len(s) for s in seqs)
    tokens = np.full((t_max, len(seqs)), pad_id, dtype=int)
    mask = np.zeros((t_max, len(seqs)))
    for j, s in enumerate(seqs):
        tokens[:len(s), j] = s
        mask[:len(s), j] = 1.0
    return tokens, mask


def lm_train(lm, corpus, epochs, rng, lr=1e-3, batch_size=32):
    """Maximize teacher-forced likelihood with Adam; returns the final
    per-token perplexity over the corpus."""
    if not corpus:
        raise ValueError("lm_train: empty corpus")
    _check_lm_tokens(lm, pad_sequences(corpus, lm.vocab.eos)[0])
    params = lm.param_set()
    opt = nn.Adam(lr=lr)
    n = len(corpus)
    for _ in range(int(epochs)):
        order = rng.permutation(n)
        for lo in range(0, n, batch_size):
            chunk = [corpus[k] for k in order[lo:lo + batch_size]]
            tokens, mask = pad_sequences(chunk, lm.vocab.eos)
            with ag.tape() as tp:
                params.zero_grads()
                nll, count = lm_nll_batch(lm, tokens, mask)
                loss = ag.scale(nll, 1.0 / count)
                tp.backward(loss)
            opt.step(params, params.grads())
    return lm_perplexity(lm, corpus)


def lm_perplexity(lm, corpus):
    """exp(mean per-token NLL) without building gradients."""
    tokens, mask = pad_sequences(corpus, lm.vocab.eos)
    nll, count = lm_nll_batch(lm, tokens, mask)
    return float(np.exp(nll.item() / count))

