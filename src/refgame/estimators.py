"""Gradient estimation for the sender's discrete sampling step.

Every estimator path plays the game through one round, play_batch
(generate, read, score, hinge), and reports the same game_metrics.
Three routes to a sender gradient:

  * reinforce_step: score-function estimator.  The surrogate
    mean[(l - baseline) * log q(m)] has, by construction, the gradient
    mean[(l - baseline) * d log q / d phi] with the centered signal held
    constant, so descending it descends the expected game loss.  Running
    baseline and variance statistics (decay rho) center the signal and
    scale the sender's learning rate by 1/max(std, floor).
  * stgs_step: straight-through relaxation.  The forward pass is fully
    discrete (one-hot inter-agent tensors); the backward pass follows the
    temperature-controlled relaxation.
  * pseudograd_dot: central-difference probe of direction . gradient with
    frozen batch and Gumbel noise, used to measure how often the ST-GS
    direction makes an acute angle with the true descent direction.
"""

from __future__ import annotations

import numpy as np

from . import agents
from . import autograd as ag
from . import game
from . import nn
from . import sampling as smp

VAR_FLOOR = 1e-4
BASELINE_DECAY = 0.99


class ReinforceState:
    """Running signal statistics plus the optional input-dependent
    baseline network (trained by squared error against the signal)."""

    def __init__(self, rho=BASELINE_DECAY, var_floor=VAR_FLOOR,
                 baseline_mlp=None, mlp_lr=1e-3):
        self.rho = float(rho)
        self.var_floor = float(var_floor)
        self.m1 = 0.0
        self.m2 = 0.0
        self.t = 0
        self.baseline_mlp = baseline_mlp
        self.mlp_params = None
        self.mlp_opt = None
        if baseline_mlp is not None:
            self.mlp_params = nn.ParamSet(baseline_mlp.named_params("baseline"))
            self.mlp_opt = nn.Adam(lr=mlp_lr)

    @classmethod
    def with_input_baseline(cls, rng, feature_dim, hidden=(128, 64), **kw):
        mlp = nn.Mlp.create(rng, (feature_dim, *hidden, 1))
        return cls(baseline_mlp=mlp, **kw)

    def baseline(self):
        """Bias-corrected running mean of the signal; 0 before any update."""
        if self.t == 0:
            return 0.0
        return self.m1 / (1.0 - self.rho ** self.t)

    def variance(self):
        if self.t == 0:
            return 0.0
        corr = 1.0 - self.rho ** self.t
        return max(self.m2 / corr - (self.m1 / corr) ** 2, 0.0)

    def lr_scale(self):
        """Sender learning-rate multiplier 1/max(std, floor); 1 before any
        statistics exist."""
        if self.t == 0:
            return 1.0
        return 1.0 / max(np.sqrt(self.variance()), self.var_floor)

    def update(self, signal):
        self.t += 1
        self.m1 = self.rho * self.m1 + (1.0 - self.rho) * float(np.mean(signal))
        self.m2 = self.rho * self.m2 + (1.0 - self.rho) * float(np.mean(signal ** 2))


def _grad_norm(grads):
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def play_batch(sender, receiver, batch, mode, noise=None, rng=None,
               terminate=True):
    """One round of the game on a batch: the sender's rollout in the given
    mode, the receiver's read of it, the candidate scores and the (B, 1)
    hinge column.  Returns (roll, scores, hinge_col)."""
    roll = agents.generate_batch(sender, batch.target_feats, mode, noise=noise,
                                 rng=rng, terminate=terminate)
    scores = game.score_batch(agents.read_batch(receiver, roll), batch.cand_feats)
    return roll, scores, game.hinge_batch(scores, batch.target_index)


def game_metrics(roll, scores, hinge_col, batch):
    """Mean hinge, success rate and mean message length of one round."""
    succ = game.success_mask(scores.data, batch.target_index)
    return {
        "hinge": float(hinge_col.data.mean()),
        "success": float(succ.mean()),
        "mean_length": float(roll.lengths.mean()),
    }


def reinforce_step(state, sender, receiver, batch, rng=None, noise=None):
    """One REINFORCE update's gradients and metrics.

    The sampled message is discrete, so sender parameters only receive
    gradient through the surrogate; the receiver is trained by ordinary
    backpropagation through the hinge.  Statistics are updated after the
    current step's centering and scaling have been taken from them.
    """
    sender_ps = sender.param_set()
    receiver_ps = receiver.param_set()
    with ag.tape() as tp:
        sender_ps.zero_grads()
        receiver_ps.zero_grads()
        if state.mlp_params is not None:
            state.mlp_params.zero_grads()
        roll, scores, hinge_col = play_batch(sender, receiver, batch, "sample",
                                             noise=noise, rng=rng)
        signal = hinge_col.data.reshape(-1).copy()
        if not np.all(np.isfinite(signal)):
            raise FloatingPointError("reinforce_step: non-finite learning signal")

        if state.baseline_mlp is not None:
            bl_pred = state.baseline_mlp(ag.tensor(batch.target_feats))
            centered = signal - bl_pred.data.reshape(-1)
            resid = ag.sub(bl_pred, ag.tensor(signal.reshape(-1, 1).copy()))
            bl_mse = ag.mean_all(ag.mul(resid, resid))
        else:
            centered = signal - state.baseline()
            bl_mse = None

        surrogate = ag.mean_all(ag.mul(roll.logp_sum,
                                       ag.tensor(centered.reshape(-1, 1).copy())))
        total = ag.add(ag.mean_all(hinge_col), surrogate)
        if bl_mse is not None:
            total = ag.add(total, bl_mse)
        tp.backward(total)

    sender_grads = sender_ps.grads()
    receiver_grads = receiver_ps.grads()
    metrics = game_metrics(roll, scores, hinge_col, batch)
    metrics.update(loss=metrics["hinge"],
                   signal_mean=float(signal.mean()),
                   signal_variance=state.variance(),
                   lr_scale=state.lr_scale(),
                   grad_norm_sender=_grad_norm(sender_grads),
                   grad_norm_receiver=_grad_norm(receiver_grads))
    if state.mlp_params is not None:
        state.mlp_opt.step(state.mlp_params, state.mlp_params.grads())
        metrics["baseline_mse"] = bl_mse.item()
    state.update(signal)
    return sender_grads, receiver_grads, metrics


def stgs_step(sender, receiver, batch, rng=None, noise=None, relaxed=False):
    """One straight-through (or, with relaxed=True, pure relaxation)
    update's gradients and metrics.  A single backward pass covers both
    agents and the temperature net when the sender carries one."""
    mode = "relaxed" if relaxed else "straight_through"
    sender_ps = sender.param_set()
    receiver_ps = receiver.param_set()
    with ag.tape() as tp:
        sender_ps.zero_grads()
        receiver_ps.zero_grads()
        roll, scores, hinge_col = play_batch(sender, receiver, batch, mode,
                                             noise=noise, rng=rng)
        tp.backward(ag.mean_all(hinge_col))
    sender_grads = sender_ps.grads()
    receiver_grads = receiver_ps.grads()
    metrics = game_metrics(roll, scores, hinge_col, batch)
    metrics.update(loss=metrics["hinge"],
                   grad_norm_sender=_grad_norm(sender_grads),
                   grad_norm_receiver=_grad_norm(receiver_grads))
    return sender_grads, receiver_grads, metrics


# ---------------------------------------------------------------------------
# pseudogradient probes


def joint_params(sender, receiver):
    return nn.ParamSet(sender.named_params() + receiver.named_params())


def batch_loss_value(sender, receiver, batch, noise, mode="straight_through",
                     terminate=True):
    """Mean hinge loss on a frozen (batch, noise) pair, evaluated without
    building a graph."""
    _, _, hinge_col = play_batch(sender, receiver, batch, mode, noise=noise,
                                 terminate=terminate)
    return float(hinge_col.data.mean())


def game_objective(sender, receiver, params, batch, noise,
                   mode="straight_through", terminate=True):
    """Closure J(flat parameter vector) -> float with (batch, noise)
    frozen; restores the original parameters after each evaluation."""
    def objective(vec):
        saved = params.flatten()
        try:
            params.assign_flat(vec)
            return batch_loss_value(sender, receiver, batch, noise, mode=mode,
                                    terminate=terminate)
        finally:
            params.assign_flat(saved)
    return objective


def estimator_direction(sender, receiver, params, batch, noise,
                        mode="straight_through", terminate=True):
    """Flat gradient of the mean hinge loss in the given mode on the
    frozen (batch, noise) pair."""
    with ag.tape() as tp:
        params.zero_grads()
        _, _, hinge_col = play_batch(sender, receiver, batch, mode, noise=noise,
                                     terminate=terminate)
        tp.backward(ag.mean_all(hinge_col))
    return params.flatten_dict(params.grads())


def pseudograd_dot(objective, u, delta, eps):
    """Central difference (J(u + eps*delta) - J(u - eps*delta)) / (2 eps),
    an estimate of delta . grad J."""
    if eps <= 0:
        raise ValueError("pseudograd_dot: eps must be positive")
    u = np.asarray(u, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if u.shape != delta.shape:
        raise ag.ShapeError(f"pseudograd_dot: direction shape {delta.shape} "
                            f"vs params {u.shape}")
    jp = objective(u + eps * delta)
    jm = objective(u - eps * delta)
    if not (np.isfinite(jp) and np.isfinite(jm)):
        raise FloatingPointError("pseudograd_dot: non-finite objective value")
    return (jp - jm) / (2.0 * eps)


def acute_angle_fraction(sender, receiver, world, n_distractors, batch_size,
                         n_probes, eps, seed, relaxed_control=False):
    """Fraction of probes where the estimator direction has a positive
    central-difference dot with the true gradient.

    Each probe freezes one fresh batch and one Gumbel-noise array, takes
    delta = the ST-GS gradient (or, for the control, the gradient of the
    terminationless relaxed objective, which is smooth end to end), and
    evaluates pseudograd_dot with that same noise.  Returns (fraction,
    list of dot values).
    """
    params = joint_params(sender, receiver)
    vocab = sender.vocab
    mode = "relaxed" if relaxed_control else "straight_through"
    terminate = not relaxed_control
    dots = []
    for p in range(n_probes):
        batch = game.make_batch(world, batch_size, n_distractors,
                                smp.stream(seed, smp.DOMAIN_PROBE, p, 0))
        noise = smp.gumbel_noise(smp.stream(seed, smp.DOMAIN_PROBE, p, 1),
                                 (vocab.max_len, batch_size, vocab.n_outcomes))
        delta = estimator_direction(sender, receiver, params, batch, noise,
                                    mode=mode, terminate=terminate)
        if not np.any(delta):
            continue
        objective = game_objective(sender, receiver, params, batch, noise,
                                   mode=mode, terminate=terminate)
        dots.append(pseudograd_dot(objective, params.flatten(), delta, eps))
    fraction = float(np.mean([d > 0 for d in dots])) if dots else 0.0
    return fraction, dots
