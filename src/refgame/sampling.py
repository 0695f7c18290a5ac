"""Stochastic token machinery: named RNG streams, Gumbel noise, the
batched Gumbel-softmax relaxation, and the learned inverse-temperature
network.  agents.generate_batch draws tokens from these: Gumbel-max for
sampling, and for straight-through the argmax of the same relaxation
that carries the gradient.

Randomness is drawn from named counter-based streams: ``stream(seed,
*key)`` returns a fresh Philox generator for that key, so any draw can
be replayed later from (seed, key) alone.  Perturbation probes rely on
this to reuse identical Gumbel noise across objective evaluations.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from . import nn

# Stream domains.  Every consumer of randomness derives its generator
# from (seed, domain, *indices) so no two purposes share a stream.
DOMAIN_WORLD = 1
DOMAIN_INIT = 2
DOMAIN_BATCH = 3
DOMAIN_GUMBEL = 4
DOMAIN_EVAL = 5
DOMAIN_LM = 6
DOMAIN_PROBE = 7
DOMAIN_SPLIT = 8
DOMAIN_CAPTION = 9


def stream(seed, *key):
    """Named generator: independent Philox stream for (seed, *key)."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def gumbel_noise(rng, shape):
    """Gumbel(0, 1) draws g = -log(-log(u)), u ~ U(0,1), clamped finite."""
    u = rng.random(shape)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def gumbel_softmax_rows(logits, inv_temperature, noise):
    """Batched relaxation on (B, V) logits.

    ``inv_temperature`` is either a float (fixed temperature 1/value) or
    a (B, 1) Tensor of per-row inverse temperatures.
    """
    y = ag.add(ag.log_softmax_rows(logits), ag.tensor(noise))
    if isinstance(inv_temperature, ag.Tensor):
        y = ag.mul_rows(y, inv_temperature)
    else:
        y = ag.scale(y, float(inv_temperature))
    return ag.softmax_rows(y)


class TemperatureNet:
    """Learned per-step inverse temperature:

        1 / tau(h) = softplus(w . h) + tau0

    so tau(h) <= 1/tau0 whenever tau0 > 0.  An optional tanh hidden layer
    can replace the single linear map.
    """

    def __init__(self, w, tau0, hidden=None):
        self.w = ag.param(w)
        self.tau0 = float(tau0)
        self.hidden = hidden
        if tau0 < 0:
            raise ValueError("TemperatureNet: tau0 must be >= 0")

    @classmethod
    def create(cls, rng, hidden_size, tau0, hidden_units=0):
        if hidden_units > 0:
            hid = nn.AffineMap.create(rng, hidden_size, hidden_units)
            w = nn.glorot(rng, hidden_units, 1)
            net = cls(w, tau0, hidden=hid)
        else:
            net = cls(nn.glorot(rng, hidden_size, 1), tau0)
        return net

    def inverse_col(self, h):
        """(B, H) hidden states -> (B, 1) inverse temperatures."""
        x = h
        if self.hidden is not None:
            x = ag.tanh(self.hidden(x))
        return ag.add_const(ag.softplus(ag.matmul(x, self.w)), self.tau0)

    def named_params(self, prefix):
        out = [(f"{prefix}.w", self.w)]
        if self.hidden is not None:
            out = self.hidden.named_params(f"{prefix}.hidden") + out
        return out

