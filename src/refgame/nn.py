"""Neural building blocks on the autograd engine: LSTM cell, embeddings,
affine maps, a small MLP, and Adam.

All layers operate on (B, features) matrices; a single instance is a
one-row matrix.  Parameters are exposed as (name, Tensor) pairs so
checkpointing and flattening see one stable, ordered namespace.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def glorot(rng, n_in, n_out):
    """Uniform Glorot draw for an (n_in, n_out) matrix."""
    s = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-s, s, size=(n_in, n_out))


class AffineMap:
    """y = x @ w + b."""

    def __init__(self, w, b):
        self.w = ag.param(w)
        self.b = ag.param(b)

    @classmethod
    def create(cls, rng, n_in, n_out):
        return cls(glorot(rng, n_in, n_out), np.zeros(n_out))

    @property
    def n_out(self):
        return self.b.shape[0]

    def __call__(self, x):
        return ag.affine(x, self.w, self.b)

    def named_params(self, prefix):
        return [(f"{prefix}.w", self.w), (f"{prefix}.b", self.b)]


class LstmCell:
    """Single-layer LSTM cell.

    Gate pre-activations are computed in one fused (4H) block with column
    order input | forget | candidate | output.  The forget-gate bias
    block is initialized to 1.0.  A step is one ``ag.lstm_cell`` tape node
    with a hand-written backward.
    """

    def __init__(self, w_x, w_h, b):
        self.w_x = ag.param(w_x)
        self.w_h = ag.param(w_h)
        self.b = ag.param(b)
        self.input_size = w_x.shape[0]
        self.hidden_size = w_x.shape[1] // 4

    @classmethod
    def create(cls, rng, input_size, hidden_size):
        w_x = glorot(rng, input_size, 4 * hidden_size)
        w_h = glorot(rng, hidden_size, 4 * hidden_size)
        b = np.zeros(4 * hidden_size)
        b[hidden_size:2 * hidden_size] = 1.0
        return cls(w_x, w_h, b)

    def step(self, x, h, c):
        """One recurrence step on (B, ·) matrices; returns (h_new, c_new)."""
        return ag.lstm_cell(x, h, c, self.w_x, self.w_h, self.b)

    def named_params(self, prefix):
        return [(f"{prefix}.w_x", self.w_x), (f"{prefix}.w_h", self.w_h),
                (f"{prefix}.b", self.b)]


class EmbeddingTable:
    """vocab_size x embed_dim parameter matrix with hard and soft lookup."""

    def __init__(self, table):
        self.table = ag.param(table)
        self.vocab_size = table.shape[0]
        self.embed_dim = table.shape[1]

    @classmethod
    def create(cls, rng, vocab_size, embed_dim):
        return cls(glorot(rng, vocab_size, embed_dim))

    def hard(self, ids):
        """Row lookup by integer ids; ids is a length-B sequence."""
        return ag.rows(self.table, ids)

    def soft(self, probs):
        """Probability-weighted row combination: (B, V') @ table[:V'].

        V' may be smaller than the table (e.g. the start symbol is never a
        softmax outcome), in which case the leading rows are used.
        """
        width = probs.shape[1]
        if width > self.vocab_size:
            raise ag.ShapeError(
                f"soft lookup: vector width {width} exceeds table rows {self.vocab_size}")
        block = self.table if width == self.vocab_size else ag.slice_rows(self.table, 0, width)
        return ag.matmul(probs, block)

    def named_params(self, prefix):
        return [(f"{prefix}.table", self.table)]


class Mlp:
    """Affine layers with tanh between them (none after the last)."""

    def __init__(self, layers):
        self.layers = layers

    @classmethod
    def create(cls, rng, sizes):
        layers = [AffineMap.create(rng, sizes[k], sizes[k + 1]) for k in range(len(sizes) - 1)]
        return cls(layers)

    def __call__(self, x):
        for k, layer in enumerate(self.layers):
            x = layer(x)
            if k < len(self.layers) - 1:
                x = ag.tanh(x)
        return x

    def named_params(self, prefix):
        out = []
        for k, layer in enumerate(self.layers):
            out.extend(layer.named_params(f"{prefix}.l{k}"))
        return out


class ParamSet:
    """Ordered name -> Tensor mapping over a component tree."""

    def __init__(self, named):
        self.names = [n for n, _ in named]
        self.tensors = dict(named)
        if len(self.names) != len(self.tensors):
            raise ValueError("ParamSet: duplicate parameter names")

    def __iter__(self):
        return iter((n, self.tensors[n]) for n in self.names)

    def __len__(self):
        return len(self.names)

    def zero_grads(self):
        for n in self.names:
            self.tensors[n].zero_grad()

    def grads(self):
        """Copy of current gradients, zeros where no gradient accumulated."""
        out = {}
        for n in self.names:
            p = self.tensors[n]
            out[n] = np.zeros_like(p.data) if p.grad is None else p.grad.copy()
        return out

    def flatten(self):
        return np.concatenate([self.tensors[n].data.reshape(-1) for n in self.names])

    def flatten_dict(self, arrays):
        return np.concatenate([np.asarray(arrays[n]).reshape(-1) for n in self.names])

    def assign_flat(self, vec):
        off = 0
        for n in self.names:
            p = self.tensors[n]
            k = p.data.size
            p.data = vec[off:off + k].reshape(p.data.shape).copy()
            off += k
        if off != vec.size:
            raise ag.ShapeError(f"assign_flat: vector length {vec.size}, expected {off}")


class Adam:
    """Adam with bias correction; one state pair per named parameter."""

    def __init__(self, lr=1e-3, beta1=ADAM_BETA1, beta2=ADAM_BETA2, eps=ADAM_EPS):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params, grads, lr=None):
        """Apply one update in place.  grads maps name -> array; a missing
        name leaves that parameter (and its moments) untouched."""
        alpha = self.lr if lr is None else lr
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for name, p in params:
            g = grads.get(name)
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"adam: non-finite gradient for {name}")
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= alpha * (m / b1t) / (np.sqrt(v / b2t) + self.eps)

