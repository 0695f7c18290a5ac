"""Minimal reverse-mode autodiff over dense float64 arrays.

Every differentiable computation in the package runs through the ops in
this module.  Design rules:

* define-by-run: a ``Tape`` records executed ops in order; ``backward``
  replays the record in exact reverse order.  A node has one output
  Tensor or a tuple of them (``lstm_cell`` returns ``(h_new, c_new)``);
  a multi-output node's backward gets one gradient per output, ``None``
  where an output received none.
* fused ops cover the chains the agents run at every step, each as one
  node with a hand-written backward: ``lstm_cell`` (one LSTM step),
  ``masked_carry`` (freeze finished rows of a recurrent state) and
  ``batch_dot`` (score every candidate against its row's vector).
* no silent broadcasting.  Elementwise ops require identical shapes; the
  single documented exception is a size-1 ("scalar") operand for
  ``add``/``sub``/``mul``.  Row-wise combinations are explicit
  ops (``affine``, ``mul_rows``, ``repeat_cols``).
* float64 throughout, so finite-difference checks can run at 1e-5.
* a gradient's first write copies, never aliases: backward rules hand the
  same array to several parents.

Ops only record onto a tape when one is active (see ``tape()``), which
keeps pure evaluation passes free of graph overhead.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform to an op's rule."""


def _shape_err(op, *shapes):
    return ShapeError(f"{op}: incompatible shapes {' and '.join(str(tuple(s)) for s in shapes)}")


class Tensor:
    """A dense float64 array plus an optional accumulated gradient."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item: tensor of shape {self.shape} is not a scalar")
        return float(self.data.reshape(-1)[0])

    def accumulate(self, g):
        # The first write copies: backward closures hand the same array (or
        # a view of it) to several parents, so the grad must never alias g.
        if self.grad is None and g.shape == self.data.shape:
            self.grad = np.array(g, dtype=np.float64)
        elif self.grad is None:
            self.grad = np.zeros_like(self.data) + g
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def tensor(data):
    """Constant (non-trainable) tensor."""
    return Tensor(data, requires_grad=False)


def param(data):
    """Trainable tensor."""
    return Tensor(data, requires_grad=True)


class Tape:
    """Ordered record of executed ops; backward runs it in reverse."""

    __slots__ = ("nodes", "consumed")

    def __init__(self):
        self.nodes = []
        self.consumed = False

    def record(self, out, backward_fn):
        """out is one Tensor or, for a multi-output op, a tuple of them."""
        self.nodes.append((out, backward_fn))

    def backward(self, loss):
        if loss.data.size != 1:
            raise ShapeError(f"backward: loss has shape {loss.shape}, expected a scalar")
        if self.consumed:
            raise RuntimeError("backward: tape already consumed; build a fresh graph per step")
        self.consumed = True
        loss.accumulate(np.ones_like(loss.data))
        for out, fn in reversed(self.nodes):
            if type(out) is tuple:
                grads = [o.grad for o in out]
                if any(g is not None for g in grads):
                    fn(*grads)
            elif out.grad is not None:
                fn(out.grad)


_TAPE_STACK: list[Tape] = []


@contextmanager
def tape():
    t = Tape()
    _TAPE_STACK.append(t)
    try:
        yield t
    finally:
        _TAPE_STACK.pop()


def active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _make(op_name, data, parents, backward_fn):
    """Create the output tensor and record it when recording is on."""
    out = Tensor(data)
    t = active_tape()
    if t is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        t.record(out, backward_fn)
    return out


def _make_many(op_name, datas, parents, backward_fn):
    """Multi-output _make: one tape node for a tuple of outputs.  The
    backward gets one gradient per output, None where none arrived."""
    outs = tuple(Tensor(d) for d in datas)
    t = active_tape()
    if t is not None and any(p.requires_grad for p in parents):
        for o in outs:
            o.requires_grad = True
        t.record(outs, backward_fn)
    return outs


def _is_scalar(x):
    return x.data.size == 1


# ---------------------------------------------------------------------------
# elementwise ops (identical shapes, or one size-1 operand)


def add(a, b):
    if a.shape != b.shape and not (_is_scalar(a) or _is_scalar(b)):
        raise _shape_err("add", a.shape, b.shape)
    out_data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g.sum().reshape(a.shape) if _is_scalar(a) and g.shape != a.shape else g)
        if b.requires_grad:
            b.accumulate(g.sum().reshape(b.shape) if _is_scalar(b) and g.shape != b.shape else g)

    return _make("add", out_data, (a, b), bwd)


def sub(a, b):
    if a.shape != b.shape and not (_is_scalar(a) or _is_scalar(b)):
        raise _shape_err("sub", a.shape, b.shape)
    out_data = a.data - b.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g.sum().reshape(a.shape) if _is_scalar(a) and g.shape != a.shape else g)
        if b.requires_grad:
            b.accumulate(-g.sum().reshape(b.shape) if _is_scalar(b) and g.shape != b.shape else -g)

    return _make("sub", out_data, (a, b), bwd)


def mul(a, b):
    if a.shape != b.shape and not (_is_scalar(a) or _is_scalar(b)):
        raise _shape_err("mul", a.shape, b.shape)
    out_data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            ga = g * b.data
            a.accumulate(ga.sum().reshape(a.shape) if _is_scalar(a) and ga.shape != a.shape else ga)
        if b.requires_grad:
            gb = g * a.data
            b.accumulate(gb.sum().reshape(b.shape) if _is_scalar(b) and gb.shape != b.shape else gb)

    return _make("mul", out_data, (a, b), bwd)


def scale(x, c):
    """Multiply by a python constant (not a graph input)."""
    c = float(c)
    out_data = x.data * c

    def bwd(g):
        if x.requires_grad:
            x.accumulate(g * c)

    return _make("scale", out_data, (x,), bwd)


def add_const(x, c):
    """Add a python constant."""
    out_data = x.data + float(c)

    def bwd(g):
        if x.requires_grad:
            x.accumulate(g)

    return _make("add_const", out_data, (x,), bwd)


# ---------------------------------------------------------------------------
# nonlinearities


def _sigmoid(z):
    t = np.exp(-np.abs(z))
    pos = 1.0 / (1.0 + t)
    return np.where(z >= 0, pos, t / (1.0 + t))


def sigmoid(x):
    out_data = _sigmoid(x.data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate(g * out_data * (1.0 - out_data))

    return _make("sigmoid", out_data, (x,), bwd)


def tanh(x):
    out_data = np.tanh(x.data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate(g * (1.0 - out_data * out_data))

    return _make("tanh", out_data, (x,), bwd)


def softplus(x):
    out_data = np.logaddexp(0.0, x.data)
    sig = np.where(x.data >= 0, 1.0 / (1.0 + np.exp(-np.abs(x.data))),
                   np.exp(-np.abs(x.data)) / (1.0 + np.exp(-np.abs(x.data))))

    def bwd(g):
        if x.requires_grad:
            x.accumulate(g * sig)

    return _make("softplus", out_data, (x,), bwd)


def relu(x):
    # Hinge-style rectifier; subgradient 0 at the kink.
    out_data = np.maximum(x.data, 0.0)

    def bwd(g):
        if x.requires_grad:
            x.accumulate(g * (x.data > 0))

    return _make("relu", out_data, (x,), bwd)


# ---------------------------------------------------------------------------
# row-wise ops on 2D arrays


def _rows_view(x, op):
    if x.data.ndim != 2:
        raise _shape_err(op, x.shape)
    return x.data


def softmax_rows(x):
    """Row-wise softmax; rows are positive and sum to 1."""
    xd = _rows_view(x, "softmax_rows")
    z = xd - xd.max(axis=1, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        if x.requires_grad:
            inner = (g * out_data).sum(axis=1, keepdims=True)
            x.accumulate(out_data * (g - inner))

    return _make("softmax_rows", out_data, (x,), bwd)


def log_softmax_rows(x):
    """Row-wise log-softmax (stable); exp of the output matches softmax_rows."""
    xd = _rows_view(x, "log_softmax_rows")
    m = xd.max(axis=1, keepdims=True)
    z = xd - m
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    out_data = z - lse
    soft = np.exp(out_data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate(g - soft * g.sum(axis=1, keepdims=True))

    return _make("log_softmax_rows", out_data, (x,), bwd)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise _shape_err("matmul", a.shape, b.shape)
    out_data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ g)

    return _make("matmul", out_data, (a, b), bwd)


def affine(x, w, b):
    """x @ w + b with the bias added to every row."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise _shape_err("affine", x.shape, w.shape, b.shape)
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise _shape_err("affine", x.shape, w.shape, b.shape)
    out_data = x.data @ w.data + b.data

    def bwd(g):
        if x.requires_grad:
            x.accumulate(g @ w.data.T)
        if w.requires_grad:
            w.accumulate(x.data.T @ g)
        if b.requires_grad:
            b.accumulate(g.sum(axis=0))

    return _make("affine", out_data, (x, w, b), bwd)


def mul_rows(x, col):
    """Scale each row of x by the matching entry of a (B, 1) column."""
    if x.data.ndim != 2 or col.data.ndim != 2 or col.shape != (x.shape[0], 1):
        raise _shape_err("mul_rows", x.shape, col.shape)
    out_data = x.data * col.data

    def bwd(g):
        if x.requires_grad:
            x.accumulate(g * col.data)
        if col.requires_grad:
            col.accumulate((g * x.data).sum(axis=1, keepdims=True))

    return _make("mul_rows", out_data, (x, col), bwd)


def repeat_cols(col, n):
    """Tile a (B, 1) column into (B, n)."""
    if col.data.ndim != 2 or col.shape[1] != 1:
        raise _shape_err("repeat_cols", col.shape)
    out_data = np.repeat(col.data, n, axis=1)

    def bwd(g):
        if col.requires_grad:
            col.accumulate(g.sum(axis=1, keepdims=True))

    return _make("repeat_cols", out_data, (col,), bwd)


def slice_cols(x, start, stop):
    if x.data.ndim != 2 or not (0 <= start < stop <= x.shape[1]):
        raise ShapeError(f"slice_cols: [{start}:{stop}] invalid for shape {x.shape}")
    out_data = x.data[:, start:stop].copy()

    def bwd(g):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[:, start:stop] += g

    return _make("slice_cols", out_data, (x,), bwd)


def slice_rows(x, start, stop):
    if x.data.ndim != 2 or not (0 <= start < stop <= x.shape[0]):
        raise ShapeError(f"slice_rows: [{start}:{stop}] invalid for shape {x.shape}")
    out_data = x.data[start:stop, :].copy()

    def bwd(g):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[start:stop, :] += g

    return _make("slice_rows", out_data, (x,), bwd)


def rows(table, ids):
    """Gather rows of a 2D table by integer ids (hard embedding lookup)."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2 or ids.ndim != 1:
        raise _shape_err("rows", table.shape, ids.shape)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError(f"rows: id out of range for table with {table.shape[0]} rows")
    out_data = table.data[ids].copy()

    def bwd(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, g)

    return _make("rows", out_data, (table,), bwd)


def pick_per_row(x, ids):
    """Select one entry per row: out[b, 0] = x[b, ids[b]]."""
    ids = np.asarray(ids, dtype=np.int64)
    if x.data.ndim != 2 or ids.shape != (x.shape[0],):
        raise _shape_err("pick_per_row", x.shape, ids.shape)
    rng_idx = np.arange(x.shape[0])
    out_data = x.data[rng_idx, ids].reshape(-1, 1)

    def bwd(g):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[rng_idx, ids] += g[:, 0]

    return _make("pick_per_row", out_data, (x,), bwd)


# ---------------------------------------------------------------------------
# fused ops: one tape node each for a chain the agents run at every step


def lstm_cell(x, h, c, w_x, w_h, b):
    """One LSTM step on (B, ·) rows as a single node; returns (h_new, c_new).

    Gate pre-activations z = (x @ w_x + b) + h @ w_h have the column blocks
    input | forget | candidate | output.  The forward keeps the NumPy
    expressions of the unfused chain (affine, add, a contiguous copy of each
    gate block through sigmoid or tanh, then f*c + i*g and o*tanh(c_new)),
    so its values are bit-identical to that chain's.
    """
    if (x.data.ndim != 2 or h.data.ndim != 2 or c.shape != h.shape
            or w_x.data.ndim != 2 or w_h.data.ndim != 2 or b.data.ndim != 1
            or x.shape[0] != h.shape[0] or w_x.shape[0] != x.shape[1]
            or w_h.shape != (h.shape[1], 4 * h.shape[1])
            or w_x.shape[1] != w_h.shape[1] or b.shape[0] != w_h.shape[1]):
        raise _shape_err("lstm_cell", x.shape, h.shape, c.shape, w_x.shape,
                         w_h.shape, b.shape)
    hs = h.shape[1]
    z = (x.data @ w_x.data + b.data) + h.data @ w_h.data
    i = _sigmoid(z[:, :hs].copy())
    f = _sigmoid(z[:, hs:2 * hs].copy())
    g = np.tanh(z[:, 2 * hs:3 * hs].copy())
    o = _sigmoid(z[:, 3 * hs:].copy())
    c_new = f * c.data + i * g
    tanh_c = np.tanh(c_new)
    h_new = o * tanh_c

    def bwd(g_h, g_c):
        dz = np.empty_like(z)
        if g_h is None:
            dc = g_c
            dz[:, 3 * hs:] = 0.0
        else:
            dc = g_h * o * (1.0 - tanh_c * tanh_c)
            if g_c is not None:
                dc += g_c
            dz[:, 3 * hs:] = g_h * tanh_c * o * (1.0 - o)
        dz[:, :hs] = dc * g * i * (1.0 - i)
        dz[:, hs:2 * hs] = dc * c.data * f * (1.0 - f)
        dz[:, 2 * hs:3 * hs] = dc * i * (1.0 - g * g)
        if x.requires_grad:
            x.accumulate(dz @ w_x.data.T)
        if h.requires_grad:
            h.accumulate(dz @ w_h.data.T)
        if c.requires_grad:
            c.accumulate(dc * f)
        if w_x.requires_grad:
            w_x.accumulate(x.data.T @ dz)
        if w_h.requires_grad:
            w_h.accumulate(h.data.T @ dz)
        if b.requires_grad:
            b.accumulate(dz.sum(axis=0))

    return _make_many("lstm_cell", (h_new, c_new), (x, h, c, w_x, w_h, b), bwd)


def masked_carry(new, old, mask):
    """mask * new + (1 - mask) * old with a constant (B, 1) column mask:
    rows whose mask is 0 keep the old value, rows whose mask is 1 take the
    new one."""
    m = np.asarray(mask, dtype=np.float64)
    if new.data.ndim != 2 or old.shape != new.shape or m.shape != (new.shape[0], 1):
        raise _shape_err("masked_carry", new.shape, old.shape, m.shape)
    keep = 1.0 - m
    out_data = new.data * m + old.data * keep

    def bwd(g):
        if new.requires_grad:
            new.accumulate(g * m)
        if old.requires_grad:
            old.accumulate(g * keep)

    return _make("masked_carry", out_data, (new, old), bwd)


def batch_dot(cands, g):
    """out[b, k] = cands[b, k] . g[b] for (B, K, D) cands and (B, D) rows."""
    if (cands.data.ndim != 3 or g.data.ndim != 2
            or cands.shape[0] != g.shape[0] or cands.shape[2] != g.shape[1]):
        raise _shape_err("batch_dot", cands.shape, g.shape)
    out_data = np.matmul(cands.data, g.data[:, :, None])[:, :, 0]

    def bwd(go):
        if cands.requires_grad:
            cands.accumulate(go[:, :, None] * g.data[:, None, :])
        if g.requires_grad:
            g.accumulate(np.matmul(go[:, None, :], cands.data)[:, 0, :])

    return _make("batch_dot", out_data, (cands, g), bwd)


# ---------------------------------------------------------------------------
# reductions


def sum_all(x):
    out_data = np.array([x.data.sum()])

    def bwd(g):
        if x.requires_grad:
            x.accumulate(np.full_like(x.data, g[0]))

    return _make("sum_all", out_data, (x,), bwd)


def mean_all(x):
    n = x.data.size
    out_data = np.array([x.data.sum() / n])

    def bwd(g):
        if x.requires_grad:
            x.accumulate(np.full_like(x.data, g[0] / n))

    return _make("mean_all", out_data, (x,), bwd)


def sum_rows(x):
    """Sum each row of a 2D array into a (B, 1) column."""
    if x.data.ndim != 2:
        raise _shape_err("sum_rows", x.shape)
    out_data = x.data.sum(axis=1, keepdims=True)

    def bwd(g):
        if x.requires_grad:
            x.accumulate(np.repeat(g, x.shape[1], axis=1))

    return _make("sum_rows", out_data, (x,), bwd)


# ---------------------------------------------------------------------------
# straight-through discretization


def straight_through(relaxed, _tol=1e-9):
    """Forward: exact one-hot at each row's argmax (ties to the lowest
    index) of a (B, V) matrix of probability rows.

    Backward: identity, i.e. the upstream gradient is passed to the
    relaxed probabilities unchanged.
    """
    d = relaxed.data
    if d.size == 0:
        raise ShapeError("straight_through: empty input")
    if d.ndim != 2:
        raise _shape_err("straight_through", relaxed.shape)
    if np.any(d < -_tol) or np.any(np.abs(d.sum(axis=1) - 1.0) > _tol):
        raise ValueError("straight_through: input rows are not probability vectors")
    out_data = np.zeros_like(d)
    out_data[np.arange(d.shape[0]), np.argmax(d, axis=1)] = 1.0

    def bwd(g):
        if relaxed.requires_grad:
            relaxed.accumulate(g)

    return _make("straight_through", out_data, (relaxed,), bwd)


# Registry of differentiable ops; the gradient-check harness covers each.
# straight_through is deliberately absent: its backward is an identity by
# definition, not the derivative of the forward.
OPS = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "scale": scale,
    "add_const": add_const,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "softplus": softplus,
    "relu_hinge": relu,
    "softmax_rows": softmax_rows,
    "log_softmax_rows": log_softmax_rows,
    "matmul": matmul,
    "affine": affine,
    "mul_rows": mul_rows,
    "repeat_cols": repeat_cols,
    "slice": slice_cols,
    "slice_rows": slice_rows,
    "rows": rows,
    "pick_per_row": pick_per_row,
    "sum": sum_all,
    "mean": mean_all,
    "sum_rows": sum_rows,
    "lstm_cell": lstm_cell,
    "masked_carry": masked_carry,
    "batch_dot": batch_dot,
}

