"""Finite-difference verification of every autograd op and every layer.

Each case draws random inputs, runs the computation under a tape, and
contracts the output with a random probe matrix to get a scalar.  The
analytic gradient of that scalar with respect to every input is compared
against central differences on the same function.

The random probe matters: contracting with ones would hide real bugs.
The sum of a softmax row is identically 1, so ones-contraction gives a
zero gradient no matter how wrong the softmax backward rule is.
"""

from __future__ import annotations

import time
import zlib

import numpy as np

from . import autograd as ag
from . import nn
from . import sampling as smp

FD_STEP = 1e-5
FD_TOL = 1e-5


def rel_err(analytic, numeric):
    """max |a - n| / max(max|a|, max|n|, 1)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(n), initial=0.0), 1.0)
    return float(np.max(np.abs(a - n), initial=0.0) / denom)


def numeric_grads(f, arrays, step=FD_STEP):
    """Central-difference gradients of scalar f(arrays) w.r.t. each array."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            fp = f(arrays)
            flat[j] = orig - step
            fm = f(arrays)
            flat[j] = orig
            gflat[j] = (fp - fm) / (2.0 * step)
        grads.append(g)
    return grads


def check_case(build, rng, step=FD_STEP):
    """Run one randomized trial of a case; returns the worst relative error.

    ``build(rng)`` returns (arrays, fn) where fn maps a list of Tensors to
    an output Tensor of any shape.
    """
    arrays, fn = build(rng)
    out0 = fn([ag.tensor(a) for a in arrays])
    probe = rng.uniform(-1.0, 1.0, size=out0.data.shape)

    def scalar(arrs):
        o = fn([ag.tensor(x) for x in arrs])
        return float(np.sum(o.data * probe))

    with ag.tape() as tp:
        params = [ag.param(x) for x in arrays]
        loss = ag.sum_all(ag.mul(fn(params), ag.tensor(probe)))
        tp.backward(loss)
    analytic = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    numeric = numeric_grads(scalar, [x.copy() for x in arrays], step=step)
    return max(rel_err(a, n) for a, n in zip(analytic, numeric))


def _u(rng, *shape, lo=-2.0, hi=2.0):
    return rng.uniform(lo, hi, size=shape)


def _away_from_zero(rng, *shape, lo=0.5, hi=2.5):
    return rng.uniform(lo, hi, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def _elementwise(op, sampler=_u):
    def build(rng):
        return [sampler(rng, 3, 4)], lambda t: op(t[0])
    return build


def _binary(op, sampler_b=_u):
    def build(rng):
        return [_u(rng, 3, 4), sampler_b(rng, 3, 4)], lambda t: op(t[0], t[1])
    return build


def _binary_scalar(op, sampler_b=_u):
    def build(rng):
        return [_u(rng, 3, 4), sampler_b(rng, 1)], lambda t: op(t[0], t[1])
    return build


def _lstm_arrays(rng):
    """x, h, c, w_x, w_h, b for a cell with input 4 and hidden 3."""
    return [_u(rng, 2, 4), _u(rng, 2, 3), _u(rng, 2, 3),
            _u(rng, 4, 12, lo=-0.5, hi=0.5), _u(rng, 3, 12, lo=-0.5, hi=0.5),
            _u(rng, 12, lo=-0.5, hi=0.5)]


def _lstm_cell(outputs):
    """lstm_cell with the probe on h_new, c_new, or a mix of both; with one
    output the other gets no gradient."""
    def build(rng):
        arrays, mix = _lstm_arrays(rng), _u(rng, 2, 3)

        def fn(t):
            h, c = ag.lstm_cell(*t)
            if outputs == "h":
                return h
            if outputs == "c":
                return c
            return ag.add(h, ag.mul(c, ag.tensor(mix)))
        return arrays, fn
    return build


def _build_lstm(rng):
    arrays, mix = _lstm_arrays(rng), _u(rng, 2, 3)

    def fn(t):
        cell = nn.LstmCell(arrays[3], arrays[4], arrays[5])
        cell.w_x, cell.w_h, cell.b = t[3], t[4], t[5]
        h, c = cell.step(t[0], t[1], t[2])
        return ag.add(h, ag.mul(c, ag.tensor(mix)))
    return arrays, fn


def _build_affine_map(rng):
    arrays = [_u(rng, 4, 2), _u(rng, 2), _u(rng, 3, 4)]

    def fn(t):
        m = nn.AffineMap(arrays[0], arrays[1])
        m.w, m.b = t[0], t[1]
        return m(t[2])
    return arrays, fn


def _build_embedding_soft(rng):
    # width 5 against a 6-row table exercises the leading-rows path
    arrays = [_u(rng, 6, 4), _u(rng, 2, 5)]

    def fn(t):
        emb = nn.EmbeddingTable(arrays[0])
        emb.table = t[0]
        return emb.soft(t[1])
    return arrays, fn


def _build_mlp(rng):
    arrays = [_u(rng, 4, 5, lo=-0.8, hi=0.8), _u(rng, 5, lo=-0.5, hi=0.5),
              _u(rng, 5, 3, lo=-0.8, hi=0.8), _u(rng, 3, lo=-0.5, hi=0.5),
              _u(rng, 3, 1, lo=-0.8, hi=0.8), _u(rng, 1, lo=-0.5, hi=0.5),
              _u(rng, 2, 4)]

    def fn(t):
        maps = []
        for k in range(3):
            m = nn.AffineMap(arrays[2 * k], arrays[2 * k + 1])
            m.w, m.b = t[2 * k], t[2 * k + 1]
            maps.append(m)
        return nn.Mlp(maps)(t[6])
    return arrays, fn


def _build_temperature(rng):
    arrays = [_u(rng, 3, 1), _u(rng, 2, 3)]

    def fn(t):
        net = smp.TemperatureNet(arrays[0], 0.2)
        net.w = t[0]
        return net.inverse_col(t[1])
    return arrays, fn


def _build_gumbel_softmax_rows(rng):
    noise = smp.gumbel_noise(rng, (3, 5))
    arrays = [_u(rng, 3, 5), _u(rng, 3, 1, lo=0.5, hi=2.0)]

    def fn(t):
        return smp.gumbel_softmax_rows(t[0], t[1], noise)
    return arrays, fn


def all_cases():
    """(name, build) pairs covering the full op registry plus every layer."""
    cases = [
        ("add", _binary(ag.add)),
        ("add:scalar", _binary_scalar(ag.add)),
        ("sub", _binary(ag.sub)),
        ("sub:scalar", _binary_scalar(ag.sub)),
        ("mul", _binary(ag.mul)),
        ("mul:scalar", _binary_scalar(ag.mul)),
        ("sigmoid", _elementwise(ag.sigmoid)),
        ("tanh", _elementwise(ag.tanh)),
        ("softplus", _elementwise(ag.softplus)),
        ("relu_hinge", _elementwise(ag.relu, sampler=_away_from_zero)),
        ("softmax_rows", _elementwise(ag.softmax_rows)),
        ("log_softmax_rows", _elementwise(ag.log_softmax_rows)),
        ("sum", _elementwise(ag.sum_all)),
        ("mean", _elementwise(ag.mean_all)),
        ("sum_rows", _elementwise(ag.sum_rows)),
    ]

    def scale_build(rng):
        c = float(rng.uniform(-2.0, 2.0))
        return [_u(rng, 3, 4)], lambda t: ag.scale(t[0], c)
    cases.append(("scale", scale_build))

    def add_const_build(rng):
        c = float(rng.uniform(-2.0, 2.0))
        return [_u(rng, 3, 4)], lambda t: ag.add_const(t[0], c)
    cases.append(("add_const", add_const_build))

    cases.append(("matmul",
                  lambda rng: ([_u(rng, 3, 4), _u(rng, 4, 2)],
                               lambda t: ag.matmul(t[0], t[1]))))
    cases.append(("affine",
                  lambda rng: ([_u(rng, 3, 4), _u(rng, 4, 2), _u(rng, 2)],
                               lambda t: ag.affine(t[0], t[1], t[2]))))
    cases.append(("mul_rows",
                  lambda rng: ([_u(rng, 3, 4), _u(rng, 3, 1)],
                               lambda t: ag.mul_rows(t[0], t[1]))))
    cases.append(("repeat_cols",
                  lambda rng: ([_u(rng, 3, 1)],
                               lambda t: ag.repeat_cols(t[0], 4))))
    cases.append(("slice",
                  lambda rng: ([_u(rng, 3, 6)],
                               lambda t: ag.slice_cols(t[0], 1, 4))))
    cases.append(("slice_rows",
                  lambda rng: ([_u(rng, 5, 4)],
                               lambda t: ag.slice_rows(t[0], 1, 3))))

    def rows_build(rng):
        ids = rng.integers(0, 6, size=5)
        ids[1] = ids[0]  # force a repeat so gather-backward must accumulate
        return [_u(rng, 6, 4)], lambda t: ag.rows(t[0], ids)
    cases.append(("rows", rows_build))

    def pick_build(rng):
        ids = rng.integers(0, 5, size=4)
        return [_u(rng, 4, 5)], lambda t: ag.pick_per_row(t[0], ids)
    cases.append(("pick_per_row", pick_build))

    def carry_build(rng):
        mask = np.array([[1.0], [0.0], [float(rng.integers(0, 2))]])
        return ([_u(rng, 3, 4), _u(rng, 3, 4)],
                lambda t: ag.masked_carry(t[0], t[1], mask))
    cases.append(("masked_carry", carry_build))
    cases.append(("batch_dot",
                  lambda rng: ([_u(rng, 2, 3, 4), _u(rng, 2, 4)],
                               lambda t: ag.batch_dot(t[0], t[1]))))

    cases.extend([
        ("lstm_cell", _lstm_cell("both")),
        ("lstm_cell:h_only", _lstm_cell("h")),
        ("lstm_cell:c_only", _lstm_cell("c")),
        ("layer:lstm_step", _build_lstm),
        ("layer:affine_map", _build_affine_map),
        ("layer:embedding_soft", _build_embedding_soft),
        ("layer:mlp", _build_mlp),
        ("layer:temperature", _build_temperature),
        ("layer:gumbel_softmax_rows", _build_gumbel_softmax_rows),
    ])
    return cases


def _case_rng(seed, name, trial):
    return np.random.default_rng([seed, zlib.crc32(name.encode()), trial])


def run_all(seed=0, trials=20, step=FD_STEP, tol=FD_TOL):
    """Run every case; returns [(name, max_rel_err, passed)]."""
    report = []
    for name, build in all_cases():
        worst = 0.0
        for trial in range(trials):
            worst = max(worst, check_case(build, _case_rng(seed, name, trial), step=step))
        report.append((name, worst, worst < tol))
    return report


def format_report(report, elapsed=None):
    lines = []
    width = max(len(name) for name, _, _ in report)
    for name, err, ok in report:
        lines.append(f"{name:<{width}}  {err:.3e}  {'ok' if ok else 'FAIL'}")
    bad = sum(1 for _, _, ok in report if not ok)
    tail = f"{len(report) - bad}/{len(report)} cases ok"
    if elapsed is not None:
        tail += f" in {elapsed:.1f}s"
    lines.append(tail)
    return "\n".join(lines)


def main_check(seed=0, trials=20):
    """Full suite with timing; returns (report, elapsed_seconds)."""
    t0 = time.perf_counter()
    report = run_all(seed=seed, trials=trials)
    return report, time.perf_counter() - t0
