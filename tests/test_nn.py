"""Layer and optimizer checks: LSTM degenerate cases, embedding lookup
equalities, initialization statistics, and Adam against hand-computed
updates."""

import numpy as np
import pytest

import refgame.autograd as ag
import refgame.nn as nn


def zero_cell(input_size, hidden_size):
    return nn.LstmCell(np.zeros((input_size, 4 * hidden_size)),
                       np.zeros((hidden_size, 4 * hidden_size)),
                       np.zeros(4 * hidden_size))


def test_lstm_zero_params_keep_zero_state():
    cell = zero_cell(4, 3)
    h, c = cell.step(ag.tensor(np.random.default_rng(0).uniform(-2, 2, (2, 4))),
                     ag.tensor(np.zeros((2, 3))), ag.tensor(np.zeros((2, 3))))
    assert np.array_equal(h.data, np.zeros((2, 3)))
    assert np.array_equal(c.data, np.zeros((2, 3)))


def test_lstm_deterministic():
    rng = np.random.default_rng(7)
    cell = nn.LstmCell.create(rng, 4, 3)
    x = ag.tensor(rng.uniform(-1, 1, (2, 4)))
    h0 = ag.tensor(rng.uniform(-1, 1, (2, 3)))
    c0 = ag.tensor(rng.uniform(-1, 1, (2, 3)))
    h1, c1 = cell.step(x, h0, c0)
    h2, c2 = cell.step(x, h0, c0)
    assert np.array_equal(h1.data, h2.data)
    assert np.array_equal(c1.data, c2.data)


def test_lstm_dim_mismatch_rejected():
    cell = nn.LstmCell.create(np.random.default_rng(0), 4, 3)
    with pytest.raises(ag.ShapeError):
        cell.step(ag.tensor(np.zeros((2, 5))), ag.tensor(np.zeros((2, 3))),
                  ag.tensor(np.zeros((2, 3))))


def test_lstm_oracle_single_step():
    """Hand-rolled recurrence on plain arrays must match the layer."""
    rng = np.random.default_rng(3)
    cell = nn.LstmCell.create(rng, 2, 2)
    x = rng.uniform(-1, 1, (1, 2))
    h0 = rng.uniform(-1, 1, (1, 2))
    c0 = rng.uniform(-1, 1, (1, 2))

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    z = x @ cell.w_x.data + h0 @ cell.w_h.data + cell.b.data
    i, f, g, o = sig(z[:, 0:2]), sig(z[:, 2:4]), np.tanh(z[:, 4:6]), sig(z[:, 6:8])
    c_ref = f * c0 + i * g
    h_ref = o * np.tanh(c_ref)
    h, c = cell.step(ag.tensor(x), ag.tensor(h0), ag.tensor(c0))
    assert np.allclose(h.data, h_ref, atol=1e-14)
    assert np.allclose(c.data, c_ref, atol=1e-14)


def test_forget_bias_one():
    cell = nn.LstmCell.create(np.random.default_rng(0), 5, 4)
    b = cell.b.data
    assert np.array_equal(b[4:8], np.ones(4))
    assert np.array_equal(np.delete(b, np.s_[4:8]), np.zeros(12))


def test_glorot_deterministic_and_centered():
    a = nn.glorot(np.random.default_rng(11), 512, 512)
    b = nn.glorot(np.random.default_rng(11), 512, 512)
    assert np.array_equal(a, b)
    s = np.sqrt(6.0 / 1024.0)
    assert np.max(np.abs(a)) <= s
    # mean of 512*512 iid U(-s, s) draws: sd = s/sqrt(3)/512
    assert abs(a.mean()) < 3.0 * s / (np.sqrt(3.0) * 512.0)


def test_soft_one_hot_equals_hard():
    rng = np.random.default_rng(5)
    emb = nn.EmbeddingTable.create(rng, 6, 4)
    onehot = np.zeros((1, 6))
    onehot[0, 2] = 1.0
    soft = emb.soft(ag.tensor(onehot))
    hard = emb.hard([2])
    assert np.array_equal(soft.data, hard.data)


def test_soft_uniform_is_row_mean():
    rng = np.random.default_rng(6)
    emb = nn.EmbeddingTable.create(rng, 5, 3)
    soft = emb.soft(ag.tensor(np.full((1, 5), 0.2)))
    assert np.allclose(soft.data[0], emb.table.data.mean(axis=0), atol=1e-15)


def test_embed_veneer_and_range_check():
    rng = np.random.default_rng(8)
    emb = nn.EmbeddingTable.create(rng, 4, 3)
    assert np.array_equal(emb.hard([1, 3]).data, emb.table.data[[1, 3]])
    with pytest.raises(ValueError, match="out of range"):
        emb.hard([4])
    with pytest.raises(ValueError, match="out of range"):
        emb.hard([-1])


def test_soft_width_must_fit_table():
    emb = nn.EmbeddingTable.create(np.random.default_rng(0), 4, 3)
    with pytest.raises(ag.ShapeError):
        emb.soft(ag.tensor(np.full((1, 5), 0.2)))


def test_mlp_two_hidden_shapes():
    mlp = nn.Mlp.create(np.random.default_rng(0), (5, 128, 64, 1))
    out = mlp(ag.tensor(np.zeros((3, 5))))
    assert out.shape == (3, 1)
    assert len(mlp.layers) == 3


def test_adam_zero_grad_is_identity():
    p = ag.param(np.array([1.0, -2.0, 3.0]))
    before = p.data.copy()
    opt = nn.Adam(lr=0.1)
    opt.step([("p", p)], {"p": np.zeros(3)})
    assert np.array_equal(p.data, before)


def test_adam_first_step_hand_computed():
    g = np.array([0.3, -2.0, 1e-3])
    p = ag.param(np.zeros(3))
    opt = nn.Adam(lr=0.01)
    opt.step([("p", p)], {"p": g.copy()})
    # t=1: m_hat = g, v_hat = g^2, delta = -lr * g / (|g| + eps)
    expect = -0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p.data, expect, atol=1e-15)
    # magnitude is ~lr componentwise for any nonzero gradient
    assert np.all(np.abs(np.abs(p.data) - 0.01) < 1e-6)


def test_adam_optimizes_quadratic():
    p = ag.param(np.array([1.0]))
    opt = nn.Adam(lr=0.1)
    for _ in range(200):
        opt.step([("x", p)], {"x": 2.0 * p.data})
    assert abs(p.data[0]) < 0.05


def test_adam_missing_grad_leaves_param_and_moments():
    p = ag.param(np.array([1.0]))
    q = ag.param(np.array([2.0]))
    opt = nn.Adam(lr=0.1)
    opt.step([("p", p), ("q", q)], {"p": np.array([1.0])})
    assert np.array_equal(q.data, [2.0])
    assert "q" not in opt.m
    opt.step([("p", p), ("q", q)], {"p": np.array([1.0]), "q": np.array([1.0])})
    assert q.data[0] != 2.0


def test_adam_rejects_non_finite_grad():
    p = ag.param(np.array([1.0]))
    opt = nn.Adam()
    with pytest.raises(FloatingPointError) as e:
        opt.step([("weights.w", p)], {"weights.w": np.array([np.nan])})
    assert "weights.w" in str(e.value)


def test_param_set_round_trip_and_duplicates():
    a = ag.param(np.arange(6.0).reshape(2, 3))
    b = ag.param(np.array([7.0, 8.0]))
    ps = nn.ParamSet([("a", a), ("b", b)])
    flat = ps.flatten()
    assert flat.shape == (8,)
    ps.assign_flat(flat * 2.0)
    assert np.array_equal(a.data, 2.0 * np.arange(6.0).reshape(2, 3))
    with pytest.raises(ValueError):
        nn.ParamSet([("a", a), ("a", b)])
    with pytest.raises(ValueError):
        ps.assign_flat(np.zeros(7))


def test_param_set_grads_fill_missing_with_zeros():
    a = ag.param(np.ones(2))
    b = ag.param(np.ones(3))
    a.grad = np.array([1.0, 2.0])
    ps = nn.ParamSet([("a", a), ("b", b)])
    g = ps.grads()
    assert np.array_equal(g["a"], [1.0, 2.0])
    assert np.array_equal(g["b"], np.zeros(3))
