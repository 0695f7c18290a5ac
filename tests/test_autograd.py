"""Engine-level checks: forward values frozen by hand, backward rules
against analytic derivatives, tape bookkeeping, and the straight-through
contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import refgame.autograd as ag
import refgame.gradcheck as gc


def test_matmul_identity():
    a = ag.tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    i = ag.tensor(np.eye(2))
    out = ag.matmul(a, i)
    assert np.array_equal(out.data, a.data)


def test_softmax_uniform_on_equal_logits():
    out = ag.softmax_rows(ag.tensor(np.zeros((1, 3))))
    assert np.allclose(out.data, np.full((1, 3), 1.0 / 3.0), atol=1e-15)


def test_row_ops_reject_vectors():
    for op in (ag.softmax_rows, ag.log_softmax_rows, ag.straight_through):
        with pytest.raises(ag.ShapeError):
            op(ag.tensor(np.array([0.2, 0.8])))


def test_softmax_rows_normalized():
    x = ag.tensor(np.array([[1.0, -2.0, 0.5], [30.0, -30.0, 0.0]]))
    out = ag.softmax_rows(x)
    assert np.all(out.data > 0)
    assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) < 1e-12


def test_dot_hand_value():
    out = ag.matmul(ag.tensor(np.array([[1.0, 2.0, 3.0]])),
                    ag.tensor(np.array([[4.0], [5.0], [6.0]])))
    assert out.item() == 32.0


def test_backward_sum_gives_ones():
    with ag.tape() as tp:
        x = ag.param(np.array([[1.0, -2.0], [0.5, 3.0]]))
        tp.backward(ag.sum_all(x))
    assert np.array_equal(x.grad, np.ones((2, 2)))


def test_backward_dot_self():
    with ag.tape() as tp:
        x = ag.param(np.array([[1.0, 2.0]]))
        tp.backward(ag.sum_all(ag.mul(x, x)))
    assert np.allclose(x.grad, [[2.0, 4.0]], atol=1e-15)


def test_composite_graph_matches_finite_differences():
    def build(rng):
        arrays = [rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (4, 3)),
                  rng.uniform(-1, 1, (3,))]

        def fn(t):
            h = ag.tanh(ag.affine(t[0], t[1], t[2]))
            p = ag.softmax_rows(h)
            return ag.mul(p, ag.softplus(h))
        return arrays, fn

    worst = max(gc.check_case(build, np.random.default_rng(k)) for k in range(5))
    assert worst < 1e-5


def test_accumulation_is_additive_exactly():
    a = np.array([[0.7, -1.3, 2.0]])
    coef = np.array([[2.0, 0.5, -3.0]])
    with ag.tape() as tp:
        x = ag.param(a)
        c = ag.tensor(coef)
        y = ag.add(ag.mul(x, c), ag.mul(x, x))
        tp.backward(ag.sum_all(y))
    # d/dx (c*x + x*x) = c + 2x, both uses accumulate
    assert np.array_equal(x.grad, coef + 2.0 * a)


def test_rerun_bit_identical():
    def run():
        with ag.tape() as tp:
            x = ag.param(np.linspace(-1.0, 1.0, 6).reshape(2, 3))
            w = ag.param(np.linspace(0.5, -0.5, 9).reshape(3, 3))
            out = ag.softmax_rows(ag.tanh(ag.matmul(x, w)))
            tp.backward(ag.sum_all(ag.mul(out, out)))
        return out.data.copy(), x.grad.copy(), w.grad.copy()

    first = run()
    second = run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_shape_error_names_op_and_extents():
    with pytest.raises(ag.ShapeError) as e:
        ag.add(ag.tensor(np.zeros((2, 3))), ag.tensor(np.zeros((3, 2))))
    msg = str(e.value)
    assert "add" in msg and "(2, 3)" in msg and "(3, 2)" in msg


def test_backward_rejects_non_scalar_loss():
    with ag.tape() as tp:
        x = ag.param(np.ones(3))
        y = ag.mul(x, x)
        with pytest.raises(ag.ShapeError):
            tp.backward(y)


def test_tape_single_use():
    with ag.tape() as tp:
        x = ag.param(np.ones(2))
        s = ag.sum_all(x)
        tp.backward(s)
        with pytest.raises(RuntimeError):
            tp.backward(s)


def test_no_recording_outside_tape():
    x = ag.param(np.array([1.0, 2.0]))
    y = ag.mul(x, x)
    assert not y.requires_grad
    assert y.grad is None


def test_size_one_operand_raises():
    """No elementwise op broadcasts, not even a size-1 operand."""
    x = ag.tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    s = ag.tensor(np.array([2.0]))
    for op in (ag.add, ag.sub, ag.mul):
        with pytest.raises(ag.ShapeError):
            op(x, s)
        with pytest.raises(ag.ShapeError):
            op(s, x)


def test_straight_through_forward_argmax():
    out = ag.straight_through(ag.tensor(np.array([[0.1, 0.7, 0.2]])))
    assert np.array_equal(out.data, [[0.0, 1.0, 0.0]])


def test_straight_through_tie_breaks_low():
    out = ag.straight_through(ag.tensor(np.array([[0.5, 0.5]])))
    assert np.array_equal(out.data, [[1.0, 0.0]])


def test_straight_through_identity_backward():
    probe = np.array([[0.3, -1.7, 4.0]])
    with ag.tape() as tp:
        relaxed = ag.param(np.array([[0.2, 0.5, 0.3]]))
        onehot = ag.straight_through(relaxed)
        tp.backward(ag.sum_all(ag.mul(onehot, ag.tensor(probe))))
    assert np.array_equal(relaxed.grad, probe)


def test_straight_through_rows():
    rows_in = np.array([[0.6, 0.4], [0.1, 0.9]])
    out = ag.straight_through(ag.tensor(rows_in))
    assert np.array_equal(out.data, [[1.0, 0.0], [0.0, 1.0]])


def test_straight_through_rejects_empty_and_invalid():
    with pytest.raises(ag.ShapeError):
        ag.straight_through(ag.tensor(np.zeros((1, 0))))
    with pytest.raises(ValueError):
        ag.straight_through(ag.tensor(np.array([[0.2, 0.2]])))


finite_rows = hnp.arrays(
    dtype=np.float64, shape=st.tuples(st.integers(1, 4), st.integers(1, 5)),
    elements=st.floats(-50, 50, allow_nan=False))


@settings(max_examples=60, deadline=None)
@given(finite_rows)
def test_softmax_rows_always_distributions(x):
    out = ag.softmax_rows(ag.tensor(x))
    assert np.all(out.data > 0)
    assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(finite_rows)
def test_straight_through_of_softmax_is_one_hot(x):
    onehot = ag.straight_through(ag.softmax_rows(ag.tensor(x))).data
    assert np.array_equal(np.sort(onehot, axis=1)[:, :-1], np.zeros_like(onehot[:, :-1]))
    assert np.array_equal(onehot.max(axis=1), np.ones(onehot.shape[0]))


# ---------------------------------------------------------------------------
# fused ops and the tape they record on


def np_sigmoid(z):
    t = np.exp(-np.abs(z))
    pos = 1.0 / (1.0 + t)
    return np.where(z >= 0, pos, t / (1.0 + t))


def unfused_lstm_step(x, h, c, w_x, w_h, b):
    """The arithmetic of the 16-op chain lstm_cell replaced: affine, add,
    a copied slice per gate through sigmoid or tanh, mul, add, mul."""
    hs = h.shape[1]
    z = (x @ w_x + b) + h @ w_h
    i = np_sigmoid(z[:, :hs].copy())
    f = np_sigmoid(z[:, hs:2 * hs].copy())
    g = np.tanh(z[:, 2 * hs:3 * hs].copy())
    o = np_sigmoid(z[:, 3 * hs:4 * hs].copy())
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


@pytest.mark.parametrize("batch", [1, 32])
def test_lstm_cell_forward_bit_identical_to_unfused_chain(batch):
    rng = np.random.default_rng(batch)
    arrays = [rng.uniform(-2, 2, (batch, 32)), rng.uniform(-1, 1, (batch, 64)),
              rng.uniform(-3, 3, (batch, 64)), rng.uniform(-0.5, 0.5, (32, 256)),
              rng.uniform(-0.5, 0.5, (64, 256)), rng.uniform(-1, 1, 256)]
    h_ref, c_ref = unfused_lstm_step(*arrays)
    with ag.tape():
        h, c = ag.lstm_cell(*[ag.param(a) for a in arrays])
    assert np.array_equal(h.data, h_ref)
    assert np.array_equal(c.data, c_ref)


def test_lstm_cell_is_one_tape_node_with_two_outputs():
    rng = np.random.default_rng(0)
    with ag.tape() as tp:
        x = ag.param(rng.uniform(-1, 1, (2, 3)))
        zeros = ag.tensor(np.zeros((2, 4)))
        h, c = ag.lstm_cell(x, zeros, zeros, ag.tensor(rng.uniform(-1, 1, (3, 16))),
                            ag.tensor(rng.uniform(-1, 1, (4, 16))),
                            ag.tensor(np.zeros(16)))
        assert len(tp.nodes) == 1 and tp.nodes[0][0] == (h, c)
        # only h feeds the loss: the backward gets None for c_new
        tp.backward(ag.sum_all(h))
    assert c.grad is None and x.grad.shape == (2, 3)


def test_lstm_cell_rejects_bad_shapes():
    z = ag.tensor(np.zeros((2, 3)))
    with pytest.raises(ag.ShapeError, match="lstm_cell"):
        ag.lstm_cell(ag.tensor(np.zeros((2, 5))), z, z, ag.tensor(np.zeros((4, 12))),
                     ag.tensor(np.zeros((3, 12))), ag.tensor(np.zeros(12)))


def test_masked_carry_keeps_masked_rows():
    new = ag.tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    old = ag.tensor(np.array([[-1.0, -2.0], [-3.0, -4.0]]))
    out = ag.masked_carry(new, old, np.array([[1.0], [0.0]]))
    assert np.array_equal(out.data, [[1.0, 2.0], [-3.0, -4.0]])
    with pytest.raises(ag.ShapeError):
        ag.masked_carry(new, old, np.ones(2))


def test_batch_dot_matches_per_row_dots():
    rng = np.random.default_rng(4)
    cands, g = rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 4))
    out = ag.batch_dot(ag.tensor(cands), ag.tensor(g))
    assert out.shape == (3, 5)
    assert np.allclose(out.data, [[c @ g[b] for c in cands[b]] for b in range(3)],
                       atol=1e-14)
    with pytest.raises(ag.ShapeError):
        ag.batch_dot(ag.tensor(cands), ag.tensor(np.zeros((3, 5))))


def test_shared_gradient_is_not_aliased_across_parents():
    """add hands one array to both parents.  Had the first write aliased
    it, the later gradient into a from its other consumer would also land
    in b.grad."""
    p = np.array([[0.5, -1.0]])
    q = np.array([[2.0, 3.0]])
    with ag.tape() as tp:
        a = ag.param(np.array([[1.0, 2.0]]))
        b = ag.param(np.array([[-1.0, 0.5]]))
        u = ag.mul(a, ag.tensor(q))  # recorded first, so its backward runs last
        s = ag.add(a, b)
        tp.backward(ag.sum_all(ag.add(ag.mul(s, ag.tensor(p)), u)))
    assert np.array_equal(b.grad, p)
    assert np.array_equal(a.grad, p + q)
