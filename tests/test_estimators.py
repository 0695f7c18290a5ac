"""Estimator checks: REINFORCE surrogate and baselines, straight-through
agreement with the score-function path, and the perturbation probes."""

import numpy as np
import pytest

import refgame.agents as agents
import refgame.autograd as ag
import refgame.data as data
import refgame.estimators as est
import refgame.game as game
import refgame.nn as nn
import refgame.sampling as smp

from test_agents import enumerate_messages


def small_world(seed=0, d=6):
    spec = data.WorldSpec(n_attributes=2, values_per_attribute=3,
                          feature_dim=d, instance_noise=0.1, seed=seed)
    return data.build_world(spec)


def make_agents(seed=0, vocab_size=4, max_len=3, d=6, embed=5, hidden=8, **kw):
    vocab = agents.Vocabulary(vocab_size, max_len)
    rng = np.random.default_rng(seed)
    s = agents.Sender.create(rng, vocab, d, embed, hidden, **kw)
    r = agents.Receiver.create(rng, vocab, d, embed, hidden)
    return s, r


def zero_params(component):
    for _, t in component.named_params():
        t.data[...] = 0.0


def fixed_batch(world, seed=3, batch_size=8, k=3):
    return game.make_batch(world, batch_size, k, np.random.default_rng(seed))


def noise_for(sender, batch_size, seed=11):
    shape = (sender.vocab.max_len, batch_size, sender.vocab.size + 1)
    return smp.gumbel_noise(np.random.default_rng(seed), shape)


# ---------------------------------------------------------------------------
# running statistics


def test_fresh_state_is_neutral():
    st = est.ReinforceState()
    assert st.baseline() == 0.0
    assert st.variance() == 0.0
    assert st.lr_scale() == 1.0


def test_state_stats_match_hand_rollup():
    st = est.ReinforceState(rho=0.9)
    signals = [np.array([2.0, 4.0]), np.array([1.0, 1.0, 7.0])]
    m1 = m2 = 0.0
    for s in signals:
        st.update(s)
        m1 = 0.9 * m1 + 0.1 * s.mean()
        m2 = 0.9 * m2 + 0.1 * (s ** 2).mean()
    corr = 1.0 - 0.9 ** 2
    assert abs(st.baseline() - m1 / corr) < 1e-12
    want_var = m2 / corr - (m1 / corr) ** 2
    assert abs(st.variance() - want_var) < 1e-12
    assert abs(st.lr_scale() - 1.0 / max(np.sqrt(want_var), 1e-4)) < 1e-8


def test_lr_scale_is_floored_for_constant_signal():
    st = est.ReinforceState()
    for _ in range(5):
        st.update(np.array([3.0, 3.0]))
    assert st.variance() < 1e-12
    assert st.lr_scale() == 1e4


def test_variance_never_negative():
    st = est.ReinforceState()
    st.update(np.array([1e-9]))
    assert st.variance() >= 0.0


# ---------------------------------------------------------------------------
# reinforce_step


def test_metrics_report_pre_update_statistics():
    world = small_world()
    sender, receiver = make_agents(0)
    batch = fixed_batch(world)
    st = est.ReinforceState()
    _, _, metrics = est.reinforce_step(st, sender, receiver, batch,
                                       rng=np.random.default_rng(0))
    assert metrics["lr_scale"] == 1.0
    assert metrics["signal_variance"] == 0.0
    assert st.t == 1


def test_matched_baseline_zeroes_sender_gradients():
    # A zero receiver scores every candidate 0, so each round's hinge is
    # exactly K; with the running baseline equal to that constant the
    # centered signal vanishes and the surrogate contributes nothing.
    world = small_world()
    sender, receiver = make_agents(0)
    zero_params(receiver)
    k = 3
    batch = fixed_batch(world, k=k)
    st = est.ReinforceState(rho=0.5)
    st.t = 1
    st.m1 = float(k) * 0.5   # baseline() = m1 / (1 - 0.5) = k exactly
    st.m2 = float(k * k) * 0.5
    assert st.baseline() == float(k)
    sg, rg, metrics = est.reinforce_step(st, sender, receiver, batch,
                                         rng=np.random.default_rng(5))
    assert metrics["loss"] == float(k)
    for name, g in sg.items():
        assert np.all(g == 0.0), name
    assert any(np.any(g != 0.0) for g in rg.values())


def test_input_baseline_learns_constant_signal():
    world = small_world()
    sender, receiver = make_agents(0)
    zero_params(receiver)
    batch = fixed_batch(world, k=3)
    st = est.ReinforceState.with_input_baseline(
        np.random.default_rng(7), feature_dim=world.spec.feature_dim, mlp_lr=0.05)
    rng = np.random.default_rng(8)
    first = last = None
    for i in range(400):
        _, _, metrics = est.reinforce_step(st, sender, receiver, batch, rng=rng)
        if i == 0:
            first = metrics["baseline_mse"]
        last = metrics["baseline_mse"]
    assert last < 0.05
    assert last < first / 100.0


def test_reinforce_rejects_non_finite_signal():
    world = small_world()
    sender, receiver = make_agents(0)
    receiver.g_map.b.data[...] = np.nan
    batch = fixed_batch(world)
    with pytest.raises(FloatingPointError):
        est.reinforce_step(est.ReinforceState(), sender, receiver, batch,
                           rng=np.random.default_rng(0))


def test_reinforce_reproducible_given_noise():
    world = small_world()
    batch = fixed_batch(world)
    noise = noise_for(make_agents(0)[0], batch.batch_size)
    grads = []
    for _ in range(2):
        sender, receiver = make_agents(0)
        st = est.ReinforceState()
        sg, rg, _ = est.reinforce_step(st, sender, receiver, batch, noise=noise)
        grads.append((sg, rg))
    for a, b in zip(grads[0], grads[1]):
        assert sorted(a) == sorted(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), name


# ---------------------------------------------------------------------------
# straight-through versus score function


def test_st_and_reinforce_agree_on_receiver_side():
    # With shared Gumbel noise the straight-through tokens coincide with
    # the sampled ones, so the discrete forward pass and the hinge are
    # identical; only the sender's gradient path differs.
    world = small_world()
    sender, receiver = make_agents(0)
    batch = fixed_batch(world)
    noise = noise_for(sender, batch.batch_size)

    sg_r, rg_r, m_r = est.reinforce_step(est.ReinforceState(), sender,
                                         receiver, batch, noise=noise)
    sg_s, rg_s, m_s = est.stgs_step(sender, receiver, batch, noise=noise)

    assert m_r["loss"] == m_s["loss"]
    assert m_r["success"] == m_s["success"]
    assert m_r["mean_length"] == m_s["mean_length"]
    for name in rg_r:
        np.testing.assert_allclose(rg_r[name], rg_s[name],
                                   rtol=1e-12, atol=1e-12, err_msg=name)
    assert any(not np.allclose(sg_r[n], sg_s[n]) for n in sg_r)


def test_stgs_rollout_metrics_are_discrete():
    world = small_world()
    sender, receiver = make_agents(0)
    batch = fixed_batch(world)
    _, _, metrics = est.stgs_step(sender, receiver, batch,
                                  rng=np.random.default_rng(2))
    assert 0.0 <= metrics["success"] <= 1.0
    assert 1.0 <= metrics["mean_length"] <= sender.vocab.max_len
    assert metrics["grad_norm_sender"] > 0.0


# ---------------------------------------------------------------------------
# enumerated variance reduction

def message_logp_graph(sender, feats, tokens):
    """Teacher-forced log q of one message as a live scalar graph."""
    x = ag.tensor(np.asarray(feats, dtype=np.float64).reshape(1, -1))
    h = sender.eta_h(x)
    c = sender.eta_c(x)
    inp = sender.embed.hard([sender.vocab.start])
    total = None
    for tok in tokens:
        h, c = sender.cell.step(inp, h, c)
        logq = ag.log_softmax_rows(sender.proj(h))
        term = ag.slice_cols(logq, int(tok), int(tok) + 1)
        total = term if total is None else ag.add(total, term)
        inp = sender.embed.hard([int(tok)])
    return ag.sum_all(total)


def test_baseline_reduces_enumerated_estimator_variance():
    # For a one-token game every message can be enumerated, so the
    # score-function estimator's mean and variance have closed forms:
    # the mean is baseline-invariant and the variance is a parabola in
    # the baseline with its minimum strictly below the b=0 value.
    world = small_world(d=4)
    vocab = agents.Vocabulary(2, 1)
    rng = np.random.default_rng(0)
    sender = agents.Sender.create(rng, vocab, 4, 5, 6)
    receiver = agents.Receiver.create(rng, vocab, 4, 5, 6)
    params = sender.param_set()
    batch = game.make_batch(world, 1, 1, np.random.default_rng(4))

    probs, losses, grads = [], [], []
    for msg in enumerate_messages(vocab):
        with ag.tape() as tp:
            params.zero_grads()
            logp = message_logp_graph(sender, batch.target_feats[0], msg)
            tp.backward(logp)
        grads.append(params.flatten_dict(params.grads()))
        probs.append(float(np.exp(logp.item())))
        toks = [t for t in msg if t != vocab.eos]
        g = agents.receiver_read(receiver, toks if toks else [vocab.eos])
        scores = game.score_batch(g, batch.cand_feats)
        losses.append(game.hinge_batch(scores, batch.target_index).item())

    probs = np.array(probs)
    losses = np.array(losses)
    grads = np.stack(grads)
    assert abs(probs.sum() - 1.0) < 1e-9
    assert np.ptp(losses) > 1e-6   # distinct losses make the check non-trivial
    # score-function identity: sum_m p_m grad log p_m = 0
    assert np.abs((probs[:, None] * grads).sum(axis=0)).max() < 1e-12

    def estimator_moments(b):
        x = (losses - b)[:, None] * grads
        mean = (probs[:, None] * x).sum(axis=0)
        second = (probs * ((losses - b) ** 2) * (grads ** 2).sum(axis=1)).sum()
        return mean, second - float(mean @ mean)

    gnorm2 = (grads ** 2).sum(axis=1)
    b_opt = (probs * losses * gnorm2).sum() / (probs * gnorm2).sum()
    assert abs(b_opt) > 1e-9

    mean0, var0 = estimator_moments(0.0)
    mean_b, var_b = estimator_moments(b_opt)
    np.testing.assert_allclose(mean_b, mean0, rtol=0, atol=1e-10)
    assert var_b < var0
    _, var_mean = estimator_moments(float((probs * losses).sum()))
    assert var_b <= var_mean + 1e-12


# ---------------------------------------------------------------------------
# perturbation probes


def test_pseudograd_quadratic_is_exact():
    j = lambda v: float(v @ v)
    u = np.array([1.0, 2.0])
    got = est.pseudograd_dot(j, u, np.array([1.0, 0.0]), 1e-4)
    assert abs(got - 2.0) < 1e-6


def test_pseudograd_zero_direction_is_zero():
    j = lambda v: float(v @ v)
    u = np.array([1.0, 2.0])
    assert est.pseudograd_dot(j, u, np.zeros(2), 1e-4) == 0.0


def test_pseudograd_antisymmetric_in_direction():
    j = lambda v: float(np.sin(v).sum())
    u = np.array([0.3, -1.2, 2.0])
    d = np.array([0.5, 1.0, -0.25])
    plus = est.pseudograd_dot(j, u, d, 1e-3)
    minus = est.pseudograd_dot(j, u, -d, 1e-3)
    assert plus == -minus


def test_pseudograd_validation():
    j = lambda v: float(v @ v)
    u = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        est.pseudograd_dot(j, u, u, 0.0)
    with pytest.raises(ag.ShapeError):
        est.pseudograd_dot(j, u, np.zeros(3), 1e-4)
    with pytest.raises(FloatingPointError):
        est.pseudograd_dot(lambda v: float("nan"), u, u, 1e-4)


def test_game_objective_restores_parameters():
    world = small_world()
    sender, receiver = make_agents(0)
    batch = fixed_batch(world)
    noise = noise_for(sender, batch.batch_size)
    params = est.joint_params(sender, receiver)
    before = params.flatten()
    objective = est.game_objective(sender, receiver, params, batch, noise)
    base = objective(before)
    moved = objective(before + 0.01)
    assert np.array_equal(params.flatten(), before)
    assert np.isfinite(base) and np.isfinite(moved)
    assert base == est.batch_loss_value(sender, receiver, batch, noise)


def test_relaxed_direction_matches_central_difference():
    # With terminate=False and a fully relaxed readout the objective is
    # smooth, so backprop and finite differences must agree along any
    # direction.
    world = small_world()
    sender, receiver = make_agents(0)
    batch = fixed_batch(world, batch_size=4)
    noise = noise_for(sender, 4)
    params = est.joint_params(sender, receiver)
    grad = est.estimator_direction(sender, receiver, params, batch, noise,
                                   mode="relaxed", terminate=False)
    objective = est.game_objective(sender, receiver, params, batch, noise,
                                   mode="relaxed", terminate=False)
    u = params.flatten()
    rng = np.random.default_rng(9)
    for _ in range(3):
        d = rng.standard_normal(u.size)
        d /= np.linalg.norm(d)
        fd = est.pseudograd_dot(objective, u, d, 1e-5)
        want = float(d @ grad)
        assert abs(fd - want) < 1e-4 * max(1.0, abs(want))


def test_acute_angle_fraction_deterministic():
    world = small_world()
    sender, receiver = make_agents(0)
    out1 = est.acute_angle_fraction(sender, receiver, world, n_distractors=3,
                                    batch_size=8, n_probes=5, eps=1e-3, seed=21)
    out2 = est.acute_angle_fraction(sender, receiver, world, n_distractors=3,
                                    batch_size=8, n_probes=5, eps=1e-3, seed=21)
    frac1, dots1 = out1
    frac2, dots2 = out2
    assert frac1 == frac2
    assert dots1 == dots2
    assert len(dots1) == 5
    assert 0.0 <= frac1 <= 1.0


def test_desk_stgs_update_records_fewer_than_120_tape_nodes(monkeypatch):
    """One st-gs update at the default (desk) shape: each LSTM step, state
    carry and the candidate scoring are single fused nodes."""
    import refgame.config as cfgmod
    import refgame.train as train

    cfg = cfgmod.RunConfig()
    run = train.init_run(cfg)
    batch = game.make_batch(run.world, cfg.batch_size, cfg.distractors,
                            np.random.default_rng(0))
    noise = smp.gumbel_noise(np.random.default_rng(1),
                             (cfg.max_len, cfg.batch_size, run.vocab.n_outcomes))
    nodes = []
    record = ag.Tape.record

    def counting(tape, out, fn):
        nodes.append(out)
        return record(tape, out, fn)

    monkeypatch.setattr(ag.Tape, "record", counting)
    est.stgs_step(run.sender, run.receiver, batch, noise=noise)
    assert 0 < len(nodes) < 120
