"""Stochastic machinery checks: stream reproducibility, Gumbel-max
statistics, relaxation validity, straight-through consistency, and the
inverse-temperature formula.  Token draws go through the sender's
batched rollout."""

import numpy as np
import pytest

import refgame.agents as agents
import refgame.autograd as ag
import refgame.config as cfgmod
import refgame.sampling as smp

EULER_GAMMA = 0.5772156649015329


def tv(counts, p):
    emp = counts / counts.sum()
    return 0.5 * np.abs(emp - p).sum()


def fixed_logits_sender(logits, tau=1.2):
    """A one-step sender whose every step has the given |V|+1 logits,
    whatever its input."""
    vocab = agents.Vocabulary(len(logits) - 1, 1)
    s = agents.Sender.create(np.random.default_rng(0), vocab, 2, 3, 4, tau=tau)
    s.proj.w.data[...] = 0.0
    s.proj.b.data[...] = logits
    return s


def draw(sender, n, mode, rng):
    """n one-step rollouts of a fixed-logits sender."""
    return agents.generate_batch(sender, np.zeros((n, 2)), mode, rng=rng)


def test_stream_reproducible_and_distinct():
    a = smp.stream(3, smp.DOMAIN_GUMBEL, 5).random(8)
    b = smp.stream(3, smp.DOMAIN_GUMBEL, 5).random(8)
    c = smp.stream(3, smp.DOMAIN_GUMBEL, 6).random(8)
    d = smp.stream(4, smp.DOMAIN_GUMBEL, 5).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_gumbel_noise_statistics():
    g = smp.gumbel_noise(smp.stream(0, smp.DOMAIN_GUMBEL), (200000,))
    assert np.all(np.isfinite(g))
    se = np.sqrt(np.pi ** 2 / 6.0 / g.size)
    assert abs(g.mean() - EULER_GAMMA) < 3.0 * se


def test_gumbel_softmax_degenerate_logits():
    logits = ag.tensor(np.tile([40.0, -40.0, -40.0], (100, 1)))
    rng = smp.stream(1, smp.DOMAIN_GUMBEL)
    w = smp.gumbel_softmax_rows(logits, 1.0, smp.gumbel_noise(rng, (100, 3)))
    assert np.max(np.abs(w.data - np.array([1.0, 0.0, 0.0]))) < 1e-9


def test_gumbel_softmax_validation():
    # a fixed temperature is a config value, checked there
    with pytest.raises(ValueError, match="temperature"):
        cfgmod.RunConfig(temperature=0.0).validate()
    with pytest.raises(ValueError, match="temperature"):
        cfgmod.RunConfig(temperature=-1.0).validate()
    with pytest.raises(ag.ShapeError):
        smp.gumbel_softmax_rows(ag.tensor(np.zeros((2, 3))), 1.0, np.zeros((2, 4)))
    s = fixed_logits_sender(np.zeros(3))
    with pytest.raises(ag.ShapeError, match="noise shape"):
        agents.generate_batch(s, np.zeros((2, 2)), "relaxed", noise=np.zeros((1, 2, 4)))


def test_small_tau_approaches_one_hot():
    """Monte Carlo oracle, K=5 uniform logits, 10k draws per temperature.

    The top-two gap of iid Gumbel noise is Exp(1)-distributed, so at
    tau=0.01 the max coordinate exceeds 0.99 with probability about
    1 - (1 - e^{-0.01 ln 99}) ~ 0.955; pushing tau to 0.001 drives the
    fraction above 0.99.
    """
    rng = smp.stream(2, smp.DOMAIN_GUMBEL)
    logp = np.full(5, -np.log(5.0))
    g = smp.gumbel_noise(rng, (10000, 5))
    for tau, floor in ((0.01, 0.95), (0.001, 0.99)):
        a = (logp + g) / tau
        a -= a.max(axis=1, keepdims=True)
        w = np.exp(a)
        w /= w.sum(axis=1, keepdims=True)
        assert np.mean(w.max(axis=1) > 0.99) >= floor


def test_relaxed_outputs_are_distributions():
    rng = smp.stream(3, smp.DOMAIN_GUMBEL)
    for tau in (0.1, 1.2, 5.0):
        logits = ag.tensor(rng.uniform(-3, 3, (50, 6)))
        w = smp.gumbel_softmax_rows(logits, 1.0 / tau,
                                    smp.gumbel_noise(rng, (50, 6)))
        assert np.all(w.data >= 0)
        assert np.max(np.abs(w.data.sum(axis=1) - 1.0)) < 1e-9


def test_sample_token_frequencies():
    p = np.array([0.5, 0.3, 0.2])
    roll = draw(fixed_logits_sender(np.log(p)), 10000, "sample",
                smp.stream(4, smp.DOMAIN_GUMBEL))
    counts = np.bincount(roll.tokens[0], minlength=3).astype(float)
    assert tv(counts, p) < 0.03


def test_sample_token_single_category_and_log_prob():
    # every step has exactly one live outcome: a lone EOS message
    roll = draw(fixed_logits_sender(np.array([-50.0, 1.7])), 5, "sample",
                smp.stream(5, smp.DOMAIN_GUMBEL))
    assert np.array_equal(roll.tokens, np.ones((1, 5), dtype=int))
    assert np.max(np.abs(roll.logp_sum.data)) < 1e-12


def test_sample_token_deterministic():
    s = fixed_logits_sender(np.zeros(4))
    seq1 = [int(draw(s, 1, "sample", smp.stream(6, smp.DOMAIN_GUMBEL, k)).tokens[0, 0])
            for k in range(20)]
    seq2 = [int(draw(s, 1, "sample", smp.stream(6, smp.DOMAIN_GUMBEL, k)).tokens[0, 0])
            for k in range(20)]
    assert seq1 == seq2


def test_st_sample_consistency_across_temperatures():
    rng = smp.stream(7, smp.DOMAIN_GUMBEL)
    for tau in (0.1, 1.2, 5.0):
        for _ in range(20):
            logits = rng.uniform(-2, 2, 5)
            roll = draw(fixed_logits_sender(logits, tau=tau), 10,
                        "straight_through", rng)
            tokens = roll.tokens[0]
            relaxed = roll.step_relaxed[0].data
            onehot = roll.step_onehots[0].data
            assert np.array_equal(tokens, np.argmax(relaxed, axis=1))
            assert np.array_equal(np.sort(onehot, axis=1),
                                  np.tile([0, 0, 0, 0, 1.0], (10, 1)))
            assert np.all(onehot[np.arange(10), tokens] == 1.0)
            assert np.max(np.abs(relaxed.sum(axis=1) - 1.0)) < 1e-9
            # log-prob matches the softmax of the logits at the sampled id
            logp = logits - np.log(np.sum(np.exp(logits)))
            assert np.max(np.abs(roll.logp_sum.data[:, 0] - logp[tokens])) < 1e-9


def test_st_matches_plain_sampling_mechanism():
    """Same stream, same logits: the two samplers draw identical tokens."""
    s = fixed_logits_sender(np.array([0.4, -0.3, 1.1, 0.0]))
    for k in range(50):
        a = draw(s, 4, "sample", smp.stream(8, smp.DOMAIN_GUMBEL, k))
        b = draw(s, 4, "straight_through", smp.stream(8, smp.DOMAIN_GUMBEL, k))
        assert np.array_equal(a.tokens, b.tokens)


def test_st_gradient_reaches_logits():
    noise = smp.gumbel_noise(smp.stream(9, smp.DOMAIN_GUMBEL), (1, 3))
    with ag.tape() as tp:
        logits = ag.param(np.array([[0.5, -0.2, 0.1]]))
        onehot = ag.straight_through(smp.gumbel_softmax_rows(logits, 1.0 / 1.2, noise))
        tp.backward(ag.sum_all(ag.mul(onehot, ag.tensor(np.array([[1.0, 2.0, 3.0]])))))
    assert logits.grad is not None
    assert np.any(logits.grad != 0)


def test_temperature_formula_at_zero_weights():
    net = smp.TemperatureNet(np.zeros((3, 1)), 0.2)
    inv = net.inverse_col(ag.tensor(np.ones((1, 3))))
    assert abs(1.0 / inv.item() - 1.0 / (np.log(2.0) + 0.2)) < 1e-12


def test_temperature_bound():
    rng = np.random.default_rng(0)
    net = smp.TemperatureNet(rng.normal(size=(4, 1)), 0.2)
    tau = 1.0 / net.inverse_col(ag.tensor(rng.normal(scale=3.0, size=(100, 4)))).data
    assert np.all(tau > 0.0)
    assert np.all(tau <= 5.0 + 1e-12)


def test_temperature_net_optional_hidden():
    rng = np.random.default_rng(1)
    net = smp.TemperatureNet.create(rng, 4, 0.2, hidden_units=8)
    inv = net.inverse_col(ag.tensor(np.zeros((3, 4))))
    assert inv.shape == (3, 1)
    assert np.all(inv.data >= 0.2)
    names = [n for n, _ in net.named_params("tau")]
    assert any("hidden" in n for n in names)


def test_temperature_net_rejects_negative_floor():
    with pytest.raises(ValueError):
        smp.TemperatureNet(np.zeros((2, 1)), -0.1)
