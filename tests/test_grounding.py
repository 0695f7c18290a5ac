"""Grounding checks: the KL penalty toward a reference language model,
captioning co-training, and their weighting knobs."""

import numpy as np
import pytest

import refgame.agents as agents
import refgame.autograd as ag
import refgame.config as cfgmod
import refgame.data as data
import refgame.estimators as est
import refgame.game as game
import refgame.grounding as gr
import refgame.sampling as smp

from test_agents import enumerate_messages, lm_logp, message_log_prob


def small_world(seed=0, d=6):
    spec = data.WorldSpec(n_attributes=2, values_per_attribute=3,
                          feature_dim=d, instance_noise=0.1, seed=seed)
    return data.build_world(spec)


def make_pair(seed=0, vocab_size=4, max_len=3, d=6, embed=5, hidden=8):
    vocab = agents.Vocabulary(vocab_size, max_len)
    rng = np.random.default_rng(seed)
    s = agents.Sender.create(rng, vocab, d, embed, hidden)
    r = agents.Receiver.create(rng, vocab, d, embed, hidden)
    return vocab, s, r


def make_lm(vocab, seed=2, embed=5, hidden=8):
    lm = agents.LanguageModel.create(np.random.default_rng(seed), vocab,
                                     embed, hidden)
    return lm.freeze()


def zero_params(component):
    for _, t in component.named_params():
        t.data[...] = 0.0


def noise_for(vocab, batch_size, seed=11):
    return smp.gumbel_noise(np.random.default_rng(seed),
                            (vocab.max_len, batch_size, vocab.size + 1))


def kl_mean(sender, lm, feats, noise):
    """Batch mean of single-sample KL estimates, one straight-through
    message per feature row."""
    roll = agents.generate_batch(sender, feats, "straight_through", noise=noise)
    return ag.mean_all(gr.kl_penalty_col(sender, lm, roll))


def caption_nll(sender, features, caption):
    """Teacher-forced NLL of one caption as a one-column batch."""
    tokens = np.asarray(caption, dtype=int).reshape(-1, 1)
    return gr.caption_nll_batch(sender, np.asarray(features).reshape(1, -1),
                                tokens, np.ones(tokens.shape))


# ---------------------------------------------------------------------------
# KL penalty


def test_identical_distributions_give_exactly_zero_kl():
    # A zero sender and a zero language model induce the same uniform
    # next-token distribution through the same log-softmax, so every
    # per-step difference cancels bitwise.
    vocab, sender, _ = make_pair()
    lm = make_lm(vocab)
    zero_params(sender)
    for _, t in lm.named_params():
        t.data[...] = 0.0
    val = kl_mean(sender, lm, np.zeros((8, 6)), noise_for(vocab, 8))
    assert val.item() == 0.0


def test_kl_sample_matches_enumerated_divergence():
    vocab, sender, _ = make_pair(seed=5, vocab_size=2, max_len=2, d=4)
    lm = make_lm(vocab, seed=6)
    feats = np.random.default_rng(3).standard_normal(4)

    logq, logp = [], []
    for msg in enumerate_messages(vocab):
        logq.append(message_log_prob(sender, feats, msg))
        logp.append(lm_logp(lm, msg))
    logq = np.array(logq)
    logp = np.array(logp)
    q = np.exp(logq)
    assert abs(q.sum() - 1.0) < 1e-9
    exact_kl = float((q * (logq - logp)).sum())
    per_msg = logq - logp
    var = float((q * per_msg ** 2).sum() - exact_kl ** 2)

    n = 4000
    tiled = np.tile(feats, (n, 1))
    noise = smp.gumbel_noise(np.random.default_rng(17),
                             (vocab.max_len, n, vocab.size + 1))
    estimate = kl_mean(sender, lm, tiled, noise).item()
    se = np.sqrt(var / n)
    assert abs(estimate - exact_kl) < 2.0 * se


def test_beta_zero_builds_the_plain_game_graph():
    world = small_world()
    vocab, sender, receiver = make_pair()
    lm = make_lm(vocab)
    batch = game.make_batch(world, 8, 3, np.random.default_rng(4))
    noise = noise_for(vocab, 8)
    sg_g, rg_g, _ = gr.grounded_step(sender, receiver, lm, batch, beta=0.0,
                                     noise=noise)
    sg_p, rg_p, _ = est.stgs_step(sender, receiver, batch, noise=noise)
    for a, b in ((sg_g, sg_p), (rg_g, rg_p)):
        assert sorted(a) == sorted(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), name


def test_beta_positive_changes_sender_not_receiver_loss_path():
    world = small_world()
    vocab, sender, receiver = make_pair()
    lm = make_lm(vocab)
    batch = game.make_batch(world, 8, 3, np.random.default_rng(4))
    noise = noise_for(vocab, 8)
    sg0, rg0, m0 = gr.grounded_step(sender, receiver, lm, batch, beta=0.0,
                                    noise=noise)
    sg1, rg1, m1 = gr.grounded_step(sender, receiver, lm, batch, beta=0.5,
                                    noise=noise)
    assert "kl" in m1 and "kl" not in m0
    assert m1["hinge"] == m0["hinge"]
    assert any(not np.array_equal(sg0[n], sg1[n]) for n in sg0)


def test_grounded_step_reproducible_with_shared_noise():
    world = small_world()
    vocab, sender, receiver = make_pair()
    lm = make_lm(vocab)
    batch = game.make_batch(world, 8, 3, np.random.default_rng(4))
    noise = noise_for(vocab, 8)
    out1 = gr.grounded_step(sender, receiver, lm, batch, beta=0.3, noise=noise)
    out2 = gr.grounded_step(sender, receiver, lm, batch, beta=0.3, noise=noise)
    for a, b in zip(out1[:2], out2[:2]):
        for name in a:
            assert np.array_equal(a[name], b[name]), name
    assert out1[2] == out2[2]


def test_vocab_mismatch_is_rejected():
    world = small_world()
    vocab, sender, receiver = make_pair(vocab_size=4)
    other = agents.Vocabulary(3, 3)
    lm = make_lm(other)
    batch = game.make_batch(world, 4, 2, np.random.default_rng(4))
    with pytest.raises(ValueError, match="vocabulary"):
        kl_mean(sender, lm, batch.target_feats, noise_for(vocab, 4))
    with pytest.raises(ValueError, match="vocabulary"):
        gr.grounded_step(sender, receiver, lm, batch, beta=0.1,
                         noise=noise_for(vocab, 4))


def test_beta_validation():
    world = small_world()
    vocab, sender, receiver = make_pair()
    lm = make_lm(vocab)
    batch = game.make_batch(world, 4, 2, np.random.default_rng(4))
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            gr.grounded_step(sender, receiver, lm, batch, beta=bad,
                             noise=noise_for(vocab, 4))


# ---------------------------------------------------------------------------
# captioning


def test_forced_eos_sender_gives_near_zero_eos_caption_nll():
    vocab, sender, _ = make_pair()
    sender.proj.w.data[...] = 0.0
    sender.proj.b.data[...] = 0.0
    sender.proj.b.data[vocab.eos] = 40.0
    val = caption_nll(sender, np.zeros(6), [vocab.eos]).item()
    assert 0.0 <= val < 1e-10


def test_uniform_sender_caption_nll_is_length_times_log_outcomes():
    vocab, sender, _ = make_pair()
    zero_params(sender)
    cap = [0, 1, vocab.eos]
    val = caption_nll(sender, np.zeros(6), cap).item()
    assert abs(val - len(cap) * np.log(vocab.n_outcomes)) < 1e-12


def test_caption_nll_gradient_matches_finite_differences():
    vocab, sender, _ = make_pair(seed=9)
    feats = np.random.default_rng(1).standard_normal((3, 6))
    tokens = np.array([[0, 2, 1], [vocab.eos, 1, vocab.eos]])
    mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    params = sender.param_set()

    with ag.tape() as tp:
        params.zero_grads()
        tp.backward(gr.caption_nll_batch(sender, feats, tokens, mask))
    grad = params.flatten_dict(params.grads())

    def value(vec):
        saved = params.flatten()
        try:
            params.assign_flat(vec)
            return gr.caption_nll_batch(sender, feats, tokens, mask).item()
        finally:
            params.assign_flat(saved)

    u = params.flatten()
    rng = np.random.default_rng(2)
    idx = rng.choice(u.size, size=6, replace=False)
    eps = 1e-6
    for i in idx:
        e = np.zeros_like(u)
        e[i] = 1.0
        fd = (value(u + eps * e) - value(u - eps * e)) / (2 * eps)
        denom = max(abs(fd), abs(grad[i]), 1e-8)
        assert abs(fd - grad[i]) / denom < 1e-5


def test_overlong_caption_truncates_with_warning():
    vocab, sender, _ = make_pair(max_len=2)
    feats = np.zeros((1, 6))
    tokens = np.array([[0], [1], [vocab.eos]])
    mask = np.ones_like(tokens, dtype=float)
    with pytest.warns(RuntimeWarning, match="truncating"):
        got = gr.caption_nll_batch(sender, feats, tokens, mask).item()
    want = gr.caption_nll_batch(sender, feats, tokens[:2], mask[:2]).item()
    assert got == want


def test_caption_token_range_checked():
    vocab, sender, _ = make_pair()
    bad = np.array([[0], [vocab.start]])   # START is never a caption token
    with pytest.raises(ValueError, match="outside"):
        gr.caption_nll_batch(sender, np.zeros((1, 6)), bad,
                             np.ones_like(bad, dtype=float))


def test_empty_caption_rejected():
    vocab, sender, _ = make_pair()
    with pytest.raises(ValueError, match="empty"):
        caption_nll(sender, np.zeros(6), [])
    # an empty caption padded into a batch is caught too
    tokens, mask = agents.pad_sequences([[0, vocab.eos], []], vocab.eos)
    with pytest.raises(ValueError, match="empty"):
        gr.caption_nll_batch(sender, np.zeros((2, 6)), tokens, mask)


# ---------------------------------------------------------------------------
# direct grounding


def caption_batch_for(world, vocab, seed=3, batch_size=6, concepts=None,
                      table=None):
    return gr.make_caption_batch(world, batch_size, np.random.default_rng(seed),
                                 vocab, concepts=concepts, table=table)


def test_lambda_zero_trains_only_the_sender():
    world = small_world()
    vocab, sender, receiver = make_pair(vocab_size=6)
    cb = caption_batch_for(world, vocab)
    gb = game.make_batch(world, 6, 2, np.random.default_rng(5))
    sg, rg, metrics = gr.direct_grounding_step(sender, receiver, cb, gb, 0.0)
    assert all(np.all(g == 0.0) for g in rg.values())
    assert any(np.any(g != 0.0) for g in sg.values())
    assert "success" not in metrics
    assert np.isfinite(metrics["caption_nll"])


def test_lambda_combines_caption_and_game_terms():
    world = small_world()
    vocab, sender, receiver = make_pair(vocab_size=6)
    cb = caption_batch_for(world, vocab)
    gb = game.make_batch(world, 6, 2, np.random.default_rng(5))
    noise = noise_for(vocab, 6)
    lam = 0.7
    _, rg, metrics = gr.direct_grounding_step(sender, receiver, cb, gb, lam,
                                              noise=noise)
    assert abs(metrics["loss"]
               - (metrics["caption_nll"] + lam * metrics["hinge"])) < 1e-12
    assert any(np.any(g != 0.0) for g in rg.values())


def test_lambda_validation():
    world = small_world()
    vocab, sender, receiver = make_pair(vocab_size=6)
    cb = caption_batch_for(world, vocab)
    gb = game.make_batch(world, 6, 2, np.random.default_rng(5))
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            gr.direct_grounding_step(sender, receiver, cb, gb, bad)


def test_caption_batch_shapes_and_pool():
    world = small_world()
    vocab = agents.Vocabulary(6, 4)
    pool = [0, 3, 5]
    cb = caption_batch_for(world, vocab, batch_size=32, concepts=pool)
    assert cb.features.shape == (32, 6)
    assert cb.tokens.shape == cb.mask.shape
    assert set(cb.concept_ids) <= set(pool)
    assert np.all((cb.tokens >= 0) & (cb.tokens <= vocab.eos))
    # every caption ends with EOS inside the masked region
    for j in range(32):
        length = int(cb.mask[:, j].sum())
        assert cb.tokens[length - 1, j] == vocab.eos


def test_caption_batch_table_override():
    world = small_world()
    vocab = agents.Vocabulary(3, 4)   # too small for synthetic captions
    with pytest.raises(ValueError, match="cannot hold"):
        caption_batch_for(world, vocab)
    table = {c: [c % 3, vocab.eos] for c in range(world.n_concepts)}
    cb = caption_batch_for(world, vocab, batch_size=8, table=table)
    for j, cid in enumerate(cb.concept_ids):
        length = int(cb.mask[:, j].sum())
        assert list(cb.tokens[:length, j]) == table[int(cid)]


def test_grounding_config_validation():
    good = cfgmod.RunConfig(kl_weight=0.1, caption_weight=0.0)
    assert good.validate() is good
    with pytest.raises(ValueError, match="kl_weight"):
        cfgmod.RunConfig(kl_weight=-0.1).validate()
    with pytest.raises(ValueError, match="caption_weight"):
        cfgmod.RunConfig(caption_weight=float("nan")).validate()
    with pytest.raises(ValueError, match="lm_fraction"):
        cfgmod.RunConfig(lm_fraction=0.0).validate()
    with pytest.raises(ValueError, match="caption_fraction"):
        cfgmod.RunConfig(caption_fraction=1.0).validate()
