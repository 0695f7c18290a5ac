"""Agent checks: message generation in every decode mode, receiver
reads, candidate scoring, and the reference language model.  A single
instance is a one-row batch."""

import numpy as np
import pytest

import refgame.agents as agents
import refgame.autograd as ag
import refgame.game as game
import refgame.sampling as smp


def make_sender(seed=0, vocab_size=3, max_len=2, d=4, embed=5, hidden=6, **kw):
    vocab = agents.Vocabulary(vocab_size, max_len)
    rng = np.random.default_rng(seed)
    return agents.Sender.create(rng, vocab, d, embed, hidden, **kw)


def make_receiver(seed=1, vocab_size=3, max_len=2, d=4, embed=5, hidden=6):
    vocab = agents.Vocabulary(vocab_size, max_len)
    rng = np.random.default_rng(seed)
    return agents.Receiver.create(rng, vocab, d, embed, hidden)


def zero_params(component):
    for _, t in component.named_params():
        t.data[...] = 0.0


def enumerate_messages(vocab):
    """Every possible message: EOS-terminated short ones plus full-length
    ordinary sequences."""
    out = []
    def rec(prefix):
        if len(prefix) == vocab.max_len:
            out.append(tuple(prefix))
            return
        out.append(tuple(prefix + [vocab.eos]))
        for w in range(vocab.size):
            rec(prefix + [w])
    rec([])
    return out


def message_log_prob(sender, feats, tokens):
    """Teacher-forced log q of one token sequence, by replaying the
    sender's recurrence outside of generate."""
    x = ag.tensor(np.asarray(feats, dtype=np.float64).reshape(1, -1))
    h = sender.eta_h(x)
    c = sender.eta_c(x)
    inp = sender.embed.hard([sender.vocab.start])
    total = 0.0
    for tok in tokens:
        h, c = sender.cell.step(inp, h, c)
        logits = sender.proj(h)
        logq = ag.log_softmax_rows(logits)
        total += float(logq.data[0, tok])
        inp = sender.embed.hard([int(tok)])
    return total


def generate_one(sender, feats, mode, rng=None, noise=None):
    """One-row rollout: (trimmed token list, per-step log-probs of the
    emitted tokens)."""
    roll = agents.generate_batch(sender, np.asarray(feats).reshape(1, -1),
                                 mode, rng=rng, noise=noise)
    n = int(roll.lengths[0])
    tokens = [int(k) for k in roll.tokens[:n, 0]]
    return tokens, [float(roll.step_logp_rows[t].data[0, tokens[t]])
                    for t in range(n)]


def lm_logp(lm, msg):
    """log p_lm of one message, EOS included, from the batched NLL."""
    tokens = np.asarray(msg, dtype=int).reshape(-1, 1)
    return -agents.lm_nll_batch(lm, tokens, np.ones(tokens.shape))[0].item()


def test_vocabulary_reserved_ids():
    v = agents.Vocabulary(5, 4)
    assert v.eos == 5 and v.start == 6
    assert v.n_outcomes == 6 and v.n_embed == 7
    with pytest.raises(ValueError):
        agents.Vocabulary(0, 4)
    with pytest.raises(ValueError):
        agents.Vocabulary(5, 0)


def test_greedy_mode_deterministic():
    s = make_sender(seed=3, vocab_size=6, max_len=5)
    feats = np.random.default_rng(0).normal(size=4)
    assert generate_one(s, feats, "greedy") == generate_one(s, feats, "greedy")


def test_forced_eos_gives_lone_eos_message():
    s = make_sender(seed=0, vocab_size=4, max_len=5)
    s.proj.w.data[...] = 0.0
    s.proj.b.data[...] = 0.0
    s.proj.b.data[s.vocab.eos] = 40.0
    for mode in ("sample", "greedy", "straight_through"):
        tokens, _ = generate_one(s, np.ones(4), mode,
                                 rng=np.random.default_rng(1))
        assert tokens == [s.vocab.eos], mode


def test_messages_terminate_and_never_contain_start():
    s = make_sender(seed=7, vocab_size=4, max_len=3)
    rng = np.random.default_rng(2)
    for mode in ("sample", "greedy", "straight_through", "relaxed"):
        roll = agents.generate_batch(s, rng.normal(size=(40, 4)), mode, rng=rng)
        for j in range(40):
            tokens = [int(t) for t in roll.tokens[:int(roll.lengths[j]), j]]
            assert 1 <= len(tokens) <= 3
            assert s.vocab.start not in tokens
            if len(tokens) < 3:
                assert tokens[-1] == s.vocab.eos


def test_sample_distribution_matches_enumeration():
    """|V|=3, L=2: 13 possible messages; 1e5 draws against the exact
    q(m|t) from teacher-forced replay, total variation < 0.02."""
    s = make_sender(seed=11, vocab_size=3, max_len=2)
    feats = np.random.default_rng(5).normal(size=4)
    msgs = enumerate_messages(s.vocab)
    assert len(msgs) == 13
    exact = np.array([np.exp(message_log_prob(s, feats, m)) for m in msgs])
    assert abs(exact.sum() - 1.0) < 1e-9

    n = 100000
    tiled = np.tile(feats, (n, 1))
    roll = agents.generate_batch(s, tiled, "sample",
                                 rng=smp.stream(0, smp.DOMAIN_GUMBEL, 77))
    counts = dict.fromkeys(msgs, 0)
    for j in range(n):
        length = int(roll.lengths[j])
        counts[tuple(int(t) for t in roll.tokens[:length, j])] += 1
    emp = np.array([counts[m] for m in msgs]) / n
    assert 0.5 * np.abs(emp - exact).sum() < 0.02


def test_sampled_log_probs_match_replay():
    s = make_sender(seed=4, vocab_size=4, max_len=3)
    rng = np.random.default_rng(9)
    feats = rng.normal(size=(10, 4))
    roll = agents.generate_batch(s, feats, "sample", rng=rng)
    for j in range(10):
        tokens = [int(t) for t in roll.tokens[:int(roll.lengths[j]), j]]
        assert abs(roll.logp_sum.data[j, 0]
                   - message_log_prob(s, feats[j], tokens)) < 1e-12


def test_greedy_picks_the_per_step_argmax():
    """Each greedy token maximizes its step distribution, so swapping the
    final token for any alternative lowers the total log-prob."""
    s = make_sender(seed=13, vocab_size=5, max_len=4)
    feats = np.random.default_rng(3).normal(size=4)
    tokens, log_probs = generate_one(s, feats, "greedy")
    for t, tok in enumerate(tokens):
        prefix = tokens[:t]
        scores = [message_log_prob(s, feats, prefix + [k])
                  for k in range(s.vocab.n_outcomes)]
        assert int(np.argmax(scores)) == tok
    total = sum(log_probs)
    for k in range(s.vocab.n_outcomes):
        if k == tokens[-1]:
            continue
        alt = tokens[:-1] + [k]
        assert message_log_prob(s, feats, alt) < total


def test_receiver_read_deterministic_and_rejects_empty():
    r = make_receiver()
    g1 = agents.receiver_read(r, [0, 2, r.vocab.eos])
    g2 = agents.receiver_read(r, [0, 2, r.vocab.eos])
    assert np.array_equal(g1.data, g2.data)
    with pytest.raises(ValueError):
        agents.receiver_read(r, [])


def rollout_of(vocab, messages):
    """A discrete BatchRollout holding the given messages, one per
    column, each padded with EOS past its end."""
    tokens, mask = agents.pad_sequences(messages, vocab.eos)
    logp = ag.tensor(np.zeros((len(messages), 1)))
    return agents.BatchRollout(tokens=tokens, emitted=mask,
                               lengths=mask.sum(axis=0), logp_sum=logp)


def one_hot_steps(vocab, roll):
    """Exact one-hot (B, |V|+1) rows of a rollout's tokens, per step."""
    steps = []
    for t in range(roll.n_steps):
        w = np.zeros((roll.batch_size, vocab.n_outcomes))
        w[np.arange(roll.batch_size), roll.tokens[t]] = 1.0
        steps.append(ag.tensor(w))
    return steps


def test_receiver_relaxed_one_hots_equal_discrete():
    """Exact one-hot relaxed steps must reproduce the hard-embedding
    read bitwise."""
    r = make_receiver(seed=5)
    eos = r.vocab.eos
    roll = rollout_of(r.vocab, [[1, 0, eos], [2, eos], [0]])
    hard = agents.read_batch(r, roll, "discrete")
    roll.step_relaxed = one_hot_steps(r.vocab, roll)
    soft = agents.read_batch(r, roll, "relaxed")
    assert np.array_equal(hard.data, soft.data)
    roll.step_onehots = roll.step_relaxed
    assert np.array_equal(hard.data, agents.read_batch(r, roll, "relaxed").data)


def test_read_batch_rows_match_single_reads():
    """Each row of a batched read equals the one-row read of its trimmed
    message (up to the rounding of a batched vs one-row matrix product)."""
    r = make_receiver(seed=6, max_len=4)
    rng = np.random.default_rng(12)
    messages = []
    for _ in range(12):
        n = int(rng.integers(1, 5))
        msg = [int(t) for t in rng.integers(0, r.vocab.size, size=n)]
        if n < 4 and rng.random() < 0.5:
            msg.append(r.vocab.eos)
        messages.append(msg)
    g = agents.read_batch(r, rollout_of(r.vocab, messages))
    for j, msg in enumerate(messages):
        single = agents.receiver_read(r, msg)
        assert single.shape == (1, 4)
        assert np.max(np.abs(g.data[j] - single.data[0])) <= 1e-12, j


def test_receiver_read_gradcheck():
    """Finite differences on a scalar probe of the batched read g(h_last),
    three messages of lengths 1, 2 and 3, every receiver parameter; the
    masked state carry must route each row's gradient to its own steps."""
    r = make_receiver(seed=8)
    ps = r.param_set()
    eos = r.vocab.eos
    roll = rollout_of(r.vocab, [[eos], [1, eos], [2, 1, eos]])
    assert list(roll.lengths) == [1.0, 2.0, 3.0]
    probe = np.random.default_rng(21).normal(size=(3, 4))

    def value():
        return float(np.sum(agents.read_batch(r, roll).data * probe))

    with ag.tape() as tp:
        ps.zero_grads()
        g = agents.read_batch(r, roll)
        tp.backward(ag.sum_all(ag.mul(g, ag.tensor(probe.copy()))))
    grads = ps.grads()

    eps = 1e-5
    for name in ps.names:
        flat = ps.tensors[name].data.reshape(-1)
        ana_all = grads[name].reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = value()
            flat[i] = keep - eps
            down = value()
            flat[i] = keep
            num = (up - down) / (2 * eps)
            ana = ana_all[i]
            assert abs(num - ana) <= 1e-5 * max(1.0, abs(num), abs(ana)), (name, i)


def test_score_images_examples():
    g = ag.tensor(np.array([[1.0, 0.0, 2.0]]))
    cands = np.array([[[1.0, 0.0, 2.0],
                       [0.5, 3.0, 0.0],
                       [1.0, 0.0, 2.0]]])
    scores = game.score_batch(g, cands)
    assert scores.shape == (1, 3)
    assert scores.data[0, 0] == scores.data[0, 2]
    assert abs(scores.data[0, 0] - 5.0) < 1e-12
    with pytest.raises(ag.ShapeError):
        game.score_batch(g, np.zeros((1, 2, 4)))


def test_score_images_target_self_similarity():
    rng = np.random.default_rng(6)
    f_t = rng.normal(size=5)
    f_t /= np.linalg.norm(f_t)
    base = rng.normal(size=5)
    orth = base - (base @ f_t) * f_t
    orth *= 0.5 / np.linalg.norm(orth)
    scores = game.score_batch(ag.tensor(f_t.reshape(1, -1)),
                              np.stack([f_t, orth, -orth])[np.newaxis])
    assert np.argmax(scores.data[0]) == 0
    assert scores.data[0, 0] > max(scores.data[0, 1], scores.data[0, 2])


def test_image_probabilities_normalize():
    p = game.image_probabilities(np.array([0.3, -1.2, 2.0, 0.0]))
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.all(p >= 0)


def test_lm_log_prob_uniform_model():
    vocab = agents.Vocabulary(4, 3)
    lm = agents.LanguageModel.create(np.random.default_rng(0), vocab, 5, 6)
    zero_params(lm)
    for msg in ([vocab.eos], [0, vocab.eos], [1, 2, 3]):
        lp = lm_logp(lm, msg)
        assert abs(lp - (-len(msg) * np.log(vocab.n_outcomes))) < 1e-12


def test_lm_log_prob_monotone_in_length():
    vocab = agents.Vocabulary(4, 6)
    lm = agents.LanguageModel.create(np.random.default_rng(2), vocab, 5, 6)
    msg = [1, 3, 0, 2]
    for n in range(1, len(msg)):
        assert lm_logp(lm, msg[:n + 1]) < lm_logp(lm, msg[:n])


def test_lm_log_prob_rejects_out_of_vocabulary():
    vocab = agents.Vocabulary(3, 4)
    lm = agents.LanguageModel.create(np.random.default_rng(3), vocab, 5, 6)
    with pytest.raises(ValueError, match="outside vocabulary"):
        agents.lm_train(lm, [[0, vocab.start]], 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="outside vocabulary"):
        agents.lm_train(lm, [[1, vocab.eos], [7]], 1, np.random.default_rng(0))


def test_lm_nll_batch_rejects_ids_outside_vocabulary():
    """A negative id must not be scored as the last row's entry (EOS), and
    START is an input only, never a scored outcome."""
    vocab = agents.Vocabulary(3, 4)
    lm = agents.LanguageModel.create(np.random.default_rng(3), vocab, 5, 6)
    for bad in (-1, vocab.start):
        tokens = np.array([[0, 0], [bad, vocab.eos]])
        with pytest.raises(ValueError, match="outside vocabulary"):
            agents.lm_nll_batch(lm, tokens, np.ones(tokens.shape))
        with pytest.raises(ValueError, match="outside vocabulary"):
            agents.lm_perplexity(lm, [[0, bad]])


def test_lm_message_space_sums_to_one():
    """|V|=3, L=3: exp(log p_lm) summed over all 40 possible messages
    must equal 1 (the generation tree is exhaustive)."""
    vocab = agents.Vocabulary(3, 3)
    lm = agents.LanguageModel.create(np.random.default_rng(4), vocab, 5, 6)
    msgs = enumerate_messages(vocab)
    assert len(msgs) == 40
    total = sum(np.exp(lm_logp(lm, m)) for m in msgs)
    assert abs(total - 1.0) < 1e-9


def test_lm_train_memorizes_single_message():
    vocab = agents.Vocabulary(4, 4)
    lm = agents.LanguageModel.create(np.random.default_rng(5), vocab, 8, 16)
    corpus = [[2, 0, 1, vocab.eos]] * 8
    ppl = agents.lm_train(lm, corpus, 150, np.random.default_rng(6), lr=0.05)
    assert ppl < 1.1
    assert ppl >= 1.0


def test_lm_train_beats_uniform_on_held_out():
    """Corpus with shared structure (every message starts with token 0):
    held-out perplexity after training < uniform |V|+1."""
    vocab = agents.Vocabulary(5, 4)
    lm = agents.LanguageModel.create(np.random.default_rng(7), vocab, 8, 16)
    rng = np.random.default_rng(8)
    corpus = [[0, int(rng.integers(1, 5)), vocab.eos] for _ in range(40)]
    held_out = [[0, int(rng.integers(1, 5)), vocab.eos] for _ in range(20)]
    agents.lm_train(lm, corpus, 60, np.random.default_rng(9), lr=0.02)
    assert agents.lm_perplexity(lm, held_out) < vocab.n_outcomes


def test_lm_train_rejects_empty_corpus():
    vocab = agents.Vocabulary(3, 3)
    lm = agents.LanguageModel.create(np.random.default_rng(1), vocab, 4, 5)
    with pytest.raises(ValueError):
        agents.lm_train(lm, [], 1, np.random.default_rng(0))


def test_batched_rollout_matches_single_generate():
    """Batched generation with per-column noise equals one-row
    generation with the same noise columns."""
    s = make_sender(seed=17, vocab_size=5, max_len=4)
    rng = np.random.default_rng(31)
    feats = rng.normal(size=(6, 4))
    noise = smp.gumbel_noise(smp.stream(3, smp.DOMAIN_GUMBEL, 9),
                             (4, 6, s.vocab.n_outcomes))
    roll = agents.generate_batch(s, feats, "sample", noise=noise)
    for j in range(6):
        tokens, _ = generate_one(s, feats[j], "sample",
                                 noise=noise[:, j:j + 1, :])
        length = int(roll.lengths[j])
        assert tokens == [int(t) for t in roll.tokens[:length, j]]


def test_generate_batch_rejects_bad_mode_and_dims():
    s = make_sender()
    with pytest.raises(ValueError):
        agents.generate_batch(s, np.zeros((2, 4)), "beam")
    with pytest.raises(ag.ShapeError):
        agents.generate_batch(s, np.zeros((2, 3)), "sample",
                              rng=np.random.default_rng(0))
