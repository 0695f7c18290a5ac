"""Protocol analysis checks: success accounting, encoder perplexity,
omission scores against a brute-force replica, and prefix purity."""

import numpy as np
import pytest

import refgame.agents as agents
import refgame.analysis as an
import refgame.data as data
import refgame.game as game
import refgame.nn as nn
import refgame.sampling as smp


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


def zero_params(component):
    for _, t in component.named_params():
        t.data[...] = 0.0


def force_eos(sender):
    sender.proj.w.data[...] = 0.0
    sender.proj.b.data[...] = 0.0
    sender.proj.b.data[sender.vocab.eos] = 40.0


# ---------------------------------------------------------------------------
# success


def test_untrained_success_matches_chance():
    world = small_world()
    vocab, sender, receiver = make_pair()
    n, k = 2000, 3
    rate = an.eval_success(sender, receiver, world, n, k, "sample",
                           smp.stream(0, smp.DOMAIN_EVAL, 0))
    p = 1.0 / (k + 1)
    se = np.sqrt(p * (1 - p) / n)
    assert abs(rate - p) < 2 * se


def test_tied_scores_count_as_failure():
    world = small_world()
    vocab, sender, receiver = make_pair()
    zero_params(receiver)
    rate = an.eval_success(sender, receiver, world, 200, 3, "sample",
                           smp.stream(0, smp.DOMAIN_EVAL, 0))
    assert rate == 0.0


def test_eval_success_deterministic_per_stream():
    world = small_world()
    vocab, sender, receiver = make_pair()
    a = an.eval_success(sender, receiver, world, 300, 3, "sample",
                        smp.stream(7, smp.DOMAIN_EVAL, 0))
    b = an.eval_success(sender, receiver, world, 300, 3, "sample",
                        smp.stream(7, smp.DOMAIN_EVAL, 0))
    assert a == b


def test_eval_success_rejects_unknown_mode():
    world = small_world()
    vocab, sender, receiver = make_pair()
    with pytest.raises(ValueError, match="mode"):
        an.eval_success(sender, receiver, world, 10, 3, "beam",
                        smp.stream(0, smp.DOMAIN_EVAL, 0))


# ---------------------------------------------------------------------------
# encoder perplexity


def test_peaked_sender_perplexity_is_one():
    world = small_world()
    vocab, sender, _ = make_pair()
    force_eos(sender)
    ppl = an.encoder_perplexity(sender, world, 300,
                                smp.stream(0, smp.DOMAIN_EVAL, 3))
    assert 1.0 <= ppl < 1.0 + 1e-6


def test_uniform_sender_perplexity_is_outcome_count():
    world = small_world()
    vocab, sender, _ = make_pair()
    zero_params(sender)
    ppl = an.encoder_perplexity(sender, world, 300,
                                smp.stream(0, smp.DOMAIN_EVAL, 3))
    assert abs(ppl - vocab.n_outcomes) < 1e-9


def test_encoder_perplexity_needs_messages():
    world = small_world()
    vocab, sender, _ = make_pair()
    with pytest.raises(ValueError):
        an.encoder_perplexity(sender, world, 0, smp.stream(0, smp.DOMAIN_EVAL, 3))


def test_uniform_lm_perplexity_is_outcome_count():
    world = small_world()
    vocab, sender, _ = make_pair()
    lm = agents.LanguageModel.create(np.random.default_rng(3), vocab, 5, 8)
    for _, t in lm.named_params():
        t.data[...] = 0.0
    ppl = an.generated_lm_perplexity(sender, lm, world, 300,
                                     smp.stream(0, smp.DOMAIN_EVAL, 6))
    assert abs(ppl - vocab.n_outcomes) < 1e-9


# ---------------------------------------------------------------------------
# omission scores


def np_sigmoid(z):
    t = np.exp(-np.abs(z))
    pos = 1.0 / (1.0 + t)
    return np.where(z >= 0, pos, t / (1.0 + t))


def brute_target_probability(receiver, tokens, instance):
    """Plain-numpy replay of the receiver read and image softmax."""
    hs = receiver.cell.hidden_size
    h = np.zeros((1, hs))
    c = np.zeros((1, hs))
    table = receiver.embed.table.data
    w_x = receiver.cell.w_x.data
    w_h = receiver.cell.w_h.data
    bias = receiver.cell.b.data
    for tok in tokens:
        x = table[[int(tok)]]
        z = (x @ w_x + bias) + h @ w_h
        i = np_sigmoid(z[:, :hs])
        f = np_sigmoid(z[:, hs:2 * hs])
        g = np.tanh(z[:, 2 * hs:3 * hs])
        o = np_sigmoid(z[:, 3 * hs:4 * hs])
        c = f * c + i * g
        h = o * np.tanh(c)
    g_vec = h @ receiver.g_map.w.data + receiver.g_map.b.data
    cand = np.asarray(instance.candidates, dtype=np.float64)
    scores = (g_vec @ cand.T.copy()).reshape(1, -1)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=-1, keepdims=True)
    return float(probs[0, instance.target_index])


def brute_omission(receiver, tokens, instance):
    eos = receiver.vocab.eos
    content = [i for i, t in enumerate(tokens) if t != eos]
    p_full = brute_target_probability(receiver, tokens, instance)
    best = -np.inf
    for i in content:
        reduced = tokens[:i] + tokens[i + 1:]
        if not reduced:
            reduced = [eos]
        best = max(best, p_full
                   - brute_target_probability(receiver, reduced, instance))
    return best


def random_instance(world, rng, k=3):
    batch = game.make_batch(world, 1, k, rng)
    return game.GameInstance(
        target_features=batch.target_feats[0],
        distractor_features=np.delete(batch.cand_feats[0],
                                      batch.target_index[0], axis=0),
        target_index=int(batch.target_index[0]),
        target_concept=int(batch.target_concepts[0]))


def test_omission_matches_brute_force_exactly():
    world = small_world()
    rng = np.random.default_rng(0)
    for case in range(60):
        vocab, _, receiver = make_pair(seed=case % 5, vocab_size=4, max_len=4)
        inst = random_instance(world, rng)
        length = int(rng.integers(1, 5))
        tokens = [int(t) for t in rng.integers(0, vocab.size, size=length)]
        if rng.random() < 0.5 and length < 4:
            tokens.append(vocab.eos)
        got = an.omission_score(receiver, tokens, inst)
        want = brute_omission(receiver, tokens, inst)
        assert got == want, (case, tokens)


def test_omission_zero_for_indifferent_receiver():
    world = small_world()
    vocab, _, receiver = make_pair()
    zero_params(receiver)
    inst = random_instance(world, np.random.default_rng(1))
    assert an.omission_score(receiver, [0, 2, 1], inst) == 0.0


def test_omission_single_token_falls_back_to_eos():
    world = small_world()
    vocab, _, receiver = make_pair()
    inst = random_instance(world, np.random.default_rng(2))
    got = an.omission_score(receiver, [1], inst)
    want = (an.target_probability(receiver, [1], inst)
            - an.target_probability(receiver, [vocab.eos], inst))
    assert got == want


def test_omission_reads_each_prefix_once(monkeypatch):
    # distinct tokens, no EOS: the full read takes n steps, and deleting
    # token i re-reads only the n - 1 - i tokens after it
    world = small_world()
    vocab, _, receiver = make_pair(vocab_size=6, max_len=5)
    inst = random_instance(world, np.random.default_rng(4))
    calls = []
    step = nn.LstmCell.step

    def counted(self, x, h, c):
        calls.append(1)
        return step(self, x, h, c)

    monkeypatch.setattr(nn.LstmCell, "step", counted)
    tokens = [3, 0, 5, 1, 4]
    n = len(tokens)
    got = an.omission_score(receiver, tokens, inst)
    assert len(calls) == n + n * (n - 1) // 2
    assert got == brute_omission(receiver, tokens, inst)


def test_omission_needs_content_tokens():
    world = small_world()
    vocab, _, receiver = make_pair()
    inst = random_instance(world, np.random.default_rng(3))
    with pytest.raises(ValueError, match="non-EOS"):
        an.omission_score(receiver, [vocab.eos], inst)


# ---------------------------------------------------------------------------
# prefix purity


def test_purity_perfect_code_is_one():
    pairs = [((v, 3), (v, 9)) for v in range(4) for _ in range(5)]
    assert an.prefix_purity(pairs, 1, 0) == 1.0


def test_purity_hand_value():
    # one group of five: modal value appears three times
    pairs = [((0,), (1,)), ((0,), (1,)), ((0,), (1,)),
             ((0,), (2,)), ((0,), (0,))]
    assert an.prefix_purity(pairs, 1, 0) == pytest.approx(3 / 5)


def test_purity_refinement_never_decreases():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(10, 60))
        pairs = [(tuple(rng.integers(0, 3, size=3)),
                  tuple(rng.integers(0, 4, size=2))) for _ in range(n)]
        p1 = an.prefix_purity(pairs, 1, 0)
        p2 = an.prefix_purity(pairs, 2, 0)
        p3 = an.prefix_purity(pairs, 3, 0)
        assert p2 >= p1 - 1e-12
        assert p3 >= p2 - 1e-12


def test_purity_null_model_near_inverse_values():
    rng = np.random.default_rng(6)
    pairs = [((0, 0), (int(rng.integers(0, 4)),)) for _ in range(4000)]
    p = an.prefix_purity(pairs, 1, 0)
    assert 0.25 <= p < 0.30


def test_purity_validation():
    with pytest.raises(ValueError):
        an.prefix_purity([((0,), (0,))], 0, 0)
    with pytest.raises(ValueError):
        an.prefix_purity([], 1, 0)


def test_paraphrase_stats_deterministic_sender_is_one():
    world = small_world()
    vocab, sender, _ = make_pair()
    force_eos(sender)
    val = an.paraphrase_stats(sender, world, 5, smp.stream(0, smp.DOMAIN_EVAL, 8))
    assert val == 1.0
    with pytest.raises(ValueError):
        an.paraphrase_stats(sender, world, 1, smp.stream(0, smp.DOMAIN_EVAL, 8))


# ---------------------------------------------------------------------------
# full report


def test_evaluate_returns_consistent_report():
    world = small_world()
    vocab, sender, receiver = make_pair()
    rep = an.evaluate(sender, receiver, world, k=3, seed=11, n_rounds=100,
                      n_messages=100, n_omission=20)
    assert set(rep.success_rate) == set(an.EVAL_MODES)
    assert rep.n_rounds == 100
    assert rep.encoder_perplexity >= 1.0
    assert 1.0 <= rep.mean_length <= vocab.max_len
    assert rep.lm_perplexity is None
    keys = [k for k, _ in an.report_items(rep)]
    assert "success_sample" in keys and "prefix_purity_p1_attr0" in keys
    assert "lm_perplexity" not in keys


def test_evaluate_mean_omission_matches_brute_force():
    world = small_world()
    vocab, sender, receiver = make_pair()
    n, k, seed = 30, 3, 11
    rep = an.evaluate(sender, receiver, world, k=k, seed=seed, n_rounds=20,
                      n_messages=20, n_omission=n)
    rng = smp.stream(seed, smp.DOMAIN_EVAL, 5)
    batch = game.make_batch(world, n, k, rng)
    roll = agents.generate_batch(sender, batch.target_feats, "sample", rng=rng)
    scores = []
    for b, msg in enumerate(an.message_tuples(roll)):
        if all(t == vocab.eos for t in msg):
            continue
        inst = game.GameInstance(
            target_features=batch.target_feats[b],
            distractor_features=np.delete(batch.cand_feats[b],
                                          batch.target_index[b], axis=0),
            target_index=int(batch.target_index[b]))
        scores.append(brute_omission(receiver, list(msg), inst))
    assert len(scores) > n // 2
    assert rep.mean_omission == float(np.mean(scores))


def test_evaluate_deterministic():
    world = small_world()
    vocab, sender, receiver = make_pair()
    rep1 = an.evaluate(sender, receiver, world, k=3, seed=11, n_rounds=100,
                       n_messages=100, n_omission=20)
    rep2 = an.evaluate(sender, receiver, world, k=3, seed=11, n_rounds=100,
                       n_messages=100, n_omission=20)
    assert an.report_items(rep1) == an.report_items(rep2)


def test_report_validation_rejects_bad_fields():
    rep = an.EvalReport(success_rate={"sample": 1.5}, encoder_perplexity=2.0,
                        mean_length=1.0, length_percentiles={}, unique_messages=1,
                        mean_omission=0.0, prefix_purity={}, n_rounds=1)
    with pytest.raises(ValueError, match="success_rate"):
        rep.validate()
    rep.success_rate = {"sample": 0.5}
    rep.encoder_perplexity = 0.5
    with pytest.raises(ValueError, match="perplexity"):
        rep.validate()
    rep.encoder_perplexity = 2.0
    rep.prefix_purity = {(1, 0): 1.2}
    with pytest.raises(ValueError, match="purity"):
        rep.validate()


def test_report_and_message_log_round_trip(tmp_path):
    world = small_world()
    vocab, sender, receiver = make_pair()
    rep = an.evaluate(sender, receiver, world, k=3, seed=11, n_rounds=100,
                      n_messages=100, n_omission=20)
    kv = tmp_path / "report.txt"
    csv = tmp_path / "report.csv"
    an.save_report(rep, kv, csv)
    text = kv.read_text()
    for key, value in an.report_items(rep):
        assert f"{key} = {value!r}" in text
    assert csv.read_text().startswith("metric,value\n")

    entries = [(3, (0, 1, vocab.eos)), (7, (2,))]
    log = tmp_path / "messages.log"
    an.save_message_log(log, entries)
    assert an.load_message_log(log) == entries
