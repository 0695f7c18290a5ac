"""Game environment checks: the margin objective, batch construction,
success accounting, and round composition.  A single round is a one-row
batch."""

import numpy as np
import pytest

import refgame.agents as agents
import refgame.autograd as ag
import refgame.data as data
import refgame.game as game
import refgame.sampling as smp

# upper 0.01 quantile of chi-square with 7 degrees of freedom
CHI2_7_CRIT_01 = 18.475

DESK_SPEC = data.WorldSpec(n_attributes=2, values_per_attribute=3,
                           feature_dim=6, instance_noise=0.1, seed=0)


def small_world():
    return data.build_world(DESK_SPEC)


def make_agents(seed, vocab_size=4, max_len=3, d=6, embed=5, hidden=8):
    vocab = agents.Vocabulary(vocab_size, max_len)
    rng = np.random.default_rng(seed)
    s = agents.Sender.create(rng, vocab, d, embed, hidden)
    r = agents.Receiver.create(rng, vocab, d, embed, hidden)
    return s, r


def hinge_of(target_score, distractor_scores):
    """Hinge of one round with the target in column 0."""
    row = np.concatenate([[target_score], distractor_scores]).reshape(1, -1)
    return game.hinge_batch(ag.tensor(row), [0]).item()


def test_hinge_loss_satisfied_margin():
    assert hinge_of(5.0, np.array([3.0, 3.0, 3.0])) == 0.0


def test_hinge_loss_hand_value():
    assert abs(hinge_of(0.0, np.array([0.0, 0.0])) - 2.0) < 1e-12


def test_hinge_loss_gradient_counts_violators():
    """d loss / d s_t = -(number of distractors with 1 - s_t + s_k > 0)."""
    # target in column 2; violators: 0.2 and 0.6
    scores = ag.param(np.array([[0.2, -1.0, 0.5, 0.6]]))
    with ag.tape() as tp:
        scores.zero_grad()
        tp.backward(game.hinge_batch(scores, [2]))
    assert np.array_equal(scores.grad, np.array([[1.0, 0.0, -2.0, 1.0]]))


def test_hinge_loss_rejects_no_distractors():
    with pytest.raises(ValueError, match="distractor"):
        game.hinge_batch(ag.tensor(np.ones((3, 1))), [0, 0, 0])


def test_hinge_nonnegative_and_zero_iff_margin():
    rng = np.random.default_rng(0)
    s_t = rng.normal(size=(200, 1))
    s_d = rng.normal(size=(200, 4))
    vals = game.hinge_batch(ag.tensor(np.hstack([s_t, s_d])),
                            np.zeros(200, dtype=int)).data[:, 0]
    for j in range(200):
        assert vals[j] >= 0.0
        if np.all(s_t[j] - s_d[j] >= 1.0):
            assert vals[j] == 0.0
        else:
            assert vals[j] > 0.0


def test_hinge_batch_matches_scalar_hinge():
    rng = np.random.default_rng(1)
    b, n_cand = 5, 4
    scores = rng.normal(size=(b, n_cand))
    idx = rng.integers(0, n_cand, size=b)
    col = game.hinge_batch(ag.tensor(scores.copy()), idx)
    for j in range(b):
        dist = np.delete(scores[j], idx[j])
        want = np.maximum(0.0, 1.0 - scores[j, idx[j]] + dist).sum()
        assert abs(col.data[j, 0] - want) < 1e-12


def test_success_mask_strict_ties_fail():
    scores = np.array([[1.0, 1.0, 0.0],
                       [2.0, 1.0, 0.0],
                       [0.0, 3.0, 3.0]])
    assert list(game.success_mask(scores, np.array([0, 0, 1]))) == [False, True, False]


def test_success_shift_invariance():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=(20, 5))
    idx = rng.integers(0, 5, size=20)
    base = game.success_mask(scores, idx)
    shifted = game.success_mask(scores + 37.5, idx)
    assert np.array_equal(base, shifted)


def test_hinge_permutation_invariance_over_distractors():
    rng = np.random.default_rng(3)
    s_t = 0.3
    s_d = rng.normal(size=6)
    v1 = hinge_of(s_t, s_d)
    v2 = hinge_of(s_t, np.flip(s_d).copy())
    assert v1 == v2


def test_make_batch_candidates_contain_target_once():
    world = small_world()
    batch = game.make_batch(world, 32, 3, smp.stream(0, smp.DOMAIN_BATCH, 0))
    for j in range(32):
        row = batch.cand_feats[j]
        hits = np.where((row == batch.target_feats[j]).all(axis=1))[0]
        assert batch.target_index[j] in hits
        # concept-distinct distractors make the target's concept unique
        assert (batch.cand_concepts[j] == batch.target_concepts[j]).sum() == 1
        assert len(set(batch.cand_concepts[j])) == 4


def test_make_batch_target_index_uniform():
    """Chi-square over K+1 = 8 cells at 10k instances, alpha = 0.01."""
    spec = data.WorldSpec(n_attributes=3, values_per_attribute=4,
                          feature_dim=8, instance_noise=0.1, seed=0)
    world = data.build_world(spec)
    counts = np.zeros(8)
    rng = smp.stream(1, smp.DOMAIN_BATCH, 0)
    for _ in range(10):
        batch = game.make_batch(world, 1000, 7, rng)
        counts += np.bincount(batch.target_index, minlength=8)
    expected = counts.sum() / 8.0
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < CHI2_7_CRIT_01, counts


def test_make_batch_deterministic():
    world = small_world()
    b1 = game.make_batch(world, 8, 3, smp.stream(5, smp.DOMAIN_BATCH, 2))
    b2 = game.make_batch(world, 8, 3, smp.stream(5, smp.DOMAIN_BATCH, 2))
    assert np.array_equal(b1.cand_feats, b2.cand_feats)
    assert np.array_equal(b1.target_index, b2.target_index)


def test_make_batch_concept_pool_restriction():
    world = small_world()
    pool = [0, 2, 4, 6, 8]
    batch = game.make_batch(world, 16, 3, smp.stream(0, smp.DOMAIN_BATCH, 1),
                            concepts=pool)
    assert set(batch.cand_concepts.reshape(-1)) <= set(pool)


def test_make_batch_rejects_small_world_or_k():
    world = small_world()
    with pytest.raises(ValueError):
        game.make_batch(world, 4, 9, smp.stream(0, smp.DOMAIN_BATCH, 0))
    with pytest.raises(ValueError):
        game.make_batch(world, 4, 0, smp.stream(0, smp.DOMAIN_BATCH, 0))
    with pytest.raises(ValueError):
        game.make_batch(world, 4, 3, smp.stream(0, smp.DOMAIN_BATCH, 0),
                        concepts=[1, 2, 3])


def test_play_round_chance_level_untrained():
    """K=3: success of random agents ~ 1/4 within 2 standard errors."""
    world = small_world()
    s, r = make_agents(11)
    rng = smp.stream(2, smp.DOMAIN_EVAL, 0)
    n = 2000
    wins = 0
    batch = game.make_batch(world, n, 3, rng)
    roll = agents.generate_batch(s, batch.target_feats, "sample", rng=rng)
    g = agents.read_batch(r, roll)
    scores = game.score_batch(g, batch.cand_feats)
    wins = game.success_mask(scores.data, batch.target_index).sum()
    p = 0.25
    se = np.sqrt(p * (1 - p) / n)
    assert abs(wins / n - p) < 2 * se


def test_play_round_oracle_receiver_succeeds():
    """g = f(target) with distinct unit-norm candidates wins by
    self-similarity."""
    world = data.build_world(data.WorldSpec(n_attributes=2,
                                            values_per_attribute=3,
                                            feature_dim=6,
                                            instance_noise=0.0, seed=3))
    rng = smp.stream(4, smp.DOMAIN_BATCH, 0)
    batch = game.make_batch(world, 64, 3, rng)
    scores = game.score_batch(ag.tensor(batch.target_feats.copy()),
                              batch.cand_feats)
    assert game.success_mask(scores.data, batch.target_index).all()


def test_play_round_outcome_fields():
    """One round as a one-row batch: generate, read, score, hinge."""
    world = small_world()
    s, r = make_agents(13)
    inst = game.GameInstance(target_features=batchless_target(world),
                             distractor_features=np.stack(
                                 [data.sample_instances(world, [c], np.random.default_rng(c))[0]
                                  for c in (1, 2, 3)]),
                             target_index=2)
    roll = agents.generate_batch(s, inst.target_features.reshape(1, -1),
                                 "sample", rng=np.random.default_rng(0))
    g = agents.read_batch(r, roll)
    scores = game.score_batch(g, inst.candidates[np.newaxis])
    loss = game.hinge_batch(scores, [inst.target_index]).item()
    probs = game.image_probabilities(scores.data)
    success = game.success_mask(scores.data, np.array([inst.target_index]))[0]
    assert loss >= 0.0
    assert probs.shape == (1, 4)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert success == (np.argmax(probs[0]) == 2)


def batchless_target(world):
    return data.sample_instances(world, [0], np.random.default_rng(9))[0]


def test_play_round_expected_loss_matches_enumeration():
    """|V|=3, L=2, K=1 on one frozen instance: the exact message
    enumeration of the expected hinge equals a 100k-round Monte Carlo
    mean within 0.01."""
    world = data.build_world(data.WorldSpec(n_attributes=1,
                                            values_per_attribute=4,
                                            feature_dim=6,
                                            instance_noise=0.05, seed=1))
    s, r = make_agents(17, vocab_size=3, max_len=2)
    rng = np.random.default_rng(23)
    target = data.sample_instances(world, [0], rng)[0]
    distractor = data.sample_instances(world, [1], rng)[0]
    inst = game.GameInstance(target_features=target,
                             distractor_features=distractor[np.newaxis],
                             target_index=0)

    from test_agents import enumerate_messages, message_log_prob
    exact = 0.0
    for m in enumerate_messages(s.vocab):
        q = np.exp(message_log_prob(s, target, list(m)))
        g = agents.receiver_read(r, list(m))
        scores = game.score_batch(g, inst.candidates[np.newaxis])
        exact += q * game.hinge_batch(scores, [0]).item()

    n = 100000
    tiled = np.tile(target, (n, 1))
    roll = agents.generate_batch(s, tiled, "sample",
                                 rng=smp.stream(6, smp.DOMAIN_GUMBEL, 0))
    g = agents.read_batch(r, roll)
    cand = np.tile(inst.candidates[np.newaxis], (n, 1, 1))
    scores = game.score_batch(g, cand)
    hinge = game.hinge_batch(scores, np.zeros(n, dtype=int))
    assert abs(hinge.data.mean() - exact) < 0.01
