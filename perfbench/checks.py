"""Output checks on a finished run.  Each returns (ok, detail).

The checks read refgame's results through its public functions and compare
them with computations that do not share the code under test: a central
difference of the game objective against the autograd gradient, a plain-NumPy
LSTM replay against the receiver's reads, and fixed bounds against the
reported metrics.
"""

from __future__ import annotations

import math
import os

import numpy as np

GRAD_BATCH = 8      # small batch: fewer hinge kinks near the probe points
GRAD_EPS = 1e-6
GRAD_RTOL = 1e-5
ORACLE_ATOL = 1e-12
# Encoder perplexity is a sampled estimate: for a near-uniform sender (update
# 0) it lands a few parts in 10^4 above |V|+1, the bound of the exact value.
PPL_SLACK = 1.01


def gradient(pkg, run, seed):
    """Directional derivative of the relaxed, non-terminating game objective
    along its own autograd gradient, against a central difference."""
    est, game, smp = pkg.estimators, pkg.game, pkg.sampling
    cfg = run.cfg
    rng = np.random.default_rng([seed, 17])
    batch = game.make_batch(run.world, GRAD_BATCH, cfg.distractors, rng)
    noise = smp.gumbel_noise(rng, (cfg.max_len, GRAD_BATCH, run.vocab.n_outcomes))
    params = est.joint_params(run.sender, run.receiver)
    grad = est.estimator_direction(run.sender, run.receiver, params, batch,
                                   noise, mode="relaxed", terminate=False)
    norm = float(np.linalg.norm(grad))
    objective = est.game_objective(run.sender, run.receiver, params, batch,
                                   noise, mode="relaxed", terminate=False)
    u = params.flatten()
    if norm == 0.0:  # every hinge inactive: the objective must be flat too
        direction = rng.normal(size=u.shape)
        direction /= np.linalg.norm(direction)
    else:
        direction = grad / norm
    step = GRAD_EPS * direction
    central = (objective(u + step) - objective(u - step)) / (2.0 * GRAD_EPS)
    err = abs(central - norm)
    return (err <= GRAD_RTOL * max(norm, 1e-6),
            f"|grad| {norm:.6g}, central {central:.6g}, "
            f"rel {err / max(norm, 1e-300):.2e}")


def _sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def replay_target_probability(receiver, tokens, candidates, target_index):
    """Plain-NumPy receiver read, candidate scoring and image softmax."""
    table = receiver.embed.table.data
    w_x, w_h, b = (receiver.cell.w_x.data, receiver.cell.w_h.data,
                   receiver.cell.b.data)
    hs = receiver.cell.hidden_size
    h = np.zeros((1, hs))
    c = np.zeros((1, hs))
    for tok in tokens:
        z = (table[[tok]] @ w_x + b) + h @ w_h
        gate_i = _sigmoid(z[:, :hs])
        gate_f = _sigmoid(z[:, hs:2 * hs])
        cand = np.tanh(z[:, 2 * hs:3 * hs])
        gate_o = _sigmoid(z[:, 3 * hs:])
        c = gate_f * c + gate_i * cand
        h = gate_o * np.tanh(c)
    vec = h @ receiver.g_map.w.data + receiver.g_map.b.data
    scores = vec @ np.asarray(candidates).T.copy()
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return float((e / e.sum(axis=-1, keepdims=True))[0, target_index])


def replay_omission(receiver, tokens, candidates, target_index):
    eos = receiver.vocab.eos
    full = replay_target_probability(receiver, tokens, candidates, target_index)
    best = -math.inf
    for i, tok in enumerate(tokens):
        if tok == eos:
            continue
        reduced = tokens[:i] + tokens[i + 1:] or [eos]
        best = max(best, full - replay_target_probability(
            receiver, reduced, candidates, target_index))
    return best


def omission_oracle(pkg, run, report):
    """Replays the report's omission set: per-message target probabilities
    against analysis.target_probability, and the mean omission score
    against the report.  Returns (ok, detail, omission scores)."""
    agents, analysis, game, smp = pkg.agents, pkg.analysis, pkg.game, pkg.sampling
    cfg = run.cfg
    n = min(cfg.eval_rounds, 200)
    rng = smp.stream(cfg.seed, smp.DOMAIN_EVAL, 5)
    batch = game.make_batch(run.world, n, cfg.distractors, rng)
    roll = agents.generate_batch(run.sender, batch.target_feats, "sample", rng=rng)
    eos = run.vocab.eos
    worst = 0.0
    scores = []
    for b, msg in enumerate(analysis.message_tuples(roll)):
        tokens = list(msg)
        if all(t == eos for t in tokens):
            continue
        cands = batch.cand_feats[b]
        ti = int(batch.target_index[b])
        inst = game.GameInstance(target_features=batch.target_feats[b],
                                 distractor_features=np.delete(cands, ti, axis=0),
                                 target_index=ti)
        got = analysis.target_probability(run.receiver, tokens, inst)
        worst = max(worst, abs(got - replay_target_probability(
            run.receiver, tokens, cands, ti)))
        scores.append(replay_omission(run.receiver, tokens, cands, ti))
    mean = float(np.mean(scores)) if scores else 0.0
    diff = abs(mean - report["mean_omission"])
    ok = worst <= ORACLE_ATOL and diff <= ORACLE_ATOL
    return ok, (f"{len(scores)} messages, max |p diff| {worst:.1e}, "
                f"mean omission diff {diff:.1e}"), scores


def read_report(out):
    values = {}
    with open(os.path.join(out, "report.csv")) as f:
        if next(f).strip() != "metric,value":
            raise ValueError("report.csv: bad header")
        for line in f:
            key, _, raw = line.strip().partition(",")
            values[key] = float(raw)
    return values


def read_metrics(out, header):
    with open(os.path.join(out, "metrics.csv")) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != header:
        raise ValueError("metrics.csv: bad header")
    return [line.split(",") for line in lines[1:]]


def eval_points(cfg):
    points = list(range(0, cfg.max_updates + 1, cfg.eval_interval))
    if points[-1] != cfg.max_updates:
        points.append(cfg.max_updates)
    return points


def _in(lo, value, hi):
    return lo <= value <= hi


def interval_ok(metrics, cfg):
    return (_in(0.0, metrics["success_sample"], 1.0)
            and _in(0.0, metrics["success_greedy"], 1.0)
            and _in(1.0, metrics["perplexity"], PPL_SLACK * (cfg.vocab_size + 1.0))
            and _in(1.0, metrics["mean_length"], float(cfg.max_len)))


def bounds(cfg, report, rows, omission_scores, intervals, grounded):
    """Ranges of every reported metric and the shape of metrics.csv."""
    problems = []
    for mode in ("sample", "greedy", "relaxed"):
        if not _in(0.0, report[f"success_{mode}"], 1.0):
            problems.append(f"success_{mode}")
    if not _in(1.0, report["encoder_perplexity"], PPL_SLACK * (cfg.vocab_size + 1.0)):
        problems.append("encoder_perplexity")
    if not _in(1.0, report["mean_length"], float(cfg.max_len)):
        problems.append("mean_length")
    if not all(_in(-1.0, s, 1.0) for s in omission_scores):
        problems.append("omission score")
    if [int(r[0]) for r in rows] != eval_points(cfg):
        problems.append("metrics.csv eval points")
    for k, row in enumerate(rows):
        expect = [k > 0, True, True, True, True,
                  cfg.estimator == "reinforce", grounded]
        for field, (raw, present) in enumerate(zip(row[1:], expect), start=1):
            if bool(raw) != present or (raw and not math.isfinite(float(raw))):
                problems.append(f"metrics.csv row {k} field {field}")
        named = dict(zip(("success_sample", "success_greedy", "perplexity",
                          "mean_length"), map(float, row[2:6])))
        if not interval_ok(named, cfg):
            problems.append(f"metrics.csv row {k} range")
    if not all(interval_ok(m, cfg) for m in intervals):
        problems.append("interval metrics range")
    return not problems, ", ".join(problems) or f"{len(rows)} rows"


def roundtrip(pkg, cfg, saved_run, ckpt_path):
    """restore_run of ckpt_path reproduces every parameter, Adam moment and
    scalar of saved_run bit for bit (the caller checks that saving
    saved_run writes exactly the bytes of ckpt_path)."""
    train = pkg.train
    restored = train.restore_run(cfg, ckpt_path)
    want, got = train.run_arrays(saved_run), train.run_arrays(restored)
    same = (want.keys() == got.keys()
            and all(want[k].shape == got[k].shape
                    and want[k].tobytes() == got[k].tobytes() for k in want)
            and train.run_scalars(saved_run) == train.run_scalars(restored))
    n_moments = sum(1 for k in want if ".m/" in k or ".v/" in k)
    return same, f"{len(want)} arrays ({n_moments} Adam moments)"


def learning(cfg, rows):
    """Held-out sampled success after the budget, against 3x chance."""
    final = float(rows[-1][2])
    floor = 3.0 / (cfg.distractors + 1)
    return final >= floor, f"success_sample {final:.3f} vs {floor:.3f}"
