"""Protocol evaluation over parameter snapshots.

Every routine here is read-only: no tape is opened, so nothing is
recorded and nothing trains.  Communication success counts strict argmax
wins (ties fail); encoder perplexity exponentiates the mean per-token
negative log-probability of the sender's own sampled emissions with EOS
included and padding masked; omission scores measure how much the target
probability drops when one message token is deleted; prefix purity asks
how well short message prefixes predict single attribute values.

Omission scoring shares receiver states by token prefix: within one call,
every distinct prefix of the full and reduced messages is read once, with
the same one-row LSTM step ``receiver_read`` takes, so each probability is
bit-identical to a fresh read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import agents
from . import autograd as ag
from . import data
from . import game
from . import sampling as smp

EVAL_CHUNK = 512
EVAL_MODES = ("sample", "greedy", "relaxed")


@dataclass
class EvalReport:
    success_rate: dict
    encoder_perplexity: float
    mean_length: float
    length_percentiles: dict
    unique_messages: int
    mean_omission: float
    prefix_purity: dict
    n_rounds: int
    lm_perplexity: float | None = None

    def validate(self):
        for mode, rate in self.success_rate.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"success_rate[{mode}] = {rate} outside [0, 1]")
        if self.encoder_perplexity < 1.0:
            raise ValueError(f"encoder_perplexity = {self.encoder_perplexity} below 1")
        for key, v in self.prefix_purity.items():
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"prefix_purity[{key}] = {v} outside [0, 1]")
        return self


def eval_success(sender, receiver, world, n_rounds, k, mode, rng):
    """Fraction of rounds where the target image has the strictly highest
    score; relaxed mode passes soft tokens straight to the receiver."""
    if mode not in EVAL_MODES:
        raise ValueError(f"eval_success: unknown mode {mode!r}")
    hits, done = 0, 0
    while done < n_rounds:
        b = min(EVAL_CHUNK, n_rounds - done)
        batch = game.make_batch(world, b, k, rng)
        roll = agents.generate_batch(sender, batch.target_feats, mode,
                                     rng=None if mode == "greedy" else rng)
        g = agents.read_batch(receiver, roll)
        scores = game.score_batch(g, batch.cand_feats)
        hits += int(game.success_mask(scores.data, batch.target_index).sum())
        done += b
    return hits / float(n_rounds)


def encoder_perplexity(sender, world, n_messages, rng):
    """exp of the mean per-token -log q over sampled messages (EOS
    included, positions past EOS masked out)."""
    if n_messages < 1:
        raise ValueError("encoder_perplexity: need n_messages >= 1")
    total_lp, total_tok, done = 0.0, 0.0, 0
    while done < n_messages:
        b = min(EVAL_CHUNK, n_messages - done)
        cids = rng.integers(0, world.n_concepts, size=b)
        feats = data.sample_instances(world, cids, rng)
        roll = agents.generate_batch(sender, feats, "sample", rng=rng)
        for t in range(roll.n_steps):
            lp = ag.pick_per_row(roll.step_logp_rows[t], roll.tokens[t])
            total_lp += float((lp.data.reshape(-1) * roll.emitted[t]).sum())
        total_tok += float(roll.emitted.sum())
        done += b
    return float(np.exp(-total_lp / total_tok))


def generated_lm_perplexity(sender, lm, world, n_messages, rng):
    """Perplexity of the sender's sampled messages under a reference
    language model (the grounding target p)."""
    total_nll, total_tok, done = 0.0, 0.0, 0
    while done < n_messages:
        b = min(EVAL_CHUNK, n_messages - done)
        cids = rng.integers(0, world.n_concepts, size=b)
        feats = data.sample_instances(world, cids, rng)
        roll = agents.generate_batch(sender, feats, "sample", rng=rng)
        seqs = message_tuples(roll)
        tokens, mask = agents.pad_sequences([list(s) for s in seqs], lm.vocab.eos)
        nll, count = agents.lm_nll_batch(lm, tokens, mask)
        total_nll += nll.item()
        total_tok += count
        done += b
    return float(np.exp(total_nll / total_tok))


def message_tuples(roll):
    """Trimmed per-instance token tuples of a rollout."""
    out = []
    for b in range(roll.batch_size):
        n = int(roll.lengths[b])
        out.append(tuple(int(t) for t in roll.tokens[:n, b]))
    return out


def target_probability(receiver, tokens, instance):
    """Softmax probability of the target image given a token sequence."""
    g = agents.receiver_read(receiver, list(tokens))
    cand = np.asarray(instance.candidates, dtype=np.float64)
    scores = ag.matmul(g, ag.tensor(cand.T.copy()))
    probs = game.image_probabilities(scores.data)[0]
    return float(probs[instance.target_index])


def omission_score(receiver, message, instance):
    """max over non-EOS positions i of p(target | m) - p(target | m
    without token i); deleting the only content token leaves a lone EOS."""
    return _omission_scores(receiver, [message], [instance.candidates],
                            [instance.target_index])[0]


def _omission_scores(receiver, messages, candidates, target_indices):
    """omission_score of each message against its (K+1, D) candidates.

    Every token sequence the scores need, each message and each of its
    one-token deletions, is read once and in sorted order, so a read
    starts from the states of the prefix it shares with the read before
    it: each distinct prefix costs one LSTM step, and only the states
    along the current sequence are held.
    """
    eos = receiver.vocab.eos
    jobs = []
    for message in messages:
        tokens = tuple(int(t) for t in message)
        content = [i for i, t in enumerate(tokens) if t != eos]
        if not content:
            raise ValueError("omission_score: message has no non-EOS token")
        jobs.append((tokens, [tokens[:i] + tokens[i + 1:] or (eos,)
                              for i in content]))

    path = [receiver.cell.zero_state(1)]
    g = {}
    prev = ()
    for seq in sorted({s for tokens, reduced in jobs for s in (tokens, *reduced)}):
        shared = 0
        while shared < min(len(prev), len(seq)) and prev[shared] == seq[shared]:
            shared += 1
        del path[shared + 1:]
        for tok in seq[shared:]:
            path.append(receiver.cell.step(receiver.embed.hard([tok]), *path[-1]))
        g[seq] = receiver.g_map(path[-1][0]).data
        prev = seq

    out = []
    for (tokens, reduced), cand, ti in zip(jobs, candidates, target_indices):
        cand_t = np.asarray(cand, dtype=np.float64).T.copy()
        p_full, *p_reduced = [float(game.image_probabilities(g[seq] @ cand_t)[0][ti])
                              for seq in (tokens, *reduced)]
        best = -np.inf
        for p in p_reduced:
            best = max(best, p_full - p)
        out.append(best)
    return out


def prefix_purity(messages_with_concepts, prefix_len, attribute_index):
    """Weighted modal attribute-value frequency over prefix groups.

    messages_with_concepts: iterable of (token sequence, attribute value
    tuple) pairs.  Groups messages by their first prefix_len tokens and
    averages each group's modal value share, weighted by group size.
    """
    if prefix_len < 1:
        raise ValueError("prefix_purity: prefix_len must be >= 1")
    pairs = list(messages_with_concepts)
    if not pairs:
        raise ValueError("prefix_purity: empty input")
    groups = {}
    for tokens, values in pairs:
        key = tuple(int(t) for t in list(tokens)[:prefix_len])
        groups.setdefault(key, []).append(int(values[attribute_index]))
    modal_mass = 0.0
    for members in groups.values():
        _, counts = np.unique(members, return_counts=True)
        modal_mass += int(counts.max())
    return modal_mass / float(len(pairs))


def paraphrase_stats(sender, world, samples_per_concept, rng):
    """Mean number of distinct sampled messages per concept."""
    if samples_per_concept < 2:
        raise ValueError("paraphrase_stats: need samples_per_concept >= 2")
    counts = []
    for cid in range(world.n_concepts):
        feats = data.sample_instances(world, [cid] * samples_per_concept, rng)
        roll = agents.generate_batch(sender, feats, "sample", rng=rng)
        counts.append(len(set(message_tuples(roll))))
    return float(np.mean(counts))


# ---------------------------------------------------------------------------
# full report


def evaluate(sender, receiver, world, k, seed, n_rounds=1000, n_messages=1000,
             n_omission=200, prefix_lens=(1, 2), lm=None):
    """Complete EvalReport on held-out instances (every metric draws fresh
    instance noise from its own named stream, so metric order is frozen)."""
    success = {}
    for j, mode in enumerate(EVAL_MODES):
        success[mode] = eval_success(sender, receiver, world, n_rounds, k,
                                     mode, smp.stream(seed, smp.DOMAIN_EVAL, j))
    ppl = encoder_perplexity(sender, world, n_messages,
                             smp.stream(seed, smp.DOMAIN_EVAL, 3))

    rng_m = smp.stream(seed, smp.DOMAIN_EVAL, 4)
    cids = rng_m.integers(0, world.n_concepts, size=n_messages)
    feats = data.sample_instances(world, cids, rng_m)
    roll = agents.generate_batch(sender, feats, "sample", rng=rng_m)
    msgs = message_tuples(roll)
    lengths = roll.lengths
    pairs = [(m, world.concept_tuple(int(c))) for m, c in zip(msgs, cids)]
    purity = {}
    for p in prefix_lens:
        for a in range(world.spec.n_attributes):
            purity[(p, a)] = prefix_purity(pairs, p, a)

    rng_o = smp.stream(seed, smp.DOMAIN_EVAL, 5)
    batch = game.make_batch(world, n_omission, k, rng_o)
    o_roll = agents.generate_batch(sender, batch.target_feats, "sample", rng=rng_o)
    o_msgs = message_tuples(o_roll)
    keep = [b for b, m in enumerate(o_msgs)
            if any(t != sender.vocab.eos for t in m)]
    scores = _omission_scores(receiver, [o_msgs[b] for b in keep],
                              batch.cand_feats[keep], batch.target_index[keep])
    mean_omission = float(np.mean(scores)) if scores else 0.0

    lm_ppl = None
    if lm is not None:
        lm_ppl = generated_lm_perplexity(sender, lm, world, n_messages,
                                         smp.stream(seed, smp.DOMAIN_EVAL, 6))

    report = EvalReport(
        success_rate=success,
        encoder_perplexity=ppl,
        mean_length=float(lengths.mean()),
        length_percentiles={50: float(np.percentile(lengths, 50)),
                            90: float(np.percentile(lengths, 90))},
        unique_messages=len(set(msgs)),
        mean_omission=mean_omission,
        prefix_purity=purity,
        n_rounds=n_rounds,
        lm_perplexity=lm_ppl)
    return report.validate()


def report_items(report):
    """Flat (key, value) pairs covering every report field."""
    items = [("n_rounds", report.n_rounds)]
    for mode in sorted(report.success_rate):
        items.append((f"success_{mode}", report.success_rate[mode]))
    items.append(("encoder_perplexity", report.encoder_perplexity))
    items.append(("mean_length", report.mean_length))
    for p in sorted(report.length_percentiles):
        items.append((f"length_p{p}", report.length_percentiles[p]))
    items.append(("unique_messages", report.unique_messages))
    items.append(("mean_omission", report.mean_omission))
    for (p, a) in sorted(report.prefix_purity):
        items.append((f"prefix_purity_p{p}_attr{a}", report.prefix_purity[(p, a)]))
    if report.lm_perplexity is not None:
        items.append(("lm_perplexity", report.lm_perplexity))
    return items


def save_report(report, kv_path, csv_path):
    """Write the key-value document and the one-row-per-metric CSV."""
    items = report_items(report)
    with open(kv_path, "w") as f:
        for key, value in items:
            f.write(f"{key} = {value!r}\n")
    with open(csv_path, "w") as f:
        f.write("metric,value\n")
        for key, value in items:
            f.write(f"{key},{value!r}\n")


def save_message_log(path, entries):
    """entries: iterable of (concept id, token sequence)."""
    with open(path, "w") as f:
        for cid, tokens in entries:
            f.write(f"{int(cid)},{' '.join(str(int(t)) for t in tokens)}\n")


def load_message_log(path):
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            cid, _, rest = line.partition(",")
            out.append((int(cid), tuple(int(t) for t in rest.split())))
    return out
