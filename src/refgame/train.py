"""Training loops and run artifacts.

One loop serves every estimator: batches and Gumbel noise come from
streams keyed by the update counter, evaluation always reads the same
named held-out streams, and metric floats are written with repr, so a
config plus seed pins every byte of metrics.csv.  All artifacts stay
inside the configured output directory.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from . import agents
from . import analysis
from . import checkpoint as ckpt
from . import config as cfgmod
from . import data
from . import estimators as est
from . import game
from . import grounding
from . import nn
from . import sampling as smp

CSV_HEADER = ("update,loss,success_sample,success_greedy,perplexity,"
              "mean_length,signal_variance,lm_perplexity")
LR_SWEEP_GRID = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
N_LOGGED_MESSAGES = 512

# architecture-defining fields that a resumed config may not change
ARCH_FIELDS = ("n_attributes", "values_per_attribute", "feature_dim",
               "instance_noise", "world_seed", "vocab_size", "max_len",
               "distractors", "batch_size", "embed_dim", "hidden_dim",
               "estimator", "temperature", "learn_temperature", "tau0",
               "lr", "seed", "features", "captions")


def build_world(cfg):
    """Synthetic compositional world, or a file-backed world where each
    feature record is its own single-attribute concept."""
    if cfg.features:
        records = data.load_features(cfg.features)
        vecs = np.stack([vec for _, vec in records])
        spec = data.WorldSpec(n_attributes=1, values_per_attribute=len(records),
                              feature_dim=vecs.shape[1],
                              instance_noise=cfg.instance_noise,
                              seed=cfg.world_seed)
        spec.validate()
        return data.World(spec=spec, value_vecs=vecs[np.newaxis].copy(),
                          base=vecs)
    spec = data.WorldSpec(n_attributes=cfg.n_attributes,
                          values_per_attribute=cfg.values_per_attribute,
                          feature_dim=cfg.feature_dim,
                          instance_noise=cfg.instance_noise,
                          seed=cfg.world_seed)
    return data.build_world(spec)


def caption_table(cfg, world, vocab):
    """concept id -> caption tokens, from the captions file when given,
    otherwise the synthetic captions in the protocol vocabulary."""
    if cfg.captions:
        table = {}
        for rec in data.load_captions(cfg.captions):
            if not 0 <= rec.concept_id < world.n_concepts:
                raise ValueError(f"caption concept id {rec.concept_id} outside "
                                 f"world (0..{world.n_concepts - 1})")
            if any(not 0 <= t <= vocab.eos for t in rec.caption):
                raise ValueError(f"caption for concept {rec.concept_id} uses "
                                 f"tokens outside the vocabulary")
            table[rec.concept_id] = list(rec.caption)
        return table
    if vocab.size < world.caption_words:
        raise ValueError(f"vocabulary size {vocab.size} cannot hold "
                         f"{world.caption_words} caption words")
    return {c: data.caption_for(world, c, eos_id=vocab.eos).caption
            for c in range(world.n_concepts)}


@dataclass
class Run:
    cfg: cfgmod.RunConfig
    world: data.World
    vocab: agents.Vocabulary
    sender: agents.Sender
    receiver: agents.Receiver
    opt_s: nn.Adam
    opt_r: nn.Adam
    rf: est.ReinforceState | None
    lm: agents.LanguageModel | None = None
    update: int = 0
    best_success: float = -1.0
    best_update: int = 0


def init_run(cfg):
    world = build_world(cfg)
    vocab = agents.Vocabulary(cfg.vocab_size, cfg.max_len)
    rng = smp.stream(cfg.seed, smp.DOMAIN_INIT)
    d = world.spec.feature_dim
    sender = agents.Sender.create(rng, vocab, d, cfg.embed_dim, cfg.hidden_dim,
                                  tau=cfg.temperature,
                                  learn_temperature=cfg.learn_temperature,
                                  tau0=cfg.tau0)
    receiver = agents.Receiver.create(rng, vocab, d, cfg.embed_dim,
                                      cfg.hidden_dim)
    rf = None
    if cfg.estimator == "reinforce":
        rf = est.ReinforceState.with_input_baseline(
            smp.stream(cfg.seed, smp.DOMAIN_INIT, 1), d, mlp_lr=cfg.lr)
    return Run(cfg=cfg, world=world, vocab=vocab, sender=sender,
               receiver=receiver, opt_s=nn.Adam(lr=cfg.lr),
               opt_r=nn.Adam(lr=cfg.lr), rf=rf)


# ---------------------------------------------------------------------------
# checkpoint plumbing


def _named_model_params(run):
    out = list(run.sender.named_params()) + list(run.receiver.named_params())
    if run.rf is not None:
        out += [(name, t) for name, t in run.rf.mlp_params]
    return out


def run_scalars(run):
    scalars = {"update": run.update, "best_success": float(run.best_success),
               "best_update": run.best_update,
               "adam_s.t": run.opt_s.t, "adam_r.t": run.opt_r.t}
    if run.rf is not None:
        scalars.update({"reinforce.m1": float(run.rf.m1),
                        "reinforce.m2": float(run.rf.m2),
                        "reinforce.t": run.rf.t,
                        "adam_b.t": run.rf.mlp_opt.t})
    return scalars


def run_arrays(run):
    arrays = {}
    for name, t in _named_model_params(run):
        arrays[f"param/{name}"] = t.data
    opts = [("adam_s", run.opt_s), ("adam_r", run.opt_r)]
    if run.rf is not None:
        opts.append(("adam_b", run.rf.mlp_opt))
    for tag, opt in opts:
        for name, arr in opt.m.items():
            arrays[f"{tag}.m/{name}"] = arr
        for name, arr in opt.v.items():
            arrays[f"{tag}.v/{name}"] = arr
    return arrays


def save_run(run, path):
    ckpt.save_checkpoint(path, run.cfg, run_scalars(run), run_arrays(run))


def _checked_array(path, arrays, key, shape):
    """A copy of one checkpoint array, which must exist with this shape."""
    arr = arrays.get(key)
    if arr is None:
        raise ValueError(f"checkpoint {path}: missing array {key}")
    if arr.shape != shape:
        raise ValueError(f"checkpoint {path}: array {key} has shape "
                         f"{arr.shape}, expected {shape}")
    return arr.copy()


def _checked_scalar(path, scalars, key):
    if key not in scalars:
        raise ValueError(f"checkpoint {path}: missing state value {key}")
    return scalars[key]


def restore_run(cfg, path):
    """Rebuild a Run from a checkpoint; schedule fields follow cfg, but
    architecture fields must match the checkpoint's config echo.  Every
    parameter needs its array, and an optimizer that has stepped needs
    both moments of every parameter it updates."""
    saved_cfg, scalars, arrays = ckpt.load_checkpoint(path)
    for name in ARCH_FIELDS:
        if getattr(saved_cfg, name) != getattr(cfg, name):
            raise ValueError(f"resume: config field {name} changed "
                             f"({getattr(saved_cfg, name)!r} -> "
                             f"{getattr(cfg, name)!r})")
    run = init_run(cfg)
    for name, t in _named_model_params(run):
        t.data = _checked_array(path, arrays, f"param/{name}", t.data.shape)
    opts = [("adam_s", run.opt_s, run.sender.named_params()),
            ("adam_r", run.opt_r, run.receiver.named_params())]
    if run.rf is not None:
        opts.append(("adam_b", run.rf.mlp_opt, list(run.rf.mlp_params)))
    for tag, opt, named in opts:
        opt.t = int(_checked_scalar(path, scalars, f"{tag}.t"))
        if opt.t > 0:
            for name, t in named:
                opt.m[name] = _checked_array(path, arrays, f"{tag}.m/{name}",
                                             t.data.shape)
                opt.v[name] = _checked_array(path, arrays, f"{tag}.v/{name}",
                                             t.data.shape)
    run.update = int(_checked_scalar(path, scalars, "update"))
    run.best_success = float(_checked_scalar(path, scalars, "best_success"))
    run.best_update = int(_checked_scalar(path, scalars, "best_update"))
    if run.rf is not None:
        run.rf.m1 = float(_checked_scalar(path, scalars, "reinforce.m1"))
        run.rf.m2 = float(_checked_scalar(path, scalars, "reinforce.m2"))
        run.rf.t = int(_checked_scalar(path, scalars, "reinforce.t"))
    return run


def save_lm(lm, cfg, path, train_perplexity):
    arrays = {f"param/{name}": t.data for name, t in lm.named_params()}
    ckpt.save_checkpoint(path, cfg,
                         {"lm_train_perplexity": float(train_perplexity)},
                         arrays)


def load_lm(cfg, path):
    _, scalars, arrays = ckpt.load_checkpoint(path)
    vocab = agents.Vocabulary(cfg.vocab_size, cfg.max_len)
    lm = agents.LanguageModel.create(smp.stream(cfg.seed, smp.DOMAIN_LM, 0),
                                     vocab, cfg.embed_dim, cfg.hidden_dim)
    for name, t in lm.named_params():
        t.data = _checked_array(path, arrays, f"param/{name}", t.data.shape)
    lm.freeze()
    return lm, float(_checked_scalar(path, scalars, "lm_train_perplexity"))


# ---------------------------------------------------------------------------
# the training loop


def interval_metrics(run):
    """Held-out evaluation on fixed named streams (same data each call)."""
    cfg, n = run.cfg, run.cfg.eval_rounds
    args = (run.sender, run.receiver, run.world, n, cfg.distractors)
    succ_s = analysis.eval_success(*args, "sample",
                                  smp.stream(cfg.seed, smp.DOMAIN_EVAL, 0))
    succ_g = analysis.eval_success(*args, "greedy",
                                  smp.stream(cfg.seed, smp.DOMAIN_EVAL, 1))
    ppl = analysis.encoder_perplexity(run.sender, run.world, n,
                                      smp.stream(cfg.seed, smp.DOMAIN_EVAL, 3))
    rng = smp.stream(cfg.seed, smp.DOMAIN_EVAL, 4)
    cids = rng.integers(0, run.world.n_concepts, size=n)
    feats = data.sample_instances(run.world, cids, rng)
    roll = agents.generate_batch(run.sender, feats, "sample", rng=rng)
    out = {"success_sample": succ_s, "success_greedy": succ_g,
           "perplexity": ppl, "mean_length": float(roll.lengths.mean())}
    if run.lm is not None:
        out["lm_perplexity"] = analysis.generated_lm_perplexity(
            run.sender, run.lm, run.world, n,
            smp.stream(cfg.seed, smp.DOMAIN_EVAL, 6))
    return out


def _csv_row(update, losses, metrics, run):
    loss = repr(float(np.mean(losses))) if losses else ""
    var = repr(run.rf.variance()) if run.rf is not None else ""
    lm_ppl = (repr(metrics["lm_perplexity"])
              if "lm_perplexity" in metrics else "")
    return (f"{update},{loss},{metrics['success_sample']!r},"
            f"{metrics['success_greedy']!r},{metrics['perplexity']!r},"
            f"{metrics['mean_length']!r},{var},{lm_ppl}")


def _train_step(run, t):
    cfg = run.cfg
    batch = game.make_batch(run.world, cfg.batch_size, cfg.distractors,
                            smp.stream(cfg.seed, smp.DOMAIN_BATCH, t))
    noise = smp.gumbel_noise(smp.stream(cfg.seed, smp.DOMAIN_GUMBEL, t),
                             (cfg.max_len, cfg.batch_size,
                              run.vocab.n_outcomes))
    if cfg.estimator == "reinforce":
        sg, rg, metrics = est.reinforce_step(run.rf, run.sender, run.receiver,
                                             batch, noise=noise)
        run.opt_s.step(run.sender.param_set(), sg,
                       lr=cfg.lr * metrics["lr_scale"])
    elif run.lm is not None and cfg.kl_weight > 0:
        mode = "relaxed" if cfg.estimator == "gs" else "straight_through"
        sg, rg, metrics = grounding.grounded_step(run.sender, run.receiver,
                                                  run.lm, batch,
                                                  beta=cfg.kl_weight,
                                                  mode=mode, noise=noise)
        run.opt_s.step(run.sender.param_set(), sg)
    else:
        sg, rg, metrics = est.stgs_step(run.sender, run.receiver, batch,
                                        noise=noise,
                                        relaxed=cfg.estimator == "gs")
        run.opt_s.step(run.sender.param_set(), sg)
    run.opt_r.step(run.receiver.param_set(), rg)
    return metrics


def _direct_step(run, t, lam, cap_ids, game_ids, table):
    cfg = run.cfg
    cap_batch = grounding.make_caption_batch(
        run.world, cfg.batch_size,
        smp.stream(cfg.seed, smp.DOMAIN_CAPTION, t), run.vocab,
        concepts=cap_ids, table=table)
    game_batch = game.make_batch(run.world, cfg.batch_size, cfg.distractors,
                                 smp.stream(cfg.seed, smp.DOMAIN_BATCH, t),
                                 concepts=game_ids)
    noise = smp.gumbel_noise(smp.stream(cfg.seed, smp.DOMAIN_GUMBEL, t),
                             (cfg.max_len, cfg.batch_size,
                              run.vocab.n_outcomes))
    sg, rg, metrics = grounding.direct_grounding_step(
        run.sender, run.receiver, cap_batch, game_batch, lam, noise=noise)
    run.opt_s.step(run.sender.param_set(), sg)
    run.opt_r.step(run.receiver.param_set(), rg)
    return metrics


def _truncate_rows_after(path, update):
    """Cut metrics.csv back to its header and the complete rows at or
    before update.  _loop writes a row before it saves the checkpoint, so
    a run stopped between the two leaves a row the checkpoint does not
    cover, and the resumed run would write that row again."""
    if not os.path.isfile(path):
        return
    with open(path, "rb+") as f:
        lines = f.readlines()
        keep = len(lines[0]) if lines else 0
        for line in lines[1:]:
            if not line.endswith(b"\n") or int(line.split(b",", 1)[0]) > update:
                break
            keep += len(line)
        f.truncate(keep)


def _loop(run, step_fn, resume):
    """Shared eval / step / early-stop loop.  Returns a summary dict; on a
    non-finite loss the last-good checkpoint is left in place and the
    summary reports failure."""
    cfg = run.cfg
    outdir = cfg.out
    os.makedirs(outdir, exist_ok=True)
    cfgmod.save_config(cfg, os.path.join(outdir, "config.txt"))
    csv_path = os.path.join(outdir, "metrics.csv")
    ckpt_path = os.path.join(outdir, "checkpoint.txt")
    if resume:
        _truncate_rows_after(csv_path, run.update)
    csv = open(csv_path, "a" if resume else "w")
    if not resume:
        csv.write(CSV_HEADER + "\n")
    t = run.update
    skip_eval_at = t if resume else -1
    last_row_at = t if resume else -1
    losses = []
    stop = None
    metrics = None
    try:
        while True:
            if t % cfg.eval_interval == 0 and t != skip_eval_at:
                metrics = interval_metrics(run)
                csv.write(_csv_row(t, losses, metrics, run) + "\n")
                csv.flush()
                losses = []
                last_row_at = t
                save_run(run, ckpt_path)
                gate = metrics["success_sample"]
                if gate >= cfg.success_threshold:
                    stop = "threshold"
                    break
                if gate > run.best_success:
                    run.best_success = gate
                    run.best_update = t
                elif (t - run.best_update) >= cfg.patience * cfg.eval_interval:
                    stop = "plateau"
                    break
            if t >= cfg.max_updates:
                stop = "budget"
                break
            losses.append(step_fn(run, t)["loss"])
            t += 1
            run.update = t
        if last_row_at != t:
            metrics = interval_metrics(run)
            csv.write(_csv_row(t, losses, metrics, run) + "\n")
            save_run(run, ckpt_path)
        if metrics is None:
            metrics = interval_metrics(run)
    except FloatingPointError as exc:
        csv.close()
        return {"failed": True, "error": str(exc), "update": t,
                "out": outdir, "stop": "nan"}
    finally:
        if not csv.closed:
            csv.close()
    _final_artifacts(run)
    return {"failed": False, "update": t, "stop": stop, "out": outdir,
            "success_sample": metrics["success_sample"],
            "success_greedy": metrics["success_greedy"]}


def _write_message_log(run):
    cfg = run.cfg
    rng = smp.stream(cfg.seed, smp.DOMAIN_EVAL, 7)
    cids = rng.integers(0, run.world.n_concepts, size=N_LOGGED_MESSAGES)
    feats = data.sample_instances(run.world, cids, rng)
    roll = agents.generate_batch(run.sender, feats, "sample", rng=rng)
    analysis.save_message_log(os.path.join(cfg.out, "messages.log"),
                              zip(cids, analysis.message_tuples(roll)))


def _final_artifacts(run):
    _write_message_log(run)
    _evaluate_run(run)


def run_train(cfg, resume=False):
    """Plain (ungrounded) training with the configured estimator."""
    ckpt_path = os.path.join(cfg.out, "checkpoint.txt")
    if resume:
        run = restore_run(cfg, ckpt_path)
    else:
        run = init_run(cfg)
    return _loop(run, _train_step, resume)


def train_lm_for(cfg, world, vocab):
    """Phase one of grounding: train and freeze the reference model on the
    lm split's captions."""
    table = caption_table(cfg, world, vocab)
    lm_ids, _ = data.split_concepts(world, cfg.lm_fraction, cfg.seed, 0)
    missing = [c for c in lm_ids if c not in table]
    if missing:
        raise ValueError(f"no caption for concepts {missing[:5]} "
                         f"(lm split needs all of its captions)")
    corpus = [table[c] for c in lm_ids]
    lm = agents.LanguageModel.create(smp.stream(cfg.seed, smp.DOMAIN_LM, 0),
                                     vocab, cfg.embed_dim, cfg.hidden_dim)
    ppl = agents.lm_train(lm, corpus, cfg.lm_epochs,
                          smp.stream(cfg.seed, smp.DOMAIN_LM, 1), lr=cfg.lr)
    lm.freeze()
    return lm, ppl


def run_lm_train(cfg):
    """Train the reference language model alone and save it."""
    os.makedirs(cfg.out, exist_ok=True)
    world = build_world(cfg)
    vocab = agents.Vocabulary(cfg.vocab_size, cfg.max_len)
    lm, ppl = train_lm_for(cfg, world, vocab)
    save_lm(lm, cfg, os.path.join(cfg.out, "lm.txt"), ppl)
    return {"lm_train_perplexity": ppl, "out": cfg.out}


def run_ground_train(cfg, resume=False):
    """Grounded training: lm pretraining, then the KL-regularized game
    (indirect) or captioning co-training (direct)."""
    if cfg.grounding == "indirect" and cfg.estimator == "reinforce":
        raise ValueError("indirect grounding needs estimator gs or st-gs")
    if cfg.grounding == "direct" and cfg.estimator != "st-gs":
        raise ValueError(f"direct grounding trains the game with st-gs, "
                         f"got estimator {cfg.estimator!r}")
    os.makedirs(cfg.out, exist_ok=True)
    ckpt_path = os.path.join(cfg.out, "checkpoint.txt")
    run = restore_run(cfg, ckpt_path) if resume else init_run(cfg)
    lm, lm_ppl = train_lm_for(cfg, run.world, run.vocab)
    save_lm(lm, cfg, os.path.join(cfg.out, "lm.txt"), lm_ppl)
    run.lm = lm
    if cfg.grounding == "direct":
        cap_ids, game_ids = data.split_concepts(run.world,
                                                cfg.caption_fraction,
                                                cfg.seed, 1)
        lam = cfg.caption_weight
        table = caption_table(cfg, run.world, run.vocab) if cfg.captions else None

        def step(run_, t):
            return _direct_step(run_, t, lam, cap_ids, game_ids, table)

        summary = _loop(run, step, resume)
    else:
        summary = _loop(run, _train_step, resume)
    summary["lm_train_perplexity"] = lm_ppl
    return summary


def run_lr_sweep(cfg):
    """Learning-rate grid for the configured estimator: one sub-run per
    grid point plus a summary CSV."""
    os.makedirs(cfg.out, exist_ok=True)
    rows = []
    for lr in LR_SWEEP_GRID:
        sub = dataclasses.replace(cfg, lr=lr,
                                  out=os.path.join(cfg.out, f"lr_{lr:g}"))
        sub.validate()
        result = run_train(sub)
        rows.append((lr, result))
    path = os.path.join(cfg.out, "sweep.csv")
    with open(path, "w") as f:
        f.write("lr,updates,stop,success_sample,failed\n")
        for lr, result in rows:
            succ = "" if result["failed"] else repr(result["success_sample"])
            f.write(f"{lr:g},{result['update']},{result.get('stop', '')},"
                    f"{succ},{int(result['failed'])}\n")
    return {"out": cfg.out, "rows": rows}


# ---------------------------------------------------------------------------
# probes and offline evaluation


def checkpoint_config(out):
    """The config echoed into a run directory's checkpoint."""
    path = os.path.join(out, "checkpoint.txt")
    if not os.path.isfile(path):
        raise FileNotFoundError(f"no checkpoint at {path}")
    return ckpt.load_checkpoint_config(path)


def load_run(cfg):
    ckpt_path = os.path.join(cfg.out, "checkpoint.txt")
    run = restore_run(cfg, ckpt_path)
    lm_path = os.path.join(cfg.out, "lm.txt")
    if os.path.isfile(lm_path):
        run.lm = load_lm(cfg, lm_path)[0]
    return run


def _evaluate_run(run):
    cfg = run.cfg
    report = analysis.evaluate(run.sender, run.receiver, run.world,
                               cfg.distractors, cfg.seed,
                               n_rounds=cfg.eval_rounds,
                               n_messages=cfg.eval_rounds,
                               n_omission=min(cfg.eval_rounds, 200),
                               lm=run.lm)
    analysis.save_report(report, os.path.join(cfg.out, "report.txt"),
                         os.path.join(cfg.out, "report.csv"))
    return report


def run_eval(cfg):
    return _evaluate_run(load_run(cfg))


def run_analyze(cfg):
    """Protocol analysis artifacts: message log, report, paraphrase count."""
    run = load_run(cfg)
    report = _evaluate_run(run)
    _write_message_log(run)
    paraphrases = analysis.paraphrase_stats(
        run.sender, run.world, 8, smp.stream(cfg.seed, smp.DOMAIN_EVAL, 8))
    with open(os.path.join(cfg.out, "analysis.txt"), "w") as f:
        for key, value in analysis.report_items(report):
            f.write(f"{key} = {value!r}\n")
        f.write(f"paraphrases_per_concept = {paraphrases!r}\n")
    return {"report": report, "paraphrases_per_concept": paraphrases}


def run_probe(cfg, n_probes, eps, relaxed_control=False):
    """Pseudogradient probe on the saved checkpoint; writes one CSV row
    per probe and returns the acute-angle fraction."""
    run = load_run(cfg)
    fraction, dots = est.acute_angle_fraction(
        run.sender, run.receiver, run.world, cfg.distractors, cfg.batch_size,
        n_probes, eps, cfg.seed, relaxed_control=relaxed_control)
    name = "probes_relaxed.csv" if relaxed_control else "probes.csv"
    with open(os.path.join(cfg.out, name), "w") as f:
        f.write("update,dot,sign\n")
        for d in dots:
            f.write(f"{run.update},{d!r},{1 if d > 0 else -1}\n")
    return fraction, dots
