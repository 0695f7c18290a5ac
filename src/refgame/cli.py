"""Command-line entry point.

Values resolve in three layers: built-in defaults, then the --config
file, then explicit flags.  A flag left at its default (None) never
overrides a file value.  Exit codes: 0 success; 1 runtime failure
(aborted run, failed gradient check, or a checkpoint whose arrays or
state are damaged, missing or of the wrong shape, reported as one
``refgame: checkpoint <path>: ...`` line); 2 invalid configuration,
including a missing checkpoint or an unreadable config echo.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import analysis
from . import config as cfgmod
from . import gradcheck
from . import train

# (flag, config field, type) for flags that map straight onto RunConfig
_OVERRIDES = [
    ("--seed", "seed", int),
    ("--out", "out", str),
    ("--estimator", "estimator", str),
    ("--decode", "decode", str),
    ("--kl-weight", "kl_weight", float),
    ("--caption-weight", "caption_weight", float),
    ("--max-len", "max_len", int),
    ("--distractors", "distractors", int),
    ("--temperature", "temperature", float),
    ("--tau0", "tau0", float),
    ("--features", "features", str),
    ("--captions", "captions", str),
    ("--grounding", "grounding", str),
    ("--max-updates", "max_updates", int),
    ("--eval-interval", "eval_interval", int),
    ("--batch-size", "batch_size", int),
    ("--lr", "lr", float),
]


def _add_config_flags(p, resume=False):
    p.add_argument("--config", metavar="PATH", help="key = value config file")
    for flag, field, kind in _OVERRIDES:
        kwargs = {"type": kind, "dest": field, "default": None}
        if field == "estimator":
            kwargs["choices"] = cfgmod.ESTIMATORS
        elif field == "decode":
            kwargs["choices"] = cfgmod.DECODE_MODES
        elif field == "grounding":
            kwargs["choices"] = cfgmod.GROUNDING_MODES
        p.add_argument(flag, **kwargs)
    p.add_argument("--learn-temperature", dest="learn_temperature",
                   action="store_true", default=None)
    if resume:
        p.add_argument("--resume", action="store_true",
                       help="continue from the checkpoint in --out")


def _flag_overrides(args):
    fields = [f for _, f, _ in _OVERRIDES] + ["learn_temperature"]
    return {f: getattr(args, f) for f in fields}


def _config_from(args):
    return cfgmod.load_config(args.config, _flag_overrides(args))


def _checkpoint_config_from(args):
    """For commands that read a finished run: the checkpoint's own config
    echo is the base layer, so architecture flags need not be repeated."""
    overrides = _flag_overrides(args)
    requested = cfgmod.load_config(args.config, overrides)
    cfg = dataclasses.replace(train.checkpoint_config(requested.out),
                              out=requested.out)
    if args.config:
        with open(args.config) as f:
            for key, value in cfgmod.parse_config_text(f.read()).items():
                setattr(cfg, key, value)
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg.validate()


def build_parser():
    parser = argparse.ArgumentParser(prog="refgame",
                                     description="referential-game training "
                                                 "and protocol analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, resume in [
            ("train", "train a sender/receiver pair", True),
            ("ground-train", "language-model pretraining plus grounded "
                             "game training", True),
            ("lm-train", "train only the reference language model", False),
            ("lr-sweep", "repeat training across the learning-rate grid",
             False),
            ("eval", "evaluate a saved checkpoint", False),
            ("analyze", "protocol analysis of a saved checkpoint", False)]:
        p = sub.add_parser(name, help=help_text)
        _add_config_flags(p, resume=resume)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of every op and layer")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)

    p = sub.add_parser("probe-pseudograd",
                       help="sign agreement between the estimator direction "
                            "and central differences")
    _add_config_flags(p)
    p.add_argument("--probes", type=int, default=20)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--relaxed-control", action="store_true",
                   help="probe the terminationless relaxed objective instead")
    return parser


def _print_summary(summary):
    for key in ("update", "stop", "success_sample", "success_greedy",
                "lm_train_perplexity", "out"):
        if key in summary and summary[key] is not None:
            print(f"{key} = {summary[key]}")


def _run_loop_command(fn, cfg, resume):
    summary = fn(cfg, resume=resume)
    if summary["failed"]:
        print(f"aborted at update {summary['update']}: {summary['error']}",
              file=sys.stderr)
        print(f"last good checkpoint kept in {summary['out']}",
              file=sys.stderr)
        return 1
    _print_summary(summary)
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)

    if args.command == "gradcheck":
        report, elapsed = gradcheck.main_check(seed=args.seed,
                                              trials=args.trials)
        print(gradcheck.format_report(report, elapsed))
        return 0 if all(ok for _, _, ok in report) else 1

    try:
        if args.command in ("eval", "analyze", "probe-pseudograd"):
            cfg = _checkpoint_config_from(args)
        else:
            cfg = _config_from(args)
    except (ValueError, OSError) as exc:
        print(f"refgame: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "train":
            return _run_loop_command(train.run_train, cfg, args.resume)
        if args.command == "ground-train":
            return _run_loop_command(train.run_ground_train, cfg, args.resume)
        if args.command == "lm-train":
            result = train.run_lm_train(cfg)
            print(f"lm_train_perplexity = {result['lm_train_perplexity']!r}")
            return 0
        if args.command == "lr-sweep":
            result = train.run_lr_sweep(cfg)
            for lr, row in result["rows"]:
                status = "failed" if row["failed"] else row["stop"]
                print(f"lr {lr:g}: {status} at update {row['update']}")
            print(f"summary in {result['out']}/sweep.csv")
            return 0
        if args.command == "eval":
            report = train.run_eval(cfg)
            for key, value in analysis.report_items(report):
                print(f"{key} = {value!r}")
            return 0
        if args.command == "analyze":
            result = train.run_analyze(cfg)
            for key, value in analysis.report_items(result["report"]):
                print(f"{key} = {value!r}")
            print(f"paraphrases_per_concept = "
                  f"{result['paraphrases_per_concept']!r}")
            return 0
        if args.command == "probe-pseudograd":
            fraction, dots = train.run_probe(
                cfg, args.probes, args.eps,
                relaxed_control=args.relaxed_control)
            print(f"probes = {len(dots)}")
            print(f"acute_fraction = {fraction!r}")
            return 0
    except (ValueError, OSError) as exc:
        print(f"refgame: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
