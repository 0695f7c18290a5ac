"""One benchmark workload, run as one process.

The process drives refgame the way a user does: `refgame train`,
`refgame ground-train` and `refgame eval` (through `refgame.cli.main`), then,
on each finished run, a measurement window of whole rounds of
`train.restore_run`, `train.interval_metrics`, `train.save_run` and
`refgame eval`.  Last come the output checks.  run.py starts this file with
BLAS pinned to one thread and reads the JSON it writes to --result.

    python3 perfbench/workload.py --workload desk-stgs --seed 1 --seconds 15 \
        --mode measure --dir RUN_DIR --result RESULT.json --t0 MONOTONIC
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Threshold and plateau stopping are off, so every run does its full budget.
COMMON = {"success_threshold": 2.0, "patience": 1_000_000}
WIDE = {"n_attributes": 4, "values_per_attribute": 4, "feature_dim": 64,
        "distractors": 63, "batch_size": 128, "embed_dim": 128,
        "hidden_dim": 256, "vocab_size": 100, "max_len": 10}
DESK_UPDATES = 1000
PATH_UPDATES = 500
WIDE_UPDATES = 100


def _ends_only(n):
    """Evaluate (and save) only at the first and the last update."""
    return {"max_updates": n, "eval_interval": n}


# workload -> [(run name, command, RunConfig fields)]
WORKLOADS = {
    "desk-stgs": [
        ("stgs", "train", {"estimator": "st-gs", "max_updates": DESK_UPDATES}),
    ],
    "desk-paths": [
        ("reinforce", "train", {"estimator": "reinforce", **_ends_only(PATH_UPDATES)}),
        ("gs", "train", {"estimator": "gs", **_ends_only(PATH_UPDATES)}),
        ("kl", "ground-train", {"estimator": "st-gs", "kl_weight": 0.1,
                                **_ends_only(PATH_UPDATES)}),
        ("direct", "ground-train", {"grounding": "direct", "caption_weight": 1.0,
                                    **_ends_only(PATH_UPDATES)}),
    ],
    "wide-stgs": [
        ("stgs", "train", {**WIDE, "estimator": "st-gs", "max_updates": WIDE_UPDATES}),
    ],
}
LEARNING_CHECKED = ("desk-stgs",)


class FinishedRun:
    def __init__(self, name, command, cfg):
        self.name = name
        self.cfg = cfg
        self.grounded = command == "ground-train"
        self.ckpt = os.path.join(cfg.out, "checkpoint.txt")
        self.fresh = os.path.join(cfg.out, "bench-save.txt")
        self.lm = None
        self.run = None
        self.intervals = []
        self.digest = None
        self.same_bytes = None


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Workload:
    """Runs one workload's commands, window and checks; keeps the counts."""

    def __init__(self, pkg, args):
        self.pkg = pkg
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.setup_s = 0.0
        self.train_s = 0.0
        self.updates = 0
        self.rounds = 0
        self.samples = {"interval_eval_ms": [], "ckpt_save_ms": [],
                        "ckpt_load_ms": [], "eval_s": []}
        self.finished = []
        # A command's set-up ends where train._loop makes its first held-out
        # evaluation, before update 0; this wrapper only timestamps that call.
        self._loop_start = None
        original = pkg.train.interval_metrics

        def interval_metrics(run):
            if self._loop_start is None:
                self._loop_start = time.monotonic()
            return original(run)

        pkg.train.interval_metrics = interval_metrics

    def op(self, name, ok, detail=""):
        self.attempted += 1
        self.failed += not ok
        if detail or not ok:
            print(f"perfbench: {name}: {'ok' if ok else 'FAILED'} {detail}",
                  file=sys.stderr)

    def cli(self, argv):
        """`refgame <argv>` in this process; returns the exit code."""
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return self.pkg.cli.main(argv)
            except Exception:  # a crashed command is a failed operation
                traceback.print_exc()
                return -1

    def train_commands(self):
        cfgmod = self.pkg.config
        for name, command, fields in WORKLOADS[self.args.workload]:
            out = os.path.join(self.args.dir, name)
            cfg = cfgmod.RunConfig(**COMMON, **fields, seed=self.args.seed,
                                   world_seed=self.args.seed, out=out).validate()
            cfg_path = os.path.join(self.args.dir, f"{name}.cfg")
            with open(cfg_path, "w") as f:
                f.write("\n".join(cfgmod.config_lines(cfg)) + "\n")
            self._loop_start = None
            start = time.monotonic()
            rc = self.cli([command, "--config", cfg_path])
            end = time.monotonic()
            ok = rc == 0 and self._loop_start is not None
            self.op(f"refgame {command} ({name})", ok)
            if not ok:
                continue
            self.setup_s += self._loop_start - start
            self.train_s += end - self._loop_start
            self.updates += cfg.max_updates
            self.finished.append(FinishedRun(name, command, cfg))

    def eval_command(self, fin):
        start = time.monotonic()
        rc = self.cli(["eval", "--out", fin.cfg.out])
        self.samples["eval_s"].append(time.monotonic() - start)
        self.op(f"refgame eval ({fin.name})", rc == 0)

    def window(self, once):
        """Whole rounds over every finished run until --seconds have passed
        (one round with `once`).

        The timed save writes a new file, deleted after each round.  Renaming
        over an existing checkpoint, as train._loop does, makes ext4 write the
        new data to the device before os.replace returns; that device time
        follows the disk's other load, not the program, and shows in
        train_updates_per_s instead."""
        train = self.pkg.train
        for fin in self.finished:
            fin.digest = _sha256(fin.ckpt)
            if fin.grounded:
                fin.lm = train.load_lm(fin.cfg, os.path.join(fin.cfg.out, "lm.txt"))[0]
            self.eval_command(fin)
        deadline = time.monotonic() + self.args.seconds
        while True:
            for fin in self.finished:
                t0 = time.monotonic()
                run = train.restore_run(fin.cfg, fin.ckpt)
                t1 = time.monotonic()
                run.lm = fin.lm
                fin.intervals.append(train.interval_metrics(run))
                t2 = time.monotonic()
                train.save_run(run, fin.fresh)
                t3 = time.monotonic()
                if fin.same_bytes is None:
                    fin.same_bytes = _sha256(fin.fresh) == fin.digest
                os.remove(fin.fresh)
                self.samples["ckpt_load_ms"].append((t1 - t0) * 1e3)
                self.samples["interval_eval_ms"].append((t2 - t1) * 1e3)
                self.samples["ckpt_save_ms"].append((t3 - t2) * 1e3)
                self.attempted += 3
                fin.run = run
                self.eval_command(fin)
            self.rounds += 1
            if once or time.monotonic() >= deadline:
                break

    def check(self):
        train = self.pkg.train
        for fin in self.finished:
            report = checks.read_report(fin.cfg.out)
            rows = checks.read_metrics(fin.cfg.out, train.CSV_HEADER)
            ok, detail = checks.gradient(self.pkg, fin.run, self.args.seed)
            self.op(f"gradient ({fin.name})", ok, detail)
            ok, detail, scores = checks.omission_oracle(self.pkg, fin.run, report)
            self.op(f"omission oracle ({fin.name})", ok, detail)
            ok, detail = checks.bounds(fin.cfg, report, rows, scores,
                                       fin.intervals, fin.grounded)
            self.op(f"bounds ({fin.name})", ok, detail)
            ok, detail = checks.roundtrip(self.pkg, fin.cfg, fin.run, fin.ckpt)
            self.op(f"checkpoint round trip ({fin.name})", ok and fin.same_bytes,
                    detail + ("" if fin.same_bytes else ", saved file differs"))
            if self.args.workload in LEARNING_CHECKED:
                ok, detail = checks.learning(fin.cfg, rows)
                self.op(f"learning ({fin.name})", ok, detail)

    def end_to_end(self, imported_at):
        med = {k: statistics.median(v) for k, v in self.samples.items() if v}
        sizes = [os.path.getsize(f.ckpt) for f in self.finished]
        return {
            "setup_s": (imported_at - self.args.t0) + self.setup_s,
            "train_updates_per_s": self.updates / self.train_s if self.train_s else 0.0,
            "interval_eval_ms": med.get("interval_eval_ms", 0.0),
            "ckpt_save_ms": med.get("ckpt_save_ms", 0.0),
            "ckpt_load_ms": med.get("ckpt_load_ms", 0.0),
            "eval_s": med.get("eval_s", 0.0),
            "ckpt_bytes": statistics.mean(sizes) if sizes else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def _filesystem(path):
    """(mount point, type) of the filesystem holding path."""
    path = os.path.realpath(path)
    best = ("?", "?")
    with open("/proc/mounts") as f:
        for line in f:
            parts = line.split()
            mnt = parts[1]
            if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) >= len(best[0]):
                best = (mnt, parts[2])
    return best


def environment(run_dir):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy before 1.26 only prints its config
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpus": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "run_dir_filesystem": "%s (%s)" % _filesystem(run_dir),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("measure", "once", "traced"), required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace-dir")
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() in the parent just before the spawn")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    import refgame.cli  # noqa: F401  (imports every module of the package)
    import refgame
    imported_at = time.monotonic()

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install(refgame)
    work = Workload(refgame, args)
    started = time.monotonic()
    work.train_commands()
    if len(work.finished) == len(WORKLOADS[args.workload]):
        work.window(once=args.mode != "measure")
    wall_s = time.monotonic() - started
    result = {"end_to_end": work.end_to_end(imported_at), "wall_s": wall_s,
              "rounds": work.rounds, "env": environment(args.dir)}
    if tracer is not None:
        table = tracing.SpanTable(tracer)
        layers = tracing.layer_metrics(table, os.path.join(SRC, "refgame"))
        tracer.write(args.trace_dir)
        tracing.write_table(layers, os.path.join(args.trace_dir, "layers.txt"))
        result["layers"] = layers
    elif len(work.finished) == len(WORKLOADS[args.workload]):
        work.check()
    result.update(attempted=work.attempted, failed=work.failed)
    with open(args.result, "w") as f:
        json.dump(result, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
