"""refgame benchmark: one named workload per call, one JSON result.

    python3 perfbench/run.py --workload desk-stgs --seed 1 --seconds 15 --trace 0

Run from the repository root.  The workload runs in a child process
(perfbench/workload.py) with BLAS pinned to one thread; run directories go
under .perfbench-runs/ in the current directory and are removed afterwards.
With --trace 0 the last line of standard output holds the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of a traced run, and the span
file and per-layer table are kept under .perfbench-runs/trace/.

Exit codes: 0 success, 1 a failed operation or check (the result is still
printed) or a crashed workload (nothing printed), 2 bad arguments or no
refgame sources under ./src.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("desk-stgs", "desk-paths", "wide-stgs")
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
TIME_LIMIT_S = 175.0
END_TO_END_UNITS = {"setup_s": "s", "train_updates_per_s": "1/s",
                    "interval_eval_ms": "ms", "ckpt_save_ms": "ms",
                    "ckpt_load_ms": "ms", "eval_s": "s", "ckpt_bytes": "bytes",
                    "peak_rss_mb": "MB"}


class WorkloadCrashed(RuntimeError):
    pass


def run_child(args, mode, out_root, deadline):
    """One workload process; returns its result dict."""
    run_dir = os.path.join(out_root, f"{args.workload}-seed{args.seed}-{mode}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    result_path = os.path.join(run_dir, "result.json")
    trace_dir = os.path.join(out_root, "trace", f"{args.workload}-seed{args.seed}")
    env = dict(os.environ, **THREADS)
    argv = [sys.executable, os.path.join(HERE, "workload.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--mode", mode, "--dir", run_dir,
            "--result", result_path, "--trace-dir", trace_dir]
    proc = subprocess.Popen(argv + ["--t0", repr(time.monotonic())],
                            stdout=sys.stderr, env=env)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkloadCrashed(f"{mode} run exceeded the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or not os.path.isfile(result_path):
        raise WorkloadCrashed(f"{mode} run exited with code {rc}")
    with open(result_path) as f:
        result = json.load(f)
    result["run_dir"] = run_dir
    return result


def same_outputs(plain, traced):
    """Tracing must not change a single byte of the run's reports."""
    names = sorted(os.listdir(plain["run_dir"]))
    for name in names:
        run = os.path.join(plain["run_dir"], name)
        if not os.path.isdir(run):
            continue
        for artifact in ("metrics.csv", "report.csv"):
            other = os.path.join(traced["run_dir"], name, artifact)
            if not (os.path.isfile(other) and filecmp.cmp(
                    os.path.join(run, artifact), other, shallow=False)):
                return False
    return True


def measure(args, out_root, deadline):
    """--trace 0: end-to-end metrics from one untraced run."""
    res = run_child(args, "measure", out_root, deadline)
    shutil.rmtree(res["run_dir"], ignore_errors=True)
    metrics = {name: {"value": res["end_to_end"][name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return res, res["attempted"], res["failed"], metrics


def traced(args, out_root, deadline):
    """--trace 1: the same work untraced and traced, one window round each;
    per-layer metrics from the traced run."""
    plain = run_child(args, "once", out_root, deadline)
    res = run_child(args, "traced", out_root, deadline)
    transparent = same_outputs(plain, res)
    if not transparent:
        print("perfbench: traced run changed metrics.csv or report.csv",
              file=sys.stderr)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in res["layers"].items()}
    metrics["bench.trace_overhead_pct"] = {
        "value": 100.0 * (res["wall_s"] / plain["wall_s"] - 1.0), "unit": "%"}
    attempted = plain["attempted"] + res["attempted"] + 1
    failed = plain["failed"] + res["failed"] + (not transparent)
    for r in (plain, res):
        shutil.rmtree(r["run_dir"], ignore_errors=True)
    return res, attempted, failed, metrics


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="refgame benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "refgame", "__init__.py")):
        print("perfbench: no refgame sources under ./src; run from the "
              "repository root", file=sys.stderr)
        return 2
    out_root = os.path.join(root, ".perfbench-runs")
    try:
        res, attempted, failed, metrics = (traced if args.trace else measure)(
            args, out_root, deadline)
    except WorkloadCrashed as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    print(f"perfbench: env {json.dumps(res['env'])}; rounds {res['rounds']}",
          file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
