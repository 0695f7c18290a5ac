"""Span tracer that wraps refgame's public functions from outside the package.

Nothing under ``src/`` is edited: the tracer replaces module attributes and
class methods with timing wrappers after import.  The package reaches its own
functions through module attributes (``ag.affine``, ``game.make_batch``) and
module globals, so a replaced attribute is what every caller sees.

Every span records its name, start, end, parent span and the training update
and evaluation report it ran inside.  Spans live in flat arrays in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import os
import time

import numpy as np

# modules timed as layers, in dependency order; config, cli and gradcheck are
# counted for source lines only
LAYERS = ("autograd", "nn", "sampling", "data", "game", "agents",
          "estimators", "grounding", "analysis", "train", "checkpoint")
UNTIMED = ("config", "cli", "gradcheck")

# autograd ops that appear on a training tape; each gets calls, forward and
# backward time per update
TAPE_OPS = ("affine", "matmul", "add", "sub", "mul", "scale", "add_const",
            "sigmoid", "tanh", "relu", "slice_cols", "slice_rows", "rows",
            "pick_per_row", "mul_rows", "repeat_cols", "sum_rows",
            "mean_all", "concat_cols", "log_softmax_rows", "softmax_rows",
            "straight_through")

# the two per-update step functions of train._loop; they are private, but
# they are the only boundary that delimits one update
UPDATE_FUNCS = ("_train_step", "_direct_step")


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.name_ids = {}
        self.names = []
        self.nid = array.array("i")
        self.parent = array.array("i")
        self.upd = array.array("i")
        self.rep = array.array("i")
        self.t0 = array.array("d")
        self.t1 = array.array("d")
        self.stack = []
        self.update = -1
        self.report = -1
        self.n_updates = 0
        self.n_reports = 0
        self.tape_nodes = array.array("i")

    def _id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn):
        """Timing wrapper: one span per call of fn."""
        return functools.wraps(fn)(self._timed(self._id(name), fn))

    def _timed(self, nid, fn):
        clock = time.perf_counter
        tr = self

        def traced(*args, **kwargs):
            i = len(tr.nid)
            tr.nid.append(nid)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.upd.append(tr.update)
            tr.rep.append(tr.report)
            tr.t1.append(0.0)
            tr.stack.append(i)
            tr.t0.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tr.t1[i] = clock()
                tr.stack.pop()

        return traced

    def _group(self, name, fn, attr, count_attr):
        """Wrapper that opens a span and marks everything inside it as
        belonging to one update (or one report)."""
        inner = self.wrap(name, fn)
        tr = self

        def grouped(*args, **kwargs):
            outer = getattr(tr, attr)
            setattr(tr, attr, getattr(tr, count_attr))
            setattr(tr, count_attr, getattr(tr, count_attr) + 1)
            if attr == "update":
                tr.tape_nodes.append(0)
            try:
                return inner(*args, **kwargs)
            finally:
                setattr(tr, attr, outer)

        return functools.wraps(fn)(grouped)

    def install(self, pkg):
        """Wrap the public functions and methods of every layer module."""
        ag = pkg.autograd
        ops = {f.__name__ for f in ag.OPS.values()} | {"straight_through"}
        grouped = {(pkg.analysis, "evaluate")}
        grouped.update((pkg.train, attr) for attr in UPDATE_FUNCS)
        for mod_name in LAYERS:
            mod = getattr(pkg, mod_name)
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or (mod, attr) in grouped
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isfunction(obj):
                    if mod is ag and attr not in ops:
                        continue  # tensor(), tape(), active_tape(): glue, not ops
                    setattr(mod, attr, self.wrap(f"{mod_name}.{attr}", obj))
                elif inspect.isclass(obj) and mod is not ag:
                    self._install_class(mod_name, obj)
        ag.Tape.backward = self.wrap("autograd.Tape.backward", ag.Tape.backward)
        ag.Tensor.accumulate = self.wrap("autograd.Tensor.accumulate",
                                         ag.Tensor.accumulate)
        ag.Tape.record = self._record_wrapper(ag.Tape.record)
        for attr in UPDATE_FUNCS:
            setattr(pkg.train, attr, self._group(
                "train.update", getattr(pkg.train, attr), "update", "n_updates"))
        pkg.analysis.evaluate = self._group(
            "analysis.evaluate", pkg.analysis.evaluate, "report", "n_reports")

    def _install_class(self, mod_name, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{mod_name}.{cls.__name__}.{attr}"
            if isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, member.__func__)))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(name, member))

    def _record_wrapper(self, record):
        """Tape.record: count the node and time its backward closure under
        the name of the op that recorded it."""
        tr = self
        bwd_ids = {}

        def traced_record(tape, out, backward_fn):
            op = tr.nid[tr.stack[-1]] if tr.stack else tr._id("autograd.unknown")
            bwd = bwd_ids.get(op)
            if bwd is None:
                bwd = bwd_ids[op] = tr._id(f"{tr.names[op]}.bwd")
            if tr.update >= 0:
                tr.tape_nodes[tr.update] += 1
            return record(tape, out, tr._timed(bwd, backward_fn))

        return traced_record

    # ------------------------------------------------------------------
    # output

    def arrays(self):
        return {
            "name": np.frombuffer(self.nid, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "update": np.frombuffer(self.upd, dtype=np.int32).copy(),
            "report": np.frombuffer(self.rep, dtype=np.int32).copy(),
            "start": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "end": np.frombuffer(self.t1, dtype=np.float64).copy(),
        }

    def write(self, directory):
        """Span file (spans.npz plus the name table) for offline analysis."""
        os.makedirs(directory, exist_ok=True)
        np.savez(os.path.join(directory, "spans.npz"), **self.arrays(),
                 tape_nodes=np.frombuffer(self.tape_nodes, dtype=np.int32))
        with open(os.path.join(directory, "span_names.json"), "w") as f:
            json.dump(self.names, f, indent=0)


class SpanTable:
    """Vectorised queries over a finished tracer's spans."""

    def __init__(self, tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.upd = a["update"]
        self.rep = a["report"]
        self.dur_ms = (a["end"] - a["start"]) * 1e3
        self.n_updates = tracer.n_updates
        self.n_reports = tracer.n_reports
        self.tape_nodes = np.frombuffer(tracer.tape_nodes, dtype=np.int32)

    def select(self, name):
        nid = self.names.index(name) if name in self.names else -1
        return self.name == nid

    def _under(self, parent):
        """Mask of the spans whose parent span is named `parent`."""
        has_parent = self.parent >= 0
        mask = np.zeros(self.name.shape, dtype=bool)
        mask[has_parent] = self.select(parent)[self.parent[has_parent]]
        return mask

    def _group(self, by):
        return (self.upd, self.n_updates) if by == "update" else (self.rep, self.n_reports)

    def _totals(self, sel, by):
        group, n = self._group(by)
        sel = sel & (group >= 0)
        totals = np.bincount(group[sel], weights=self.dur_ms[sel], minlength=n)
        return totals, np.bincount(group[sel], minlength=n)

    def median_total_ms(self, name, by="update"):
        """Median, over the updates (or reports) that call `name`, of its
        total time in each."""
        totals, counts = self._totals(self.select(name), by)
        return float(np.median(totals[counts > 0])) if counts.any() else 0.0

    def mean_calls(self, name, by="update"):
        """Calls of `name` per update (or report), over all of them."""
        group, n = self._group(by)
        return float((self.select(name) & (group >= 0)).sum()) / n if n else 0.0

    def per_call_ms(self, name, parent=None):
        sel = self.select(name)
        if parent is not None:
            sel &= self._under(parent)
        return float(np.median(self.dur_ms[sel])) if sel.any() else 0.0

    def total_ms(self, name):
        return float(self.dur_ms[self.select(name)].sum())

    def update_totals_ms(self):
        """Per update: summed time of the public calls the update makes
        (the direct children of its update span)."""
        return self._totals(self._under("train.update"), "update")[0]


def layer_metrics(table, src_dir):
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    m = {}
    tn = table.tape_nodes
    m["autograd.tape_nodes_per_update"] = (float(tn.mean()) if tn.size else 0.0, "count")
    m["autograd.accumulate_calls_per_update"] = (
        table.mean_calls("autograd.Tensor.accumulate"), "count")
    m["autograd.backward_ms"] = (table.median_total_ms("autograd.Tape.backward"), "ms")
    for op in TAPE_OPS:
        m[f"autograd.{op}.calls_per_update"] = (
            table.mean_calls(f"autograd.{op}"), "count")
        m[f"autograd.{op}.fwd_ms"] = (table.median_total_ms(f"autograd.{op}"), "ms")
        m[f"autograd.{op}.bwd_ms"] = (table.median_total_ms(f"autograd.{op}.bwd"), "ms")

    per_update = {
        "nn.lstm_step_ms": "nn.LstmCell.step",
        "nn.adam_step_ms": "nn.Adam.step",
        "nn.grads_ms": "nn.ParamSet.grads",
        "sampling.gumbel_noise_ms": "sampling.gumbel_noise",
        "sampling.gumbel_softmax_rows_ms": "sampling.gumbel_softmax_rows",
        "game.make_batch_ms": "game.make_batch",
        "data.sample_instances_ms": "data.sample_instances",
        "game.score_batch_ms": "game.score_batch",
        "game.hinge_batch_ms": "game.hinge_batch",
        "agents.generate_batch_ms": "agents.generate_batch",
        "agents.read_batch_ms": "agents.read_batch",
        "estimators.stgs_step_ms": "estimators.stgs_step",
        "estimators.reinforce_step_ms": "estimators.reinforce_step",
        "grounding.grounded_step_ms": "grounding.grounded_step",
        "grounding.direct_grounding_step_ms": "grounding.direct_grounding_step",
        "grounding.kl_penalty_col_ms": "grounding.kl_penalty_col",
        "grounding.caption_nll_batch_ms": "grounding.caption_nll_batch",
    }
    for metric, span in per_update.items():
        m[metric] = (table.median_total_ms(span), "ms")

    m["agents.receiver_read_calls"] = (table.mean_calls("agents.receiver_read", "report"), "count")
    m["agents.receiver_read_ms"] = (table.median_total_ms("agents.receiver_read", "report"), "ms")
    m["agents.lm_train_ms"] = (table.total_ms("agents.lm_train"), "ms")
    m["analysis.evaluate_ms"] = (table.per_call_ms("analysis.evaluate"), "ms")
    m["analysis.eval_success_ms"] = (table.median_total_ms("analysis.eval_success", "report"), "ms")
    m["analysis.encoder_perplexity_ms"] = (
        table.median_total_ms("analysis.encoder_perplexity", "report"), "ms")
    m["analysis.omission_score_calls"] = (
        table.mean_calls("analysis.omission_score", "report"), "count")
    m["analysis.omission_score_ms"] = (table.median_total_ms("analysis.omission_score", "report"), "ms")

    totals = table.update_totals_ms()
    m["train.update_ms"] = (float(np.median(totals)) if totals.size else 0.0, "ms")
    m["train.update_p99_ms"] = (
        float(np.percentile(totals, 99)) if totals.size else 0.0, "ms")
    m["train.init_run_ms"] = (table.per_call_ms("train.init_run"), "ms")
    m["train.interval_metrics_ms"] = (table.per_call_ms("train.interval_metrics"), "ms")
    m["train.save_run_ms"] = (table.per_call_ms("train.save_run"), "ms")
    m["checkpoint.save_checkpoint_ms"] = (
        table.per_call_ms("checkpoint.save_checkpoint", parent="train.save_run"), "ms")
    m["checkpoint.load_checkpoint_ms"] = (
        table.per_call_ms("checkpoint.load_checkpoint", parent="train.restore_run"), "ms")

    for mod in LAYERS + UNTIMED:
        with open(os.path.join(src_dir, f"{mod}.py")) as f:
            m[f"{mod}.src_lines"] = (float(sum(1 for _ in f)), "count")
    return m


def write_table(metrics, path):
    """The per-layer table as aligned text, one metric per line."""
    width = max(len(k) for k in metrics)
    with open(path, "w") as f:
        for key, (value, unit) in metrics.items():
            f.write(f"{key:<{width}}  {value:>14.4f}  {unit}\n")
