"""Run-layer checks: config files, checkpoints, training loop artifacts,
resume semantics, and the command-line surface."""

import dataclasses
import os
import re

import numpy as np
import pytest

import refgame.checkpoint as ck
import refgame.cli as cli
import refgame.config as cfgmod
import refgame.train as train


def micro_cfg(out, **kw):
    base = dict(n_attributes=2, values_per_attribute=3, feature_dim=8,
                instance_noise=0.1, world_seed=0, vocab_size=6, max_len=3,
                distractors=3, batch_size=8, embed_dim=6, hidden_dim=10,
                estimator="st-gs", lr=1e-3, lm_epochs=10, max_updates=30,
                eval_interval=10, eval_rounds=40, success_threshold=2.0,
                patience=100, seed=1, out=str(out))
    base.update(kw)
    return cfgmod.RunConfig(**base).validate()


def read(path):
    with open(path) as f:
        return f.read()


# ---------------------------------------------------------------------------
# config files


def test_config_round_trip(tmp_path):
    cfg = micro_cfg(tmp_path / "run", temperature=2.5, kl_weight=0.25)
    path = tmp_path / "config.txt"
    cfgmod.save_config(cfg, path)
    again = cfgmod.load_config(path)
    assert again == cfg


def test_overrides_beat_file_and_none_is_skipped(tmp_path):
    cfg = micro_cfg(tmp_path / "run")
    path = tmp_path / "config.txt"
    cfgmod.save_config(cfg, path)
    got = cfgmod.load_config(path, {"seed": 9, "lr": None})
    assert got.seed == 9
    assert got.lr == cfg.lr


def test_config_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        cfgmod.parse_config_text("seed = 1\nvocab_size = banana\n")
    with pytest.raises(ValueError, match="unknown"):
        cfgmod.parse_config_text("no_such_field = 1\n")


def test_config_validation():
    with pytest.raises(ValueError, match="estimator"):
        micro_cfg("x", estimator="bogus")
    with pytest.raises(ValueError, match="lm_fraction"):
        micro_cfg("x", lm_fraction=1.5)
    with pytest.raises(ValueError, match="positive"):
        micro_cfg("x", vocab_size=0)
    with pytest.raises(ValueError, match="decode"):
        micro_cfg("x", decode="beam")


# ---------------------------------------------------------------------------
# checkpoint files


def test_checkpoint_round_trip(tmp_path):
    cfg = micro_cfg(tmp_path)
    path = tmp_path / "checkpoint.txt"
    scalars = {"update": 7, "best_success": 0.625, "adam_s.t": 3}
    arrays = {"param/w": np.array([[0.1, -2.5e-7], [np.pi, 4.0]]),
              "adam_s.m/w": np.zeros(3)}
    ck.save_checkpoint(path, cfg, scalars, arrays)
    cfg2, scalars2, arrays2 = ck.load_checkpoint(path)
    assert cfg2 == cfg
    assert scalars2["update"] == 7
    assert scalars2["best_success"] == 0.625
    assert scalars2["rng_scheme"] == "counter"
    for name, arr in arrays.items():
        assert np.array_equal(arrays2[name], arr)


def test_checkpoint_values_are_exact_text_and_bits(tmp_path):
    cfg = micro_cfg(tmp_path)
    path = tmp_path / "checkpoint.txt"
    special = np.array([[-0.0, 0.0, np.nan, np.inf],
                        [-np.inf, 5e-324, 1e16, 0.1]])
    arrays = {"special": special, "random": np.random.default_rng(0).normal(size=7)}
    ck.save_checkpoint(path, cfg, {}, arrays)
    lines = read(path).splitlines()
    for name, arr in arrays.items():
        header = lines.index(f"[array {name} {' '.join(map(str, arr.shape))}]")
        assert lines[header + 1] == " ".join(repr(float(x)) for x in arr.reshape(-1))
    _, _, loaded = ck.load_checkpoint(path)
    for name, arr in arrays.items():
        assert np.array_equal(loaded[name].view(np.int64), arr.view(np.int64))


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "checkpoint.txt"
    path.write_text("something else\n")
    with pytest.raises(ValueError, match="version"):
        ck.load_checkpoint(path)


def test_checkpoint_array_size_mismatch(tmp_path):
    cfg = micro_cfg(tmp_path)
    path = tmp_path / "checkpoint.txt"
    ck.save_checkpoint(path, cfg, {}, {"x": np.zeros((2, 2))})
    text = read(path).replace("[array x 2 2]", "[array x 2 3]")
    path.write_text(text)
    with pytest.raises(ValueError, match="array x"):
        ck.load_checkpoint(path)


def damaged_run(tmp_path, edit):
    """A finished micro run whose checkpoint text is passed through edit."""
    cfg = micro_cfg(tmp_path / "run", max_updates=10)
    assert not train.run_train(cfg)["failed"]
    path = os.path.join(cfg.out, "checkpoint.txt")
    text = read(path)
    with open(path, "w") as f:
        f.write(edit(text))
    return cfg, path


def drop_array(name):
    """Checkpoint edit that removes one array, header and values."""
    def edit(text):
        lines = text.splitlines()
        i = next(k for k, ln in enumerate(lines)
                 if ln.startswith(f"[array {name} "))
        return "\n".join(lines[:i] + lines[i + 2:]) + "\n"
    return edit


def assert_eval_fails_cleanly(cfg, path, capsys, *needles):
    """`refgame eval` exits 1 with one `refgame: checkpoint ...` line that
    names the file and every needle."""
    capsys.readouterr()
    assert cli.main(["eval", "--out", cfg.out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"refgame: checkpoint {path}: ")
    assert err.count("\n") == 1
    for needle in needles:
        assert needle in err


def test_checkpoint_truncated_after_array_header(tmp_path, capsys):
    def cut(text):
        lines = text.splitlines()
        last = max(k for k, ln in enumerate(lines) if ln.startswith("[array "))
        return "\n".join(lines[:last + 1]) + "\n"
    cfg, path = damaged_run(tmp_path, cut)
    name = [ln for ln in read(path).splitlines()][-1].split()[1]
    with pytest.raises(ValueError, match=f"array {name} has no values"):
        ck.load_checkpoint(path)
    assert_eval_fails_cleanly(cfg, path, capsys, name)
    # a cut inside the last value can leave a shorter number, not fewer
    cfg, path = damaged_run(tmp_path / "mid", lambda text: text[:-3])
    with pytest.raises(ValueError, match="truncated"):
        ck.load_checkpoint(path)
    assert_eval_fails_cleanly(cfg, path, capsys, "truncated")


def test_checkpoint_missing_param_array(tmp_path, capsys):
    cfg, path = damaged_run(tmp_path, drop_array("param/receiver.g.b"))
    with pytest.raises(ValueError, match="missing array param/receiver.g.b"):
        train.restore_run(cfg, path)
    assert_eval_fails_cleanly(cfg, path, capsys, "param/receiver.g.b")
    # the same holds for a line of run state
    cfg, path = damaged_run(tmp_path / "state", lambda text: re.sub(
        r"\nadam_r\.t = \d+", "", text))
    assert_eval_fails_cleanly(cfg, path, capsys, "missing state value adam_r.t")


def test_checkpoint_missing_adam_moment(tmp_path, capsys):
    cfg, path = damaged_run(tmp_path, drop_array("adam_s.v/sender.proj.w"))
    with pytest.raises(ValueError, match="missing array adam_s.v/sender.proj.w"):
        train.restore_run(cfg, path)
    assert_eval_fails_cleanly(cfg, path, capsys, "adam_s.v/sender.proj.w")


def test_checkpoint_wrong_array_shape(tmp_path, capsys):
    # hidden 10 -> features 8; the transposed header keeps the value count
    cfg, path = damaged_run(tmp_path, lambda text: text.replace(
        "[array param/receiver.g.w 10 8]", "[array param/receiver.g.w 8 10]"))
    with pytest.raises(ValueError, match=r"param/receiver.g.w has shape \(8, 10\)"):
        train.restore_run(cfg, path)
    assert_eval_fails_cleanly(cfg, path, capsys, "param/receiver.g.w",
                              "expected (10, 8)")


def test_checkpoint_config_read_skips_damaged_arrays(tmp_path, capsys):
    def garble(text):
        lines = text.splitlines()
        first = next(k for k, ln in enumerate(lines) if ln.startswith("[array "))
        lines[first + 1] = "not a number"
        return "\n".join(lines) + "\n"
    cfg, path = damaged_run(tmp_path, garble)
    assert train.checkpoint_config(cfg.out) == cfg
    assert_eval_fails_cleanly(cfg, path, capsys, "malformed")


# ---------------------------------------------------------------------------
# training loop artifacts


def checkpoint_without_out(path):
    return [ln for ln in read(path).splitlines() if not ln.startswith("out = ")]


def test_rerun_is_bit_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        cfg = micro_cfg(tmp_path / name)
        res = train.run_train(cfg)
        assert not res["failed"]
        outs.append(cfg.out)
    a, b = outs
    assert read(f"{a}/metrics.csv") == read(f"{b}/metrics.csv")
    assert read(f"{a}/report.txt") == read(f"{b}/report.txt")
    assert read(f"{a}/messages.log") == read(f"{b}/messages.log")
    assert (checkpoint_without_out(f"{a}/checkpoint.txt")
            == checkpoint_without_out(f"{b}/checkpoint.txt"))


def test_reinforce_rerun_is_bit_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        cfg = micro_cfg(tmp_path / name, estimator="reinforce", max_updates=20)
        res = train.run_train(cfg)
        assert not res["failed"]
        outs.append(cfg.out)
    a, b = outs
    assert read(f"{a}/metrics.csv") == read(f"{b}/metrics.csv")
    assert (checkpoint_without_out(f"{a}/checkpoint.txt")
            == checkpoint_without_out(f"{b}/checkpoint.txt"))


def test_resume_matches_uninterrupted_run(tmp_path):
    full = micro_cfg(tmp_path / "full", max_updates=40)
    train.run_train(full)

    part = micro_cfg(tmp_path / "part", max_updates=20)
    train.run_train(part)
    extended = dataclasses.replace(part, max_updates=40)
    res = train.run_train(extended, resume=True)
    assert not res["failed"]
    assert res["update"] == 40

    assert read(f"{full.out}/metrics.csv") == read(f"{part.out}/metrics.csv")
    assert (checkpoint_without_out(f"{full.out}/checkpoint.txt")
            == checkpoint_without_out(f"{part.out}/checkpoint.txt"))


def test_resume_after_failed_save_writes_no_duplicate_row(tmp_path, monkeypatch):
    """A failure between the metrics row at update 20 and its checkpoint
    leaves the update-10 checkpoint behind; the resumed run must drop the
    uncovered row, not write update 20 twice."""
    full = micro_cfg(tmp_path / "full")
    train.run_train(full)

    cfg = micro_cfg(tmp_path / "killed")
    save_run = train.save_run

    def failing_save(run, path):
        if run.update == 20:
            raise OSError("injected failure before the checkpoint write")
        save_run(run, path)

    monkeypatch.setattr(train, "save_run", failing_save)
    with pytest.raises(OSError, match="injected"):
        train.run_train(cfg)
    monkeypatch.setattr(train, "save_run", save_run)
    rows = read(f"{cfg.out}/metrics.csv").splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["0", "10", "20"]

    res = train.run_train(cfg, resume=True)
    assert not res["failed"] and res["update"] == 30
    rows = read(f"{cfg.out}/metrics.csv").splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["0", "10", "20", "30"]
    assert read(f"{cfg.out}/metrics.csv") == read(f"{full.out}/metrics.csv")


def test_resume_rejects_architecture_change(tmp_path):
    cfg = micro_cfg(tmp_path, max_updates=10)
    train.run_train(cfg)
    changed = dataclasses.replace(cfg, hidden_dim=12, max_updates=20)
    with pytest.raises(ValueError, match="hidden_dim"):
        train.run_train(changed, resume=True)


def test_nan_abort_preserves_last_checkpoint(tmp_path):
    cfg = micro_cfg(tmp_path, max_updates=20)
    train.run_train(cfg)
    path = os.path.join(cfg.out, "checkpoint.txt")
    ckpt_cfg, scalars, arrays = ck.load_checkpoint(path)
    name = sorted(a for a in arrays if a.startswith("param/sender"))[0]
    arrays[name].reshape(-1)[0] = np.nan
    ck.save_checkpoint(path, ckpt_cfg, scalars, arrays)
    poisoned = read(path)

    extended = dataclasses.replace(cfg, max_updates=40)
    res = train.run_train(extended, resume=True)
    assert res["failed"]
    assert res["stop"] == "nan"
    assert "non-finite" in res["error"]
    assert read(path) == poisoned


def test_beta_zero_grounding_matches_plain_training(tmp_path):
    plain = micro_cfg(tmp_path / "plain")
    train.run_train(plain)
    ground = micro_cfg(tmp_path / "ground", grounding="indirect", kl_weight=0.0)
    res = train.run_ground_train(ground)
    assert not res["failed"]
    assert "lm_train_perplexity" in res

    rows_p = read(f"{plain.out}/metrics.csv").splitlines()
    rows_g = read(f"{ground.out}/metrics.csv").splitlines()
    assert len(rows_p) == len(rows_g)
    for lp, lg in zip(rows_p, rows_g):
        # all columns but the language-model perplexity must coincide
        assert lp.split(",")[:7] == lg.split(",")[:7]
    last = rows_g[-1].split(",")
    assert last[7] != ""


def test_lr_sweep_writes_summary(tmp_path):
    cfg = micro_cfg(tmp_path, max_updates=10, eval_interval=5)
    res = train.run_lr_sweep(cfg)
    lines = read(os.path.join(cfg.out, "sweep.csv")).splitlines()
    assert lines[0] == "lr,updates,stop,success_sample,failed"
    assert len(lines) == 1 + len(train.LR_SWEEP_GRID)
    for lr in train.LR_SWEEP_GRID:
        assert os.path.isfile(os.path.join(cfg.out, f"lr_{lr:g}", "metrics.csv"))
    assert len(res["rows"]) == len(train.LR_SWEEP_GRID)


# ---------------------------------------------------------------------------
# command line


def write_cli_config(tmp_path, **kw):
    cfg = micro_cfg(tmp_path / "run", **kw)
    path = tmp_path / "config.txt"
    cfgmod.save_config(cfg, path)
    return cfg, str(path)


def test_cli_train_eval_analyze_probe(tmp_path, capsys):
    cfg, path = write_cli_config(tmp_path)
    assert cli.main(["train", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "update = 30" in out
    assert os.path.isfile(os.path.join(cfg.out, "metrics.csv"))

    # offline commands take the architecture from the checkpoint echo
    assert cli.main(["eval", "--out", cfg.out]) == 0
    assert "success_sample" in capsys.readouterr().out

    assert cli.main(["analyze", "--out", cfg.out]) == 0
    capsys.readouterr()
    assert os.path.isfile(os.path.join(cfg.out, "analysis.txt"))

    assert cli.main(["probe-pseudograd", "--out", cfg.out, "--probes", "2"]) == 0
    assert "acute_fraction" in capsys.readouterr().out
    assert os.path.isfile(os.path.join(cfg.out, "probes.csv"))


def test_cli_missing_checkpoint_is_a_usage_error(tmp_path, capsys):
    code = cli.main(["eval", "--out", str(tmp_path / "nowhere")])
    assert code == 2
    assert "checkpoint" in capsys.readouterr().err


def test_cli_bad_config_value_is_a_usage_error(tmp_path, capsys):
    _, path = write_cli_config(tmp_path)
    # argparse rejects values outside the declared choices on its own
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--config", path, "--estimator", "bogus"])
    assert exc.value.code == 2
    assert "estimator" in capsys.readouterr().err
    # values argparse accepts but validation rejects share the exit code
    code = cli.main(["train", "--config", path, "--lr", "0"])
    assert code == 2
    assert "lr" in capsys.readouterr().err


def test_cli_direct_grounding_rejects_other_estimators(tmp_path, capsys):
    """Direct grounding trains its game term with st-gs only; any other
    estimator fails before a file is written."""
    _, path = write_cli_config(tmp_path)
    for estimator in ("reinforce", "gs"):
        out = tmp_path / f"direct-{estimator}"
        code = cli.main(["ground-train", "--config", path, "--grounding",
                         "direct", "--caption-weight", "1.0", "--estimator",
                         estimator, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("refgame: ")
        assert "st-gs" in err[0] and estimator in err[0]
        assert not out.exists()


def test_cli_flags_override_config_file(tmp_path, capsys):
    cfg, path = write_cli_config(tmp_path, max_updates=10)
    other = str(tmp_path / "other")
    assert cli.main(["train", "--config", path, "--seed", "2",
                     "--out", other]) == 0
    capsys.readouterr()
    echoed = train.checkpoint_config(other)
    assert echoed.seed == 2
    assert echoed.out == other


def test_cli_gradcheck_smoke(capsys):
    assert cli.main(["gradcheck", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "all passed" in out or "ok" in out
