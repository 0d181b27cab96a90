import dataclasses
import os
import re
import shutil

import numpy as np
import pytest

import socrec.experiments as experiments
from socrec.cli import build_config, main, parse_config_file
from socrec.config import read_value
from socrec.data import save_dataset
from socrec.eval import export_relevance_weights
from socrec.experiments import (ExperimentSpec, load_spec_dataset, run_ablation,
                                run_case_study, run_eval, run_robustness, run_sweep,
                                run_train)
from socrec.model import checkpoint_config, load_checkpoint
from socrec.objective import VARIANTS, TrainConfig
from socrec.synthetic import planted_clusters, random_tables, write_edge_files


@pytest.fixture
def edge_files(tmp_path):
    inter, soc = random_tables(14, 20, min_items=4, max_items=6, tie_prob=0.3,
                               seed=15)
    return write_edge_files(inter, soc, str(tmp_path / "raw"))


def fast_cfg(**kw):
    base = dict(dim=4, layers=1, batch=16, epochs=1, patience=999, lr=5e-3,
                negatives=3, cutoffs=(5, 10), seed=11)
    base.update(kw)
    return TrainConfig(**base)


def fast_spec(edge_files, out_dir, **kw):
    inter_path, soc_path = edge_files
    spec = ExperimentSpec(config=fast_cfg(), interactions_path=inter_path,
                          social_path=soc_path, split_seed=1,
                          out_dir=str(out_dir), eval_seed=0)
    return dataclasses.replace(spec, **kw)


class TestConfigParsing:
    def test_file_values_applied(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("# comment\nlr=0.005\nlayers=3\nvariant=no_align\n"
                            "cutoffs=5,10\n")
        values = parse_config_file(str(cfg_path))
        cfg = build_config(values, {})
        assert cfg.lr == 0.005
        assert cfg.layers == 3
        assert cfg.variant == "no_align"
        assert cfg.cutoffs == (5, 10)

    def test_cli_flags_win(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("lr=0.005\nlayers=3\n")
        values = parse_config_file(str(cfg_path))
        cfg = build_config(values, {"layers": "2"})
        assert cfg.layers == 2
        assert cfg.lr == 0.005

    def test_malformed_line_rejected(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("lr 0.005\n")
        with pytest.raises(ValueError):
            parse_config_file(str(cfg_path))

    @pytest.mark.parametrize("field", dataclasses.fields(TrainConfig),
                             ids=lambda f: f.name)
    def test_every_field_coerces_from_string(self, field):
        default = field.default
        text = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
        for file_values, cli_values in (({field.name: text}, {}),
                                        ({}, {field.name: text})):
            value = getattr(build_config(file_values, cli_values), field.name)
            assert type(value) is type(default) and value == default

    def test_misspelled_file_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("lamda2=0.5\ndataset_dir=d\ninteractions=i\n"
                            "social=s\neval_seed=3\n")
        with pytest.raises(ValueError, match="lamda2"):
            build_config(parse_config_file(str(cfg_path)), {})
        cfg_path.write_text("lambda2=0.5\ndataset_dir=d\ninteractions=i\n"
                            "social=s\neval_seed=3\n")
        assert build_config(parse_config_file(str(cfg_path)), {}).lambda2 == 0.5


class TestRunTrain:
    def test_writes_all_artifacts(self, edge_files, tmp_path):
        spec = fast_spec(edge_files, tmp_path / "runs", run_name="r1")
        _, report, run_dir = run_train(spec)
        for name in ("config", "history.txt", "timing.txt", "report.dat",
                     "report.txt"):
            assert os.path.exists(os.path.join(run_dir, name))
        for name in ("E_u", "E_v", "T", "w", "c", "config"):
            assert os.path.exists(os.path.join(run_dir, "checkpoint", name))
        assert not os.path.exists(os.path.join(run_dir, "checkpoint", "shape"))
        assert 0.0 <= report.hr[10] <= 1.0

    def test_zero_epochs_still_reports(self, edge_files, tmp_path):
        spec = fast_spec(edge_files, tmp_path / "runs", run_name="r0")
        spec.config = fast_cfg(epochs=0)
        _, report, run_dir = run_train(spec)
        assert os.path.exists(os.path.join(run_dir, "report.dat"))

    def test_identical_seed_identical_reports(self, edge_files, tmp_path):
        spec_a = fast_spec(edge_files, tmp_path / "a", run_name="x")
        spec_b = fast_spec(edge_files, tmp_path / "b", run_name="x")
        _, _, dir_a = run_train(spec_a)
        _, _, dir_b = run_train(spec_b)
        for name in ("report.dat", "history.txt", "config"):
            assert (open(os.path.join(dir_a, name), "rb").read()
                    == open(os.path.join(dir_b, name), "rb").read())
        for name in ("E_u", "E_v", "T", "w", "c"):
            assert (open(os.path.join(dir_a, "checkpoint", name), "rb").read()
                    == open(os.path.join(dir_b, "checkpoint", name), "rb").read())

    def test_zero_layer_checkpoint_evaluates_as_trained(self, edge_files, tmp_path):
        spec = fast_spec(edge_files, tmp_path / "runs", run_name="l0",
                         config=fast_cfg(layers=0, epochs=3))
        _, report, run_dir = run_train(spec)
        # the eval config keeps layers=1; the checkpoint's stored layers=0 must win
        ev = fast_spec(edge_files, tmp_path / "runs", run_name="l0-eval")
        back, _ = run_eval(ev, os.path.join(run_dir, "checkpoint"))
        assert back.hr == report.hr
        assert back.ndcg == report.ndcg

    def test_missing_data_source_fatal(self, tmp_path):
        spec = ExperimentSpec(config=fast_cfg(), out_dir=str(tmp_path))
        with pytest.raises(ValueError):
            run_train(spec)


@pytest.mark.parametrize("task", [run_train, run_eval, run_ablation,
                                  run_robustness, run_sweep, run_case_study],
                         ids=lambda f: f.__name__)
def test_every_task_needs_a_data_source(task, tmp_path):
    spec = ExperimentSpec(config=fast_cfg(), out_dir=str(tmp_path / "runs"))
    kw = {run_eval: {"checkpoint": str(tmp_path / "ckpt")},
          run_case_study: {"checkpoint": str(tmp_path / "ckpt")},
          run_sweep: {"axes": {"layers": [1]}}}.get(task, {})
    with pytest.raises(ValueError, match="dataset_dir or interactions_path"):
        task(spec, **kw)
    assert not os.path.exists(tmp_path / "runs")


@pytest.mark.parametrize("task,value,match", [
    (run_sweep, {"variant": ["full", "bogus"]}, "unknown variant 'bogus'"),
    (run_robustness, (0.0, 1.5), "noise ratio must lie in"),
    (run_case_study, "no-such-checkpoint", "has no config file"),
    # cells whose directory names are equal
    (run_robustness, (0.0, 0.1, 0.1000001),
     r"cells 0\.1 and 0\.1000001 share the directory 'ratio_0\.1'"),
    (run_robustness, (0.2, 0.0, 0.2), "cells 0.2 and 0.2 share"),
    (run_sweep, {"lr": [0.001, 0.0010000001]},
     r"0\.001\} and \{'lr': 0\.0010000001\} share the directory 'lr=0\.001'"),
    (run_sweep, {"layers": [1, 2], "variant": ["full", "full"]},
     "share the directory 'layers=1_variant=full'"),
], ids=["sweep", "robust", "case-study", "robust-close-ratios", "robust-same-ratio",
        "sweep-close-values", "sweep-same-value"])
def test_every_cell_is_checked_before_the_run_directory(task, value, match,
                                                        edge_files, tmp_path):
    spec = fast_spec(edge_files, tmp_path / "runs")
    with pytest.raises(ValueError, match=match):
        task(spec, value)
    assert not os.path.exists(tmp_path / "runs")


@pytest.mark.parametrize("name", ["E_v", "c"])
@pytest.mark.parametrize("task", [run_eval, run_case_study], ids=lambda f: f.__name__)
def test_non_finite_checkpoint_refused_before_the_run_directory(task, name, edge_files,
                                                                tmp_path):
    """NaN scores would rank every held-out item first; the checkpoint is
    refused instead."""
    _, _, run_dir = run_train(fast_spec(edge_files, tmp_path / "train", run_name="t"))
    ckpt = os.path.join(run_dir, "checkpoint")
    path = os.path.join(ckpt, name)
    values = np.fromfile(path, dtype="<f8")
    values[-1] = np.nan
    values.tofile(path)
    with pytest.raises(ValueError, match=re.escape(
            f"checkpoint file {path} holds a non-finite value")):
        task(fast_spec(edge_files, tmp_path / "runs"), ckpt)
    assert not os.path.exists(tmp_path / "runs")


@pytest.mark.parametrize("task", [run_eval, run_case_study], ids=lambda f: f.__name__)
def test_checkpoint_of_another_dataset_refused_by_name(task, edge_files, tmp_path):
    """The refusal names the checkpoint and both sizes, before encode
    would fail on a graph of the wrong size."""
    _, _, run_dir = run_train(fast_spec(edge_files, tmp_path / "train", run_name="t"))
    ckpt = os.path.join(run_dir, "checkpoint")
    trained = load_checkpoint(ckpt)
    ds, _ = planted_clusters(num_users=40, num_items=120, seed=0)
    save_dataset(ds, str(tmp_path / "planted"))
    spec = ExperimentSpec(config=fast_cfg(), dataset_dir=str(tmp_path / "planted"),
                          out_dir=str(tmp_path / "runs"))
    with pytest.raises(ValueError, match=re.escape(
            f"checkpoint {ckpt} was trained on {trained.num_users} users x "
            f"{trained.num_items} items, the dataset has 40 x 120")):
        task(spec, ckpt)
    assert not os.path.exists(tmp_path / "runs")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_reused_run_name_refused(edge_files, tmp_path):
    """A second run under a used name would leave the first run's files,
    here its ABORTED mark, beside its own."""
    result, _, run_dir = run_train(fast_spec(edge_files, tmp_path, run_name="x",
                                             config=fast_cfg(lr=1e300)))
    assert result.aborted
    written = sorted(os.listdir(run_dir))
    assert "ABORTED" in written
    with pytest.raises(ValueError, match=re.escape(f"run directory {run_dir} already exists")):
        run_train(fast_spec(edge_files, tmp_path, run_name="x"))
    assert sorted(os.listdir(run_dir)) == written


@pytest.mark.parametrize("task,task_dir,kw", [
    (run_train, "train", {}), (run_ablation, "ablation", {}),
    (run_robustness, "robustness", {}),
    (run_sweep, "sweep", {"axes": {"layers": [1]}}),
    (run_case_study, "case_study", {})], ids=lambda v: getattr(v, "__name__", None))
def test_every_training_task_refuses_an_existing_run_directory(
        task, task_dir, kw, edge_files, tmp_path, monkeypatch):
    """The refusal comes before any training."""
    os.makedirs(tmp_path / "runs" / task_dir / "used")

    def no_training(*args, **kwargs):
        raise AssertionError("trained before refusing the run directory")
    monkeypatch.setattr(experiments, "train_model", no_training)
    with pytest.raises(ValueError, match="already exists"):
        task(fast_spec(edge_files, tmp_path / "runs", run_name="used"), **kw)
    assert os.listdir(tmp_path / "runs" / task_dir / "used") == []


@pytest.mark.parametrize("agg", ["sum", "mean"])
@pytest.mark.parametrize("layers", [0, 1, 2])
@pytest.mark.parametrize("variant", VARIANTS)
def test_checkpoint_replays_its_run(variant, layers, agg, edge_files, tmp_path):
    """`eval` and `case-study` on a checkpoint, given only the default
    config (another seed), score and project as the run that saved it did;
    the eval report is the run's, seed line and strata rows included."""
    trained = fast_cfg(variant=variant, layers=layers, agg=agg, epochs=2, seed=5)
    assert fast_cfg().seed != trained.seed
    result, _, run_dir = run_train(fast_spec(edge_files, tmp_path, run_name="run",
                                             config=trained))
    ckpt = os.path.join(run_dir, "checkpoint")
    _, eval_dir = run_eval(fast_spec(edge_files, tmp_path, run_name="ev"), ckpt)
    in_run = open(os.path.join(run_dir, "report.dat"), "rb").read()
    assert b"# seed=5\n" in in_run
    for name in ("report.dat", "report.txt"):
        assert (open(os.path.join(eval_dir, name), "rb").read()
                == open(os.path.join(run_dir, name), "rb").read())
    export, _ = run_case_study(fast_spec(edge_files, tmp_path, run_name="case"), ckpt)
    ds = load_spec_dataset(fast_spec(edge_files, tmp_path))
    assert export.rows == export_relevance_weights(result.model, ds).rows


class TestAblation:
    def test_four_variants_reported(self, edge_files, tmp_path):
        spec = fast_spec(edge_files, tmp_path / "runs", run_name="abl")
        table, run_dir = run_ablation(spec)
        assert set(table) == {"full", "no_align", "direct_social", "contrastive"}
        assert all(rep is not None for rep in table.values())
        lines = open(os.path.join(run_dir, "ablation.dat")).read().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 4 * 2 * 2  # variants x metrics x cutoffs

    def test_variant_failure_isolated(self, edge_files, tmp_path, monkeypatch):
        import socrec.experiments as exp_mod

        real = exp_mod.train_model

        def flaky(ds, cfg, eval_seed=0):
            if cfg.variant == "contrastive":
                raise RuntimeError("boom")
            return real(ds, cfg, eval_seed=eval_seed)

        monkeypatch.setattr(exp_mod, "train_model", flaky)
        spec = fast_spec(edge_files, tmp_path / "runs", run_name="abl2")
        table, _ = run_ablation(spec)
        assert table["contrastive"] is None
        assert table["full"] is not None


class TestRobustness:
    def test_ratio_rows_and_bit_identity(self, edge_files, tmp_path):
        spec = fast_spec(edge_files, tmp_path / "runs", run_name="rob")
        reports, run_dir = run_robustness(spec, (0.0, 0.1))
        assert set(reports) == {0.0, 0.1}
        lines = open(os.path.join(run_dir, "robustness.dat")).read().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 2 * 2 * 2  # ratios x metrics x cutoffs
        # ratio-0 cell must equal a plain train run bit for bit
        train_spec = fast_spec(edge_files, tmp_path / "plain", run_name="t")
        _, _, train_dir = run_train(train_spec)
        cell = os.path.join(run_dir, "ratio_0")
        for name in ("report.dat", "history.txt"):
            assert (open(os.path.join(cell, name), "rb").read()
                    == open(os.path.join(train_dir, name), "rb").read())
        for name in ("E_u", "E_v"):
            assert (open(os.path.join(cell, "checkpoint", name), "rb").read()
                    == open(os.path.join(train_dir, "checkpoint", name), "rb").read())

    def test_empty_ratio_list_refused_before_the_run_directory(self, edge_files,
                                                                tmp_path):
        spec = fast_spec(edge_files, tmp_path / "runs", run_name="rob")
        with pytest.raises(ValueError, match="non-empty ratios"):
            run_robustness(spec, ())
        assert not (tmp_path / "runs").exists()


class TestSweep:
    def test_grid_rows(self, edge_files, tmp_path):
        spec = fast_spec(edge_files, tmp_path / "runs", run_name="sw")
        cells, run_dir = run_sweep(spec, {"layers": [1, 2]})
        assert len(cells) == 2
        lines = open(os.path.join(run_dir, "sweep.dat")).read().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 2 * 2 * 2

    def test_alignment_weight_grid(self, edge_files, tmp_path):
        spec = fast_spec(edge_files, tmp_path / "runs", run_name="swl2")
        cells, run_dir = run_sweep(spec, {"lambda2": [1e-6, 1e-5, 1e-4, 1e-3]})
        assert len(cells) == 4
        assert sorted(c[0]["lambda2"] for c in cells) == [1e-6, 1e-5, 1e-4, 1e-3]

    def test_single_point_grid_equals_train(self, edge_files, tmp_path):
        spec = fast_spec(edge_files, tmp_path / "runs", run_name="sw1")
        cells, _ = run_sweep(spec, {"layers": [1]})
        train_spec = fast_spec(edge_files, tmp_path / "plain", run_name="t")
        _, train_report, _ = run_train(train_spec)
        assert cells[0][1].hr == train_report.hr
        assert cells[0][1].ndcg == train_report.ndcg

    def test_empty_grid_fatal(self, edge_files, tmp_path):
        spec = fast_spec(edge_files, tmp_path / "runs")
        with pytest.raises(ValueError):
            run_sweep(spec, {})
        assert not os.path.exists(tmp_path / "runs")


class TestCaseStudy:
    def test_exports_sorted_weights(self, edge_files, tmp_path):
        spec = fast_spec(edge_files, tmp_path / "runs", run_name="cs")
        export, run_dir = run_case_study(spec)
        assert len(export.rows) > 0
        zs = [z for _, _, z, _ in export.rows]
        assert zs == sorted(zs)
        path = os.path.join(run_dir, "relevance_weights.txt")
        lines = open(path).read().splitlines()
        assert len(lines) == len(export.rows) + 1

    def test_from_checkpoint(self, edge_files, tmp_path):
        train_spec = fast_spec(edge_files, tmp_path / "t", run_name="t")
        _, _, train_dir = run_train(train_spec)
        spec = fast_spec(edge_files, tmp_path / "runs", run_name="cs2")
        export, _ = run_case_study(spec, os.path.join(train_dir, "checkpoint"), 3)
        assert len(export.rows) == 3


    @pytest.mark.parametrize("sample", ["x", "-1", "2.5"])
    def test_bad_sample_fatal_before_any_work(self, edge_files, tmp_path, sample):
        spec = fast_spec(edge_files, tmp_path / "runs", run_name="cs")
        with pytest.raises(ValueError, match=f"sample: cannot read {sample!r}"):
            run_case_study(spec, sample=sample)
        inter_path, soc_path = edge_files
        with pytest.raises(ValueError, match=f"sample: cannot read {sample!r}"):
            main(["case-study", "--interactions", inter_path, "--social", soc_path,
                  "--out", str(tmp_path / "runs"), "--epochs", "1", "--dim", "4",
                  "--sample", sample])
        assert not os.path.exists(tmp_path / "runs")


class TestMainEntry:
    def test_train_subcommand(self, edge_files, tmp_path, capsys):
        inter_path, soc_path = edge_files
        rc = main(["train", "--interactions", inter_path, "--social", soc_path,
                   "--split-seed", "1", "--out", str(tmp_path / "runs"),
                   "--epochs", "1", "--batch", "16", "--dim", "4",
                   "--layers", "1", "--negatives", "3", "--seed", "11",
                   "--run-name", "cli", "--set", "cutoffs=5,10",
                   "--set", "patience=999"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hr" in out
        assert os.path.exists(tmp_path / "runs" / "train" / "cli" / "report.dat")

    def test_eval_subcommand(self, edge_files, tmp_path, capsys):
        inter_path, soc_path = edge_files
        common = ["--interactions", inter_path, "--social", soc_path,
                  "--split-seed", "1", "--out", str(tmp_path / "runs"),
                  "--epochs", "1", "--batch", "16", "--dim", "4",
                  "--layers", "1", "--negatives", "3", "--seed", "11",
                  "--set", "cutoffs=5,10"]
        main(["train", "--run-name", "base"] + common)
        ckpt = str(tmp_path / "runs" / "train" / "base" / "checkpoint")
        rc = main(["eval", "--checkpoint", ckpt, "--run-name", "ev"] + common)
        assert rc == 0
        assert "hr" in capsys.readouterr().out

    def test_sweep_and_grid_flag(self, edge_files, tmp_path, capsys):
        inter_path, soc_path = edge_files
        rc = main(["sweep", "--interactions", inter_path, "--social", soc_path,
                   "--out", str(tmp_path / "runs"), "--epochs", "1",
                   "--batch", "16", "--dim", "4", "--negatives", "3",
                   "--seed", "11", "--grid", "layers=1,2", "--run-name", "sw",
                   "--set", "cutoffs=5,10", "--set", "patience=999"])
        assert rc == 0
        assert os.path.exists(tmp_path / "runs" / "sweep" / "sw" / "sweep.dat")

    @pytest.mark.parametrize("command,flag", [("train", "--set"),
                                              ("sweep", "--grid")])
    def test_misspelled_flag_key_rejected(self, edge_files, tmp_path, command,
                                          flag):
        inter_path, soc_path = edge_files
        args = [command, "--interactions", inter_path, "--social", soc_path,
                "--out", str(tmp_path / "runs"), flag, "lamda2=0.5"]
        with pytest.raises(ValueError, match="lamda2"):
            main(args)
        assert not os.path.exists(tmp_path / "runs")

    def test_repeated_grid_axis_rejected(self, edge_files, tmp_path):
        inter_path, soc_path = edge_files
        args = ["sweep", "--interactions", inter_path, "--social", soc_path,
                "--out", str(tmp_path / "runs"), "--grid", "layers=1",
                "--grid", "layers=2,3"]
        with pytest.raises(ValueError, match="--grid axis layers is given twice"):
            main(args)
        assert not os.path.exists(tmp_path / "runs")

    @pytest.mark.parametrize("channel,key,value", [
        ("config file", "batch", ""), ("config file", "leaky_slope", "0.2"),
        ("--set", "lr", "abc"), ("flag", "epochs", "x"), ("--grid", "layers", "x")])
    def test_bad_value_names_key(self, edge_files, tmp_path, channel, key, value):
        inter_path, soc_path = edge_files
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"{key}={value}\n" if channel == "config file" else "")
        extra = {"config file": [], "--set": ["--set", f"{key}={value}"],
                 "flag": [f"--{key}", value], "--grid": ["--grid", f"{key}=1,{value}"]}
        args = ["sweep", "--interactions", inter_path, "--social", soc_path,
                "--out", str(tmp_path / "runs"), "--config", str(cfg_path),
                "--grid", "lambda2=0", *extra[channel]]
        with pytest.raises(ValueError, match=f"{key}.*{value!r}"):
            main(args)
        assert not os.path.exists(tmp_path / "runs")

    @pytest.mark.parametrize("command,flag,match", [
        ("robust", "--ratios", "config key ratios: cannot read ''"),
        ("case-study", "--sample", "sample: cannot read ''"),
        ("case-study", "--checkpoint", "checkpoint: expected a directory, got ''"),
        ("eval", "--checkpoint", "checkpoint: expected a directory, got ''")])
    def test_empty_task_flag_fatal_before_any_work(self, edge_files, tmp_path, monkeypatch,
                                                   command, flag, match):
        """An empty value is refused, not read as the flag's default."""
        def no_training(*args, **kwargs):
            raise AssertionError("trained on an empty flag")
        monkeypatch.setattr(experiments, "train_model", no_training)
        inter_path, soc_path = edge_files
        with pytest.raises(ValueError, match=re.escape(match)):
            main([command, "--interactions", inter_path, "--social", soc_path,
                  "--out", str(tmp_path / "runs"), flag, ""])
        assert not os.path.exists(tmp_path / "runs")

    def test_task_value_names_key(self, edge_files, tmp_path):
        inter_path, soc_path = edge_files
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("eval_seed=x\n")
        source = ["--interactions", inter_path, "--social", soc_path,
                  "--out", str(tmp_path / "runs"), "--epochs", "1", "--dim", "4"]
        for args, key, kind in ((["train", *source, "--config", str(cfg_path)],
                                 "eval_seed", "int"),
                                (["robust", *source, "--ratios", "0,x"], "ratios", "float")):
            with pytest.raises(ValueError,
                               match=f"config key {key}: cannot read 'x' as {kind}"):
                main(args)
        assert not os.path.exists(tmp_path / "runs")

    @pytest.mark.parametrize("config,flags,key", [("eval_seed=-3\n", [], "eval_seed"),
                                                  ("", ["--seed", "-1"], "seed"),
                                                  ("", ["--split-seed", "-1"], "split_seed")])
    def test_negative_seed_fatal_before_any_work(self, edge_files, tmp_path, config,
                                                 flags, key):
        inter_path, soc_path = edge_files
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(config)
        # the split seed is a build_dataset argument, not a config key
        prefix = "" if key == "split_seed" else "config key "
        with pytest.raises(ValueError, match=f"{prefix}{key} must be >= 0"):
            main(["train", "--interactions", inter_path, "--social", soc_path,
                  "--out", str(tmp_path / "runs"), "--epochs", "1", "--dim", "4",
                  "--config", str(cfg_path), *flags])
        assert not os.path.exists(tmp_path / "runs")

    def test_config_file_with_flag_override(self, edge_files, tmp_path):
        inter_path, soc_path = edge_files
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"epochs=1\nbatch=16\ndim=8\nlayers=1\n"
                            f"negatives=3\nseed=11\ncutoffs=5,10\n"
                            f"patience=999\ninteractions={inter_path}\n"
                            f"social={soc_path}\n")
        rc = main(["train", "--config", str(cfg_path), "--dim", "4",
                   "--out", str(tmp_path / "runs"), "--run-name", "cf"])
        assert rc == 0
        echo = (tmp_path / "runs" / "train" / "cf" / "config").read_text()
        assert "dim=4" in echo  # flag overrode the file value

    def test_run_config_echo_reads_back(self, edge_files, tmp_path):
        """`--config <run>/config` resolves the run's TrainConfig, though
        the echo ends with a leaky_slope line that is no config field."""
        inter_path, soc_path = edge_files
        cfg = fast_cfg(variant="contrastive", layers=2, agg="mean", lambda2=0.25)
        _, _, run_dir = run_train(fast_spec(edge_files, tmp_path / "runs",
                                            run_name="first", config=cfg))
        echo = os.path.join(run_dir, "config")
        assert open(echo).read().splitlines()[-1].startswith("leaky_slope=")
        assert build_config(parse_config_file(echo), {}) == cfg
        assert main(["train", "--config", echo, "--interactions", inter_path,
                     "--social", soc_path, "--out", str(tmp_path / "runs"),
                     "--run-name", "again"]) == 0
        again = tmp_path / "runs" / "train" / "again" / "config"
        assert again.read_bytes() == open(echo, "rb").read()


# (key, value) -> what the error says the value must be
OUT_OF_RANGE = {("dim", "0"): ">= 1", ("batch", "0"): ">= 1", ("negatives", "0"): ">= 1",
                ("cutoffs", "5,-2"): ">= 1", ("cutoffs", "10,10"): "distinct",
                ("layers", "-1"): ">= 0",
                ("epochs", "-1"): ">= 0", ("patience", "-3"): ">= 0",
                ("seed", "-1"): ">= 0",
                ("lambda1", "nan"): "finite", ("lr", "nan"): "finite", ("lr", "-1"): "> 0",
                ("infonce_tau", "nan"): "finite", ("lambda2", "inf"): "finite"}


@pytest.mark.parametrize("channel", ["constructor", "--set", "config file",
                                     "checkpoint"])
@pytest.mark.parametrize("key,value", list(OUT_OF_RANGE))
def test_out_of_range_value_names_key(channel, key, value, edge_files, tmp_path):
    """Each config channel refuses a value out of its field's range,
    naming the key, before any run directory exists; a bad file value
    fails though a flag would override it."""
    error = f"config key {key} must be {OUT_OF_RANGE[key, value]}"
    if channel == "constructor":
        kind = {f.name: f.type for f in dataclasses.fields(TrainConfig)}[key]
        with pytest.raises(ValueError, match=re.escape(error)):
            TrainConfig(**{key: read_value(key, value, kind)})
        return
    inter_path, soc_path = edge_files
    runs = tmp_path / "runs"
    args = ["train", "--interactions", inter_path, "--social", soc_path,
            "--out", str(runs), "--epochs", "1", "--dim", "4", "--batch", "16",
            "--negatives", "3", "--set", "cutoffs=5,10"]
    if channel == "--set":
        where, args = "command line", [*args, "--set", f"{key}={value}"]
    elif channel == "config file":
        where = "config file"
        (tmp_path / "exp.cfg").write_text(f"{key}={value}\n")
        args += ["--config", str(tmp_path / "exp.cfg")]
    else:
        _, _, run_dir = run_train(fast_spec(edge_files, tmp_path / "trained",
                                            run_name="t"))
        ckpt = os.path.join(run_dir, "checkpoint")
        where = os.path.join(ckpt, "config")
        text = open(where).read()
        open(where, "w").write(re.sub(f"(?m)^{key}=.*$", f"{key}={value}", text))
        args = ["eval", "--checkpoint", ckpt, *args[1:]]
    with pytest.raises(ValueError, match=re.escape(f"{where}: {error}")):
        main(args)
    assert not runs.exists()


# every field away from its default; eval takes negatives and cutoffs from
# its own command line
TRAINED = TrainConfig(dim=6, layers=1, lr=4e-3, lr_decay=0.9, batch=32, lambda1=0.2,
                      lambda2=0.25, lambda3=2e-6, epochs=2, patience=3, agg="mean",
                      variant="contrastive", infonce_tau=0.2, seed=7, negatives=4,
                      cutoffs=(3, 7))
EVAL_FLAGS = {"negatives": 5, "cutoffs": (2, 4)}


@pytest.fixture(scope="module")
def replays(tmp_path_factory):
    """TRAINED as read back from its run's echo, from its checkpoint and by
    `socrec eval` on that checkpoint, which is given no other config."""
    tmp = tmp_path_factory.mktemp("replays")
    inter, soc = random_tables(14, 20, min_items=4, max_items=6, tie_prob=0.3, seed=15)
    inter_path, soc_path = write_edge_files(inter, soc, str(tmp / "raw"))
    _, _, run_dir = run_train(ExperimentSpec(
        config=TRAINED, interactions_path=inter_path, social_path=soc_path,
        out_dir=str(tmp / "runs"), run_name="trained"))
    ckpt = os.path.join(run_dir, "checkpoint")
    seen, write_report = [], experiments._write_report

    def spy(spec, ds, ms, cfg, out):
        seen.append(cfg)
        return write_report(spec, ds, ms, cfg, out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "_write_report", spy)
        assert main(["eval", "--interactions", inter_path, "--social", soc_path,
                     "--out", str(tmp / "runs"), "--checkpoint", ckpt,
                     "--negatives", str(EVAL_FLAGS["negatives"]),
                     "--set", f"cutoffs={','.join(map(str, EVAL_FLAGS['cutoffs']))}"]) == 0
    return {"echo": build_config(parse_config_file(os.path.join(run_dir, "config")), {}),
            "checkpoint": checkpoint_config(ckpt)[2], "eval": seen[0],
            "model": load_checkpoint(ckpt), "checkpoint_dir": ckpt}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TrainConfig)])
def test_every_field_survives_each_round_trip(field, replays):
    """A trained value comes back, with its type, from the run's echo, the
    checkpoint and eval's replay; eval's own flags set negatives and cutoffs."""
    trained = getattr(TRAINED, field)
    assert trained != getattr(TrainConfig(), field)
    for way, want in (("echo", trained), ("checkpoint", trained),
                      ("eval", EVAL_FLAGS.get(field, trained))):
        got = getattr(replays[way], field)
        assert type(got) is type(want) and got == want, way
    ms = replays["model"]
    assert (ms.dim, ms.num_layers, ms.agg) == (TRAINED.dim, TRAINED.layers, TRAINED.agg)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TrainConfig)])
def test_checkpoint_without_a_field_names_it(field, replays, tmp_path):
    """No default stands in for a trained value a checkpoint lacks."""
    ckpt = tmp_path / "ckpt"
    shutil.copytree(replays["checkpoint_dir"], ckpt)
    config = ckpt / "config"
    config.write_text("".join(line for line in config.read_text().splitlines(True)
                              if not line.startswith(f"{field}=")))
    with pytest.raises(ValueError, match=re.escape(f"{config} has no {field}= line")):
        load_checkpoint(str(ckpt))
