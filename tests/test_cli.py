import os

import numpy as np
import pytest

from socrec.cli import build_config, main, parse_config_file
from socrec.experiments import (ExperimentSpec, run_ablation, run_case_study,
                                run_eval, run_robustness, run_sweep, run_train)
from socrec.objective import TrainConfig
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
    for key, val in kw.items():
        setattr(spec, key, val)
    return spec


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


class TestRunTrain:
    def test_writes_all_artifacts(self, edge_files, tmp_path):
        spec = fast_spec(edge_files, tmp_path / "runs", run_name="r1")
        _, report, run_dir = run_train(spec)
        for name in ("config", "history.txt", "timing.txt", "report.dat",
                     "report.txt"):
            assert os.path.exists(os.path.join(run_dir, name))
        for name in ("shape", "E_u", "E_v", "T", "w", "c", "config"):
            assert os.path.exists(os.path.join(run_dir, "checkpoint", name))
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
        # the eval config keeps layers=1; the checkpoint's stored L=0 must win
        ev = fast_spec(edge_files, tmp_path / "runs", run_name="l0-eval",
                       checkpoint=os.path.join(run_dir, "checkpoint"))
        back, _ = run_eval(ev)
        assert back.hr == report.hr
        assert back.ndcg == report.ndcg

    def test_missing_data_source_fatal(self, tmp_path):
        spec = ExperimentSpec(config=fast_cfg(), out_dir=str(tmp_path))
        with pytest.raises(ValueError):
            run_train(spec)


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

        def flaky(ds, cfg, eval_seed=0, progress=None):
            if cfg.variant == "contrastive":
                raise RuntimeError("boom")
            return real(ds, cfg, eval_seed=eval_seed, progress=progress)

        monkeypatch.setattr(exp_mod, "train_model", flaky)
        spec = fast_spec(edge_files, tmp_path / "runs", run_name="abl2")
        table, _ = run_ablation(spec)
        assert table["contrastive"] is None
        assert table["full"] is not None


class TestRobustness:
    def test_ratio_rows_and_bit_identity(self, edge_files, tmp_path):
        spec = fast_spec(edge_files, tmp_path / "runs", run_name="rob")
        spec.noise_ratios = (0.0, 0.1)
        reports, run_dir = run_robustness(spec)
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


class TestSweep:
    def test_grid_rows(self, edge_files, tmp_path):
        spec = fast_spec(edge_files, tmp_path / "runs", run_name="sw")
        spec.sweep_axes = {"layers": [1, 2]}
        cells, run_dir = run_sweep(spec)
        assert len(cells) == 2
        lines = open(os.path.join(run_dir, "sweep.dat")).read().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 2 * 2 * 2

    def test_alignment_weight_grid(self, edge_files, tmp_path):
        spec = fast_spec(edge_files, tmp_path / "runs", run_name="swl2")
        spec.sweep_axes = {"lambda2": [1e-6, 1e-5, 1e-4, 1e-3]}
        cells, run_dir = run_sweep(spec)
        assert len(cells) == 4
        assert sorted(c[0]["lambda2"] for c in cells) == [1e-6, 1e-5, 1e-4, 1e-3]

    def test_single_point_grid_equals_train(self, edge_files, tmp_path):
        spec = fast_spec(edge_files, tmp_path / "runs", run_name="sw1")
        spec.sweep_axes = {"layers": [1]}
        cells, _ = run_sweep(spec)
        train_spec = fast_spec(edge_files, tmp_path / "plain", run_name="t")
        _, train_report, _ = run_train(train_spec)
        assert cells[0][1].hr == train_report.hr
        assert cells[0][1].ndcg == train_report.ndcg

    def test_empty_grid_fatal(self, edge_files, tmp_path):
        spec = fast_spec(edge_files, tmp_path / "runs")
        spec.sweep_axes = {}
        with pytest.raises(ValueError):
            run_sweep(spec)


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
        spec.checkpoint = os.path.join(train_dir, "checkpoint")
        spec.sample = 3
        export, _ = run_case_study(spec)
        assert len(export.rows) == 3


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
