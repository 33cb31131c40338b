"""Tests for the experiment runner, the table/figure generators and the CLI.

These use a deliberately tiny profile (very small synthetic datasets, two
training epochs) so the whole module runs in seconds; the full-shape
regeneration lives in the benchmark suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentConfig, ExperimentProfile
from repro.experiments.figures import figure3_side_effects
from repro.experiments.runner import run_experiment
from repro.experiments.tables import (
    defense_table,
    detection_table,
    table2_dataset_sizes,
    table3_xi_sweep,
    table6_data_poisoning,
    table7_effectiveness,
    table9_ablation,
)

#: A profile small enough that a single run takes a fraction of a second.
TINY_PROFILE = ExperimentProfile(
    name="tiny",
    num_epochs=2,
    clients_per_round=32,
    num_factors=8,
    eval_num_negatives=10,
    learning_rate=0.05,
    dataset_scales={"ml-100k": 0.05, "ml-1m": 0.008, "steam-200k": 0.015},
    seed=1,
)


class TestRunExperiment:
    def test_clean_run_produces_metrics(self):
        config = TINY_PROFILE.apply(ExperimentConfig(dataset="ml-100k", attack="none", rho=0.0))
        result = run_experiment(config)
        assert result.exposure is not None
        assert result.accuracy is not None
        assert result.num_malicious == 0
        assert 0.0 <= result.hr_at_10 <= 1.0
        assert len(result.history) == config.num_epochs

    def test_attack_run_injects_malicious_clients(self):
        config = TINY_PROFILE.apply(
            ExperimentConfig(dataset="ml-100k", attack="fedrecattack", rho=0.1)
        )
        result = run_experiment(config)
        assert result.num_malicious >= 1
        assert result.target_items.shape == (config.num_target_items,)

    def test_reproducible_given_seed(self):
        config = TINY_PROFILE.apply(ExperimentConfig(dataset="ml-100k", attack="none", rho=0.0))
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.er_at_10 == pytest.approx(b.er_at_10)
        assert a.hr_at_10 == pytest.approx(b.hr_at_10)
        np.testing.assert_allclose(a.history.training_loss(), b.history.training_loss())

    def test_evaluate_every_controls_history(self):
        config = TINY_PROFILE.apply(
            ExperimentConfig(dataset="ml-100k", attack="none", rho=0.0, evaluate_every=1)
        )
        result = run_experiment(config)
        assert result.history.evaluated_epochs().shape[0] == config.num_epochs

    def test_invalid_config_rejected(self):
        config = TINY_PROFILE.apply(ExperimentConfig(dataset="ml-100k", attack="fedrecattack", rho=0.0))
        with pytest.raises(Exception):
            run_experiment(config)


class TestTableGenerators:
    def test_table2_contains_all_datasets(self):
        table = table2_dataset_sizes(TINY_PROFILE)
        assert set(table.raw) == {"ml-100k", "ml-1m", "steam-200k"}
        for stats in table.raw.values():
            assert stats["num_users"] > 0
            assert 0.0 < stats["sparsity"] < 1.0
        assert "Sparsity" in table.to_text()

    def test_table3_shape(self):
        table = table3_xi_sweep(TINY_PROFILE, xis=(0.0, 0.05))
        assert set(table.raw) == {"xi=0.0", "xi=0.05"}
        assert len(table.rows) == 3  # ER@5, ER@10, NDCG@10
        for metrics in table.raw.values():
            assert set(metrics) == {"ER@5", "ER@10", "NDCG@10"}

    def test_table6_has_all_attacks(self):
        table = table6_data_poisoning(TINY_PROFILE, rhos=(0.05,), attacks=("none", "fedrecattack"))
        assert set(table.raw) == {"none", "fedrecattack"}
        assert "rho=0.05" in table.raw["none"]

    def test_table7_nested_structure(self):
        table = table7_effectiveness(
            TINY_PROFILE, datasets=("ml-100k",), attacks=("none", "random"), rhos=(0.05,)
        )
        assert set(table.raw) == {"ml-100k"}
        assert set(table.raw["ml-100k"]) == {"none", "random"}
        assert "ER@10" in table.raw["ml-100k"]["random"]["rho=0.05"]
        assert len(table.rows) == 2

    def test_table9_includes_zero_xi(self):
        table = table9_ablation(TINY_PROFILE, datasets=("ml-100k",), xis=(0.05, 0.0))
        assert "xi=0.0" in table.raw["ml-100k"]
        assert "xi=0.05" in table.raw["ml-100k"]

    def test_defense_table_rows(self):
        table = defense_table(TINY_PROFILE, aggregators=("sum", "median"), rho=0.1)
        assert set(table.raw) == {"sum", "median"}
        for metrics in table.raw.values():
            assert set(metrics) == {"ER@10", "HR@10"}

    def test_detection_table_rows(self):
        table = detection_table(TINY_PROFILE, attacks=("eb",), rho=0.1, round_stride=1)
        assert set(table.raw) == {"eb"}
        detectors = table.raw["eb"]
        assert set(detectors) == {"gradient-norm", "nonzero-rows", "target-concentration"}
        for metrics in detectors.values():
            assert 0.0 <= metrics["recall"] <= 1.0
            assert 0.0 <= metrics["precision"] <= 1.0


class TestFigureGenerator:
    def test_figure3_series_shapes(self):
        figure = figure3_side_effects(TINY_PROFILE, dataset="ml-100k", rhos=(0.1,), evaluations=2)
        assert set(figure.labels()) == {"None", "rho=10%"}
        for series in figure.series.values():
            assert series["training_loss"].shape[0] == TINY_PROFILE.num_epochs
            assert series["hr_at_10"].shape[0] >= 1
        text = figure.to_text()
        assert "HR@10" in text
        assert figure.final_hr_at_10("None") >= 0.0
        assert np.isfinite(figure.final_training_loss("None"))


class TestCLI:
    def test_parser_has_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--dataset", "ml-100k", "--attack", "none"])
        assert args.command == "run"
        args = parser.parse_args(["table", "7"])
        assert args.table == "7"
        args = parser.parse_args(["figure", "3"])
        assert args.figure == "3"

    def test_run_command_prints_metrics(self, capsys):
        exit_code = main(
            [
                "run",
                "--dataset", "ml-100k",
                "--attack", "none",
                "--scale", "0.05",
                "--epochs", "2",
                "--factors", "8",
                "--clients-per-round", "32",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "ER@10" in captured.out
        assert "HR@10" in captured.out

    def test_run_command_with_attack(self, capsys):
        exit_code = main(
            [
                "run",
                "--dataset", "ml-100k",
                "--attack", "random",
                "--scale", "0.05",
                "--epochs", "2",
                "--factors", "8",
                "--rho", "0.1",
            ]
        )
        assert exit_code == 0
        assert "malicious clients" in capsys.readouterr().out

    def test_unknown_attack_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--attack", "bogus"])

    def test_table_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "42"])

    def test_run_command_switch_flags(self, capsys):
        exit_code = main(
            [
                "run",
                "--dataset", "ml-100k",
                "--attack", "none",
                "--scale", "0.05",
                "--epochs", "2",
                "--factors", "8",
                "--clients-per-round", "32",
                "--straggler-policy", "discard",
                "--min-reporters", "2",
            ]
        )
        assert exit_code == 0
        assert "HR@10" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, error",
        (
            (["--straggler-policy", "late"], ConfigurationError),
            (["--min-reporters", "-1"], ConfigurationError),
            # The realization switches are gone: their flags are unknown.
            (["--engine", "vectorized"], SystemExit),
            (["--sampler", "batched"], SystemExit),
            (["--eval-engine", "vectorized"], SystemExit),
            (["--eval-sampler", "batched"], SystemExit),
            (["--eval-path", "candidates"], SystemExit),
        ),
        ids=lambda value: value[0] if isinstance(value, list) else value.__name__,
    )
    def test_rejected_flags(self, flags, error, capsys):
        with pytest.raises(error):
            main(["run", "--dataset", "ml-100k", "--attack", "none", *flags])
        if error is SystemExit:
            assert "unrecognized arguments" in capsys.readouterr().err
