"""Tests for the command-line interface regenerating tables and figures."""

from __future__ import annotations

import pytest

from repro.experiments import cli
from repro.experiments.cli import (
    EXPERIMENTS,
    Experiment,
    build_config,
    main,
    run_experiment,
)


def _stub(file_name):
    return Experiment(
        file_name,
        lambda config: [{"seed": config.seed}],
        lambda rows: f"{file_name}: seed {rows[0]['seed']}",
    )


class TestBuildConfig:
    def _args(self, **overrides):
        import argparse

        defaults = dict(
            experiment="table1",
            profile="quick",
            scale=None,
            epochs=None,
            seed=None,
            datasets=None,
            experiences=None,
            output=None,
        )
        defaults.update(overrides)
        return argparse.Namespace(**defaults)

    def test_profile_quick(self):
        config = build_config(self._args())
        assert config.n_experiences_override == 2

    def test_overrides_applied(self):
        config = build_config(
            self._args(scale=0.001, epochs=2, seed=5, datasets=["wustl_iiot"], experiences=3)
        )
        assert config.scale == 0.001
        assert config.epochs == 2
        assert config.seed == 5
        assert config.datasets == ("wustl_iiot",)
        assert config.n_experiences_override == 3


class TestCLIMain:
    def test_experiment_registry_covers_all_tables_and_figures(self):
        assert set(EXPERIMENTS) == {
            "table1",
            "fig1",
            "fig3",
            "table2",
            "fig4",
            "fig5",
            "table3",
            "table4",
        }

    def test_table1_prints_table(self, capsys):
        exit_code = main(["table1", "--profile", "quick", "--scale", "0.001"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Table I" in captured.out

    def test_output_directory_written(self, tmp_path, capsys):
        exit_code = main(
            ["table1", "--profile", "quick", "--scale", "0.001", "--output", str(tmp_path)]
        )
        assert exit_code == 0
        assert (tmp_path / "table1_datasets.txt").exists()

    def test_fig3_quick_run(self, capsys):
        exit_code = main(
            [
                "fig3",
                "--profile",
                "quick",
                "--scale",
                "0.0015",
                "--epochs",
                "1",
                "--datasets",
                "wustl_iiot",
                "--experiences",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "CND-IDS" in captured.out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])


class TestRunExperiment:
    def test_returns_rows_and_text_without_writing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = build_config(TestBuildConfig()._args(seed=3))
        rows, text = run_experiment(_stub("demo"), config)
        assert rows == [{"seed": 3}]
        assert text == "demo: seed 3"
        assert list(tmp_path.iterdir()) == []

    def test_writes_text_with_final_newline(self, tmp_path):
        output = tmp_path / "nested" / "results"
        config = build_config(TestBuildConfig()._args(seed=4))
        _, text = run_experiment(_stub("demo"), config, output)
        assert (output / "demo.txt").read_text() == text + "\n"

    def test_all_writes_every_experiment_under_its_file_name(self, tmp_path, monkeypatch, capsys):
        stubs = {name: _stub(experiment.file_name) for name, experiment in EXPERIMENTS.items()}
        monkeypatch.setattr(cli, "EXPERIMENTS", stubs)
        exit_code = main(["all", "--profile", "quick", "--seed", "7", "--output", str(tmp_path)])
        assert exit_code == 0
        written = {path.name: path.read_text() for path in tmp_path.iterdir()}
        assert written == {
            f"{stub.file_name}.txt": f"{stub.file_name}: seed 7\n" for stub in stubs.values()
        }
        out = capsys.readouterr().out
        assert all(f"{stub.file_name}: seed 7" in out for stub in stubs.values())
