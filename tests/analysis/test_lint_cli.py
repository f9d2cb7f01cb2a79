"""CLI behaviour of ``repro lint``: exit codes and text output.

Every test that lints runs on a small pretend repo in ``tmp_path`` — the RL003
fixture twin planted at ``src/repro/serve/fixture_storage.py`` — so no test here
lints the shipped tree (``test_lint_src_clean.py`` does that, once).
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.analysis.cli import main as lint_main
from repro.experiments.cli import main as repro_main

FIXTURES = Path(__file__).parent / "fixtures"


def plant_tree(tmp_path: Path, fixture: str) -> Path:
    """A minimal pretend repo whose serve package is one fixture twin."""
    serve_dir = tmp_path / "src" / "repro" / "serve"
    serve_dir.mkdir(parents=True)
    shutil.copy(FIXTURES / fixture, serve_dir / "fixture_storage.py")
    return tmp_path


def plant_bad_tree(tmp_path: Path) -> Path:
    """A minimal pretend repo whose serve package imports pickle."""
    return plant_tree(tmp_path, "rl003_bad.py")


def test_shipped_tree_exits_zero(tmp_path, monkeypatch, capsys):
    """The CLI exits 0 on a clean tree.

    A planted good twin stands in for the shipped tree, which
    ``test_lint_src_clean.py`` lints once per session.
    """
    monkeypatch.chdir(plant_tree(tmp_path, "rl003_good.py"))
    assert lint_main(["src"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_bad_tree_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(plant_bad_tree(tmp_path))
    assert lint_main(["src"]) == 1
    out = capsys.readouterr().out
    assert "RL003" in out
    assert "fixture_storage.py" in out


def test_unknown_rule_id_is_a_usage_error(capsys):
    assert lint_main(["src", "--rules", "RL999"]) == 2
    assert "RL999" in capsys.readouterr().err


def test_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RL001", "RL003", "RL005", "RL009", "RL012"):
        assert rule_id in out
    for rule_id in ("RL002", "RL004", "RL006", "RL007", "RL008", "RL010", "RL011"):
        assert rule_id not in out


def test_experiments_cli_dispatches_lint(tmp_path, monkeypatch):
    monkeypatch.chdir(plant_tree(tmp_path, "rl003_good.py"))
    assert repro_main(["lint", "src"]) == 0
    monkeypatch.chdir(plant_bad_tree(tmp_path / "bad"))
    assert repro_main(["lint", "src"]) == 1


@pytest.mark.parametrize("flag", [["--help"], ["lint", "--help"]])
def test_help_exits_zero(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        lint_main(flag)
    assert exc.value.code == 0
    assert "reprolint" in capsys.readouterr().out.lower()
