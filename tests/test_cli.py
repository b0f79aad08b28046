"""CLI command wiring."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_datasets_command(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "Wiki-Talk" in out
    assert "friendster" in out


def test_run_command(capsys):
    code = main([
        "run", "fb", "--batch-size", "500", "--num-batches", "3",
        "--algorithm", "none", "--mode", "abr",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "update time" in out
    assert "fb @ 500" in out


def test_run_command_with_oca(capsys):
    code = main([
        "run", "fb", "--batch-size", "500", "--num-batches", "3",
        "--algorithm", "pr", "--mode", "abr_usc", "--oca",
    ])
    assert code == 0
    assert "oca" in capsys.readouterr().out


def test_run_rejects_unknown_dataset():
    with pytest.raises(SystemExit):
        main(["run", "not-a-dataset"])


def test_characterize_command(capsys):
    assert main(["characterize", "fb", "--num-batches", "2"]) == 0
    out = capsys.readouterr().out
    assert "RO characterization" in out
    assert "adverse" in out or "friendly" in out


def test_hau_command(capsys):
    code = main(["hau", "fb", "--batch-size", "500", "--num-batches", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "update speedup" in out
    assert "Fig. 19" in out
    assert "Fig. 20" in out
