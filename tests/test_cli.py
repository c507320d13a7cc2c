"""Tests for the ``python -m repro`` entry point."""

from repro.__main__ import main


def test_default_summary(capsys):
    assert main([]) == 0
    output = capsys.readouterr().out
    assert "TOPS" in output and "This Work" in output


def test_demo(capsys):
    assert main(["demo"]) == 0
    output = capsys.readouterr().out
    assert "ADC codes" in output


def test_adc(capsys):
    assert main(["adc"]) == 0
    output = capsys.readouterr().out
    assert "V_IN" in output
    assert output.count("\n") >= 13


def test_unknown_command(capsys):
    assert main(["bogus"]) == 2
    assert main(["serve-bench"]) == 2
    output = capsys.readouterr().out
    assert "unknown command" in output
    assert "'lint'" in output and "'obs'" in output


def test_obs_command_validation(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["obs"]) == 2
    assert main(["obs", "--trace"]) == 2
    assert main(["obs", "--trace", "missing.json"]) == 2
    assert main(["obs", "--bogus"]) == 2
    output = capsys.readouterr().out
    assert "expects --trace" in output
    assert "not found" in output
