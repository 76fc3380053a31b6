"""The study scripts in scripts/ run end to end on small inputs."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["closed_sum_study.py", "--count", "3", "--digits", "20"],
        ["orthogonality_report.py", "--count", "3"],
        ["reconstruction_convergence.py", "--counts", "3", "5", "--digits", "20"],
    ],
)
def test_script_runs(argv, monkeypatch, capsys):
    path = str(SCRIPTS / argv[0])
    monkeypatch.setattr(sys, "argv", [path, *argv[1:]])
    runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out.startswith("# q=")
