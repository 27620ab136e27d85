"""The program as a user starts it: the installed script and ``python -m``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from hilbseries import cli

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parents[1]


def run_module(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "hilbseries.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_the_script_is_cli_main():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts["hilbseries"] == "hilbseries.cli:main"


def test_module_run_prints_what_main_prints(capsys):
    argv = ["series", "--family", "y", "--order", "5"]
    assert cli.main(list(argv)) == 0
    done = run_module(*argv)
    assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")


def test_module_run_refusal_is_one_stderr_line():
    done = run_module("oracle", "--surface", "p2", "--class", "O(1)", "--n", "30",
                      "--kind", "segre")
    assert (done.returncode, done.stdout) == (2, "")
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("hilbseries: error: ")
