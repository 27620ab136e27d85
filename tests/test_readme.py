"""The README's examples must run as written.

Its Python sketch is executed, and every ``hilbseries`` line of its
"Command line" block is run through ``cli.main`` in a temporary
directory, with backslash continuations joined and the line split as a
shell would split it.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from hilbseries import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def block(heading, lang):
    """The first ``lang`` code block of the README section ``heading``."""
    section = README[README.index("\n## %s\n" % heading):]
    return re.search(r"```%s\n(.*?)```" % lang, section, re.S).group(1)


COMMAND_LINES = block("Command line", "sh").replace("\\\n", " ").splitlines()
COMMANDS = [shlex.split(line)[1:] for line in COMMAND_LINES if line.startswith("hilbseries ")]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_the_library_sketch_runs():
    exec(compile(block("Library sketch", "python"), "README.md", "exec"), {})


def test_every_command_is_found():
    assert len(COMMANDS) == 8
    assert {argv[0] for argv in COMMANDS} == set(cli._COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_every_command_exits_zero(argv, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.ORDER_ENV, raising=False)
    assert run(argv)[0] == 0


def test_the_shown_branch_coefficients_are_printed(monkeypatch):
    # the line after the y-branch command shows what it prints
    monkeypatch.delenv(cli.ORDER_ENV, raising=False)
    command = "hilbseries series --family y --order 5"
    shown = COMMAND_LINES[COMMAND_LINES.index(command) + 1]
    assert shown == "#   1/1, -6/1, 41/1, -314/1, 2630/1"
    code, out = run(shlex.split(command)[1:])
    assert code == 0
    assert out.splitlines()[-1] == shown.lstrip("# ")
