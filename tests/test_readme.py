"""The README's library quick tour and CLI examples run as written."""

import doctest
import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cuberow.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"

# A fenced block whose first line is a cuberow command; the rest is its stdout.
CLI_BLOCKS = re.findall(r"^```[^\n]*\n\$ (cuberow [^\n]*)\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_examples_run():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_has_cli_examples():
    assert len(CLI_BLOCKS) >= 4


@pytest.mark.parametrize(
    "command, shown",
    CLI_BLOCKS,
    ids=["-".join(a for a in command.split()[1:] if not a.startswith("--")) for command, _ in CLI_BLOCKS],
)
def test_readme_cli_example_matches_stdout(command, shown):
    # A "  ..." line stands for any run of lines.
    pattern = "".join(r"(?:.*\n)*?" if line == "  ..." else re.escape(line) + r"\n" for line in shown.splitlines())
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(shlex.split(command)[1:])
    assert code == EXIT_OK
    assert re.fullmatch(pattern, out.getvalue()), out.getvalue()
