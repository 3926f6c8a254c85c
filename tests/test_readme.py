"""The examples in README.md, run as written.

Each ``$ linperm ...`` line of a shell block must print exactly the lines
that follow it.  ``bench`` prints machine-dependent timings and the 729
``verify`` takes about 6 s, so both are left out here; the acceptance
suite compares the ``verify`` block with the report of its own sweep.  The library example is executed and its printed value
compared with the comment on its ``print`` line.
"""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from linperm.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
SKIPPED = ("bench", "verify")


def _blocks(lang):
    text = README.read_text()
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def _commands():
    """(argv, expected output lines) for every ``$ linperm`` example."""
    out = []
    for block in _blocks(""):
        for chunk in block.strip().split("\n\n"):
            first, *expected = chunk.splitlines()
            if first.startswith("$ linperm "):
                out.append((shlex.split(first)[2:], expected))
    return out


COMMANDS = _commands()


def test_examples_found():
    names = [argv[0] for argv, _ in COMMANDS]
    assert names == ["field", "check", "invert", "lift", "verify", "bench"]


@pytest.mark.parametrize("argv,expected", [
    pytest.param(argv, expected, id=argv[0])
    for argv, expected in COMMANDS if argv[0] not in SKIPPED])
def test_cli_example(capsys, argv, expected):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == expected
    assert captured.err == ""


def test_library_example():
    (code,) = _blocks("python")
    printed = re.search(r"^print\(.*\)\s+# (.*?):", code, re.M).group(1)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(code, str(README), "exec"), {})
    assert buf.getvalue().splitlines() == [printed]
