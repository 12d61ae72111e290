"""The README's examples, run as written.

Each ``polydiv ...`` line in the README's "Command line" section is split
as a shell would split it and served through ``cli.main``; its stdout
must match the ``# `` lines under it. A JSON reply is compared after
parsing, and a ``# ...`` line stands for any run of lines. The ``>>>``
examples in the library modules run under doctest.
"""
import doctest
import json
import re
import shlex
from pathlib import Path

import pytest

from polydiv import cli, closedform, detengine, polycore

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_examples():
    section = README.read_text().split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.splitlines():
            if line.startswith("polydiv "):
                examples.append((line, []))
            elif line.startswith("# "):
                examples[-1][1].append(line[2:])
    return examples


EXAMPLES = _cli_examples()


def _pattern(expected: list[str]) -> str:
    return "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in expected)


@pytest.mark.parametrize(("command", "expected"), [pytest.param(*e, id=e[0]) for e in EXAMPLES])
def test_readme_cli_example(capsys, command, expected):
    assert cli.main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    if expected[0].startswith("{"):
        assert json.loads(out) == json.loads(" ".join(expected))
    else:
        assert re.fullmatch(_pattern(expected), out), out


def test_readme_has_cli_examples():
    assert len(EXAMPLES) == 5


def test_library_doctests():
    results = [doctest.testmod(module) for module in (cli, closedform, detengine, polycore)]
    assert sum(r.attempted for r in results) > 0
    assert sum(r.failed for r in results) == 0
