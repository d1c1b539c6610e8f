"""The command line examples in README.md run and print what it shows.

Every `aspw ...` command in a fenced block runs through cli.main in-process
and must exit 0; every `# <line>` written under it, except `# ...`, must be
a line of its output.  Commands with a `--jobs` flag (worker processes) or a
`"..."` placeholder are skipped.
"""

from __future__ import annotations

import pathlib
import shlex

import pytest

from aspw import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list[tuple[list[str], list[str]]]:
    """(argv after `aspw`, expected output lines) per README command."""
    examples = []
    current = None  # the example that "# " lines belong to
    in_block = False
    pending = ""
    for line in README.read_text().splitlines():
        line = line.strip()
        if line.startswith("```"):
            in_block = not in_block
            continue
        if not in_block:
            continue
        line = f"{pending} {line}" if pending else line
        pending = ""
        if line.endswith("\\"):
            pending = line[:-1].rstrip()
        elif line.startswith("aspw "):
            current = (shlex.split(line, comments=True)[1:], [])
            examples.append(current)
        elif line.startswith("# ") and current and line != "# ...":
            current[1].append(line[2:])
        elif not line.startswith("#"):
            current = None
    return [(argv, lines) for argv, lines in examples
            if argv and "--jobs" not in argv and "..." not in argv]


EXAMPLES = readme_examples()


def test_readme_has_examples_with_output():
    assert len(EXAMPLES) >= 10
    assert sum(len(lines) for _, lines in EXAMPLES) >= 8


@pytest.mark.parametrize("argv, lines", EXAMPLES,
                         ids=[" ".join(w for w in a[:2] if w[0] != "-") for a, _ in EXAMPLES])
def test_readme_example(argv, lines, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    for line in lines:
        assert line in out
