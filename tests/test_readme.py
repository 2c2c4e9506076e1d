"""The README's examples, run through the command line and the library.

Each `$ forestry ...` line in a plain code block runs through cli.main in
process.  Where output is shown under it, stdout must match it exactly
(the first lines only, for a `| head -N` pipe); where none is shown, the
command must exit 0.  An `echo ... |` prefix becomes stdin.
"""

import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

from forestry.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# (language, body) of each fenced code block, in order
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.S | re.M)


def _examples():
    """(command line, shown output lines) for each `$` line of a plain code block."""
    out = []
    for block in (body for lang, body in BLOCKS if not lang):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            line, *shown = chunk.rstrip("\n").split("\n")
            out.append((line, shown))
    return out


EXAMPLES = _examples()


def test_the_readme_has_examples():
    lines = [line for line, _ in EXAMPLES]
    assert 'echo "1 0" | forestry count' in lines
    assert "forestry catalog | head -4" in lines
    assert sum(1 for _, shown in EXAMPLES if shown) >= 5


@pytest.mark.parametrize("line, shown", EXAMPLES, ids=[line for line, _ in EXAMPLES])
def test_readme_command(line, shown, monkeypatch):
    stages = [shlex.split(stage) for stage in line.split("|")]
    stdin = ""
    if stages[0][0] == "echo":
        stdin = " ".join(stages.pop(0)[1:]) + "\n"
    (prog, *argv), *after = stages
    assert prog == "forestry"
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    assert rc == 0
    got = out.getvalue().splitlines(keepends=True)
    if after:
        ((head, count),) = after
        assert head == "head" and count.startswith("-")
        got = got[: int(count[1:])]
    if shown:
        assert "".join(got) == "".join(s + "\n" for s in shown)


def test_readme_quick_start(capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    expected = re.findall(r"#\s*(\S+)\s*$", code, re.M)
    assert expected == ["38", "16"]
    exec(code, {})
    assert capsys.readouterr().out.split() == expected
