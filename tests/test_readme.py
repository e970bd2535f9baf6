"""The command-line examples in README.md print what the README shows.

Each ``$ echo '…' | torolog …`` example and each ``$ torolog …`` example is
run in-process through ``main()``.  A ``> FILE`` redirect keeps the output
for a later ``--input FILE``; every other example's stdout must equal the
lines that follow it in the README.
"""

import contextlib
import io
import pathlib
import re
import shlex
import sys

from torolog.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def examples():
    """(command, expected stdout) for each ``$`` line of the README's sh
    blocks that runs torolog; continuation lines are joined."""
    text = README.read_text(encoding="utf-8")
    return [
        (command.replace("\\\n", " "), expected)
        for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M)
        for command, expected in re.findall(
            r"^\$ ((?:.*\\\n)*.*)\n((?:(?!\$ ).+\n)*)", block, re.M
        )
        if "torolog" in command
    ]


def run(command, files):
    """Run one README command; return its stdout."""
    words = shlex.split(command)
    stdin = ""
    if words[0] == "echo":
        bar = words.index("|")
        stdin = " ".join(words[1:bar]) + "\n"
        words = words[bar + 1:]
    assert words[0] == "torolog", command
    argv, target = words[1:], None
    if ">" in argv:
        argv, target = argv[:argv.index(">")], argv[argv.index(">") + 1]
    if "--input" in argv:
        stdin = files[argv.pop(argv.index("--input") + 1)]
        argv.remove("--input")
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            main(argv)
    finally:
        sys.stdin = saved
    if target is not None:
        files[target] = out.getvalue()
        return None
    return out.getvalue()


def test_every_readme_example_prints_what_the_readme_shows():
    # Four examples; the plane.json pipe is two commands.
    assert len(examples()) == 5
    files = {}
    for command, expected in examples():
        out = run(command, files)
        if out is not None:
            assert out == expected, command
    assert "plane.json" in files
