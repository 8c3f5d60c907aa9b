"""Every ``python -m repro …`` command the docs show parses with the CLI.

A verb or flag the parser no longer has would otherwise survive in a
README example until a user runs it.  Each command is cut at the end of
its inline code span, at a line continuation (``\\``), a comment (``#``)
or a shell operator (``|``, ``&&``, ``&``, ``;``, ``>``), shell-split and
handed to :func:`repro.cli.build_parser`.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path
from typing import Iterator, List, Tuple

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[2]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
        ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
COMMAND = re.compile(r"python -m repro (?P<args>[^`\n]*)")


def _argv(text: str) -> List[str]:
    """The arguments of one command line, up to its first shell operator."""
    lexer = shlex.shlex(text.split("\\")[0], posix=True,
                        punctuation_chars=True)
    lexer.whitespace_split = True
    argv = []
    for token in lexer:
        if set(token) <= set(lexer.punctuation_chars):
            break
        argv.append(token)
    return argv


def documented_commands() -> Iterator[Tuple[str, List[str]]]:
    """``(file:line, argv)`` of every ``python -m repro`` command shown."""
    for path in DOCS:
        lines = path.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, 1):
            for match in COMMAND.finditer(line):
                yield (f"{path.relative_to(ROOT)}:{number}",
                       _argv(match["args"]))


def test_argv_stops_at_comments_continuations_and_operators():
    assert _argv("report build   # html") == ["report", "build"]
    assert _argv("campaign run all --bind 0.0.0.0:9100 \\") == [
        "campaign", "run", "all", "--bind", "0.0.0.0:9100"]
    assert _argv("campaign run fig6 -j 4 && \\") == [
        "campaign", "run", "fig6", "-j", "4"]
    assert _argv("campaign serve --bind h:1 &") == [
        "campaign", "serve", "--bind", "h:1"]
    assert _argv("fuzz | tee log") == ["fuzz"]


def test_every_documented_command_parses():
    commands = list(documented_commands())
    assert any(argv[:2] == ["campaign", "run"] for _, argv in commands)
    broken = []
    for where, argv in commands:
        usage = io.StringIO()
        try:
            with contextlib.redirect_stderr(usage):
                build_parser().parse_args(argv)
        except SystemExit:
            broken.append(f"{where}: python -m repro {' '.join(argv)}: "
                          f"{usage.getvalue().strip().splitlines()[-1]}")
    assert not broken, "\n".join(broken)
