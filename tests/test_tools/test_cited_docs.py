"""Every document a program file cites exists.

A ``.py`` file under ``src/``, ``examples/``, ``benchmarks/`` or
``tools/`` that names ``docs/NAME.md`` or an upper-case ``NAME.md``
points its reader at that file; a name that resolves to nothing — a
document deleted or never written — sends them nowhere.  A ``docs/``
path is resolved against the repository root, an upper-case name
against the root or the citing file's own directory (a benchmark's
``README.md`` sits beside it).
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CITING = ("src", "examples", "benchmarks", "tools")
CITATION = re.compile(r"(?<![\w/.-])(docs/[\w.-]+\.md|[A-Z][A-Z0-9_]*\.md)\b")


def citations():
    """``(file, line number, cited name)`` of every citation."""
    for top in CITING:
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            for number, line in enumerate(text.splitlines(), 1):
                for name in CITATION.findall(line):
                    yield path, number, name


def test_the_pattern_finds_both_forms():
    found = CITATION.findall("see docs/architecture.md and DESIGN.md, "
                             "not tools/x.md or foo/NOTES.md")
    assert found == ["docs/architecture.md", "DESIGN.md"]


def test_every_cited_document_exists():
    cited = list(citations())
    assert len(cited) > 10
    missing = [f"{path.relative_to(ROOT)}:{number}: {name}"
               for path, number, name in cited
               if not ((ROOT / name).is_file()
                       or (not name.startswith("docs/")
                           and (path.parent / name).is_file()))]
    assert missing == []
