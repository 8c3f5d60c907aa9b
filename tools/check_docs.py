#!/usr/bin/env python
"""Documentation checker: required files exist, internal links resolve.

Scans every tracked-directory Markdown file (repo root and ``docs/``,
recursively) for inline links and images ``[text](target)`` and verifies

* each *relative* file target exists on disk (external schemes skipped);
* each anchor — ``#section`` within the same file or
  ``other.md#section`` across files — names a real heading in the target
  document (GitHub slug rules: lowercase, punctuation stripped, spaces to
  hyphens, ``-1``/``-2`` suffixes for duplicates).

Also asserts the documentation the repo promises is actually present
(``README.md``, ``docs/architecture.md``, ``docs/reproducing.md``,
``docs/examples.md``, ``docs/static-analysis.md``).

The same checks run behind the lint-rule registry as the ``docs-links``
rule of ``python -m repro lint`` (see ``src/repro/lint/rules_docs.py``);
this script stays the standalone zero-dependency entry point.

Run from anywhere::

    python tools/check_docs.py

Exit status 0 = all good, 1 = problems (listed on stderr).  No
dependencies beyond the standard library, so the CI docs job needs no
installs.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, Iterable, Set

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Documentation that must exist.
REQUIRED = ("README.md", "docs/architecture.md", "docs/reproducing.md",
            "docs/examples.md", "docs/static-analysis.md", "CHANGES.md",
            "ROADMAP.md")

_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
_SCHEMES = ("http://", "https://", "mailto:", "ftp://")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_HTML_ANCHOR_RE = re.compile(r"<a\s+(?:name|id)=[\"']([^\"']+)[\"']")
_FENCE_RE = re.compile(r"^(```|~~~)")
_CODE_SPAN_RE = re.compile(r"`[^`\n]*`")


def markdown_files() -> Iterable[Path]:
    yield from sorted(REPO_ROOT.glob("*.md"))
    docs = REPO_ROOT / "docs"
    if docs.is_dir():
        yield from sorted(docs.rglob("*.md"))


def github_slug(heading: str) -> str:
    """GitHub's heading -> anchor slug: lowercase, drop punctuation,
    spaces to hyphens (underscores are preserved, as GitHub does).
    Inline code/emphasis markers and link syntax are stripped first so
    ``## `repro report` flow`` slugs correctly."""
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)  # [txt](url)
    text = text.replace("`", "").replace("*", "").lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return re.sub(r" ", "-", text.strip())


def anchors_of(text: str) -> Set[str]:
    """Every anchor a Markdown document defines (headings + <a id=...>).

    Fenced code blocks are skipped so a ``# comment`` inside an example
    does not register as a heading.  Duplicate headings get the GitHub
    ``-1`` / ``-2`` suffixes *in addition to* keeping the base slug.
    """
    anchors: Set[str] = set()
    counts: Dict[str, int] = {}
    in_fence = False
    for line in text.splitlines():
        if _FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING_RE.match(line)
        if match:
            slug = github_slug(match.group(2))
            n = counts.get(slug, 0)
            counts[slug] = n + 1
            anchors.add(slug if n == 0 else f"{slug}-{n}")
        for html_anchor in _HTML_ANCHOR_RE.findall(line):
            anchors.add(html_anchor)
    return anchors


class DocIndex:
    """Lazily caches the anchor set of every Markdown file touched."""

    def __init__(self) -> None:
        self._anchors: Dict[Path, Set[str]] = {}

    def anchors(self, path: Path) -> Set[str]:
        resolved = path.resolve()
        cached = self._anchors.get(resolved)
        if cached is None:
            cached = anchors_of(resolved.read_text(encoding="utf-8"))
            self._anchors[resolved] = cached
        return cached


def check_links(path: Path, index: DocIndex) -> Iterable[str]:
    """Yield human-readable problem strings for one Markdown file."""
    text = path.read_text(encoding="utf-8")
    # Inline code renders verbatim: ``record[t](line)`` is not a link.
    # Blank the spans in place so match offsets keep their line numbers.
    text = _CODE_SPAN_RE.sub(lambda m: " " * len(m.group()), text)
    for match in _LINK_RE.finditer(text):
        raw = match.group(1).strip("<>")  # [x](<file.md#sec>) form
        if raw.startswith(_SCHEMES):
            continue
        line = text[:match.start()].count("\n") + 1
        target, _, fragment = raw.partition("#")
        if target:
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                yield (f"{path.relative_to(REPO_ROOT)}:{line}: "
                       f"broken link -> {target}")
                continue
        else:
            resolved = path.resolve()
        if fragment and resolved.suffix == ".md":
            if fragment not in index.anchors(resolved):
                yield (f"{path.relative_to(REPO_ROOT)}:{line}: "
                       f"broken anchor -> {raw} "
                       f"(no heading slugs to #{fragment})")


def main() -> int:
    problems = []
    for required in REQUIRED:
        if not (REPO_ROOT / required).is_file():
            problems.append(f"missing required documentation: {required}")
    files = list(markdown_files())
    if not files:
        problems.append("no Markdown files found at all")
    index = DocIndex()
    for path in files:
        problems.extend(check_links(path, index))
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"docs check: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"docs check: {len(files)} file(s) ok, required docs present")
    return 0


if __name__ == "__main__":
    sys.exit(main())
