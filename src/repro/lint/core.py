"""Lint framework core: diagnostics, rule registry, context, runner.

The linter is a stdlib-``ast`` static-analysis harness for the repo's
hand-enforced contracts (the PolicyState flat-array rules, the experiment
module exports, the job-hashing field discipline, ...).  It deliberately
never *imports* the code it checks — every rule works from parsed source
trees, so the same rules run identically over the shipped ``src/`` tree,
over test fixtures, and in CI without executing simulator code.

Pieces:

* :class:`Diagnostic` — one ``file:line`` finding of one rule;
* :class:`Rule` + :func:`register_rule` — the rule registry every check
  (including the docs-link checker) plugs into;
* :class:`LintContext` — lazily-parsed view of one source tree (file
  listing, source/AST caches, suppression comments, a cross-file class
  graph for inheritance-aware rules);
* :func:`run_lint` — run a rule set over a context, honouring
  ``# lint: disable=<rule>`` comments, and return sorted diagnostics;
* :func:`format_text` / :func:`format_json` — CLI output renderers.

Suppression syntax (checked per line, trailing prose allowed)::

    risky_statement()          # lint: disable=rule-name
    another()                  # lint: disable=rule-a,rule-b
    # lint: disable-next=rule-name     (suppresses the following line)
    # lint: disable-file=rule-name     (anywhere: whole-file suppression)

See ``docs/static-analysis.md`` for the rule catalogue.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple, Type)

__all__ = [
    "Diagnostic", "LintContext", "Rule", "RULE_REGISTRY", "register_rule",
    "make_rules", "run_lint", "format_text", "format_json", "ClassInfo",
]

#: Rule name reserved for files the parser rejects.
SYNTAX_RULE = "syntax"

_DISABLE_RE = re.compile(
    r"#\s*lint:\s*disable(-file|-next)?=([A-Za-z0-9_\-, ]+)")


@dataclass(frozen=True)
class Diagnostic:
    """One finding: ``rule`` flagged ``path:line`` with ``message``."""

    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        """Render as the conventional ``path:line: [rule] message`` line."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class ClassInfo:
    """One class definition found anywhere in the scanned tree."""

    name: str
    path: Path
    node: ast.ClassDef
    #: Base-class names, reduced to their last dotted segment
    #: (``base.ReplacementPolicy`` -> ``ReplacementPolicy``).
    bases: Tuple[str, ...]


class Rule:
    """Base class of every lint rule.

    Subclasses set :attr:`name` / :attr:`description` and implement
    :meth:`check`, yielding :class:`Diagnostic` objects.  Registration is
    via the :func:`register_rule` decorator.
    """

    #: Registry key, also the token used in suppression comments.
    name: str = ""
    #: One-line summary shown by ``repro lint --list-rules``.
    description: str = ""

    def check(self, ctx: "LintContext") -> Iterator[Diagnostic]:
        """Yield every violation this rule finds in ``ctx``."""
        raise NotImplementedError

    def diag(self, ctx: "LintContext", path: Path, line: int,
             message: str) -> Diagnostic:
        """Build a diagnostic with the context-relative display path."""
        return Diagnostic(self.name, ctx.rel(path), line, message)


RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to :data:`RULE_REGISTRY`."""
    if not cls.name:
        raise ValueError(f"rule class {cls.__name__} has no name")
    if cls.name in RULE_REGISTRY:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    RULE_REGISTRY[cls.name] = cls
    return cls


def make_rules(names: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the selected rules (default: every registered rule)."""
    if names is None:
        return [RULE_REGISTRY[name]() for name in sorted(RULE_REGISTRY)]
    rules = []
    for name in names:
        try:
            rules.append(RULE_REGISTRY[name]())
        except KeyError:
            raise ValueError(
                f"unknown lint rule {name!r}; known: {sorted(RULE_REGISTRY)}"
            ) from None
    return rules


class LintContext:
    """Lazily-parsed view of one source tree (plus its enclosing repo).

    ``src_root`` is the directory holding the ``repro`` package tree (the
    repo's ``src/``); rules address files by their posix path relative to
    it (``repro/cache/state.py``).  ``repo_root`` (default: the parent of
    ``src_root``) anchors documentation checks and display paths.
    """

    def __init__(self, src_root, repo_root=None) -> None:
        self.src_root = Path(src_root).resolve()
        self.repo_root = (Path(repo_root).resolve() if repo_root is not None
                          else self.src_root.parent)
        self._files: Optional[List[Path]] = None
        self._sources: Dict[Path, str] = {}
        self._trees: Dict[Path, Optional[ast.AST]] = {}
        self._syntax_errors: Dict[Path, SyntaxError] = {}
        self._class_graph: Optional[Dict[str, List[ClassInfo]]] = None

    # ------------------------------------------------------------------
    def python_files(self) -> List[Path]:
        """Every ``*.py`` file under ``src_root``, sorted."""
        if self._files is None:
            self._files = sorted(self.src_root.rglob("*.py"))
        return self._files

    def rel(self, path: Path) -> str:
        """Display path: repo-relative when possible, else absolute."""
        resolved = Path(path).resolve()
        for root in (self.repo_root, self.src_root):
            try:
                return resolved.relative_to(root).as_posix()
            except ValueError:
                continue
        return resolved.as_posix()

    def find(self, rel_path: str) -> Optional[Path]:
        """The tree's file at ``rel_path`` (posix, relative to src_root)."""
        candidate = self.src_root / rel_path
        return candidate if candidate.is_file() else None

    def glob(self, pattern: str) -> List[Path]:
        """Scanned files matching a glob relative to ``src_root``."""
        return sorted(p for p in self.python_files()
                      if p.match(pattern) or
                      Path(p.relative_to(self.src_root)).match(pattern))

    # ------------------------------------------------------------------
    def source(self, path: Path) -> str:
        """Cached source text of one file."""
        path = Path(path)
        cached = self._sources.get(path)
        if cached is None:
            cached = path.read_text(encoding="utf-8")
            self._sources[path] = cached
        return cached

    def tree(self, path: Path) -> Optional[ast.AST]:
        """Cached parsed AST of one file (None when it does not parse)."""
        path = Path(path)
        if path not in self._trees:
            try:
                self._trees[path] = ast.parse(self.source(path),
                                              filename=str(path))
            except SyntaxError as exc:
                self._trees[path] = None
                self._syntax_errors[path] = exc
        return self._trees[path]

    def trees(self) -> Iterator[Tuple[Path, ast.AST]]:
        """(path, tree) for every parsable scanned file."""
        for path in self.python_files():
            tree = self.tree(path)
            if tree is not None:
                yield path, tree

    def syntax_error_diagnostics(self) -> List[Diagnostic]:
        """One :data:`SYNTAX_RULE` diagnostic per unparsable file."""
        for path in self.python_files():
            self.tree(path)
        return [Diagnostic(SYNTAX_RULE, self.rel(path),
                           exc.lineno or 1, f"cannot parse: {exc.msg}")
                for path, exc in sorted(self._syntax_errors.items())]

    # ------------------------------------------------------------------
    def suppressions(self, path: Path) -> Tuple[Set[str], Dict[int, Set[str]]]:
        """``# lint: disable`` state of one file.

        Returns ``(file_wide_rules, {line: rules})``.  ``disable`` covers
        its own line, ``disable-next`` the following line (for statements
        too long to carry a trailing comment), ``disable-file`` the whole
        file.
        """
        file_wide: Set[str] = set()
        by_line: Dict[int, Set[str]] = {}
        for lineno, text in enumerate(self.source(path).splitlines(), 1):
            match = _DISABLE_RE.search(text)
            if not match:
                continue
            rules = {token.strip() for token in match.group(2).split(",")
                     if token.strip()}
            variant = match.group(1)
            if variant == "-file":
                file_wide |= rules
            elif variant == "-next":
                by_line.setdefault(lineno + 1, set()).update(rules)
            else:
                by_line.setdefault(lineno, set()).update(rules)
        return file_wide, by_line

    # ------------------------------------------------------------------
    def class_graph(self) -> Dict[str, List[ClassInfo]]:
        """Every class definition in the tree, indexed by class name."""
        if self._class_graph is None:
            graph: Dict[str, List[ClassInfo]] = {}
            for path, tree in self.trees():
                for node in ast.walk(tree):
                    if not isinstance(node, ast.ClassDef):
                        continue
                    bases = tuple(_base_name(b) for b in node.bases
                                  if _base_name(b))
                    graph.setdefault(node.name, []).append(
                        ClassInfo(node.name, path, node, bases))
            self._class_graph = graph
        return self._class_graph

    def ancestors_of(self, info: ClassInfo) -> List[ClassInfo]:
        """In-tree ancestor classes of ``info`` (name-resolved, transitive)."""
        graph = self.class_graph()
        result: List[ClassInfo] = []
        seen: Set[str] = {info.name}
        frontier = list(info.bases)
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            for ancestor in graph.get(name, ()):
                result.append(ancestor)
                frontier.extend(ancestor.bases)
        return result


def _base_name(node: ast.expr) -> str:
    """Last dotted segment of a base-class expression ('' when dynamic)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):       # Generic[...] style bases
        return _base_name(node.value)
    return ""


# ----------------------------------------------------------------------
# Runner and output
# ----------------------------------------------------------------------
def run_lint(ctx: LintContext,
             rules: Optional[Iterable[Rule]] = None) -> List[Diagnostic]:
    """Run ``rules`` (default: all registered) over ``ctx``.

    Unparsable files yield a :data:`SYNTAX_RULE` diagnostic; rule findings
    on lines carrying a matching ``# lint: disable`` comment (or in files
    with a ``disable-file``) are dropped.  Results are sorted by
    ``(path, line, rule)``.
    """
    if rules is None:
        rules = make_rules()
    raw: List[Diagnostic] = list(ctx.syntax_error_diagnostics())
    for rule in rules:
        raw.extend(rule.check(ctx))

    suppression_cache: Dict[str, Tuple[Set[str], Dict[int, Set[str]]]] = {}
    kept: List[Diagnostic] = []
    for diag in raw:
        state = suppression_cache.get(diag.path)
        if state is None:
            path = _resolve_display_path(ctx, diag.path)
            if path is not None and path.suffix == ".py":
                state = ctx.suppressions(path)
            else:
                state = (set(), {})
            suppression_cache[diag.path] = state
        file_wide, by_line = state
        if diag.rule in file_wide or diag.rule in by_line.get(diag.line, ()):
            continue
        kept.append(diag)
    return sorted(set(kept), key=lambda d: (d.path, d.line, d.rule))


def _resolve_display_path(ctx: LintContext, display: str) -> Optional[Path]:
    """Invert :meth:`LintContext.rel` to a readable file, if any."""
    for root in (ctx.repo_root, ctx.src_root, None):
        candidate = root / display if root is not None else Path(display)
        if candidate.is_file():
            return candidate
    return None


def format_text(diagnostics: Sequence[Diagnostic]) -> str:
    """Human-readable report, one ``path:line`` finding per line."""
    if not diagnostics:
        return "lint: clean"
    lines = [diag.format() for diag in diagnostics]
    lines.append(f"lint: {len(diagnostics)} problem(s)")
    return "\n".join(lines)


def format_json(diagnostics: Sequence[Diagnostic]) -> str:
    """Machine-readable report (the CI artifact format)."""
    payload = {
        "count": len(diagnostics),
        "diagnostics": [
            {"rule": d.rule, "path": d.path, "line": d.line,
             "message": d.message}
            for d in diagnostics
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
