"""Every ``repro`` name an example imports still exists.

The examples job runs each example end to end; this checks the cheaper
half of that in tier-1, without running one: parse every
``examples/*.py`` and resolve each ``import repro...`` and
``from repro... import name``.  Deleting or renaming a public name an
example still reads then fails here, not only in the examples job.
"""

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


def repro_imports(path: Path):
    """``(line, module, name or None)`` for each ``repro`` import."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield node.lineno, alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "repro" and not node.level:
            for alias in node.names:
                yield node.lineno, node.module, alias.name


def unresolved(module_name: str, name):
    """Why ``from module_name import name`` would fail (None if it
    would not)."""
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        return f"module {module_name}: {exc}"
    if name is None or name == "*" or hasattr(module, name):
        return None
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return f"{module_name} has no {name}"
    return None


def test_examples_are_found():
    assert len(EXAMPLES) >= 5
    assert any(path.name == "quickstart.py" for path in EXAMPLES)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_every_repro_import_resolves(path):
    imports = list(repro_imports(path))
    assert imports, f"{path.name} imports nothing from repro"
    failures = [f"line {line}: {why}" for line, module, name in imports
                if (why := unresolved(module, name))]
    assert failures == []
