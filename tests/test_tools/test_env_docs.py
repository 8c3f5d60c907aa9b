"""Every ``REPRO_*`` variable the docs name is one the code reads.

A documented variable that nothing reads is a dead knob: setting it
changes nothing, silently.  Reads are found in the syntax tree of every
Python file under ``src/``, ``examples/`` and ``tools/``: an
``os.environ.get(NAME, ...)``, ``os.environ[NAME]`` or ``os.getenv(NAME)``
whose ``NAME`` is a string literal or a module-level string constant.
"""

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set

ROOT = Path(__file__).resolve().parents[2]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
CODE_DIRS = ("src", "examples", "tools")
VARIABLE = re.compile(r"\bREPRO_[A-Z_]+\b")


def _is_os(node: ast.AST, attr: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def environ_reads(source: str) -> Iterator[Optional[str]]:
    """The variable names one module reads (None where not a constant)."""
    tree = ast.parse(source)
    constants = {
        target.id: node.value.value
        for node in tree.body if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for target in node.targets if isinstance(target, ast.Name)
    }

    def name(arg: ast.AST) -> Optional[str]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.Name):
            return constants.get(arg.id)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_os(node.value, "environ"):
            yield name(node.slice)
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            if ((isinstance(func, ast.Attribute) and func.attr == "get"
                 and _is_os(func.value, "environ"))
                    or _is_os(func, "getenv")):
                yield name(node.args[0])


def read_variables() -> Set[str]:
    return {
        variable
        for directory in CODE_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
        for variable in environ_reads(path.read_text(encoding="utf-8"))
        if variable
    }


def documented_variables() -> Dict[str, List[str]]:
    found: Dict[str, List[str]] = {}
    for doc in DOCS:
        for variable in VARIABLE.findall(doc.read_text(encoding="utf-8")):
            found.setdefault(variable, []).append(doc.name)
    return found


def test_every_documented_variable_is_read():
    read = read_variables()
    dead = {variable: sorted(set(docs))
            for variable, docs in documented_variables().items()
            if variable not in read}
    assert not dead, f"documented but read nowhere: {dead}"


def test_the_reads_of_the_kept_variables_are_found():
    read = read_variables()
    assert {"REPRO_STORE", "REPRO_STORE_URL", "REPRO_EXAMPLE_SCALE"} <= read
    # The scale comes from flags alone: no scale variable is read.
    assert not read & {"REPRO_FULL", "REPRO_MIXES", "REPRO_SCALE",
                       "REPRO_ACCESSES", "REPRO_SEED", "REPRO_TARGET_CYCLES"}


def test_reads_are_found_by_literal_or_module_constant():
    source = ('import os\nKNOB = "REPRO_B"\n'
              'os.environ.get("REPRO_A")\nos.environ[KNOB]\n'
              'os.getenv("REPRO_C", "1")\nos.environ.get(prefix + "X")\n')
    assert list(environ_reads(source)) == ["REPRO_A", "REPRO_B", "REPRO_C",
                                           None]
