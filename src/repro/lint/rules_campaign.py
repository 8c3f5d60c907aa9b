"""Content-addressed store key discipline (``repro/campaign/hashing.py``).

The result store deduplicates simulations by hashing a canonical spec of
each job.  Two silent failure modes exist:

* a field added to :class:`Job` (or :class:`ExperimentScale`) but never
  keyed — two jobs that compute *different* results would collide on one
  store address and serve each other's cached payloads;
* a field keyed by accident — widening an unkeyed selection field (e.g.
  through ``--mixes all``) would invalidate every cached point.

The ``job-hash-discipline`` rule therefore requires every dataclass field
to be *explicitly* classified: either it is read off the job inside
``hashing.py`` (keyed) or it is named in the documented
``UNKEYED_FIELDS`` allowlist.  It also pins ``frozen=True`` on the job
dataclasses — mutability would break their use as store addresses and
dict keys.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.lint.core import Diagnostic, LintContext, Rule, register_rule

JOBS_MODULE = "repro/campaign/jobs.py"
HASHING_MODULE = "repro/campaign/hashing.py"
SCALE_MODULE = "repro/experiments/common.py"
SCALE_CLASS = "ExperimentScale"

#: Names of the tuple constants in hashing.py that key scale fields.
SCALE_KEY_CONSTANTS = ("_OUTCOME_SCALE_FIELDS", "_ISOLATION_SCALE_FIELDS")


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.expr]:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return decorator
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return decorator
    return None


def _is_frozen(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == "frozen":
            return (isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True)
    return False


def _field_names(node: ast.ClassDef) -> List[ast.AnnAssign]:
    """Dataclass field declarations (``name: type [= default]``)."""
    fields = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        if not isinstance(stmt.target, ast.Name):
            continue
        annotation = stmt.annotation
        base = annotation.value if isinstance(annotation, ast.Subscript) \
            else annotation
        name = base.id if isinstance(base, ast.Name) else \
            base.attr if isinstance(base, ast.Attribute) else ""
        if name == "ClassVar":
            continue
        fields.append(stmt)
    return fields


def _string_tuple(node: ast.expr) -> Optional[Set[str]]:
    """The string elements of a tuple/list/set literal (None otherwise)."""
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return None
    values: Set[str] = set()
    for element in node.elts:
        if not (isinstance(element, ast.Constant)
                and isinstance(element.value, str)):
            return None
        values.add(element.value)
    return values


def _module_constant(tree: ast.AST, name: str) -> Optional[ast.Assign]:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node
    return None


@register_rule
class JobHashDisciplineRule(Rule):
    """Every job/scale field is either keyed or explicitly unkeyed."""

    name = "job-hash-discipline"
    description = ("campaign Job/ExperimentScale field is neither hashed "
                   "in hashing.py nor named in UNKEYED_FIELDS, or a job "
                   "dataclass is not frozen")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        jobs_path = ctx.find(JOBS_MODULE)
        hashing_path = ctx.find(HASHING_MODULE)
        if jobs_path is None or hashing_path is None:
            return
        jobs_tree = ctx.tree(jobs_path)
        hashing_tree = ctx.tree(hashing_path)
        if jobs_tree is None or hashing_tree is None:
            return

        unkeyed_assign = _module_constant(hashing_tree, "UNKEYED_FIELDS")
        unkeyed: Set[str] = set()
        if unkeyed_assign is None:
            yield self.diag(
                ctx, hashing_path, 1,
                "hashing.py must declare the UNKEYED_FIELDS allowlist "
                "(fields deliberately excluded from store keys)")
        else:
            parsed = _string_tuple(unkeyed_assign.value)
            if parsed is None:
                yield self.diag(
                    ctx, hashing_path, unkeyed_assign.lineno,
                    "UNKEYED_FIELDS must be a literal tuple of field-name "
                    "strings")
            else:
                unkeyed = parsed

        # Fields the hashing module reads off the job object.
        keyed_job_attrs: Set[str] = {
            node.attr for node in ast.walk(hashing_tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "job"
        }
        # Scale fields keyed through the *_SCALE_FIELDS tuples.
        keyed_scale_fields: Set[str] = set()
        for constant in SCALE_KEY_CONSTANTS:
            assign = _module_constant(hashing_tree, constant)
            if assign is not None:
                keyed_scale_fields |= _string_tuple(assign.value) or set()

        for node in jobs_tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            decorator = _dataclass_decorator(node)
            if decorator is None:
                continue
            if not _is_frozen(decorator):
                yield self.diag(
                    ctx, jobs_path, node.lineno,
                    f"{node.name} must be @dataclass(frozen=True): jobs "
                    f"are store addresses and dict keys")
            for field in _field_names(node):
                name = field.target.id
                if name in keyed_job_attrs or name in unkeyed:
                    continue
                yield self.diag(
                    ctx, jobs_path, field.lineno,
                    f"{node.name}.{name} is not read by "
                    f"campaign/hashing.py and not listed in "
                    f"UNKEYED_FIELDS; classify it explicitly so store "
                    f"keys cannot silently collide")

        scale_path = ctx.find(SCALE_MODULE)
        scale_tree = ctx.tree(scale_path) if scale_path is not None else None
        if scale_tree is None:
            return
        for node in ast.walk(scale_tree):
            if isinstance(node, ast.ClassDef) and node.name == SCALE_CLASS:
                for field in _field_names(node):
                    name = field.target.id
                    if name in keyed_scale_fields or name in unkeyed:
                        continue
                    yield self.diag(
                        ctx, scale_path, field.lineno,
                        f"{SCALE_CLASS}.{name} is neither in the "
                        f"*_SCALE_FIELDS key tuples nor in "
                        f"UNKEYED_FIELDS; classify it explicitly")
                break
