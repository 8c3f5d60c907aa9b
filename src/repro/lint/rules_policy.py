"""PolicyState contract rules (see ``repro/cache/replacement/base.py``).

The flat-array core stays bit-identical only while two rules hold; each
gets a mechanical check here:

* ``state-rebind`` — the mutators of every class whose arrays a compiled
  kernel binds (policies, schemes, the tag store, statistics, the L1, the
  ATD, the SDH, the memory channel) must update those preallocated arrays
  **in place**; rebinding (``self.order = [...]``) detaches every kernel
  bound at construction.
* ``hot-path-purity`` — every kernel :mod:`repro.cache.transitions`
  renders (``observe_many`` for each policy, the event loop of
  ``BatchedEngine.run`` for each policy x scheme, and the L1
  ``prefilter``) must have a C target.  The spec tables are read off the
  checked tree as literals — the checked tree is never imported — and
  every key of :func:`~repro.cache.transitions.rendering_keys` is
  rendered and translated with this package's renderer and translator
  (:mod:`repro.cache.cgen`, typed by the ``C_KINDS`` table): a key that
  does not parse, does not render (a fragment storing to a local its
  skeleton keeps for itself, ``PRIVATE_LOCALS``) or that the translator
  refuses (an attribute chase, a global, a container, a method other
  than ``bit_length`` / ``bit_count``, a binding the factory never
  assigns) is reported with the translator's reason.  Which policy,
  scheme and profiler a kernel is exact for is decided by exact type at
  bind time (:func:`repro.cache.state.kernel_key`), so no class needs a
  lint.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.cache import transitions
from repro.lint.core import Diagnostic, LintContext, Rule, register_rule
from repro.lint.rules_engine import _module_constants

#: Directories and modules whose classes hold kernel-bound state arrays.
#: Not all of ``repro/profiling/`` (no kernel binds ``stackdist.py``) nor
#: of ``repro/cmp/`` (``BatchedEngine`` makes its views per run).
STATEFUL_DIRS = ("repro/cache/", "repro/profiling/atd.py",
                 "repro/profiling/sdh.py", "repro/cmp/memory.py")

#: Module whose literal tables every hot kernel is rendered from and
#: translated with, in the order ``transitions.translate`` takes them.
TRANSITION_SPEC = "repro/cache/transitions.py"
SPEC_TABLES = ("POLICIES", "SCHEMES", "TEMPLATES", "PRIVATE_LOCALS",
               "C_KINDS")


def _own_methods(class_node: ast.ClassDef) -> List[ast.FunctionDef]:
    """Function definitions directly in the class body."""
    return [stmt for stmt in class_node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _is_array_expr(node: ast.expr) -> bool:
    """True for expressions that allocate a list-like state array."""
    if isinstance(node, (ast.List, ast.ListComp)):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _is_array_expr(node.left) or _is_array_expr(node.right)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("list", "bytearray",
                                                      "array"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
                "zeros", "empty", "ones", "full", "array"):
            return True
    return False


def _self_attr_target(node: ast.expr) -> str:
    """Attribute name of a ``self.X`` assignment target ('' otherwise)."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return ""


@register_rule
class StateRebindRule(Rule):
    """State arrays captured by kernels must be mutated in place."""

    name = "state-rebind"
    description = ("a kernel-bound class rebinds a state-array attribute "
                   "outside __init__, detaching captured kernel locals")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for path, tree in ctx.trees():
            rel = path.relative_to(ctx.src_root).as_posix()
            if not any(rel.startswith(prefix) for prefix in STATEFUL_DIRS):
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class(ctx, path, node)

    def _check_class(self, ctx: LintContext, path, class_node
                     ) -> Iterator[Diagnostic]:
        array_attrs: Set[str] = set()
        init = next((m for m in _own_methods(class_node)
                     if m.name == "__init__"), None)
        if init is not None:
            for node in ast.walk(init):
                if isinstance(node, ast.Assign) and _is_array_expr(node.value):
                    for target in node.targets:
                        attr = _self_attr_target(target)
                        if attr:
                            array_attrs.add(attr)
                elif (isinstance(node, ast.AnnAssign)
                      and node.value is not None
                      and _is_array_expr(node.value)):
                    attr = _self_attr_target(node.target)
                    if attr:
                        array_attrs.add(attr)
        if not array_attrs:
            return
        for method in _own_methods(class_node):
            if method.name == "__init__":
                continue
            for node in ast.walk(method):
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                for target in targets:
                    attr = _self_attr_target(target)
                    if attr in array_attrs:
                        yield self.diag(
                            ctx, path, node.lineno,
                            f"{class_node.name}.{method.name} rebinds state "
                            f"array self.{attr}; mutate it in place "
                            f"(self.{attr}[:] = ...) so kernel closures "
                            f"keep seeing the live object")


@register_rule
class HotPathPurityRule(Rule):
    """Every rendering of the transition spec has a C target."""

    name = "hot-path-purity"
    description = ("a rendering of the transition spec does not parse, "
                   "does not render, or has no C target")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        """Render and translate every key of the checked spec."""
        path = ctx.find(TRANSITION_SPEC)
        tree = ctx.tree(path) if path is not None else None
        if tree is None:
            return
        constants = _module_constants(tree)
        try:
            tables = [ast.literal_eval(constants[name][0])
                      for name in SPEC_TABLES]
        except (KeyError, ValueError) as exc:
            yield self.diag(ctx, path, 1, "spec does not declare literal "
                            f"{'/'.join(SPEC_TABLES)}: {exc!r}")
            return
        for rendering, key in transitions.rendering_keys(*tables[:2]):
            name = transitions.source_name(rendering, key)
            stage = f"{name} does not render: "
            try:
                transitions.render(rendering, key, *tables[:4])
                stage = "no C target: "
                transitions.translate(rendering, key, *tables)
                continue
            except SyntaxError as exc:
                message = (f"{name} does not parse: {exc.msg} — "
                           f"`{(exc.text or '').strip()}`")
            except (KeyError, ValueError) as exc:
                message = f"{stage}{exc}"
            yield self.diag(ctx, path, 1, message)
