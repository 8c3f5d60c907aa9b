"""PolicyState contract rules (see ``repro/cache/replacement/base.py``).

The flat-array core stays bit-identical only while three hand-enforced
rules hold; each gets a mechanical check here:

* ``kernel-kind-override`` — a :class:`ReplacementPolicy` subclass that
  overrides ``touch`` / ``touch_fill`` / ``victim`` must redeclare
  ``kernel_kind`` in its own body (``""`` to opt out of kernels), or the
  closure-bound kernels in ``cache/state.py`` silently bypass the
  override on the hot path.
* ``state-rebind`` — policy/partition mutators must update their
  preallocated state arrays **in place**; rebinding (``self.order = [...]``)
  detaches every kernel local captured at cache construction.
* ``hot-path-purity`` — every kernel :mod:`repro.cache.transitions`
  renders (``access_line_hit`` / ``observe_many`` / the
  event loop of ``BatchedEngine.run``, for each policy x scheme, plus
  the call-form loop) and the closures built by the ``*_kernel``
  functions in ``cache/state.py`` (the derived builders) must run on
  bound locals only: no attribute loads (beyond int/list method calls on
  locals), no global lookups, no list/dict/set or comprehension
  allocations.  The spec tables are read off the checked tree as
  literals and rendered with this package's renderer — the checked tree
  is never imported — so a fragment storing to a local its skeleton
  keeps for itself (``PRIVATE_LOCALS``) is flagged here too, and so is a
  stock event loop or ATD drain the C translator
  (:mod:`repro.cache.cgen`, typed by the ``C_KINDS`` table) refuses.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.cache import transitions
from repro.lint.core import Diagnostic, LintContext, Rule, register_rule
from repro.lint.rules_engine import _module_constants

#: The abstract root of the policy hierarchy (resolved by name).
POLICY_ROOT = "ReplacementPolicy"

#: Methods whose semantics the access kernels specialise on.
KERNEL_METHODS = ("touch", "touch_fill", "victim")

#: Directories whose classes hold kernel-captured state arrays.
STATEFUL_DIRS = ("repro/cache/replacement/", "repro/cache/partition/")

#: Modules whose module-level ``*_kernel`` functions build the hot-path
#: closures (private per-policy factories and public derived builders).
HOT_KERNEL_MODULES = ("repro/cache/state.py",)

#: Module whose literal ``POLICIES`` / ``SCHEMES`` / ``TEMPLATES`` /
#: ``PRIVATE_LOCALS`` tables every hot kernel is rendered from.
TRANSITION_SPEC = "repro/cache/transitions.py"
SPEC_TABLES = ("POLICIES", "SCHEMES", "TEMPLATES", "PRIVATE_LOCALS")
#: Optional fifth literal: the C type of every name a stock event loop
#: or ATD drain touches.  A spec that declares it promises each keyed
#: rendering of ``transitions.COMPILED`` a C target.
C_KINDS_TABLE = "C_KINDS"

#: ``(spec module, rendering)`` that run once per simulated event: the
#: spec must render them (for every key and the call form), under the
#: strict contract.
EVENT_LOOPS = ((TRANSITION_SPEC, "loop"),)

#: Attribute loads permitted inside kernel closures: C-level int/list
#: methods on already-bound locals.  Everything else (``obj.attr`` chases,
#: ``dict.get`` re-lookups) must be bound once in the factory.
PURE_LOCAL_ATTRS = transitions.PURE_ATTRS


def _declares(class_node: ast.ClassDef, attr: str) -> bool:
    """True when the class body itself assigns ``attr``."""
    for stmt in class_node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == attr:
                    return True
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == attr:
                return True
    return False


def _own_methods(class_node: ast.ClassDef) -> List[ast.FunctionDef]:
    """Function definitions directly in the class body."""
    return [stmt for stmt in class_node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))]


@register_rule
class KernelKindOverrideRule(Rule):
    """Policy subclasses changing kernel semantics must redeclare the kind."""

    name = "kernel-kind-override"
    description = ("ReplacementPolicy subclass overrides touch/touch_fill/"
                   "victim without redeclaring kernel_kind")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for info in ctx.subclasses_of(POLICY_ROOT):
            overridden = [m.name for m in _own_methods(info.node)
                          if m.name in KERNEL_METHODS]
            if not overridden or _declares(info.node, "kernel_kind"):
                continue
            yield self.diag(
                ctx, info.path, info.node.lineno,
                f"{info.name} overrides {'/'.join(overridden)} but does not "
                f"redeclare kernel_kind; the inherited access kernel would "
                f"silently bypass the override (redeclare it, or set "
                f'kernel_kind = "" to opt out of kernels)')


def _is_array_expr(node: ast.expr) -> bool:
    """True for expressions that allocate a list-like state array."""
    if isinstance(node, (ast.List, ast.ListComp)):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _is_array_expr(node.left) or _is_array_expr(node.right)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("list", "bytearray"):
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
    description = ("policy/partition method rebinds a state-array attribute "
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


class _ScopeCollector(ast.NodeVisitor):
    """Names bound in one function scope, ignoring nested functions."""

    def __init__(self, func) -> None:
        self.names: Set[str] = set()
        args = func.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs
                    + ([args.vararg] if args.vararg else [])
                    + ([args.kwarg] if args.kwarg else [])):
            self.names.add(arg.arg)
        self._root = func
        for stmt in func.body:
            self.visit(stmt)

    def visit_FunctionDef(self, node) -> None:
        self.names.add(node.name)          # the def binds its name; stop

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node) -> None:
        pass

    def visit_ClassDef(self, node) -> None:
        self.names.add(node.name)

    def visit_Name(self, node) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self.names.add(node.id)

    def visit_ExceptHandler(self, node) -> None:
        if node.name:
            self.names.add(node.name)
        self.generic_visit(node)


def _closure_nodes(func):
    """AST nodes of ``func.body`` itself (nested defs pruned)."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@register_rule
class HotPathPurityRule(Rule):
    """Kernel closures must touch bound locals only."""

    name = "hot-path-purity"
    description = ("kernel closure performs an attribute load, global "
                   "lookup, or container allocation instead of using "
                   "factory-bound locals")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for rel in HOT_KERNEL_MODULES:
            path = ctx.find(rel)
            tree = ctx.tree(path) if path is not None else None
            if tree is None:
                continue
            for node in tree.body:
                if (isinstance(node, ast.FunctionDef)
                        and node.name.endswith("_kernel")):
                    yield from self._check_factory(ctx, path, node)
        yield from self._check_rendered(ctx)

    def _check_rendered(self, ctx: LintContext) -> Iterator[Diagnostic]:
        """Strict contract over every rendering of the transition spec."""
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
        kinds = None
        if C_KINDS_TABLE in constants:
            try:
                kinds = ast.literal_eval(constants[C_KINDS_TABLE][0])
            except ValueError as exc:
                yield self.diag(ctx, path, constants[C_KINDS_TABLE][1],
                                f"{C_KINDS_TABLE} is not a literal: {exc!r}")
        keys = transitions.rendering_keys(*tables[:2])
        for rel, rendering in EVENT_LOOPS:
            if ctx.find(rel) == path and not any(
                    kind == rendering for kind, _ in keys):
                yield self.diag(ctx, path, 1,
                                f"spec renders no {rendering!r} event loop")
        seen = set()
        for rendering, key in keys:
            name = transitions.source_name(rendering, key)
            try:
                source = transitions.render(rendering, key, *tables)
                factory = ast.parse(source).body[0]
            except SyntaxError as exc:
                yield self.diag(ctx, path, 1,
                                f"{name} does not parse: {exc.msg} — "
                                f"`{(exc.text or '').strip()}`")
                continue
            except (KeyError, ValueError) as exc:
                yield self.diag(ctx, path, 1,
                                f"{name} does not render: {exc}")
                continue
            if (kinds is not None and key is not None
                    and rendering in transitions.COMPILED):
                try:
                    transitions.translate(rendering, key, *tables, kinds)
                except ValueError as exc:
                    yield self.diag(ctx, path, 1, f"no C target: {exc}")
            lines = source.splitlines()
            for diag in self._check_factory(ctx, path, factory):
                text = lines[diag.line - 1].strip()
                if (diag.message, text) not in seen:
                    seen.add((diag.message, text))
                    yield self.diag(
                        ctx, path, 1,
                        f"{diag.message} — `{text}` ({name} line {diag.line})")

    def _check_factory(self, ctx: LintContext, path, factory
                       ) -> Iterator[Diagnostic]:
        outer = _ScopeCollector(factory).names
        for node in ast.walk(factory):
            if (isinstance(node, ast.FunctionDef) and node is not factory):
                yield from self._check_body(
                    ctx, path, f"{factory.name}.{node.name}", node,
                    outer | _ScopeCollector(node).names)

    def _check_body(self, ctx: LintContext, path, where: str, closure,
                    bound: Set[str]) -> Iterator[Diagnostic]:
        """Purity of ``closure.body`` (a closure's, or a hot loop's)."""
        handler_types: Set[str] = set()
        for node in _closure_nodes(closure):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for name in ast.walk(node.type):
                    if isinstance(name, ast.Name):
                        handler_types.add(name.id)
        for node in _closure_nodes(closure):
            if isinstance(node, ast.Attribute):
                if not isinstance(node.ctx, ast.Load):
                    continue
                if node.attr in PURE_LOCAL_ATTRS:
                    continue
                yield self.diag(
                    ctx, path, node.lineno,
                    f"attribute load .{node.attr} inside {where}; bind "
                    f"it to a factory local outside the closure")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp, ast.List, ast.Dict,
                                   ast.Set)):
                if isinstance(node, (ast.List, ast.Dict, ast.Set)) and \
                        not isinstance(getattr(node, "ctx", ast.Load()),
                                       ast.Load):
                    continue
                kind = type(node).__name__
                yield self.diag(
                    ctx, path, node.lineno,
                    f"{kind} allocation inside {where}; hot-path closures "
                    f"must not allocate containers per access")
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Load):
                if node.id in bound or node.id in handler_types:
                    continue
                yield self.diag(
                    ctx, path, node.lineno,
                    f"global/builtin lookup of {node.id!r} inside {where}; "
                    f"bind it to a factory local outside the closure")
