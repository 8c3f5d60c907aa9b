"""C target of a rendering: the kernel closure, translated statement by
statement.

:func:`translate` takes the *Python* source
:func:`repro.cache.transitions.render` produced and emits one C function
with the same control flow over the same arrays.  Nothing about a policy
or scheme is written here: the translator knows the Python subset the
fragments live in and the C type of every name the factory binds
(:data:`repro.cache.transitions.C_KINDS`), nothing else.

The subset.  Integer and float locals (a name's type is the type of its
first assignment and never changes), ``if`` / ``elif`` / ``else``,
``while``, ``break``, ``continue``, ``for NAME in <column>`` (exactly
that: no ``else``, no nesting, no store to ``NAME`` in the body), plain
and augmented assignment, integer arithmetic and bit operations,
comparisons, ``and`` / ``or`` / ``not``, the conditional expression,
indexing of bound arrays, the only attribute calls there are:
``bit_length`` / ``bit_count`` on integers, and the only named function,
``order_key(x)``: the IEEE bit pattern of the float ``x`` read as a
signed 64-bit integer (a ``memcpy`` in C, never a second typed pointer
to the same memory).  On +0.0, subnormal, finite positive and +inf
values — every clock there is — the keys order exactly as the floats
do and are equal only for equal floats, so an arg-min over them is a
``cmp`` / ``cmov`` scan where one over the doubles branches on the data.
Every piece of state is a flat array, so there are no containers and no
container methods.  A
name the kernel reads is one of its parameters, a local it assigns, or
a binding the factory assigns before the closure; each binding has its
kind declared (:data:`~repro.cache.transitions.C_KINDS`), as follows:

``int`` / ``float``
    scalar argument; a parameter the kernel assigns becomes a local
    initialised from it.
``ints`` / ``floats`` / ``cores``
    an owner's array, shared with Python by address: what a call
    stores, Python sees when it returns, and the other way round
    (``cores``: an integer array with one slot per thread).  A
    per-thread table is one flat array too: the loop reads thread
    ``t``'s miss ``j`` as ``lines[t * stride + j]``.
``column``
    one ``int64`` column and its length: the only thing a ``for`` may
    iterate.

No kind stands for a callable: a kernel calls nothing but the integer
methods and ``order_key`` above, so it never runs Python.  Where the
caller has work — a boundary, a freeze, a window to load — the kernel
*returns*, its values (a ``return`` of a tuple) in the argument block,
and the caller calls it again.

Floats are IEEE doubles evaluated in source order (an ``int`` operand is
converted first, as Python does); the build adds ``-ffp-contract=off``
and no fast-math flag, so every clock is bit-equal to the reference
engine's, which evaluates the same expressions in Python.  Anything outside the subset raises :class:`ValueError`
carrying the rendering's ``source_name`` — the translator never guesses.
That refusal is the hot-path check: the ``hot-path-purity`` lint rule
translates every rendering of the checked spec and reports it.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Mapping, NamedTuple, Set, Tuple

__all__ = ["Kernel", "check_fragment", "translate"]

PRELUDE = """\
#include <stdint.h>
#include <string.h>
typedef int64_t i64;
typedef uint64_t u64;

static inline i64 bit_length(i64 x) {
    u64 v = x < 0 ? -(u64)x : (u64)x;
    return v ? 64 - __builtin_clzll(v) : 0;
}
static inline i64 bit_count(i64 x) {
    return __builtin_popcountll(x < 0 ? -(u64)x : (u64)x);
}
static inline i64 order_key(double x) {
    i64 k;
    memcpy(&k, &x, sizeof k);
    return k;
}
"""

_C_TYPES = {"int": "i64", "float": "double"}
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.BitAnd: "&",
           ast.BitOr: "|", ast.BitXor: "^", ast.LShift: "<<",
           ast.RShift: ">>"}
_FLOAT_BINOPS = (ast.Add, ast.Sub, ast.Mult)
_COMPARES = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
             ast.Gt: ">", ast.GtE: ">="}
_ARRAY_KINDS = {"ints": "int", "cores": "int", "floats": "float"}


class Kernel(NamedTuple):
    """One translated kernel."""

    #: The C translation unit; its entry point is ``void run(Args *)``.
    source: str
    #: ``(name, C type, kind)`` of every member of ``Args``, in order.
    #: Kinds are those of the module docstring plus ``length`` (the member
    #: after a ``column`` one) and ``ret`` (the returned tuple, ``ret0``
    #: ...).
    members: Tuple[Tuple[str, str, str], ...]
    #: The kernel's own parameters, in order.
    params: Tuple[str, ...]
    #: Arrays the kernel writes.
    stored: frozenset


class _Refused(Exception):
    pass


def check_fragment(name: str, label: str, text: str,
                   kinds: Mapping[str, str]) -> None:
    """Refuse a policy / scheme fragment that computes in floats: its
    state is machine words (``text`` has its placeholders substituted and
    its slot lines blanked)."""
    for node in ast.walk(ast.parse(text)):
        if ((isinstance(node, ast.Constant) and isinstance(node.value, float))
                or isinstance(node, (ast.Div, ast.Pow))
                or (isinstance(node, ast.Name)
                    and kinds.get(node.id) in ("float", "floats"))):
            raise ValueError(f"{name}: float operation in {label} fragment; "
                             f"fragments are integer state transitions")


class _Translator:
    def __init__(self, name: str, kinds: Mapping[str, str],
                 bound: Set[str]) -> None:
        self.name = name
        self.kinds = kinds
        self.bound = bound                   # names the factory assigns
        self.used: Dict[str, str] = {}       # bound name -> kind, first use
        self.locals: Dict[str, str] = {}     # local -> "int" | "float"
        self.stored: Set[str] = set()
        self.params: Tuple[str, ...] = ()
        self.returns: List[str] = []
        self.lines: List[str] = []
        self.in_for = False

    # ------------------------------------------------------------------
    def refuse(self, node, why: str):
        raise _Refused(f"{self.name}: line {getattr(node, 'lineno', '?')}: "
                       f"{why}")

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def kind(self, node: ast.Name) -> str:
        """Kind of a bound name (registering its use)."""
        try:
            kind = self.kinds[node.id]
        except KeyError:
            self.refuse(node, f"unknown name {node.id!r}: neither a local "
                              f"assigned before use nor a declared binding")
        if node.id not in self.bound and node.id not in self.params:
            self.refuse(node, f"{node.id!r} ({kind}) is not assigned by "
                              f"this rendering's factory")
        self.used.setdefault(node.id, kind)
        return kind

    def ref(self, name: str) -> str:
        """C spelling of a bound name (registering its use)."""
        self.used.setdefault(name, self.kinds[name])
        return name

    # ------------------------------------------------------------------
    # Expressions: (C text, "int" | "float")
    # ------------------------------------------------------------------
    def expr(self, node) -> Tuple[str, str]:
        method = getattr(self, "expr_" + type(node).__name__, None)
        if method is None:
            self.refuse(node, f"{type(node).__name__} is outside the "
                              f"translated subset")
        return method(node)

    def int_expr(self, node) -> str:
        text, typ = self.expr(node)
        if typ != "int":
            self.refuse(node, f"integer expected, got {typ}")
        return text

    def as_float(self, node) -> str:
        return self.numbers(node, floats=True)[0][0]

    def numbers(self, *operands, floats=False):
        """``operands`` evaluated once each and brought to one numeric
        type — ``float`` if any is (or ``floats``), an ``int`` operand
        converted first, as Python does: ``([C text, ...], type)``."""
        pairs = [self.expr(operand) for operand in operands]
        common = ("float" if floats or any(typ == "float" for _t, typ in pairs)
                  else "int")
        return [text if typ == common else f"(double)({text})"
                for text, typ in pairs], common

    def expr_Constant(self, node):
        value = node.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.refuse(node, f"constant {value!r}")
        if isinstance(value, int):
            return f"INT64_C({value})", "int"
        return repr(value), "float"

    def expr_Name(self, node):
        if node.id in self.locals:
            return node.id, self.locals[node.id]
        kind = self.kind(node)
        if kind in ("int", "float"):
            return self.ref(node.id), kind
        self.refuse(node, f"{node.id!r} ({kind}) used as a value")

    def expr_UnaryOp(self, node):
        if isinstance(node.op, ast.Not):
            return f"!({self.condition(node.operand)})", "int"
        text, typ = self.expr(node.operand)
        if isinstance(node.op, ast.USub) and typ in ("int", "float"):
            return f"(-{text})", typ
        if isinstance(node.op, ast.Invert) and typ == "int":
            return f"(~{text})", "int"
        self.refuse(node, f"unary {type(node.op).__name__} on {typ}")

    def expr_BinOp(self, node):
        op = _BINOPS.get(type(node.op))
        if op is None:
            self.refuse(node, f"operator {type(node.op).__name__}")
        (left, right), typ = self.numbers(node.left, node.right)
        if typ == "float" and not isinstance(node.op, _FLOAT_BINOPS):
            self.refuse(node, f"float operand of {op}")
        return f"({left} {op} {right})", typ

    def expr_Compare(self, node):
        if len(node.ops) != 1:
            self.refuse(node, "chained comparison")
        op, right = node.ops[0], node.comparators[0]
        symbol = _COMPARES.get(type(op))
        if symbol is None:
            self.refuse(node, f"comparison {type(op).__name__}")
        (left, right), _typ = self.numbers(node.left, right)
        return f"({left} {symbol} {right})", "int"

    def condition(self, node) -> str:
        """``node`` in boolean context (Python truthiness of an int)."""
        if isinstance(node, ast.BoolOp):
            joiner = " && " if isinstance(node.op, ast.And) else " || "
            return "(" + joiner.join(self.condition(v)
                                     for v in node.values) + ")"
        return self.int_expr(node)

    def expr_BoolOp(self, node):
        # Value context: ``a or b`` / ``a and b`` over integers, operands
        # pure (nothing translated has an effect), so evaluating the left
        # one twice is exact.
        text = self.int_expr(node.values[-1])
        for value in reversed(node.values[:-1]):
            left = self.int_expr(value)
            text = (f"({left} ? {left} : {text})"
                    if isinstance(node.op, ast.Or)
                    else f"({left} ? {text} : {left})")
        return text, "int"

    def expr_IfExp(self, node):
        (body, orelse), typ = self.numbers(node.body, node.orelse)
        return f"({self.condition(node.test)} ? {body} : {orelse})", typ

    def expr_Attribute(self, node):
        self.refuse(node, f"attribute access .{node.attr}: a kernel touches "
                          f"factory bindings only")

    def expr_Subscript(self, node) -> Tuple[str, str]:
        """An indexed scalar: an element of a bound array."""
        base = node.value
        index = self.int_expr(node.slice)
        if isinstance(base, ast.Name) and base.id not in self.locals:
            kind = self.kind(base)
            if kind in _ARRAY_KINDS:
                return f"{self.ref(base.id)}[{index}]", _ARRAY_KINDS[kind]
            self.refuse(node, f"{base.id!r} ({kind}) indexed as an array")
        if isinstance(base, ast.Attribute):
            self.expr_Attribute(base)
        self.refuse(node, "indexing anything but a bound array")

    def expr_Call(self, node):
        func = node.func
        if node.keywords:
            self.refuse(node, "keyword arguments")
        if isinstance(func, ast.Attribute):
            return self.method(node, func)
        if not isinstance(func, ast.Name) or func.id in self.locals:
            self.refuse(node, "call of a computed callable")
        if func.id == "order_key":
            if len(node.args) != 1:
                self.refuse(node, "order_key() takes one float")
            text, typ = self.expr(node.args[0])
            if typ != "float":
                self.refuse(node, f"order_key() of an {typ}")
            return f"order_key({text})", "int"
        kind = self.kind(func)
        self.refuse(node, f"call of {func.id!r} ({kind}): a kernel calls "
                          f"nothing but an integer's methods and "
                          f"order_key()")

    def method(self, node, func):
        attr = func.attr
        if attr in ("bit_length", "bit_count") and not node.args:
            return f"{attr}({self.int_expr(func.value)})", "int"
        self.refuse(node, f"method .{attr}(): the only methods translated "
                          f"are an integer's bit_length() / bit_count()")

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def block(self, body, depth: int) -> None:
        for stmt in body:
            method = getattr(self, "stmt_" + type(stmt).__name__, None)
            if method is None:
                self.refuse(stmt, f"{type(stmt).__name__} statement is "
                                  f"outside the translated subset")
            method(stmt, depth)

    def declare(self, node, name: str, typ: str) -> None:
        if name in self.kinds and name not in self.locals:
            self.refuse(node, f"assignment to the binding {name!r}")
        known = self.locals.setdefault(name, typ)
        if known != typ:
            self.refuse(node, f"{name!r} is {known} and is assigned {typ}")

    def assign(self, target, value: str, typ: str, node, depth: int,
               op: str = "=") -> None:
        if isinstance(target, ast.Name):
            if self.locals.get(target.id) == "float" and typ == "int":
                value, typ = f"(double)({value})", "float"
            self.declare(node, target.id, typ)
            self.emit(depth, f"{target.id} {op} {value};")
            return
        if not isinstance(target, ast.Subscript):
            self.refuse(node, f"assignment to {type(target).__name__}")
        place, place_typ = self.expr_Subscript(target)
        if place_typ == "int" and typ == "float":
            self.refuse(node, f"{typ} stored into an {place_typ} array")
        self.stored.add(target.value.id)
        self.emit(depth, f"{place} {op} {value};")

    def stmt_Assign(self, node, depth):
        if len(node.targets) != 1:
            self.refuse(node, "chained assignment")
        target, value = node.targets[0], node.value
        if isinstance(target, ast.Tuple):
            self.refuse(node, "tuple assignment")
        text, typ = self.expr(value)
        self.assign(target, text, typ, node, depth)

    def stmt_AugAssign(self, node, depth):
        op = _BINOPS.get(type(node.op))
        if op is None:
            self.refuse(node, f"operator {type(node.op).__name__}=")
        if isinstance(node.target, ast.Name):
            if node.target.id not in self.locals:
                self.refuse(node, f"{node.target.id!r} augmented before "
                                  f"assignment")
            target_typ = self.locals[node.target.id]
        else:
            target_typ = self.expr_Subscript(node.target)[1]
        if target_typ == "float":
            if not isinstance(node.op, _FLOAT_BINOPS):
                self.refuse(node, f"float operand of {op}=")
            value, typ = self.as_float(node.value), "float"
        else:
            value, typ = self.int_expr(node.value), "int"
        self.assign(node.target, value, typ, node, depth, op + "=")

    def stmt_Expr(self, node, depth):
        # Nothing translated has an effect, so an expression statement
        # does nothing: refused, after its own refusal if it has one (a
        # list method by name).
        self.expr(node.value)
        self.refuse(node, "expression statement")

    def stmt_If(self, node, depth):
        self.emit(depth, f"if ({self.condition(node.test)}) {{")
        self.block(node.body, depth + 1)
        if node.orelse:
            self.emit(depth, "} else {")
            self.block(node.orelse, depth + 1)
        self.emit(depth, "}")

    def stmt_While(self, node, depth):
        if node.orelse:
            self.refuse(node, "while/else")
        forever = (isinstance(node.test, ast.Constant)
                   and node.test.value is True)
        self.emit(depth, "for (;;) {" if forever
                  else f"while ({self.condition(node.test)}) {{")
        self.block(node.body, depth + 1)
        self.emit(depth, "}")

    def stmt_For(self, node, depth):
        """``for NAME in <column>:`` — an index walk over the column."""
        target, column = node.target, node.iter
        if (not isinstance(column, ast.Name) or column.id in self.locals
                or self.kinds.get(column.id) != "column"):
            self.refuse(node, "for over anything but a column binding")
        if node.orelse:
            self.refuse(node, "for/else")
        if self.in_for:
            self.refuse(node, "nested for")
        if not isinstance(target, ast.Name):
            self.refuse(node, "for target other than a plain name")
        if any(isinstance(sub, ast.Name) and sub.id == target.id
               and isinstance(sub.ctx, ast.Store)
               for stmt in node.body for sub in ast.walk(stmt)):
            self.refuse(node, f"store to the loop variable {target.id!r}")
        self.kind(column)
        self.declare(node, target.id, "int")
        items, index = column.id, f"{column.id}_i"
        self.emit(depth, f"for (i64 {index} = 0; {index} < {items}_n; "
                         f"{index}++) {{")
        self.emit(depth + 1, f"{target.id} = {items}[{index}];")
        self.in_for = True
        self.block(node.body, depth + 1)
        self.in_for = False
        self.emit(depth, "}")

    def stmt_Break(self, node, depth):
        self.emit(depth, "break;")

    def stmt_Continue(self, node, depth):
        self.emit(depth, "continue;")

    def stmt_Pass(self, node, depth):
        pass

    def stmt_Return(self, node, depth):
        values = node.value.elts if isinstance(node.value, ast.Tuple) \
            else [node.value]
        if self.returns and len(values) != len(self.returns):
            self.refuse(node, "returns of different lengths")
        for position, value in enumerate(values):
            text, typ = self.expr(value)
            if position == len(self.returns):
                self.returns.append(typ)
            elif self.returns[position] != typ:
                self.refuse(node, f"return value {position} changes type")
            self.emit(depth, f"a->ret{position} = {text};")
        self.emit(depth, "return;")

    # ------------------------------------------------------------------
    def run(self, kernel: ast.FunctionDef) -> Kernel:
        arguments = kernel.args
        if (arguments.vararg or arguments.kwarg or arguments.kwonlyargs
                or arguments.defaults or arguments.posonlyargs):
            self.refuse(kernel, "kernel signature beyond plain parameters")
        self.params = tuple(arg.arg for arg in arguments.args)
        for name in self.params:
            if name not in self.kinds:
                self.refuse(kernel, f"parameter {name!r} has no declared "
                                    f"kind")
        self.block(kernel.body, 1)

        # Args members in order: (C name, C type, kind of the logical
        # field) — the one list the struct text and the ctypes mirror in
        # repro.cache.native are both built from.
        members: List[Tuple[str, str, str]] = []
        prologue = []
        for name, kind in self.used.items():
            if kind in ("int", "float"):
                members.append((name, _C_TYPES[kind], kind))
                if name not in self.locals:
                    prologue.append(f"const {_C_TYPES[kind]} {name} = "
                                    f"a->{name};")
            elif kind in _ARRAY_KINDS:
                ctype = _C_TYPES[_ARRAY_KINDS[kind]]
                members.append((name, f"{ctype} *", kind))
                prologue.append(f"{ctype} *const {name} = a->{name};")
            elif kind == "column":
                members += [(name, "i64 *", kind),
                            (f"{name}_n", "i64", "length")]
                prologue += [f"const i64 *const {name} = a->{name};",
                             f"const i64 {name}_n = a->{name}_n;"]
        for position, typ in enumerate(self.returns):
            members.append((f"ret{position}", _C_TYPES[typ], "ret"))
        for name, typ in self.locals.items():
            start = f"a->{name}" if name in self.used else "0"
            prologue.append(f"{_C_TYPES[typ]} {name} = {start};")
        struct = [f"    {ctype}{'' if ctype.endswith('*') else ' '}{name};"
                  for name, ctype, _kind in members]
        source = "\n".join(
            [f"/* {self.name}: generated by repro.cache.cgen from the "
             f"rendering of that name. */", PRELUDE, "typedef struct {"]
            + struct + ["} Args;", "", "void run(Args *a) {"]
            + ["    " + line for line in prologue] + self.lines + ["}", ""])
        return Kernel(source, tuple(members), self.params,
                      frozenset(self.stored))


def translate(source: str, name: str, kinds: Mapping[str, str]) -> Kernel:
    """C translation of the kernel closure in ``source`` — a rendering's
    ``build`` factory — or :class:`ValueError` naming ``name``."""
    factory = ast.parse(source).body[0]
    kernels = [node for node in ast.walk(factory)
               if isinstance(node, ast.FunctionDef) and node is not factory]
    if len(kernels) != 1:
        raise ValueError(f"{name}: expected one kernel closure, found "
                         f"{len(kernels)}")
    closure = {id(node) for node in ast.walk(kernels[0])}
    translator = _Translator(name, kinds, {
        node.id for node in ast.walk(factory)
        if id(node) not in closure and isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Store)})
    # Parameters the kernel assigns are locals initialised from Args.
    assigned = {node.id for node in ast.walk(kernels[0])
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Store)}
    for arg in kernels[0].args.args:
        kind = kinds.get(arg.arg)
        if arg.arg in assigned and kind in ("int", "float"):
            translator.locals[arg.arg] = kind
            translator.used[arg.arg] = kind
    try:
        return translator.run(kernels[0])
    except _Refused as exc:
        raise ValueError(str(exc)) from None
