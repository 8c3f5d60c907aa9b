"""C target of a rendering: the kernel closure, translated statement by
statement.

:func:`translate` takes the *Python* source :func:`repro.cache.transitions.render`
produced — the same checked text the Python target executes — and emits
one C function with the same control flow over the same arrays.  Nothing
about a policy or scheme is written here: the translator knows the
Python subset the fragments live in and the C type of every name the
factory binds (:data:`repro.cache.transitions.C_KINDS`), nothing else.

The subset.  Integer and float locals (a name's type is the type of its
first assignment and never changes), ``if`` / ``elif`` / ``else``,
``while``, ``break``, ``continue``, ``for NAME in <column>`` (exactly
that: no ``else``, no nesting, no store to ``NAME`` in the body), plain
and augmented assignment, ``del``, integer
arithmetic and bit operations, comparisons, ``and`` / ``or`` / ``not``,
the conditional expression, indexing of bound arrays, and the attribute
calls :data:`PURE_ATTRS` admits: ``bit_length`` / ``bit_count`` on
integers, ``insert`` / ``remove`` / ``index`` on *bounded* lists (one
fixed-capacity segment per set plus a length word).  Kinds, as declared
per name:

``int`` / ``float``
    scalar argument; a parameter the kernel assigns becomes a local
    initialised from it.
``ints`` / ``floats``
    array owned by the C side for the whole run.
``shared`` / ``cores``
    integer array Python code may read or replace during a call-out
    (``cores``: one slot per thread); re-read from the argument block on
    every access.
``lists:CAP``
    per-set bounded lists, ``CAP`` (a bound ``int`` name) slots each.
``rows``
    per-thread table of ``int64`` columns (``lines[t][j]``).
``column``
    one ``int64`` column and its length: the only thing a ``for`` may
    iterate.
``heap`` / ``pushpop``
    ``now, t = pushpop(heap, (clock, t))`` becomes a store and an
    arg-min over the per-thread clocks: the same total ``(clock,
    thread)`` order as the tuple heap.
``tags:LINES,ASSOC`` / ``probe:LINES,SET,ASSOC``
    the tag dict and its ``get``: a lookup is a probe of set ``SET`` (the
    integer local or binding that holds the line's set index by then) in
    ``LINES``, ``None`` is ``-1``, and stores to / deletions from the
    dict are dropped (``LINES`` is the truth; the dict — every
    non-negative entry of ``LINES`` mapped to its index modulo ``ASSOC``
    — is rebuilt from it after the run).
``callout:RET(ARGS)``
    a Python callable: called through a function pointer; the statement
    that called it ends with a check of the error word, so an exception
    raised on the Python side stops the loop there.
``python``
    a name only the call-form loop uses; any reference is refused.

Floats are IEEE doubles evaluated in source order (an ``int`` operand is
converted first, as Python does); the build adds ``-ffp-contract=off``
and no fast-math flag, so every clock is bit-equal to the Python
target's.  Anything outside the subset raises :class:`ValueError`
carrying the rendering's ``source_name`` — the translator never guesses.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Mapping, NamedTuple, Set, Tuple

__all__ = ["Kernel", "callout_signature", "check_fragment", "translate"]

PRELUDE = """\
#include <stdint.h>
typedef int64_t i64;
typedef uint64_t u64;

static inline i64 bit_length(i64 x) {
    u64 v = x < 0 ? -(u64)x : (u64)x;
    return v ? 64 - __builtin_clzll(v) : 0;
}
static inline i64 bit_count(i64 x) {
    return __builtin_popcountll(x < 0 ? -(u64)x : (u64)x);
}
static inline i64 probe(const i64 *row, i64 assoc, i64 line) {
    for (i64 w = 0; w < assoc; w++)
        if (row[w] == line) return w;
    return -1;
}
static inline i64 heap_min(const double *clock, i64 n) {
    i64 best = 0;
    for (i64 u = 1; u < n; u++)
        if (clock[u] < clock[best]) best = u;
    return best;
}
/* Bounded lists: a breach of the bound (or of what Python would raise
   IndexError / ValueError for) traps instead of touching a neighbour. */
static inline i64 list_at(const i64 *o, i64 n, i64 i) {
    if (i < 0) i += n;
    if (i < 0 || i >= n) __builtin_trap();
    return o[i];
}
static inline i64 list_index(const i64 *o, i64 n, i64 v) {
    for (i64 i = 0; i < n; i++)
        if (o[i] == v) return i;
    __builtin_trap();
}
static inline void list_del(i64 *o, i64 *n, i64 i) {
    if (i < 0) i += *n;
    if (i < 0 || i >= *n) __builtin_trap();
    for (*n -= 1; i < *n; i++) o[i] = o[i + 1];
}
static inline void list_remove(i64 *o, i64 *n, i64 v) {
    list_del(o, n, list_index(o, *n, v));
}
static inline void list_insert(i64 *o, i64 *n, i64 cap, i64 i, i64 v) {
    if (*n >= cap) __builtin_trap();
    if (i < 0) i += *n;
    if (i < 0) i = 0;
    if (i > *n) i = *n;
    for (i64 k = *n; k > i; k--) o[k] = o[k - 1];
    o[i] = v;
    *n += 1;
}
"""

_C_TYPES = {"int": "i64", "float": "double"}
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.BitAnd: "&",
           ast.BitOr: "|", ast.BitXor: "^", ast.LShift: "<<",
           ast.RShift: ">>"}
_FLOAT_BINOPS = (ast.Add, ast.Sub, ast.Mult)
_COMPARES = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
             ast.Gt: ">", ast.GtE: ">="}
_ARRAY_KINDS = {"ints": "int", "shared": "int", "cores": "int",
                "floats": "float"}


class Kernel(NamedTuple):
    """One translated kernel."""

    #: The C translation unit; its entry point is ``i64 run(Args *)``.
    source: str
    #: ``(name, C type, kind)`` of every member of ``Args``, in order.
    #: Kinds are those of the module docstring plus ``error`` (the word a
    #: failed call-out sets), ``length`` (the member after a ``lists:``,
    #: ``heap`` or ``column`` one) and ``ret`` (the returned tuple,
    #: ``ret0`` ...).
    members: Tuple[Tuple[str, str, str], ...]
    #: The kernel's own parameters, in order.
    params: Tuple[str, ...]
    #: Arrays and lists the kernel writes (copied back after the run).
    stored: frozenset
    #: ``(dict, LINES, ASSOC)`` of every tag dict whose updates were
    #: dropped (rebuilt after the run).
    tags: Tuple[Tuple[str, str, str], ...]


class _Refused(Exception):
    pass


def callout_signature(kind: str) -> Tuple[str, List[str]]:
    """``(return type, [parameter types])`` of a ``callout:RET(ARGS)``
    kind, each ``"int"`` or ``"float"``."""
    ret, _, params = kind[len("callout:"):].rstrip(")").partition("(")
    return ret, [param for param in params.split(",") if param]


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
    def __init__(self, name: str, kinds: Mapping[str, str]) -> None:
        self.name = name
        self.kinds = kinds
        self.used: Dict[str, str] = {}       # bound name -> kind, first use
        self.locals: Dict[str, str] = {}     # local -> "int" | "float"
        self.optional: Set[str] = set()      # locals that may hold None (-1)
        self.stored: Set[str] = set()
        self.tags: Dict[str, None] = {}
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
        if kind == "python":
            self.refuse(node, f"{node.id!r} exists on the Python target only")
        self.used.setdefault(node.id, kind)
        return kind

    def ref(self, name: str) -> str:
        """C spelling of a bound name."""
        kind = self.kinds[name]
        self.used.setdefault(name, kind)
        return f"a->{name}" if kind in ("shared", "cores") else name

    # ------------------------------------------------------------------
    # Expressions: (C text, "int" | "float" | "opt")
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
        return self.numbers(node, node, floats=True)[0][0]

    def numbers(self, where, *operands, floats=False):
        """``operands`` evaluated once each and brought to one numeric
        type — ``float`` if any is (or ``floats``), an ``int`` operand
        converted first, as Python does: ``([C text, ...], type)``."""
        pairs = [self.expr(operand) for operand in operands]
        for _text, typ in pairs:
            if typ not in ("int", "float"):
                self.refuse(where, "a value that may be None in arithmetic"
                            if typ == "opt" else f"number expected, got {typ}")
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
            typ = self.locals[node.id]
            return node.id, "opt" if node.id in self.optional else typ
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
        (left, right), typ = self.numbers(node, node.left, node.right)
        if typ == "float" and not isinstance(node.op, _FLOAT_BINOPS):
            self.refuse(node, f"float operand of {op}")
        return f"({left} {op} {right})", typ

    def expr_Compare(self, node):
        if len(node.ops) != 1:
            self.refuse(node, "chained comparison")
        op, right = node.ops[0], node.comparators[0]
        if isinstance(op, (ast.Is, ast.IsNot)):
            text, typ = self.expr(node.left)
            if (typ != "opt" or not isinstance(right, ast.Constant)
                    or right.value is not None):
                self.refuse(node, "`is` other than `<probe result> is "
                                  "[not] None`")
            return f"({text} {'<' if isinstance(op, ast.Is) else '>='} 0)", \
                "int"
        symbol = _COMPARES.get(type(op))
        if symbol is None:
            self.refuse(node, f"comparison {type(op).__name__}")
        (left, right), _typ = self.numbers(node, node.left, right)
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
        # pure (no call-outs), so evaluating the left one twice is exact.
        if any(self.has_callout(value) for value in node.values):
            self.refuse(node, "call-out inside a valued and/or")
        text = self.int_expr(node.values[-1])
        for value in reversed(node.values[:-1]):
            left = self.int_expr(value)
            text = (f"({left} ? {left} : {text})"
                    if isinstance(node.op, ast.Or)
                    else f"({left} ? {text} : {left})")
        return text, "int"

    def expr_IfExp(self, node):
        (body, orelse), typ = self.numbers(node, node.body, node.orelse)
        return f"({self.condition(node.test)} ? {body} : {orelse})", typ

    def expr_Attribute(self, node):
        self.refuse(node, f"attribute access .{node.attr}: a kernel touches "
                          f"factory bindings only")

    def expr_Subscript(self, node) -> Tuple[str, str]:
        """An indexed scalar: array element, row element, list element."""
        base = node.value
        index = self.int_expr(node.slice)
        if isinstance(base, ast.Name) and base.id not in self.locals:
            kind = self.kind(base)
            if kind in _ARRAY_KINDS:
                return f"{self.ref(base.id)}[{index}]", _ARRAY_KINDS[kind]
            self.refuse(node, f"{base.id!r} ({kind}) indexed as an array")
        if (isinstance(base, ast.Subscript)
                and isinstance(base.value, ast.Name)
                and self.kinds.get(base.value.id) == "rows"):
            self.kind(base.value)
            row = self.int_expr(base.slice)
            return f"{base.value.id}[{row}][{index}]", "int"
        items, length, _cap = self.list_of(base)
        return f"list_at({items}, *{length}, {index})", "int"

    def list_of(self, node) -> Tuple[str, str, str]:
        """``(items, &length, capacity)`` of a bounded-list expression: a
        local bound to one, or ``lists[i]``."""
        if isinstance(node, ast.Name) and node.id in self.locals:
            if self.locals[node.id].startswith("list:"):
                return node.id, f"{node.id}_n", self.locals[node.id][5:]
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.value, ast.Name)
              and self.kinds.get(node.value.id, "").startswith("lists:")):
            name = node.value.id
            cap = self.capacity(node.value)
            index = self.int_expr(node.slice)
            return (f"({name} + {index} * {cap})", f"(&{name}_n[{index}])",
                    cap)
        if isinstance(node, ast.Attribute):
            self.refuse(node, f"attribute access .{node.attr}: a kernel "
                              f"touches factory bindings only")
        self.refuse(node, "not a bounded list (an unbounded Python list "
                          "has no C layout)")

    def capacity(self, node: ast.Name) -> str:
        cap = self.kind(node).partition(":")[2]
        if self.kinds.get(cap) != "int":
            self.refuse(node, f"list capacity {cap!r} is not a bound int")
        return self.ref(cap)

    def expr_Call(self, node):
        func = node.func
        if node.keywords:
            self.refuse(node, "keyword arguments")
        if isinstance(func, ast.Attribute):
            return self.method(node, func)
        if not isinstance(func, ast.Name) or func.id in self.locals:
            self.refuse(node, "call of a computed callable")
        kind = self.kind(func)
        if kind.startswith("probe:"):
            lines, index, assoc = kind[6:].split(",")
            if self.locals.get(index, self.kinds.get(index)) != "int":
                self.refuse(node, f"{func.id} before its set index "
                                  f"{index!r} is an integer")
            index = index if index in self.locals else self.ref(index)
            lines, assoc = self.ref(lines), self.ref(assoc)
            (arg,) = node.args
            return (f"probe({lines} + {index} * {assoc}, {assoc}, "
                    f"{self.int_expr(arg)})"), "opt"
        if kind.startswith("callout:"):
            ret, params = callout_signature(kind)
            if len(params) != len(node.args):
                self.refuse(node, f"{func.id} takes {len(params)} arguments")
            args = [self.as_float(arg) if typ == "float"
                    else self.int_expr(arg)
                    for typ, arg in zip(params, node.args)]
            return f"a->{func.id}({', '.join(args)})", ret
        self.refuse(node, f"call of {func.id!r} ({kind})")

    def method(self, node, func):
        attr = func.attr
        if attr in ("bit_length", "bit_count") and not node.args:
            return f"{attr}({self.int_expr(func.value)})", "int"
        if attr == "index" and len(node.args) == 1:
            items, length, _cap = self.list_of(func.value)
            return (f"list_index({items}, *{length}, "
                    f"{self.int_expr(node.args[0])})"), "int"
        self.refuse(node, f"attribute .{attr} in an expression")

    def has_callout(self, node) -> bool:
        return any(isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                   and self.kinds.get(sub.func.id, "").startswith("callout:")
                   for sub in ast.walk(node))

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

    def after_callout(self, node, depth: int) -> None:
        if self.has_callout(node):
            self.emit(depth, "if (a->error) return 1;")

    def declare(self, node, name: str, typ: str) -> None:
        if name in self.kinds and name not in self.locals:
            self.refuse(node, f"assignment to the binding {name!r}")
        known = self.locals.setdefault(name, typ)
        if known != typ:
            self.refuse(node, f"{name!r} is {known} and is assigned {typ}")

    def assign(self, target, value: str, typ: str, node, depth: int,
               op: str = "=") -> None:
        if isinstance(target, ast.Name):
            if typ == "opt":
                self.optional.add(target.id)
                typ = "int"
            elif op == "=":
                self.optional.discard(target.id)
            if self.locals.get(target.id) == "float" and typ == "int":
                value, typ = f"(double)({value})", "float"
            self.declare(node, target.id, typ)
            self.emit(depth, f"{target.id} {op} {value};")
            return
        if not isinstance(target, ast.Subscript):
            self.refuse(node, f"assignment to {type(target).__name__}")
        base = target.value
        if self.is_tags(base):
            return                          # the dict mirrors its LINES
        place, place_typ = self.expr_Subscript(target)
        if place.startswith("list_at("):
            self.refuse(node, "store into a bounded-list element")
        if typ == "opt" or (place_typ == "int" and typ == "float"):
            self.refuse(node, f"{typ} stored into an {place_typ} array")
        self.stored.add(base.id if isinstance(base, ast.Name)
                        else base.value.id)
        self.emit(depth, f"{place} {op} {value};")

    def stmt_Assign(self, node, depth):
        if len(node.targets) != 1:
            self.refuse(node, "chained assignment")
        target, value = node.targets[0], node.value
        if isinstance(target, ast.Tuple):
            return self.pushpop(node, target, value, depth)
        if isinstance(target, ast.Name) and self.is_list(value):
            items, length, cap = self.list_of(value)
            self.declare(node, target.id, f"list:{cap}")
            self.emit(depth, f"{target.id} = {items};")
            self.emit(depth, f"{target.id}_n = {length};")
            return
        text, typ = self.expr(value)
        self.assign(target, text, typ, node, depth)
        self.after_callout(value, depth)

    def is_list(self, node) -> bool:
        return ((isinstance(node, ast.Subscript)
                 and isinstance(node.value, ast.Name)
                 and self.kinds.get(node.value.id, "").startswith("lists:")
                 and node.value.id not in self.locals)
                or (isinstance(node, ast.Name)
                    and self.locals.get(node.id, "").startswith("list:")))

    def pushpop(self, node, target, value, depth):
        """``now, t = pushpop(heap, (clock, t))``."""
        shape_ok = (
            isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and self.kinds.get(value.func.id) == "pushpop"
            and len(value.args) == 2 and isinstance(value.args[0], ast.Name)
            and self.kinds.get(value.args[0].id) == "heap"
            and isinstance(value.args[1], ast.Tuple)
            and len(value.args[1].elts) == 2 and len(target.elts) == 2
            and all(isinstance(elt, ast.Name) for elt in target.elts))
        if not shape_ok or self.has_callout(value):
            self.refuse(node, "tuple assignment other than "
                              "`now, t = pushpop(heap, (clock, t))`")
        self.kind(value.func)
        heap = self.ref(value.args[0].id)
        self.kind(value.args[0])
        clock, thread = value.args[1].elts
        now, popped = (elt.id for elt in target.elts)
        self.declare(node, now, "float")
        self.declare(node, popped, "int")
        self.emit(depth, f"{heap}[{self.int_expr(thread)}] = "
                         f"{self.as_float(clock)};")
        self.emit(depth, f"{popped} = heap_min({heap}, {heap}_n);")
        self.emit(depth, f"{now} = {heap}[{popped}];")

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
        self.after_callout(node.value, depth)

    def stmt_Delete(self, node, depth):
        for target in node.targets:
            if not isinstance(target, ast.Subscript):
                self.refuse(node, "del of a name")
            base = target.value
            if self.is_tags(base):
                continue
            items, length, _cap = self.list_of(base)
            self.mark_list_stored(base)
            self.emit(depth, f"list_del({items}, {length}, "
                             f"{self.int_expr(target.slice)});")

    def is_tags(self, node) -> bool:
        if (isinstance(node, ast.Name) and node.id not in self.locals
                and self.kinds.get(node.id, "").startswith("tags:")):
            self.tags[node.id] = None
            return True
        return False

    def mark_list_stored(self, node) -> None:
        if isinstance(node, ast.Subscript):
            self.stored.add(node.value.id)
        else:
            # A local alias: it was bound from ``lists[i]`` of some table;
            # every bounded-list table in use is written back.
            self.stored.update(name for name, kind in self.used.items()
                               if kind.startswith("lists:"))

    def stmt_Expr(self, node, depth):
        call = node.value
        if not isinstance(call, ast.Call):
            self.refuse(node, "expression statement")
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in ("insert",
                                                             "remove"):
            items, length, cap = self.list_of(func.value)
            self.mark_list_stored(func.value)
            args = ", ".join(self.int_expr(arg) for arg in call.args)
            if func.attr == "insert" and len(call.args) == 2:
                self.emit(depth, f"list_insert({items}, {length}, {cap}, "
                                 f"{args});")
                return
            if func.attr == "remove" and len(call.args) == 1:
                self.emit(depth, f"list_remove({items}, {length}, {args});")
                return
        if isinstance(func, ast.Attribute):
            self.refuse(node, f"attribute .{func.attr} is not one of the "
                              f"admitted list methods")
        text, _typ = self.expr(call)
        self.emit(depth, f"(void){text};")
        self.after_callout(call, depth)

    def stmt_If(self, node, depth):
        test = self.condition(node.test)
        if self.has_callout(node.test):
            # The error word is read between the test and the branches.
            self.emit(depth, "{")
            self.emit(depth + 1, f"i64 taken = {test};")
            self.emit(depth + 1, "if (a->error) return 1;")
            self.emit(depth + 1, "if (taken) {")
            depth += 1
        else:
            self.emit(depth, f"if ({test}) {{")
        # ``if x is not None:`` — ``x`` is an integer inside the body; a
        # name may hold None after the statement if it may on either path.
        before = set(self.optional)
        self.optional -= self.narrowed(node.test, ast.IsNot)
        self.block(node.body, depth + 1)
        after_body, self.optional = self.optional, before
        self.optional -= self.narrowed(node.test, ast.Is)
        if node.orelse:
            self.emit(depth, "} else {")
            self.block(node.orelse, depth + 1)
        self.optional |= after_body
        self.emit(depth, "}")
        if self.has_callout(node.test):
            self.emit(depth - 1, "}")

    @staticmethod
    def narrowed(test, op) -> Set[str]:
        if (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], op)
                and isinstance(test.left, ast.Name)):
            return {test.left.id}
        return set()

    def stmt_While(self, node, depth):
        if node.orelse:
            self.refuse(node, "while/else")
        if self.has_callout(node.test):
            self.refuse(node, "call-out in a loop condition")
        forever = (isinstance(node.test, ast.Constant)
                   and node.test.value is True)
        self.emit(depth, "for (;;) {" if forever
                  else f"while ({self.condition(node.test)}) {{")
        before = set(self.optional)
        self.block(node.body, depth + 1)
        self.optional |= before
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
        self.optional.discard(target.id)
        items, index = column.id, f"{column.id}_i"
        self.emit(depth, f"for (i64 {index} = 0; {index} < {items}_n; "
                         f"{index}++) {{")
        self.emit(depth + 1, f"{target.id} = {items}[{index}];")
        before = set(self.optional)
        self.in_for = True
        self.block(node.body, depth + 1)
        self.in_for = False
        self.optional |= before
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
            if typ == "opt":
                self.refuse(node, "return of a value that may be None")
            if position == len(self.returns):
                self.returns.append(typ)
            elif self.returns[position] != typ:
                self.refuse(node, f"return value {position} changes type")
            self.emit(depth, f"a->ret{position} = {text};")
        self.emit(depth, "return 0;")

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
        if not isinstance(kernel.body[-1], ast.Return):
            self.emit(1, "return 0;")

        # Args members in order: (C name, C type, kind of the logical
        # field) — the one list the struct text and the ctypes mirror in
        # repro.cache.native are both built from.
        members: List[Tuple[str, str, str]] = [("error", "i64", "error")]
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
                if kind not in ("shared", "cores"):
                    prologue.append(f"{ctype} *const {name} = a->{name};")
            elif kind.startswith("lists:"):
                members += [(name, "i64 *", kind),
                            (f"{name}_n", "i64 *", "length")]
                prologue += [f"i64 *const {name} = a->{name};",
                             f"i64 *const {name}_n = a->{name}_n;"]
            elif kind == "rows":
                members.append((name, "i64 **", kind))
                prologue.append(f"i64 *const *const {name} = a->{name};")
            elif kind == "column":
                members += [(name, "i64 *", kind),
                            (f"{name}_n", "i64", "length")]
                prologue += [f"const i64 *const {name} = a->{name};",
                             f"const i64 {name}_n = a->{name}_n;"]
            elif kind == "heap":
                members += [(name, "double *", kind),
                            (f"{name}_n", "i64", "length")]
                prologue += [f"double *const {name} = a->{name};",
                             f"const i64 {name}_n = a->{name}_n;"]
            elif kind.startswith("callout:"):
                ret, params = callout_signature(kind)
                params = ", ".join(_C_TYPES[p] for p in params) or "void"
                members.append((name, f"{_C_TYPES[ret]} (*)({params})",
                                kind))
        for position, typ in enumerate(self.returns):
            members.append((f"ret{position}", _C_TYPES[typ], "ret"))
        for name, typ in self.locals.items():
            if typ.startswith("list:"):
                prologue += [f"i64 *{name} = 0;", f"i64 *{name}_n = 0;"]
            else:
                start = f"a->{name}" if name in self.used else "0"
                prologue.append(f"{_C_TYPES[typ]} {name} = {start};")
        struct = [f"    {ctype.replace('(*)', f'(*{name})')};" if "(*)" in ctype
                  else f"    {ctype}{'' if ctype.endswith('*') else ' '}{name};"
                  for name, ctype, _kind in members]
        source = "\n".join(
            [f"/* {self.name}: generated by repro.cache.cgen from the "
             f"rendering of that name. */", PRELUDE, "typedef struct {"]
            + struct + ["} Args;", "", "i64 run(Args *a) {"]
            + ["    " + line for line in prologue] + self.lines + ["}", ""])
        tags = tuple((name, *self.kinds[name][5:].split(","))
                     for name in self.tags)
        return Kernel(source, tuple(members), self.params,
                      frozenset(self.stored), tags)


def translate(source: str, name: str, kinds: Mapping[str, str]) -> Kernel:
    """C translation of the kernel closure in ``source`` — a rendering's
    ``build`` factory — or :class:`ValueError` naming ``name``."""
    factory = ast.parse(source).body[0]
    kernels = [node for node in ast.walk(factory)
               if isinstance(node, ast.FunctionDef) and node is not factory]
    if len(kernels) != 1:
        raise ValueError(f"{name}: expected one kernel closure, found "
                         f"{len(kernels)}")
    translator = _Translator(name, kinds)
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
