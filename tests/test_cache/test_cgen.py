"""The C translator, construct by construct.

:func:`repro.cache.cgen.translate` is the only way C enters the program,
so every construct of the Python subset it admits is pinned to the C it
must emit, and everything outside the subset must be *refused* at
translation time with the rendering's name — it never emits C that
compiles to something else.  That the emitted C computes what the Python
computes is the differential suites' job
(``tests/test_cmp/test_compiled_target.py``); here the text is checked.
"""

import textwrap

import pytest

from repro.cache import cgen, transitions

NAME = "<repro kernel test/none loop>"

KINDS = {
    "x": "int", "y": "int", "f": "float", "g": "float",
    "ints": "ints", "floats": "floats", "shared": "ints",
    "cores": "cores", "cap": "int", "rows": "rows", "col": "column",
    "out": "callout:float(int,float)", "ask": "callout:int()",
    # what was a table of bounded lists: flat slots, like LRU's order
    "lists": "ints",
    # declared, but no factory of this module assigns it
    "stray": "ints",
}


def translate(body, params="x, y, f, g", kinds=KINDS):
    """Translate ``body`` as the kernel of a factory that binds every
    declared name but ``stray`` from its owner, as a rendering does."""
    binds = "".join(f"    {name} = owner.{name}\n" for name in kinds
                    if name != "stray")
    source = (f"def build(owner):\n{binds}    def kernel({params}):\n"
              + textwrap.indent(textwrap.dedent(body), " " * 8)
              + "\n    return kernel\n")
    return cgen.translate(source, NAME, kinds)


def emitted(body, **kw):
    """The C statements of ``body``, one per line, unindented."""
    return [line.strip() for line in translate(body, **kw).source.splitlines()]


# ----------------------------------------------------------------------
# Golden snippets: one per admitted construct
# ----------------------------------------------------------------------
GOLDEN = [
    # locals: typed by their first assignment, zero-initialised
    ("a = x + 1", ["i64 a = 0;", "a = (x + INT64_C(1));"]),
    ("a = f * 2.5", ["double a = 0;", "a = (f * 2.5);"]),
    # an assigned parameter is a local initialised from the argument block
    ("x = x - y", ["i64 x = a->x;", "const i64 y = a->y;", "x = (x - y);"]),
    # int -> float exactly where Python converts
    ("a = x * f", ["a = ((double)(x) * f);"]),
    ("a = f\na = x", ["a = (double)(x);"]),
    # integer and bit operators, fully parenthesised
    ("a = (x & ~y) | (1 << y) ^ (x >> 2)",
     ["a = ((x & (~y)) | ((INT64_C(1) << y) ^ (x >> INT64_C(2))));"]),
    ("a = -x", ["a = (-x);"]),
    ("a = x\na += 3\na <<= y", ["a += INT64_C(3);", "a <<= y;"]),
    ("a = f\na -= x", ["a -= (double)(x);"]),
    # comparisons, boolean context, valued and/or, conditional expression
    ("if x < y and not x == 3 or f >= g:\n    a = 1",
     ["if ((((x < y) && !((x == INT64_C(3)))) || (f >= g))) {"]),
    ("a = (x & y) or y", ["a = ((x & y) ? (x & y) : y);"]),
    ("a = x and y", ["a = (x ? y : x);"]),
    ("a = x if x < y else 0", ["a = ((x < y) ? x : INT64_C(0));"]),
    ("a = f if x else y", ["a = (x ? f : (double)(y));"]),
    # control flow
    ("while True:\n    break", ["for (;;) {", "break;"]),
    ("a = x\nwhile a:\n    a -= 1", ["while (a) {"]),
    ("if x:\n    a = 1\nelif y:\n    a = 2\nelse:\n    a = 3",
     ["if (x) {", "} else {", "if (y) {"]),
    ("pass", []),
    # for over a column: an index walk; continue is C's
    ("n = 0\nfor v in col:\n    if v & x:\n        continue\n    n += v",
     ["const i64 *const col = a->col;", "const i64 col_n = a->col_n;",
      "i64 v = 0;",
      "for (i64 col_i = 0; col_i < col_n; col_i++) {", "v = col[col_i];",
      "continue;", "n += v;"]),
    ("a = x\nwhile a:\n    a -= 1\n    if a & 1:\n        continue\n"
     "    y = a", ["while (a) {", "continue;"]),
    # int methods
    ("a = (x & -x).bit_length() - 1",
     ["a = (bit_length((x & (-x))) - INT64_C(1));"]),
    ("a = x.bit_count()", ["a = bit_count(x);"]),
    # arrays — the owner's, shared for the call — through a local
    # pointer read once: a call-out's stores land in the same memory
    ("ints[x] = ints[y] + 1",
     ["i64 *const ints = a->ints;", "ints[x] = (ints[y] + INT64_C(1));"]),
    ("floats[x] += f", ["floats[x] += f;"]),
    ("a = shared[x] + cores[y]", ["i64 *const shared = a->shared;",
                                  "a = (shared[x] + cores[y]);"]),
    ("cores[x] += 1", ["i64 *const cores = a->cores;",
                       "cores[x] += INT64_C(1);"]),
    ("a = rows[x][y]", ["i64 *const *const rows = a->rows;",
                        "a = rows[x][y];"]),
    # a probe of the set's row, as the skeletons write it: a while that
    # stops at the line's way, or at ``cap`` when it is not there
    ("s = y >> 2\nw = 0\nwhile w < cap and ints[s * cap + w] != y:\n"
     "    w += 1",
     ["s = (y >> INT64_C(2));", "w = INT64_C(0);",
      "while (((w < cap) && (ints[((s * cap) + w)] != y))) {",
      "w += INT64_C(1);"]),
    # the loop's next thread: a store and an arg-min over the clocks,
    # the lowest index among equal ones
    ("c = f\nfloats[x] = c\nx = 0\nu = 1\nwhile u < y:\n"
     "    if floats[u] < floats[x]:\n        x = u\n    u += 1\n"
     "f = floats[x]",
     ["floats[x] = c;", "x = INT64_C(0);", "while ((u < y)) {",
      "if ((floats[u] < floats[x])) {", "x = u;", "f = floats[x];"]),
    # call-outs: through the block, error word checked after the statement
    ("g = out(x, f)", ["g = a->out(x, f);", "if (a->error) return 1;"]),
    ("a = out(x, y)", ["a = a->out(x, (double)(y));"]),
    ("if x and not ask():\n    a = 1",
     ["i64 taken = (x && !(a->ask()));", "if (a->error) return 1;",
      "if (taken) {"]),
    # the returned tuple lands in the block
    ("return f, x", ["a->ret0 = f;", "a->ret1 = x;", "return 0;"]),
]


@pytest.mark.parametrize("body,expected", GOLDEN,
                         ids=[body.splitlines()[0] for body, _ in GOLDEN])
def test_golden_snippet(body, expected):
    lines = emitted(body)
    for statement in expected:
        assert statement in lines, "\n".join(lines[lines.index(
            "i64 run(Args *a) {"):])


def test_a_column_is_a_pointer_and_its_length():
    kernel = translate("for v in col:\n    ints[v] += 1", params="col")
    assert [m for m in kernel.members if m[0].startswith("col")] \
        == [("col", "i64 *", "column"), ("col_n", "i64", "length")]
    assert kernel.params == ("col",) and kernel.stored == {"ints"}
    assert "    i64 *col;\n    i64 col_n;\n" in kernel.source


def test_members_mirror_the_struct_in_order():
    kernel = translate("ints[x] = 1\ncores[y] += x\ng = out(x, f)\n"
                       "floats[x] = g\nx = 0\nf = floats[x]\nreturn f, x")
    names = [name for name, _ctype, _kind in kernel.members]
    assert names == ["error", "x", "f", "g", "ints", "y", "cores", "out",
                     "floats", "ret0", "ret1"]
    struct = kernel.source[kernel.source.index("typedef struct {"):
                           kernel.source.index("} Args;")]
    assert [line.split()[-1].rstrip(";").lstrip("*")
            for line in struct.splitlines()[1:]
            if "(*" not in line] == [n for n in names if n != "out"]
    assert "double (*out)(i64, double);" in struct
    assert kernel.params == ("x", "y", "f", "g")
    assert kernel.stored == {"ints", "cores", "floats"}


# ----------------------------------------------------------------------
# Refusals: anything else raises, naming the rendering
# ----------------------------------------------------------------------
REFUSED = [
    ("a = x.real", "attribute access .real"),
    # an element of flat slots is an int: no list method, no walk
    ("lists[x].sort()", "method .sort()"),
    ("a = lists[x].pop()", "method .pop()"),
    ("lists[x].insert(0, y)", "method .insert()"),
    ("a = lists[x].index(y)", "method .index()"),
    ("a = f / 2", "operator Div"),
    ("a = x // 2", "operator FloorDiv"),
    ("a = x % 2", "operator Mod"),
    ("a = x ** 2", "operator Pow"),
    ("a = f & 1", "float operand of &"),
    ("a = x\na = f", "'a' is int and is assigned float"),
    ("ints[x] = f", "float stored into an int array"),
    ("a = z + 1", "unknown name 'z'"),
    # declared in the kinds table, but this factory never assigns it
    ("stray[x] += 1", "'stray' (ints) is not assigned by this rendering's "
                      "factory"),
    ("a = len(ints)", "unknown name 'len'"),
    ("a = py", "unknown name 'py'"),
    ("a = ints", "'ints' (ints) used as a value"),
    ("ints = 3", "assignment to the binding 'ints'"),
    ("o = [x, y]", "List is outside the translated subset"),
    ("o = [x, y]\no.insert(0, x)", "List is outside the translated subset"),
    ("for a in ints:\n    pass", "for over anything but a column"),
    ("for a in range(3):\n    pass", "for over anything but a column"),
    ("for a in rows[x]:\n    pass", "for over anything but a column"),
    ("o = lists[x]\nfor a in o:\n    pass",
     "for over anything but a column"),
    ("for a in col:\n    pass\nelse:\n    y = 1", "for/else"),
    ("for a in col:\n    for b in col:\n        pass", "nested for"),
    ("for a in col:\n    a = a + 1", "store to the loop variable 'a'"),
    ("for a in col:\n    a += 1", "store to the loop variable 'a'"),
    ("for a, b in col:\n    pass", "for target other than a plain name"),
    ("for cap in col:\n    pass", "assignment to the binding 'cap'"),
    ("a = col", "'col' (column) used as a value"),
    ("a = col[x]", "'col' (column) indexed as an array"),
    # a probe's row from a set index that is not an integer
    ("s = f\nw = ints[s * cap]", "integer expected, got float"),
    ("a = x < y < 3", "chained comparison"),
    # no value may be None: ``is`` is not translated
    ("a = x is y", "comparison Is"),
    ("a = x is not None", "comparison IsNot"),
    ("a = True", "constant True"),
    ("a = 'x'", "constant 'x'"),
    ("a, b = x, y", "tuple assignment"),
    ("a = b = x", "chained assignment"),
    ("while ask():\n    pass", "call-out in a loop condition"),
    ("a = (x or ask())", "call-out inside a valued and/or"),
    ("a = out(x)", "out takes 2 arguments"),
    ("a = x\na += f", "integer expected, got float"),
    ("try:\n    pass\nexcept Exception:\n    pass", "Try statement"),
    ("a = lambda: x", "Lambda is outside"),
    ("del x", "Delete statement is outside the translated subset"),
    ("del ints[x]", "Delete statement is outside the translated subset"),
    ("ints[x:y] = 0", "Slice is outside"),
]


@pytest.mark.parametrize("body,why", REFUSED,
                         ids=[body.splitlines()[0] for body, _ in REFUSED])
def test_refused_with_the_rendering_name(body, why):
    with pytest.raises(ValueError) as info:
        translate(body)
    assert str(info.value).startswith(NAME + ": line ")
    assert why in str(info.value)


def test_a_parameter_without_a_kind_is_refused():
    with pytest.raises(ValueError, match="parameter 'q' has no declared"):
        translate("a = 1", params="q")


def test_an_unbounded_list_binding_is_refused():
    """A list binding, bounded or not, has no C layout: the translator
    has no list kind, so neither its elements nor their methods
    translate."""
    for kind in ("lists:nowhere", "lists:cap"):
        kinds = dict(KINDS, lists=kind)
        with pytest.raises(ValueError, match=rf"'lists' \({kind}\) indexed "
                                             rf"as an array"):
            translate("a = lists[x] + 1", kinds=kinds)
        with pytest.raises(ValueError, match=r"method \.insert\(\)"):
            translate("lists[x].insert(0, y)", kinds=kinds)


@pytest.mark.parametrize("rendering,slot,text,method", [
    ("loop", "promote", "orders.remove(way)\norders.insert(row, way)",
     "remove"),
    ("loop", "promote", "orders.insert(row, way)", "insert"),
    ("observe", "sdh", "sdh_r[orders.index(way, row) - row + 1] += 1",
     "index"),
], ids=["remove", "insert", "index"])
def test_a_list_method_in_a_fragment_is_refused_by_name(
        rendering, slot, text, method, monkeypatch):
    """Every piece of kernel state is a flat array, so no kernel has
    container methods: the C translation refuses the method by name (as
    ``hot-path-purity`` refuses the attribute load)."""
    monkeypatch.setitem(transitions.POLICIES, "probe",
                        dict(transitions.POLICIES["lru"], **{slot: text}))
    with pytest.raises(ValueError,
                       match=rf"<repro kernel probe/none {rendering}>: line "
                             rf"\d+: method \.{method}\(\)"):
        transitions.translate(rendering, ("probe", "none"))


# ----------------------------------------------------------------------
# The shipped spec
# ----------------------------------------------------------------------
STOCK = [(policy, scheme) for policy in transitions.POLICIES
         for scheme in transitions.SCHEMES]


@pytest.mark.parametrize("key", STOCK, ids="/".join)
def test_every_stock_loop_translates(key):
    kernel = transitions.translate("loop", key)
    assert kernel.params[:4] == ("now", "t", "clocks", "threads")
    assert {"tag_lines", "invalid", "misses", "anchor", "cur", "clocks"} \
        <= kernel.stored
    # A line is a probe of its set's row of the tag lines, and the next
    # thread an arg-min over the clocks: no helper, no dict, no heap.
    body = kernel.source[kernel.source.index("i64 run"):]
    assert "while (((way < assoc) && (tag_lines[(row + way)] != line)))" \
        in body
    assert "if ((clocks[u] < clocks[t])) {" in body


@pytest.mark.parametrize("policy", list(transitions.POLICIES))
def test_every_stock_drain_translates(policy):
    key = (policy, "none")
    kernel = transitions.translate("observe", key)
    assert kernel.params == ("batch",)
    assert {"tag_lines", "invalid", "sdh_r", "counts"} <= kernel.stored
    # Read-only tables are never copied back.
    assert not kernel.stored & {"dist", "keep", "setb", "table", "batch"}
    body = kernel.source[kernel.source.index("i64 run"):]
    assert "for (i64 batch_i = 0; batch_i < batch_n; batch_i++) {" in body
    assert "a->error" not in body           # no call-out: nothing to check
    assert "double" not in body             # integer work only


def test_float_operation_in_a_fragment_is_refused():
    """Policy and scheme fragments are integer state transitions; the
    skeleton's clock arithmetic is the only float code there is."""
    for text, label in (("used = used_l[$set] * 0.5", "float constant"),
                        ("used = used_l[$set] / 2", "true division"),
                        ("used = mem_pen", "float binding")):
        policies = dict(transitions.POLICIES, probe=dict(
            transitions.POLICIES["nru"], fill_invalid=text))
        with pytest.raises(ValueError) as info:
            transitions.translate("loop", ("probe", "none"),
                                  policies=policies)
        assert str(info.value).startswith(
            "<repro kernel probe/none loop>: float operation in policy "
            "'fill_invalid' fragment"), label
    # The same fragments still render as Python text.
    transitions.render("loop", ("probe", "none"), policies=policies)


def test_the_sdh_read_is_held_to_the_same_rule():
    """The fragment only ``observe`` expands: the float it once carried
    (NRU's ``ceil(scaling * U)``) is refused there and ignored by the
    event loop, which never renders it."""
    policies = dict(transitions.POLICIES, probe=dict(
        transitions.POLICIES["nru"],
        sdh="sdh_r[1 + (used_l[$set].bit_count() * 3) / 4] += 1"))
    with pytest.raises(ValueError) as info:
        transitions.translate("observe", ("probe", "none"),
                              policies=policies)
    assert str(info.value).startswith(
        "<repro kernel probe/none observe>: float operation in policy "
        "'sdh' fragment")
    transitions.translate("loop", ("probe", "none"), policies=policies)
