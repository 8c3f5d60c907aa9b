"""Experiment-module export contract (``repro/experiments/fig*|table*``).

The campaign runner, the report builder and ``campaign run`` all address
an experiment module through the same module-level functions; a missing or
mis-shaped export only surfaces at run time, deep inside a sweep.  The
``experiment-contract`` rule pins the surface statically:

* every module must export ``matrix(scale)``, ``assemble(scale,
  results)``, ``tables(data)``, ``points(data)`` and ``references()`` —
  the surface the one section registry
  (:mod:`repro.reporting.sections`) builds every section from;
* figure modules (``fig*.py``) additionally export ``charts(data)``;
  table modules (``table*.py``) are static and chart nothing.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator

from repro.lint.core import Diagnostic, LintContext, Rule, register_rule

#: Directory holding the experiment modules.
EXPERIMENTS_DIR = "repro/experiments"

#: Required module-level exports and their positional arities.
TABLE_EXPORTS: Dict[str, int] = {
    "matrix": 1, "assemble": 2, "tables": 1, "points": 1, "references": 0,
}
FIGURE_EXPORTS: Dict[str, int] = {**TABLE_EXPORTS, "charts": 1}


def _accepts_positional(func: ast.FunctionDef, arity: int) -> bool:
    """True when ``func(a1, .., a_arity)`` is a valid positional call.

    Extra *optional* parameters beyond the contract arity are allowed
    (``table1.matrix(scale=None)``); missing or extra *required*
    parameters are not.
    """
    total = len(func.args.posonlyargs) + len(func.args.args)
    required = total - len(func.args.defaults)
    if func.args.vararg is not None:
        return required <= arity
    return required <= arity <= total


@register_rule
class ExperimentContractRule(Rule):
    """Every fig*/table* module exports the declared function surface."""

    name = "experiment-contract"
    description = ("experiments/fig*|table* module is missing a required "
                   "export or exports it with the wrong arity")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for path, tree in ctx.trees():
            rel = path.relative_to(ctx.src_root)
            if rel.parent.as_posix() != EXPERIMENTS_DIR:
                continue
            if rel.name.startswith("fig"):
                required = FIGURE_EXPORTS
            elif rel.name.startswith("table"):
                required = TABLE_EXPORTS
            else:
                continue
            defined = {node.name: node for node in tree.body
                       if isinstance(node, ast.FunctionDef)}
            for name, arity in sorted(required.items()):
                func = defined.get(name)
                if func is None:
                    yield self.diag(
                        ctx, path, 1,
                        f"experiment module does not export {name}() "
                        f"(campaign/report contract; expected "
                        f"{arity} positional argument(s))")
                    continue
                if not _accepts_positional(func, arity):
                    yield self.diag(
                        ctx, path, func.lineno,
                        f"{name}() cannot be called with {arity} "
                        f"positional argument(s) (campaign/report "
                        f"contract)")
