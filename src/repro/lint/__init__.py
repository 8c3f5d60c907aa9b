"""``repro lint`` — AST-based contract checker for this repository.

The codebase leans on a handful of hand-enforced contracts (the
PolicyState flat-array rules, the experiment-module export surface, the
store-key field discipline, the engine-version/cache-key coupling).  This
package checks them mechanically, with stdlib ``ast`` only:

========================  ==============================================
rule                      contract
========================  ==============================================
state-rebind              state arrays are mutated in place, not rebound
hot-path-purity           every rendering of the spec translates to C
experiment-contract       fig*/table* modules export the full surface
job-hash-discipline       every job/scale field keyed or UNKEYED_FIELDS
import-purity             declared pure modules import no ``repro``
public-docstrings         public API carries docstrings
engine-version-guard      hot-path edits refresh the version checksum
docs-links                required docs exist, links/anchors resolve
========================  ==============================================

Entry points: ``python -m repro lint`` (CI), the ``repro lint`` CLI verb,
or programmatically::

    from repro import lint
    diagnostics = lint.run_lint(lint.default_context())

Suppress a finding in place with ``# lint: disable=<rule>`` on the
flagged line, ``# lint: disable-next=<rule>`` on the line above it, or
``# lint: disable-file=<rule>`` for a whole file.  Rules and rationale:
``docs/static-analysis.md``.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.core import (
    RULE_REGISTRY,
    Diagnostic,
    LintContext,
    Rule,
    format_json,
    format_text,
    make_rules,
    register_rule,
    run_lint,
)
# Importing the rule modules populates RULE_REGISTRY.
from repro.lint import rules_campaign  # noqa: F401
from repro.lint import rules_docs  # noqa: F401
from repro.lint import rules_docstrings  # noqa: F401
from repro.lint import rules_engine  # noqa: F401
from repro.lint import rules_experiments  # noqa: F401
from repro.lint import rules_imports  # noqa: F401
from repro.lint import rules_policy  # noqa: F401
from repro.lint.rules_engine import refresh_engine_checksum

__all__ = [
    "Diagnostic", "LintContext", "Rule", "RULE_REGISTRY", "register_rule",
    "make_rules", "run_lint", "format_text", "format_json",
    "default_context", "refresh_engine_checksum",
]


def default_context() -> LintContext:
    """Context for this repo: scan ``src/``, anchor docs at the repo root."""
    src_root = Path(__file__).resolve().parents[2]
    return LintContext(src_root)
