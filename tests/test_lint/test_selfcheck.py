"""The shipped tree is lint-clean, and the CLI + engine guard work E2E."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.cli import main
from repro.cmp.engine import ENGINE_GUARDED_SOURCES
from repro.lint import default_context, make_rules, run_lint
from repro.lint.core import LintContext
from repro.lint.rules_engine import ENGINE_MODULE, refresh_engine_checksum

FIXTURES = Path(__file__).resolve().parent / "fixtures"


class TestShippedTreeIsClean:
    def test_full_rule_set_reports_nothing(self):
        diags = run_lint(default_context(), make_rules())
        assert diags == [], "\n".join(d.format() for d in diags)


class TestCli:
    def test_lint_verb_exits_zero_on_this_repo(self, capsys):
        assert main(["lint"]) == 0
        assert capsys.readouterr().out.strip() == "lint: clean"

    def test_json_format_is_machine_readable(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"count": 0, "diagnostics": []}

    def test_list_rules_prints_the_registry(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in ("state-rebind", "engine-version-guard", "docs-links"):
            assert name in out

    def test_bad_tree_fails_with_diagnostics(self, capsys):
        root = FIXTURES / "state_rebind" / "bad"
        assert main(["lint", "--root", str(root),
                     "--rules", "state-rebind"]) == 1
        out = capsys.readouterr().out
        assert "[state-rebind]" in out
        assert out.strip().endswith("lint: 1 problem(s)")

    def test_rule_subset_limits_the_run(self, capsys):
        root = FIXTURES / "state_rebind" / "bad"
        assert main(["lint", "--root", str(root),
                     "--rules", "hot-path-purity"]) == 0


class TestEngineGuardEndToEnd:
    """Editing a guarded hot-path file must trip the guard until refreshed."""

    def _clone_guarded_tree(self, tmp_path):
        src = default_context().src_root
        for rel in (ENGINE_MODULE,) + ENGINE_GUARDED_SOURCES:
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(src / rel, target)
        return LintContext(tmp_path)

    def _guard_diags(self, ctx):
        return run_lint(ctx, make_rules(["engine-version-guard"]))

    def test_pristine_clone_passes(self, tmp_path):
        assert self._guard_diags(self._clone_guarded_tree(tmp_path)) == []

    def test_editing_batched_engine_without_bump_fails(self, tmp_path):
        ctx = self._clone_guarded_tree(tmp_path)
        batched = tmp_path / "repro" / "cmp" / "engine" / "batched.py"
        with batched.open("a", encoding="utf-8") as handle:
            handle.write("\n# tweaked hot path\n")
        (diag,) = self._guard_diags(ctx)
        assert "ENGINE_SOURCE_CHECKSUM was not refreshed" in diag.message

    def test_refresh_repairs_the_tampered_clone(self, tmp_path):
        ctx = self._clone_guarded_tree(tmp_path)
        batched = tmp_path / "repro" / "cmp" / "engine" / "batched.py"
        with batched.open("a", encoding="utf-8") as handle:
            handle.write("\n# tweaked hot path\n")
        refresh_engine_checksum(ctx)
        assert self._guard_diags(LintContext(tmp_path)) == []
