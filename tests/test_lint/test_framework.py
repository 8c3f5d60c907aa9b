"""Framework-level behaviour: registry, formatting, suppressions, syntax."""

from __future__ import annotations

import json

import pytest

from repro.lint import RULE_REGISTRY, default_context
from repro.lint.core import (
    SYNTAX_RULE,
    Diagnostic,
    LintContext,
    format_json,
    format_text,
    make_rules,
    run_lint,
)

EXPECTED_RULES = {
    "state-rebind", "hot-path-purity", "experiment-contract",
    "job-hash-discipline", "import-purity", "public-docstrings",
    "engine-version-guard", "docs-links",
}

#: A state-rebind violation template used by the suppression tests; the
#: placeholder line carries the rebind that the rule flags.
_REBIND_MODULE = '''\
"""Fixture."""


class Scheme:
    """Fixture."""

    def __init__(self):
        self._quota = [0] * 4

    def apply(self, counts):
        """Fixture."""
{rebind_block}
'''


def _write_rebind(tmp_path, rebind_block):
    """A tmp src tree whose one stateful module contains rebind_block."""
    module = tmp_path / "repro" / "cache" / "partition" / "scheme.py"
    module.parent.mkdir(parents=True)
    module.write_text(_REBIND_MODULE.format(rebind_block=rebind_block),
                      encoding="utf-8")
    return LintContext(tmp_path)


def _rebind_diags(tmp_path, rebind_block):
    ctx = _write_rebind(tmp_path, rebind_block)
    return run_lint(ctx, make_rules(["state-rebind"]))


class TestRegistry:
    def test_registry_is_exactly_the_documented_rule_set(self):
        assert set(RULE_REGISTRY) == EXPECTED_RULES

    def test_make_rules_default_is_all_rules(self):
        assert {rule.name for rule in make_rules()} == EXPECTED_RULES

    def test_make_rules_subset_preserves_request(self):
        rules = make_rules(["state-rebind", "docs-links"])
        assert {rule.name for rule in rules} == {"state-rebind",
                                                 "docs-links"}

    def test_make_rules_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="no-such-rule"):
            make_rules(["no-such-rule"])

    def test_every_rule_has_name_and_description(self):
        for rule in make_rules():
            assert rule.name and rule.description

    def test_default_context_points_at_src(self):
        ctx = default_context()
        assert (ctx.src_root / "repro" / "lint" / "core.py").is_file()


class TestFormatting:
    DIAGS = [Diagnostic("state-rebind", "repro/x.py", 12, "rebind")]

    def test_diagnostic_format(self):
        assert self.DIAGS[0].format() == "repro/x.py:12: [state-rebind] rebind"

    def test_text_clean(self):
        assert format_text([]) == "lint: clean"

    def test_text_report_ends_with_count(self):
        text = format_text(self.DIAGS)
        assert text.splitlines()[0] == self.DIAGS[0].format()
        assert text.splitlines()[-1] == "lint: 1 problem(s)"

    def test_json_round_trips(self):
        payload = json.loads(format_json(self.DIAGS))
        assert payload["count"] == 1
        assert payload["diagnostics"][0] == {
            "rule": "state-rebind", "path": "repro/x.py", "line": 12,
            "message": "rebind"}

    def test_json_clean(self):
        assert json.loads(format_json([])) == {"count": 0,
                                               "diagnostics": []}


class TestSuppressions:
    def test_unsuppressed_violation_is_reported(self, tmp_path):
        diags = _rebind_diags(
            tmp_path, "        self._quota = list(counts)")
        assert [d.rule for d in diags] == ["state-rebind"]

    def test_disable_covers_its_own_line(self, tmp_path):
        assert _rebind_diags(
            tmp_path,
            "        self._quota = list(counts)"
            "  # lint: disable=state-rebind") == []

    def test_disable_next_covers_the_following_line(self, tmp_path):
        assert _rebind_diags(
            tmp_path,
            "        # lint: disable-next=state-rebind\n"
            "        self._quota = list(counts)") == []

    def test_disable_file_covers_the_whole_file(self, tmp_path):
        assert _rebind_diags(
            tmp_path,
            "        self._quota = list(counts)\n"
            "# lint: disable-file=state-rebind") == []

    def test_disable_for_another_rule_does_not_suppress(self, tmp_path):
        diags = _rebind_diags(
            tmp_path,
            "        self._quota = list(counts)"
            "  # lint: disable=hot-path-purity")
        assert [d.rule for d in diags] == ["state-rebind"]


class TestSyntaxErrors:
    def test_unparsable_file_yields_syntax_diagnostic(self, tmp_path):
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro" / "broken.py").write_text(
            '"""Doc."""\ndef broken(:\n', encoding="utf-8")
        diags = run_lint(LintContext(tmp_path), make_rules(["state-rebind"]))
        assert [d.rule for d in diags] == [SYNTAX_RULE]
        assert diags[0].path.endswith("repro/broken.py")
        assert "cannot parse" in diags[0].message
