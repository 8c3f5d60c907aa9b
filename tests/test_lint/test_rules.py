"""Per-rule verdicts on the on-disk good/bad fixture trees."""

from __future__ import annotations

import pytest

RULES = sorted([
    "kernel-kind-override", "state-rebind", "hot-path-purity",
    "experiment-contract", "job-hash-discipline", "import-purity",
    "public-docstrings", "engine-version-guard", "docs-links",
])


@pytest.mark.parametrize("rule", RULES)
class TestFixturePairs:
    def test_good_tree_is_clean(self, rule, lint_fixture):
        assert lint_fixture(rule, "good") == []

    def test_bad_tree_is_flagged_by_that_rule_only(self, rule, lint_fixture):
        diags = lint_fixture(rule, "bad")
        assert diags, f"{rule} bad fixture produced no diagnostics"
        assert {d.rule for d in diags} == {rule}


class TestKernelKindOverride:
    def test_flags_the_sneaky_subclass(self, lint_fixture):
        (diag,) = lint_fixture("kernel-kind-override", "bad")
        assert "SneakyPolicy" in diag.message
        assert "touch_fill" in diag.message


class TestStateRebind:
    def test_names_attribute_and_in_place_fix(self, lint_fixture):
        (diag,) = lint_fixture("state-rebind", "bad")
        assert "self._quota" in diag.message
        assert "[:]" in diag.message


class TestHotPathPurity:
    def test_a_list_method_in_a_rendered_closure_is_an_attribute_load(
            self, lint_fixture):
        """``PURE_ATTRS`` names only the C-level ``int`` methods a
        closure may call on a local: kernel state is flat arrays, so a
        list method (``record.remove(t)``) is an attribute load."""
        messages = [m.message
                    for m in lint_fixture("hot-path-purity", "bad")
                    if "attribute load .remove" in m.message]
        assert len(messages) == 1           # one per (message, line)
        assert "<repro kernel flat/none loop>" in messages[0]
        assert "`record.remove(t)`" in messages[0]

    def test_flags_fragment_storing_to_a_skeleton_local(self, lint_fixture):
        """A scheme fragment assigning the event loop's horizon would
        move every boundary without any error; the rendering that
        declares the local private is refused, the renderings that do
        not are still checked."""
        messages = [m.message
                    for m in lint_fixture("hot-path-purity", "bad")
                    if "does not render" in m.message]
        assert len(messages) == 2           # one per policy of the fixture
        assert any("<repro kernel flat/clobber loop>" in m for m in messages)
        assert all("scheme 'mask' -> horizon" in m for m in messages)

    def test_covers_batched_event_loop(self, lint_fixture):
        """The event loop of ``BatchedEngine.run`` is a rendering of the
        transition spec: it runs once per L2 access and is held to the
        strict contract against what its factory and signature bind."""
        messages = [m.message
                    for m in lint_fixture("hot-path-purity", "bad")
                    if "build.loop" in m.message]
        assert any("List allocation" in m
                   and "<repro kernel flat/none loop>" in m
                   for m in messages)
        assert any("lookup of 'heappush'" in m for m in messages)
        assert not any("lookup of 'lines'" in m for m in messages)

    def test_stock_loop_without_a_c_target_is_flagged(self, lint_fixture):
        """A spec that declares ``C_KINDS`` promises every stock event
        loop a C translation: a fragment outside the translated subset
        (an attribute chase) or a skeleton statement outside it (a list
        allocation) is named with its rendering — and the good tree, same
        tables less those, translates."""
        messages = sorted(m.message
                          for m in lint_fixture("hot-path-purity", "bad")
                          if "no C target" in m.message
                          and " loop>" in m.message)
        assert len(messages) == 2           # */clobber does not render
        assert "<repro kernel flat/none loop>" in messages[0]
        assert "attribute access ._used" in messages[0]
        assert "<repro kernel walk/none loop>" in messages[1]
        assert "List is outside the translated subset" in messages[1]

    def test_stock_drain_without_a_c_target_is_flagged(self, lint_fixture):
        """The same promise for every ``observe`` key.  The two shapes
        that once kept the drains in the interpreter are each refused by
        name: a float in an ``sdh`` fragment (NRU's ``ceil(S * U)``) and a
        ``for`` over anything but a column (BT's tuple of path bits)."""
        messages = [m.message
                    for m in lint_fixture("hot-path-purity", "bad")
                    if "no C target" in m.message
                    and " observe>" in m.message]
        assert len(messages) == 2
        assert any("<repro kernel flat/none observe>: float operation in "
                   "policy 'sdh' fragment" in m for m in messages)
        assert any("<repro kernel walk/none observe>" in m
                   and "for over anything but a column binding" in m
                   for m in messages)

    def test_covers_every_rendering_of_a_fragment(self, lint_fixture):
        """A fragment with an attribute chase is flagged in the observe
        kernel and the fused loop it is rendered into — once per
        rendering kind, not once per (policy, scheme)."""
        messages = [m.message
                    for m in lint_fixture("hot-path-purity", "bad")
                    if "attribute load ._used" in m.message]
        assert len(messages) == 2
        for closure in ("observe_many", "loop"):
            assert any(f"build.{closure}" in m for m in messages)
        assert all("`cache.policy._used[s] |= 1 << way`" in m
                   for m in messages)


class TestExperimentContract:
    def test_flags_missing_export_and_wrong_arity(self, lint_fixture):
        messages = [d.message
                    for d in lint_fixture("experiment-contract", "bad")]
        assert any("does not export references()" in m for m in messages)
        assert any("does not export tables()" in m for m in messages)
        assert any("run() cannot be called with 2" in m for m in messages)

    def test_good_run_may_take_optional_extras(self, lint_fixture):
        """fig9-style run(scale, runner, extra=None) satisfies arity 2, and
        a table module needs neither run() nor charts()."""
        assert lint_fixture("experiment-contract", "good") == []

    def test_tables_share_the_registry_surface(self):
        """One surface for all six modules: what the section registry calls
        on a table is a subset of what it calls on a figure."""
        from repro.lint.rules_experiments import (
            FIGURE_EXPORTS,
            TABLE_EXPORTS,
        )
        assert TABLE_EXPORTS.items() <= FIGURE_EXPORTS.items()
        assert {"tables": 1, "assemble": 2}.items() <= TABLE_EXPORTS.items()


class TestJobHashDiscipline:
    def test_flags_frozen_and_both_field_kinds(self, lint_fixture):
        messages = [d.message
                    for d in lint_fixture("job-hash-discipline", "bad")]
        assert any("frozen=True" in m for m in messages)
        assert any("Job.seed" in m for m in messages)
        assert any("ExperimentScale.measure" in m for m in messages)


class TestImportPurity:
    def test_flags_toplevel_relative_and_function_level(self, lint_fixture):
        diags = lint_fixture("import-purity", "bad")
        assert len(diags) == 3


class TestPublicDocstrings:
    def test_flags_module_function_class_and_method(self, lint_fixture):
        messages = [d.message
                    for d in lint_fixture("public-docstrings", "bad")]
        assert len(messages) == 4

    def test_good_tree_exercises_the_exemptions(self, fixture_context):
        """The clean tree has an undocumented override + property setter."""
        source = (fixture_context("public-docstrings", "good").src_root
                  / "repro" / "widgets.py").read_text(encoding="utf-8")
        assert "def refresh(self):\n        self._cache" in source
        assert "@size.setter" in source


class TestEngineVersionGuard:
    def test_stale_checksum_names_the_refresh_command(self, lint_fixture):
        (diag,) = lint_fixture("engine-version-guard", "bad")
        assert "ENGINE_SOURCE_CHECKSUM was not refreshed" in diag.message
        assert "--refresh-engine-checksum" in diag.message


class TestDocsLinks:
    def test_flags_missing_required_docs_and_broken_targets(
            self, lint_fixture):
        diags = lint_fixture("docs-links", "bad")
        missing = [d for d in diags
                   if d.message == "required documentation file is missing"]
        assert {d.path for d in missing} > {"CHANGES.md", "ROADMAP.md",
                                            "docs/architecture.md"}
        assert any("broken link -> docs/missing.md" in d.message
                   for d in diags)
        assert any("broken anchor -> #no-such-heading" in d.message
                   for d in diags)
