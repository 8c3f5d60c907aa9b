"""Per-rule verdicts on the on-disk good/bad fixture trees."""

from __future__ import annotations

import re

import pytest

from repro.cache import transitions

RULES = sorted([
    "state-rebind", "hot-path-purity", "experiment-contract",
    "job-hash-discipline", "import-purity", "public-docstrings",
    "engine-version-guard", "docs-links",
])


@pytest.mark.parametrize("rule", RULES)
class TestFixturePairs:
    def test_good_tree_is_clean(self, rule, lint_fixture):
        assert lint_fixture(rule, "good") == []

    def test_bad_tree_is_flagged_by_that_rule_only(self, rule, lint_fixture):
        diags = lint_fixture(rule, "bad")
        assert diags, f"{rule} bad fixture produced no diagnostics"
        assert {d.rule for d in diags} == {rule}


class TestStateRebind:
    def test_names_attribute_and_in_place_fix(self, lint_fixture):
        (diag,) = lint_fixture("state-rebind", "bad")
        assert "self._quota" in diag.message
        assert "[:]" in diag.message


class TestHotPathPurity:
    """``hot-path-purity`` renders and translates every key of the
    checked spec: its diagnostics are the translator's refusals, one per
    rendering, each naming the rendering."""

    @staticmethod
    def refusals(lint_fixture):
        """``{rendering name: message}`` of the bad tree."""
        found = {}
        for diag in lint_fixture("hot-path-purity", "bad"):
            name = re.search(r"<repro kernel [^>]+>", diag.message)[0]
            assert name not in found, diag.message
            found[name] = diag.message
        return found

    def test_every_bad_rendering_is_flagged(self, lint_fixture):
        """Every key but the three clean ones (``walk`` and ``tally``
        under ``none``, the prefilter) is reported, once."""
        keys = [(rendering, key) for rendering, key in
                transitions.rendering_keys(
                    ["flat", "walk", "tally"],
                    ["none", "clobber", "alloc", "method", "global"])]
        clean = {("loop", ("walk", "none")), ("loop", ("tally", "none")),
                 ("prefilter", transitions.PREFILTER_KEY)}
        assert set(self.refusals(lint_fixture)) == {
            transitions.source_name(*key) for key in keys
            if key not in clean}

    def test_a_list_method_in_a_rendered_closure_is_an_attribute_load(
            self, lint_fixture):
        """Kernel state is flat arrays, so a list method
        (``tag_lines.remove(line)``) is refused by name: the only
        attribute calls translated are an integer's ``bit_length()`` /
        ``bit_count()``."""
        found = self.refusals(lint_fixture)
        for policy in ("walk", "tally"):
            message = found[f"<repro kernel {policy}/method loop>"]
            assert "no C target" in message
            assert "method .remove()" in message
            assert "bit_length() / bit_count()" in message

    def test_flags_fragment_storing_to_a_skeleton_local(self, lint_fixture):
        """A scheme fragment assigning the event loop's horizon would
        move every boundary without any error; the rendering that
        declares the local private is refused, the renderings that do
        not are still checked."""
        messages = [m for m in self.refusals(lint_fixture).values()
                    if "does not render" in m]
        assert len(messages) == 3           # one per policy of the fixture
        assert all("clobber loop>" in m for m in messages)
        assert all("scheme 'mask' -> horizon" in m for m in messages)

    def test_covers_batched_event_loop(self, lint_fixture):
        """The event loop of ``BatchedEngine.run`` is a rendering of the
        transition spec, held to what its factory and signature bind: a
        list allocation and a global lookup are refused; the loop's own
        parameters (``lines``) are not."""
        found = self.refusals(lint_fixture)
        assert "List is outside the translated subset" \
            in found["<repro kernel walk/alloc loop>"]
        assert "unknown name 'heappush'" \
            in found["<repro kernel walk/global loop>"]
        assert not any("'lines'" in m for m in found.values())

    def test_stock_loop_without_a_c_target_is_flagged(self, lint_fixture):
        """A fragment outside the translated subset (an attribute chase)
        is named with every loop it is rendered into, and the good tree,
        same tables less the bad ones, translates."""
        found = self.refusals(lint_fixture)
        for scheme in ("none", "alloc", "method", "global"):
            message = found[f"<repro kernel flat/{scheme} loop>"]
            assert message.startswith("no C target: ")
            assert "attribute access ._used" in message
        assert lint_fixture("hot-path-purity", "good") == []

    def test_stock_drain_without_a_c_target_is_flagged(self, lint_fixture):
        """The same for every ``observe`` key.  The two shapes that once
        kept the drains in the interpreter are each refused by name: a
        float in an ``sdh`` fragment (NRU's ``ceil(S * U)``) and a
        ``for`` over anything but a column (BT's tuple of path bits)."""
        found = self.refusals(lint_fixture)
        assert ("<repro kernel flat/none observe>: float operation in "
                "policy 'sdh' fragment") \
            in found["<repro kernel flat/none observe>"]
        assert "for over anything but a column binding" \
            in found["<repro kernel walk/none observe>"]

    def test_a_binding_the_factory_never_assigns_is_flagged(
            self, lint_fixture):
        """``fills_invalid`` is declared in ``C_KINDS`` and bound by the
        event loop's factory, so ``tally``'s fill translates there; the
        drain's factory never assigns it, and the drain is refused."""
        found = self.refusals(lint_fixture)
        assert "'fills_invalid' (cores) is not assigned by this " \
            "rendering's factory" in found["<repro kernel tally/none observe>"]
        assert "<repro kernel tally/none loop>" not in found

    def test_covers_every_rendering_of_a_fragment(self, lint_fixture):
        """A fragment with an attribute chase is flagged in every
        rendering it reaches first: the loops of each scheme that
        renders (``flat``'s drain stops at its SDH read)."""
        messages = [m for m in self.refusals(lint_fixture).values()
                    if "attribute access ._used" in m]
        assert len(messages) == 4
        assert all("<repro kernel flat/" in m for m in messages)


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
