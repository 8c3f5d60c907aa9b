"""Unit tests for tools/check_docs.py (slugging + anchor validation)."""

import importlib.util
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_docs",
    Path(__file__).resolve().parents[2] / "tools" / "check_docs.py",
)
check_docs = importlib.util.module_from_spec(_SPEC)
sys.modules["check_docs"] = check_docs
_SPEC.loader.exec_module(check_docs)


class TestGithubSlug:
    def test_basic(self):
        assert check_docs.github_slug("How to read verdicts") == \
            "how-to-read-verdicts"

    def test_underscores_preserved(self):
        # GitHub keeps underscores in anchors: ## scale_preset ->
        # #scale_preset, not #scale-preset.
        assert check_docs.github_slug("scale_preset") == "scale_preset"

    def test_punctuation_dropped(self):
        assert check_docs.github_slug("Run the campaign, build!") == \
            "run-the-campaign-build"

    def test_inline_code_and_links_stripped(self):
        assert check_docs.github_slug("`repro report` flow") == \
            "repro-report-flow"
        assert check_docs.github_slug("[docs](docs/x.md) index") == \
            "docs-index"


class TestAnchorsOf:
    def test_headings_and_duplicates(self):
        text = "# Title\n## Part\nbody\n## Part\n"
        anchors = check_docs.anchors_of(text)
        assert {"title", "part", "part-1"} <= anchors

    def test_code_fences_skipped(self):
        text = "# Real\n```bash\n# not a heading\n```\n"
        anchors = check_docs.anchors_of(text)
        assert anchors == {"real"}

    def test_html_anchors(self):
        assert "custom" in check_docs.anchors_of('<a id="custom"></a>\n')


class TestCheckLinks:
    @pytest.fixture
    def docs_root(self, tmp_path, monkeypatch):
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        (tmp_path / "target.md").write_text(
            "# Top\n## A_Section\n", encoding="utf-8")
        return tmp_path

    def _problems(self, docs_root, body):
        source = docs_root / "source.md"
        source.write_text(body, encoding="utf-8")
        return list(check_docs.check_links(source, check_docs.DocIndex()))

    def test_valid_cross_file_anchor(self, docs_root):
        assert self._problems(docs_root, "[x](target.md#a_section)") == []

    def test_angle_bracketed_link_with_anchor(self, docs_root):
        # [x](<file.md#frag>) must strip the brackets before splitting
        # the fragment, or the anchor lookup sees 'a_section>'.
        assert self._problems(docs_root, "[x](<target.md#a_section>)") == []

    def test_broken_anchor_detected(self, docs_root):
        problems = self._problems(docs_root, "[x](target.md#missing)")
        assert len(problems) == 1 and "broken anchor" in problems[0]

    def test_same_file_anchor(self, docs_root):
        assert self._problems(
            docs_root, "# Here\n[x](#here)\n") == []
        problems = self._problems(docs_root, "# Here\n[x](#nope)\n")
        assert len(problems) == 1 and "broken anchor" in problems[0]

    def test_broken_file_link_detected(self, docs_root):
        problems = self._problems(docs_root, "[x](gone.md)")
        assert len(problems) == 1 and "broken link" in problems[0]

    def test_external_schemes_skipped(self, docs_root):
        assert self._problems(
            docs_root, "[x](https://example.com/p#frag)") == []

    def test_inline_code_is_not_a_link(self, docs_root):
        # A call on a subscript inside a code span has link shape; the
        # link on the following line must still report its own line.
        problems = self._problems(
            docs_root, "calls `record[t](line)` per access\n[x](gone.md)")
        assert len(problems) == 1 and problems[0].startswith("source.md:2:")
