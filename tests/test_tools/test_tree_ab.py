"""tools/tree_ab.py: a revision whose tree is this one passes and times;
one whose compiled LRU hit swaps the way with the MRU is named before
any timing, with exit status 1."""

import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(shutil.which("git") is None,
                                reason="tree_ab exports a revision with git")


def _module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tree_ab = _module("tree_ab", ROOT / "tools" / "tree_ab.py")

#: LRU's stock ``promote`` and a hit that swaps its way with the MRU.
STOCK_PROMOTE = '''\
        "promote": """\\
$find
$move""",'''
SWAP_PROMOTE = '''\
        "promote": """\\
$find
shift = below.bit_length()
recency[$set] = word & ~(15 << shift) & ~15 | (word & 15) << shift | way""",'''


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=tree_ab",
                    "-c", "user.email=tree_ab@localhost", *args],
                   check=True, capture_output=True)


@pytest.fixture(scope="module")
def repo(tmp_path_factory):
    """A repository of two commits: this tree's ``src/repro``, then the
    same with the swapping LRU hit."""
    root = tmp_path_factory.mktemp("tree_ab_repo")
    package = root / "src" / "repro"
    shutil.copytree(ROOT / "src" / "repro", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "this tree")
    spec = package / "cache" / "transitions.py"
    text = spec.read_text(encoding="utf-8")
    assert text.count(STOCK_PROMOTE) == 1
    spec.write_text(text.replace(STOCK_PROMOTE, SWAP_PROMOTE),
                    encoding="utf-8")
    _git(root, "commit", "-q", "-am", "swap on a hit")
    return root


@pytest.fixture
def at(repo, monkeypatch):
    monkeypatch.setattr(tree_ab, "ROOT", repo)
    path = list(sys.path)
    yield
    assert sys.path == path
    assert not [name for name in sys.modules
                if name.split(".")[0] == tree_ab.REV_PACKAGE]


def test_the_same_tree_passes_and_times(at, capsys):
    assert tree_ab.main(["HEAD~1", "--rounds", "2"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["rev"] == "HEAD~1" and summary["jobs"] == "fig7"
    assert summary["rounds"] == 2 and summary["count"] > 0
    assert summary["rev_s"] > 0 and summary["tree_s"] > 0
    ratio = summary["ratio"]
    assert ratio["min"] <= ratio["q1"] <= ratio["median"] <= ratio["q3"] \
        <= ratio["max"]


def test_both_sides_name_a_kernel_object_alike(at, tmp_path):
    """The exported tree renders every key as this one does, so the two
    sides share one object per key in the kernel cache."""
    from repro.cache import native, transitions

    tree_ab.export("HEAD~1", tmp_path)
    sys.path.insert(0, str(tmp_path))
    try:
        rev = importlib.import_module(f"{tree_ab.REV_PACKAGE}.cache.native")
        for rendering, key in transitions.rendering_keys():
            names = [side.object_name(
                side.transitions.render(rendering, key),
                side.transitions.source_name(rendering, key),
                side.translator(), "cc") for side in (native, rev)]
            assert names[0] == names[1], (rendering, key)
    finally:
        sys.path.remove(str(tmp_path))
        for name in [name for name in sys.modules
                     if name.split(".")[0] == tree_ab.REV_PACKAGE]:
            del sys.modules[name]


def test_a_tree_whose_results_differ_is_named_and_exits_1(at, capsys):
    assert tree_ab.main(["HEAD", "--rounds", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tree_ab: iso:apsi#0/lru@")
    assert "the tree's results differ from HEAD's" in captured.err


def test_an_unknown_revision_exits_2(at, capsys):
    assert tree_ab.main(["no-such-revision"]) == 2
    assert "git archive no-such-revision" in capsys.readouterr().err


def test_plain_values_compare_across_packages():
    """Two classes of one name and fields, from two packages, reduce to
    the same plain value; a float differing in its last bit does not."""
    from dataclasses import make_dataclass

    one, two = (make_dataclass("Result", ["name", "cycles"])
                for _package in range(2))
    assert one is not two
    assert tree_ab.plain(one("a", [1.0])) == tree_ab.plain(two("a", [1.0]))
    assert tree_ab.plain(one("a", [1.0])) != \
        tree_ab.plain(two("a", [1.0000000000000002]))
