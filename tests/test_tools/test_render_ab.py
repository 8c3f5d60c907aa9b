"""tools/render_ab.py: a candidate that renders the stock spec passes
and times; one whose compiled LRU hit lands below the MRU is refused
before any timing."""

import importlib.util
import json
from pathlib import Path

from repro.cache import native, transitions

ROOT = Path(__file__).resolve().parents[2]


def _module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


render_ab = _module("render_ab", ROOT / "tools" / "render_ab.py")
PROMOTE_BELOW_MRU = _module(
    "compiled_target",
    ROOT / "tests" / "test_cmp" / "test_compiled_target.py").PROMOTE_BELOW_MRU


def candidate(tmp_path, body):
    path = tmp_path / "candidate.py"
    path.write_text(f"def apply(policies, schemes, templates):\n{body}\n",
                    encoding="utf-8")
    return path


def test_identity_candidate_passes_and_times(tmp_path, capsys):
    stock = {name: dict(table) for name, table in (
        ("policies", transitions.POLICIES), ("schemes", transitions.SCHEMES),
        ("templates", transitions.TEMPLATES))}
    load = native.load
    path = candidate(tmp_path, "    pass")
    assert render_ab.main([str(path), "--rounds", "1"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["jobs"] == "fig7" and summary["rounds"] == 1
    assert summary["stock_s"] > 0 and summary["candidate_s"] > 0
    assert summary["ratio"]["min"] <= summary["ratio"]["median"] \
        <= summary["ratio"]["max"]
    # The process is left as it was found.
    assert native.load is load
    assert dict(transitions.POLICIES) == stock["policies"]
    assert dict(transitions.TEMPLATES) == stock["templates"]


def test_promote_below_mru_is_named_and_exits_1(tmp_path, capsys):
    path = candidate(tmp_path, f"    policies['lru']['promote'] = "
                               f"{PROMOTE_BELOW_MRU!r}")
    assert render_ab.main([str(path), "--rounds", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the candidate's results differ" in captured.err
    assert transitions.POLICIES["lru"]["promote"] != PROMOTE_BELOW_MRU
