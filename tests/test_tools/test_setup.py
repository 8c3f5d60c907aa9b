"""``setup.py`` declares the distribution it installs."""

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[2]


def test_setup_reports_name_and_version():
    out = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"], cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split()[-2:] == ["repro", repro.__version__]
