"""Legacy setup shim — the only packaging metadata in this repository.

The execution environment has no network and no ``wheel`` package, so PEP
517 editable installs fail; this shim lets ``pip install -e .
--no-build-isolation --no-use-pep517`` (and plain ``python setup.py
develop``) work offline.  There is no ``pyproject.toml``: name, version
and package layout are declared here, the version read from
``src/repro/__init__.py`` as text so that building needs no numpy.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"$',
                     _INIT.read_text(encoding="utf-8"), re.M).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
