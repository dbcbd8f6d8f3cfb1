"""Packaging for the repro library and its consolidated CLI.

Kept as a plain ``setup.py`` so ``pip install -e .`` works on
environments whose setuptools is too old to build PEP 660 editable
wheels without the ``wheel`` package installed.  Installing registers
the ``repro`` console script — the same program as ``python -m repro``
(run / cache / distrib / serve / campaign / obs / check subcommands).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Single-source the version from the package; importing it here would
# drag in numpy at build time.
_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(),
                    re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    description=("Behavioural reproduction of 'Energy-Modulated Computing' "
                 "(Yakovlev, DATE 2011) with a parallel, cacheable, "
                 "distributable experiment engine"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
)
