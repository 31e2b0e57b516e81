"""Package metadata.

`pip install -e .` works in offline environments without the `wheel`
package because pyproject.toml has no [build-system] table (pip then falls
back to `setup.py develop`); pyproject.toml holds tool configuration only.
The metadata lives here, and the version is read — not imported — out of
`src/repro/__init__.py`, the one place it is written.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "LONA: top-k neighborhood aggregation queries over large networks "
        "(reproduction of Yan et al., ICDE 2010)"
    ),
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    extras_require={
        # Everything runs dependency-free on the python backend; numpy
        # unlocks the vectorized/parallel/cluster tiers.
        "numpy": ["numpy"],
    },
)
