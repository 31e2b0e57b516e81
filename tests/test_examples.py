"""Smoke tests: every example script must run cleanly end to end.

Each example is executed in a subprocess exactly as a user would run it
(small scales passed where the script accepts an argument).  These tests
are the repository's guarantee that the documented entry points stay
runnable as the library evolves.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")

CASES = [
    ("quickstart.py", []),
    ("social_recommendation.py", ["0.15"]),
    ("gene_coexpression.py", []),
    ("intrusion_detection.py", ["0.15"]),
    ("cluster_topk.py", ["2"]),
    ("relational_comparison.py", []),
    ("weighted_influence.py", []),
    ("dynamic_monitoring.py", []),
    ("remote_client.py", []),
]


@pytest.mark.parametrize("script,args", CASES, ids=[c[0] for c in CASES])
def test_example_runs(script, args):
    path = os.path.join(EXAMPLES_DIR, script)
    result = subprocess.run(
        [sys.executable, path, *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples must print their findings"


def test_examples_directory_is_covered():
    scripts = {
        name
        for name in os.listdir(EXAMPLES_DIR)
        if name.endswith(".py")
    }
    assert scripts == {case[0] for case in CASES}, (
        "new example scripts must be added to the smoke-test matrix"
    )
