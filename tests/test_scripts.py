"""Smoke runs of the scripts under scripts/, from the root of the checkout."""

import os
import subprocess
import sys

import pytest

from conftest import subprocess_env

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/castle_scaling.py", "--max-n", "2"],
        ["scripts/synthesis_survey.py", "--trials", "5"],
    ],
)
def test_script_runs(argv):
    r = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        capture_output=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert r.returncode == 0, r.stderr.decode()
    assert r.stdout
