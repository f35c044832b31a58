"""Test-suite settings: hypothesis draws the same examples on every run, so a
failure replays as it was seen and the suite's outcome does not vary."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import mkdiv

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def run_python():
    """Run ``python *args`` in a child that imports the same mkdiv as this
    suite, installed or not; returns the completed process, output as text."""
    src = str(Path(mkdiv.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return lambda *args: subprocess.run([sys.executable, *args], capture_output=True,
                                        text=True, env=env)


def pytest_report_header(config):
    """Name how the seeded CLI corpus is compared on this platform."""
    from test_cli_corpus import COMPARISON

    return f"cli corpus: compared by {COMPARISON}"
