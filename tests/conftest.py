"""Test-suite settings and probes.

Hypothesis draws the same examples on every run, so a failure replays as it
was seen and the suite's outcome does not vary.  Three fixtures hold every
probe a test pins a cost with: ``peak_bytes`` for memory, ``calls_to`` for
the calls a run makes and ``run_python`` for a fresh interpreter.
"""

import os
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import settings

import mkdiv

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def peak_bytes():
    """``peak_bytes(call)`` runs ``call()`` and returns the peak bytes it
    held under ``tracemalloc`` beyond what was traced when it started;
    tracing stops after it.  Warm a call first where its first run
    allocates interpreter state."""

    def peak(call):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def calls_to(monkeypatch):
    """``calls_to(target, name, pick=...)`` wraps the function ``name`` of a
    module or class ``target``, or the one at the dotted path ``target``,
    for this test, and returns a list: each call appends
    ``pick(*args, **kwargs)`` to it, then runs the original.  A method's
    ``pick`` takes ``self`` first; by default it keeps the positional
    arguments, and ``assert calls == []`` after a run pins that it made
    no call."""

    def wrap(target, name=None, pick=lambda *args, **kwargs: args):
        if name is None:
            target, name = target.rsplit(".", 1)
            target = pkgutil.resolve_name(target)
        original, calls = getattr(target, name), []

        def recorded(*args, **kwargs):
            calls.append(pick(*args, **kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(target, name, recorded)
        return calls

    return wrap


@pytest.fixture
def run_python():
    """Run ``python *args`` in a child that imports the same mkdiv as this
    suite, installed or not, and the test modules; returns the completed
    process, output as text.  ``stdout`` may name another file descriptor
    for the child's stdout, ``env`` adds variables to its environment, and
    it is killed after ``timeout`` seconds."""
    path = os.pathsep.join([str(Path(mkdiv.__file__).parents[1]), str(Path(__file__).parent),
                            os.environ.get("PYTHONPATH", "")])

    def run(*args, stdout=subprocess.PIPE, env=None, timeout=600):
        return subprocess.run(
            [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True,
            env={**os.environ, **(env or {}), "PYTHONPATH": path}, timeout=timeout)

    return run


def pytest_report_header(config):
    """Name how the seeded CLI corpus is compared on this platform."""
    from test_cli_corpus import corpus_header, fingerprint

    return corpus_header(fingerprint())
