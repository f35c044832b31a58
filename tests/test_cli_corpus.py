"""Seeded CLI outputs, pinned.

Every argv of ``data/cli_corpus/corpus.json`` runs in process through
``cli.main`` from the repository root, so that the sample and step files it
names resolve by relative path, and its exit code, stdout and stderr are
compared with the recorded ones.  The first argv of each subcommand that
exits 0, and the first that exits 1 and 2, also run as ``python -m
mkdiv.cli``, which is ``console_main``, the ``mkdiv`` script, in a process of
their own: each subcommand imports its own modules there, and the script
writes what ``cli.main`` returns to the process's streams and exit status.

The corpus records the fingerprint of the platform that wrote it: the Python
and numpy versions and the SIMD targets numpy dispatches to.  Where this
platform's fingerprint matches, every output must be byte-identical.
Elsewhere numpy may pick other kernels, whose last bits differ, so each JSON
number is compared within the bound of its key in ``BOUNDS`` and every other
value exactly.  The pytest header names the comparison that ran and, when
it is by numbers, the fingerprint fields that differ.

``write_cli_corpus.py`` rewrites the corpus; ``git diff`` of it lists each
output that moved.
"""

import hashlib
import io
import json
import math
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from mkdiv import cli

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "data" / "cli_corpus" / "corpus.json"
SAMPLES = 33  # entries kept of a long list of numbers, both ends included

# (relative, absolute) bound of a number by the innermost key that has one,
# for the comparison by numbers.  Measured on an x86-64 host with numpy 2.4.6
# and the AVX-512 targets, or all dispatch targets, turned off
# (NPY_DISABLE_CPU_FEATURES): 29 of the 66 outputs moved; an argmin by 1.8e-8
# relative, within the flat bottom that the argmin's end game cannot resolve
# at width 1e-8 (measured with golden-section search; Brent's minimiser stops
# at the same width), and the deviation with it; every other number by at most
# 1.5e-14 relative.  Round-off measures are bounded absolutely.
DEFAULT_BOUND = (1e-12, 1e-15)
BOUNDS = {
    "lambda_star": (1e-10, 0.0),
    "nodes": (1e-10, 1e-15),
    "worst_value": (1e-10, 0.0),
    "cost": (1e-10, 0.0),
    "divergence_at_solution": (1e-10, 0.0),
    "argmin": (1e-7, 1e-7),
    "deviation": (0.0, 2e-7),
    "max_deviation": (0.0, 1e-12),
    "max_violation": (1e-9, 1e-12),
}


def fingerprint() -> dict:
    """The Python and numpy versions and numpy's SIMD targets: the baseline
    it was built for and the dispatch targets this CPU runs."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    found = umath.__cpu_features__
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd_baseline": list(umath.__cpu_baseline__),
        "simd_dispatch": [t for t in umath.__cpu_dispatch__ if found.get(t)],
    }


def abridged(text: str) -> list:
    """Each line of ``text`` parsed as JSON (kept as a string if it is not),
    with every list of more than ``SAMPLES`` numbers replaced by its length
    and ``SAMPLES`` evenly spaced entries."""

    def abridge(value):
        if isinstance(value, dict):
            return {key: abridge(item) for key, item in value.items()}
        if isinstance(value, list):
            if len(value) > SAMPLES and all(isinstance(v, (int, float)) for v in value):
                picks = np.linspace(0, len(value) - 1, SAMPLES).round().astype(int)
                return {"length": len(value), "sample": [value[i] for i in picks]}
            return [abridge(item) for item in value]
        return value

    lines = []
    for line in text.splitlines():
        try:
            lines.append(abridge(json.loads(line)))
        except ValueError:
            lines.append(line)
    return lines


def run(argv, run_python=None) -> dict:
    """Exit code, stdout and stderr of ``cli.main(argv)`` in this process,
    or, given the ``run_python`` fixture, of ``python -m mkdiv.cli argv`` in
    a child, as the corpus records them."""
    if run_python is None:
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(list(argv), out=out, err=err)
        stdout, stderr = out.getvalue(), err.getvalue()
    else:
        proc = run_python("-m", "mkdiv.cli", *argv)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    return {
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "stdout": abridged(stdout),
        "stderr": stderr,
    }


def mismatches(want, got, keys=(), where="") -> list:
    """Where ``got`` leaves ``want``: numbers beyond the bound of the
    innermost of their ``keys`` that has one, anything else on inequality."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(want[k], got[k], keys + (k,), f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in mismatches(w, g, keys, f"{where}[{i}]")]
    numbers = (int, float)
    if (isinstance(want, numbers) and isinstance(got, numbers)
            and not isinstance(want, bool) and not isinstance(got, bool)):
        rel, abs_ = next((BOUNDS[k] for k in reversed(keys) if k in BOUNDS), DEFAULT_BOUND)
        if want == got or math.isclose(got, want, rel_tol=rel, abs_tol=abs_):
            return []
    elif type(want) is type(got) and want == got:
        return []
    return [f"{where}: {got!r} != {want!r}"]


RECORDED = json.loads(CORPUS.read_text(encoding="utf-8"))


def differing(found: dict) -> list:
    """The fields in which the fingerprint ``found`` differs from the
    recorded one."""
    recorded = RECORDED["fingerprint"]
    return [key for key in {**recorded, **found} if found.get(key) != recorded.get(key)]


def corpus_header(found: dict) -> str:
    """The pytest header line on a platform of fingerprint ``found``: how
    the corpus is compared there, and why where it is by numbers."""
    fields = differing(found)
    if not fields:
        return "cli corpus: compared by bytes"
    return f"cli corpus: compared by numbers; the fingerprint differs in {', '.join(fields)}"


COMPARISON = "numbers" if differing(fingerprint()) else "bytes"


def console_cases() -> dict:
    """{index: case} of the first case of each subcommand that exits 0, and
    of the first that exits 1 and the first that exits 2."""
    first = {}
    for i, case in enumerate(RECORDED["cases"]):
        first.setdefault(case["argv"][0] if case["exit"] == 0 else case["exit"], i)
    return {i: RECORDED["cases"][i] for i in sorted(first.values())}


CONSOLE = console_cases()


def test_the_console_runs_cover_every_subcommand_and_failing_exit():
    assert sorted(case["exit"] for case in CONSOLE.values()) == [0] * 6 + [1, 2]


@pytest.mark.parametrize(
    "case, console",
    [(case, False) for case in RECORDED["cases"]] + [(case, True) for case in CONSOLE.values()],
    ids=[f"{i:02d}-{case['argv'][0]}" for i, case in enumerate(RECORDED["cases"])]
    + [f"console-{i:02d}-{case['argv'][0]}" for i, case in CONSOLE.items()],
)
def test_seeded_output_is_the_recorded_one(case, console, monkeypatch, run_python):
    monkeypatch.chdir(ROOT)
    got = run(case["argv"], run_python if console else None)
    assert got["exit"] == case["exit"]
    if COMPARISON == "bytes":
        assert got["stdout"] == case["stdout"]
        assert got["stdout_sha256"] == case["stdout_sha256"]
        assert got["stderr"] == case["stderr"]
    else:
        assert mismatches(case["stdout"], got["stdout"]) == []
        assert mismatches(abridged(case["stderr"]), abridged(got["stderr"])) == []


def replay_by_numbers() -> list:
    """Every case replayed from the repository root and compared by numbers,
    whatever the fingerprint: the mismatches, each after its case's index."""
    os.chdir(ROOT)
    found = []
    for i, case in enumerate(RECORDED["cases"]):
        got = run(case["argv"])
        if got["exit"] != case["exit"]:
            found.append(f"{i}: exit {got['exit']} != {case['exit']}")
        found += [f"{i}{m}" for m in mismatches(case["stdout"], got["stdout"])]
        found += [f"{i}{m}" for m in mismatches(abridged(case["stderr"]), abridged(got["stderr"]))]
    return found


def test_the_header_names_the_fields_that_differ():
    recorded = RECORDED["fingerprint"]
    assert corpus_header(recorded) == "cli corpus: compared by bytes"
    assert corpus_header({**recorded, "numpy": "1.26.4"}) == (
        "cli corpus: compared by numbers; the fingerprint differs in numpy")


def test_the_corpus_replays_within_its_bounds_on_other_kernels(run_python):
    # numpy without its AVX-512 kernels, in a process of its own: on an
    # AVX-512 host that runs other kernels than those that recorded the
    # corpus, and the comparison by numbers runs on any host
    code = "import json, test_cli_corpus; print(json.dumps(test_cli_corpus.replay_by_numbers()))"
    proc = run_python("-c", code, env={"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_the_number_comparison_holds_each_key_to_its_bound():
    want = [{"lambda_star": 2.0, "argmin": 0.5, "grid": {"M": 3, "nodes": [1.0, 2.0]},
             "curve": {"nodes": {"length": 40, "sample": [1.0]}}, "binding": True, "name": "x"}]
    assert mismatches(want, [{"lambda_star": 2.0 * (1 + 5e-11), "argmin": 0.5 + 9e-8,
                              "grid": {"M": 3, "nodes": [1.0, 2.0 + 1e-12]},
                              "curve": {"nodes": {"length": 40, "sample": [1.0 + 1e-12]}},
                              "binding": True, "name": "x"}]) == []
    moved = [{"lambda_star": 2.0 * (1 + 2e-9), "argmin": 0.5, "grid": {"M": 4, "nodes": [1.0]},
              "curve": {"nodes": {"length": 40, "sample": [1.0 + 1e-8]}},
              "binding": 1, "name": "y"}]
    assert mismatches(want, moved) == [
        "[0].lambda_star: 2.000000004 != 2.0",
        "[0].grid.M: 4 != 3",
        "[0].grid.nodes: length 1 != 2",
        "[0].curve.nodes.sample[0]: 1.00000001 != 1.0",
        "[0].binding: 1 != True",
        "[0].name: 'y' != 'x'",
    ]


def test_a_long_list_is_kept_as_its_length_and_a_sample():
    text = json.dumps({"nodes": list(range(100)), "few": [1, 2]}) + "\nplain\n"
    [payload, plain] = abridged(text)
    assert payload["few"] == [1, 2] and plain == "plain"
    assert payload["nodes"]["length"] == 100
    assert payload["nodes"]["sample"][0] == 0 and payload["nodes"]["sample"][-1] == 99
    assert len(payload["nodes"]["sample"]) == SAMPLES
