"""Self-test of the benchmark, in smoke mode (about two minutes).

    python3 perfbench/selftest.py

For every workload it checks that

* ``--trace 0`` and ``--trace 1`` print, as the last stdout line, a result
  with exactly the keys correct/attempted/failed/metrics, every metric named
  in BENCHMARK.json with its unit, and no failed op or gate;
* with every reference value deliberately wrong, every op is counted as
  failed, the result is not correct, and every gate the workload names has
  failed at least once (a check reports all the gates it fails), so each
  gate is shown to bite;

and that the benchmark exits non-zero without a result in a directory that
holds only BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.relpath(HERE, ROOT), "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result, proc.stderr, lines


def gates(lines, label) -> list:
    """The gates named on the report line ``# <label>: a, b``."""
    prefix = f"# {label}: "
    for line in lines:
        if line.startswith(prefix):
            text = line[len(prefix):]
            return [] if text == "none" else text.split(", ")
    return None


def check_result(result, spec) -> list:
    errors = []
    if result is None:
        return ["no JSON result on the last stdout line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in spec}
    got = result.get("metrics", {})
    if set(got) != set(want):
        errors.append(f"metrics differ: missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}")
    for name, entry in got.items():
        if set(entry) != {"value", "unit"} or entry["unit"] != want.get(name):
            errors.append(f"{name}: {entry}")
        elif not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            errors.append(f"{name}: value {entry['value']!r}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted {result.get('attempted')!r}")
    return errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = 0

    def report(label, errors):
        nonlocal failures
        failures += bool(errors)
        print(f"{'FAIL' if errors else 'PASS'} {label}" + "".join(f"\n    {e}" for e in errors))

    base = ["--seed", "1", "--seconds", "1", "--smoke"]
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, result, err, lines = run(["--workload", workload, "--trace", str(trace),
                                            *base])
            errors = [f"exit status {code}: {err[-500:]}"] if code else []
            errors += check_result(result, spec)
            if result and (not result["correct"] or result["failed"]):
                errors.append(f"{result['failed']} op(s) failed on correct references")
            if gates(lines, "failed gates") != []:
                errors.append(f"failed gates: {gates(lines, 'failed gates')}")
            report(f"{workload} --trace {trace}: metrics and units", errors)
        code, result, err, lines = run(["--workload", workload, "--trace", "0",
                                        "--corrupt-references", *base])
        errors = [f"exit status {code}: {err[-500:]}"] if code else []
        named, failed = gates(lines, "gates"), gates(lines, "failed gates")
        if result is None:
            errors.append("no result")
        elif result["correct"] or result["failed"] != result["attempted"]:
            errors.append(f"wrong references: {result['failed']} of "
                          f"{result['attempted']} ops failed, correct={result['correct']}")
        if not named or failed is None or sorted(failed) != sorted(named):
            errors.append(f"gates {named}, failed gates {failed}")
        report(f"{workload}: every gate fails on wrong references", errors)

    bare = os.path.join(ROOT, ".bench_build", "perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, result, _, _ = run(["--workload", bench["workloads"][0]["name"], "--trace", "0",
                           *base], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    report("no sources: non-zero exit, no result",
           [] if code != 0 and result is None else [f"exit {code}, result {result}"])
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
