"""The benchmark's traced smoke runs, with the bounds the CI workflow
asserts on them: each bound shows that a workload's hot path ran, and that
its reductions went through ``pairwise_sum``, which the tracer wraps."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def traced_smoke(workload: str):
    """``(correct, metric values, ops)`` of ``run.py --workload W --smoke
    --trace 1``; its ``attempted`` counts the op list twice, once untraced
    and once traced, so ``ops`` is half of it."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--smoke", "--trace", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    return result["correct"], metrics, result["attempted"] / 2


def test_traced_robust_smoke_run():
    # every probe with a curve folds D and I(G), so the tracer counts at
    # least one reduction per probe unless the folds bypass pairwise_sum
    correct, m, _ = traced_smoke("robust")
    assert correct and m["robust.calib_evals"] > 0 and m["numerics.reduce_elems"] > 0
    assert m["numerics.reduce_calls"] >= m["robust.calib_evals"]


def test_traced_certify_smoke_run():
    # each op certifies 2 instances for each of 9 scores at n = 44, 18
    # linear_sum_assignment calls, and solves one LP
    correct, m, ops = traced_smoke("certify")
    assert correct and ops > 0
    assert m["transport.lp_solves"] == ops
    assert m["transport.assignment_solves"] == 18 * ops


def test_traced_functionals_smoke_run():
    # each op runs two argmins at m = 10^4, whose grid stages score at least
    # 27 reports each and, with the end game, at most 45; each op calls
    # Functional.evaluate twice, once per law, and the axiom checks evaluate
    # their samples in stacks, with no evaluate call
    correct, m, ops = traced_smoke("functionals")
    assert correct and ops > 0 and m["numerics.reduce_calls"] > 0
    assert m["functionals.evaluate_calls"] <= 2 * ops
    assert 2 * 27 * 10**4 * ops <= m["scores.eval_elems"] <= 2 * 45 * 10**4 * ops
