"""One workload in one fresh process: set-up, then the timed closed loop.

Started by ``run.py``; not meant to be run by hand.  Modes:

* ``run``:   set up, then run rounds ``--first-round`` onwards, ``--rounds``
  of them, of the workload's fixed op list;
* ``trace``: install the tracer before mkdiv is imported, set up, run the
  same op list and report the per-layer metrics.

Set-up runs pinned to the CPU numbered ``PERFBENCH_SETUP_CPU`` (modulo the
CPUs allowed), as each timed op is pinned to one CPU.  An op's check lists
every gate it fails; the result, written as JSON to ``--result``, names the
workload's gates and those that failed.
"""

import os
import time

CPUS = sorted(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPUS[int(os.environ.get("PERFBENCH_SETUP_CPU", "0")) % len(CPUS)]})
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tracer as tracing  # noqa: E402  (imports numpy only, not mkdiv)


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("run", "trace"), required=True)
    p.add_argument("--first-round", type=int, default=0)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--in-process", action="store_true")
    p.add_argument("--corrupt-references", action="store_true")
    p.add_argument("--root", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)

    import mkdiv

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(mkdiv.__file__).startswith(src + os.sep):
        print(f"mkdiv imported from {mkdiv.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads

    workloads.quiet_warnings()
    refs = workloads.Refs(args.corrupt_references)
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.CliOneshot:
        wl = cls(args.seed, args.work, refs, root=args.root, env=dict(os.environ))
        wl.in_process = args.in_process
    else:
        wl = cls(args.seed, args.work, refs)
    wl.setup()
    wl.warm()
    op_list = [wl.round(r)  # inputs and references
               for r in range(args.first_round, args.first_round + args.rounds)]
    setup_s = time.perf_counter() - T_START
    result = {"setup_s": setup_s}

    if tracer is not None:
        # a root span per op groups the spans of one op under one parent
        for ops in op_list:
            for op in ops:
                op.run = tracer.wrap("op", op.run)
        tracer.reset()
    latencies, failures, failed_gates = [], [], set()
    t0 = time.perf_counter()
    # Each op runs pinned to the next CPU in turn (a CLI child inherits the
    # pin): the host slows single CPUs for seconds at a time, and rotating
    # keeps one slow CPU from setting the speed of a whole run.
    for ops in op_list:
        for op in ops:
            os.sched_setaffinity(0, {CPUS[len(latencies) % len(CPUS)]})
            t = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an op that raises counts as failed
                latencies.append(time.perf_counter() - t)
                reasons = [("raised", f"{type(exc).__name__}: {exc}")]
            else:
                latencies.append(time.perf_counter() - t)
                try:
                    reasons = op.check(out)
                except Exception as exc:  # malformed output counts as failed
                    reasons = [("check", f"raised {type(exc).__name__}: {exc}")]
            if reasons:
                failures.append(f"{op.kind}: " + "; ".join(f"{g}: {d}" for g, d in reasons))
                failed_gates.update(g for g, _ in reasons)
    result.update(
        wall_s=time.perf_counter() - t0,
        latencies_s=latencies,
        failures=failures,
        gates=list(wl.gates),
        failed_gates=sorted(failed_gates),
        maxrss_kb=(
            wl.child_maxrss_kb
            if getattr(wl, "child_maxrss_kb", 0)
            else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ),
    )
    if tracer is not None:
        wl.record(tracer)
        result["per_layer"] = tracing.per_layer_metrics(tracer)
        result["absent"] = tracer.absent
        result["self_ms"] = {k: v["self_ms"] for k, v in tracer.summary().items()}
        if args.spans:
            tracer.dump(args.spans, {"workload": args.workload, "seed": args.seed})
    return _write(args.result, result)


def _write(path, result) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
