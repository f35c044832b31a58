"""The mkdiv benchmark: one command, four workloads, end-to-end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload robust --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of one workload: ``setup_s``
(median of several fresh set-ups), ``ops_per_s``, ``latency_p50_ms``,
``latency_tail_ms`` and ``peak_rss_mb``.  The error ratio is the result's
``failed / attempted``.  ``--trace 1`` prints the per-layer metrics from a
separate traced run of a fixed op list, its overhead over the same list
untraced, and the fresh-interpreter import probe.

Every workload runs in fresh worker processes (``worker.py``), closed loop,
one client, with BLAS/OpenMP pools pinned to one thread and each op pinned
to the next CPU in turn; the end-to-end list is split by rounds over up to
``SETUP_REPEATS`` consecutive workers, each of which sets up afresh.  The
program sees only the generated input files and argv.  The last stdout line is the JSON
result; the lines before it are a human-readable report with the machine
record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("cli-oneshot", "certify", "robust", "functionals")
HOLDOUT_SEED = 20231121  # pass as --seed to confirm a claim on an unseen seed
SETUP_REPEATS = 7        # workers, so fresh set-ups, per run; setup_s is their median
SMOKE_ROUNDS = 2         # --smoke: enough rounds for every op kind to run
TAIL_BEYOND = 10         # samples beyond the reported tail percentile
IMPORT_PROBES = 3
# Nominal seconds per round on a 2-core Xeon, used only to turn --seconds
# into a number of rounds.  The op list is then fixed for a given seed and
# --seconds, on every commit, so sample counts (and traced counts) repeat.
# The traced cli-oneshot list calls cli.main in-process, hence its entry.
ROUND_S = {"cli-oneshot": 4.9, "certify": 1.5, "robust": 3.6, "functionals": 1.6}
TRACE_ROUND_S = dict(ROUND_S, **{"cli-oneshot": 0.35})
DEADLINE_S = 170.0       # a run still going then ends as an error
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help=f"tiny run: one set-up, {SMOKE_ROUNDS} rounds, one import probe")
    p.add_argument("--corrupt-references", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MKDIV_GRID_M", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Runner:
    def __init__(self, args, work: str):
        self.args = args
        self.work = work
        self.env = child_env()
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("benchmark deadline exceeded")
        return left

    def worker(self, mode: str, setup_cpu: int = 0, **opts) -> dict:
        self.count += 1
        result = os.path.join(self.work, f"result-{self.count}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--mode", mode, "--root", ROOT, "--work", self.work, "--result", result]
        for key, value in opts.items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                cmd.append(flag)
            elif value not in (None, False):
                cmd += [flag, str(value)]
        if self.args.corrupt_references:
            cmd.append("--corrupt-references")
        # own process group, so that ending the worker also ends its CLI children
        env = dict(self.env, PERFBENCH_SETUP_CPU=str(setup_cpu))
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
        try:
            proc.wait(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {mode} timed out") from None
        finally:
            if proc.returncode is None:  # timed out or interrupted
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited with status {proc.returncode}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)

    def import_probe(self) -> tuple[float, float]:
        """Fresh-interpreter ``import mkdiv`` and the scipy part of it, in ms,
        from ``-X importtime`` (cumulative times of the outermost entries)."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mkdiv"],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=self._remaining(),
        )
        if proc.returncode != 0:
            raise BenchError("import probe failed:\n" + proc.stderr[-2000:])
        return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> tuple[float, float]:
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            cumulative = int(fields[1])
        except ValueError:
            continue  # the header line
        raw = fields[2]
        name = raw.strip()
        entries.append((len(raw) - len(raw.lstrip()) - 1, name, cumulative))
    mkdiv_us = scipy_us = 0
    stack: list[tuple[int, str]] = []
    for level, name, cumulative in reversed(entries):  # parents come first
        while stack and stack[-1][0] >= level:
            stack.pop()
        if name == "mkdiv" and level == 0:
            mkdiv_us = cumulative
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(n == "scipy" or n.startswith("scipy.") for _, n in stack):
            scipy_us += cumulative
        stack.append((level, name))
    if not mkdiv_us:
        raise BenchError("import probe: no mkdiv entry in -X importtime output")
    return mkdiv_us / 1e3, scipy_us / 1e3


def machine_record() -> dict:
    rec = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": platform.processor() or platform.machine(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    rec["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for level, index in (("l2", 2), ("l3", 3)):
        size = None
        try:
            size = os.sysconf(f"SC_LEVEL{index}_CACHE_SIZE") or None
        except (ValueError, OSError):
            pass
        if size is None:
            try:
                with open(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size",
                          encoding="utf-8") as fh:
                    text = fh.read().strip()
                size = int(text[:-1]) * 1024 if text.endswith("K") else int(text)
            except (OSError, ValueError):
                pass
        rec[f"{level}_cache_bytes"] = size
    from importlib import metadata

    for pkg in ("numpy", "scipy"):
        try:
            rec[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            rec[pkg] = None
    return rec


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it (nearest rank)."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(runner: Runner, args) -> tuple[dict, dict, dict, list[str]]:
    rounds = SMOKE_ROUNDS if args.smoke else max(1, round(args.seconds / ROUND_S[args.workload]))
    # The list runs in consecutive fresh workers, each setting up afresh, so
    # the set-ups are spread over the run: the host's speed drifts over
    # seconds, and set-ups taken back to back would share one drift.
    chunks = 1 if args.smoke else min(SETUP_REPEATS, rounds)
    edges = [rounds * k // chunks for k in range(chunks + 1)]
    parts = [runner.worker("run", setup_cpu=k, first_round=edges[k],
                           rounds=edges[k + 1] - edges[k]) for k in range(chunks)]
    setups = [p["setup_s"] for p in parts]
    wall = sum(p["wall_s"] for p in parts)
    lat_ms = [1e3 * x for p in parts for x in p["latencies_s"]]
    failures = [f for p in parts for f in p["failures"]]
    tail_ms, tail_pct = tail(lat_ms)
    n, failed = len(lat_ms), len(failures)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / wall,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": max(p["maxrss_kb"] for p in parts) / 1024.0,
    }
    notes = [
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
        f"latency_tail_ms is p{tail_pct:.1f} of {n} samples "
        f"({min(TAIL_BEYOND, n - 1)} beyond it)",
        f"error_ratio {failed / n:.6g} failed/attempted ({failed}/{n})",
        f"rounds {rounds} in {chunks} worker(s), wall {wall:.3f} s",
    ] + gate_notes(parts)
    counts = {"attempted": n, "failed": failed, "failures": failures}
    return metrics, END_TO_END_UNITS, counts, notes


def gate_notes(parts: list[dict]) -> list[str]:
    """The workload's gates and those that failed in any worker, for the
    self-test."""
    failed = sorted({g for p in parts for g in p["failed_gates"]})
    return [f"gates: {', '.join(parts[0]['gates'])}",
            f"failed gates: {', '.join(failed) or 'none'}"]


def per_layer(runner: Runner, args) -> tuple[dict, dict, dict, list[str]]:
    probes = [runner.import_probe() for _ in range(1 if args.smoke else IMPORT_PROBES)]
    rounds = (SMOKE_ROUNDS if args.smoke
              else max(1, round(args.seconds / 2 / TRACE_ROUND_S[args.workload])))
    in_process = args.workload == "cli-oneshot"
    spans = os.path.join(os.path.dirname(runner.work),
                         f"spans-{args.workload}-seed{args.seed}.json")
    plain = runner.worker("run", rounds=rounds, in_process=in_process)
    traced = runner.worker("trace", rounds=rounds, in_process=in_process, spans=spans)
    metrics = {name: value for name, (value, _) in traced["per_layer"].items()}
    units = {name: unit for name, (_, unit) in traced["per_layer"].items()}
    metrics["import.mkdiv_ms"] = statistics.median(p[0] for p in probes)
    metrics["import.scipy_ms"] = statistics.median(p[1] for p in probes)
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    units.update({"import.mkdiv_ms": "ms", "import.scipy_ms": "ms",
                  "trace.overhead_ratio": "ratio"})
    failures = plain["failures"] + traced["failures"]
    attempted = len(plain["latencies_s"]) + len(traced["latencies_s"])
    top = sorted(traced["self_ms"].items(), key=lambda kv: -kv[1])[:8]
    notes = [
        f"traced op list: {rounds} round(s), {len(traced['latencies_s'])} ops"
        + (" (cli.main in-process)" if in_process else ""),
        "self time (ms): " + ", ".join(f"{k} {v:.1f}" for k, v in top),
        f"spans written to {os.path.relpath(spans, ROOT)}",
    ]
    notes += gate_notes([plain, traced])
    if traced["absent"]:
        notes.append("absent trace targets (metrics read 0): " + ", ".join(traced["absent"]))
    counts = {"attempted": attempted, "failed": len(failures), "failures": failures}
    return metrics, units, counts, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mkdiv", "__init__.py")):
        print(f"perfbench: no mkdiv sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    base = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(base, exist_ok=True)
    work = os.path.join(base, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    runner = Runner(args, work)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        metrics, units, counts, notes = (per_layer if args.trace else end_to_end)(runner, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# mkdiv benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, seconds {args.seconds:g}")
    print("# machine: " + json.dumps(machine_record(), sort_keys=True))
    for name in sorted(metrics):
        print(f"# {name} = {metrics[name]:.6g} {units[name]}")
    for line in notes:
        print("# " + line)
    for reason in counts["failures"][:20]:
        print("# FAILED " + reason)
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
