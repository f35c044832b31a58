"""The four benchmark workloads: seeded inputs, ops and correctness gates.

A workload is a sequence of rounds.  A round is a seeded permutation of a
fixed multiset of op kinds, so every whole round has the same mix and op
costs stay in one band whatever the seed.  ``run`` calls only into mkdiv's
public API (or launches the CLI); ``check`` compares the outputs against
reference values and returns every gate it fails, as (gate, detail) pairs.
Each workload names its gates in ``gates``.  Inputs and
references are made in ``setup`` and ``round``, both before the first timed
op; ``warm`` runs each op kind once at a small size so lazy imports and
first-call costs land in set-up.

All mkdiv names are looked up on the module at call time, so a tracer
installed before the import sees every call.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

import mkdiv
import mkdiv.cli

# Analytic reductions from the acceptance suite.
WORST_LAMBDA, WORST_VALUE = 10.0 / 3.0, 13.0 / 15.0
PAYOFF_LAMBDA, PAYOFF_COST, PAYOFF_EPS = 2.0, 1.0 / 12.0, 1.0 / 48.0
ANALYTIC_LAMBDA_TOL, WORST_VALUE_TOL, PAYOFF_COST_TOL = 1e-6, 1e-6, 1e-5
SOLVER_TOL = 1e-8          # default tol of both solvers and of the CLI
W2_TOL = 1e-12             # squared loss vs squared 2-Wasserstein, relative
ELICIT_TOL = 1e-5
LP_EXACT_TOL = 1e-9        # LP oracle vs exact merged quantile coupling

GRID_M = 10_000            # library and CLI default grid size
# phi'' = 12 z**2 vanishes at 0, so the quartic Bregman expected score is
# flat there below float resolution and its argmin misses a mean within
# ~1e-3 of 0 by up to 1e-4, beyond ELICIT_TOL: laws elicited with this
# score keep their mean at least 0.1 away from 0.
QUARTIC_BREGMAN = "bregman[quartic]"
ROBUST_M = 250_000         # 2 MB per node array, beyond one core's L2
DELTA = 1e-7


class Refs:
    """Reference values; ``corrupt`` shifts every one of them.  A check
    reports every gate it fails, not only the first, so the self-test can
    show that each gate turns a wrong reference into a failure."""

    def __init__(self, corrupt: bool = False):
        self.corrupt = corrupt

    def num(self, x: float) -> float:
        return x + 1e-3 * (1.0 + abs(x)) if self.corrupt else x

    def flag(self, b: bool) -> bool:
        return (not b) if self.corrupt else b

    def text(self, s: str) -> str:
        return s + "#" if self.corrupt else s


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]


def _close(gate, got, want, tol, rel=False):
    scale = 1.0 + abs(want) if rel else 1.0
    if not np.isfinite(got) or abs(got - want) > tol * scale:
        return gate, f"{got!r}, want {want!r} within {tol:g}"
    return None


def _expect(gate, ok, detail):
    return None if ok else (gate, detail)


def _failed(*results):
    """Every failing gate among ``results``, as (gate, detail) pairs."""
    return [r for r in results if r]


def _axiom_expectation(functional, all_passed, convexity_passed, convexity_witness,
                       refs: Refs):
    """Outcomes asserted by the acceptance suite's axiom criterion."""
    name = functional.describe()
    if isinstance(functional, mkdiv.Expectile) and functional.alpha > 0.5:
        return _expect("axioms", all_passed == refs.flag(True),
                       f"{name}: all axioms should pass")
    if isinstance(functional, mkdiv.Expectile):
        return _expect("axioms", convexity_passed == refs.flag(False)
                       and convexity_witness is not None,
                       f"{name}: convexity should fail with a witness")
    return _expect("axioms", convexity_passed == refs.flag(True),
                   f"{name}: convexity should pass")


class Workload:
    name = "abstract"
    gates: tuple[str, ...] = ()

    def __init__(self, seed: int, work_dir: str, refs: Refs):
        self.seed = seed
        self.work_dir = work_dir
        self.refs = refs

    def setup(self):
        raise NotImplementedError

    def warm(self):
        raise NotImplementedError

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def record(self, tracer):
        """Benchmark-side accuracy records for the traced run."""


# ---------------------------------------------------------------- cli-oneshot


def _num(x: float) -> str:
    return repr(float(x))


def _write_csv(path: str, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("value\n")
        fh.writelines(f"{float(v)!r}\n" for v in values)


class CliOneshot(Workload):
    """One fresh ``python -m mkdiv.cli`` process per op; each round runs all
    six subcommands (divergence twice: parametric and empirical inputs)."""

    name = "cli-oneshot"
    gates = ("exit", "stdout", "w2", "verify", "divergence_at_solution",
             "worst_case.lambda_star", "worst_case.value", "payoff.lambda_star",
             "payoff.cost", "elicit.passed", "elicit.deviation", "axioms")
    pool_rounds = 3
    in_process = False  # the traced run calls cli.main in-process instead

    def __init__(self, seed, work_dir, refs, root: str, env: dict):
        super().__init__(seed, work_dir, refs)
        self.root = root
        self.env = env
        self.child_maxrss_kb = 0

    def _path(self, name: str) -> str:
        return os.path.relpath(os.path.join(self.work_dir, name), self.root)

    def setup(self):
        rng = np.random.default_rng([self.seed, 0])
        with open(os.path.join(self.work_dir, "steps.json"), "w", encoding="utf-8") as fh:
            json.dump({"breakpoints": [0.0], "levels": [0.3, 0.7]}, fh)
        self.pool = []
        for r in range(self.pool_rounds):
            self.pool.append(self._make_round(r, rng))
        self.refs_out = {}
        self.w2 = {}
        for argvs in self.pool:
            for kind, argv in argvs:
                self.refs_out[tuple(argv)] = self._in_process(argv)[1]
                if kind.startswith("divergence"):
                    f1 = mkdiv.specs.parse_distribution(argv[argv.index("--from") + 1])
                    f2 = mkdiv.specs.parse_distribution(argv[argv.index("--to") + 1])
                    w = mkdiv.wasserstein_p(f1, f2, 2.0, m=GRID_M, delta=DELTA)
                    self.w2[tuple(argv)] = w * w
        self.order = [
            [int(i) for i in np.random.default_rng([self.seed, 1, r]).permutation(len(argvs))]
            for r, argvs in enumerate(self.pool)
        ]

    def warm(self):
        pass  # setup already ran every argv in-process

    def _make_round(self, r: int, rng):
        u = lambda lo, hi: float(rng.uniform(lo, hi))
        par = [
            f"uniform:a={_num(u(-1, 0))},b={_num(u(0.5, 2))}",
            f"normal:mu={_num(u(-1, 1))},sigma={_num(u(0.5, 2))}",
            f"point:c={_num(u(-1, 1))}",
        ][r % 3]
        par_to = f"normal:mu={_num(u(0, 2))},sigma={_num(u(0.5, 1.5))}"
        n1 = int(rng.integers(150, 300))
        n2 = n1 if r % 2 == 0 else int(rng.integers(150, 300))
        a_csv, b_csv = self._path(f"a{r}.csv"), self._path(f"b{r}.csv")
        _write_csv(os.path.join(self.root, a_csv), rng.normal(0.0, 1.0, n1))
        _write_csv(os.path.join(self.root, b_csv), rng.normal(0.5, 1.5, n2))
        breg = "score:bregman,phi=quadratic"
        verify_score = [
            "score:expectile,alpha=0.7,phi=quadratic",
            f"score:lambda,file={self._path('steps.json')}",
            "score:gpl,alpha=0.9,g=identity",
        ][r % 3]
        wc_kind = "worst-case-analytic" if r == 0 else "worst-case"
        if r == 0:
            wc = ["--phi", "phi:quadratic", "--distortion", "distortion:dualpower,k=2",
                  "--ref", "uniform:a=0,b=1", "--eps", "0.03"]
        else:
            wc = ["--phi", ["phi:xlogx", "phi:exp", "phi:quartic"][r % 3],
                  "--distortion", f"distortion:dualpower,k={_num(u(1.5, 3))}",
                  "--ref", f"uniform:a={_num(u(0.5, 1))},b={_num(u(1.5, 2.5))}",
                  "--eps", _num(u(0.01, 0.1))]
        pay_kind = "payoff-analytic" if r == 1 else "payoff"
        if r == 1:
            pay = ["--phi", "phi:quadratic", "--benchmark", "uniform:a=0,b=1",
                   "--market", "market:spd=uniform:a=0,b=1;r=0;T=1",
                   "--eps", _num(PAYOFF_EPS)]
        else:
            pay = ["--phi", "phi:quartic",
                   "--benchmark", f"uniform:a={_num(u(0.5, 1))},b={_num(u(1.5, 2.5))}",
                   "--market", f"market:spd=exponential:rate={_num(u(0.8, 1.5))};r=0;T=1",
                   "--eps", _num(u(0.005, 0.03))]
        alpha = _num(u(0.55, 0.9))
        elicit_mu = u(0.1, 1) if r % 3 == 1 else u(-1, 1)  # r % 3 == 1: quartic Bregman
        elicit = [
            [f"functional:expectile,alpha={alpha}", f"score:expectile,alpha={alpha},phi=quadratic"],
            ["functional:mean", "score:bregman,phi=quartic"],
            ["functional:shortfall,loss=exponential,gamma=1",
             "score:shortfall,loss=exponential,gamma=1"],
        ][r % 3]
        axiom_functional = [
            "functional:expectile,alpha=0.7",
            "functional:expectile,alpha=0.3",
            "functional:shortfall,loss=exponential,gamma=1",
        ][r % 3]
        return [
            ("divergence-parametric",
             ["divergence", "--score", breg, "--from", par, "--to", par_to]),
            ("divergence-empirical",
             ["divergence", "--score", breg, "--from", f"empirical:path={a_csv}",
              "--to", f"empirical:path={b_csv}"]),
            ("verify", ["verify", "--score", verify_score, "--n", "8",
                        "--seed", str(int(rng.integers(0, 2**31)))]),
            (wc_kind, ["worst-case"] + wc),
            (pay_kind, ["payoff"] + pay),
            ("elicit-check", ["elicit-check", "--functional", elicit[0], "--score", elicit[1],
                              "--dist", f"normal:mu={_num(elicit_mu)},sigma={_num(u(0.5, 2))}"]),
            ("axioms", ["axioms", "--functional", axiom_functional, "--pairs", "5",
                        "--size", "40", "--seed", str(int(rng.integers(0, 2**31)))]),
        ]

    @staticmethod
    def _in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        code = mkdiv.cli.main(list(argv), out=out, err=err)
        return code, out.getvalue()

    def _spawn(self, argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "mkdiv.cli", *argv],
            cwd=self.root, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            text = proc.stdout.read()
        finally:
            proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_maxrss_kb = max(self.child_maxrss_kb, usage.ru_maxrss)
        return proc.returncode, text

    def round(self, r: int) -> list[Op]:
        argvs = self.pool[r % self.pool_rounds]
        order = self.order[r % self.pool_rounds]
        return [self._op(*argvs[i]) for i in order]

    def _op(self, kind, argv):
        key = tuple(argv)
        runner = self._in_process if self.in_process else self._spawn
        functional = None
        if kind == "axioms":
            functional = mkdiv.specs.parse_functional(argv[argv.index("--functional") + 1])
        return Op(kind, lambda: runner(argv), lambda res: self._check(kind, key, res, functional))

    def _check(self, kind, key, res, functional):
        code, text = res
        r = self.refs
        exit_gate = _expect("exit", code == r.num(0), f"exit status {code}")
        if code != 0:
            return [exit_gate]
        failed = _failed(exit_gate, _expect("stdout", text == r.text(self.refs_out[key]),
                                            "differs from in-process cli.main output"))
        p = json.loads(text)
        argv = list(key)
        if kind.startswith("divergence"):
            return failed + _failed(_close("w2", p["value"], r.num(self.w2[key]), W2_TOL, rel=True))
        if kind == "verify":
            return failed + _failed(_expect("verify", p["passed"] == r.flag(True), "not passed"))
        if kind.startswith(("worst-case", "payoff")):
            eps = float(argv[argv.index("--eps") + 1])
            failed += _failed(_close("divergence_at_solution", p["divergence_at_solution"],
                                     r.num(eps), SOLVER_TOL))
            if kind == "worst-case-analytic":
                failed += _failed(
                    _close("worst_case.lambda_star", p["lambda_star"], r.num(WORST_LAMBDA),
                           ANALYTIC_LAMBDA_TOL),
                    _close("worst_case.value", p["worst_value"], r.num(WORST_VALUE),
                           WORST_VALUE_TOL),
                )
            if kind == "payoff-analytic":
                failed += _failed(
                    _close("payoff.lambda_star", p["lambda_star"], r.num(PAYOFF_LAMBDA),
                           ANALYTIC_LAMBDA_TOL),
                    _close("payoff.cost", p["cost"], r.num(PAYOFF_COST), PAYOFF_COST_TOL),
                )
            return failed
        if kind == "elicit-check":
            return failed + _failed(
                _expect("elicit.passed", p["passed"] == r.flag(True), "not passed"),
                _close("elicit.deviation", p["deviation"], r.num(0.0), ELICIT_TOL),
            )
        if kind == "axioms":
            convexity = next(c for c in p["checks"] if c["name"] == "convexity")
            return failed + _failed(_axiom_expectation(
                functional, p["all_passed"], convexity["passed"], convexity.get("witness"), r))
        return failed + [("kind", f"unknown op kind {kind}")]


# --------------------------------------------------------------------- certify


def exact_merge_value(score, a, b) -> float:
    """Value of the claimed quantile coupling between two equal-weight
    empirical samples of any sizes: both step quantile functions are
    constant between the merged breakpoints {k/n1} and {j/n2}."""
    a, b = np.sort(a), np.sort(b)
    n1, n2 = a.size, b.size
    t = np.unique(np.concatenate([np.arange(n1 + 1) / n1, np.arange(n2 + 1) / n2]))
    length = np.diff(t)
    mid = 0.5 * (t[:-1] + t[1:])
    q1 = a[np.clip(np.ceil(mid * n1).astype(int), 1, n1) - 1]
    v = mid if score.coupling == mkdiv.COMONOTONIC else 1.0 - mid
    q2 = b[np.clip(np.ceil(v * n2).astype(int), 1, n2) - 1]
    return float(np.sum(length * np.asarray(score(q2, q1))))


class Certify(Workload):
    """Warm process; an op is one ``certify_optimal_coupling`` batch of two
    instances at n = 44 for each of the nine scores (six comonotonic, three
    antitonic), plus one unequal-size pair through the weighted LP path of
    ``oracle_optimal``.

    Every op covers every score, so ops cost the same whatever the seed:
    per instance, the scores' costs differ by up to 2.5x, and an op of one
    seeded score would make the median depend on which scores a seed drew.
    The LP pair's score rotates with the op's position, not with the seed.
    Ops of about 0.5 s keep a run's tail percentile near p75, where a few
    host stalls do not set it.
    """

    name = "certify"
    gates = ("certify.passed", "lp_exact")
    round_size = 3
    n = 44  # lexicographic refinement costs ~n^4: one n, one cost
    instances = 2

    @staticmethod
    def scores():
        m = mkdiv
        como = [
            m.BregmanScore(m.quadratic()),
            m.BregmanScore(m.quartic()),
            m.GPLScore(0.9, m.identity_map()),
            m.ExpectileScore(0.7, m.quadratic()),
            m.ShortfallScore(m.exponential_loss(1.0)),
            m.DecomposableScore(m.quadratic(), 0.7, 0.3),
        ]
        anti = [
            m.osband_transform(m.BregmanScore(m.quadratic()), m.negation_map()),
            m.osband_transform(m.GPLScore(0.7, m.identity_map()), m.negation_map()),
            m.osband_transform(m.ExpectileScore(0.7, m.quadratic()), m.negation_map()),
        ]
        return como + anti

    def setup(self):
        self.all_scores = self.scores()
        self.grid_dev = 0.0

    def warm(self):
        score = self.all_scores[0]
        mkdiv.certify_optimal_coupling(score, instances=1, n_min=4, n_max=4, seed=0)
        a, b = np.linspace(0, 1, 3), np.linspace(0, 1, 4)
        mkdiv.oracle_optimal(score, a, b, np.full(3, 1 / 3), np.full(4, 0.25))
        mkdiv.mk_divergence(score, mkdiv.from_samples(a), mkdiv.from_samples(b))

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 2, r])
        return [self._op(self.all_scores[(r * self.round_size + k) % len(self.all_scores)], rng)
                for k in range(self.round_size)]

    def _op(self, lp_score, rng):
        cert_seeds = [int(rng.integers(0, 2**31)) for _ in self.all_scores]
        n1 = int(rng.integers(8, 31))
        n2 = int(rng.integers(8, 30))
        n2 += n2 >= n1  # distinct sizes, n1 + n2 <= 60
        lo, hi = lp_score.atom_interval
        a, b = rng.uniform(lo, hi, n1), rng.uniform(lo, hi, n2)
        w1, w2 = np.full(n1, 1.0 / n1), np.full(n2, 1.0 / n2)
        exact = exact_merge_value(lp_score, a, b)

        def run():
            certs = [mkdiv.certify_optimal_coupling(score, instances=self.instances, n_min=self.n,
                                                    n_max=self.n, seed=seed)
                     for score, seed in zip(self.all_scores, cert_seeds)]
            lp = mkdiv.oracle_optimal(lp_score, a, b, w1, w2)
            grid = mkdiv.mk_divergence(lp_score, mkdiv.from_samples(a), mkdiv.from_samples(b))
            return certs, lp, grid

        def check(res):
            certs, lp, grid = res
            self.grid_dev = max(self.grid_dev, abs(grid - lp.value) / abs(lp.value))
            return _failed(
                *(_expect("certify.passed", cert.passed == self.refs.flag(True),
                          f"{score.describe()}: not passed ({cert.max_deviation:g})")
                  for score, cert in zip(self.all_scores, certs)),
                _close("lp_exact", lp.value, self.refs.num(exact), LP_EXACT_TOL, rel=True),
            )

        return Op("certify+lp", run, check)

    def record(self, tracer):
        tracer.record_max("transport.grid_lp_max_rel_dev", self.grid_dev)


# ---------------------------------------------------------------------- robust


class Robust(Workload):
    """Warm process; an op is one calibrated ``solve_worst_case`` or
    ``cheapest_payoff`` at m = 2.5e5.  A round is each generator once with
    each solver; even rounds use the two analytic cases for quadratic.

    The quartic generator costs about 30x more per node on negative nodes
    (``x**4`` takes a slow pow path for a negative base), so seeded quartic
    ops draw positive references only, and round 0 adds one fixed
    mixed-sign case (about 4 s), so a run costs the same whatever the seed.

    ``cheapest_payoff`` runs only with the quadratic and quartic generators.
    With xlogx its calibration raises DomainError for every input (exp(y - 1)
    underflows to 0 at the lower bracket end); with exp and an unbounded
    state-price density it can stop on the feasibility boundary of phi' and
    raise InfeasibleLambdaError or return a non-binding solution.
    """

    name = "robust"
    gates = ("divergence_at_solution", "binding", "worst_case.lambda_star",
             "worst_case.value", "payoff.lambda_star", "payoff.cost")
    generators = ("quadratic", "xlogx", "exp", "quartic")
    payoff_generators = ("quadratic", "quartic")

    def setup(self):
        self.catalog = mkdiv.generator_catalog()

    def warm(self):
        ref = mkdiv.Uniform(0.5, 1.5)
        market = mkdiv.MarketSpec(mkdiv.Exponential(1.0))
        for name, gen in self.catalog.items():
            mkdiv.solve_worst_case(gen, mkdiv.dual_power(2.0), ref, 0.03, m=2000)
            if name in self.payoff_generators:
                mkdiv.cheapest_payoff(gen, ref, market, 0.03, m=2000)

    # Families rotate with the round and slot, so every seed runs the same
    # mix of families; the seed draws their parameters.
    @staticmethod
    def _reference(name, k, rng):
        u = lambda lo, hi: float(rng.uniform(lo, hi))
        choices = [
            lambda: mkdiv.Uniform(u(0.5, 1.0), u(1.5, 2.5)),
            lambda: mkdiv.LogNormal(u(-0.2, 0.2), u(0.1, 0.3)),
            lambda: mkdiv.Exponential(u(0.8, 1.5)),
        ]
        if name not in ("xlogx", "quartic"):
            choices.append(lambda: mkdiv.Normal(u(-1.0, 1.0), u(0.5, 1.5)))
        return choices[k % len(choices)]()

    @staticmethod
    def _distortion(k, rng):
        return [
            lambda: mkdiv.dual_power(float(rng.uniform(1.5, 3.0))),
            lambda: mkdiv.power_distortion(float(rng.uniform(0.5, 0.8))),
            lambda: mkdiv.tvar_distortion(float(rng.uniform(0.8, 0.95))),
        ][k % 3]()

    @staticmethod
    def _market(k, rng):
        u = lambda lo, hi: float(rng.uniform(lo, hi))
        spd = [
            lambda: mkdiv.Uniform(0.0, u(1.0, 2.0)),
            lambda: mkdiv.Exponential(u(0.8, 1.5)),
            lambda: mkdiv.LogNormal(u(-0.2, 0.0), u(0.1, 0.3)),
        ][k % 3]()
        return mkdiv.MarketSpec(spd, rate=u(0.0, 0.05), horizon=u(0.5, 2.0))

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 3, r])
        ops = []
        for slot, name in enumerate(self.generators):
            gen = self.catalog[name]
            analytic = name == "quadratic" and r % 2 == 0
            solvers = ("worst-case", "payoff") if name in self.payoff_generators else ("worst-case",)
            for solver in solvers:
                if analytic:
                    ops.append(self._analytic(gen, solver))
                    continue
                eps = float(np.exp(rng.uniform(np.log(0.005), np.log(0.03))))
                ref = self._reference(name, r + slot, rng)
                if solver == "worst-case":
                    d = self._distortion(r + slot, rng)
                    ops.append(self._op(f"{solver}-{name}", lambda g=gen, d=d, ref=ref, e=eps:
                                        mkdiv.solve_worst_case(g, d, ref, e, m=ROBUST_M, delta=DELTA), eps))
                else:
                    market = self._market(r + slot, rng)
                    ops.append(self._op(f"{solver}-{name}", lambda g=gen, ref=ref, mk=market, e=eps:
                                        mkdiv.cheapest_payoff(g, ref, mk, e, m=ROBUST_M, delta=DELTA), eps))
        if r == 0:
            quartic = self.catalog["quartic"]
            ops.append(self._op("worst-case-quartic-mixed", lambda: mkdiv.solve_worst_case(
                quartic, mkdiv.dual_power(2.0), mkdiv.Normal(0.0, 1.0), 0.02,
                m=ROBUST_M, delta=DELTA), 0.02))
        return [ops[int(i)] for i in rng.permutation(len(ops))]

    def _op(self, kind, run, eps, extra=None):
        def check(sol):
            return _failed(
                _close("divergence_at_solution", sol.divergence_at_solution,
                       self.refs.num(eps), SOLVER_TOL),
                _expect("binding", sol.binding == self.refs.flag(True), "solution not binding"),
            ) + (extra(sol) if extra else [])
        return Op(kind, run, check)

    def _analytic(self, gen, solver):
        r = self.refs
        if solver == "worst-case":
            def extra(sol):
                return _failed(
                    _close("worst_case.lambda_star", sol.lambda_star, r.num(WORST_LAMBDA),
                           ANALYTIC_LAMBDA_TOL),
                    _close("worst_case.value", sol.worst_value, r.num(WORST_VALUE),
                           WORST_VALUE_TOL),
                )
            run = lambda: mkdiv.solve_worst_case(
                gen, mkdiv.dual_power(2.0), mkdiv.Uniform(0.0, 1.0), 0.03, m=ROBUST_M, delta=DELTA)
            return self._op("worst-case-analytic", run, 0.03, extra)

        def extra(sol):
            return _failed(
                _close("payoff.lambda_star", sol.lambda_star, r.num(PAYOFF_LAMBDA),
                       ANALYTIC_LAMBDA_TOL),
                _close("payoff.cost", sol.cost, r.num(PAYOFF_COST), PAYOFF_COST_TOL),
            )
        market = mkdiv.MarketSpec(mkdiv.Uniform(0.0, 1.0), rate=0.0, horizon=1.0)
        run = lambda: mkdiv.cheapest_payoff(
            gen, mkdiv.Uniform(0.0, 1.0), market, PAYOFF_EPS, m=ROBUST_M, delta=DELTA)
        return self._op("payoff-analytic", run, PAYOFF_EPS, extra)


# ----------------------------------------------------------------- functionals


class Functionals(Workload):
    """Warm process; an op is one functional/score pair on a normal and a
    uniform law (a functional evaluation and the matching
    ``argmin_expected_score`` at m = 1e4 on each), plus ``check_axioms`` on
    three 40-atom pairs.  Two laws per op make ops long enough that a
    run's tail percentile is not set by a few host stalls."""

    name = "functionals"
    gates = ("argmin", "axioms")
    axiom_pairs = 3

    @staticmethod
    def pairs(rng):
        m = mkdiv
        alpha = float(rng.uniform(0.55, 0.9))
        gamma = float(rng.uniform(0.5, 1.5))
        return [
            (m.Mean(), m.BregmanScore(m.quadratic())),
            (m.Mean(), m.BregmanScore(m.quartic())),
            (m.Expectile(alpha), m.ExpectileScore(alpha, m.quadratic())),
            (m.Shortfall(m.linear_loss()), m.ShortfallScore(m.linear_loss())),
            (m.Shortfall(m.exponential_loss(gamma)), m.ShortfallScore(m.exponential_loss(gamma))),
            (m.Entropic(gamma), m.EntropicScore(gamma, m.quadratic())),
        ]

    @staticmethod
    def axiom_functionals():
        return [mkdiv.Expectile(0.7), mkdiv.Expectile(0.3), mkdiv.Shortfall(mkdiv.exponential_loss(1.0))]

    def setup(self):
        self.ax = self.axiom_functionals()

    def warm(self):
        rng = np.random.default_rng(0)
        pairs = [(rng.normal(0, 1, 8), rng.normal(0, 1, 8))]
        dist = mkdiv.Normal(0.0, 1.0)
        for functional, score in self.pairs(rng):
            functional.evaluate(dist, m=1000)
            mkdiv.argmin_expected_score(score, dist, -3.0, 3.0, steps=33, m=1000)
        for functional in self.ax:
            mkdiv.check_axioms(functional, pairs)

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 4, r])
        ops = []
        for k, (functional, score) in enumerate(self.pairs(rng)):
            u = lambda lo, hi: float(rng.uniform(lo, hi))
            away = score.describe() == QUARTIC_BREGMAN
            dists = [mkdiv.Normal(u(0.1, 1.0) if away else u(-1.0, 1.0), u(0.5, 1.5)),
                     mkdiv.Uniform(u(0.0, 0.5) if away else u(-1.0, 0.0), u(0.5, 2.0))]
            samples = [(rng.normal(0, 1, 40), rng.normal(0, 1, 40)) for _ in range(self.axiom_pairs)]
            ops.append(self._op(functional, score, dists, self.ax[(r + k) % len(self.ax)], samples))
        return [ops[int(i)] for i in rng.permutation(len(ops))]

    def _op(self, functional, score, dists, ax_functional, samples):
        def run():
            values = []
            for dist in dists:
                z_lo = float(dist.quantile(0.001)) - 1.0
                z_hi = float(dist.quantile(0.999)) + 1.0
                direct = functional.evaluate(dist, m=GRID_M, delta=DELTA)
                argmin = mkdiv.argmin_expected_score(score, dist, z_lo, z_hi,
                                                     m=GRID_M, delta=DELTA)
                values.append((direct, argmin))
            return values, mkdiv.check_axioms(ax_functional, samples)

        def check(res):
            values, report = res
            return _failed(
                *(_close("argmin", argmin, self.refs.num(direct), ELICIT_TOL)
                  for direct, argmin in values),
                _axiom_expectation(ax_functional, report.all_passed, report["convexity"].passed,
                                   report["convexity"].witness, self.refs),
            )

        return Op(functional.kind, run, check)


WORKLOADS = {w.name: w for w in (CliOneshot, Certify, Robust, Functionals)}


def quiet_warnings():
    """Non-strict generators/distortions warn on every solve by design."""
    warnings.simplefilter("ignore", mkdiv.UniquenessWarning)
