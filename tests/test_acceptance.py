"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the suite is also part of the regular ``pytest`` run.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mkdiv import (
    BregmanScore,
    DecomposableScore,
    Entropic,
    EntropicScore,
    Expectile,
    ExpectileScore,
    GPLScore,
    LambdaQuantile,
    LambdaQuantileScore,
    Mean,
    Normal,
    Quantile,
    Shortfall,
    ShortfallScore,
    StepFunction,
    Uniform,
    argmin_expected_score,
    check_axioms,
    check_submodular,
    cheapest_payoff,
    choquet,
    comonotonic_matching,
    antitonic_matching,
    coupling_value,
    cube_map,
    dist_transform,
    dual_power,
    exponential_loss,
    from_samples,
    identity_map,
    linear_loss,
    MarketSpec,
    mk_divergence,
    oracle_optimal,
    osband_transform,
    power_loss,
    quadratic,
    quantile_grid,
    quartic,
    reciprocal_map,
    solve_worst_case,
    wasserstein_p,
)
from mkdiv.generators import exponential_generator
from mkdiv.numerics import midpoint_rule, pairwise_mean
from mkdiv.robust import perturbed_nodes

TWO_STEP = StepFunction([0.0], [0.3, 0.7])

COMONOTONIC_FAMILIES = [
    BregmanScore(quadratic()),
    BregmanScore(quartic()),
    GPLScore(0.9, identity_map()),
    GPLScore(0.5, cube_map()),
    ExpectileScore(0.7, quadratic()),
    ShortfallScore(linear_loss()),
    ShortfallScore(exponential_loss(1.0)),
    LambdaQuantileScore(TWO_STEP),
    DecomposableScore(quadratic(), 0.7, 0.3),
]

ANTITONIC_FAMILIES = [
    osband_transform(BregmanScore(quadratic()), reciprocal_map()),
    dist_transform(BregmanScore(quadratic()), reciprocal_map()),
]


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({description}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({description}): PASS")


def _certify(score, seed, instances=100):
    worst_dev = 0.0
    worst_gap = 0.0
    rng_master = seed
    for k in range(instances):
        rng = np.random.default_rng([rng_master, k])
        n = int(rng.integers(2, 9))
        lo, hi = score.atom_interval
        a = rng.uniform(lo, hi, n)
        b = rng.uniform(lo, hi, n)
        closed = mk_divergence(score, from_samples(a), from_samples(b))
        report = oracle_optimal(score, a, b)
        scale = 1.0 + abs(report.value)
        worst_dev = max(worst_dev, abs(closed - report.value) / scale)
        if score.coupling == "comonotonic":
            sigma = comonotonic_matching(a, b)
        else:
            sigma = antitonic_matching(a, b)
        worst_gap = max(
            worst_gap, abs(coupling_value(score, a, b, sigma) - report.value) / scale
        )
    return worst_dev, worst_gap


def test_criterion_1_coupling_certification():
    with criterion(1, "comonotonic coupling certification"):
        t0 = time.time()
        for i, score in enumerate(COMONOTONIC_FAMILIES):
            dev, gap = _certify(score, seed=1000 + i)
            assert dev <= 1e-9, f"{score.describe()}: deviation {dev}"
            assert gap <= 1e-9, f"{score.describe()}: sorted matching gap {gap}"
        elapsed = time.time() - t0
        assert elapsed < 10.0, f"certification took {elapsed:.2f}s"


def test_criterion_2_antitonic_certification():
    with criterion(2, "antitonic coupling certification"):
        for i, score in enumerate(ANTITONIC_FAMILIES):
            assert score.coupling == "antitonic"
            dev, gap = _certify(score, seed=2000 + i)
            assert dev <= 1e-9, f"{score.describe()}: deviation {dev}"
            assert gap <= 1e-9, f"{score.describe()}: sorted matching gap {gap}"


def test_criterion_3_wasserstein_bridge():
    with criterion(3, "squared-distance bridge to 2-Wasserstein"):
        rng = np.random.default_rng(3000)
        score = BregmanScore(quadratic())
        for _ in range(20):
            n1 = int(rng.integers(2, 12))
            n2 = n1 if rng.uniform() < 0.5 else int(rng.integers(2, 12))
            f1 = from_samples(rng.normal(0.0, 1.0, n1))
            f2 = from_samples(rng.normal(0.7, 1.4, n2))
            lhs = mk_divergence(score, f1, f2)
            rhs = wasserstein_p(f1, f2, 2.0) ** 2
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + rhs)
        t0 = time.time()
        w = wasserstein_p(Normal(0, 1), Normal(1, 1), 2.0, m=100_000, delta=1e-7)
        elapsed = time.time() - t0
        assert w == pytest.approx(1.0, abs=1e-3)
        assert elapsed < 1.0, f"gaussian check took {elapsed:.2f}s"


def test_criterion_4_worst_case_analytic_reduction():
    with criterion(4, "worst-case distortion risk analytic reduction"):
        sol = solve_worst_case(quadratic(), dual_power(2.0), Uniform(0, 1), 0.03)
        assert sol.lambda_star == pytest.approx(10.0 / 3.0, abs=1e-6)
        assert sol.worst_value == pytest.approx(0.8666667, abs=1e-6)
        assert abs(sol.divergence_at_solution - 0.03) <= 1e-8

        # quadratic-generator identity: worst = H(ref) + sqrt(eps * int gamma^2)
        cases = [
            (Uniform(0, 1), dual_power(2.0), 0.05),
            (Uniform(-1, 2), dual_power(3.0), 0.02),
            (Normal(0, 1), dual_power(2.0), 0.01),
            (Normal(1.5, 0.5), dual_power(2.0), 0.08),
            (Uniform(0.2, 2.2), dual_power(3.0), 0.03),
        ]
        u = midpoint_rule(10_000, 1e-7).u
        for ref, d, eps in cases:
            sol = solve_worst_case(quadratic(), d, ref, eps)
            base = choquet(d, quantile_grid(ref))
            gamma_sq = pairwise_mean(d.gamma(u) ** 2)
            assert sol.worst_value == pytest.approx(
                base + float(np.sqrt(eps * gamma_sq)), abs=1e-6
            )

        values = [
            solve_worst_case(quadratic(), dual_power(2.0), Uniform(0, 1), e).worst_value
            for e in (0.01, 0.02, 0.04, 0.08)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_criterion_5_cheapest_payoff_analytic_reduction():
    with criterion(5, "cheapest payoff analytic reduction"):
        market = MarketSpec(Uniform(0, 1), rate=0.0, horizon=1.0)
        bench = Uniform(0, 1)
        sol = cheapest_payoff(quadratic(), bench, market, 1.0 / 48.0)
        assert sol.lambda_star == pytest.approx(2.0, abs=1e-6)
        assert sol.cost == pytest.approx(1.0 / 12.0, abs=1e-5)
        assert sol.nonneg_violation

        tiny = cheapest_payoff(quadratic(), bench, market, 1e-10)
        assert tiny.cost == pytest.approx(1.0 / 6.0, abs=1e-4)

        costs = [
            cheapest_payoff(quadratic(), bench, market, e).cost
            for e in (1.0 / 192.0, 1.0 / 96.0, 1.0 / 48.0, 1.0 / 24.0)
        ]
        assert all(a > b for a, b in zip(costs, costs[1:]))

        # structural identity with the worst-case engine under the signed
        # weight gamma(u) = -Q_xi(1 - u)
        m = sol.payoff_quantile.m
        grid = quantile_grid(bench, m)
        weight = -market.spd.quantile(1.0 - midpoint_rule(m).u)
        manual = perturbed_nodes(quadratic(), grid.nodes, weight, sol.lambda_star)
        assert np.max(np.abs(manual - sol.payoff_quantile.nodes)) <= 1e-12


# sizes coprime with the quantile levels in play, so no functional in the
# suite has a flat minimiser interval on these samples
_SIZES = (11, 13, 17, 19, 23)
_DEC_STEP = StepFunction([1.4], [0.65, 0.35])  # decreasing: crossing unique

ELICIT_PAIRS = [
    (Mean(), BregmanScore(quadratic())),
    (Mean(), BregmanScore(quartic())),
    (Quantile(0.7), GPLScore(0.7, identity_map())),
    (Quantile(0.7), GPLScore(0.7, cube_map())),
    (Expectile(0.7), ExpectileScore(0.7, quadratic())),
    (Shortfall(linear_loss()), ShortfallScore(linear_loss())),
    (Shortfall(exponential_loss(1.0)), ShortfallScore(exponential_loss(1.0))),
    (LambdaQuantile(_DEC_STEP), LambdaQuantileScore(_DEC_STEP)),
    (Entropic(1.0), EntropicScore(1.0, quadratic())),
]


def test_criterion_6_elicitability_suite():
    with criterion(6, "elicitability: argmin vs direct evaluation"):
        rng = np.random.default_rng(6000)
        dists = [
            from_samples(rng.uniform(0.5, 3.0, _SIZES[k % len(_SIZES)]))
            for k in range(20)
        ]
        for d in dists:
            lo = float(d.values[0]) - 0.5
            hi = float(d.values[-1]) + 0.5
            for functional, score in ELICIT_PAIRS:
                direct = functional.evaluate(d)
                indirect = argmin_expected_score(score, d, lo, hi, steps=801)
                assert abs(direct - indirect) <= 1e-5, (
                    f"{functional.describe()} vs {score.describe()}: "
                    f"{direct} vs {indirect}"
                )
            # first-order condition of the expectile at its solution
            t = Expectile(0.7)
            z = t.evaluate(d)
            scale = 1.0 + float(np.mean(np.abs(d.values)))
            assert abs(t.residual(d.values, z)) <= 1e-10 * scale
            # exponential shortfall coincides with the entropic functional
            s = Shortfall(exponential_loss(1.0)).evaluate(d)
            e = Entropic(1.0).evaluate(d)
            assert abs(s - e) <= 1e-9


def test_criterion_7_risk_axiom_suite():
    with criterion(7, "risk-measure axiom suite"):
        rng = np.random.default_rng(7000)
        pairs = [(rng.normal(0, 1, 40), rng.normal(0, 1, 40)) for _ in range(50)]

        coherent = check_axioms(Expectile(0.7), pairs, tol=1e-9)
        assert coherent.all_passed, coherent

        lower = check_axioms(Expectile(0.3), pairs, tol=1e-9)
        assert not lower["convexity"].passed
        assert lower["convexity"].witness is not None

        convex = check_axioms(Shortfall(exponential_loss(1.0)), pairs, tol=1e-9)
        assert convex["convexity"].passed


def test_criterion_8_submodularity_grids():
    with criterion(8, "submodularity on evaluation grids"):
        extras = [
            BregmanScore(exponential_generator()),
            EntropicScore(1.0, quadratic()),
            ShortfallScore(power_loss(3.0)),
        ]
        for score in COMONOTONIC_FAMILIES + extras:
            lo, hi = score.atom_interval
            grid = np.linspace(lo, hi, 20)
            ok, witness = check_submodular(score, grid, grid)
            assert ok, f"{score.describe()}: {witness}"
        for score in ANTITONIC_FAMILIES:
            grid = np.linspace(0.25, 3.0, 20)
            ok, witness = check_submodular(score, grid, grid)
            assert not ok and witness is not None


def test_criterion_9_determinism(run_python):
    with criterion(9, "byte-identical seeded CLI output"):
        verify_args = [
            "verify",
            "--score", "score:expectile,alpha=0.7,phi=quadratic",
            "--n", "6",
            "--instances", "40",
            "--seed", "123",
        ]
        run1, run2 = (run_python("-m", "mkdiv.cli", *verify_args) for _ in range(2))
        assert run1.returncode == run2.returncode == 0
        assert run1.stdout == run2.stdout

        wc_args = [
            "worst-case",
            "--phi", "phi:quadratic",
            "--distortion", "distortion:dualpower,k=2",
            "--ref", "uniform:a=0,b=1",
            "--eps", "0.03",
        ]
        wc1, wc2 = (run_python("-m", "mkdiv.cli", *wc_args).stdout for _ in range(2))
        assert wc1 == wc2
        payload = json.loads(wc1)
        assert payload["worst_value"] == pytest.approx(0.8666667, abs=1e-6)
