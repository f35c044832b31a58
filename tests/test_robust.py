import gc
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkdiv import (
    CalibrationError,
    Exponential,
    LogNormal,
    MarketSpec,
    Normal,
    QuantileGrid,
    Uniform,
    cheapest_payoff,
    choquet,
    dual_power,
    entropy_generator,
    exponential_generator,
    generator_catalog,
    identity_distortion,
    quadratic,
    quantile_grid,
    quartic,
    solve_worst_case,
    tvar_distortion,
)
from mkdiv.errors import DomainError, InfeasibleLambdaError
from mkdiv.generators import ConvexGenerator
from mkdiv.numerics import _BLOCK, brent_root, midpoint_rule, pairwise_mean, pairwise_sum
from mkdiv.robust import (
    UniquenessWarning,
    _Probes,
    calibrate_lambda,
    perturbed_nodes,
)


def bw_divergence_nodes(gen, nodes_g, nodes_f):
    """Bregman-Wasserstein divergence between two grids on the same u-nodes:
    the comonotonic coupling is optimal, so this is a plain nodewise mean."""
    return pairwise_mean(gen.bregman(nodes_g, nodes_f))


class TestChoquet:
    def test_non_finite_weight_raises_naming_the_node(self):
        from mkdiv.generators import DistortionSpec

        weird = DistortionSpec(
            name="weird",
            gamma_fn=lambda u: np.where(u > 0.9, np.inf, 1.0),
            strictly_concave=False,
        )
        g = quantile_grid(Uniform(0, 1), m=100, delta=0.0)
        with pytest.raises(DomainError, match=r"'weird' has a non-finite weight inf at node 90 ") as exc:
            choquet(weird, g)
        assert exc.value.index == 90

    def test_identity_is_the_mean(self):
        g = quantile_grid(Uniform(0, 1), m=10_000, delta=0.0)
        assert choquet(identity_distortion(), g) == pytest.approx(0.5, abs=1e-6)

    def test_dual_power_two(self):
        # integral of 2u * u over (0,1) = 2/3
        g = quantile_grid(Uniform(0, 1), m=10_000, delta=0.0)
        assert choquet(dual_power(2.0), g) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_tvar_tail_mean(self):
        # integral over [0.9, 1] of u / 0.1 = 0.95
        g = quantile_grid(Uniform(0, 1), m=10_000, delta=0.0)
        assert choquet(tvar_distortion(0.9), g) == pytest.approx(0.95, abs=1e-5)


def perturbed_curve(gen, d, grid, lam):
    return perturbed_nodes(gen, grid.nodes, d.gamma(grid.rule.u), lam)


class TestPerturbedCurve:
    def test_quadratic_dual_power_closed_form(self):
        # (2u + 2u * (3/10)) / 2 = 1.3 u nodewise
        grid = quantile_grid(Uniform(0, 1), m=500, delta=0.0)
        nodes = perturbed_curve(quadratic(), dual_power(2.0), grid, 10.0 / 3.0)
        assert np.max(np.abs(nodes - 1.3 * grid.rule.u)) <= 1e-12

    def test_large_multiplier_recovers_reference(self):
        base = quantile_grid(Normal(0.2, 1.1), m=200)
        nodes = perturbed_curve(quadratic(), dual_power(2.0), base, 1e12)
        assert np.max(np.abs(nodes - base.nodes)) <= 1e-9

    def test_curve_is_nondecreasing(self):
        grid = quantile_grid(Normal(0, 1), m=300)
        for d in (dual_power(3.0), tvar_distortion(0.8)):
            nodes = perturbed_curve(quadratic(), d, grid, 0.7)
            assert np.all(np.diff(nodes) >= 0.0)

    def test_infeasible_multiplier_with_negative_weight(self):
        # only a negative weight can push the exponential generator's
        # derivative argument out of range; tiny lambda forces it
        from mkdiv.errors import InfeasibleLambdaError

        nodes = quantile_grid(Uniform(0, 1), m=50, delta=0.0).nodes
        weight = -np.ones(50)
        with pytest.raises(InfeasibleLambdaError, match="node"):
            perturbed_nodes(exponential_generator(), nodes, weight, 1e-3)

    @pytest.mark.parametrize(
        "gen, weight, node",
        [
            # an infinite argument is infeasible on an unbounded range too
            (quadratic(), [1.0, np.inf, -np.inf], 1),
            (quadratic(), [1.0, 2.0, -np.inf], 2),
            (exponential_generator(), [1.0, -10.0, np.inf], 1),
            (exponential_generator(), [np.inf, -10.0, 1.0], 0),
            # exp(y - 1) underflows to 0.0, outside the xlogx domain
            (entropy_generator(), [0.0, -1e4, -1e4], 1),
        ],
    )
    def test_first_infeasible_node_reported(self, gen, weight, node):
        from mkdiv.errors import InfeasibleLambdaError

        with pytest.raises(InfeasibleLambdaError) as info:
            perturbed_nodes(gen, np.array([0.5, 1.0, 1.5]), np.array(weight), 1.0)
        assert info.value.node == node


class TestSolve:
    def test_analytic_reduction(self):
        sol = solve_worst_case(quadratic(), dual_power(2.0), Uniform(0, 1), 0.03)
        assert sol.lambda_star == pytest.approx(10.0 / 3.0, abs=1e-6)
        assert sol.worst_value == pytest.approx(13.0 / 15.0, abs=1e-6)
        assert abs(sol.divergence_at_solution - 0.03) <= 1e-8
        assert sol.binding

    def test_zero_radius_limit(self):
        ref = Uniform(0, 1)
        sol = solve_worst_case(quadratic(), dual_power(2.0), ref, 1e-10)
        base = choquet(dual_power(2.0), quantile_grid(ref))
        assert sol.worst_value == pytest.approx(base, abs=1e-4)

    def test_quadratic_closed_form_across_references(self):
        # for phi = x^2 the worst value is H(ref) + sqrt(eps * int gamma^2)
        cases = [
            (Uniform(0, 1), dual_power(2.0), 0.05),
            (Uniform(-1, 2), dual_power(3.0), 0.02),
            (Normal(0, 1), dual_power(2.0), 0.01),
            (Exponential(1.0), tvar_distortion(0.9), 0.04),
            (LogNormal(0, 0.25), dual_power(2.0), 0.03),
        ]
        u = midpoint_rule(10_000, 1e-7).u
        for ref, d, eps in cases:
            with pytest.warns(UniquenessWarning) if not d.strictly_concave else _nullcontext():
                sol = solve_worst_case(quadratic(), d, ref, eps)
            base = choquet(d, quantile_grid(ref))
            gamma_sq = pairwise_mean(d.gamma(u) ** 2)
            expected = base + np.sqrt(eps * gamma_sq)
            assert sol.worst_value == pytest.approx(expected, abs=1e-6)

    def test_worst_value_increases_with_budget(self):
        values = [
            solve_worst_case(quadratic(), dual_power(2.0), Uniform(0, 1), e).worst_value
            for e in (0.01, 0.02, 0.04, 0.08)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_divergence_decreases_in_lambda_nodewise(self):
        ref = Normal(0, 1)
        grid = quantile_grid(ref, m=500)
        gamma = dual_power(2.0).gamma(grid.rule.u)
        g1 = perturbed_nodes(quadratic(), grid.nodes, gamma, 0.5)
        g2 = perturbed_nodes(quadratic(), grid.nodes, gamma, 2.0)
        assert np.all(g1 > g2)  # smaller multiplier lifts the curve more
        b1 = bw_divergence_nodes(quadratic(), g1, grid.nodes)
        b2 = bw_divergence_nodes(quadratic(), g2, grid.nodes)
        assert b1 > b2

    def test_translation_covariance_quadratic(self):
        shift = 1.7
        s0 = solve_worst_case(quadratic(), dual_power(2.0), Uniform(0, 1), 0.02)
        s1 = solve_worst_case(quadratic(), dual_power(2.0), Uniform(shift, 1 + shift), 0.02)
        assert np.max(
            np.abs(s1.worst_quantile.nodes - (s0.worst_quantile.nodes + shift))
        ) <= 1e-9
        assert s1.worst_value - s0.worst_value == pytest.approx(shift, abs=1e-9)

    def test_binding_and_feasibility_invariants(self):
        sol = solve_worst_case(quadratic(), dual_power(2.0), Normal(0, 1), 0.05)
        assert sol.binding
        assert abs(sol.divergence_at_solution - 0.05) <= 1e-8
        assert np.all(np.diff(sol.worst_quantile.nodes) >= 0.0)
        base = choquet(dual_power(2.0), quantile_grid(Normal(0, 1)))
        assert sol.worst_value >= base

    def test_entropy_generator_multiplicative_lift(self):
        # with phi = x log x the perturbed curve is the reference scaled by
        # exp(gamma / lambda); extreme probe multipliers overflow and must
        # be treated as infinitely far, not poison the calibration
        ref = LogNormal(0.0, 0.3)
        sol = solve_worst_case(entropy_generator(), dual_power(2.0), ref, 0.01)
        assert sol.binding
        g = quantile_grid(ref)
        manual = g.nodes * np.exp(dual_power(2.0).gamma(g.rule.u) / sol.lambda_star)
        assert np.max(np.abs(manual - sol.worst_quantile.nodes)) <= 1e-12 * np.max(manual)

    def test_exponential_generator_solves(self):
        sol = solve_worst_case(exponential_generator(), dual_power(2.0), Normal(0, 1), 0.005)
        assert sol.binding
        assert np.all(np.diff(sol.worst_quantile.nodes) >= 0.0)

    def test_tvar_warns_but_solves(self):
        with pytest.warns(UniquenessWarning):
            sol = solve_worst_case(quadratic(), tvar_distortion(0.9), Uniform(0, 1), 0.01)
        assert sol.binding

    def test_both_uniqueness_warnings_name_their_subject_and_the_caller(self):
        import dataclasses
        import warnings

        flat = dataclasses.replace(quadratic(), name="flat", strictly_convex=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_worst_case(flat, tvar_distortion(0.9), Uniform(0, 1), 0.01, m=100)
        assert [(w.category, str(w.message), w.filename) for w in caught] == [
            (UniquenessWarning,
             f"{subject}; the solution may not be unique", __file__)
            for subject in ("generator 'flat' is not strictly convex",
                            "distortion 'tvar' is not strictly concave")
        ]

    def test_unreachable_budget_reports_range(self):
        # a bounded perturbation cannot reach the requested divergence when
        # the bracket bottoms out; force it with an absurd budget and a
        # reference/generator pair whose divergence stays tiny
        with pytest.raises(CalibrationError):
            solve_worst_case(
                quadratic(), dual_power(2.0), Uniform(0, 1), 1e30, m=100
            )


def reference_divergence(gen, ref_nodes, weight, lam):
    """Divergence at one multiplier from bw_divergence_nodes; inf where the
    multiplier is infeasible or the divergence overflows."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            nodes = perturbed_nodes(gen, ref_nodes, weight, lam)
            val = bw_divergence_nodes(gen, nodes, ref_nodes)
    except InfeasibleLambdaError:
        return np.inf
    return val if np.isfinite(val) else np.inf


def bisection_calibrate(gen, ref_nodes, weight, eps):
    """The calibration as it was before Brent's method: bisection on log lam
    to the same stopping width, divergences from bw_divergence_nodes."""

    def div_at(lam):
        return reference_divergence(gen, ref_nodes, weight, lam)

    lo, hi = 1e-8, 1e8
    for _ in range(4):
        if div_at(lo) >= eps:
            break
        lo *= 0.1
    for _ in range(4):
        if div_at(hi) <= eps:
            break
        hi *= 10.0
    a, b = np.log(lo), np.log(hi)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if b - a <= 1e-14 * (1.0 + abs(a) + abs(b)):
            break
        if div_at(float(np.exp(mid))) >= eps:
            a = mid
        else:
            b = mid
    lam = float(np.exp(0.5 * (a + b)))
    return lam, div_at(lam)


def two_phase_calibrate(gen, ref_nodes, weight, eps):
    """The calibration with a separate bisection phase in front of Brent's
    method: bisect on log lam until both bracket ends have a finite, positive
    divergence (returning the feasible end if the bracket first falls below
    the stopping width), then Brent on the log-divergence.  Returns the
    result and the number of multipliers evaluated."""
    seen = {}

    def div_at(lam):
        if lam not in seen:
            seen[lam] = reference_divergence(gen, ref_nodes, weight, lam)
        return seen[lam]

    lo, hi = 1e-8, 1e8
    for _ in range(4):
        if div_at(lo) >= eps:
            break
        lo *= 0.1
    for _ in range(4):
        if div_at(hi) <= eps:
            break
        hi *= 10.0
    d_lo, d_hi = div_at(lo), div_at(hi)
    a, b = np.log(lo), np.log(hi)
    while math.isinf(d_lo) or not d_hi > 0.0:
        if b - a <= 1e-14 * (1.0 + abs(a) + abs(b)):
            return (hi, d_hi, bool(abs(d_hi - eps) <= 1e-8 * eps)), len(seen)
        mid = 0.5 * (a + b)
        lam = float(np.exp(mid))
        d_mid = div_at(lam)
        if d_mid >= eps:
            a, d_lo = mid, d_mid
        else:
            b, hi, d_hi = mid, lam, d_mid

    def residual(s):
        d = div_at(float(np.exp(s)))
        return math.log(d) - math.log(eps) if d > 0.0 else -math.inf

    s, _ = brent_root(
        residual, float(a), float(b),
        math.log(d_lo) - math.log(eps), math.log(d_hi) - math.log(eps), width_tol=1e-14,
    )
    lam = float(np.exp(s))
    div = div_at(lam)
    return (lam, div, bool(abs(div - eps) <= 1e-8 * eps)), len(seen)


def recorded_probes(monkeypatch):
    """The list of multipliers the calibration passes to perturbed_nodes,
    filled in as it runs."""
    calls = []
    original = perturbed_nodes

    def recorded(*args, **kwargs):
        calls.append(args[3])
        return original(*args, **kwargs)

    monkeypatch.setattr("mkdiv.robust.perturbed_nodes", recorded)
    return calls


class TestNonFiniteWeight:
    """A weight that is not finite at some node is rejected, naming the node,
    before the calibration probes any multiplier."""

    def test_worst_case(self, monkeypatch):
        from mkdiv.generators import DistortionSpec

        spike = DistortionSpec(
            name="spike",
            gamma_fn=lambda u: np.where(u > 0.9, np.inf, 1.0),
        )
        probes = recorded_probes(monkeypatch)
        with pytest.raises(
            DomainError,
            match=r"^distortion 'spike' has a non-finite weight inf at node 90 \(u=0\.905\)$",
        ) as exc:
            solve_worst_case(quadratic(), spike, Uniform(0, 1), 0.02, m=100)
        assert exc.value.index == 90
        assert probes == []

    def test_payoff(self, monkeypatch):
        # Q_xi(1 - u) = exp(706 + ndtri(1 - u)) overflows at the first node
        market = MarketSpec(LogNormal(706.0, 1.0))
        probes = recorded_probes(monkeypatch)
        with pytest.raises(
            DomainError,
            match=r"^state-price density 'lognormal' has a non-finite weight -inf "
            r"at node 0 \(u=5e-05\)$",
        ) as exc, np.errstate(over="ignore"):
            cheapest_payoff(quadratic(), Uniform(0, 1), market, 0.02, m=10_000)
        assert exc.value.index == 0
        assert probes == []


CALIBRATION_REFS = [Uniform(0.5, 1.5), LogNormal(0.0, 0.25), Exponential(1.2)]
CALIBRATION_M = 2000


def calibration_cases():
    for name in generator_catalog():
        for k, ref in enumerate(CALIBRATION_REFS):
            for kind in ("worst-case", "payoff"):
                yield pytest.param(name, ref, kind, id=f"{name}-{kind}-ref{k}")


def calibration_inputs(name, ref, kind):
    grid = quantile_grid(ref, CALIBRATION_M, 1e-7)
    if kind == "worst-case":
        weight = dual_power(2.0).gamma(grid.rule.u)
    else:
        weight = MarketSpec(LogNormal(-0.1, 0.3)).neg_weight(grid.rule.u)
    return generator_catalog()[name], grid.nodes, weight


class TestCalibration:
    @pytest.mark.parametrize("name, ref, kind", list(calibration_cases()))
    def test_matches_bisection_in_at_most_16_evaluations(self, name, ref, kind, monkeypatch):
        gen, nodes, weight = calibration_inputs(name, ref, kind)
        expected, _ = bisection_calibrate(gen, nodes, weight, 0.02)
        calls = recorded_probes(monkeypatch)
        lam, div, binding, _ = calibrate_lambda(gen, QuantileGrid(nodes), weight, 0.02)
        assert lam == pytest.approx(expected, rel=1e-12)
        assert binding and abs(div - 0.02) <= 1e-8 * 0.02
        assert len(calls) <= 16
        assert len(set(calls)) == len(calls)  # no multiplier evaluated twice

    @pytest.mark.parametrize("kind", ["worst-case", "payoff"])
    def test_divergence_and_curve_are_those_of_the_multiplier(self, kind):
        for name, gen in generator_catalog().items():
            _, nodes, weight = calibration_inputs(name, LogNormal(0.0, 0.25), kind)
            lam, div, _, curve = calibrate_lambda(gen, QuantileGrid(nodes), weight, 0.02)
            assert curve.tobytes() == perturbed_nodes(gen, nodes, weight, lam).tobytes()
            assert repr(div) == repr(bw_divergence_nodes(gen, curve, nodes))

    def test_tiny_budget_returns_the_best_probe(self, monkeypatch):
        # at eps = 1e-12 the divergence is at the level of float noise, and
        # the last bracket of the search need not hold the closest probe:
        # here an earlier probe is about 30 times closer than its ends
        eps = 1e-12
        grid = quantile_grid(Uniform(0.0, 1.0), CALIBRATION_M, 1e-7)
        weight = dual_power(2.0).gamma(grid.rule.u)
        gen = quadratic()
        probes = recorded_probes(monkeypatch)
        lam, div, _, _ = calibrate_lambda(gen, grid, weight, eps)
        monkeypatch.undo()
        gaps = [abs(reference_divergence(gen, grid.nodes, weight, x) - eps) for x in probes]
        assert lam in probes
        assert abs(div - eps) == min(gaps)

    @pytest.mark.parametrize("kind", ["worst-case", "payoff"])
    def test_solvers_perturb_only_inside_the_calibration(self, kind, monkeypatch):
        import sys

        calibration = calibrate_lambda.__code__
        outside = []
        original = perturbed_nodes

        def checked(*args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not calibration:
                frame = frame.f_back
            if frame is None:
                outside.append(args[3])
            return original(*args, **kwargs)

        monkeypatch.setattr("mkdiv.robust.perturbed_nodes", checked)
        # a module importing the helper by name would bypass the wrapper
        monkeypatch.setattr("mkdiv.payoff.perturbed_nodes", checked, raising=False)
        if kind == "worst-case":
            solve_worst_case(quadratic(), dual_power(2.0), Uniform(0, 1), 0.03, m=2000)
        else:
            cheapest_payoff(quadratic(), Uniform(0, 1), MarketSpec(Uniform(0.0, 1.0)),
                            0.02, m=2000)
        assert outside == []

    @pytest.mark.parametrize(
        "spd, bench, expected",
        [
            # phi' = e^x leaves (0, inf) below lam*: the divergence jumps
            # from finite to infinite on the boundary, short of the budget
            (Exponential(1.0), Uniform(0.5, 1.5), (6.427023177809351, math.inf)),
            (LogNormal(-0.1, 0.3), Normal(0.0, 1.0), (176.32256538551508, math.inf)),
            (Exponential(1.0), Uniform(0.0, 1.0), (10.596369820537179, 0.011701139762386844)),
        ],
    )
    def test_feasibility_boundary_outcome_unchanged(self, spd, bench, expected):
        # the multiplier is the reference bisection's to its stopping width;
        # the divergence is that of the feasible bracket end, never inf
        m = 20_000
        nodes = quantile_grid(bench, m, 1e-7).nodes
        weight = MarketSpec(spd).neg_weight(midpoint_rule(m, 1e-7).u)
        gen = exponential_generator()
        lam, div, binding, curve = calibrate_lambda(gen, QuantileGrid(nodes), weight, 0.02)
        assert lam == pytest.approx(expected[0], rel=1e-13)
        assert math.isfinite(div) and div < 0.02
        assert curve.tobytes() == perturbed_nodes(gen, nodes, weight, lam).tobytes()
        assert repr(div) == repr(bw_divergence_nodes(gen, curve, nodes))
        assert not binding
        assert bisection_calibrate(gen, nodes, weight, 0.02) == expected

    @pytest.mark.parametrize("eps", [0.02, 0.3])
    @pytest.mark.parametrize(
        "bench", [Uniform(0.5, 1.5), Exponential(1.0), LogNormal(0.0, 0.5), Uniform(0.0, 1.0)]
    )
    @pytest.mark.parametrize("name", ["exp", "xlogx"])
    def test_one_search_matches_two_phase_search(self, name, bench, eps, monkeypatch):
        # for exp, lam* lies on the feasibility boundary: the Newton start is
        # infeasible, and the bracket closes on the boundary to the two-phase
        # search's stopping width; for xlogx, Newton steps from the
        # small-budget multiplier meet the residual stop in fewer evaluations
        m = 20_000
        nodes = quantile_grid(bench, m, 1e-7).nodes
        weight = MarketSpec(Exponential(1.0)).neg_weight(midpoint_rule(m, 1e-7).u)
        gen = generator_catalog()[name]
        expected, evals = two_phase_calibrate(gen, nodes, weight, eps)
        calls = recorded_probes(monkeypatch)
        lam, div, binding, curve = calibrate_lambda(gen, QuantileGrid(nodes), weight, eps)
        assert len(set(calls)) == len(calls)
        if name == "exp":
            # the feasible end's divergence changes in its third digit within
            # 1e-14 of lam, so it is compared with the multiplier's own, not
            # with the two-phase search's
            assert lam == pytest.approx(expected[0], rel=1e-13)
            assert math.isfinite(div) and div < eps
            assert curve.tobytes() == perturbed_nodes(gen, nodes, weight, lam).tobytes()
            assert repr(div) == repr(bw_divergence_nodes(gen, curve, nodes))
            assert not binding and not expected[2]
            assert evals == 52 and len(calls) <= 53
            with pytest.raises(InfeasibleLambdaError):
                perturbed_nodes(gen, nodes, weight, calls[0])
        else:
            assert lam == pytest.approx(expected[0], rel=5e-14)
            assert abs(math.log(div) - math.log(eps)) <= 1e-13
            assert binding and len(calls) < evals

    @pytest.mark.parametrize("eps", [0.02, 0.3])
    @pytest.mark.parametrize("d", [dual_power(2.0), tvar_distortion(0.9)], ids=["dualpower", "tvar"])
    def test_vanishing_curvature_at_a_node_still_takes_newton_steps(self, d, eps, monkeypatch):
        # quartic phi'' = 12 x^2 vanishes at the middle node of Normal(0, 1)
        # at odd m; the dual-power weight is 1 there, so I(ref) is infinite
        # and the search starts at lam = 1, while the TVaR weight is 0 there,
        # which adds 0 to I(ref), so the search starts at lam0
        grid = quantile_grid(Normal(0.0, 1.0), 2001)
        assert grid.nodes[1000] == 0.0
        weight = d.gamma(grid.rule.u)
        gen = generator_catalog()["quartic"]
        expected, _ = bisection_calibrate(gen, grid.nodes, weight, eps)
        calls = recorded_probes(monkeypatch)
        lam, div, binding, _ = calibrate_lambda(gen, grid, weight, eps)
        assert (calls[0] == 1.0) == (weight[1000] != 0.0)
        assert lam == pytest.approx(expected, rel=1e-12)
        assert binding and abs(math.log(div) - math.log(eps)) <= 1e-13
        assert len(calls) <= 7

    def test_infeasible_start_steps_up_a_decade_then_bisects(self, monkeypatch):
        # on the feasibility boundary lam0 is infeasible, so it is the lower
        # end of a bracket with no upper end yet: the next probe is a decade
        # up; once both ends are known, a probe Newton cannot place inside
        # the bracket is its midpoint in log lam
        m = 20_000
        nodes = quantile_grid(Uniform(0.5, 1.5), m).nodes
        weight = MarketSpec(Exponential(1.0)).neg_weight(midpoint_rule(m).u)
        gen = exponential_generator()
        calls = recorded_probes(monkeypatch)
        calibrate_lambda(gen, QuantileGrid(nodes), weight, 0.02)
        assert reference_divergence(gen, nodes, weight, calls[0]) == math.inf
        assert calls[1] == 10.0 * calls[0]
        midpoints = [
            x for k, x in enumerate(calls)
            if any(x == math.exp(0.5 * (math.log(a) + math.log(b)))
                   for a in calls[:k] for b in calls[:k] if a < b)
        ]
        assert midpoints

    @pytest.mark.parametrize(
        "scale, eps, end",
        [
            (1.0, 1e30, 1e-12),  # D(1e-12) is below the budget
            (1e15, 1.0, 1e12),  # D(1e12) still exceeds it
        ],
    )
    def test_unreachable_budget_raises_past_the_range_end(self, scale, eps, end, monkeypatch):
        grid = quantile_grid(Uniform(0.0, 1.0), 100)
        weight = scale * dual_power(2.0).gamma(grid.rule.u)
        calls = recorded_probes(monkeypatch)
        message = r"no multiplier in \[1e-12, 1e\+12\] meets the divergence budget"
        with pytest.raises(CalibrationError, match=message) as info:
            calibrate_lambda(quadratic(), grid, weight, eps)
        assert calls[-1] == end
        divs = [reference_divergence(quadratic(), grid.nodes, weight, x) for x in calls]
        assert info.value.achieved_range == (min(divs), max(divs))
        assert all(math.isfinite(x) for x in info.value.achieved_range)

    def test_newton_sweep_meets_the_residual_stop(self, monkeypatch):
        # every binding case stops on |log div - log eps| <= 1e-13 with lam
        # within 5e-14 of the two-phase search's, in fewer evaluations overall
        calls = recorded_probes(monkeypatch)
        binding, newton_evals, two_phase_evals = 0, 0, 0
        for ref in (Uniform(0.5, 1.5), Exponential(1.0), LogNormal(0.0, 0.5)):
            grid = quantile_grid(ref, CALIBRATION_M, 1e-7)
            weights = (
                dual_power(2.0).gamma(grid.rule.u),
                tvar_distortion(0.9).gamma(grid.rule.u),
                MarketSpec(Exponential(1.0)).neg_weight(grid.rule.u),
            )
            for gen in generator_catalog().values():
                for weight in weights:
                    for eps in (0.02, 0.3):
                        (lam_ref, _, bind_ref), evals = two_phase_calibrate(
                            gen, grid.nodes, weight, eps
                        )
                        calls.clear()
                        lam, div, bind, _ = calibrate_lambda(gen, grid, weight, eps)
                        assert len(set(calls)) == len(calls)
                        if not bind_ref:  # exp on the feasibility boundary
                            continue
                        assert bind
                        assert lam == pytest.approx(lam_ref, rel=5e-14)
                        assert abs(math.log(div) - math.log(eps)) <= 1e-13
                        binding += 1
                        newton_evals += len(calls)
                        two_phase_evals += evals
        assert binding == 69  # all but three exp/payoff boundary cases
        assert newton_evals < two_phase_evals

    @pytest.mark.parametrize("kind", ["worst-case", "payoff"])
    def test_analytic_reductions_calibrate_in_one_evaluation(self, kind, monkeypatch):
        # for the quadratic generator the small-budget multiplier is exact
        calls = recorded_probes(monkeypatch)
        if kind == "worst-case":
            sol = solve_worst_case(quadratic(), dual_power(2.0), Uniform(0, 1), 0.03)
            assert sol.lambda_star == pytest.approx(10.0 / 3.0, abs=1e-6)
        else:
            sol = cheapest_payoff(quadratic(), Uniform(0, 1), MarketSpec(Uniform(0.0, 1.0)),
                                  1.0 / 48.0)
            assert sol.lambda_star == pytest.approx(2.0, abs=1e-6)
        assert len(calls) == 1 and sol.binding

    def test_binding_is_relative_to_the_budget(self):
        # binding is |D - eps| <= 1e-8 * eps: the boundary case above stops at
        # divergence 0.0117, short of eps = 0.02, while eps = 0.01 lies inside
        # the feasible range and is met
        m = 20_000
        grid = QuantileGrid(quantile_grid(Uniform(0.0, 1.0), m, 1e-7).nodes)
        weight = MarketSpec(Exponential(1.0)).neg_weight(midpoint_rule(m, 1e-7).u)
        gen = exponential_generator()
        _, div, binding, _ = calibrate_lambda(gen, grid, weight, 0.02)
        assert div == pytest.approx(0.0117, abs=1e-4) and not binding
        _, div, binding, _ = calibrate_lambda(gen, grid, weight, 0.01)
        assert binding and abs(div - 0.01) <= 1e-8 * 0.01

    def test_tiny_budget_binds_relative_to_itself(self):
        sol = solve_worst_case(quadratic(), dual_power(2.0), Uniform(0, 1), 1e-12)
        assert sol.binding
        assert abs(sol.divergence_at_solution - 1e-12) <= 1e-8 * 1e-12

    def test_solves_leave_no_reference_cycles(self):
        gc.collect()
        gc.disable()
        try:
            solve_worst_case(entropy_generator(), dual_power(2.0), LogNormal(0, 0.3), 0.01, m=2000)
            cheapest_payoff(
                exponential_generator(), Uniform(0.5, 1.5), MarketSpec(Uniform(0.0, 1.0)),
                0.02, m=2000,
            )
            assert gc.collect() == 0
        finally:
            gc.enable()


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(generator_catalog())),
    lo=st.floats(0.1, 2.0),
    width=st.floats(0.1, 2.0),
    lam=st.floats(0.05, 50.0),
    ratio=st.floats(1.01, 100.0),
)
def test_divergence_strictly_decreases_in_lambda(name, lo, width, lam, ratio):
    gen = generator_catalog()[name]
    grid = quantile_grid(Uniform(lo, lo + width), m=200)
    weight = dual_power(2.0).gamma(grid.rule.u)
    divs = [
        bw_divergence_nodes(gen, perturbed_nodes(gen, grid.nodes, weight, x), grid.nodes)
        for x in (lam, lam * ratio)
    ]
    assert divs[0] > divs[1] > 0.0


BLOCK_EDGE_M = [2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 250_000]
BLOCK_EDGE_WEIGHTS = {
    "dualpower": dual_power(2.0).gamma,
    "tvar": tvar_distortion(0.9).gamma,  # zero below u = 0.9
    "payoff": MarketSpec(Uniform(0.0, 1.0)).neg_weight,  # negative
}


def whole_array_integral(gen, nodes, weight):
    """I(G): the rule over the whole array of the terms weight^2 / phi''(G)."""
    terms = np.divide(weight, gen.d2phi(nodes), out=np.zeros(weight.shape), where=weight != 0.0)
    return pairwise_sum(terms * weight) / nodes.size


def sqrt_derivative_generator():
    """phi(x) = (2/3) x^1.5 on (0, 1), so phi' = sqrt(x) ranges over (0, 1);
    its inverse y * y underflows to 0.0, outside the domain, for y below
    about 1.5e-162."""
    return ConvexGenerator(
        name="x^1.5",
        phi=lambda x: (2.0 / 3.0) * x * np.sqrt(x),
        dphi=np.sqrt,
        d2phi=lambda x: 0.5 / np.sqrt(x),
        inv_dphi_fn=lambda y: y * y,
        domain=(0.0, 1.0),
        dphi_range=(0.0, 1.0),
    )


class TestBlockedProbes:
    """A probe works through the grid in blocks of _BLOCK nodes; its curve,
    D and I(G) are those of the whole arrays, bit for bit."""

    @pytest.mark.parametrize("weight_of", sorted(BLOCK_EDGE_WEIGHTS))
    @pytest.mark.parametrize("m", BLOCK_EDGE_M)
    def test_probes_are_the_whole_array_folds(self, m, weight_of):
        grid = quantile_grid(Uniform(0.5, 1.5), m, 0.0)
        ref, weight = grid.nodes, BLOCK_EDGE_WEIGHTS[weight_of](grid.rule.u)
        for gen in generator_catalog().values():
            probe = _Probes(gen, ref, weight)
            assert repr(probe.ref_integral) == repr(whole_array_integral(gen, ref, weight))
            for lam in (1.0, 4.0, 30.0):
                div, integral, curve = probe(lam)
                formula = np.asarray(gen.inv_dphi_fn(gen.dphi(ref) + weight / lam), dtype=float)
                assert curve.tobytes() == formula.tobytes()
                terms = gen.phi(curve) - gen.phi(ref) - gen.dphi(ref) * (curve - ref)
                assert repr(div) == repr(pairwise_sum(terms) / m)
                assert repr(div) == repr(bw_divergence_nodes(gen, curve, ref))
                assert repr(integral) == repr(whole_array_integral(gen, curve, weight))
            if weight.any():  # TVaR weighs neither node of the 2-node grid
                lam, div, _, curve = calibrate_lambda(gen, grid, weight, 0.02)
                assert curve.tobytes() == perturbed_nodes(gen, ref, weight, lam).tobytes()
                assert repr(div) == repr(bw_divergence_nodes(gen, curve, ref))

    @pytest.mark.parametrize(
        "domain_at, range_at, node",
        [
            (5, None, 5),
            (_BLOCK + 3, None, _BLOCK + 3),
            (5, 9, 9),
            (_BLOCK + 3, 5, 5),
            # the range failure lies in a later block than the domain failure
            (5, _BLOCK + 7, _BLOCK + 7),
            (5, 2 * _BLOCK, 2 * _BLOCK),
        ],
    )
    def test_a_range_failure_is_reported_before_any_domain_failure(
        self, domain_at, range_at, node
    ):
        gen = sqrt_derivative_generator()
        ref, weight = np.full(2 * _BLOCK + 1, 0.25), np.zeros(2 * _BLOCK + 1)
        # phi'(1e-300) = 1e-150; minus the float below it leaves its last
        # unit, about 1e-166, inside the range, and its square underflows
        ref[domain_at] = 1e-300
        weight[domain_at] = -np.nextafter(math.sqrt(1e-300), 0.0)
        if range_at is not None:
            weight[range_at] = 0.6  # phi'(0.25) + 0.6 = 1.1 leaves (0, 1)
        problem = "derivative leaves the range of phi'" if range_at is not None else (
            "node leaves the domain (0.0, 1.0) of phi"
        )
        with pytest.raises(InfeasibleLambdaError) as info:
            perturbed_nodes(gen, ref, weight, 1.0)
        assert info.value.node == node
        assert str(info.value) == (
            f"perturbed {problem} for generator 'x^1.5' at node {node} (lambda=1.0)"
        )

    def test_a_divergence_that_overflows_is_an_infinitely_far_curve(self):
        # at the far node G^4 overflows while phi'(G) = 4 G^3 stays finite:
        # the curve exists, but its divergence does not
        gen, ref, weight = quartic(), np.array([1.0, 2.0, 1.1e77]), np.array([0.0, 0.0, 1e220])
        with np.errstate(over="ignore"):
            assert np.all(np.isfinite(perturbed_nodes(gen, ref, weight, 1e-11)))
        div, integral, curve = _Probes(gen, ref, weight)(1e-11)
        assert div == math.inf and math.isnan(integral) and curve is None
        # a budget whose search probes such multipliers still ends on a
        # finite best probe
        lam, div, binding, curve = calibrate_lambda(gen, QuantileGrid(nodes=ref), weight, 1e306)
        assert lam > 1e-11 and math.isfinite(div) and div < 1e306 and not binding
        assert np.all(np.isfinite(curve))

    @pytest.mark.parametrize("eps", [1e-3, 1.0, 1e200])
    def test_a_jump_past_the_budget_raises(self, eps):
        # at large lam the far node's G - Q falls below the ulp of Q, so D
        # drops from about 1e290 straight to 0: the bracket closes on that
        # jump, and no probe comes near the budget
        gen, ref, weight = quartic(), np.array([1.0, 2.0, 1.1e77]), np.array([0.0, 0.0, 1e220])
        message = re.escape(f"the divergence jumps past the budget {eps} near lambda=")
        with pytest.raises(CalibrationError, match=message) as info:
            calibrate_lambda(gen, QuantileGrid(nodes=ref), weight, eps)
        low, high = info.value.achieved_range
        assert low <= high and high > 1e290

    @pytest.mark.parametrize("name", sorted(generator_catalog()))
    def test_every_block_is_folded_by_pairwise_sum(self, name, monkeypatch):
        # I(ref) once, then D and I(G) on every probe whose curve exists,
        # each over the whole grid, block by block
        import mkdiv.numerics

        m = 3 * _BLOCK + 1
        grid = quantile_grid(Uniform(0.5, 1.5), m, 0.0)
        weight = dual_power(2.0).gamma(grid.rule.u)
        folded, curves = [], []
        original_sum, original_nodes = mkdiv.numerics.pairwise_sum, perturbed_nodes

        def counted_sum(values, axis=None):
            folded.append(np.size(values))
            return original_sum(values, axis)

        def counted_nodes(*args):
            curves.append(original_nodes(*args))
            return curves[-1]

        monkeypatch.setattr(mkdiv.numerics, "pairwise_sum", counted_sum)
        monkeypatch.setattr("mkdiv.robust.perturbed_nodes", counted_nodes)
        calibrate_lambda(generator_catalog()[name], grid, weight, 0.02)
        assert curves and all(size <= _BLOCK for size in folded)
        assert sum(folded) == (1 + 2 * len(curves)) * m

    @pytest.mark.parametrize("m", [_BLOCK + 1, 250_000])
    def test_the_quadratic_probe_folds_the_terms_of_its_reference(self, m):
        # phi'' is 2 everywhere, so I(G) has the terms of I(ref), and the
        # same fold gives the same bits at every multiplier
        grid = quantile_grid(Uniform(0.5, 1.5), m, 0.0)
        probe = _Probes(quadratic(), grid.nodes, dual_power(2.0).gamma(grid.rule.u))
        for lam in (0.3, 1.0, 30.0):
            assert repr(probe(lam)[1]) == repr(probe.ref_integral)

    @pytest.mark.parametrize("name", sorted(generator_catalog()))
    def test_calibration_holds_four_grids_and_a_few_blocks(self, name):
        import tracemalloc

        m = 1 << 18
        grid = quantile_grid(Uniform(0.5, 1.5), m, 0.0)
        weight = dual_power(2.0).gamma(grid.rule.u)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            calibrate_lambda(generator_catalog()[name], grid, weight, 0.02)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # phi(ref), phi'(ref), the best curve and the probe's own; the
        # whole-array probes held 6 (quadratic) or 7 such arrays
        assert peak <= 8 * (4 * m + 6 * _BLOCK)


class _nullcontext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False
