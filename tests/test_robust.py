import numpy as np
import pytest

from mkdiv import (
    CalibrationError,
    Exponential,
    LogNormal,
    Normal,
    Uniform,
    choquet,
    dual_power,
    entropy_generator,
    exponential_generator,
    identity_distortion,
    quadratic,
    quantile_grid,
    solve_worst_case,
    tvar_distortion,
    worst_case_quantile,
)
from mkdiv.numerics import midpoint_u, pairwise_mean
from mkdiv.robust import UniquenessWarning, bw_divergence_nodes, perturbed_nodes


class TestChoquet:
    def test_non_finite_weight_truncated_with_warning(self):
        import warnings

        from mkdiv.generators import DistortionSpec
        from mkdiv.robust import TruncationWarning

        weird = DistortionSpec(
            name="weird",
            gamma_fn=lambda u: np.where(u > 0.9, np.inf, 1.0),
            g_fn=lambda x: x,
            strictly_concave=False,
        )
        g = quantile_grid(Uniform(0, 1), m=100, delta=0.0)
        with pytest.warns(TruncationWarning):
            val = choquet(weird, g)
        assert np.isfinite(val)
        assert val == pytest.approx(0.405, abs=1e-12)  # mean of the kept 90%

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


class TestPerturbedCurve:
    def test_quadratic_dual_power_closed_form(self):
        # (2u + 2u * (3/10)) / 2 = 1.3 u nodewise
        g = worst_case_quantile(
            quadratic(), dual_power(2.0), Uniform(0, 1), 10.0 / 3.0, m=500, delta=0.0
        )
        assert np.max(np.abs(g.nodes - 1.3 * g.u)) <= 1e-12

    def test_large_multiplier_recovers_reference(self):
        ref = Normal(0.2, 1.1)
        base = quantile_grid(ref, m=200)
        g = worst_case_quantile(quadratic(), dual_power(2.0), ref, 1e12, m=200)
        assert np.max(np.abs(g.nodes - base.nodes)) <= 1e-9

    def test_curve_is_nondecreasing(self):
        for d in (dual_power(3.0), tvar_distortion(0.8)):
            g = worst_case_quantile(quadratic(), d, Normal(0, 1), 0.7, m=300)
            assert np.all(np.diff(g.nodes) >= 0.0)

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
        u = midpoint_u(10_000, 1e-7)
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
        gamma = dual_power(2.0).gamma(grid.u)
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
        manual = g.nodes * np.exp(dual_power(2.0).gamma(g.u) / sol.lambda_star)
        assert np.max(np.abs(manual - sol.worst_quantile.nodes)) <= 1e-12 * np.max(manual)

    def test_exponential_generator_solves(self):
        sol = solve_worst_case(exponential_generator(), dual_power(2.0), Normal(0, 1), 0.005)
        assert sol.binding
        assert np.all(np.diff(sol.worst_quantile.nodes) >= 0.0)

    def test_tvar_warns_but_solves(self):
        with pytest.warns(UniquenessWarning):
            sol = solve_worst_case(quadratic(), tvar_distortion(0.9), Uniform(0, 1), 0.01)
        assert sol.binding

    def test_unreachable_budget_reports_range(self):
        # a bounded perturbation cannot reach the requested divergence when
        # the bracket bottoms out; force it with an absurd budget and a
        # reference/generator pair whose divergence stays tiny
        with pytest.raises(CalibrationError):
            solve_worst_case(
                quadratic(), dual_power(2.0), Uniform(0, 1), 1e30, m=100
            )


class _nullcontext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False
