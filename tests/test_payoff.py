import math
import warnings

import numpy as np
import pytest

from mkdiv import (
    DomainError,
    Exponential,
    LogNormal,
    MarketSpec,
    Normal,
    PointMass,
    Uniform,
    UniquenessWarning,
    cheapest_payoff,
    generator_catalog,
    payoff_cost,
    quadratic,
    quantile_grid,
)
from mkdiv.distributions import QuantileGrid
from mkdiv.numerics import midpoint_rule, pairwise_mean
from mkdiv.robust import perturbed_nodes
from test_robust import IDENTITY_CASES, bw_divergence_nodes, same_bits


def unit_market():
    return MarketSpec(Uniform(0.0, 1.0), rate=0.0, horizon=1.0)


class TestMarketSpec:
    def test_rejects_negative_support(self):
        with pytest.raises(DomainError):
            MarketSpec(Normal(0.0, 1.0))

    def test_horizon_positive(self):
        with pytest.raises(DomainError):
            MarketSpec(Uniform(0, 1), horizon=0.0)


class TestPayoffCost:
    def test_uniform_identity_curve(self):
        # int (1-u) u du = 1/6
        g = quantile_grid(Uniform(0, 1), m=10_000, delta=0.0)
        assert payoff_cost(unit_market(), g) == pytest.approx(1.0 / 6.0, abs=1e-6)

    def test_constant_payoff_prices_at_mean(self):
        c = 2.5
        g = QuantileGrid(nodes=np.full(1000, c))
        market = MarketSpec(LogNormal(0.0, 0.2))
        assert payoff_cost(market, g) == pytest.approx(
            c * market.spd.mean(), abs=1e-4
        )

    def test_deterministic_discounting(self):
        df = np.exp(-0.03)
        market = MarketSpec(PointMass(df), rate=0.03, horizon=1.0)
        g = quantile_grid(Uniform(1.0, 2.0), m=2_000, delta=0.0)
        assert payoff_cost(market, g) == pytest.approx(df * pairwise_mean(g.nodes), abs=1e-12)

    def test_non_finite_price_names_the_node(self):
        g = quantile_grid(Uniform(0, 1), m=10_000, delta=0.0)
        with pytest.raises(
            DomainError, match=r"^state-price density 'lognormal' has a non-finite weight -inf at node 0 "
        ) as exc, np.errstate(over="ignore"):
            payoff_cost(MarketSpec(LogNormal(706.0, 1.0)), g)
        assert exc.value.index == 0


class TestCheapestPayoff:
    def test_an_infinite_budget_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^calibration needs a finite eps, got eps=inf$"):
            cheapest_payoff(quadratic(), Uniform(0, 1), unit_market(), math.inf)

    def test_analytic_reduction(self):
        # bench = U(0,1), xi = U(0,1), eps = 1/48: G(u) = u - (1-u)/(2 lam),
        # divergence = 1/(12 lam^2), cost = 1/6 - 1/(6 lam)
        sol = cheapest_payoff(quadratic(), Uniform(0, 1), unit_market(), 1.0 / 48.0)
        assert sol.lambda_star == pytest.approx(2.0, abs=1e-6)
        assert sol.cost == pytest.approx(1.0 / 12.0, abs=1e-5)
        assert sol.nonneg_violation
        assert sol.binding

    def test_zero_radius_gives_dybvig_baseline(self):
        sol = cheapest_payoff(quadratic(), Uniform(0, 1), unit_market(), 1e-10)
        baseline = payoff_cost(unit_market(), quantile_grid(Uniform(0, 1)))
        assert sol.cost == pytest.approx(baseline, abs=1e-4)
        assert baseline == pytest.approx(1.0 / 6.0, abs=1e-6)

    def test_point_mass_benchmark_cuts_cost(self):
        c = 2.0
        market = unit_market()
        sol = cheapest_payoff(quadratic(), PointMass(c), market, 0.01)
        full_price = c * market.spd.mean()
        assert sol.cost < full_price
        # closed form: G(u) = c - Q_xi(1-u) / (2 lam)
        u = sol.payoff_quantile.rule.u
        manual = c - market.spd.quantile(1.0 - u) / (2.0 * sol.lambda_star)
        assert np.max(np.abs(sol.payoff_quantile.nodes - manual)) <= 1e-12

    def test_cost_dominance_and_monotonicity(self):
        market = unit_market()
        bench = Uniform(0.2, 1.4)
        baseline = payoff_cost(market, quantile_grid(bench))
        costs = []
        for eps in (0.002, 0.004, 0.008, 0.016):
            sol = cheapest_payoff(quadratic(), bench, market, eps)
            assert sol.cost <= baseline + 1e-12
            assert abs(sol.divergence_at_solution - eps) <= 1e-8
            costs.append(sol.cost)
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_structural_identity_with_worst_case_engine(self):
        # the payoff curve is the worst-case formula with the signed weight
        # gamma(u) = -Q_xi(1-u); both must agree nodewise exactly
        market = unit_market()
        bench = Normal(1.0, 0.5)
        eps = 0.01
        sol = cheapest_payoff(quadratic(), bench, market, eps)
        m = sol.payoff_quantile.m
        grid = quantile_grid(bench, m)
        weight = -market.spd.quantile(1.0 - midpoint_rule(m).u)
        manual = perturbed_nodes(quadratic(), grid.nodes, weight, sol.lambda_star)
        assert np.max(np.abs(manual - sol.payoff_quantile.nodes)) <= 1e-12

    def test_exponential_generator_skips_infeasible_multipliers(self):
        # small multipliers push the derivative argument non-positive for
        # phi = e^x; the calibration must treat them as out of budget and
        # still land on a binding solution
        from mkdiv import exponential_generator

        market = MarketSpec(Uniform(0.5, 1.5), rate=0.0, horizon=1.0)
        bench = Normal(1.0, 0.3)
        sol = cheapest_payoff(exponential_generator(), bench, market, 0.002)
        assert sol.binding
        assert sol.cost < payoff_cost(market, quantile_grid(bench))

    def test_entropy_generator_skips_underflowing_multipliers(self):
        # with a negative weight exp(y - 1) underflows to 0.0 at small
        # multipliers, outside the xlogx domain (0, inf); the calibration
        # must treat those multipliers as infeasible and still bind
        from mkdiv import entropy_generator

        sol = cheapest_payoff(entropy_generator(), Uniform(0.5, 1.5), unit_market(), 0.02, m=2000)
        assert sol.binding
        assert sol.lambda_star == pytest.approx(2.2602, abs=1e-4)
        assert abs(sol.divergence_at_solution - 0.02) <= 1e-12

    def test_feasibility_boundary_returns_the_feasible_end(self):
        # phi' = e^x bounds the multiplier from below; the calibration stops
        # on that boundary short of the budget, at a multiplier it can price
        from mkdiv import Exponential, exponential_generator

        gen, bench, market = exponential_generator(), Uniform(0.5, 1.5), MarketSpec(Exponential(1.0))
        sol = cheapest_payoff(gen, bench, market, 0.02, m=20_000)
        assert sol.lambda_star == pytest.approx(6.427023177809457, rel=1e-13)
        # the feasible end's divergence moves in its third digit within 1e-14
        # of the multiplier, so it is checked against the multiplier's own
        nodes = quantile_grid(bench, 20_000).nodes
        curve = perturbed_nodes(gen, nodes, market.neg_weight(midpoint_rule(20_000).u), sol.lambda_star)
        assert curve.tobytes() == sol.payoff_quantile.nodes.tobytes()
        div = sol.divergence_at_solution
        assert math.isfinite(div) and div < 0.02
        assert repr(div) == repr(bw_divergence_nodes(gen, curve, nodes))
        assert not sol.binding

    def test_lognormal_density_end_to_end(self):
        market = MarketSpec(LogNormal(-0.1, 0.3), rate=0.02, horizon=1.0)
        bench = Normal(1.0, 0.4)
        costs = []
        for eps in (0.001, 0.004, 0.016):
            sol = cheapest_payoff(quadratic(), bench, market, eps)
            assert sol.binding
            assert np.all(np.diff(sol.payoff_quantile.nodes) >= 0.0)
            costs.append(sol.cost)
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_curve_monotone_and_cost_consistent(self):
        sol = cheapest_payoff(quadratic(), Uniform(0, 1), unit_market(), 0.01)
        nodes = sol.payoff_quantile.nodes
        assert np.all(np.diff(nodes) >= 0.0)
        assert sol.cost == pytest.approx(
            payoff_cost(unit_market(), sol.payoff_quantile), abs=1e-12
        )


def test_a_generator_not_strictly_convex_warns_the_caller():
    # the optimum (phi')^-1(phi'(Q) - Q_xi(1 - u) / lam) is no more unique
    # than the worst case's, so it warns as solve_worst_case does
    import dataclasses
    import warnings

    flat = dataclasses.replace(quadratic(), name="flat", strictly_convex=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cheapest_payoff(flat, Uniform(0.0, 1.0), MarketSpec(spd=Uniform(0.0, 1.0)), 0.02, m=100)
    assert [(w.category, str(w.message), w.filename) for w in caught] == [
        (UniquenessWarning, "generator 'flat' is not strictly convex; the solution may not be unique",
         __file__)
    ]


class TestPayoffCostIdentity:
    @pytest.mark.parametrize("name", sorted(generator_catalog()))
    @pytest.mark.parametrize(
        "spd", [Exponential(1.0), LogNormal(-0.1, 0.2), Uniform(0.0, 1.5)], ids=lambda d: d.kind
    )
    def test_cost_is_the_payoff_cost_of_the_payoff_quantile(self, name, spd):
        gen, market = generator_catalog()[name], MarketSpec(spd)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UniquenessWarning)
            for benchmark, eps, m in IDENTITY_CASES:
                sol = cheapest_payoff(gen, benchmark, market, eps, m=m)
                cost = payoff_cost(market, sol.payoff_quantile)
                assert same_bits(sol.cost, cost), (benchmark, eps, m)
