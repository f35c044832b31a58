"""Cheapest payoffs whose distribution stays near a benchmark.

A payoff is represented by its quantile curve ``G`` on the midpoint u-grid.
Among all payoffs with a given distribution the cheapest one is
anti-monotone in the state-price density ``xi``, and its cost is

    cost(G) = integral over u of  Q_xi(1 - u) * G(u),

which :func:`payoff_cost` evaluates for any curve.  Minimising this cost
subject to the payoff's distribution lying within Bregman-Wasserstein
distance ``eps`` of a benchmark is the same calibration problem as the
worst-case distortion bound with the signed, increasing weight
``-Q_xi(1 - u)``; the solver therefore runs the solve path of
:mod:`mkdiv.robust`, whose calibrated curve

    G_lam(u) = (phi')^{-1}( phi'(Q_bench(u)) - Q_xi(1 - u) / lam )

it prices inline, with the same weight array it was calibrated with, not
through :func:`payoff_cost`.

The optimal curve may go negative even though payoffs are meant to be
non-negative; the solver flags this (``nonneg_violation``) instead of
projecting, so the reported optimum is exactly the formula's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, QuantileGrid
from .errors import DomainError
from .generators import ConvexGenerator
from .numerics import _DEFAULT_DELTA, _DEFAULT_M, _check_finite
from .robust import _calibrated_curve, _checked_weight

__all__ = ["MarketSpec", "PayoffSolution", "payoff_cost", "cheapest_payoff"]


@dataclass(frozen=True, eq=False)
class MarketSpec:
    """State-price density with a flat rate and horizon.

    ``spd`` must be supported on [0, inf) with a finite mean.  Prices read
    only ``spd``: ``rate`` and ``horizon`` are checked, parsed from a market
    spec's ``r`` and ``T`` and rendered, but enter no price, so discounting
    belongs in ``spd`` itself.
    """

    spd: Distribution
    rate: float = 0.0
    horizon: float = 1.0

    def __post_init__(self):
        _check_finite("market", rate=self.rate, horizon=self.horizon)
        if not self.horizon > 0.0:
            raise DomainError(f"horizon must be positive, got {self.horizon}")
        lo, _ = self.spd.support
        if lo < 0.0:
            raise DomainError(
                f"state-price density must be supported on [0, inf), "
                f"got lower bound {lo}"
            )
        if not np.isfinite(self.spd.mean()):
            raise DomainError("state-price density must have a finite mean")

    def neg_weight(self, u: np.ndarray) -> np.ndarray:
        """The signed weight -Q_xi(1 - u); negative but increasing in u."""
        return -np.asarray(self.spd.quantile(1.0 - u), dtype=float)


def _spd_name(market: MarketSpec) -> str:
    return f"state-price density '{market.spd.kind}'"


def payoff_cost(market: MarketSpec, grid: QuantileGrid) -> float:
    """Price of the cost-efficient payoff with quantile curve ``grid``: the
    grid's rule integrates Q_xi(1 - u) * node.  A non-finite Q_xi(1 - u_i)
    raises DomainError naming node i."""
    spd_rev = -_checked_weight(_spd_name(market), market.neg_weight, grid.rule.u)
    return grid.rule.integrate(spd_rev * grid.nodes)


@dataclass(frozen=True, eq=False)
class PayoffSolution:
    """Calibrated cheapest payoff: multiplier, quantile curve, cost."""

    lambda_star: float
    payoff_quantile: QuantileGrid
    cost: float
    divergence_at_solution: float
    binding: bool
    nonneg_violation: bool


def cheapest_payoff(
    gen: ConvexGenerator,
    benchmark: Distribution,
    market: MarketSpec,
    eps: float,
    m: int = _DEFAULT_M,
    delta: float = _DEFAULT_DELTA,
) -> PayoffSolution:
    """Cheapest payoff whose distribution stays within divergence ``eps`` of
    the benchmark; the multiplier is calibrated exactly as in the worst-case
    solver, with the signed spd weight.  ``binding`` reports
    ``|divergence_at_solution - eps| <= 1e-8 * eps``."""
    lam, div, binding, weight, curve = _calibrated_curve(
        gen, benchmark, _spd_name(market), market.neg_weight, eps, m, delta
    )
    return PayoffSolution(
        lambda_star=lam,
        payoff_quantile=curve,
        cost=curve.rule.integrate(-weight * curve.nodes),  # -weight is Q_xi(1 - u)
        divergence_at_solution=div,
        binding=binding,
        nonneg_violation=bool(np.any(curve.nodes < 0.0)),
    )
