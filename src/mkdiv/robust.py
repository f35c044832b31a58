"""Worst-case distortion risk measures over Bregman-Wasserstein balls.

Given a convex generator ``phi``, a concave distortion with weight ``gamma``,
a reference distribution and a budget ``eps``, the worst attainable Choquet
value over all quantile functions within Bregman-Wasserstein distance ``eps``
of the reference is achieved by the one-parameter family

    G_lam(u) = (phi')^{-1}( phi'(Q_ref(u)) + gamma(u) / lam ),

with the multiplier ``lam* > 0`` calibrated so the Bregman-Wasserstein
divergence of ``G_lam`` from the reference equals ``eps`` exactly.  The
divergence is continuously decreasing in ``lam``, so the calibration is a
bracketed bisection on ``log lam``.

The same engine with a signed weight drives the cheapest-payoff solver in
:mod:`mkdiv.payoff` (the weight there is negative but still increasing).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, QuantileGrid, quantile_grid
from .errors import CalibrationError, DomainError, InfeasibleLambdaError
from .generators import ConvexGenerator, DistortionSpec
from .numerics import first_outside, pairwise_mean

__all__ = [
    "WorstCaseSolution",
    "UniquenessWarning",
    "TruncationWarning",
    "choquet",
    "worst_case_quantile",
    "solve_worst_case",
    "perturbed_nodes",
    "bw_divergence_nodes",
    "calibrate_lambda",
]

_BRACKET_LO = 1e-8
_BRACKET_HI = 1e8
_EXPAND_DECADES = 4


class UniquenessWarning(UserWarning):
    """The distortion is not strictly concave; the solution formula still
    applies but uniqueness of the optimum is not guaranteed."""


class TruncationWarning(UserWarning):
    """Non-finite weight values were dropped at grid nodes."""


def choquet(d: DistortionSpec, grid: QuantileGrid) -> float:
    """Choquet integral on the grid: mean over nodes of gamma(u_i) * node_i.

    Non-finite weights (possible only for user-supplied distortions; the
    catalog is finite on (0, 1)) are dropped with a warning.
    """
    gam = np.asarray(d.gamma(grid.u), dtype=float)
    vals = gam * grid.nodes
    bad = ~np.isfinite(gam)
    if np.any(bad):
        warnings.warn(
            f"{int(bad.sum())} non-finite weight values truncated",
            TruncationWarning,
            stacklevel=2,
        )
        vals = np.where(bad, 0.0, vals)
    return pairwise_mean(vals)


def perturbed_nodes(
    gen: ConvexGenerator, ref_nodes: np.ndarray, weight: np.ndarray, lam: float
) -> np.ndarray:
    """Apply (phi')^{-1}(phi'(node) + weight / lam) nodewise.

    Raises
    ------
    InfeasibleLambdaError
        If the argument leaves the range of phi', or the result the domain of
        phi, at any node (reported with the first offending node index).
    """
    if not lam > 0.0:
        raise DomainError(f"multiplier must be positive, got {lam}")
    target = gen.dphi(ref_nodes) + weight / lam
    node = first_outside(target, gen.dphi_range)
    # phi' attains no infinite value, so an infinite argument is infeasible
    # even on an unbounded side of the range, where first_outside passes it
    infinite = np.isinf(target)
    if infinite.any():
        first_inf = int(np.argmax(infinite))
        node = first_inf if node is None else min(node, first_inf)
    problem = "perturbed derivative leaves the range of phi'"
    if node is None:
        nodes = np.asarray(gen.inv_dphi_fn(target), dtype=float)
        # the inverse can round onto a finite bound of the domain, e.g.
        # xlogx's exp(y - 1) underflows to 0.0 at small multipliers
        node = first_outside(nodes, gen.domain)
        problem = f"perturbed node leaves the domain {gen.domain} of phi"
    if node is not None:
        raise InfeasibleLambdaError(
            f"{problem} for generator '{gen.name}' at node {node} (lambda={lam})",
            node=node,
        )
    return nodes


def bw_divergence_nodes(gen: ConvexGenerator, nodes_g, nodes_f) -> float:
    """Bregman-Wasserstein divergence between two grids on the same u-nodes:
    the comonotonic coupling is optimal, so this is a plain nodewise mean."""
    return pairwise_mean(np.asarray(gen.bregman(nodes_g, nodes_f)))


def worst_case_quantile(
    gen: ConvexGenerator,
    d: DistortionSpec,
    ref: Distribution,
    lam: float,
    m: int = 10_000,
    delta: float = 1e-7,
) -> QuantileGrid:
    """Perturbed quantile curve at a given multiplier (no calibration)."""
    grid = quantile_grid(ref, m, delta)
    nodes = perturbed_nodes(gen, grid.nodes, np.asarray(d.gamma(grid.u)), lam)
    return QuantileGrid(nodes=nodes, m=m, delta=delta)


def calibrate_lambda(
    gen: ConvexGenerator,
    ref_nodes: np.ndarray,
    weight: np.ndarray,
    eps: float,
    tol: float = 1e-8,
):
    """Find lam with divergence(G_lam, ref) = eps by bisection on log lam.

    The divergence is decreasing in lam; multipliers that make the formula
    infeasible behave like an infinite divergence.  The initial bracket
    [1e-8, 1e8] expands geometrically up to four decades each side before a
    :class:`CalibrationError` reports the achievable divergence range.

    Returns
    -------
    (lam, divergence, binding)
    """
    if not eps > 0.0:
        raise DomainError(f"divergence budget must be positive, got {eps}")

    def div_at(lam: float) -> float:
        # extreme multipliers may overflow the generator transform; both an
        # out-of-range argument and a non-finite divergence mean the curve
        # is infinitely far, so the bisection treats them as +inf
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                nodes = perturbed_nodes(gen, ref_nodes, weight, lam)
                val = bw_divergence_nodes(gen, nodes, ref_nodes)
        except InfeasibleLambdaError:
            return np.inf
        return val if np.isfinite(val) else np.inf

    lo, hi = _BRACKET_LO, _BRACKET_HI
    for _ in range(_EXPAND_DECADES):
        if div_at(lo) >= eps:
            break
        lo *= 0.1
    for _ in range(_EXPAND_DECADES):
        if div_at(hi) <= eps:
            break
        hi *= 10.0
    d_lo, d_hi = div_at(lo), div_at(hi)
    if d_lo < eps or d_hi > eps:
        raise CalibrationError(
            f"no multiplier in [{lo:g}, {hi:g}] meets the divergence budget {eps}",
            achieved_range=(d_hi, d_lo),
        )
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
    div = div_at(lam)
    return lam, div, bool(abs(div - eps) <= tol)


@dataclass(frozen=True, eq=False)
class WorstCaseSolution:
    """Calibrated worst case: multiplier, quantile curve, Choquet value."""

    lambda_star: float
    worst_quantile: QuantileGrid
    worst_value: float
    divergence_at_solution: float
    epsilon: float
    binding: bool

    def to_json_dict(self) -> dict:
        return {
            "lambda_star": self.lambda_star,
            "worst_value": self.worst_value,
            "epsilon": self.epsilon,
            "binding": self.binding,
            "divergence_at_solution": self.divergence_at_solution,
            "truncation_delta": self.worst_quantile.delta,
            "grid": {
                "M": self.worst_quantile.m,
                "nodes": [float(v) for v in self.worst_quantile.nodes],
            },
        }


def solve_worst_case(
    gen: ConvexGenerator,
    d: DistortionSpec,
    ref: Distribution,
    eps: float,
    m: int = 10_000,
    delta: float = 1e-7,
    tol: float = 1e-8,
) -> WorstCaseSolution:
    """Calibrate the multiplier and return the worst-case solution.

    Warns when the generator is not strictly convex or the distortion not
    strictly concave (the formula still applies; uniqueness is what is lost).
    """
    if not gen.strictly_convex:
        warnings.warn(
            f"generator '{gen.name}' is not strictly convex; the solution "
            "may not be unique",
            UniquenessWarning,
            stacklevel=2,
        )
    if not d.strictly_concave:
        warnings.warn(
            f"distortion '{d.name}' is not strictly concave; the solution "
            "may not be unique",
            UniquenessWarning,
            stacklevel=2,
        )
    grid = quantile_grid(ref, m, delta)
    weight = np.asarray(d.gamma(grid.u), dtype=float)
    lam, div, binding = calibrate_lambda(gen, grid.nodes, weight, eps, tol)
    nodes = perturbed_nodes(gen, grid.nodes, weight, lam)
    worst = QuantileGrid(nodes=nodes, m=m, delta=delta)
    return WorstCaseSolution(
        lambda_star=lam,
        worst_quantile=worst,
        worst_value=choquet(d, worst),
        divergence_at_solution=div,
        epsilon=eps,
        binding=binding,
    )
