"""Worst-case distortion risk measures over Bregman-Wasserstein balls.

Given a convex generator ``phi``, a concave distortion with weight ``gamma``,
a reference distribution and a budget ``eps``, the worst attainable Choquet
value over all quantile functions within Bregman-Wasserstein distance ``eps``
of the reference is achieved by the one-parameter family

    G_lam(u) = (phi')^{-1}( phi'(Q_ref(u)) + gamma(u) / lam ),

with the multiplier ``lam* > 0`` calibrated so the Bregman-Wasserstein
divergence of ``G_lam`` from the reference equals ``eps`` exactly.  The
divergence is continuously decreasing in ``lam`` wherever the formula is
feasible, so :func:`calibrate_lambda` brackets ``lam*`` and runs one Brent
search on ``log divergence - log eps`` over ``log lam``; its bisection steps
take the infinite divergences of infeasible multipliers.  It returns its
best probe with that probe's curve, which the solver emits.

The same path with a signed weight drives the cheapest-payoff solver in
:mod:`mkdiv.payoff` (the weight there is negative but still increasing);
both solvers take their value from the weight they calibrated with.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, QuantileGrid, quantile_grid
from .errors import CalibrationError, DomainError, InfeasibleLambdaError
from .generators import ConvexGenerator, DistortionSpec
from .numerics import _DEFAULT_DELTA, _DEFAULT_M, brent_root, first_outside, pairwise_mean

__all__ = [
    "WorstCaseSolution",
    "UniquenessWarning",
    "choquet",
    "solve_worst_case",
    "perturbed_nodes",
    "bw_divergence_nodes",
    "calibrate_lambda",
]

_BRACKET_LO = 1e-8
_BRACKET_HI = 1e8
_EXPAND_DECADES = 4
_WIDTH_TOL = 1e-14  # stopping width on log lam, relative to 1 + |ends|


class UniquenessWarning(UserWarning):
    """The distortion is not strictly concave; the solution formula still
    applies but uniqueness of the optimum is not guaranteed."""


def choquet(d: DistortionSpec, grid: QuantileGrid) -> float:
    """Choquet integral on the grid: mean over nodes of gamma(u_i) * node_i.

    Raises
    ------
    DomainError
        If the weight is not finite at some node (possible only for
        user-supplied distortions; the catalog is finite on (0, 1)).
    """
    gam = np.asarray(d.gamma(grid.u), dtype=float)
    bad = ~np.isfinite(gam)
    if bad.any():
        node = int(np.argmax(bad))
        raise DomainError(
            f"distortion '{d.name}' has a non-finite weight {gam[node]} at "
            f"node {node} (u={grid.u[node]})"
        )
    return pairwise_mean(gam * grid.nodes)


def perturbed_nodes(
    gen: ConvexGenerator,
    ref_nodes: np.ndarray,
    weight: np.ndarray,
    lam: float,
    dphi_ref: np.ndarray | None = None,
) -> np.ndarray:
    """Apply (phi')^{-1}(phi'(node) + weight / lam) nodewise.

    ``dphi_ref``, when given, is ``gen.dphi(ref_nodes)`` computed once by a
    caller that perturbs the same nodes at many multipliers.

    Raises
    ------
    InfeasibleLambdaError
        If the argument leaves the range of phi', or the result the domain of
        phi, at any node (reported with the first offending node index).
    """
    if not lam > 0.0:
        raise DomainError(f"multiplier must be positive, got {lam}")
    if dphi_ref is None:
        dphi_ref = gen.dphi(ref_nodes)
    target = dphi_ref + weight / lam
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


def calibrate_lambda(
    gen: ConvexGenerator,
    ref_nodes: np.ndarray,
    weight: np.ndarray,
    eps: float,
    tol: float = 1e-8,
):
    """Find lam with divergence(G_lam, ref) = eps, and the curve G_lam.

    The divergence is decreasing in lam; multipliers that make the formula
    infeasible behave like an infinite divergence.  The search runs in
    s = log lam and evaluates no multiplier twice:

    1. The bracket [1e-8, 1e8] expands geometrically up to four decades each
       side before a :class:`CalibrationError` reports the achievable
       divergence range.
    2. Brent's method drives the probes toward the root of
       ``log div(e^s) - log eps``, which is linear in s for the quadratic
       generator (div is proportional to lam^-2) and near-linear for the
       others; it bisects while a residual in use is infinite, and stops
       once the bracket on s is at most ``1e-14 * (1 + |a| + |b|)`` wide.

    The result is the best probe: the evaluated multiplier with a finite
    divergence and the smallest ``|log div - log eps|`` (the later one on
    ties), with its divergence and its curve.  Only that one curve is kept
    while the search runs.  If ``lam*`` sits on the feasibility boundary of
    phi', where the divergence jumps to infinity, the best probe is the
    feasible end of the final bracket: its divergence is at most ``eps``,
    and ``binding`` is False unless it meets the budget.

    phi(ref), phi'(ref) and the domain check of the reference are computed
    once; each evaluation is one :func:`perturbed_nodes` call and one phi,
    with the Bregman terms in the order of :meth:`ConvexGenerator.bregman`,
    so every divergence is bit-identical to :func:`bw_divergence_nodes`.

    Returns
    -------
    (lam, divergence, binding, nodes)
        ``binding`` is ``|divergence - eps| <= tol * eps``; ``nodes`` is
        ``perturbed_nodes(gen, ref_nodes, weight, lam)``.
    """
    if not eps > 0.0:
        raise DomainError(f"divergence budget must be positive, got {eps}")
    ref_nodes = gen._check_domain(ref_nodes, "second Bregman argument")
    with np.errstate(over="ignore", invalid="ignore"):
        phi_ref, dphi_ref = gen.phi(ref_nodes), gen.dphi(ref_nodes)
    log_eps = math.log(eps)

    def log_gap(d: float) -> float:
        return math.log(d) - log_eps if d > 0.0 else -math.inf

    best = None  # (|log gap|, lam, divergence, nodes) of the best probe so far

    def div_at(lam: float) -> float:
        # extreme multipliers may overflow the generator transform; both an
        # out-of-range argument and a non-finite divergence mean the curve
        # is infinitely far, so the search treats them as +inf
        nonlocal best
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                nodes = perturbed_nodes(gen, ref_nodes, weight, lam, dphi_ref)
                terms = np.subtract(gen.phi(nodes), phi_ref)
                linear = np.subtract(nodes, ref_nodes)
                linear *= dphi_ref
                terms -= linear
                val = pairwise_mean(terms)
        except InfeasibleLambdaError:
            val = np.inf
        if not np.isfinite(val):
            return np.inf
        gap = abs(log_gap(val))
        if best is None or gap <= best[0]:
            best = (gap, lam, val, nodes)
        return val

    lo, d_lo = _BRACKET_LO, div_at(_BRACKET_LO)
    for _ in range(_EXPAND_DECADES):
        if d_lo >= eps:
            break
        lo *= 0.1
        d_lo = div_at(lo)
    hi, d_hi = _BRACKET_HI, div_at(_BRACKET_HI)
    for _ in range(_EXPAND_DECADES):
        if d_hi <= eps:
            break
        hi *= 10.0
        d_hi = div_at(hi)
    if d_lo < eps or d_hi > eps:
        raise CalibrationError(
            f"no multiplier in [{lo:g}, {hi:g}] meets the divergence budget {eps}",
            achieved_range=(d_hi, d_lo),
        )
    brent_root(
        lambda s: log_gap(div_at(float(np.exp(s)))),
        float(np.log(lo)), float(np.log(hi)), log_gap(d_lo), log_gap(d_hi),
        width_tol=_WIDTH_TOL,
    )
    # hi passed the check above, so its finite divergence made it a candidate
    _, lam, div, nodes = best
    return lam, div, bool(abs(div - eps) <= tol * eps), nodes


def _calibrated_curve(gen, ref, weight_of, eps, m, delta, tol):
    """The path both solvers share: the grid of ``ref``, the weight
    ``weight_of(u)`` on it, and the calibration.  Returns ``(lam, divergence,
    binding, weight, nodes, QuantileGrid(nodes))``."""
    grid = quantile_grid(ref, m, delta)
    weight = np.asarray(weight_of(grid.u), dtype=float)
    lam, div, binding, nodes = calibrate_lambda(gen, grid.nodes, weight, eps, tol)
    curve = QuantileGrid(nodes=nodes, m=m, delta=delta)
    return lam, div, binding, weight, nodes, curve


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
    m: int = _DEFAULT_M,
    delta: float = _DEFAULT_DELTA,
    tol: float = 1e-8,
) -> WorstCaseSolution:
    """Calibrate the multiplier and return the worst-case solution.

    ``binding`` reports ``|divergence_at_solution - eps| <= tol * eps``.

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
    lam, div, binding, weight, _, worst = _calibrated_curve(
        gen, ref, d.gamma, eps, m, delta, tol
    )
    return WorstCaseSolution(
        lambda_star=lam,
        worst_quantile=worst,
        worst_value=pairwise_mean(weight * worst.nodes),
        divergence_at_solution=div,
        epsilon=eps,
        binding=binding,
    )
