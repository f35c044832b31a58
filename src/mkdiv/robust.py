"""Worst-case distortion risk measures over Bregman-Wasserstein balls.

Given a convex generator ``phi``, a concave distortion with weight ``gamma``,
a reference distribution and a budget ``eps``, the worst attainable Choquet
value over all quantile functions within Bregman-Wasserstein distance ``eps``
of the reference is achieved by the one-parameter family

    G_lam(u) = (phi')^{-1}( phi'(Q_ref(u)) + gamma(u) / lam ),

with the multiplier ``lam* > 0`` calibrated so the Bregman-Wasserstein
divergence of ``G_lam`` from the reference equals ``eps`` exactly.  The
divergence D is continuously decreasing in ``lam`` wherever the formula is
feasible, with slope ``dD/dlam = -lam^-3 * integral of gamma^2 / phi''(G_lam)``.
:func:`calibrate_lambda` therefore takes Newton steps on
``log D - log eps`` over ``log lam``, from the small-budget multiplier
``sqrt(integral of gamma^2 / phi''(Q_ref) / (2 eps))`` (exact for the
quadratic generator).  Where those steps stall or leave the feasible set it
brackets ``lam*`` and runs one Brent search, whose bisection steps take the
infinite divergences of infeasible multipliers.  It returns its best probe
with that probe's curve, which the solver emits.

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
from .numerics import (
    _DEFAULT_DELTA,
    _DEFAULT_M,
    _check_tolerance,
    brent_root,
    first_outside,
    pairwise_mean,
)

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
_RESIDUAL_TOL = 1e-13  # Newton stops once |log div - log eps| is this small
_NEWTON_STEPS = 10
# Newton iterates stay within the widest bracket, [1e-12, 1e12]
_LAM_MIN = _BRACKET_LO * 0.1**_EXPAND_DECADES
_LAM_MAX = _BRACKET_HI * 10.0**_EXPAND_DECADES


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

    The divergence D is decreasing in lam; multipliers that make the formula
    infeasible behave like an infinite divergence.  The search runs in
    s = log lam on ``f(s) = log D(e^s) - log eps`` and evaluates no
    multiplier twice:

    1. Newton steps start from the small-budget multiplier
       ``lam0 = sqrt(I(ref) / (2 eps))``, where ``I(G)`` is the mean of
       ``weight^2 / phi''(G)`` over the nodes: expanding the Bregman terms to
       second order gives ``D ~ I(ref) / (2 lam^2)``, exact for the quadratic
       generator.  Each step ``s - f / f'(s)`` takes its slope
       ``f'(s) = -I(G_lam) / (lam^2 D)`` from the curve the evaluation built.
       They stop once ``|f| <= 1e-13``.
    2. They hand over to the bracket search below when an iterate is
       infeasible or has a non-finite divergence, when ``lam0`` or a slope is
       not finite (quartic phi'' vanishes at 0), when ``|f|`` stops
       decreasing (at tiny budgets rounding puts a floor under it), when an
       iterate would leave [1e-12, 1e12], or after ten steps.
    3. The bracket [1e-8, 1e8] expands geometrically up to four decades each
       side before a :class:`CalibrationError` reports the achievable
       divergence range.
    4. Brent's method drives the probes toward the root of f, which is
       linear in s for the quadratic generator (D is proportional to
       lam^-2) and near-linear for the others; it bisects while a residual in
       use is infinite, and stops once the bracket on s is at most
       ``1e-14 * (1 + |a| + |b|)`` wide.

    The result is the best probe of both phases: the evaluated multiplier
    with a finite divergence and the smallest ``|f|`` (the later one on
    ties), with its divergence and its curve.  Only that one curve is kept
    while the search runs.  If ``lam*`` sits on the feasibility boundary of
    phi', where the divergence jumps to infinity, the best probe is the
    feasible end of the final bracket: its divergence is at most ``eps``,
    and ``binding`` is False unless it meets the budget.

    phi(ref), phi'(ref), I(ref) and the domain check of the reference are
    computed once; each evaluation is one :func:`perturbed_nodes` call and
    one phi, with the Bregman terms in the order of
    :meth:`ConvexGenerator.bregman`, so every divergence is bit-identical to
    :func:`bw_divergence_nodes`.  A Newton step adds I(G_lam), which reuses
    phi(G_lam) where phi'' is phi (the exp generator) and I(ref) where phi''
    is constant.

    Returns
    -------
    (lam, divergence, binding, nodes)
        ``binding`` is ``|divergence - eps| <= tol * eps``; ``nodes`` is
        ``perturbed_nodes(gen, ref_nodes, weight, lam)``.
    """
    if not eps > 0.0:
        raise DomainError(f"divergence budget must be positive, got {eps}")
    _check_tolerance("calibration", tol=tol)
    ref_nodes = gen._check_domain(ref_nodes, "second Bregman argument")
    with np.errstate(over="ignore", invalid="ignore"):
        phi_ref, dphi_ref = gen.phi(ref_nodes), gen.dphi(ref_nodes)
    log_eps = math.log(eps)

    def log_gap(d: float) -> float:
        return math.log(d) - log_eps if d > 0.0 else -math.inf

    best = None  # (|log gap|, lam, divergence, nodes) of the best probe so far

    def probe(lam: float):
        """Divergence at ``lam`` with the nodes and phi(nodes) it came from;
        ``(inf, None, None)`` where the curve is infinitely far."""
        # extreme multipliers may overflow the generator transform; both an
        # out-of-range argument and a non-finite divergence mean the curve
        # is infinitely far, so the search treats them as +inf
        nonlocal best
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                nodes = perturbed_nodes(gen, ref_nodes, weight, lam, dphi_ref)
                phi_nodes = gen.phi(nodes)
                # (phi(G) - phi(ref)) - phi'(ref) (G - ref), written over the
                # linear part, so that keeping phi(G) for the slope adds no
                # array to the peak of a probe
                terms = np.subtract(nodes, ref_nodes)
                terms *= dphi_ref
                np.subtract(np.subtract(phi_nodes, phi_ref), terms, out=terms)
                val = pairwise_mean(terms)
        except InfeasibleLambdaError:
            val = np.inf
        if not np.isfinite(val):
            return np.inf, None, None
        gap = abs(log_gap(val))
        if best is None or gap <= best[0]:
            best = (gap, lam, val, nodes)
        return val, nodes, phi_nodes

    def newton() -> bool:
        """Newton steps from lam0; True once |f| meets the stop."""

        def inverse_curvature_mean(nodes, phi_nodes):
            # I(G) = mean of weight^2 / phi''(G), and whether phi'' is one
            # number (then I is the same at every lam); a zero or overflowing
            # phi'' makes I infinite, NaN or zero, which ends the steps
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                curvature = phi_nodes if gen.d2phi is gen.phi else gen.d2phi(nodes)
                terms = weight / curvature
                terms *= weight
                return pairwise_mean(terms), np.ndim(curvature) == 0

        integral, constant = inverse_curvature_mean(ref_nodes, phi_ref)
        if not 0.0 < integral < math.inf:
            return False
        lam, prev = math.sqrt(integral / (2.0 * eps)), math.inf
        for _ in range(_NEWTON_STEPS):
            if not _LAM_MIN <= lam <= _LAM_MAX:
                return False
            div, nodes, phi_nodes = probe(lam)
            f = log_gap(div)
            if abs(f) <= _RESIDUAL_TOL:
                return True
            if not abs(f) < prev:  # stalled, or infeasible (|f| = inf)
                return False
            prev = abs(f)
            if not constant:
                integral, _ = inverse_curvature_mean(nodes, phi_nodes)
                if not 0.0 < integral < math.inf:
                    return False
            del nodes, phi_nodes  # only the best probe's curve outlives a step
            # s - f / f'(s) with f'(s) = -I(G_lam) / (lam^2 div); a step that
            # overflows gives lam = inf, which the range check rejects
            with np.errstate(over="ignore"):
                lam = float(np.exp(math.log(lam) + f * lam * lam * div / integral))
        return False

    def div_at(lam: float) -> float:
        return probe(lam)[0]

    if not newton():
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
    # a Newton stop or the bracket's hi end had a finite divergence, so
    # there is a best probe
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
