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
quadratic generator), inside the bracket on ``lam*`` that its own probes
prove, with infeasible multipliers below it.  Where a step is unavailable,
stalls or would leave the bracket, it bisects the bracket in ``log lam``.  It
stops once ``|log D - log eps| <= 1e-13`` or once the bracket is narrower
than 1e-14 relative, and returns its best probe with that probe's curve,
which the solver emits.  Both solvers call it ``binding`` when
``|D - eps| <= 1e-8 * eps``: a converged search meets that by orders of
magnitude, a stop on the feasibility boundary of phi' need not.

The same path with a signed weight drives the cheapest-payoff solver in
:mod:`mkdiv.payoff` (the weight there is negative but still increasing);
both solvers take their value from the weight they calibrated with.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, QuantileGrid
from .errors import CalibrationError, DomainError, InfeasibleLambdaError
from .generators import ConvexGenerator, DistortionSpec
from .numerics import (
    _DEFAULT_DELTA,
    _DEFAULT_M,
    Rule,
    _check_finite,
    first_outside,
    midpoint_rule,
)

__all__ = [
    "WorstCaseSolution",
    "UniquenessWarning",
    "choquet",
    "solve_worst_case",
    "perturbed_nodes",
    "calibrate_lambda",
]

_LAM_MIN, _LAM_MAX = 1e-12, 1e12  # the multipliers the search may probe
_WIDTH_TOL = 1e-14  # stopping width on log lam, relative to 1 + |ends|
_RESIDUAL_TOL = 1e-13  # the search stops once |log div - log eps| is this small
_BINDING_TOL = 1e-8  # a solution is binding when |div - eps| <= _BINDING_TOL * eps


class UniquenessWarning(UserWarning):
    """The generator is not strictly convex, or the distortion not strictly
    concave; the solution formula still applies but uniqueness of the
    optimum is not guaranteed."""


def _warn_unless_unique(gen: ConvexGenerator, *others) -> None:
    """A :class:`UniquenessWarning`, attributed to the solver's caller, if
    ``gen`` is not strictly convex, then one for each ``(strict, subject)``
    of ``others`` that is not strict."""
    for strict, subject in (
        (gen.strictly_convex, f"generator '{gen.name}' is not strictly convex"),
        *others,
    ):
        if not strict:
            warnings.warn(f"{subject}; the solution may not be unique",
                          UniquenessWarning, stacklevel=3)


def _checked_weight(what: str, weight_of, u: np.ndarray) -> np.ndarray:
    """``weight_of(u)`` as a float array, the weight of every robust value.

    Raises
    ------
    DomainError
        At the first node where the weight is not finite, naming ``what``,
        the node and its u.
    """
    weight = np.asarray(weight_of(u), dtype=float)
    finite = np.isfinite(weight)
    if not finite.all():
        node = int(np.argmin(finite))
        raise DomainError(
            f"{what} has a non-finite weight {weight[node]} at node {node} (u={u[node]})",
            index=node,
        )
    return weight


def _check_weight_shape(weight: np.ndarray, ref_nodes: np.ndarray) -> None:
    """Reject a weight that is not one value per reference node: numpy
    would broadcast a length-1 weight, and slicing would drop the extra
    entries of a longer one."""
    if np.shape(weight) != np.shape(ref_nodes):
        raise DomainError(f"weight of shape {np.shape(weight)} does not match the "
                          f"reference nodes of shape {np.shape(ref_nodes)}")


def choquet(d: DistortionSpec, grid: QuantileGrid) -> float:
    """Choquet integral on the grid: the grid's rule integrates gamma(u) * node.

    Raises
    ------
    DomainError
        If the weight is not finite at some node (possible only for
        user-supplied distortions; the catalog is finite on (0, 1)).
    """
    gam = _checked_weight(f"distortion '{d.name}'", d.gamma, grid.rule.u)
    return grid.rule.integrate(gam * grid.nodes)


def perturbed_nodes(
    gen: ConvexGenerator,
    ref_nodes: np.ndarray,
    weight: np.ndarray,
    lam: float,
    dphi_ref: np.ndarray | None = None,
) -> np.ndarray:
    """Apply (phi')^{-1}(phi'(node) + weight / lam) nodewise to the 1-D
    ``ref_nodes``.

    ``dphi_ref``, when given, is ``gen.dphi(ref_nodes)`` computed once by a
    caller that perturbs the same nodes at many multipliers.  The argument
    is formed, checked and inverted in the blocks of
    :meth:`mkdiv.numerics.Rule.blocks`, written into the result, so the
    result is the only array of the nodes' size that a call allocates.

    Raises
    ------
    DomainError
        If ``weight`` is not of the shape of ``ref_nodes``, or ``lam`` is not
        positive.
    InfeasibleLambdaError
        If the argument leaves the range of phi', or else the result the
        domain of phi, at any node, reported with the first offending node
        index: a node outside the range is reported before any node outside
        the domain, wherever the two lie.
    """
    ref_nodes, weight = np.asarray(ref_nodes, dtype=float), np.asarray(weight, dtype=float)
    _check_weight_shape(weight, ref_nodes)
    if not lam > 0.0:
        raise DomainError(f"multiplier must be positive, got {lam}")
    nodes = np.empty(len(ref_nodes))
    failure = None  # (node, problem) of the first failure found
    for blk in Rule(None, nodes.size).blocks():
        dphi = gen.dphi(ref_nodes[blk]) if dphi_ref is None else dphi_ref[blk]
        target = dphi + weight[blk] / lam
        node = first_outside(target, gen.dphi_range)
        # phi' attains no infinite value, so an infinite argument is infeasible
        # even on an unbounded side of the range, where first_outside passes it
        infinite = np.isinf(target)
        if infinite.any():
            first_inf = int(np.argmax(infinite))
            node = first_inf if node is None else min(node, first_inf)
        if node is not None:
            failure = (blk.start + node, "perturbed derivative leaves the range of phi'")
            break
        if failure is None:  # past a domain failure only the range is checked
            nodes[blk] = gen.inv_dphi_fn(target)
            # the inverse can round onto a finite bound of the domain, e.g.
            # xlogx's exp(y - 1) underflows to 0.0 at small multipliers
            node = first_outside(nodes[blk], gen.domain)
            if node is not None:
                failure = (blk.start + node,
                           f"perturbed node leaves the domain {gen.domain} of phi")
    if failure is not None:
        node, problem = failure
        raise InfeasibleLambdaError(
            f"{problem} for generator '{gen.name}' at node {node} (lambda={lam})",
            node=node,
        )
    return nodes


def _inverse_curvature_terms(gen, nodes, phi_nodes, weight):
    """The terms weight^2 / phi''(nodes) of I.

    A zero weight adds 0 even where phi'' vanishes, and a zero or
    overflowing phi'' under a nonzero weight makes I infinite or zero,
    which rules out the Newton step.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        curvature = phi_nodes if gen.d2phi is gen.phi else gen.d2phi(nodes)
        terms = np.divide(weight, curvature, out=np.zeros(np.shape(weight)),
                          where=weight != 0.0)
        terms *= weight
    return terms


class _Probes:
    """A calibration's probes: phi(ref) and phi'(ref), kept, and I(ref),
    computed once by a fold of the reference's rule; each call then probes
    one multiplier, as :func:`calibrate_lambda` describes."""

    def __init__(self, gen: ConvexGenerator, ref_nodes: np.ndarray, weight: np.ndarray):
        self.gen, self.ref_nodes, self.weight = gen, ref_nodes, weight
        self.rule = Rule(None, ref_nodes.size)
        self.phi_ref, self.dphi_ref = np.empty(ref_nodes.size), np.empty(ref_nodes.size)

        def ref_terms(blk):
            ref = ref_nodes[blk]
            self.phi_ref[blk], self.dphi_ref[blk] = gen.phi(ref), gen.dphi(ref)
            return _inverse_curvature_terms(gen, ref, self.phi_ref[blk], weight[blk])

        with np.errstate(over="ignore", invalid="ignore"):
            self.ref_integral = self.rule.fold(ref_terms)

    def __call__(self, lam: float):
        """``(D, I(G), G)`` at ``lam``, D and I by the equal-cell rule of the
        reference; ``(inf, nan, None)`` where the curve is infinitely far."""
        gen, ref_nodes, weight = self.gen, self.ref_nodes, self.weight

        def terms(blk):  # the Bregman terms and those of I(G), sharing phi(G)
            g = nodes[blk]
            phi_g = gen.phi(g)
            return (gen._bregman_terms(g, phi_g, ref_nodes[blk], self.phi_ref[blk],
                                       self.dphi_ref[blk]),
                    _inverse_curvature_terms(gen, g, phi_g, weight[blk]))

        # extreme multipliers may overflow the generator transform; both an
        # out-of-range argument and a non-finite divergence mean the curve
        # is infinitely far, so the search treats them as +inf
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                nodes = perturbed_nodes(gen, ref_nodes, weight, lam, self.dphi_ref)
            except InfeasibleLambdaError:
                return math.inf, math.nan, None
            d, integral = (float(v) for v in self.rule.fold(terms))
        if not math.isfinite(d):
            return math.inf, math.nan, None
        return d, integral, nodes


def calibrate_lambda(
    gen: ConvexGenerator,
    ref: QuantileGrid,
    weight: np.ndarray,
    eps: float,
):
    """Find lam with divergence(G_lam, ref) = eps, and the curve G_lam.

    The divergence D is decreasing in lam; multipliers that make the formula
    infeasible behave like an infinite divergence.  One search runs in
    s = log lam on ``f(s) = log D(e^s) - log eps``, a Newton iteration
    safeguarded by the bracket ``lo < lam* < hi`` that its own probes prove
    (Press et al., *Numerical Recipes*, sec. 9.4, "rtsafe"):

    * It starts from the small-budget multiplier
      ``lam0 = sqrt(I(ref) / (2 eps))``, where ``I(G)`` is the integral of
      ``weight^2 / phi''(G)`` by the rule of ``ref`` (a zero weight adds 0):
      expanding the Bregman terms to second order gives
      ``D ~ I(ref) / (2 lam^2)``, exact for the quadratic generator.  Where
      ``I(ref)`` is zero or not finite it starts from lam = 1.
    * A probe with ``f > 0``, or an infeasible one, becomes ``lo``; one with
      ``f < 0`` becomes ``hi``.
    * The next probe is the Newton step ``s - f / f'(s)``, whose slope
      ``f'(s) = -I(G_lam) / (lam^2 D)`` comes from the curve the probe
      built, if ``f`` is finite, ``|f|`` fell, ``I(G_lam)`` is finite and
      positive, and the step lands strictly inside ``(lo, hi)``.  Otherwise
      it is the midpoint of the bracket in log lam once both ends are known,
      and a decade beyond the known end before that.  Every probe is clamped
      to [1e-12, 1e12].
    * It stops once ``|f| <= 1e-13``, or once both ends are known and
      ``log hi - log lo <= 1e-14 * (1 + |log lo| + |log hi|)``.  A probe at
      either end of [1e-12, 1e12] that leaves the bracket open past it
      raises :class:`CalibrationError` with the range of divergences probed.

    No multiplier is probed twice.  The result is the best probe: the one
    with a finite divergence and the smallest ``|f|`` (the later one on
    ties), with its divergence and its curve.  Only that one curve is kept
    while the search runs.  If ``lam*`` sits on the feasibility boundary of
    phi', where the divergence jumps to infinity, the bracket closes on the
    boundary and the best probe is its feasible end: its divergence is at
    most ``eps``, and ``binding`` is False unless it meets the budget.  A
    best probe that is not binding and whose divergence exceeds ``eps``
    raises :class:`CalibrationError` with the range of divergences probed:
    the bracket closed on a jump of D past the budget, as where a node's
    G - Q falls below the ulp of Q and its term drops to 0.

    The domain check of the reference, phi(ref), phi'(ref) and I(ref) are
    computed once, by a fold of the reference's rule
    (:meth:`mkdiv.numerics.Rule.fold`) over blocks of ``_BLOCK`` nodes.  Each
    probe is one :func:`perturbed_nodes` call and one fold whose blocks
    compute phi(G), then the Bregman terms, by the kernel
    :meth:`ConvexGenerator.bregman` uses, and the terms of I(G_lam), each
    folded by its own tree.  A fold is the whole-array sum bit for bit, so
    every divergence is repr-equal to ``pairwise_mean(gen.bregman(G,
    Q))`` on the probe's curve G and the reference nodes Q.  A probe keeps
    its curve and nothing else of the grid's size, so a calibration holds
    four such arrays beyond its inputs, plus a block's temporaries:
    phi(ref), phi'(ref), the best curve and the probe's own.

    Returns
    -------
    (lam, divergence, binding, nodes)
        ``binding`` is ``|divergence - eps| <= 1e-8 * eps``; ``nodes`` is
        ``perturbed_nodes(gen, ref.nodes, weight, lam)``.
    """
    if not eps > 0.0:
        raise DomainError(f"divergence budget must be positive, got {eps}")
    _check_finite("calibration", eps=eps)
    weight = np.asarray(weight, dtype=float)
    _check_weight_shape(weight, ref.nodes)
    probe = _Probes(gen, gen._check_domain(ref.nodes, "second Bregman argument"), weight)
    log_eps = math.log(eps)
    integral = probe.ref_integral
    lam = math.sqrt(integral / (2.0 * eps)) if 0.0 < integral < math.inf else 1.0
    lo, hi = 0.0, math.inf
    prev = math.inf  # |f| at the previous probe
    best = None  # (|f|, lam, divergence, nodes) of the best probe so far
    low, high = math.inf, -math.inf  # range of the divergences probed
    while True:
        lam = min(max(lam, _LAM_MIN), _LAM_MAX)
        div, integral, nodes = probe(lam)
        low, high = min(low, div), max(high, div)
        f = math.log(div) - log_eps if div > 0.0 else -math.inf
        if div < math.inf and (best is None or abs(f) <= best[0]):
            best = (abs(f), lam, div, nodes)
        if abs(f) <= _RESIDUAL_TOL:
            break
        if f > 0.0:
            lo = lam
        else:
            hi = lam
        if lo == _LAM_MAX or hi == _LAM_MIN:
            raise CalibrationError(
                f"no multiplier in [{_LAM_MIN:g}, {_LAM_MAX:g}] meets the "
                f"divergence budget {eps}",
                achieved_range=(low, high),
            )
        if 0.0 < lo and hi < math.inf:
            a, b = math.log(lo), math.log(hi)
            if b - a <= _WIDTH_TOL * (1.0 + abs(a) + abs(b)):
                break
            fallback = math.exp(0.5 * (a + b))
        else:
            fallback = lo * 10.0 if 0.0 < lo else hi / 10.0
        step = math.nan
        if abs(f) < prev and 0.0 < integral < math.inf:  # f is finite and |f| fell
            # s - f / f'(s) with f'(s) = -I(G_lam) / (lam^2 div); a step
            # that overflows gives inf, which the bracket rejects
            with np.errstate(over="ignore"):
                step = float(np.exp(math.log(lam) + f * lam * lam * div / integral))
        prev = abs(f)
        del nodes  # only the best probe's curve outlives a probe
        lam = step if lo < step < hi else fallback
    # both stops follow a probe with a finite divergence, so there is a best
    _, lam, div, nodes = best
    binding = abs(div - eps) <= _BINDING_TOL * eps
    if not binding and div > eps:
        raise CalibrationError(
            f"the divergence jumps past the budget {eps} near lambda={lam!r}, "
            f"where the closest probe gives {div!r}",
            achieved_range=(low, high),
        )
    return lam, div, binding, nodes


def _calibrated_curve(gen, ref, what, weight_of, eps, m, delta):
    """The path both solvers share: the grid of ``ref``, the weight
    ``weight_of(u)`` of ``what`` on it, checked finite before any probe, and
    the calibration.  Returns ``(lam, divergence, binding, weight,
    QuantileGrid(nodes))``."""
    # built once and shared by the grid and the weight, so that no solve
    # builds it twice
    u = midpoint_rule(m, delta).u
    grid = QuantileGrid(nodes=ref.quantile(u))
    weight = _checked_weight(what, weight_of, u)
    del u  # not held through the calibration, where it would raise the peak
    lam, div, binding, nodes = calibrate_lambda(gen, grid, weight, eps)
    return lam, div, binding, weight, QuantileGrid(nodes=nodes)


@dataclass(frozen=True, eq=False)
class WorstCaseSolution:
    """Calibrated worst case: multiplier, quantile curve, Choquet value."""

    lambda_star: float
    worst_quantile: QuantileGrid
    worst_value: float
    divergence_at_solution: float
    binding: bool


def solve_worst_case(
    gen: ConvexGenerator,
    d: DistortionSpec,
    ref: Distribution,
    eps: float,
    m: int = _DEFAULT_M,
    delta: float = _DEFAULT_DELTA,
) -> WorstCaseSolution:
    """Calibrate the multiplier and return the worst-case solution.

    ``binding`` reports ``|divergence_at_solution - eps| <= 1e-8 * eps``.

    Warns when the generator is not strictly convex or the distortion not
    strictly concave (the formula still applies; uniqueness is what is lost).

    The solution is that of the m-node grid.  Where the continuum divergence
    is infinite at every multiplier, it is an artefact of m: with ``xlogx``
    and ``power_distortion(0.6)`` on LogNormal(0.1, 0.2) at eps = 0.02,
    lambda_star is 9.08, 11.30, 16.56 and 28.96 at m = 1e3, 1e4, 1e5 and
    1e6, and the value 1.579, 1.634, 1.735 and 1.980 (see
    :func:`~mkdiv.generators.power_distortion`).
    """
    _warn_unless_unique(
        gen, (d.strictly_concave, f"distortion '{d.name}' is not strictly concave")
    )
    lam, div, binding, weight, worst = _calibrated_curve(
        gen, ref, f"distortion '{d.name}'", d.gamma, eps, m, delta
    )
    return WorstCaseSolution(
        lambda_star=lam,
        worst_quantile=worst,
        worst_value=worst.rule.integrate(weight * worst.nodes),
        divergence_at_solution=div,
        binding=binding,
    )
