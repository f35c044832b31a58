"""Transport divergences from scoring costs, and an exact discrete oracle.

The divergence induced by a score ``S`` between cdfs ``F1`` and ``F2`` is the
optimal-transport value with cost ``c(z1, z2) = S(z2, z1)`` (note the argument
swap: the report is drawn from the second marginal).  For distributions on
the real line the optimum is attained by a quantile coupling -- comonotonic
or antitonic, as declared by the score -- so the closed-form engine is a
single pass over paired quantiles:

* comonotonic:  integral over u of  S(Q2(u),   Q1(u))
* antitonic:    integral over u of  S(Q2(1-u), Q1(u))

Each integral is one :class:`~mkdiv.numerics.Rule`.  Two empirical laws of
any sizes n1 and n2 have step quantile functions, so their rule is exact: an
O(n1 + n2) sum over the merged breakpoints {k/n1} and {j/n2}; every other
input is on the midpoint rule.  :func:`oracle_optimal` independently solves
the finite problem to optimality (assignment problem for equal weights,
linear programming on the transport polytope otherwise) so the closed form
can be certified instance by instance.  Certification compares optimal
values; the oracle's matching is an optimal permutation, whichever one the
solver finds among tied optima.  The oracle imports ``scipy.optimize`` on its
first call, so a process that never certifies does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, Empirical, from_samples
from .errors import CapacityError, DomainError, EvaluationError, MomentError
from .numerics import (
    _DEFAULT_DELTA,
    _DEFAULT_M,
    Rule,
    _check_tolerance,
    midpoint_rule,
    pairwise_mean,
    pairwise_sum,
)
from .scores import COMONOTONIC, Score

__all__ = [
    "CouplingReport",
    "mk_divergence",
    "wasserstein_p",
    "oracle_optimal",
    "coupling_value",
    "comonotonic_matching",
    "antitonic_matching",
    "certify_optimal_coupling",
    "CertificationResult",
]

_MAX_ORACLE = 64


@dataclass(frozen=True, eq=False)
class CouplingReport:
    """Exact solution of a finite transport instance.

    ``matching`` is a permutation array for the equal-weight assignment path
    and a tuple of ``(i, j, mass)`` entries for the general-weight plan.
    For a plan, :func:`oracle_optimal` validates that marginals are met to
    1e-12 and that ``value`` is the plan-weighted cost sum to the same
    tolerance before it builds the report; construction itself checks
    nothing.
    """

    value: float
    matching: object
    method: str  # "assignment" | "lp"


def comonotonic_matching(atoms1, atoms2) -> np.ndarray:
    """Permutation pairing the k-th smallest atoms of both lists."""
    a = np.asarray(atoms1, dtype=float)
    b = np.asarray(atoms2, dtype=float)
    if a.size != b.size:
        raise DomainError("matchings need equally many atoms on both sides")
    sigma = np.empty(a.size, dtype=int)
    sigma[np.argsort(a, kind="stable")] = np.argsort(b, kind="stable")
    return sigma


def antitonic_matching(atoms1, atoms2) -> np.ndarray:
    """Permutation pairing the k-th smallest of one list with the k-th
    largest of the other."""
    a = np.asarray(atoms1, dtype=float)
    b = np.asarray(atoms2, dtype=float)
    if a.size != b.size:
        raise DomainError("matchings need equally many atoms on both sides")
    sigma = np.empty(a.size, dtype=int)
    sigma[np.argsort(a, kind="stable")] = np.argsort(b, kind="stable")[::-1]
    return sigma


def coupling_value(score: Score, atoms1, atoms2, matching) -> float:
    """Average cost of a candidate permutation coupling:
    mean over i of S(atoms2[sigma(i)], atoms1[i])."""
    a = np.asarray(atoms1, dtype=float)
    b = np.asarray(atoms2, dtype=float)
    sigma = np.asarray(matching, dtype=int)
    if a.size != b.size or sigma.size != a.size:
        raise DomainError("coupling_value needs equal-length atoms and matching")
    if np.any(np.sort(sigma) != np.arange(a.size)):
        raise DomainError("matching is not a permutation")
    return pairwise_mean(np.asarray(score(b[sigma], a)))


def _paired_quantiles(f1: Distribution, f2: Distribution, coupling: str, m: int, delta: float):
    """Paired quantiles ``(q1, q2, rule)`` of two laws.

    Cell k of ``rule`` pairs Q1(u) with Q2(u), or with Q2(1 - u) when
    antitonic, at its midpoint level u.  Two empirical laws are paired
    exactly on the merged breakpoints {k/n1} and {j/n2}, in cells of
    1/lcm(n1, n2); any other pair on the m-node midpoint grid.
    """
    if isinstance(f1, Empirical) and isinstance(f2, Empirical):
        total = math.lcm(f1.n, f2.n)
        step1, step2 = total // f1.n, total // f2.n
        cuts = np.union1d(np.arange(f1.n) * step1, np.arange(f2.n) * step2)
        counts = np.diff(cuts, append=total)
        # Q2(1 - u) for u between c and c + count is Q2 between L - c - count and L - c
        second = cuts if coupling == COMONOTONIC else total - cuts - counts
        return f1.values[cuts // step1], f2.values[second // step2], Rule(counts, total)
    rule = midpoint_rule(m, delta)
    u = rule.u
    return f1.quantile(u), f2.quantile(u if coupling == COMONOTONIC else 1.0 - u), rule


def mk_divergence(
    score: Score,
    f1: Distribution,
    f2: Distribution,
    m: int = _DEFAULT_M,
    delta: float = _DEFAULT_DELTA,
) -> float:
    """Divergence from ``f1`` to ``f2`` via the score's claimed coupling.

    Two empirical inputs are evaluated exactly at any sizes, on the merged
    breakpoints of their step quantile functions; ``m`` sets the midpoint
    grid (``delta`` is only checked against it) for all other inputs and
    does not affect empirical pairs.  The result is non-negative; finite
    negative float dust from cancellation is clamped to zero.  A NaN or -inf
    sum, as from an overflowing score, raises :class:`MomentError`.  A domain
    violation of the score propagates with the u-node of the entry its check
    rejected.
    """
    q1, q2, rule = _paired_quantiles(f1, f2, score.coupling, m, delta)
    try:
        vals = np.asarray(score(q2, q1))
    except DomainError as exc:
        node = float("nan") if exc.index is None else float(rule.u[exc.index])
        raise DomainError(f"{exc} (first offending grid node: u={node})", index=exc.index) from exc
    value = rule.integrate(vals)
    if math.isnan(value) or value == -math.inf:
        raise MomentError(f"divergence is undefined: the score values sum to {value}")
    return value if value > 0.0 else 0.0


def wasserstein_p(
    f1: Distribution,
    f2: Distribution,
    p: float = 2.0,
    m: int = _DEFAULT_M,
    delta: float = _DEFAULT_DELTA,
) -> float:
    """p-Wasserstein distance via the quantile representation
    (int |Q1 - Q2|^p du)^(1/p); exact on two empirical inputs of any sizes,
    to which ``m`` and ``delta`` do not apply.  A NaN sum, as from two
    quantiles that overflow to the same infinity, raises :class:`MomentError`."""
    if p < 1.0:
        raise DomainError(f"wasserstein order must satisfy p >= 1, got {p}")
    q1, q2, rule = _paired_quantiles(f1, f2, COMONOTONIC, m, delta)
    value = rule.integrate(np.abs(q1 - q2) ** p)
    if math.isnan(value):
        raise MomentError("wasserstein distance is undefined: the |Q1 - Q2|^p values sum to nan")
    return float(value ** (1.0 / p))


def _cost_matrix(score: Score, atoms1: np.ndarray, atoms2: np.ndarray) -> np.ndarray:
    # c(z1, z2) = S(z2, z1): rows follow atoms1, columns atoms2
    return np.asarray(score(atoms2[None, :], atoms1[:, None]), dtype=float)


def _repair_plan(support, w1: np.ndarray, w2: np.ndarray):
    """Re-solve flows exactly on an acyclic support by leaf elimination.

    Basic LP solutions live on a spanning forest, so masses are determined
    by the marginals; recomputing them removes solver slack and makes the
    marginal identity exact to float addition.
    """
    r1 = w1.astype(float).copy()
    r2 = w2.astype(float).copy()
    edges = {(int(i), int(j)) for i, j in support}
    masses = {}
    while edges:
        row_deg = {}
        col_deg = {}
        for i, j in edges:
            row_deg[i] = row_deg.get(i, 0) + 1
            col_deg[j] = col_deg.get(j, 0) + 1
        leaf = None
        for i, j in sorted(edges):
            if row_deg[i] == 1:
                leaf = (i, j, "row")
                break
            if col_deg[j] == 1:
                leaf = (i, j, "col")
                break
        if leaf is None:  # cycle: degenerate basis, give up on repair
            return None
        i, j, side = leaf
        mass = r1[i] if side == "row" else r2[j]
        masses[(i, j)] = mass
        r1[i] -= mass
        r2[j] -= mass
        edges.remove((i, j))
    return masses


def oracle_optimal(
    score: Score,
    atoms1,
    atoms2,
    weights1=None,
    weights2=None,
) -> CouplingReport:
    """Exact optimum of the finite transport problem.

    Equal-weight instances (no weights given, equal atom counts, n <= 64)
    are solved as a linear assignment problem; an optimal vertex of the
    doubly-stochastic polytope is a permutation, and the report's
    ``matching`` is an optimal permutation: which one, among tied optima,
    is up to the assignment solver.
    General weights are solved to optimality as a linear program on the
    transport polytope with deterministic pivoting, followed by an exact
    flow recomputation on the support.
    """
    from scipy.optimize import linear_sum_assignment  # loaded by the first oracle call

    a = np.asarray(atoms1, dtype=float)
    b = np.asarray(atoms2, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise DomainError("oracle needs non-empty 1-D atom lists")
    if weights1 is None and weights2 is None:
        if a.size != b.size:
            raise DomainError(
                "equal-weight oracle needs equally many atoms on both sides"
            )
        if a.size > _MAX_ORACLE:
            raise CapacityError(
                f"assignment oracle capped at n <= {_MAX_ORACLE}, got {a.size}"
            )
        cost = _cost_matrix(score, a, b)
        ri, ci = linear_sum_assignment(cost)
        sigma = np.empty(a.size, dtype=int)
        sigma[ri] = ci
        value = pairwise_sum(cost[np.arange(a.size), sigma]) / a.size
        return CouplingReport(value=value, matching=sigma, method="assignment")
    return _oracle_lp(score, a, b, weights1, weights2)


def _oracle_lp(score, a, b, weights1, weights2) -> CouplingReport:
    from scipy.optimize import linprog  # loaded by the first oracle call

    w1 = _checked_weights(weights1, a.size, "first")
    w2 = _checked_weights(weights2, b.size, "second")
    if a.size + b.size > _MAX_ORACLE:
        raise CapacityError(
            f"transport oracle capped at {_MAX_ORACLE} total support points, "
            f"got {a.size + b.size}"
        )
    cost = _cost_matrix(score, a, b)
    n1, n2 = cost.shape
    a_eq = np.zeros((n1 + n2, n1 * n2))
    for i in range(n1):
        a_eq[i, i * n2 : (i + 1) * n2] = 1.0
    for j in range(n2):
        a_eq[n1 + j, j::n2] = 1.0
    rhs = np.concatenate([w1, w2])
    sol = linprog(
        cost.ravel(), A_eq=a_eq, b_eq=rhs, bounds=(0.0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if not sol.success:
        raise EvaluationError(f"transport LP failed: {sol.message}")
    plan = sol.x.reshape(n1, n2)
    support = [(i, j) for i in range(n1) for j in range(n2) if plan[i, j] > 1e-12]
    repaired = _repair_plan(support, w1, w2)
    if repaired is not None:
        entries = tuple(
            (i, j, float(mass)) for (i, j), mass in sorted(repaired.items()) if mass != 0.0
        )
    else:
        entries = tuple(
            (i, j, float(plan[i, j])) for i, j in support
        )
    value = pairwise_sum([mass * cost[i, j] for i, j, mass in entries])
    _validate_plan_report(cost, entries, w1, w2, value)
    return CouplingReport(value=value, matching=entries, method="lp")


def _checked_weights(w, n, which) -> np.ndarray:
    if w is None:
        return np.full(n, 1.0 / n)
    arr = np.asarray(w, dtype=float)
    if arr.size != n:
        raise DomainError(f"{which} weight vector length mismatch")
    if np.any(arr < 0.0):
        raise DomainError(f"{which} weights must be non-negative")
    if abs(pairwise_sum(arr) - 1.0) > 1e-9:
        raise DomainError(f"{which} weights must sum to one")
    return arr


def _validate_plan_report(cost, entries, w1, w2, value):
    row = np.zeros(w1.size)
    col = np.zeros(w2.size)
    total = 0.0
    for i, j, mass in entries:
        row[i] += mass
        col[j] += mass
        total += mass * cost[i, j]
    if np.max(np.abs(row - w1)) > 1e-12 or np.max(np.abs(col - w2)) > 1e-12:
        raise EvaluationError("transport plan violates the marginal constraints")
    if abs(total - value) > 1e-12 * (1.0 + abs(value)):
        raise EvaluationError("coupling report value inconsistent with plan")


@dataclass(frozen=True)
class CertificationResult:
    """Aggregate of a randomized closed-form-vs-oracle certification run."""

    score: str
    coupling: str
    instances: int
    n_range: tuple
    seed: int
    max_deviation: float
    max_matching_gap: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            self.max_deviation <= self.tolerance
            and self.max_matching_gap <= self.tolerance
        )

    def to_json_dict(self) -> dict:
        return {
            "score": self.score,
            "coupling": self.coupling,
            "instances": self.instances,
            "n_min": self.n_range[0],
            "n_max": self.n_range[1],
            "seed": self.seed,
            "max_deviation": self.max_deviation,
            "max_matching_gap": self.max_matching_gap,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _certify_instance(score: Score, seed: int, k: int, n_min: int, n_max: int):
    """One seeded instance; the sub-stream is keyed by (seed, k) so results
    do not depend on execution order."""
    rng = np.random.default_rng([seed, k])
    n = int(rng.integers(n_min, n_max + 1))
    lo, hi = score.atom_interval
    a = rng.uniform(lo, hi, n)
    b = rng.uniform(lo, hi, n)
    closed = mk_divergence(score, from_samples(a), from_samples(b))
    report = oracle_optimal(score, a, b)
    scale = 1.0 + abs(report.value)
    deviation = abs(closed - report.value) / scale
    if score.coupling == COMONOTONIC:
        sigma = comonotonic_matching(a, b)
    else:
        sigma = antitonic_matching(a, b)
    gap = abs(coupling_value(score, a, b, sigma) - report.value) / scale
    return deviation, gap


def certify_optimal_coupling(
    score: Score,
    instances: int = 100,
    n_min: int = 2,
    n_max: int = 8,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> CertificationResult:
    """Randomized certification that the claimed quantile coupling is optimal.

    Draws ``instances`` equal-weight instances (sizes uniform on
    [n_min, n_max], atoms uniform on the score's sampling interval, PCG64
    streams keyed by (seed, instance)), and compares the closed-form value
    and the sorted matching against the exact oracle.  Aggregation is a
    maximum, hence independent of execution order.
    """
    if instances < 1:
        raise DomainError("certification needs at least one instance")
    _check_tolerance("certification", tolerance=tolerance)
    if not 2 <= n_min <= n_max <= _MAX_ORACLE:
        raise DomainError(f"instance sizes must satisfy 2 <= n_min <= n_max <= {_MAX_ORACLE}")
    results = [_certify_instance(score, seed, k, n_min, n_max) for k in range(instances)]
    max_dev = max(r[0] for r in results)
    max_gap = max(r[1] for r in results)
    return CertificationResult(
        score=score.describe(),
        coupling=score.coupling,
        instances=instances,
        n_range=(n_min, n_max),
        seed=seed,
        max_deviation=float(max_dev),
        max_matching_gap=float(max_gap),
        tolerance=tolerance,
    )
