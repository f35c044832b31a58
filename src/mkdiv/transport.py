"""Transport divergences from scoring costs, and an exact discrete oracle.

The divergence induced by a score ``S`` between cdfs ``F1`` and ``F2`` is the
optimal-transport value with cost ``c(z1, z2) = S(z2, z1)`` (note the argument
swap: the report is drawn from the second marginal).  For distributions on
the real line the optimum is attained by a quantile coupling -- comonotonic
or antitonic, as declared by the score -- so the closed-form engine is a
single pass over the u-grid:

* comonotonic:  mean over u of  S(Q2(u),   Q1(u))
* antitonic:    mean over u of  S(Q2(1-u), Q1(u))

Empirical inputs with equal atom counts bypass the grid and pair sorted
atoms directly, which is exact.  :func:`oracle_optimal` independently solves
the finite problem to optimality (assignment problem for equal weights,
linear programming on the transport polytope otherwise) so the closed form
can be certified instance by instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

from .distributions import Distribution, Empirical, from_samples
from .errors import CapacityError, DomainError, EvaluationError
from .numerics import first_outside, midpoint_u, pairwise_mean, pairwise_sum
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
    Construction validates that marginals are met to 1e-12 and that ``value``
    is the plan-weighted cost sum to the same tolerance.
    """

    value: float
    matching: object
    method: str  # "assignment" | "lp" | "closed_form"


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


def _first_offending_u(score: Score, q1, q2, u) -> float:
    # infinite nodes count as offending even on an unbounded side of a domain
    bad = np.isinf(q1) | np.isinf(q2)
    for q, domain in ((q2, score.z_domain), (q1, score.y_domain)):
        k = first_outside(q, domain)
        if k is not None:
            bad[k] = True
    idx = np.flatnonzero(bad)
    return float(u[idx[0]]) if idx.size else float("nan")


def mk_divergence(
    score: Score,
    f1: Distribution,
    f2: Distribution,
    m: int = 10_000,
    delta: float = 1e-7,
) -> float:
    """Divergence from ``f1`` to ``f2`` via the score's claimed coupling.

    Equal-size empirical pairs are evaluated exactly on sorted atoms; all
    other inputs go through the shared midpoint grid.  The result is
    non-negative; negative float dust from cancellation is clamped to zero.
    Domain violations of the score propagate with the offending u-node.
    """
    if isinstance(f1, Empirical) and isinstance(f2, Empirical) and f1.n == f2.n:
        u = midpoint_u(f1.n)
        q1 = f1.values
        q2 = f2.values if score.coupling == COMONOTONIC else f2.values[::-1]
    else:
        if m < 2:
            raise DomainError(f"grid evaluation needs m >= 2, got {m}")
        u = midpoint_u(m, delta)
        q1 = f1.quantile(u)
        q2 = f2.quantile(u if score.coupling == COMONOTONIC else 1.0 - u)
    try:
        vals = np.asarray(score(q2, q1))
    except DomainError as exc:
        raise DomainError(
            f"{exc} (first offending grid node: u={_first_offending_u(score, q1, q2, u)})"
        ) from exc
    value = pairwise_mean(vals)
    return value if value > 0.0 else 0.0


def wasserstein_p(
    f1: Distribution,
    f2: Distribution,
    p: float = 2.0,
    m: int = 10_000,
    delta: float = 1e-7,
) -> float:
    """p-Wasserstein distance via the quantile representation
    (int |Q1 - Q2|^p du)^(1/p); exact on equal-size empirical pairs."""
    if p < 1.0:
        raise DomainError(f"wasserstein order must satisfy p >= 1, got {p}")
    if isinstance(f1, Empirical) and isinstance(f2, Empirical) and f1.n == f2.n:
        q1, q2 = f1.values, f2.values
    else:
        if m < 2:
            raise DomainError(f"grid evaluation needs m >= 2, got {m}")
        u = midpoint_u(m, delta)
        q1, q2 = f1.quantile(u), f2.quantile(u)
    return float(pairwise_mean(np.abs(q1 - q2) ** p) ** (1.0 / p))


def _cost_matrix(score: Score, atoms1: np.ndarray, atoms2: np.ndarray) -> np.ndarray:
    # c(z1, z2) = S(z2, z1): rows follow atoms1, columns atoms2
    return np.asarray(score(atoms2[None, :], atoms1[:, None]), dtype=float)


def _lexicographic_refine(cost: np.ndarray, optimum: float) -> np.ndarray:
    """Lexicographically smallest permutation attaining ``optimum``.

    Fixes rows in order; for each row takes the smallest column whose best
    completion still meets the optimum (up to float-noise tolerance).
    """
    n = cost.shape[0]
    tol = 1e-10 * (1.0 + abs(optimum))
    rows = list(range(n))
    cols = list(range(n))
    sigma = np.empty(n, dtype=int)
    remaining = optimum
    for i in rows:
        chosen = None
        for j in cols:
            rest_cols = [c for c in cols if c != j]
            rest_rows = [r for r in rows if r > i]
            if rest_rows:
                sub = cost[np.ix_(rest_rows, rest_cols)]
                ri, ci = linear_sum_assignment(sub)
                completion = cost[i, j] + float(sub[ri, ci].sum())
            else:
                completion = cost[i, j]
            if completion <= remaining + tol:
                chosen = j
                break
        if chosen is None:  # numerically impossible, guards float drift
            raise EvaluationError("lexicographic refinement lost the optimum")
        sigma[i] = chosen
        cols.remove(chosen)
        remaining -= cost[i, chosen]
    return sigma


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
    lexicographic: bool = True,
) -> CouplingReport:
    """Exact optimum of the finite transport problem.

    Equal-weight instances (no weights given, equal atom counts, n <= 64)
    are solved as a linear assignment problem; an optimal vertex of the
    doubly-stochastic polytope is a permutation.  Ties break toward the
    lexicographically smallest permutation unless ``lexicographic=False``.
    General weights are solved to optimality as a linear program on the
    transport polytope with deterministic pivoting, followed by an exact
    flow recomputation on the support.
    """
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
        optimum = float(cost[ri, ci].sum())
        if lexicographic:
            sigma = _lexicographic_refine(cost, optimum)
        value = pairwise_sum(cost[np.arange(a.size), sigma]) / a.size
        _validate_permutation_report(cost, sigma, value)
        return CouplingReport(value=value, matching=sigma, method="assignment")
    return _oracle_lp(score, a, b, weights1, weights2)


def _oracle_lp(score, a, b, weights1, weights2) -> CouplingReport:
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
        cost.ravel(), A_eq=a_eq, b_eq=rhs, bounds=(0.0, None), method="highs"
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


def _validate_permutation_report(cost, sigma, value):
    n = cost.shape[0]
    recomputed = pairwise_sum(cost[np.arange(n), sigma]) / n
    if abs(recomputed - value) > 1e-12 * (1.0 + abs(value)):
        raise EvaluationError("coupling report value inconsistent with matching")


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
