"""Transport divergences from scoring costs, and an exact discrete oracle.

The divergence induced by a score ``S`` between cdfs ``F1`` and ``F2`` is the
optimal-transport value with cost ``c(z1, z2) = S(z2, z1)`` (note the argument
swap: the report is drawn from the second marginal).  For distributions on
the real line the optimum is attained by a quantile coupling -- comonotonic
or antitonic, as declared by the score -- so the closed-form engine is a
single pass over paired quantiles:

* comonotonic:  integral over u of  S(Q2(u),   Q1(u))
* antitonic:    integral over u of  S(Q2(1-u), Q1(u))

Each integral is one :class:`~mkdiv.numerics.Rule` over the laws' atoms, read
as step quantile functions: lists of n atoms pair cell by cell, and lists of
n1 != n2 atoms in an O(n1 + n2) sum over the merged breakpoints {k/n1} and
{j/n2}, so an empirical side is always exact.  :func:`oracle_optimal`
independently solves the finite problem to optimality so the closed form can
be certified instance by instance: equal weights on n <= 8 atoms by dynamic
programming over column subsets, on 9 to 64 atoms by scipy's
``linear_sum_assignment``, and general weights by linear programming on the
transport polytope (HiGHS).  Certification compares optimal values; an
equal-weight plan is an optimal permutation: on ties the dynamic program takes
the first argmin column for each subset, and ``linear_sum_assignment``
whichever optimum it finds.  Only the last two import ``scipy.optimize``, so a
process that certifies only instances of at most 8 atoms, as a default
``verify`` does, never loads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, from_samples
from .errors import CapacityError, DomainError, EvaluationError, MomentError
from .numerics import (
    _DEFAULT_DELTA,
    _DEFAULT_M,
    Rule,
    _check_count,
    _check_tolerance,
    pairwise_mean,
    pairwise_sum,
)
from .scores import ANTITONIC, COMONOTONIC, Score, _transport_cost

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
# the largest equal-weight instance solved by _assignment_dp: its n 2^n
# steps cost far less than importing scipy.optimize for linear_sum_assignment,
# and it is verify's default --n, so a default verify loads no scipy
_MAX_DP = 8


@dataclass(frozen=True, eq=False)
class CouplingReport:
    """Exact solution of a finite transport instance.

    ``plan`` is the optimal coupling as three arrays ``(rows, cols, mass)``:
    entry k moves ``mass[k]`` from atom ``rows[k]`` of the first list to atom
    ``cols[k]`` of the second.  The assignment path reports
    ``(arange(n), sigma, 1/n)`` for an optimal permutation sigma, the LP path
    the support of its plan, whose marginals :func:`oracle_optimal` checks to
    1e-12 before it builds the report; construction itself checks nothing.
    """

    value: float
    plan: tuple  # (rows, cols, mass)
    method: str  # "assignment" | "lp"


def comonotonic_matching(atoms1, atoms2) -> np.ndarray:
    """Permutation pairing the k-th smallest atoms of both lists."""
    return _sorted_matching(atoms1, atoms2, COMONOTONIC)


def antitonic_matching(atoms1, atoms2) -> np.ndarray:
    """Permutation pairing the k-th smallest of one list with the k-th
    largest of the other."""
    return _sorted_matching(atoms1, atoms2, ANTITONIC)


def _sorted_matching(atoms1, atoms2, coupling: str) -> np.ndarray:
    """The permutation of ``coupling`` (comonotonic or antitonic) on sorted
    atoms; both lists must be 1-D, finite and equally long."""
    a = _checked_atoms(atoms1, "first")
    b = _checked_atoms(atoms2, "second")
    if a.size != b.size:
        raise DomainError("matchings need equally many atoms on both sides")
    order = np.argsort(b, kind="stable")
    sigma = np.empty(a.size, dtype=int)
    sigma[np.argsort(a, kind="stable")] = order if coupling == COMONOTONIC else order[::-1]
    return sigma


def coupling_value(score: Score, atoms1, atoms2, matching) -> float:
    """Average cost of a candidate permutation coupling:
    mean over i of S(atoms2[sigma(i)], atoms1[i]).  An atom list that is
    not 1-D, or a non-finite atom or cost, raises :class:`DomainError`."""
    a = _checked_atoms(atoms1, "first")
    b = _checked_atoms(atoms2, "second")
    sigma = np.asarray(matching, dtype=int)
    if a.size != b.size or sigma.size != a.size:
        raise DomainError("coupling_value needs equal-length atoms and matching")
    if np.any(np.sort(sigma) != np.arange(a.size)):
        raise DomainError("matching is not a permutation")
    return pairwise_mean(_transport_cost(score, a, b[sigma]))


def _checked_atoms(atoms, which) -> np.ndarray:
    x = np.asarray(atoms, dtype=float)
    if x.ndim != 1:
        raise DomainError(f"{which} atoms must form a 1-D list, got shape {x.shape}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        i = int(bad[0])
        raise DomainError(f"{which} atoms must be finite: atom {i} is {float(x[i])}")
    return x


def _paired_quantiles(f1: Distribution, f2: Distribution, coupling: str, m: int, delta: float):
    """Paired atoms ``(q1, q2, rule)``: cell k of ``rule`` pairs Q1(u) with
    Q2(u), or when antitonic with Q2(1 - u), the reversed list, at its level
    u.  Lists of n atoms pair cell by cell, lists of n1 != n2 atoms on the
    merged breakpoints {k/n1} and {j/n2}, in cells of 1/lcm(n1, n2)."""
    q1, q2 = f1.atoms(m, delta), f2.atoms(m, delta)
    q2 = q2 if coupling == COMONOTONIC else q2[::-1]
    if q1.size == q2.size:
        return q1, q2, Rule(None, q1.size)
    total = math.lcm(q1.size, q2.size)
    step1, step2 = total // q1.size, total // q2.size
    cuts = np.union1d(np.arange(q1.size) * step1, np.arange(q2.size) * step2)
    return q1[cuts // step1], q2[cuts // step2], Rule(np.diff(cuts, append=total), total)


def mk_divergence(
    score: Score,
    f1: Distribution,
    f2: Distribution,
    m: int = _DEFAULT_M,
    delta: float = _DEFAULT_DELTA,
) -> float:
    """Divergence from ``f1`` to ``f2`` via the score's claimed coupling.

    One rule serves every pair: it pairs both laws' atoms as step quantile
    functions, so a pair is exact on each empirical side, at any sizes.  ``m``
    sets a parametric law's atom count, its midpoint grid (``delta`` is only
    checked against it); an empirical law does not read it.  The result
    is non-negative; finite negative float dust from cancellation is clamped
    to zero.  A NaN or -inf sum, as from an overflowing score, raises
    :class:`MomentError`.  A domain violation of the score propagates with the
    u-node of the entry its check rejected.
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
    (int |Q1 - Q2|^p du)^(1/p), on the one pairing rule of
    :func:`mk_divergence`: exact on each empirical side, at any sizes, with
    ``m`` setting a parametric law's atom count.  A NaN sum, as from two
    quantiles that overflow to the same infinity, raises :class:`MomentError`.
    When the integral overflows but every gap is finite, it is taken again on
    the gaps divided by the largest one, which then scales the root."""
    if not (p >= 1.0 and math.isfinite(p)):
        raise DomainError(f"wasserstein order must be a finite p >= 1, got {p}")
    q1, q2, rule = _paired_quantiles(f1, f2, COMONOTONIC, m, delta)
    gaps = np.abs(q1 - q2)
    with np.errstate(over="ignore"):
        value = rule.integrate(gaps ** p)
    if math.isnan(value):
        raise MomentError("wasserstein distance is undefined: the |Q1 - Q2|^p values sum to nan")
    if value == math.inf and np.all(np.isfinite(gaps)):
        top = float(gaps.max())
        return float(top * rule.integrate((gaps / top) ** p) ** (1.0 / p))
    return float(value ** (1.0 / p))


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
    doubly-stochastic polytope is a permutation sigma, and the report's
    ``plan`` is ``(arange(n), sigma, 1/n)``.  Up to n = 8 atoms sigma is found
    by :func:`_assignment_dp`, which on ties takes the first argmin column
    for each subset of columns; from 9 atoms on by scipy's
    ``linear_sum_assignment``, which picks among tied optima as it will.
    Either way ``value`` is the pairwise mean of the matched costs.
    General weights are solved to optimality as a linear program on the
    transport polytope with deterministic pivoting, followed by an exact
    flow recomputation on the support (:func:`_leaf_elimination`); that
    support with its masses is the ``plan``.
    A non-finite atom or weight, a weight total more than 1e-13 from one, or a
    cost that overflows, raises :class:`DomainError`; an LP plan whose support
    has a cycle, or whose recomputed marginals miss the weights by more than
    1e-12, raises :class:`EvaluationError`.  Weights spanning many orders of
    magnitude hit that limit: with Dirichlet(0.1) weights (entries down to
    1e-28) on up to 32 atoms a side, about half of seeded instances fail the
    marginal check or are reported infeasible by the solver.
    """
    a = _checked_atoms(atoms1, "first")
    b = _checked_atoms(atoms2, "second")
    if a.size == 0 or b.size == 0:
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
        cost = _transport_cost(score, a[:, None], b[None, :])
        if a.size <= _MAX_DP:
            sigma = _assignment_dp(cost)
        else:
            from scipy.optimize import linear_sum_assignment  # loaded by the first such call

            ri, ci = linear_sum_assignment(cost)
            sigma = np.empty(a.size, dtype=int)
            sigma[ri] = ci
        rows = np.arange(a.size)
        value = pairwise_sum(cost[rows, sigma]) / a.size
        plan = (rows, sigma, np.full(a.size, 1.0 / a.size))
        return CouplingReport(value=value, plan=plan, method="assignment")
    return _oracle_lp(score, a, b, weights1, weights2)


@functools.lru_cache(maxsize=None)
def _subset_layers(n: int) -> tuple:
    """Per row i of an n x n assignment, the subsets of i + 1 columns as
    ``(masks, cols, prev)``: the ascending bit masks, each mask's columns in
    ascending order, and for each such column j the mask without j."""
    masks = np.arange(1, 1 << n)
    member = (masks[:, None] >> np.arange(n)) & 1 == 1
    size = member.sum(axis=1)
    layers = []
    for k in range(1, n + 1):
        layer = masks[size == k]
        cols = np.nonzero(member[size == k])[1].reshape(layer.size, k)
        prev = layer[:, None] ^ (1 << cols)
        for arr in (layer, cols, prev):
            arr.setflags(write=False)  # shared by every call
        layers.append((layer, cols, prev))
    return tuple(layers)


def _assignment_dp(cost: np.ndarray) -> np.ndarray:
    """Optimal permutation of the square ``cost`` matrix by dynamic programming
    over column subsets (Bellman, 1962; Held and Karp, 1962).

    ``best[mask]`` is the least row-order sum C[0, s_0] + ... + C[i, s_i] over
    the assignments of rows 0..i to the i + 1 columns of ``mask``:
    ``best[mask] = min over j in mask of best[mask - j] + C[i, j]``, one
    vectorised step per row, then backtracking from the full mask.  Float
    addition is monotone, so this is the exact least row-order float sum over
    all n! permutations.  On ties each subset takes its first argmin column.
    Time and memory grow as n 2^n.
    """
    n = cost.shape[0]
    best = np.empty(1 << n)
    best[0] = 0.0
    choice = np.empty(1 << n, dtype=int)
    for row, (masks, cols, prev) in zip(cost, _subset_layers(n)):
        vals = best[prev] + row[cols]
        first = np.argmin(vals, axis=1)
        pick = np.arange(masks.size)
        best[masks] = vals[pick, first]
        choice[masks] = cols[pick, first]
    sigma = np.empty(n, dtype=int)
    mask = (1 << n) - 1
    for i in range(n - 1, -1, -1):
        sigma[i] = choice[mask]
        mask ^= 1 << int(sigma[i])
    return sigma


def _oracle_lp(score, a, b, weights1, weights2) -> CouplingReport:
    from scipy.optimize import linprog  # loaded by the first weighted oracle call

    w1 = _checked_weights(weights1, a.size, "first")
    w2 = _checked_weights(weights2, b.size, "second")
    if a.size + b.size > _MAX_ORACLE:
        raise CapacityError(
            f"transport oracle capped at {_MAX_ORACLE} total support points, "
            f"got {a.size + b.size}"
        )
    cost = _transport_cost(score, a[:, None], b[None, :])
    n1, n2 = cost.shape
    # constraint row i sums plan row i, row n1 + j sums plan column j
    a_eq = np.vstack([np.repeat(np.eye(n1), n2, axis=1), np.tile(np.eye(n2), n1)])
    sol = linprog(
        cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([w1, w2]), bounds=(0.0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if not sol.success:
        raise EvaluationError(f"transport LP failed: {sol.message}")
    rows, cols = np.nonzero(sol.x.reshape(n1, n2) > 1e-12)
    mass = _leaf_elimination(rows, cols, w1, w2)
    keep = mass != 0.0
    rows, cols, mass = rows[keep], cols[keep], mass[keep]
    if (np.max(np.abs(np.bincount(rows, mass, n1) - w1)) > 1e-12
            or np.max(np.abs(np.bincount(cols, mass, n2) - w2)) > 1e-12):
        raise EvaluationError("transport plan violates the marginal constraints")
    value = pairwise_sum(mass * cost[rows, cols])
    return CouplingReport(value=value, plan=(rows, cols, mass), method="lp")


def _leaf_elimination(rows, cols, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Masses on the support edges ``(rows[k], cols[k])`` fixed by the
    marginals ``w1`` and ``w2``.

    A basic LP solution lives on a spanning forest, so its masses are
    determined by the marginals; recomputing them removes solver slack and
    makes the marginal identity exact to float addition.  Each step settles
    the first live edge, in the given order, whose row has no other live
    edge (it takes the row's remaining weight) or else whose column has none
    (it takes the column's).  A support with a cycle has no such edge and
    raises :class:`EvaluationError`.
    """
    r1, r2 = w1.copy(), w2.copy()
    mass = np.empty(rows.size)
    live = np.ones(rows.size, dtype=bool)
    for _ in range(rows.size):
        row_leaf = np.bincount(rows[live], minlength=r1.size)[rows] == 1
        col_leaf = np.bincount(cols[live], minlength=r2.size)[cols] == 1
        leaves = np.flatnonzero(live & (row_leaf | col_leaf))
        if leaves.size == 0:
            raise EvaluationError("transport plan support has a cycle")
        k = leaves[0]
        i, j = rows[k], cols[k]
        mass[k] = r1[i] if row_leaf[k] else r2[j]
        r1[i] -= mass[k]
        r2[j] -= mass[k]
        live[k] = False
    return mass


def _checked_weights(w, n, which) -> np.ndarray:
    if w is None:
        return np.full(n, 1.0 / n)
    arr = np.asarray(w, dtype=float)
    if arr.shape != (n,):
        raise DomainError(f"{which} weight vector length mismatch")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{which} weights must be finite")
    if np.any(arr < 0.0):
        raise DomainError(f"{which} weights must be non-negative")
    # a total further from one can fail the plan's 1e-12 marginal check
    total = pairwise_sum(arr)
    if abs(total - 1.0) > 1e-13:
        raise DomainError(f"{which} weights must sum to one within 1e-13, got {total!r}")
    return arr


@dataclass(frozen=True)
class CertificationResult:
    """Outcome of a randomized closed-form-vs-oracle certification run: the
    largest relative deviation, and whether it is within the tolerance."""

    max_deviation: float
    passed: bool


def _certify_instance(score: Score, seed: int, k: int, n_min: int, n_max: int) -> float:
    """Relative deviation of the closed form from the oracle on instance k; its
    sub-stream is keyed by (seed, k), so results do not depend on execution order."""
    rng = np.random.default_rng([seed, k])
    n = int(rng.integers(n_min, n_max + 1))
    lo, hi = score.atom_interval
    a = rng.uniform(lo, hi, n)
    b = rng.uniform(lo, hi, n)
    closed = mk_divergence(score, from_samples(a), from_samples(b))
    optimum = oracle_optimal(score, a, b).value
    return abs(closed - optimum) / (1.0 + abs(optimum))


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
    with the exact oracle's.  Aggregation is a maximum, hence independent of
    execution order; the run passes when it is at most ``tolerance``.
    """
    _check_count("certification", 1, instances=instances)
    _check_count("certification", 0, n_min=n_min, n_max=n_max, seed=seed)
    _check_tolerance("certification", tolerance=tolerance)
    if not 2 <= n_min <= n_max <= _MAX_ORACLE:
        raise DomainError(f"instance sizes must satisfy 2 <= n_min <= n_max <= {_MAX_ORACLE}")
    max_dev = max(_certify_instance(score, seed, k, n_min, n_max) for k in range(instances))
    return CertificationResult(max_deviation=max_dev, passed=max_dev <= tolerance)
