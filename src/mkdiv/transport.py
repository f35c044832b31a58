"""Transport divergences from scoring costs, and an exact discrete oracle.

The divergence induced by a score ``S`` between cdfs ``F1`` and ``F2`` is the
optimal-transport value with cost ``c(z1, z2) = S(z2, z1)`` (note the argument
swap: the report is drawn from the second marginal).  For distributions on
the real line the optimum is attained by a quantile coupling -- comonotonic
or antitonic, as declared by the score -- so the closed-form engine is a
single pass over paired quantiles:

* comonotonic:  integral over u of  S(Q2(u),   Q1(u))
* antitonic:    integral over u of  S(Q2(1-u), Q1(u))

Each integral is one :class:`~mkdiv.numerics.Rule` over sorted atoms, read
as step quantile functions: lists of n atoms pair cell by cell, and lists of
n1 != n2 atoms in an O(n1 + n2) sum over the merged breakpoints {k/n1} and
{j/n2}, so an empirical side is always exact.  One closed form integrates a
pair of laws or a stack of atom-list pairs.  :func:`oracle_optimal`
independently solves the finite problem to optimality so the closed form can
be certified instance by instance: equal weights on n <= 8 atoms by dynamic
programming over column subsets, on 9 to 64 atoms by scipy's
``linear_sum_assignment``, and general weights by linear programming on the
transport polytope (HiGHS, with presolve off: on these small dense LPs it
only costs time).  A missing weight vector is uniform, at any sizes, so two
weightless lists of unequal sizes go to the linear program.  Certification
compares the two in chunks of 256 instances, one batch per instance size in
each: one closed form on the stacked atoms and one stack of cost matrices for
the oracle.  Only ``linear_sum_assignment`` and the linear program import
``scipy.optimize``, so a process that certifies only instances of at most 8
atoms, as a default ``verify`` does, never loads it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, _sorted_sample
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
# instances certified at a time: at n = 64 a chunk's cost stack is 8 MiB
_CERTIFY_CHUNK = 256


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
    not 1-D, a matching that is not a 1-D integer array holding a
    permutation, or a non-finite atom or cost, raises :class:`DomainError`."""
    a = _checked_atoms(atoms1, "first")
    b = _checked_atoms(atoms2, "second")
    sigma = np.asarray(matching)
    if a.size != b.size or sigma.size != a.size:
        raise DomainError("coupling_value needs equal-length atoms and matching")
    if (sigma.ndim != 1 or not np.issubdtype(sigma.dtype, np.integer)
            or np.any(np.sort(sigma) != np.arange(a.size))):
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


def _paired_quantiles(q1: np.ndarray, q2: np.ndarray, coupling: str):
    """Paired atoms ``(q1, q2, rule)`` of sorted atom lists, one list or a
    stack of them along the last axis: cell k of ``rule`` pairs Q1(u) with
    Q2(u), or when antitonic with Q2(1 - u), the reversed list, at its level
    u.  Lists of n atoms pair cell by cell, lists of n1 != n2 atoms on the
    merged breakpoints {k/n1} and {j/n2}, in cells of 1/lcm(n1, n2)."""
    q2 = q2 if coupling == COMONOTONIC else q2[..., ::-1]
    n1, n2 = q1.shape[-1], q2.shape[-1]
    if n1 == n2:
        return q1, q2, Rule(None, n1)
    total = math.lcm(n1, n2)
    step1, step2 = total // n1, total // n2
    cuts = np.union1d(np.arange(n1) * step1, np.arange(n2) * step2)
    return q1[..., cuts // step1], q2[..., cuts // step2], Rule(np.diff(cuts, append=total), total)


def mk_divergence(
    score: Score,
    f1: Distribution,
    f2: Distribution,
    m: int = _DEFAULT_M,
    delta: float = _DEFAULT_DELTA,
) -> float:
    """Divergence from ``f1`` to ``f2`` via the score's claimed coupling.

    One rule serves every pair: it pairs both laws' atoms as step quantile
    functions, so a pair is exact on each empirical side, at any sizes.  Each
    law checks the midpoint grid ``(m, delta)``, whose m nodes are a
    parametric law's atoms; an empirical law's atoms are its sample.  The
    result is non-negative; finite negative float dust from cancellation is
    clamped to zero.  A NaN or -inf sum, as from an overflowing score, raises
    :class:`MomentError`.  A domain violation of the score propagates with the
    u-node of the entry its check rejected.
    """
    return float(_closed_form(score, f1.atoms(m, delta), f2.atoms(m, delta)))


def _closed_form(score: Score, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """:func:`mk_divergence` of sorted atom lists ``q1`` to ``q2``, or of each
    pair in stacks of them along the last axis, in one score call."""
    q1, q2, rule = _paired_quantiles(q1, q2, score.coupling)
    try:
        vals = np.asarray(score(q2, q1))
    except DomainError as exc:
        node = float("nan") if exc.index is None else float(rule.u[exc.index % q1.shape[-1]])
        raise DomainError(f"{exc} (first offending grid node: u={node})", index=exc.index) from exc
    value = np.asarray(rule.integrate(vals))
    undefined = np.isnan(value) | (value == -np.inf)
    if undefined.any():
        raise MomentError(f"divergence is undefined: the score values sum to {value[undefined][0]}")
    return np.where(value > 0.0, value, 0.0)


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
    the grid ``(m, delta)`` checked on each law and setting a parametric
    law's atoms.  A NaN sum, as from two quantiles that overflow to the same
    infinity, raises :class:`MomentError`.
    When the integral overflows but every gap is finite, it is taken again on
    the gaps divided by the largest one, which then scales the root."""
    if not (p >= 1.0 and math.isfinite(p)):
        raise DomainError(f"wasserstein order must be a finite p >= 1, got {p}")
    q1, q2, rule = _paired_quantiles(f1.atoms(m, delta), f2.atoms(m, delta), COMONOTONIC)
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

    A missing weight vector is uniform, at any sizes.  Equal-weight
    instances (no weights given, equal atom counts, n <= 64) are solved as
    a linear assignment problem; an optimal vertex of the
    doubly-stochastic polytope is a permutation sigma, and the report's
    ``plan`` is ``(arange(n), sigma, 1/n)``.  Sigma is found by
    :func:`_optimal_assignments`, on which certification batches run too:
    up to n = 8 atoms by :func:`_assignment_dp`, which on ties takes the
    first argmin column for each subset of columns; from 9 atoms on by
    scipy's ``linear_sum_assignment``, which picks among tied optima as it
    will.
    Either way ``value`` is the pairwise mean of the matched costs.
    Every other instance (weights given, or atom counts that differ; at most
    64 atoms in all) is solved to optimality as a linear program on the
    transport polytope with deterministic pivoting, followed by an exact
    flow recomputation on the support (:func:`_leaf_elimination`); that
    support with its masses is the ``plan``.  HiGHS runs with presolve off,
    which on these LPs of at most 1,024 variables only costs time; a
    solve that fails so is tried again with presolve on, as the two fail on
    different instances.
    A non-finite atom or weight, a weight total more than 1e-13 from one, or a
    cost that overflows, raises :class:`DomainError`; an LP plan whose support
    has a cycle, or whose recomputed marginals miss the weights by more than
    1e-12, raises :class:`EvaluationError`.  Weights spanning many orders of
    magnitude hit that limit: with Dirichlet(0.1) weights (entries down to
    1e-28) on up to 32 atoms a side, 66 of 200 seeded instances fail the
    marginal check or are reported infeasible by the solver (78 with presolve
    on alone, 88 with it off alone).
    """
    a = _checked_atoms(atoms1, "first")
    b = _checked_atoms(atoms2, "second")
    if a.size == 0 or b.size == 0:
        raise DomainError("oracle needs non-empty 1-D atom lists")
    if weights1 is None and weights2 is None and a.size == b.size:
        if a.size > _MAX_ORACLE:
            raise CapacityError(
                f"assignment oracle capped at n <= {_MAX_ORACLE}, got {a.size}"
            )
        cost = _transport_cost(score, a[None, :, None], b[None, None, :])
        sigma, value = _optimal_assignments(cost)
        plan = (np.arange(a.size), sigma[0], np.full(a.size, 1.0 / a.size))
        return CouplingReport(value=float(value[0]), plan=plan, method="assignment")
    return _oracle_lp(score, a, b, weights1, weights2)


def _optimal_assignments(cost: np.ndarray) -> tuple:
    """Optimal permutations and values of a stack of B square n x n cost
    matrices, ``(sigma, value)`` of shapes (B, n) and (B,).

    Up to n = 8 one :func:`_assignment_dp` solves the whole stack; from 9
    atoms on scipy's ``linear_sum_assignment`` solves each slice.  ``value[b]``
    is the pairwise mean of the costs slice b matches."""
    n = cost.shape[1]
    if n <= _MAX_DP:
        sigma = _assignment_dp(cost)
    else:
        from scipy.optimize import linear_sum_assignment  # loaded by the first such call

        sigma = np.empty(cost.shape[:2], dtype=int)
        for perm, c in zip(sigma, cost):
            ri, ci = linear_sum_assignment(c)
            perm[ri] = ci
    matched = cost[np.arange(cost.shape[0])[:, None], np.arange(n), sigma]
    return sigma, pairwise_sum(matched) / n


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
    """Optimal permutation of each square n x n matrix in ``cost`` (any
    leading batch axes) by dynamic programming over column subsets (Bellman,
    1962; Held and Karp, 1962).

    ``best[mask]`` is the least row-order sum C[0, s_0] + ... + C[i, s_i] over
    the assignments of rows 0..i to the i + 1 columns of ``mask``:
    ``best[mask] = min over j in mask of best[mask - j] + C[i, j]``, one
    step per row for the whole batch, then one backtrack from the full mask.
    Float addition is monotone, so this is the exact least row-order float
    sum over all n! permutations.  On ties each subset takes its first argmin
    column.  Time and memory grow as B n 2^n for B matrices.
    """
    n = cost.shape[-1]
    stack = cost.reshape(-1, n, n)
    batch = np.arange(stack.shape[0])
    best = np.empty((batch.size, 1 << n))
    best[:, 0] = 0.0
    choice = np.empty((batch.size, 1 << n), dtype=int)
    for i, (masks, cols, prev) in enumerate(_subset_layers(n)):
        vals = best[:, prev] + stack[:, i, cols]
        best[:, masks] = vals.min(axis=2)
        choice[:, masks] = cols[np.arange(masks.size), np.argmin(vals, axis=2)]
    sigma = np.empty((batch.size, n), dtype=int)
    mask = np.full(batch.size, (1 << n) - 1)
    for i in range(n - 1, -1, -1):
        sigma[:, i] = choice[batch, mask]
        mask ^= 1 << sigma[:, i]
    return sigma.reshape(cost.shape[:-1])


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
    # HiGHS presolve only costs time on this LP, but the plans it fails on
    # differ with and without it, so a failed solve is tried again with it
    for presolve in (False, True):
        sol = linprog(
            cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([w1, w2]), bounds=(0.0, None),
            method="highs",
            options={"presolve": presolve, "primal_feasibility_tolerance": 1e-10,
                     "dual_feasibility_tolerance": 1e-10},
        )
        try:
            return _lp_report(sol, cost, w1, w2)
        except EvaluationError:
            if presolve:
                raise


def _lp_report(sol, cost, w1, w2) -> CouplingReport:
    """The report of a ``linprog`` result: its support (entries above 1e-12)
    with the masses :func:`_leaf_elimination` recomputes, checked against the
    marginals to 1e-12."""
    if not sol.success:
        raise EvaluationError(f"transport LP failed: {sol.message}")
    n1, n2 = cost.shape
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

    Live degrees are counted per row and column, and a set holds the live
    edges that are leaves: an edge stays a leaf until it is settled, and
    settling one can make a leaf only of the last live edge of its row or
    column, so no step recounts a degree.
    """
    r1, r2 = w1.tolist(), w2.tolist()
    rows, cols = rows.tolist(), cols.tolist()
    row_edges, col_edges = [[] for _ in r1], [[] for _ in r2]
    for k, (i, j) in enumerate(zip(rows, cols)):
        row_edges[i].append(k)
        col_edges[j].append(k)
    row_deg, col_deg = [len(e) for e in row_edges], [len(e) for e in col_edges]
    live = [True] * len(rows)
    leaves = {k for k, (i, j) in enumerate(zip(rows, cols)) if row_deg[i] == 1 or col_deg[j] == 1}
    mass = np.empty(len(rows))
    for _ in range(len(rows)):
        if not leaves:
            raise EvaluationError("transport plan support has a cycle")
        k = min(leaves)
        leaves.remove(k)
        i, j = rows[k], cols[k]
        mass[k] = settled = r1[i] if row_deg[i] == 1 else r2[j]
        r1[i] -= settled
        r2[j] -= settled
        live[k] = False
        row_deg[i] -= 1
        col_deg[j] -= 1
        for deg, edges in ((row_deg[i], row_edges[i]), (col_deg[j], col_edges[j])):
            if deg == 1:
                leaves.add(next(e for e in edges if live[e]))
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


def _draw_instance(score: Score, seed: int, k: int, n_min: int, n_max: int) -> tuple:
    """Atom lists of instance k; its sub-stream is keyed by (seed, k), so the
    draws do not depend on execution order."""
    rng = np.random.default_rng([seed, k])
    n = int(rng.integers(n_min, n_max + 1))
    lo, hi = score.atom_interval
    return rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)


def _batch_deviations(score: Score, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Relative deviations of the closed form from the oracle on the row pairs
    of the (B, n) stacks ``a`` and ``b``, bit for bit those of :func:`mk_divergence`
    on their empirical laws, whose sort orders the rows, and of
    :func:`oracle_optimal`; with B = 1 an error is theirs too."""
    closed = _closed_form(score, _sorted_sample(a), _sorted_sample(b))
    _, optimum = _optimal_assignments(_transport_cost(score, a[:, :, None], b[:, None, :]))
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, as in float arithmetic
        return np.abs(closed - optimum) / (1.0 + np.abs(optimum))


def _chunk_deviations(score: Score, seed: int, ks: range, n_min: int, n_max: int) -> list:
    """Deviations of the instances ``ks``, in draw order, one batch per
    size.  If a batch raises :class:`DomainError` or :class:`MomentError`,
    the instances are rerun one at a time in draw order, as batches of one,
    so that the error is the first failing instance's own."""
    draws = [_draw_instance(score, seed, k, n_min, n_max) for k in ks]
    by_size = {}
    for i, (a, _) in enumerate(draws):
        by_size.setdefault(a.size, []).append(i)
    deviation = np.empty(len(draws))
    try:
        for rows in by_size.values():
            a, b = (np.array(side) for side in zip(*(draws[i] for i in rows)))
            deviation[rows] = _batch_deviations(score, a, b)
    except (DomainError, MomentError):
        for a, b in draws:
            _batch_deviations(score, a[None], b[None])
        raise
    return deviation.tolist()


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

    The instances are drawn in chunks of ``_CERTIFY_CHUNK``, in draw order,
    and each chunk is solved by :func:`_batch_deviations`, one batch per size
    n, which holds B n^2 costs (and up to n = 8, B 2^n dynamic-program
    entries): memory is bounded by the chunk, 8 MiB of costs at n = 64,
    whatever ``instances`` is.  A chunk that fails is rerun in draw order as
    batches of one; every earlier chunk has passed, so the error is the one
    :func:`mk_divergence` or :func:`oracle_optimal` raises on the first
    failing instance.
    """
    _check_count("certification", 1, instances=instances)
    _check_count("certification", 0, n_min=n_min, n_max=n_max, seed=seed)
    _check_tolerance("certification", tolerance=tolerance)
    if not 2 <= n_min <= n_max <= _MAX_ORACLE:
        raise DomainError(f"instance sizes must satisfy 2 <= n_min <= n_max <= {_MAX_ORACLE}")
    chunks = (_chunk_deviations(score, seed, range(k, min(k + _CERTIFY_CHUNK, instances)),
                                n_min, n_max)
              for k in range(0, instances, _CERTIFY_CHUNK))
    # Python's max over draw order: np.max would take any NaN
    max_dev = max(itertools.chain.from_iterable(chunks))
    return CertificationResult(max_deviation=max_dev, passed=max_dev <= tolerance)
