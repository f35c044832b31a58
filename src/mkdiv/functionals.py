"""Elicitable functionals: evaluation, expected-score minimisation, axioms.

Each functional evaluates on a :class:`~mkdiv.distributions.Distribution`.
The law readers :class:`Mean`, :class:`Quantile` and :class:`LambdaQuantile`
are exact on every law: they read its own mean, quantile, Q+ and cdf, and
no atoms, but check the grid ``(m, delta)`` by
:func:`~mkdiv.numerics.midpoint_rule`, so every functional rejects the same
grids.  The others, the atom functionals, are one kernel on rows of sorted
atoms, which ``evaluate`` runs on the law's ``atoms(m, delta)``; any law
gives those only for a valid grid: a parametric law's m grid nodes, an
empirical law's sample.  The expectile is solved exactly on the sorted
atoms, where its residual is piecewise linear; the shortfall of the
exponential loss is the entropic functional, that of the linear loss the
atoms' mean, and the power loss's root is found by Brent's method.

:func:`argmin_expected_score` provides the independent route to the same
quantities: minimising the expected score over reports.  The two routes are
compared in the test-suite for every functional/score pair of the catalog,
against the whole set :meth:`Functional.interval` gives: on atoms a quantile
or a lambda-quantile may be an interval, every point of which minimises.
Its report grid is refined level by level, each level a quarter of the
last one's stride inside the window around the last level's minimum: the
expected score of a strictly consistent score falls before the functional and
rises after it, so only the reports around a level's minimum can hold the
grid's first argmin.  The atoms are prepared for the score once per call
(:meth:`mkdiv.scores.Score._prepare`), and reports are scored against the
preparation about ``_BLOCK`` values at a time, so that every ufunc and fold
runs along the atoms: in tiles of several reports by all the atoms, or one
report's 1-D row, folded by the midpoint rule a block of atoms at a time.
Brent's minimiser (:func:`mkdiv.numerics.brent_minimize`) then refines the
grid's minimum one report a call.  Both stages minimise one objective,
:func:`_objective`, the mean score with inf where it is not finite.

:func:`check_axioms` evaluates its samples in stacks through
:meth:`Functional._evaluate_rows`, one value per row, each bit-identical to
``evaluate(from_samples(row))``.  Each stack is sorted once, along its rows,
by the stable sort the law itself uses, so the zeros of a sample keep their
input order on every CPU and a row is the atoms its law would hold.  An atom
functional runs on those rows the kernel that ``evaluate`` runs on one law's
atoms; only the three law readers evaluate the rows one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import Distribution, _sorted_sample, from_samples
from .errors import AmbiguityError, DomainError, EvaluationError, IngestionError, MomentError
from .numerics import (
    _BLOCK,
    _DEFAULT_DELTA,
    _DEFAULT_M,
    Rule,
    _check_finite,
    _check_size,
    _check_tolerance,
    _split_sums,
    brent_minimize,
    brent_root,
    midpoint_rule,
    pairwise_mean,
    pairwise_sum,
)
from .scores import LossFunction, Score, StepFunction, _Prepared, exponential_loss

__all__ = [
    "Functional",
    "Mean",
    "Quantile",
    "Expectile",
    "Shortfall",
    "LambdaQuantile",
    "Entropic",
    "argmin_expected_score",
    "expected_score",
    "AxiomCheck",
    "AxiomReport",
    "check_axioms",
]


_TAU = 1e-12  # how far a quantile-type level moves to find its set's ends; see interval()


def _nudged(level: float, sign: float) -> float:
    """``level`` moved by ``_TAU`` toward 1 (``sign`` +1) or 0 (-1), or half
    way to that end where ``_TAU`` would reach it, so it stays in (0, 1);
    ``sign`` 0 leaves it as it is."""
    room = 1.0 - level if sign > 0.0 else level
    return level + sign * min(_TAU, 0.5 * room)


class Functional:
    """Base class; a subclass defines one of two methods.  An atom functional
    defines ``_evaluate_rows``, which ``evaluate`` runs on one law's atoms; a
    law reader defines ``evaluate``, which ``_evaluate_rows`` runs per row."""

    kind = "abstract"

    def evaluate(self, dist: Distribution, m: int = _DEFAULT_M, delta: float = _DEFAULT_DELTA) -> float:
        self._check_law(dist)
        return float(self._evaluate_rows(dist.atoms(m, delta)[None])[0])

    def _evaluate_rows(self, samples: np.ndarray) -> np.ndarray:
        """``evaluate(from_samples(row))`` for each row of the 2-D
        ``samples``, bit for bit, where the rows come sorted by the law's
        own sort (``distributions._sorted_sample``), as the law holds its
        atoms; it raises where one of those calls would, though not always
        the same error.  The default, the law readers', makes those calls,
        and raises NotImplementedError where ``evaluate`` is not defined."""
        if type(self).evaluate is Functional.evaluate:
            raise NotImplementedError(
                f"{type(self).__name__} defines neither evaluate nor _evaluate_rows")
        return np.array([self.evaluate(from_samples(row)) for row in samples])

    def interval(self, dist: Distribution, m: int = _DEFAULT_M,
                 delta: float = _DEFAULT_DELTA) -> tuple[float, float]:
        """The ends ``(lo, hi)`` of the set of values the functional takes
        on ``dist``, which a consistent score elicits as a whole (Gneiting,
        JASA, 2011, section 3): ``(v, v)`` for a functional with one value
        v, the :meth:`evaluate` value.  On atoms a quantile-type functional
        is an interval; those override this with levels moved by
        ``tau = 1e-12`` outward.  The float 0.56 exceeds 14/25 by about
        5e-17: on 25 atoms that moves the quantile to the 15th atom, while
        the expected score is flat to rounding from the 14th on, and tau
        covers such a level."""
        value = self.evaluate(dist, m, delta)
        return value, value

    def _check_law(self, dist: Distribution) -> None:
        """Raise if the functional is undefined on ``dist`` whatever its
        atoms, as :meth:`evaluate` does before it reads any."""

    def describe(self) -> str:
        return self.kind


@dataclass(frozen=True)
class Mean(Functional):
    kind = "mean"

    def evaluate(self, dist, m=_DEFAULT_M, delta=_DEFAULT_DELTA):
        midpoint_rule(m, delta)
        value = dist.mean()
        if not np.isfinite(value):
            raise MomentError(f"mean of {dist.kind} distribution is not finite")
        return float(value)


@dataclass(frozen=True)
class Quantile(Functional):
    alpha: float = 0.5
    kind = "quantile"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"quantile level must lie in (0, 1), got {self.alpha}")

    def evaluate(self, dist, m=_DEFAULT_M, delta=_DEFAULT_DELTA):
        midpoint_rule(m, delta)
        return float(dist.quantile(self.alpha))

    def interval(self, dist, m=_DEFAULT_M, delta=_DEFAULT_DELTA):
        """``(Q(alpha - tau), Q+(alpha + tau))``: on atoms with alpha * n = k
        an integer, the closed interval between the k-th and the next order
        statistic, where every expected GPL score of the level is flat."""
        midpoint_rule(m, delta)
        lo = float(dist.quantile(_nudged(self.alpha, -1.0)))
        return lo, dist._upper_quantile(_nudged(self.alpha, 1.0))

    def describe(self):
        return f"quantile[{self.alpha}]"


@dataclass(frozen=True)
class Expectile(Functional):
    """Unique root of alpha E[(Y-z)_+] = (1-alpha) E[(z-Y)_+]."""

    alpha: float = 0.5
    kind = "expectile"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"expectile level must lie in (0, 1), got {self.alpha}")

    def residual(self, sample: np.ndarray, z: float) -> float:
        up = pairwise_mean(np.maximum(sample - z, 0.0))
        down = pairwise_mean(np.maximum(z - sample, 0.0))
        return self.alpha * up - (1.0 - self.alpha) * down

    def _evaluate_rows(self, atoms: np.ndarray) -> np.ndarray:
        """The expectile of each row of sorted atoms; a constant row is its
        own expectile, and the others are computed together."""
        if not np.all(np.isfinite(atoms)):
            raise MomentError("expectile needs a finite-mean distribution")
        out = atoms[:, 0].copy()
        live = np.flatnonzero(atoms[:, 0] != atoms[:, -1])
        if live.size == 0:
            return out
        sample = atoms if live.size == out.size else atoms[live]
        # the residual is linear on [y_j, y_{j+1}] between the sorted atoms;
        # j, the last atom where n * residual >= 0, is searched with cumsum
        # and kept in [1, n-1].  The root is the weighted mean below (Newey
        # and Powell, 1987); clipping to [y_j, y_{j+1}] removes only rounding
        a, n = self.alpha, sample.shape[1]
        k = np.arange(1, n + 1)
        c = np.cumsum(sample, axis=1)
        r = a * (c[:, -1:] - c - (n - k) * sample) - (1.0 - a) * (k * sample - c)
        j = np.minimum(np.maximum(np.count_nonzero(r >= 0.0, axis=1), 1), n - 1)
        head, tail = _split_sums(sample, j)
        num = a * tail + (1.0 - a) * head
        z = num / (a * (n - j) + (1.0 - a) * j)
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(r))):
            raise MomentError("expectile sums overflow the float range")
        # clipped as min(max(z, below), above) clips: a tie keeps z, where
        # np.maximum and np.minimum may return either of -0.0 and +0.0
        row = np.arange(j.size)
        below, above = sample[row, j - 1], sample[row, j]
        z = np.where(below > z, below, z)
        out[live] = np.where(above < z, above, z)
        return out

    def describe(self):
        return f"expectile[{self.alpha}]"


@dataclass(frozen=True)
class Shortfall(Functional):
    """Smallest x with E[ell(W - x)] <= 0: the entropic kernel for the
    exponential loss, and :meth:`_root` on each row for the others, the
    mean of the atoms for the linear loss.  Where the atoms' sum overflows,
    the linear root is lo + E[W - lo] on the smallest atom lo, and a
    :class:`MomentError` if that sum overflows too.

    The power loss uses Brent's method on the sample range, which brackets the root:
    ``sample - min >= 0`` holds exactly in floats and ``ell(s) >= 0`` for ``s >= 0``,
    so the residual is non-negative at the minimum and non-positive at the maximum.
    """

    loss: LossFunction = field(default_factory=exponential_loss)
    kind = "shortfall"

    def residual(self, sample: np.ndarray, x: float) -> float:
        mean = pairwise_mean(self.loss.ell(sample - x))
        if not np.isfinite(mean):
            raise MomentError("shortfall residual is not finite under quadrature")
        return mean

    def _check_law(self, dist):
        if self.loss.kind == "exponential":
            Entropic(self.loss.gamma)._check_law(dist)

    def _evaluate_rows(self, samples):
        if self.loss.kind == "exponential":
            return Entropic(self.loss.gamma)._evaluate_rows(samples)
        return np.array([self._root(sample) for sample in samples])

    def _root(self, sample: np.ndarray) -> float:
        """The root on one row of sorted atoms, for the linear or power loss."""
        lo, hi = float(sample[0]), float(sample[-1])
        res = lambda x: self.residual(sample, x)
        if self.loss.kind == "linear":
            with np.errstate(over="ignore"):
                mean = pairwise_mean(sample)
            return mean if math.isfinite(mean) else lo + res(lo)
        return brent_root(res, lo, hi, res(lo), res(hi))[0]

    def describe(self):
        return f"shortfall[{self.loss.kind}]"


@dataclass(frozen=True, eq=False)
class LambdaQuantile(Functional):
    """First crossing inf{y : F(y) > Lambda(y)} of the cdf over a step
    threshold Lambda.

    One scan over the segments of Lambda serves every law: on the segment
    [b_{j-1}, b_j) with level l_j the first point where ``F > l_j`` is
    ``max(b_{j-1}, Q+(l_j))``.  The crossing must be unique: past it the cdf
    must stay above Lambda, which on each later segment is checked at its
    left end, where F is smallest; a dip raises :class:`AmbiguityError`.
    :meth:`interval` takes, in the same scan, the crossings of Lambda moved
    down and up by tau: where F equals Lambda on a flat, those are its ends.
    """

    step: StepFunction
    kind = "lambda_quantile"

    def evaluate(self, dist, m=_DEFAULT_M, delta=_DEFAULT_DELTA):
        midpoint_rule(m, delta)
        return self._crossings(dist, (0.0,))[0]

    def interval(self, dist, m=_DEFAULT_M, delta=_DEFAULT_DELTA):
        midpoint_rule(m, delta)
        lo, _, hi = self._crossings(dist, (-1.0, 0.0, 1.0))
        return lo, hi

    def _crossings(self, dist, signs) -> list:
        """The first crossing of F over Lambda with its levels moved by
        ``_nudged`` toward each of ``signs``, which must hold 0: the
        unmoved crossing is the one checked for uniqueness."""
        bp = self.step.breakpoints
        lv = self.step.levels
        nseg = lv.size
        crossings = [None] * len(signs)
        k = signs.index(0.0)
        for j in range(nseg):
            seg_lo = -np.inf if j == 0 else float(bp[j - 1])
            seg_hi = np.inf if j == nseg - 1 else float(bp[j])
            level = float(lv[j])
            found = crossings[k]
            if found is not None and float(dist.cdf(max(seg_lo, found))) < level - 1e-12:
                raise AmbiguityError(
                    "multiple cdf/threshold crossings detected on the scan grid"
                )
            for i, sign in enumerate(signs):
                if crossings[i] is None:
                    candidate = max(seg_lo, dist._upper_quantile(_nudged(level, sign)))
                    if candidate < seg_hi:
                        crossings[i] = float(candidate)
        if crossings[k] is None:
            raise AmbiguityError("cdf never exceeds the threshold on the scan")
        return crossings


@dataclass(frozen=True)
class Entropic(Functional):
    """log E[e^{gamma Y}] / gamma, on the atoms; a law whose exponential
    moment is infinite, or one whose atoms' mean of e^{gamma w} overflows,
    raises :class:`MomentError`."""

    gamma: float = 1.0
    kind = "entropic"

    def __post_init__(self):
        _check_finite("entropic functional", gamma=self.gamma)
        if not self.gamma > 0.0:
            raise DomainError(f"entropic parameter must be positive, got {self.gamma}")

    def _check_law(self, dist):
        if not dist._exp_moment_finite(self.gamma):
            raise MomentError(
                f"exponential moment not finite for the {dist.kind} law (gamma={self.gamma})"
            )

    def _evaluate_rows(self, atoms: np.ndarray) -> np.ndarray:
        """The entropic functional of each row of sorted atoms."""
        gamma, n = self.gamma, atoms.shape[1]
        # log of the mean of e^{gamma w} over the sorted atoms, shifted by the
        # last atom so that no exponential overflows; an infinite atom gives
        # nan.  math.log, not np.log, whose rounding may differ
        hi = atoms[:, -1]
        with np.errstate(over="ignore", invalid="ignore"):  # -inf exponents give exactly 0
            means = pairwise_sum(np.exp(gamma * (atoms - hi[:, None]))) / n
            value = hi + np.array([math.log(v) for v in means.tolist()]) / gamma
            # e^{gamma value}, the mean of e^{gamma w}, must be a finite float
            if np.all(np.isfinite(value) & (gamma * value <= np.log(np.finfo(float).max))):
                return value
        raise MomentError(f"exponential moment not finite under quadrature (gamma={gamma})")

    def describe(self):
        return f"entropic[{self.gamma}]"


def _prepare_atoms(score: Score, sample: np.ndarray, z: np.ndarray):
    """``score``'s preparation of the atoms ``sample``, made once for all the
    reports, after the reports of ``z``'s first tile are checked: scoring
    that tile checks them before its atoms, so a report error still comes
    first."""
    score._check(z[: max(1, _BLOCK // sample.size)], score.z_domain, "report z")
    return score._prepare(sample)


def _mean_scores(score: Score, prep, z: np.ndarray) -> np.ndarray:
    """Mean of S(z_i, Y) over the m atoms prepared in ``prep``, as
    :func:`_prepare_atoms` returns them, for each report in the 1-D ``z``.

    Scores are taken about ``_BLOCK`` values at a time: tiles of
    ``_BLOCK // m`` reports down and all the atoms across where that holds two
    reports or more, else one report's 1-D row, in blocks of the atoms.  Each
    tile's rows are one fold of the midpoint rule
    (:meth:`mkdiv.numerics.Rule.fold`), so every mean is bit-identical to the
    fold of its own row of scores, and memory stays bounded by a tile.
    """
    m = prep[0].size
    rows, rule, out = max(1, _BLOCK // m), Rule(None, m), np.empty(z.size)
    if rows > 1:  # a tile is 2-D, reports down and atoms across; one report's row is 1-D
        z, prep = z[:, None], _Prepared(p[None] for p in prep)
    for j in range(0, z.shape[0], rows):
        out[j : j + rows] = rule.fold(
            lambda cells: score(z[j : j + rows], _Prepared(p[..., cells] for p in prep)))
    return out


def expected_score(
    score: Score,
    dist: Distribution,
    z,
    m: int = _DEFAULT_M,
    delta: float = _DEFAULT_DELTA,
):
    """E_F[S(z, Y)] over the atoms of ``dist``: a float for a scalar report,
    otherwise an array of z's shape, each entry bit-identical to its scalar call.
    The atoms are prepared once, unless there is no report to score."""
    z_arr = np.asarray(z, dtype=float)
    zs, sample = z_arr.ravel(), dist.atoms(m, delta)
    if zs.size == 0:
        return np.empty(z_arr.shape)
    means = _mean_scores(score, _prepare_atoms(score, sample, zs), zs).reshape(z_arr.shape)
    return float(means) if z_arr.ndim == 0 else means


def argmin_expected_score(
    score: Score,
    dist: Distribution,
    z_lo: float,
    z_hi: float,
    steps: int = 513,
    m: int = _DEFAULT_M,
    delta: float = _DEFAULT_DELTA,
) -> float:
    """Grid minimiser of the expected score, refined by Brent's minimiser.

    Ties break toward the smallest report.  The grid is ``steps`` points on
    the finite interval [z_lo, z_hi], whose width must be a finite float
    too, refined level by level: the first level takes every s-th point
    and the last, s the largest power of 4 not above
    (steps - 1) / 8 (64 at 513 steps), and each next level divides s by 4,
    down to 1, inside a window: from the point before the first value within
    ``1e-12 (1 + |min|)`` of the level's minimum to the point after the last.
    A level scores only the points of its window not scored before: where
    each band holds one point, 9 + 6 + 6 + 6 = 27 of 513 reports in 4
    calls.  The result is that of scanning the
    whole grid whenever the grid values are unimodal up to the band; with
    several local minima, as for a lambda-quantile score whose crossing is
    not unique, it may be another one.  A level with no finite value keeps
    the whole grid as its window.  Brent's minimiser then refines inside the
    two grid steps around the grid's first minimum down to 1e-8 relative
    width, in about 10 one-report calls; on a flat it stops somewhere
    inside, drifting toward its left end, and raises
    :class:`EvaluationError` where it finds no finite value or spends its
    step cap.  Both minimise :func:`_objective`, the mean score with inf
    where it is not finite, under one ``np.errstate`` that silences the
    overflow it maps to inf; :func:`expected_score` keeps numpy's warnings.
    The m atoms of ``dist`` are prepared once and held, not streamed, as each
    of the search's 14 or so objective calls scores them all; every stage
    scores its reports against them in tiles, as :func:`expected_score` does.
    """
    if not (math.isfinite(z_lo) and math.isfinite(z_hi) and z_lo < z_hi):
        raise DomainError(f"need finite z_lo < z_hi, got ({z_lo}, {z_hi})")
    if not math.isfinite(z_hi - z_lo):  # the grid's steps would be inf, its points nan
        raise DomainError(f"need a finite bracket width z_hi - z_lo, got ({z_lo}, {z_hi})")
    _check_size("argmin", 2, steps=steps)
    sample = dist.atoms(m, delta)
    zs = np.linspace(z_lo, z_hi, steps)
    values = np.full(steps, np.nan)  # nan until scored
    first, last, stride = 0, steps - 1, 1
    while 4 * stride <= (steps - 1) // 8:
        stride *= 4
    prep = None
    # the objective maps an overflowing mean to inf on purpose
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            points = np.arange(first, last + stride, stride)
            points[-1] = last
            new = points[np.isnan(values[points])]
            if prep is None:  # the first level: its reports are checked first
                prep = _prepare_atoms(score, sample, zs[new])
            values[new] = _objective(score, prep, zs[new])
            if stride == 1:
                break
            level = values[points]
            low = float(level.min())  # inf if no value is finite: the window is then the grid
            near = np.flatnonzero(level <= low + 1e-12 * (1.0 + abs(low)))
            first, last = points[max(near[0] - 1, 0)], points[min(near[-1] + 1, points.size - 1)]
            stride //= 4
        window = values[first : last + 1]
        if not np.isfinite(window).any():
            raise EvaluationError("expected score is non-finite over the whole grid")
        i = first + int(np.argmin(window))  # argmin returns the first, i.e. smallest z
        lo, hi = float(zs[max(i - 1, 0)]), float(zs[min(i + 1, steps - 1)])
        return brent_minimize(lambda z: float(_objective(score, prep, np.array([z]))[0]), lo, hi)


def _objective(score: Score, prep, z: np.ndarray) -> np.ndarray:
    """The mean score of each report in the 1-D ``z``, inf where it is not
    finite: what the argmin's grid and its end game minimise."""
    values = _mean_scores(score, prep, z)
    return np.where(np.isfinite(values), values, np.inf)


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one axiom: worst violation and a witness if it failed."""

    name: str
    passed: bool
    max_violation: float
    witness: dict | None = None


@dataclass(frozen=True)
class AxiomReport:
    """Each axiom's :class:`AxiomCheck`, in the order :func:`check_axioms`
    runs them; ``report[name]`` looks one up by name."""

    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


# the shifts m, scales s and mixes lam every axiom check tries
_SHIFTS, _SCALES, _MIXES = (-1.5, 2.0), (0.5, 2.0), (0.5,)
# the samples an axiom check evaluates on a pair (x, y), or on pairs stacked
# as rows, each made when it is drawn, stage by stage: the pair, then each
# axiom's in the order they are reported
_STAGES = (
    lambda x, y: iter((x, y)),
    lambda x, y: (x + m for m in _SHIFTS),
    lambda x, y: (s * x for s in _SCALES),
    lambda x, y: (lam * x + (1.0 - lam) * y for lam in _MIXES),
    lambda x, y: (f(x, y) for f in (np.minimum, np.maximum)),
)
_PER_PAIR = 2 + len(_SHIFTS) + len(_SCALES) + len(_MIXES) + 2


def check_axioms(functional: Functional, sample_pairs, tol: float = 1e-9) -> AxiomReport:
    """Empirical risk-measure axiom check on elementwise-coupled sample pairs.

    For every pair ``(x, y)`` of equal-length samples the following are
    tested on the induced empirical distributions:

    * translation invariance  T[X + m] = T[X] + m, for m in (-1.5, 2)
    * positive homogeneity    T[s X] = s T[X], for s in (0.5, 2)
    * convexity               T[lam X + (1-lam) Y] <= lam T[X] + (1-lam) T[Y],
      for lam = 0.5, with X, Y coupled elementwise as given
    * monotonicity            T[min(X, Y)] <= T[max(X, Y)]

    The report carries the worst violation and a witness per failed axiom;
    it never raises on a failed check.

    T is ``functional.evaluate(from_samples(sample))``, bit for bit, at each
    of the nine samples of a pair, but the samples of one length are
    evaluated together: stacked, about ``_BLOCK`` values at a time, sorted
    once along its rows by the law's stable sort, so that the zeros of a
    sample keep their input order on every CPU, and passed to
    ``Functional._evaluate_rows``, the kernel ``evaluate`` runs on one law's
    atoms; only the three law readers evaluate the rows one by one, each
    through its law.  Memory holds one stack besides the values.  If a stack
    raises, the samples are evaluated one by one in the order of the checks
    above, every pair's x and y first, and the first that fails raises its
    own error.
    """
    pairs = [
        (np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        for x, y in sample_pairs
    ]
    if not pairs:
        raise DomainError("axiom check needs at least one sample pair")
    _check_tolerance("axiom check", tol=tol)
    for k, (x, y) in enumerate(pairs):
        if x.size == 0 or x.shape != y.shape:
            raise DomainError(f"sample pair {k} is empty or misaligned")
    try:
        rows = _axiom_values(functional, pairs).tolist()
    except Exception:  # of any type: the one-by-one rerun raises the error to report
        for stage in _STAGES:
            for x, y in pairs:
                for sample in stage(x, y):
                    functional.evaluate(from_samples(sample))
        raise
    # (axiom, witness key, parameters, violation from T[X], T[Y] and T at a parameter)
    table = (
        ("translation_invariance", "shift", _SHIFTS,
         lambda tx, ty, t, m: abs(t - (tx + m))),
        ("positive_homogeneity", "scale", _SCALES,
         lambda tx, ty, t, s: abs(t - s * tx)),
        ("convexity", "mix", _MIXES,
         lambda tx, ty, t, lam: t - (lam * tx + (1.0 - lam) * ty)),
    )
    checks, at = [], 2  # a row holds T[X], T[Y], then each axiom's values
    for name, key, params, violation in table:
        checks.append(_worst(
            ((violation(row[0], row[1], row[i], p), {"pair": k, key: p})
             for k, row in enumerate(rows) for i, p in enumerate(params, at)),
            tol,
            name,
        ))
        at += len(params)
    monotonicity = _worst(
        ((row[-2] - row[-1], {"pair": k}) for k, row in enumerate(rows)), tol, "monotonicity"
    )
    return AxiomReport(checks=(*checks, monotonicity))


def _axiom_values(functional: Functional, pairs) -> np.ndarray:
    """T at each of the samples ``_STAGES`` makes of every pair, a row per
    pair.  The pairs of one length are taken about ``_BLOCK`` values at a
    time, one pair where its samples hold more: ``_STAGES`` makes their
    samples from the pairs stacked, and they are sorted by the law's sort
    and evaluated as one stack."""
    values = np.empty((len(pairs), _PER_PAIR))
    groups = {}
    for k, (x, _) in enumerate(pairs):
        groups.setdefault(x.shape, []).append(k)
    for shape, ks in groups.items():
        if len(shape) != 1:
            raise IngestionError(f"a sample must be 1-D, got shape {shape}")
        step = max(1, _BLOCK // (_PER_PAIR * shape[0]))
        for i in range(0, len(ks), step):
            chunk = ks[i : i + step]
            x, y = (np.array([pairs[k][side] for k in chunk]) for side in (0, 1))
            stack = _sorted_sample(np.concatenate([s for stage in _STAGES for s in stage(x, y)]))
            values[chunk] = functional._evaluate_rows(stack).reshape(_PER_PAIR, -1).T
    return values


def _worst(violations, tol: float, name: str) -> AxiomCheck:
    worst = -np.inf
    witness = None
    for value, info in violations:
        if value > worst:
            worst = float(value)
            witness = info
    passed = worst <= tol
    return AxiomCheck(
        name=name,
        passed=passed,
        max_violation=worst,
        witness=None if passed else witness,
    )
