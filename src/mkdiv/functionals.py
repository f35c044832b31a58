"""Elicitable functionals: evaluation, expected-score minimisation, axioms.

Each functional evaluates on a :class:`~mkdiv.distributions.Distribution`.
:class:`Mean`, :class:`Quantile` and :class:`LambdaQuantile` are exact on
every law: they read the law's own mean, quantile, Q+ and cdf.  The others
read its ``atoms(m, delta)``: a parametric law's m grid nodes, an empirical
law's sample.  The expectile is solved exactly on the sorted atoms, where its
residual is piecewise linear; the shortfall of the exponential loss is the
entropic functional, that of the linear loss the atoms' mean, and the power
loss's root is found by Brent's method.

:func:`argmin_expected_score` provides the independent route to the same
quantities: minimising the expected score over reports.  The two routes are
compared in the test-suite for every functional/score pair of the catalog.
Its report grid is refined level by level, each level a quarter of the
last one's stride inside the window around the last level's minimum: the
expected score of a strictly consistent score falls before the functional and
rises after it, so only the reports around a level's minimum can hold the
grid's first argmin.  Reports are scored in tiles of reports by atoms, so
that every ufunc and fold runs along the atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import Distribution, from_samples
from .errors import AmbiguityError, DomainError, EvaluationError, MomentError
from .numerics import (
    _DEFAULT_DELTA,
    _DEFAULT_M,
    _BlockSum,
    _check_finite,
    _check_size,
    _check_tolerance,
    brent_root,
    golden_section,
    pairwise_mean,
    pairwise_sum,
)
from .scores import LossFunction, Score, StepFunction, exponential_loss

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


class Functional:
    """Base class; subclasses implement ``evaluate``."""

    kind = "abstract"

    def evaluate(self, dist: Distribution, m: int = _DEFAULT_M, delta: float = _DEFAULT_DELTA) -> float:
        raise NotImplementedError

    def _check_law(self, dist: Distribution) -> None:
        """Raise if the functional is undefined on ``dist`` whatever its
        atoms, as :meth:`evaluate` does before it reads any."""

    def describe(self) -> str:
        return self.kind


@dataclass(frozen=True)
class Mean(Functional):
    kind = "mean"

    def evaluate(self, dist, m=_DEFAULT_M, delta=_DEFAULT_DELTA):
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
        return float(dist.quantile(self.alpha))

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

    def evaluate(self, dist, m=_DEFAULT_M, delta=_DEFAULT_DELTA):
        sample = dist.atoms(m, delta)
        if not np.all(np.isfinite(sample)):
            raise MomentError("expectile needs a finite-mean distribution")
        lo, hi = float(sample[0]), float(sample[-1])
        if lo == hi:
            return lo
        # the residual is linear on [y_j, y_{j+1}] between the sorted atoms;
        # j, the last atom where n * residual >= 0, is searched with cumsum
        # and kept in [1, n-1].  The root is the weighted mean below (Newey
        # and Powell, 1987); clipping to [y_j, y_{j+1}] removes only rounding
        a, n = self.alpha, sample.size
        k = np.arange(1, n + 1)
        c = np.cumsum(sample)
        r = a * (c[-1] - c - (n - k) * sample) - (1.0 - a) * (k * sample - c)
        j = min(max(int(np.count_nonzero(r >= 0.0)), 1), n - 1)
        num = a * pairwise_sum(sample[j:]) + (1.0 - a) * pairwise_sum(sample[:j])
        z = num / (a * (n - j) + (1.0 - a) * j)
        if not (np.isfinite(z) and np.all(np.isfinite(r))):
            raise MomentError("expectile sums overflow the float range")
        return min(max(z, float(sample[j - 1])), float(sample[j]))

    def describe(self):
        return f"expectile[{self.alpha}]"


@dataclass(frozen=True)
class Shortfall(Functional):
    """Smallest x with E[ell(W - x)] <= 0: the entropic functional for the
    exponential loss, and the mean of the atoms for the linear loss.  Where
    the atoms' sum overflows, the linear root is lo + E[W - lo] on the
    smallest atom lo, and a :class:`MomentError` if that sum overflows too.

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

    def evaluate(self, dist, m=_DEFAULT_M, delta=_DEFAULT_DELTA):
        if self.loss.kind == "exponential":
            return Entropic(self.loss.gamma).evaluate(dist, m, delta)
        sample = dist.atoms(m, delta)
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
    """

    step: StepFunction
    kind = "lambda_quantile"

    def evaluate(self, dist, m=_DEFAULT_M, delta=_DEFAULT_DELTA):
        bp = self.step.breakpoints
        lv = self.step.levels
        nseg = lv.size
        crossing = None
        for j in range(nseg):
            seg_lo = -np.inf if j == 0 else float(bp[j - 1])
            seg_hi = np.inf if j == nseg - 1 else float(bp[j])
            level = float(lv[j])
            if crossing is None:
                candidate = max(seg_lo, dist._upper_quantile(level))
                if candidate < seg_hi:
                    crossing = candidate
            elif float(dist.cdf(max(seg_lo, crossing))) < level - 1e-12:
                raise AmbiguityError(
                    "multiple cdf/threshold crossings detected on the scan grid"
                )
        if crossing is None:
            raise AmbiguityError("cdf never exceeds the threshold on the scan")
        return float(crossing)


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

    def evaluate(self, dist, m=_DEFAULT_M, delta=_DEFAULT_DELTA):
        self._check_law(dist)
        gamma = self.gamma
        # log of the mean of e^{gamma w} over the sorted atoms, shifted by the
        # last atom so that no exponential overflows; an infinite atom gives nan
        sample = dist.atoms(m, delta)
        hi = float(sample[-1])
        with np.errstate(over="ignore", invalid="ignore"):  # -inf exponents give exactly 0
            value = hi + math.log(pairwise_mean(np.exp(gamma * (sample - hi)))) / gamma
        # e^{gamma value}, the mean of e^{gamma w}, must be a finite float
        if math.isfinite(value) and gamma * value <= np.log(np.finfo(float).max):
            return value
        raise MomentError(f"exponential moment not finite under quadrature (gamma={gamma})")

    def describe(self):
        return f"entropic[{self.gamma}]"


# score values per tile: 128 KiB, glibc's default mmap threshold; the
# temporaries of larger tiles faulted in fresh pages on every call
_TILE = 1 << 14


def _mean_scores(score: Score, sample: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Mean of S(z_i, Y) over the atoms ``sample`` for each report in the 1-D ``z``.

    Scores are taken in tiles of at most ``_TILE`` values, reports down and
    atoms across: as many reports as fit against an aligned block of a power
    of two of atoms, so every ufunc and every level of the fold runs along
    the atoms, however few the reports.  One
    :class:`mkdiv.numerics._BlockSum` per run of reports folds its tiles
    along their atoms and merges them by the tree of :func:`pairwise_sum`, so
    every mean is bit-identical to the fold of its own row of scores, whatever
    tile it lands in, and memory stays bounded by a tile plus
    ``len(z) * log2(len(sample))`` sums.
    """
    m = sample.size
    cols = min(_TILE, 1 << (m - 1).bit_length())
    rows = max(1, _TILE // min(cols, m))
    out = np.empty(z.size)
    for j in range(0, z.size, rows):
        reports = z[j : j + rows, None]
        sums = _BlockSum()
        for i in range(0, m, cols):
            sums.add(score(reports, sample[None, i : i + cols]))
        out[j : j + rows] = sums.total() / m
    return out


def expected_score(
    score: Score,
    dist: Distribution,
    z,
    m: int = _DEFAULT_M,
    delta: float = _DEFAULT_DELTA,
):
    """E_F[S(z, Y)] over the atoms of ``dist``: a float for a scalar report,
    otherwise an array of z's shape, each entry bit-identical to its scalar call."""
    z_arr = np.asarray(z, dtype=float)
    means = _mean_scores(score, dist.atoms(m, delta), z_arr.ravel()).reshape(z_arr.shape)
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
    """Grid minimiser of the expected score, refined by golden-section.

    Ties break toward the smallest report.  The grid is ``steps`` points on
    the finite interval [z_lo, z_hi], refined level by level: the first level
    takes every s-th point and the last, s the largest power of 4 not above
    (steps - 1) / 8 (64 at 513 steps), and each next level divides s by 4,
    down to 1, inside a window: from the point before the first value within
    ``1e-12 (1 + |min|)`` of the level's minimum to the point after the last.
    A level scores only the points of its window not scored before: where
    each band holds one point, 9 + 6 + 6 + 6 = 27 of 513 reports in 4
    calls.  The result is that of scanning the
    whole grid whenever the grid values are unimodal up to the band; with
    several local minima, as for a lambda-quantile score whose crossing is
    not unique, it may be another one.  A level with no finite value keeps
    the whole grid as its window.  Golden-section then refines inside the
    best bracket down to 1e-8 relative width.  Every stage scores reports
    against the same atoms of ``dist`` in tiles, as :func:`expected_score`
    does.
    """
    if not (math.isfinite(z_lo) and math.isfinite(z_hi) and z_lo < z_hi):
        raise DomainError(f"need finite z_lo < z_hi, got ({z_lo}, {z_hi})")
    _check_size("argmin", 2, steps=steps)
    sample = dist.atoms(m, delta)
    zs = np.linspace(z_lo, z_hi, steps)
    values = np.full(steps, np.nan)  # nan until scored; a non-finite score is inf
    first, last, stride = 0, steps - 1, 1
    while 4 * stride <= (steps - 1) // 8:
        stride *= 4
    while True:
        points = np.arange(first, last + stride, stride)
        points[-1] = last
        new = points[np.isnan(values[points])]
        values[new] = _finite_or_inf(_mean_scores(score, sample, zs[new]))
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
    lo = zs[max(i - 1, 0)]
    hi = zs[min(i + 1, steps - 1)]
    objective = lambda z: _mean_scores(score, sample, np.array([z]))[0]
    return float(golden_section(objective, float(lo), float(hi), width_tol=1e-8))


def _finite_or_inf(values: np.ndarray) -> np.ndarray:
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

    def T(sample):
        return functional.evaluate(from_samples(sample))

    rows = [(x, y, T(x), T(y)) for x, y in pairs]  # T[X] and T[Y] once per pair
    # (axiom, witness key, parameters, violation at one row and parameter)
    table = (
        ("translation_invariance", "shift", _SHIFTS,
         lambda x, y, tx, ty, m: abs(T(x + m) - (tx + m))),
        ("positive_homogeneity", "scale", _SCALES,
         lambda x, y, tx, ty, s: abs(T(s * x) - s * tx)),
        ("convexity", "mix", _MIXES,
         lambda x, y, tx, ty, lam: T(lam * x + (1.0 - lam) * y)
         - (lam * tx + (1.0 - lam) * ty)),
    )
    checks = [
        _worst(
            ((violation(*row, p), {"pair": k, key: p})
             for k, row in enumerate(rows) for p in params),
            tol,
            name,
        )
        for name, key, params, violation in table
    ]
    monotonicity = _worst(
        ((T(np.minimum(x, y)) - T(np.maximum(x, y)), {"pair": k})
         for k, (x, y, _, _) in enumerate(rows)),
        tol,
        "monotonicity",
    )
    return AxiomReport(checks=(*checks, monotonicity))


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
