"""Elicitable functionals: evaluation, expected-score minimisation, axioms.

Each functional evaluates on a :class:`~mkdiv.distributions.Distribution`.
:class:`Mean`, :class:`Quantile` and :class:`LambdaQuantile` are exact on
every law: they read the law's own mean, quantile and cdf.  The others reduce
a parametric law to its midpoint quantile grid and an empirical law to its
atoms.  The expectile is solved exactly on the sorted atoms, where its
residual is piecewise linear; the shortfall root uses Brent's method on the
sample range, which always brackets it.

:func:`argmin_expected_score` provides the independent route to the same
quantities: minimising the expected score over reports.  The two routes are
compared in the test-suite for every functional/score pair of the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import Distribution, Empirical, from_samples, quantile_grid
from .errors import AmbiguityError, DomainError, EvaluationError, MomentError
from .numerics import (
    _DEFAULT_DELTA,
    _DEFAULT_M,
    _check_finite,
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


def _atoms(dist: Distribution, m: int, delta: float) -> np.ndarray:
    """Representative equal-weight sample: exact atoms or grid nodes."""
    if isinstance(dist, Empirical):
        return dist.values
    return quantile_grid(dist, m, delta).nodes


class Functional:
    """Base class; subclasses implement ``evaluate``."""

    kind = "abstract"

    def evaluate(self, dist: Distribution, m: int = _DEFAULT_M, delta: float = _DEFAULT_DELTA) -> float:
        raise NotImplementedError

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
        sample = _atoms(dist, m, delta)
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
    """Smallest x with E[ell(W - x)] <= 0, by Brent's method.

    The sample range brackets the root: ``sample - min >= 0`` holds exactly
    in floats and ``ell(s) >= 0`` for ``s >= 0`` for every loss kind, so the
    residual is non-negative at the minimum, and by symmetry non-positive at
    the maximum.
    """

    loss: LossFunction = field(default_factory=exponential_loss)
    kind = "shortfall"

    def residual(self, sample: np.ndarray, x: float) -> float:
        mean = pairwise_mean(self.loss.ell(sample - x))
        if not np.isfinite(mean):
            raise MomentError("shortfall residual is not finite under quadrature")
        return mean

    def evaluate(self, dist, m=_DEFAULT_M, delta=_DEFAULT_DELTA):
        sample = _atoms(dist, m, delta)
        lo, hi = float(sample[0]), float(sample[-1])
        if lo == hi:
            return lo
        res = lambda x: self.residual(sample, x)
        return brent_root(res, lo, hi, res(lo), res(hi))[0]

    def describe(self):
        return f"shortfall[{self.loss.kind}]"


def _upper_quantile(dist: Distribution, level: float) -> float:
    """Q+(level) = inf{y : F(y) > level}: the quantile of a law without flats,
    and on atoms the first one whose cdf exceeds the level, which steps over
    a flat of the cdf at exactly that level.  A quantile that overflows
    raises MomentError naming the level."""
    if isinstance(dist, Empirical):
        v = dist.values
        return float(v[np.searchsorted(dist.cdf(v), level, "right")])
    with np.errstate(over="ignore"):
        q = float(dist.quantile(level))
    if not np.isfinite(q):
        raise MomentError(f"the quantile at level {level} is not finite: {q}")
    return q


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
                candidate = max(seg_lo, _upper_quantile(dist, level))
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
    """log E[e^{gamma Y}] / gamma; divergence surfaces as a non-finite mean."""

    gamma: float = 1.0
    kind = "entropic"

    def __post_init__(self):
        _check_finite("entropic functional", gamma=self.gamma)
        if not self.gamma > 0.0:
            raise DomainError(f"entropic parameter must be positive, got {self.gamma}")

    def evaluate(self, dist, m=_DEFAULT_M, delta=_DEFAULT_DELTA):
        sample = _atoms(dist, m, delta)
        # deliberately plain exponential: a divergent moment shows up as a
        # non-finite quadrature value rather than being masked
        with np.errstate(over="ignore"):
            mgf = pairwise_mean(np.exp(self.gamma * sample))
        if not np.isfinite(mgf) or mgf <= 0.0:
            raise MomentError(
                f"exponential moment not finite under quadrature (gamma={self.gamma})"
            )
        return float(np.log(mgf) / self.gamma)

    def describe(self):
        return f"entropic[{self.gamma}]"


_SCORE_BLOCK = 1 << 18  # score values per block of reports


def _mean_scores(score: Score, sample: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Mean of S(z_i, Y) over the atoms ``sample`` for each report in the 1-D ``z``.

    Reports are scored in blocks of at most ``_SCORE_BLOCK`` values, so memory
    stays bounded as the grid grows.  Scores are elementwise and each row is
    folded by the tree of :func:`pairwise_sum`, so a report's mean does not
    depend on the block it lands in.
    """
    k = max(1, _SCORE_BLOCK // sample.size)
    out = np.empty(z.size)
    for i in range(0, z.size, k):
        vals = score(z[i : i + k, None], sample[None, :])
        out[i : i + k] = pairwise_sum(vals, axis=-1) / sample.size
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
    means = _mean_scores(score, _atoms(dist, m, delta), z_arr.ravel()).reshape(z_arr.shape)
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

    Ties break toward the smallest report.  The grid stage scans ``steps``
    points on [z_lo, z_hi]; golden-section then refines inside the best
    bracket down to 1e-8 relative width.  Both stages score reports against
    the same atoms of ``dist`` in bounded blocks, as :func:`expected_score`
    does.
    """
    if not z_lo < z_hi:
        raise DomainError(f"need z_lo < z_hi, got ({z_lo}, {z_hi})")
    if steps < 2:
        raise DomainError(f"need steps >= 2, got {steps}")
    sample = _atoms(dist, m, delta)
    zs = np.linspace(z_lo, z_hi, steps)
    values = _mean_scores(score, sample, zs)
    finite = np.isfinite(values)
    if not np.any(finite):
        raise EvaluationError("expected score is non-finite over the whole grid")
    values = np.where(finite, values, np.inf)
    i = int(np.argmin(values))  # argmin returns the first, i.e. smallest z
    lo = zs[max(i - 1, 0)]
    hi = zs[min(i + 1, steps - 1)]
    objective = lambda z: _mean_scores(score, sample, np.array([z]))[0]
    return float(golden_section(objective, float(lo), float(hi), width_tol=1e-8))


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one axiom: worst violation and a witness if it failed."""

    name: str
    passed: bool
    max_violation: float
    witness: dict | None = None

    def to_json_dict(self):
        out = {
            "name": self.name,
            "passed": self.passed,
            "max_violation": self.max_violation,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class AxiomReport:
    functional: str
    tol: float
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self):
        return {
            "functional": self.functional,
            "tol": self.tol,
            "all_passed": self.all_passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }


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
    return AxiomReport(
        functional=functional.describe(),
        tol=tol,
        checks=(*checks, monotonicity),
    )


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
