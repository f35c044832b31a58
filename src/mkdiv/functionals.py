"""Elicitable functionals: evaluation, expected-score minimisation, axioms.

Each functional evaluates on a :class:`~mkdiv.distributions.Distribution`;
parametric inputs are reduced to the midpoint quantile grid (one quadrature
policy for the whole package), empirical inputs are handled exactly on their
atoms.  Root-finds use bracketed bisection on monotone residuals, which is
unconditionally safe.

:func:`argmin_expected_score` provides the independent route to the same
quantities: minimising the expected score over reports.  The two routes are
compared in the test-suite for every functional/score pair of the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import Distribution, Empirical, from_samples, quantile_grid
from .errors import AmbiguityError, DomainError, EvaluationError, MomentError
from .numerics import bisect_decreasing, golden_section, pairwise_mean, pairwise_sum
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

_DEFAULT_M = 10_000
_DEFAULT_DELTA = 1e-7


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
        return bisect_decreasing(
            lambda z: self.residual(sample, z), lo, hi, target=0.0
        )

    def describe(self):
        return f"expectile[{self.alpha}]"


@dataclass(frozen=True)
class Shortfall(Functional):
    """Smallest x with E[ell(W - x)] <= 0, by monotone bisection.

    The initial bracket is the sample range, widened geometrically if the
    residual has not changed sign (it always has, for sign-consistent
    losses, but the widening keeps the solver total).
    """

    loss: LossFunction = field(default_factory=exponential_loss)
    kind = "shortfall"

    def residual(self, sample: np.ndarray, x: float) -> float:
        vals = self.loss.ell(sample - x)
        if not np.all(np.isfinite(vals)):
            raise MomentError("shortfall residual is not finite under quadrature")
        return pairwise_mean(vals)

    def evaluate(self, dist, m=_DEFAULT_M, delta=_DEFAULT_DELTA):
        sample = _atoms(dist, m, delta)
        lo, hi = float(sample[0]), float(sample[-1])
        if lo == hi:
            return lo
        res = lambda x: self.residual(sample, x)
        width = hi - lo
        for _ in range(60):
            if res(lo) >= 0.0:
                break
            lo -= width
            width *= 2.0
        width = hi - lo
        for _ in range(60):
            if res(hi) <= 0.0:
                break
            hi += width
            width *= 2.0
        return bisect_decreasing(res, lo, hi, target=0.0)

    def describe(self):
        return f"shortfall[{self.loss.kind}]"


@dataclass(frozen=True, eq=False)
class LambdaQuantile(Functional):
    """First crossing of the cdf over a step threshold Lambda.

    Requires a unique crossing: the scan walks every breakpoint of both the
    cdf (atoms, for empirical inputs) and Lambda, locates the first point
    where ``F > Lambda`` and raises :class:`AmbiguityError` if the sign dips
    back afterwards.
    """

    step: StepFunction = None
    kind = "lambda_quantile"

    def __post_init__(self):
        if self.step is None:
            raise DomainError("lambda-quantile needs a step function")

    def evaluate(self, dist, m=_DEFAULT_M, delta=_DEFAULT_DELTA):
        if isinstance(dist, Empirical):
            return self._evaluate_empirical(dist)
        return self._evaluate_continuous(dist, delta)

    def _evaluate_empirical(self, dist: Empirical) -> float:
        events = np.unique(np.concatenate([dist.values, self.step.breakpoints]))
        d = dist.cdf(events) - self.step(events)
        above = np.flatnonzero(d > 0.0)
        if above.size == 0:
            raise AmbiguityError("cdf never exceeds the threshold on the scan")
        first = int(above[0])
        later = d[first + 1 :]
        if np.any(later < -1e-12):
            raise AmbiguityError(
                "multiple cdf/threshold crossings detected on the scan grid"
            )
        return float(events[first])

    def _evaluate_continuous(self, dist: Distribution, delta: float) -> float:
        bp = self.step.breakpoints
        lv = self.step.levels
        nseg = lv.size
        crossing = None
        for j in range(nseg):
            seg_lo = -np.inf if j == 0 else float(bp[j - 1])
            seg_hi = np.inf if j == nseg - 1 else float(bp[j])
            level = float(lv[j])
            q = float(dist.quantile(level))
            if crossing is None:
                # inf{y in segment : F(y) > level}; for a cdf with no flat
                # piece at exactly this level that is max(seg_lo, quantile)
                candidate = max(seg_lo, q)
                if candidate < seg_hi:
                    crossing = candidate
            else:
                # uniqueness: F must stay above the threshold from the
                # crossing onward; the minimum over the remaining segment is
                # at its left end since F is non-decreasing
                start = max(seg_lo, crossing)
                if float(dist.cdf(start)) < level - 1e-12:
                    raise AmbiguityError(
                        "multiple cdf/threshold crossings detected on the scan grid"
                    )
        if crossing is None:
            raise AmbiguityError("cdf never exceeds the threshold on the scan")
        return float(crossing)

    def describe(self):
        return "lambda_quantile"


@dataclass(frozen=True)
class Entropic(Functional):
    """log E[e^{gamma Y}] / gamma; divergence surfaces as a non-finite mean."""

    gamma: float = 1.0
    kind = "entropic"

    def __post_init__(self):
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


def expected_score(
    score: Score,
    dist: Distribution,
    z,
    m: int = _DEFAULT_M,
    delta: float = _DEFAULT_DELTA,
):
    """E_F[S(z, Y)] for scalar or array reports z."""
    sample = _atoms(dist, m, delta)
    z_arr = np.asarray(z, dtype=float)
    if z_arr.ndim == 0:
        return pairwise_mean(np.asarray(score(z_arr, sample)))
    vals = np.asarray(score(z_arr[:, None], sample[None, :]))
    return pairwise_sum(vals, axis=-1) / vals.shape[-1]


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
    bracket down to 1e-8 relative width.
    """
    if not z_lo < z_hi:
        raise DomainError(f"need z_lo < z_hi, got ({z_lo}, {z_hi})")
    if steps < 2:
        raise DomainError(f"need steps >= 2, got {steps}")
    sample = _atoms(dist, m, delta)
    zs = np.linspace(z_lo, z_hi, steps)

    def objective(z):
        return pairwise_mean(np.asarray(score(z, sample)))

    values = expected_score(score, dist, zs, m, delta)
    finite = np.isfinite(values)
    if not np.any(finite):
        raise EvaluationError("expected score is non-finite over the whole grid")
    values = np.where(finite, values, np.inf)
    i = int(np.argmin(values))  # argmin returns the first, i.e. smallest z
    lo = zs[max(i - 1, 0)]
    hi = zs[min(i + 1, steps - 1)]
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


def check_axioms(
    functional: Functional,
    sample_pairs,
    shifts=(-1.5, 2.0),
    scales=(0.5, 2.0),
    mixes=(0.5,),
    tol: float = 1e-9,
) -> AxiomReport:
    """Empirical risk-measure axiom check on elementwise-coupled sample pairs.

    For every pair ``(x, y)`` of equal-length samples the following are
    tested on the induced empirical distributions:

    * translation invariance  T[X + m] = T[X] + m
    * positive homogeneity    T[s X] = s T[X]
    * convexity               T[lam X + (1-lam) Y] <= lam T[X] + (1-lam) T[Y],
      with X, Y coupled elementwise as given
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
    for k, (x, y) in enumerate(pairs):
        if x.size == 0 or x.shape != y.shape:
            raise DomainError(f"sample pair {k} is empty or misaligned")

    def T(sample):
        return functional.evaluate(from_samples(sample))

    translation = _worst(
        (
            (abs(T(x + m) - (T(x) + m)), {"pair": k, "shift": m})
            for k, (x, _) in enumerate(pairs)
            for m in shifts
        ),
        tol,
        "translation_invariance",
    )
    homogeneity = _worst(
        (
            (abs(T(s * x) - s * T(x)), {"pair": k, "scale": s})
            for k, (x, _) in enumerate(pairs)
            for s in scales
        ),
        tol,
        "positive_homogeneity",
    )
    convexity = _worst(
        (
            (
                T(lam * x + (1.0 - lam) * y) - (lam * T(x) + (1.0 - lam) * T(y)),
                {"pair": k, "mix": lam},
            )
            for k, (x, y) in enumerate(pairs)
            for lam in mixes
        ),
        tol,
        "convexity",
    )
    monotonicity = _worst(
        (
            (T(np.minimum(x, y)) - T(np.maximum(x, y)), {"pair": k})
            for k, (x, y) in enumerate(pairs)
        ),
        tol,
        "monotonicity",
    )
    return AxiomReport(
        functional=functional.describe(),
        tol=tol,
        checks=(translation, homogeneity, convexity, monotonicity),
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
