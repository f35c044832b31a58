"""Scoring functions used as transport costs, and their coupling claims.

Each :class:`Score` evaluates ``S(z, y)`` -- the penalty for reporting ``z``
when ``y`` realizes -- and carries a ``coupling`` claim ("comonotonic" or
"antitonic") stating which quantile coupling attains the induced optimal
transport value on the real line.  The claim flips whenever the score is
composed with a decreasing report map (:func:`osband_transform`) or a
decreasing data map (:func:`dist_transform`): flipping twice restores the
original claim.

Scores are normalised: ``S(point_value(y), y) = 0`` where ``point_value(y)``
is the value the elicited functional takes on the unit mass at ``y``.

Everything here is immutable and evaluation is pure; scores broadcast over
numpy arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, IngestionError
from .generators import ConvexGenerator, quadratic
from .numerics import _check_finite, first_outside

__all__ = [
    "MonotoneMap",
    "identity_map",
    "exp_map",
    "log_map",
    "reciprocal_map",
    "cube_map",
    "negation_map",
    "transform_catalog",
    "StepFunction",
    "LossFunction",
    "linear_loss",
    "exponential_loss",
    "power_loss",
    "Score",
    "BregmanScore",
    "GPLScore",
    "LambdaQuantileScore",
    "ExpectileScore",
    "ShortfallScore",
    "DecomposableScore",
    "EntropicScore",
    "OsbandScore",
    "DistTransformScore",
    "osband_transform",
    "dist_transform",
    "check_submodular",
    "COMONOTONIC",
    "ANTITONIC",
]

COMONOTONIC = "comonotonic"
ANTITONIC = "antitonic"

_FULL_LINE = (-np.inf, np.inf)
_POS_LINE = (0.0, np.inf)


@dataclass(frozen=True)
class MonotoneMap:
    """Strictly monotone map with a supplied inverse.

    ``domain`` constrains the map's inputs, ``codomain`` the values it
    attains (the inputs of the inverse).
    """

    name: str
    fn: Callable = field(repr=False)
    inverse: Callable | None = field(default=None, repr=False)
    increasing: bool = True
    domain: tuple = _FULL_LINE
    codomain: tuple = _FULL_LINE


def identity_map() -> MonotoneMap:
    return MonotoneMap("identity", lambda x: x, lambda x: x, True)


def exp_map() -> MonotoneMap:
    return MonotoneMap("exp", np.exp, np.log, True, codomain=_POS_LINE)


def log_map() -> MonotoneMap:
    return MonotoneMap("log", np.log, np.exp, True, domain=_POS_LINE)


def reciprocal_map() -> MonotoneMap:
    return MonotoneMap(
        "reciprocal", lambda x: 1.0 / x, lambda x: 1.0 / x, False,
        domain=_POS_LINE, codomain=_POS_LINE,
    )


def cube_map() -> MonotoneMap:
    return MonotoneMap("cube", lambda x: x**3, np.cbrt, True)


def negation_map() -> MonotoneMap:
    return MonotoneMap("negate", lambda x: -x, lambda x: -x, False)


def transform_catalog() -> dict:
    return {
        "identity": identity_map(),
        "exp": exp_map(),
        "log": log_map(),
        "reciprocal": reciprocal_map(),
        "cube": cube_map(),
        "negate": negation_map(),
    }


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Right-continuous step function with values in a band inside (0, 1).

    ``levels`` has one more entry than ``breakpoints``, which must be finite
    and strictly increasing; the function takes
    ``levels[j]`` on ``[breakpoints[j-1], breakpoints[j])`` with the obvious
    conventions at the ends.  Levels must be monotone (either direction).
    """

    breakpoints: np.ndarray
    levels: np.ndarray
    source_path: str | None = field(default=None, compare=False)

    def __post_init__(self):
        try:
            bp = np.asarray(self.breakpoints, dtype=float)
            lv = np.asarray(self.levels, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"breakpoints and levels must be numeric: {exc}") from exc
        if bp.ndim != 1 or lv.ndim != 1:
            raise ConfigError("breakpoints and levels must be flat lists")
        if lv.size != bp.size + 1:
            raise ConfigError(
                f"need len(levels) == len(breakpoints) + 1, got {lv.size} and {bp.size}"
            )
        bad = np.flatnonzero(~np.isfinite(bp))
        if bad.size:
            i = int(bad[0])
            raise ConfigError(f"breakpoints must be finite, got {float(bp[i])} at index {i}")
        if bp.size and np.any(np.diff(bp) <= 0.0):
            raise ConfigError("breakpoints must be strictly increasing")
        if np.isnan(lv).any() or first_outside(lv, (0.0, 1.0)) is not None:
            raise ConfigError("levels must lie strictly inside (0, 1)")
        d = np.diff(lv)
        if not (np.all(d >= 0.0) or np.all(d <= 0.0)):
            raise ConfigError("levels must be monotone")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "levels", lv)
        bp.setflags(write=False)
        lv.setflags(write=False)
        # cumulative exact areas between consecutive breakpoints, anchored at
        # the first breakpoint (zero when there is none)
        if bp.size:
            seg = lv[1:-1] * np.diff(bp) if bp.size > 1 else np.empty(0)
            cum = np.concatenate([[0.0], np.cumsum(seg)])
        else:
            cum = np.zeros(1)
        object.__setattr__(self, "_cum", cum)

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breakpoints, arr, side="right")
        out = self.levels[idx]
        return float(out) if np.ndim(x) == 0 else out

    def _antiderivative(self, t):
        """Exact integral of the step function from breakpoints[0] to t
        (from 0 to t when there are no breakpoints)."""
        arr = np.asarray(t, dtype=float)
        if self.breakpoints.size == 0:
            return self.levels[0] * arr
        idx = np.searchsorted(self.breakpoints, arr, side="right")
        anchor = self.breakpoints[np.maximum(idx, 1) - 1]
        return self._cum[np.maximum(idx, 1) - 1] + self.levels[idx] * (arr - anchor)

    def integral(self, y, z):
        """Exact integral of the step function from y to z (signed)."""
        return self._antiderivative(z) - self._antiderivative(y)

    @classmethod
    def from_json(cls, path) -> "StepFunction":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: undecodable bytes or JSON
            reason = getattr(exc, "strerror", None) or exc
            raise IngestionError(f"{path}: cannot read step-function JSON ({reason})") from exc
        if not isinstance(payload, dict):
            raise IngestionError(f"{path}: step-function JSON must be an object, "
                                 f"got {type(payload).__name__}")
        try:
            return cls(payload["breakpoints"], payload["levels"], source_path=str(path))
        except KeyError as exc:
            raise ConfigError(f"{path}: step-function JSON needs {exc}") from exc
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class LossFunction:
    """Increasing loss with closed-form antiderivative L(t) = int_0^t ell.

    The sign condition ell(w) < 0 for w < 0 and ell(w) > 0 for w > 0 makes
    L non-negative with L(0) = 0.
    """

    kind: str
    gamma: float = 1.0
    p: float = 3.0

    def __post_init__(self):
        if self.kind not in ("linear", "exponential", "power"):
            raise ConfigError(f"unknown loss kind {self.kind!r}")
        _check_finite(f"{self.kind} loss", gamma=self.gamma, p=self.p)
        if self.kind == "exponential" and not self.gamma > 0.0:
            raise ConfigError(f"exponential loss needs gamma > 0, got {self.gamma}")
        if self.kind == "power" and not self.p > 0.0:
            raise ConfigError(f"power loss needs p > 0, got {self.p}")

    def ell(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "linear":
            out = s
        elif self.kind == "exponential":
            out = np.expm1(self.gamma * s)
        else:
            out = np.sign(s) * np.abs(s) ** self.p
        return out

    def antiderivative(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "linear":
            return 0.5 * t * t
        if self.kind == "exponential":
            return np.expm1(self.gamma * t) / self.gamma - t
        return np.abs(t) ** (self.p + 1.0) / (self.p + 1.0)


def linear_loss() -> LossFunction:
    return LossFunction("linear")


def exponential_loss(gamma: float = 1.0) -> LossFunction:
    return LossFunction("exponential", gamma=gamma)


def power_loss(p: float = 3.0) -> LossFunction:
    return LossFunction("power", p=p)


class Score:
    """Base scoring function S(z, y) with a coupling claim.

    Attributes
    ----------
    family : str
        Family tag used in error messages and spec strings.
    coupling : str
        "comonotonic" or "antitonic".
    z_domain, y_domain : (float, float)
        Open intervals the report and the realization must lie in.
    """

    family = "abstract"
    coupling = COMONOTONIC
    z_domain = _FULL_LINE
    y_domain = _FULL_LINE

    def __call__(self, z, y):
        z_arr = np.asarray(z, dtype=float)
        y_arr = np.asarray(y, dtype=float)
        self._check(z_arr, self.z_domain, "report z")
        self._check(y_arr, self.y_domain, "realization y")
        out = self._eval(z_arr, y_arr)
        if np.ndim(z) == 0 and np.ndim(y) == 0:
            return float(out)
        return out

    def _check(self, arr, interval, what):
        i = first_outside(arr, interval)
        if i is not None:
            raise DomainError(
                f"score family '{self.family}': {what} outside {tuple(interval)}", index=i
            )

    def _eval(self, z, y):
        raise NotImplementedError

    def point_value(self, y):
        """Value of the elicited functional at the unit mass in y."""
        return np.asarray(y, dtype=float) + 0.0

    @property
    def atom_interval(self):
        """Sampling interval for randomized certification instances."""
        lo, hi = self.z_domain
        ylo, yhi = self.y_domain
        lo, hi = max(lo, ylo), min(hi, yhi)
        if lo == -np.inf and hi == np.inf:
            return (-2.0, 2.0)
        if lo == 0.0:
            return (0.1, 3.0)
        return (lo + 0.1, min(hi, lo + 3.0))

    def describe(self) -> str:
        return self.family


@dataclass(frozen=True)
class BregmanScore(Score):
    """S(z, y) = phi(y) - phi(z) - dphi(z) (y - z); elicits the mean."""

    gen: ConvexGenerator = field(default_factory=quadratic)
    family = "bregman"

    def __post_init__(self):
        object.__setattr__(self, "z_domain", self.gen.domain)
        object.__setattr__(self, "y_domain", self.gen.domain)

    def _eval(self, z, y):
        return self.gen.bregman(y, z)

    def describe(self):
        return f"bregman[{self.gen.name}]"


@dataclass(frozen=True)
class GPLScore(Score):
    """Generalized piecewise linear score (1{y<=z} - alpha)(g(z) - g(y)).

    ``transform`` must be increasing; elicits the alpha-quantile.
    """

    alpha: float = 0.5
    transform: MonotoneMap = field(default_factory=identity_map)
    family = "gpl"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"gpl level must lie in (0, 1), got {self.alpha}")
        if not self.transform.increasing:
            raise ConfigError("gpl transform must be increasing")
        object.__setattr__(self, "z_domain", self.transform.domain)
        object.__setattr__(self, "y_domain", self.transform.domain)

    def _eval(self, z, y):
        g = self.transform.fn
        return np.where(y <= z, 1.0 - self.alpha, -self.alpha) * (g(z) - g(y))

    def describe(self):
        return f"gpl[{self.transform.name},alpha={self.alpha}]"


@dataclass(frozen=True, eq=False)
class LambdaQuantileScore(Score):
    """S(z, y) = (z - y)_+ - int_y^z Lambda(s) ds, Lambda a step function.

    The integral is evaluated exactly from the step representation, so no
    quadrature error enters the cost function.
    """

    step: StepFunction
    family = "lambda_quantile"

    def _eval(self, z, y):
        return np.maximum(z - y, 0.0) - self.step.integral(y, z)


@dataclass(frozen=True)
class ExpectileScore(Score):
    """S(z, y) = |1{y<=z} - alpha| * Bregman(y, z); elicits the expectile."""

    alpha: float = 0.5
    gen: ConvexGenerator = field(default_factory=quadratic)
    family = "expectile"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"expectile level must lie in (0, 1), got {self.alpha}")
        object.__setattr__(self, "z_domain", self.gen.domain)
        object.__setattr__(self, "y_domain", self.gen.domain)

    def _eval(self, z, y):
        return np.where(y <= z, 1.0 - self.alpha, self.alpha) * self.gen.bregman(y, z)

    def describe(self):
        return f"expectile[{self.gen.name},alpha={self.alpha}]"


@dataclass(frozen=True)
class ShortfallScore(Score):
    """S(z, y) = int_0^{y-z} ell(s) ds = L(y - z); elicits the shortfall."""

    loss: LossFunction = field(default_factory=linear_loss)
    family = "shortfall"

    def _eval(self, z, y):
        return self.loss.antiderivative(y - z)

    def describe(self):
        return f"shortfall[{self.loss.kind}]"


@dataclass(frozen=True)
class DecomposableScore(Score):
    """S(z, y) = phi(|z-y|) (alpha 1{y>z} + beta 1{y<=z}).

    ``gen`` must be increasing and convex on [0, inf) with phi(0) = 0; the
    family covers quantile- and expectile-type scores and the M-quantiles.
    """

    gen: ConvexGenerator = field(default_factory=quadratic)
    alpha: float = 0.5
    beta: float = 0.5
    family = "decomposable"

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise DomainError(f"decomposable weights must lie in [0, 1], "
                              f"got alpha={self.alpha}, beta={self.beta}")
        lo, hi = self.gen.domain
        if lo > 0.0 or hi < np.inf:
            raise ConfigError("decomposable generator must be defined on [0, inf)")
        with np.errstate(all="ignore"):
            at_zero = float(self.gen.phi(0.0))
        if not abs(at_zero) <= 1e-12:
            raise ConfigError("decomposable generator needs phi(0) = 0")

    def _eval(self, z, y):
        return self.gen.phi(np.abs(z - y)) * np.where(y <= z, self.beta, self.alpha)

    def describe(self):
        return f"decomposable[{self.gen.name},alpha={self.alpha},beta={self.beta}]"


@dataclass(frozen=True)
class EntropicScore(Score):
    """Score of the entropic risk measure, as a Bregman divergence of
    exponentially transformed arguments: Bregman(e^{gamma y}, e^{gamma z}).

    This is the composition of the mean score with the increasing maps
    x -> e^{gamma x} (data) and x -> log(x)/gamma (report), hence
    non-negative, zero iff z = y, and comonotonic.
    """

    gamma: float = 1.0
    gen: ConvexGenerator = field(default_factory=quadratic)
    family = "entropic"

    def __post_init__(self):
        _check_finite("entropic score", gamma=self.gamma)
        if not self.gamma > 0.0:
            raise DomainError(f"entropic parameter must be positive, got {self.gamma}")
        lo, hi = self.gen.domain
        if lo > 0.0 or hi < np.inf:
            raise ConfigError(
                "entropic score needs a generator defined on (0, inf)"
            )

    def _eval(self, z, y):
        # overflow is allowed to produce inf/nan scores; callers treat
        # non-finite expectations as moment/evaluation failures
        with np.errstate(over="ignore", invalid="ignore"):
            return self.gen.bregman(np.exp(self.gamma * y), np.exp(self.gamma * z))

    def describe(self):
        return f"entropic[{self.gen.name},gamma={self.gamma}]"


def _flip(claim: str) -> str:
    return ANTITONIC if claim == COMONOTONIC else COMONOTONIC


@dataclass(frozen=True)
class OsbandScore(Score):
    """Report transform: S(z, y) = inner(g^{-1}(z), y).

    Elicits g(T) when the inner score elicits T; the coupling claim flips
    exactly when g is decreasing.
    """

    inner: Score
    gmap: MonotoneMap
    family = "osband"

    def __post_init__(self):
        if self.gmap.inverse is None:
            raise ConfigError(f"map '{self.gmap.name}' is not invertible")
        claim = self.inner.coupling if self.gmap.increasing else _flip(self.inner.coupling)
        object.__setattr__(self, "coupling", claim)
        # reports live in the map's codomain, where the inverse is defined
        object.__setattr__(self, "z_domain", self.gmap.codomain)
        object.__setattr__(self, "y_domain", self.inner.y_domain)

    def _eval(self, z, y):
        return np.asarray(self.inner(self.gmap.inverse(z), y))

    def point_value(self, y):
        return self.gmap.fn(self.inner.point_value(y))

    def describe(self):
        return f"osband[{self.inner.describe()},g={self.gmap.name}]"


@dataclass(frozen=True)
class DistTransformScore(Score):
    """Data transform: S(z, y) = inner(z, h(y)).

    Elicits T applied to the law of h(Y); the coupling claim flips exactly
    when h is decreasing.
    """

    inner: Score
    hmap: MonotoneMap
    family = "dist_transform"

    def __post_init__(self):
        claim = self.inner.coupling if self.hmap.increasing else _flip(self.inner.coupling)
        object.__setattr__(self, "coupling", claim)
        object.__setattr__(self, "z_domain", self.inner.z_domain)
        object.__setattr__(self, "y_domain", self.hmap.domain)

    def _eval(self, z, y):
        return np.asarray(self.inner(z, self.hmap.fn(y)))

    def point_value(self, y):
        return self.inner.point_value(self.hmap.fn(y))

    def describe(self):
        return f"dist_transform[{self.inner.describe()},h={self.hmap.name}]"


def osband_transform(inner: Score, gmap: MonotoneMap) -> OsbandScore:
    return OsbandScore(inner=inner, gmap=gmap)


def dist_transform(inner: Score, hmap: MonotoneMap) -> DistTransformScore:
    return DistTransformScore(inner=inner, hmap=hmap)


def _transport_cost(score: Score, z1, z2) -> np.ndarray:
    """The transport cost c(z1, z2) = S(z2, z1) over broadcast ``z1`` and
    ``z2``.  An entry that is not finite, as from an overflowing score,
    raises :class:`DomainError` naming the first such (z1, z2) in C order."""
    with np.errstate(over="ignore", invalid="ignore"):
        C = np.asarray(score(z2, z1), dtype=float)
    finite = np.isfinite(C)
    if not finite.all():
        k = np.unravel_index(np.argmin(finite), C.shape)
        at1, at2 = (np.broadcast_to(z, C.shape)[k] for z in (z1, z2))
        raise DomainError(
            f"cost c(z1, z2) = {C[k]} is not finite at (z1, z2) = ({float(at1)}, {float(at2)})"
        )
    return C


def check_submodular(score: Score, z_grid, y_grid):
    """Check the transport cost c(z1, z2) = S(z2, z1) for submodularity.

    Tests ``c(min) + c(max) <= c(z) + c(z')`` on the adjacent 2x2 minors of
    the cost matrix over the sorted grids, which on a product of chains is
    equivalent to the test over all quadruples (Burkard, Klinz and Rudolf,
    1996); a one-dimensional transport problem with submodular cost is
    solved by the comonotonic coupling, a supermodular one by the antitonic
    coupling.  A minor fails when its gap ``c(min) + c(max) - c(z) - c(z')``
    exceeds ``1e-12 * (1 + max|c|)``; the gap of any
    quadruple is the sum of the minors it spans.  A non-finite cost raises
    :class:`DomainError` naming the first such entry in row-major order.

    Returns
    -------
    (bool, witness)
        ``witness`` is ``None`` on success, otherwise the first violating
        adjacent quadruple ``((z1', z2), (z1, z2'))`` in row-major order
        (z1, z1' and z2, z2' consecutive on their sorted grids) together with
        its gap: ``((z1', z2), (z1, z2'), gap)``.
    """
    z1 = np.sort(np.asarray(z_grid, dtype=float))
    z2 = np.sort(np.asarray(y_grid, dtype=float))
    if z1.size < 2 or z2.size < 2:
        raise DomainError("submodularity check needs grids of size >= 2")
    C = _transport_cost(score, z1[:, None], z2[None, :])  # C[i, j] = c(z1[i], z2[j])
    slack = 1e-12 * (1.0 + float(np.max(np.abs(C))))
    D = (C[:-1, :-1] + C[1:, 1:]) - (C[1:, :-1] + C[:-1, 1:])
    bad = np.flatnonzero(D > slack)
    if bad.size == 0:
        return True, None
    i, j = np.unravel_index(bad[0], D.shape)
    return False, (
        (float(z1[i + 1]), float(z2[j])),
        (float(z1[i]), float(z2[j + 1])),
        float(D[i, j]),
    )
