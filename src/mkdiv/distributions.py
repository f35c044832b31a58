"""Univariate distributions with cdf/quantile evaluation and quantile grids.

Every distribution exposes

* ``cdf(x)``      -- right-continuous distribution function,
* ``quantile(u)`` -- the left-continuous generalized inverse
  ``inf{y : F(y) >= u}`` for ``u`` in (0, 1),
* ``mean()``      -- closed form where available, exact for samples,

and all downstream integrals are computed on :class:`QuantileGrid` objects:
quantile values at the midpoint nodes ``u_i = (i - 1/2) / m``.  The grid's
tail level ``delta`` is checked (``0 <= delta < 0.5/m``) and reported; the
nodes lie inside ``[delta, 1 - delta]`` and delta moves none of them.

Objects are immutable after construction; every method is pure and safe for
concurrent reads.

Notes
-----
``quantile`` is only defined on the open interval (0, 1); a grid never asks
for the levels 0 or 1, whose quantiles may be infinite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DomainError, IngestionError
from .numerics import (
    _DEFAULT_DELTA,
    _DEFAULT_M,
    _check_finite,
    _check_grid,
    first_outside,
    midpoint_u,
    pairwise_mean,
)

__all__ = [
    "Distribution",
    "Uniform",
    "Normal",
    "LogNormal",
    "Exponential",
    "PointMass",
    "Empirical",
    "QuantileGrid",
    "from_samples",
    "quantile_grid",
    "read_value_csv",
]


def _prepare(x):
    """Coerce to float array, remembering whether the input was scalar."""
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _finish(arr, scalar):
    return float(arr) if scalar else arr


class Distribution:
    """Abstract base; see module docstring for the exposed contract."""

    kind = "abstract"

    def quantile(self, u):
        arr, scalar = _prepare(u)
        if np.isnan(arr).any() or first_outside(arr, (0.0, 1.0)) is not None:
            raise DomainError(f"quantile level must lie in (0, 1), got {u!r}")
        return _finish(self._quantile(arr), scalar)

    def cdf(self, x):
        arr, scalar = _prepare(x)
        return _finish(self._cdf(arr), scalar)

    def mean(self) -> float:
        raise NotImplementedError

    @property
    def support(self):
        """(lower, upper) bounds of the support; may be infinite."""
        raise NotImplementedError

    def _quantile(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _cdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Uniform(Distribution):
    a: float = 0.0
    b: float = 1.0
    kind = "uniform"

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise DomainError(f"uniform requires finite a < b, got ({self.a}, {self.b})")

    def _quantile(self, u):
        return self.a + u * (self.b - self.a)

    def _cdf(self, x):
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)

    def mean(self):
        return 0.5 * (self.a + self.b)

    @property
    def support(self):
        return (self.a, self.b)


@dataclass(frozen=True)
class Normal(Distribution):
    mu: float = 0.0
    sigma: float = 1.0
    kind = "normal"

    def __post_init__(self):
        _check_finite("normal", mu=self.mu, sigma=self.sigma)
        if not self.sigma > 0.0:
            raise DomainError(f"normal requires sigma > 0, got sigma={self.sigma}")

    def _quantile(self, u):
        # ndtri is the standard rational approximation of the probit; its
        # absolute error is far below the 1e-9 contract (cross-checked in the
        # test-suite against 50-digit reference values).
        return self.mu + self.sigma * ndtri(u)

    def _cdf(self, x):
        return ndtr((x - self.mu) / self.sigma)

    def mean(self):
        return self.mu

    @property
    def support(self):
        return (-np.inf, np.inf)


@dataclass(frozen=True)
class LogNormal(Distribution):
    mu: float = 0.0
    sigma: float = 1.0
    kind = "lognormal"

    def __post_init__(self):
        _check_finite("lognormal", mu=self.mu, sigma=self.sigma)
        if not self.sigma > 0.0:
            raise DomainError(f"lognormal requires sigma > 0, got sigma={self.sigma}")

    def _quantile(self, u):
        return np.exp(self.mu + self.sigma * ndtri(u))

    def _cdf(self, x):
        safe = np.where(x > 0.0, x, 1.0)
        return np.where(
            x > 0.0, ndtr((np.log(safe) - self.mu) / self.sigma), 0.0
        )

    def mean(self):
        return float(np.exp(self.mu + 0.5 * self.sigma**2))

    @property
    def support(self):
        return (0.0, np.inf)


@dataclass(frozen=True)
class Exponential(Distribution):
    rate: float = 1.0
    kind = "exponential"

    def __post_init__(self):
        _check_finite("exponential", rate=self.rate)
        if not self.rate > 0.0:
            raise DomainError(f"exponential requires rate > 0, got {self.rate}")

    def _quantile(self, u):
        return -np.log1p(-u) / self.rate

    def _cdf(self, x):
        return np.where(x < 0.0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))

    def mean(self):
        return 1.0 / self.rate

    @property
    def support(self):
        return (0.0, np.inf)


@dataclass(frozen=True)
class PointMass(Distribution):
    c: float = 0.0
    kind = "point_mass"

    def __post_init__(self):
        _check_finite("point mass", c=self.c)

    def _quantile(self, u):
        return np.full_like(u, self.c)

    def _cdf(self, x):
        return (x >= self.c).astype(float)

    def mean(self):
        return self.c

    @property
    def support(self):
        return (self.c, self.c)


@dataclass(frozen=True, eq=False)
class Empirical(Distribution):
    """Equal-weight empirical distribution on a sorted sample.

    ``quantile(u)`` returns the ceil(u*n)-th order statistic, which is the
    left-continuous generalized inverse of the empirical cdf; ties contribute
    multiplicity to the cdf.  The sample must be non-empty and finite; a
    non-finite entry is named by its index in ``values`` as given, after the
    ``source_path`` it was read from, if any.
    """

    values: np.ndarray
    source_path: str | None = field(default=None, compare=False)
    kind = "empirical"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.size == 0:
            raise IngestionError("cannot build a distribution from an empty sample")
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            i = int(bad[0])
            where = f"{self.source_path}: " if self.source_path else ""
            raise IngestionError(f"{where}non-finite sample value at index {i}: {float(vals[i])}")
        vals = np.sort(vals)
        object.__setattr__(self, "values", vals)
        self.values.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def _quantile(self, u):
        # ceil(u * n) lies in [1, n] for every checked u in (0, 1)
        return self.values[np.ceil(u * self.n).astype(int) - 1]

    def _cdf(self, x):
        return np.searchsorted(self.values, x, side="right") / self.n

    def mean(self):
        return pairwise_mean(self.values)

    @property
    def support(self):
        return (float(self.values[0]), float(self.values[-1]))


def from_samples(values, source_path: str | None = None) -> Empirical:
    """The :class:`Empirical` law of any iterable of values; input order is
    irrelevant, and an empty or non-finite sample raises IngestionError."""
    return Empirical(np.asarray(list(values), dtype=float), source_path=source_path)


@dataclass(frozen=True, eq=False)
class QuantileGrid:
    """Discretized quantile function on the midpoint u-grid.

    ``nodes[i]`` holds the quantile at ``u_i = (i - 1/2) / m``; ``(m, delta)``
    passes the grid check of :func:`~mkdiv.numerics.midpoint_u`, and
    ``delta`` is reported, not applied.  Nodes are validated to be
    non-decreasing; dips below resolution (1e-9 relative) are treated as
    float dust and removed by a running maximum, anything larger is an error.
    """

    nodes: np.ndarray
    m: int
    delta: float = 0.0

    def __post_init__(self):
        _check_grid(self.m, self.delta)
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size != self.m:
            raise DomainError("grid nodes must be a 1-D array of length m")
        scale = 1.0 + float(np.max(np.abs(nodes)))
        if np.any(np.diff(nodes) < -1e-9 * scale):
            raise DomainError("grid nodes are not non-decreasing")
        nodes = np.maximum.accumulate(nodes)
        object.__setattr__(self, "nodes", nodes)
        self.nodes.setflags(write=False)

    @property
    def u(self) -> np.ndarray:
        return midpoint_u(self.m, self.delta)


def quantile_grid(
    dist: Distribution, m: int = _DEFAULT_M, delta: float = _DEFAULT_DELTA
) -> QuantileGrid:
    """Evaluate ``dist``'s quantile function on the midpoint grid ``(m, delta)``."""
    u = midpoint_u(m, delta)
    return QuantileGrid(nodes=dist.quantile(u), m=int(m), delta=delta)


def read_value_csv(path) -> list[float]:
    """Read one numeric value per line; an optional header ``value`` is allowed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise IngestionError(f"{path}: cannot read ({reason})") from exc
    out: list[float] = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        if lineno == 1 and text.lower() == "value":
            continue
        try:
            out.append(float(text))
        except ValueError as exc:
            raise IngestionError(f"{path}: line {lineno} is not numeric: {text!r}") from exc
    if not out:
        raise IngestionError(f"{path}: no numeric values found")
    return out
