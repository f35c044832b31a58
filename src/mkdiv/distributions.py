"""Univariate distributions with cdf/quantile evaluation and quantile grids.

Every distribution exposes

* ``cdf(x)``      -- right-continuous distribution function,
* ``quantile(u)`` -- the left-continuous generalized inverse
  ``inf{y : F(y) >= u}`` for ``u`` in (0, 1),
* ``mean()``      -- closed form where available, exact for samples,
* ``atoms(m, delta)`` -- once the grid ``(m, delta)`` is checked, the sorted
  equal-weight atoms every computation reads: a sample, else the grid's nodes,
* ``_upper_quantile(level)`` -- Q+(level) = inf{y : F(y) > level},
* ``_exp_moment_finite(gamma)`` -- whether E[e^{gamma Y}] is finite, gamma > 0,

and every downstream integral over u is a :class:`~mkdiv.numerics.Rule` on
the atoms: the midpoint rule of a :class:`QuantileGrid`, whose non-decreasing
nodes are the quantiles at ``u_i = (i - 1/2) / m``, or the merged breakpoints
of two atom lists.  A grid is its nodes: ``m`` is their count, and a
decreasing node is an error, never repaired.  :func:`quantile_grid` still
takes a tail level ``delta``, which :func:`~mkdiv.numerics.midpoint_rule` checks.

Objects are immutable after construction; every method is pure and safe for
concurrent reads.

Notes
-----
``quantile`` is only defined on the open interval (0, 1); a grid never asks
for the levels 0 or 1, whose quantiles may be infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IngestionError, MomentError
from .numerics import (
    _BLOCK,
    _DEFAULT_DELTA,
    _DEFAULT_M,
    Rule,
    _check_finite,
    first_outside,
    midpoint_rule,
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

    def atoms(self, m: int = _DEFAULT_M, delta: float = _DEFAULT_DELTA) -> np.ndarray:
        """The nodes of the checked midpoint grid ``(m, delta)``."""
        return quantile_grid(self, m, delta).nodes

    def _upper_quantile(self, level: float) -> float:
        """Q+(level) of a law without flats; an overflow raises MomentError."""
        with np.errstate(over="ignore"):
            q = float(self.quantile(level))
        if not np.isfinite(q):
            raise MomentError(f"the quantile at level {level} is not finite: {q}")
        return q

    def _exp_moment_finite(self, gamma: float) -> bool:
        """Whether E[e^{gamma Y}] is finite, for gamma > 0.  It is when the
        support is bounded above; a law unbounded above whose right tail is
        light enough overrides this."""
        return math.isfinite(self.support[1])

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


# Cephes ndtri (S. L. Moshier, 1989), the algorithm scipy runs for ndtri.
# Central band exp(-2) < u <= 1 - exp(-2): x = (y + y*y^2*P0(y^2)/Q0(y^2))*sqrt(2pi)
# with y = u - 1/2.  Tails, with y = min(u, 1 - u): x = s - log(s)/s - P(z)/Q(z)*z
# with s = sqrt(-2 log y) and z = 1/s, from P1/Q1 while s < 8 and P2/Q2 beyond.
# A Q table carries an implicit leading coefficient 1 (Cephes' p1evl).
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016)
_Q0 = (1.95448858338141759834, 4.67627912898881538453, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142)
_P1 = (4.05544892305962419923, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970, 6.91522889068984211695, 3.93881025292474443415,
       1.33303460815807542389, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255, 3.67983563856160859403, 1.37702099489081330271,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _ratio(x, p, q):
    """x * P(x) / Q(x) by Horner's rule from the leading coefficient, in Cephes'
    order of operations; Q has an implicit leading 1."""
    num = x * p[0]
    for c in p[1:]:
        num += c
        num *= x
    den = x + q[0]
    for c in q[1:]:
        den *= x
        den += c
    num /= den
    return num


def _select(mask):
    """``mask``, or the whole block when it selects every entry: a sorted grid
    lies in one band on most blocks, which then skip a gather and a scatter."""
    return slice(None) if mask.all() else mask


def _ndtri(u):
    """Standard normal quantile of levels ``u`` in (0, 1), by Cephes' ndtri."""
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, _BLOCK):
        b = flat[start:start + _BLOCK]
        o = out[start:start + _BLOCK]
        upper = b > 1.0 - _EXP_M2
        y = np.subtract(1.0, b, out=b.copy(), where=upper)
        central = y > _EXP_M2
        tail = ~central
        if central.any():
            c = _select(central)
            yc = y[c]
            yc -= 0.5
            w = _ratio(yc * yc, _P0, _Q0)
            w *= yc
            w += yc
            w *= _S2PI
            o[c] = w
        if tail.any():
            t = _select(tail)
            s = np.log(y[t])
            s *= -2.0
            np.sqrt(s, out=s)
            z = 1.0 / s
            x1 = _ratio(z, _P1, _Q1)
            far = s >= 8.0  # y < exp(-32)
            if far.any():
                x1[far] = _ratio(z[far], _P2, _Q2)
            x = np.log(s)
            x /= s
            np.subtract(s, x, out=x)
            x -= x1
            np.negative(x, out=x, where=~upper[t])  # the lower tail
            o[t] = x
    return out.reshape(u.shape)


_SQRT1_2 = math.sqrt(0.5)


def _ndtr_scalar(x):
    if math.isnan(x):
        return x
    t = x * _SQRT1_2
    if abs(t) < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(t)
    y = 0.5 * math.erfc(abs(t))
    return 1.0 - y if t > 0.0 else y


_ndtr_objects = np.frompyfunc(_ndtr_scalar, 1, 1)


def _ndtr(x):
    """Standard normal cdf by Cephes' ndtr branches on the C library's erf/erfc;
    one Python call per entry, so meant for scalars and short arrays."""
    return np.asarray(_ndtr_objects(x), dtype=float)


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
        # _ndtri ports Cephes' ndtri: bit for bit scipy's ndtri on the
        # central band, within a few ulp of it in the tails, where np.log may
        # round differently; TestProbit in test_distributions certifies it to
        # 1e-15 relative against mpmath at 340 digits.
        return self.mu + self.sigma * _ndtri(u)

    def _cdf(self, x):
        return _ndtr((x - self.mu) / self.sigma)

    def mean(self):
        return self.mu

    def _exp_moment_finite(self, gamma):
        return True

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
        return np.exp(self.mu + self.sigma * _ndtri(u))

    def _cdf(self, x):
        safe = np.where(x > 0.0, x, 1.0)
        return np.where(
            x > 0.0, _ndtr((np.log(safe) - self.mu) / self.sigma), 0.0
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

    def _exp_moment_finite(self, gamma):
        return self.rate > gamma

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


def _sorted_sample(values: np.ndarray) -> np.ndarray:
    """``values`` sorted along the last axis by the one sort every sample
    takes: stable, so each row is a permutation of its input bits in which
    tied values, -0.0 and +0.0 among them, keep their input order, the same
    on every CPU.  numpy's default sort picks a SIMD kernel by CPU and may
    mix tied zeros."""
    return np.sort(values, axis=-1, kind="stable")


@dataclass(frozen=True, eq=False)
class Empirical(Distribution):
    """Equal-weight empirical distribution on a sorted sample.

    ``quantile(u)`` returns the ceil(u*n)-th order statistic, which is the
    left-continuous generalized inverse of the empirical cdf; ties contribute
    multiplicity to the cdf.  The sample must be a non-empty, finite 1-D
    array; a non-finite entry is named by its index in ``values`` as given,
    after the ``source_path`` it was read from, if any.  ``values`` holds the
    sample sorted by :func:`_sorted_sample`: its zeros keep their signs and
    input order on every CPU.
    """

    values: np.ndarray
    source_path: str | None = field(default=None, compare=False)
    kind = "empirical"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise IngestionError(f"a sample must be 1-D, got shape {vals.shape}")
        if vals.size == 0:
            raise IngestionError("cannot build a distribution from an empty sample")
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            i = int(bad[0])
            where = f"{self.source_path}: " if self.source_path else ""
            raise IngestionError(f"{where}non-finite sample value at index {i}: {float(vals[i])}")
        vals = _sorted_sample(vals)
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

    def atoms(self, m=_DEFAULT_M, delta=_DEFAULT_DELTA):
        """The sorted sample, once the grid ``(m, delta)`` is checked."""
        midpoint_rule(m, delta)
        return self.values

    def _upper_quantile(self, level):
        """The first atom whose cdf exceeds ``level`` in (0, 1): it steps over
        a flat.  That is the first atom tied with the c-th, for the smallest
        count c with ``c / n > level``, divided as :meth:`_cdf` divides."""
        n, values = self.n, self.values
        c = min(int(level * n) + 1, n)  # level * n rounds, so c may be one off
        while c > 1 and (c - 1) / n > level:
            c -= 1
        while c / n <= level:
            c += 1
        return float(values[np.searchsorted(values, values[c - 1], "left")])

    @property
    def support(self):
        return (float(self.values[0]), float(self.values[-1]))


def from_samples(values, source_path: str | None = None) -> Empirical:
    """The :class:`Empirical` law of any iterable of values; input order is
    irrelevant but for the order of tied zeros of both signs, which the
    law's stable sort keeps, and an empty or non-finite sample raises
    IngestionError."""
    return Empirical(np.asarray(list(values), dtype=float), source_path=source_path)


@dataclass(frozen=True, eq=False)
class QuantileGrid:
    """Discretized quantile function on the midpoint u-grid.

    ``nodes[i]`` holds the quantile at ``rule.u[i] = (i - 1/2) / m``, where
    ``m`` is the number of nodes.  The nodes must form a 1-D array of at
    least two entries that never decreases; the first decrease, or a NaN
    node, raises a DomainError naming its index.  The grid keeps a read-only
    view of the array it is given.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float).view()
        if nodes.ndim != 1 or nodes.size < 2:
            raise DomainError(
                f"grid nodes must be a 1-D array of at least 2 entries, got shape {nodes.shape}"
            )
        dips = np.flatnonzero(~(nodes[1:] >= nodes[:-1]))  # a NaN fails it too
        if dips.size:
            i = int(dips[0]) + 1
            if math.isnan(nodes[i - 1]):  # only a NaN at node 0 is caught on its right
                i -= 1
            if math.isnan(nodes[i]):
                raise DomainError(f"grid node {i} is nan", index=i)
            raise DomainError(
                f"grid nodes must not decrease: node {i} is {float(nodes[i])} "
                f"after {float(nodes[i - 1])}",
                index=i,
            )
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def m(self) -> int:
        return self.nodes.size

    @property
    def rule(self) -> Rule:
        return Rule(None, self.m)


def quantile_grid(
    dist: Distribution, m: int = _DEFAULT_M, delta: float = _DEFAULT_DELTA
) -> QuantileGrid:
    """Evaluate ``dist``'s quantile function on the midpoint grid ``(m, delta)``."""
    return QuantileGrid(nodes=dist.quantile(midpoint_rule(m, delta).u))


def read_value_csv(path) -> list[float]:
    """Read one numeric value per line, in ASCII and with no digit separator
    ``_``; an optional header ``value`` and a UTF-8 byte-order mark are
    allowed."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
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
            # float() also reads digit separators and non-ASCII digits
            if "_" in text or not text.isascii():
                raise ValueError(text)
            out.append(float(text))
        except ValueError as exc:
            raise IngestionError(f"{path}: line {lineno} is not numeric: {text!r}") from exc
    if not out:
        raise IngestionError(f"{path}: no numeric values found")
    return out
