"""Shared numerical primitives: reductions, the rule over u and 1-D searches.

All reductions used for reported values go through :func:`pairwise_sum`, which
fixes the summation tree (index-ascending, adjacent pairing, folded along the
last axis), so results are bit-stable across runs; :class:`_BlockSum` sums
each aligned block of ``_BLOCK`` entries or tiles that values arrive in by
:func:`pairwise_sum` and merges the block sums by the same tree, so that no
caller holds all of them at once.  A :class:`Rule` integrates over the
quantile level u in the divergences, the worst-case value and the payoff
cost; the lambda probes and the expected-score scan divide :class:`_BlockSum`
totals by the node count, and node and atom means are :func:`pairwise_mean`.
Every open-domain check goes through :func:`first_outside`.
:func:`brent_root` and :func:`golden_section` are the 1-D searches; the robust
solvers' multiplier has its own, :func:`mkdiv.robust.calibrate_lambda`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError

__all__ = [
    "first_outside",
    "pairwise_sum",
    "pairwise_mean",
    "brent_root",
    "golden_section",
    "Rule",
    "midpoint_rule",
]


def first_outside(values, interval) -> int | None:
    """Flat index of the first value outside the open ``interval``, or None.

    Only finite bounds are enforced: infinities and NaN pass, so overflow
    upstream surfaces as a non-finite result rather than as a domain error.
    """
    arr = np.asarray(values, dtype=float)
    lo, hi = interval
    if math.isfinite(lo):
        bad = arr <= lo
        if math.isfinite(hi):
            bad |= arr >= hi
    elif math.isfinite(hi):
        bad = arr >= hi
    else:
        return None
    return int(np.argmax(bad)) if bad.any() else None


def _fold(a: np.ndarray) -> np.ndarray:
    """Pairwise tree over the last axis of ``a``, which must be non-empty.

    The first level pairs the entries into a zeroed buffer half the width
    of the axis padded to a power of two, so the rest of the buffer is the
    padding's own sums; each further level adds every adjacent pair of
    entries, one ``np.add`` for all the slices.
    """
    n = a.shape[-1]
    if n > 1:
        half = np.zeros(a.shape[:-1] + (1 << (n - 1).bit_length() - 1,))
        np.add(a[..., 0 : n - 1 : 2], a[..., 1::2], out=half[..., : n // 2])
        if n % 2:
            # x + 0.0, not x: the padded tree turns -0.0 into +0.0
            np.add(a[..., -1:], 0.0, out=half[..., n // 2 : n // 2 + 1])
        a = half
    while a.shape[-1] > 1:
        a = a[..., ::2] + a[..., 1::2]
    return a[..., 0]


_BLOCK = 1 << 14  # nodes per block: the temporaries of a block stay in cache


class _BlockSum:
    """:func:`pairwise_sum` along the last axis of values that arrive in
    consecutive blocks along it: aligned blocks of one power of two of
    entries, of which only the last may be shorter.

    Each block is folded by :func:`pairwise_sum`, and the sums of the blocks
    merge as they complete, by the same tree, on a stack of aligned subtrees
    whose levels strictly decrease, like a binary counter.  So :meth:`total`
    is bit-identical to the fold of all the values at once, and the stack holds
    at most log2 of the number of blocks sums.
    """

    def __init__(self):
        self._stack = []  # (level, sums of an aligned subtree of 2**level entries)

    def add(self, block) -> None:
        sums, level = pairwise_sum(block, axis=-1), (np.shape(block)[-1] - 1).bit_length()
        while self._stack and self._stack[-1][0] == level:
            sums = self._stack.pop()[1] + sums
            level += 1
        self._stack.append((level, sums))

    def total(self):
        """The sum so far: a float for 1-D blocks, else an array; at least
        one block must have been added."""
        level, sums = self._stack[-1]
        for left_level, left in reversed(self._stack[:-1]):
            if level < left_level:
                sums = sums + 0.0  # paired with its all-zero sibling, as the padded tree does
            sums = left + sums
            level = left_level + 1
        return sums


def pairwise_sum(values, axis=None):
    """Sum an array by adjacent pairing in index-ascending order.

    The tree is that of zero-padding to the next power of two: at each level
    an odd last entry is paired with 0.0.  The fixed tree makes the reduction
    order a contract rather than an implementation detail.  With ``axis=None``
    the flattened array is summed to a float; otherwise ``axis`` is moved
    last, unless it is last already, and each slice along it is folded by the
    same tree, all slices at once, a level of the tree per ``np.add`` over
    the last axis, and an array is returned.  The fold holds buffers nearly as
    large as ``values``, so callers with many slices pass them in bounded
    blocks.

    The tree of an aligned block of 2**k entries is the subtree of the whole
    tree at level k, so summing such blocks first and then folding their sums
    by the same tree gives the same result.  A last block of r < 2**k
    entries is that subtree padded with zeros: its sum, paired with 0.0 once,
    stands for it at level k.
    """
    a = np.asarray(values, dtype=float)
    if axis is None:
        return float(_fold(a.ravel())) if a.size else 0.0
    if axis not in (-1, a.ndim - 1):
        a = np.moveaxis(a, axis, -1)
    # copied: a width-1 fold is a view of ``values``
    return _fold(a).copy() if a.size else np.zeros(a.shape[:-1])


def pairwise_mean(values) -> float:
    a = np.asarray(values, dtype=float).ravel()
    if a.size == 0:
        raise EvaluationError("mean of an empty array")
    return pairwise_sum(a) / a.size


# The default grid: _DEFAULT_M midpoint nodes; the default tail level 0 passes
# the delta check at every m.
_DEFAULT_M = 10_000
_DEFAULT_DELTA = 0.0


@dataclass(frozen=True, eq=False)
class Rule:
    """Quadrature over u in (0, 1): cell k has mass ``counts[k] / total`` and
    midpoint level ``u[k]``, computed when read; ``counts=None`` means
    ``total`` equal cells, the midpoint grid."""

    counts: np.ndarray | None
    total: int

    @property
    def u(self) -> np.ndarray:
        if self.counts is None:
            return np.arange(0.5, self.total) / self.total  # exact numerators i - 1/2
        return (np.cumsum(self.counts) - 0.5 * self.counts) / self.total

    def integrate(self, values):
        """Sum of cell mass times value, by the tree of :func:`pairwise_sum`;
        on equal cells ``values`` is folded as it is, with no product.  Stacked
        values give an array, one integral per slice along the last axis."""
        weighted = values if self.counts is None else self.counts * values
        return pairwise_sum(weighted, axis=-1 if np.ndim(weighted) > 1 else None) / self.total


def midpoint_rule(m: int, delta: float = 0.0) -> Rule:
    """The midpoint grid ``(m, delta)``, checked: an integer m >= 2 and
    0 <= delta < 0.5/m.  Delta moves none of its levels (i - 1/2)/m: the first
    is the float 0.5/m the check compares delta against, and 1 - delta rounds
    to at least the last."""
    _check_size("grid", 2, m=m)
    if not 0.0 <= delta < 0.5 / m:
        raise DomainError(f"truncation level must satisfy 0 <= delta < 1/(2m), got {delta}")
    return Rule(None, int(m))  # an np.integer m would make integrals np.float64


def _check_finite(owner: str, **params) -> None:
    """Reject a NaN or infinite parameter of ``owner``, naming it."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"{owner} needs a finite {name}, got {name}={value}")


def _check_tolerance(owner: str, **params) -> None:
    """Reject a NaN, infinite or negative tolerance of ``owner``, naming it."""
    _check_finite(owner, **params)
    for name, value in params.items():
        if value < 0.0:
            raise DomainError(f"{owner} needs a non-negative {name}, got {name}={value}")


def _check_count(owner: str, low: int, **params) -> None:
    """Reject a parameter of ``owner`` that is not a non-bool integer >= ``low``, naming it."""
    for name, value in params.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise DomainError(f"{owner} needs an integer {name} >= {low}, got {name}={value!r}")


def _check_size(owner: str, low: int, **params) -> None:
    """:func:`_check_count` for a number of float64 entries: at most one numpy array's worth."""
    _check_count(owner, low, **params)
    cap = np.iinfo(np.intp).max // 8
    for name, value in params.items():
        if value > cap:
            raise DomainError(f"{owner} needs {name} <= {cap}, got {name}={value}")


_MAX_ITER = 200  # steps either 1-D search takes at most


def brent_root(f, a: float, b: float, fa: float, fb: float, width_tol: float = 1e-14):
    """Root of ``f`` between ``a`` and ``b`` by Brent's method.

    ``fa = f(a)`` and ``fb = f(b)`` must not have the same strict sign.
    Residuals may be infinite but not NaN.  Each step takes a secant or
    inverse quadratic step when it stays well inside the bracket and the
    bracket shrinks fast enough, and bisects otherwise or when a residual in
    use is infinite; every probe lies strictly inside the current bracket.
    Steps are at least half the stopping width, so the search ends once the
    bracket ``[x, c]`` is at most ``width_tol * (1 + |x| + |c|)`` wide, a
    width summed from halved terms so that it stays finite near overflow.

    Returns ``(x, f(x))`` for the end of the final bracket with the smaller
    residual.  Reference: R. P. Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4.
    """
    if fa == 0.0:
        return a, fa
    if (fa > 0.0) == (fb > 0.0) and fb != 0.0:
        raise EvaluationError(f"root not bracketed: f({a})={fa}, f({b})={fb}")
    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAX_ITER):
        if fb == 0.0:
            break
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = width_tol * (0.5 + 0.5 * abs(b) + 0.5 * abs(c))
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            break
        if abs(e) >= tol and abs(fa) > abs(fb) and math.isfinite(fa) and math.isfinite(fc):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            q, p = (-q, p) if p > 0.0 else (q, -p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
    return b, fb


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - np.sqrt(5.0)) / 2.0  # 1/phi^2


def golden_section(f, a: float, b: float, width_tol: float = 1e-8):
    """Minimiser of a unimodal ``f`` on ``[a, b]`` by golden-section search.

    On ties the right part of the bracket is discarded, so the search drifts
    toward the smallest minimiser of a flat-bottomed objective.  An end that
    was a probe keeps its value; only an original end is evaluated, once,
    and only if it is still an end at the final pick.
    """
    if b < a:
        a, b = b, a
    h = b - a
    if h <= width_tol:
        return 0.5 * (a + b)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    fa = fb = None  # unknown until an end is a former probe
    for _ in range(_MAX_ITER):
        if 0.5 * h <= width_tol * (0.5 + 0.5 * abs(a) + 0.5 * abs(b)):
            break
        if fc <= fd:  # keep [a, d]; ties move left
            b, fb, d, fd = d, fd, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, fa, c, fc = c, fc, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    # final pick among probes, preferring the smallest argument on ties
    xs = (a, c, d, b)
    fs = (f(a) if fa is None else fa, fc, fd, f(b) if fb is None else fb)
    best = min(range(4), key=lambda i: (fs[i], xs[i]))
    return xs[best]
