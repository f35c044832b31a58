"""Shared numerical primitives: reductions, the rule over u and 1-D searches.

One fold rule and one block size serve every reduction used for reported
values.  :func:`pairwise_sum` folds the last axis by a fixed tree
(index-ascending, adjacent pairing), so results are bit-stable across runs;
values too many to fold at once arrive in aligned blocks of ``_BLOCK``
entries along that axis, and :class:`_BlockSum` folds each block by
:func:`pairwise_sum` and merges the block sums by the same tree.
:func:`_split_sums` folds the two sides of a cut in each row of a stack,
each by the tree it would have alone.  A :class:`Rule` integrates over the
quantile level u in the divergences, the worst-case value and the payoff
cost, and means are such sums divided by the count, :func:`pairwise_mean`
for a single array.
Every open-domain check goes through :func:`first_outside`.
:func:`brent_root` and :func:`brent_minimize` are the 1-D searches, each
capped at ``_MAX_ITER`` steps, twice the golden steps that close the widest
finite bracket to a width of 1e-8.  The minimiser raises
:class:`~mkdiv.errors.EvaluationError` where it spends the cap or finds no
finite value; the root finder returns its best end.  The robust solvers'
multiplier has its own search, :func:`mkdiv.robust.calibrate_lambda`.
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
    "brent_minimize",
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


def _split_sums(a: np.ndarray, cut: np.ndarray):
    """``pairwise_sum(a[i, :cut[i]])`` and ``pairwise_sum(a[i, cut[i]:])``
    for each row i of the 2-D ``a``, bit for bit, as two arrays; every cut
    must lie strictly inside the row.

    Each segment is moved to the front of a zeroed row as wide as the axis
    padded to a power of two, and all the rows are folded at once, level by
    level.  A segment of L entries reads the first node of level
    ``(L - 1).bit_length()``: the root of its own tree, padded with +0.0 as
    :func:`_fold` pads it.  No node above it is read, since pairing a -0.0
    sum with the zeros beyond its tree would turn it into +0.0.
    """
    rows, n = a.shape
    if rows == 1:  # one row, its two segments folded where they lie
        c = int(cut[0])
        return np.array([pairwise_sum(a[0, :c])]), np.array([pairwise_sum(a[0, c:])])
    at = np.arange(n)
    level = np.zeros((2 * rows, 1 << (n - 1).bit_length()))
    level[:rows, :n] = np.where(at < cut[:, None], a, 0.0)
    moved = cut[:, None] + at
    tails = a.take(np.minimum(moved, n - 1) + n * np.arange(rows)[:, None])
    level[rows:, :n] = np.where(moved < n, tails, 0.0)
    firsts = [level[:, 0]]
    while level.shape[1] > 1:
        level = level[:, ::2] + level[:, 1::2]
        firsts.append(level[:, 0])
    depth = np.frexp(np.concatenate((cut, n - cut)) - 1)[1]  # the bit length of L - 1
    sums = np.stack(firsts, axis=1)[np.arange(2 * rows), depth]
    return sums[:rows], sums[rows:]


# entries per block: 128 KiB, glibc's default mmap threshold, so a block's
# temporaries stay in cache; larger ones faulted in fresh pages on every call
_BLOCK = 1 << 14


class _BlockSum:
    """:func:`pairwise_sum` of values that arrive in consecutive blocks along
    the last axis: aligned blocks of one power of two of entries, ``_BLOCK``
    in the package, of which only the last may be shorter.

    Each block is folded by :func:`pairwise_sum`, and the sums of the blocks
    merge as they complete, by the same tree, on a stack of aligned subtrees
    whose levels strictly decrease, like a binary counter.  So :meth:`total`
    is bit-identical to the fold of all the values at once, and the stack holds
    at most log2 of the number of blocks sums.
    """

    def __init__(self):
        self._stack = []  # (level, sums of an aligned subtree of 2**level entries)

    def add(self, block) -> None:
        sums, level = pairwise_sum(block), (np.shape(block)[-1] - 1).bit_length()
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


def pairwise_sum(values):
    """Sum the last axis of an array by adjacent pairing in index-ascending
    order: a float for a 0-D or 1-D array, else the array of its row sums.

    The tree is that of zero-padding to the next power of two: at each level
    an odd last entry is paired with 0.0.  The fixed tree makes the reduction
    order a contract rather than an implementation detail.  All the rows are
    folded at once, a level of the tree per ``np.add`` over the last axis.
    The fold holds buffers nearly as large as ``values``, so callers with
    many rows pass them in bounded blocks.

    The tree of an aligned block of 2**k entries is the subtree of the whole
    tree at level k, so summing such blocks first and then folding their sums
    by the same tree gives the same result.  A last block of r < 2**k
    entries is that subtree padded with zeros: its sum, paired with 0.0 once,
    stands for it at level k.
    """
    a = np.asarray(values, dtype=float)
    if a.ndim <= 1:
        return float(_fold(a.reshape(-1))) if a.size else 0.0
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
        return pairwise_sum(weighted) / self.total


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


# steps either 1-D search takes at most.  A golden step keeps at most 0.618
# of the bracket, so log(1.8e308 / 1e-8) / log(1.618), about 1,514 of them,
# take the widest finite bracket down to the smallest stopping width, 1e-8;
# the cap is twice that, room for the parabolic steps between them
_MAX_ITER = 3028


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


_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2, the golden step's fraction


def brent_minimize(f, a: float, b: float, width_tol: float = 1e-8) -> float:
    """Minimiser of a unimodal ``f`` on ``[a, b]`` by Brent's method.

    Each step fits a parabola through the best three probes and steps to its
    vertex when that lies inside the bracket and moves less than half the
    step before last; otherwise, or when the parabola's p or q is not finite,
    it takes a golden-section step into the larger part of the bracket.  The
    search ends once the bracket is at most ``W = width_tol * (1 + |a| + |b|)``
    wide, a width summed from halved terms so that it stays finite near
    overflow.  Each step moves at least W/4, and a parabolic step stays W/2
    clear of the ends, so the bracket closes in on the best probe from both
    sides.  A probe that ties the best one drops the part of the bracket to
    its right, so the search drifts toward the smallest minimiser of a
    flat-bottomed objective.  ``f`` returns Python floats, whose overflow in
    the parabola gives inf rather than a numpy warning.

    Returns the best probe; the ends of the bracket are never evaluated.  At
    most ``_MAX_ITER`` = 3,028 steps are taken, twice the golden steps that
    close the widest finite bracket to the smallest stopping width, 1e-8.
    Raises :class:`EvaluationError` if the cap is spent with the bracket
    still open, or if the best probe is not finite.
    Reference: R. P. Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 5.
    """
    if b < a:
        a, b = b, a
    if b - a <= width_tol:
        return 0.5 * a + 0.5 * b
    lo, hi = a, b
    x = w = v = a + _INVPHI2 * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0  # the last step and the one before it
    for step in range(_MAX_ITER + 1):  # the last pass only checks the width
        half = width_tol * (0.5 + 0.5 * abs(a) + 0.5 * abs(b))
        mid = 0.5 * a + 0.5 * b
        if 0.5 * b - 0.5 * a <= half:
            break
        if step == _MAX_ITER:
            raise EvaluationError(
                f"Brent's minimiser spent its {_MAX_ITER} steps on [{lo!r}, {hi!r}] with "
                f"the bracket [{a!r}, {b!r}] still open")
        tol = 0.5 * half
        golden = True
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
            if (math.isfinite(p) and math.isfinite(q) and abs(p) < abs(0.5 * q * e)
                    and q * (a - x) < p < q * (b - x)):
                e, d = d, p / q
                golden = False
                if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                    d = math.copysign(tol, mid - x)
        if golden:
            e = (a if x >= mid else b) - x
            d = _INVPHI2 * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if (fu, u) < (fx, x):  # u is the new best; a tie goes to the smaller
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    if not math.isfinite(fx):
        raise EvaluationError(f"Brent's minimiser found no finite value on [{lo!r}, {hi!r}]")
    return x
