"""Shared numerical primitives: deterministic reductions and 1-D searches.

All reductions used for reported values go through :func:`pairwise_sum`, which
fixes the summation tree (index-ascending, adjacent pairing), so results are
bit-stable across runs.  Every open-domain check goes through
:func:`first_outside`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EvaluationError

__all__ = [
    "first_outside",
    "pairwise_sum",
    "pairwise_mean",
    "bisect_decreasing",
    "golden_section",
    "midpoint_u",
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


_FOLD_BLOCK = 1 << 18  # values per block of rows in a fold along an axis


def _fold(a: np.ndarray) -> np.ndarray:
    """Pairwise tree over the last axis of ``a``, which must be non-empty."""
    n = a.shape[-1]
    while n > 1:
        half = np.empty(a.shape[:-1] + ((n + 1) // 2,))
        np.add(a[..., 0 : n - 1 : 2], a[..., 1::2], out=half[..., : n // 2])
        if n % 2:
            # x + 0.0, not x: the padded tree turns -0.0 into +0.0
            np.add(a[..., -1:], 0.0, out=half[..., -1:])
        a, n = half, half.shape[-1]
    return a[..., 0]


def pairwise_sum(values, axis=None):
    """Sum an array by adjacent pairing in index-ascending order.

    The tree is that of zero-padding to the next power of two: at each level
    an odd last entry is paired with 0.0.  The fixed tree makes the reduction
    order a contract rather than an implementation detail.  With ``axis=None``
    the flattened array is summed to a float; otherwise each slice along
    ``axis`` is folded by the same tree and an array is returned.
    """
    a = np.asarray(values, dtype=float)
    if axis is None:
        return float(_fold(a.ravel())) if a.size else 0.0
    a = np.moveaxis(a, axis, -1)
    out = np.zeros(a.shape[:-1])
    if a.size:
        # blocks of rows keep the buffers near cache size: faster, and a
        # lower peak RSS than halving the whole matrix at once
        rows, flat = a.reshape(-1, a.shape[-1]), out.reshape(-1)
        step = max(1, _FOLD_BLOCK // a.shape[-1])
        for i in range(0, len(rows), step):
            flat[i : i + step] = _fold(rows[i : i + step])
    return out


def pairwise_mean(values) -> float:
    a = np.asarray(values, dtype=float).ravel()
    if a.size == 0:
        raise EvaluationError("mean of an empty array")
    return pairwise_sum(a) / a.size


def midpoint_u(m: int, delta: float = 0.0) -> np.ndarray:
    """Midpoint nodes u_i = (i - 1/2)/m clipped into [delta, 1 - delta]."""
    u = (np.arange(1, m + 1) - 0.5) / m
    if delta > 0.0:
        u = np.clip(u, delta, 1.0 - delta)
    return u


def bisect_decreasing(
    f,
    lo: float,
    hi: float,
    target: float = 0.0,
    width_tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Root of ``f(x) = target`` for a non-increasing ``f`` on ``[lo, hi]``.

    Requires ``f(lo) >= target >= f(hi)``.  Bisection runs until the bracket
    width falls below ``width_tol * (1 + |lo| + |hi|)``; it is unconditionally
    safe for monotone residuals.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo < target:
        raise EvaluationError(
            f"bisection bracket invalid: f(lo)={flo} below target {target}"
        )
    if fhi > target:
        raise EvaluationError(
            f"bisection bracket invalid: f(hi)={fhi} above target {target}"
        )
    if flo == target:
        return lo
    if fhi == target:
        return hi
    a, b = lo, hi
    tol = width_tol * (1.0 + abs(lo) + abs(hi))
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        if b - a <= tol or mid == a or mid == b:
            break
        fm = f(mid)
        if fm >= target:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - np.sqrt(5.0)) / 2.0  # 1/phi^2


def golden_section(f, a: float, b: float, width_tol: float = 1e-8, max_iter: int = 200):
    """Minimiser of a unimodal ``f`` on ``[a, b]`` by golden-section search.

    On ties the right part of the bracket is discarded, so the search drifts
    toward the smallest minimiser of a flat-bottomed objective.
    """
    if b < a:
        a, b = b, a
    h = b - a
    if h <= width_tol:
        return 0.5 * (a + b)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if h <= width_tol * (1.0 + abs(a) + abs(b)):
            break
        if fc <= fd:  # keep [a, d]; ties move left
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    # final pick among probes, preferring the smallest argument on ties
    xs = (a, c, d, b)
    fs = (f(a), fc, fd, f(b))
    best = min(range(4), key=lambda i: (fs[i], xs[i]))
    return xs[best]
