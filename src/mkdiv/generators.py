"""Convex generators and concave distortion functions.

A :class:`ConvexGenerator` packages a convex function together with its
first and second derivatives and the inverse of the first; these maps drive
the Bregman machinery used throughout the package.  A :class:`DistortionSpec`
represents a concave distortion ``g`` through its weight function
``gamma(u) = left-derivative of g at 1 - u``, the density of the associated
Choquet integral.

The catalogs are closed-form; no automatic differentiation is involved.
All objects are immutable and their methods pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .numerics import _check_finite, first_outside

__all__ = [
    "ConvexGenerator",
    "DistortionSpec",
    "quadratic",
    "quartic",
    "exponential_generator",
    "entropy_generator",
    "generator_catalog",
    "identity_distortion",
    "dual_power",
    "tvar_distortion",
    "power_distortion",
]


@dataclass(frozen=True)
class ConvexGenerator:
    """Convex function with derivative and inverse derivative.

    Attributes
    ----------
    phi, dphi, d2phi, inv_dphi_fn : callable
        The generator, its (non-decreasing) derivative, its second
        derivative and the partial inverse of the first derivative.  All
        accept scalars or arrays; a ``d2phi`` that is constant may return
        one number for an array.
    domain : (float, float)
        Open interval on which ``phi`` is defined.
    dphi_range : (float, float)
        Open interval of values ``dphi`` attains, on which ``inv_dphi_fn``
        is defined; :func:`mkdiv.robust.perturbed_nodes` checks its
        arguments against it.
    strictly_convex : bool
        Strict generators have strictly increasing ``dphi``; only they give
        genuine divergences (zero iff the arguments coincide).
    """

    name: str
    phi: Callable = field(repr=False)
    dphi: Callable = field(repr=False)
    d2phi: Callable = field(repr=False)
    inv_dphi_fn: Callable = field(repr=False)
    domain: tuple = (-np.inf, np.inf)
    dphi_range: tuple = (-np.inf, np.inf)
    strictly_convex: bool = True

    def _check_domain(self, x, what: str):
        arr = np.asarray(x, dtype=float)
        i = first_outside(arr, self.domain)
        if i is not None:
            raise DomainError(
                f"{what} outside the domain {tuple(self.domain)} "
                f"of generator '{self.name}'",
                index=i,
            )
        return arr

    @staticmethod
    def _bregman_terms(a, phi_a, b, phi_b, dphi_b):
        """The Bregman kernel: (phi(a) - phi(b)) - dphi(b) * (a - b), rounded
        as written, with the linear part built in a buffer of its own, which
        is returned: nothing is written into an argument.  Every Bregman term
        of the package is computed here: by the Bregman, expectile and
        entropic scores of :mod:`mkdiv.scores` on their prepared phi(y), by
        the probes of :func:`mkdiv.robust.calibrate_lambda`, and by the
        public :meth:`bregman`."""
        out = np.asarray(a - b)
        out *= dphi_b
        np.subtract(phi_a - phi_b, out, out=out)
        return out

    def bregman(self, a, b):
        """phi(a) - phi(b) - dphi(b) * (a - b), non-negative on domain^2, by
        the kernel :meth:`_bregman_terms`."""
        a_arr = self._check_domain(a, "first Bregman argument")
        b_arr = self._check_domain(b, "second Bregman argument")
        out = self._bregman_terms(a_arr, self.phi(a_arr), b_arr, self.phi(b_arr), self.dphi(b_arr))
        if np.ndim(a) == 0 and np.ndim(b) == 0:
            return float(out)
        return out


def quadratic() -> ConvexGenerator:
    return ConvexGenerator(
        name="quadratic",
        phi=lambda x: x * x,
        dphi=lambda x: 2.0 * x,
        d2phi=lambda x: 2.0,
        inv_dphi_fn=lambda y: 0.5 * y,
    )


def quartic() -> ConvexGenerator:
    return ConvexGenerator(
        name="quartic",
        # through |x|: exactly even and odd, and numpy's fast power loop,
        # which a negative base leaves for a per-element pow; np.power, not
        # **, keeps a scalar in that loop too, so it rounds as an array does
        phi=lambda x: np.power(np.abs(x), 4),
        dphi=lambda x: 4.0 * np.copysign(np.power(np.abs(x), 3), x),
        d2phi=lambda x: 12.0 * x * x,
        inv_dphi_fn=lambda y: np.cbrt(0.25 * y),
    )


def exponential_generator() -> ConvexGenerator:
    return ConvexGenerator(
        name="exp",
        phi=np.exp,
        dphi=np.exp,
        d2phi=np.exp,
        inv_dphi_fn=np.log,
        dphi_range=(0.0, np.inf),
    )


def entropy_generator() -> ConvexGenerator:
    """x * log(x) on (0, inf); dphi = log(x) + 1, d2phi = 1/x, inverse exp(y - 1)."""
    return ConvexGenerator(
        name="xlogx",
        phi=lambda x: x * np.log(x),
        dphi=lambda x: np.log(x) + 1.0,
        d2phi=lambda x: 1.0 / x,
        inv_dphi_fn=lambda y: np.exp(y - 1.0),
        domain=(0.0, np.inf),
    )


def generator_catalog() -> dict:
    return {
        "quadratic": quadratic(),
        "quartic": quartic(),
        "exp": exponential_generator(),
        "xlogx": entropy_generator(),
    }


@dataclass(frozen=True)
class DistortionSpec:
    """Concave distortion ``g`` with weight ``gamma(u)``.

    ``gamma`` is non-negative and non-decreasing exactly when ``g`` is
    concave.  Non-strictly concave members (identity, tail-value-at-risk) are
    admitted but flagged, since uniqueness claims downstream require strict
    concavity.
    """

    name: str
    gamma_fn: Callable = field(repr=False)
    strictly_concave: bool = True
    params: tuple = ()

    def gamma(self, u):
        arr = np.asarray(u, dtype=float)
        if np.isnan(arr).any() or first_outside(arr, (0.0, 1.0)) is not None:
            raise DomainError(f"distortion weight needs u in (0, 1), got {u!r}")
        out = self.gamma_fn(arr)
        return float(out) if np.ndim(u) == 0 else out


def identity_distortion() -> DistortionSpec:
    return DistortionSpec(
        name="identity",
        gamma_fn=lambda u: np.ones_like(u),
        strictly_concave=False,
    )


def dual_power(k: float = 2.0) -> DistortionSpec:
    """g(x) = 1 - (1 - x)^k with k >= 1; gamma(u) = k * u^(k-1)."""
    _check_finite("dual-power distortion", k=k)
    if k < 1.0:
        raise DomainError(f"dual-power distortion needs k >= 1, got {k}")
    return DistortionSpec(
        name="dualpower",
        gamma_fn=lambda u: k * u ** (k - 1.0),
        strictly_concave=k > 1.0,
        params=(("k", float(k)),),
    )


def tvar_distortion(alpha: float = 0.9) -> DistortionSpec:
    """g(x) = min(x / (1 - alpha), 1); gamma(u) = 1{u >= alpha} / (1 - alpha).

    Piecewise linear, hence not strictly concave; flagged accordingly.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"tail level must lie in (0, 1), got {alpha}")
    return DistortionSpec(
        name="tvar",
        gamma_fn=lambda u: np.where(u >= alpha, 1.0 / (1.0 - alpha), 0.0),
        strictly_concave=False,
        params=(("alpha", float(alpha)),),
    )


def power_distortion(c: float = 0.5) -> DistortionSpec:
    """g(x) = x^c with 0 < c < 1; gamma is unbounded near u = 1.

    Grid integrals against gamma stay finite because the last midpoint node
    is 1 - 0.5/m.  A worst case may still have no limit as m grows.  With
    the ``xlogx`` generator the worst quantile is G = Q * exp(gamma / lam),
    so its Bregman term grows like exp(c * (1 - u)**(c - 1) / lam) near
    u = 1, and the continuum divergence is infinite at every lam.
    """
    if not 0.0 < c < 1.0:
        raise DomainError(f"power distortion needs 0 < c < 1, got {c}")
    return DistortionSpec(
        name="power",
        gamma_fn=lambda u: c * (1.0 - u) ** (c - 1.0),
        strictly_concave=True,
        params=(("c", float(c)),),
    )
