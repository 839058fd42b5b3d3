"""Smooth test functions with closed-form partial derivatives.

All shipped functions are tensor products of one-dimensional factors whose
derivatives are available exactly: polynomial-times-Gaussian factors via
the recurrence (P e^{-t^2})' = (P' - 2 t P) e^{-t^2}, and compact spline
factors reusing the plateau profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bumps import BumpProfile, build_profile
from .errors import SmoothnessOrderError
from .piecewise import _horner, evaluate_shared

__all__ = ["TestFunction", "gaussian", "coord_gaussian", "spline_bump",
           "shipped_suite"]

_MAX_ORDER = 16


class _GaussFactor:
    """t -> P(t) exp(-t^2) with exact derivatives of every order."""

    def __init__(self, poly_coeffs):
        self._polys = [np.asarray(poly_coeffs, dtype=float)]
        for _ in range(_MAX_ORDER):
            p = self._polys[-1]
            # P' as numpy.polynomial's polyder forms it: j * c[j]
            dp = p[1:] * np.arange(1, len(p)) if len(p) > 1 else np.zeros(1)
            shifted = np.concatenate([[0.0], -2.0 * p])
            size = max(len(dp), len(shifted))
            nxt = np.zeros(size)
            nxt[:len(dp)] += dp
            nxt[:len(shifted)] += shifted
            self._polys.append(nxt)

    def orders(self, t: np.ndarray, top: int) -> list[np.ndarray]:
        """The derivatives of orders 0..top at the points ``t``, with one
        ``exp``."""
        if top >= len(self._polys):
            raise SmoothnessOrderError(f"factor derivatives cached up to {_MAX_ORDER}")
        gauss = np.exp(-t * t)
        return [_horner(p[None, :], t) * gauss for p in self._polys[:top + 1]]


class _ProfileFactor:
    def __init__(self, profile: BumpProfile):
        self.profile = profile

    def orders(self, t: np.ndarray, top: int) -> list[np.ndarray]:
        """The derivatives of orders 0..top at the points ``t``, with one
        interval search."""
        if top >= self.profile.order:
            raise SmoothnessOrderError(f"derivative order {top} outside budget "
                                       f"0..{self.profile.order - 1}")
        return evaluate_shared(self.profile.polys[:top + 1], t)


@dataclass(frozen=True)
class TestFunction:
    """Tensor product of one-dimensional factors."""

    name: str
    factors: tuple

    @property
    def dimension(self) -> int:
        return len(self.factors)

    def value(self, x):
        return self.partial(x, (0,) * self.dimension)

    def partial(self, x, alpha):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 1
        alpha = tuple(int(a) for a in alpha)
        out = self.at(x[None, :] if scalar else x, alpha)(alpha)
        return float(out[0]) if scalar else out

    def at(self, x, tops):
        """The partials alpha <= ``tops`` at the points ``x`` (N, d), as a
        function of alpha.  Each factor is evaluated here, once per axis
        for every order up to ``tops``, and each partial, formed when it is
        asked for, multiplies its factors from ones in axis order."""
        pts = np.asarray(x, dtype=float)
        orders = [factor.orders(pts[:, i], int(top))
                  for i, (factor, top) in enumerate(zip(self.factors, tops))]

        def partial(alpha) -> np.ndarray:
            val = np.ones(len(pts))
            for axis, a_i in zip(orders, alpha):
                val = val * axis[a_i]
            return val
        return partial

    def scaled(self, scale: float) -> "TestFunction":
        first = _ScaledFactor(self.factors[0], scale)
        return TestFunction(name=f"{scale}*{self.name}",
                            factors=(first,) + self.factors[1:])


class _ScaledFactor:
    def __init__(self, inner, scale: float):
        self.inner = inner
        self.scale = float(scale)

    def orders(self, t: np.ndarray, top: int) -> list[np.ndarray]:
        return [self.scale * vals for vals in self.inner.orders(t, top)]


def gaussian(dimension: int) -> TestFunction:
    """exp(-|x|^2)."""
    return TestFunction(name="gaussian",
                        factors=tuple(_GaussFactor([1.0])
                                      for _ in range(dimension)))


def coord_gaussian(dimension: int) -> TestFunction:
    """x_1 exp(-|x|^2)."""
    first = _GaussFactor([0.0, 1.0])
    rest = tuple(_GaussFactor([1.0]) for _ in range(dimension - 1))
    return TestFunction(name="coord_gaussian", factors=(first,) + rest)


def spline_bump(dimension: int, radius: float = 0.8,
                order: int = 8) -> TestFunction:
    """Compactly supported plateau spline, exact partials up to order - 1."""
    profile = build_profile(radius, order)
    return TestFunction(name="spline_bump",
                        factors=tuple(_ProfileFactor(profile)
                                      for _ in range(dimension)))


def shipped_suite(dimension: int) -> list[TestFunction]:
    return [gaussian(dimension), coord_gaussian(dimension),
            spline_bump(dimension)]
