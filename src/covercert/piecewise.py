"""Exact one-dimensional piecewise polynomials under box smoothing.

A ``PiecewisePoly`` stores per-interval coefficients in local coordinates
``t = x - left_knot`` (ascending powers) and is zero outside its knot span;
a NaN argument evaluates to NaN.  ``evaluate_shared`` evaluates several
polynomials on one knot vector (a profile and its derivatives) at the
same points: one span mask, one ``searchsorted`` and one local coordinate
serve them all, as in de Boor's ``bsplvd``, and each polynomial then takes
one Horner pass over the columns for all points at once, in the operation
order of ``numpy.polynomial.polynomial.polyval``, so each value is bitwise
the one a per-interval ``polyval`` gives.  A call is that evaluation of a
single polynomial.  The points the engine passes are offsets of lattice
points from lattice centers, so most of them repeat: each distinct float
(by bit pattern, so ``-0.0`` stays apart from ``0.0``) is searched and
evaluated once, and the values are gathered back to every point.  Every
step is elementwise, so a value does not depend on the other points.

Convolution with a unit-mass box of width ``w`` maps the antiderivative
``F`` to ``(F(x + w/2) - F(x - w/2)) / w``; since the new knot set contains
every shifted knot, each new interval meets a single polynomial piece of
``F`` on either side and the result is again an exact piecewise
polynomial, one degree higher and ``C^0`` smoother.  The Taylor shifts
that re-centre those pieces run on all interval rows together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PiecewisePoly", "evaluate_shared", "indicator"]

_MERGE_TOL = 1e-13


def _horner(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``polyval(t[k], c[k])`` for every row k, in ``polyval``'s operation order."""
    acc = c[:, -1] + t * 0
    for j in range(c.shape[1] - 2, -1, -1):
        acc = c[:, j] + acc * t
    return acc


def _shift_rows(coeffs: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Coefficients of p_k(t + h[k]) from ascending coefficient rows of p_k(s)."""
    c = np.array(coeffs, dtype=float)
    n = c.shape[1]
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            c[:, j] += h * c[:, j + 1]
    return c


@dataclass(frozen=True)
class PiecewisePoly:
    knots: np.ndarray      # (K + 1,) strictly increasing, finite
    coeffs: np.ndarray     # (K, D + 1) ascending powers in t = x - knots[i]

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if knots.ndim != 1:
            raise ValueError("knots must be a 1-D array")
        if coeffs.ndim != 2 or coeffs.shape[1] == 0:
            raise ValueError("coeffs must be a 2-D array, one row per interval")
        if len(knots) < 2:
            raise ValueError("need at least one interval")
        if not np.isfinite(knots).all():
            raise ValueError("knots must be finite")
        if not np.all(np.diff(knots) > 0):
            raise ValueError("knots must be strictly increasing")
        if coeffs.shape[0] != len(knots) - 1:
            raise ValueError("one coefficient row per interval required")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def support(self) -> tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])

    def __call__(self, x) -> np.ndarray | float:
        out = evaluate_shared((self,), x)[0]
        return float(out[0]) if np.ndim(x) == 0 else out

    def derivative(self) -> "PiecewisePoly":
        if self.degree == 0:
            c = np.zeros((self.coeffs.shape[0], 1))
        else:
            powers = np.arange(1, self.degree + 1)
            c = self.coeffs[:, 1:] * powers[None, :]
        return PiecewisePoly(self.knots, c)

    def antiderivative(self) -> "PiecewisePoly":
        """Cumulative integral, zero at the left end of the span."""
        powers = np.arange(1, self.degree + 2)
        c = np.zeros((self.coeffs.shape[0], self.degree + 2))
        c[:, 1:] = self.coeffs / powers[None, :]
        widths = np.diff(self.knots)
        # Horner's last step adds c[i, 0] to this increment, so the running
        # constants are a left-to-right sum of the increments from zero.
        increments = _horner(c[:, 1:], widths) * widths
        c[:, 0] = np.add.accumulate(np.concatenate([[0.0], increments[:-1]]))
        return PiecewisePoly(self.knots, c)

    def mass(self) -> float:
        anti = self.antiderivative()
        return float(_horner(anti.coeffs[-1:],
                             self.knots[-1] - self.knots[-2])[0])

    def convolve_unit_box(self, width: float) -> "PiecewisePoly":
        if width <= 0:
            raise ValueError("box width must be positive")
        half = width / 2.0
        anti = self.antiderivative()
        total = float(_horner(anti.coeffs[-1:],
                              self.knots[-1] - self.knots[-2])[0])

        # A candidate knot is kept when it lies more than the tolerance above
        # the last kept one.  Only a candidate within the tolerance of its
        # predecessor can be dropped, so only those need the ordered scan.
        # sorted distinct candidates (np.unique without return_index,
        # return_inverse or return_counts reads np.ma.is_masked, which
        # imports numpy.ma on first use; numpy 2.4)
        raw = np.sort(np.concatenate([self.knots - half, self.knots + half]))
        raw = raw[np.r_[True, raw[1:] != raw[:-1]]]
        thresh = _MERGE_TOL * np.maximum(1.0, np.abs(raw))
        keep = np.ones(len(raw), dtype=bool)
        for i in np.flatnonzero(np.diff(raw) <= thresh[1:]) + 1:
            keep[i] = raw[i] - raw[:i][keep[:i]][-1] > thresh[i]
        new_knots = raw[keep]

        left = new_knots[:-1]
        mid = 0.5 * (left + new_knots[1:])
        new_coeffs = np.zeros((len(left), self.degree + 2))
        new_coeffs += self._anti_rows(anti, total, mid + half, left + half)
        new_coeffs -= self._anti_rows(anti, total, mid - half, left - half)
        return PiecewisePoly(new_knots, new_coeffs / width)

    @staticmethod
    def _anti_rows(anti: "PiecewisePoly", total: float,
                   probe: np.ndarray, left_value: np.ndarray) -> np.ndarray:
        """Coefficients of x -> F(x + shift) on each new interval, in t = x - a.

        ``probe`` picks the piece of F; ``left_value`` is the argument of F
        at t = 0, so the local shift is ``left_value - piece_knot``.  Left
        of the span F is zero, right of it F is the constant ``total``.
        """
        rows = np.zeros((len(probe), anti.coeffs.shape[1]))
        below = probe <= anti.knots[0]
        above = ~below & (probe >= anti.knots[-1])
        within = ~(below | above)
        piece = np.searchsorted(anti.knots, probe[within], side="right") - 1
        piece = np.clip(piece, 0, anti.coeffs.shape[0] - 1)
        rows[within] = _shift_rows(anti.coeffs[piece],
                                   left_value[within] - anti.knots[piece])
        rows[above, 0] = total
        return rows

    def max_abs(self) -> float:
        """Exact maximum of |p| over the span, via endpoints and critical points."""
        best = 0.0
        widths = np.diff(self.knots)
        for i in range(self.coeffs.shape[0]):
            c = self.coeffs[i]
            w = widths[i]
            candidates = [0.0, w]
            eff = np.trim_zeros(c, "b")
            if len(eff) > 2:
                dcoeffs = eff[1:] * np.arange(1, len(eff))
                roots = np.roots(dcoeffs[::-1])
                for r in roots:
                    if abs(r.imag) < 1e-10 and 0.0 < r.real < w:
                        candidates.append(float(r.real))
            vals = _horner(c[None, :], np.asarray(candidates))
            best = max(best, float(np.abs(vals).max()))
        return best


def _locate(knots: np.ndarray, x: np.ndarray):
    """The points of ``x`` in the closed span of ``knots``, each one's
    interval (the last interval holds the right end) and its local
    coordinate ``t = x - left_knot``."""
    inside = (x >= knots[0]) & (x <= knots[-1])
    xs = x[inside]
    idx = np.searchsorted(knots, xs, side="right") - 1
    idx = np.minimum(idx, len(knots) - 2)
    return inside, idx, xs - knots[idx]


def _distinct(a: np.ndarray):
    """``(first, inverse)`` for the 1-D 64-bit array ``a``: the index of
    the first occurrence of each distinct value, in ascending order of its
    bit pattern, and per entry the position of its value in ``first``, so
    that ``a[first][inverse]`` is ``a``.

    Values are keyed by their bits, never compared as floats: ``-0.0`` and
    ``0.0`` stay apart, and a NaN meets only NaNs of its own bit pattern.
    """
    keys = a.view(np.uint64)
    order = np.argsort(keys)
    keys = keys[order]
    new = np.empty(len(a), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    # the sort is not stable: each run of equal keys takes its least index
    return np.minimum.reduceat(order, np.flatnonzero(new)), inverse


def evaluate_shared(polys, x) -> list[np.ndarray]:
    """Every poly of ``polys`` at the points ``x``, one array of ``x``'s
    shape (at least 1-D) each.

    The polys share one knot vector, so a single interval search serves
    them all; it runs on the distinct points only, and each value is
    bitwise the poly's own call at that point alone.
    """
    knots = polys[0].knots
    for p in polys[1:]:
        if p.knots is not knots and not np.array_equal(p.knots, knots):
            raise ValueError("polys must share one knot vector")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    flat = x.ravel()
    first, inverse = _distinct(flat)
    if len(first) == len(flat):
        return _evaluate(polys, x)
    return [vals[inverse].reshape(x.shape)
            for vals in _evaluate(polys, flat[first])]


def _evaluate(polys, x: np.ndarray) -> list[np.ndarray]:
    """Every poly at every point of ``x``, after one interval search."""
    inside, idx, t = _locate(polys[0].knots, x)
    outside = np.where(np.isnan(x), np.nan, 0.0)
    out = []
    for p in polys:
        vals = outside.copy()
        vals[inside] = _horner(p.coeffs[idx], t)
        out.append(vals)
    return out


def indicator(half_width: float) -> PiecewisePoly:
    """Indicator of [-a, a] as a degree-zero piecewise polynomial."""
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    return PiecewisePoly(np.array([-half_width, half_width]),
                         np.array([[1.0]]))
