"""Plateau cutoffs from iterated box smoothing, and the resulting partition.

A one-dimensional profile starts from the indicator of ``[-3r/4, 3r/4]``
and is smoothed by boxes of widths ``w_j r / 3`` with decreasing weights
summing to one, so the total smoothing half-width is ``r/6``: the profile
is identically one out to ``7r/12`` (past half the ball radius) and
vanishes beyond ``11r/12`` (inside the ball).  Each smoothing step divides
a difference quotient by its width, so the j-th derivative is bounded by
``2^j`` over the product of the first j widths, exactly.

Cutoffs are tensor products of one profile per coordinate; a partition
function multiplies its own cutoff by the complements of the earlier
overlapping ones.  All partial derivatives are evaluated exactly from the
piecewise polynomials through the product rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cover import Cover, neighbor_sets
from .errors import SmoothnessOrderError
from .multiindex import indices_below, indices_up_to_order, multi_binom, multi_factorial
from .piecewise import PiecewisePoly, indicator
from .report import FAIL, PASS, Certificate

__all__ = [
    "default_weights", "BumpProfile", "build_profile",
    "Cutoff", "PartitionFn", "Partition", "build_partition",
    "eval_partial", "partition_sum", "certify_partition",
    "derivative_constant", "DERIVATIVE_GROWTH_BASE",
]

# Each box smoothing contributes a factor of at most 2/width to one
# derivative order; tensor products inherit the same base per coordinate.
DERIVATIVE_GROWTH_BASE = 2.0


def default_weights(order: int) -> np.ndarray:
    """First ``order`` dyadic weights, renormalized to sum to one."""
    w = 2.0 ** -np.arange(1, order + 1)
    return w / w.sum()


@dataclass(frozen=True)
class BumpProfile:
    scale: float
    order: int
    weights: tuple[float, ...]
    widths: tuple[float, ...]
    inner_halfwidth: float
    polys: tuple[PiecewisePoly, ...] = field(repr=False)

    @property
    def smoothing_halfwidth(self) -> float:
        return sum(self.widths) / 2.0

    @property
    def plateau_halfwidth(self) -> float:
        return self.inner_halfwidth - self.smoothing_halfwidth

    @property
    def support_halfwidth(self) -> float:
        return self.inner_halfwidth + self.smoothing_halfwidth

    @property
    def knots(self) -> np.ndarray:
        return self.polys[0].knots

    def eval(self, t, order: int = 0):
        if order < 0 or order >= self.order:
            raise SmoothnessOrderError(
                f"derivative order {order} outside budget 0..{self.order - 1}")
        return self.polys[order](t)

    def derivative_bound(self, j: int) -> float:
        """Claimed bound on sup |d^j profile|: 2^j over the first j widths."""
        if j == 0:
            return 1.0
        if j >= self.order:
            raise SmoothnessOrderError(f"order {j} outside budget")
        return DERIVATIVE_GROWTH_BASE ** j / math.prod(self.widths[:j])

    def max_derivative(self, j: int) -> float:
        """Exact sup |d^j profile| from the piecewise polynomial."""
        if j == 0:
            return self.polys[0].max_abs()
        if j >= self.order:
            raise SmoothnessOrderError(f"order {j} outside budget")
        return self.polys[j].max_abs()


def build_profile(r: float, order: int, weights=None) -> BumpProfile:
    """Smooth a plateau of half-width ``3r/4`` with ``order`` boxes."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if not 0.0 < r <= 1.0:
        raise ValueError("scale r must lie in (0, 1]")
    if weights is None:
        w = default_weights(order)
    else:
        w = np.asarray(list(weights), dtype=float)
        if len(w) != order:
            raise ValueError(f"need exactly {order} weights")
        if (w <= 0).any():
            raise ValueError("weights must be positive")
        if (np.diff(w) > 0).any():
            raise ValueError("weights must be decreasing")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")
    a = 0.75 * r
    widths = tuple(float(wj) * r / 3.0 for wj in w)
    poly = indicator(a)
    for width in widths:
        poly = poly.convolve_unit_box(width)
    polys = [poly]
    for _ in range(order - 1):
        polys.append(polys[-1].derivative())
    return BumpProfile(scale=r, order=order, weights=tuple(float(v) for v in w),
                       widths=widths, inner_halfwidth=a, polys=tuple(polys))


@dataclass(frozen=True)
class Cutoff:
    """Tensor-product plateau cutoff centered at one cover center."""

    center: tuple[float, ...]
    profile: BumpProfile

    @property
    def dimension(self) -> int:
        return len(self.center)

    @property
    def support_halfwidth(self) -> float:
        return self.profile.support_halfwidth

    def partial(self, x, alpha=None):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 1
        pts = x[None, :] if scalar else x
        if alpha is None:
            alpha = (0,) * self.dimension
        out = np.ones(len(pts))
        for i, (c_i, a_i) in enumerate(zip(self.center, alpha)):
            out = out * self.profile.eval(pts[:, i] - c_i, order=a_i)
        return float(out[0]) if scalar else out

    def partials_table(self, pts: np.ndarray, alpha) -> dict:
        """``partial(pts, beta)`` for every beta <= alpha, on (N, d) points.

        Each (axis, derivative order) factor is evaluated once and shared by
        every beta that uses it; the products run in the order ``partial``
        uses, so each value is bitwise the one ``partial`` gives.
        """
        factors = [[self.profile.eval(pts[:, i] - c_i, order=j)
                    for j in range(a_i + 1)]
                   for i, (c_i, a_i) in enumerate(zip(self.center, alpha))]
        out = {}
        for beta in indices_below(alpha):
            val = np.ones(len(pts))
            for factor, b_i in zip(factors, beta):
                val = val * factor[b_i]
            out[beta] = val
        return out

    def value(self, x):
        return self.partial(x, None)

    def contains_support(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        pts = x[None, :] if x.ndim == 1 else x
        offs = np.abs(pts - np.asarray(self.center)).max(axis=1)
        return offs <= self.support_halfwidth


@dataclass(frozen=True)
class PartitionFn:
    """One partition function: its cutoff times earlier overlapping complements."""

    index: int
    cutoff: Cutoff
    blockers: tuple[tuple[int, Cutoff], ...]

    @property
    def dimension(self) -> int:
        return self.cutoff.dimension

    def value(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 1
        pts = x[None, :] if scalar else x
        out = self.cutoff.value(pts)
        live = out != 0.0
        for _, blocker in self.blockers:
            mask = live & blocker.contains_support(pts)
            if mask.any():
                out[mask] = out[mask] * (1.0 - blocker.value(pts[mask]))
        return float(out[0]) if scalar else out

    def partial(self, x, alpha) -> float:
        """Exact partial derivative at one point via the product rule."""
        x = np.asarray(x, dtype=float).reshape(1, -1)
        alpha = tuple(int(a) for a in alpha)
        return float(self.partials_table(x, alpha)[alpha][0])

    def partials_table(self, pts, alpha) -> dict:
        """All partials with multi-index at most alpha, vectorized over points.

        Returns a dict mapping each beta <= alpha to an array of values.
        Complements whose cutoff does not reach any of the points contribute
        the constant factor one and are skipped.
        """
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        alpha = tuple(int(a) for a in alpha)
        budget = self.cutoff.profile.order - 1
        if any(a > budget for a in alpha):
            raise SmoothnessOrderError(
                f"component of {alpha} exceeds per-axis budget {budget}")
        betas = indices_below(alpha)
        zeros = np.zeros(len(pts))
        mask = self.cutoff.contains_support(pts)
        if not mask.any():
            return {beta: zeros for beta in betas}
        sub = pts[mask]

        acc = self.cutoff.partials_table(sub, alpha)
        for _, blocker in self.blockers:
            bmask = blocker.contains_support(sub)
            if not bmask.any():
                continue    # complement is identically 1 there
            pts_b = sub[bmask]
            vals = blocker.partials_table(pts_b, alpha)
            t = {beta: (1.0 if sum(beta) == 0 else 0.0) - vals[beta]
                 for beta in betas}
            new = {}
            for beta in betas:
                total = np.zeros(len(pts_b))
                for gamma in indices_below(beta):
                    rest = tuple(b - g for b, g in zip(beta, gamma))
                    total += multi_binom(beta, gamma) * acc[gamma][bmask] * t[rest]
                new[beta] = total
            for beta in betas:
                acc[beta][bmask] = new[beta]
        out = {}
        for beta in betas:
            full = zeros.copy()
            full[mask] = acc[beta]
            out[beta] = full
        return out


@dataclass
class Partition:
    functions: list[PartitionFn]
    order: int
    weights: tuple[float, ...]
    cover: Cover = field(repr=False)

    def __iter__(self):
        return iter(self.functions)

    def __len__(self):
        return len(self.functions)

    def __getitem__(self, k):
        return self.functions[k]


def build_partition(cover: Cover, order: int, weights=None) -> Partition:
    """Partition functions for an accepted cover.

    Complements are restricted to earlier centers whose outer balls meet the
    current one; the omitted factors are identically one on the support, so
    the restriction changes nothing pointwise.
    """
    if cover.neighbors is None:
        neighbor_sets(cover)
    if weights is None:
        weights = default_weights(order)
    cutoffs = [Cutoff(tuple(cover.centers[k]),
                      build_profile(float(cover.rho[k]), order, weights))
               for k in range(cover.size)]
    functions = []
    for k in range(cover.size):
        earlier = tuple((int(m), cutoffs[m]) for m in cover.neighbors[k]
                        if m < k)
        functions.append(PartitionFn(index=k, cutoff=cutoffs[k],
                                     blockers=earlier))
    return Partition(functions=functions, order=order,
                     weights=tuple(float(v) for v in np.asarray(weights)),
                     cover=cover)


def eval_partial(obj, x, alpha) -> float:
    """Exact partial derivative of a cutoff or partition function at a point."""
    if isinstance(obj, Cutoff):
        alpha = tuple(int(a) for a in alpha)
        if any(a > obj.profile.order - 1 for a in alpha):
            raise SmoothnessOrderError(
                f"component of {alpha} exceeds per-axis budget {obj.profile.order - 1}")
        return float(obj.partial(np.asarray(x, dtype=float), alpha))
    return obj.partial(x, alpha)


def partition_sum(partition: Partition, pts) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    out = np.zeros(len(pts))
    for fn in partition:
        mask = fn.cutoff.contains_support(pts)
        if mask.any():
            out[mask] += fn.value(pts[mask])
    return out


def derivative_constant(alpha: tuple[int, ...], dimension: int,
                        weights, c: float = DERIVATIVE_GROWTH_BASE) -> float:
    """Constant in the partition derivative bound for multi-index alpha.

    Assembled from the bounded neighbor count (the ``8^d`` and the sum of
    per-axis counts), the multinomial weight of the product rule, and the
    per-order growth of the box-smoothed profiles.
    """
    alpha = tuple(int(a) for a in alpha)
    total = sum(alpha)
    if total == 0:
        return 1.0
    w = np.asarray(list(weights), dtype=float)
    if total > len(w):
        raise SmoothnessOrderError(
            f"|alpha|={total} exceeds the {len(w)} smoothing weights")
    count_term = sum(dimension ** a for a in alpha)
    return (8.0 ** dimension * count_term * multi_factorial(alpha)
            * (3.0 * c) ** total / float(np.prod(w[:total])))


def certify_partition(partition: Partition, cover: Cover, oracle,
                      alpha_max: int, grid: np.ndarray,
                      sum_tol: float = 1e-9, tol: float = 1e-9) -> list[Certificate]:
    """Sum-to-one, range, support, and derivative-bound certificates."""
    grid = np.asarray(grid, dtype=float)
    fam = cover.family.name
    n = cover.level
    certs: list[Certificate] = []

    ring_mask = cover.domain.ring(n).contains(grid)
    sums = partition_sum(partition, grid)
    worst_sum = float(np.abs(sums[ring_mask] - 1.0).max()) if ring_mask.any() else 0.0
    certs.append(Certificate(
        name=f"partition_sum[{fam},n={n}]",
        claim="partition.sum_to_one",
        verdict=PASS if worst_sum <= sum_tol else FAIL,
        measured=worst_sum, bound=sum_tol, slack=sum_tol - worst_sum,
        resolutions={"ring_points": int(ring_mask.sum()),
                     "grid_points": int(len(grid))},
    ))

    above = float(np.max(sums - 1.0))
    below = 0.0
    for fn in partition:
        mask = fn.cutoff.contains_support(grid)
        if not mask.any():
            continue
        vals = fn.value(grid[mask])
        below = min(below, float(vals.min()))
        above = max(above, float(vals.max() - 1.0))
    range_ok = below >= -tol and above <= tol
    certs.append(Certificate(
        name=f"partition_range[{fam},n={n}]",
        claim="partition.range",
        verdict=PASS if range_ok else FAIL,
        measured=max(-below, above), bound=tol,
        details={"min_value": below, "max_excess": above},
    ))

    # Support: the profile support must sit strictly inside the ball, and
    # evaluation at sup-norm distance >= rho must give exactly zero.
    support_ok = True
    witness = None
    eye = np.eye(cover.dimension)
    dirs = np.vstack([eye, -eye, np.ones((1, cover.dimension))])
    for fn in partition:
        k = fn.index
        rho_k = float(cover.rho[k])
        if not fn.cutoff.support_halfwidth < rho_k:
            support_ok = False
            witness = {"center": k, "support_halfwidth": fn.cutoff.support_halfwidth}
            break
        pts = np.vstack([cover.centers[k] + rho_k * dirs,
                         cover.centers[k] + 1.5 * rho_k * dirs])
        vals = fn.value(pts)
        if (vals != 0.0).any():
            support_ok = False
            witness = {"center": k, "nonzero_outside": float(vals.max())}
            break
    certs.append(Certificate(
        name=f"partition_support[{fam},n={n}]",
        claim="partition.support_in_ball",
        verdict=PASS if support_ok else FAIL,
        details=witness or {"note": "support strictly inside every ball"},
    ))

    worst_ratio = 0.0
    tight = None
    r3 = np.array([oracle.value(3, z) for z in cover.centers])
    for fn in partition:
        k = fn.index
        lo = cover.centers[k] - fn.cutoff.support_halfwidth
        hi = cover.centers[k] + fn.cutoff.support_halfwidth
        mask = ((grid >= lo) & (grid <= hi)).all(axis=1)
        local = grid[mask]
        if len(local) == 0:
            continue
        tables = fn.partials_table(local, (alpha_max,) * cover.dimension)
        for alpha in indices_up_to_order(cover.dimension, alpha_max):
            if sum(alpha) == 0:
                bound = (1.0 / r3[k]) ** cover.dimension
                measured = float(np.abs(fn.value(local)).max())
            else:
                bound = derivative_constant(alpha, cover.dimension,
                                            partition.weights) * \
                    (1.0 / r3[k]) ** (cover.dimension + sum(alpha))
                measured = float(np.abs(tables[alpha]).max())
            ratio = measured / bound
            if ratio > worst_ratio:
                worst_ratio = ratio
                tight = {"center": k, "alpha": list(alpha),
                         "measured": measured, "bound": bound}
    certs.append(Certificate(
        name=f"partition_derivative_bound[{fam},n={n},|a|<={alpha_max}]",
        claim="partition.derivative_bound",
        verdict=PASS if worst_ratio <= 1.0 + tol else FAIL,
        measured=worst_ratio, bound=1.0, slack=1.0 - worst_ratio,
        constants={"growth_base": DERIVATIVE_GROWTH_BASE,
                   "weights": list(partition.weights),
                   "radius_direction": "sampled depth-3 radius in denominator "
                                       "(conservative)"},
        resolutions={"grid_points": int(len(grid)), "alpha_max": alpha_max},
        details=tight or {},
    ))
    return certs
