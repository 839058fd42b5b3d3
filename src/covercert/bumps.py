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
overlapping ones (its blockers).  All partial derivatives are evaluated
exactly from the piecewise polynomials through the product rule.  A
partition builds one profile per distinct radius and shares it between
the cutoffs of that radius.

Every partition reading runs through one incidence engine,
``Incidence``.  It holds the (point, cutoff) pairs of a point set with
the point in the cutoff's closed support, and evaluates the factors of
all pairs of one profile together: per axis, one shared-knot evaluation
gives every derivative order the pairs need, so the interval searches
scale with the distinct radii, not with the cutoffs.  Readers that need
every pair (the partition sum, the partition certificates, the cutoff
export) find them with one ``sup_pairs`` query; readers that evaluate one
function per point (``function_values``, ``partition_partials`` and,
through them, the rescaled functional and the pullback export) test just
that function's cutoff and blockers.  The rows to evaluate are
(partition function, point) pairs.  A point in the closed supports of
cutoffs m < k lies in both outer balls, so k's blockers at a point are
among the point's earlier pairs in its run (its pairs by ascending
cutoff).  Each row starts from its own cutoff's entries; then, for
s = 0, 1, ..., every row with more than s earlier pairs takes its point's
s-th pair and, if a key lookup finds that cutoff among its function's
blockers, the complement in one vectorized product-rule step.  So each
row meets its blockers in ascending order, as ``PartitionFn`` requires,
with the same multinomial weights, and every value is bitwise the
per-function loop's.  Points pass through the engine in blocks of a
bounded number of pairs, which bounds its memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cover import Cover, neighbor_sets, pairs_within, sup_pairs
from .errors import SmoothnessOrderError
from .multiindex import indices_below, indices_up_to_order, multi_binom, multi_factorial
from .piecewise import PiecewisePoly, evaluate_shared, indicator
from .report import FAIL, PASS, Certificate

__all__ = [
    "default_weights", "BumpProfile", "build_profile",
    "Cutoff", "PartitionFn", "Partition", "build_partition",
    "Incidence", "incidences", "partition_partials", "function_values",
    "partition_sum", "certify_partition",
    "derivative_constant", "DERIVATIVE_GROWTH_BASE",
]

# Each box smoothing contributes a factor of at most 2/width to one
# derivative order; tensor products inherit the same base per coordinate.
DERIVATIVE_GROWTH_BASE = 2.0

# (point, cutoff) pairs per incidence block: bounds the engine's tables
_BLOCK_PAIRS = 1 << 14


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

    def value(self, x):
        return self.partial(x, None)

    def contains_support(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        pts = x[None, :] if x.ndim == 1 else x
        offs = np.abs(pts - np.asarray(self.center)).max(axis=1)
        return offs <= self.support_halfwidth


@dataclass(frozen=True)
class PartitionFn:
    """One partition function: its cutoff times earlier overlapping
    complements, applied in the order of the ascending blocker indices."""

    index: int
    cutoff: Cutoff
    blockers: tuple[tuple[int, Cutoff], ...]

    def __post_init__(self):
        chain = [m for m, _ in self.blockers] + [self.index]
        if any(a >= b for a, b in zip(chain, chain[1:])):
            raise ValueError(f"blockers of function {self.index} must ascend "
                             f"strictly below it, got {chain[:-1]}")


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


class Incidence:
    """The (point, cutoff) pairs of a point set, with each cutoff's partials.

    The cutoffs are those of ``functions`` and of their blockers.  A pair
    is kept when the point lies in the cutoff's closed support (the test
    of ``Cutoff.contains_support``).  Pairs are held in lexicographic
    (point, cutoff) order, so each point's pairs are one run from
    ``run_start``; ``partials`` steps along the runs and keeps a pair only
    if ``links``, the sorted (function, cutoff) keys of each function's
    own cutoff and blockers, holds it.  Without ``owners`` every pair is
    found, by one ``sup_pairs`` query; with ``owners`` (the partition
    index of the one function each point is read for) one ``pairs_within``
    call tests each point's slice of ``links``.
    Each pair's partials up to ``alpha`` are formed from its offsets to the
    cutoff's center: for every distinct profile and axis, one shared-knot
    evaluation gives orders ``0..alpha_i`` at all of that profile's pairs,
    and each beta multiplies its axis factors from ones, in the order of
    ``Cutoff.partial``, so each value is bitwise that cutoff's
    ``partial``.
    """

    def __init__(self, functions, pts, alpha, owners=None):
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        alpha = tuple(int(a) for a in alpha)
        cutoffs = {}
        for fn in functions:
            cutoffs[fn.index] = fn.cutoff
            cutoffs.update(fn.blockers)
        budget = min(c.profile.order for c in cutoffs.values()) - 1
        if any(a > budget for a in alpha):
            raise SmoothnessOrderError(
                f"component of {alpha} exceeds per-axis budget {budget}")
        index = sorted(cutoffs)
        size = len(index)
        self.pts = pts
        self.betas = indices_below(alpha)
        self.cutoffs = [cutoffs[m] for m in index]
        # local position of each partition index among the cutoffs
        self.local = np.full(index[-1] + 1, -1, dtype=np.int64)
        self.local[index] = np.arange(size)
        # (function, cutoff) keys of every function's own cutoff and blockers
        self.links = np.sort(np.concatenate([
            self.local[fn.index] * size
            + self.local[[m for m, _ in fn.blockers] + [fn.index]]
            for fn in functions]))
        self.terms = {beta: [(gamma, tuple(b - g for b, g in zip(beta, gamma)),
                              multi_binom(beta, gamma))
                             for gamma in indices_below(beta)]
                      for beta in self.betas}

        centers = np.array([c.center for c in self.cutoffs], dtype=float)
        half = np.array([c.support_halfwidth for c in self.cutoffs])
        if owners is None:
            rows, cols, _ = sup_pairs(centers, pts, half)
        else:
            # each point's slice of links ascends: pairs come out in order
            own = self.local[np.asarray(owners, dtype=np.int64)]
            lo = np.searchsorted(self.links, own * size)
            count = np.searchsorted(self.links, (own + 1) * size) - lo
            rows = np.repeat(np.arange(len(pts)), count)
            at = np.arange(len(rows)) + np.repeat(lo - np.cumsum(count) + count,
                                                  count)
            rows, cols, _ = pairs_within(centers, pts, rows,
                                         self.links[at] % size, half)
        self.keys = rows * size + cols
        self.rows, self.cols = rows, cols
        self.fns = np.asarray(index, dtype=np.int64)[cols]
        self.run_start = np.searchsorted(rows, np.arange(len(pts)))

        # the pairs of each distinct profile, evaluated together
        profiles, profile_of = {}, np.empty(size, dtype=np.int64)
        for c, cut in enumerate(self.cutoffs):
            profile_of[c] = profiles.setdefault(id(cut.profile),
                                                (len(profiles), cut.profile))[0]
        offsets = pts[rows] - centers[cols]
        pair_profile = profile_of[cols]
        by_profile = np.argsort(pair_profile, kind="stable")
        ends = np.searchsorted(pair_profile[by_profile],
                               np.arange(1, len(profiles) + 1))
        self.factors = {beta: np.empty(len(cols)) for beta in self.betas}
        for (_, profile), lo, hi in zip(profiles.values(), np.r_[0, ends[:-1]], ends):
            if hi > lo:
                sel = by_profile[lo:hi]
                axes = [evaluate_shared(profile.polys[:a_i + 1], offsets[sel, i])
                        for i, a_i in enumerate(alpha)]
                for beta in self.betas:
                    val = np.ones(len(sel))
                    for orders, b_i in zip(axes, beta):
                        val = val * orders[b_i]
                    self.factors[beta][sel] = val

    def partials(self, ks, idx, value=False) -> dict:
        """Partials beta <= alpha of function ``ks[r]`` at point ``idx[r]``.

        Returns a dict mapping each beta to one value per row, zero where
        the point is outside the function's own support.  An incidence
        built with ``owners`` holds only the pairs of the rows
        ``(owners[i], i)``, so those are the rows it can evaluate.  With
        ``value`` only the order-0 entry is formed, in the arithmetic of
        ``function_values`` and of its reference ``oracles.fn_value`` in the
        tests: the cutoff's value at every row, then the complements applied
        by plain products to the rows where that value is nonzero.
        """
        own = self.local[np.asarray(ks, dtype=np.int64)]
        idx = np.asarray(idx, dtype=np.int64)
        size = len(self.cutoffs)
        at, inside = _search(self.keys, idx * size + own)
        if value:
            zero = (0,) * self.pts.shape[1]
            out = np.empty(len(idx))
            out[inside] = self.factors[zero][at[inside]]
            outside = np.flatnonzero(~inside)
            for c in np.flatnonzero(np.bincount(own[outside], minlength=size)):
                sel = outside[own[outside] == c]
                out[sel] = self.cutoffs[c].value(self.pts[idx[sel]])
            acc = {zero: out}
            live = np.flatnonzero(out != 0.0)
        else:
            acc = {}
            for beta in self.betas:
                acc[beta] = np.zeros(len(idx))
                acc[beta][inside] = self.factors[beta][at[inside]]
            live = np.flatnonzero(inside)

        # a row's depth: its point's pairs before its own (or before where
        # its own would be), the cutoffs that can block it, in index order
        start = self.run_start[idx]
        deep, depth = live, at[live] - start[live]
        for s in range(int(depth.max(initial=0))):
            keep = depth > s
            deep, depth = deep[keep], depth[keep]
            pair = start[deep] + s
            hit = _search(self.links, own[deep] * size + self.cols[pair])[1]
            rows, pair = deep[hit], pair[hit]
            if value:
                acc[zero][rows] = acc[zero][rows] * (1.0 - self.factors[zero][pair])
            else:
                self._complement_step(acc, rows, pair)
        return acc

    def _complement_step(self, acc, rows, at):
        """Multiply ``acc`` on ``rows`` by the complement of the cutoffs at
        pairs ``at``, every partial by the product rule."""
        t = {beta: (1.0 if sum(beta) == 0 else 0.0) - self.factors[beta][at]
             for beta in self.betas}
        cur = {beta: acc[beta][rows] for beta in self.betas}
        for beta in self.betas:
            total = np.zeros(len(rows))
            for gamma, rest, weight in self.terms[beta]:
                total += weight * cur[gamma] * t[rest]
            acc[beta][rows] = total


def _search(sorted_keys, keys):
    """Insertion point of each key in ``sorted_keys``, and whether the key
    is there."""
    at = np.searchsorted(sorted_keys, keys)
    if not len(sorted_keys):
        return at, np.zeros(len(keys), dtype=bool)
    return at, sorted_keys[np.minimum(at, len(sorted_keys) - 1)] == keys


def incidences(functions, pts, alpha, owners=None):
    """``(block, Incidence)`` for consecutive blocks of the points.

    Blocks bound the engine's tables: each next block is sized from the
    pairs per point of the last one to hold about ``_BLOCK_PAIRS`` pairs.
    Every point's pairs, and so every value, are those of one incidence of
    all the points.  There is always at least one block, empty for no
    points.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    start, size = 0, 1024
    while True:
        block = slice(start, start + size)
        inc = Incidence(functions, pts[block], alpha,
                        None if owners is None else owners[block])
        yield block, inc
        start = block.stop
        if start >= len(pts):
            return
        per_point = max(len(inc.rows), 1) / len(inc.pts)
        size = int(min(4 * size, max(64, _BLOCK_PAIRS / per_point)))


def partition_partials(functions, pts, ks, alpha, value=False) -> dict:
    """Partials beta <= alpha of partition function ``ks[i]`` at ``pts[i]``,
    for every i (see ``Incidence.partials``)."""
    ks = np.asarray(ks, dtype=np.int64)
    parts = [inc.partials(ks[block], np.arange(len(inc.pts)), value=value)
             for block, inc in incidences(functions, pts, alpha, owners=ks)]
    return {beta: np.concatenate([part[beta] for part in parts])
            for beta in parts[0]}


def function_values(functions, pts, ks) -> np.ndarray:
    """Value of partition function ``ks[i]`` at ``pts[i]``, for every i."""
    zero = (0,) * np.shape(pts)[-1]
    return partition_partials(functions, pts, ks, zero, value=True)[zero]


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
    # one profile per radius: order and weights are the partition's own
    profiles = {}
    for rho in cover.rho.tolist():
        if rho not in profiles:
            profiles[rho] = build_profile(rho, order, weights)
    cutoffs = [Cutoff(tuple(cover.centers[k]), profiles[float(cover.rho[k])])
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


def partition_sum(partition: Partition, pts) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    zero = (0,) * pts.shape[1]
    out = np.zeros(len(pts))
    for block, inc in incidences(partition.functions, pts, zero):
        # bincount adds each point's values in pair order, i.e. function order
        values = inc.partials(inc.fns, inc.rows, value=True)[zero]
        out[block] = np.bincount(inc.rows, weights=values, minlength=len(inc.pts))
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
    d = cover.dimension
    certs: list[Certificate] = []

    # One table of partials at every (grid point, function) pair serves the
    # sum, range and derivative passes.  Its order-0 entry is the value up
    # to the sign of a zero (the product rule adds each product to +0.0),
    # which neither a sum started at +0.0 nor the range's extremes can see.
    # The derivative pass keeps each function's grid points in its support
    # box (lo <= x <= hi) and takes max |partial| over them.
    alphas = indices_up_to_order(d, alpha_max)
    half = np.array([fn.cutoff.support_halfwidth for fn in partition])
    peaks = np.zeros((len(partition), len(alphas)))
    seen = np.zeros(len(partition), dtype=bool)
    sums = np.zeros(len(grid))
    below, top = 0.0, None
    for block, inc in incidences(partition.functions, grid, (alpha_max,) * d):
        tables = inc.partials(inc.fns, inc.rows)
        vals = tables[(0,) * d]
        # bincount adds each point's values in function order, as
        # partition_sum does
        sums[block] = np.bincount(inc.rows, weights=vals, minlength=len(inc.pts))
        if len(vals):
            below = min(below, float(vals.min()))
            top = float(vals.max()) if top is None else max(top, float(vals.max()))
        at = inc.pts[inc.rows]
        lo = cover.centers[inc.fns] - half[inc.fns][:, None]
        hi = cover.centers[inc.fns] + half[inc.fns][:, None]
        in_box = np.flatnonzero(((at >= lo) & (at <= hi)).all(axis=1))
        del at, lo, hi
        order = in_box[np.argsort(inc.fns[in_box], kind="stable")]
        fk = inc.fns[order]
        if len(fk):
            starts = np.flatnonzero(np.r_[True, fk[1:] != fk[:-1]])
            fk = fk[starts]
            seen[fk] = True
            for j, alpha in enumerate(alphas):
                peaks[fk, j] = np.maximum(peaks[fk, j], np.maximum.reduceat(
                    np.abs(tables[alpha][order]), starts))
    above = float(np.max(sums - 1.0))
    if top is not None:
        above = max(above, top - 1.0)

    ring_mask = cover.domain.ring(n).contains(grid)
    worst_sum = float(np.abs(sums[ring_mask] - 1.0).max()) if ring_mask.any() else 0.0
    certs.append(Certificate(
        name=f"partition_sum[{fam},n={n}]",
        claim="partition.sum_to_one",
        verdict=PASS if worst_sum <= sum_tol else FAIL,
        measured=worst_sum, bound=sum_tol, slack=sum_tol - worst_sum,
        resolutions={"ring_points": int(ring_mask.sum()),
                     "grid_points": int(len(grid))},
    ))

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
    ks = np.array([fn.index for fn in partition])
    eye = np.eye(d)
    dirs = np.vstack([eye, -eye, np.ones((1, d))])
    centers = cover.centers[ks][:, None, :]
    rho = cover.rho[ks][:, None, None]
    probes = np.concatenate([centers + rho * dirs, centers + 1.5 * rho * dirs],
                            axis=1)
    outside = function_values(partition.functions, probes.reshape(-1, d),
                              np.repeat(ks, probes.shape[1]))
    outside = outside.reshape(len(ks), -1)
    support_ok = True
    witness = None
    for fn, vals in zip(partition, outside):
        k = fn.index
        if not fn.cutoff.support_halfwidth < float(cover.rho[k]):
            support_ok = False
            witness = {"center": k, "support_halfwidth": fn.cutoff.support_halfwidth}
            break
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
    r3 = oracle.values(3, cover.centers)
    for k in np.flatnonzero(seen).tolist():
        for j, alpha in enumerate(alphas):
            if sum(alpha) == 0:
                bound = (1.0 / r3[k]) ** d
            else:
                bound = derivative_constant(alpha, d, partition.weights) * \
                    (1.0 / r3[k]) ** (d + sum(alpha))
            measured = float(peaks[k, j])
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
