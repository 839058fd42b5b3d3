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
``Partition`` is one profile, built at r = 1, plus each ball's center z
and radius rho: on each axis the partial of order a of the ball's cutoff
is ``P^(a)((x - z) / rho) * rho^-a``.

Every partition reading runs through one incidence engine,
``Incidence``.  It holds the (point, cutoff) pairs of a point set with
the point in the cutoff's closed support, and evaluates the factors of
all pairs together: per axis, one shared-knot evaluation of the profile
gives every derivative order the pairs need, so the interval searches
do not grow with the cutoffs or their radii.  Its tables cover only the
partials a reader asks for, a down-closed set of multi-indices, so a
reader of the orders |beta| <= k pays for no cross term above them.  A
point's pairs by ascending cutoff are its run, and one prefix-product
recurrence walks each run: with P the product of the complements of the
earlier pairs, the function at pair s is psi = phi_s * P, and P steps to
P * (1 - phi_s), both by the product rule over every partial, with the
cross terms the two share formed once.  A run of L pairs costs L steps,
where multiplying in each function's complements on its own costs
Theta(L^2); the products associate differently, so values agree with
that order to rounding, not bitwise.

Every reading is a ``Lattice`` (a stack of masked tensor grids) and its
links, one index box per (grid, cutoff) (``Partition.links_within``),
and its pairs are the cells of the boxes inside the mask.  Readers that
need every pair (the partition certificates) read a one-grid lattice
(the check lattice or a sub-lattice of it), linked to every cutoff.
They read psi at every pair.  That is exact because a point in the
closed supports of cutoffs m < k lies in both outer balls, so every
earlier pair of a run is a blocker of the later one;
``Partition.check_runs`` checks this once per partition, when psi is
first formed, from one ``box_pairs`` sweep of the support boxes, each
widened by 1e-9 relative as the sweep widens its window.  Readers of one
function per point (``partition_partials``: the integral bound, the
functional and the pullback export) read a stack of one grid per
function, linked to its blockers and own cutoff, and form psi once, at
the end of each run.  The boxes are searched once per reading and cut
to slabs of the stack's first axis of a bounded number of box cells,
which bounds the engine's memory.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cover import Cover, ball_overlaps, box_pairs
from .domains import Lattice, _ranges
from .errors import SmoothnessOrderError
from .multiindex import indices_below, indices_up_to_order, multi_binom, multi_factorial
from .piecewise import PiecewisePoly, evaluate_shared, indicator
from .report import FAIL, PASS, Certificate

__all__ = [
    "default_weights", "BumpProfile", "build_profile",
    "PartitionFn", "Partition", "build_partition",
    "Incidence", "incidences", "partition_partials", "function_values",
    "cutoff_values", "certify_partition",
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
class PartitionFn:
    """One partition function: its own cutoff times the complements of the
    earlier overlapping cutoffs ``blockers``, applied in ascending order."""

    index: int
    blockers: tuple[int, ...]

    def __post_init__(self):
        chain = [*self.blockers, self.index]
        if any(a >= b for a, b in zip(chain, chain[1:])):
            raise ValueError(f"blockers of function {self.index} must ascend "
                             f"strictly below it, got {chain[:-1]}")


class Partition:
    """A partition of unity: one profile, and one cutoff and one function
    per ball, with the tables every reading shares, built once.

    Cutoff k is ``profile`` moved to ``centers[k]`` and rescaled by
    ``scales[k]``; its closed support is the box of half-width ``half[k]``
    about that center.  Function k is cutoff k times the complements of
    the cutoffs ``blockers[k]``.  ``links`` holds the sorted keys
    ``k * K + m`` of each function's blockers m and own cutoff k, and
    ``powers[k, b]`` is ``scales[k] ** -b`` as a Python float.
    """

    def __init__(self, profile: BumpProfile, centers, scales, blockers):
        self.profile = profile
        self.centers = np.array(centers, dtype=float)
        self.scales = np.array(scales, dtype=float)
        self.functions = [PartitionFn(k, tuple(ms))
                          for k, ms in enumerate(blockers)]
        size = len(self.functions)
        keys = [(*fn.blockers, fn.index) for fn in self.functions]
        # each function's keys ascend below its own, so links come sorted
        self.links = (np.repeat(np.arange(size), list(map(len, keys))) * size
                      + np.fromiter(itertools.chain.from_iterable(keys), np.int64))
        self.half = self.scales * profile.support_halfwidth
        self.powers = np.array([[s ** -b for b in range(profile.order)]
                                for s in self.scales.tolist()])
        self._runs_checked = False

    @property
    def order(self) -> int:
        return self.profile.order

    @property
    def weights(self) -> tuple[float, ...]:
        return self.profile.weights

    def __iter__(self):
        return iter(self.functions)

    def __len__(self):
        return len(self.functions)

    def __getitem__(self, k):
        return self.functions[k]

    def pairs(self, lattice: Lattice, owners=None):
        """The (point, cutoff) pairs of a reading of ``lattice`` (see
        :meth:`links_within`), as ``(rows, cols)`` in lexicographic order."""
        grid, cols, first, stop = self.links_within(lattice, owners)
        rows, at = lattice.pairs(first, stop, grid)
        return rows, cols[at]

    def links_within(self, lattice: Lattice, owners=None):
        """The links of a reading of ``lattice``, as ``(grid, cols, first,
        stop)``: per link, the grid it reads, its cutoff, and per axis the
        index interval ``first <= t < stop`` of the grid inside the
        cutoff's closed support.

        Without ``owners`` every grid links to every cutoff, so the pairs
        are all the (point, cutoff) pairs with the point in the cutoff's
        closed support.  With ``owners`` (the function each grid
        is read for) grid g links to the blockers and own cutoff of
        function ``owners[g]``, each cut to the own cutoff's box (the
        grid's last link), so a point outside its owner's support keeps no
        pairs.  ``TypeError`` for a point set that is not a ``Lattice``; a
        coordinate that is not finite raises ``ValueError``."""
        if not isinstance(lattice, Lattice):
            raise TypeError("partition readings read a Lattice")
        if not all(np.isfinite(axis).all() for axis in lattice.axes):
            raise ValueError("grid coordinates must be finite, not NaN or "
                             "infinite")
        size = len(self)
        if owners is None:
            grid = np.repeat(np.arange(len(lattice.shape)), size)
            cols = np.tile(np.arange(size), len(lattice.shape))
        else:
            own = np.asarray(owners, dtype=np.int64)
            lo = np.searchsorted(self.links, own * size)
            count = np.searchsorted(self.links, (own + 1) * size) - lo
            grid = np.repeat(np.arange(len(own)), count)
            cols = self.links[_ranges(lo, count)] % size
        first, stop = lattice.boxes(self.centers[cols], self.half[cols],
                                    strict=False, grid=grid)
        if owners is None:
            return grid, cols, first, stop
        last = np.repeat(np.cumsum(count) - 1, count)
        first = np.maximum(first, first[:, last])
        stop = np.maximum(first, np.minimum(stop, stop[:, last]))
        return grid, cols, first, stop

    def check_runs(self):
        """Raise ``ValueError`` unless every earlier cutoff whose closed
        support box meets a cutoff's is among that function's blockers.

        The all-pairs recurrence multiplies every earlier pair of a point's
        run into each later one, so this is what makes it exact.  The boxes
        are widened by 1e-9 relative, as ``box_pairs`` widens its sweep, so a
        point that float rounding puts in both supports is covered.  A
        partition is checked once; later calls return at once.
        """
        if self._runs_checked:
            return
        size = len(self)
        slack = 1e-9 * float(np.abs(self.centers).max())
        earlier, later, dist = box_pairs(
            self.centers, self.half * (1.0 + 1e-9) + slack / 2.0)
        reach = self.half[later] + self.half[earlier]
        meet = dist <= reach * (1.0 + 1e-9) + slack
        keys = np.sort(later[meet] * size + earlier[meet])
        at = np.searchsorted(self.links, keys)
        missing = np.flatnonzero(self.links[np.minimum(at, len(self.links) - 1)]
                                 != keys)
        if len(missing):
            k, m = divmod(int(keys[missing[0]]), size)
            raise ValueError(f"cutoff {m} meets the support of cutoff {k}, "
                             "which does not list it as a blocker")
        self._runs_checked = True


class Incidence:
    """The (point, cutoff) pairs of a point set, with each cutoff's partials.

    The points ``pts`` are an array, and the pairs (point ``rows``, cutoff
    ``fns``) come in lexicographic order, as ``Partition.pairs`` gives
    them: all pairs, or, when ``owned``, the pairs of each point's owner's
    links.  A point's pairs by ascending cutoff are its run.  The pairs
    are held step-major (``_step_major``): step s holds the s-th pair of
    every point whose run is longer than s (``active[s]`` of them, from
    ``start[s]``), with the points ranked by descending run length
    (``order``), so each step's points are a prefix of the last step's.
    The tables cover ``betas``, a down-closed set of multi-indices (with
    every beta, each gamma <= beta; ``ValueError`` otherwise), and the
    recurrence is exact on such a set.  Each pair's partials are formed
    from its offsets to the cutoff's center, divided by the cutoff's
    scale: per axis, one shared-knot evaluation of the profile gives every
    order up to the largest of the betas on that axis at every pair, each
    order b is multiplied by the pair's ``powers`` entry, and each beta
    multiplies its axis factors from ones, in axis order, so each row of
    ``factors`` (one per entry of ``betas``, the order-0 row first) is
    bitwise the cutoff's partial evaluated on its own.
    """

    def __init__(self, partition: Partition, pts: np.ndarray, pairs, betas,
                 owned: bool = False):
        profile = partition.profile
        self.pts, self.partition, self.owned = pts, partition, owned
        self.rule = _product_rule(_down_set(betas, partition.centers.shape[1]))
        self.betas = self.rule.betas
        top = np.max(self.betas, axis=0).tolist()
        if max(top) >= profile.order:
            raise SmoothnessOrderError(f"component of {tuple(top)} exceeds "
                                       f"per-axis budget {profile.order - 1}")
        self.order, self.active, self.start, self.rows, self.fns = _step_major(
            *pairs, len(pts))
        rows, fns = self.rows, self.fns

        offsets = (pts[rows] - partition.centers[fns]) / partition.scales[fns, None]
        axes = [evaluate_shared(profile.polys[:a_i + 1], offsets[:, i])
                for i, a_i in enumerate(top)]
        del offsets
        for orders in axes:
            for b, vals in enumerate(orders):
                vals *= partition.powers[fns, b]
        self.factors = np.empty((len(self.betas), len(fns)))
        for row, beta in zip(self.factors, self.betas):
            val = np.ones(len(fns))
            for orders, b_i in zip(axes, beta):
                val = val * orders[b_i]
            row[:] = val

    def partials(self) -> dict:
        """Partials ``betas`` of the partition functions, as a dict from
        each beta to its values, by ascending beta.

        Without ``owned`` there is one value per pair: function ``fns[p]``
        at point ``rows[p]``.  With ``owned`` there is one per point: its
        owner's function, zero outside the owner's support.

        Along a run, with P the running product of the complements of the
        earlier pairs (one at the start), the function of pair s is
        psi = phi_s * P and the product steps to P * (1 - phi_s), both by
        the product rule over ``betas``.  Their cross terms, the sums over
        gamma < beta of binom(beta, gamma) * P^gamma * phi_s^(beta - gamma),
        are shared: psi^beta = P^beta * phi_s + cross^beta and the next
        P^beta = P^beta * (1 - phi_s) - cross^beta.  The first pair of a run
        gives psi = phi and P = 1 - phi as they are.  Owner mode forms psi
        only at each run's last pair, the owner's own.  Without ``owned``
        the partition is first checked with ``Partition.check_runs``.
        """
        if not self.owned:
            self.partition.check_runs()
        out = np.empty((len(self.betas),
                        self.active[0] if self.owned else len(self.rows)))
        prod = None
        for s in range(len(self.active) - 1):
            n, m, at = self.active[s], self.active[s + 1], self.start[s]
            psi = out[:, m:n] if self.owned else out[:, at:at + n]
            prod = self._step(prod, self.factors[:, at:at + n], psi, m)
        if self.owned:
            owned, out = out, np.zeros((len(self.betas), len(self.pts)))
            out[:, self.order[:owned.shape[1]]] = owned
        return dict(sorted(zip(self.betas, out), key=lambda item: item[0]))

    def _step(self, prod, f, psi, m):
        """One step of the recurrence at the pairs ``f``, one column per
        active point: write psi at the last ``psi.shape[1]`` of them and
        return the next running product, at the first ``m``."""
        lo = f.shape[1] - psi.shape[1]
        if prod is None:
            psi[:] = f[:, lo:]
            prod = -f[:, :m]
            prod[0] = 1.0 - f[0, :m]
            return prod
        np.multiply(prod[:, lo:], f[0, lo:], out=psi)
        nxt = prod[:, :m] * (1.0 - f[0, :m])
        rule = self.rule
        if rule.levels:
            terms = prod[rule.gamma]
            terms *= f[rule.rest]
            terms *= rule.weight
            cross = terms[:rule.levels[0]]
            at = rule.levels[0]
            for count in rule.levels[1:]:
                cross[:count] += terms[at:at + count]
                at += count
            psi[1:] += cross[:, lo:]
            nxt[1:] -= cross[:, :m]
        return nxt


def _step_major(rows, cols, count):
    """Reorder lexicographic (point, cutoff) pairs of ``count`` points step
    by step.

    Step s holds the s-th pair of every point whose run is longer than s,
    with the points ranked by descending run length, so each step's points
    are a prefix of the last step's.  Returns the points by rank, the
    number of points at each step (ending with 0), where each step starts,
    and the reordered ``rows`` and ``cols``.
    """
    length = np.bincount(rows, minlength=count)
    order = np.argsort(-length, kind="stable")
    rank = np.empty(count, dtype=np.int64)
    rank[order] = np.arange(count)
    active = count - np.cumsum(np.bincount(length, minlength=1))
    start = np.r_[0, np.cumsum(active)]
    step = np.arange(len(rows)) - np.searchsorted(rows, rows)
    pos = np.empty(len(rows), dtype=np.int64)
    pos[start[step] + rank[rows]] = np.arange(len(rows))
    return order, active, start, rows[pos], cols[pos]


class _Rule(NamedTuple):
    betas: list
    gamma: np.ndarray
    rest: np.ndarray
    weight: np.ndarray
    levels: list


def _down_set(betas, dimension: int) -> tuple:
    """``betas`` as a sorted tuple of distinct multi-indices of the given
    dimension; ``ValueError`` for an empty set or a malformed index."""
    out = tuple(sorted({tuple(int(b) for b in beta) for beta in betas}))
    if not out or any(len(beta) != dimension or min(beta) < 0 for beta in out):
        raise ValueError(f"need a nonempty set of {dimension}-dimensional "
                         f"multi-indices, got {list(out)}")
    return out


@functools.cache
def _product_rule(betas) -> _Rule:
    """The engine's betas and the product rule's cross terms for the
    down-closed set ``betas`` (as ``_down_set`` gives it).

    The betas, the rows of the engine's tables, are zero first and then
    the others by descending count of gammas < beta, so that the betas
    with more than j such gammas come first.  The cross terms are stored
    level by level: level j holds, for each beta with more than j gammas,
    its j-th gamma in ``indices_below`` order, as the rows of gamma and of
    beta - gamma and the weight binom(beta, gamma).  ``levels`` counts the
    terms of each level, so every cross sum adds its terms in that order,
    whatever other betas the set holds.  A set that is not down-closed
    raises ``ValueError``.
    """
    below = {beta: indices_below(beta)[:-1] for beta in betas}
    missing = [(beta, gamma) for beta in betas for gamma in below[beta]
               if gamma not in below]
    if missing:
        raise ValueError("the set of multi-indices is not down-closed: it "
                         "holds {} but not {}".format(*missing[0]))
    betas = [next(iter(below))] + sorted(list(below)[1:],
                                         key=lambda beta: -len(below[beta]))
    row = {beta: j for j, beta in enumerate(betas)}
    terms = [(j, row[gamma], row[tuple(b - g for b, g in zip(beta, gamma))],
              float(multi_binom(beta, gamma)))
             for beta in betas for j, gamma in enumerate(below[beta])]
    terms.sort(key=lambda term: term[0])
    _, gamma, rest, weight = zip(*terms) if terms else ((),) * 4
    levels = np.bincount([term[0] for term in terms]).tolist()
    return _Rule(betas, np.array(gamma, dtype=np.int64),
                 np.array(rest, dtype=np.int64), np.array(weight)[:, None],
                 levels)


def incidences(partition: Partition, lattice: Lattice, betas, owners=None):
    """``(block, Incidence)`` for consecutive blocks of the points of
    ``lattice``, with tables over the down-closed set ``betas``.

    The pairs are those of ``Partition.pairs(lattice, owners)``.  The
    links' boxes are searched once, and each block is one of their
    ``Lattice.slabs`` of at most about ``_BLOCK_PAIRS`` box cells (a
    contiguous slice of the points, with the boxes cut to it), which
    bounds the engine's tables.  Every point's pairs, and so every value,
    are those of one incidence of all the points.  There is always at
    least one block, empty for no points.
    """
    grid, cols, first, stop = partition.links_within(lattice, owners)
    for _, block, at, lo, hi in lattice.slabs(grid, first, stop, _BLOCK_PAIRS):
        rows, fns = lattice.pairs(lo, hi, grid[at])
        rows -= block.start
        fns = cols[at][fns]
        inc = Incidence(partition, lattice.points[block], (rows, fns), betas,
                        owners is not None)
        del rows, fns       # not held while the block is read
        yield block, inc


def partition_partials(partition: Partition, lattice: Lattice, ks,
                       betas) -> dict:
    """Partials ``betas`` (a down-closed set) of partition function
    ``ks[g]`` at every point of grid g of the stack ``lattice``, in the
    order of ``lattice.points`` (see ``Incidence.partials``)."""
    parts = [inc.partials()
             for _, inc in incidences(partition, lattice, betas, owners=ks)]
    return {beta: np.concatenate([part[beta] for part in parts])
            for beta in parts[0]}


def function_values(partition: Partition, lattice: Lattice, ks) -> np.ndarray:
    """Value of partition function ``ks[g]`` at every point of grid g of
    the stack ``lattice``, in the order of ``lattice.points``.

    A point outside the function's own closed support box has no pairs
    there and reads zero without an evaluation (a coordinate that is not
    finite raises ``ValueError``); the support certificate evaluates the
    cutoffs themselves."""
    zero = (0,) * len(lattice.axes)
    return partition_partials(partition, lattice, ks, [zero])[zero]


def build_partition(cover: Cover, order: int, weights=None) -> Partition:
    """Partition functions for an accepted cover.

    One profile is built, at radius 1, and each ball rescales it by its own
    radius.  Complements are restricted to earlier centers whose outer
    balls meet the current one (``ball_overlaps``); the omitted factors
    are identically one on the support, so the restriction changes nothing
    pointwise.
    """
    earlier, later = ball_overlaps(cover)
    by_later = np.lexsort((earlier, later))
    earlier = earlier[by_later].tolist()
    ends = np.searchsorted(later[by_later], np.arange(cover.size + 1)).tolist()
    return Partition(build_profile(1.0, order, weights), cover.centers,
                     cover.rho, [earlier[lo:hi] for lo, hi in zip(ends, ends[1:])])


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


def cutoff_values(partition: Partition, pts: np.ndarray, ks) -> np.ndarray:
    """Cutoff ``ks[i]``'s value at ``pts[i]``, for every i, with one profile
    evaluation, bitwise the engine's order-0 factor of each pair."""
    u = (pts - partition.centers[ks]) / partition.scales[ks, None]
    phi = evaluate_shared(partition.profile.polys[:1],
                          u.ravel())[0].reshape(u.shape)
    vals = phi[:, 0]
    for i in range(1, u.shape[1]):
        vals = vals * phi[:, i]
    return vals


def certify_partition(partition: Partition, cover: Cover, alpha_max: int,
                      grid: Lattice, stride: int = 1, sum_tol: float = 1e-9,
                      tol: float = 1e-9) -> list[Certificate]:
    """Sum-to-one, range, support, and derivative-bound certificates, on
    the points of the lattice ``grid``, whose pairs come from its per-axis
    intervals.  The certificates that read ``grid`` record ``stride``, the
    one ``Lattice.thinned`` sampled it at."""
    fam = cover.family.name
    n = cover.level
    d = cover.dimension
    certs: list[Certificate] = []

    # One table of the partials |alpha| <= alpha_max at every (grid point,
    # function) pair serves the sum, range and derivative passes; its
    # order-0 entry is the value.
    # The derivative pass takes max |partial| over each function's pairs,
    # the grid points in its closed support.
    alphas = indices_up_to_order(d, alpha_max)
    half = partition.half
    peaks = np.zeros((len(partition), len(alphas)))
    seen = np.zeros(len(partition), dtype=bool)
    sums = np.zeros(len(grid.points))
    below, top = 0.0, None
    for block, inc in incidences(partition, grid, alphas):
        tables = inc.partials()
        vals = tables[(0,) * d]
        # bincount adds each point's values in step order, i.e. function
        # order
        sums[block] = np.bincount(inc.rows, weights=vals, minlength=len(inc.pts))
        if len(vals):
            below = min(below, float(vals.min()))
            top = float(vals.max()) if top is None else max(top, float(vals.max()))
        order = np.argsort(inc.fns, kind="stable")
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

    ring_mask = cover.domain.ring(n).contains(grid.points)
    worst_sum = float(np.abs(sums[ring_mask] - 1.0).max()) if ring_mask.any() else 0.0
    certs.append(Certificate(
        name=f"partition_sum[{fam},n={n}]",
        claim="partition.sum_to_one",
        verdict=PASS if worst_sum <= sum_tol else FAIL,
        measured=worst_sum, bound=sum_tol, slack=sum_tol - worst_sum,
        resolutions={"ring_points": int(ring_mask.sum()),
                     "grid_points": int(len(sums)), "stride": stride},
    ))

    range_ok = below >= -tol and above <= tol
    certs.append(Certificate(
        name=f"partition_range[{fam},n={n}]",
        claim="partition.range",
        verdict=PASS if range_ok else FAIL,
        measured=max(-below, above), bound=tol, resolutions={"stride": stride},
        details={"min_value": below, "max_excess": above},
    ))

    # Support: the profile support must sit strictly inside the ball, and
    # evaluation at sup-norm distance >= rho must give exactly zero.  The
    # engine reads a function only inside its own cutoff's support, so the
    # probes evaluate the cutoff itself: psi = phi * P vanishes where phi
    # does.  The first function that fails either test is the witness.
    eye = np.eye(d)
    dirs = np.vstack([eye, -eye, np.ones((1, d))])
    centers = cover.centers[:, None, :]
    rho = cover.rho[:, None, None]
    probes = np.concatenate([centers + rho * dirs, centers + 1.5 * rho * dirs],
                            axis=1)
    vals = cutoff_values(partition, probes.reshape(-1, d),
                         np.repeat(np.arange(len(partition)), probes.shape[1])
                         ).reshape(probes.shape[:2])
    wide = ~(half < cover.rho)
    bad = np.flatnonzero(functools.reduce(np.logical_or, (vals != 0.0).T, wide))
    witness = None
    if len(bad):
        j = int(bad[0])
        if wide[j]:
            witness = {"center": j, "support_halfwidth": float(half[j])}
        else:
            witness = {"center": j, "nonzero_outside": float(vals[j].max())}
    certs.append(Certificate(
        name=f"partition_support[{fam},n={n}]",
        claim="partition.support_in_ball",
        verdict=PASS if witness is None else FAIL,
        details=witness or {"note": "support strictly inside every ball"},
    ))

    worst_ratio = 0.0
    tight = None
    r3 = cover.oracle.values(3, cover.centers)
    read = np.flatnonzero(seen).tolist()
    consts = [derivative_constant(alpha, d, partition.weights)
              for alpha in alphas] if read else []
    for k in read:
        for j, alpha in enumerate(alphas):
            if sum(alpha) == 0:
                bound = (1.0 / r3[k]) ** d
            else:
                bound = consts[j] * (1.0 / r3[k]) ** (d + sum(alpha))
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
        resolutions={"grid_points": sums.size, "alpha_max": alpha_max, "stride": stride},
        details=tight or {},
    ))
    return certs
