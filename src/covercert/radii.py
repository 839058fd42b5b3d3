"""Iterated radius functions and their positivity certificates.

A ``RadiusOracle`` answers for one family at one ring level, and owns the
ring lattice of its resolution over the truncation box: a closed-form
(constant) radius reads its constant at every lattice point and depth,
and a grid oracle builds one level of that lattice per depth.

The depth-k radius at a point is the infimum of the depth-(k-1) radius over
all ring points within one radius step (of either endpoint).  On a lattice
this infimum is replaced by a minimum over qualifying lattice points plus
the query point itself, which makes the sampled value an upper bound of the
true infimum and monotone in the depth by construction.

A lattice point y qualifies for a ring cell x when ``|y - x|_inf <= r0(x)``
or ``<= r0(y)``, among the points within ``ceil(max r0 / resolution)``
cells of x on every axis.  Both conditions are products of per-axis ones,
so a level is built from separable box minima rather than a window scan
per cell:

* On one axis the lattice indices within r of a coordinate form one
  interval.  Each end starts where the coordinate -+ r sorts into the axis
  (``searchsorted``) and steps until the test on the float gap flips, so
  a radius that ties a gap resolves exactly as the direct comparison
  ``|y - x| <= r`` does.  A cell's box is that interval per axis, cut to
  the window and to the lattice; past the edge nothing is read.
* An interval of n cells is the union of its first and its last w cells,
  for the power of two with ``w <= n < 2w``.  A box is thus the union of
  2^d boxes of ``w_1 x ... x w_d`` cells at known corners, and each axis
  uses only a few widths.
* Own radius: one stacked table of the previous level's box minima at
  every width in use (a sparse table, Bender and Farach-Colton, LATIN
  2000), built axis by axis in one pass of doubling steps, and read at
  each cell's 2^d corners.
* Neighbour's radius: each cell writes its previous value at its 2^d
  corners of one stacked array, indexed by width rank per axis.  Folding
  each axis from its widest width down (the trailing window doubles, then
  the next width's slice merges in) gives what every cell receives.

A minimum rounds nothing, so every level is bitwise the direct scan's.

A point z off the lattice takes the minimum of ``r0(z)`` and the previous
level over the cells that qualify for it (the same window, clipped to the
lattice).  Every ring cell qualifies for itself, so levels fall pointwise
with depth, and this one minimum equals the depth-by-depth recursion
through all lower depths.  The two conditions are searched apart, and
neither scans the window:

* Own radius: per axis the window cells within r0(z) of z form one
  interval, found as above, and the boxes are read from a table of the
  previous level as the levels are; an empty interval on any axis reads
  ``+inf``.
* Neighbour's radius: only a ring cell whose previous value lies below
  the own-radius minimum can lower it.  Sorted by that value once per
  query, such cells are a prefix of the ring for each point, and only
  those (point, cell) pairs are tested, with the window and both distance
  conditions.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .domains import Box, ExhaustionDomain, Lattice
from .errors import NoRingPointsError, RefinementRequiredError
from .report import FAIL, NOT_CERTIFIED, PASS, Certificate
from .weights import WeightFamily

__all__ = ["RadiusOracle", "positivity_certificate"]

CLOSED_FORM = "closed_form_constant"
GRID_ORACLE = "grid_oracle"

# (point, cell) candidate pairs tested at once by an off-lattice query:
# 256 KB per temporary array.
_QUERY_PAIRS = 1 << 15


def _plan_boxes(lo: np.ndarray, hi: np.ndarray, shape):
    """For the boxes ``lo[a] <= t_a <= hi[a]`` (arrays of shape (d, n), none
    empty, on a lattice of ``shape``): per axis the ascending powers of two
    w in use, ``w <= hi - lo + 1 < 2w``, and per choice of 2^d corners the
    flat index into a table of shape (widths per axis..., *shape) of each
    box's width ranks and that corner's start cells."""
    log_widths = np.frexp(hi - lo + 1)[1] - 1
    widths, ranks, starts = [], [], []
    for first, last, logs in zip(lo, hi, log_widths):
        used, rank = np.unique(logs, return_inverse=True)
        widths.append([1 << int(v) for v in used])
        ranks.append(rank)
        starts.append((first, last + 1 - (1 << used)[rank]))
    table_shape = tuple(map(len, widths)) + tuple(shape)
    return widths, [np.ravel_multi_index(
        (*ranks, *(s[c] for s, c in zip(starts, choice))), table_shape)
        for choice in np.ndindex(*(2,) * len(widths))]


def _least_in_boxes(a: np.ndarray, widths, corners) -> np.ndarray:
    """Per box of a plan from :func:`_plan_boxes`, the minimum of ``a`` over
    it.  Per axis, one pass of doubling steps over the table so far copies
    it into a preallocated slot at each width in use; a window that would
    run past the far edge keeps its value, and no box reads one."""
    table = a
    for axis, used in enumerate(widths):
        out = np.empty(table.shape[:axis] + (len(used),) + table.shape[axis:])
        src, width = table, 1
        for slot, w in zip(np.moveaxis(out, axis, 0), used):
            slot[...] = src
            run = np.moveaxis(slot, 2 * axis, 0)
            while width < w:
                np.minimum(run[:-width], run[width:], out=run[:-width])
                width *= 2
            src = slot
        table = out
    flat = table.reshape(-1)
    return functools.reduce(np.minimum, (flat[corner] for corner in corners))


def _spread_least(values: np.ndarray, widths, corners, shape) -> np.ndarray:
    """Per cell of ``shape``, the least of ``values`` over the boxes of a
    plan from :func:`_plan_boxes` that hold it (``+inf`` where none does):
    a scatter at the corners, then one fold per axis."""
    sent = np.full(tuple(map(len, widths)) + tuple(shape), np.inf)
    flat = sent.reshape(-1)
    for corner in corners:
        np.minimum.at(flat, corner, values)
    for axis, used in reversed(list(enumerate(widths))):
        stack = np.moveaxis(sent, axis, 0)
        sent = stack[-1]
        run = np.moveaxis(sent, 2 * axis, 0)
        step = used[-1]
        for rank in reversed(range(len(used))):
            if rank < len(used) - 1:
                np.minimum(sent, stack[rank], out=sent)
            while step > (used[rank - 1] if rank else 1):
                step //= 2
                np.minimum(run[step:], run[:-step], out=run[step:])
    return sent.copy()      # not a view that keeps the whole stack alive


class RadiusOracle:
    """Evaluator for the iterated radii of one family at one ring level.

    The oracle owns the ring lattice of its resolution over the truncation
    box (``lattice``): the cover takes its candidates from it and the
    radius chain is checked on it.  Constant radii take an exact
    closed-form path, which reads the constant at every point and depth
    and builds the lattice only when it is asked for.  Otherwise values
    are taken on the lattice, one level per depth, built on first use;
    queries off the lattice take the minimum over the qualifying cells of
    the level below.
    """

    def __init__(self, family: WeightFamily, domain: ExhaustionDomain,
                 n: int, resolution: float, box: Box | None = None):
        self.family = family
        self.domain = domain
        self.n = n
        self.resolution = float(resolution)

        self._constant = family.radius_constant(n)
        if self._constant is not None:
            self.strategy = CLOSED_FORM
            self.box = box
            return

        self.strategy = GRID_ORACLE
        self.box = domain.truncated_ring_box(n, box)
        lattice = self.lattice
        self._axes, self._shape = lattice.axes, tuple(lattice.shape[0].tolist())
        self._inside = lattice.inside.reshape(self._shape)

        r0 = np.full(self._shape, np.inf)
        r0[self._inside] = family.radius(n, lattice.points)
        self._r0_pred = np.where(self._inside, r0, -np.inf)
        min_r0 = float(r0[self._inside].min())
        if self.resolution > min_r0:
            raise RefinementRequiredError(
                f"resolution {self.resolution} exceeds the smallest sampled "
                f"radius {min_r0}; the qualification predicate is undersampled")
        self._reach = float(r0[self._inside].max())
        self._cells = int(math.ceil(self._reach / self.resolution + 1e-12))
        self._levels: dict[int, np.ndarray] = {0: r0}
        self._plan = None

    # -- lattice access -----------------------------------------------------

    @functools.cached_property
    def lattice(self) -> Lattice:
        """The ring lattice of the oracle's resolution over the truncation
        box clipped to the ring (built on first use by a closed-form
        oracle)."""
        lattice = self.domain.ring_lattice(
            self.n, self.resolution,
            self.domain.truncated_ring_box(self.n, self.box))
        if len(lattice.points) == 0:
            raise NoRingPointsError("the truncation box contains no ring points")
        return lattice

    def lattice_points(self) -> np.ndarray:
        """Ring lattice points in lexicographic order."""
        return self.lattice.points

    def lattice_values(self, k: int) -> np.ndarray:
        """Depth-k values matching :meth:`lattice_points` order."""
        if self.strategy == CLOSED_FORM:
            return np.full(len(self.lattice.points), float(self._constant))
        return self._level(k)[self._inside]

    def min_value(self, k: int) -> float:
        if self.strategy == CLOSED_FORM:
            return float(self._constant)
        return float(self.lattice_values(k).min())

    # -- evaluation ---------------------------------------------------------

    def values(self, k: int, pts) -> np.ndarray:
        """Depth-k radii at ring points, one per row of ``pts`` (sampled
        upper bounds of the infima).

        A point within 1e-9 of a step of a ring lattice point on every axis
        reads that point's level; any other point takes the off-lattice
        minimum described in the module docstring.
        """
        pts = self.domain.require_in_ring(self.n, pts)
        if k < 0:
            raise ValueError("depth must be >= 0")
        if self.strategy == CLOSED_FORM:
            return np.full(len(pts), float(self._constant))
        if k == 0:
            return np.asarray(self.family.radius(self.n, pts), dtype=float)

        pos = (pts - self.box.lower) / self.resolution
        near = np.rint(pos)
        on_lattice = functools.reduce(np.logical_and, [
            (at >= 0) & (at < m) for at, m in zip(near.T, self._shape)])
        idx = np.where(on_lattice[:, None], near, 0).astype(np.intp)
        on_lattice &= self._inside[tuple(idx.T)]
        for at, step in zip(near.T, pos.T):
            on_lattice &= np.abs(step - at) <= 1e-9
        out = np.empty(len(pts))
        out[on_lattice] = self._level(k)[tuple(idx[on_lattice].T)]
        off = ~on_lattice
        if off.any():
            z = pts[off]
            r0 = np.asarray(self.family.radius(self.n, z), dtype=float)
            out[off] = self._off_lattice(k - 1, z, r0)
        return out

    def value(self, k: int, z) -> float:
        """Depth-k radius at one ring point; see :meth:`values`."""
        return float(self.values(k, np.asarray(z, dtype=float).reshape(-1))[0])

    # -- internals ----------------------------------------------------------

    def _off_lattice(self, k: int, pts: np.ndarray, r0: np.ndarray) -> np.ndarray:
        """``min(r0(z), level k over the lattice cells that qualify for z)``.

        A cell qualifies when it lies within ``ceil(max(reach, r0(z)) /
        resolution)`` cells of z's nearest index on every axis (its window)
        and ``|y - z|_inf <= r0(z)`` or ``<= r0(y)``; see the module
        docstring for how each condition is searched.
        """
        level = self._level(k)
        near = np.rint((pts - self.box.lower) / self.resolution)
        cells = np.ceil(np.maximum(self._reach, r0) / self.resolution + 1e-12)
        # own radius: per axis, one interval of the window, read as a box
        # minimum of the level
        lo, hi = [], []
        for first, stop, m, c in zip(*self.lattice.boxes(pts, r0, strict=False),
                                     self._shape, near.T):
            lo.append(np.clip(np.maximum(first, c - cells), 0, m).astype(np.intp))
            hi.append(np.clip(np.minimum(stop - 1, c + cells), -1, m - 1)
                      .astype(np.intp))
        lo, hi = np.array(lo), np.array(hi)
        own = np.full(len(pts), np.inf)
        hit = np.flatnonzero((lo <= hi).all(axis=0))
        own[hit] = _least_in_boxes(
            level, *_plan_boxes(lo[:, hit], hi[:, hit], self._shape))
        out = np.minimum(r0, own)
        # neighbour's radius: only ring cells below the current value can
        # lower it, and those are a prefix of the cells in level order
        ring = np.flatnonzero(self._inside)
        order = np.argsort(level.ravel()[ring], kind="stable")
        ring = ring[order]
        ring_levels = level.ravel()[ring]
        ring_r0 = self._r0_pred.ravel()[ring]
        count = np.searchsorted(ring_levels, out)
        ends = np.cumsum(count)
        total = int(ends[-1]) if len(ends) else 0
        for lo_pair in range(0, total, _QUERY_PAIRS):
            pair = np.arange(lo_pair, min(lo_pair + _QUERY_PAIRS, total))
            row = np.searchsorted(ends, pair, side="right")
            rank = pair - ends[row] + count[row]
            idx = np.unravel_index(ring[rank], self._shape)
            dist = np.zeros(len(pair))
            inside = np.ones(len(pair), dtype=bool)
            for axis, t, c, at in zip(self._axes, idx, near.T, pts.T):
                inside &= np.abs(t - c[row]) <= cells[row]
                np.maximum(dist, np.abs(axis[t] - at[row]), out=dist)
            qualify = inside & ((dist <= ring_r0[rank]) | (dist <= r0[row]))
            np.minimum.at(out, row[qualify], ring_levels[rank[qualify]])
        return out

    def _window_plan(self):
        """``(cells, widths, corners)``: the flat indices of the ring cells
        and the :func:`_plan_boxes` plan of their boxes, per axis the cells
        within the cell's own radius, cut to ``self._cells`` cells of it."""
        if self._plan is None:
            cells = np.flatnonzero(self._inside)
            r = self._levels[0].ravel()[cells]
            lo, hi = [], []
            for first, stop, at in zip(
                    *self.lattice.boxes(self.lattice.points, r, strict=False),
                    np.unravel_index(cells, self._shape)):
                lo.append(np.maximum(first, at - self._cells))
                hi.append(np.minimum(stop - 1, at + self._cells))
            self._plan = (cells, *_plan_boxes(np.array(lo), np.array(hi),
                                              self._shape))
        return self._plan

    def _level(self, k: int) -> np.ndarray:
        if k in self._levels:
            return self._levels[k]
        prev = self._level(k - 1)
        cells, widths, corners = self._window_plan()
        # own radius: the minimum over each cell's box
        own = _least_in_boxes(prev, widths, corners)
        # neighbour's radius: every cell whose box holds this one
        out = _spread_least(prev.ravel()[cells], widths, corners,
                            self._shape).ravel()
        out[cells] = np.minimum(out[cells], own)
        out[~self._inside.ravel()] = np.inf
        out = out.reshape(self._shape)
        self._levels[k] = out
        return out


def positivity_certificate(family: WeightFamily, domain: ExhaustionDomain,
                           n: int, k_max: int, resolution: float,
                           box: Box | None = None,
                           oracle: RadiusOracle | None = None) -> Certificate:
    """Minimum sampled radius for each depth up to ``k_max``.

    A family without a structural positivity tag gets the verdict
    ``not-certified`` rather than a failure.
    """
    oracle = oracle or RadiusOracle(family, domain, n, resolution, box=box)
    minima = {k: oracle.min_value(k) for k in range(k_max + 1)}
    all_positive = all(v > 0.0 for v in minima.values())
    if family.s_condition == "none":
        verdict = NOT_CERTIFIED
    else:
        verdict = PASS if all_positive else FAIL
    return Certificate(
        name=f"radius_positivity[{family.name},n={n},k<={k_max}]",
        claim="radii.positive",
        verdict=verdict,
        measured=min(minima.values()),
        bound=0.0,
        constants={"s_condition": family.s_condition,
                   "strategy": oracle.strategy},
        resolutions={"resolution": oracle.resolution,
                     "grid_snap": getattr(oracle, "box", None) and
                     list(oracle.box.lower)},
        details={"minima_by_depth": {str(k): v for k, v in minima.items()}},
    )
