"""Domains, exhausting families, and sup-norm geometric queries.

A domain is an open set together with an increasing family of nonempty
sets (its "rings") whose union is the whole domain.  All distances here
are taken in the sup norm, with the convention that the distance to an
empty boundary is infinite.

A ``Lattice`` is a stack of masked tensor grids: the check lattice of a
ring is a stack of one grid, and the per-ball readers read one grid per
ball.  A sup-norm ball is one index interval per axis of a grid, and
one interval search finds them on every grid of a stack at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainMembershipError, NoRingPointsError

__all__ = [
    "Box",
    "Region",
    "FullSpace",
    "BoxRegion",
    "DistanceRegion",
    "ExhaustionDomain",
    "full_space",
    "expanding_boxes",
    "shrinking_boxes",
    "constant_exhaustion",
    "exhaustion_gap",
    "GapEstimate",
    "cell_axes",
    "cell_lattice",
    "lattice_axes",
    "mesh_points",
    "Lattice",
]

INF = math.inf


def _as_points(x, dim: int) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        if pts.shape[0] != dim:
            raise ValueError(f"point has dimension {pts.shape[0]}, expected {dim}")
        return pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"expected points of shape (N, {dim}), got {pts.shape}")
    return pts


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, possibly unbounded on some axes."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("lower/upper dimension mismatch")
        for lo, hi in zip(self.lower, self.upper):
            if not lo < hi:
                raise ValueError(f"degenerate box axis [{lo}, {hi}]")

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @property
    def is_bounded(self) -> bool:
        return all(math.isfinite(lo) and math.isfinite(hi)
                   for lo, hi in zip(self.lower, self.upper))

    def contains(self, x, closed: bool = False) -> np.ndarray:
        pts = _as_points(x, self.dimension)
        return functools.reduce(np.logical_and, [
            (at >= lo) & (at <= hi) if closed else (at > lo) & (at < hi)
            for at, lo, hi in zip(pts.T, self.lower, self.upper)])

    def intersect(self, other: "Box") -> "Box":
        lo = tuple(max(a, b) for a, b in zip(self.lower, other.lower))
        hi = tuple(min(a, b) for a, b in zip(self.upper, other.upper))
        return Box(lo, hi)


def mesh_points(axes) -> np.ndarray:
    """Tensor grid of the given per-axis coordinates, lexicographic, (N, d)."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def lattice_axes(box: Box, resolution: float) -> list[np.ndarray]:
    """Per-axis lattice ``lower + i * resolution`` up to the upper face.

    The upper endpoint is included when it lands on the lattice.
    """
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    if not box.is_bounded:
        raise ValueError("a lattice requires a bounded box (supply a truncation box)")
    axes = []
    for lo, hi in zip(box.lower, box.upper):
        count = int(math.floor((hi - lo) / resolution + 1e-12)) + 1
        axes.append(lo + resolution * np.arange(count))
    return axes


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(s, s + c)`` over ``starts`` and
    ``counts``."""
    return (np.repeat(starts - np.cumsum(counts) + counts, counts)
            + np.arange(counts.sum()))


def _box_cells(shape, first: np.ndarray, stop: np.ndarray):
    """Every cell of the boxes ``first <= t < stop`` (one row per axis, one
    column per box) on grids of ``shape[a][j]`` cells on axis a for box j,
    box by box and in C order within each: its flat index in its grid, and
    its box.  Each box is enumerated one axis at a time: every cell of the
    axes so far is followed by the box's interval on the next axis."""
    boxes = np.arange(first.shape[1])
    cell = np.zeros(len(boxes), dtype=np.int64)
    for n, lo, hi in zip(shape, first, stop):
        width = (hi - lo)[boxes]
        cell = _ranges(cell * n[boxes] + lo[boxes], width)
        boxes = np.repeat(boxes, width)
    return cell, boxes


def _interval_within(keys: np.ndarray, start: np.ndarray, size: np.ndarray,
                     z: np.ndarray, r: np.ndarray, strict: bool = False):
    """Per query j, the first and the last index t of its grid (the
    ``size[j]`` entries of ``keys`` from ``start[j]``, counted from there)
    with ``|axis[t] - z| <= r``, or ``< r`` when ``strict`` (first > last
    where there is none).

    ``keys`` is one sorted axis, searched with float queries, or a stack
    of sorted axes as complex numbers: the start of each coordinate's grid
    plus i times the coordinate.  numpy orders complex numbers by real
    part, then imaginary part, so one ``searchsorted`` finds each query in
    its own grid.  Float subtraction is monotone, so ``axis[t] - z``
    ascends with t, and ``-r <= axis[t] - z <= r``, which is exactly
    ``|axis[t] - z| <= r``, holds on one interval (and so do the strict
    inequalities).  Each end starts where ``z -+ r`` sorts into the grid
    and steps until the test on the gap flips; where ``z -+ r`` is NaN,
    the test at the grid's first index decides all t.
    """
    tests = (np.less_equal, np.less) if strict else (np.less, np.less_equal)
    stacked = keys.dtype.kind == "c"
    axis, stop, ends = keys.imag if stacked else keys, start + size, []
    if stacked:
        query = np.empty(len(z), dtype=complex)
        query.real = start      # set apart: 1j * inf is nan+infj
    for test, bound in zip(tests, (-r, r)):
        # the end of the leading t of the grid with test(axis[t] - z, bound)
        with np.errstate(invalid="ignore"):     # inf - inf
            key = z + bound
        if stacked:
            query.imag = key
        end = np.minimum(np.searchsorted(keys, query if stacked else key),
                         stop)
        nan = np.flatnonzero(np.isnan(key))
        if len(nan):
            nan = nan[size[nan] > 0]
            end[nan] = start[nan] + size[nan] * test(axis[start[nan]] - z[nan],
                                                     bound[nan])
        at = np.flatnonzero(end < stop)
        while len(at):
            at = at[test(axis[end[at]] - z[at], bound[at])]
            end[at] += 1
            at = at[end[at] < stop[at]]
        at = np.flatnonzero(end > start)
        while len(at):
            at = at[~test(axis[end[at] - 1] - z[at], bound[at])]
            end[at] -= 1
            at = at[end[at] > start[at]]
        ends.append(end - start)
    return ends[0], ends[1] - 1


@dataclass(frozen=True, eq=False)
class Lattice:
    """A stack of tensor grids, masked to the cells ``inside`` a region.

    ``axes[a]`` holds every grid's sorted coordinates on axis a, grid after
    grid, and ``shape[g, a]`` is how many of them grid g has.  ``inside``
    flags every cell, grid by grid and in C order within each, and
    ``points`` and :meth:`count` list the cells inside in that order
    (formed from the axes unless given).  The check lattice is a stack of
    one grid; the per-ball readers read a stack of one grid per ball.
    """

    axes: tuple[np.ndarray, ...]
    shape: np.ndarray
    inside: np.ndarray
    points: np.ndarray | None = None

    def __post_init__(self):
        if self.points is None:
            grid = np.arange(len(self.shape))
            at = []
            for start, n in zip(self.starts, self.shape.T):
                n = n[grid]
                at = [np.repeat(i, n) for i in at] + [_ranges(start[grid], n)]
                grid = np.repeat(grid, n)
            object.__setattr__(self, "points", np.stack(
                [axis[i[self.inside]] for axis, i in zip(self.axes, at)], axis=1))

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def stack(cls, grids, inside=None) -> Lattice:
        """The stack of the grids given as lists of per-axis coordinates,
        masked to the flags ``inside`` (one per cell) if given."""
        grids = [[np.asarray(axis, dtype=float) for axis in grid]
                 for grid in grids]
        shape = np.array([[len(axis) for axis in grid] for grid in grids],
                         dtype=np.int64)
        if inside is None:
            inside = np.ones(int(np.prod(shape, axis=1).sum()), dtype=bool)
        return cls(tuple(np.concatenate(axes) for axes in zip(*grids)), shape,
                   np.ravel(inside))

    @classmethod
    def of(cls, axes, region: Region | None = None) -> Lattice:
        """The one-grid lattice of ``axes``, masked to ``region`` if one is
        given."""
        flat = mesh_points(axes)
        keep = np.ones(len(flat), bool) if region is None else region.contains(flat)
        return cls(tuple(axes), np.array([[len(a) for a in axes]]), keep, flat[keep])

    @classmethod
    def linspace(cls, centers: np.ndarray, half, count: int) -> Lattice:
        """Box by box (rows z of ``centers``, h of ``half``), the grid of
        ``np.linspace(z - h, z + h, count)`` per axis."""
        half = np.asarray(half, dtype=float)[:, None]
        axes = np.linspace(centers - half, centers + half, count, axis=-1)
        return cls(tuple(axes[:, a].ravel() for a in range(centers.shape[1])),
                   np.full(centers.shape, count, dtype=np.int64),
                   np.ones(len(centers) * count ** centers.shape[1], dtype=bool))

    @functools.cached_property
    def starts(self) -> np.ndarray:
        """Per axis (rows) and grid (columns), where the grid's coordinates
        start in ``axes``."""
        return (np.cumsum(self.shape, axis=0) - self.shape).T

    @functools.cached_property
    def sizes(self) -> np.ndarray:
        """The number of cells of each grid."""
        return np.prod(self.shape, axis=1)

    @functools.cached_property
    def _rank(self) -> np.ndarray | None:
        """Per cell, the point it is, or -1 outside the mask; None when
        every cell is inside, as each cell is then its own point."""
        if self.inside.all():
            return None
        rank = np.full(len(self.inside), -1, dtype=np.int64)
        rank[self.inside] = np.arange(len(self.points))
        return rank

    @property
    def _keys(self) -> list[np.ndarray]:
        """Per axis, the keys of :func:`_interval_within`: a one-grid
        lattice's own axes, or a stack's complex keys, built for each
        search (a stack is searched once per reading) and not kept."""
        if len(self.shape) == 1:
            return list(self.axes)
        keys = []
        for axis, start, n in zip(self.axes, self.starts, self.shape.T):
            key = np.empty(len(axis), dtype=complex)
            key.real = np.repeat(start, n)
            key.imag = axis
            keys.append(key)
        return keys

    def thinned(self, cap: int) -> tuple[Lattice, int]:
        """The sub-lattice of every s-th index per axis from the first
        occupied one, under the mask of this one-grid lattice cropped to
        the bounding index box of the cells inside, for the least stride s
        that leaves from 1 to ``cap`` points (they do not nest, so a stride
        may leave none), and s; its points are this lattice's own, in
        order.  ``NoRingPointsError`` if no stride fits."""
        if cap < 1:
            raise ValueError("a sample cap must be at least 1")
        inside = self.inside.reshape(self.shape[0])
        held = np.nonzero(inside)
        crop = tuple(slice(int(at.min()), int(at.max()) + 1) if len(at)
                     else slice(0) for at in held)
        rank = (np.cumsum(inside) - 1).reshape(inside.shape)[crop]
        inside = inside[crop]
        # from the longest axis' length on, a stride keeps the first cell
        for stride in range(1, max(inside.shape, default=0) + 1):
            step = (slice(None, None, stride),) * len(self.axes)
            if 0 < np.count_nonzero(inside[step]) <= cap:
                return Lattice(tuple(axis[cut][::stride]
                                     for axis, cut in zip(self.axes, crop)),
                               np.array([inside[step].shape]),
                               inside[step].ravel(),
                               self.points[rank[step][inside[step]]]), stride
        raise NoRingPointsError(f"no stride leaves from 1 to {cap} points of "
                                "the lattice")

    def boxes(self, centers: np.ndarray, reach: np.ndarray, strict=True,
              grid=None):
        """Per axis (rows) and center (columns), the index interval ``first
        <= t < stop`` (maybe empty) of the cells of grid ``grid[k]`` (grid 0
        if not given) with ``|axis[t] - z_k| < reach[k]`` (``<=`` unless
        ``strict``): the open (closed) sup-norm balls, decided on the float
        gaps."""
        centers = np.asarray(centers, dtype=float)
        reach = np.broadcast_to(np.asarray(reach, float), len(centers))
        if grid is None:
            grid = np.zeros(len(centers), dtype=np.int64)
        spans = [_interval_within(keys, start[grid], n[grid], z, reach, strict)
                 for keys, start, n, z
                 in zip(self._keys, self.starts, self.shape.T, centers.T)]
        return (np.stack([f for f, _ in spans]),
                np.stack([np.maximum(f, t + 1) for f, t in spans]))

    def cells(self, first: np.ndarray, stop: np.ndarray, grid=None):
        """Every cell of the boxes ``first <= t < stop`` of grids ``grid``
        (grid 0 if not given; as :meth:`boxes` gives them), box by box and
        in C order within each, as ``(rows, boxes)``: the point each cell
        is (-1 outside the mask), and its box."""
        if grid is None:
            grid = np.zeros(first.shape[1], dtype=np.int64)
        cell, boxes = _box_cells(self.shape[grid].T, first, stop)
        cell += (np.cumsum(self.sizes) - self.sizes)[grid][boxes]
        return (cell if self._rank is None else self._rank[cell]), boxes

    def pairs(self, first: np.ndarray, stop: np.ndarray, grid=None):
        """Every pair (i, j) of a point inside and a box that holds it, of
        the boxes as :meth:`cells` reads them, as ``(rows, boxes)`` in
        lexicographic (i, j) order."""
        rows, boxes = self.cells(first, stop, grid)
        if self._rank is not None:
            held = rows >= 0
            rows, boxes = rows[held], boxes[held]
        # box by box, each box's rows ascend: a stable sort by row keeps
        # every row's boxes ascending too
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        return rows, boxes[order]

    def slabs(self, grid: np.ndarray, first: np.ndarray, stop: np.ndarray,
              budget: int):
        """``(cells, block, at, first, stop)`` for consecutive slabs of the
        stack's first axis, grid after grid: ``cells`` is the slice of
        ``axes[0]`` the slab spans, ``block`` the slice of ``points`` it
        holds, ``at`` the boxes (of grids ``grid``, as :meth:`boxes` gives
        them) that meet it, and ``first`` and ``stop`` those boxes cut to
        it.  A slab holds at most ``budget`` box cells, or is one
        first-axis cell.  There is always at least one slab.

        Nothing is held per first-axis cell: the box cells before
        first-axis cell c are a piecewise linear function of c that bends
        only at the boxes' ends, so each slab's end is found among the
        bends, and each slab's points are counted from its cells."""
        offset = self.starts[0][grid]
        lo, hi = offset + first[0], offset + stop[0]
        cells = len(self.axes[0])
        # piece i starts at first-axis cell bend[i], with slope[i] box cells
        # per first-axis cell and before[i] box cells before it (a repeated
        # bend starts empty pieces, which no search ends in)
        volume = np.prod(stop[1:] - first[1:], axis=0)
        bend = np.sort(np.r_[0, lo, hi, cells])
        slope = np.zeros(len(bend), dtype=np.int64)
        np.add.at(slope, np.searchsorted(bend, lo), volume)
        np.add.at(slope, np.searchsorted(bend, hi), -volume)
        slope = np.cumsum(slope)
        before = np.r_[0, np.cumsum(slope[:-1] * np.diff(bend))]
        # where each grid's cells and first-axis cells end, and the cells
        # of each of its first-axis cells
        ends = np.cumsum(self.sizes)
        ends0 = np.cumsum(self.shape[:, 0])
        width = np.prod(self.shape[:, 1:], axis=1)

        def flat(c: int) -> int:
            """The cell where first-axis cell c starts."""
            g = int(np.searchsorted(ends0, c, "right"))
            if g == len(ends0):
                return len(self.inside)
            return int(ends[g] - (ends0[g] - c) * width[g])

        start = point = 0
        while True:
            i = int(np.searchsorted(bend, start, "right")) - 1
            target = before[i] + slope[i] * (start - bend[i]) + budget
            # the last first-axis cell with at most target box cells before
            i = int(np.searchsorted(before, target, "right")) - 1
            end = (cells if i == len(bend) - 1 else
                   int(bend[i] + (target - before[i]) // slope[i]))
            end = min(max(end, start + 1), cells)
            at = np.flatnonzero((lo < end) & (hi > start))
            cut_first, cut_stop = first[:, at], stop[:, at]
            cut_first[0] = np.maximum(lo[at], start) - offset[at]
            cut_stop[0] = np.minimum(hi[at], end) - offset[at]
            held = point + int(np.count_nonzero(
                self.inside[flat(start):flat(end)]))
            yield (slice(start, end), slice(point, held), at, cut_first,
                   cut_stop)
            start, point = end, held
            if start >= cells:
                return

    def count(self, centers: np.ndarray, reach: np.ndarray) -> np.ndarray:
        """Per cell inside this one-grid lattice, how many open balls ``|x -
        z_k|_inf < reach[k]`` hold it."""
        return self.count_boxes(*self.boxes(centers, reach))

    def count_boxes(self, first: np.ndarray, stop: np.ndarray) -> np.ndarray:
        """Per cell inside this one-grid lattice, how many of the boxes
        ``first <= t < stop`` (as :meth:`boxes` gives them) hold it: +-1 at
        each box's 2^d corners of a difference array, then one cumulative
        sum per axis (Crow, "Summed-area tables for texture mapping",
        SIGGRAPH 1984)."""
        diff = np.zeros([len(axis) + 1 for axis in self.axes], dtype=np.intp)
        for corner in np.ndindex(*(2,) * len(self.axes)):
            at = tuple((stop if up else first)[a] for a, up in enumerate(corner))
            np.add.at(diff, at, (-1) ** sum(corner))
        for a in range(diff.ndim):
            np.cumsum(diff, axis=a, out=diff)
        return diff[tuple(slice(-1) for _ in self.axes)].reshape(-1)[self.inside]


def cell_axes(box: Box, resolution: float) -> list[np.ndarray]:
    """Midpoints of the cells of side ``resolution`` cornered at
    :func:`lattice_axes`, strictly below the upper face on every axis."""
    axes = [axis + resolution / 2.0 for axis in lattice_axes(box, resolution)]
    return [axis[axis < hi] for axis, hi in zip(axes, box.upper)]


def cell_lattice(box: Box, resolution: float) -> Lattice:
    """The lattice of :func:`cell_axes`."""
    return Lattice.of(cell_axes(box, resolution))


class Region:
    """Base interface: membership, bounding box, and sup-norm boundary distance."""

    dimension: int

    def contains(self, x) -> np.ndarray:
        raise NotImplementedError

    @property
    def bounding_box(self) -> Box:
        raise NotImplementedError

    @property
    def has_boundary(self) -> bool:
        raise NotImplementedError

    @property
    def is_closed(self) -> bool:
        return False

    @property
    def is_bounded(self) -> bool:
        return self.bounding_box.is_bounded

    def boundary_distance(self, x) -> np.ndarray:
        raise NotImplementedError


class FullSpace(Region):
    """All of d-dimensional space; the boundary is empty."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be a positive integer")
        self.dimension = dimension

    def contains(self, x) -> np.ndarray:
        pts = _as_points(x, self.dimension)
        return np.ones(len(pts), dtype=bool)

    @property
    def bounding_box(self) -> Box:
        d = self.dimension
        return Box((-INF,) * d, (INF,) * d)

    @property
    def has_boundary(self) -> bool:
        return False

    @property
    def is_closed(self) -> bool:
        return True

    def boundary_distance(self, x) -> np.ndarray:
        pts = _as_points(x, self.dimension)
        return np.full(len(pts), INF)

    def __repr__(self):
        return f"FullSpace(d={self.dimension})"


class BoxRegion(Region):
    """An open (or closed) axis box; slabs arise from infinite bounds."""

    def __init__(self, box: Box, closed: bool = False):
        self.box = box
        self.closed = closed
        self.dimension = box.dimension

    def contains(self, x) -> np.ndarray:
        return self.box.contains(x, closed=self.closed)

    @property
    def bounding_box(self) -> Box:
        return self.box

    @property
    def has_boundary(self) -> bool:
        return any(math.isfinite(lo) or math.isfinite(hi)
                   for lo, hi in zip(self.box.lower, self.box.upper))

    @property
    def is_closed(self) -> bool:
        return self.closed

    def closure(self) -> "BoxRegion":
        return BoxRegion(self.box, closed=True)

    def boundary_distance(self, x) -> np.ndarray:
        # Sup-norm distance from an interior point to the boundary of an axis
        # box is the smallest per-axis distance to a finite face; from an
        # exterior point it is the largest per-axis excursion beyond the box.
        # Both are folded one axis at a time.
        pts = _as_points(x, self.dimension)
        if not self.has_boundary:
            return np.full(len(pts), INF)
        axes = list(zip(pts.T, self.box.lower, self.box.upper))
        outside = [np.maximum(np.maximum(lo - at, at - hi), 0.0)
                   for at, lo, hi in axes]
        inside = [np.minimum(at - lo, hi - at) for at, lo, hi in axes]
        is_outside = functools.reduce(np.logical_or, [o > 0 for o in outside])
        return np.where(is_outside, functools.reduce(np.maximum, outside),
                        functools.reduce(np.minimum, inside))

    def __repr__(self):
        kind = "closed" if self.closed else "open"
        return f"BoxRegion({self.box.lower}, {self.box.upper}, {kind})"


class DistanceRegion(Region):
    """Bounded open set given by a membership predicate and a distance
    function to its boundary, with a bounding box.

    The escape hatch for regions that are not axis boxes; the distance
    function is trusted as supplied.
    """

    def __init__(self, dimension: int, member, distance, bounding_box: Box):
        self.dimension = dimension
        self._member = member
        self._distance = distance
        self._box = bounding_box

    def contains(self, x) -> np.ndarray:
        pts = _as_points(x, self.dimension)
        return np.asarray(self._member(pts), dtype=bool)

    @property
    def bounding_box(self) -> Box:
        return self._box

    @property
    def has_boundary(self) -> bool:
        return True

    def boundary_distance(self, x) -> np.ndarray:
        pts = _as_points(x, self.dimension)
        return np.asarray(self._distance(pts), dtype=float)


@dataclass(frozen=True)
class ExhaustionDomain:
    """An open set with an increasing family of rings exhausting it."""

    omega: Region
    ring_fn: Callable[[int], Region] = field(repr=False)
    kind: str = "custom"
    closed_rings: bool = False
    name: str = ""

    @property
    def dimension(self) -> int:
        return self.omega.dimension

    def ring(self, n: int) -> Region:
        if n < 1:
            raise ValueError("ring index must be >= 1")
        region = self.ring_fn(n)
        if self.closed_rings and isinstance(region, BoxRegion) and not region.closed:
            region = region.closure()
        return region

    def require_in_omega(self, x) -> np.ndarray:
        pts = _as_points(x, self.dimension)
        ok = self.omega.contains(pts)
        if not ok.all():
            bad = pts[~ok][0]
            raise DomainMembershipError(f"point {bad.tolist()} is not in the domain")
        return pts

    def require_in_ring(self, n: int, x) -> np.ndarray:
        pts = _as_points(x, self.dimension)
        ok = self.ring(n).contains(pts)
        if not ok.all():
            bad = pts[~ok][0]
            raise DomainMembershipError(
                f"point {bad.tolist()} is not in ring {n}")
        return pts

    def truncated_ring_box(self, n: int, box: Box | None = None) -> Box:
        """The truncation box clipped to the bounding box of ring n.

        Without a truncation box the ring's own bounding box is used, which
        must then be bounded.
        """
        ring_box = self.ring(n).bounding_box
        if box is None:
            if not ring_box.is_bounded:
                raise ValueError(
                    "a truncation box is required for an unbounded ring")
            return ring_box
        if not ring_box.is_bounded:
            return box
        try:
            return box.intersect(ring_box)
        except ValueError as exc:
            raise NoRingPointsError(
                f"the truncation box {list(box.lower)}..{list(box.upper)} "
                f"misses ring {n} ({exc})") from None

    def ring_lattice(self, n: int, resolution: float, box: Box) -> Lattice:
        """The lattice of the truncation box masked to ring n."""
        return Lattice.of(lattice_axes(box, resolution), self.ring(n))

    def sample_ring(self, n: int, resolution: float, box: Box) -> np.ndarray:
        """Lattice points of the truncation box that lie in ring n (lex order)."""
        return self.ring_lattice(n, resolution, box).points


def full_space(dimension: int) -> ExhaustionDomain:
    """The whole space exhausted by itself."""
    omega = FullSpace(dimension)
    return ExhaustionDomain(omega, lambda n: omega, kind="full_space",
                            name=f"full_space_d{dimension}")


def expanding_boxes(dimension: int,
                    extent: Callable[[int], float] = float,
                    axes: tuple[int, ...] | None = None,
                    closed: bool = False) -> ExhaustionDomain:
    """Rings ``{x : |x_i| < extent(n)}`` on the given axes (all axes by default).

    With a strict subset of axes the rings are slabs and the union is the
    whole space; with all axes it is the whole space as well, exhausted by
    bounded boxes.
    """
    if axes is None:
        axes = tuple(range(dimension))
    if not axes:
        raise ValueError("at least one constrained axis is required")

    def make(n: int) -> Region:
        e = float(extent(n))
        lo = tuple(-e if i in axes else -INF for i in range(dimension))
        hi = tuple(e if i in axes else INF for i in range(dimension))
        return BoxRegion(Box(lo, hi))

    omega = FullSpace(dimension)
    kind = "slab_truncation" if len(axes) < dimension else "open_box"
    return ExhaustionDomain(omega, make, kind=kind, closed_rings=closed,
                            name=f"expanding_boxes_d{dimension}")


def shrinking_boxes(lower, upper,
                    margin: Callable[[int], float] = lambda n: 1.0 / (n + 2),
                    closed: bool = False) -> ExhaustionDomain:
    """A bounded open box exhausted by boxes shrunk inward by ``margin(n)``.

    ``margin`` must be positive, strictly decreasing, and tend to zero.
    """
    outer = Box(tuple(map(float, lower)), tuple(map(float, upper)))
    if not outer.is_bounded:
        raise ValueError("shrinking_boxes requires a bounded outer box")

    def make(n: int) -> Region:
        m = float(margin(n))
        lo = tuple(a + m for a in outer.lower)
        hi = tuple(b - m for b in outer.upper)
        return BoxRegion(Box(lo, hi))

    omega = BoxRegion(outer)
    return ExhaustionDomain(omega, make, kind="compact_exhaustion_interiors",
                            closed_rings=closed,
                            name="shrinking_boxes")


def constant_exhaustion(region: Region, name: str = "") -> ExhaustionDomain:
    """Every ring equals the domain itself."""
    return ExhaustionDomain(region, lambda n: region,
                            kind="bounded_open_set_with_distance_fn",
                            name=name or "constant_exhaustion")


class GapEstimate(NamedTuple):
    value: float
    exact: bool
    resolution: float | None
    note: str = ""


def exhaustion_gap(domain: ExhaustionDomain, n: int,
                   sample_resolution: float | None = None,
                   box: Box | None = None) -> GapEstimate:
    """Smallest sup-norm distance between ring n and the boundary of ring n + 1.

    Box and slab rings are resolved analytically from their faces.  Anything
    else is estimated from a sampled lower bound, with the resolution recorded.
    """
    inner = domain.ring(n)
    outer = domain.ring(n + 1)
    if not outer.has_boundary:
        return GapEstimate(INF, True, None, "full-space")
    if isinstance(inner, BoxRegion) and isinstance(outer, BoxRegion):
        gaps = []
        for lo_i, hi_i, lo_o, hi_o in zip(inner.box.lower, inner.box.upper,
                                          outer.box.lower, outer.box.upper):
            if math.isfinite(lo_o):
                gaps.append(lo_i - lo_o)
            if math.isfinite(hi_o):
                gaps.append(hi_o - hi_i)
        value = min(gaps) if gaps else INF
        return GapEstimate(max(value, 0.0), True, None)
    if sample_resolution is None:
        raise ValueError("sample_resolution required for non-box rings")
    box = box or inner.bounding_box
    pts = domain.sample_ring(n, sample_resolution, box)
    if len(pts) == 0:
        raise ValueError(f"ring {n} produced no sample points in the box")
    dist = outer.boundary_distance(pts)
    # The sampled minimum overestimates the infimum by at most one lattice
    # step, since the distance is 1-Lipschitz in the sup norm.
    value = max(float(dist.min()) - sample_resolution, 0.0)
    return GapEstimate(value, False, sample_resolution)
