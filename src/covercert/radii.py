"""Iterated radius functions and their positivity certificates.

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

* On one axis the indices within r of index i form an interval
  ``[i - lo, i + hi]``.  lo and hi are counted from the floating-point gaps
  ``a[i + t] - a[i]`` of the axis ``a[t] = lower + resolution * t``, the
  rule of :func:`~covercert.domains.lattice_axes` continued past both ends.
  A radius that ties a gap therefore resolves exactly as the direct
  comparison ``|y - x| <= r`` does, and a cell near the edge has the
  extents of any other cell; cells past the edge hold ``+inf``.
* An interval of n cells is the union of its first and its last w cells,
  for the power of two with ``w <= n < 2w``.  A cell's box is thus the
  union of 2^d boxes of ``w_1 x ... x w_d`` cells at known corners, and the
  ring cells fall into a few groups of equal (w_1, ..., w_d).
* Own radius: the running minimum of the previous level over the group's
  box size, read at each group cell's 2^d corners.  A power-of-two window
  is built in log2(w) doubling steps of one vectorized minimum each.  At
  the window widths of the shipped lattices (16 to 256 cells), on a 2-core
  x86 host, that ran about twice as fast as the linear-time blocked pass
  (van Herk 1992, Gil and Werman 1993) on 2-d lattices and within 25% of
  it on 1-d ones.
* Neighbour's radius: each group cell writes its previous value at its 2^d
  corners; the trailing running minimum of that array is what every cell
  receives from the group.

A minimum rounds nothing, so every level is bitwise the direct scan's.

A point off the lattice takes the minimum of ``r0(z)`` and the previous
level over the cells that qualify for it (the same window, clipped to the
lattice).  Every ring cell qualifies for itself, so levels fall pointwise
with depth, and this one minimum equals the depth-by-depth recursion
through all lower depths.
"""

from __future__ import annotations

import math

import numpy as np

from .domains import Box, ExhaustionDomain, lattice_axes
from .errors import NoRingPointsError, RefinementRequiredError
from .report import FAIL, NOT_CERTIFIED, PASS, Certificate
from .weights import WeightFamily

__all__ = ["RadiusOracle", "r_iter", "positivity_certificate"]

CLOSED_FORM = "closed_form_constant"
GRID_ORACLE = "grid_oracle"

# Lattice cells examined at once by an off-lattice query: 256 KB per
# temporary array.  2 MB chunks raised the peak memory of the radii-d2
# benchmark workload from 82 MB to 100 MB.
_QUERY_CELLS = 1 << 15


def _cells_within(axis: np.ndarray, at: np.ndarray, r: np.ndarray,
                  most: int, sign: int) -> np.ndarray:
    """Per cell, the largest t <= most with ``|axis[at + sign*t] - axis[at]|
    <= r``, the distance computed as ``|y - x|`` is.

    The gaps grow with t, so the bits of t are found from the top down.
    """
    t = np.zeros(len(at), dtype=np.intp)
    step = 1 << (most.bit_length() - 1)
    while step:
        nxt = t + step
        ok = nxt <= most
        ok[ok] = sign * (axis[at[ok] + sign * nxt[ok]] - axis[at[ok]]) <= r[ok]
        t = np.where(ok, nxt, t)
        step >>= 1
    return t


def _box_min(a: np.ndarray, widths, trailing: bool = False) -> np.ndarray:
    """Minimum over the box of ``widths`` cells (powers of two) that starts
    at each cell, or ends there when ``trailing``, reading ``+inf`` past the
    edges.

    Per axis, each step takes the minimum of two adjacent windows, doubling
    their width.
    """
    for axis, w in enumerate(widths):
        pads = [(0, 0)] * a.ndim
        pads[axis] = (w - 1, 0) if trailing else (0, w - 1)
        b = np.moveaxis(np.pad(a, pads, constant_values=np.inf), axis, 0)
        step = 1
        while step < w:
            b = np.minimum(b[:-step], b[step:])
            step *= 2
        a = np.moveaxis(b, 0, axis)
    return a


class RadiusOracle:
    """Evaluator for the iterated radii of one family at one ring level.

    Constant radii take an exact closed-form path.  Otherwise values are
    taken on a lattice of the given resolution over the truncation box, one
    level per depth, built on first use; queries off the lattice take one
    masked minimum over the level below.
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
        box = domain.truncated_ring_box(n, box)
        self.box = box

        axes = lattice_axes(box, self.resolution)
        self._axes = axes
        self._origin = np.array([ax[0] for ax in axes])
        mesh = np.meshgrid(*axes, indexing="ij")
        self._mesh = np.stack(mesh, axis=-1)          # (m1, ..., md, d)
        self._shape = self._mesh.shape[:-1]

        flat = self._mesh.reshape(-1, domain.dimension)
        inside = domain.ring(n).contains(flat).reshape(self._shape)
        if not inside.any():
            raise NoRingPointsError("the truncation box contains no ring points")
        self._inside = inside

        r0 = np.asarray(family.radius(n, self._mesh), dtype=float)
        self._r0_pred = np.where(inside, r0, -np.inf)
        min_r0 = float(r0[inside].min())
        if self.resolution > min_r0:
            raise RefinementRequiredError(
                f"resolution {self.resolution} exceeds the smallest sampled "
                f"radius {min_r0}; the qualification predicate is undersampled")
        self._reach = float(r0[inside].max())
        self._cells = int(math.ceil(self._reach / self.resolution + 1e-12))
        self._levels: dict[int, np.ndarray] = {
            0: np.where(inside, r0, np.inf)}
        self._groups = None

    # -- lattice access -----------------------------------------------------

    def lattice_points(self) -> np.ndarray:
        """Ring lattice points in lexicographic order."""
        if self.strategy == CLOSED_FORM:
            raise ValueError("closed-form oracle has no lattice; sample the ring")
        flat = self._mesh.reshape(-1, self.domain.dimension)
        return flat[self._inside.ravel()]

    def lattice_values(self, k: int) -> np.ndarray:
        """Depth-k values matching :meth:`lattice_points` order."""
        if self.strategy == CLOSED_FORM:
            raise ValueError("closed-form oracle has no lattice")
        level = self._level(k)
        return level[self._inside]

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

        idx, _, on_lattice = self._lattice_index(pts)
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

    def snap_points(self, pts) -> tuple[np.ndarray, np.ndarray]:
        """Nearest lattice point of each row of ``pts``, and whether that
        point is a ring lattice point (rows where it is not are meaningless)."""
        if self.strategy == CLOSED_FORM:
            raise ValueError("closed-form oracle has no lattice")
        pts = np.asarray(pts, dtype=float)
        idx, hit, _ = self._lattice_index(pts)
        coords = np.stack([ax[i] for ax, i in zip(self._axes, idx.T)], axis=1)
        return coords, hit

    def snap(self, z) -> np.ndarray | None:
        """Nearest lattice point inside the ring, or None off the grid.

        One row of :meth:`snap_points`; no certificate calls it.  It stays
        while the benchmark's span tracer wraps ``RadiusOracle.snap``.
        """
        if self.strategy == CLOSED_FORM:
            return None
        coords, hit = self.snap_points(np.asarray(z, dtype=float).reshape(1, -1))
        return coords[0] if hit[0] else None

    # -- internals ----------------------------------------------------------

    def _lattice_index(self, pts: np.ndarray):
        """Nearest lattice index of each point (rounding half to even), whether
        it is a ring cell, and whether the point lies on it, within 1e-9 of a
        step on every axis."""
        pos = (pts - self._origin) / self.resolution
        near = np.rint(pos)
        hit = ((near >= 0) & (near < self._shape)).all(axis=1)
        idx = np.where(hit[:, None], near, 0).astype(np.intp)
        hit &= self._inside[tuple(idx.T)]
        exact = hit & (np.abs(pos - near) <= 1e-9).all(axis=1)
        return idx, hit, exact

    def _padded_axes(self, pad: int) -> list[np.ndarray]:
        """The lattice axes continued ``pad`` cells past both ends by the
        rule ``lower + resolution * t`` of :func:`lattice_axes`."""
        return [lower + self.resolution * np.arange(-pad, m + pad)
                for lower, m in zip(self.box.lower, self._shape)]

    def _off_lattice(self, k: int, pts: np.ndarray, r0: np.ndarray) -> np.ndarray:
        """``min(r0(z), level k over the lattice points that qualify for z)``.

        The window spans ``ceil(max(reach, r0(z)) / resolution)`` cells
        around the nearest index on each axis, clipped to the lattice.
        """
        d = len(self._shape)
        shape = np.array(self._shape)
        near = np.rint((pts - self._origin) / self.resolution)
        cells = np.ceil(np.maximum(self._reach, r0) / self.resolution + 1e-12)
        pad = int(cells.max())
        width = 2 * pad + 1
        # Windows of the widest size around the nearest index, moved inside
        # the lattice; offsets past a point's own window get distance inf.
        first = np.clip(near, 0, shape - 1).astype(np.intp)
        pred = np.pad(self._r0_pred, pad, constant_values=-np.inf)
        level = np.pad(self._level(k), pad, constant_values=np.inf)
        pred_win = np.lib.stride_tricks.sliding_window_view(pred, (width,) * d)
        level_win = np.lib.stride_tricks.sliding_window_view(level, (width,) * d)
        steps = np.arange(width)
        axes = self._padded_axes(pad)
        chunk = max(1, _QUERY_CELLS // width ** d)
        out = np.empty(len(pts))
        for lo in range(0, len(pts), chunk):
            rows = slice(lo, lo + chunk)
            dist = np.zeros((len(pts[rows]),) + (1,) * d)
            for a, axis in enumerate(axes):
                at = first[rows, a, None] + steps                 # padded index
                gap = np.abs(axis[at] - pts[rows, a, None])
                gap[np.abs(at - pad - near[rows, a, None])
                    > cells[rows, None]] = np.inf
                dist = np.maximum(dist, gap.reshape(
                    (len(gap),) + (1,) * a + (width,) + (1,) * (d - a - 1)))
            corner = tuple(first[rows].T)
            qualify = (dist <= pred_win[corner]) | \
                (dist <= r0[rows].reshape((-1,) + (1,) * d))
            best = np.where(qualify, level_win[corner], np.inf)
            out[rows] = np.minimum(r0[rows], best.reshape(len(best), -1).min(axis=1))
        return out

    def _window_groups(self):
        """Ring cells grouped by the window sizes of their boxes.

        Returns ``(padded_shape, groups)``: the lattice shape with
        ``self._cells`` cells of padding on every side, and per group
        ``(widths, cells, corners)`` with the per-axis window sizes, the flat
        lattice indices of the group's ring cells, and one array per corner
        choice of the flat padded indices where those cells' windows start.
        """
        if self._groups is not None:
            return self._groups
        pad = self._cells
        cells = np.flatnonzero(self._inside)
        pos = np.unravel_index(cells, self._shape)
        r = self._levels[0].ravel()[cells]
        log_widths, starts = [], []
        for axis, p in zip(self._padded_axes(pad), pos):
            hi = _cells_within(axis, pad + p, r, pad, 1)
            lo = _cells_within(axis, pad + p, r, pad, -1)
            log_w = np.frexp(lo + hi + 1)[1] - 1
            w = np.left_shift(1, log_w)
            log_widths.append(log_w)
            starts.append((pad + p - lo, pad + p + hi - w + 1))
        padded_shape = tuple(m + 2 * pad for m in self._shape)
        # one integer per tuple of log2 widths, each below 64
        log_shape = (64,) * len(log_widths)
        keys, group_of = np.unique(
            np.ravel_multi_index(tuple(log_widths), log_shape),
            return_inverse=True)
        groups = []
        for g, key in enumerate(keys):
            members = np.flatnonzero(group_of == g)
            corners = [np.ravel_multi_index(
                tuple(s[choice][members] for s, choice in zip(starts, choices)),
                padded_shape)
                for choices in np.ndindex(*(2,) * len(starts))]
            widths = tuple(1 << int(v) for v in np.unravel_index(key, log_shape))
            groups.append((widths, cells[members], corners))
        self._groups = (padded_shape, groups)
        return self._groups

    def _level(self, k: int) -> np.ndarray:
        if k in self._levels:
            return self._levels[k]
        prev = self._level(k - 1)
        padded_shape, groups = self._window_groups()
        pad = self._cells
        padded = np.pad(prev, pad, constant_values=np.inf)
        inner = tuple(slice(pad, pad + m) for m in self._shape)
        flat_prev = prev.ravel()
        out = np.full(prev.size, np.inf)
        for widths, cells, corners in groups:
            # own radius: the minimum over each cell's box
            boxes = _box_min(padded, widths).ravel()
            own = boxes[corners[0]]
            for corner in corners[1:]:
                own = np.minimum(own, boxes[corner])
            out[cells] = np.minimum(out[cells], own)
            # neighbour's radius: every cell whose box holds this group cell
            sent = np.full(padded.size, np.inf)
            for corner in corners:
                np.minimum.at(sent, corner, flat_prev[cells])
            got = _box_min(sent.reshape(padded_shape), widths, trailing=True)
            out = np.minimum(out, got[inner].ravel())
        out[~self._inside.ravel()] = np.inf
        out = out.reshape(self._shape)
        self._levels[k] = out
        return out


def r_iter(family: WeightFamily, domain: ExhaustionDomain, n: int, k: int,
           z, resolution: float, box: Box | None = None) -> float:
    """One-shot depth-k radius evaluation (builds a throwaway oracle)."""
    return RadiusOracle(family, domain, n, resolution, box=box).value(k, z)


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
