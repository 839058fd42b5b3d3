"""Slow reference implementations that the batch code paths are tested against.

Each oracle makes the same floating-point comparisons and arithmetic as the
code under test, one pair, piece, interval or multi-index at a time, so
results must agree exactly.
"""

import csv
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.optimize import minimize_scalar
from scipy.spatial import cKDTree

from covercert import bumps
from covercert.bumps import build_profile, derivative_constant, partition_partials
from covercert.domains import Box, Lattice, cell_lattice, lattice_axes, mesh_points
from covercert.multiindex import indices_below, indices_up_to_order, multi_binom
from covercert.piecewise import PiecewisePoly, indicator


def greedy_naive(candidates, r1):
    """Greedy packing with a vectorized scan of all accepted centers."""
    accepted = []
    acc_pts = np.empty((0, candidates.shape[1]))
    acc_r1 = np.empty((0,))
    for i in range(len(candidates)):
        p = candidates[i]
        if len(accepted):
            dist = np.abs(acc_pts - p).max(axis=1)
            threshold = np.maximum(acc_r1, r1[i]) / 2.0
            if bool((dist < threshold).any()):
                continue
        accepted.append(i)
        acc_pts = np.vstack([acc_pts, p[None, :]])
        acc_r1 = np.append(acc_r1, r1[i])
    return accepted


class BucketIndex:
    """Uniform bucket grid over points for fixed-radius sup-norm queries."""

    def __init__(self, origin, cell: float, dimension: int):
        if cell <= 0:
            raise ValueError("cell size must be positive")
        self.origin = tuple(float(v) for v in origin)
        self.cell = float(cell)
        self.dimension = dimension
        self.points: list[tuple[float, ...]] = []
        self.buckets: dict[tuple[int, ...], list[int]] = {}

    def key(self, p) -> tuple[int, ...]:
        return tuple(int(math.floor((p[i] - self.origin[i]) / self.cell))
                     for i in range(self.dimension))

    def insert(self, p) -> int:
        idx = len(self.points)
        self.points.append(tuple(float(v) for v in p))
        self.buckets.setdefault(self.key(p), []).append(idx)
        return idx

    def near(self, p, radius: float):
        """Indices of stored points in buckets touching the query box."""
        reach = int(math.ceil(radius / self.cell + 1e-12))
        ranges = [range(c - reach, c + reach + 1) for c in self.key(p)]
        stack = [()]
        for rng in ranges:
            stack = [pre + (i,) for pre in stack for i in rng]
        for cell in stack:
            yield from self.buckets.get(cell, ())


def greedy_bucket(candidates, r1, origin):
    """Greedy packing, one candidate at a time against a bucket index of
    the accepted centers (cells of half the smallest radius from ``origin``)."""
    index = BucketIndex(origin, float(np.min(r1)) / 2.0, candidates.shape[1])
    max_sep = float(np.max(r1)) / 2.0
    accepted = []
    acc_r1 = []
    for i in range(len(candidates)):
        p = tuple(float(v) for v in candidates[i])
        ri = float(r1[i])
        ok = True
        for j in index.near(p, max_sep):
            q = index.points[j]
            dist = abs(p[0] - q[0])
            for t in range(1, len(p)):
                dt = abs(p[t] - q[t])
                if dt > dist:
                    dist = dt
            rj = acc_r1[j]
            if dist < (ri if ri > rj else rj) / 2.0:
                ok = False
                break
        if ok:
            index.insert(p)
            accepted.append(i)
            acc_r1.append(ri)
    return accepted


def separation_witness(cover):
    """First pair k < j closer than half the larger depth-1 radius, or None."""
    for k in range(cover.size):
        for j in range(k + 1, cover.size):
            dist = float(np.abs(cover.centers[k] - cover.centers[j]).max())
            if dist < max(cover.r1[k], cover.r1[j]) / 2.0:
                return (k, j)
    return None


def ball_escape_witness(cover):
    """First center whose outer ball has a corner outside the next ring, as
    the covering certificate reports it, or None."""
    ring = cover.domain.ring(cover.level + 1)
    for k in range(cover.size):
        lo = cover.centers[k] - cover.rho[k]
        hi = cover.centers[k] + cover.rho[k]
        if not ring.contains(mesh_points(list(zip(lo, hi)))).all():
            return {"center": k, "corner_outside": True}
    return None


def core_overlap_witness(cover):
    """First pair k < j of overlapping core boxes, as the disjointness
    certificate reports it, or None."""
    half = cover.core_halfwidths
    for k in range(cover.size):
        for j in range(k + 1, cover.size):
            gap = float(np.abs(cover.centers[k] - cover.centers[j]).max())
            if gap < half[k] + half[j]:
                return {"pair": [k, j], "gap": gap,
                        "required": float(half[k] + half[j])}
    return None


def box_pairs(centers, half):
    """(j, k, distance) for every pair j < k of centers whose closed boxes
    of half-widths ``half`` meet."""
    out = []
    for j in range(len(centers)):
        for k in range(j + 1, len(centers)):
            dist = float(np.abs(centers[j] - centers[k]).max())
            if dist <= half[j] + half[k]:
                out.append((j, k, dist))
    return out


def pairs_near(cover, pts, reach):
    """(i, k, distance) for every point-center pair within reach (one
    number, or one per center)."""
    reach = np.broadcast_to(np.asarray(reach, dtype=float), cover.size)
    out = []
    for i, x in enumerate(pts):
        for k in range(cover.size):
            dist = float(np.abs(x - cover.centers[k]).max())
            if dist <= reach[k]:
                out.append((i, k, dist))
    return out


def pairs_near_kdtree(cover, pts, reach):
    """``(rows, cols, dist)``: every (point, center) pair with
    ``|pts[i] - centers[k]|_inf <= reach`` (or ``reach[k]``), in
    lexicographic order, and its sup-norm distance, from a KD-tree (scipy's
    cKDTree, p=inf)."""
    pts = np.asarray(pts, dtype=float).reshape(-1, cover.dimension)
    reach = np.asarray(reach, dtype=float)
    widest = float(reach.max())
    # the tree only preselects: the radius is widened so that rounding in
    # its pruning cannot drop a pair, and the exact distances decide
    widen = 1e-9 * (widest + float(np.abs(cover.centers).max()))
    found = cKDTree(pts).sparse_distance_matrix(
        cKDTree(cover.centers), widest + widen, p=np.inf, output_type="ndarray")
    found = found[found["v"] <= (reach[found["j"]] if reach.ndim else reach)]
    found.sort(order=["i", "j"])
    return found["i"], found["j"], found["v"]


def interval_within(axis, z, r, strict=False):
    """Per point, the first and the last index t with ``|axis[t] - z| <= r``
    (``< r`` when ``strict``), both ends found by bisection on the gaps
    ``axis[t] - z``."""
    below = np.zeros(len(z), dtype=np.intp)    # t before the interval
    upto = np.zeros(len(z), dtype=np.intp)     # t up to its end
    tests = (np.less_equal, np.less) if strict else (np.less, np.less_equal)
    step = (1 << len(axis).bit_length()) >> 1
    while step:
        for count, test, bound in zip((below, upto), tests, (-r, r)):
            nxt = count + step
            ok = nxt <= len(axis)
            ok[ok] = test(axis[nxt[ok] - 1] - z[ok], bound[ok])
            count[ok] = nxt[ok]
        step >>= 1
    return below, upto - 1


def box_contains(box, x, closed=False):
    """``Box.contains`` as a reduction of the (N, d) comparisons along d."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    lo = np.asarray(box.lower)
    hi = np.asarray(box.upper)
    if closed:
        ok = (pts >= lo) & (pts <= hi)
    else:
        ok = (pts > lo) & (pts < hi)
    return ok.all(axis=1)


def boundary_distance(region, x):
    """``BoxRegion.boundary_distance`` as reductions of (N, d) arrays along
    d: the largest excursion outside the box, else the least distance to
    a face."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    lo = np.asarray(region.box.lower)
    hi = np.asarray(region.box.upper)
    below = lo - pts
    above = pts - hi
    outside = np.maximum(np.maximum(below, above), 0.0)
    if not region.has_boundary:
        return np.full(len(pts), np.inf)
    out_dist = outside.max(axis=1)
    per_axis = np.minimum(pts - lo, hi - pts)
    in_dist = per_axis.min(axis=1)
    is_outside = (outside > 0).any(axis=1)
    return np.where(is_outside, out_dist, in_dist)


def lattice_count(pts, centers, reach):
    """Per point, how many open boxes ``|x - z_k|_inf < reach[k]`` hold it."""
    return [sum(bool(np.abs(x - z).max() < r) for z, r in zip(centers, reach))
            for x in pts]


def balls_containing(cover, x, inner=False):
    scale = 0.5 if inner else 1.0
    return [k for k in range(cover.size)
            if np.abs(x - cover.centers[k]).max() < scale * cover.rho[k]]


def locate_core(cover, zeta):
    for k in range(cover.size):
        if np.abs(zeta - cover.centers[k]).max() < cover.r1[k] / 8.0:
            return k
    return None


def core_owners(cover, zetas):
    """Per point, the least k whose open core box holds it, else -1."""
    return np.array([-1 if k is None else k
                     for k in (locate_core(cover, z) for z in zetas)], dtype=int)


def point_grids(pts):
    """A stack of one-point grids, one per row of ``pts``."""
    pts = np.asarray(pts, dtype=float)
    return Lattice(tuple(pts.T.copy()), np.ones(pts.shape, dtype=np.int64),
                   np.ones(len(pts), dtype=bool))


def point_lattice(pts):
    """The distinct points ``pts`` as a ``Lattice``: per axis their sorted
    coordinates, masked to the cells that the points occupy."""
    axes = [np.unique(at) for at in pts.T]
    inside = np.zeros([len(axis) for axis in axes], dtype=bool)
    inside[tuple(np.searchsorted(axis, at) for axis, at in zip(axes, pts.T))] = True
    return Lattice.stack([axes], inside)


def neighbors(cover):
    return [[m for m in range(cover.size)
             if np.abs(cover.centers[m] - cover.centers[k]).max()
             < cover.rho[m] + cover.rho[k]]
            for k in range(cover.size)]


def near_union(cover, pts, pad):
    """Points within pad of some outer ball, as union_cell_midpoints keeps them."""
    return [x for x in pts
            if any(np.abs(x - cover.centers[k]).max() < cover.rho[k] + pad
                   for k in range(cover.size))]


def decay_sup(power, delta, exponent):
    """``weights._decay_sup`` with scipy's bounded minimizer."""
    def log_val(t):
        return power * np.log1p(t * t) - delta * np.power(t, exponent)

    grid = np.concatenate([[0.0], np.logspace(-8.0, 8.0, 3201)])
    vals = log_val(grid)
    i = int(np.argmax(vals))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    best = vals[i]
    if hi > lo:
        res = minimize_scalar(lambda t: -log_val(t), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-13})
        best = max(best, -res.fun)
    return float(math.exp(best))


def _mesh(oracle):
    """The coordinates of every cell of a grid oracle's lattice, shape
    (m1, ..., md, d)."""
    return mesh_points(oracle._axes).reshape(*oracle._shape, -1)


def radius_level(oracle, k):
    """Depth-k lattice level of a grid RadiusOracle, one window scan per cell."""
    if k == 0:
        return np.where(oracle._inside, oracle._r0_pred, np.inf)
    prev = radius_level(oracle, k - 1)
    out = np.full(oracle._shape, np.inf)
    cells = int(math.ceil(oracle._reach / oracle.resolution + 1e-12))
    mesh = _mesh(oracle)
    for flat_idx in np.flatnonzero(oracle._inside.ravel()):
        idx = np.unravel_index(flat_idx, oracle._shape)
        slices = tuple(
            slice(max(i - cells, 0), min(i + cells + 1, m))
            for i, m in zip(idx, oracle._shape))
        pts = mesh[slices]
        dist = np.abs(pts - mesh[idx]).max(axis=-1)
        qualify = (dist <= oracle._r0_pred[slices]) | \
                  (dist <= oracle._r0_pred[idx])
        out[idx] = float(prev[slices][qualify].min())
    return out


def exact_index(oracle, z):
    """Ring lattice index within 1e-9 of a step of z on every axis, or None."""
    idx = []
    for axis_vals, coord in zip(oracle._axes, z):
        pos = (coord - axis_vals[0]) / oracle.resolution
        rounded = round(pos)
        if abs(pos - rounded) > 1e-9 or not 0 <= rounded < len(axis_vals):
            return None
        idx.append(int(rounded))
    idx = tuple(idx)
    return idx if oracle._inside[idx] else None


def snap(oracle, z):
    """Nearest lattice point of z inside the ring, or None off the grid."""
    if oracle.strategy == "closed_form_constant":
        return None
    idx = []
    for axis_vals, coord in zip(oracle._axes, z):
        pos = int(round((coord - axis_vals[0]) / oracle.resolution))
        if not 0 <= pos < len(axis_vals):
            return None
        idx.append(pos)
    idx = tuple(idx)
    if not oracle._inside[idx]:
        return None
    return _mesh(oracle)[idx]


def radius_value(oracle, k, z, levels):
    """Depth-k radius at z by recursion through every lower depth.

    ``levels[j]`` is the depth-j lattice level (from ``radius_level``).
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    oracle.domain.require_in_ring(oracle.n, z)
    if oracle.strategy == "closed_form_constant":
        return float(oracle._constant)
    r0_z = float(oracle.family.radius(oracle.n, z[None, :])[0])
    if k == 0:
        return r0_z
    idx = exact_index(oracle, z)
    if idx is not None:
        return float(levels[k][idx])
    reach = max(oracle._reach, r0_z)
    cells = int(math.ceil(reach / oracle.resolution + 1e-12))
    slices = []
    for axis_vals, coord in zip(oracle._axes, z):
        center = int(round((coord - axis_vals[0]) / oracle.resolution))
        slices.append(slice(max(center - cells, 0),
                            min(center + cells + 1, len(axis_vals))))
    window = tuple(slices)
    dist = np.abs(_mesh(oracle)[window] - z).max(axis=-1)
    qualify = (dist <= oracle._r0_pred[window]) | (dist <= r0_z)
    vals = levels[k - 1][window][qualify]
    out = radius_value(oracle, k - 1, z, levels)
    if vals.size:
        out = min(out, float(vals.min()))
    return out


def _chain_pairs(cover, orc, value, pair_points):
    """The radius chain's violations, smallest margin and number of
    distinct points checked, pair by pair and point by point over the ring
    points of ``pair_points(k, m)``, with, unless another ``value(k, x)``
    is given, the reference recursion."""
    if value is None:
        levels = ([radius_level(orc, j) for j in range(4)]
                  if orc.strategy == "grid_oracle" else None)

        def value(k, x):
            return radius_value(orc, k, x, levels)

    ring = cover.domain.ring(cover.level)
    r1_at = {}
    bad = []
    worst = math.inf
    for k in range(cover.size):
        r2 = value(2, cover.centers[k])
        r3 = value(3, cover.centers[k])
        worst = min(worst, r2 - r3)
        if r2 < r3:
            bad.append({"kind": "depth2_vs_depth3", "center": int(k),
                        "r2": r2, "r3": r3})
        for m in range(cover.size):
            if m == k:
                continue
            pts = pair_points(k, m)
            pts = pts[ring.contains(pts)] if len(pts) else pts
            rm = float(cover.family.radius(cover.level,
                                           cover.centers[m][None, :])[0])
            for x in pts:
                if x.tobytes() not in r1_at:
                    r1_at[x.tobytes()] = value(1, x)
                r1x = r1_at[x.tobytes()]
                worst = min(worst, rm - r1x, r1x - r2)
                if rm < r1x or r1x < r2:
                    bad.append({"kind": "pair", "m": int(m), "k": int(k),
                                "x": x.tolist(), "r_m": rm, "r1_x": r1x,
                                "r2_zk": r2})
    return bad, worst, len(r1_at)


def chain_cells(cover, orc, value=None):
    """The radius chain checked, for every two balls, at each ring cell of
    the lattice of ``orc.resolution`` over the cover's box that lies inside
    both open balls; see ``_chain_pairs``."""
    axes = lattice_axes(cover.box, orc.resolution)

    def pair_points(k, m):
        inside = [axis[(np.abs(axis - cover.centers[k][a]) < cover.rho[k])
                       & (np.abs(axis - cover.centers[m][a]) < cover.rho[m])]
                  for a, axis in enumerate(axes)]
        return mesh_points(inside)

    return _chain_pairs(cover, orc, value, pair_points)


def chain_collect(cover, orc, samples_per_pair=3, value=None):
    """The radius chain checked at ``samples_per_pair`` interior samples per
    axis of each pair's overlap, snapped to a grid oracle's lattice with
    the scalar reference snap and kept where still inside both balls; see
    ``_chain_pairs``.  Returns the violations and the smallest margin."""
    def pair_points(k, m):
        zk, zm = cover.centers[k], cover.centers[m]
        lo = np.maximum(zm - cover.rho[m], zk - cover.rho[k])
        hi = np.minimum(zm + cover.rho[m], zk + cover.rho[k])
        if not (lo < hi).all():
            return np.empty((0, cover.dimension))
        pts = mesh_points([np.linspace(lo[i], hi[i], samples_per_pair + 2)[1:-1]
                           for i in range(cover.dimension)])
        if orc.strategy != "grid_oracle":
            return pts
        snapped = [s for s in (snap(orc, x) for x in pts) if s is not None
                   and np.abs(s - zm).max() < cover.rho[m]
                   and np.abs(s - zk).max() < cover.rho[k]]
        return np.asarray(snapped).reshape(-1, cover.dimension)

    return _chain_pairs(cover, orc, value, pair_points)[:2]


def shift_poly(coeffs, h):
    """Coefficients of p(t + h) from ascending coefficients of p(s)."""
    c = np.array(coeffs, dtype=float)
    n = len(c)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            c[j] += h * c[j + 1]
    return c


def piecewise_call(p, x):
    """PiecewisePoly evaluation with one ``polyval`` per piece that is hit."""
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    inside = (x >= p.knots[0]) & (x <= p.knots[-1])
    idx = np.searchsorted(p.knots, x, side="right") - 1
    idx = np.clip(idx, 0, len(p.knots) - 2)
    for piece in np.unique(idx[inside]):
        mask = inside & (idx == piece)
        t = x[mask] - p.knots[piece]
        out[mask] = npoly.polyval(t, p.coeffs[piece])
    return float(out[0]) if scalar else out


def antiderivative(p):
    """Cumulative integral, one running constant per interval."""
    powers = np.arange(1, p.degree + 2)
    c = np.zeros((p.coeffs.shape[0], p.degree + 2))
    c[:, 1:] = p.coeffs / powers[None, :]
    acc = 0.0
    widths = np.diff(p.knots)
    for i in range(c.shape[0]):
        c[i, 0] = acc
        acc = npoly.polyval(widths[i], c[i])
    return PiecewisePoly(p.knots, c)


def _anti_piece(anti, total, probe, left_value):
    if probe <= anti.knots[0]:
        return np.zeros(1)
    if probe >= anti.knots[-1]:
        return np.array([total])
    piece = int(np.searchsorted(anti.knots, probe, side="right") - 1)
    piece = min(max(piece, 0), anti.coeffs.shape[0] - 1)
    return shift_poly(anti.coeffs[piece], left_value - anti.knots[piece])


def convolve_unit_box(p, width):
    """Box smoothing built one new interval at a time."""
    half = width / 2.0
    anti = antiderivative(p)
    total = float(npoly.polyval(p.knots[-1] - p.knots[-2], anti.coeffs[-1]))

    raw = np.unique(np.concatenate([p.knots - half, p.knots + half]))
    keep = [raw[0]]
    for v in raw[1:]:
        if v - keep[-1] > 1e-13 * max(1.0, abs(v)):
            keep.append(v)
    new_knots = np.asarray(keep)

    deg = p.degree + 1
    new_coeffs = np.zeros((len(new_knots) - 1, deg + 1))
    for i in range(len(new_knots) - 1):
        a, b = new_knots[i], new_knots[i + 1]
        mid = 0.5 * (a + b)
        upper = _anti_piece(anti, total, mid + half, a + half)
        lower = _anti_piece(anti, total, mid - half, a - half)
        c = np.zeros(deg + 1)
        c[:len(upper)] += upper
        c[:len(lower)] -= lower
        new_coeffs[i] = c / width
    return PiecewisePoly(new_knots, new_coeffs)


def profile_polys(profile):
    """The profile's polynomial and derivatives, rebuilt with the oracles."""
    poly = indicator(profile.inner_halfwidth)
    for width in profile.widths:
        poly = convolve_unit_box(poly, width)
    polys = [poly]
    for _ in range(profile.order - 1):
        polys.append(polys[-1].derivative())
    return polys


class Cutoff:
    """One cutoff of a partition, evaluated on its own: the partition's
    profile moved to ``center`` and rescaled by the ball's radius ``scale``.
    Each partial multiplies its axis factors from ones, in axis order."""

    def __init__(self, center, profile, scale):
        self.center = tuple(float(c) for c in center)
        self.profile = profile
        self.scale = float(scale)

    @property
    def dimension(self) -> int:
        return len(self.center)

    @property
    def support_halfwidth(self) -> float:
        return self.scale * self.profile.support_halfwidth

    def partial(self, x, alpha=None):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 1
        pts = x[None, :] if scalar else x
        if alpha is None:
            alpha = (0,) * self.dimension
        out = np.ones(len(pts))
        for i, (c_i, a_i) in enumerate(zip(self.center, alpha)):
            out = out * (self.profile.eval((pts[:, i] - c_i) / self.scale,
                                           order=a_i) * self.scale ** -a_i)
        return float(out[0]) if scalar else out

    def value(self, x):
        return self.partial(x, None)

    def contains_support(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        pts = x[None, :] if x.ndim == 1 else x
        offs = np.abs(pts - np.asarray(self.center)).max(axis=1)
        return offs <= self.support_halfwidth


def cutoff(partition, k):
    """Cutoff ``k`` of ``partition``, read from its center and scale."""
    return Cutoff(partition.centers[k], partition.profile, partition.scales[k])


def cutoff_partials_table(cutoff, pts, alpha):
    """``cutoff.partial(pts, beta)`` for every beta <= alpha, as the
    per-cutoff table computed it: each (axis, derivative order) factor is
    the profile at the offset over the scale, times ``scale ** -j``,
    evaluated once, and each beta multiplies its factors from ones."""
    s = cutoff.scale
    factors = [[cutoff.profile.eval((pts[:, i] - c_i) / s, order=j) * s ** -j
                for j in range(a_i + 1)]
               for i, (c_i, a_i) in enumerate(zip(cutoff.center, alpha))]
    out = {}
    for beta in indices_below(alpha):
        val = np.ones(len(pts))
        for factor, b_i in zip(factors, beta):
            val = val * factor[b_i]
        out[beta] = val
    return out


@functools.cache
def _radius_profile(rho, order, weights):
    return build_profile(rho, order, weights)


def per_radius_partial(cutoff, pts, alpha):
    """``cutoff.partial(pts, alpha)`` as partitions computed it when they
    built one profile per radius: a profile of scale ``cutoff.scale``,
    evaluated at the unscaled offsets."""
    profile = cutoff.profile
    own = _radius_profile(cutoff.scale, profile.order, profile.weights)
    out = np.ones(len(pts))
    for i, (c_i, a_i) in enumerate(zip(cutoff.center, alpha)):
        out = out * own.eval(pts[:, i] - c_i, order=a_i)
    return out


@functools.cache
def _box_shifts(weights, rho):
    """a, the product of the box widths, and (S_s, prod(s)) for every sign
    vector s, exactly, for the profile of radius ``rho`` (see
    ``exact_profile``)."""
    rho = Fraction(rho)
    widths = [Fraction(w) * rho / 3 for w in weights]
    shifts = [(Fraction(0), 1)]
    for h in widths:
        shifts = [(shift + s * h / 2, sign * s)
                  for shift, sign in shifts for s in (1, -1)]
    return Fraction(3, 4) * rho, math.prod(widths), shifts


def exact_profile(weights, rho, t, order=0):
    """Derivative ``order`` of the profile of radius ``rho`` at offset
    ``t``, in exact rational arithmetic (``fractions.Fraction``).

    The profile is the indicator of [-a, a], a = 3 rho / 4, smoothed by
    unit-mass boxes of widths h_j = w_j rho / 3.  Each box maps an
    antiderivative G to (G(t + h/2) - G(t - h/2)) / h, and the n-fold
    antiderivative of the indicator is ((t + a)_+^n - (t - a)_+^n) / n!,
    so with n boxes the profile's derivative of order q < n is the
    truncated-power sum
    sum over signs s of prod(s) * ((t + a + S_s)_+^p - (t - a + S_s)_+^p)
    / (p! prod(h)), with p = n - q and S_s = sum_j s_j h_j / 2.  ``rho``,
    ``t`` and the weights are taken as the exact values of their floats.
    """
    a, volume, shifts = _box_shifts(tuple(weights), rho)
    t = Fraction(t)
    power = len(weights) - order
    total = Fraction(0)
    for shift, sign in shifts:
        left, right = t + shift - a, t + shift + a
        if right > 0:
            term = right ** power - (left ** power if left > 0 else 0)
            total += term if sign > 0 else -term
    return total / (math.factorial(power) * volume)


def recurrence_table(partition, k, pts, alpha, absolute=False,
                     factors=cutoff_partials_table):
    """``partition_partials`` of function ``k`` by the prefix-product
    recurrence, one blocker at a time over all points.

    Per point, P runs over the complements of the blockers whose support
    holds it, in index order: the first sets P = 1 - phi, each later one
    steps P <- P * (1 - phi) by the product rule, and the function is
    phi * P at its own cutoff (phi itself with no blocker).  Every sum and
    product comes in the engine's order: for beta > 0 the cross terms
    (P^gamma * phi^(beta - gamma)) * binom(beta, gamma) over gamma < beta
    are summed first, then psi^beta = P^beta * phi + cross and the next
    P^beta = P^beta * (1 - phi) - cross.  With ``absolute`` the same
    recurrence runs on |phi| and |1 - phi|, with every difference a sum.
    ``factors(cutoff, pts, alpha)`` gives a cutoff's partials.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    alpha = tuple(int(a) for a in alpha)
    betas = indices_below(alpha)
    zero = betas[0]

    def table(cutoff, at):
        vals = factors(cutoff, at, alpha)
        return {beta: np.abs(vals[beta]) if absolute else vals[beta]
                for beta in betas}

    def cross(prod, phi, beta):
        total = None
        for gamma in indices_below(beta)[:-1]:
            rest = tuple(b - g for b, g in zip(beta, gamma))
            term = prod[gamma] * phi[rest] * float(multi_binom(beta, gamma))
            total = term if total is None else total + term
        return total

    own_cut = cutoff(partition, k)
    mask = own_cut.contains_support(pts)
    sub = pts[mask]
    prod = {beta: np.zeros(len(sub)) for beta in betas}
    started = np.zeros(len(sub), dtype=bool)
    for m in partition[k].blockers:
        blocker = cutoff(partition, m)
        hit = blocker.contains_support(sub)
        phi = table(blocker, sub[hit])
        comp = 1.0 - phi[zero]
        comp = np.abs(comp) if absolute else comp
        cur = {beta: prod[beta][hit] for beta in betas}
        first = ~started[hit]
        for beta in betas:
            new = cur[beta] * comp
            if beta != zero:
                c = cross(cur, phi, beta)
                new = new + c if absolute else new - c
                new[first] = phi[beta][first] if absolute else -phi[beta][first]
            else:
                new[first] = comp[first]
            prod[beta][hit] = new
        started[hit] = True

    own = table(own_cut, sub)
    out = {}
    for beta in betas:
        val = prod[beta] * own[zero]
        if beta != zero:
            val = val + cross(prod, own, beta)
        val[~started] = own[beta][~started]
        out[beta] = np.zeros(len(pts))
        out[beta][mask] = val
    return out


def recurrence_sum(partition, pts):
    """The partition sum by ``recurrence_table``, one function at a time."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    zero = (0,) * pts.shape[1]
    out = np.zeros(len(pts))
    for k in range(len(partition)):
        mask = cutoff(partition, k).contains_support(pts)
        if mask.any():
            out[mask] += recurrence_table(partition, k, pts[mask], zero)[zero]
    return out


def pair_run_table(partition, k, pts, alpha):
    """``partition_partials`` of function ``k`` by the pair-run engine that
    the prefix-product engine replaced, one blocker at a time over all
    points.

    Each point in the function's own support starts from its cutoff's
    partials; then every blocker whose support holds the point, in index
    order, multiplies in its complement by the product rule, every
    product added to +0.0.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    betas = indices_below(alpha)
    own = cutoff(partition, k)
    mask = own.contains_support(pts)
    sub = pts[mask]
    acc = cutoff_partials_table(own, sub, alpha)
    for m in partition[k].blockers:
        blocker = cutoff(partition, m)
        hit = blocker.contains_support(sub)
        vals = cutoff_partials_table(blocker, sub[hit], alpha)
        t = {beta: (1.0 if sum(beta) == 0 else 0.0) - vals[beta]
             for beta in betas}
        cur = {beta: acc[beta][hit] for beta in betas}
        for beta in betas:
            total = np.zeros(int(hit.sum()))
            for gamma in indices_below(beta):
                rest = tuple(b - g for b, g in zip(beta, gamma))
                total += multi_binom(beta, gamma) * cur[gamma] * t[rest]
            acc[beta][hit] = total
    out = {}
    for beta in betas:
        out[beta] = np.zeros(len(pts))
        out[beta][mask] = acc[beta]
    return out


def pair_run_sum(partition, pts):
    """The partition sum by ``pair_run_table``: each point's values added in
    function order."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    zero = (0,) * pts.shape[1]
    out = np.zeros(len(pts))
    for k in range(len(partition)):
        mask = cutoff(partition, k).contains_support(pts)
        if mask.any():
            out[mask] += pair_run_table(partition, k, pts[mask], zero)[zero]
    return out


def recurrence_error_bound(partition, k, pts, alpha):
    """Per beta, a bound on |partition_partials - pair_run_table| for
    function ``k`` at every point.

    Both engines evaluate the same exact partial from the same factors.
    Treat 1 - phi^0 as one more input.  Along any path from an input to a
    result, a step of either engine rounds at most T + 2 times, T the
    number of betas: 1 - phi^0, the weight and the factor products, and
    the sum of at most T terms.  With L blockers, N = (L + 1) * (T + 3)
    roundings bound every path (one spare per step covers this bound's own
    arithmetic).  So each engine is within gamma_N = N u / (1 - N u) of
    the exact partial times the same expansion summed in absolute value,
    which the absolute ``recurrence_table`` gives up to a factor
    1 / (1 - N u) (every rounding there shrinks a sum of nonnegative
    terms by at most (1 - u)).  Two such errors make the bound.
    """
    u = 2.0 ** -53
    n = (len(partition[k].blockers) + 1) * (math.prod(a + 1 for a in alpha) + 3)
    scale = 2.0 * (n * u / (1.0 - n * u)) / (1.0 - n * u)
    return {beta: scale * vals for beta, vals in
            recurrence_table(partition, k, pts, alpha, absolute=True).items()}


def derivative_pass(partition, cover, oracle, alpha_max, grid):
    """certify_partition's derivative pass one function at a time:
    the worst measured/bound ratio and its witness."""
    worst_ratio, tight = 0.0, None
    r3 = oracle.values(3, cover.centers)
    for k in range(len(partition)):
        half = cutoff(partition, k).support_halfwidth
        local = grid[(np.abs(grid - cover.centers[k]) <= half).all(axis=1)]
        if len(local) == 0:
            continue
        tables = recurrence_table(partition, k, local,
                                  (alpha_max,) * cover.dimension)
        for alpha in indices_up_to_order(cover.dimension, alpha_max):
            if sum(alpha) == 0:
                bound = (1.0 / r3[k]) ** cover.dimension
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
    return worst_ratio, tight


def leibniz(table, f_partial, alpha):
    """Partial alpha of h*f from h's table, skipping a gamma whose h-partial
    is zero at every point of the table."""
    total = np.zeros(len(table[alpha]))
    for gamma in indices_below(alpha):
        rest = tuple(a - g for a, g in zip(alpha, gamma))
        hvals = table[gamma]
        if not hvals.any():
            continue
        total += multi_binom(alpha, gamma) * hvals * f_partial(rest)
    return total


def _split_rows(tables, groups):
    """Per group of points, its consecutive rows of a partition table."""
    ends = np.cumsum([len(g) for g in groups]).tolist()
    return [{beta: vals[end - len(g):end] for beta, vals in tables.items()}
            for g, end in zip(groups, ends)]


def ball_samples(cover, ks, points_per_ball):
    """``verify_integral_bound``'s sample points of each inner ball."""
    samples = []
    for k in ks:
        z = cover.centers[k]
        rho = float(cover.rho[k])
        samples.append(mesh_points([
            np.linspace(z[i] - 0.45 * rho, z[i] + 0.45 * rho, points_per_ball)
            for i in range(cover.dimension)]))
    return samples


def integral_bound_terms(fs, partition, cover, m, quad_resolution,
                         points_per_ball=5):
    """``certify._integral_bound_terms`` as the per-ball loops computed it:
    one Leibniz sum per (ball, test function)."""
    d = cover.dimension
    m_tilde = (m + 1,) * d
    ks = list(range(len(partition)))
    samples = ball_samples(cover, ks, points_per_ball)
    tables = partition_partials(partition, point_grids(np.concatenate(samples)),
                                np.repeat(ks, [len(p) for p in samples]),
                                indices_below((m,) * d))
    lhs_values = [[] for _ in fs]
    for pts, table in zip(samples, _split_rows(tables, samples)):
        for f, lhs_f in zip(fs, lhs_values):
            f_partial = functools.cache(lambda rest: f.partial(pts, rest))
            lhs = 0.0
            for alpha in indices_up_to_order(d, m):
                lhs = max(lhs, float(np.abs(leibniz(table, f_partial, alpha)).max()))
            lhs_f.append(lhs)

    integrals = [[] for _ in fs]
    for res in (quad_resolution, quad_resolution / 2.0):
        mids = []
        for k in ks:
            z = cover.centers[k]
            rho = float(cover.rho[k])
            mids.append(cell_lattice(Box(tuple(z - rho), tuple(z + rho)), res).points)
        tables = _split_rows(
            partition_partials(partition, point_grids(np.concatenate(mids)),
                               np.repeat(ks, [len(p) for p in mids]),
                               indices_below(m_tilde)),
            mids)
        for f, integrals_f in zip(fs, integrals):
            integrals_f.append([
                float(np.abs(leibniz(table, lambda rest: f.partial(pts, rest),
                                     m_tilde)).sum() * res ** d)
                for pts, table in zip(mids, tables)])
    return ks, lhs_values, integrals


def functional_values(func, zetas, fs):
    """``JFunctional.values`` as the per-core-box loop computed it: one
    Leibniz sum and one weight evaluation per (core box, test function)."""
    zetas = np.atleast_2d(np.asarray(zetas, dtype=float))
    out = np.zeros((len(fs), len(zetas)))
    owners = core_owners(func.cover, zetas)
    ks = np.flatnonzero(np.bincount(owners + 1)[1:]).tolist()
    if not ks:
        return out
    groups = [np.flatnonzero(owners == k) for k in ks]
    maps = rescale_maps(func.cover)
    xs = [maps[k].forward(zetas[idxs]) for k, idxs in zip(ks, groups)]
    tables = partition_partials(func.partition, point_grids(np.concatenate(xs)),
                                owners[np.concatenate(groups)],
                                indices_below(func.m_tilde))
    for idxs, x, table in zip(groups, xs, _split_rows(tables, xs)):
        nu = func.family.nu_at(func.nu_index, zetas[idxs])
        for row, f in zip(out, fs):
            terms = leibniz(table, lambda rest: f.partial(x, rest), func.m_tilde)
            row[idxs] = terms * nu
    return out


@dataclass(frozen=True)
class RescaleMap:
    """Affine expansion by ``lam`` fixing the center."""

    center: np.ndarray
    lam: float

    def forward(self, zeta):
        zeta = np.asarray(zeta, dtype=float)
        return self.center + self.lam * (zeta - self.center)


def rescale_maps(cover):
    """One map per center, from its core box onto its outer ball."""
    return [RescaleMap(cover.centers[k],
                       8.0 * float(cover.rho[k]) / float(cover.r1[k]))
            for k in range(cover.size)]


def export_figures(config, built_cover, partition, out_dir):
    """The three figure CSVs through ``csv.writer``, row by row from Python
    numbers, with the pullback probes built one core box at a time."""
    d = built_cover.dimension
    coords = [f"z{i + 1}" for i in range(d)]

    with (out_dir / "cover.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["k", *coords, "rho", "r1"])
        for k in range(built_cover.size):
            writer.writerow((k, *built_cover.centers[k].tolist(),
                             float(built_cover.rho[k]), float(built_cover.r1[k])))

    if partition is None:
        return

    xs = [f"x{i + 1}" for i in range(d)]
    grid = built_cover.domain.ring_lattice(
        built_cover.level, max(config.check_resolution * 8,
                               config.candidate_resolution * 4),
        config.truncation)
    rows, ks, values = [], [], []
    for block, inc in bumps.incidences(partition, grid, [(0,) * d]):
        rows.append(inc.rows + block.start)
        ks.append(inc.fns)
        values.append(inc.factors[0])
    rows, ks, values = (np.concatenate(a) for a in (rows, ks, values))
    with (out_dir / "cutoffs.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([*xs, "k", "value"])
        order = np.lexsort((rows, ks))
        writer.writerows(zip(*grid.points[rows[order]].T.tolist(), ks[order].tolist(),
                             values[order].tolist()))

    maps = rescale_maps(built_cover)
    ks = range(len(partition))
    zetas = []
    for k in ks:
        half = built_cover.core_halfwidths[k]
        z = built_cover.centers[k]
        axes = [np.linspace(z[i] - half, z[i] + half, 9) for i in range(d)]
        zetas.append(mesh_points(axes))
    probes = np.concatenate([maps[k].forward(pts) for k, pts in zip(ks, zetas)])
    owners = np.repeat(ks, [len(pts) for pts in zetas])
    values = bumps.function_values(partition, point_grids(probes), owners)
    with (out_dir / "pullback.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([*[f"zeta{i + 1}" for i in range(d)], "k", "value"])
        writer.writerows(zip(*np.concatenate(zetas).T.tolist(), owners.tolist(),
                             values.tolist()))
