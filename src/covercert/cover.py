"""Maximal separated center packings and their covering certificates.

Centers are selected greedily from a lattice in lexicographic order; a
candidate is accepted when it keeps sup-norm distance at least half the
depth-1 radius of both endpoints to every accepted center.  Maximality is
relative to the candidate lattice and the lattice resolution is carried on
the result.  Each accepted center blocks its later conflicts in one array
pass.  Every question about pairs of centers (separation, neighbours,
disjoint cores, the partition's blockers and its run check) goes through
one sweep of box intervals on the first axis (``box_pairs``), each with
its own half-widths and its own exact inequality.  Which balls hold which
points is read on a ``Lattice``, where each open ball is one index box:
covering, multiplicity and the radius chain count the balls per cell, the
chain's witnesses are the balls whose boxes hold a violating cell's
index, and the core boxes own the cells of their boxes, as a masked
stack of one grid per core box (``Cover.core_grids``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .domains import Box, ExhaustionDomain, Lattice, _ranges
from .errors import NoRingPointsError, RefinementRequiredError
from .radii import CLOSED_FORM, GRID_ORACLE, RadiusOracle
from .report import FAIL, PASS, Certificate
from .weights import WeightFamily

__all__ = ["Cover", "box_pairs", "ball_overlaps", "greedy_packing",
           "build_cover", "verify_covering", "overlap_profile",
           "neighbor_sets", "without_center", "with_extra_center"]


@dataclass
class Cover:
    """Accepted centers with their ball radii and depth-1 radii."""

    level: int
    centers: np.ndarray                 # (K, d)
    rho: np.ndarray                     # r_n(z_k)
    r1: np.ndarray                      # depth-1 radius at z_k (sampled)
    resolution: float                   # candidate lattice resolution
    box: Box
    family: WeightFamily = field(repr=False)
    domain: ExhaustionDomain = field(repr=False)
    oracle: RadiusOracle = field(repr=False)
    tampered: str = ""
    # the ring lattice the candidates came from, and its resolution
    lattice: Lattice | None = field(default=None, repr=False)
    lattice_resolution: float | None = None

    @property
    def size(self) -> int:
        return len(self.centers)

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]

    @property
    def core_halfwidths(self) -> np.ndarray:
        """Half-widths of the core boxes used for the rescaling argument."""
        return self.r1 / 8.0

    def core_grids(self, lattice: Lattice) -> tuple[Lattice, np.ndarray]:
        """The cells of the one-grid ``lattice`` that each open core box
        owns, as a masked stack (grid k: the index box of the cells with
        ``|x - z_k|_inf < r1_k / 8``, inside where the cell is inside
        ``lattice`` and no earlier core box holds it; the core boxes are
        disjoint unless the cover is tampered with), and per point of the
        stack the lattice point it is."""
        first, stop = lattice.boxes(self.centers, self.core_halfwidths)
        rows, ks = lattice.cells(first, stop)
        held = np.flatnonzero(rows >= 0)
        least = np.full(len(lattice.points), self.size)
        np.minimum.at(least, rows[held], ks[held])
        rows[held[least[rows[held]] != ks[held]]] = -1
        width, inside = stop - first, rows >= 0
        rows = rows[inside]
        return Lattice(tuple(axis[_ranges(lo, n)] for axis, lo, n
                             in zip(lattice.axes, first, width)),
                       width.T.copy(), inside, lattice.points[rows]), rows

    def rescale(self, grids: Lattice) -> Lattice:
        """Each grid k of the stack expanded about center k by ``lam = 8
        rho / r1``, which maps core box k onto outer ball k, one axis at a
        time."""
        axes = []
        for z, axis, size in zip(self.centers.T, grids.axes, grids.shape.T):
            ks = np.repeat(np.arange(len(size)), size)
            lam = 8.0 * self.rho[ks] / self.r1[ks]
            axes.append(z[ks] + lam * (axis - z[ks]))
        return Lattice(tuple(axes), grids.shape, grids.inside)


def box_pairs(centers: np.ndarray, half: np.ndarray):
    """Every pair j < k of centers whose closed sup-norm boxes of
    half-widths ``half`` (one per center) meet, as ``(rows, cols, dist)``
    in lexicographic (j, k) order, where ``dist`` is the sup-norm distance
    of each pair (the largest coordinate gap, taken one axis at a time).

    A sweep on the first axis only preselects: with the boxes ordered by
    their lower ends, each box's partners are the later boxes whose lower
    ends fall in its own interval, widened by 1e-9 relative so that it
    outweighs the rounding of the window ends, and a pair is kept when
    ``dist`` is within the sum of the two half-widths, widened alike.
    Callers decide with their own inequality on ``dist``.
    """
    size, d = centers.shape
    widen = 1e-9 * (float(np.abs(half).max()) + float(np.abs(centers).max()))
    lower = centers[:, 0] - half
    order = np.argsort(lower)
    ends = np.searchsorted(lower[order], (centers[:, 0] + half)[order] + widen,
                           side="right")
    after = np.arange(1, size + 1)
    count = np.maximum(ends - after, 0)
    rows = order[np.repeat(after - 1, count)]
    cols = order[_ranges(after, count)]
    dist = np.abs(centers[rows, 0] - centers[cols, 0])
    for a in range(1, d):
        np.maximum(dist, np.abs(centers[rows, a] - centers[cols, a]), out=dist)
    near = dist <= half[rows] + half[cols] + widen
    rows, cols = np.minimum(rows, cols)[near], np.maximum(rows, cols)[near]
    lex = np.lexsort((cols, rows))
    return rows[lex], cols[lex], dist[near][lex]


def ball_overlaps(cover: Cover) -> tuple[np.ndarray, np.ndarray]:
    """Each pair j < k of centers whose open outer balls meet, as
    ``(rows, cols)`` in lexicographic order."""
    rho = cover.rho
    rows, cols, dist = box_pairs(cover.centers, rho)
    hit = dist < rho[cols] + rho[rows]
    return rows[hit], cols[hit]


def greedy_packing(candidates: np.ndarray, r1: np.ndarray) -> list[int]:
    """Indices of the sequential greedy packing of ``candidates``.

    Candidate i is accepted when no accepted j < i conflicts with it, a
    conflict being ``dist < max(r1[i], r1[j]) / 2`` with ``dist`` the sup-norm
    distance (the largest coordinate gap, taken one axis at a time).  Each
    acceptance blocks every later candidate it conflicts with in one array
    pass, so the loop runs once per accepted center.

    When the first coordinates ascend, as in lexicographic order, the later
    conflicts of candidate j lie in the window of first coordinates up to
    ``candidates[j, 0] + max(r1) / 2`` (widened as ``box_pairs`` widens its
    windows); otherwise every later candidate is tested.
    """
    n, d = candidates.shape
    col0 = candidates[:, 0]
    if np.all(col0[1:] >= col0[:-1]):
        half = float(r1.max()) / 2.0
        reach = half + 1e-9 * (half + float(np.abs(col0).max()))
        # the window ends ascend, so nothing at or past ends[j] is blocked yet
        ends = np.searchsorted(col0, col0 + reach, side="right")
    else:
        ends = np.full(n, n)
    blocked = np.zeros(n, dtype=bool)
    accepted: list[int] = []
    j = 0
    while j < n:
        accepted.append(j)
        lo = j + 1
        hi = max(lo, int(ends[j]))     # negative radii end windows early
        dist = np.abs(candidates[lo:hi, 0] - candidates[j, 0])
        for a in range(1, d):
            np.maximum(dist, np.abs(candidates[lo:hi, a] - candidates[j, a]),
                       out=dist)
        blocked[lo:hi] |= dist < np.maximum(r1[lo:hi], r1[j]) / 2.0
        rest = blocked[lo:hi]
        j = hi if rest.all() else lo + int(np.argmin(rest))
    return accepted


def build_cover(family: WeightFamily, domain: ExhaustionDomain, n: int,
                candidate_resolution: float, box: Box | None = None,
                oracle: RadiusOracle | None = None) -> Cover:
    """Greedy maximal packing of the ring lattice at the given resolution.

    The depth-1 radii come from the shared oracle (sampled upper bounds of
    the true infima); since they enter the packing as required minimum
    distances, overestimating them only thins the packing and never breaks
    the separation property.
    """
    oracle = oracle or RadiusOracle(family, domain, n, candidate_resolution,
                                    box=box)
    if oracle.strategy == CLOSED_FORM:
        box = domain.truncated_ring_box(n, box)
        resolution = candidate_resolution
        lattice = domain.ring_lattice(n, resolution, box)
        candidates = lattice.points
        if len(candidates) == 0:
            raise NoRingPointsError("the candidate lattice contains no ring points")
        r1 = np.full(len(candidates), oracle.value(1, candidates[0]))
    else:
        box, resolution, lattice = oracle.box, oracle.resolution, oracle._lattice
        candidates = oracle.lattice_points()
        r1 = oracle.lattice_values(1)

    min_r1 = float(r1.min())
    if min_r1 <= 0.0:
        raise RefinementRequiredError("depth-1 radii are not positive on the lattice")
    if not candidate_resolution < min_r1 / 4.0:
        raise RefinementRequiredError(
            f"candidate resolution {candidate_resolution} must be below a "
            f"quarter of the smallest depth-1 radius {min_r1}")

    chosen = greedy_packing(candidates, r1)
    centers = candidates[chosen]
    rho = np.asarray(family.radius(n, centers), dtype=float)
    return Cover(level=n, centers=centers, rho=rho, r1=r1[chosen],
                 resolution=candidate_resolution, box=box,
                 family=family, domain=domain, oracle=oracle,
                 lattice=lattice, lattice_resolution=resolution)


def verify_covering(cover: Cover, lattice: Lattice) -> Certificate:
    """Every lattice point must lie in some inner ball, and every outer ball
    must sit inside the next ring (checked at its corner points)."""
    grid = cover.domain.require_in_ring(cover.level, lattice.points)
    covered = lattice.count(cover.centers, cover.rho / 2.0) > 0
    uncovered = None if covered.all() else grid[np.argmin(covered)].tolist()

    # the 2^d corners of every outer ball, center by center
    d = cover.dimension
    upper = np.indices((2,) * d).reshape(d, -1).T == 1
    c, rho = cover.centers[:, None, :], cover.rho[:, None, None]
    corners = np.where(upper, c + rho, c - rho).reshape(-1, d)
    inside = cover.domain.ring(cover.level + 1).contains(corners)
    held = functools.reduce(np.logical_and, inside.reshape(cover.size, 2 ** d).T)
    escaped = np.flatnonzero(~held)
    escape = ({"center": int(escaped[0]), "corner_outside": True}
              if len(escaped) else None)

    passed = uncovered is None and escape is None
    details: dict = {"centers": cover.size, "grid_points": int(len(grid))}
    if uncovered is not None:
        details["witness_uncovered_point"] = uncovered
    if escape is not None:
        details["witness_ball_escape"] = escape
    if cover.tampered:
        details["tampered"] = cover.tampered
    return Certificate(
        name=f"covering[{cover.family.name},n={cover.level}]",
        claim="cover.covering",
        verdict=PASS if passed else FAIL,
        measured=0.0 if passed else 1.0,
        resolutions={"candidate_resolution": cover.resolution,
                     "check_points": int(len(grid))},
        details=details,
    )


def overlap_profile(cover: Cover, lattice: Lattice,
                    oracle: RadiusOracle | None = None) -> Certificate:
    """Measured outer-ball multiplicity against the depth-2 radius bound.

    The bound uses the sampled depth-2 radius in the denominator, which can
    only tighten the claim relative to the true infimum.
    """
    oracle = oracle or cover.oracle
    grid = cover.domain.require_in_ring(cover.level, lattice.points)
    d = cover.dimension
    counts = lattice.count(cover.centers, cover.rho)
    # Python float powers, once per distinct radius: numpy's vectorized
    # power need not round the same
    radii, at = np.unique(oracle.values(2, grid), return_inverse=True)
    bounds = np.array([(8.0 / r) ** d for r in radii.tolist()])[at]
    slacks = bounds - counts
    w = int(np.argmin(slacks))
    passed = slacks[w] >= 0.0
    return Certificate(
        name=f"overlap[{cover.family.name},n={cover.level}]",
        claim="cover.overlap_bound",
        verdict=PASS if passed else FAIL,
        measured=float(counts[w]),
        bound=float(bounds[w]),
        slack=float(slacks[w]),
        resolutions={"check_points": int(len(grid))},
        details={"max_count": int(counts.max()),
                 "tightest_point": grid[w].tolist(),
                 "radius_direction": "sampled upper bound in denominator "
                                     "(conservative)"},
    )


def neighbor_sets(cover: Cover, oracle: RadiusOracle | None = None) -> Certificate:
    """Exact intersection neighborhoods and the depth-3 cardinality bound."""
    oracle = oracle or cover.oracle
    d = cover.dimension
    rows, cols = ball_overlaps(cover)
    # each ball meets itself unless it is empty
    sizes = (np.bincount(rows, minlength=cover.size)
             + np.bincount(cols, minlength=cover.size) + (cover.rho > 0.0))
    bounds = np.array([(8.0 / r) ** d
                       for r in oracle.values(3, cover.centers).tolist()])
    slacks = bounds - sizes
    k = int(np.argmin(slacks))
    passed = slacks[k] >= 0.0
    return Certificate(
        name=f"neighbors[{cover.family.name},n={cover.level}]",
        claim="cover.neighbor_bound",
        verdict=PASS if passed else FAIL,
        measured=float(sizes[k]),
        bound=float(bounds[k]),
        slack=float(slacks[k]),
        details={"tightest_center": k, "max_neighbors": int(sizes.max())},
    )


# the violations a radius chain certificate lists
_WITNESSES = 5


def _chain_collect(cover: Cover, orc: RadiusOracle):
    """The first ``_WITNESSES`` violations of the radius chain in (k, m, x)
    order, the smallest margin, and the number of lattice cells checked.

    The open outer balls are counted on the ring lattice of
    ``orc.resolution`` over the cover's box (the cover's own candidate
    lattice when that has the same resolution), and painted one slice per ball
    for the least r(z_m) and the largest r2(z_k) at each cell.  Each ball
    of a cell that two balls hold pairs with another one, so at such a cell
    the chain holds for every pair exactly when ``min r(z_m) >= r1(x) >=
    max r2(z_k)``.  Pairs are listed only at the cells where it fails, ball
    by ball until enough are found.
    """
    centers, rho = cover.centers, cover.rho
    r2 = orc.values(2, centers)
    r3 = orc.values(3, centers)
    r_center = np.asarray(cover.family.radius(cover.level, centers), dtype=float)
    worst = float((r2 - r3).min())

    lattice = (cover.lattice if orc.resolution == cover.lattice_resolution else
               cover.domain.ring_lattice(cover.level, orc.resolution, cover.box))
    first, stop = lattice.boxes(centers, rho)
    held = lattice.count_boxes(first, stop) >= 2
    shape = tuple(lattice.shape[0].tolist())
    least = np.full(shape, np.inf)
    most = np.full(shape, -np.inf)
    for lo, hi, r, r2_k in zip(first.T.tolist(), stop.T.tolist(),
                               r_center.tolist(), r2.tolist()):
        box = tuple(map(slice, lo, hi))
        np.minimum(least[box], r, out=least[box])
        np.maximum(most[box], r2_k, out=most[box])
    rm, r2k = (least.ravel()[lattice.inside][held],
               most.ravel()[lattice.inside][held])
    del least, most
    pts = lattice.points[held]
    r1 = orc.values(1, pts)
    if len(pts):
        worst = min(worst, float((rm - r1).min()), float((r1 - r2k).min()))

    # the balls that hold each violating cell: its lattice index is in
    # their index boxes
    at = np.flatnonzero((rm < r1) | (r1 < r2k))
    if len(at) == 0 and not (r2 < r3).any():
        return [], worst, len(pts)
    index = np.unravel_index(np.flatnonzero(lattice.inside)[held][at], shape)
    holds = functools.reduce(np.logical_and, [
        (lo <= i[:, None]) & (i[:, None] < hi)
        for i, lo, hi in zip(index, first, stop)])
    bad = []
    for k in np.flatnonzero((r2 < r3) | holds.any(axis=0)):
        if r2[k] < r3[k]:
            bad.append({"kind": "depth2_vs_depth3", "center": int(k),
                        "r2": float(r2[k]), "r3": float(r3[k])})
        # every ball m at each violating cell that k holds
        own = np.flatnonzero(holds[:, k])
        c, m = np.nonzero(holds[own])
        c = at[own[c]]
        hit = (m != k) & ((r_center[m] < r1[c]) | (r1[c] < r2[k]))
        c, m = c[hit], m[hit]
        for i in np.lexsort((c, m))[:_WITNESSES - len(bad)]:
            bad.append({"kind": "pair", "m": int(m[i]), "k": int(k),
                        "x": pts[c[i]].tolist(), "r_m": float(r_center[m[i]]),
                        "r1_x": float(r1[c[i]]), "r2_zk": float(r2[k])})
        if len(bad) >= _WITNESSES:
            break
    return bad, worst, len(pts)


def chain_certificate(cover: Cover, oracle: RadiusOracle | None = None) -> Certificate:
    """Radius chain on overlapping balls: for every ring lattice cell x in
    two balls B_m and B_k, r(z_m) >= depth1(x) >= depth2(z_k) >= depth3(z_k).

    The lattice is the oracle's resolution over the cover's box: a grid
    oracle's own cells, or a closed-form oracle's candidate lattice.
    Sampled depth values are upper bounds of the true infima, so an apparent
    violation may be a sampling artifact; the check refines the resolution
    once and checks again before failing.
    """
    oracle = oracle or cover.oracle
    violations, worst, cells = _chain_collect(cover, oracle)
    refined = False
    if violations and oracle.strategy == GRID_ORACLE:
        refined = True
        finer = RadiusOracle(cover.family, cover.domain, cover.level,
                             oracle.resolution / 2.0, box=oracle.box)
        violations, worst, cells = _chain_collect(cover, finer)

    return Certificate(
        name=f"radius_chain[{cover.family.name},n={cover.level}]",
        claim="radii.chain_on_overlaps",
        verdict=PASS if not violations else FAIL,
        measured=worst,
        bound=0.0,
        resolutions={"resolution": oracle.resolution, "refined": refined,
                     "lattice_cells": cells},
        details={"violations": violations} if violations else {},
    )


def separation_holds(cover: Cover) -> tuple[bool, tuple[int, int] | None]:
    """Exact check of the two-sided separation the greedy enforced; the
    witness is the first violating pair (k, j), k < j, in lexicographic order."""
    r1 = cover.r1
    rows, cols, dist = box_pairs(cover.centers, r1 / 2.0)
    bad = np.flatnonzero(dist < np.maximum(r1[rows], r1[cols]) / 2.0)
    if len(bad) == 0:
        return True, None
    return False, (int(rows[bad[0]]), int(cols[bad[0]]))


def without_center(cover: Cover, k: int) -> Cover:
    """Negative control: drop one accepted center."""
    keep = [i for i in range(cover.size) if i != k]
    return Cover(level=cover.level, centers=cover.centers[keep],
                 rho=cover.rho[keep], r1=cover.r1[keep],
                 resolution=cover.resolution, box=cover.box,
                 family=cover.family, domain=cover.domain,
                 oracle=cover.oracle, tampered=f"dropped center {k}")


def with_extra_center(cover: Cover, z) -> Cover:
    """Negative control: inject a center without separation screening."""
    z = np.asarray(z, dtype=float).reshape(1, -1)
    centers = np.vstack([cover.centers, z])
    rho = np.append(cover.rho, float(cover.family.radius(cover.level, z)[0]))
    r1 = np.append(cover.r1, cover.oracle.value(1, z[0]))
    return Cover(level=cover.level, centers=centers, rho=rho, r1=r1,
                 resolution=cover.resolution, box=cover.box,
                 family=cover.family, domain=cover.domain,
                 oracle=cover.oracle, tampered="injected center")
