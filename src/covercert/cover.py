"""Maximal separated center packings and their covering certificates.

Centers are selected greedily from a lattice in lexicographic order; a
candidate is accepted when it keeps sup-norm distance at least half the
depth-1 radius of both endpoints to every accepted center.  Maximality is
relative to the candidate lattice and the lattice resolution is carried on
the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .domains import Box, ExhaustionDomain
from .errors import NoRingPointsError, RefinementRequiredError
from .radii import CLOSED_FORM, GRID_ORACLE, RadiusOracle
from .report import FAIL, PASS, Certificate
from .weights import WeightFamily

__all__ = ["BucketIndex", "Cover", "build_cover", "verify_covering",
           "overlap_profile", "neighbor_sets", "without_center",
           "with_extra_center"]


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
        center = self.key(p)
        if self.dimension == 1:
            (c0,) = center
            for i in range(c0 - reach, c0 + reach + 1):
                yield from self.buckets.get((i,), ())
        elif self.dimension == 2:
            c0, c1 = center
            for i in range(c0 - reach, c0 + reach + 1):
                for j in range(c1 - reach, c1 + reach + 1):
                    yield from self.buckets.get((i, j), ())
        else:
            ranges = [range(c - reach, c + reach + 1) for c in center]
            stack = [()]
            for rng in ranges:
                stack = [pre + (i,) for pre in stack for i in rng]
            for cell in stack:
                yield from self.buckets.get(cell, ())


@dataclass
class Cover:
    """Accepted centers with their ball radii and a KD-tree over the centers."""

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
    neighbors: list[np.ndarray] | None = field(default=None, repr=False)
    _tree: cKDTree | None = field(default=None, repr=False)

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

    def pairs_near(self, pts, reach: float):
        """Every pair (i, k) with ``|pts[i] - z_k|_inf <= reach``.

        Returns ``(rows, cols, dist)`` in lexicographic (i, k) order, where
        ``dist`` is the sup-norm distance of each pair.  Callers decide ball
        membership with their own strict inequality on ``dist``.
        """
        pts = np.asarray(pts, dtype=float).reshape(-1, self.dimension)
        if self._tree is None:
            self._tree = cKDTree(self.centers)
        # The trees only preselect: the radius is widened so that rounding
        # in their pruning cannot drop a pair, and membership is decided
        # from the distances, which are exact (the largest coordinate gap).
        widen = 1e-9 * (reach + float(np.abs(self.centers).max()))
        found = cKDTree(pts).sparse_distance_matrix(
            self._tree, reach + widen, p=np.inf, output_type="ndarray")
        found = found[found["v"] <= reach]
        found.sort(order=["i", "j"])
        return found["i"], found["j"], found["v"]

    def core_owners(self, zetas) -> np.ndarray:
        """Per point, the smallest k whose core box contains it, else -1."""
        zetas = np.asarray(zetas, dtype=float).reshape(-1, self.dimension)
        half = self.core_halfwidths
        rows, cols, dist = self.pairs_near(zetas, float(half.max()))
        hit = dist < half[cols]
        owned, first = np.unique(rows[hit], return_index=True)
        owners = np.full(len(zetas), -1)
        owners[owned] = cols[hit][first]
        return owners

    def balls_containing(self, x, inner: bool = False) -> list[int]:
        """Indices k with x in the (inner or outer) ball of center k."""
        radii = (0.5 if inner else 1.0) * self.rho
        _, cols, dist = self.pairs_near(x, float(radii.max()))
        return cols[dist < radii[cols]].tolist()

    def locate_core(self, zeta) -> int | None:
        """The unique k whose core box contains zeta, if any."""
        k = int(self.core_owners(zeta)[0])
        return None if k < 0 else k

    def csv_rows(self):
        """Rows (k, center coords..., rho_k, r1_k) for figure export."""
        for k in range(self.size):
            yield (k, *self.centers[k].tolist(),
                   float(self.rho[k]), float(self.r1[k]))


def _greedy_bucket(candidates: np.ndarray, r1: np.ndarray, box: Box) -> list[int]:
    min_sep = float(r1.min()) / 2.0
    max_sep = float(r1.max()) / 2.0
    index = BucketIndex(box.lower, min_sep, candidates.shape[1])
    accepted: list[int] = []
    acc_r1: list[float] = []
    pts = [tuple(row) for row in candidates]
    r1_list = [float(v) for v in r1]
    dim = candidates.shape[1]
    for i, p in enumerate(pts):
        ri = r1_list[i]
        ok = True
        for j in index.near(p, max_sep):
            q = index.points[j]
            dist = abs(p[0] - q[0])
            for t in range(1, dim):
                dt = abs(p[t] - q[t])
                if dt > dist:
                    dist = dt
            rj = acc_r1[j]
            threshold = (ri if ri > rj else rj) / 2.0
            if dist < threshold:
                ok = False
                break
        if ok:
            index.insert(p)
            accepted.append(i)
            acc_r1.append(ri)
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
        candidates = domain.sample_ring(n, candidate_resolution, box)
        if len(candidates) == 0:
            raise NoRingPointsError("the candidate lattice contains no ring points")
        r1 = np.full(len(candidates), oracle.value(1, candidates[0]))
    else:
        box = oracle.box
        candidates = oracle.lattice_points()
        r1 = oracle.lattice_values(1)

    min_r1 = float(r1.min())
    if min_r1 <= 0.0:
        raise RefinementRequiredError("depth-1 radii are not positive on the lattice")
    if not candidate_resolution < min_r1 / 4.0:
        raise RefinementRequiredError(
            f"candidate resolution {candidate_resolution} must be below a "
            f"quarter of the smallest depth-1 radius {min_r1}")

    chosen = _greedy_bucket(candidates, r1, box)
    centers = candidates[chosen]
    rho = np.asarray(family.radius(n, centers), dtype=float)
    return Cover(level=n, centers=centers, rho=rho, r1=r1[chosen],
                 resolution=candidate_resolution, box=box,
                 family=family, domain=domain, oracle=oracle)


def verify_covering(cover: Cover, grid: np.ndarray) -> Certificate:
    """Every grid point must lie in some inner ball, and every outer ball
    must sit inside the next ring (checked at its corner points)."""
    grid = cover.domain.require_in_ring(cover.level, grid)
    inner = cover.rho / 2.0
    rows, cols, dist = cover.pairs_near(grid, float(inner.max()))
    covered = np.zeros(len(grid), dtype=bool)
    covered[rows[dist < inner[cols]]] = True
    uncovered = None if covered.all() else grid[np.argmin(covered)].tolist()

    outer_ring = cover.domain.ring(cover.level + 1)
    escape = None
    for k in range(cover.size):
        lo = cover.centers[k] - cover.rho[k]
        hi = cover.centers[k] + cover.rho[k]
        corners = Box(tuple(lo), tuple(hi)).corners()
        if not outer_ring.contains(corners).all():
            escape = {"center": int(k), "corner_outside": True}
            break

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


def overlap_profile(cover: Cover, grid: np.ndarray,
                    oracle: RadiusOracle | None = None) -> Certificate:
    """Measured outer-ball multiplicity against the depth-2 radius bound.

    The bound uses the sampled depth-2 radius in the denominator, which can
    only tighten the claim relative to the true infimum.
    """
    oracle = oracle or cover.oracle
    grid = cover.domain.require_in_ring(cover.level, grid)
    d = cover.dimension
    rows, cols, dist = cover.pairs_near(grid, float(cover.rho.max()))
    counts = np.bincount(rows[dist < cover.rho[cols]], minlength=len(grid))
    # Python float powers: numpy's vectorized power need not round the same
    bounds = np.array([(8.0 / r) ** d for r in oracle.values(2, grid).tolist()])
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
    rho = cover.rho
    rows, cols, dist = cover.pairs_near(cover.centers, 2.0 * float(rho.max()))
    hit = dist < rho[cols] + rho[rows]
    rows, cols = rows[hit], cols[hit]
    starts = np.searchsorted(rows, np.arange(1, cover.size))
    cover.neighbors = np.split(cols, starts)
    sizes = np.bincount(rows, minlength=cover.size)
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


def _interior_samples(lo, hi, t, count: int) -> np.ndarray:
    """``np.linspace(lo, hi, count + 2)[t]`` elementwise, rounded as
    ``linspace`` rounds it (``t`` in 1..count)."""
    delta = hi - lo
    step = delta / (count + 1)
    return np.where(step == 0, t / (count + 1) * delta, t * step) + lo


def _chain_collect(cover: Cover, orc: RadiusOracle, samples_per_pair: int):
    """Violations of the radius chain in (k, m, x) order, and the smallest
    margin, from one batch of sample points per block of pairs."""
    d = cover.dimension
    centers, rho = cover.centers, cover.rho
    r2 = orc.values(2, centers)
    r3 = orc.values(3, centers)
    r_center = np.asarray(cover.family.radius(cover.level, centers), dtype=float)
    worst = float((r2 - r3).min())
    bad = [(k, 0, {"kind": "depth2_vs_depth3", "center": int(k),
                   "r2": float(r2[k]), "r3": float(r3[k])})
           for k in np.flatnonzero(r2 < r3)]

    pk = np.repeat(np.arange(cover.size), [len(nb) for nb in cover.neighbors])
    pm = np.concatenate(cover.neighbors).astype(np.intp)
    lo = np.maximum(centers[pm] - rho[pm, None], centers[pk] - rho[pk, None])
    hi = np.minimum(centers[pm] + rho[pm, None], centers[pk] + rho[pk, None])
    keep = (pm != pk) & (lo < hi).all(axis=1)
    pk, pm, lo, hi = pk[keep], pm[keep], lo[keep], hi[keep]

    # sample numbers 1..s per axis, in the lexicographic order of mesh_points
    t = np.indices((samples_per_pair,) * d).reshape(d, -1).T + 1.0
    ring = cover.domain.ring(cover.level)
    block = max(1, (1 << 14) // len(t))   # ~16k sample points at a time
    for first in range(0, len(pk), block):
        k, m = pk[first:first + block], pm[first:first + block]
        pts = _interior_samples(lo[first:first + block, None],
                                hi[first:first + block, None],
                                t, samples_per_pair).reshape(-1, d)
        pair = np.repeat(np.arange(len(k)), len(t))
        if orc.strategy == GRID_ORACLE:
            # snap to the oracle lattice, keeping only points still inside
            # both balls
            pts, ok = orc.snap_points(pts)
            mp, kp = m[pair], k[pair]
            ok &= (np.abs(pts - centers[mp]).max(axis=1) < rho[mp]) \
                & (np.abs(pts - centers[kp]).max(axis=1) < rho[kp])
        else:
            ok = np.ones(len(pts), dtype=bool)
        if ok.any():
            ok[ok] = ring.contains(pts[ok])
        pts, pair = pts[ok], pair[ok]
        if len(pts) == 0:
            continue
        r1x = orc.values(1, pts)
        rm = r_center[m[pair]]
        r2k = r2[k[pair]]
        worst = min(worst, float((rm - r1x).min()), float((r1x - r2k).min()))
        for i in np.flatnonzero((rm < r1x) | (r1x < r2k)):
            kk = int(k[pair[i]])
            bad.append((kk, 1, {"kind": "pair", "m": int(m[pair[i]]), "k": kk,
                                "x": pts[i].tolist(), "r_m": float(rm[i]),
                                "r1_x": float(r1x[i]), "r2_zk": float(r2k[i])}))
    bad.sort(key=lambda item: item[:2])     # stable: pairs keep (m, x) order
    return [item[2] for item in bad], worst


def chain_certificate(cover: Cover, oracle: RadiusOracle | None = None,
                      samples_per_pair: int = 3) -> Certificate:
    """Radius chain on overlapping balls: for sampled x in B_m and B_k,
    r(z_m) >= depth1(x) >= depth2(z_k) >= depth3(z_k).

    Sampled depth values are upper bounds of the true infima, so an apparent
    violation may be a sampling artifact; the check refines the resolution
    once and re-examines the violating triples before failing.
    """
    oracle = oracle or cover.oracle
    if cover.neighbors is None:
        neighbor_sets(cover, oracle)

    violations, worst = _chain_collect(cover, oracle, samples_per_pair)
    refined = False
    if violations and oracle.strategy == GRID_ORACLE:
        refined = True
        finer = RadiusOracle(cover.family, cover.domain, cover.level,
                             oracle.resolution / 2.0, box=oracle.box)
        violations, worst = _chain_collect(cover, finer, samples_per_pair)

    return Certificate(
        name=f"radius_chain[{cover.family.name},n={cover.level}]",
        claim="radii.chain_on_overlaps",
        verdict=PASS if not violations else FAIL,
        measured=worst,
        bound=0.0,
        resolutions={"resolution": oracle.resolution, "refined": refined,
                     "samples_per_pair": samples_per_pair ** cover.dimension},
        details={"violations": violations[:5]} if violations else {},
    )


def separation_holds(cover: Cover) -> tuple[bool, tuple[int, int] | None]:
    """Exact check of the two-sided separation the greedy enforced; the
    witness is the first violating pair (k, j), k < j, in lexicographic order."""
    r1 = cover.r1
    rows, cols, dist = cover.pairs_near(cover.centers, float(r1.max()) / 2.0)
    bad = np.flatnonzero((rows < cols)
                         & (dist < np.maximum(r1[rows], r1[cols]) / 2.0))
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
