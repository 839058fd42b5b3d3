"""Iterated radius functions and their positivity certificates.

The depth-k radius at a point is the infimum of the depth-(k-1) radius over
all ring points within one radius step (of either endpoint).  On a lattice
this infimum is replaced by a minimum over qualifying lattice points plus
the query point itself, which makes the sampled value an upper bound of the
true infimum and monotone in the depth by construction.
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


class RadiusOracle:
    """Evaluator for the iterated radii of one family at one ring level.

    Constant radii take an exact closed-form path.  Otherwise values are
    taken on a lattice of the given resolution over the truncation box,
    memoized per depth, and queries off the lattice recurse through the
    cached level below.
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
        self._levels: dict[int, np.ndarray] = {
            0: np.where(inside, r0, np.inf)}
        self._point_cache: dict[tuple, float] = {}

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

    def value(self, k: int, z) -> float:
        """Depth-k radius at a ring point (a sampled upper bound of the inf)."""
        z = np.asarray(z, dtype=float).reshape(-1)
        self.domain.require_in_ring(self.n, z)
        if k < 0:
            raise ValueError("depth must be >= 0")
        if self.strategy == CLOSED_FORM:
            return float(self._constant)
        if k == 0:
            return float(self.family.radius(self.n, z[None, :])[0])

        key = (k, z.tobytes())
        if key in self._point_cache:
            return self._point_cache[key]

        idx = self._exact_index(z)
        if idx is not None:
            out = float(self._level(k)[idx])
        else:
            r0_z = float(self.family.radius(self.n, z[None, :])[0])
            prev = self._level(k - 1)
            window, pts, pred = self._window(z, max(self._reach, r0_z))
            dist = np.abs(pts - z).max(axis=-1)
            qualify = (dist <= pred) | (dist <= r0_z)
            vals = prev[window][qualify]
            out = self.value(k - 1, z)
            if vals.size:
                out = min(out, float(vals.min()))
        self._point_cache[key] = out
        return out

    # -- internals ----------------------------------------------------------

    def snap(self, z) -> np.ndarray | None:
        """Nearest lattice point inside the ring, or None off the grid."""
        if self.strategy == CLOSED_FORM:
            return None
        z = np.asarray(z, dtype=float).reshape(-1)
        idx = []
        for axis_vals, coord in zip(self._axes, z):
            pos = int(round((coord - axis_vals[0]) / self.resolution))
            if not 0 <= pos < len(axis_vals):
                return None
            idx.append(pos)
        idx = tuple(idx)
        if not self._inside[idx]:
            return None
        return self._mesh[idx]

    def _exact_index(self, z: np.ndarray):
        idx = []
        for axis_vals, coord in zip(self._axes, z):
            pos = (coord - axis_vals[0]) / self.resolution
            rounded = round(pos)
            if abs(pos - rounded) > 1e-9 or not 0 <= rounded < len(axis_vals):
                return None
            idx.append(int(rounded))
        idx = tuple(idx)
        return idx if self._inside[idx] else None

    def _window(self, z: np.ndarray, reach: float):
        cells = int(math.ceil(reach / self.resolution + 1e-12))
        slices = []
        for axis_vals, coord in zip(self._axes, z):
            center = int(round((coord - axis_vals[0]) / self.resolution))
            lo = max(center - cells, 0)
            hi = min(center + cells + 1, len(axis_vals))
            slices.append(slice(lo, hi))
        window = tuple(slices)
        return window, self._mesh[window], self._r0_pred[window]

    def _level(self, k: int) -> np.ndarray:
        if k in self._levels:
            return self._levels[k]
        prev = self._level(k - 1)
        out = np.full(self._shape, np.inf)
        cells = int(math.ceil(self._reach / self.resolution + 1e-12))
        for flat_idx in np.flatnonzero(self._inside.ravel()):
            idx = np.unravel_index(flat_idx, self._shape)
            slices = tuple(
                slice(max(i - cells, 0), min(i + cells + 1, m))
                for i, m in zip(idx, self._shape))
            pts = self._mesh[slices]
            dist = np.abs(pts - self._mesh[idx]).max(axis=-1)
            qualify = (dist <= self._r0_pred[slices]) | \
                      (dist <= self._r0_pred[idx])
            out[idx] = float(prev[slices][qualify].min())
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
