"""Weighted seminorms and the certified inequality chain.

This module evaluates the weighted sup seminorms, assembles the composed
constants of the comparison calculus, and numerically certifies the chain
of estimates that dominates a seminorm by a weighted integral of a
pointwise functional: the per-ball integral bound, the radius-power weight
comparison on balls, the disjointness of the rescaled supports, the
integral domination itself, and the uniform bound on the functional.

All integrals are midpoint sums over the lattice cells meeting the union
of outer balls, evaluated at two resolutions differing by 2x; a check
passes only if it holds at both and the integral moved by at most 1%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bumps import Partition, PartitionFn, derivative_constant
from .cover import Cover
from .domains import Box, ExhaustionDomain, grid_points, mesh_points
from .errors import TruncationBoxError
from .functions import TestFunction
from .indexcalc import IndexCalculus
from .multiindex import indices_below, indices_up_to_order, multi_binom
from .radii import RadiusOracle
from .report import FAIL, INCONCLUSIVE, PASS, Certificate
from .weights import WeightFamily

__all__ = [
    "seminorm", "RescaleMap", "mixed_partial",
    "claim4_constant", "ball_weight_constant",
    "verify_integral_bound", "verify_ball_weight_bound",
    "verify_disjoint_supports", "JFunctional", "build_functional",
    "domination_certificate", "union_cell_midpoints",
]

STABILITY_RTOL = 0.01


def membership_certificate(f: TestFunction, family: WeightFamily, n: int,
                           m: int, grid: np.ndarray) -> Certificate:
    """Finiteness of the sampled seminorm: the function belongs to the
    weighted space as far as this grid can tell."""
    try:
        value = seminorm(f, family, n, m, grid)
        verdict, detail = PASS, {}
    except TruncationBoxError as exc:
        value = math.inf
        verdict, detail = FAIL, {"overflow": str(exc)}
    return Certificate(
        name=f"membership[{f.name},{family.name},n={n},m={m}]",
        claim="certify.space_membership",
        verdict=verdict,
        measured=value,
        resolutions={"points": int(len(grid))},
        details=detail,
    )


def seminorm(f: TestFunction, family: WeightFamily, n: int, m: int,
             grid: np.ndarray) -> float:
    """Grid maximum of |partial f| times the n-th weight, orders up to m.

    This is a lower bound of the supremum; the grid resolution is the
    caller's disclosure obligation.
    """
    grid = family.domain.require_in_ring(n, grid)
    with np.errstate(over="ignore"):
        nu = family.nu_at(n, grid)
        if not np.isfinite(nu).all():
            raise TruncationBoxError(
                "weight overflow on the sample grid; shrink the truncation box")
        best = 0.0
        for alpha in indices_up_to_order(f.dimension, m):
            vals = np.abs(f.partial(grid, alpha)) * nu
            if not np.isfinite(vals).all():
                raise TruncationBoxError(
                    "weighted derivative overflow on the sample grid")
            best = max(best, float(vals.max()))
    return best


@dataclass(frozen=True)
class RescaleMap:
    """Affine expansion by ``lam`` fixing the center."""

    center: np.ndarray
    lam: float

    def forward(self, zeta):
        zeta = np.asarray(zeta, dtype=float)
        return self.center + self.lam * (zeta - self.center)

    def inverse(self, x):
        x = np.asarray(x, dtype=float)
        return self.center + (x - self.center) / self.lam

    def jacobian(self, dimension: int) -> float:
        return self.lam ** dimension


def rescale_maps(cover: Cover) -> list[RescaleMap]:
    return [RescaleMap(cover.centers[k],
                       8.0 * float(cover.rho[k]) / float(cover.r1[k]))
            for k in range(cover.size)]


def mixed_partial_many(h: PartitionFn, f: TestFunction, pts,
                       alpha) -> np.ndarray:
    """Exact partials of the product h*f at many points (product rule)."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    alpha = tuple(int(a) for a in alpha)
    table = h.partials_table(pts, alpha)
    total = np.zeros(len(pts))
    for gamma in indices_below(alpha):
        rest = tuple(a - g for a, g in zip(alpha, gamma))
        hvals = table[gamma]
        if not hvals.any():
            continue
        total += multi_binom(alpha, gamma) * hvals * f.partial(pts, rest)
    return total


def mixed_partial(h: PartitionFn, f: TestFunction, x, alpha) -> float:
    """Exact partial of the product h*f at one point."""
    return float(mixed_partial_many(h, f, np.asarray(x, dtype=float), alpha)[0])


# -- composed constants ------------------------------------------------------


def claim4_constant(family: WeightFamily, calc: IndexCalculus, m: int,
                    j: int, p: int, ring: int) -> tuple[float, int, list]:
    """Constant and target index of the pointwise radius-power comparison.

    Replays the inductive assembly over depth j: the base case spends one
    first-condition constant, p third-condition constants along the index
    chain, and a closing first-condition constant; each induction step
    wraps the previous constant in two more first-condition factors.
    Returns (constant, target index, itemized factors).
    """
    if j < 1 or p < 1:
        raise ValueError("depth j and power p must be >= 1")

    def rec(m_: int, j_: int) -> tuple[float, int, list]:
        if j_ == 1:
            factors = [("A1", m_, family.constant(1, m_, ring))]
            idx = calc.apply(1, m_)
            for _ in range(p):
                factors.append(("A3", idx, family.constant(3, idx, ring)))
                idx = calc.apply(3, idx)
            factors.append(("A1", idx, family.constant(1, idx, ring)))
            idx = calc.apply(1, idx)
            value = math.prod(f[2] for f in factors)
            return value, idx, factors
        inner_value, inner_target, inner_factors = rec(calc.apply(1, m_), j_ - 1)
        factors = ([("A1", m_, family.constant(1, m_, ring))]
                   + inner_factors
                   + [("A1", inner_target, family.constant(1, inner_target, ring))])
        value = (family.constant(1, m_, ring) * inner_value
                 * family.constant(1, inner_target, ring))
        return value, calc.apply(1, inner_target), factors

    return rec(m, j)


def ball_weight_constant(family: WeightFamily, calc: IndexCalculus, m: int,
                         j: int, p: int, ring: int) -> tuple[float, int, list]:
    """Constant and target index for the on-ball weight comparison.

    One more first-condition factor moves the evaluation point from the
    ball to its center before the pointwise comparison applies.
    """
    inner_value, target, inner_factors = claim4_constant(
        family, calc, calc.apply(1, m), j, p, ring)
    lead = family.constant(1, m, ring)
    factors = [("A1", m, lead)] + inner_factors
    return lead * inner_value, target, factors


# -- quadrature over the union of outer balls --------------------------------


def union_cell_midpoints(cover: Cover, box: Box, resolution: float) -> np.ndarray:
    """Midpoints of lattice cells that intersect at least one outer ball."""
    corners = grid_points(box, resolution)
    mids = corners + resolution / 2.0
    keep = np.ones(len(mids), dtype=bool)
    for i in range(box.dimension):
        keep &= mids[:, i] < box.upper[i]
    mids = mids[keep]
    pad = resolution / 2.0
    rows, cols, dist = cover.pairs_near(mids, float(cover.rho.max()) + pad)
    return mids[np.unique(rows[dist < cover.rho[cols] + pad])]


def _midpoint_integral(values: np.ndarray, resolution: float,
                       dimension: int) -> float:
    return float(values.sum() * resolution ** dimension)


# -- chain certificates -------------------------------------------------------


def verify_integral_bound(f: TestFunction, partition: Partition, cover: Cover,
                          m: int, quad_resolution: float,
                          points_per_ball: int = 5,
                          tol: float = 1e-9) -> Certificate:
    """Per-ball bound of low-order partials by the mixed top-order integral.

    For sampled points of each inner ball and orders up to m, checks
    |partial (h_k f)| <= 2^(d m) * integral over the outer ball of the
    all-axes order-(m+1) partial, with the integral evaluated at two
    resolutions.
    """
    d = cover.dimension
    m_tilde = (m + 1,) * d
    factor = 2.0 ** (d * m)
    worst_ratio = 0.0
    tight = None
    unstable = None
    for fn in partition:
        k = fn.index
        z = cover.centers[k]
        rho = float(cover.rho[k])
        axes = [np.linspace(z[i] - 0.45 * rho, z[i] + 0.45 * rho,
                            points_per_ball) for i in range(d)]
        pts = mesh_points(axes)
        lhs = 0.0
        for alpha in indices_up_to_order(d, m):
            lhs = max(lhs, float(np.abs(
                mixed_partial_many(fn, f, pts, alpha)).max()))

        ball = Box(tuple(z - rho), tuple(z + rho))
        integrals = []
        for res in (quad_resolution, quad_resolution / 2.0):
            mids = grid_points(ball, res) + res / 2.0
            keep = (mids < np.asarray(ball.upper)).all(axis=1)
            mids = mids[keep]
            vals = np.abs(mixed_partial_many(fn, f, mids, m_tilde))
            integrals.append(_midpoint_integral(vals, res, d))
        coarse, fine = integrals
        if abs(fine - coarse) > STABILITY_RTOL * max(abs(fine), 1e-300):
            unstable = {"center": k, "coarse": coarse, "fine": fine}
            break
        rhs = factor * min(coarse, fine)
        ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0.0 else math.inf)
        if ratio > worst_ratio:
            worst_ratio = ratio
            tight = {"center": k, "lhs": lhs, "rhs": rhs}

    if unstable is not None:
        return Certificate(
            name=f"integral_bound[{f.name},m={m}]",
            claim="chain.per_ball_integral_bound",
            verdict=INCONCLUSIVE,
            resolutions={"quadrature": quad_resolution},
            details={"unstable_integral": unstable},
        )
    passed = worst_ratio <= 1.0 + tol
    return Certificate(
        name=f"integral_bound[{f.name},m={m}]",
        claim="chain.per_ball_integral_bound",
        verdict=PASS if passed else FAIL,
        measured=worst_ratio, bound=1.0, slack=1.0 - worst_ratio,
        constants={"factor": factor},
        resolutions={"quadrature": quad_resolution,
                     "refined": quad_resolution / 2.0,
                     "points_per_ball": points_per_ball ** d},
        details=tight or {},
    )


def verify_ball_weight_bound(family: WeightFamily, cover: Cover,
                             oracle: RadiusOracle, calc: IndexCalculus,
                             m: int, j: int, p_exp: int,
                             points_per_ball: int = 4,
                             tol: float = 1e-9) -> Certificate:
    """On each outer ball, the m-th weight is dominated by the composed
    constant times a radius power at the center times a higher weight there.

    The sampled radius is an upper bound of the true infimum and sits in
    the numerator here, so the check is flagged as potentially generous.
    """
    d = cover.dimension
    D, target, factors = ball_weight_constant(family, calc, m, j, p_exp,
                                              ring=cover.level)
    worst_ratio = 0.0
    tight = None
    radii = oracle.values(j, cover.centers).tolist()
    for k in range(cover.size):
        z = cover.centers[k]
        rho = float(cover.rho[k])
        axes = [np.linspace(z[i] - 0.95 * rho, z[i] + 0.95 * rho,
                            points_per_ball) for i in range(d)]
        pts = mesh_points(axes)
        r_j = radii[k]
        rhs = D * r_j ** p_exp * float(family.nu_at(target, z[None, :])[0])
        lhs = float(family.nu_at(m, pts).max())
        ratio = lhs / rhs
        if ratio > worst_ratio:
            worst_ratio = ratio
            tight = {"center": k, "lhs": lhs, "rhs": rhs, "radius": r_j}
    passed = worst_ratio <= 1.0 + tol
    return Certificate(
        name=f"ball_weight_bound[{family.name},m={m},j={j},p={p_exp}]",
        claim="chain.ball_weight_bound",
        verdict=PASS if passed else FAIL,
        measured=worst_ratio, bound=1.0, slack=1.0 - worst_ratio,
        constants={"D": D, "target_index": target,
                   "factors": [list(fct) for fct in factors],
                   "radius_direction": "sampled upper bound in numerator "
                                       "(generous side, disclosed)"},
        resolutions={"points_per_ball": points_per_ball ** d},
        details=tight or {},
    )


def verify_disjoint_supports(cover: Cover, partition: Partition | None = None,
                             tol: float = 0.0) -> Certificate:
    """Core boxes are pairwise disjoint and pulled-back supports fit inside.

    Exact box arithmetic: the sup-norm gap between centers must reach the
    sum of the core half-widths, and each support half-width divided by the
    expansion factor must stay below the core half-width.  The pullback
    part is skipped when no partition is supplied.
    """
    half = cover.core_halfwidths
    overlap = None
    rows, cols, gaps = cover.pairs_near(cover.centers,
                                        max(2.0 * float(half.max()) - tol, 0.0))
    bad = np.flatnonzero((rows < cols) & (gaps < half[rows] + half[cols] - tol))
    if len(bad):
        k, j, gap = int(rows[bad[0]]), int(cols[bad[0]]), float(gaps[bad[0]])
        overlap = {"pair": [k, j], "gap": gap,
                   "required": float(half[k] + half[j])}

    pullback_bad = None
    for fn in (partition or ()):
        k = fn.index
        lam = 8.0 * float(cover.rho[k]) / float(cover.r1[k])
        pulled = fn.cutoff.support_halfwidth / lam
        if not pulled < half[k]:
            pullback_bad = {"center": int(k), "pulled_halfwidth": pulled,
                            "core_halfwidth": float(half[k])}
            break

    passed = overlap is None and pullback_bad is None
    details: dict = {}
    if overlap:
        details["witness_overlap"] = overlap
    if pullback_bad:
        details["witness_pullback"] = pullback_bad
    if cover.tampered:
        details["tampered"] = cover.tampered
    return Certificate(
        name=f"disjoint_supports[{cover.family.name},n={cover.level}]",
        claim="chain.disjoint_rescaled_supports",
        verdict=PASS if passed else FAIL,
        details=details,
    )


@dataclass
class JFunctional:
    """Pointwise functional summing rescaled top-order partials of h_k f.

    At each point at most one summand is nonzero because the rescaled
    supports are pairwise disjoint; evaluation locates the core boxes of
    all points in one batch query on the cover.
    """

    f: TestFunction
    partition: Partition
    cover: Cover
    family: WeightFamily
    level: int
    m: int
    p: int
    nu_index: int
    maps: list[RescaleMap]

    @property
    def m_tilde(self) -> tuple[int, ...]:
        return (self.m + 1,) * self.cover.dimension

    def raw_term(self, zeta) -> float:
        """The rescaled partial alone, without the weight factor."""
        k = self.cover.locate_core(zeta)
        if k is None:
            return 0.0
        x = self.maps[k].forward(zeta)
        return mixed_partial(self.partition[k], self.f, x, self.m_tilde)

    def __call__(self, zeta) -> float:
        term = self.raw_term(zeta)
        if term == 0.0:
            return 0.0
        zeta = np.asarray(zeta, dtype=float).reshape(1, -1)
        return term * float(self.family.nu_at(self.nu_index, zeta)[0])

    def values(self, zetas) -> np.ndarray:
        """Vectorized evaluation: points are grouped by their core box."""
        zetas = np.asarray(zetas, dtype=float)
        if zetas.ndim == 1:
            zetas = zetas[None, :]
        out = np.zeros(len(zetas))
        owners = self.cover.core_owners(zetas)
        for k in np.unique(owners[owners >= 0]).tolist():
            idxs = np.flatnonzero(owners == k)
            sub = zetas[idxs]
            x = self.maps[k].forward(sub)
            terms = mixed_partial_many(self.partition[k], self.f, x,
                                       self.m_tilde)
            out[idxs] = terms * self.family.nu_at(self.nu_index, sub)
        return out

    def active_terms(self, zeta) -> int:
        """Number of summands whose rescaled support contains the point."""
        zeta = np.asarray(zeta, dtype=float).reshape(-1)
        count = 0
        for fn in self.partition:
            k = fn.index
            x = self.maps[k].forward(zeta)
            offs = float(np.abs(x - self.cover.centers[k]).max())
            if offs <= fn.cutoff.support_halfwidth:
                count += 1
        return count


def build_functional(f: TestFunction, partition: Partition, cover: Cover,
                     family: WeightFamily, calc: IndexCalculus,
                     n: int, m: int) -> JFunctional:
    p = calc.quad_weight_index(n, cover.dimension)
    return JFunctional(f=f, partition=partition, cover=cover, family=family,
                       level=n, m=m, p=p, nu_index=calc.apply(2, p),
                       maps=rescale_maps(cover))


def domination_certificate(f: TestFunction, family: WeightFamily,
                           domain: ExhaustionDomain, n: int, m: int,
                           cover: Cover, partition: Partition,
                           oracle: RadiusOracle, calc: IndexCalculus,
                           check_grid: np.ndarray, quad_resolution: float,
                           tol: float = 1e-9) -> list[Certificate]:
    """End-to-end domination of the seminorm, plus the functional's bound.

    First certificate: the (n, m) seminorm is at most the assembled
    constant times the weighted integral of the functional over the union
    of outer balls.  Second: the functional is uniformly bounded by the
    composed higher seminorm of f.  Both are evaluated at two quadrature
    resolutions.
    """
    if m < 1:
        raise ValueError("the domination chain is assembled for m >= 1")
    d = cover.dimension

    D, target, d_factors = ball_weight_constant(family, calc, n, 1, d,
                                                ring=cover.level)
    a1_target = family.constant(1, target, cover.level)
    c0 = 16.0 ** (d * m) * D * a1_target
    p = calc.apply(1, target)
    if p != calc.quad_weight_index(n, d):
        raise RuntimeError(f"quadrature weight index {p} disagrees with the "
                           f"index calculus ({calc.quad_weight_index(n, d)})")
    a2 = family.constant(2, p, cover.level + 1)

    func = build_functional(f, partition, cover, family, calc, n, m)

    expand = float(cover.rho.max())
    quad_box = Box(tuple(lo - expand for lo in cover.box.lower),
                   tuple(hi + expand for hi in cover.box.upper))

    lhs = seminorm(f, family, n, m, check_grid)

    integrals = []
    sup_j = 0.0
    for res in (quad_resolution, quad_resolution / 2.0):
        mids = union_cell_midpoints(cover, quad_box, res)
        jvals = np.abs(func.values(mids))
        sup_j = max(sup_j, float(jvals.max()))
        vals = jvals * family.psi_at(p, mids)
        integrals.append(_midpoint_integral(vals, res, d))
    coarse, fine = integrals

    stable = abs(fine - coarse) <= STABILITY_RTOL * max(abs(fine), 1e-300)
    rhs_values = [c0 * a2 * v for v in integrals]
    constants = {
        "C0": c0, "A2_at_p": a2, "p": p, "nu_index_in_functional": func.nu_index,
        "D": D, "D_factors": [list(fct) for fct in d_factors],
        "A1_closing": a1_target,
    }
    if not stable:
        cert10 = Certificate(
            name=f"domination[{family.name},{f.name},n={n},m={m}]",
            claim="chain.seminorm_domination",
            verdict=INCONCLUSIVE,
            measured=lhs,
            constants=constants,
            resolutions={"quadrature": quad_resolution},
            details={"integrals": integrals,
                     "note": "integral moved more than 1% under refinement"},
        )
    else:
        ok = all(lhs <= rhs * (1.0 + tol) for rhs in rhs_values)
        cert10 = Certificate(
            name=f"domination[{family.name},{f.name},n={n},m={m}]",
            claim="chain.seminorm_domination",
            verdict=PASS if ok else FAIL,
            measured=lhs,
            bound=min(rhs_values),
            slack=min(rhs_values) - lhs,
            constants=constants,
            resolutions={"quadrature": quad_resolution,
                         "refined": quad_resolution / 2.0,
                         "seminorm_points": int(len(check_grid))},
            details={"integrals": integrals},
        )

    # Uniform bound on the functional by a composed seminorm of f.
    m_tilde = func.m_tilde
    c1 = sum(multi_binom(m_tilde, gamma)
             * derivative_constant(tuple(a - g for a, g in zip(m_tilde, gamma)),
                                   d, partition.weights)
             for gamma in indices_below(m_tilde))
    d1, target1, d1_factors = ball_weight_constant(
        family, calc, calc.apply(2, p), 3, d * (m + 2), ring=cover.level)
    a1_last = family.constant(1, target1, cover.level)
    q = calc.apply(1, target1)
    if q != calc.functional_bound_index(p, d, m):
        raise RuntimeError(
            f"functional bound index {q} disagrees with the index calculus "
            f"({calc.functional_bound_index(p, d, m)})")

    sem_grid = domain.sample_ring(q + 1, quad_resolution * 4, quad_box)
    high_sem = seminorm(f, family, q + 1, d * (m + 1), sem_grid)
    bound11 = c1 * d1 * a1_last * high_sem
    ok11 = sup_j <= bound11 * (1.0 + tol)
    cert11 = Certificate(
        name=f"functional_bound[{family.name},{f.name},n={n},m={m}]",
        claim="chain.functional_uniform_bound",
        verdict=PASS if ok11 else FAIL,
        measured=sup_j,
        bound=bound11,
        slack=bound11 - sup_j,
        constants={"C1": c1, "D1": d1, "A1_closing": a1_last, "q": q,
                   "seminorm_order": d * (m + 1),
                   "D1_factors": [list(fct) for fct in d1_factors]},
        resolutions={"functional_points": "union cell midpoints at both "
                                          "quadrature resolutions",
                     "seminorm_points": int(len(sem_grid))},
        details={"high_seminorm": high_sem},
    )
    return [cert10, cert11]
