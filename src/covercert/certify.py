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

Each certificate reads the family, domain, level and radius oracle from
the cover it checks.  The two chain certificates take a list of test
functions and certify each of them.  Their sample points, quadrature
points, partition tables and weight arrays depend on the cover, the
partition, the order and the resolution but not on the test function, so
they are built once and shared; only the Leibniz sums, the integrals, the
seminorms and the verdicts are evaluated per function.  Each reading of
the partition over the points of all balls (or core boxes) streams the
engine's blocks (``bumps.incidences``): per block, each test function's
Leibniz sums are written into one value per point and test function (and
alpha, for the samples), and the block's tables are released before the
next block is read.  A reading thus holds one block's tables plus these
per-point results, and the per-ball maxima and midpoint sums are then
read from each ball's contiguous slice, so every number is bitwise the
one a per-ball evaluation gives (wherever the partials of f are finite:
a ball whose h-partial is identically zero no longer skips that term, it
adds zeros).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bumps import Partition, derivative_constant, incidences
from .cover import Cover, box_pairs
from .domains import Box, Lattice, cell_axes, cell_lattice
from .errors import TruncationBoxError
from .functions import TestFunction
from .indexcalc import IndexCalculus
from .multiindex import indices_below, indices_up_to_order, multi_binom
from .report import FAIL, INCONCLUSIVE, PASS, Certificate
from .weights import WeightFamily

__all__ = [
    "seminorm",
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
        partial = f.at(grid, (m,) * f.dimension)
        for alpha in indices_up_to_order(f.dimension, m):
            vals = np.abs(partial(alpha)) * nu
            if not np.isfinite(vals).all():
                raise TruncationBoxError(
                    "weighted derivative overflow on the sample grid")
            best = max(best, float(vals.max()))
    return best


def _leibniz(table: dict, f_at, alpha) -> np.ndarray:
    """Partial alpha of h*f from h's table of partials up to at least alpha
    and f's partials at the same points (``TestFunction.at``), each formed
    when its term is added."""
    total = np.zeros(len(table[alpha]))
    for gamma in indices_below(alpha):
        hvals = table[gamma]
        if not hvals.any():
            continue
        rest = tuple(a - g for a, g in zip(alpha, gamma))
        total += multi_binom(alpha, gamma) * hvals * f_at(rest)
    return total


def _leibniz_blocks(partition: Partition, grids: Lattice, fs, alphas):
    """The partials ``alphas`` of h*f for each test function f in ``fs``,
    h partition function g on grid g of the stack ``grids``, read one
    ``bumps.incidences`` block at a time: ``(block, i, j, values)``, the
    partial ``alphas[j]`` of h*fs[i] at the points ``grids.points[block]``.

    A block's partition table covers the betas below the alphas, and f's
    partials the largest alpha order per axis; both are released before
    the next block is read, so a reader holds one block's tables and its
    own per-point results."""
    betas = sorted({beta for alpha in alphas for beta in indices_below(alpha)})
    tops = tuple(max(orders) for orders in zip(*alphas))
    ks = np.arange(len(partition))
    for block, inc in incidences(partition, grids, betas, owners=ks):
        table = inc.partials()
        del inc
        for i, f in enumerate(fs):
            f_at = f.at(grids.points[block], tops)
            for j, alpha in enumerate(alphas):
                yield block, i, j, _leibniz(table, f_at, alpha)
            del f_at
        del table           # not held while the next block is read


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


def union_cell_midpoints(cover: Cover, box: Box, resolution: float) -> Lattice:
    """The lattice of cell midpoints masked to the cells that intersect at
    least one outer ball: those with ``|x - z_k|_inf < rho_k + resolution /
    2`` for some k."""
    cells = cell_lattice(box, resolution)
    keep = cells.count(cover.centers, cover.rho + resolution / 2) > 0
    return Lattice(cells.axes, cells.shape, keep, cells.points[keep])


def _midpoint_integral(values: np.ndarray, resolution: float,
                       dimension: int) -> float:
    return float(values.sum() * resolution ** dimension)


# -- chain certificates -------------------------------------------------------


def _integral_bound_terms(fs: list[TestFunction], partition: Partition,
                          cover: Cover, m: int, quad_resolution: float,
                          points_per_ball: int):
    """The partition indices ``ks`` and, per test function, the per-ball
    left sides (``lhs[i][b]``) and midpoint integrals at both resolutions
    (``integrals[i][r][b]``) of ``verify_integral_bound``."""
    d = cover.dimension
    ks = np.arange(len(partition))
    # |partial alpha (h_k f)| for the orders |alpha| <= m at every ball's
    # sample points, per test function and alpha, read block by block
    alphas = indices_up_to_order(d, m)
    grids = Lattice.linspace(cover.centers, 0.45 * cover.rho, points_per_ball)
    peaks = np.empty((len(fs), len(alphas), len(grids)))
    for block, i, j, values in _leibniz_blocks(partition, grids, fs, alphas):
        peaks[i, j, block] = np.abs(values)
    starts = ks * points_per_ball ** d
    lhs_values = []
    for per_alpha in peaks:
        lhs = np.zeros(len(ks))
        for values in per_alpha:
            peak = np.maximum.reduceat(values, starts)
            lhs = np.where(peak > lhs, peak, lhs)      # max(lhs, peak)
        lhs_values.append(lhs.tolist())
    del peaks
    integrals = list(zip(*(_ball_integrals(fs, partition, cover, m, res)
                           for res in (quad_resolution, quad_resolution / 2.0))))
    return ks.tolist(), lhs_values, integrals


def _ball_integrals(fs: list[TestFunction], partition: Partition,
                    cover: Cover, m: int, res: float) -> list[list[float]]:
    """Per test function f and outer ball k, the midpoint sum at resolution
    ``res`` of |partial (m+1,...,m+1) (h_k f)| over the ball's cells.

    Every ball's cell grid is one grid of a stack, read block by block into
    one value per cell and test function; each ball's sum then runs over
    its contiguous slice, so its pairwise summation is that of the ball's
    own array."""
    d = cover.dimension
    m_tilde = (m + 1,) * d
    grids = Lattice.stack([cell_axes(Box(tuple(z - r), tuple(z + r)), res)
                           for z, r in zip(cover.centers, cover.rho.tolist())])
    values = np.empty((len(fs), len(grids)))
    for block, i, _, vals in _leibniz_blocks(partition, grids, fs, [m_tilde]):
        values[i, block] = np.abs(vals)
    ends = np.cumsum(grids.sizes)
    return [[_midpoint_integral(row[lo:hi], res, d)
             for lo, hi in zip(ends - grids.sizes, ends)] for row in values]


def verify_integral_bound(fs: list[TestFunction], partition: Partition,
                          cover: Cover, m: int, quad_resolution: float,
                          points_per_ball: int = 5,
                          tol: float = 1e-9) -> list[Certificate]:
    """Per-ball bound of low-order partials by the mixed top-order integral.

    For sampled points of each inner ball and orders up to m, checks
    |partial (h_k f)| <= 2^(d m) * integral over the outer ball of the
    all-axes order-(m+1) partial, with the integral evaluated at two
    resolutions.  Returns one certificate per test function in ``fs``.
    """
    d = cover.dimension
    factor = 2.0 ** (d * m)
    ks, lhs_values, integrals = _integral_bound_terms(
        fs, partition, cover, m, quad_resolution, points_per_ball)

    certs = []
    for f, lhs_f, (coarse_f, fine_f) in zip(fs, lhs_values, integrals):
        worst_ratio = 0.0
        tight = None
        unstable = None
        for k, lhs, coarse, fine in zip(ks, lhs_f, coarse_f, fine_f):
            if abs(fine - coarse) > STABILITY_RTOL * max(abs(fine), 1e-300):
                unstable = {"center": k, "coarse": coarse, "fine": fine}
                break
            rhs = factor * min(coarse, fine)
            ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0.0 else math.inf)
            if ratio > worst_ratio:
                worst_ratio = ratio
                tight = {"center": k, "lhs": lhs, "rhs": rhs}

        if unstable is not None:
            certs.append(Certificate(
                name=f"integral_bound[{f.name},m={m}]",
                claim="chain.per_ball_integral_bound",
                verdict=INCONCLUSIVE,
                resolutions={"quadrature": quad_resolution},
                details={"unstable_integral": unstable},
            ))
            continue
        passed = worst_ratio <= 1.0 + tol
        certs.append(Certificate(
            name=f"integral_bound[{f.name},m={m}]",
            claim="chain.per_ball_integral_bound",
            verdict=PASS if passed else FAIL,
            measured=worst_ratio, bound=1.0, slack=1.0 - worst_ratio,
            constants={"factor": factor},
            resolutions={"quadrature": quad_resolution,
                         "refined": quad_resolution / 2.0,
                         "points_per_ball": points_per_ball ** d},
            details=tight or {},
        ))
    return certs


def verify_ball_weight_bound(cover: Cover, calc: IndexCalculus, m: int,
                             j: int, p_exp: int, points_per_ball: int = 4,
                             tol: float = 1e-9) -> Certificate:
    """On each outer ball, the m-th weight is dominated by the composed
    constant times a radius power at the center times a higher weight there.

    The sampled radius is an upper bound of the true infimum and sits in
    the numerator here, so the check is flagged as potentially generous.
    """
    d, family = cover.dimension, cover.family
    D, target, factors = ball_weight_constant(family, calc, m, j, p_exp,
                                              ring=cover.level)
    worst_ratio = 0.0
    tight = None
    radii = cover.oracle.values(j, cover.centers).tolist()
    # every ball's sample points, ball by ball, in one weight evaluation
    pts = Lattice.linspace(cover.centers, 0.95 * cover.rho,
                           points_per_ball).points
    lhs_values = np.maximum.reduceat(
        family.nu_at(m, pts), np.arange(cover.size) * points_per_ball ** d)
    at_centers = family.nu_at(target, cover.centers).tolist()
    for k, (lhs, r_j, nu) in enumerate(zip(lhs_values.tolist(), radii, at_centers)):
        rhs = D * r_j ** p_exp * nu
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


def verify_disjoint_supports(cover: Cover,
                             partition: Partition | None = None) -> Certificate:
    """Core boxes are pairwise disjoint and pulled-back supports fit inside.

    Exact box arithmetic: the sup-norm gap between centers must reach the
    sum of the core half-widths, and each support half-width divided by the
    expansion factor must stay below the core half-width.  The pullback
    part is skipped when no partition is supplied.
    """
    half = cover.core_halfwidths
    overlap = None
    rows, cols, gaps = box_pairs(cover.centers, half)
    bad = np.flatnonzero(gaps < half[rows] + half[cols])
    if len(bad):
        k, j, gap = int(rows[bad[0]]), int(cols[bad[0]]), float(gaps[bad[0]])
        overlap = {"pair": [k, j], "gap": gap,
                   "required": float(half[k] + half[j])}

    pullback_bad = None
    if partition is not None:
        pulled = partition.half / (8.0 * cover.rho / cover.r1)
        bad = np.flatnonzero(~(pulled < half))
        if len(bad):
            k = int(bad[0])
            pullback_bad = {"center": k, "pulled_halfwidth": float(pulled[k]),
                            "core_halfwidth": float(half[k])}

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
    supports are pairwise disjoint; evaluation reads each core box's cells
    of the lattice as one grid (``Cover.core_grids``).  The functional is
    taken for every test function at once: the partition table and the
    weights it is built from do not depend on f.
    """

    partition: Partition
    cover: Cover
    m: int
    p: int
    nu_index: int

    @property
    def m_tilde(self) -> tuple[int, ...]:
        return (self.m + 1,) * self.cover.dimension

    def values(self, lattice: Lattice, fs: list[TestFunction]) -> np.ndarray:
        """Vectorized evaluation at the points of ``lattice``: each point is
        rescaled about the center of its core box, and a point in no core
        box reads zero.

        Returns one row per test function in ``fs``, one column per point.
        """
        out = np.zeros((len(fs), len(lattice.points)))
        cores, rows = self.cover.core_grids(lattice)
        if not len(rows):
            return out
        # one Leibniz sum per f and block for the cells that the core boxes
        # own, each box's grid rescaled about its own center
        nu = self.cover.family.nu_at(self.nu_index, cores.points)
        x = self.cover.rescale(cores)
        del cores
        for block, i, _, values in _leibniz_blocks(self.partition, x, fs,
                                                   [self.m_tilde]):
            out[i, rows[block]] = values * nu[block]
        return out


def build_functional(partition: Partition, cover: Cover, calc: IndexCalculus,
                     m: int) -> JFunctional:
    p = calc.quad_weight_index(cover.level, cover.dimension)
    return JFunctional(partition=partition, cover=cover, m=m, p=p,
                       nu_index=calc.apply(2, p))


def domination_certificate(fs: list[TestFunction], m: int, cover: Cover,
                           partition: Partition, calc: IndexCalculus,
                           check_grid: np.ndarray, quad_resolution: float,
                           tol: float = 1e-9) -> list[Certificate]:
    """End-to-end domination of the seminorm, plus the functional's bound.

    Per test function in ``fs``, two certificates in this order.  First:
    the (n, m) seminorm, n the cover's level, is at most the assembled
    constant times the weighted integral of the functional over the union
    of outer balls.  Second: the functional is uniformly bounded by the
    composed higher seminorm of f.  Both are evaluated at two quadrature
    resolutions.
    """
    if m < 1:
        raise ValueError("the domination chain is assembled for m >= 1")
    d, family, n = cover.dimension, cover.family, cover.level

    D, target, d_factors = ball_weight_constant(family, calc, n, 1, d,
                                                ring=cover.level)
    a1_target = family.constant(1, target, cover.level)
    c0 = 16.0 ** (d * m) * D * a1_target
    p = calc.apply(1, target)
    if p != calc.quad_weight_index(n, d):
        raise RuntimeError(f"quadrature weight index {p} disagrees with the "
                           f"index calculus ({calc.quad_weight_index(n, d)})")
    a2 = family.constant(2, p, cover.level + 1)

    func = build_functional(partition, cover, calc, m)

    expand = float(cover.rho.max())
    quad_box = Box(tuple(lo - expand for lo in cover.box.lower),
                   tuple(hi + expand for hi in cover.box.upper))

    # integrals[i][r] and sup_j[i]: test function i, resolution r
    integrals = [[] for _ in fs]
    sup_j = [0.0] * len(fs)
    for res in (quad_resolution, quad_resolution / 2.0):
        mids = union_cell_midpoints(cover, quad_box, res)
        jvals_all = np.abs(func.values(mids, fs))
        psi = family.psi_at(p, mids.points)
        for i, jvals in enumerate(jvals_all):
            sup_j[i] = max(sup_j[i], float(jvals.max()))
            integrals[i].append(_midpoint_integral(jvals * psi, res, d))

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
    sem_grid = cover.domain.sample_ring(q + 1, quad_resolution * 4, quad_box)

    certs = []
    for f, (coarse, fine), sup_f in zip(fs, integrals, sup_j):
        lhs = seminorm(f, family, n, m, check_grid)
        constants = {
            "C0": c0, "A2_at_p": a2, "p": p,
            "nu_index_in_functional": func.nu_index,
            "D": D, "D_factors": [list(fct) for fct in d_factors],
            "A1_closing": a1_target,
        }
        stable = abs(fine - coarse) <= STABILITY_RTOL * max(abs(fine), 1e-300)
        rhs_values = [c0 * a2 * v for v in (coarse, fine)]
        if not stable:
            cert10 = Certificate(
                name=f"domination[{family.name},{f.name},n={n},m={m}]",
                claim="chain.seminorm_domination",
                verdict=INCONCLUSIVE,
                measured=lhs,
                constants=constants,
                resolutions={"quadrature": quad_resolution},
                details={"integrals": [coarse, fine],
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
                details={"integrals": [coarse, fine]},
            )

        high_sem = seminorm(f, family, q + 1, d * (m + 1), sem_grid)
        bound11 = c1 * d1 * a1_last * high_sem
        ok11 = sup_f <= bound11 * (1.0 + tol)
        cert11 = Certificate(
            name=f"functional_bound[{family.name},{f.name},n={n},m={m}]",
            claim="chain.functional_uniform_bound",
            verdict=PASS if ok11 else FAIL,
            measured=sup_f,
            bound=bound11,
            slack=bound11 - sup_f,
            constants={"C1": c1, "D1": d1, "A1_closing": a1_last, "q": q,
                       "seminorm_order": d * (m + 1),
                       "D1_factors": [list(fct) for fct in d1_factors]},
            resolutions={"functional_points": "union cell midpoints at both "
                                              "quadrature resolutions",
                         "seminorm_points": int(len(sem_grid))},
            details={"high_seminorm": high_sem},
        )
        certs += [cert10, cert11]
    return certs
