"""Slow reference implementations that the batch code paths are tested against.

Each oracle makes the same floating-point comparisons and arithmetic as the
code under test, one pair, piece, interval or multi-index at a time, so
results must agree exactly.
"""

import numpy as np
from numpy.polynomial import polynomial as npoly

from covercert.multiindex import indices_below, multi_binom
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


def separation_witness(cover):
    """First pair k < j closer than half the larger depth-1 radius, or None."""
    for k in range(cover.size):
        for j in range(k + 1, cover.size):
            dist = float(np.abs(cover.centers[k] - cover.centers[j]).max())
            if dist < max(cover.r1[k], cover.r1[j]) / 2.0:
                return (k, j)
    return None


def core_overlap_witness(cover, tol=0.0):
    """First pair k < j of overlapping core boxes, as the disjointness
    certificate reports it, or None."""
    half = cover.core_halfwidths
    for k in range(cover.size):
        for j in range(k + 1, cover.size):
            gap = float(np.abs(cover.centers[k] - cover.centers[j]).max())
            if gap < half[k] + half[j] - tol:
                return {"pair": [k, j], "gap": gap,
                        "required": float(half[k] + half[j])}
    return None


def pairs_near(cover, pts, reach):
    """(i, k, distance) for every point-center pair within reach."""
    out = []
    for i, x in enumerate(pts):
        for k in range(cover.size):
            dist = float(np.abs(x - cover.centers[k]).max())
            if dist <= reach:
                out.append((i, k, dist))
    return out


def balls_containing(cover, x, inner=False):
    scale = 0.5 if inner else 1.0
    return [k for k in range(cover.size)
            if np.abs(x - cover.centers[k]).max() < scale * cover.rho[k]]


def locate_core(cover, zeta):
    for k in range(cover.size):
        if np.abs(zeta - cover.centers[k]).max() < cover.r1[k] / 8.0:
            return k
    return None


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


def partials_table(fn, pts, alpha):
    """PartitionFn.partials_table with one cutoff evaluation per beta."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    betas = indices_below(alpha)
    zeros = np.zeros(len(pts))
    mask = fn.cutoff.contains_support(pts)
    if not mask.any():
        return {beta: zeros for beta in betas}
    sub = pts[mask]
    acc = {beta: np.atleast_1d(fn.cutoff.partial(sub, beta)) for beta in betas}
    for _, blocker in fn.blockers:
        bmask = blocker.contains_support(sub)
        if not bmask.any():
            continue
        pts_b = sub[bmask]
        t = {}
        for beta in betas:
            val = np.atleast_1d(blocker.partial(pts_b, beta))
            t[beta] = (1.0 if sum(beta) == 0 else 0.0) - val
        new = {}
        for beta in betas:
            total = np.zeros(len(pts_b))
            for gamma in indices_below(beta):
                rest = tuple(b - g for b, g in zip(beta, gamma))
                total += multi_binom(beta, gamma) * acc[gamma][bmask] * t[rest]
            new[beta] = total
        for beta in betas:
            acc[beta][bmask] = new[beta]
    out = {}
    for beta in betas:
        full = zeros.copy()
        full[mask] = acc[beta]
        out[beta] = full
    return out
