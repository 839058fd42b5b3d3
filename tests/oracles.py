"""Slow reference implementations that the batch code paths are tested against.

Each oracle makes the same floating-point comparisons as the code under
test, one pair at a time, so results must agree exactly.
"""

import numpy as np


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
