"""The benchmark's workloads and the seed rule that shifts them.

Each workload is one covercert run configuration, scaled so that one run
takes a few seconds on a 2-core host while the layer it is meant to
stress keeps the same share of the run as in the full-size config it is
cut from:

* ``partition-d2``: ``boundary_d2`` on the truncation box [0.2, 0.45]^2.
  Partition evaluation (piecewise polynomials, partials tables, partition
  certificates) is about 70% of the run.
* ``chain-d1``: ``schwartz_d1`` on [-2.05, 2.05] with quadrature 0.004.  The
  certified inequality chain (integral bound, domination) is about 70% of
  the run; the radius is closed form, so the radius lattice does no work.
* ``radii-d2``: ``boundary_d2`` suites ``radii`` and ``cover`` only, on
  [0.13, 0.405]^2 with candidate resolution 0.00625.  The grid radius
  oracle does most of the work: bulk level builds plus the point queries
  (``value``, ``snap``) of the radius chain.  No partition is built.

A fourth workload, ``cover-d2`` (constant radius, K=289, no lattice), was
left out: host-speed drift on the 2-core machine needs runs longer than
four workloads leave time for.  Its layers are still measured: ball
queries and closed-form radius queries under chain-d1's functional, ball
queries, neighbor sets and the all-pairs separation scan on radii-d2.

Seed rule: seed 0 is the config as written.  Any other seed translates the
truncation box on every axis by ``phase * candidate_resolution`` with
``phase = ((seed - 1) % 15 + 1) / 16``, so every lattice point moves while
the work changes by a few percent.  There are 16 distinct inputs per
workload, and ``reference/`` stores the expected certificates of each.
"""

from __future__ import annotations

import copy

PHASES = 16

_BOUNDARY_D2 = {
    "domain": {"kind": "bounded_box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    "family": {"kind": "boundary"},
    "n": 1,
    "m": 1,
    "smoothness_order": 6,
    "alpha_max": 2,
    "offset_count": 5,
    "tolerance": 1e-9,
}

CONFIGS = {
    "partition-d2": {
        **_BOUNDARY_D2,
        "name": "partition-d2",
        "truncation": {"lower": [0.2, 0.2], "upper": [0.45, 0.45]},
        "resolutions": {"candidate": 0.01, "check": 0.01, "quadrature": 0.01},
        "suite": ["omega", "psi", "radii", "cover", "partition"],
        "figures": True,
    },
    "chain-d1": {
        "name": "chain-d1",
        "domain": {"kind": "full_space", "dimension": 1},
        "family": {"kind": "schwartz"},
        "n": 1,
        "m": 1,
        "truncation": {"lower": [-2.05], "upper": [2.05]},
        "psi_box": {"lower": [-300.0], "upper": [300.0]},
        "resolutions": {"candidate": 0.001, "check": 0.001,
                        "quadrature": 0.004, "psi": 0.05},
        "smoothness_order": 6,
        "alpha_max": 3,
        "offset_count": 9,
        "tolerance": 1e-9,
        "suite": ["omega", "psi", "radii", "cover", "partition", "chain"],
        "test_functions": ["gaussian", "coord_gaussian", "spline_bump"],
        "figures": True,
    },
    "radii-d2": {
        **_BOUNDARY_D2,
        "name": "radii-d2",
        "truncation": {"lower": [0.13, 0.13], "upper": [0.405, 0.405]},
        "resolutions": {"candidate": 0.00625, "check": 0.01, "quadrature": 0.01},
        "suite": ["radii", "cover"],
        "figures": False,
    },
}


def phase(seed: int) -> int:
    """Index in 0..PHASES-1 of the box shift that ``seed`` selects."""
    return 0 if seed == 0 else (seed - 1) % (PHASES - 1) + 1


def make_config(workload: str, seed: int) -> dict:
    """The run configuration of ``workload`` under ``seed``."""
    config = copy.deepcopy(CONFIGS[workload])
    shift = phase(seed) / PHASES * config["resolutions"]["candidate"]
    box = config["truncation"]
    box["lower"] = [v + shift for v in box["lower"]]
    box["upper"] = [v + shift for v in box["upper"]]
    return config
