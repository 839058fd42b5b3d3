"""Acceptance suite: every shipped quantitative guarantee, one test per
criterion, each printing a single PASS/FAIL line.

Desk scale throughout: dimensions 1 and 2, levels n <= 3, orders m <= 2.
"""

import json
import time

import numpy as np
import pytest

from covercert import (Box, BoxRegion, IndexCalculus, MuSpec, RadiusOracle,
                       boundary_family, build_cover, build_partition,
                       certify_partition, check_omega, constant_exhaustion,
                       constant_weight_family, domination_certificate,
                       expanding_boxes, full_space, make_exp_family,
                       neighbor_sets, overlap_profile, schwartz_family,
                       shipped_suite, verify_ball_weight_bound,
                       verify_covering, verify_disjoint_supports,
                       verify_integral_bound, with_extra_center,
                       without_center)
from covercert.bumps import function_values, partition_partials
from covercert.cli import main as cli_main
from covercert.domains import Lattice
from covercert.cover import separation_holds
from oracles import greedy_naive, point_grids


def announce(criterion: int, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {verdict} — {detail}")
    assert ok, detail


def build_configuration(name):
    if name == "schwartz_d1":
        dom = full_space(1)
        fam = schwartz_family(dom)
        box = Box((-4.0,), (4.0,))
        res = 1e-3
    elif name == "schwartz_d2":
        dom = full_space(2)
        fam = schwartz_family(dom)
        box = Box((-1.5, -1.5), (1.5, 1.5))
        res = 1e-2
    elif name == "boundary_d1":
        dom = constant_exhaustion(BoxRegion(Box((0.0,), (1.0,))), name="unit")
        fam = boundary_family(dom)
        box = Box((0.125,), (0.875,))
        res = 1e-3
    else:
        dom = constant_exhaustion(BoxRegion(Box((0.0, 0.0), (1.0, 1.0))),
                                  name="unit2")
        fam = boundary_family(dom)
        box = Box((0.125, 0.125), (0.875, 0.875))
        res = 1e-2
    return dom, fam, box, res


CONFIG_NAMES = ["schwartz_d1", "schwartz_d2", "boundary_d1", "boundary_d2"]


@pytest.fixture(scope="module")
def covers():
    """Cover + verification lattice for each configuration, with build+check
    time."""
    out = {}
    for name in CONFIG_NAMES:
        dom, fam, box, res = build_configuration(name)
        t0 = time.perf_counter()
        cover = build_cover(fam, dom, 1, res, box=box)
        lattice = dom.ring_lattice(1, res, box)
        cov_cert = verify_covering(cover, lattice)
        sep_ok, _ = separation_holds(cover)
        over_cert = overlap_profile(cover, lattice)
        nb_cert = neighbor_sets(cover)
        elapsed = time.perf_counter() - t0
        out[name] = dict(domain=dom, family=fam, box=box, res=res,
                         cover=cover, lattice=lattice, covering=cov_cert,
                         separation=sep_ok, overlap=over_cert,
                         neighbors=nb_cert, seconds=elapsed)
    return out


@pytest.fixture(scope="module")
def partitions(covers):
    out = {}
    for name in CONFIG_NAMES:
        state = covers[name]
        out[name] = build_partition(state["cover"], order=6)
    return out


def test_criterion_1_cover_certificates(covers):
    problems = []
    for name in CONFIG_NAMES:
        state = covers[name]
        if state["covering"].verdict != "pass":
            problems.append(f"{name}: covering failed")
        if not state["separation"]:
            problems.append(f"{name}: separation violated")
        if state["overlap"].verdict != "pass":
            problems.append(f"{name}: overlap bound violated")
        if state["neighbors"].verdict != "pass":
            problems.append(f"{name}: neighbor bound violated")
        if state["seconds"] > 60.0:
            problems.append(f"{name}: took {state['seconds']:.1f}s > 60s")
    detail = "; ".join(
        f"{n}={covers[n]['seconds']:.1f}s/K={covers[n]['cover'].size}"
        for n in CONFIG_NAMES)
    announce(1, not problems, problems or f"cover certificates clean ({detail})")


def test_criterion_2_partition_certificates(covers, partitions):
    problems = []
    for name in CONFIG_NAMES:
        state = covers[name]
        d = state["cover"].dimension
        count = 1000 if d == 1 else 10000
        per_axis = int(np.ceil(count ** (1.0 / d)))
        axes = [np.linspace(state["box"].lower[i] + 1e-6,
                            state["box"].upper[i] - 1e-6, per_axis)
                for i in range(d)]
        grid = Lattice.of(axes)
        assert len(grid.points) >= count
        alpha_max = 3 if d == 1 else 2
        certs = certify_partition(partitions[name], state["cover"],
                                  alpha_max, grid)
        by_claim = {c.claim: c for c in certs}
        sum_cert = by_claim["partition.sum_to_one"]
        if sum_cert.verdict != "pass" or sum_cert.measured > 1e-9:
            problems.append(f"{name}: sum-to-one off by {sum_cert.measured}")
        if by_claim["partition.support_in_ball"].verdict != "pass":
            problems.append(f"{name}: support leaked outside a ball")
        deriv = by_claim["partition.derivative_bound"]
        if deriv.verdict != "pass":
            problems.append(f"{name}: derivative bound violated ({deriv.details})")
    announce(2, not problems,
             problems or "partition sum/support/derivative certificates clean")


def test_criterion_3_derivative_convergence_order(covers, partitions):
    state = covers["schwartz_d1"]
    partition = partitions["schwartz_d1"]
    k = len(partition) // 2
    cuts = [k, *partition[k].blockers]
    knots = np.concatenate([partition.profile.knots * partition.scales[c]
                            + partition.centers[c, 0] for c in cuts])
    hs = (1e-3, 1e-4, 1e-5)

    def value(x):
        return function_values(partition, point_grids([[x]]), [k])[0]

    def slope_at(x):
        return partition_partials(partition, point_grids([[x]]), [k],
                                  [(0,), (1,)])[(1,)][0]

    rng = np.random.default_rng(2024)
    pts = []
    z = partition.centers[k, 0]
    while len(pts) < 50:
        x = rng.uniform(z - 0.95, z + 0.95)
        if np.abs(knots - x).min() < 2e-3:
            continue
        if abs(slope_at(x)) < 1e-3:
            continue    # flat spots carry no information about the order
        pts.append(x)
    pts = np.asarray(pts)

    errors = []
    for h in hs:
        worst = 0.0
        for x in pts:
            exact = slope_at(x)
            fd = (value(x + h) - value(x - h)) / (2 * h)
            worst = max(worst, abs(fd - exact))
        errors.append(worst)
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    announce(3, slope >= 1.9,
             f"central-difference convergence order {slope:.3f} over h={hs}")


def test_criterion_4_omega_witnesses():
    problems = []
    pairs_seen = []
    for d in (1, 2):
        dom = full_space(d)
        fam = schwartz_family(dom)
        if d == 1:
            grid = np.linspace(-4.0, 4.0, 2001)[:, None]
            offsets = 9
        else:
            axis = np.linspace(-1.5, 1.5, 41)
            mesh = np.meshgrid(axis, axis, indexing="ij")
            grid = np.stack([v.ravel() for v in mesh], axis=1)
            offsets = 5
        for n in (1, 2, 3):
            cert = check_omega(fam, "omega1", n, 1, grid,
                               offset_count=offsets, tol=1e-9)
            pairs_seen.append(cert.resolutions["sample_pairs"])
            bound = (1.0 + 8.0 * d) ** (n / 2.0)
            if cert.verdict != "pass" or abs(cert.bound - bound) > 1e-12:
                problems.append(f"schwartz d={d} n={n}: ratio "
                                f"{cert.measured} vs {bound}")

    dom = constant_exhaustion(BoxRegion(Box((0.0,), (1.0,))), name="unit")
    fam = boundary_family(dom)
    grid = np.linspace(0.02, 0.98, 1201)[:, None]
    for n in (1, 2, 3):
        one = check_omega(fam, "omega1", n, 1, grid, offset_count=9, tol=1e-9)
        pairs_seen.append(one.resolutions["sample_pairs"])
        if one.verdict != "pass" or abs(one.bound - 3.0 ** n) > 1e-12:
            problems.append(f"boundary omega1 n={n}: {one.measured} vs 3^{n}")
        three = check_omega(fam, "omega3", n, 1, grid, tol=1e-9)
        if three.verdict != "pass" or three.bound != 2.0 \
                or three.details["target_index"] != n + 1:
            problems.append(f"boundary omega3 n={n} witness mismatch")

    if min(pairs_seen) < 10 ** 4:
        problems.append(f"too few sample pairs: {min(pairs_seen)}")
    announce(4, not problems,
             problems or f"omega witnesses hold (>= {min(pairs_seen)} pairs each)")


def test_criterion_5_iterated_radii():
    problems = []

    # constant radii: the closed form is exact at every depth
    fam = schwartz_family(full_space(2))
    oracle = RadiusOracle(fam, fam.domain, 1, 0.1,
                          box=Box((-2.0, -2.0), (2.0, 2.0)))
    for k in range(4):
        if oracle.value(k, np.array([0.7, -0.4])) != 1.0:
            problems.append(f"constant closed form broken at depth {k}")

    # rational-decay radius in one dimension: depth-1 value at the origin
    res = 1e-3
    fam = make_exp_family(MuSpec("power_abs", power=1), lambda n: float(n),
                          full_space(1))
    oracle = RadiusOracle(fam, fam.domain, 1, res, box=Box((-1.5,), (1.5,)))
    value = oracle.value(1, np.array([0.0]))
    if abs(value - 0.5) > 2 * res:
        problems.append(f"depth-1 value {value} not within {2 * res} of 0.5")

    # depth monotonicity at every evaluated lattice point
    for k in (0, 1, 2):
        gap = oracle.lattice_values(k + 1) - oracle.lattice_values(k)
        if gap.max() > 1e-15:
            problems.append(f"depth monotonicity violated at k={k}")

    announce(5, not problems,
             problems or f"iterated radii certified (depth-1 at origin={value:.4f})")


def test_criterion_6_inequality_chain():
    t0 = time.perf_counter()
    problems = []

    def run_chain(label, dom, fam, box, candidate_res, quad_res):
        cover = build_cover(fam, dom, 1, candidate_res, box=box)
        partition = build_partition(cover, order=6)
        calc = IndexCalculus(fam)
        grid = dom.sample_ring(1, 1e-3, box)
        cert = verify_ball_weight_bound(cover, calc, m=1, j=1,
                                        p_exp=cover.dimension)
        if cert.verdict != "pass":
            problems.append(f"{label}: ball weight bound {cert.verdict}")
        cert = verify_disjoint_supports(cover, partition)
        if cert.verdict != "pass":
            problems.append(f"{label}: disjoint supports {cert.verdict}")
        fs = shipped_suite(dom.dimension)
        c5s = verify_integral_bound(fs, partition, cover, 1, quad_res)
        c10s = domination_certificate(fs, 1, cover, partition, calc, grid,
                                      quad_res)
        for f, c5, c10, c11 in zip(fs, c5s, c10s[::2], c10s[1::2]):
            for tag, cert in (("integral", c5), ("domination", c10),
                              ("functional", c11)):
                if cert.verdict != "pass":
                    problems.append(f"{label}/{f.name}: {tag} {cert.verdict}")

    dom = full_space(1)
    run_chain("schwartz_d1", dom, schwartz_family(dom), Box((-4.0,), (4.0,)),
              5e-3, 5e-4)
    dom = expanding_boxes(1)
    run_chain("unit_weights_d1", dom, constant_weight_family(dom),
              Box((-1.0,), (1.0,)), 5e-3, 5e-4)

    elapsed = time.perf_counter() - t0
    if elapsed > 300.0:
        problems.append(f"chain took {elapsed:.0f}s > 300s")
    announce(6, not problems,
             problems or f"full inequality chain passes at both resolutions "
                         f"({elapsed:.0f}s total)")


def test_criterion_7_negative_controls():
    problems = []
    dom = expanding_boxes(1)
    fam = constant_weight_family(dom)
    cover = build_cover(fam, dom, 1, 5e-3, box=Box((-1.0,), (1.0,)))
    lattice = dom.ring_lattice(1, 1e-3, cover.box)
    grid = lattice.points

    broken = without_center(cover, cover.size // 2)
    cert = verify_covering(broken, lattice)
    if cert.verdict != "fail" or "witness_uncovered_point" not in cert.details:
        problems.append("dropped center did not fail covering with a witness")

    crowded = with_extra_center(cover, cover.centers[0] + cover.r1[0] / 8.0)
    cert = verify_disjoint_supports(crowded)
    if cert.verdict != "fail" or "witness_overlap" not in cert.details:
        problems.append("shrunk separation did not fail core disjointness")

    honest = check_omega(fam, "omega1", 1, 1, grid[::8])
    cheat = check_omega(fam, "omega1", 1, 1, grid[::8],
                        claimed_bound=0.5 * honest.measured)
    if cheat.verdict != "fail" or "witness_point" not in cheat.details:
        problems.append("deflated constant did not fail the omega check")

    announce(7, not problems,
             problems or "all three negative controls fail with witnesses")


def test_criterion_8_determinism_and_performance(tmp_path):
    problems = []

    config = {
        "name": "determinism",
        "domain": {"kind": "expanding_boxes", "dimension": 1},
        "family": {"kind": "constant"},
        "n": 1, "m": 1,
        "truncation": {"lower": [-1.0], "upper": [1.0]},
        "resolutions": {"candidate": 0.005, "check": 0.002, "quadrature": 0.001},
        "smoothness_order": 5,
        "alpha_max": 2,
        "suite": ["omega", "radii", "cover", "partition"],
        "figures": True,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    for out in ("a", "b"):
        code = cli_main(["--config", str(cfg_path),
                         "--out", str(tmp_path / out)])
        if code != 0:
            problems.append(f"determinism run exited {code}")
    rep_a = json.loads((tmp_path / "a/report.json").read_text())
    rep_b = json.loads((tmp_path / "b/report.json").read_text())
    rep_a.pop("generated_at")
    rep_b.pop("generated_at")
    if rep_a != rep_b:
        problems.append("reports differ beyond the timestamp")
    if (tmp_path / "a/cover.csv").read_text() != \
            (tmp_path / "b/cover.csv").read_text():
        problems.append("figure data differs between identical runs")

    dom = expanding_boxes(2)
    fam = constant_weight_family(dom, radius_value=1.0 / 16.0)
    box = Box((-1.0, -1.0), (1.0, 1.0))
    res = 0.00625
    n_candidates = len(dom.sample_ring(1, res, box))
    if n_candidates < 10 ** 5:
        problems.append(f"only {n_candidates} candidates")
    t0 = time.perf_counter()
    fast = build_cover(fam, dom, 1, res, box=box)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    candidates = dom.sample_ring(1, res, box)
    slow = candidates[greedy_naive(candidates,
                                   np.full(len(candidates), fast.r1[0]))]
    t_slow = time.perf_counter() - t0
    if not np.array_equal(fast.centers, slow):
        problems.append("greedy packing deviates from the naive reference")
    speedup = t_slow / t_fast
    if speedup < 5.0:
        problems.append(f"speedup {speedup:.1f}x < 5x "
                        f"(packing {t_fast:.2f}s, naive {t_slow:.2f}s)")

    announce(8, not problems,
             problems or f"deterministic reports; greedy packing {speedup:.1f}x "
                         f"faster on {n_candidates} candidates")
