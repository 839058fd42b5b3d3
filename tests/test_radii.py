import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from covercert import cover as cover_mod
from covercert import radii
from covercert import (Box, BoxRegion, MuSpec, RadiusOracle,
                       RefinementRequiredError, boundary_family, build_cover,
                       chain_certificate, constant_exhaustion, full_space,
                       make_exp_family, positivity_certificate,
                       schwartz_family)
from covercert.cover import Cover, _chain_collect


def brute_force_depth1(radius_fn, z, lo, hi, step):
    """Independent oracle: min of the radius over qualifying grid points."""
    etas = np.arange(lo, hi + step / 2, step)
    r_eta = radius_fn(etas)
    r_z = radius_fn(np.array([z]))[0]
    dist = np.abs(etas - z)
    qualify = (dist <= r_eta) | (dist <= r_z)
    return float(r_eta[qualify].min())


@pytest.fixture(scope="module")
def decaying_family():
    # scale-one rational decay: radius (1 + x^2)^(-1) on the whole line
    return make_exp_family(MuSpec("power_abs", power=1),
                           lambda n: float(n), full_space(1))


class TestClosedForm:
    def test_constant_radius_is_exact_at_every_depth(self):
        fam = schwartz_family(full_space(2))
        oracle = RadiusOracle(fam, fam.domain, 1, 0.1,
                              box=Box((-2.0, -2.0), (2.0, 2.0)))
        assert oracle.strategy == "closed_form_constant"
        for k in range(4):
            assert oracle.value(k, np.array([0.3, -1.1])) == 1.0


class TestGridOracle:
    def test_rational_decay_depth1_at_origin(self, decaying_family):
        fam = decaying_family
        res = 1e-3
        oracle = RadiusOracle(fam, fam.domain, 1, res, box=Box((-1.5,), (1.5,)))
        value = oracle.value(1, np.array([0.0]))
        # independent brute force on its own grid
        brute = brute_force_depth1(
            lambda t: (1.0 + t * t) ** -1.0, 0.0, -1.5, 1.5, 1e-4)
        assert value == pytest.approx(brute, abs=2e-3)
        # the qualifying set is [-1, 1], so the infimum is r(1) = 1/2
        assert abs(value - 0.5) <= 2 * res

    def test_boundary_family_depth1_midpoint(self):
        dom = constant_exhaustion(BoxRegion(Box((0.0,), (1.0,))), name="unit")
        fam = boundary_family(dom)
        res = 1e-4
        # the qualifying set around 0.5 is [1/4, 3/4], well inside this box
        oracle = RadiusOracle(fam, dom, 1, res, box=Box((0.1,), (0.9,)))
        value = oracle.value(1, np.array([0.5]))

        def radius(t):
            return np.minimum(np.minimum(t, 1.0 - t) / 2.0, 1.0)

        brute = brute_force_depth1(radius, 0.5, 0.1, 0.9, 1e-5)
        assert value == pytest.approx(brute, abs=2e-4)
        # qualifying set is [1/4, 3/4]; infimum r(1/4) = 1/8
        assert value == pytest.approx(0.125, abs=2 * res)

    def test_sampled_value_is_upper_bound(self, decaying_family):
        fam = decaying_family
        coarse = RadiusOracle(fam, fam.domain, 1, 2e-2, box=Box((-1.5,), (1.5,)))
        fine = RadiusOracle(fam, fam.domain, 1, 2e-3, box=Box((-1.5,), (1.5,)))
        z = np.array([0.35])
        assert coarse.value(1, z) >= fine.value(1, z) - 1e-12

    def test_depth_monotone_on_lattice_and_off(self, decaying_family):
        fam = decaying_family
        oracle = RadiusOracle(fam, fam.domain, 1, 5e-3, box=Box((-1.5,), (1.5,)))
        for k in (0, 1, 2):
            assert (oracle.lattice_values(k + 1)
                    <= oracle.lattice_values(k) + 1e-15).all()
        for z in (np.array([0.1234]), np.array([-0.777]), np.array([1.01])):
            vals = [oracle.value(k, z) for k in range(4)]
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_refinement_required_when_grid_too_coarse(self):
        dom = constant_exhaustion(BoxRegion(Box((0.0,), (1.0,))), name="unit")
        fam = boundary_family(dom)
        # near the box edge the radius drops to ~2.5e-3 < resolution
        with pytest.raises(RefinementRequiredError):
            RadiusOracle(fam, dom, 1, 1e-2, box=Box((5e-3,), (1.0,)))


class TestLowerBoundWitness:
    def test_radius_dominates_weight_quotient(self):
        # the third comparison inequality rearranges to a radius lower bound
        dom = constant_exhaustion(BoxRegion(Box((0.0,), (1.0,))), name="unit")
        fam = boundary_family(dom)
        pts = np.linspace(0.03, 0.97, 95)[:, None]
        lhs = fam.radius_at(1, pts)
        a3 = fam.constant(3, 2)
        rhs = fam.nu_at(2, pts) / (a3 * fam.nu_at(fam.index(3, 2), pts))
        assert (lhs >= rhs - 1e-12).all()


class TestPositivityCertificate:
    def test_constant_radii_pass(self):
        fam = schwartz_family(full_space(1))
        cert = positivity_certificate(fam, fam.domain, 1, 3, 0.1,
                                      box=Box((-2.0,), (2.0,)))
        assert cert.verdict == "pass"
        assert cert.measured == 1.0

    def test_boundary_family_pass_on_compact_subgrid(self):
        dom = constant_exhaustion(BoxRegion(Box((0.0,), (1.0,))), name="unit")
        fam = boundary_family(dom)
        cert = positivity_certificate(fam, dom, 1, 3, 5e-3,
                                      box=Box((0.125,), (0.875,)))
        assert cert.verdict == "pass"
        assert cert.measured > 0
        assert cert.constants["s_condition"] == "s3"

    def test_untagged_family_not_certified(self):
        fam = schwartz_family(full_space(1))
        untagged = dataclasses.replace(fam, s_condition="none")
        cert = positivity_certificate(untagged, fam.domain, 1, 2, 0.1,
                                      box=Box((-2.0,), (2.0,)))
        assert cert.verdict == "not-certified"


# Non-dyadic steps make the axis gaps inexact, so a radius that is a whole
# number of steps ties some gaps from above and others from below.
STEPS = (0.01, 0.02, 0.025, 0.03, 0.05, 1 / 16)
MAX_CELLS = {1: 40, 2: 14, 3: 6}


def checker_radius(k, x):
    """1/8 on the even squares of a grid of side 1/8, 1/32 on the odd ones:
    a radius whose levels are not monotone in the distance to anything."""
    parity = np.floor(np.asarray(x, dtype=float) * 8.0).sum(axis=-1) % 2
    return np.where(parity == 0, 0.125, 0.03125)


@st.composite
def grid_oracles(draw):
    """Grid oracles in d = 1..3: the boundary family of the unit box on
    lattice-aligned or shifted truncation boxes (r0 = dist/2 ties the gaps
    on aligned ones), a decaying radius on the whole space, or a
    checkerboard radius on a dyadic lattice (every distance exact)."""
    d = draw(st.integers(1, 3))
    res = draw(st.sampled_from(STEPS))
    kind = draw(st.sampled_from(["boundary", "decay", "checker"]))
    if kind == "checker":
        dom = constant_exhaustion(BoxRegion(Box((0.0,) * d, (1.0,) * d)),
                                  name="unit")
        fam = dataclasses.replace(boundary_family(dom), radius=checker_radius)
        res = draw(st.sampled_from([1 / 32, 1 / 64]))
        lower = [draw(st.integers(1, 24)) * res for _ in range(d)]
        upper = [min(lo + draw(st.integers(1, MAX_CELLS[d])) * res,
                     1.0 - res) for lo in lower]
    elif kind == "boundary":
        dom = constant_exhaustion(BoxRegion(Box((0.0,) * d, (1.0,) * d)),
                                  name="unit")
        fam = boundary_family(dom)
        lower, upper = [], []
        for _ in range(d):
            # r0 >= res needs a distance of at least 2 res to the boundary
            lo = (draw(st.integers(4, 8))
                  + draw(st.sampled_from([0.0, 0.0, 0.3, 0.5]))) * res
            count = draw(st.integers(1, MAX_CELLS[d]))
            lower.append(lo)
            upper.append(min(lo + count * res, 1.0 - 4 * res))
    else:
        fam = make_exp_family(MuSpec("power_abs", power=1),
                              lambda n: float(n), full_space(d))
        dom = fam.domain
        res = max(res, 0.05)
        lower = [draw(st.integers(-12, 0)) * 0.05 + draw(
            st.sampled_from([0.0, 0.013])) for _ in range(d)]
        upper = [lo + draw(st.integers(1, MAX_CELLS[d])) * res for lo in lower]
    return RadiusOracle(fam, dom, 1, res, box=Box(tuple(lower), tuple(upper)))


def query_points(oracle, draw):
    """Points on the lattice, within 1e-9 steps of it (both sides of the
    tolerance), half a step off it (whose distances tie radii exactly on
    dyadic lattices), off it, and outside the truncation box but in the
    ring."""
    d = oracle.domain.dimension
    res = oracle.resolution
    lattice = oracle.lattice_points()
    picks = draw(st.lists(st.integers(0, len(lattice) - 1), min_size=1,
                          max_size=6))
    on = lattice[picks]
    near = [on + sign * scale * res * np.eye(d)[axis]
            for sign in (1, -1) for scale in (0.4e-9, 3e-9, 0.5)
            for axis in range(d)]
    lo = np.asarray(oracle.box.lower)
    hi = np.asarray(oracle.box.upper)
    seeds = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seeds)
    inside = lo + rng.random((6, d)) * (hi - lo)
    around = lo - 3 * res + rng.random((6, d)) * (hi - lo + 6 * res)
    pts = np.vstack([on, *near, inside, around])
    return pts[oracle.domain.ring(oracle.n).contains(pts)]


class TestAgainstWindowScan:
    @settings(max_examples=40, deadline=None)
    @given(grid_oracles())
    def test_levels_equal_per_cell_scan(self, oracle):
        for k in (1, 2, 3):
            assert oracle._level(k).tobytes() == \
                oracles.radius_level(oracle, k).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(grid_oracles(), st.data())
    def test_values_equal_recursion(self, oracle, data):
        pts = query_points(oracle, data.draw)
        levels = [oracles.radius_level(oracle, k) for k in range(4)]
        for k in range(4):
            expected = [oracles.radius_value(oracle, k, z, levels) for z in pts]
            got = oracle.values(k, pts)
            assert got.tobytes() == np.asarray(expected).tobytes()
            assert [oracle.value(k, z) for z in pts[:3]] == expected[:3]

    @pytest.mark.parametrize("k, radius, expected", [
        # r0(y) = 15/128 = |y - z| exactly, and only cells from y on reach
        # the r0 = 1/64 region within their radius
        (2, lambda x: np.where(x < 0.5, 1 / 32,
                               np.where(x < 46 / 64, 15 / 128, 1 / 64)),
         1 / 64),
        # r0(z) = 15/128 = |y - z| exactly, and y is the first r0 = 1/64 cell
        (1, lambda x: np.where(x < 39 / 64, 15 / 128, 1 / 64), 1 / 64),
    ], ids=["neighbour_radius", "own_radius"])
    def test_distance_tying_a_radius_qualifies_off_the_lattice(
            self, k, radius, expected):
        # z sits half a step off the 1/64 lattice; y = z + 15/128 = 39/64
        dom = constant_exhaustion(BoxRegion(Box((0.0,), (1.0,))), name="unit")
        fam = dataclasses.replace(
            boundary_family(dom),
            radius=lambda n, x: radius(np.asarray(x, dtype=float)[..., 0]))
        oracle = RadiusOracle(fam, dom, 1, 1 / 64, box=Box((0.25,), (0.875,)))
        z = np.array([0.5 - 1 / 128])
        levels = [oracles.radius_level(oracle, j) for j in range(k + 1)]
        assert oracle.value(k, z) == oracles.radius_value(oracle, k, z, levels)
        assert oracle.value(k, z) == expected

    def test_off_lattice_window_wider_than_the_lattice(self):
        # r0 is half the distance to the unit square's boundary, about 0.2,
        # so each window would span some 45 cells on a lattice of 11 x 11
        dom = constant_exhaustion(BoxRegion(Box((0.0, 0.0), (1.0, 1.0))),
                                  name="unit")
        oracle = RadiusOracle(boundary_family(dom), dom, 1, 0.01,
                              box=Box((0.4, 0.42), (0.5, 0.52)))
        pts = np.array([[0.3037, 0.5561], [0.6102, 0.3449], [0.4533, 0.6291],
                        [0.2518, 0.2765], [0.7219, 0.4783], [0.4451, 0.4617]])
        r0 = oracle.family.radius(1, pts)
        pad = np.ceil(np.maximum(oracle._reach, r0) / 0.01 + 1e-12).max()
        assert (2 * pad + 1 > np.array(oracle._shape)).all()
        assert all(oracles.exact_index(oracle, z) is None for z in pts)
        levels = [oracles.radius_level(oracle, k) for k in range(4)]
        for k in (1, 2, 3):
            expected = [oracles.radius_value(oracle, k, z, levels) for z in pts]
            assert oracle.values(k, pts).tobytes() == \
                np.asarray(expected).tobytes()

    def test_shipped_boundary_d1_lattice_needs_few_widths(self):
        dom = constant_exhaustion(BoxRegion(Box((0.0,), (1.0,))), name="unit")
        oracle = RadiusOracle(boundary_family(dom), dom, 1, 0.001,
                              box=Box((0.125,), (0.875,)))
        assert oracle.lattice_values(1).tobytes() == \
            oracles.radius_level(oracle, 1)[oracle._inside].tobytes()
        # the stacked table holds one copy of the lattice per width in use
        _, widths, _ = oracle._window_plan()
        assert widths == [[32, 64, 128, 256]]


@pytest.mark.parametrize("budget", [1, 2, 7])
def test_neighbour_pairs_in_chunks(monkeypatch, budget):
    # the mirror image of the neighbour_radius case above: the cells up to
    # y = 25/64 hold level 1/64, and of those only y reaches z = 0.5 + 1/128
    # (r0(y) = 15/128 = z - y), so the pair that decides z comes last among
    # its candidates
    dom = constant_exhaustion(BoxRegion(Box((0.0,), (1.0,))), name="unit")
    radius = lambda x: np.where(x <= 18 / 64, 1 / 64,
                                np.where(x <= 0.5, 15 / 128, 1 / 32))
    fam = dataclasses.replace(
        boundary_family(dom),
        radius=lambda n, x: radius(np.asarray(x, dtype=float)[..., 0]))
    oracle = RadiusOracle(fam, dom, 1, 1 / 64, box=Box((0.125,), (0.75,)))
    pts = np.array([[0.5 + 1 / 128], [0.5 + 3 / 128], [0.3 + 1e-3],
                    [0.45 + 1 / 128]])
    levels = [oracles.radius_level(oracle, k) for k in range(3)]
    expected = [oracles.radius_value(oracle, 2, z, levels) for z in pts]
    assert expected[0] == 1 / 64
    monkeypatch.setattr(radii, "_QUERY_PAIRS", budget)
    assert oracle.values(2, pts).tobytes() == np.asarray(expected).tobytes()


@st.composite
def lattice_boxes(draw):
    """Values on a lattice in d = 1..3 (some ``+inf``), and boxes cut to the
    lattice (some one cell wide) with a value each."""
    d = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 9), min_size=d, max_size=d)))
    # the minimum of 0.0 and -0.0 may be either, so zeros come unsigned
    value = (st.floats(-4.0, 4.0, width=16).map(lambda v: v + 0.0)
             | st.just(np.inf))
    cells = int(np.prod(shape))
    a = np.array(draw(st.lists(value, min_size=cells, max_size=cells)))
    n = draw(st.integers(1, 12))
    lo, hi = np.empty((d, n), np.intp), np.empty((d, n), np.intp)
    for axis, m in enumerate(shape):
        for k in range(n):
            lo[axis, k] = draw(st.integers(0, m - 1))
            hi[axis, k] = draw(st.sampled_from([lo[axis, k], m - 1])
                               | st.integers(lo[axis, k], m - 1))
    sent = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    return a.reshape(shape), lo, hi, sent


@settings(max_examples=150, deadline=None)
@given(lattice_boxes())
def test_box_minima_equal_per_cell_minimum(case):
    a, lo, hi, sent = case
    before = a.tobytes()
    widths, corners = radii._plan_boxes(lo, hi, a.shape)
    got = radii._least_in_boxes(a, widths, corners)
    assert a.tobytes() == before
    boxes = [tuple(slice(f, t + 1) for f, t in zip(lo[:, k], hi[:, k]))
             for k in range(lo.shape[1])]
    assert got.tobytes() == np.array([a[box].min() for box in boxes]).tobytes()
    # every cell receives the least value of the boxes that hold it
    spread = radii._spread_least(sent, widths, corners, a.shape)
    expected = np.full(a.shape, np.inf)
    for box, value in zip(boxes, sent):
        expected[box] = np.minimum(expected[box], value)
    assert spread.tobytes() == expected.tobytes()


def tampered_covers():
    """Covers whose radius chain fails at the oracle's resolution, and two
    whose chain holds."""
    out = []
    dom1 = constant_exhaustion(BoxRegion(Box((0.0,), (1.0,))), name="unit")
    fam1 = boundary_family(dom1)
    cover = build_cover(fam1, dom1, 1, 0.005, box=Box((0.05,), (0.95,)))
    out.append(dataclasses.replace(cover, rho=3.0 * cover.rho,
                                   tampered="rho tripled"))
    untampered = []
    for d, box, res in ((2, Box((0.2, 0.2), (0.45, 0.45)), 0.02),
                        (3, Box((0.3,) * 3, (0.4,) * 3), 0.025)):
        dom = constant_exhaustion(BoxRegion(Box((0.0,) * d, (1.0,) * d)),
                                  name="unit")
        fam = boundary_family(dom)
        cover = build_cover(fam, dom, 1, res, box=box)
        halved = dataclasses.replace(
            fam, radius=lambda k, x, fam=fam: 0.5 * fam.radius(k, x))
        out.append(dataclasses.replace(cover, family=halved,
                                       tampered="radius halved"))
        untampered.append(cover)
    return out + untampered


def closed_form_cover():
    fam = schwartz_family(full_space(2))
    return build_cover(fam, fam.domain, 1, 0.125,
                       box=Box((-1.5, -1.5), (1.5, 1.5)))


def expected_chain(cover):
    """chain_certificate's verdict, margin, first violations, refinement
    and cell count, from the pair-by-pair reference on the lattice."""
    bad, worst, cells = oracles.chain_cells(cover, cover.oracle)
    refined = bool(bad) and cover.oracle.strategy == "grid_oracle"
    if refined:
        finer = RadiusOracle(cover.family, cover.domain, cover.level,
                             cover.oracle.resolution / 2.0,
                             box=cover.oracle.box)
        bad, worst, cells = oracles.chain_cells(cover, finer)
    return ("fail" if bad else "pass"), worst, bad[:5], refined, cells


class TestChainAgainstPairLoop:
    @pytest.mark.parametrize("cover", tampered_covers() + [
        closed_form_cover()], ids=["rho_tripled_d1", "radius_halved_d2",
                                   "radius_halved_d3", "d2", "d3",
                                   "closed_form_d2"])
    def test_violations_worst_and_refinement(self, cover):
        cert = chain_certificate(cover)
        got = (cert.verdict, cert.measured, cert.details.get("violations", []),
               cert.resolutions["refined"], cert.resolutions["lattice_cells"])
        assert got == expected_chain(cover)
        if cover.tampered:
            assert cert.resolutions["refined"] and cert.verdict == "fail"

    @pytest.mark.parametrize("cover", tampered_covers()[:2] + [
        closed_form_cover()],
        ids=["rho_tripled_d1", "radius_halved_d2", "closed_form_d2"])
    def test_no_weaker_than_sampling(self, cover):
        # the sampled chain's points are lattice cells in both balls (or,
        # with a closed-form radius, points where every radius is the same)
        orcs = [cover.oracle]
        if cover.oracle.strategy == "grid_oracle":
            orcs.append(RadiusOracle(cover.family, cover.domain, cover.level,
                                     cover.oracle.resolution / 2.0,
                                     box=cover.oracle.box))
        for orc in orcs:
            bad, worst, _ = _chain_collect(cover, orc)
            sampled_bad, sampled_worst = oracles.chain_collect(cover, orc)
            assert worst <= sampled_worst
            assert bad or not sampled_bad

    def test_violation_order_with_both_kinds(self):
        class SwappedDepths(RadiusOracle):
            """Depths 2 and 3 trade places, so depth-2 < depth-3 violations
            appear among the pair violations."""
            def values(self, k, pts):
                return super().values({2: 3, 3: 2}.get(k, k), pts)

        cover = tampered_covers()[0]
        orc = SwappedDepths(cover.family, cover.domain, cover.level,
                            cover.oracle.resolution, box=cover.oracle.box)
        expected = oracles.chain_cells(cover, orc, value=orc.value)
        assert _chain_collect(cover, orc) == (expected[0][:5], *expected[1:])
        with mock.patch.object(cover_mod, "_WITNESSES", len(expected[0]) + 1):
            bad, worst, cells = _chain_collect(cover, orc)
        assert (bad, worst, cells) == expected
        kinds = [item["kind"] for item in bad]
        first_depth = kinds.index("depth2_vs_depth3")
        assert "pair" in kinds[:first_depth] and "pair" in kinds[first_depth:]


@st.composite
def dyadic_covers(draw):
    """Two to six balls in d = 1..3 whose centers sit on the lattice or
    half a step off it, each with a radius that puts its faces exactly on
    lattice cells, under a radius function that steps across the first
    axis.  The cover's own family may scale that radius down, so that
    r(z_m) >= r1(x) fails at some cells."""
    d = draw(st.integers(1, 3))
    res = 1 / 16
    dom = constant_exhaustion(BoxRegion(Box((0.0,) * d, (1.0,) * d)),
                              name="unit")
    table = np.array(draw(st.lists(st.integers(1, 4), min_size=4,
                                   max_size=4))) * res
    fam = dataclasses.replace(
        boundary_family(dom),
        radius=lambda k, x: table[np.floor(8 * np.asarray(x, dtype=float)[..., 0])
                                  .astype(int) % 4])
    cells = draw(st.lists(st.integers(3, 6), min_size=d, max_size=d))
    box = Box((0.25,) * d, tuple(0.25 + res * c for c in cells))
    oracle = RadiusOracle(fam, dom, 1, res, box=box)
    half = []
    for _ in range(draw(st.integers(2, 6))):
        half.append([draw(st.integers(0, 2 * c)) for c in cells])
    half = np.array(half)
    # faces at z +- (res / 2) * j, on the lattice when j and the center's
    # half steps have the same parity
    j = 2 * np.array(draw(st.lists(st.integers(1, 4), min_size=len(half),
                                   max_size=len(half)))) - half[:, 0] % 2
    centers = 0.25 + res / 2 * half
    rho = res / 2 * j
    scale = draw(st.sampled_from([0.25, 0.5, 1.0]))
    scaled = dataclasses.replace(fam, radius=lambda k, x: scale * fam.radius(k, x))
    return Cover(level=1, centers=centers, rho=rho, r1=rho, resolution=res,
                 box=box, family=scaled, domain=dom, oracle=oracle)


@settings(max_examples=40, deadline=None)
@given(dyadic_covers())
def test_chain_on_dyadic_covers_equals_pair_loop(cover):
    bad, worst, cells = oracles.chain_cells(cover, cover.oracle)
    assert _chain_collect(cover, cover.oracle) == (bad[:5], worst, cells)
    with mock.patch.object(cover_mod, "_WITNESSES", len(bad) + 1):
        assert _chain_collect(cover, cover.oracle)[0] == bad
