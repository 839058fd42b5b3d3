import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from covercert import (Box, BoxRegion, Cover, DomainMembershipError,
                       RadiusOracle, RefinementRequiredError, boundary_family,
                       build_cover, chain_certificate, constant_exhaustion,
                       constant_weight_family, expanding_boxes,
                       neighbor_sets, overlap_profile, shrinking_boxes,
                       union_cell_midpoints, verify_covering,
                       verify_disjoint_supports, with_extra_center,
                       without_center)
from covercert.bumps import Partition, build_profile, function_values
from covercert.cover import (ball_overlaps, box_pairs, greedy_packing,
                             separation_holds)
from covercert.domains import Lattice, lattice_axes, mesh_points
from oracles import greedy_naive, point_grids, point_lattice


def reference_greedy(candidates, r1):
    """Independent all-pairs greedy oracle (same comparisons, plain loops)."""
    chosen = []
    for i, p in enumerate(candidates):
        ok = True
        for j in chosen:
            dist = np.abs(candidates[j] - p).max()
            if dist < max(r1[i], r1[j]) / 2.0:
                ok = False
                break
        if ok:
            chosen.append(i)
    return chosen


@pytest.fixture(scope="module")
def line_cover():
    dom = expanding_boxes(1)
    fam = constant_weight_family(dom)
    return build_cover(fam, dom, 1, 1e-2, box=Box((-1.0,), (1.0,)))


@pytest.fixture(scope="module")
def boundary_cover():
    dom = constant_exhaustion(BoxRegion(Box((0.0,), (1.0,))), name="unit")
    fam = boundary_family(dom)
    return build_cover(fam, dom, 1, 1e-3, box=Box((0.125,), (0.875,)))


class TestGreedy:
    def test_line_example_golden(self, line_cover):
        assert line_cover.size == 8
        assert line_cover.centers.ravel() == pytest.approx(
            [-0.99, -0.74, -0.49, -0.24, 0.01, 0.26, 0.51, 0.76])
        assert np.diff(line_cover.centers.ravel()) == pytest.approx([0.25] * 7)

    def test_matches_reference_oracle(self, line_cover):
        dom = line_cover.domain
        candidates = dom.sample_ring(1, 1e-2, line_cover.box)
        r1 = np.full(len(candidates), 0.5)
        expected = candidates[reference_greedy(candidates, r1)]
        assert np.array_equal(line_cover.centers, expected)

    def test_build_cover_equals_naive_constant_radius(self):
        dom = expanding_boxes(2)
        fam = constant_weight_family(dom)
        box = Box((-1.0, -1.0), (1.0, 1.0))
        cover = build_cover(fam, dom, 1, 0.05, box=box)
        candidates = dom.sample_ring(1, 0.05, box)
        r1 = np.full(len(candidates), cover.r1[0])
        expected = candidates[greedy_naive(candidates, r1)]
        assert np.array_equal(cover.centers, expected)

    def test_build_cover_equals_naive_variable_radius(self, boundary_cover):
        oracle = boundary_cover.oracle
        candidates = oracle.lattice_points()
        chosen = greedy_naive(candidates, oracle.lattice_values(1))
        assert np.array_equal(boundary_cover.centers, candidates[chosen])

    def test_single_ball_region(self):
        dom = expanding_boxes(1)
        fam = constant_weight_family(dom)
        cover = build_cover(fam, dom, 1, 1e-3, box=Box((-0.05,), (0.05,)))
        assert cover.size == 1

    def test_determinism(self, line_cover):
        again = build_cover(line_cover.family, line_cover.domain, 1, 1e-2,
                            box=line_cover.box)
        assert np.array_equal(line_cover.centers, again.centers)

    def test_resolution_precondition(self):
        dom = expanding_boxes(1)
        fam = constant_weight_family(dom)
        with pytest.raises(RefinementRequiredError):
            build_cover(fam, dom, 1, 0.2, box=Box((-1.0,), (1.0,)))


@st.composite
def packings(draw):
    """Candidates on the lattice of sixteenths in lexicographic order, with
    constant, decaying or checkerboard depth-1 radii.  Radii that are
    multiples of 1/8 put many pairs exactly at half the larger radius, both
    as their distance and as the gap that ends a window."""
    d = draw(st.integers(1, 3))
    ints = st.tuples(*[st.integers(-8, 8)] * d)
    pts = draw(st.lists(ints, min_size=1, max_size=60, unique=True))
    candidates = np.array(sorted(pts), dtype=float).reshape(-1, d) / 16.0
    base = draw(st.integers(1, 8)) / 8.0
    kind = draw(st.sampled_from(["constant", "decaying", "checkerboard"]))
    if kind == "constant":
        r1 = np.full(len(candidates), base)
    elif kind == "decaying":
        r1 = base / (1.0 + 3.0 * np.abs(candidates).max(axis=1))
    else:
        parity = np.floor(4.0 * candidates).sum(axis=1) % 2
        r1 = np.where(parity == 0, base, base / 2.0)
    return candidates, r1


def _assert_packing_matches_oracles(candidates, r1):
    chosen = greedy_packing(candidates, r1)
    assert chosen == greedy_naive(candidates, r1)
    assert chosen == oracles.greedy_bucket(candidates, r1,
                                           candidates.min(axis=0))
    return chosen


class TestPacking:
    @settings(max_examples=200, deadline=None)
    @given(packings())
    def test_matches_oracles(self, case):
        _assert_packing_matches_oracles(*case)

    @settings(max_examples=60, deadline=None)
    @given(packings(), st.randoms(use_true_random=False))
    def test_unsorted_candidates_match_oracles(self, case, rnd):
        # the first coordinates need not ascend: every later candidate is
        # tested instead of a window
        candidates, r1 = case
        order = list(range(len(candidates)))
        rnd.shuffle(order)
        _assert_packing_matches_oracles(candidates[order], r1[order])

    def test_single_candidate(self):
        for d in (1, 2, 3):
            assert _assert_packing_matches_oracles(np.zeros((1, d)),
                                                   np.ones(1)) == [0]

    def test_nonpositive_radii_accept_everything(self):
        # no pair can conflict, and an empty window still moves on
        candidates = np.zeros((3, 2))
        for r1 in (np.zeros(3), -np.ones(3)):
            assert greedy_packing(candidates, r1) == [0, 1, 2] == \
                greedy_naive(candidates, r1)

    def test_clique_keeps_first(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 3):
            candidates = rng.uniform(0.0, 1 / 64, (40, d))
            candidates = candidates[np.lexsort(candidates.T[::-1])]
            assert _assert_packing_matches_oracles(candidates,
                                                   np.ones(40)) == [0]

    def test_window_edges(self):
        # half the radius is 0.5: a gap of exactly 0.5 keeps both centers,
        # and the last candidate inside the window is still blocked
        line = np.array([[0.0], [0.25], [0.5]])
        assert _assert_packing_matches_oracles(line, np.ones(3)) == [0, 2]
        line = np.array([[0.0], [0.25], [0.375]])
        assert _assert_packing_matches_oracles(line, np.ones(3)) == [0]
        # 0.3 + 0.6 rounds down to 0.8999999999999999, whose computed gap
        # 0.5999999999999999 conflicts; the gap to 0.9 rounds up to 0.6...01
        for x, want in ((0.8999999999999999, [0]), (0.9, [0, 1])):
            for d in (1, 2):
                candidates = np.array([[0.3] * d, [x] + [0.3] * (d - 1)])
                assert _assert_packing_matches_oracles(
                    candidates, np.full(2, 1.2)) == want

    def test_larger_radius_decides(self):
        # neighbours 0.375 apart conflict under half of 1.0, not of 0.5,
        # whether the accepted or the later center has the larger radius
        line = np.array([[0.0], [0.375], [0.75]])
        for r1, want in (([1.0, 0.5, 0.5], [0, 2]), ([0.5, 0.5, 1.0], [0, 1]),
                         ([0.5, 0.5, 0.5], [0, 1, 2])):
            assert _assert_packing_matches_oracles(line, np.array(r1)) == want


class TestSeparation:
    def test_all_pairs_exact(self, line_cover, boundary_cover):
        for cover in (line_cover, boundary_cover):
            ok, pair = separation_holds(cover)
            assert ok and pair is None

    def test_injected_center_breaks_separation(self, line_cover):
        bad = with_extra_center(line_cover, line_cover.centers[0] + 0.03)
        ok, pair = separation_holds(bad)
        assert not ok and pair is not None


class TestCovering:
    def test_line_cover_full_grid(self, line_cover):
        grid = line_cover.domain.ring_lattice(1, 1e-3, line_cover.box)
        cert = verify_covering(line_cover, grid)
        assert cert.verdict == "pass"

    def test_boundary_cover_full_grid(self, boundary_cover):
        grid = boundary_cover.domain.ring_lattice(1, 1e-3, boundary_cover.box)
        cert = verify_covering(boundary_cover, grid)
        assert cert.verdict == "pass"

    def test_single_ball_covers_itself(self):
        dom = expanding_boxes(1)
        fam = constant_weight_family(dom)
        cover = build_cover(fam, dom, 1, 1e-3, box=Box((-0.05,), (0.05,)))
        grid = dom.ring_lattice(1, 1e-3, cover.box)
        assert verify_covering(cover, grid).verdict == "pass"

    def test_deleted_center_fails_with_witness(self, line_cover):
        broken = without_center(line_cover, 3)
        grid = line_cover.domain.ring_lattice(1, 1e-3, line_cover.box)
        cert = verify_covering(broken, grid)
        assert cert.verdict == "fail"
        assert "witness_uncovered_point" in cert.details

    def test_lattice_outside_the_ring_is_refused(self, line_cover):
        # ring 2 of the expanding boxes reaches past ring 1, |x| < 1
        grid = line_cover.domain.ring_lattice(2, 1e-2, Box((-1.5,), (1.5,)))
        with pytest.raises(DomainMembershipError):
            verify_covering(line_cover, grid)
        with pytest.raises(DomainMembershipError):
            overlap_profile(line_cover, grid)

    def test_outer_balls_inside_next_ring(self, boundary_cover):
        # corners of every outer ball are strictly inside the domain
        for k in range(boundary_cover.size):
            lo = boundary_cover.centers[k] - boundary_cover.rho[k]
            hi = boundary_cover.centers[k] + boundary_cover.rho[k]
            assert (lo > 0).all() and (hi < 1).all()


class TestOverlap:
    def test_line_constant_radius_profile(self, line_cover):
        grid = line_cover.domain.ring_lattice(1, 1e-3, line_cover.box)
        cert = overlap_profile(line_cover, grid)
        assert cert.verdict == "pass"
        assert cert.details["max_count"] <= 9
        # constant depth-2 radius 1/2 gives the bound (8 / 0.5)^1
        assert cert.bound == pytest.approx(16.0)

    def test_single_ball(self):
        dom = expanding_boxes(1)
        fam = constant_weight_family(dom)
        cover = build_cover(fam, dom, 1, 1e-3, box=Box((-0.05,), (0.05,)))
        grid = dom.ring_lattice(1, 1e-3, cover.box)
        cert = overlap_profile(cover, grid)
        assert cert.verdict == "pass"
        assert cert.details["max_count"] == 1

    def test_plane_constant_radius(self):
        dom = expanding_boxes(2)
        fam = constant_weight_family(dom)
        box = Box((-1.0, -1.0), (1.0, 1.0))
        cover = build_cover(fam, dom, 1, 0.02, box=box)
        grid = dom.ring_lattice(1, 0.05, box)
        cert = overlap_profile(cover, grid)
        assert cert.verdict == "pass"
        assert cert.details["max_count"] <= (8 / 0.5) ** 2


def neighbor_lists(cover):
    """Each center's neighbours, itself included, from the pairs of
    overlapping balls (``ball_overlaps``)."""
    members = [[k] for k in range(cover.size)]
    for j, k in zip(*(a.tolist() for a in ball_overlaps(cover))):
        members[j].append(k)
        members[k].append(j)
    return [sorted(m) for m in members]


class TestNeighborSets:
    def test_line_counts(self, line_cover):
        cert = neighbor_sets(line_cover)
        assert cert.verdict == "pass"
        sizes = [len(m) for m in neighbor_lists(line_cover)]
        assert max(sizes) <= 7
        assert cert.details["max_neighbors"] == max(sizes)
        assert cert.bound == pytest.approx(16.0)

    def test_symmetry_and_reflexivity(self, boundary_cover):
        sets = [set(m) for m in neighbor_lists(boundary_cover)]
        for k, members in enumerate(sets):
            assert k in members
            for m in members:
                assert k in sets[m]
        cert = neighbor_sets(boundary_cover)
        assert cert.measured == len(sets[cert.details["tightest_center"]])

    def test_far_apart_balls_are_isolated(self):
        dom = expanding_boxes(1)
        fam = constant_weight_family(dom)
        cover = build_cover(fam, dom, 1, 1e-3, box=Box((-0.05,), (0.05,)))
        # distance 1.01 exceeds the sum of the ball radii (0.5 + 0.5)
        two = with_extra_center(cover, np.array([0.96]))
        two.tampered = ""  # legitimate: far apart, separation still holds
        ok, _ = separation_holds(two)
        assert ok
        assert neighbor_lists(two) == [[0], [1]]
        assert neighbor_sets(two).details["max_neighbors"] == 1


class TestRadiusChain:
    def test_constant_radii_chain_is_tight(self, line_cover):
        cert = chain_certificate(line_cover)
        assert cert.verdict == "pass"
        assert cert.measured == 0.0   # every link is an equality

    def test_variable_radii_chain(self, boundary_cover):
        cert = chain_certificate(boundary_cover)
        assert cert.verdict == "pass"
        assert not cert.resolutions["refined"]


class TestCoreBoxes:
    def test_core_disjointness_follows_from_separation(self, line_cover):
        half = line_cover.core_halfwidths
        z = line_cover.centers
        for k in range(line_cover.size):
            for j in range(k + 1, line_cover.size):
                assert np.abs(z[k] - z[j]).max() >= half[k] + half[j]

    def test_locate_core(self, line_cover):
        z0 = line_cover.centers[0]
        inside = z0 + 0.9 * line_cover.core_halfwidths[0]
        outside = z0 + 1.1 * line_cover.core_halfwidths[0]
        lattice = Lattice.of([np.array([inside[0], outside[0]])])
        assert _core_owners(line_cover, lattice).tolist() == [0, -1]


# Dyadic centers, radii and query points: every distance and threshold is
# exact, so points on ball and core faces occur often and the strict
# inequalities must exclude them.
_DOMAINS = {d: expanding_boxes(d) for d in (1, 2, 3)}


def _unit_cube_cover(d, centers, rho, r1):
    dom = _DOMAINS[d]
    fam = constant_weight_family(dom)
    box = Box((-1.0,) * d, (1.0,) * d)
    return Cover(level=1, centers=centers, rho=rho, r1=r1, resolution=1 / 16,
                 box=box, family=fam, domain=dom,
                 oracle=RadiusOracle(fam, dom, 1, 1 / 16, box=box))


@st.composite
def dyadic_covers(draw):
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 12))
    ints = st.lists(st.integers(-7, 7), min_size=k * d, max_size=k * d)
    centers = np.array(draw(ints), dtype=float).reshape(k, d) / 8.0
    steps = st.lists(st.integers(1, 8), min_size=k, max_size=k)
    rho = np.array(draw(steps), dtype=float) / 16.0
    r1 = np.array(draw(steps), dtype=float) / 8.0
    q = draw(st.integers(1, 20))
    qints = st.lists(st.integers(-15, 15), min_size=q * d, max_size=q * d)
    random_pts = np.array(draw(qints), dtype=float).reshape(q, d) / 16.0
    # points on the inner-ball, ball and core faces (one axis and a corner),
    # inner faces first so that they lead the covering check's grid
    axis = np.eye(d)[0]
    faces = [centers + s * r[:, None] * u for r in (rho / 2, rho, r1 / 8)
             for s in (1.0, -1.0) for u in (axis, np.ones(d))]
    pts = np.concatenate([*faces, random_pts])
    return _unit_cube_cover(d, centers, rho, r1), pts


def _point_cover(centers):
    """A cover holding only centers: enough for the pair oracles."""
    centers = np.asarray(centers, dtype=float)
    ones = np.ones(len(centers))
    return Cover(level=1, centers=centers, rho=ones, r1=ones, resolution=1.0,
                 box=None, family=None, domain=None, oracle=None)


def ball_pairs(lattice, centers, reach):
    """``Lattice.pairs`` of the closed balls ``|x - z_k|_inf <= reach[k]``."""
    return lattice.pairs(*lattice.boxes(centers, reach, strict=False))


def _assert_pairs(cover, pts, reach, brute_force=True):
    """``Lattice.pairs`` of the centers on the lattice of the distinct
    points equals the KD-tree oracle bitwise (values and dtypes) and,
    optionally, the brute-force pair loop; ``reach`` is one number or one
    per center."""
    lattice = point_lattice(pts)
    found = ball_pairs(lattice, cover.centers, reach)
    want = oracles.pairs_near_kdtree(cover, lattice.points, reach)
    for got, expected in zip(found, want):
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
    if brute_force:
        rows, cols = found
        assert list(zip(rows.tolist(), cols.tolist())) == \
            [(i, k) for i, k, _ in oracles.pairs_near(cover, lattice.points,
                                                     reach)]


def _balls_containing(cover, pts, inner):
    """Per point, the centers whose outer (or inner, half-radius) ball holds
    it: the cells of the balls' open index boxes on the lattice of the
    distinct points."""
    lattice = point_lattice(pts)
    rows, cols = lattice.cells(*lattice.boxes(
        cover.centers, (0.5 if inner else 1.0) * cover.rho))
    at = {x.tobytes(): i for i, x in enumerate(lattice.points)}
    return [cols[rows == at[x.tobytes()]].tolist() for x in pts]


def _core_owners(cover, lattice):
    """Per lattice point, the core box whose grid ``Cover.core_grids``
    reads it in, else -1; each point is read at most once, and each point
    of the stack is its lattice point, bitwise."""
    cores, rows = cover.core_grids(lattice)
    assert np.bincount(rows, minlength=len(lattice.points)).max(initial=0) <= 1
    assert cores.points.tobytes() == lattice.points[rows].tobytes()
    owners = np.full(len(lattice.points), -1)
    owners[rows] = np.repeat(np.arange(cover.size), cores.sizes)[cores.inside]
    return owners


@st.composite
def reach_lattices(draw):
    """Centers and points on the lattice of multiples of a non-dyadic reach,
    so that many pairs are one reach apart (exactly or up to rounding) and
    lie on the boundaries of the cells of side about ``reach``."""
    d = draw(st.integers(1, 3))
    reach = draw(st.sampled_from([0.1, 1 / 3, 0.7, 3.0]))
    k = draw(st.integers(1, 10))
    q = draw(st.integers(0, 16))
    ints = st.lists(st.integers(-5, 5), min_size=(k + q) * d,
                    max_size=(k + q) * d)
    grid = np.array(draw(ints), dtype=float).reshape(k + q, d) * reach
    centers, pts = grid[:k], grid[k:]
    faces = [centers + s * reach * u for s in (1.0, -1.0)
             for u in (np.eye(d)[-1], np.ones(d))]
    return _point_cover(centers), np.concatenate([pts, *faces]), reach


@st.composite
def tied_centers(draw):
    """Many centers tied on their first coordinate, each with its own
    reach (zero among them), and points on the lattice of the step and on
    the centers' faces, so that the first-axis windows of the sweep end
    among the ties."""
    d = draw(st.integers(1, 3))
    step = draw(st.sampled_from([0.1, 1 / 3, 0.125]))
    k = draw(st.integers(1, 40))
    firsts = st.lists(st.integers(-1, 1), min_size=k, max_size=k)
    rests = st.lists(st.integers(-4, 4), min_size=k * (d - 1),
                     max_size=k * (d - 1))
    centers = np.column_stack([
        np.array(draw(firsts), dtype=float),
        np.array(draw(rests), dtype=float).reshape(k, d - 1)]) * step
    reach = np.array(draw(st.lists(st.integers(0, 3), min_size=k,
                                   max_size=k)), dtype=float) * step
    q = draw(st.integers(0, 20))
    ints = st.lists(st.integers(-6, 6), min_size=q * d, max_size=q * d)
    pts = np.array(draw(ints), dtype=float).reshape(q, d) * step
    faces = [centers + s * reach[:, None] * u for s in (1.0, -1.0)
             for u in (np.eye(d)[0], np.ones(d))]
    return _point_cover(centers), np.concatenate([pts, *faces]), reach


@st.composite
def dyadic_lattices(draw):
    """A lattice of 1/8 masked to an open box, with centers and reaches on
    the lattice or half a step off it, so that box faces often land exactly
    on cells."""
    d = draw(st.integers(1, 3))
    res = 1 / 8
    sizes = draw(st.lists(st.integers(1, 9 if d < 3 else 5), min_size=d,
                          max_size=d))
    lower = draw(st.lists(st.integers(-8, 0), min_size=d, max_size=d))
    axes = [res * (lo + np.arange(n)) for lo, n in zip(lower, sizes)]
    mask_lo = draw(st.lists(st.integers(-9, 1), min_size=d, max_size=d))
    mask = BoxRegion(Box(tuple(res * v for v in mask_lo),
                         tuple(res * (v + 9) for v in mask_lo)))
    k = draw(st.integers(0, 8))
    ints = st.lists(st.integers(-20, 12), min_size=k * d, max_size=k * d)
    centers = np.array(draw(ints), dtype=float).reshape(k, d) * res / 2
    # a reach of zero holds no cell, even with the center on one
    steps = st.lists(st.integers(0, 12), min_size=k, max_size=k)
    reach = np.array(draw(steps), dtype=float) * res / 2
    return Lattice.of(axes, mask), centers, reach


class TestLatticeCount:
    @settings(max_examples=150, deadline=None)
    @given(dyadic_lattices())
    def test_count_matches_brute_force(self, case):
        lattice, centers, reach = case
        got = lattice.count(centers, reach)
        assert got.dtype == np.intp
        assert got.tolist() == oracles.lattice_count(lattice.points, centers,
                                                     reach)

    def test_count_is_the_pair_bincount_in_d3(self):
        # boundary weights in d=3: 64 balls of non-dyadic radius on a check
        # lattice of 29,791 cells
        dom = constant_exhaustion(BoxRegion(Box((0.0,) * 3, (1.0,) * 3)),
                                  name="unit")
        cover = build_cover(boundary_family(dom), dom, 1, 0.02,
                            box=Box((0.35,) * 3, (0.65,) * 3))
        lattice = dom.ring_lattice(1, 0.01, cover.box)
        for reach in (cover.rho / 2.0, cover.rho):
            rows, cols, dist = oracles.pairs_near_kdtree(cover, lattice.points,
                                                         reach)
            want = np.bincount(rows[dist < reach[cols]],
                               minlength=len(lattice.points))
            assert lattice.count(cover.centers, reach).tobytes() == \
                want.tobytes()


@st.composite
def ring_lattices(draw):
    """A check lattice of d = 1..3 axes (a decimal or a dyadic step) masked
    to a ring of a boundary (shrinking boxes) or an expanding-box
    exhaustion, possibly to no cell at all, with centers on lattice values,
    half a step off them or outside the lattice, and reaches that tie the
    float gap to a lattice value, are multiples of half a step, are zero or
    hold every cell."""
    d = draw(st.integers(1, 3))
    step = draw(st.sampled_from([0.1, 0.03, 0.0125, 0.125]))
    sizes = draw(st.lists(st.integers(1, 12 if d < 3 else 6), min_size=d,
                          max_size=d))
    lower = draw(st.lists(st.sampled_from([-1.3, -0.6, 0.0, 0.13, 2.0]),
                          min_size=d, max_size=d))
    box = Box(tuple(lower), tuple(lo + step * (m - 0.5)
                                  for lo, m in zip(lower, sizes)))
    closed = draw(st.booleans())
    if draw(st.booleans()):
        domain = shrinking_boxes((0.0,) * d, (1.0,) * d, closed=closed)
    else:
        domain = expanding_boxes(d, closed=closed)
    lattice = domain.ring_lattice(draw(st.integers(1, 3)), step, box)
    axes = lattice.axes
    k = draw(st.integers(1, 6))
    coord = [st.sampled_from(axis.tolist())
             | st.integers(-4, 2 * len(axis) + 4).map(
                 lambda t, a=axis: a[0] + t * step / 2)
             for axis in axes]
    centers = np.array([draw(st.tuples(*coord)) for _ in range(k)],
                       dtype=float).reshape(k, d)
    reach = []
    for z in centers:
        a = draw(st.integers(0, d - 1))
        reach.append(draw(st.sampled_from(np.abs(axes[a] - z[a]).tolist())
                          | st.integers(0, 8).map(lambda t: t * step / 2)
                          | st.just(1e3)))
    return lattice, centers, np.array(reach)


class TestLatticePairs:
    @settings(max_examples=200, deadline=None)
    @given(ring_lattices())
    def test_pairs_equal_the_kdtree_oracle(self, case):
        lattice, centers, reach = case
        want = oracles.pairs_near_kdtree(_point_cover(centers), lattice.points,
                                         reach)[:2]
        for got, expected in zip(ball_pairs(lattice, centers, reach), want):
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(ring_lattices(), st.integers(1, 60))
    def test_slabs_partition_the_pairs(self, case, budget):
        lattice, centers, reach = case
        # the lattice, and a stack of two grids: the lattice under its mask
        # and under the complement, every center searched on both
        two = Lattice.stack([lattice.axes] * 2,
                            np.r_[lattice.inside, ~lattice.inside])
        for lattice, copies in ((lattice, 1), (two, 2)):
            grid = np.repeat(np.arange(copies), len(centers))
            first, stop = lattice.boxes(np.tile(centers, (copies, 1)),
                                        np.tile(reach, copies), strict=False,
                                        grid=grid)
            rows, cols = lattice.pairs(first, stop, grid)
            # the points before each first-axis cell of the stack
            held = np.r_[0, np.cumsum(np.concatenate([
                inside.reshape(shape).sum(axis=tuple(range(1, len(shape))))
                for inside, shape in zip(np.split(lattice.inside,
                                                  np.cumsum(lattice.sizes)[:-1]),
                                         lattice.shape)]))]
            parts, end = [], 0
            for cells, block, at, lo, hi in lattice.slabs(grid, first, stop,
                                                          budget):
                # consecutive slabs of the first axis, each with the points
                # of its cells and at most budget cells of the boxes cut to
                # it, unless it is one first-axis cell
                assert cells.start == end < cells.stop
                end = cells.stop
                assert (block.start, block.stop) == \
                    (held[cells.start], held[cells.stop])
                offset = lattice.starts[0][grid[at]]
                assert (cells.start <= offset + lo[0]).all()
                assert (offset + hi[0] <= cells.stop).all()
                assert cells.stop - cells.start == 1 or \
                    np.prod(hi - lo, axis=0).sum() <= budget
                # the boxes cut to the slab hold the pairs of its points
                slab_rows, boxes = lattice.pairs(lo, hi, grid[at])
                assert ((block.start <= slab_rows) &
                        (slab_rows < block.stop)).all()
                parts.append((slab_rows, at[boxes]))
            assert end == len(lattice.axes[0])
            assert np.concatenate([r for r, _ in parts]).tolist() == rows.tolist()
            assert np.concatenate([c for _, c in parts]).tolist() == cols.tolist()

    def test_empty_mask_and_no_reach(self):
        dom = expanding_boxes(2)
        empty = dom.ring_lattice(1, 0.1, Box((2.0, 2.0), (3.0, 3.0)))
        centers = np.array([[2.5, 2.5]])
        assert len(empty.points) == 0
        rows, cols = ball_pairs(empty, centers, [10.0])
        assert len(rows) == len(cols) == 0
        assert rows.dtype == cols.dtype == np.int64
        boxes = empty.boxes(centers, [10.0], strict=False)
        assert [b for _, b, *_ in empty.slabs(np.zeros(1, dtype=np.int64),
                                               *boxes, 4)] == \
            [slice(0, 0)] * len(empty.axes[0])
        full = dom.ring_lattice(1, 0.1, Box((-1.0, -1.0), (1.0, 1.0)))
        assert len(ball_pairs(full, centers, [0.0])[0]) == 0


class TestBatchQueries:
    @settings(max_examples=80, deadline=None)
    @given(dyadic_covers())
    def test_point_queries_match_brute_force(self, case):
        cover, pts = case
        for reach in (float(cover.rho.max()), float(cover.rho.min()) / 2):
            _assert_pairs(cover, pts, reach)
        for inner in (False, True):
            assert _balls_containing(cover, pts, inner) == \
                [oracles.balls_containing(cover, x, inner) for x in pts]
        lattice = point_lattice(pts)
        assert _core_owners(cover, lattice).tolist() == \
            oracles.core_owners(cover, lattice.points).tolist()

    @settings(max_examples=120, deadline=None)
    @given(reach_lattices())
    def test_pairs_one_reach_apart(self, case):
        cover, pts, reach = case
        _assert_pairs(cover, pts, reach)

    @settings(max_examples=100, deadline=None)
    @given(tied_centers())
    def test_tied_centers_with_their_own_reaches(self, case):
        cover, pts, reach = case
        _assert_pairs(cover, pts, reach)

    def test_many_centers_on_one_first_coordinate(self):
        # 40,000 centers share one first coordinate, with per-center reaches
        rng = np.random.default_rng(3)
        centers = np.zeros((40000, 2))
        centers[:, 1] = rng.uniform(-1.0, 1.0, 40000)
        centers = np.concatenate([centers, rng.uniform(-1.0, 1.0, (200, 2))])
        pts = np.concatenate([[[-0.9, 0.0], [0.0, 0.25], [0.01, -0.5],
                               [0.9, 0.9], [0.03, 1.0]],
                              rng.uniform(-1.0, 1.0, (60, 2))])
        cover = _point_cover(centers)
        for reach in (0.02, 1 / 30, np.full(len(centers), 0.05)):
            _assert_pairs(cover, pts, reach, brute_force=False)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_no_points(self, d):
        cover = _point_cover(np.arange(3.0 * d).reshape(3, d))
        rows, cols = ball_pairs(point_lattice(np.empty((0, d))), cover.centers,
                                0.5)
        assert len(rows) == len(cols) == 0
        _assert_pairs(cover, np.empty((0, d)), 0.5)

    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.3, -7.0)])
    @pytest.mark.parametrize("reach", [0.0, 1 / 3, 2.0])
    def test_single_center(self, center, reach):
        cover = _point_cover([center])
        offsets = np.array([0.0, 1e-300, reach, np.nextafter(reach, 3.0), 5.0,
                            1e300])
        pts = np.array(center) + np.stack(np.meshgrid(offsets, -offsets),
                                          axis=-1).reshape(-1, 2)
        _assert_pairs(cover, pts, reach)

    @pytest.mark.parametrize("d", [1, 2])
    def test_nan_coordinate_raises_and_infinite_is_far(self, d):
        # the owner reader refuses a grid coordinate that is not finite; a
        # lattice axis that reaches infinity is far from every center
        cover = _point_cover(np.arange(3.0 * d).reshape(3, d))
        partition = Partition(build_profile(1.0, 3), cover.centers,
                              np.ones(3), [(), (), ()])
        pts = np.zeros((3, d))
        pts[1, -1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            function_values(partition, point_grids(pts), [0, 1, 2])
        pts[1, -1] = np.inf
        pts[2, 0] = -np.inf
        with pytest.raises(ValueError, match="infinite"):
            function_values(partition, point_grids(pts), [0, 1, 2])
        lattice = point_lattice(pts)
        rows, cols = ball_pairs(lattice, cover.centers, 1e300)
        assert lattice.points[1].tolist() == [0.0] * d
        assert rows.tolist() == [1, 1, 1] and cols.tolist() == [0, 1, 2]
        assert list(zip(rows.tolist(), cols.tolist())) == \
            [(i, k) for i, k, _ in oracles.pairs_near(cover, lattice.points,
                                                     1e300)]

    def test_large_cover(self):
        # 4,096 centers against a lattice of 150 x 140 random axis values
        # masked to about 20,000 points
        rng = np.random.default_rng(5)
        centers = (np.indices((64, 64)).reshape(2, -1).T
                   + rng.uniform(-0.2, 0.2, (4096, 2))) / 32.0 - 1.0
        cover = _point_cover(centers)
        axes = [np.sort(rng.uniform(-1.1, 1.1, n)) for n in (150, 140)]
        lattice = Lattice.of(axes)
        pts = lattice.points[rng.uniform(size=len(lattice.points)) < 0.95]
        for reach in (0.01, 1 / 30, 0.1,
                      rng.uniform(0.0, 0.1, len(centers))):
            _assert_pairs(cover, pts, reach, brute_force=False)
            _assert_pairs(cover, pts[:40], reach)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_large_coordinates_tiny_reach(self, d):
        # reaches a billionth of the spread of the centers, so the windows
        # of the first-axis sweep are about as narrow as its widening
        # (fewer points in higher d: the lattice of the distinct points
        # grows as their number per axis to the power d)
        rng = np.random.default_rng(d)
        count, near_count = {2: (50, 300), 3: (20, 40), 4: (8, 8)}[d]
        centers = rng.uniform(-1e6, 1e6, (count, d))
        centers[:2] = [[-1e6] * d, [1e6] * d]
        cover = _point_cover(centers)
        for reach in (1e-3, 1e-12):
            near = centers[rng.integers(0, count, near_count)] \
                + rng.uniform(-2.0, 2.0, (near_count, d)) * reach
            pts = np.concatenate([centers, near, -centers])
            _assert_pairs(cover, pts, reach)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_box_pairs_match_all_pairs_loop(self, data):
        # dyadic boxes, some of zero half-width, in no particular order:
        # many meet exactly on a face or a corner
        d = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(1, 12))
        ints = st.lists(st.integers(-7, 7), min_size=k * d, max_size=k * d)
        centers = np.array(data.draw(ints), dtype=float).reshape(k, d) / 8.0
        steps = st.lists(st.integers(0, 8), min_size=k, max_size=k)
        half = np.array(data.draw(steps), dtype=float) / 16.0
        if data.draw(st.booleans()):
            # a box appended last that touches the first on a face, as an
            # injected center is appended
            h = data.draw(st.integers(0, 8)) / 16.0
            axis = np.eye(d)[data.draw(st.integers(0, d - 1))]
            sign = data.draw(st.sampled_from([1.0, -1.0]))
            centers = np.vstack([centers, centers[0] + sign * (half[0] + h) * axis])
            half = np.append(half, h)
        rows, cols, dist = box_pairs(centers, half)
        assert rows.dtype == cols.dtype == np.int64
        assert list(zip(rows.tolist(), cols.tolist(), dist.tolist())) == \
            oracles.box_pairs(centers, half)

    @settings(max_examples=80, deadline=None)
    @given(dyadic_covers())
    def test_pair_certificates_match_brute_force(self, case):
        cover, _ = case
        witness = oracles.separation_witness(cover)
        assert separation_holds(cover) == (witness is None, witness)
        cert = verify_disjoint_supports(cover)
        assert cert.details.get("witness_overlap") == \
            oracles.core_overlap_witness(cover)
        want = oracles.neighbors(cover)
        assert neighbor_lists(cover) == want
        cert = neighbor_sets(cover)
        assert cert.details["max_neighbors"] == max(map(len, want))

    @settings(max_examples=40, deadline=None)
    @given(dyadic_covers(), st.data())
    def test_grid_certificates_match_brute_force(self, case, data):
        cover, _ = case
        # a window of the lattice of 1/32 over the ring |x_i| < 1: every
        # inner and outer ball face lies on its cells
        d = cover.dimension
        res = 1 / 32
        sizes = data.draw(st.lists(st.integers(1, 16), min_size=d, max_size=d))
        lower = [data.draw(st.integers(-32, 32 - n)) * res for n in sizes]
        box = Box(tuple(lower), tuple(lo + n * res for lo, n in zip(lower, sizes)))
        lattice = cover.domain.ring_lattice(1, res, box)
        grid = lattice.points
        inner = [oracles.balls_containing(cover, x, inner=True) for x in grid]
        uncovered = [x.tolist() for x, hits in zip(grid, inner) if not hits]
        cert = verify_covering(cover, lattice)
        assert cert.details.get("witness_uncovered_point") == \
            (uncovered[0] if uncovered else None)
        counts = [len(oracles.balls_containing(cover, x)) for x in grid]
        cert = overlap_profile(cover, lattice)
        assert cert.details["max_count"] == max(counts)
        # the depth-2 radius is constant, so the tightest point has most balls
        assert cert.details["tightest_point"] == \
            grid[int(np.argmax(counts))].tolist()
        res = 1 / 8
        mids = mesh_points(lattice_axes(cover.box, res)) + res / 2
        mids = mids[(mids < 1.0).all(axis=1)]
        assert union_cell_midpoints(cover, cover.box, res).points.tolist() == \
            [x.tolist() for x in oracles.near_union(cover, mids, res / 2)]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ball_escape_matches_brute_force(self, data):
        # dyadic corners reach past, and exactly onto, the faces of the
        # next ring |x_i| < 2
        d = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(1, 12))
        ints = st.lists(st.integers(-7, 7), min_size=k * d, max_size=k * d)
        centers = np.array(data.draw(ints), dtype=float).reshape(k, d) / 8.0
        steps = st.lists(st.integers(1, 24), min_size=k, max_size=k)
        rho = np.array(data.draw(steps), dtype=float) / 16.0
        cover = _unit_cube_cover(d, centers, rho, np.full(k, 1 / 8))
        cert = verify_covering(cover, cover.domain.ring_lattice(1, 1 / 8,
                                                                cover.box))
        assert cert.details.get("witness_ball_escape") == \
            oracles.ball_escape_witness(cover)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 7), st.integers(-8, 8))
    def test_controls_match_brute_force(self, k, offset):
        dom = _DOMAINS[1]
        cover = build_cover(constant_weight_family(dom), dom, 1, 1e-2,
                            box=Box((-1.0,), (1.0,)))
        z = np.clip(cover.centers[k] + offset / 32.0, -0.96, 0.96)
        for tampered in (with_extra_center(cover, z), without_center(cover, k)):
            witness = oracles.separation_witness(tampered)
            assert separation_holds(tampered) == (witness is None, witness)
            cert = verify_disjoint_supports(tampered)
            assert cert.details.get("witness_overlap") == \
                oracles.core_overlap_witness(tampered)
            pts = np.linspace(-0.99, 0.99, 199)[:, None]
            assert _balls_containing(tampered, pts, inner=True) == \
                [oracles.balls_containing(tampered, x, inner=True)
                 for x in pts]
            lattice = Lattice.of([pts[:, 0]])
            assert _core_owners(tampered, lattice).tolist() == \
                oracles.core_owners(tampered, pts).tolist()
