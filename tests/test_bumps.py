import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import point_grids, point_lattice
from covercert import bumps, domains, piecewise
from covercert import (Box, BoxRegion, SmoothnessOrderError, boundary_family,
                       build_cover, build_partition, build_profile,
                       certify_partition, constant_exhaustion,
                       constant_weight_family, derivative_constant,
                       default_weights, expanding_boxes, neighbor_sets)
from covercert.bumps import (BumpProfile, Incidence, Partition, PartitionFn,
                             function_values, partition_partials)
from covercert.domains import Lattice
from covercert.multiindex import indices_below, indices_up_to_order
from covercert.piecewise import PiecewisePoly


@pytest.fixture(scope="module")
def line_setup():
    dom = expanding_boxes(1)
    fam = constant_weight_family(dom)
    cover = build_cover(fam, dom, 1, 1e-2, box=Box((-1.0,), (1.0,)))
    partition = build_partition(cover, order=6)
    return dom, fam, cover, partition


@pytest.fixture(scope="module")
def square_setup():
    # boundary weights on the unit square: 25 balls at 5 distinct radii,
    # up to 24 blockers per partition function
    dom = constant_exhaustion(BoxRegion(Box((0.0, 0.0), (1.0, 1.0))))
    fam = boundary_family(dom)
    cover = build_cover(fam, dom, 1, 0.01, box=Box((0.2, 0.2), (0.45, 0.45)))
    partition = build_partition(cover, order=5)
    return dom, fam, cover, partition


@pytest.fixture(scope="module")
def cube_setup():
    # boundary weights on the unit cube: 27 balls, up to 26 blockers
    dom = constant_exhaustion(BoxRegion(Box((0.0,) * 3, (1.0,) * 3)))
    fam = boundary_family(dom)
    cover = build_cover(fam, dom, 1, 0.01, box=Box((0.25,) * 3, (0.4,) * 3))
    partition = build_partition(cover, order=5)
    return dom, fam, cover, partition


def incidence(partition, lattice, betas, owners=None):
    """One ``Incidence`` of all the pairs of a reading of ``lattice``."""
    pairs = partition.pairs(lattice, owners)
    return Incidence(partition, lattice.points, pairs, betas, owners is not None)


def fn_values(partition, k, pts):
    """``function_values`` of function ``k`` at every point, each point a
    one-point grid."""
    return function_values(partition, point_grids(pts), np.full(len(pts), k))


def fn_table(partition, k, pts, alpha):
    """``partition_partials`` of function ``k`` at every point, each point a
    one-point grid, for every beta <= alpha."""
    return partition_partials(partition, point_grids(pts),
                              np.full(len(pts), k), indices_below(alpha))


def partition_sums(partition, lattice):
    """Each lattice point's partition sum from ``bumps.incidences``, its
    values added by the ``bincount`` that ``certify_partition`` adds them
    with."""
    zero = (0,) * len(lattice.axes)
    sums = np.zeros(len(lattice.points))
    for block, inc in bumps.incidences(partition, lattice, [zero]):
        sums[block] = np.bincount(inc.rows, weights=inc.partials()[zero],
                                  minlength=len(inc.pts))
    return sums


def flat():
    """A one-axis profile equal to 1 on [-0.5, 0.25), to -1 on
    [0.25, 0.5], and zero outside."""
    poly = PiecewisePoly(np.array([-0.5, 0.25, 0.5]), np.array([[1.0], [-1.0]]))
    return BumpProfile(scale=0.5, order=1, weights=(1.0,), widths=(0.0,),
                       inner_halfwidth=0.5, polys=(poly,))


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


@st.composite
def partitions(draw):
    """A partition in d = 1..3 with centers on a coarse lattice, each
    function blocked by every earlier cutoff whose ball meets its own."""
    d = draw(st.integers(1, 3))
    order = draw(st.integers(3, 6))
    count = draw(st.integers(1, 7))
    pool = draw(st.lists(st.integers(2, 10), min_size=1, max_size=3))
    shared = draw(st.booleans())
    scales = [draw(st.sampled_from(pool) if shared else st.integers(2, 10)) / 16.0
              for _ in range(count)]
    centers = [tuple(draw(st.integers(0, 16)) / 16.0 for _ in range(d))
               for _ in range(count)]
    profile = build_profile(1.0, order)
    reverse = draw(st.booleans())
    blockers = []
    for k in range(count):
        earlier = [m for m in range(k)
                   if max(abs(a - b) for a, b in zip(centers[m], centers[k]))
                   < scales[m] + scales[k]]
        if reverse and len(earlier) > 1:
            # the engine applies blockers in index order, so no other
            # order is accepted
            with pytest.raises(ValueError):
                PartitionFn(index=k, blockers=tuple(earlier[::-1]))
            with pytest.raises(ValueError):
                Partition(profile, centers[:k + 1], scales[:k + 1],
                          [*blockers, earlier[::-1]])
        blockers.append(earlier)
    return Partition(profile, centers, scales, blockers)


@st.composite
def partitions_and_points(draw):
    """A partition with centers on a coarse lattice, and a lattice of
    points inside, outside and on the faces of its cutoffs' supports."""
    partition = draw(partitions())
    d, order = partition.centers.shape[1], partition.order
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = [rng.uniform(-0.5, 1.5, size=(40, d))]
    for center, h in zip(partition.centers, partition.half):
        face = center + rng.uniform(-h, h, size=(2 * d, d))
        for a in range(d):
            face[2 * a, a] = center[a] + h
            face[2 * a + 1, a] = center[a] - h
        pts.append(face)
        pts.append(center[None, :] + h)     # a corner
    alpha = tuple(draw(st.integers(0, min(2, order - 1))) for _ in range(d))
    return partition, point_lattice(np.concatenate(pts)), alpha


def assert_near_pair_run(partition, lattice, alpha):
    """Every function's partials, and the partition sum, within the derived
    rounding bounds of the pair-run engine's values (``oracles``), at the
    lattice's points."""
    pts = lattice.points
    zero = (0,) * pts.shape[1]
    sums, old_sums, slack = (np.zeros(len(pts)) for _ in range(3))
    for k in range(len(partition)):
        table = fn_table(partition, k, pts, alpha)
        old = oracles.pair_run_table(partition, k, pts, alpha)
        bound = oracles.recurrence_error_bound(partition, k, pts, alpha)
        for beta in table:
            assert (np.abs(table[beta] - old[beta]) <= bound[beta]).all()
        # the sums add the same terms in the same order: each sum of K
        # terms rounds K - 1 times (gamma_K), on top of the terms' own error
        sums += np.abs(table[zero])
        old_sums += np.abs(old[zero])
        slack += bound[zero]
    n = len(partition) * 2.0 ** -53
    slack += n / (1.0 - n) * (sums + old_sums)
    assert (np.abs(partition_sums(partition, lattice)
                   - oracles.pair_run_sum(partition, pts)) <= slack).all()


class TestIncidenceEngine:
    """The engine against a one-function-at-a-time loop of the same
    recurrence, bit for bit, and against the pair-run engine it replaced
    within derived rounding bounds."""

    @settings(max_examples=40, deadline=None)
    @given(partitions_and_points())
    def test_wrappers_match_per_function_loops(self, case):
        partition, lattice, alpha = case
        pts = lattice.points
        zero = (0,) * len(alpha)
        for k in range(len(partition)):
            values = oracles.recurrence_table(partition, k, pts, zero)[zero]
            assert_bitwise(fn_values(partition, k, pts), values)
            table = fn_table(partition, k, pts, alpha)
            expected = oracles.recurrence_table(partition, k, pts, alpha)
            assert list(table) == list(expected)
            for beta in expected:
                assert_bitwise(table[beta], expected[beta])
        assert_bitwise(partition_sums(partition, lattice),
                       oracles.recurrence_sum(partition, pts))
        assert_near_pair_run(partition, lattice, alpha)

    @settings(max_examples=40, deadline=None)
    @given(partitions_and_points())
    def test_shared_incidence_matches_per_function_loops(self, case):
        partition, lattice, alpha = case
        pts = lattice.points
        inc = incidence(partition, lattice, indices_below(alpha))
        table = inc.partials()
        for k in range(len(partition)):
            cut = oracles.cutoff(partition, k)
            pairs = np.flatnonzero(inc.fns == k)
            # each pair's factors are bitwise its cutoff's own partials
            for row, beta in zip(inc.factors, inc.betas):
                assert_bitwise(row[pairs], cut.partial(pts[inc.rows[pairs]], beta))
            inside = np.flatnonzero(cut.contains_support(pts))
            assert_bitwise(np.sort(inc.rows[pairs]), inside)
            expected = oracles.recurrence_table(partition, k, pts, alpha)
            for beta in expected:
                assert_bitwise(table[beta][pairs], expected[beta][inc.rows[pairs]])
        owners = np.arange(len(pts)) % len(partition)
        zero = (0,) * len(alpha)
        assert_bitwise(function_values(partition, point_grids(pts), owners),
                       [oracles.recurrence_table(partition, k, p, zero)[zero][0]
                        for k, p in zip(owners, pts)])

    @pytest.mark.parametrize("setup, spacing", [("square_setup", 0.004),
                                                 ("cube_setup", 0.04)],
                             ids=["d2", "d3"])
    def test_real_partition_with_many_blockers(self, request, setup, spacing):
        dom, _, cover, partition = request.getfixturevalue(setup)
        box = Box(tuple(a - 0.1 for a in cover.box.lower),
                  tuple(b + 0.1 for b in cover.box.upper))
        lattice = dom.ring_lattice(1, spacing, box)
        pts = lattice.points
        alpha = (2,) * cover.dimension
        zero = (0,) * cover.dimension
        assert max(len(fn.blockers) for fn in partition) >= 2
        assert_bitwise(partition_sums(partition, lattice),
                       oracles.recurrence_sum(partition, pts))
        for k in range(len(partition)):
            assert_bitwise(fn_values(partition, k, pts),
                           oracles.recurrence_table(partition, k, pts, zero)[zero])
            table = fn_table(partition, k, pts, alpha)
            expected = oracles.recurrence_table(partition, k, pts, alpha)
            for beta in expected:
                assert_bitwise(table[beta], expected[beta])
        assert_near_pair_run(partition, lattice, alpha)

    def test_one_step_per_earlier_pair_of_the_longest_run(
            self, square_setup, monkeypatch):
        dom, _, cover, partition = square_setup
        lattice = dom.ring_lattice(1, 0.004, Box((0.1, 0.1), (0.55, 0.55)))
        inc = incidence(partition, lattice, indices_below((2, 2)))
        longest = int(np.bincount(inc.rows).max())
        assert len(partition) == 25 == max(len(fn.blockers) for fn in partition) + 1
        assert longest == 19
        steps = []
        step = Incidence._step

        def counting_step(self, prod, f, psi, m):
            steps.append((prod is not None, f.shape[1]))
            return step(self, prod, f, psi, m)

        monkeypatch.setattr(Incidence, "_step", counting_step)
        inc.partials()
        # one step per position of the longest run, each over the points
        # whose run reaches it, so every pair is visited once; the first
        # step copies, every later one applies the product rule once
        assert [rule for rule, _ in steps] == [False] + [True] * (longest - 1)
        assert sum(width for _, width in steps) == len(inc.rows)

    def test_all_pairs_readers_reject_a_missing_blocker(self, square_setup):
        dom, _, cover, partition = square_setup
        grid = dom.ring_lattice(1, 0.01, cover.box)
        centers, half = partition.centers, partition.half
        k, m = next((fn.index, m) for fn in partition for m in fn.blockers
                    if np.abs(centers[fn.index] - centers[m]).max()
                    <= half[fn.index] + half[m])
        blockers = [[b for b in fn.blockers if b != m] if fn.index == k
                    else fn.blockers for fn in partition]
        bad = Partition(partition.profile, centers, partition.scales, blockers)
        with pytest.raises(ValueError, match="blocker"):
            partition_sums(bad, grid)
        with pytest.raises(ValueError, match="blocker"):
            certify_partition(bad, cover, cover.oracle, 1, grid)
        # a function read for its owner multiplies just its listed blockers
        assert_bitwise(fn_values(bad, k, grid.points),
                       oracles.recurrence_table(bad, k, grid.points,
                                                (0, 0))[(0, 0)])

    def test_supports_that_touch_count_as_meeting(self):
        # closed supports [-0.5, 0.5] and [0.5, 1.5] share the point 0.5,
        # where the first cutoff is -1 and the second 1
        x = Lattice.of([np.array([0.2, 0.5])])
        alone = Partition(flat(), [[0.0], [1.0]], [1.0, 1.0], [(), ()])
        with pytest.raises(ValueError, match="blocker"):
            partition_sums(alone, x)
        linked = Partition(flat(), [[0.0], [1.0]], [1.0, 1.0], [(), (0,)])
        assert_bitwise(partition_sums(linked, x), np.array([1.0, 1.0]))

    def test_value_keeps_the_sign_of_a_zero(self):
        # A negative cutoff value times the complement of a blocker that is
        # exactly one there: psi = phi * P is a plain product, -0.0, in the
        # values and in the tables' order-0 entry alike.
        partition = Partition(flat(), [[0.1], [-0.1]], [1.0, 1.0], [(), (0,)])
        x = np.array([[0.2], [0.7]])
        assert_bitwise(fn_values(partition, 1, x), np.array([-0.0, 0.0]))
        assert_bitwise(fn_table(partition, 1, x, (0,))[(0,)], np.array([-0.0, 0.0]))
        assert_bitwise(fn_values(partition, 1, x),
                       oracles.recurrence_table(partition, 1, x, (0,))[(0,)])

    def test_runs_are_checked_once_per_partition(self, square_setup, monkeypatch):
        # the run check's pair query is the one box_pairs sweep of the
        # centers
        dom, _, cover, _ = square_setup
        partition = build_partition(cover, order=5)
        grid = dom.ring_lattice(1, 0.02, cover.box)
        queries = []
        query = bumps.box_pairs

        def counting_box_pairs(centers, half):
            queries.append(len(centers))
            return query(centers, half)

        monkeypatch.setattr(bumps, "box_pairs", counting_box_pairs)
        first = partition_sums(partition, grid)
        assert_bitwise(partition_sums(partition, grid), first)
        certify_partition(partition, cover, cover.oracle, 1, grid)
        assert queries == [len(partition)]

    def test_blocks_do_not_change_values(self, square_setup, monkeypatch):
        dom, _, cover, partition = square_setup
        grid = dom.ring_lattice(1, 0.004, cover.box)
        owners = np.arange(len(grid.points)) % len(partition)

        def readings():
            certs = certify_partition(partition, cover, cover.oracle, 2, grid)
            return ([c.as_dict() for c in certs], partition_sums(partition, grid),
                    function_values(partition, point_grids(grid.points),
                                    owners))

        whole = readings()
        monkeypatch.setattr(bumps, "_BLOCK_PAIRS", 16)
        assert len(list(bumps.incidences(partition, grid, [(0, 0)]))) > 20
        blocked = readings()
        assert blocked[0] == whole[0]
        assert_bitwise(blocked[1], whole[1])
        assert_bitwise(blocked[2], whole[2])

    @pytest.mark.parametrize("setup, spacing", [("square_setup", 0.005),
                                                 ("cube_setup", 0.02)],
                             ids=["d2", "d3"])
    def test_lattice_readings_equal_point_readings(self, request, monkeypatch,
                                                   setup, spacing):
        # a lattice's pairs come from its per-axis intervals, slab by slab,
        # and its certificates are those of per-function loops over its
        # points
        dom, _, cover, partition = request.getfixturevalue(setup)
        d = cover.dimension
        lattice = dom.ring_lattice(1, spacing, Box(
            tuple(a - 0.1 for a in cover.box.lower),
            tuple(b + 0.1 for b in cover.box.upper)))
        monkeypatch.setattr(bumps, "_BLOCK_PAIRS", 256)
        slabs = list(bumps.incidences(partition, lattice, [(0,) * d]))
        assert len(slabs) > 10
        assert [block.start for block, _ in slabs[1:]] == \
            [block.stop for block, _ in slabs[:-1]]
        assert_certificates_match_loops(
            certify_partition(partition, cover, cover.oracle, 2, lattice),
            partition, cover, lattice.points)

    def test_betas_must_be_down_closed(self, square_setup):
        _, _, _, partition = square_setup
        pts = point_lattice(np.array([[0.3, 0.3]]))
        for betas in ([(1, 0)], [(0, 0), (1, 1)], [(0, 0), (0, 1), (0, 3)], []):
            with pytest.raises(ValueError):
                incidence(partition, pts, betas)
        with pytest.raises(ValueError):
            incidence(partition, pts, [(0, 0, 0)])

    def test_down_set_tables_equal_box_tables(self, square_setup):
        # every beta keeps its gamma order, so a table over |beta| <= 2 is
        # bitwise the entries of the table over beta <= (2, 2)
        dom, _, cover, partition = square_setup
        lattice = dom.ring_lattice(1, 0.004, cover.box)
        down = incidence(partition, lattice, indices_up_to_order(2, 2))
        box = incidence(partition, lattice, indices_below((2, 2)))
        assert len(down.betas) == 6 and len(box.betas) == 9
        assert len(down.rule.gamma) == 9 and len(box.rule.gamma) == 27
        box_table = box.partials()
        for beta, values in down.partials().items():
            assert_bitwise(values, box_table[beta])

    def test_empty_point_sets_give_empty_results(self, square_setup):
        _, _, _, partition = square_setup
        empty = np.empty((0, 2))
        assert fn_values(partition, 7, empty).shape == (0,)
        assert all(v.shape == (0,)
                   for v in fn_table(partition, 7, empty, (2, 1)).values())
        lattice = Lattice.of([np.empty(0), np.empty(0)])
        assert partition_sums(partition, lattice).shape == (0,)
        inc = incidence(partition, lattice, indices_below((1, 1)))
        assert len(inc.rows) == 0
        table = inc.partials()
        assert list(table) == indices_below((1, 1))
        assert all(vals.shape == (0,) for vals in table.values())

    def test_points_outside_every_support_give_zeros(self, square_setup):
        _, _, cover, partition = square_setup
        far = np.array([[3.0, 3.0], [-2.0, 0.3], [0.3, 5.0]])
        assert_bitwise(partition_sums(partition, point_lattice(far)), np.zeros(3))
        for k in range(len(partition)):
            assert_bitwise(fn_values(partition, k, far), np.zeros(3))
            for vals in fn_table(partition, k, far, (2, 2)).values():
                assert_bitwise(vals, np.zeros(3))

    def test_nan_coordinate_raises(self, square_setup):
        _, _, _, partition = square_setup
        nan = np.array([[np.nan, 0.3]])
        with pytest.raises(ValueError, match="NaN"):
            function_values(partition, point_grids(nan), [3])

    def test_all_pairs_readers_take_only_a_lattice(self, square_setup):
        # an array is read only for owners
        dom, _, cover, partition = square_setup
        pts = dom.ring_lattice(1, 0.02, cover.box).points
        with pytest.raises(TypeError, match="Lattice"):
            partition.pairs(pts)
        with pytest.raises(TypeError, match="Lattice"):
            incidence(partition, pts, [(0, 0)])
        with pytest.raises(TypeError, match="Lattice"):
            next(bumps.incidences(partition, pts, [(0, 0)]))

    @pytest.mark.parametrize("alpha", [(0, 0), (2, 1)])
    def test_one_interval_search_per_profile_and_axis(
            self, square_setup, monkeypatch, alpha):
        # the square's 25 cutoffs come at 5 radii and share one profile, so
        # every block makes one search per axis, over the distinct offsets
        # of its pairs (by bit pattern), which repeat on the lattice
        dom, _, cover, partition = square_setup
        lattice = dom.ring_lattice(1, 0.01, Box((0.1, 0.1), (0.55, 0.55)))
        pts = lattice.points
        assert len(set(cover.rho.tolist())) == 5
        searches = []
        locate = piecewise._locate

        def counting_locate(knots, x):
            searches.append(len(x))
            return locate(knots, x)

        monkeypatch.setattr(piecewise, "_locate", counting_locate)
        monkeypatch.setattr(bumps, "_BLOCK_PAIRS", 1024)
        for source, owners in ((lattice, None),
                               (point_grids(pts),
                                np.arange(len(pts)) % len(partition))):
            blocks = searched = pairs = 0
            searches.clear()
            for _, inc in bumps.incidences(partition, source,
                                            indices_below(alpha), owners):
                offsets = ((inc.pts[inc.rows] - partition.centers[inc.fns])
                           / partition.scales[inc.fns, None])
                distinct = [len(set(axis.view(np.uint64).tolist()))
                            for axis in offsets.T]
                assert searches == distinct
                assert max(distinct) <= len(inc.rows)
                blocks += 1
                searched += sum(searches)
                pairs += len(inc.rows) * pts.shape[1]
                searches.clear()
            assert blocks > 1
            assert searched < pairs

    def test_order_beyond_budget_raises(self, square_setup):
        _, _, _, partition = square_setup
        for pts in (np.empty((0, 2)), np.array([[0.3, 0.3]])):
            with pytest.raises(SmoothnessOrderError):
                incidence(partition, point_grids(pts), indices_below((5, 0)),
                          owners=np.full(len(pts), 3))
            with pytest.raises(SmoothnessOrderError):
                fn_table(partition, 3, pts, (0, 5))


@st.composite
def partitions_and_grids(draw):
    """A partition, and a stack of grids, each read for one function (the
    same function for several grids, several functions sharing blockers):
    per axis 0 to 5 coordinates among the faces of the owner's and its
    blockers' supports, the centers and points inside, near and far from
    the support, so that boxes are often empty or one point wide."""
    partition = draw(partitions())
    d, size = partition.centers.shape[1], len(partition)
    centers, half = partition.centers, partition.half
    owners, grids = [], []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(0, size - 1))
        links = [*partition[k].blockers, k]
        axes = []
        for a in range(d):
            pool = sorted({v for m in links
                           for v in (centers[m, a] - half[m], centers[m, a],
                                     centers[m, a] + half[m])}
                          | {centers[k, a] + t * half[k] / 4
                             for t in range(-6, 7)}
                          | {centers[k, a] + 3.0})
            picks = draw(st.lists(st.sampled_from(pool), max_size=5,
                                  unique=True))
            axes.append(np.sort(np.array(picks, dtype=float)))
        owners.append(k)
        grids.append(axes)
    alpha = tuple(draw(st.integers(0, min(2, partition.order - 1)))
                  for _ in range(d))
    return partition, Lattice.stack(grids), np.array(owners), alpha


class TestGridReader:
    """The owner-mode reader on a stack of grids against the point-by-point
    oracles, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(partitions_and_grids())
    def test_pairs_and_tables_equal_the_oracles(self, case):
        partition, grids, owners, alpha = case
        pts = grids.points
        own = np.repeat(owners, grids.sizes)
        cuts = [oracles.cutoff(partition, m) for m in range(len(partition))]
        want = [(i, m) for i, (x, k) in enumerate(zip(pts, own.tolist()))
                if cuts[k].contains_support(x)[0]
                for m in (*partition[k].blockers, k)
                if cuts[m].contains_support(x)[0]]
        rows, cols = partition.pairs(grids, owners)
        assert rows.dtype == cols.dtype == np.int64
        assert list(zip(rows.tolist(), cols.tolist())) == want
        # without owners every grid links to every cutoff
        rows, cols = partition.pairs(grids)
        assert list(zip(rows.tolist(), cols.tolist())) == \
            [(i, m) for i, x in enumerate(pts) for m in range(len(partition))
             if cuts[m].contains_support(x)[0]]
        table = partition_partials(partition, grids, owners,
                                   indices_below(alpha))
        ends = np.cumsum(grids.sizes)
        for beta in indices_below(alpha):
            expected = [oracles.recurrence_table(partition, k, pts[lo:hi],
                                                 alpha)[beta]
                        for k, lo, hi in zip(owners.tolist(),
                                             (ends - grids.sizes).tolist(),
                                             ends.tolist()) if hi > lo]
            assert_bitwise(table[beta], np.concatenate(expected) if expected
                           else np.zeros(0))
        # and each point read alone, as a one-point grid
        alone = partition_partials(partition, point_grids(pts), own,
                                   indices_below(alpha))
        for beta in table:
            assert_bitwise(table[beta], alone[beta])

    def test_large_grid_is_read_in_slabs(self, square_setup, monkeypatch):
        # one core-box grid of 120^2 points among small ones: with a small
        # budget it is cut into slabs of its first axis, and every value
        # stays that of the whole reading
        _, _, cover, partition = square_setup
        half = np.full(cover.size, 0.02)
        half[7] = cover.rho[7]
        grids = Lattice.stack([[np.linspace(z - h, z + h, 120 if k == 7 else 5)
                           for z in center]
                          for k, (center, h) in enumerate(zip(cover.centers,
                                                              half))])
        owners = np.arange(cover.size)
        whole = partition_partials(partition, grids, owners,
                                   indices_below((1, 1)))
        monkeypatch.setattr(bumps, "_BLOCK_PAIRS", 512)
        blocks = list(bumps.incidences(partition, grids, [(0, 0)], owners))
        assert len(blocks) > 20
        starts = [block.start for block, _ in blocks]
        assert starts == sorted(starts) and blocks[-1][0].stop == len(grids.points)
        assert [block.start for block, _ in blocks[1:]] == \
            [block.stop for block, _ in blocks[:-1]]
        # a block over the budget is one first-axis row of the large grid
        assert all(len(inc.rows) <= 512 or len(inc.pts) == 120
                   for _, inc in blocks)
        blocked = partition_partials(partition, grids, owners,
                                     indices_below((1, 1)))
        for beta in whole:
            assert_bitwise(blocked[beta], whole[beta])

    def test_one_box_search_per_reading(self, square_setup, monkeypatch):
        # a reading searches its links' boxes once, one interval search per
        # axis, and cuts them to each block, however many blocks it reads
        dom, _, cover, partition = square_setup
        lattice = dom.ring_lattice(1, 0.004, cover.box)
        grids = Lattice.linspace(cover.centers, cover.rho, 12)
        owners = np.arange(cover.size)
        cover.oracle.values(3, cover.centers)   # the oracle's own searches
        monkeypatch.setattr(bumps, "_BLOCK_PAIRS", 256)
        assert len(list(bumps.incidences(partition, grids, [(0, 0)],
                                         owners))) > 5
        assert len(list(bumps.incidences(partition, lattice, [(0, 0)]))) > 5
        searches = []
        search = domains._interval_within

        def counting_search(*args, **kwargs):
            searches.append(len(args[1]))     # the queries
            return search(*args, **kwargs)

        monkeypatch.setattr(domains, "_interval_within", counting_search)
        partition_partials(partition, grids, owners, indices_below((1, 1)))
        assert searches == [len(partition.links)] * 2
        searches.clear()
        certify_partition(partition, cover, cover.oracle, 2, lattice)
        assert searches == [len(partition)] * 2

    def test_a_grid_reads_only_its_owner(self, square_setup):
        # a grid over several supports: points outside the owner's support
        # read zero, points inside read the owner's function alone
        _, _, cover, partition = square_setup
        axes = [np.linspace(0.15, 0.5, 36)] * 2
        k = 12
        grids = Lattice.stack([axes])
        values = function_values(partition, grids, [k])
        pts = grids.points
        assert_bitwise(values, oracles.recurrence_table(
            partition, k, pts, (0, 0))[(0, 0)])
        outside = ~oracles.cutoff(partition, k).contains_support(pts)
        assert outside.any() and not values[outside].any()


class TestProfile:
    def test_single_box_is_trapezoid(self):
        p = build_profile(1.0, 1)
        assert p.eval(0.0) == pytest.approx(1.0)
        # one box of width r/3 smooths the indicator of [-3r/4, 3r/4]
        plateau = p.inner_halfwidth - p.smoothing_halfwidth
        assert plateau == pytest.approx(0.75 - 1.0 / 6.0)
        assert p.support_halfwidth == pytest.approx(0.75 + 1.0 / 6.0)

    def test_mass_is_plateau_width(self):
        for r in (1.0, 0.5, 0.3):
            p = build_profile(r, 4)
            assert p.polys[0].mass() == pytest.approx(1.5 * r, rel=1e-12)

    def test_plateau_covers_half_radius(self):
        for r in (1.0, 0.44, 0.125):
            p = build_profile(r, 5)
            plateau = p.inner_halfwidth - p.smoothing_halfwidth
            assert plateau == pytest.approx(7 * r / 12)
            assert plateau > r / 2
            assert p.support_halfwidth == pytest.approx(11 * r / 12)
            assert p.support_halfwidth < r
            assert p.eval(r / 2) == pytest.approx(1.0, abs=1e-12)
            assert p.eval(r) == 0.0

    def test_range(self):
        p = build_profile(0.5, 6)
        ts = np.linspace(-0.6, 0.6, 2001)
        vals = p.eval(ts)
        assert vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-12

    def test_exact_derivative_bound(self):
        # sup |second derivative| <= 4 / (d1 d2), measured on the exact spline
        p = build_profile(0.5, 3)
        measured = p.polys[2].max_abs()
        bound = p.derivative_bound(2)
        assert bound == pytest.approx(4.0 / (p.widths[0] * p.widths[1]))
        assert measured <= bound * (1 + 1e-12)
        assert measured > 0.1 * bound   # not vacuous

    def test_all_orders_bounded(self):
        p = build_profile(0.7, 6)
        for j in range(6):
            assert p.polys[j].max_abs() <= p.derivative_bound(j) * (1 + 1e-12)

    def test_order_budget_enforced(self):
        p = build_profile(0.5, 3)
        with pytest.raises(SmoothnessOrderError):
            p.eval(0.0, order=3)

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            build_profile(0.5, 0)
        with pytest.raises(ValueError):
            build_profile(0.5, 3, weights=[0.2, 0.3, 0.5])  # increasing
        build_profile(0.5, 3, weights=[1 / 3] * 3)  # constant is allowed


# sup-norm distance of either evaluation path from the exact profile, as a
# share of the sup of the exact partial of the same order, for orders <= 6
EXACT_BOUND = 1e-11


class TestCutoff:
    """The per-cutoff evaluation the engine's factors are held to
    (``oracles.Cutoff``), against the profile itself."""

    def test_tensor_factorization(self):
        profile = build_profile(1.0, 4)
        cut = oracles.Cutoff((0.2, -0.1), profile, 0.5)
        x = np.array([0.3, 0.05])
        expected = profile.eval(0.2) * profile.eval(0.3)
        assert cut.value(x) == pytest.approx(expected, rel=1e-12)
        d1 = profile.eval(0.2, order=1) / 0.5 * profile.eval(0.3)
        assert cut.partial(x, (1, 0)) == pytest.approx(d1, rel=1e-12)
        assert cut.support_halfwidth == 0.5 * profile.support_halfwidth

    def test_outside_support_exactly_zero(self):
        cut = oracles.Cutoff((0.0,), build_profile(1.0, 4), 0.5)
        for alpha in [(0,), (1,), (2,)]:
            assert cut.partial(np.array([0.5]), alpha) == 0.0
            assert cut.partial(np.array([5.0]), alpha) == 0.0

    @pytest.mark.parametrize("rho", [1.0, 0.5, 0.25, 0.125, 0.0625])
    def test_power_of_two_scale_is_bitwise_the_per_radius_profile(self, rho):
        # scaling by a power of two is exact, in the profile's construction
        # and in its evaluation
        rng = np.random.default_rng(7)
        for order in (3, 4, 5, 6):
            profile = build_profile(1.0, order)
            cut = oracles.Cutoff((0.3, -0.2), profile, rho)
            h = cut.support_halfwidth
            x = np.asarray(cut.center) + rng.uniform(-1.1 * h, 1.1 * h, (300, 2))
            x[:len(profile.knots), 0] = cut.center[0] + rho * profile.knots
            top = (order - 1,) * 2
            inc = incidence(Partition(profile, [cut.center], [rho], [()]),
                            point_grids(x), indices_below(top),
                            owners=np.zeros(len(x), int))
            for alpha in indices_below(top):
                expected = oracles.per_radius_partial(cut, x, alpha)
                assert_bitwise(cut.partial(x, alpha), expected)
                # and the engine's factors at the pairs in the support
                assert_bitwise(inc.factors[inc.betas.index(alpha)],
                               expected[inc.rows])

    @pytest.mark.parametrize("rho", [0.37, 0.123456, 1.0 / 3.0])
    def test_both_paths_near_the_exact_profile(self, rho):
        # the scaled profile and the per-radius one, against the profile's
        # exact rational value at the exact offset
        rng = np.random.default_rng(11)
        for order in (4, 6):
            profile = build_profile(1.0, order)
            cut = oracles.Cutoff((0.3,), profile, rho)
            h = cut.support_halfwidth
            x = 0.3 + np.concatenate([rng.uniform(-1.05 * h, 1.05 * h, 24),
                                      rho * rng.choice(profile.knots, 16)])
            for j in range(order):
                exact = np.array([float(oracles.exact_profile(
                    profile.weights, rho, Fraction(v) - Fraction(0.3), j))
                    for v in x])
                bound = EXACT_BOUND * profile.polys[j].max_abs() * rho ** -j
                for path in (cut.partial(x[:, None], (j,)),
                             oracles.per_radius_partial(cut, x[:, None], (j,))):
                    assert np.abs(path - exact).max() <= bound


class TestPartition:
    def test_single_ball_partition_is_cutoff(self):
        dom = expanding_boxes(1)
        fam = constant_weight_family(dom)
        cover = build_cover(fam, dom, 1, 1e-3, box=Box((-0.05,), (0.05,)))
        part = build_partition(cover, order=4)
        assert fn_values(part, 0, np.array([[0.0]]))[0] == pytest.approx(1.0)
        grid = dom.ring_lattice(1, 1e-3, cover.box)
        assert partition_sums(part, grid) == \
            pytest.approx(np.ones(len(grid.points)))

    def test_two_ball_telescoping_identity(self):
        dom = expanding_boxes(1)
        fam = constant_weight_family(dom)
        cover = build_cover(fam, dom, 1, 1e-3, box=Box((-0.2,), (0.2,)))
        assert cover.size == 2
        part = build_partition(cover, order=4)
        xs = Lattice.of([np.linspace(-0.6, 0.6, 241)])
        phi1 = oracles.cutoff(part, 0).value(xs.points)
        phi2 = oracles.cutoff(part, 1).value(xs.points)
        total = partition_sums(part, xs)
        assert total == pytest.approx(1.0 - (1 - phi1) * (1 - phi2), abs=1e-14)

    def test_sum_to_one_on_ring(self, line_setup):
        dom, fam, cover, partition = line_setup
        grid = dom.ring_lattice(1, 1e-3, cover.box)
        sums = partition_sums(partition, grid)
        assert np.abs(sums - 1.0).max() <= 1e-12

    def test_sum_never_exceeds_one(self, line_setup):
        dom, fam, cover, partition = line_setup
        pts = Lattice.of([np.linspace(-1.5, 1.5, 601)])
        sums = partition_sums(partition, pts)
        assert sums.max() <= 1.0 + 1e-12
        assert sums.min() >= -1e-12

    def test_one_profile_for_all_cutoffs(self, square_setup):
        _, _, cover, partition = square_setup
        profile = partition.profile
        assert len(set(cover.rho.tolist())) == 5
        assert_bitwise(partition.centers, cover.centers)
        assert_bitwise(partition.scales, cover.rho)
        for k, rho in enumerate(cover.rho.tolist()):
            assert partition.half[k] == rho * profile.support_halfwidth
            assert partition.powers[k].tolist() == \
                [rho ** -b for b in range(profile.order)]
        assert (partition.order, partition.weights) == (5, profile.weights)
        fresh = build_profile(1.0, partition.order, partition.weights)
        assert (profile.scale, profile.widths) == (fresh.scale, fresh.widths)
        assert len(profile.polys) == len(fresh.polys)
        for shared, own in zip(profile.polys, fresh.polys):
            assert shared.knots.tobytes() == own.knots.tobytes()
            assert shared.coeffs.tobytes() == own.coeffs.tobytes()

    def test_blockers_only_earlier_neighbors(self, line_setup):
        _, _, cover, partition = line_setup
        neighbors = oracles.neighbors(cover)
        for fn in partition:
            for m in fn.blockers:
                assert m < fn.index
                assert m in neighbors[fn.index]

    def test_blockers_follow_the_radii_of_a_replaced_cover(self, square_setup):
        # the neighbour certificate leaves nothing on the cover that a copy
        # with other radii could carry over
        _, _, cover, _ = square_setup
        neighbor_sets(cover)
        grown = dataclasses.replace(cover, rho=3.0 * cover.rho)
        want = [[m for m in members if m < k]
                for k, members in enumerate(oracles.neighbors(grown))]
        assert [list(fn.blockers) for fn in build_partition(grown, order=5)] \
            == want
        assert want != [list(fn.blockers)
                        for fn in build_partition(cover, order=5)]


class TestEvalPartial:
    def test_first_partial_matches_finite_differences(self, line_setup):
        _, _, cover, partition = line_setup
        cuts = [3, *partition[3].blockers]
        rng = np.random.default_rng(42)
        h = 1e-5
        checked = 0
        knots = np.concatenate([
            partition.profile.knots * partition.scales[c] + partition.centers[c, 0]
            for c in cuts])
        while checked < 20:
            x = rng.uniform(cover.centers[3, 0] - 0.5, cover.centers[3, 0] + 0.5)
            if np.abs(knots - x).min() < 5 * h:
                continue
            exact = fn_table(partition, 3, np.array([[x]]), (1,))[(1,)][0]
            if abs(exact) < 2.0:
                continue    # keep the truncation term well below the value
            v = fn_values(partition, 3, np.array([[x + h], [x - h]]))
            fd = (v[0] - v[1]) / (2 * h)
            assert fd == pytest.approx(exact, rel=1e-6)
            checked += 1

    def test_mixed_partial_2d(self):
        dom = expanding_boxes(2)
        fam = constant_weight_family(dom)
        cover = build_cover(fam, dom, 1, 0.05, box=Box((-0.6, -0.6), (0.6, 0.6)))
        part = build_partition(cover, order=5)
        k = min(2, len(part) - 1)
        x = cover.centers[k] + np.array([0.21, -0.18])
        h = 1e-5
        exact = fn_table(part, k, x[None, :], (1, 1))[(1, 1)][0]
        v = fn_values(part, k, x + np.array([[h, h], [h, -h], [-h, h], [-h, -h]]))
        fd = (v[0] - v[1] - v[2] + v[3]) / (4 * h * h)
        assert fd == pytest.approx(exact, rel=1e-4, abs=1e-7)

    def test_tables_equal_per_beta_evaluation(self):
        dom = expanding_boxes(2)
        fam = constant_weight_family(dom)
        cover = build_cover(fam, dom, 1, 0.05, box=Box((-0.6, -0.6), (0.6, 0.6)))
        part = build_partition(cover, order=5)
        pts = dom.sample_ring(1, 0.02, cover.box)
        alpha = (3, 2)
        betas = indices_below(alpha)
        for k in range(len(part)):
            cut = oracles.cutoff(part, k)
            table = oracles.cutoff_partials_table(cut, pts, alpha)
            for beta in betas:
                assert np.array_equal(table[beta], cut.partial(pts, beta))
            table = fn_table(part, k, pts, alpha)
            # certify_partition reads the order-0 bound's measurement here
            assert table[(0, 0)].tobytes() == fn_values(part, k, pts).tobytes()
            expected = oracles.recurrence_table(
                part, k, pts, alpha, factors=lambda cut, at, alpha: {
                    beta: cut.partial(at, beta) for beta in betas})
            for beta in betas:
                assert np.array_equal(table[beta], expected[beta])
                assert np.array_equal(np.signbit(table[beta]),
                                      np.signbit(expected[beta]))
        assert max(len(fn.blockers) for fn in part) > 1

    def test_order_error(self, line_setup):
        _, _, _, partition = line_setup
        with pytest.raises(SmoothnessOrderError):
            fn_table(partition, 0, np.array([[0.0]]), (6,))


def wide_partition(partition):
    """``partition`` with a profile that claims the support of radius 0.8
    but takes the polys of radius 1, each cutoff scaled by 1.25 rho: its
    claimed support stays inside the ball, its polys reach past."""
    profile = partition.profile
    bad_profile = dataclasses.replace(
        build_profile(0.8, profile.order, profile.weights), polys=profile.polys)
    return Partition(bad_profile, partition.centers, 1.25 * partition.scales,
                     [fn.blockers for fn in partition])


def assert_certificates_match_loops(certs, partition, cover, grid):
    """The sum, range and derivative certificates (``alpha_max`` 2) equal
    one-function-at-a-time loops over the points ``grid``."""
    certs = {c.claim: c for c in certs}
    sums = oracles.recurrence_sum(partition, grid)
    ring = cover.domain.ring(cover.level).contains(grid)
    assert certs["partition.sum_to_one"].measured == \
        float(np.abs(sums[ring] - 1.0).max())
    below, excess = 0.0, []
    for k in range(len(partition)):
        inside = oracles.cutoff(partition, k).contains_support(grid)
        vals = oracles.recurrence_table(partition, k, grid[inside],
                                        (0,) * grid.shape[1])[(0,) * grid.shape[1]]
        if len(vals):
            below = min(below, float(vals.min()))
            excess.append(float(vals.max() - 1.0))
    above = max([float(np.max(sums - 1.0))] + excess)
    assert certs["partition.range"].details == {"min_value": below,
                                                "max_excess": above}
    ratio, tight = oracles.derivative_pass(partition, cover, cover.oracle,
                                           2, grid)
    assert certs["partition.derivative_bound"].measured == ratio
    assert certs["partition.derivative_bound"].details == tight


class TestCertifyPartition:
    def test_full_certificates_pass(self, line_setup):
        dom, fam, cover, partition = line_setup
        oracle = cover.oracle
        grid = dom.ring_lattice(1, 2e-3, cover.box)
        certs = certify_partition(partition, cover, oracle, alpha_max=3,
                                  grid=grid)
        by_claim = {c.claim: c for c in certs}
        assert by_claim["partition.sum_to_one"].verdict == "pass"
        assert by_claim["partition.sum_to_one"].measured <= 1e-12
        assert by_claim["partition.range"].verdict == "pass"
        assert by_claim["partition.support_in_ball"].verdict == "pass"
        assert by_claim["partition.derivative_bound"].verdict == "pass"
        # order 0 alone measures the largest value on the support box; the
        # depth-3 radius 1/2 puts the bound at 2
        tight = certify_partition(partition, cover, oracle, alpha_max=0,
                                  grid=grid)[-1].details
        k = tight["center"]
        lo = cover.centers[k] - partition.half[k]
        hi = cover.centers[k] + partition.half[k]
        pts = grid.points
        local = pts[((pts >= lo) & (pts <= hi)).all(axis=1)]
        assert tight["alpha"] == [0]
        assert tight["measured"] == float(np.abs(fn_values(partition, k, local)).max())
        assert tight["measured"] == pytest.approx(1.0, abs=1e-12)
        assert tight["bound"] == 2.0

    def test_passes_match_per_function_loops(self, square_setup):
        dom, _, cover, partition = square_setup
        grid = dom.ring_lattice(1, 0.004, cover.box)
        assert_certificates_match_loops(
            certify_partition(partition, cover, cover.oracle, 2, grid),
            partition, cover, grid.points)

    def test_polys_past_the_claimed_support_fail_the_support_pass(
            self, square_setup):
        # the wide partition's claimed supports stay inside the balls, and
        # its polys reach past them
        dom, _, cover, partition = square_setup
        grid = dom.ring_lattice(1, 0.02, cover.box)
        claim = "partition.support_in_ball"
        bad = wide_partition(partition)
        assert (bad.half < cover.rho).all()
        assert (cover.rho < bad.scales * partition.profile.support_halfwidth).all()
        for part, verdict in ((partition, "pass"), (bad, "fail")):
            certs = {c.claim: c for c in
                     certify_partition(part, cover, cover.oracle, 1, grid)}
            assert certs[claim].verdict == verdict
        assert certs[claim].details["center"] == partition[0].index
        assert certs[claim].details["nonzero_outside"] > 0.0

    def test_probe_values_equal_each_cutoff_bitwise(self, square_setup):
        _, _, cover, partition = square_setup
        rng = np.random.default_rng(3)
        probes = (cover.centers[:, None, :]
                  + rng.uniform(-1.6, 1.6, (len(partition), 7, 2))
                  * cover.rho[:, None, None])
        for part in (partition, wide_partition(partition)):
            got = bumps.cutoff_values(
                part, probes.reshape(-1, 2),
                np.repeat(np.arange(len(part)), 7)).reshape(probes.shape[:2])
            assert (got != 0.0).any() and (got == 0.0).any()
            for k, (pts, vals) in enumerate(zip(probes, got)):
                assert_bitwise(vals, oracles.cutoff(part, k).value(pts))

    def test_derivative_constant_formula(self):
        w = default_weights(4)
        # one-dimensional order-2 constant: 8 * 1 * 2! * 6^2 / (w1 w2)
        expected = 8.0 * 1 * 2 * 36.0 / (w[0] * w[1])
        assert derivative_constant((2,), 1, w) == pytest.approx(expected)
        assert derivative_constant((0, 0), 2, w) == 1.0

    def test_zero_order_bound_uses_radius_power_only(self, line_setup):
        dom, fam, cover, partition = line_setup
        # sampled depth-3 radius is 1/2, so the order-0 bound is 2^d
        oracle = cover.oracle
        assert (8.0 / oracle.value(3, cover.centers[0])) ** 1 == pytest.approx(16.0)
