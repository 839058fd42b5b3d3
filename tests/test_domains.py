import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import point_grids
from covercert import (Box, BoxRegion, DistanceRegion, DomainMembershipError,
                       ExhaustionDomain, NoRingPointsError, constant_exhaustion,
                       exhaustion_gap, expanding_boxes, full_space,
                       shrinking_boxes)
from covercert.domains import (Lattice, _interval_within, cell_lattice,
                               lattice_axes, mesh_points)


def unit_interval():
    return constant_exhaustion(BoxRegion(Box((0.0,), (1.0,))), name="unit_interval")


def unit_square():
    return constant_exhaustion(BoxRegion(Box((0.0, 0.0), (1.0, 1.0))),
                               name="unit_square")


def omega_distance(dom, x):
    """Sup-norm distance from domain points to the domain boundary."""
    return dom.omega.boundary_distance(dom.require_in_omega(x))


def ring_distance(dom, n, x):
    """Distance from points of ring n to the boundary of ring n + 1."""
    return dom.ring(n + 1).boundary_distance(dom.require_in_ring(n, x))


class TestBoundaryDistance:
    def test_interval(self):
        assert omega_distance(unit_interval(), np.array([0.25])) == [0.25]

    def test_square_min_coordinate(self):
        assert omega_distance(unit_square(), np.array([0.5, 0.1])) == \
            pytest.approx([0.1])

    def test_full_space_is_infinite(self):
        dom = full_space(2)
        assert omega_distance(dom, np.array([3.0, -7.0])) == [math.inf]

    def test_outside_point_rejected(self):
        with pytest.raises(DomainMembershipError):
            omega_distance(unit_interval(), np.array([1.5]))
        with pytest.raises(DomainMembershipError):
            omega_distance(unit_interval(), np.array([[0.5], [1.5]]))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99),
           st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    def test_lipschitz_in_sup_norm(self, x1, x2, y1, y2):
        dom = unit_square()
        x = np.array([x1, x2])
        y = np.array([y1, y2])
        dx, dy = omega_distance(dom, np.stack([x, y]))
        assert abs(dx - dy) <= np.abs(x - y).max() + 1e-12


_FACES = [-np.inf, -1.0, -0.0, 0.0, 0.25, 1.0, np.inf]


@st.composite
def boxes_and_points(draw):
    """An open or closed box of d = 1..3 axes with finite and infinite
    faces, and points on its faces, inside and outside it, at +-0.0, +-inf
    and NaN."""
    d = draw(st.integers(1, 3))
    faces = [sorted(draw(st.lists(st.sampled_from(_FACES), min_size=2,
                                  max_size=2, unique=True)))
             for _ in range(d)]
    box = Box(tuple(lo for lo, _ in faces), tuple(hi for _, hi in faces))
    coords = [st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, lo, hi])
              | st.integers(-8, 8).map(lambda t: t / 4)
              | st.floats(-2.0, 2.0)
              for lo, hi in faces]
    pts = draw(st.lists(st.tuples(*coords), max_size=30))
    return box, draw(st.booleans()), np.array(pts, dtype=float).reshape(-1, d)


def assert_same_distances(actual, expected):
    """Equal bits, except that a NaN need only meet a NaN: which of several
    NaNs a numpy reduction passes on, and so its sign bit, is the loop's
    own choice."""
    nan = np.isnan(expected)
    assert actual.dtype == expected.dtype
    assert np.array_equal(np.isnan(actual), nan)
    assert np.where(nan, 0.0, actual).tobytes() == \
        np.where(nan, 0.0, expected).tobytes()


class TestColumnPasses:
    """The per-axis loops of ``Box.contains`` and
    ``BoxRegion.boundary_distance`` against the reductions along d that
    they replaced, bit for bit (signed zeros and infinities included; NaN
    in the same places)."""

    @staticmethod
    def check(box, closed, pts):
        region = BoxRegion(box, closed)
        assert_same_distances(region.boundary_distance(pts),
                              oracles.boundary_distance(region, pts))
        got, want = box.contains(pts, closed), oracles.box_contains(box, pts, closed)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    @settings(max_examples=300, deadline=None)
    @given(boxes_and_points())
    def test_equal_to_axis_reductions(self, case):
        self.check(*case)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_long_arrays(self, d):
        # long enough for numpy's vectorised reduction loops
        rng = np.random.default_rng(d)
        special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 0.25, 1.0])
        pts = np.where(rng.random((5000, d)) < 0.3,
                       rng.choice(special, (5000, d)),
                       rng.uniform(-2.0, 2.0, (5000, d)))
        for box in (Box((-0.0,) * d, (1.0,) * d),
                    Box((-np.inf,) * d, (0.25,) * d)):
            for closed in (False, True):
                self.check(box, closed, pts)


class TestRingDistance:
    def test_nested_intervals(self):
        dom = expanding_boxes(1)
        assert ring_distance(dom, 1, np.array([0.5])) == pytest.approx([1.5])

    def test_slab(self):
        dom = expanding_boxes(2, axes=(0,))
        assert ring_distance(dom, 1, np.array([0.2, 7.0])) == pytest.approx([1.8])

    def test_full_space(self):
        dom = full_space(3)
        assert ring_distance(dom, 4, np.zeros(3)) == [math.inf]

    def test_membership_precondition(self):
        dom = expanding_boxes(1)
        with pytest.raises(DomainMembershipError):
            ring_distance(dom, 1, np.array([2.5]))

    def test_at_least_gap_on_samples(self):
        dom = shrinking_boxes((0.0,), (1.0,))
        gap = exhaustion_gap(dom, 2).value
        pts = dom.sample_ring(2, 1e-3, Box((0.0,), (1.0,)))
        dists = ring_distance(dom, 2, pts)
        assert (dists >= gap - 1e-12).all()


class TestExhaustionGap:
    def test_nested_intervals_exact(self):
        dom = expanding_boxes(1)
        est = exhaustion_gap(dom, 3)
        assert est.exact and est.value == pytest.approx(1.0)

    def test_full_space_flagged(self):
        est = exhaustion_gap(full_space(2), 1)
        assert est.value == math.inf and est.note == "full-space"

    def test_sampled_lower_estimate_for_distance_regions(self):
        # nested sup-norm disks given only by predicates and distance
        # functions: the estimate must bound the true gap from below
        def disk(radius):
            return DistanceRegion(
                2,
                member=lambda pts: np.abs(pts).max(axis=1) < radius,
                distance=lambda pts: radius - np.abs(pts).max(axis=1),
                bounding_box=Box((-radius, -radius), (radius, radius)))

        dom = ExhaustionDomain(disk(10.0), lambda n: disk(float(n)),
                               kind="bounded_open_set_with_distance_fn")
        est = exhaustion_gap(dom, 1, sample_resolution=0.02)
        assert not est.exact
        assert est.resolution == 0.02
        assert est.value <= 1.0 + 1e-12
        assert est.value >= 1.0 - 2 * 0.02

    def test_compact_exhaustion_matches_brute_force(self):
        dom = shrinking_boxes((0.0,), (1.0,))
        n = 2
        est = exhaustion_gap(dom, n)
        # brute force: min over sampled ring points of the distance to the
        # two boundary points of the next ring
        step = 1e-4
        xs = np.arange(1.0 / (n + 2) + step, 1.0 - 1.0 / (n + 2), step)
        boundary = np.array([1.0 / (n + 3), 1.0 - 1.0 / (n + 3)])
        brute = min(min(abs(x - b) for b in boundary) for x in xs)
        assert est.exact
        assert est.value == pytest.approx(brute, abs=2 * step)
        assert est.value == pytest.approx(1.0 / (n + 2) - 1.0 / (n + 3), rel=1e-12)


class TestExhaustionStructure:
    @pytest.mark.parametrize("dom", [expanding_boxes(1), expanding_boxes(2, axes=(0,)),
                                     shrinking_boxes((0.0,), (1.0,))])
    def test_rings_increase(self, dom):
        box = dom.ring(3).bounding_box
        if not box.is_bounded:
            box = Box((-3.0,) * dom.dimension, (3.0,) * dom.dimension)
        pts = Lattice.of(lattice_axes(box, 0.05)).points
        for n in (1, 2, 3):
            inside = dom.ring(n).contains(pts)
            outside_next = ~dom.ring(n + 1).contains(pts)
            assert not (inside & outside_next).any()

    def test_rings_nonempty_and_exhaust(self):
        dom = shrinking_boxes((0.0,), (1.0,))
        pts = Lattice.of(lattice_axes(Box((0.001,), (0.999,)), 0.001)).points
        pts = pts[dom.omega.contains(pts)]
        # margin(n) = 1/(n+2), so a ring with margin below the smallest
        # boundary distance of the sample set covers all of it
        min_dist = float(omega_distance(dom, pts).min())
        n_needed = math.ceil(1.0 / min_dist)
        assert dom.ring(n_needed).contains(pts).all()
        assert not dom.ring(1).contains(np.array([[0.001]]))[0]

    def test_closure_flag(self):
        dom = expanding_boxes(1, closed=True)
        assert dom.ring(1).contains(np.array([[1.0]]))[0]
        assert dom.ring(1).is_closed


class TestGrids:
    def test_lexicographic_order(self):
        pts = Lattice.of(lattice_axes(Box((0.0, 0.0), (0.2, 0.2)), 0.1)).points
        assert pts.tolist() == [[0.0, 0.0], [0.0, 0.1], [0.0, 0.2],
                                [0.1, 0.0], [0.1, 0.1], [0.1, 0.2],
                                [0.2, 0.0], [0.2, 0.1], [0.2, 0.2]]

    def test_open_ring_filters_endpoints(self):
        dom = expanding_boxes(1)
        pts = dom.sample_ring(1, 0.01, Box((-1.0,), (1.0,)))
        assert pts.min() == pytest.approx(-0.99)
        assert pts.max() == pytest.approx(0.99)


@st.composite
def axis_queries(draw):
    """An axis (dyadic, so that half steps tie radii exactly, or the float
    lattice of a decimal step) with centers on it, between its points, off
    both ends and non-finite, and radii among 0, multiples of half a step,
    the float gap from the center to an axis point (a tie that ``z -+ r``
    may round past), inf and NaN."""
    m = draw(st.integers(1, 40))
    if draw(st.booleans()):
        step = 2.0 ** -draw(st.integers(0, 6))
        axis = draw(st.integers(-16, 16)) / 8 + step * np.arange(m)
    else:
        step = draw(st.sampled_from([0.1, 0.03, 0.0125]))
        axis = lattice_axes(Box((0.13,), (0.13 + step * (m - 0.5),)), step)[0]
    index = st.integers(0, m - 1)
    half_steps = st.integers(-4, 2 * m + 4).map(lambda t: t * step / 2)
    z, r = [], []
    for _ in range(draw(st.integers(1, 12))):
        z.append(draw(index.map(lambda i: axis[i])
                      | half_steps.map(lambda h: axis[0] + h)
                      | st.sampled_from([np.nan, np.inf, -np.inf])))
        r.append(draw(index.map(lambda j: abs(axis[j] - z[-1]))
                      | half_steps.map(abs)
                      | st.sampled_from([0.0, np.inf, np.nan])))
    return axis, np.array(z), np.array(r)


def interval_within(axis, z, r, strict=False, stacked=False):
    """``_interval_within`` on the one grid ``axis``: a one-grid lattice's
    float axis, or (``stacked``) the complex keys of a stack that holds
    ``axis`` as its second grid."""
    if stacked:
        lattice = Lattice.stack([[np.array([-1.0, 0.5, 7.0])], [axis]])
    else:
        lattice = Lattice.of([axis])
    keys = lattice._keys[0]
    assert keys.dtype == (complex if stacked else float)
    start = np.full(len(z), lattice.starts[0][-1])
    return _interval_within(keys, start, np.full(len(z), len(axis)), z, r,
                            strict)


@settings(max_examples=300, deadline=None)
@given(axis_queries(), st.booleans(), st.booleans())
def test_interval_within_equals_bisection(query, strict, stacked):
    axis, z, r = query
    got = interval_within(axis, z, r, strict, stacked)
    want = oracles.interval_within(axis, z, r, strict)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    # a NaN center or radius holds no index
    nan = np.isnan(z) | np.isnan(r)
    assert (got[0][nan] == 0).all() and (got[1][nan] == -1).all()


@pytest.mark.parametrize("step", [0.1, 0.03, 0.0125])
@pytest.mark.parametrize("strict", [False, True])
def test_interval_within_every_gap_of_a_lattice(step, strict):
    # every center on the axis with every float gap to an axis point as its
    # radius: z + r often rounds past the tying point, and the ends must
    # step back to where the gap test flips
    axis = lattice_axes(Box((0.13,), (0.13 + step * 40.5,)), step)[0]
    z = np.repeat(axis, len(axis))
    r = np.abs(np.tile(axis, len(axis)) - z)
    got = interval_within(axis, z, r, strict)
    want = oracles.interval_within(axis, z, r, strict)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@st.composite
def thinned_cases(draw):
    """A lattice in d = 1..3 of random sorted axes, unmasked or under a
    random mask, and a cap from 1 to one past its point count."""
    d = draw(st.integers(1, 3))
    shape = [draw(st.integers(1, (14, 10, 6)[d - 1])) for _ in range(d)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    axes = [np.sort(rng.uniform(-1.0, 1.0, n)) for n in shape]
    if draw(st.booleans()):
        inside = rng.random(shape) < draw(st.floats(0.1, 0.9))
        lattice = Lattice.stack([axes], inside)
    else:
        lattice = Lattice.of(axes)
    cap = draw(st.integers(1, len(lattice.points) + 1))
    return lattice, cap


class TestThinnedLattice:
    @settings(max_examples=200, deadline=None)
    @given(thinned_cases())
    def test_least_stride_under_the_cap(self, case):
        lattice, cap = case
        # lexicographic, as the points
        index = np.argwhere(lattice.inside.reshape(lattice.shape[0]))
        # the bounding index box of the cells inside
        first = index.min(axis=0) if len(index) else np.zeros(index.shape[1], int)
        last = index.max(axis=0) if len(index) else first - 1

        def kept(s):
            return ((index - first) % s == 0).all(axis=1)

        # past the longest axis of the box every stride keeps its first
        # corner alone
        fits = [s for s in range(1, max(last - first + 1, default=0) + 1)
                if 0 < kept(s).sum() <= cap]
        if not fits:
            with pytest.raises(NoRingPointsError):
                lattice.thinned(cap)
            return
        least = fits[0]
        sample, stride = lattice.thinned(cap)
        assert stride == least
        # the lattice's own points at every stride-th index, bitwise and in
        # order, and the sub-lattice's axes and mask hold just them
        assert sample.points.tobytes() == \
            lattice.points[kept(stride)].tobytes()
        for axis, own, lo, hi in zip(sample.axes, lattice.axes, first, last):
            assert axis.tobytes() == own[lo:hi + 1:stride].tobytes()
        assert sample.points.tobytes() == \
            mesh_points(sample.axes)[sample.inside].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 400), st.data())
    def test_unmasked_line_is_a_flat_stride(self, n, data):
        lattice = Lattice.of([np.linspace(0.0, 1.0, n)])
        cap = data.draw(st.integers(1, n + 1))
        sample, stride = lattice.thinned(cap)
        assert stride == math.ceil(n / cap)
        assert sample.points.tobytes() == \
            lattice.points[::math.ceil(n / cap)].tobytes()

    def test_a_row_off_the_first_index_is_thinned_from_it(self):
        # one row of 3,222 cells at index 1 of the second axis: stride 2
        # from that row keeps every other cell of it
        axes = [np.arange(3222) * 0.003, np.arange(4) * 0.003]
        inside = np.zeros((3222, 4), dtype=bool)
        inside[:, 1] = True
        lattice = Lattice.stack([axes], inside)
        sample, stride = lattice.thinned(2500)
        assert stride == 2 and len(sample.points) == 1611
        assert sample.points.tobytes() == lattice.points[::2].tobytes()

    def test_a_cap_below_one_raises(self):
        with pytest.raises(ValueError):
            Lattice.of([np.arange(3.0)]).thinned(0)


@st.composite
def ball_boxes(draw):
    """Boxes about centers on a coarse lattice, with half-widths that are
    multiples of a step or not, and a resolution that divides them or
    not."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(0, 6))
    ints = st.lists(st.integers(-8, 8), min_size=k * d, max_size=k * d)
    centers = np.array(draw(ints), dtype=float).reshape(k, d) / 8.0
    rho = np.array(draw(st.lists(st.sampled_from([0.05, 0.1, 1 / 3, 0.125,
                                                   0.37]),
                                 min_size=k, max_size=k)), dtype=float)
    res = draw(st.sampled_from([0.01, 0.0125, 0.03, 0.1]))
    return centers, rho, res


class TestGridStacks:
    @settings(max_examples=60, deadline=None)
    @given(ball_boxes(), st.integers(1, 6))
    def test_linspace_is_each_balls_mesh(self, case, count):
        centers, rho, _ = case
        grids = Lattice.linspace(centers, rho, count)
        want = [mesh_points([np.linspace(z - r, z + r, count) for z in center])
                for center, r in zip(centers, rho.tolist())]
        assert grids.sizes.tolist() == [len(pts) for pts in want]
        for k, pts in enumerate(want):
            assert grids.points[k * len(pts):(k + 1) * len(pts)].tobytes() == \
                pts.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_within_is_the_interval_on_each_grid(self, data):
        d = data.draw(st.integers(1, 3))
        step = data.draw(st.sampled_from([0.1, 0.03, 0.125]))
        # grids of 0 to 7 cells per axis on one lattice of the step, and
        # queries on cells, half a cell off them, or not finite
        shape = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 7), min_size=d, max_size=d),
            min_size=1, max_size=5)))
        grids = Lattice.stack([[0.13 + step * (data.draw(st.integers(-3, 3))
                                          + np.arange(n)) for n in row]
                          for row in shape])
        q = data.draw(st.integers(1, 12))
        grid = np.array(data.draw(st.lists(st.integers(0, len(shape) - 1),
                                           min_size=q, max_size=q)))
        coord = st.integers(-12, 24).map(lambda t: 0.13 + t * step / 2) \
            | st.sampled_from([np.nan, np.inf, -np.inf])
        z = np.array(data.draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                        min_size=q, max_size=q)))
        r = np.array(data.draw(st.lists(
            st.integers(0, 8).map(lambda t: t * step / 2)
            | st.sampled_from([0.0, np.inf, np.nan]), min_size=q, max_size=q)))
        first, stop = grids.boxes(z, r, strict=False, grid=grid)
        for a in range(d):
            for j, g in enumerate(grid.tolist()):
                start = grids.starts[a][g]
                axis = grids.axes[a][start:start + grids.shape[g, a]]
                lo, hi = oracles.interval_within(axis, z[j:j + 1, a], r[j:j + 1])
                assert (first[a, j], stop[a, j]) == (lo[0], max(lo[0], hi[0] + 1))

    def test_one_point_grids_and_runs(self):
        pts = np.array([[0.5, -1.0], [0.25, 2.0], [0.25, 2.0]])
        grids = point_grids(pts)
        assert grids.points.tobytes() == pts.tobytes()
        assert grids.sizes.tolist() == [1, 1, 1]
        assert point_grids(pts[:0]).points.shape == (0, 2)
