import numpy as np
import pytest

from covercert import (Box, BoxRegion, IndexCalculus, IndexCapError,
                       boundary_family, build_cover,
                       build_functional, build_partition, claim4_constant,
                       ball_weight_constant, constant_exhaustion,
                       constant_weight_family, coord_gaussian,
                       domination_certificate, expanding_boxes, full_space,
                       gaussian, membership_certificate, schwartz_family,
                       seminorm, shipped_suite, spline_bump,
                       union_cell_midpoints,
                       verify_ball_weight_bound, verify_disjoint_supports,
                       verify_integral_bound, with_extra_center)
import oracles
from covercert import bumps
from covercert.bumps import function_values, partition_partials
from covercert.certify import _integral_bound_terms, _leibniz
from covercert.domains import Lattice
from covercert.multiindex import indices_below
from oracles import point_grids, point_lattice


def sum_of(*terms):
    """A test function with partials ``sum(c * f.partial)`` over the pairs
    (c, f) of ``terms``."""
    class Sum:
        name = "sum"
        dimension = terms[0][1].dimension

        def partial(self, x, alpha):
            return sum(c * f.partial(x, alpha) for c, f in terms)

        def at(self, x, tops):
            return lambda alpha: self.partial(x, alpha)

    return Sum()


@pytest.fixture(scope="module")
def line():
    return full_space(1)


@pytest.fixture(scope="module")
def schwartz_setup(line):
    fam = schwartz_family(line)
    box = Box((-4.0,), (4.0,))
    cover = build_cover(fam, line, 1, 5e-3, box=box)
    partition = build_partition(cover, order=6)
    calc = IndexCalculus(fam)
    return fam, cover, partition, calc


@pytest.fixture(scope="module")
def constant_setup():
    dom = expanding_boxes(1)
    fam = constant_weight_family(dom)
    cover = build_cover(fam, dom, 1, 5e-3, box=Box((-1.0,), (1.0,)))
    partition = build_partition(cover, order=6)
    return dom, fam, cover, partition, IndexCalculus(fam)


class TestIndexCalculus:
    def test_word_composes_right_to_left(self, line):
        fam = schwartz_family(line)   # I2 = I3 = n + 2, I1 = n (d = 1)
        calc = IndexCalculus(fam)
        assert calc.word("23", 1) == 5      # I2(I3(1)) = I2(3) = 5
        assert calc.word("32", 1) == 5
        assert calc.word("11", 7) == 7

    def test_monotone_words(self, schwartz_setup):
        fam, _, _, calc = schwartz_setup
        for n in range(1, 21):
            for word in ("1", "2", "3", "12", "33", "123"):
                assert calc.word(word, n) >= n

    def test_headline_indices_schwartz_d1(self, schwartz_setup):
        fam, _, _, calc = schwartz_setup
        # independent composition: I1 = id, I3 = +2 in one dimension
        p = calc.quad_weight_index(1, 1)
        assert p == 1 + 2 * 1  # the d-fold third map only
        q = calc.functional_bound_index(p, 1, 1)
        # I2 adds 2, then d(m+2) = 3 third-map steps add 6
        assert q == p + 2 + 6

    def test_cap_error(self, line):
        fam = schwartz_family(line)
        calc = IndexCalculus(fam, cap=10)
        with pytest.raises(IndexCapError):
            calc.repeat(3, 10, 5)


class TestSeminorm:
    def test_zero_function(self, schwartz_setup, line):
        fam, cover, _, _ = schwartz_setup
        grid = line.sample_ring(1, 1e-3, cover.box)
        zero = gaussian(1).scaled(0.0)
        assert seminorm(zero, fam, 1, 2, grid) == 0.0

    def test_constant_one_with_unit_weights(self, constant_setup):
        dom, fam, cover, _, _ = constant_setup
        grid = dom.sample_ring(1, 1e-3, cover.box)
        one = spline_bump(1, radius=0.9).scaled(0.0)

        class One:
            name = "one"
            dimension = 1

            def partial(self, x, alpha):
                x = np.asarray(x, dtype=float)
                pts = x[None, :] if x.ndim == 1 else x
                if sum(alpha) == 0:
                    return np.ones(len(pts))
                return np.zeros(len(pts))

            def at(self, x, tops):
                return lambda alpha: self.partial(x, alpha)

        assert seminorm(One(), fam, 1, 2, grid) == pytest.approx(1.0)

    def test_gaussian_golden_value(self, schwartz_setup, line):
        fam, cover, _, _ = schwartz_setup
        grid = line.sample_ring(1, 1e-3, cover.box)
        value = seminorm(gaussian(1), fam, 1, 0, grid)
        # independent dense oracle for sup of exp(-x^2) sqrt(1 + x^2)
        xs = np.linspace(-4, 4, 400001)
        oracle = np.max(np.exp(-xs * xs) * np.sqrt(1 + xs * xs))
        assert value == pytest.approx(oracle, rel=1e-9)
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_homogeneity_and_triangle(self, schwartz_setup, line):
        fam, cover, _, _ = schwartz_setup
        grid = line.sample_ring(1, 5e-3, cover.box)
        f = gaussian(1)
        g = coord_gaussian(1)
        sf = seminorm(f, fam, 2, 1, grid)
        assert seminorm(f.scaled(3.5), fam, 2, 1, grid) == pytest.approx(3.5 * sf)

        assert seminorm(sum_of((1.0, f), (1.0, g)), fam, 2, 1, grid) \
            <= sf + seminorm(g, fam, 2, 1, grid) + 1e-12

    def test_directed_in_both_indices(self, schwartz_setup, line):
        fam, cover, _, _ = schwartz_setup
        grid = line.sample_ring(1, 5e-3, cover.box)
        f = coord_gaussian(1)
        base = seminorm(f, fam, 1, 1, grid)
        assert base <= seminorm(f, fam, 2, 1, grid) + 1e-12
        assert base <= seminorm(f, fam, 1, 2, grid) + 1e-12


class TestMembership:
    def test_gaussian_belongs(self, schwartz_setup, line):
        fam, cover, _, _ = schwartz_setup
        grid = line.sample_ring(1, 1e-2, cover.box)
        cert = membership_certificate(gaussian(1), fam, 3, 2, grid)
        assert cert.verdict == "pass"
        assert np.isfinite(cert.measured)

    def test_weight_overflow_reported(self, schwartz_setup, line):
        fam, _, _, _ = schwartz_setup
        # far samples with a large weight index overflow the float range
        grid = np.array([[1e60], [2e60]])
        cert = membership_certificate(gaussian(1), fam, 20, 0, grid)
        assert cert.verdict == "fail"
        assert "overflow" in cert.details


class TestRescaleMap:
    def test_equals_per_center_maps_bitwise(self, schwartz_setup, chain_setup):
        # Cover.rescale maps every grid's axes in one array expression per
        # axis; the per-center affine maps of the grids' points are its
        # reference
        rng = np.random.default_rng(11)
        for cover in (schwartz_setup[1], chain_setup[2]):
            maps = oracles.rescale_maps(cover)
            d = cover.dimension
            grids = Lattice.stack([[np.sort(z + rng.uniform(-h, h,
                                                            rng.integers(0, 5)))
                                    for z in center]
                                   for center, h in zip(cover.centers,
                                                        cover.core_halfwidths)])
            got = cover.rescale(grids)
            owner = np.repeat(np.arange(cover.size), grids.sizes)
            want = np.array([maps[k].forward(z)
                             for k, z in zip(owner, grids.points)]).reshape(-1, d)
            assert got.points.shape == grids.points.shape
            assert got.points.tobytes() == want.tobytes()

    def test_roundtrip_and_corners(self, schwartz_setup):
        _, cover, _, _ = schwartz_setup
        k = 3
        # the core box corner maps to the outer ball corner, and the
        # center stays put, exactly
        grids = Lattice.linspace(cover.centers, cover.core_halfwidths, 3)
        _, center, image = cover.rescale(grids).points[3 * k:3 * k + 3]
        assert image == pytest.approx(cover.centers[k] + cover.rho[k], rel=1e-14)
        assert center.tobytes() == cover.centers[k].tobytes()


class TestMixedPartial:
    def test_against_finite_differences(self, constant_setup):
        dom, fam, cover, partition, _ = constant_setup
        f = gaussian(1)
        x = cover.centers[4] + 0.18
        table = partition_partials(partition, point_grids(x[None, :]), [4],
                                   indices_below((2,)))
        exact = _leibniz(table, f.at(x[None, :], (2,)), (2,))[0]

        def hf(t):
            h_t = function_values(partition, point_grids([[t]]), [4])[0]
            return h_t * f.value(np.array([t]))

        h = 1e-4
        fd = (hf(x[0] + h) - 2 * hf(x[0]) + hf(x[0] - h)) / h ** 2
        assert fd == pytest.approx(exact, rel=1e-5)


class TestComposedConstants:
    def test_constant_family_values(self, constant_setup):
        _, fam, cover, _, calc = constant_setup
        # unit weights: first-map constants are 1, third is 1/radius = 2
        value, target, factors = claim4_constant(fam, calc, 1, 1, 3, ring=1)
        assert value == pytest.approx(8.0)
        assert target == 1
        # deeper iterations only wrap more unit first-map factors around the
        # same two third-map factors
        value, target, _ = ball_weight_constant(fam, calc, 1, 2, 2, ring=1)
        assert value == pytest.approx(4.0)

    def test_schwartz_d1_assembly(self, schwartz_setup):
        fam, _, _, calc = schwartz_setup
        # A1(n) = 3^n in one dimension, A3 = 1, I3 = n + 2
        value, target, factors = claim4_constant(fam, calc, 1, 1, 1, ring=1)
        assert value == pytest.approx(3.0 * 1.0 * 27.0)
        assert target == 3
        value, target, _ = ball_weight_constant(fam, calc, 1, 1, 1, ring=1)
        assert value == pytest.approx(3.0 * 81.0)
        assert target == 3


class TestBallWeightBound:
    def test_constant_family_is_exact(self, constant_setup):
        _, fam, cover, _, calc = constant_setup
        cert = verify_ball_weight_bound(fam, cover, cover.oracle, calc,
                                        m=1, j=1, p_exp=1)
        assert cert.verdict == "pass"
        # 1 <= 2 * (1/2)^1 * 1 with equality
        assert cert.measured == pytest.approx(1.0)

    def test_schwartz(self, schwartz_setup):
        fam, cover, _, calc = schwartz_setup
        cert = verify_ball_weight_bound(fam, cover, cover.oracle, calc,
                                        m=1, j=1, p_exp=1)
        assert cert.verdict == "pass"

    def test_boundary_family(self):
        dom = constant_exhaustion(BoxRegion(Box((0.0,), (1.0,))), name="unit")
        fam = boundary_family(dom)
        cover = build_cover(fam, dom, 1, 1e-3, box=Box((0.125,), (0.875,)))
        calc = IndexCalculus(fam)
        cert = verify_ball_weight_bound(fam, cover, cover.oracle, calc,
                                        m=1, j=1, p_exp=1)
        assert cert.verdict == "pass"
        factors = cert.constants["factors"]
        # assembled from first-map constants 3^n and third-map constants 2
        assert factors[0][2] == pytest.approx(3.0)
        assert any(name == "A3" and value == 2.0 for name, _, value in factors)


class TestDisjointSupports:
    def test_built_cover_passes(self, schwartz_setup):
        _, cover, partition, _ = schwartz_setup
        assert verify_disjoint_supports(cover, partition).verdict == "pass"

    def test_injected_close_center_fails(self, constant_setup):
        _, _, cover, _, _ = constant_setup
        bad = with_extra_center(cover, cover.centers[0] + cover.r1[0] / 8.0)
        cert = verify_disjoint_supports(bad)
        assert cert.verdict == "fail"
        assert "witness_overlap" in cert.details


class TestFunctional:
    def test_zero_outside_cores(self, constant_setup):
        dom, fam, cover, partition, calc = constant_setup
        func = build_functional(partition, cover, fam, calc, 1, 1)
        # midpoint between adjacent centers is outside every core box
        zeta = 0.5 * (cover.centers[0] + cover.centers[1])
        inside = cover.centers[2] + 0.2 * cover.core_halfwidths[2]
        # zeta lies left of the third center, so it is the first point
        outside_value, inside_value = func.values(
            Lattice.of([np.array([zeta[0], inside[0]])]), [gaussian(1)])[0]
        assert outside_value == 0.0
        assert inside_value != 0.0

    def test_linearity(self, constant_setup):
        dom, fam, cover, partition, calc = constant_setup
        f = gaussian(1)
        g = coord_gaussian(1)
        func = build_functional(partition, cover, fam, calc, 1, 1)

        zetas = np.stack([cover.centers[1] + 0.01, cover.centers[5] - 0.02,
                          np.array([0.4])])
        fa, fb, fc = func.values(point_lattice(zetas),
                                 [f, g, sum_of((2.0, f), (-0.5, g))])
        assert fc == pytest.approx(2 * fa - 0.5 * fb, abs=1e-12)

    def test_at_most_one_active_term(self, schwartz_setup):
        fam, cover, partition, calc = schwartz_setup
        func = build_functional(partition, cover, fam, calc, 1, 1)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-4, 4, size=(200, 1))
        # per point, the summands whose rescaled support contains it
        active = np.zeros(len(pts), dtype=int)
        for k, rescale in enumerate(oracles.rescale_maps(cover)):
            x = rescale.forward(pts)
            offs = np.abs(x - cover.centers[k]).max(axis=1)
            active += offs <= partition.half[k]
        assert active.max() <= 1

    def test_single_ball_value_vs_fd_oracle(self):
        dom = expanding_boxes(1)
        fam = constant_weight_family(dom)
        cover = build_cover(fam, dom, 1, 1e-3, box=Box((-0.05,), (0.05,)))
        partition = build_partition(cover, order=6)
        calc = IndexCalculus(fam)
        f = gaussian(1)
        func = build_functional(partition, cover, fam, calc, 1, 1)
        zeta = cover.centers[0] + 0.3 * cover.core_halfwidths[0]
        x = oracles.rescale_maps(cover)[0].forward(zeta)

        def hf(t):
            h_t = function_values(partition, point_grids([[t]]), [0])[0]
            return h_t * f.value(np.array([t]))

        h = 1e-4
        fd = (hf(x[0] + h) - 2 * hf(x[0]) + hf(x[0] - h)) / h ** 2
        nu = fam.nu_at(func.nu_index, zeta[None, :])[0]
        assert func.values(point_lattice(zeta[None, :]), [f])[0][0] == \
            pytest.approx(fd * nu, rel=1e-5)


class TestIntegralBound:
    def test_zero_function(self, constant_setup):
        _, fam, cover, partition, _ = constant_setup
        zero = gaussian(1).scaled(0.0)
        cert, = verify_integral_bound([zero], partition, cover, 1, 1e-3)
        assert cert.verdict == "pass"
        assert cert.measured == 0.0

    def test_single_ball_with_bump(self):
        dom = expanding_boxes(1)
        fam = constant_weight_family(dom)
        cover = build_cover(fam, dom, 1, 1e-3, box=Box((-0.05,), (0.05,)))
        partition = build_partition(cover, order=6)
        cert, = verify_integral_bound([spline_bump(1)], partition, cover,
                                      m=0, quad_resolution=2e-4)
        assert cert.verdict == "pass"

    def test_schwartz_with_gaussian(self, schwartz_setup):
        _, cover, partition, _ = schwartz_setup
        cert, = verify_integral_bound([gaussian(1)], partition, cover, 1, 5e-4)
        assert cert.verdict == "pass"


class TestDomination:
    def test_zero_function_edge(self, constant_setup):
        dom, fam, cover, partition, calc = constant_setup
        grid = dom.sample_ring(1, 2e-3, cover.box)
        zero = gaussian(1).scaled(0.0)
        c10, c11 = domination_certificate([zero], fam, dom, 1, 1, cover,
                                          partition, cover.oracle, calc, grid,
                                          5e-4)
        assert c10.verdict == "pass" and c10.measured == 0.0
        assert c11.verdict == "pass"

    def test_homogeneity(self, constant_setup):
        dom, fam, cover, partition, calc = constant_setup
        grid = dom.sample_ring(1, 2e-3, cover.box)
        f = gaussian(1)
        base10, base11 = domination_certificate(
            [f], fam, dom, 1, 1, cover, partition, cover.oracle, calc, grid, 1e-3)
        lam = 4.0
        scaled10, scaled11 = domination_certificate(
            [f.scaled(lam)], fam, dom, 1, 1, cover, partition, cover.oracle,
            calc, grid, 1e-3)
        assert scaled10.measured == pytest.approx(lam * base10.measured, rel=1e-12)
        assert scaled10.bound == pytest.approx(lam * base10.bound, rel=1e-12)
        assert scaled11.measured == pytest.approx(lam * base11.measured, rel=1e-12)
        assert scaled11.bound == pytest.approx(lam * base11.bound, rel=1e-12)

    def test_m_zero_rejected(self, constant_setup):
        dom, fam, cover, partition, calc = constant_setup
        grid = dom.sample_ring(1, 2e-3, cover.box)
        with pytest.raises(ValueError):
            domination_certificate([gaussian(1)], fam, dom, 1, 0, cover,
                                   partition, cover.oracle, calc, grid, 1e-3)


@pytest.fixture(scope="module", params=[1, 2], ids=["d1", "d2"])
def chain_setup(request):
    """A constant-weight cover, its partition and a check grid in d = 1, 2,
    with the quadrature resolution of each (coarse in d = 2)."""
    d = request.param
    dom = expanding_boxes(d)
    fam = constant_weight_family(dom)
    box = Box((-0.5,) * d, (0.5,) * d)
    cover = build_cover(fam, dom, 1, 5e-3 if d == 1 else 0.05, box=box)
    partition = build_partition(cover, order=6)
    grid = dom.sample_ring(1, 0.01 if d == 1 else 0.05, box)
    quad = 1e-3 if d == 1 else 0.05
    return dom, fam, cover, partition, IndexCalculus(fam), grid, quad


class TestBatchedChain:
    """One call over several test functions certifies each of them exactly
    as a call over that function alone."""

    def test_integral_bound_equals_per_function_calls(self, chain_setup):
        _, _, cover, partition, _, _, quad = chain_setup
        fs = shipped_suite(cover.dimension)
        batched = verify_integral_bound(fs, partition, cover, 1, quad)
        single = [verify_integral_bound([f], partition, cover, 1, quad)[0]
                  for f in fs]
        assert [c.as_dict() for c in batched] == [c.as_dict() for c in single]

    def test_domination_equals_per_function_calls(self, chain_setup):
        dom, fam, cover, partition, calc, grid, quad = chain_setup
        fs = shipped_suite(cover.dimension)
        batched = domination_certificate(fs, fam, dom, 1, 1, cover, partition,
                                         cover.oracle, calc, grid, quad)
        single = [cert for f in fs
                  for cert in domination_certificate(
                      [f], fam, dom, 1, 1, cover, partition, cover.oracle,
                      calc, grid, quad)]
        assert [c.as_dict() for c in batched] == [c.as_dict() for c in single]

    def test_functional_rows_equal_single_rows(self, chain_setup):
        _, fam, cover, partition, calc, _, _ = chain_setup
        func = build_functional(partition, cover, fam, calc, 1, 1)
        d = cover.dimension
        rng = np.random.default_rng(5)
        zetas = Lattice.of([np.sort(rng.uniform(-0.6, 0.6, 300 if d == 1 else 18))
                            for _ in range(d)])
        fs = shipped_suite(d)
        rows = func.values(zetas, fs)
        assert rows.shape == (len(fs), len(zetas.points))
        assert rows.any()
        for row, f in zip(rows, fs):
            assert row.tobytes() == func.values(zetas, [f])[0].tobytes()

    def test_incidence_builds_do_not_grow_with_test_functions(
            self, chain_setup, monkeypatch):
        dom, fam, cover, partition, calc, grid, quad = chain_setup
        builds = []
        init = bumps.Incidence.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(bumps.Incidence, "__init__", counting_init)

        def chain_builds(fs):
            builds.clear()
            verify_integral_bound(fs, partition, cover, 1, quad)
            domination_certificate(fs, fam, dom, 1, 1, cover, partition,
                                   cover.oracle, calc, grid, quad)
            return len(builds)

        fs = shipped_suite(cover.dimension)
        one = chain_builds(fs[:1])
        assert one > 0
        assert chain_builds(fs) == one


def zero_somewhere_only(tables, groups, betas):
    """Whether some beta's entries vanish on every row of one group but not
    on every row of another: the case where the per-group loop skipped a
    Leibniz term for one group only."""
    return any(len({not tables[beta][g].any() for g in groups}) == 2
               for beta in betas)


class TestChainAgainstPerBallLoops:
    """The chain's Leibniz sums over all balls at once against the per-ball
    loops they replaced, bit for bit."""

    def test_integral_bound_terms(self, chain_setup):
        _, _, cover, partition, _, _, quad = chain_setup
        d = cover.dimension
        fs = shipped_suite(d)
        ks, lhs, integrals = _integral_bound_terms(fs, partition, cover, 1,
                                                   quad, 5)
        expected = oracles.integral_bound_terms(fs, partition, cover, 1, quad, 5)
        assert ks == expected[0]
        assert np.array(lhs).shape == (len(fs), len(ks))
        assert np.array(lhs).tobytes() == np.array(expected[1]).tobytes()
        assert np.array(integrals).shape == (len(fs), 2, len(ks))
        assert np.array(integrals).tobytes() == np.array(expected[2]).tobytes()
        samples = oracles.ball_samples(cover, ks, 5)
        tables = partition_partials(partition,
                                    point_grids(np.concatenate(samples)),
                                    np.repeat(ks, [len(s) for s in samples]),
                                    indices_below((1,) * d))
        groups = np.split(np.arange(sum(len(s) for s in samples)),
                          np.cumsum([len(s) for s in samples])[:-1])
        assert zero_somewhere_only(tables, groups, indices_below((1,) * d))

    def test_functional_values(self, chain_setup):
        _, fam, cover, partition, calc, _, _ = chain_setup
        d = cover.dimension
        func = build_functional(partition, cover, fam, calc, 1, 1)
        rng = np.random.default_rng(5)
        # core 0 holds only its center, which maps to the plateau of the
        # first cutoff, where no blocker acts: every h-partial but the
        # value vanishes there
        z, h = cover.centers[0], cover.core_halfwidths[0]
        axes = []
        for a in range(d):
            axis = rng.uniform(-0.6, 0.6, 300 if d == 1 else 18)
            axes.append(np.sort(np.r_[axis[np.abs(axis - z[a]) >= h], z[a]]))
        zetas = Lattice.of(axes)
        fs = shipped_suite(d)
        rows = func.values(zetas, fs)
        assert rows.any()
        assert rows.tobytes() == \
            oracles.functional_values(func, zetas.points, fs).tobytes()
        owners = oracles.core_owners(cover, zetas.points)
        ks = sorted(set(owners.tolist()) - {-1})
        sizes = [int((owners == k).sum()) for k in ks]
        maps = oracles.rescale_maps(cover)
        x = np.concatenate([maps[k].forward(zetas.points[owners == k])
                            for k in ks])
        tables = partition_partials(partition, point_grids(x),
                                    np.repeat(ks, sizes),
                                    indices_below(func.m_tilde))
        groups = np.split(np.arange(len(x)), np.cumsum(sizes)[:-1])
        assert zero_somewhere_only(tables, groups, indices_below(func.m_tilde))


class TestUnionCells:
    def test_cells_stick_to_balls(self, constant_setup):
        _, _, cover, _, _ = constant_setup
        box = Box((-2.0,), (2.0,))
        mids = union_cell_midpoints(cover, box, 0.01).points
        # every midpoint is within half a cell of some outer ball
        for mid in mids:
            dist = min(np.abs(mid - cover.centers[k]).max() - cover.rho[k]
                       for k in range(cover.size))
            assert dist < 0.005 + 1e-12
        # the union reaches out to the last ball edge but not to the box edge
        assert mids.min() > -1.6 and mids.max() < 1.6
