import numpy as np
import pytest

import oracles
from covercert import (Box, SmoothnessOrderError, build_cover,
                       build_partition, build_profile, certify_partition,
                       constant_weight_family, derivative_constant,
                       default_weights, eval_partial, expanding_boxes,
                       partition_sum)
from covercert.bumps import Cutoff
from covercert.multiindex import indices_below


@pytest.fixture(scope="module")
def line_setup():
    dom = expanding_boxes(1)
    fam = constant_weight_family(dom)
    cover = build_cover(fam, dom, 1, 1e-2, box=Box((-1.0,), (1.0,)))
    partition = build_partition(cover, order=6)
    return dom, fam, cover, partition


class TestProfile:
    def test_single_box_is_trapezoid(self):
        p = build_profile(1.0, 1)
        assert p.eval(0.0) == pytest.approx(1.0)
        # one box of width r/3 smooths the indicator of [-3r/4, 3r/4]
        assert p.plateau_halfwidth == pytest.approx(0.75 - 1.0 / 6.0)
        assert p.support_halfwidth == pytest.approx(0.75 + 1.0 / 6.0)

    def test_mass_is_plateau_width(self):
        for r in (1.0, 0.5, 0.3):
            p = build_profile(r, 4)
            assert p.polys[0].mass() == pytest.approx(1.5 * r, rel=1e-12)

    def test_plateau_covers_half_radius(self):
        for r in (1.0, 0.44, 0.125):
            p = build_profile(r, 5)
            assert p.plateau_halfwidth == pytest.approx(7 * r / 12)
            assert p.plateau_halfwidth > r / 2
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
        measured = p.max_derivative(2)
        bound = p.derivative_bound(2)
        assert bound == pytest.approx(4.0 / (p.widths[0] * p.widths[1]))
        assert measured <= bound * (1 + 1e-12)
        assert measured > 0.1 * bound   # not vacuous

    def test_all_orders_bounded(self):
        p = build_profile(0.7, 6)
        for j in range(6):
            assert p.max_derivative(j) <= p.derivative_bound(j) * (1 + 1e-12)

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


class TestCutoff:
    def test_tensor_factorization(self):
        profile = build_profile(0.5, 4)
        cut = Cutoff((0.2, -0.1), profile)
        x = np.array([0.3, 0.05])
        expected = profile.eval(0.1) * profile.eval(0.15)
        assert cut.value(x) == pytest.approx(expected, rel=1e-12)
        d1 = profile.eval(0.1, order=1) * profile.eval(0.15)
        assert cut.partial(x, (1, 0)) == pytest.approx(d1, rel=1e-12)

    def test_outside_support_exactly_zero(self):
        profile = build_profile(0.5, 4)
        cut = Cutoff((0.0,), profile)
        for alpha in [(0,), (1,), (2,)]:
            assert eval_partial(cut, np.array([0.5]), alpha) == 0.0
            assert eval_partial(cut, np.array([5.0]), alpha) == 0.0


class TestPartition:
    def test_single_ball_partition_is_cutoff(self):
        dom = expanding_boxes(1)
        fam = constant_weight_family(dom)
        cover = build_cover(fam, dom, 1, 1e-3, box=Box((-0.05,), (0.05,)))
        part = build_partition(cover, order=4)
        x = np.array([0.0])
        assert part[0].value(x) == pytest.approx(1.0)
        grid = dom.sample_ring(1, 1e-3, cover.box)
        assert partition_sum(part, grid) == pytest.approx(np.ones(len(grid)))

    def test_two_ball_telescoping_identity(self):
        dom = expanding_boxes(1)
        fam = constant_weight_family(dom)
        cover = build_cover(fam, dom, 1, 1e-3, box=Box((-0.2,), (0.2,)))
        assert cover.size == 2
        part = build_partition(cover, order=4)
        xs = np.linspace(-0.6, 0.6, 241)[:, None]
        phi1 = part[0].cutoff.value(xs)
        phi2 = part[1].cutoff.value(xs)
        total = partition_sum(part, xs)
        assert total == pytest.approx(1.0 - (1 - phi1) * (1 - phi2), abs=1e-14)

    def test_sum_to_one_on_ring(self, line_setup):
        dom, fam, cover, partition = line_setup
        grid = dom.sample_ring(1, 1e-3, cover.box)
        sums = partition_sum(partition, grid)
        assert np.abs(sums - 1.0).max() <= 1e-12

    def test_sum_never_exceeds_one(self, line_setup):
        dom, fam, cover, partition = line_setup
        pts = np.linspace(-1.5, 1.5, 601)[:, None]
        sums = partition_sum(partition, pts)
        assert sums.max() <= 1.0 + 1e-12
        assert sums.min() >= -1e-12

    def test_blockers_only_earlier_neighbors(self, line_setup):
        _, _, cover, partition = line_setup
        for fn in partition:
            for m, _ in fn.blockers:
                assert m < fn.index
                assert m in cover.neighbors[fn.index].tolist()


class TestEvalPartial:
    def test_first_partial_matches_finite_differences(self, line_setup):
        _, _, cover, partition = line_setup
        fn = partition[3]
        rng = np.random.default_rng(42)
        h = 1e-5
        checked = 0
        knots = np.concatenate([
            c.profile.knots + c.center[0]
            for c in [fn.cutoff] + [b for _, b in fn.blockers]])
        while checked < 20:
            x = rng.uniform(cover.centers[3, 0] - 0.5, cover.centers[3, 0] + 0.5)
            if np.abs(knots - x).min() < 5 * h:
                continue
            exact = fn.partial(np.array([x]), (1,))
            if abs(exact) < 2.0:
                continue    # keep the truncation term well below the value
            fd = (fn.value(np.array([x + h])) - fn.value(np.array([x - h]))) / (2 * h)
            assert fd == pytest.approx(exact, rel=1e-6)
            checked += 1

    def test_mixed_partial_2d(self):
        dom = expanding_boxes(2)
        fam = constant_weight_family(dom)
        cover = build_cover(fam, dom, 1, 0.05, box=Box((-0.6, -0.6), (0.6, 0.6)))
        part = build_partition(cover, order=5)
        fn = part[min(2, len(part) - 1)]
        x = cover.centers[fn.index] + np.array([0.21, -0.18])
        h = 1e-5
        exact = fn.partial(x, (1, 1))
        fd = (fn.value(x + [h, h]) - fn.value(x + [h, -h])
              - fn.value(x + [-h, h]) + fn.value(x + [-h, -h])) / (4 * h * h)
        assert fd == pytest.approx(exact, rel=1e-4, abs=1e-7)

    def test_tables_equal_per_beta_evaluation(self):
        dom = expanding_boxes(2)
        fam = constant_weight_family(dom)
        cover = build_cover(fam, dom, 1, 0.05, box=Box((-0.6, -0.6), (0.6, 0.6)))
        part = build_partition(cover, order=5)
        pts = dom.sample_ring(1, 0.02, cover.box)
        alpha = (3, 2)
        betas = indices_below(alpha)
        for fn in part:
            table = fn.cutoff.partials_table(pts, alpha)
            for beta in betas:
                assert np.array_equal(table[beta], fn.cutoff.partial(pts, beta))
            table = fn.partials_table(pts, alpha)
            expected = oracles.partials_table(fn, pts, alpha)
            for beta in betas:
                assert np.array_equal(table[beta], expected[beta])
                assert np.array_equal(np.signbit(table[beta]),
                                      np.signbit(expected[beta]))
        assert max(len(fn.blockers) for fn in part) > 1

    def test_order_error(self, line_setup):
        _, _, _, partition = line_setup
        with pytest.raises(SmoothnessOrderError):
            partition[0].partial(np.array([0.0]), (6,))


class TestCertifyPartition:
    def test_full_certificates_pass(self, line_setup):
        dom, fam, cover, partition = line_setup
        oracle = cover.oracle
        grid = dom.sample_ring(1, 2e-3, cover.box)
        certs = certify_partition(partition, cover, oracle, alpha_max=3,
                                  grid=grid)
        by_claim = {c.claim: c for c in certs}
        assert by_claim["partition.sum_to_one"].verdict == "pass"
        assert by_claim["partition.sum_to_one"].measured <= 1e-12
        assert by_claim["partition.range"].verdict == "pass"
        assert by_claim["partition.support_in_ball"].verdict == "pass"
        assert by_claim["partition.derivative_bound"].verdict == "pass"

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
