import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import oracles
from covercert import (Box, BoxRegion, ConstructionError, MuSpec,
                       boundary_family, check_omega, classify_s,
                       constant_exhaustion, constant_weight_family,
                       expanding_boxes, full_space, make_exp_family,
                       product_family, psi_mass_certificate,
                       schwartz_family)
from covercert.weights import _decay_sup, _fminbound


@pytest.fixture(scope="module")
def line():
    return full_space(1)


@pytest.fixture(scope="module")
def plane():
    return full_space(2)


@pytest.fixture(scope="module")
def unit_interval():
    return constant_exhaustion(BoxRegion(Box((0.0,), (1.0,))), name="unit_interval")


def line_grid(lo=-4.0, hi=4.0, count=401):
    return np.linspace(lo, hi, count)[:, None]


class TestSchwartzFamily:
    def test_weight_values(self, line):
        fam = schwartz_family(line)
        x = np.array([[2.0]])
        assert fam.nu_at(3, x)[0] == pytest.approx(5.0 ** 1.5)

    def test_majorizer_identity(self, plane):
        # nu_n equals the majorizer times nu_{n+2d}, exactly
        fam = schwartz_family(plane)
        pts = np.random.default_rng(0).normal(size=(50, 2))
        for n in (1, 2, 3):
            lhs = fam.nu_at(n, pts)
            rhs = fam.psi_at(n, pts) * fam.nu_at(n + 4, pts)
            assert np.allclose(lhs, rhs, rtol=1e-13)

    def test_witness_indices(self, line):
        fam = schwartz_family(line)
        assert fam.index(1, 5) == 5
        assert fam.index(2, 5) == 7
        assert fam.index(3, 5) == 7
        assert fam.constant(1, 2) == pytest.approx(9.0)

    def test_rejects_bounded_rings(self):
        with pytest.raises(ConstructionError):
            schwartz_family(expanding_boxes(1))


class TestBoundaryFamily:
    def test_weight_value(self, unit_interval):
        fam = boundary_family(unit_interval)
        x = np.array([[0.25]])
        assert fam.nu_at(2, x)[0] == pytest.approx(16.0)

    def test_radius_value(self, unit_interval):
        fam = boundary_family(unit_interval)
        assert fam.radius_at(1, np.array([[0.25]]))[0] == pytest.approx(0.125)

    def test_requires_bounded_domain(self, line):
        with pytest.raises(ConstructionError):
            boundary_family(line)

    def test_tagged_s3(self, unit_interval):
        fam = boundary_family(unit_interval)
        assert fam.s_condition == "s3"
        assert classify_s(fam) == "s3"


class TestConstantFamily:
    def test_everything_is_one(self):
        dom = expanding_boxes(1)
        fam = constant_weight_family(dom)
        pts = line_grid(-0.9, 0.9, 19)
        assert (fam.nu_at(3, pts) == 1.0).all()
        assert (fam.psi_at(3, pts) == 1.0).all()
        assert fam.radius_constant(2) == pytest.approx(0.5)

    def test_custom_radius_validation(self):
        dom = expanding_boxes(1)
        fam = constant_weight_family(dom, radius_value=0.25)
        assert fam.radius_constant(1) == 0.25
        with pytest.raises(ConstructionError):
            constant_weight_family(dom, radius_value=1.5)


class TestExpFamilies:
    def test_power_abs_picks_minimal_decay_power(self, line):
        fam = make_exp_family(MuSpec("power_abs", power=1), lambda n: float(n), line)
        # d = 1, m = 1: the smallest admissible power is 1
        x = np.array([[1.0]])
        assert fam.radius_at(1, x)[0] == pytest.approx(0.5)
        assert fam.case == "exp_iii1"

    def test_power_abs_constant_radius_growth_search(self, line):
        fam = make_exp_family(MuSpec("power_abs", power=1), lambda n: float(n),
                              line, constant_radius=True)
        assert fam.radius_constant(1) == 1.0
        # growth index: smallest j with a_j >= 3 a_n for d = 1, m = 1
        assert fam.index(1, 2) == 6

    def test_uniform_delta_claims_two_conditions(self, line):
        mu = MuSpec("uniform_delta", delta=0.5,
                    fn=lambda x: np.abs(np.sin(x[..., 0])))
        fam = make_exp_family(mu, lambda n: float(n), line)
        assert fam.claims_condition("omega1")
        assert fam.claims_condition("omega3")
        assert not fam.claims_condition("omega2")
        assert fam.radius_constant(1) == 0.5
        assert fam.constant(1, 2) == pytest.approx(math.exp(4.0))

    def test_mixed_sign_sequence_rejected(self, line):
        with pytest.raises(ConstructionError, match="sign"):
            make_exp_family(MuSpec("power_abs", power=1),
                            lambda n: float(n - 3), line)

    def test_non_increasing_sequence_rejected(self, line):
        with pytest.raises(ConstructionError, match="increasing"):
            make_exp_family(MuSpec("power_abs", power=1),
                            lambda n: 1.0, line)

    def test_log_profile_dispatches_to_polynomial_growth(self, line):
        fam = make_exp_family(MuSpec("log_one_plus_sq"), lambda n: n / 2.0, line)
        assert fam.case == "exp_iv"
        x = np.array([[2.0]])
        assert fam.nu_at(2, x)[0] == pytest.approx(5.0)
        with pytest.raises(ConstructionError, match="n/2"):
            make_exp_family(MuSpec("log_one_plus_sq"), lambda n: float(n), line)

    def test_zero_mu_gives_constant_family(self):
        dom = expanding_boxes(2)
        fam = make_exp_family(MuSpec("zero"), lambda n: float(n), dom)
        assert fam.case == "exp_v"

    def test_holder_block_on_slab(self):
        dom = expanding_boxes(2, axes=(1,))
        mu = MuSpec("holder_block", gamma=0.5, block=(0,))
        fam = make_exp_family(mu, lambda n: float(n), dom)
        assert fam.claims_condition("omega2")
        x = np.array([[4.0, 0.3]])
        assert fam.nu_at(2, x)[0] == pytest.approx(math.exp(2.0 * 2.0))


class TestProductFamily:
    def test_multiplying_by_one_changes_nothing(self, line):
        left = schwartz_family(line)
        dom = line
        right = constant_weight_family  # needs bounded rings; use uniform mu
        mu = MuSpec("uniform_delta", delta=1.0, fn=lambda x: np.zeros(x.shape[:-1]))
        trivial = make_exp_family(mu, lambda n: float(n), dom)
        prod = product_family(left, trivial)
        pts = line_grid(-2.0, 2.0, 41)
        assert np.allclose(prod.nu_at(3, pts), left.nu_at(3, pts), rtol=1e-14)

    def test_schwartz_squared(self, line):
        left = schwartz_family(line)
        prod = product_family(left, left)
        pts = line_grid(-3.0, 3.0, 61)
        expected = (1.0 + pts[:, 0] ** 2) ** 2
        assert np.allclose(prod.nu_at(2, pts), expected, rtol=1e-13)
        assert prod.constant(1, 2) == pytest.approx(81.0)  # (1+8d)^n, d=1

    def test_min_radius_rule(self, line):
        a = make_exp_family(MuSpec("uniform_delta", delta=1.0,
                                   fn=lambda x: np.zeros(x.shape[:-1])),
                            lambda n: float(n), line)
        b = make_exp_family(MuSpec("uniform_delta", delta=0.25,
                                   fn=lambda x: np.zeros(x.shape[:-1])),
                            lambda n: float(n), line)
        fam = product_family(schwartz_family(line), b)
        x = np.array([[0.0]])
        assert fam.radius_at(1, x)[0] == pytest.approx(0.25)
        assert a.radius_at(1, x)[0] == pytest.approx(1.0)

    def test_right_factor_must_claim_enough(self, line):
        left = schwartz_family(line)
        mu = MuSpec("uniform_delta", delta=1.0, fn=lambda x: np.zeros(x.shape[:-1]))
        right = make_exp_family(mu, lambda n: float(n), line)
        product_family(left, right)  # fine: right claims omega1/omega3
        with pytest.raises(ConstructionError):
            product_family(right, left)  # left factor lacks omega2


class TestDirectedness:
    @pytest.mark.parametrize("maker", ["schwartz", "boundary", "constant"])
    def test_nu_monotone_in_n(self, maker, line, unit_interval):
        if maker == "schwartz":
            fam, pts = schwartz_family(line), line_grid()
        elif maker == "boundary":
            fam = boundary_family(unit_interval)
            pts = np.linspace(0.05, 0.95, 181)[:, None]
        else:
            fam = constant_weight_family(expanding_boxes(1))
            pts = line_grid(-0.9, 0.9, 37)
        for n in (1, 2, 3, 4):
            assert (fam.nu_at(n, pts) <= fam.nu_at(n + 1, pts) * (1 + 1e-12)).all()

    def test_radius_in_unit_interval_and_below_ring_gap(self, unit_interval):
        fam = boundary_family(unit_interval)
        pts = np.linspace(0.01, 0.99, 99)[:, None]
        r = fam.radius_at(1, pts)
        assert ((0 < r) & (r <= 1)).all()
        dist = unit_interval.omega.boundary_distance(pts)
        assert (r < dist).all()


class TestCheckOmega:
    def test_schwartz_first_condition_d1(self, line):
        fam = schwartz_family(line)
        grid = line_grid()
        cert = check_omega(fam, "omega1", n=2, k=1, grid=grid)
        assert cert.verdict == "pass"
        assert cert.bound == pytest.approx(9.0)
        assert cert.measured <= 9.0 * (1 + 1e-9)
        assert cert.resolutions["sample_pairs"] >= 2000

    def test_constant_family_ratio_is_one(self):
        fam = constant_weight_family(expanding_boxes(1))
        grid = line_grid(-0.9, 0.9, 25)
        for which in ("omega1", "omega2", "omega3"):
            cert = check_omega(fam, which, n=1, k=1, grid=grid)
            assert cert.verdict == "pass"
            if which != "omega3":
                assert cert.measured == pytest.approx(1.0)

    def test_boundary_third_condition(self, unit_interval):
        fam = boundary_family(unit_interval)
        grid = np.linspace(0.02, 0.98, 197)[:, None]
        cert = check_omega(fam, "omega3", n=1, k=1, grid=grid)
        assert cert.verdict == "pass"
        assert cert.bound == 2.0
        assert cert.details["target_index"] == 2

    def test_deflated_claim_fails_with_witness(self, line):
        fam = schwartz_family(line)
        grid = line_grid()
        honest = check_omega(fam, "omega1", n=2, k=1, grid=grid)
        cheat = check_omega(fam, "omega1", n=2, k=1, grid=grid,
                            claimed_bound=0.5 * honest.measured)
        assert cheat.verdict == "fail"
        assert "witness_point" in cheat.details

    def test_empty_grid_rejected(self, line):
        fam = schwartz_family(line)
        with pytest.raises(ValueError):
            check_omega(fam, "omega1", 1, 1, np.empty((0, 1)))

    def test_unclaimed_condition_not_certified(self, line):
        mu = MuSpec("uniform_delta", delta=1.0, fn=lambda x: np.zeros(x.shape[:-1]))
        fam = make_exp_family(mu, lambda n: float(n), line)
        cert = check_omega(fam, "omega2", 1, 1, line_grid())
        assert cert.verdict == "not-certified"


class TestPsiMass:
    def test_schwartz_matches_line_integral(self, line):
        fam = schwartz_family(line)
        cert = psi_mass_certificate(fam, 1, Box((-200.0,), (200.0,)), 0.05)
        assert cert.verdict == "pass"
        assert cert.details["analytic_line_integral"] == pytest.approx(math.pi)
        assert cert.details["analytic_relative_error"] <= 0.02

    def test_boundary_majorizer_converges(self, unit_interval):
        fam = boundary_family(unit_interval)
        cert = psi_mass_certificate(fam, 2, Box((0.0,), (1.0,)), 0.01)
        assert cert.verdict == "pass"

    def test_unconverged_sums_are_inconclusive(self, line):
        # cells of width 10 and 5 cannot resolve 1/(1+x^2): the two sums
        # differ by far more than 1%, so nothing is decided either way
        fam = schwartz_family(line)
        cert = psi_mass_certificate(fam, 1, Box((-200.0,), (200.0,)), 10.0)
        assert cert.verdict == "inconclusive"
        coarse, fine = cert.details["coarse"], cert.details["fine"]
        assert cert.details["relative_change"] == pytest.approx(
            abs(fine - coarse) / fine)
        assert cert.details["relative_change"] > 0.01
        assert cert.measured == fine

    def test_converged_sum_missing_line_integral_fails(self, line):
        # on [-5, 5] the sum converges, but the tails beyond hold 12% of pi
        fam = schwartz_family(line)
        cert = psi_mass_certificate(fam, 1, Box((-5.0,), (5.0,)), 0.05)
        assert cert.details["relative_change"] <= 0.01
        assert cert.details["analytic_relative_error"] > 0.02
        assert cert.verdict == "fail"


class TestClassify:
    def test_constant_radii_give_s1(self, line):
        assert classify_s(schwartz_family(line)) == "s1"

    def test_closed_rings_give_s2(self):
        dom = expanding_boxes(1, closed=True)
        mu = MuSpec("power_abs", power=1)
        fam = make_exp_family(mu, lambda n: float(n), dom)
        assert classify_s(fam) == "s2"

    def test_full_ring_continuous_radius_gives_s3(self, unit_interval):
        assert classify_s(boundary_family(unit_interval)) == "s3"


# Decay sups of the exp families: the power is the polynomial degree of the
# majorizer (1..4 for d <= 3 and |x|^m with m <= 8, the dimension for Hoelder
# blocks), the exponent is m or a Hoelder gamma in (0, 1], and the decay rate
# is a_{n+1} - a_n.
_powers = st.one_of(st.integers(1, 4).map(float), st.floats(0.25, 8.0))
_exponents = st.one_of(st.integers(1, 8).map(float), st.floats(0.05, 8.0))
_deltas = st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e)


class TestBoundedMinimizer:
    @settings(max_examples=300, deadline=None)
    @given(_powers, _deltas, _exponents)
    def test_decay_sup_equals_scipy(self, power, delta, exponent):
        assert np.float64(_decay_sup(power, delta, exponent)).tobytes() == \
            np.float64(oracles.decay_sup(power, delta, exponent)).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-5.0, 5.0), st.floats(-8.0, 2.0), st.floats(-3.0, 3.0),
           st.floats(0.0, 3.0), st.sampled_from([1e-13, 1e-5]))
    def test_fminbound_equals_scipy(self, a, log_width, c, s, xatol):
        def f(t):
            return np.sin(3.0 * t) + c * t * t + s * np.abs(t - 0.5)
        b = a + 10.0 ** log_width
        ref = minimize_scalar(f, bounds=(a, b), method="bounded",
                              options={"xatol": xatol}).fun
        assert np.float64(_fminbound(f, a, b, xatol)).tobytes() == \
            np.float64(ref).tobytes()
