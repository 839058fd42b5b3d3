import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from covercert import (SmoothnessOrderError, coord_gaussian, gaussian,
                       piecewise, spline_bump)
from covercert.multiindex import indices_up_to_order


def central_diff(f, x, axis, h=1e-5):
    e = np.zeros(x.shape[-1])
    e[axis] = h
    return (f.value(x + e) - f.value(x - e)) / (2 * h)


class TestGaussians:
    def test_values(self):
        f = gaussian(2)
        x = np.array([0.5, -0.25])
        assert f.value(x) == pytest.approx(np.exp(-0.3125))
        g = coord_gaussian(2)
        assert g.value(x) == pytest.approx(0.5 * np.exp(-0.3125))

    @pytest.mark.parametrize("maker", [gaussian, coord_gaussian])
    def test_first_partials_match_fd(self, maker):
        f = maker(2)
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5, size=2)
            for axis, alpha in ((0, (1, 0)), (1, (0, 1))):
                assert f.partial(x, alpha) == pytest.approx(
                    central_diff(f, x, axis), rel=1e-7, abs=1e-9)

    def test_known_second_derivative(self):
        f = gaussian(1)
        # (4x^2 - 2) exp(-x^2)
        for x in (0.0, 0.7, -1.3):
            expected = (4 * x * x - 2) * np.exp(-x * x)
            assert f.partial(np.array([x]), (2,)) == pytest.approx(expected)


class TestSplineBump:
    def test_compact_support(self):
        f = spline_bump(2, radius=0.8)
        assert f.value(np.array([0.0, 0.0])) == pytest.approx(1.0)
        assert f.value(np.array([0.81, 0.0])) == 0.0
        assert f.partial(np.array([0.9, 0.2]), (1, 1)) == 0.0

    def test_partials_match_fd(self):
        f = spline_bump(1, radius=0.8)
        for x in (0.52, -0.61, 0.66):
            fd = central_diff(f, np.array([x]), 0)
            assert f.partial(np.array([x]), (1,)) == pytest.approx(
                fd, rel=1e-4, abs=1e-8)

    def test_scaling(self):
        f = gaussian(1).scaled(2.5)
        assert f.value(np.array([0.3])) == pytest.approx(2.5 * np.exp(-0.09))


def per_factor_partial(f, x, alpha):
    """A partial of a shipped test function from its factors' definitions:
    numpy.polynomial's ``polyval`` of the Gaussian factors' derivative
    polynomials (built by ``polyder``) times ``exp(-t^2)``, and the spline
    profile's own derivative, one factor and one order at a time."""
    out = np.ones(len(x))
    for i, (factor, a) in enumerate(zip(f.factors, alpha)):
        scale = 1.0
        while hasattr(factor, "inner"):
            scale, factor = factor.scale, factor.inner
        t = x[:, i]
        if hasattr(factor, "profile"):
            vals = factor.profile.eval(t, order=a)
        else:
            vals = npoly.polyval(t, _gauss_poly(factor._polys[0], a)) * np.exp(-t * t)
        out = out * (scale * vals)
    return out


def _gauss_poly(p, order):
    """The coefficients of P_j with (P e^{-t^2})^(j) = P_j e^{-t^2} for
    j = ``order``, through numpy.polynomial's ``polyder``."""
    for _ in range(order):
        dp = npoly.polyder(p) if len(p) > 1 else np.zeros(1)
        shifted = np.concatenate([[0.0], -2.0 * p])
        nxt = np.zeros(max(len(dp), len(shifted)))
        nxt[:len(dp)] += dp
        nxt[:len(shifted)] += shifted
        p = nxt
    return p


class TestPartials:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_order_in_one_pass_is_bitwise_each_partial(self, d):
        rng = np.random.default_rng(d)
        bump = spline_bump(d)
        knots = bump.factors[0].profile.knots
        x = np.concatenate([rng.uniform(-1.2, 1.2, (200, d)),
                            np.resize(knots, (len(knots), d))])
        alphas = indices_up_to_order(d, 4)
        for f in (gaussian(d), coord_gaussian(d), bump, gaussian(d).scaled(-2.5)):
            partial = f.at(x, (4,) * d)
            for alpha in alphas:
                assert partial(alpha).tobytes() == f.partial(x, alpha).tobytes()
                assert partial(alpha).tobytes() == \
                    per_factor_partial(f, x, alpha).tobytes()

    def test_one_interval_search_per_spline_factor(self, monkeypatch):
        searches = []
        locate = piecewise._locate

        def counting_locate(knots, x):
            searches.append(len(x))
            return locate(knots, x)

        monkeypatch.setattr(piecewise, "_locate", counting_locate)
        x = np.random.default_rng(0).uniform(-1.0, 1.0, (50, 2))
        partial = spline_bump(2).at(x, (3, 3))
        for alpha in indices_up_to_order(2, 3):
            partial(alpha)
        assert len(searches) == 2

    def test_orders_past_the_budget_raise(self):
        with pytest.raises(SmoothnessOrderError):
            spline_bump(1).at(np.zeros((1, 1)), (8,))
        with pytest.raises(SmoothnessOrderError):
            gaussian(1).at(np.zeros((1, 1)), (17,))
