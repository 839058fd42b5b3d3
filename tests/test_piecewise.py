import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from covercert.bumps import build_profile
from covercert.piecewise import PiecewisePoly, evaluate_shared, indicator


def numeric_box_convolution(fn, width, x, steps=4001):
    """Oracle: (1/w) * integral of fn over [x - w/2, x + w/2] by midpoint rule."""
    ts = np.linspace(x - width / 2, x + width / 2, steps)
    mids = 0.5 * (ts[:-1] + ts[1:])
    return fn(mids).sum() * (ts[1] - ts[0]) / width


class TestSingleConvolution:
    def test_trapezoid_shape(self):
        # indicator of [-1, 1] smoothed by a box of width 1/2
        p = indicator(1.0).convolve_unit_box(0.5)
        assert p(0.0) == pytest.approx(1.0)
        assert p(0.74) == pytest.approx(1.0)          # plateau out to 0.75
        assert p(1.25) == pytest.approx(0.0, abs=1e-14)
        assert p(1.0) == pytest.approx(0.5)           # midpoint of the ramp
        assert p(2.0) == 0.0

    def test_matches_overlap_oracle(self):
        # box average of an indicator is the overlap length divided by w
        p = indicator(0.8).convolve_unit_box(0.3)
        for x in [-1.1, -0.9, -0.5, 0.0, 0.33, 0.71, 0.9, 1.05]:
            lo, hi = max(x - 0.15, -0.8), min(x + 0.15, 0.8)
            expected = max(hi - lo, 0.0) / 0.3
            assert p(x) == pytest.approx(expected, abs=1e-12)

    def test_second_stage_matches_numeric_oracle(self):
        stage1 = indicator(0.8).convolve_unit_box(0.3)
        stage2 = stage1.convolve_unit_box(0.2)
        for x in [-1.2, -0.8, -0.4, 0.1, 0.62, 0.95, 1.14]:
            expected = numeric_box_convolution(lambda t: stage1(t), 0.2, x)
            assert stage2(x) == pytest.approx(expected, abs=1e-6)


class TestExactIdentities:
    def test_derivative_is_difference_quotient(self):
        # (f * box_w)'(x) = (f(x + w/2) - f(x - w/2)) / w, exactly
        f = indicator(1.0).convolve_unit_box(0.4)
        g = f.convolve_unit_box(0.25)
        dg = g.derivative()
        for x in np.linspace(-1.6, 1.6, 37):
            expected = (f(x + 0.125) - f(x - 0.125)) / 0.25
            assert dg(x) == pytest.approx(expected, abs=1e-11)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.05, 0.6), min_size=1, max_size=4))
    def test_mass_preserved(self, widths):
        p = indicator(0.75)
        for w in widths:
            p = p.convolve_unit_box(w)
        assert p.mass() == pytest.approx(1.5, rel=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.05, 0.9), st.floats(-3.0, 3.0))
    def test_range_stays_in_unit_interval(self, width, x):
        p = indicator(1.0).convolve_unit_box(width).convolve_unit_box(width / 2)
        v = p(x)
        assert -1e-12 <= v <= 1.0 + 1e-12

    def test_zero_outside_support(self):
        p = indicator(0.5).convolve_unit_box(0.2).convolve_unit_box(0.1)
        lo, hi = p.support
        assert p(lo - 1e-9) == 0.0
        assert p(hi + 1e-9) == 0.0
        assert lo == pytest.approx(-0.65) and hi == pytest.approx(0.65)


class TestCalculus:
    def test_antiderivative_of_constant(self):
        p = PiecewisePoly(np.array([0.0, 2.0]), np.array([[3.0]]))
        anti = p.antiderivative()
        assert anti(2.0) == pytest.approx(6.0)
        assert anti(1.0) == pytest.approx(3.0)

    def test_max_abs_quadratic(self):
        # p(t) = t (2 - t) on [0, 2]: maximum 1 at t = 1
        p = PiecewisePoly(np.array([0.0, 2.0]), np.array([[0.0, 2.0, -1.0]]))
        assert p.max_abs() == pytest.approx(1.0)

    def test_max_abs_considers_endpoints(self):
        p = PiecewisePoly(np.array([0.0, 1.0]), np.array([[0.5, 1.0]]))
        assert p.max_abs() == pytest.approx(1.5)

    def test_continuity_at_knots(self):
        p = indicator(1.0)
        for w in (0.5, 0.25, 0.125):
            p = p.convolve_unit_box(w)
        for knot in p.knots[1:-1]:
            left = p(knot - 1e-12)
            right = p(knot + 1e-12)
            assert left == pytest.approx(right, abs=1e-9)

    def test_degree_grows_by_one_per_box(self):
        p = indicator(1.0)
        assert p.degree == 0
        p = p.convolve_unit_box(0.5)
        assert p.degree == 1
        p = p.convolve_unit_box(0.25)
        assert p.degree == 2


def assert_bitwise(actual, expected):
    """Equal values, NaN in the same places and the same sign on zeros."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def assert_same_poly(p, q):
    assert_bitwise(p.knots, q.knots)
    assert_bitwise(p.coeffs, q.coeffs)


@st.composite
def piecewise_polys(draw):
    pieces = draw(st.integers(1, 8))
    degree = draw(st.integers(0, 7))
    start = draw(st.floats(-5.0, 5.0))
    widths = draw(st.lists(st.floats(1e-3, 2.0), min_size=pieces,
                           max_size=pieces))
    knots = start + np.concatenate([[0.0], np.cumsum(widths)])
    coeffs = draw(st.lists(st.floats(-10.0, 10.0),
                           min_size=pieces * (degree + 1),
                           max_size=pieces * (degree + 1)))
    return PiecewisePoly(knots, np.reshape(coeffs, (pieces, degree + 1)))


class TestAgainstPerPieceOracles:
    @settings(max_examples=200, deadline=None)
    @given(piecewise_polys(), st.lists(st.floats(-1.0, 1.0), max_size=30))
    def test_call_bitwise(self, p, fractions):
        lo, hi = p.support
        span = hi - lo
        # random points over and around the span, every knot (interior and
        # both ends), and points just outside either end
        pts = np.concatenate([lo + span * (0.5 + 0.75 * np.asarray(fractions)),
                              p.knots, [lo - 1e-9, hi + 1e-9, lo - 7.0, hi + 7.0]])
        assert_bitwise(p(pts), oracles.piecewise_call(p, pts))
        for x in [*p.knots, lo - 1.0, hi + 1.0]:
            value = p(x)
            assert isinstance(value, float)
            assert_bitwise(value, oracles.piecewise_call(p, x))

    def test_empty_input(self):
        p = indicator(1.0).convolve_unit_box(0.5)
        out = p(np.empty(0))
        assert out.shape == (0,)
        assert_bitwise(out, oracles.piecewise_call(p, np.empty(0)))

    @settings(max_examples=100, deadline=None)
    @given(piecewise_polys(), st.floats(1e-3, 3.0))
    def test_construction_bitwise(self, p, width):
        assert_same_poly(p.antiderivative(), oracles.antiderivative(p))
        assert_same_poly(p.convolve_unit_box(width),
                         oracles.convolve_unit_box(p, width))

    @pytest.mark.parametrize("knots, width", [
        # shifted knots that differ from each other by a few ulps
        (np.cumsum([0.0] + [0.1] * 10), 0.2),
        (np.cumsum([0.0] + [0.1] * 10), 0.3),
        # a run of candidates 0.6e-13 apart: the second of each run is
        # merged, the third lies 1.2e-13 past the kept one and stays
        ([0.0, 1.0, 1.0 + 0.6e-13, 1.0 + 1.2e-13, 2.0], 0.5),
    ])
    def test_merging_near_coincident_knots(self, knots, width):
        p = PiecewisePoly(knots, np.arange(1.0, len(knots))[:, None])
        assert_same_poly(p.convolve_unit_box(width),
                         oracles.convolve_unit_box(p, width))

    @pytest.mark.parametrize("order", range(1, 7))
    @settings(max_examples=10, deadline=None)
    @given(st.floats(1e-3, 1.0))
    def test_build_profile_bitwise(self, order, r):
        profile = build_profile(r, order)
        expected = oracles.profile_polys(profile)
        assert len(profile.polys) == len(expected)
        for p, q in zip(profile.polys, expected):
            assert_same_poly(p, q)


class TestSharedKnots:
    """One interval search for several polys on one knot vector gives each
    poly's own call, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(piecewise_polys(), st.integers(0, 3),
           st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=24),
           st.lists(st.floats(-1.0, 1.0), max_size=30))
    def test_equals_separate_calls(self, p, derivatives, coeffs, fractions):
        polys = [p]
        for _ in range(derivatives):
            polys.append(polys[-1].derivative())
        rows = len(p.knots) - 1
        width = max(len(coeffs) // rows, 1)
        other = np.resize(np.asarray(coeffs), rows * width).reshape(rows, width)
        polys.append(PiecewisePoly(p.knots.copy(), other))
        lo, hi = p.support
        span = hi - lo
        x = np.concatenate([
            lo + span * (0.5 + 0.75 * np.asarray(fractions)),
            p.knots,                                    # every knot, both ends
            [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)],
            [lo - 1e-9, hi + 1e-9, lo - 7.0, hi + 7.0, np.nan, np.nan]])
        shared = evaluate_shared(polys, x)
        assert len(shared) == len(polys)
        finite = ~np.isnan(x)
        for q, vals in zip(polys, shared):
            assert vals.tobytes() == q(x).tobytes()
            assert np.isnan(vals[~finite]).all()
            assert vals[finite].tobytes() == \
                oracles.piecewise_call(q, x[finite]).tobytes()
        # a scalar point gives one-element arrays
        for q, vals in zip(polys, evaluate_shared(polys, lo)):
            assert vals.shape == (1,) and vals.tobytes() == q(np.array([lo])).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(piecewise_polys(), st.integers(0, 2), st.data())
    def test_each_point_on_its_own(self, p, derivatives, data):
        # the distinct points are evaluated once and gathered back, so the
        # values must be bitwise those of each point evaluated alone
        polys = [p]
        for _ in range(derivatives):
            polys.append(polys[-1].derivative())
        lo, hi = p.support
        pool = [*p.knots, 0.0, -0.0, np.nan, np.inf, -np.inf,
                np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
                *data.draw(st.lists(st.floats(lo - 1.0, hi + 1.0), max_size=6))]
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
        x = np.array([pool[i] for i in picks], dtype=float)
        alone = [np.concatenate([np.empty(0)] + [
                     evaluate_shared(polys, x[i:i + 1])[j]
                     for i in range(len(x))]) for j in range(len(polys))]
        for shape in ((len(x),), (1, len(x)) if len(x) % 2 else (2, -1)):
            got = evaluate_shared(polys, x.reshape(shape))
            assert len(got) == len(polys)
            for vals, want in zip(got, alone):
                assert vals.shape == x.reshape(shape).shape
                assert vals.ravel().tobytes() == want.tobytes()

    def test_signed_zeros_stay_apart(self):
        # at a knot at zero, -0.0 and 0.0 evaluate to zeros of their own
        # sign, so the repeated points must not merge them
        p = PiecewisePoly([0.0, 1.0], [[-0.0]])
        out = evaluate_shared([p], [0.0, -0.0, 0.0, -0.0])[0]
        assert np.signbit(out).tolist() == [False, True, False, True]

    def test_empty_input(self):
        p = indicator(1.0).convolve_unit_box(0.5)
        out = evaluate_shared([p, p.derivative()], np.empty(0))
        assert [v.shape for v in out] == [(0,), (0,)]

    def test_knots_must_be_shared(self):
        with pytest.raises(ValueError):
            evaluate_shared([indicator(1.0), indicator(2.0)], np.zeros(3))
        # equal knots held in distinct arrays are shared knots
        p = PiecewisePoly([0.0, 1.0, 2.0], [[1.0], [2.0]])
        q = PiecewisePoly([0.0, 1.0, 2.0], [[3.0], [4.0]])
        assert [v.tolist() for v in evaluate_shared([p, q], [0.5, 1.5])] == \
            [[1.0, 2.0], [3.0, 4.0]]


class TestInputs:
    def test_nan_in_nan_out(self):
        p = indicator(1.0)
        assert np.isnan(p(np.nan))
        out = p(np.array([np.nan, 0.5, 3.0, np.nan]))
        assert_bitwise(out, [np.nan, 1.0, 0.0, np.nan])

    @pytest.mark.parametrize("knots, coeffs", [
        ([0.0, 1.0, 2.0], [1.0, 2.0]),                  # 1-D coefficients
        ([0.0, 1.0], [[[1.0]]]),                        # 3-D coefficients
        ([0.0, 1.0], np.empty((1, 0))),                 # no powers at all
        ([[0.0, 1.0]], [[1.0]]),                        # 2-D knots
        ([0.0, np.inf], [[1.0]]),                       # infinite knot
        ([-np.inf, 0.0], [[1.0]]),
        ([0.0, np.nan], [[1.0]]),
        ([0.0], np.empty((0, 1))),                      # no interval
        ([0.0, 0.0], [[1.0]]),                          # not increasing
        ([0.0, 1.0, 2.0], [[1.0]]),                     # rows != intervals
    ])
    def test_malformed_rejected(self, knots, coeffs):
        with pytest.raises(ValueError):
            PiecewisePoly(knots, coeffs)

    def test_lists_coerced_to_float_arrays(self):
        p = PiecewisePoly([0, 1, 2], [[1], [2]])
        assert p.knots.dtype == float and p.coeffs.dtype == float
        assert p.degree == 0
        assert p(1.5) == 2.0
