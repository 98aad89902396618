"""Exact index computation, x-domain vs u-domain agreement, profiles."""

import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monotone_index import (
    DegenerateFunctionError,
    HFunction,
    LomaxParams,
    PiecewiseFunction,
    Segment,
    TransferFunction,
    Window,
    WindowedDistribution,
    emit_h_profile,
    theoretical_index,
    theoretical_index_via_H,
)

# stationary points of the default transfer function, frozen from a
# bisection oracle; h'(r1) = h'(r2) = 0 so evaluation error there is
# second order and the FTC arithmetic below is good to full precision
R1 = 0.5282995238161798
R2 = 4.455467250491141

H0 = TransferFunction().eval

WINDOWS = {
    "narrow": Window(0.0, 2.0),
    "straddle": Window(8.0, 12.0),
    "wide": Window(0.0, 20.0),
}


def expected_breakdown(window, rho):
    """Index components assembled from h evaluations alone.

    Splits the window at the stationary points and the switch point and
    telescopes h over each monotone stretch, which is independent of the
    quadrature and root-finding paths under test.
    """
    a, b = window.a, window.b
    scale = 1.0 + rho
    jump = rho * H0(10.0)
    if (a, b) == (0.0, 2.0):
        up = H0(R1)
        down = H0(R1) - H0(2.0)
        return 0.0, 0.0, up, up + down
    if (a, b) == (8.0, 12.0):
        ip = (H0(10.0) - H0(8.0)) + scale * (H0(12.0) - H0(10.0))
        return max(jump, 0.0), abs(jump), ip, ip
    if (a, b) == (0.0, 20.0):
        up1 = H0(R1)
        down = H0(R1) - H0(R2)
        up2 = H0(10.0) - H0(R2)
        up3 = scale * (H0(20.0) - H0(10.0))
        return max(jump, 0.0), abs(jump), up1 + up2 + up3, up1 + down + up2 + up3
    raise AssertionError("no expectation for this window")


class TestIndexTable:
    @pytest.mark.parametrize("name", list(WINDOWS))
    @pytest.mark.parametrize("rho", [0.0, 0.5, -0.5])
    def test_against_telescoped_h(self, name, rho):
        window = WINDOWS[name]
        got = theoretical_index(TransferFunction(rho=rho), window)
        jp, ja, ip, ia = expected_breakdown(window, rho)
        np.testing.assert_allclose(got.jump_pos, jp, atol=1e-15)
        np.testing.assert_allclose(got.jump_abs, ja, atol=1e-15)
        np.testing.assert_allclose(got.int_pos, ip, rtol=1e-9)
        np.testing.assert_allclose(got.int_abs, ia, rtol=1e-9)
        np.testing.assert_allclose(got.value, (jp + ip) / (ja + ia), rtol=1e-9)

    def test_fields_are_plain_floats(self):
        got = theoretical_index(TransferFunction(rho=0.5), Window(8.0, 12.0))
        for field in ("jump_pos", "jump_abs", "int_pos", "int_abs", "value"):
            assert type(getattr(got, field)) is float

    def test_monotone_stretch_gives_exactly_one(self):
        # on (8, 12] with rho >= 0 every contribution is increasing, so the
        # positive and absolute parts are the same sums and the ratio is 1.0
        got = theoretical_index(TransferFunction(rho=0.5), Window(8.0, 12.0))
        assert got.value == 1.0
        assert got.int_pos == got.int_abs
        assert got.jump_pos == got.jump_abs

    def test_value_bounds(self):
        for rho in (-0.9, -0.5, 0.0, 0.5, 3.0):
            for window in WINDOWS.values():
                v = theoretical_index(TransferFunction(rho=rho), window).value
                assert 0.0 <= v <= 1.0


class TestDomainAndDegeneracy:
    def test_window_outside_support(self):
        pw = PiecewiseFunction((Segment(0.0, 1.0, lambda x: x, lambda x: 1.0),))
        with pytest.raises(ValueError):
            theoretical_index(pw, Window(0.0, 2.0))

    def test_flat_function_degenerates(self):
        pw = PiecewiseFunction((Segment(0.0, 1.0, lambda x: 5.0, lambda x: 0.0),))
        with pytest.raises(DegenerateFunctionError):
            theoretical_index(pw, Window(0.0, 1.0))


class TestReflectionAndEdgeJumps:
    def test_reflection_flips_value(self):
        """Negating the function maps the index v to 1 - v."""
        tf = TransferFunction(rho=-0.5)
        lower = TransferFunction()
        neg = PiecewiseFunction(
            (
                Segment(0.0, 10.0, lambda x: -lower.eval(x), lambda x: -lower.deriv(x)),
                Segment(
                    10.0,
                    np.inf,
                    lambda x: -0.5 * lower.eval(x),
                    lambda x: -0.5 * lower.deriv(x),
                ),
            ),
            jumps=((10.0, -tf.jump_size()),),
        )
        for window in WINDOWS.values():
            v = theoretical_index(tf, window).value
            w = theoretical_index(neg, window).value
            np.testing.assert_allclose(w, 1.0 - v, atol=1e-9)

    def test_jump_at_right_edge_excluded(self):
        got = theoretical_index(TransferFunction(rho=0.5), Window(0.0, 10.0))
        assert got.jump_pos == 0.0
        assert got.jump_abs == 0.0

    def test_jump_at_left_edge_excluded(self):
        got = theoretical_index(TransferFunction(rho=0.5), Window(10.0, 20.0))
        assert got.jump_abs == 0.0
        assert got.value == 1.0

    def test_piecewise_route_matches_native(self):
        for rho, window in ((0.5, Window(8.0, 12.0)), (-0.5, Window(0.0, 20.0))):
            tf = TransferFunction(rho=rho)
            direct = theoretical_index(tf, window)
            via_pw = theoretical_index(tf.as_piecewise(), window)
            np.testing.assert_allclose(via_pw.value, direct.value, atol=1e-9)
            np.testing.assert_allclose(via_pw.int_abs, direct.int_abs, rtol=1e-8)


class TestViaH:
    @pytest.mark.parametrize("alpha", [1.5, 5.0])
    @pytest.mark.parametrize("name", list(WINDOWS))
    @pytest.mark.parametrize("rho", [0.0, 0.5, -0.5])
    def test_agrees_with_x_domain(self, alpha, name, rho):
        window = WINDOWS[name]
        tf = TransferFunction(rho=rho)
        direct = theoretical_index(tf, window)
        dist = WindowedDistribution(LomaxParams(alpha, 1.0), window)
        via = theoretical_index_via_H(HFunction(tf=tf, dist=dist))
        np.testing.assert_allclose(via.value, direct.value, atol=1e-6)
        np.testing.assert_allclose(via.int_abs, direct.int_abs, atol=1e-6)

    @pytest.mark.parametrize("alpha", [1.5, 5.0])
    @pytest.mark.parametrize("name", list(WINDOWS))
    @pytest.mark.parametrize("rho", [0.5, -0.5])
    def test_piecewise_function_matches_transfer(self, alpha, name, rho):
        tf = TransferFunction(rho=rho)
        dist = WindowedDistribution(LomaxParams(alpha, 1.0), WINDOWS[name])
        native = theoretical_index_via_H(HFunction(tf=tf, dist=dist))
        pw = theoretical_index_via_H(HFunction(tf=tf.as_piecewise(), dist=dist))
        assert abs(pw.value - native.value) <= 1e-9
        np.testing.assert_allclose(pw.int_abs, native.int_abs, rtol=1e-9)

    def test_alpha_drops_out(self):
        """The u-domain value cannot depend on the input distribution."""
        tf = TransferFunction(rho=-0.5)
        vals = []
        for alpha in (1.5, 5.0):
            dist = WindowedDistribution(LomaxParams(alpha, 1.0), Window(0.0, 20.0))
            vals.append(theoretical_index_via_H(HFunction(tf=tf, dist=dist)).value)
        np.testing.assert_allclose(vals[0], vals[1], atol=1e-9)

    def test_nonnegative_h_gives_one(self):
        dist = WindowedDistribution(LomaxParams(1.5, 1.0), Window(8.0, 12.0))
        via = theoretical_index_via_H(HFunction(tf=TransferFunction(), dist=dist))
        assert via.value == 1.0


class TestProfile:
    def _hf(self, window=Window(8.0, 12.0), rho=0.0, alpha=1.5):
        dist = WindowedDistribution(LomaxParams(alpha, 1.0), window)
        return HFunction(tf=TransferFunction(rho=rho), dist=dist)

    def test_grid_layout(self):
        prof = emit_h_profile(self._hf(), 4)
        np.testing.assert_allclose(prof[:, 0], [0.25, 0.5, 0.75, 1.0], atol=1e-15)
        assert prof.shape == (4, 2)

    def test_values_match_direct_calls(self):
        hf = self._hf(rho=-0.5)
        prof = emit_h_profile(hf, 50)
        np.testing.assert_allclose(prof[:, 1], hf(prof[:, 0]), rtol=1e-15)

    def test_jump_image_row_is_nudged(self):
        # quantile(1) = 10 sits exactly on the switch point; the final row
        # must shift half a step down instead of raising
        hf = self._hf(window=Window(8.0, 10.0), rho=0.5)
        prof = emit_h_profile(hf, 10)
        assert prof[-1, 0] == 1.0 - 0.05
        assert np.isfinite(prof[:, 1]).all()

    @pytest.mark.parametrize("window", [Window(8.0, 12.0), Window(8.0, 10.0)])
    def test_piecewise_function_matches_transfer(self, window):
        # on (8, 10] the last row lands on the jump and is nudged
        hf = self._hf(window=window, rho=0.5)
        pw = HFunction(tf=hf.tf.as_piecewise(), dist=hf.dist)
        np.testing.assert_allclose(emit_h_profile(pw, 50), emit_h_profile(hf, 50), rtol=1e-15)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            emit_h_profile(self._hf(), 1)


def quadrature_only(tf):
    """tf without critical_points, so theoretical_index integrates its
    derivative between scanned sign changes instead."""
    return types.SimpleNamespace(deriv=tf.deriv, jumps=tf.jumps, support=tf.support)


@st.composite
def transfer_cases(draw, a_max=50.0, width_max=1e3):
    """A TransferFunction and a window (a, a + width] with a <= a_max and
    1e-3 <= width <= width_max.

    The switch point lands at either window edge, inside the window or
    outside it; inside, it keeps 1e-6 of the width from the edges, since
    the quadrature fallback cannot split a panel only a few ulps wide.
    It also stays above 1e-6, since the fallback integrates from
    EDGE_MARGIN = 1e-12 and cannot place a jump below that.
    """
    gamma = draw(st.floats(0.01, 1.0))
    delta = draw(st.floats(0.1, 5.0))
    rho = draw(st.floats(-0.95, 10.0, exclude_min=True))
    a = draw(st.one_of(st.just(0.0), st.floats(0.0, a_max)))
    width = 10.0 ** draw(st.floats(-3.0, np.log10(width_max)))
    t = draw(st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.floats(-0.5, 1.5).filter(lambda t: min(abs(t), abs(t - 1.0)) > 1e-6),
    ))
    x0 = a + t * width
    assume(x0 > 1e-6)
    tf = TransferFunction(gamma, delta, x0, rho)
    window = Window(a, a + width)
    # the integrating routes see h only through h' in floating point, so
    # h must neither overflow nor underflow at the right edge
    assume(-600.0 < tf.log_eval(window.b) < 600.0)
    return tf, window


class TestClosedForm:
    def test_critical_points_reproduce_frozen_roots(self):
        tf = TransferFunction()
        np.testing.assert_allclose(tf.critical_points(0.0, np.inf), (R1, R2), rtol=0, atol=1e-12)
        assert tf.critical_points(1.0, 20.0) == tf.critical_points(0.0, np.inf)[1:]
        assert tf.critical_points(5.0, 20.0) == ()

    def test_increasing_near_origin_gives_one(self):
        # h is strictly increasing on (0, 0.02] but of order 1e-19 there
        assert theoretical_index(TransferFunction(), Window(0.0, 0.02)).value == 1.0

    def test_overflowing_window_keeps_a_defined_index(self):
        # h(8000) ~ exp(800) overflows a double; the index is still ~1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = theoretical_index(TransferFunction(), Window(0.0, 8000.0))
        assert abs(got.value - 1.0) < 1e-6
        assert not any(np.isnan(v) for v in vars(got).values())

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(transfer_cases())
    def test_matches_quadrature_fallback(self, case):
        tf, window = case
        closed = theoretical_index(tf, window)
        quad = theoretical_index(quadrature_only(tf), window)
        assert abs(closed.value - quad.value) <= 1e-9

    # H = h'(Q(u)) / q(u) spans many orders of magnitude once the window
    # reaches into the Lomax(5) tail, and there the quadrature over u can
    # take minutes to meet its tolerance, so these windows stay near the
    # paper's scale
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(transfer_cases(a_max=2.0, width_max=20.0))
    def test_matches_quantile_route(self, case):
        tf, window = case
        # Q(u) rounds onto a window edge for u near 0 or 1, where h' is
        # undefined when the switch point sits at or next to that edge
        width = window.b - window.a
        assume(min(abs(tf.x0 - window.a), abs(tf.x0 - window.b)) > 1e-3 * width)
        closed = theoretical_index(tf, window).value
        for alpha in (1.5, 5.0):
            dist = WindowedDistribution(LomaxParams(alpha, 1.0), window)
            via = theoretical_index_via_H(HFunction(tf=tf, dist=dist)).value
            assert abs(via - closed) <= 1e-6


def scaled(tf, c):
    """c * tf through the closed-form protocol: log values shifted by
    log c, jump sizes times c, the same critical points and support."""
    log_c = np.log(c)
    return types.SimpleNamespace(
        log_eval=lambda x: tf.log_eval(x) + log_c,
        jumps=tuple((x, c * s) for x, s in tf.jumps),
        critical_points=tf.critical_points,
        support=tf.support,
    )


def negated(pw):
    """-pw: every segment's value and derivative negated, and every jump."""
    return PiecewiseFunction(
        tuple(
            Segment(s.lo, s.hi, lambda x, f=s.value: -f(x), lambda x, d=s.derivative: -d(x))
            for s in pw.segments
        ),
        jumps=tuple((x, -size) for x, size in pw.jumps),
    )


class TestInvariance:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(transfer_cases(), st.floats(-30.0, 30.0))
    def test_scale_invariance(self, case, k):
        tf, window = case
        got = theoretical_index(scaled(tf, 10.0 ** k), window).value
        assert abs(got - theoretical_index(tf, window).value) <= 1e-12

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(transfer_cases())
    def test_reflection_on_the_integrating_route(self, case):
        tf, window = case
        reflected = theoretical_index(negated(tf.as_piecewise()), window).value
        assert abs(reflected - (1.0 - theoretical_index(tf, window).value)) <= 1e-9
