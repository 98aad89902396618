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
from monotone_index import theoretical
from monotone_index.numerics import sign_partition, signed_variation

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

    def test_overflowing_window_raises_value_error(self):
        # h' overflows long before x = 8000; the quadrature must report the
        # non-finite H at once rather than refine until its work cap
        dist = WindowedDistribution(LomaxParams(1.5, 1.0), Window(0.0, 8000.0))
        with pytest.raises(ValueError, match="finite"):
            theoretical_index_via_H(HFunction(tf=TransferFunction(), dist=dist))

    # the switch point at or next to a window edge, where Q(u) can round
    # onto it for u near 0 or 1 and h' is undefined there, and one inside
    # a narrow window; the piecewise form has its cuts scanned in x, and a
    # scan of H in u instead would evaluate it on the jump
    @pytest.mark.parametrize("tf, window, alpha", [
        (TransferFunction(0.266, 0.1, 27.0, 9.32), Window(26.0, 27.0), 5.0),
        (TransferFunction(x0=1.6868, rho=0.5), Window(1.6868, 1.6892), 5.0),
        (TransferFunction(x0=0.10001, rho=0.5), Window(0.1, 1.1), 1.5),
        (TransferFunction(x0=1.5, rho=0.5), Window(1.5, 1.501), 5.0),
        (TransferFunction(1.0, 1.0, 0.6858588193171131, 1.0),
         Window(0.685134105544604, 0.686134105544604), 1.5),
    ])
    def test_switch_point_at_window_edge(self, tf, window, alpha):
        dist = WindowedDistribution(LomaxParams(alpha, 1.0), window)
        closed = theoretical_index(tf, window).value
        for fn in (tf, tf.as_piecewise()):
            via = theoretical_index_via_H(HFunction(tf=fn, dist=dist))
            assert abs(via.value - closed) <= 1e-9

    @pytest.mark.parametrize("alpha", [1.5, 5.0])
    def test_object_with_deriv_and_jumps_alone(self, alpha):
        tf = TransferFunction(rho=-0.5)
        window = Window(0.0, 20.0)
        bare = types.SimpleNamespace(deriv=tf.deriv, jumps=tf.jumps)
        dist = WindowedDistribution(LomaxParams(alpha, 1.0), window)
        via = theoretical_index_via_H(HFunction(bare, dist))
        assert abs(via.value - theoretical_index(tf, window).value) <= 1e-9

    @pytest.mark.parametrize("x0", [975.0, 999.9])
    def test_jump_image_off_the_jump_raises(self, x0):
        # 1 - F(1000) is 1e-15 at alpha = 5, and Q(F(x0)) lies past the
        # jump; H summed over those cuts gives 0.61 and 0.70 against the
        # closed form's 0.93 and 0.67
        tf = TransferFunction(x0=x0, rho=-0.5)
        dist = WindowedDistribution(LomaxParams(5.0, 1.0), Window(0.0, 1000.0))
        for fn in (tf, tf.as_piecewise()):
            with pytest.raises(ValueError, match="too coarse"):
                theoretical_index_via_H(HFunction(tf=fn, dist=dist))

    @pytest.mark.parametrize("alpha", [1.5, 5.0])
    def test_tiny_h_to_full_precision(self, alpha):
        # the integrals of H are ~1e-50 here, and the tolerance is relative
        # to their sum, with no absolute floor to stop refinement early
        tf = TransferFunction(gamma=1.0, delta=0.125, x0=0.00096875, rho=-0.5)
        window = Window(0.0, 0.001)
        dist = WindowedDistribution(LomaxParams(alpha, 1.0), window)
        via = theoretical_index_via_H(HFunction(tf=tf, dist=dist)).value
        assert abs(via - theoretical_index(tf, window).value) <= 1e-12

    def test_nonnegative_h_gives_one(self):
        dist = WindowedDistribution(LomaxParams(1.5, 1.0), Window(8.0, 12.0))
        via = theoretical_index_via_H(HFunction(tf=TransferFunction(), dist=dist))
        assert via.value == 1.0

    @pytest.mark.parametrize("tf, b", [
        # the jump at 2000 maps onto u = 1, above Q(1 - 2**-53) ~ 1551
        (TransferFunction(x0=2000.0, rho=-0.5), 3000.0),
        (TransferFunction(), 8000.0),
        (TransferFunction(rho=0.5), 8000.0),
    ])
    def test_top_out_of_reach_raises(self, tf, b):
        # the Lomax(5) cdf rounds to 1 at b, so no u < 1 reaches the top
        dist = WindowedDistribution(LomaxParams(5.0, 1.0), Window(0.0, b))
        assert theoretical_index(tf, dist.window).value == 1.0
        for fn in (tf, tf.as_piecewise()):
            with pytest.raises(ValueError, match="out of reach"):
                theoretical_index_via_H(HFunction(tf=fn, dist=dist))


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

    @pytest.mark.parametrize("tf, window, params, u", [
        # p = inf - inf in h', so every row of H is nan
        (TransferFunction(1e-8, 1e300, 1e8, 1e300), Window(0.0, 1e300),
         LomaxParams(1e-8, 1e300), 0.25),
        # h' overflows at x = 8000, the last row
        (TransferFunction(rho=0.5), Window(0.0, 8000.0), LomaxParams(1.5, 1.0), 1.0),
    ])
    def test_nonfinite_h_raises(self, tf, window, params, u):
        hf = HFunction(tf=tf, dist=WindowedDistribution(params, window))
        with pytest.raises(ValueError, match=f"at u = {u!r}:"):
            emit_h_profile(hf, 4)


def quadrature_only(tf):
    """tf without critical_points, so theoretical_index integrates its
    derivative between scanned sign changes instead."""
    return types.SimpleNamespace(deriv=tf.deriv, jumps=tf.jumps, support=tf.support)


@st.composite
def transfer_cases(draw, a_max=50.0, width_max=1e3):
    """A TransferFunction and a window (a, a + width] with a <= a_max and
    1e-3 <= width <= width_max.

    The switch point lands at either window edge, inside the window or
    outside it, as close to an edge as a draw puts it: the scan and the
    quadrature keep off the ends of a panel only a few ulps wide. It is
    also drawn from [1e-300, 1e-6] on a log scale: a jump that close above
    a = 0 is still a cut, and counted, on every route.
    """
    gamma = draw(st.floats(0.01, 1.0))
    delta = draw(st.floats(0.1, 5.0))
    rho = draw(st.floats(-0.95, 10.0, exclude_min=True))
    a = draw(st.one_of(st.just(0.0), st.floats(0.0, a_max)))
    width = 10.0 ** draw(st.floats(-3.0, np.log10(width_max)))
    t = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-0.5, 1.5)))
    tiny = st.floats(-300.0, -6.0).map(lambda e: 10.0 ** e)
    x0 = draw(st.one_of(st.just(a + t * width), tiny))
    assume(x0 > 0.0)
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
        # switch points at or next to a window edge are drawn too: the
        # exclusion of those cases was lifted once the route stopped
        # scanning H next to the edges, where Q(u) rounds onto them
        tf, window = case
        closed = theoretical_index(tf, window).value
        for alpha in (1.5, 5.0):
            dist = WindowedDistribution(LomaxParams(alpha, 1.0), window)
            via = theoretical_index_via_H(HFunction(tf=tf, dist=dist)).value
            assert abs(via - closed) <= 1e-6

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(transfer_cases(a_max=2.0, width_max=20.0))
    def test_scanned_roots_of_h_are_critical_images(self, case):
        """The quantile route splits at cdf(critical point) instead of
        scanning H; a scan finds every sign change of H at one of them."""
        tf, window = case
        # the scan evaluates H next to the edges, where Q(u) rounds onto
        # a switch point that sits at or next to them
        width = window.b - window.a
        assume(min(abs(tf.x0 - window.a), abs(tf.x0 - window.b)) > 1e-3 * width)
        for alpha in (1.5, 5.0):
            dist = WindowedDistribution(LomaxParams(alpha, 1.0), window)
            hf = HFunction(tf=tf, dist=dist)
            images = np.array(
                [dist.cdf(x) for x in tf.critical_points(window.a, window.b)]
            )
            jumps = [dist.cdf(x) for x, _ in tf.jumps if window.a < x < window.b]
            breaks = sign_partition(hf, (0.0, *jumps, 1.0))
            for root in set(breaks[1:-1]) - set(jumps):
                assert images.size and np.abs(images - root).min() <= 1e-9


class TestValuesRoute:
    """Every object with values is telescoped from them; only one known
    solely through its derivative is integrated."""

    @staticmethod
    def _no_quadrature(*args):
        raise AssertionError("signed_variation called")

    def test_piecewise_function_is_telescoped(self, monkeypatch):
        monkeypatch.setattr(theoretical, "signed_variation", self._no_quadrature)
        for rho in (0.0, 0.5, -0.5):
            tf = TransferFunction(rho=rho)
            # on (10, 20] the jump sits at the open edge and sets only fn(a+)
            for window in (*WINDOWS.values(), Window(10.0, 20.0)):
                got = theoretical_index(tf.as_piecewise(), window).value
                assert abs(got - theoretical_index(tf, window).value) <= 1e-15

    def test_derivative_only_object_is_integrated(self, monkeypatch):
        calls = []

        def counted(f, breaks):
            calls.append(breaks)
            return signed_variation(f, breaks)

        monkeypatch.setattr(theoretical, "signed_variation", counted)
        tf = TransferFunction(rho=0.5)
        got = theoretical_index(quadrature_only(tf), Window(0.0, 20.0)).value
        assert len(calls) == 1
        assert abs(got - theoretical_index(tf, Window(0.0, 20.0)).value) <= 1e-9

    def test_derivative_only_tiny_h_to_full_precision(self):
        # h rises from 0 to ~3.8e-40 on (0, 0.01], and int_abs is h(0.01)
        tf = TransferFunction(gamma=1.0, delta=1.0)
        got = theoretical_index(quadrature_only(tf), Window(0.0, 0.01)).int_abs
        np.testing.assert_allclose(got, tf.eval(0.01), rtol=1e-12)

    def test_overflowing_jump_gives_one(self):
        # h(x0) ~ exp(750) and the declared jump rho*h(x0) overflow a double
        tf = TransferFunction(x0=7500.0, rho=0.5)
        assert tf.jumps[0][1] == np.inf
        assert theoretical_index(tf, Window(7000.0, 8000.0)).value == 1.0

    def test_switch_point_ulps_from_window_edge(self):
        # (16, x0] is a few hundred ulps wide, and a scan grid spread over
        # it rounds onto x0 unless kept inside the panel
        tf = TransferFunction(x0=16.000000000001, rho=0.5)
        window = Window(16.0, 16.01)
        assert theoretical_index(tf, window).value == 1.0
        for fn in (quadrature_only(tf), tf.as_piecewise()):
            assert theoretical_index(fn, window).value == 1.0
        for alpha in (1.5, 5.0):
            dist = WindowedDistribution(LomaxParams(alpha, 1.0), window)
            hf = HFunction(tf=tf.as_piecewise(), dist=dist)
            assert theoretical_index_via_H(hf).value == 1.0

    @pytest.mark.parametrize("ulps", [1, 2, 3, 50])
    def test_switch_point_ulps_below_window_top(self, ulps):
        # the panel (x0, b] is too narrow for the GK15 nodes to stay off x0
        x0 = 1.0 - ulps * np.spacing(0.5)
        tf = TransferFunction(x0=x0, rho=0.5)
        closed = theoretical_index(tf, Window(0.0, 1.0)).value
        for fn in (quadrature_only(tf), tf.as_piecewise()):
            assert abs(theoretical_index(fn, Window(0.0, 1.0)).value - closed) <= 1e-9

    def test_overflowing_piecewise_raises_value_error_alone(self):
        # h' overflows long before x = 8000, and the scan reports it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                theoretical_index(TransferFunction(rho=0.5).as_piecewise(), Window(0.0, 8000.0))

    def test_zero_function_degenerates_without_warning(self):
        pw = PiecewiseFunction((Segment(0.0, 1.0, lambda x: 0.0, lambda x: 0.0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateFunctionError):
                theoretical_index(pw, Window(0.0, 1.0))

    def test_values_lose_a_variation_below_their_rounding(self):
        # a tent of height 1 on a constant c: its values round to multiples
        # of ulp(c), so their differences carry an error of ~eps * c
        def tent(c):
            return PiecewiseFunction((
                Segment(0.0, 1.0, lambda x: c + x, lambda x: 1.0),
                Segment(1.0, 2.0, lambda x: c + 2.0 - x, lambda x: -1.0),
            ))

        window = Window(0.0, 2.0)
        assert abs(theoretical_index(tent(1e8), window).value - 0.5) < 1e-7
        with pytest.raises(DegenerateFunctionError):
            theoretical_index(tent(1e17), window)
        # known through its derivative alone, the tent is integrated
        for c in (1e8, 1e17):
            assert abs(theoretical_index(quadrature_only(tent(c)), window).value - 0.5) < 1e-9

    def test_non_finite_values_raise(self):
        for value in (np.inf, np.nan):
            pw = PiecewiseFunction((Segment(0.0, 1.0, lambda x, v=value: v, lambda x: 1.0),))
            with pytest.raises(ValueError, match="finite"):
                theoretical_index(pw, Window(0.0, 1.0))


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
        )
    )


class TestInvariance:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(transfer_cases(), st.floats(-30.0, 30.0))
    def test_scale_invariance(self, case, k):
        tf, window = case
        got = theoretical_index(scaled(tf, 10.0 ** k), window).value
        assert abs(got - theoretical_index(tf, window).value) <= 1e-12

    # the increases and the decreases add up to the net change h(b) - h(a+),
    # so a jump counted twice or a piece dropped breaks value = 1/2 + net/(2 den)
    @pytest.mark.parametrize("route, tol", [
        (lambda tf: tf, 1e-12),
        (lambda tf: tf.as_piecewise(), 1e-12),
        (quadrature_only, 1e-9),
    ], ids=["closed-form", "piecewise", "derivative-only"])
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(transfer_cases())
    def test_jumps_and_variation_add_up_to_the_net_change(self, route, tol, case):
        tf, window = case
        h_b = tf.eval(window.b)
        assume(np.isfinite(h_b))
        net = h_b - tf.eval(np.nextafter(window.a, window.b))
        got = theoretical_index(route(tf), window)
        assert abs(got.value - (0.5 + net / (2.0 * (got.jump_abs + got.int_abs)))) <= tol

    # the negated piecewise form is telescoped from its values; without
    # them only its derivative is known, and that is integrated
    @pytest.mark.parametrize("reflect", [
        lambda tf: negated(tf.as_piecewise()),
        lambda tf: quadrature_only(negated(tf.as_piecewise())),
    ], ids=["telescoped", "integrated"])
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(transfer_cases())
    def test_reflection_on_both_direct_routes(self, reflect, case):
        tf, window = case
        reflected = theoretical_index(reflect(tf), window).value
        assert abs(reflected - (1.0 - theoretical_index(tf, window).value)) <= 1e-9
