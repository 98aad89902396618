"""Transfer-function evaluation, derivative, jump structure, and the ratio H."""

import numpy as np
import pytest

from monotone_index import (
    HFunction,
    LomaxParams,
    PiecewiseFunction,
    Segment,
    SingularPointError,
    TransferFunction,
    Window,
    WindowedDistribution,
)

# continuous baseline and the two jump variants used throughout
TF0 = TransferFunction()
TF_UP = TransferFunction(rho=0.5)
TF_DOWN = TransferFunction(rho=-0.5)

# h(10-) with default gamma/delta, frozen: 0.11 * exp(0.9)
H_AT_X0 = 0.2705563422272645


class TestEval:
    def test_zero_at_origin(self):
        for tf in (TF0, TF_UP, TF_DOWN):
            assert tf.eval(0.0) == 0.0

    def test_left_continuous_value_at_jump_point(self):
        # value at x0 belongs to the lower branch for every rho
        for tf in (TF0, TF_UP, TF_DOWN):
            np.testing.assert_allclose(tf.eval(10.0), H_AT_X0, rtol=1e-12)

    def test_upper_branch_scaling(self):
        x = np.array([10.5, 15.0, 25.0])
        np.testing.assert_allclose(TF_UP.eval(x), 1.5 * TF0.eval(x), rtol=1e-14)
        np.testing.assert_allclose(TF_DOWN.eval(x), 0.5 * TF0.eval(x), rtol=1e-14)

    def test_left_continuity_limit(self):
        steps = 10.0 ** -np.arange(6, 13)
        vals = TF_UP.eval(10.0 - steps)
        assert np.abs(vals - TF_UP.eval(10.0)).max() < 1e-6
        assert abs(TF_UP.eval(10.0 - 1e-12) - TF_UP.eval(10.0)) < 1e-9

    def test_jump_identity(self):
        # h(x0+) - h(x0) recovers rho * h(x0-)
        for tf in (TF_UP, TF_DOWN):
            gap = tf.eval(10.0 + 1e-11) - tf.eval(10.0)
            np.testing.assert_allclose(gap, tf.jump_size(), rtol=1e-9)

    def test_small_x_underflows_cleanly(self):
        # gradual underflow to 0 is the designed behaviour; what must never
        # appear is an overflow, a nan, or a 0 * inf product
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert TF0.eval(1e-10) == 0.0
            assert TF0.eval(1e-300) == 0.0

    def test_vectorized(self):
        x = np.linspace(0.0, 30.0, 50)
        out = TF0.eval(x)
        assert out.shape == x.shape
        assert np.isfinite(out).all()

    def test_domain_error(self):
        with pytest.raises(ValueError):
            TF0.eval(-0.5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TransferFunction(gamma=0.0)
        with pytest.raises(ValueError):
            TransferFunction(delta=-1.0)
        with pytest.raises(ValueError):
            TransferFunction(x0=0.0)
        with pytest.raises(ValueError):
            TransferFunction(rho=-1.0)


class TestDeriv:
    def test_spot_value(self):
        # h'(20) = (1641/160000) exp(1.95) from the product-rule expansion
        np.testing.assert_allclose(TF0.deriv(20.0), 1641.0 / 160000.0 * np.exp(1.95), rtol=1e-12)

    def test_upper_branch_scaling(self):
        np.testing.assert_allclose(TF_UP.deriv(20.0), 1.5 * TF0.deriv(20.0), rtol=1e-14)

    def test_finite_difference_oracle(self):
        """Central differences with step 1e-6 agree to 1e-5 relative."""
        rng = np.random.default_rng(42)
        x = rng.uniform(0.1, 30.0, 1000)
        for tf in (TF0, TF_UP):
            pts = x if tf.rho == 0.0 else x[np.abs(x - tf.x0) > 1e-3]
            h = 1e-6
            fd = (tf.eval(pts + h) - tf.eval(pts - h)) / (2.0 * h)
            np.testing.assert_allclose(tf.deriv(pts), fd, rtol=1e-5)

    def test_sign_pattern(self):
        # negative between the two stationary points, positive outside
        assert TF0.deriv(0.3) > 0.0
        assert TF0.deriv(1.0) < 0.0
        assert TF0.deriv(3.0) < 0.0
        assert TF0.deriv(5.0) > 0.0

    def test_singular_at_jump_point(self):
        with pytest.raises(SingularPointError):
            TF_UP.deriv(10.0)
        # continuous case has an ordinary derivative there
        assert np.isfinite(TF0.deriv(10.0))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            TF0.deriv(0.0)
        with pytest.raises(ValueError):
            TF0.deriv(-2.0)

    def test_deep_underflow_is_zero_not_nan(self):
        with np.errstate(over="raise", invalid="raise"):
            assert TF0.deriv(1e-8) == 0.0


class TestJumps:
    def test_jump_size(self):
        np.testing.assert_allclose(TF_UP.jump_size(), 0.13527817111363225, rtol=1e-12)
        np.testing.assert_allclose(TF_DOWN.jump_size(), -0.13527817111363225, rtol=1e-12)
        assert TF0.jump_size() == 0.0

    def test_jumps_listing(self):
        assert TF0.jumps == ()
        (pt,) = TF_UP.jumps
        assert pt[0] == 10.0
        np.testing.assert_allclose(pt[1], TF_UP.jump_size(), rtol=1e-15)


class TestPiecewiseFunction:
    def _tent(self):
        segs = (
            Segment(0.0, 1.0, lambda x: x, lambda x: 1.0),
            Segment(1.0, 2.0, lambda x: 2.5 - x, lambda x: -1.0),
        )
        return PiecewiseFunction(segments=segs, jumps=((1.0, 0.5),))

    def test_eval_left_continuous(self):
        f = self._tent()
        assert f.eval(1.0) == 1.0
        assert f.eval(1.5) == 1.0
        assert f.eval(0.25) == 0.25

    def test_deriv_and_singularity(self):
        f = self._tent()
        assert f.deriv(0.5) == 1.0
        assert f.deriv(1.5) == -1.0
        with pytest.raises(SingularPointError):
            f.deriv(1.0)

    def test_domain(self):
        f = self._tent()
        with pytest.raises(ValueError):
            f.eval(-0.1)
        with pytest.raises(ValueError):
            f.eval(2.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseFunction(
                segments=(
                    Segment(0.0, 1.0, lambda x: x, lambda x: 1.0),
                    Segment(1.5, 2.0, lambda x: x, lambda x: 1.0),
                ),
            )
        with pytest.raises(ValueError):
            PiecewiseFunction(
                segments=(Segment(0.0, 2.0, lambda x: x, lambda x: 1.0),),
                jumps=((2.0, 0.5),),  # jump must be strictly interior
            )

    def test_arrays_match_pointwise_calls(self):
        # the tent's derivative callables return scalar constants, which
        # must broadcast over the segment's points
        f = self._tent()
        x = np.array([0.25, 1.5, 1.0, 0.5, 2.0, 1.75])
        np.testing.assert_array_equal(f.eval(x), [f.eval(float(v)) for v in x])
        off_jump = x[x != 1.0]
        np.testing.assert_array_equal(f.deriv(off_jump), [f.deriv(float(v)) for v in off_jump])
        pw = TF_UP.as_piecewise()
        xs = np.linspace(0.5, 29.5, 97)
        np.testing.assert_array_equal(pw.eval(xs), [pw.eval(float(v)) for v in xs])
        np.testing.assert_array_equal(pw.deriv(xs), [pw.deriv(float(v)) for v in xs])

    def test_array_errors(self):
        f = self._tent()
        with pytest.raises(SingularPointError):
            f.deriv(np.array([0.5, 1.0, 1.5]))
        with pytest.raises(ValueError):
            f.eval(np.array([0.5, 2.5]))
        with pytest.raises(ValueError):
            f.deriv(np.array([0.0, 0.5]))

    def test_transfer_round_trip(self):
        pw = TF_UP.as_piecewise()
        xs = np.linspace(0.5, 29.5, 97)
        for x in xs:
            np.testing.assert_allclose(pw.eval(float(x)), TF_UP.eval(float(x)), rtol=1e-14)
            if abs(x - 10.0) > 1e-9:
                np.testing.assert_allclose(pw.deriv(float(x)), TF_UP.deriv(float(x)), rtol=1e-14)
        assert pw.jumps == TF_UP.jumps
        with pytest.raises(SingularPointError):
            pw.deriv(10.0)


class TestHFunction:
    def _hf(self, alpha, window, tf=TF0):
        dist = WindowedDistribution(LomaxParams(alpha, 1.0), window)
        return HFunction(tf=tf, dist=dist)

    def test_matches_x_domain_ratio(self):
        """H(F_T(x)) = h'(x) / f_T(x) pointwise on the window interior."""
        dist = WindowedDistribution(LomaxParams(1.5, 1.0), Window(8.0, 12.0))
        hf = HFunction(tf=TF0, dist=dist)
        x = np.linspace(8.2, 11.8, 50)
        want = TF0.deriv(x) / dist.pdf(x)
        got = np.array([hf(dist.cdf(float(xi))) for xi in x])
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_right_endpoint_closed_form(self):
        """H(1) on (0, 20] equals h'(20) * (F(20) - F(0)) / f(20), all of
        which have elementary closed forms for the Lomax input."""
        hp20 = 1641.0 / 160000.0 * np.exp(1.95)

        def expected(alpha):
            return hp20 * (1.0 - 21.0 ** -alpha) / (alpha * 21.0 ** -(alpha + 1.0))

        np.testing.assert_allclose(
            self._hf(1.5, Window(0.0, 20.0))(1.0), expected(1.5), rtol=1e-12
        )
        np.testing.assert_allclose(
            self._hf(1.5, Window(0.0, 20.0), TF_UP)(1.0), 1.5 * expected(1.5), rtol=1e-12
        )
        # the alpha = 5 tail is much thinner, so the rounding of F(20) into
        # a float costs a few more digits through (1 - u)^(1 + 1/alpha)
        np.testing.assert_allclose(
            self._hf(5.0, Window(0.0, 20.0))(1.0), expected(5.0), rtol=1e-8
        )

    def test_sign_tracks_derivative(self):
        hf = self._hf(1.5, Window(0.0, 2.0))
        dist = hf.dist
        assert hf(dist.cdf(0.3)) > 0.0
        assert hf(dist.cdf(1.5)) < 0.0

    def test_domain(self):
        hf = self._hf(1.5, Window(0.0, 2.0))
        with pytest.raises(ValueError):
            hf(0.0)
        with pytest.raises(ValueError):
            hf(1.0 + 1e-12)

    def test_singular_preimages(self):
        dist = WindowedDistribution(LomaxParams(1.5, 1.0), Window(8.0, 12.0))
        hf = HFunction(tf=TF_UP, dist=dist)
        (tau,) = hf.singular_points
        np.testing.assert_allclose(tau, dist.cdf(10.0), rtol=1e-15)
        assert HFunction(tf=TF0, dist=dist).singular_points == ()

    def test_singularity_raises_when_quantile_lands_on_jump(self):
        # quantile(1) maps exactly onto the window edge, here placed at x0
        dist = WindowedDistribution(LomaxParams(1.5, 1.0), Window(8.0, 10.0))
        hf = HFunction(tf=TF_UP, dist=dist)
        with pytest.raises(SingularPointError):
            hf(1.0)
