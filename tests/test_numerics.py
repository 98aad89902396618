"""Adaptive quadrature, sign partitioning, and signed variation."""

import numpy as np
import pytest

from monotone_index import NonConvergenceError, TransferFunction
from monotone_index.numerics import (
    MAX_PANELS,
    integrate,
    sign_partition,
    signed_variation,
)

TF0 = TransferFunction()


def counted(f):
    """f plus the list of the number of points of each call made to it."""
    sizes = []

    def wrapped(x):
        sizes.append(np.size(x))
        return f(x)

    return wrapped, sizes


def recorded(f):
    """f plus the list of the point arrays of each call made to it."""
    calls = []

    def wrapped(x):
        calls.append(np.array(x))
        return f(x)

    return wrapped, calls


class TestIntegrate:
    def test_polynomials_near_exact(self):
        np.testing.assert_allclose(integrate(lambda x: x, (0.0, 1.0))[0], 0.5, rtol=1e-14)
        np.testing.assert_allclose(
            integrate(lambda x: x ** 20, (0.0, 1.0))[0], 1.0 / 21.0, rtol=1e-13
        )

    def test_classic_values(self):
        np.testing.assert_allclose(
            integrate(lambda x: 4.0 / (1.0 + x * x), (0.0, 1.0))[0], np.pi, rtol=1e-12
        )
        np.testing.assert_allclose(
            integrate(np.exp, (0.0, 1.0))[0], np.e - 1.0, rtol=1e-12
        )

    def test_relative_tolerance_scales(self):
        got = integrate(lambda x: 1e8 * np.sin(x), (0.0, np.pi))[0]
        np.testing.assert_allclose(got, 2e8, rtol=1e-9)
        # sqrt needs refinement at 0, at a scale of 1e-30 as at 1
        got = integrate(lambda x: 1e-30 * np.sqrt(x), (0.0, 1.0))[0]
        np.testing.assert_allclose(got, 2e-30 / 3.0, rtol=1e-9)

    def test_fundamental_theorem_on_transfer_derivative(self):
        """Integral of h' over [8, 12] recovers h(12) - h(8)."""
        got = integrate(TF0.deriv, (8.0, 12.0))[0]
        np.testing.assert_allclose(got, TF0.eval(12.0) - TF0.eval(8.0), rtol=1e-10)

    def test_matches_composite_simpson(self):
        xs = np.linspace(0.1, 30.0, 20001)
        fx = TF0.deriv(xs)
        h = xs[1] - xs[0]
        simpson = h / 3.0 * (fx[0] + fx[-1] + 4.0 * fx[1:-1:2].sum() + 2.0 * fx[2:-1:2].sum())
        np.testing.assert_allclose(integrate(TF0.deriv, (0.1, 30.0))[0], simpson, rtol=1e-9)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            integrate(np.exp, (1.0, 1.0))[0]
        with pytest.raises(ValueError):
            integrate(np.exp, (2.0, 1.0))[0]
        with pytest.raises(ValueError):
            integrate(np.exp, (0.0, np.inf))[0]
        for breaks in ((0.0,), (0.0, 2.0, 1.0), (0.0, 1.0, 1.0), (0.0, np.nan)):
            with pytest.raises(ValueError, match="breakpoints"):
                integrate(np.exp, breaks)

    def test_endpoint_blowup_raises_nonconvergence(self):
        # integrable but with unbounded variation near 0: panel error
        # cannot fall under tolerance within the depth budget
        with pytest.raises(NonConvergenceError):
            integrate(lambda x: np.abs(x) ** -0.99, (0.0, 1.0))[0]

    def test_nonfinite_integrand_raises_at_once(self):
        # inf on the last tenth of [0, 1], as H is where h' overflows;
        # refinement could never converge there, so the first call raises
        f, sizes = counted(lambda x: np.where(x > 0.9, np.inf, x))
        with pytest.raises(ValueError, match="finite"):
            integrate(f, (0.0, 1.0))[0]
        assert len(sizes) == 1

    def test_constant_integrand_broadcasts(self):
        np.testing.assert_allclose(integrate(lambda x: 2.0, (0.0, 3.0))[0], 6.0, rtol=1e-13)

    def test_fast_oscillation_within_the_work_cap(self):
        # ~63 400 panel evaluations, under the 100 000 cap
        got = integrate(lambda x: np.sin(1e5 * x), (0.0, 1.0))[0]
        np.testing.assert_allclose(got, (1.0 - np.cos(1e5)) / 1e5, rtol=1e-9)

    def test_work_cap_raises_nonconvergence(self):
        # would take ~515 400 panel evaluations to converge
        with pytest.raises(NonConvergenceError, match="panel evaluations"):
            integrate(lambda x: np.sin(1e6 * x), (0.0, 1.0))[0]

    def test_one_integrand_call_per_refinement_round(self):
        # ~63 400 panels, evaluated a round at a time in 16 calls
        f, sizes = counted(lambda x: np.sin(1e5 * x))
        got = integrate(f, (0.0, 1.0))[0]
        np.testing.assert_allclose(got, (1.0 - np.cos(1e5)) / 1e5, rtol=1e-9)
        assert len(sizes) <= 64

    def test_returns_one_integral_per_piece(self):
        # the last piece holds no float strictly inside, so it gives 0
        breaks = (0.0, np.pi, 2.0 * np.pi, np.nextafter(2.0 * np.pi, 7.0))
        np.testing.assert_allclose(integrate(np.sin, breaks), [2.0, -2.0, 0.0], rtol=1e-12)

    def test_zero_integrand_returns_at_once(self):
        f, sizes = counted(lambda x: np.zeros_like(x))
        np.testing.assert_array_equal(integrate(f, (0.0, 1.0, 2.0)), [0.0, 0.0])
        assert sizes == [30]

    def test_work_cap_counts_every_panel(self):
        f, sizes = counted(lambda x: np.sin(1e6 * x))
        with pytest.raises(NonConvergenceError, match="panel evaluations"):
            integrate(f, (0.0, 1.0))[0]
        assert sum(sizes) % 15 == 0
        assert sum(sizes) // 15 <= MAX_PANELS + 1
        assert len(sizes) <= 64


class TestFindSignChanges:
    def test_single_linear_root(self):
        (root,) = sign_partition(lambda x: x - 1.0, (0.0, 2.0))[1:-1]
        np.testing.assert_allclose(root, 1.0, atol=1e-9)

    def test_no_roots(self):
        assert sign_partition(lambda x: x * x + 1.0, (0.0, 2.0))[1:-1] == ()

    def test_sine_roots(self):
        roots = sign_partition(np.sin, (0.5, 10.0))[1:-1]
        np.testing.assert_allclose(roots, [np.pi, 2.0 * np.pi, 3.0 * np.pi], atol=1e-9)

    def test_all_brackets_refined_together(self):
        f, sizes = counted(np.sin)
        roots = sign_partition(f, (0.5, 100.0))[1:-1]
        np.testing.assert_allclose(roots, np.pi * np.arange(1, 32), atol=1e-9)
        # the scan, then one call per round of sixteenths until 1e-12
        assert len(sizes) <= 12

    def test_root_where_floats_are_coarser_than_the_width(self):
        # above 8192 neighbouring doubles lie more than 1e-12 apart, and
        # this f has no exact zero, so refinement must stop at one ulp
        def f(x):
            if len(sizes) > 100:
                raise RuntimeError("refinement does not stop")
            return (x - 10000.3) + 9e-13

        f, sizes = counted(f)
        (root,) = sign_partition(f, (1e4, 1e4 + 1.0))[1:-1]
        np.testing.assert_allclose(root, 10000.3, atol=4e-12)

    def test_transfer_derivative_roots(self):
        """The two stationary points of h, frozen from a bisection oracle."""
        roots = sign_partition(TF0.deriv, (0.01, 20.0))[1:-1]
        np.testing.assert_allclose(
            roots, [0.5282995238161798, 4.455467250491141], atol=1e-9
        )
        for r in roots:
            assert abs(TF0.deriv(r)) < 1e-8

    def test_domain_error_is_not_retried_pointwise(self):
        # undefined on the last tenth of the panel, as h' is on a switch
        # point at the window edge; a scalar retry would call it ~900 times
        calls = []

        def partly_undefined(x):
            calls.append(x)
            if np.any(np.asarray(x) > 0.9):
                raise ValueError("outside the domain")
            return np.asarray(x) - 0.5

        with pytest.raises(ValueError):
            sign_partition(partly_undefined, (0.0, 1.0))
        assert len(calls) == 1


class TestSignPartition:
    def test_partition_around_roots(self):
        breaks = sign_partition(TF0.deriv, (0.01, 2.0))
        assert len(breaks) == 3
        assert breaks[0] == 0.01
        assert breaks[-1] == 2.0
        np.testing.assert_allclose(breaks[1], 0.5282995238161798, atol=1e-9)

    def test_declared_breaks_enter_partition(self):
        # h' keeps its sign on (8, 12], so the jump is the only break
        tf = TransferFunction(rho=-0.5)
        assert sign_partition(tf.deriv, (8.0, 10.0, 12.0)) == (8.0, 10.0, 12.0)

    def test_interior_break_validation(self):
        bad = ((0.0, 2.0, 1.0), (0.0, 1.0, 1.0), (1.0, 0.0), (0.0,), (),
               (0.0, np.inf), (np.nan, 1.0), ((0.0, 1.0), (2.0, 3.0)))
        for breaks in bad:
            with pytest.raises(ValueError, match="breakpoints"):
                sign_partition(np.sin, breaks)

    def test_one_scan_call_holds_every_piece(self):
        breaks = (0.5, 4.0, 9.0, 20.0)
        f, calls = recorded(np.sin)
        got = sign_partition(f, breaks)
        np.testing.assert_allclose(
            [x for x in got if x not in breaks], np.pi * np.arange(1, 7), atol=1e-9
        )
        assert set(breaks) <= set(got)
        # the first call is the scan: at least 1000 points strictly inside
        # each piece, none on a breakpoint; the rest are refinement rounds
        scan = calls[0]
        for lo, hi in zip(breaks, breaks[1:]):
            assert ((scan > lo) & (scan < hi)).sum() >= 1000
        assert not np.isin(scan, breaks).any()
        assert all(c.size == 15 * 6 for c in calls[1:])
        assert len(calls) <= 12

    def test_pieces_without_floats_call_f_zero_times(self):
        a = 16.0
        breaks = (a, np.nextafter(a, 17.0), np.nextafter(np.nextafter(a, 17.0), 17.0))
        f, sizes = counted(np.sin)
        assert sign_partition(f, breaks) == breaks
        assert sizes == []


class TestSignedVariation:
    def test_one_run_for_all_pieces(self):
        f, sizes = counted(np.sin)
        pos, total = signed_variation(f, (0.0, np.pi, 2.0 * np.pi, 3.0 * np.pi))
        assert sizes[0] == 45
        np.testing.assert_allclose((pos, total), (4.0, 6.0), rtol=1e-12)

    def test_positive_function(self):
        breaks = sign_partition(np.exp, (0.0, 1.0))
        pos, total = signed_variation(np.exp, breaks)
        np.testing.assert_allclose(pos, total, rtol=1e-15)
        np.testing.assert_allclose(total, np.e - 1.0, rtol=1e-10)

    def test_hump_shape_against_fundamental_theorem(self):
        """On (0.01, 2] h rises to its local max then falls, so the
        increasing part is h(r1) - h(0.01) and the rest is given by the
        evaluation of h alone, no quadrature involved."""
        breaks = sign_partition(TF0.deriv, (0.01, 2.0))
        pos, total = signed_variation(TF0.deriv, breaks)
        r1 = 0.5282995238161798
        up = TF0.eval(r1) - TF0.eval(0.01)
        down = TF0.eval(r1) - TF0.eval(2.0)
        np.testing.assert_allclose(pos, up, rtol=1e-9)
        np.testing.assert_allclose(total, up + down, rtol=1e-9)
        # net change identity: pos - neg telescopes to h(2) - h(0.01)
        np.testing.assert_allclose(
            pos - (total - pos), TF0.eval(2.0) - TF0.eval(0.01), rtol=1e-9
        )

    def test_scaled_segments_with_declared_break(self):
        tf = TransferFunction(rho=-0.5)
        breaks = sign_partition(tf.deriv, (8.0, 10.0, 12.0))
        pos, total = signed_variation(tf.deriv, breaks)
        want = (TF0.eval(10.0) - TF0.eval(8.0)) + 0.5 * (TF0.eval(12.0) - TF0.eval(10.0))
        np.testing.assert_allclose(pos, want, rtol=1e-10)
        np.testing.assert_allclose(total, want, rtol=1e-10)


class TestPanelsFewUlpsWide:
    # a jump at either end leaves f undefined there, however close
    @staticmethod
    def _open_only(a, b):
        def f(x):
            assert ((x > a) & (x < b)).all()
            return np.ones_like(x)
        return f

    @pytest.mark.parametrize("ulps", [1, 2, 3, 300])
    def test_scan_never_evaluates_the_ends(self, ulps):
        a = 16.0
        b = a + ulps * np.spacing(a)
        assert sign_partition(self._open_only(a, b), (a, b)) == (a, b)

    # no float lies strictly inside a panel one ulp wide; below 234 ulps
    # the outermost GK15 nodes would round onto an end
    @pytest.mark.parametrize("ulps", [1, 2, 3, 233, 234, 300])
    def test_quadrature_keeps_off_the_ends(self, ulps):
        a = 16.0
        b = a + ulps * np.spacing(a)
        got = integrate(self._open_only(a, b), (a, b))[0]
        assert got == pytest.approx(0.0 if ulps == 1 else b - a)

    # a step at the middle float: the first call puts a node on it, and
    # from then on it is a panel end that no node of either half may reach
    @pytest.mark.parametrize("ulps", [40, 300, 5000])
    def test_refined_panels_keep_off_their_ends(self, ulps):
        a = 16.0
        b = a + ulps * np.spacing(a)
        m = 0.5 * (a + b)
        calls = []

        def step(x):
            assert ((x > a) & (x < b)).all()
            assert not calls or not (x == m).any()
            calls.append(x.size)
            return np.where(x < m, 0.0, 1.0)

        np.testing.assert_allclose(integrate(step, (a, b))[0], b - m, rtol=1e-9)

    def test_panels_too_narrow_to_halve_keep_their_integral(self):
        # e-fold every 300 float steps below 1: refinement reaches panels a
        # few floats wide, whose halves would hold no float inside
        u = np.spacing(0.5)
        a = 1.0 - 5000 * u
        got = integrate(lambda x: np.exp((x - a) / (300 * u)), (a, 1.0))[0]
        np.testing.assert_allclose(got, 300 * u * np.expm1(5000 / 300), rtol=1e-5)
