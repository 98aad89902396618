"""Adaptive quadrature, sign-change location, and signed variation."""

import numpy as np
import pytest

from monotone_index import NonConvergenceError, TransferFunction
from monotone_index.numerics import (
    MAX_PANELS,
    find_sign_changes,
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


class TestIntegrate:
    def test_polynomials_near_exact(self):
        np.testing.assert_allclose(integrate(lambda x: x, 0.0, 1.0), 0.5, rtol=1e-14)
        np.testing.assert_allclose(
            integrate(lambda x: x ** 20, 0.0, 1.0), 1.0 / 21.0, rtol=1e-13
        )

    def test_classic_values(self):
        np.testing.assert_allclose(
            integrate(lambda x: 4.0 / (1.0 + x * x), 0.0, 1.0), np.pi, rtol=1e-12
        )
        np.testing.assert_allclose(
            integrate(np.exp, 0.0, 1.0), np.e - 1.0, rtol=1e-12
        )

    def test_relative_tolerance_scales(self):
        got = integrate(lambda x: 1e8 * np.sin(x), 0.0, np.pi)
        np.testing.assert_allclose(got, 2e8, rtol=1e-9)

    def test_fundamental_theorem_on_transfer_derivative(self):
        """Integral of h' over [8, 12] recovers h(12) - h(8)."""
        got = integrate(TF0.deriv, 8.0, 12.0)
        np.testing.assert_allclose(got, TF0.eval(12.0) - TF0.eval(8.0), rtol=1e-10)

    def test_matches_composite_simpson(self):
        xs = np.linspace(0.1, 30.0, 20001)
        fx = TF0.deriv(xs)
        h = xs[1] - xs[0]
        simpson = h / 3.0 * (fx[0] + fx[-1] + 4.0 * fx[1:-1:2].sum() + 2.0 * fx[2:-1:2].sum())
        np.testing.assert_allclose(integrate(TF0.deriv, 0.1, 30.0), simpson, rtol=1e-9)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            integrate(np.exp, 1.0, 1.0)
        with pytest.raises(ValueError):
            integrate(np.exp, 2.0, 1.0)
        with pytest.raises(ValueError):
            integrate(np.exp, 0.0, np.inf)

    def test_endpoint_blowup_raises_nonconvergence(self):
        # integrable but with unbounded variation near 0: panel error
        # cannot fall under tolerance within the depth budget
        with pytest.raises(NonConvergenceError):
            integrate(lambda x: np.abs(x) ** -0.99, 0.0, 1.0)

    def test_constant_integrand_broadcasts(self):
        np.testing.assert_allclose(integrate(lambda x: 2.0, 0.0, 3.0), 6.0, rtol=1e-13)

    def test_fast_oscillation_within_the_work_cap(self):
        # ~60 000 panel evaluations, under the 100 000 cap
        got = integrate(lambda x: np.sin(1e5 * x), 0.0, 1.0)
        np.testing.assert_allclose(got, (1.0 - np.cos(1e5)) / 1e5, rtol=1e-9)

    def test_work_cap_raises_nonconvergence(self):
        # would take ~515 000 panel evaluations to converge
        with pytest.raises(NonConvergenceError, match="panel evaluations"):
            integrate(lambda x: np.sin(1e6 * x), 0.0, 1.0)

    def test_one_integrand_call_per_refinement_round(self):
        # ~60 000 panels, evaluated a round at a time
        f, sizes = counted(lambda x: np.sin(1e5 * x))
        got = integrate(f, 0.0, 1.0)
        np.testing.assert_allclose(got, (1.0 - np.cos(1e5)) / 1e5, rtol=1e-9)
        assert len(sizes) <= 64

    def test_work_cap_counts_every_panel(self):
        f, sizes = counted(lambda x: np.sin(1e6 * x))
        with pytest.raises(NonConvergenceError, match="panel evaluations"):
            integrate(f, 0.0, 1.0)
        assert sum(sizes) % 15 == 0
        assert sum(sizes) // 15 <= MAX_PANELS + 1
        assert len(sizes) <= 64


class TestFindSignChanges:
    def test_single_linear_root(self):
        (root,) = find_sign_changes(lambda x: x - 1.0, 0.0, 2.0, grid_n=100)
        np.testing.assert_allclose(root, 1.0, atol=1e-9)

    def test_no_roots(self):
        assert find_sign_changes(lambda x: x * x + 1.0, 0.0, 2.0, grid_n=100) == []

    def test_sine_roots(self):
        roots = find_sign_changes(np.sin, 0.5, 10.0, grid_n=1000)
        np.testing.assert_allclose(roots, [np.pi, 2.0 * np.pi, 3.0 * np.pi], atol=1e-9)

    def test_all_brackets_refined_together(self):
        f, sizes = counted(np.sin)
        roots = find_sign_changes(f, 0.5, 100.0, grid_n=1000)
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
        (root,) = find_sign_changes(f, 1e4, 1e4 + 1.0, grid_n=100)
        np.testing.assert_allclose(root, 10000.3, atol=4e-12)

    def test_transfer_derivative_roots(self):
        """The two stationary points of h, frozen from a bisection oracle."""
        roots = find_sign_changes(TF0.deriv, 0.01, 20.0)
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
            find_sign_changes(partly_undefined, 0.0, 1.0, 1000)
        assert len(calls) == 1

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            find_sign_changes(np.sin, 0.0, 1.0, grid_n=50)


class TestSignPartition:
    def test_partition_around_roots(self):
        breaks = sign_partition(TF0.deriv, 0.01, 2.0)
        assert len(breaks) == 3
        assert breaks[0] == 0.01
        assert breaks[-1] == 2.0
        np.testing.assert_allclose(breaks[1], 0.5282995238161798, atol=1e-9)

    def test_declared_breaks_enter_partition(self):
        # h' keeps its sign on (8, 12], so the jump is the only break
        tf = TransferFunction(rho=-0.5)
        assert sign_partition(tf.deriv, 8.0, 12.0, interior_breaks=(10.0,)) == (8.0, 10.0, 12.0)

    def test_interior_break_validation(self):
        with pytest.raises(ValueError):
            sign_partition(np.sin, 0.0, 1.0, interior_breaks=(2.0,))


class TestSignedVariation:
    def test_positive_function(self):
        breaks = sign_partition(np.exp, 0.0, 1.0)
        pos, total = signed_variation(np.exp, breaks)
        np.testing.assert_allclose(pos, total, rtol=1e-15)
        np.testing.assert_allclose(total, np.e - 1.0, rtol=1e-10)

    def test_hump_shape_against_fundamental_theorem(self):
        """On (0.01, 2] h rises to its local max then falls, so the
        increasing part is h(r1) - h(0.01) and the rest is given by the
        evaluation of h alone, no quadrature involved."""
        breaks = sign_partition(TF0.deriv, 0.01, 2.0)
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
        breaks = sign_partition(tf.deriv, 8.0, 12.0, interior_breaks=(10.0,))
        pos, total = signed_variation(tf.deriv, breaks)
        want = (TF0.eval(10.0) - TF0.eval(8.0)) + 0.5 * (TF0.eval(12.0) - TF0.eval(10.0))
        np.testing.assert_allclose(pos, want, rtol=1e-10)
        np.testing.assert_allclose(total, want, rtol=1e-10)
