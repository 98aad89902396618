"""Adaptive quadrature, sign-change location, and signed variation."""

import math

import numpy as np
import pytest

from monotone_index import (
    NonConvergenceError,
    QuadratureConfig,
    SignPartition,
    TransferFunction,
    find_sign_changes,
    integrate,
    sign_partition,
    signed_variation,
)

TF0 = TransferFunction()


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

    def test_scalar_only_integrand_falls_back(self):
        # math.exp rejects arrays, forcing the per-node loop
        got = integrate(lambda x: math.exp(float(x)), 0.0, 1.0)
        np.testing.assert_allclose(got, np.e - 1.0, rtol=1e-12)

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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=-1e-9)
        with pytest.raises(ValueError):
            QuadratureConfig(max_depth=5)


class TestFindSignChanges:
    def test_single_linear_root(self):
        (root,) = find_sign_changes(lambda x: x - 1.0, 0.0, 2.0, grid_n=100)
        np.testing.assert_allclose(root, 1.0, atol=1e-9)

    def test_no_roots(self):
        assert find_sign_changes(lambda x: x * x + 1.0, 0.0, 2.0, grid_n=100) == []

    def test_sine_roots(self):
        roots = find_sign_changes(np.sin, 0.5, 10.0, grid_n=1000)
        np.testing.assert_allclose(roots, [np.pi, 2.0 * np.pi, 3.0 * np.pi], atol=1e-9)

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
        part = sign_partition(TF0.deriv, 0.01, 2.0)
        assert part.breakpoints[0] == 0.01
        assert part.breakpoints[-1] == 2.0
        np.testing.assert_allclose(part.breakpoints[1], 0.5282995238161798, atol=1e-9)
        assert part.signs == (1, -1)

    def test_declared_breaks_enter_partition(self):
        tf = TransferFunction(rho=-0.5)
        part = sign_partition(tf.deriv, 8.0, 12.0, interior_breaks=(10.0,))
        assert 10.0 in part.breakpoints
        assert part.signs == (1, 1)

    def test_segments_iteration(self):
        part = SignPartition((0.0, 1.0, 2.0), (1, -1))
        assert list(part.segments()) == [(0.0, 1.0, 1), (1.0, 2.0, -1)]

    def test_interior_break_validation(self):
        with pytest.raises(ValueError):
            sign_partition(np.sin, 0.0, 1.0, interior_breaks=(2.0,))

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            SignPartition((0.0,), ())
        with pytest.raises(ValueError):
            SignPartition((0.0, 0.0), (1,))
        with pytest.raises(ValueError):
            SignPartition((0.0, 1.0), (1, -1))
        with pytest.raises(ValueError):
            SignPartition((0.0, 1.0), (2,))


class TestSignedVariation:
    def test_positive_function(self):
        part = sign_partition(np.exp, 0.0, 1.0, grid_n=1000)
        pos, total = signed_variation(np.exp, part)
        np.testing.assert_allclose(pos, total, rtol=1e-15)
        np.testing.assert_allclose(total, np.e - 1.0, rtol=1e-10)

    def test_hump_shape_against_fundamental_theorem(self):
        """On (0.01, 2] h rises to its local max then falls, so the
        increasing part is h(r1) - h(0.01) and the rest is given by the
        evaluation of h alone, no quadrature involved."""
        part = sign_partition(TF0.deriv, 0.01, 2.0)
        pos, total = signed_variation(TF0.deriv, part)
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
        part = sign_partition(tf.deriv, 8.0, 12.0, interior_breaks=(10.0,))
        pos, total = signed_variation(tf.deriv, part)
        want = (TF0.eval(10.0) - TF0.eval(8.0)) + 0.5 * (TF0.eval(12.0) - TF0.eval(10.0))
        np.testing.assert_allclose(pos, want, rtol=1e-10)
        np.testing.assert_allclose(total, want, rtol=1e-10)
