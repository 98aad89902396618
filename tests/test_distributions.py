"""Closed-form Lomax quantities, window conditioning, and sampling."""

import numpy as np
import pytest

from monotone_index import (
    LomaxParams,
    Window,
    WindowedDistribution,
    lomax_cdf,
    lomax_density_quantile,
    lomax_pdf,
    lomax_quantile,
)

A15 = LomaxParams(1.5, 1.0)
A5 = LomaxParams(5.0, 1.0)


class TestLomaxClosedForms:
    """Spot values frozen from exact rational or high-precision arithmetic."""

    def test_cdf_spot_values(self):
        assert lomax_cdf(A15, 0.0) == 0.0
        np.testing.assert_allclose(lomax_cdf(A15, 20.0), 1.0 - 21.0 ** -1.5, rtol=1e-14)
        np.testing.assert_allclose(lomax_cdf(A5, 1.0), 0.96875, rtol=1e-14)

    def test_pdf_spot_values(self):
        assert lomax_pdf(A15, 0.0) == 1.5
        np.testing.assert_allclose(lomax_pdf(A5, 1.0), 5.0 / 64.0, rtol=1e-14)
        np.testing.assert_allclose(lomax_pdf(A15, 20.0), 1.5 / 21.0 ** 2.5, rtol=1e-13)

    def test_quantile_spot_values(self):
        assert lomax_quantile(A15, 0.0) == 0.0
        np.testing.assert_allclose(lomax_quantile(A5, 0.96875), 1.0, rtol=1e-13)
        np.testing.assert_allclose(
            lomax_quantile(A15, 0.5), 2.0 ** (2.0 / 3.0) - 1.0, rtol=1e-14
        )

    def test_density_quantile_spot_values(self):
        assert lomax_density_quantile(A15, 0.0) == 1.5
        np.testing.assert_allclose(lomax_density_quantile(A5, 0.96875), 0.078125, rtol=1e-13)
        # tail density vanishes as u -> 1
        assert lomax_density_quantile(A15, 1.0 - 1e-12) < 1e-15

    def test_cdf_quantile_round_trip(self):
        """|cdf(quantile(u)) - u| below 1e-12 across the unit interval."""
        u = np.linspace(0.0, 1.0 - 1e-6, 1000)
        for p in (A15, A5):
            np.testing.assert_allclose(lomax_cdf(p, lomax_quantile(p, u)), u, atol=1e-12)

    def test_density_quantile_identity(self):
        u = np.linspace(0.0, 1.0 - 1e-6, 1000)
        for p in (A15, A5):
            np.testing.assert_allclose(
                lomax_density_quantile(p, u),
                lomax_pdf(p, lomax_quantile(p, u)),
                rtol=1e-12,
            )

    def test_cdf_where_t_over_beta_overflows(self):
        # t/beta is inf, but log t - log beta is ~1381.55: F = 1.38e-5, not 1
        got = lomax_cdf(LomaxParams(1e-8, 1e-300), 1e300)
        np.testing.assert_allclose(got, 1.3815415124237774e-05, rtol=1e-12)

    def test_cdf_nondecreasing(self):
        t = np.linspace(0.0, 50.0, 2000)
        assert (np.diff(lomax_cdf(A15, t)) >= 0.0).all()

    def test_scalar_in_float_out(self):
        assert isinstance(lomax_cdf(A15, 1.0), float)
        assert isinstance(lomax_quantile(A15, 0.3), float)
        assert lomax_cdf(A15, np.array([0.5, 1.0])).shape == (2,)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lomax_cdf(A15, -0.1)
        with pytest.raises(ValueError):
            lomax_pdf(A15, -1.0)
        with pytest.raises(ValueError):
            lomax_quantile(A15, 1.0)
        with pytest.raises(ValueError):
            lomax_quantile(A15, -0.1)
        with pytest.raises(ValueError):
            lomax_density_quantile(A15, 1.0)

    def test_parameter_validation(self):
        for alpha, beta in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (np.nan, 1.0)):
            with pytest.raises(ValueError):
                LomaxParams(alpha, beta)


class TestWindow:
    def test_validation(self):
        Window(0.0, 2.0)
        Window(8.0, 12.0)
        with pytest.raises(ValueError):
            Window(2.0, 2.0)
        with pytest.raises(ValueError):
            Window(5.0, 3.0)
        with pytest.raises(ValueError):
            Window(-1.0, 2.0)
        with pytest.raises(ValueError):
            Window(0.0, np.inf)


class TestWindowedDistribution:
    def test_cached_edge_masses(self):
        d = WindowedDistribution(A15, Window(8.0, 12.0))
        np.testing.assert_allclose(d.fa, lomax_cdf(A15, 8.0), rtol=1e-15)
        np.testing.assert_allclose(d.fb, lomax_cdf(A15, 12.0), rtol=1e-15)
        assert 0.0 <= d.fa < d.fb <= 1.0

    def test_numerically_empty_window_rejected(self):
        # far enough out that the cdf saturates to 1 in float arithmetic
        with pytest.raises(ValueError):
            WindowedDistribution(A15, Window(1e250, 2e250))

    def test_cdf_total_on_reals(self):
        d = WindowedDistribution(A15, Window(8.0, 12.0))
        assert d.cdf(-3.0) == 0.0
        assert d.cdf(8.0) == 0.0
        assert d.cdf(12.0) == 1.0
        assert d.cdf(99.0) == 1.0
        # interior value frozen from an independent composition of Eq-level cdfs
        np.testing.assert_allclose(d.cdf(10.0), 0.6130850159815296, rtol=1e-12)

    def test_cdf_nondecreasing(self):
        d = WindowedDistribution(A5, Window(0.0, 2.0))
        x = np.linspace(-1.0, 3.0, 4001)
        assert (np.diff(d.cdf(x)) >= 0.0).all()

    def test_pdf_zero_outside_and_at_open_edge(self):
        d = WindowedDistribution(A15, Window(0.0, 2.0))
        assert d.pdf(0.0) == 0.0
        assert d.pdf(-1.0) == 0.0
        assert d.pdf(3.0) == 0.0
        np.testing.assert_allclose(
            d.pdf(1.0), lomax_pdf(A15, 1.0) / lomax_cdf(A15, 2.0), rtol=1e-14
        )
        np.testing.assert_allclose(d.pdf(1.0), 0.32835746691651274, rtol=1e-12)

    def test_quantile_endpoints_and_interior(self):
        d = WindowedDistribution(A15, Window(0.0, 2.0))
        assert d.quantile(0.0) == 0.0
        assert d.quantile(1.0) == 2.0
        # frozen from a bisection oracle on the windowed cdf
        np.testing.assert_allclose(d.quantile(0.5), 0.4116483452133698, rtol=1e-10)

    def test_quantile_is_right_inverse_of_cdf(self):
        for window in (Window(0.0, 2.0), Window(8.0, 12.0), Window(0.0, 20.0)):
            for p in (A15, A5):
                d = WindowedDistribution(p, window)
                t = np.linspace(0.0, 1.0, 501)
                np.testing.assert_allclose(d.cdf(d.quantile(t)), t, atol=1e-10)

    def test_quantile_monotone(self):
        d = WindowedDistribution(A5, Window(8.0, 12.0))
        q = d.quantile(np.linspace(0.0, 1.0, 1001))
        assert (np.diff(q) >= 0.0).all()

    def test_quantile_domain(self):
        d = WindowedDistribution(A15, Window(0.0, 2.0))
        with pytest.raises(ValueError):
            d.quantile(-0.01)
        with pytest.raises(ValueError):
            d.quantile(1.01)

    def test_density_quantile_identity_on_half_open_range(self):
        # holds on (0, 1]; at t = 0 the pdf is 0 by the open-edge convention
        # while the density-quantile is not
        for p in (A15, A5):
            d = WindowedDistribution(p, Window(0.0, 2.0))
            t = np.linspace(0.001, 1.0, 500)
            np.testing.assert_allclose(
                d.density_quantile(t), d.pdf(d.quantile(t)), rtol=1e-10
            )

    def test_density_quantile_spot_values(self):
        d = WindowedDistribution(A15, Window(0.0, 20.0))
        np.testing.assert_allclose(d.density_quantile(1.0), 7.5003154577347e-4, rtol=1e-9)
        d5 = WindowedDistribution(A5, Window(0.0, 2.0))
        np.testing.assert_allclose(d5.density_quantile(0.0), 5.0 / (1.0 - 3.0 ** -5), rtol=1e-13)

    def test_density_quantile_domain(self):
        d = WindowedDistribution(A15, Window(0.0, 2.0))
        with pytest.raises(ValueError):
            d.density_quantile(-0.1)
        with pytest.raises(ValueError):
            d.density_quantile(1.1)


class TestSampling:
    def test_deterministic_per_seed(self):
        d = WindowedDistribution(A15, Window(0.0, 2.0))
        a = d.sample(42, 1000)
        b = d.sample(42, 1000)
        c = d.sample(43, 1000)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_range_contract(self):
        d = WindowedDistribution(A5, Window(8.0, 12.0))
        x = d.sample(7, 100_000)
        assert (x > 8.0).all()
        assert (x <= 12.0).all()

    def test_kolmogorov_distance(self):
        """Empirical cdf within 0.01 of the windowed cdf at n = 1e5."""
        d = WindowedDistribution(A15, Window(0.0, 2.0))
        x = np.sort(d.sample(42, 100_000))
        u = d.cdf(x)
        i = np.arange(1, x.size + 1, dtype=float)
        ks = max(
            np.abs(i / x.size - u).max(),
            np.abs((i - 1.0) / x.size - u).max(),
        )
        assert ks < 0.01

    def test_n_validation(self):
        d = WindowedDistribution(A15, Window(0.0, 2.0))
        with pytest.raises(ValueError):
            d.sample(42, 0)
