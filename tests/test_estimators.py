"""Empirical index, concomitant ordering, noise injection, bn scaling."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from monotone_index import (
    DegenerateSampleError,
    EstimateResult,
    LomaxParams,
    SamplePairs,
    TransferFunction,
    Window,
    WindowedDistribution,
    empirical_index,
    index_from_ordered_outputs,
    noisy_outputs,
)


class TestOrderedOutputs:
    def test_monotone_sequences(self):
        assert index_from_ordered_outputs([0.0, 1.0, 2.0, 3.0]) == 1.0
        assert index_from_ordered_outputs([3.0, 2.0, 1.0, 0.0]) == 0.0

    def test_mixed_sequence_exact_rational(self):
        # diffs +2, -1: positive part 2 of total 3
        np.testing.assert_allclose(
            index_from_ordered_outputs([0.0, 2.0, 1.0]), 2.0 / 3.0, rtol=1e-15
        )

    def test_flat_steps_do_not_count(self):
        # diffs +1, 0, +1: zeros contribute to neither sum
        assert index_from_ordered_outputs([0.0, 1.0, 1.0, 2.0]) == 1.0

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            index_from_ordered_outputs([5.0, 5.0, 5.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            index_from_ordered_outputs([1.0])
        with pytest.raises(ValueError):
            index_from_ordered_outputs([[1.0, 2.0]])
        with pytest.raises(ValueError):
            index_from_ordered_outputs([1.0, np.nan])


class TestSamplePairs:
    def test_coercion(self):
        s = SamplePairs([1, 2, 3], [4, 5, 6])
        assert s.x.dtype == float
        assert s.n == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplePairs([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            SamplePairs([1.0], [1.0])
        with pytest.raises(ValueError):
            SamplePairs([1.0, np.inf], [1.0, 2.0])


class TestEmpiricalIndex:
    def test_worked_example(self):
        # inputs 1, 2, 3 with outputs 0, 2, 1: diffs +2 then -1
        r = empirical_index(SamplePairs([1.0, 2.0, 3.0], [0.0, 2.0, 1.0]))
        np.testing.assert_allclose(r.index, 2.0 / 3.0, rtol=1e-15)
        assert r.numerator == 2.0
        assert r.denominator == 3.0
        np.testing.assert_allclose(r.bn, 3.0 / np.sqrt(3.0), rtol=1e-15)
        assert r.n == 3
        assert not r.duplicate_x

    def test_input_order_is_irrelevant(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(0.0, 2.0, 500)
        y = rng.normal(size=500)
        base = empirical_index(SamplePairs(x, y))
        perm = rng.permutation(500)
        shuffled = empirical_index(SamplePairs(x[perm], y[perm]))
        assert shuffled.index == base.index
        assert shuffled.denominator == base.denominator

    def test_agrees_with_ordered_form_on_sorted_inputs(self):
        rng = np.random.default_rng(42)
        x = np.sort(rng.uniform(0.0, 1.0, 200))
        y = rng.normal(size=200)
        assert empirical_index(SamplePairs(x, y)).index == index_from_ordered_outputs(y)

    def test_monotone_input_transform_is_identity(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(0.0, 2.0, 300)
        y = rng.normal(size=300)
        a = empirical_index(SamplePairs(x, y))
        b = empirical_index(SamplePairs(np.exp(x), y))
        assert a == b

    def test_affine_output_equivariance(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(0.0, 2.0, 300)
        y = rng.normal(size=300)
        base = empirical_index(SamplePairs(x, y)).index
        up = empirical_index(SamplePairs(x, 2.7 * y + 11.0)).index
        down = empirical_index(SamplePairs(x, -0.3 * y + 4.0)).index
        np.testing.assert_allclose(up, base, rtol=1e-12)
        np.testing.assert_allclose(down, 1.0 - base, rtol=1e-12)

    def test_nondecreasing_outputs_give_one(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(0.0, 2.0, 100)
        y = np.sort(rng.normal(size=100))[np.argsort(np.argsort(x))]
        assert empirical_index(SamplePairs(x, y)).index == 1.0

    def test_stable_tie_order(self):
        # tied inputs keep file order: outputs 5, 3, 4 -> diffs -2, +1
        r = empirical_index(SamplePairs([1.0, 1.0, 2.0], [5.0, 3.0, 4.0]))
        np.testing.assert_allclose(r.index, 1.0 / 3.0, rtol=1e-15)
        assert r.duplicate_x

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            empirical_index(SamplePairs([1.0, 2.0, 3.0], [7.0, 7.0, 7.0]))

    # the differences add up to the endpoint gap, so the positive sum is
    # half of the total plus that gap; x holds ties, from a few values
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 60).flatmap(lambda n: st.tuples(
        arrays(float, n, elements=st.sampled_from([0.0, 1.0, 2.5, 3.0]) | st.floats(-1e6, 1e6)),
        arrays(float, n, elements=st.floats(-1e6, 1e6)),
    )))
    def test_index_from_the_endpoint_gap(self, xy):
        x, y = xy
        assume(np.ptp(y) > 0.0)
        got = empirical_index(SamplePairs(x, y))
        ys = y[np.argsort(x, kind="stable")]
        want = 0.5 + (ys[-1] - ys[0]) / (2.0 * got.denominator)
        assert abs(got.index - want) <= 1e-12


class TestNoisyOutputs:
    def test_sigma_zero_copies(self):
        y = np.array([1.0, 2.0, 3.0])
        out = noisy_outputs(y, 0.0, seed=42)
        np.testing.assert_array_equal(out, y)
        assert out is not y

    def test_deterministic_per_seed(self):
        y = np.zeros(100)
        np.testing.assert_array_equal(noisy_outputs(y, 0.1, 7), noisy_outputs(y, 0.1, 7))
        assert not np.array_equal(noisy_outputs(y, 0.1, 7), noisy_outputs(y, 0.1, 8))

    def test_moments(self):
        out = noisy_outputs(np.zeros(1_000_000), 0.1, seed=42)
        assert abs(out.mean()) < 4e-4
        assert abs(out.std() - 0.1) < 1e-3

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            noisy_outputs(np.zeros(3), -0.1, seed=0)
        with pytest.raises(ValueError):
            noisy_outputs(np.zeros(3), np.nan, seed=0)


class TestVariationGrowth:
    """The sqrt-n diagnostic separating noisy from noise-free samples."""

    def _sampled_bn(self, n, sigma, seed):
        dist = WindowedDistribution(LomaxParams(1.5, 1.0), Window(0.0, 2.0))
        tf = TransferFunction()
        x = dist.sample(seed, n)
        y = tf.eval(x)
        if sigma > 0.0:
            y = noisy_outputs(y, sigma, seed + 1)
        return empirical_index(SamplePairs(x, y)).bn

    def test_noisy_bn_grows_like_sqrt_n(self):
        for n in (1000, 4000, 16000):
            ratio = self._sampled_bn(4 * n, 0.1, seed=42) / self._sampled_bn(n, 0.1, seed=43)
            assert 1.8 < ratio < 2.2

    def test_noise_free_bn_shrinks(self):
        assert self._sampled_bn(100_000, 0.0, 5) < 2.0 * self._sampled_bn(1000, 0.0, 5)
