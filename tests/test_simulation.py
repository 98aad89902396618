"""Seed derivation, trajectory harness, summaries, CSV output."""

import io

import numpy as np
import pytest

from monotone_index import (
    ExperimentConfig,
    LomaxParams,
    TrajectoryPoint,
    TransferFunction,
    Window,
    default_n_grid,
    generator,
    mix_seed,
    run_experiment,
    splitmix64,
    summarize,
    write_trajectory_csv,
)
from monotone_index.simulation import TRAJECTORY_HEADER


def small_config(**overrides):
    base = dict(
        dist=LomaxParams(1.5, 1.0),
        window=Window(0.0, 2.0),
        tf=TransferFunction(),
        base_seed=42,
        n_grid=(50, 200),
        replications=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSeedDerivation:
    def test_splitmix64_reference_vector(self):
        # first output of the public-domain generator seeded with 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_avalanche(self):
        # adjacent states must disagree in roughly half their bits
        flips = bin(splitmix64(7) ^ splitmix64(8)).count("1")
        assert 16 <= flips <= 48

    def test_mix_seed_path_sensitivity(self):
        assert mix_seed(42, 1, 100) != mix_seed(42, 2, 100)
        assert mix_seed(42, 1, 100) != mix_seed(42, 1, 101)
        assert mix_seed(42, 1, 2) != mix_seed(42, 2, 1)
        assert mix_seed(42, 1, 100) == mix_seed(42, 1, 100)
        assert 0 <= mix_seed(42, 1, 100) < 2 ** 64

    def test_generator_byte_stable(self):
        np.testing.assert_array_equal(generator(42).random(8), generator(42).random(8))


class TestDefaultGrid:
    def test_layout(self):
        grid = default_n_grid()
        assert grid[0] == 100
        assert grid[-1] == 100_000
        assert len(grid) == 20
        assert all(b > a for a, b in zip(grid, grid[1:]))


class TestExperimentConfig:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            small_config(n_grid=())
        with pytest.raises(ValueError):
            small_config(n_grid=(200, 50))
        with pytest.raises(ValueError):
            small_config(n_grid=(1, 50))

    def test_other_validation(self):
        with pytest.raises(ValueError):
            small_config(replications=0)
        with pytest.raises(ValueError):
            small_config(noise_sigma=-0.1)


class TestRunExperiment:
    def test_shape_and_order(self):
        points = run_experiment(small_config())
        assert len(points) == 6
        assert [(p.n, p.replication) for p in points] == [
            (50, 0), (50, 1), (50, 2), (200, 0), (200, 1), (200, 2),
        ]
        assert all(p.status == "ok" for p in points)

    def test_cell_seeds_are_path_derived(self):
        for p in run_experiment(small_config()):
            assert p.seed == mix_seed(42, p.replication, p.n)

    def test_deterministic(self):
        assert run_experiment(small_config()) == run_experiment(small_config())

    def test_thread_count_does_not_change_results(self):
        cfg = small_config(replications=8)
        np.testing.assert_array_equal(
            [p.index for p in run_experiment(cfg, threads=1)],
            [p.index for p in run_experiment(cfg, threads=4)],
        )

    def test_noise_stream_changes_outputs_only(self):
        quiet = run_experiment(small_config())
        noisy = run_experiment(small_config(noise_sigma=0.1))
        assert [p.seed for p in quiet] == [p.seed for p in noisy]
        assert all(q.index != n.index for q, n in zip(quiet, noisy))

    def test_degenerate_cells_are_reported_not_raised(self):
        # far into the left tail h underflows to zero, so every output
        # ties and the index is undefined
        cfg = small_config(window=Window(1e-8, 2e-8), n_grid=(50,), replications=2)
        points = run_experiment(cfg)
        assert [p.status for p in points] == ["degenerate", "degenerate"]
        assert all(np.isnan(p.index) and np.isnan(p.bn) for p in points)

    def test_thread_validation(self):
        with pytest.raises(ValueError):
            run_experiment(small_config(), threads=0)


class TestSummarize:
    def test_against_interpolation_oracle(self):
        points = run_experiment(small_config(replications=7))
        rows = summarize(points)
        assert [r.n for r in rows] == [50, 200]
        for row in rows:
            vals = sorted(p.index for p in points if p.n == row.n)
            for got, q in ((row.q10, 0.1), (row.median, 0.5), (row.q90, 0.9)):
                pos = q * (len(vals) - 1)
                lo = int(pos)
                frac = pos - lo
                want = vals[lo] + frac * (vals[min(lo + 1, len(vals) - 1)] - vals[lo])
                np.testing.assert_allclose(got, want, rtol=1e-12)
            np.testing.assert_allclose(
                row.mean_bn,
                np.mean([p.bn for p in points if p.n == row.n]),
                rtol=1e-12,
            )

    def test_single_replication_collapses(self):
        rows = summarize(run_experiment(small_config(replications=1)))
        for row in rows:
            assert row.q10 == row.median == row.q90

    def test_degenerate_only_size_yields_nan_row(self):
        pts = [
            TrajectoryPoint(10, 0, 1, float("nan"), float("nan"), "degenerate"),
            TrajectoryPoint(20, 0, 2, 0.5, 1.0, "ok"),
        ]
        rows = summarize(pts)
        assert np.isnan(rows[0].median) and np.isnan(rows[0].mean_bn)
        assert rows[1].median == 0.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])


class TestTrajectoryCsv:
    def test_golden_output(self):
        pts = [
            TrajectoryPoint(50, 0, 123, 0.6412345678, 0.0312345678, "ok"),
            TrajectoryPoint(50, 1, 456, float("nan"), float("nan"), "degenerate"),
        ]
        buf = io.StringIO()
        write_trajectory_csv(pts, buf)
        assert buf.getvalue() == (
            "n,replication,seed,index,bn,status\n"
            "50,0,123,0.641235,0.0312346,ok\n"
            "50,1,456,nan,nan,degenerate\n"
        )

    def test_header_matches_constant(self):
        buf = io.StringIO()
        write_trajectory_csv([], buf)
        assert buf.getvalue().strip() == ",".join(TRAJECTORY_HEADER)

    def test_precision_flag(self):
        pts = [TrajectoryPoint(10, 0, 1, 1.0 / 3.0, 0.25, "ok")]
        buf = io.StringIO()
        write_trajectory_csv(pts, buf, precision=12)
        assert "0.333333333333" in buf.getvalue()

    def test_failure_leaves_truncation_marker(self):
        pts = [
            TrajectoryPoint(10, 0, 1, 0.5, 1.0, "ok"),
            ("not", "a", "point"),
        ]
        buf = io.StringIO()
        with pytest.raises(AttributeError):
            write_trajectory_csv(pts, buf)
        text = buf.getvalue()
        assert "0.5" in text
        assert "# error: output truncated:" in text


class TestConvergenceShape:
    """Distribution tails drive how fast the estimate settles."""

    def _median_at(self, alpha, window, n, reps, seed=0):
        cfg = ExperimentConfig(
            dist=LomaxParams(alpha, 1.0),
            window=window,
            tf=TransferFunction(),
            base_seed=seed,
            n_grid=(n,),
            replications=reps,
        )
        return summarize(run_experiment(cfg))[0].median

    def test_heavier_tail_converges_faster_on_narrow_window(self):
        """With alpha = 5 the window (0, 2] is sampled mostly near 0 where
        h barely moves, so at n = 1e4 its estimate still sits farther from
        the limit than the alpha = 1.5 one."""
        target = 0.6423855627411782
        err15 = abs(self._median_at(1.5, Window(0.0, 2.0), 10_000, 50) - target)
        err5 = abs(self._median_at(5.0, Window(0.0, 2.0), 10_000, 50) - target)
        assert err5 > err15

    def test_wide_window_estimate_undershoots(self):
        # mass beyond the switch point is so thin for alpha = 5 that the
        # increasing stretch above x0 is underrepresented at n = 1e5
        med = self._median_at(5.0, Window(0.0, 20.0), 100_000, 20)
        assert med <= 0.7377595 - 0.02
