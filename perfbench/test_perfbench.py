"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
from measure import (  # noqa: E402
    Tally, highest_percentile, interleave, percentile, quartile_spread)
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402


def span(sid, parent, start, end, thread=0, name="x"):
    return Span(sid, parent, name, thread, start, end)


class TestSelfTime:
    def test_sequential_children_are_subtracted(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 40, 50)]
        assert self_times(spans) == {0: 70, 1: 20, 2: 10}

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 60), span(2, 1, 20, 50)]
        assert self_times(spans) == {0: 50, 1: 20, 2: 30}

    def test_overlapping_children_on_other_threads_count_once(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 60, thread=1),
                 span(2, 0, 30, 80, thread=2), span(3, 0, 85, 90, thread=1)]
        assert self_times(spans)[0] == 100 - 70 - 5

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 90, 120, thread=1)]
        assert self_times(spans)[0] == 90


class TestPercentileRule:
    @pytest.mark.parametrize("n, want", [
        (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
        (1000, 99.0), (9999, 99.0), (10000, 99.9),
    ])
    def test_highest_percentile_leaves_ten_samples_beyond(self, n, want):
        assert highest_percentile(n) == want

    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        assert percentile(values, 90) == 90  # ten samples, 91..100, lie beyond
        assert percentile(values, 50) == 50
        assert percentile([7.0], 99) == 7.0

    def test_quartile_spread(self):
        # statistics.quantiles([1..9], n=4) is (2.5, 5, 7.5)
        assert quartile_spread(range(1, 10)) == pytest.approx(1.0)


class TestInterleave:
    def test_each_list_is_spread_evenly_in_its_own_order(self):
        assert interleave(list("abcdef"), [1, 2]) == ["a", "b", 1, "c", "d", "e", 2, "f"]
        assert interleave([1, 2, 3]) == [1, 2, 3]


class TestFailedRatio:
    def run(self, tally, problem=None, raises=False, work=1):
        with tally.op("k", "case") as op:
            if raises:
                raise ValueError("boom")
            op.stop()
            op.record(work, problem)

    def test_raises_and_failed_checks_both_count(self, capsys):
        tally = Tally()
        self.run(tally)
        self.run(tally, raises=True)
        self.run(tally, problem="wrong value")
        self.run(tally)
        assert (tally.attempted, tally.failed) == (4, 2)
        assert tally.failed_ratio() == 0.5
        assert not tally.correct

    def test_a_run_without_failures_is_correct(self):
        tally = Tally()
        self.run(tally)
        self.run(tally)
        assert (tally.attempted, tally.failed, tally.failed_ratio()) == (2, 0, 0.0)
        assert tally.correct

    def test_known_failures_stay_out_of_the_counted_cases(self):
        import workloads

        counted = {(c.a, c.b) for c in workloads.exact_cases()}
        assert not counted & {(c.a, c.b) for c in workloads.KNOWN_FAILURES}

    def test_known_failure_probe_flags_wrong_values_only(self):
        import workloads

        raised, problems = workloads.probe_known_failures()
        assert 0 <= raised <= 6
        assert problems == []

    def test_rate_counts_work_of_successful_operations_only(self):
        tally = Tally()
        self.run(tally, work=10)
        self.run(tally, work=10, problem="wrong value")
        seconds = sum(s.seconds for s in tally.samples)
        assert tally.rate("k") == pytest.approx(10 / seconds)


class TestDenseGridOracle:
    @pytest.mark.parametrize("a, b, rho, published", [
        (0.0, 2.0, 0.0, 0.6424), (0.0, 2.0, 0.5, 0.6424), (8.0, 12.0, 0.0, 1.0),
        (8.0, 12.0, 0.5, 1.0), (8.0, 12.0, -0.5, 0.3459), (0.0, 20.0, 0.0, 0.7378),
        (0.0, 20.0, 0.5, 0.7881), (0.0, 20.0, -0.5, 0.6264),
    ])
    def test_matches_the_published_table(self, a, b, rho, published):
        assert abs(oracle.dense_grid_index(a, b, rho=rho) - published) < 5e-4

    def test_monotone_stretches_are_exact(self):
        assert oracle.dense_grid_index(0.0, 0.02) == 1.0
        assert oracle.dense_grid_index(1.0, 3.0) == 0.0

    def test_a_jump_at_the_open_edge_does_not_count(self):
        assert oracle.dense_grid_index(10.0, 12.0, rho=-0.5) == 1.0

    def test_overflowing_window_stays_finite(self):
        assert 1.0 - oracle.dense_grid_index(0.0, 8000.0) < 1e-12

    def test_converges_as_the_grid_refines(self):
        fine = oracle.dense_grid_index(0.0, 20.0, rho=0.5)
        coarse = oracle.dense_grid_index(0.0, 20.0, rho=0.5, points=20_001)
        assert abs(fine - coarse) < 1e-6

    def test_pair_index_matches_a_loop(self):
        rng = np.random.default_rng(3)
        x, y = rng.random(50), rng.normal(size=50)
        ys = y[np.argsort(x)]
        num = sum(max(q - p, 0.0) for p, q in zip(ys, ys[1:]))
        den = sum(abs(q - p) for p, q in zip(ys, ys[1:]))
        index, got_num, got_den, bn = oracle.pair_index(x, y)
        assert (got_num, got_den) == pytest.approx((num, den))
        assert index == pytest.approx(num / den)
        assert bn == pytest.approx(den / np.sqrt(50))


class TestTracer:
    def test_spans_nest_and_originals_return(self):
        import monotone_index as mi

        original = mi.theoretical_index
        tracer = Tracer()
        with tracer.install():
            mi.theoretical_index(mi.TransferFunction(rho=0.5), mi.Window(0.0, 20.0))
        assert mi.theoretical_index is original
        spans = tracer.spans()
        names = {s.id: s.name for s in spans}
        root = [s for s in spans if s.parent == -1]
        assert [s.name for s in root] == ["theoretical.theoretical_index"]
        assert {names[s.parent] for s in spans if s.name == "numerics.sign_partition"} == {
            "theoretical.theoretical_index"}
        assert tracer.counts()["transfer.deriv.points"] > 100_000

    def test_pool_tasks_nest_under_the_caller(self):
        import monotone_index as mi

        config = mi.ExperimentConfig(mi.LomaxParams(1.5, 1.0), mi.Window(0.0, 2.0),
                                     mi.TransferFunction(), base_seed=1,
                                     n_grid=(100, 1000), replications=4)
        tracer = Tracer()
        with tracer.install():
            mi.run_experiment(config, threads=2)
        spans = tracer.spans()
        run = next(s for s in spans if s.name == "simulation.run_experiment")
        tasks = [s for s in spans if s.name == "simulation.replication"]
        assert len(tasks) == 4 and all(s.parent == run.id for s in tasks)
        metrics = layer_metrics(tracer)
        assert metrics["simulation.cells"][0] == 8
        assert metrics["rng.mix_seed.calls"][0] == 8
        assert 0.0 < metrics["simulation.thread_busy_ratio"][0] <= 1.0
