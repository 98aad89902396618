"""End-to-end acceptance checks.

One test per shipped guarantee, each ending in a single printed
[PASS]/[FAIL] line with the measured numbers (visible with -s, or in the
captured output of a failing run). Tolerances are stated inline; any
tightening belongs in the per-module suites, not here.
"""

import itertools
import time

import numpy as np
import pytest

from monotone_index import (
    DegenerateSampleError,
    ExperimentConfig,
    HFunction,
    LomaxParams,
    PiecewiseFunction,
    SamplePairs,
    Segment,
    TransferFunction,
    Window,
    WindowedDistribution,
    empirical_index,
    index_from_ordered_outputs,
    lomax_cdf,
    lomax_quantile,
    run_experiment,
    summarize,
    theoretical_index,
    theoretical_index_via_H,
)

WINDOWS = (Window(0.0, 2.0), Window(8.0, 12.0), Window(0.0, 20.0))
RHOS = (0.0, 0.5, -0.5)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


class TestAcceptance:
    def test_criterion_1_theoretical_index_table(self):
        published = {
            (0.0, 2.0): {0.0: 0.6424, 0.5: 0.6424, -0.5: 0.6424},
            (8.0, 12.0): {0.0: 1.0, 0.5: 1.0, -0.5: 0.3459},
            (0.0, 20.0): {0.0: 0.7378, 0.5: 0.7881, -0.5: 0.6264},
        }
        t0 = time.perf_counter()
        got = {
            (w.a, w.b): {
                rho: theoretical_index(TransferFunction(rho=rho), w).value
                for rho in RHOS
            }
            for w in WINDOWS
        }
        elapsed = time.perf_counter() - t0
        worst = max(
            abs(got[k][rho] - published[k][rho])
            for k in published
            for rho in RHOS
        )
        report(
            "criterion 1 (index table)",
            worst < 5e-4 and elapsed < 1.0,
            f"max deviation {worst:.2e} (tol 5e-4), {elapsed:.3f} s (budget 1 s)",
        )

    def test_criterion_2_intermediate_constants(self):
        checks = []
        b_down = theoretical_index(TransferFunction(rho=-0.5), Window(8.0, 12.0))
        checks.append(("rising part on (8,12], rho=-0.5", b_down.int_pos, 0.0715, 5e-4))
        published = {0.0: (1.1178, 1.5151), 0.5: (1.3427, 1.74), -0.5: (0.8928, 1.2901)}
        for rho, (pos, absval) in published.items():
            b = theoretical_index(TransferFunction(rho=rho), Window(0.0, 20.0))
            checks.append((f"rising part on (0,20], rho={rho}", b.int_pos, pos, 2e-3))
            checks.append((f"total variation on (0,20], rho={rho}", b.int_abs, absval, 2e-3))
        for rho in (0.5, -0.5):
            checks.append(
                (f"jump size rho={rho}",
                 TransferFunction(rho=rho).jump_size(), np.sign(rho) * 0.13528, 1e-4)
            )
        worst = max(abs(got - want) / tol for _, got, want, tol in checks)
        bad = [name for name, got, want, tol in checks if abs(got - want) > tol]
        report(
            "criterion 2 (intermediate constants)",
            not bad,
            f"10 constants, worst at {worst:.3f} of its tolerance"
            + (f"; failing: {bad}" if bad else ""),
        )

    def test_criterion_3_h_profile_endpoints(self):
        published = {
            (1.5, 0.5): 144.1699, (5.0, 0.5): 18.548e5,
            (1.5, 0.0): 96.1133, (5.0, 0.0): 12.365e5,
            (1.5, -0.5): 48.0566, (5.0, -0.5): 6.183e5,
        }
        worst = 0.0
        for (alpha, rho), want in published.items():
            dist = WindowedDistribution(LomaxParams(alpha, 1.0), Window(0.0, 20.0))
            got = HFunction(tf=TransferFunction(rho=rho), dist=dist)(1.0)
            worst = max(worst, abs(got - want) / want)
        report(
            "criterion 3 (H(1) spot checks)",
            worst < 1e-3,
            f"six endpoints, max relative deviation {worst:.2e} (tol 1e-3)",
        )

    def test_criterion_4_distribution_freeness(self):
        worst_alpha = 0.0
        worst_xu = 0.0
        for window in WINDOWS:
            for rho in RHOS:
                tf = TransferFunction(rho=rho)
                direct = theoretical_index(tf, window).value
                vias = []
                for alpha in (1.5, 5.0):
                    dist = WindowedDistribution(LomaxParams(alpha, 1.0), window)
                    v = theoretical_index_via_H(HFunction(tf=tf, dist=dist)).value
                    vias.append(v)
                    worst_xu = max(worst_xu, abs(v - direct))
                worst_alpha = max(worst_alpha, abs(vias[0] - vias[1]))
        report(
            "criterion 4 (distribution-freeness)",
            worst_alpha < 1e-9 and worst_xu < 1e-6,
            f"alpha spread {worst_alpha:.2e} (tol 1e-9), "
            f"x-vs-u spread {worst_xu:.2e} (tol 1e-6) over 9 presets",
        )

    def test_criterion_5_noise_free_convergence(self):
        t0 = time.perf_counter()
        cfg = ExperimentConfig(
            dist=LomaxParams(1.5, 1.0),
            window=Window(0.0, 2.0),
            tf=TransferFunction(),
            base_seed=42,
            n_grid=(100_000,),
            replications=20,
        )
        med = summarize(run_experiment(cfg))[0].median
        elapsed = time.perf_counter() - t0
        err = abs(med - 0.6424)
        report(
            "criterion 5 (convergence at n=1e5)",
            err < 0.05 and elapsed < 30.0,
            f"median {med:.4f}, |error| {err:.2e} (tol 0.05), {elapsed:.1f} s (budget 30 s)",
        )

    def test_criterion_6_noise_degeneracy(self):
        panels = list(itertools.product((1.5, 5.0), (Window(0.0, 2.0), Window(8.0, 12.0))))
        hit_counts = []
        ratio_range = [np.inf, 0.0]
        for alpha, window in panels:
            cfg = ExperimentConfig(
                dist=LomaxParams(alpha, 1.0),
                window=window,
                tf=TransferFunction(),
                base_seed=42,
                n_grid=(1000, 4000, 16000, 64000, 100_000),
                replications=20,
                noise_sigma=0.1,
            )
            points = run_experiment(cfg)
            rows = {r.n: r for r in summarize(points)}
            hits = sum(
                abs(p.index - 0.5) < 0.02
                for p in points
                if p.n == 100_000
            )
            hit_counts.append(hits)
            for n in (1000, 4000, 16000):
                ratio = rows[4 * n].mean_bn / rows[n].mean_bn
                ratio_range = [min(ratio_range[0], ratio), max(ratio_range[1], ratio)]
        ok = all(h >= 18 for h in hit_counts) and 1.8 < ratio_range[0] and ratio_range[1] < 2.2
        report(
            "criterion 6 (noise degeneracy)",
            ok,
            f"hits per panel {hit_counts} (need >= 18/20), "
            f"bn growth ratios in [{ratio_range[0]:.3f}, {ratio_range[1]:.3f}] "
            f"(need within [1.8, 2.2])",
        )

    def test_criterion_7_no_noise_boundedness(self):
        def bn(n):
            x = np.linspace(0.0, 2.0, n)
            g = np.sin(x) + 0.3 * x  # smooth, no noise
            d = np.abs(np.diff(g)).sum()
            return d / np.sqrt(n)

        small, large = bn(1000), bn(100_000)
        report(
            "criterion 7 (no-noise boundedness)",
            large < 2.0 * small,
            f"bn(1e5) = {large:.5f} vs 2 x bn(1e3) = {2 * small:.5f}",
        )

    def test_criterion_8_oracle_equivalence(self):
        def brute(ys):
            num = den = 0.0
            for prev, cur in zip(ys, ys[1:]):
                d = cur - prev
                if d > 0.0:
                    num += d
                den += abs(d)
            return None if den == 0.0 else num / den

        sorted_x = np.arange(5.0)
        sequences = 0
        for multiset in itertools.combinations_with_replacement((-1.0, 0.0, 1.0, 2.0), 5):
            for perm in set(itertools.permutations(multiset)):
                sequences += 1
                want = brute(perm)
                if want is None:
                    with pytest.raises(DegenerateSampleError):
                        index_from_ordered_outputs(perm)
                    continue
                got = index_from_ordered_outputs(perm)
                assert got == want, f"{perm}: {got} != {want}"
                est = empirical_index(SamplePairs(sorted_x, np.array(perm)))
                assert est.index == got, f"{perm}: pair route {est.index} != {got}"
        report(
            "criterion 8 (oracle equivalence)",
            True,
            f"{sequences} output sequences, both routes match brute force exactly",
        )

    def test_criterion_9_invariant_suites(self):
        failures = []

        # round-trips
        p = LomaxParams(1.5, 1.0)
        u = np.linspace(0.0, 1.0 - 1e-6, 1000)
        if np.abs(lomax_cdf(p, lomax_quantile(p, u)) - u).max() >= 1e-12:
            failures.append("quantile round-trip")
        d = WindowedDistribution(p, Window(8.0, 12.0))
        t = np.linspace(0.0, 1.0, 500)
        if np.abs(d.cdf(d.quantile(t)) - t).max() >= 1e-10:
            failures.append("windowed right-inverse")

        # affine equivariance of the empirical index
        rng = np.random.default_rng(42)
        x = rng.uniform(0.0, 2.0, 400)
        y = rng.normal(size=400)
        base = empirical_index(SamplePairs(x, y)).index
        up = empirical_index(SamplePairs(x, 3.1 * y - 2.0)).index
        down = empirical_index(SamplePairs(x, -1.7 * y + 5.0)).index
        if abs(up - base) > 1e-12 or abs(down - (1.0 - base)) > 1e-12:
            failures.append("affine equivariance")

        # reflection of the theoretical index
        tf = TransferFunction(rho=-0.5)
        lower = TransferFunction()
        neg = PiecewiseFunction(
            (
                Segment(0.0, 10.0, lambda v: -lower.eval(v), lambda v: -lower.deriv(v)),
                Segment(10.0, np.inf,
                        lambda v: -0.5 * lower.eval(v), lambda v: -0.5 * lower.deriv(v)),
            ),
            jumps=((10.0, -tf.jump_size()),),
        )
        v = theoretical_index(tf, Window(0.0, 20.0)).value
        w = theoretical_index(neg, Window(0.0, 20.0)).value
        if abs(w - (1.0 - v)) > 1e-9:
            failures.append("reflection")

        # sampling distribution (Kolmogorov distance at n = 1e5)
        xs = np.sort(d.sample(42, 100_000))
        cdf = d.cdf(xs)
        i = np.arange(1, xs.size + 1, dtype=float)
        ks = max(np.abs(i / xs.size - cdf).max(), np.abs((i - 1) / xs.size - cdf).max())
        if ks >= 0.01:
            failures.append("KS sampling check")

        # finite-difference derivative check
        pts = rng.uniform(0.1, 30.0, 500)
        step = 1e-6
        fd = (lower.eval(pts + step) - lower.eval(pts - step)) / (2.0 * step)
        if np.max(np.abs(lower.deriv(pts) - fd) / np.abs(fd)) >= 1e-5:
            failures.append("finite-difference derivative")

        report(
            "criterion 9 (module invariants)",
            not failures,
            "round-trips, equivariance, reflection, KS, derivative all hold"
            if not failures
            else f"failing: {failures}",
        )
