import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import quadsig.covering as covering_module
from quadsig import simulate
from quadsig.analysis import GaussianPair, id_rate
from quadsig.covering import _BATCH, build_covering
from quadsig.errors import DegenerateDataError, PreconditionError
from quadsig.scheme import SchemeConfig, assign_many, plan_scheme, query_many
from quadsig.simulate import (
    SHARD_SIZE,
    SourceSpec,
    _run_sharded,
    _threads,
    audit_admissibility,
    chi_square_tail_bound,
    estimate_maybe_probability,
    estimate_similarity_probability,
    fit_exponent,
    robustness_experiment,
    sample_pair,
)


class TestSources:
    def test_variances_match_request(self):
        rng = np.random.default_rng(1)
        for family in ("gaussian", "uniform", "laplace"):
            spec = SourceSpec(family, 1.7)
            draw = spec.draw(rng, 1_000_000)
            assert abs(draw.mean()) < 0.01
            assert draw.var() == pytest.approx(1.7, rel=0.01)

    def test_uniform_support(self):
        spec = SourceSpec("uniform", 0.5)
        draw = spec.draw(np.random.default_rng(2), 100_000)
        half = math.sqrt(3 * 0.5)
        assert np.all(np.abs(draw) <= half)

    def test_sample_pair_deterministic(self):
        sx = SourceSpec("gaussian", 1.0)
        sy = SourceSpec("laplace", 2.0)
        x1, y1 = sample_pair(sx, sy, 32, np.random.default_rng(99))
        x2, y2 = sample_pair(sx, sy, 32, np.random.default_rng(99))
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_pair_independence_rough(self):
        sx = sy = SourceSpec("gaussian", 1.0)
        rng = np.random.default_rng(7)
        xs, ys = [], []
        for _ in range(4000):
            x, y = sample_pair(sx, sy, 4, rng)
            xs.append(x)
            ys.append(y)
        corr = np.corrcoef(np.array(xs).ravel(), np.array(ys).ravel())[0, 1]
        assert abs(corr) < 0.02

    def test_bad_family_rejected(self):
        with pytest.raises(ValueError):
            SourceSpec("cauchy", 1.0)

    @pytest.mark.parametrize("variance", [math.nan, math.inf, 0.0])
    def test_bad_variance_rejected(self, variance):
        with pytest.raises(ValueError, match="^variance must be a finite real number"):
            SourceSpec("gaussian", variance)


class TestSimilarityProbability:
    def test_impossible_and_certain_thresholds(self):
        g = SourceSpec("gaussian", 1.0)
        zero = estimate_similarity_probability(g, g, 0.0, 16, 10_000, 3)
        assert zero.p_hat == 0.0
        assert zero.ci_high == pytest.approx(3.0 / 10_000)
        one = estimate_similarity_probability(g, g, 50.0, 16, 10_000, 3)
        assert one.p_hat == 1.0

    def test_degenerate_inputs_rejected(self):
        g = SourceSpec("gaussian", 1.0)
        with pytest.raises(ValueError, match="^n must be an integer"):
            estimate_similarity_probability(g, g, 1.5, 0, 1_000, 3)
        with pytest.raises(ValueError, match="^d must be a finite real number"):
            estimate_similarity_probability(g, g, math.nan, 16, 1_000, 3)

    def test_matches_chi_square_reference(self):
        # P(chi2_16 <= 12) = 0.25602 for unit variances at d = 1.5
        g = SourceSpec("gaussian", 1.0)
        est = estimate_similarity_probability(g, g, 1.5, 16, 200_000, 11)
        se = math.sqrt(0.256 * 0.744 / 200_000)
        assert est.p_hat == pytest.approx(0.2560202, abs=4 * se)
        assert est.ci_low < 0.2560202 < est.ci_high

    def test_reproducible_and_thread_invariant(self, monkeypatch):
        g = SourceSpec("gaussian", 1.0)
        a = estimate_similarity_probability(g, g, 1.5, 16, 100_000, 5)
        monkeypatch.setenv("QUADSIG_THREADS", "4")
        b = estimate_similarity_probability(g, g, 1.5, 16, 100_000, 5)
        assert a == b
        monkeypatch.setenv("QUADSIG_THREADS", "not-a-number")
        c = estimate_similarity_probability(g, g, 1.5, 16, 100_000, 5)
        assert a == c

    def test_one_sided_slope_refinement(self):
        # two-point slopes decrease toward the asymptotic exponent as n grows
        g = SourceSpec("gaussian", 1.0)
        ns = [16, 32, 64, 128]
        ps = [
            estimate_similarity_probability(g, g, 1.5, n, 400_000, 21 + n).p_hat
            for n in ns
        ]
        slopes = [
            (math.log2(ps[i]) - math.log2(ps[i + 1])) / (ns[i + 1] - ns[i])
            for i in range(3)
        ]
        assert slopes[0] > slopes[1] > slopes[2]
        assert slopes[2] > 0.0271818  # stays above the asymptotic exponent


class TestShardThreads:
    def test_default_is_usable_cpus(self, monkeypatch):
        monkeypatch.delenv("QUADSIG_THREADS", raising=False)
        assert _threads() == len(os.sched_getaffinity(0))
        monkeypatch.setenv("QUADSIG_THREADS", "3")
        assert _threads() == 3

    def test_blas_pinned_in_pool_and_restored(self, blas_get, monkeypatch):
        seen = []

        def worker(rng, count):
            seen.append(blas_get())
            if count == 5:
                raise RuntimeError("worker failed")
            return (count,)

        monkeypatch.setenv("QUADSIG_THREADS", "2")
        assert _run_sharded(3 * SHARD_SIZE, 1, worker) == (3 * SHARD_SIZE,)
        assert seen == [1, 1, 1]
        assert blas_get() == 2
        with pytest.raises(RuntimeError, match="worker failed"):
            _run_sharded(2 * SHARD_SIZE + 5, 1, worker)
        assert blas_get() == 2
        # one shard, or one shard thread, keeps BLAS's own threads
        seen.clear()
        assert _run_sharded(SHARD_SIZE, 1, worker) == (SHARD_SIZE,)
        monkeypatch.setenv("QUADSIG_THREADS", "1")
        assert _run_sharded(2 * SHARD_SIZE, 1, worker) == (2 * SHARD_SIZE,)
        assert seen == [2, 2, 2]

    def test_failure_waits_for_running_shards(self, blas_get, monkeypatch):
        # shard 0 raises at once while shard 1 still runs: the error comes out
        # only after shard 1 is done, with BLAS restored and the pool free
        lock = threading.Lock()
        live = 0

        def worker(rng, count):
            nonlocal live
            with lock:
                live += 1
            try:
                if count == SHARD_SIZE:
                    raise RuntimeError("shard 0 failed")
                time.sleep(0.2)
                return (count,)
            finally:
                with lock:
                    live -= 1

        monkeypatch.setenv("QUADSIG_THREADS", "2")
        with pytest.raises(RuntimeError, match="shard 0 failed"):
            _run_sharded(SHARD_SIZE + 5, 1, worker)
        assert live == 0
        assert blas_get() == 2
        assert covering_module._lock.acquire(blocking=False)
        covering_module._lock.release()

    def test_overlapping_callers_restore_blas(self, blas_get, monkeypatch):
        # more callers than cores, switching threads as often as possible:
        # a lost update of the pool's run count would leave BLAS pinned.  The
        # covering builds pipeline their draws on the same pool.
        monkeypatch.setenv("QUADSIG_THREADS", "1")
        serial = build_covering(4, 1.0, 0.6, 42, 2 * _BATCH + 7).centers
        monkeypatch.setenv("QUADSIG_THREADS", "2")
        results, builds = [], []

        def caller():
            for _ in range(25):
                results.append(_run_sharded(3 * SHARD_SIZE, 1, lambda r, c: (c,)))

        def builder():
            for _ in range(3):
                builds.append(build_covering(4, 1.0, 0.6, 42, 2 * _BATCH + 7).centers)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            callers += [threading.Thread(target=builder) for _ in range(2)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert results == [(3 * SHARD_SIZE,)] * 100
        assert len(builds) == 6
        assert all(np.array_equal(b, serial) for b in builds)
        assert blas_get() == 2

    def test_concurrency_is_threads_capped_by_shards(self, monkeypatch):
        # at most min(QUADSIG_THREADS, shards) shards run at once, also after
        # the thread count shrinks between runs
        lock = threading.Lock()
        live = peak = 0

        def worker(rng, count):
            nonlocal live, peak
            with lock:
                live += 1
                peak = max(peak, live)
            time.sleep(0.05)
            with lock:
                live -= 1
            return (count,)

        for threads, shards, want in (("4", 5, 4), ("2", 5, 2), ("3", 2, 2)):
            monkeypatch.setenv("QUADSIG_THREADS", threads)
            peak = 0
            trials = shards * SHARD_SIZE
            assert _run_sharded(trials, 1, worker) == (trials,)
            assert peak == want

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
    def test_forked_child_runs_shards(self, monkeypatch):
        monkeypatch.setenv("QUADSIG_THREADS", "2")

        def slow(rng, count):
            time.sleep(0.05)
            return (count,)

        # leaves at least two idle pool threads, which a child does not inherit
        assert _run_sharded(2 * SHARD_SIZE, 1, slow) == (2 * SHARD_SIZE,)

        def child():
            ok = _run_sharded(2 * SHARD_SIZE, 1, slow) == (2 * SHARD_SIZE,)
            os._exit(0 if ok else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        hung = proc.is_alive()
        if hung:
            proc.kill()
            proc.join()
        assert not hung
        assert proc.exitcode == 0


class TestMaybeProbability:
    def test_reproducible(self, basic8, code8, monkeypatch):
        g = SourceSpec("gaussian", 1.0)
        monkeypatch.delenv("QUADSIG_THREADS", raising=False)
        a = estimate_maybe_probability(basic8, code8, g, g, 50_000, 13)
        for threads in ("1", "2"):
            monkeypatch.setenv("QUADSIG_THREADS", threads)
            b = estimate_maybe_probability(basic8, code8, g, g, 50_000, 13)
            assert a == b

    def test_matches_whole_shard_reference(self, basic8, code8):
        # a full shard, then a partial one that is a single partial block;
        # the reference draws each shard's X and Y whole
        trials = SHARD_SIZE + 5001
        for family in ("gaussian", "uniform", "laplace"):
            s = SourceSpec(family, 1.0)
            est = estimate_maybe_probability(basic8, code8, s, s, trials, 37)
            hits = fn = 0
            for i, child in enumerate(np.random.SeedSequence(37).spawn(2)):
                rng = np.random.default_rng(child)
                count = min(SHARD_SIZE, trials - i * SHARD_SIZE)
                X = s.draw(rng, (count, 8))
                Y = s.draw(rng, (count, 8))
                ci, si, er = assign_many(basic8, code8, X)
                maybe = query_many(basic8, code8, ci, si, er, Y)
                dxy = ((X - Y) ** 2).sum(axis=1) / 8
                hits += int(maybe.sum())
                fn += int((~maybe & (dxy <= basic8.d)).sum())
            assert est.p_hat == hits / trials
            assert est.false_negative_count == fn

    def test_zero_false_negatives(self, basic8, code8):
        for family in ("gaussian", "uniform", "laplace"):
            s = SourceSpec(family, 1.0)
            est = estimate_maybe_probability(basic8, code8, s, s, 50_000, 17)
            assert est.false_negative_count == 0

    def test_similarity_floor_when_d_typical(self, code8):
        # d above the sum of variances makes similarity typical, so the
        # maybe-probability is pinned near one and grows with n
        config = SchemeConfig(n=8, d=2.3, sigma_x2=1.0, eta=0.15, mode="basic")
        g = SourceSpec("gaussian", 1.0)
        small = estimate_maybe_probability(config, code8, g, g, 20_000, 19)
        assert small.p_hat > 0.9
        code16 = build_covering(16, 1.0, 0.7, seed=5, audit_samples=20_000)
        config16 = SchemeConfig(n=16, d=2.3, sigma_x2=1.0, eta=0.15, mode="basic")
        bigger = estimate_maybe_probability(config16, code16, g, g, 20_000, 19)
        assert bigger.p_hat > small.p_hat

    def test_wilson_interval_brackets(self, basic8, code8):
        g = SourceSpec("gaussian", 1.0)
        est = estimate_maybe_probability(basic8, code8, g, g, 30_000, 23)
        assert 0.0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1.0

    def test_shape_gain_maybe_mass_drops_with_blocklength(self):
        # paired seeds across the two blocklengths; amplitude shells remove
        # the typical-shell erasure mass, so the drop reflects the cap term
        pair = GaussianPair(1.0, 1.0)
        g = SourceSpec("gaussian", 1.0)
        # the shell-index rate term needs ~0.6 bits/symbol at n = 16
        target = id_rate(pair, 0.02) + 1.0
        estimates = {}
        for n in (16, 32):
            plan = plan_scheme(pair, 0.02, target, n, 0.1, mode="shape_gain")
            code = build_covering(n, 1.0, plan.d0, seed=200 + n, audit_samples=10_000)
            estimates[n] = estimate_maybe_probability(
                plan.config, code, g, g, 100_000, 777
            )
        assert estimates[16].p_hat > estimates[32].p_hat
        assert estimates[32].p_hat < 0.5
        assert all(e.false_negative_count == 0 for e in estimates.values())


class TestAuditAdmissibility:
    def test_zero_false_negatives_all_modes(self, code8):
        for mode, eta in (("basic", 0.15), ("shape_gain", 0.1)):
            config = SchemeConfig(n=8, d=0.4, sigma_x2=1.0, eta=eta, mode=mode)
            for family in ("gaussian", "uniform", "laplace"):
                est = audit_admissibility(
                    config, code8, SourceSpec(family, 1.0), 60_000, 29
                )
                assert est.false_negative_count == 0
                # constructed pairs are similar, so nearly everything is maybe
                assert est.p_hat > 0.999

    def test_matches_whole_shard_reference(self, code8, monkeypatch):
        # a full shard, then a partial one that is a single partial block;
        # the reference draws each shard's X, U and radii whole.  Nearly
        # every audited pair answers maybe, so the query points of the live
        # rows are compared too, bit for bit, with the shards run in order.
        monkeypatch.setenv("QUADSIG_THREADS", "1")
        queried = []

        def recording_query_many(config, code, ci, si, er, Y):
            queried.append(Y[~er])
            return query_many(config, code, ci, si, er, Y)

        monkeypatch.setattr(simulate, "query_many", recording_query_many)
        trials, n, d = SHARD_SIZE + 5001, 8, 0.4
        edge = math.sqrt(n * d)
        for mode, eta in (("basic", 0.15), ("shape_gain", 0.1)):
            config = SchemeConfig(n=n, d=d, sigma_x2=1.0, eta=eta, mode=mode)
            for family in ("gaussian", "uniform", "laplace"):
                s = SourceSpec(family, 1.0)
                queried.clear()
                est = audit_admissibility(config, code8, s, trials, 43)
                hits = fn = 0
                live_points = []
                for i, child in enumerate(np.random.SeedSequence(43).spawn(2)):
                    rng = np.random.default_rng(child)
                    count = min(SHARD_SIZE, trials - i * SHARD_SIZE)
                    X = s.draw(rng, (count, n))
                    U = rng.standard_normal((count, n))
                    U /= np.linalg.norm(U, axis=1, keepdims=True)
                    radius = edge * rng.uniform(0.0, 1.0, count) ** (1.0 / n)
                    nb = max(2, int(count * 0.02))
                    radius[: nb // 2] = edge * (1.0 - 1e-9)
                    radius[nb // 2 : nb] = edge * (1.0 + 1e-9)
                    Y = X + radius[:, None] * U
                    ci, si, er = assign_many(config, code8, X)
                    maybe = query_many(config, code8, ci, si, er, Y)
                    dxy = ((X - Y) ** 2).sum(axis=1) / n
                    hits += int(maybe.sum())
                    fn += int((~maybe & (dxy <= d)).sum())
                    live_points.append(Y[~er])
                assert est.p_hat == hits / trials
                assert est.false_negative_count == fn
                assert np.array_equal(np.concatenate(queried), np.concatenate(live_points))

    def test_reproducible(self, basic8, code8, monkeypatch):
        # three shards, so two shard threads run them in two lanes
        g = SourceSpec("gaussian", 1.0)
        monkeypatch.delenv("QUADSIG_THREADS", raising=False)
        a = audit_admissibility(basic8, code8, g, 70_000, 31)
        for threads in ("1", "2"):
            monkeypatch.setenv("QUADSIG_THREADS", threads)
            b = audit_admissibility(basic8, code8, g, 70_000, 31)
            assert a == b


def _traced_peak_mib(run) -> float:
    """Peak memory traced while run() runs, numpy's buffers included, above
    what was traced when it began, in MiB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def test_one_shard_peak_memory_at_n40(code40, monkeypatch):
    # one 32,768-pair shard on one thread; with X (and the audit's U) held
    # whole, the five peaks read 15.4, 30.5, 23.1, 30.8 and 20.0 MiB.  Most
    # basic-mode rows are erased, so a shard keeps only the live ones.
    monkeypatch.setenv("QUADSIG_THREADS", "1")
    pair = GaussianPair(1.0, 1.0)
    rate = id_rate(pair, 0.02) + 0.5
    peaks = {}
    for mode, family in (("basic", "gaussian"), ("shape_gain", "laplace")):
        plan = plan_scheme(pair, 0.02, rate, 40, 0.1, mode=mode)
        assert plan.d0 == code40.d0
        s = SourceSpec(family, 1.0)
        peaks[mode, "estimate"] = _traced_peak_mib(
            lambda: estimate_maybe_probability(plan.config, code40, s, s, SHARD_SIZE, 3)
        )
        peaks[mode, "audit"] = _traced_peak_mib(
            lambda: audit_admissibility(plan.config, code40, s, SHARD_SIZE, 3)
        )
    g = SourceSpec("gaussian", 1.0)
    peaks["similarity"] = _traced_peak_mib(
        lambda: estimate_similarity_probability(g, g, 1.5, 40, SHARD_SIZE, 3)
    )
    assert peaks["basic", "estimate"] < 8.0, peaks
    assert peaks["basic", "audit"] < 12.0, peaks
    assert peaks["shape_gain", "estimate"] <= 23.1, peaks
    assert peaks["shape_gain", "audit"] <= 30.8, peaks
    assert peaks["similarity"] < 20.0, peaks


class TestFitExponent:
    def test_exact_log_linear(self):
        points = [(n, 2.0 ** (-0.1 * n)) for n in (8, 16, 32, 64)]
        fit = fit_exponent(points)
        assert fit.slope == pytest.approx(0.1, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-9)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(37)
        points = [
            (n, 2.0 ** (-0.1 * n) * (1 + rng.uniform(-0.05, 0.05)))
            for n in (8, 16, 32, 64, 128)
        ]
        fit = fit_exponent(points)
        assert fit.slope == pytest.approx(0.1, abs=0.01)

    def test_single_point_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_exponent([(8, 0.5)])

    def test_all_zero_rejected_with_floor_hint(self):
        with pytest.raises(DegenerateDataError, match="resolution floor"):
            fit_exponent([(8, 0.0), (16, 0.0)])

    def test_zero_points_dropped(self):
        fit = fit_exponent([(8, 0.25), (16, 0.125), (32, 0.0)])
        assert len(fit.points) == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.5, -0.1])
    def test_non_probability_rejected(self, bad):
        with pytest.raises(ValueError, match="must be a finite real number in \\[0.0, 1.0\\]"):
            fit_exponent([(8, 0.5), (16, bad), (32, 0.125)])


class TestChiSquareTailBound:
    def test_formula_values(self):
        assert chi_square_tail_bound(2, 1.0) == pytest.approx(
            math.exp(-1.0) * 2.0, rel=1e-12
        )
        assert chi_square_tail_bound(10, 3.7) == pytest.approx(
            math.exp(-25.0) * 2.0**5, rel=1e-12
        )

    @pytest.mark.parametrize("n", [2048, 10_000])
    def test_large_n_underflows_to_zero(self, n):
        # 2^(n/2) alone overflows a double from n = 2048
        assert chi_square_tail_bound(n, 1.0) == 0.0

    def test_monotone_decreasing(self):
        # strictly decreasing while representable; underflows to 0 near n=60
        vals = [chi_square_tail_bound(n, 1.0) for n in range(2, 257)]
        head = [v for v in vals if v > 0.0]
        assert len(head) >= 50
        assert all(a > b for a, b in zip(head, head[1:]))
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_super_exponential_drop(self):
        # ratio between n=20 and n=10 beats any fixed exponential base
        assert chi_square_tail_bound(20, 1.0) / chi_square_tail_bound(10, 1.0) < 2.0 ** (
            -(20**2 - 10**2) / 4 + 5
        )

    def test_one_sided_monte_carlo(self):
        rng = np.random.default_rng(41)
        draws = rng.standard_normal((200_000, 8))
        exceed = float((np.sum(draws**2, axis=1) > 64.0).mean())
        assert exceed <= chi_square_tail_bound(8, 1.0)


class TestRobustnessExperiment:
    def test_decreasing_maybe_and_zero_fn(self):
        pair = GaussianPair(1.0, 1.0)
        d = 0.02
        target = id_rate(pair, d) + 0.5
        u = SourceSpec("uniform", 1.0)
        out = robustness_experiment(
            pair, d, target, [8, 16], u, u, trials=40_000, seed=7,
            epsilon=0.1, audit_samples=10_000,
        )
        assert [n for n, _ in out] == [8, 16]
        assert out[0][1].p_hat > out[1][1].p_hat
        assert all(est.false_negative_count == 0 for _, est in out)

    def test_matches_cli_rows(self, capsys):
        # `quadsig simulate` and robustness_experiment, given the same
        # arguments, report the same estimates bit for bit
        from quadsig.cli import main

        argv = ["simulate", "--n-list", "8,16", "--rate", "1.5", "--d", "0.1",
                "--trials", "5000", "--seed", "3", "--audit-samples", "2000",
                "--mode", "shape_gain", "--dist-x", "laplace", "--dist-y", "laplace"]
        assert main(argv) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
        lap = SourceSpec("laplace", 1.0)
        out = robustness_experiment(
            GaussianPair(1.0, 1.0), 0.1, 1.5, [8, 16], lap, lap, trials=5000,
            seed=3, epsilon=0.1, mode="shape_gain", audit_samples=2000,
        )
        assert [(n, e.p_hat, e.ci_low, e.ci_high, e.false_negative_count)
                for n, e in out] == [
            (int(r[1]), float(r[7]), float(r[8]), float(r[9]), int(r[10]))
            for r in rows
        ]
        assert [float(r[7]) for r in rows] == [0.1682, 0.1446]

    def test_variance_mismatch_rejected(self):
        pair = GaussianPair(1.0, 1.0)
        with pytest.raises(PreconditionError):
            robustness_experiment(
                pair, 0.02, 1.0, [8], SourceSpec("uniform", 2.0),
                SourceSpec("uniform", 1.0), 100, 1,
            )

    def test_rate_below_id_rate_rejected(self):
        pair = GaussianPair(1.0, 1.0)
        with pytest.raises(PreconditionError):
            robustness_experiment(
                pair, 1.5, 1.0, [8], SourceSpec("uniform", 1.0),
                SourceSpec("uniform", 1.0), 100, 1,
            )
