import contextlib
import functools
import hashlib
import json
import math
import threading
import time

import numpy as np
import pytest
from oracles import greedy_covering_units

import quadsig.covering as covering_module
from quadsig.covering import (
    _BATCH,
    _CENTER_CHUNK,
    _TILE,
    CoveringCode,
    _covered,
    _nearest,
    build_covering,
    load_covering,
    nearest_center,
    overhead_budget,
    predicted_size_bounds,
    save_covering,
    verify_covering,
)
from quadsig.geometry import cap_fraction_exact
from quadsig.scheme import SchemeConfig, assign_many


@pytest.fixture(scope="module")
def circle_code():
    return build_covering(2, 1.0, 0.5, seed=7, audit_samples=20_000)


@pytest.fixture(scope="module")
def small_code():
    return build_covering(8, 1.0, 0.5, seed=11, audit_samples=50_000)


def _dyadic_units(rng, count, n):
    """Unit rows with four +-1/2 entries: every cosine between two of them is
    a sum of at most four +-1/4 terms, exact in any summation order."""
    units = np.zeros((count, n))
    for row in units:
        row[rng.choice(n, 4, replace=False)] = rng.choice([-0.5, 0.5], 4)
    return units


def make_code(n, sigma2, d0, unit_rows):
    unit_rows = np.asarray(unit_rows, dtype=float)
    unit_rows = unit_rows / np.linalg.norm(unit_rows, axis=1, keepdims=True)
    centers = unit_rows * math.sqrt(n * (sigma2 - d0))
    return CoveringCode(n=n, sigma2=sigma2, d0=d0, centers=centers)


class TestBuildCovering:
    def test_circle_center_count(self, circle_code):
        # caps subtend arcs of half-angle pi/4, so 4 centers are necessary
        assert 4 <= circle_code.size <= 12

    def test_circle_full_coverage(self, circle_code):
        rep = verify_covering(circle_code, 100_000, seed=8)
        assert rep.sampled_coverage == 1.0

    def test_center_norms_exact(self, small_code):
        want = math.sqrt(8 * (1.0 - 0.5))
        norms = np.linalg.norm(small_code.centers, axis=1)
        assert np.allclose(norms, want, rtol=1e-12)
        assert small_code.cover_radius == math.sqrt(8 * 0.5)
        assert small_code.shell_radius == math.sqrt(8 * 1.0)

    def test_deterministic_given_seed(self):
        a = build_covering(4, 1.0, 0.6, seed=42, audit_samples=5_000)
        b = build_covering(4, 1.0, 0.6, seed=42, audit_samples=5_000)
        assert a.size == b.size
        assert np.array_equal(a.centers, b.centers)

    def test_different_seed_differs(self):
        a = build_covering(4, 1.0, 0.6, seed=42, audit_samples=5_000)
        b = build_covering(4, 1.0, 0.6, seed=43, audit_samples=5_000)
        assert not np.array_equal(a.centers, b.centers)

    def test_invalid_distortion_rejected(self):
        with pytest.raises(ValueError):
            build_covering(4, 1.0, 1.0, seed=1)
        with pytest.raises(ValueError):
            build_covering(4, 1.0, 1.5, seed=1)
        with pytest.raises(ValueError):
            build_covering(4, 1.0, 0.0, seed=1)

    @pytest.mark.parametrize(
        "sigma2, d0, field",
        [(math.inf, 0.5, "sigma2"), (math.nan, 0.5, "sigma2"),
         (1.0, math.nan, "d0"), (1.0, -math.inf, "d0")],
    )
    def test_non_finite_shell_rejected(self, sigma2, d0, field):
        with pytest.raises(ValueError, match=f"^{field} must be a finite real number"):
            build_covering(8, sigma2, d0, 1, 200)
        with pytest.raises(ValueError, match=f"^{field} must be a finite real number"):
            CoveringCode(n=2, sigma2=sigma2, d0=d0, centers=[[math.inf, 0.0]])

    def test_non_finite_centers_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="'centers' must be finite"):
                CoveringCode(n=2, sigma2=1.0, d0=0.5, centers=[[bad, 0.0]])

    @pytest.mark.parametrize(
        "n, audit, field",
        [(4, math.inf, "audit_samples"), (4, math.nan, "audit_samples"),
         (4, 200.5, "audit_samples"), (4, True, "audit_samples"),
         (4, 0, "audit_samples"), (1, 200, "n"), (4.0, 200, "n"), (True, 200, "n")],
    )
    def test_counts_must_be_integers(self, n, audit, field):
        # audit_samples = inf once drew forever and nan built no centers
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            build_covering(n, 1.0, 0.5, 1, audit)

    def test_rate_within_budget(self, small_code):
        rep = verify_covering(small_code, 10_000, seed=3)
        assert rep.rate <= rep.bound + rep.overhead_budget

    def test_covered_samples_within_theta0(self, small_code):
        # consistency of the coverage test: cover-ball membership on the shell
        # is exactly the angular test against theta0
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((2000, 8))
        pts *= small_code.shell_radius / np.linalg.norm(pts, axis=1, keepdims=True)
        for p in pts:
            dists = np.linalg.norm(small_code.centers - p, axis=1)
            idx, angle = nearest_center(small_code, p)
            assert (dists.min() <= small_code.cover_radius) == (
                angle <= small_code.theta0
            )

    def test_golden_multi_chunk_build_and_verify(self, code40, monkeypatch):
        # 1,398 centers span three center chunks, so late-build samples leave
        # the search early; the centers and the covered count must be those
        # of a full search, drawn serially or pipelined on the pool.  Recorded
        # with OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH) on an x86-64
        # Xeon; another BLAS build may round dot products differently and
        # legitimately change them.
        golden = "2fcd3440fc620281b4e9ece41aaa80497a60a84ae21bc18b49d79390b5b4a159"
        assert code40.size == 1398
        assert hashlib.sha256(code40.centers.tobytes()).hexdigest() == golden
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("QUADSIG_THREADS", threads)
            code = build_covering(40, 1.0, code40.d0, seed=4001, audit_samples=5000)
            assert hashlib.sha256(code.centers.tobytes()).hexdigest() == golden
            rep = verify_covering(code, 100_000, 4002)
            assert rep.sampled_coverage == 99_915 / 100_000

    @pytest.mark.parametrize(
        "n, d0, seed, audit",
        [
            (4, 0.6, 42, 1),
            (4, 0.6, 42, _BATCH),
            (4, 0.6, 42, 2 * _BATCH + 7),
            (2, 1e-4, 2, 2000),
        ],
    )
    def test_matches_sample_at_a_time_greedy(self, n, d0, seed, audit, monkeypatch):
        # The block-wise builder must add exactly the centers, in order, of a
        # walk that tests one sample at a time and stops after `audit`
        # covered samples in a row: runs that end at, or straddle, a block
        # boundary included, drawn serially or on the pool.
        want, in_block = greedy_covering_units(n, 1.0, d0, seed, audit, _BATCH)
        for threads in ("1", "2"):
            monkeypatch.setenv("QUADSIG_THREADS", threads)
            code = build_covering(n, 1.0, d0, seed, audit)
            assert np.array_equal(code.centers, want * math.sqrt(n * (1.0 - d0)))
        if n == 2:
            # samples after the first block that only a center added earlier
            # in the same block covers: the builder's in-block re-check
            assert in_block > 0


class TestSamplePipeline:
    """Draws run one block ahead on the shard pool with BLAS at one thread,
    and every exit gives the pool and BLAS's thread count back."""

    def test_blas_pinned_in_pipeline_and_restored(self, blas_get, monkeypatch):
        seen = []
        screen, draw = covering_module._covered, covering_module._fill_units

        def covered(*args):
            seen.append(blas_get())
            return screen(*args)

        def fill(*args):
            seen.append(blas_get())  # on a pool thread when pipelined
            return draw(*args)

        monkeypatch.setattr(covering_module, "_covered", covered)
        monkeypatch.setattr(covering_module, "_fill_units", fill)
        monkeypatch.setenv("QUADSIG_THREADS", "2")
        code = build_covering(4, 1.0, 0.6, 42, 2 * _BATCH + 7)
        assert len(seen) >= 10 and set(seen) == {1}
        assert blas_get() == 2
        seen.clear()
        verify_covering(code, 2 * _BATCH + 7, 1)
        assert len(seen) == 10 and set(seen) == {1}
        assert blas_get() == 2
        # one block, or one pool thread, keeps BLAS's own threads
        seen.clear()
        verify_covering(code, _BATCH // 2, 1)
        monkeypatch.setenv("QUADSIG_THREADS", "1")
        assert np.array_equal(build_covering(4, 1.0, 0.6, 42, 2 * _BATCH + 7).centers,
                              code.centers)
        verify_covering(code, 2 * _BATCH + 7, 1)
        assert len(seen) >= 12 and set(seen) == {2}

    @pytest.mark.parametrize("failing", ["_covered", "_fill_units"])
    def test_failure_midway_waits_restores_blas_and_releases_lock(
        self, blas_get, failing, monkeypatch
    ):
        # the screen or the draw of the third block raises, or the build's
        # audit ends in the first block; the exit must wait for the draw
        # still in flight before it gives the pool back
        calls = live = fills = 0
        draw = covering_module._fill_units

        def slow_fill(*args):
            nonlocal live, fills
            live += 1
            fills += 1
            time.sleep(0.05)
            try:
                return draw(*args)
            finally:
                live -= 1

        monkeypatch.setattr(covering_module, "_fill_units", slow_fill)
        real = getattr(covering_module, failing)

        def flaky(*args):
            nonlocal calls
            calls += 1
            if calls == 3:
                raise RuntimeError("third block failed")
            return real(*args)

        monkeypatch.setattr(covering_module, failing, flaky)
        in_flight = []  # draws running when a build's pipeline has ended

        def code_after_pipeline(*args, **kwargs):
            in_flight.append(live)
            return CoveringCode(*args, **kwargs)

        monkeypatch.setattr(covering_module, "CoveringCode", code_after_pipeline)
        monkeypatch.setenv("QUADSIG_THREADS", "2")
        code = make_code(4, 1.0, 0.6, np.eye(4))
        fails = functools.partial(pytest.raises, RuntimeError, match="third block failed")
        for run, ends in ((lambda: build_covering(4, 1.0, 0.6, 42, 2 * _BATCH + 7), fails),
                          (lambda: verify_covering(code, 3 * _BATCH, 1), fails),
                          (lambda: build_covering(4, 1.0, 0.6, 42, 1), contextlib.nullcontext)):
            calls = fills = 0
            with ends():
                run()
            assert live == 0
            if ends is contextlib.nullcontext:
                # the second block was drawn, never taken, and its draw was
                # done before the build left its `with` block
                assert fills == 2 and in_flight == [0]
            assert blas_get() == 2
            assert covering_module._lock.acquire(blocking=False)
            covering_module._lock.release()

    def test_one_draw_in_flight_overlaps_the_screen(self, monkeypatch):
        # block k + 1's draw starts while block k is screened, and no two
        # draws ever run at once, so the stream order is the serial one
        lock = threading.Lock()
        started = [threading.Event() for _ in range(4)]
        live = peak = draws = screens = 0
        draw, screen = covering_module._fill_units, covering_module._covered

        def fill(*args):
            nonlocal live, peak, draws
            with lock:
                live += 1
                peak = max(peak, live)
                started[draws].set()
                draws += 1
            time.sleep(0.02)
            try:
                return draw(*args)
            finally:
                with lock:
                    live -= 1

        def covered(*args):
            nonlocal screens
            k, screens = screens, screens + 1
            if k + 1 < len(started):
                assert started[k + 1].wait(timeout=5), f"draw {k + 1} waited for screen {k}"
            return screen(*args)

        code = make_code(4, 1.0, 0.6, np.eye(4))
        monkeypatch.setenv("QUADSIG_THREADS", "1")
        serial = verify_covering(code, 2 * _BATCH, 1)
        monkeypatch.setattr(covering_module, "_fill_units", fill)
        monkeypatch.setattr(covering_module, "_covered", covered)
        monkeypatch.setenv("QUADSIG_THREADS", "2")
        assert verify_covering(code, 2 * _BATCH, 1) == serial
        assert (draws, screens, peak) == (4, 4, 1)


class TestVerifyCovering:
    def test_single_center_coverage_matches_cap_fraction(self):
        code = make_code(6, 1.0, 0.4, [[1.0, 0, 0, 0, 0, 0]])
        rep = verify_covering(code, 200_000, seed=17)
        p = cap_fraction_exact(code.theta0, 6)
        se = math.sqrt(p * (1 - p) / 200_000)
        assert rep.sampled_coverage == pytest.approx(p, abs=3 * se)
        assert rep.sampled_coverage < 1.0

    @pytest.mark.parametrize("samples", [True, 10.5, math.nan, math.inf, 0])
    def test_samples_must_be_a_positive_integer(self, small_code, samples):
        with pytest.raises(ValueError, match="^samples must be an integer"):
            verify_covering(small_code, samples, 1)

    def test_report_fields(self, small_code):
        rep = verify_covering(small_code, 1_000, seed=2)
        assert rep.samples == 1_000
        assert rep.bound == pytest.approx(0.5 * math.log2(1.0 / 0.5))
        assert rep.overhead_budget == pytest.approx(overhead_budget(8))
        assert rep.rate == pytest.approx(math.log2(small_code.size) / 8)


class TestNearestCenter:
    def test_parallel_to_center(self, small_code):
        k = 3 % small_code.size
        x = small_code.centers[k] * 2.7
        idx, angle = nearest_center(small_code, x)
        assert idx == k
        assert angle == pytest.approx(0.0, abs=1e-7)

    def test_tie_breaks_to_lowest_index(self):
        u = [1.0, 1.0, 0.0, 0.0]
        code = make_code(4, 1.0, 0.5, [u, u, [0, 0, 1, 1]])
        idx, _ = nearest_center(code, np.array([2.0, 2.0, 0.1, 0.1]))
        assert idx == 0

    def test_matches_brute_force_scan(self, small_code):
        rng = np.random.default_rng(23)
        for _ in range(200):
            x = rng.standard_normal(8)
            idx, angle = nearest_center(small_code, x)
            proj = x * small_code.shell_radius / np.linalg.norm(x)
            brute = int(np.argmin(np.linalg.norm(small_code.centers - proj, axis=1)))
            assert idx == brute

    def test_rejects_bad_input(self, small_code):
        with pytest.raises(ValueError):
            nearest_center(small_code, np.zeros(8))
        with pytest.raises(ValueError):
            nearest_center(small_code, np.ones(5))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_non_finite_input(self, small_code):
        one_nan = np.ones(8)
        one_nan[3] = np.nan
        for x in (np.full(8, np.nan), np.full(8, np.inf), one_nan):
            with pytest.raises(ValueError, match="non-finite"):
                nearest_center(small_code, x)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_finite_input(self, small_code):
        # squared norms that overflow or underflow must not change the answer
        k = 5 % small_code.size
        for scale in (1e200, 1e-200):
            idx, angle = nearest_center(small_code, small_code.centers[k] * scale)
            assert idx == k
            assert angle == pytest.approx(0.0, abs=1e-7)
        x = np.ones(8)
        x[0] = 1e200
        assert nearest_center(small_code, x) == nearest_center(small_code, np.eye(8)[0])

    def test_chunk_and_batch_boundaries_match_full_argmax(self):
        # Directions with four +-1/2 entries: every cosine between them is a
        # sum of at most four +-1/4 terms, so it is exact in any summation
        # order and the full-matrix argmax is an exact reference.  Ties are
        # everywhere, a duplicated center sits on each side of every chunk
        # boundary, and rows tied across a chunk boundary sit on each side of
        # a row-tile boundary and at the end of the last batch.
        n = 16
        rng = np.random.default_rng(5)
        units = _dyadic_units(rng, 2 * _CENTER_CHUNK + 100, n)
        for lo in (_CENTER_CHUNK, 2 * _CENTER_CHUNK):
            units[lo] = units[lo - 1]
        # center norm sqrt(16 * (1.25 - 0.25)) = 4 keeps the unit rows exact
        code = CoveringCode(n=n, sigma2=1.25, d0=0.25, centers=4.0 * units)
        tied = units[[_CENTER_CHUNK - 1, 2 * _CENTER_CHUNK - 1]]
        rows = np.vstack([_dyadic_units(rng, _BATCH + 900, n), tied])
        rows[_TILE - 1 : _TILE + 1] = tied
        cos = rows @ units.T
        want = cos.argmax(axis=1)
        for at in (_TILE - 1, len(rows) - 2):
            assert want[at : at + 2].tolist() == [
                _CENTER_CHUNK - 1,
                2 * _CENTER_CHUNK - 1,
            ]

        config = SchemeConfig(n=n, d=0.5, sigma_x2=1.0, eta=0.5)
        centers_idx, _, _ = assign_many(config, code, 4.0 * rows)
        assert np.array_equal(centers_idx, want)
        for x, k in zip(rows, want):
            idx, angle = nearest_center(code, x)
            assert idx == k
            assert math.cos(angle) == pytest.approx(x @ units[k], abs=1e-12)

    def test_stop_retires_rows_that_reach_it(self):
        # Exact dyadic cosines (multiples of 1/4, exact in float32 too) and
        # stop = 3/4: rows at exactly stop sit inside the screen's band and
        # are decided by the float64 certificate; `_covered` must equal the
        # full search's `max >= stop`, and `_nearest` the full argmax.
        n, stop = 16, 0.75
        rng = np.random.default_rng(9)
        units = _dyadic_units(rng, 2 * _CENTER_CHUNK + 100, n)
        for lo in (_CENTER_CHUNK, 2 * _CENTER_CHUNK):
            units[lo] = units[lo - 1]
        rows = _dyadic_units(rng, 2 * _TILE + 300, n)
        # rows at exactly stop in chunk 0 with an exact match in chunk 1 or 2,
        # on both sides of the first row-tile boundary
        for at, c0, c1 in ((_TILE - 1, 100, 519), (_TILE, 200, 1030)):
            rows[at] = units[c1]
            moved = units[c1].copy()
            src = np.flatnonzero(moved)[0]
            dst = np.flatnonzero(moved == 0.0)[0]
            moved[dst], moved[src] = moved[src], 0.0
            units[c0] = moved  # cosine 3/4 with rows[at]

        cos = rows @ units.T
        chunk_best = np.stack(
            [cos[:, lo : lo + _CENTER_CHUNK].max(axis=1)
             for lo in range(0, len(units), _CENTER_CHUNK)],
            axis=1,
        )
        at_stop_then_better = (chunk_best[:, 0] == stop) & (cos.max(axis=1) == 1.0)
        assert at_stop_then_better[[_TILE - 1, _TILE]].all()
        reached = np.maximum.accumulate(chunk_best, axis=1) >= stop
        retired_later = ~reached[:, 0] & reached[:, 1]
        assert retired_later[:_TILE].any() and retired_later[_TILE:].any()
        at_stop_only = cos.max(axis=1) == stop  # in the band, covered
        assert at_stop_only[:_TILE].any() and at_stop_only[_TILE:].any()
        never = ~reached[:, -1]
        assert never[:_TILE].any() and never[_TILE : 2 * _TILE].any()
        assert (cos[never].max(axis=1) == 0.5).any()  # just below stop

        covered = _covered(units, len(units), rows, stop)
        assert np.array_equal(covered, cos.max(axis=1) >= stop)

        idx, best = _nearest(units, len(units), rows)
        assert np.array_equal(idx, cos.argmax(axis=1))
        assert np.array_equal(best, cos.max(axis=1))

    def test_covered_decides_knife_edges_exactly(self):
        # Cosines thr + k ulp, k = -3..3, round to one float32 value, so a
        # float32 screen without a float64 band cannot separate them.  Every
        # copy of e1 (in chunks 0, 1 and the partial last chunk) gives a knife
        # row the exact float64 cosine a; the other centers are orthogonal to
        # the knife rows' (e1, e2) plane.
        n, m = 16, 2 * _CENTER_CHUNK + 3
        thr = math.sqrt(0.6)
        rng = np.random.default_rng(17)
        units = np.zeros((m, n))
        units[:, 2:] = rng.standard_normal((m, n - 2))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        units[[0, _CENTER_CHUNK - 1, _CENTER_CHUNK, m - 1]] = np.eye(n)[0]
        rows = rng.standard_normal((_TILE + 300, n))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        want = (rows @ units.T).max(axis=1) >= thr
        ulp = np.spacing(thr)
        a = thr + np.arange(-3, 4) * ulp
        assert np.unique(a.astype(np.float32)).size == 1
        for at in (_TILE - 7, _TILE):  # each side of a row-tile boundary
            rows[at : at + 7] = 0.0
            rows[at : at + 7, 0] = a
            rows[at : at + 7, 1] = np.sqrt(1.0 - a * a)
            want[at : at + 7] = a >= thr
        assert want.any() and not want.all()
        assert np.array_equal(_covered(units, m, rows, thr), want)

    def test_covered_matches_float64_near_the_threshold(self):
        # Rows at cosine thr + U(-1e-6, 1e-6) to a random center: float32
        # rounding at n = 64 moves such cosines across thr, so this fails if
        # the band is narrower than the float32 error it has to absorb.
        n, m, k = 64, 2 * _CENTER_CHUNK + 3, 4000
        thr = math.sqrt(0.6)
        rng = np.random.default_rng(3)
        units = rng.standard_normal((m, n))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        c = units[rng.integers(0, m, k)]
        w = rng.standard_normal((k, n))
        w -= (w * c).sum(axis=1, keepdims=True) * c
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        a = thr + rng.uniform(-1e-6, 1e-6, k)
        rows = a[:, None] * c + np.sqrt(1.0 - a * a)[:, None] * w
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        want = (rows @ units.T).max(axis=1) >= thr
        assert 0.3 < want.mean() < 0.7
        assert np.array_equal(_covered(units, m, rows, thr), want)

    def test_rows_past_m_are_never_read(self):
        # The builder's center buffer is np.empty past its m filled rows; the
        # search must read only units[:m], also in a partial last chunk.
        n, m = 8, _CENTER_CHUNK + 3
        rng = np.random.default_rng(13)
        units = np.full((2 * _CENTER_CHUNK, n), np.nan)
        units[:m] = rng.standard_normal((m, n))
        units[:m] /= np.linalg.norm(units[:m], axis=1, keepdims=True)
        rows = rng.standard_normal((_TILE + 300, n))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        idx, best = _nearest(units, m, rows)
        want_idx, want_best = _nearest(units[:m].copy(), m, rows)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(best, want_best)
        assert np.isfinite(best).all()
        covered = _covered(units, m, rows, 0.8)
        assert np.array_equal(covered, _covered(units[:m].copy(), m, rows, 0.8))
        assert np.array_equal(covered, best >= 0.8)
        assert (covered & (idx < _CENTER_CHUNK)).any()  # some rows retire early


class TestNearestNearTies:
    """`_nearest` screens in float32; rows whose two best float32 cosines
    are too close to order are re-decided by the float64 certificate."""

    N = 16
    M = 2 * _CENTER_CHUNK + 37  # chunks 0, 1 and a partial last chunk
    # (lower, higher) center index of each near-tied pair: within chunk 0,
    # across chunks 0/1, and inside the partial last chunk
    PAIRS = ((5, 300), (400, 600), (M - 30, M - 1))
    DUPLICATES = ((50, 51), (700, 1040))  # exact copies of e_6 and e_7
    ULPS = (-3, -2, -1, 1, 2, 3)

    def near_tie_case(self):
        """Centers and rows where every near-tied cosine is exact in float64
        (a product with 1 plus products with 0), so the float64 argmax is
        known in advance: pair p spans coordinates (2p, 2p + 1), and a row
        there at (x, x + k ulp) has cosine x to the lower index and x + k ulp
        to the higher one.  The other centers are orthogonal to coordinates
        0..7, so their cosines to the near-tie rows are exactly 0."""
        n, m = self.N, self.M
        rng = np.random.default_rng(23)
        units = np.zeros((m, n))
        units[:, 8:] = rng.standard_normal((m, n - 8))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        eye = np.eye(n)
        for p, (lo, hi) in enumerate(self.PAIRS):
            units[lo], units[hi] = eye[2 * p], eye[2 * p + 1]
        for c, pair in zip((6, 7), self.DUPLICATES):
            units[list(pair)] = eye[c]

        x = math.sqrt(0.5)
        ulp = np.spacing(x)
        ys = x + np.array(self.ULPS) * ulp
        assert np.unique(np.r_[x, ys].astype(np.float32)).size == 1
        ties, want_ties = [], []
        for p, (lo, hi) in enumerate(self.PAIRS):
            for k, y in zip(self.ULPS, ys):
                row = np.zeros(n)
                row[2 * p], row[2 * p + 1] = x, y
                ties.append(row)
                want_ties.append(hi if k > 0 else lo)
        for c, (lo, _) in zip((6, 7), self.DUPLICATES):
            row = np.zeros(n)
            row[c], row[8:] = 0.9, rng.standard_normal(n - 8)
            row[8:] *= math.sqrt(1.0 - 0.81) / np.linalg.norm(row[8:])
            ties.append(row)
            want_ties.append(lo)
        ties = np.array(ties)

        rows = rng.standard_normal((2 * _TILE + 100, n))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        at = []
        for start in (_TILE - len(ties), _TILE):  # each side of a tile boundary
            rows[start : start + len(ties)] = ties
            at.extend(range(start, start + len(ties)))
        return units, rows, np.array(at), np.array(want_ties * 2)

    def test_near_ties_take_the_float64_argmax(self, monkeypatch):
        units, rows, at, want_at = self.near_tie_case()
        certified = []
        cosines = covering_module._cosines

        def spy(units_, rows_):
            certified.append(rows_.copy())
            return cosines(units_, rows_)

        monkeypatch.setattr(covering_module, "_cosines", spy)
        idx, best = _nearest(units, self.M, rows)

        cos = rows @ units.T
        assert np.array_equal(cos[at].argmax(axis=1), want_at)
        assert np.array_equal(idx[at], want_at)
        assert np.array_equal(best[at], cos[at].max(axis=1))
        assert np.array_equal(idx, cos.argmax(axis=1))
        # every near-tie row reached the certificate; most rows did not
        seen = np.concatenate(certified)
        assert all((seen == row).all(axis=1).any() for row in rows[at])
        assert len(seen) < len(rows) // 10

    def test_duplicate_centers_pick_the_lowest_index(self):
        units, rows, _, _ = self.near_tie_case()
        for c, (lo, hi) in zip((6, 7), self.DUPLICATES):
            near = rows[:, c] == 0.9
            assert near.sum() == 2 and (units[lo] == units[hi]).all()
            idx, best = _nearest(units, self.M, rows[near])
            assert (idx == lo).all() and (best == 0.9).all()

    def test_random_rows_match_the_float64_search(self):
        n, m = 64, 2 * _CENTER_CHUNK + 3
        rng = np.random.default_rng(29)
        units = rng.standard_normal((m, n))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        rows = rng.standard_normal((20_000, n))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        cos = rows @ units.T
        idx, best = _nearest(units, m, rows)
        assert np.array_equal(idx, cos.argmax(axis=1))
        # one dot product per row sums in another order than the GEMM, so
        # the cosines agree only to rounding: 4 ulps of 1, the largest cosine
        assert (np.abs(best - cos.max(axis=1)) <= 4 * np.spacing(1.0)).all()


class TestSerialization:
    def test_round_trip_bit_faithful(self, small_code, tmp_path):
        path = tmp_path / "code.json"
        save_covering(small_code, path)
        loaded = load_covering(path)
        assert loaded.n == small_code.n
        assert loaded.sigma2 == small_code.sigma2
        assert loaded.d0 == small_code.d0
        assert loaded.seed == small_code.seed
        assert np.array_equal(loaded.centers, small_code.centers)
        # a second save must produce identical bytes
        path2 = tmp_path / "code2.json"
        save_covering(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_file_is_self_describing_json(self, circle_code, tmp_path):
        path = tmp_path / "circle.json"
        save_covering(circle_code, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"n", "sigma2", "d0", "seed", "centers"}
        assert payload["n"] == 2
        assert payload["seed"] == 7

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: {k: v for k, v in p.items() if k != "centers"}, "'centers'"),
            (lambda p: {**p, "d0": "0.5"}, "'d0' must be int or float"),
            (lambda p: [p], "'n' in a JSON list"),
            (lambda p: {**p, "n": "2"}, "'n' must be int"),
            (lambda p: {**p, "n": 2.9}, "'n' must be int"),
            (lambda p: {**p, "seed": ["x"]}, "'seed' must be int or NoneType"),
        ],
    )
    def test_invalid_payload_rejected(self, circle_code, tmp_path, edit, message):
        path = tmp_path / "circle.json"
        save_covering(circle_code, path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=message):
            load_covering(path)

    def test_non_finite_shell_file_rejected(self, tmp_path):
        # json reads Infinity as a float, so only the code's own check stops it
        path = tmp_path / "inf.json"
        payload = {"n": 2, "sigma2": math.inf, "d0": 0.5, "seed": None,
                   "centers": [[math.inf, 0.0]]}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="^sigma2 must be a finite real number"):
            load_covering(path)


class TestPredictedSizeBounds:
    def test_ordering_and_reference(self):
        lo, hi = predicted_size_bounds(16, 1.0, 0.5)
        assert 0 < lo < hi
        # the certified minimum is the reciprocal upper cap bound
        assert lo == pytest.approx(1242.9, rel=1e-3)

    def test_values_where_the_cap_fraction_is_a_normal_double(self):
        assert predicted_size_bounds(8, 1.0, 0.5) == (53.0553203516523, 170.15556968692943)
        assert predicted_size_bounds(16, 1.0, 0.5) == (1242.640584035646, 3850.181029833212)
        assert predicted_size_bounds(48, 1.0, 0.5) == (144154685.65601122, 437040523.64142)

    def test_count_past_the_double_range_is_inf(self):
        # sin(theta0)^3999 = 2^-1999.5 underflows to 0
        assert predicted_size_bounds(4000, 1.0, 0.5) == (math.inf, math.inf)

    def test_built_code_exceeds_certified_minimum(self, small_code):
        lo, _ = predicted_size_bounds(8, 1.0, 0.5)
        assert small_code.size >= lo
