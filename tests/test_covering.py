import hashlib
import json
import math

import numpy as np
import pytest
from oracles import greedy_covering_units

from quadsig.analysis import GaussianPair, id_rate
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
from quadsig.scheme import SchemeConfig, assign_many, plan_scheme


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
        with pytest.raises(ValueError, match=f"'{field}' must be finite"):
            build_covering(8, sigma2, d0, 1, 200)
        with pytest.raises(ValueError, match=f"'{field}' must be finite"):
            CoveringCode(n=2, sigma2=sigma2, d0=d0, centers=[[math.inf, 0.0]])

    def test_non_finite_centers_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="'centers' must be finite"):
                CoveringCode(n=2, sigma2=1.0, d0=0.5, centers=[[bad, 0.0]])

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

    def test_golden_multi_chunk_build_and_verify(self):
        # 1,398 centers span three center chunks, so late-build samples leave
        # the search early; the centers and the covered count must be those
        # of a full search.  Recorded with OpenBLAS 0.3.31 (scipy-openblas,
        # DYNAMIC_ARCH) on an x86-64 Xeon; another BLAS build may round dot
        # products differently and legitimately change them.
        pair = GaussianPair(1.0, 1.0)
        d0 = plan_scheme(pair, 0.02, id_rate(pair, 0.02) + 0.5, 40, 0.1).d0
        code = build_covering(40, 1.0, d0, 4001, 5000)
        assert code.size == 1398
        assert hashlib.sha256(code.centers.tobytes()).hexdigest() == (
            "2fcd3440fc620281b4e9ece41aaa80497a60a84ae21bc18b49d79390b5b4a159"
        )
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
    def test_matches_sample_at_a_time_greedy(self, n, d0, seed, audit):
        # The block-wise builder must add exactly the centers, in order, of a
        # walk that tests one sample at a time and stops after `audit`
        # covered samples in a row: runs that end at, or straddle, a block
        # boundary included.
        want, in_block = greedy_covering_units(n, 1.0, d0, seed, audit, _BATCH)
        code = build_covering(n, 1.0, d0, seed, audit)
        assert np.array_equal(code.centers, want * math.sqrt(n * (1.0 - d0)))
        if n == 2:
            # samples after the first block that only a center added earlier
            # in the same block covers: the builder's in-block re-check
            assert in_block > 0


class TestVerifyCovering:
    def test_single_center_coverage_matches_cap_fraction(self):
        code = make_code(6, 1.0, 0.4, [[1.0, 0, 0, 0, 0, 0]])
        rep = verify_covering(code, 200_000, seed=17)
        p = cap_fraction_exact(code.theta0, 6)
        se = math.sqrt(p * (1 - p) / 200_000)
        assert rep.sampled_coverage == pytest.approx(p, abs=3 * se)
        assert rep.sampled_coverage < 1.0

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
        with pytest.raises(ValueError, match="'sigma2' must be finite"):
            load_covering(path)


class TestPredictedSizeBounds:
    def test_ordering_and_reference(self):
        lo, hi = predicted_size_bounds(16, 1.0, 0.5)
        assert 0 < lo < hi
        # the certified minimum is the reciprocal upper cap bound
        assert lo == pytest.approx(1242.9, rel=1e-3)

    def test_built_code_exceeds_certified_minimum(self, small_code):
        lo, _ = predicted_size_bounds(8, 1.0, 0.5)
        assert small_code.size >= lo
