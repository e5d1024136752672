import hashlib
import json
import math

import numpy as np
import pytest

from oracles import grid_min_distance
import quadsig.scheme as scheme_module
from quadsig.analysis import GaussianPair, id_rate
from quadsig.covering import _BATCH, _TILE, CoveringCode, _nearest, build_covering
from quadsig.errors import DomainError, PreconditionError
from quadsig.geometry import _cap_distances, min_distance_to_thick_cap
from quadsig.scheme import (
    ERASURE,
    SchemeConfig,
    Signature,
    Verdict,
    assign_many,
    assign_signature,
    cell_cap,
    load_scheme,
    plan_scheme,
    query,
    query_many,
    rate_of,
    save_scheme,
)
from quadsig.simulate import (
    SourceSpec,
    audit_admissibility,
    estimate_maybe_probability,
)

PAIR = GaussianPair(1.0, 1.0)


@pytest.fixture(scope="module")
def gain8():
    return SchemeConfig(n=8, d=0.4, sigma_x2=1.0, eta=0.1, mode="shape_gain")


class TestSchemeConfig:
    def test_basic_shell(self, basic8):
        lo, hi = basic8.shell_radii(0)
        assert lo == math.sqrt(8 * 0.85)
        assert hi == math.sqrt(8 * 1.15)
        assert basic8.num_shells == 1
        with pytest.raises(ValueError):
            basic8.shell_radii(1)

    def test_shape_gain_shells(self, gain8):
        assert gain8.sigma_max2 == 8.0
        assert gain8.num_shells == 80
        lo, hi = gain8.shell_radii(3)
        assert lo == pytest.approx(math.sqrt(8 * 3 * 0.1))
        assert hi == pytest.approx(math.sqrt(8 * 4 * 0.1))
        assert gain8.shell_radii(0)[0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeConfig(n=8, d=0.4, sigma_x2=1.0, eta=1.5, mode="basic")
        with pytest.raises(ValueError):
            SchemeConfig(n=8, d=0.4, sigma_x2=1.0, eta=0.1, mode="other")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["d", "sigma_x2", "eta", "sigma_max2"])
    def test_non_finite_field_rejected(self, name, value):
        # a non-finite eta or sigma_max2 makes num_shells zero or uncomputable
        good = dict(n=8, d=0.4, sigma_x2=1.0, eta=0.1, mode="shape_gain")
        with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
            SchemeConfig(**{**good, name: value})

    @pytest.mark.parametrize("eta", [1e-19, 1e-300])
    def test_more_than_2_53_shells_refused(self, eta):
        # past 2**53 shells the float floor(s2 / eta) cannot name every shell,
        # and assign_many's int64 shell cast overflows
        good = dict(n=8, d=0.4, sigma_x2=1.0, mode="shape_gain")
        with pytest.raises(ValueError, match=f"^eta {eta} makes more than 2\\*\\*53 shells"):
            SchemeConfig(**good, eta=eta)
        assert SchemeConfig(**good, eta=8.0 / 2**53).num_shells == 2**53

    def test_out_of_range_shell_indices_summarized(self, gain8):
        index = np.array([0, -1, 5, 80, 3] * 1000)
        with pytest.raises(ValueError) as exc:
            gain8.shell_radii(index)
        assert str(exc.value) == "2000 shell indices outside [0, 80), the first -1"


class TestAssignSignature:
    def test_center_direction_maps_to_center(self, basic8, code8):
        k = 2 % code8.size
        x = code8.centers[k] * (math.sqrt(8.0) / np.linalg.norm(code8.centers[k]))
        sig = assign_signature(basic8, code8, x)
        assert sig == Signature(center_index=k, shell_index=0)

    def test_out_of_shell_amplitude_erased(self, basic8, code8):
        x = np.full(8, math.sqrt(2.0))  # norm^2/n = 2, far above 1 + eta
        assert assign_signature(basic8, code8, x) is ERASURE
        assert assign_signature(basic8, code8, x * 1e-3) is ERASURE

    def test_shape_gain_overflow_erased(self, gain8, code8):
        x = np.full(8, 3.0)  # norm^2/n = 9 > sigma_max2 = 8
        assert assign_signature(gain8, code8, x) is ERASURE

    def test_shape_gain_shell_index_is_floor(self, gain8, code8):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.standard_normal(8) * rng.uniform(0.3, 2.0)
            sig = assign_signature(gain8, code8, x)
            if sig.is_erasure:
                continue
            s2 = float(np.dot(x, x)) / 8
            assert sig.shell_index == min(int(s2 // 0.1), 79)

    def test_cell_containment(self, basic8, gain8, code8):
        # every non-erased x must lie in its signature's thick cap
        rng = np.random.default_rng(9)
        for config in (basic8, gain8):
            hits = 0
            for _ in range(400):
                x = rng.standard_normal(8) * rng.uniform(0.8, 1.2)
                sig = assign_signature(config, code8, x)
                if sig.is_erasure:
                    continue
                hits += 1
                assert cell_cap(config, code8, sig).contains(x)
            assert hits > 50

    def test_dimension_check(self, basic8, code8):
        with pytest.raises(ValueError):
            assign_signature(basic8, code8, np.ones(5))

    def test_matches_batch_path(self, basic8, code8):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((300, 8)) * rng.uniform(0.7, 1.4, (300, 1))
        ci, si, er = assign_many(basic8, code8, X)
        for row in range(300):
            sig = assign_signature(basic8, code8, X[row])
            assert sig.is_erasure == bool(er[row])
            if not sig.is_erasure:
                assert (sig.center_index, sig.shell_index) == (ci[row], si[row])


def amplitude_live(config, X):
    s2 = np.einsum("ij,ij->i", X, X) / config.n
    if config.mode == "basic":
        lo, hi = config.sigma_x2 - config.eta, config.sigma_x2 + config.eta
        live = (s2 >= lo) & (s2 <= hi)
    else:
        live = s2 <= config.sigma_max2
    return live & (s2 > 0.0)


class TestSkipErasedRows:
    """assign_many searches only the rows that survive the amplitude test."""

    def mixed_rows(self, m, seed):
        # rows near the typical shell, except that every third row sits far
        # outside both modes' amplitude range and some rows are zero
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, 8))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        X *= math.sqrt(8.0) * rng.uniform(0.95, 1.05, (m, 1))
        X[::3] *= 4.0
        X[1::7] = 0.0
        return X

    def test_only_live_rows_searched(self, monkeypatch, basic8, gain8, code8):
        # erased rows are reported erased, with center 0
        searched = []

        def counting(units, tile):
            searched.append(tile.shape[0])
            return _nearest(units, tile)

        monkeypatch.setattr(scheme_module, "_nearest", counting)
        X = self.mixed_rows(3000, 51)
        for config in (basic8, gain8):
            searched.clear()
            live = amplitude_live(config, X)
            assert 0 < live.sum() < len(X)
            ci, _, er = assign_many(config, code8, X)
            assert sum(searched) == live.sum()
            assert max(searched) <= _TILE  # one tile per call
            assert er[~live].all()
            assert (ci[~live] == 0).all()

    def test_packed_batches_match_live_only_input(self, basic8, gain8, code8):
        X = self.mixed_rows(2 * _BATCH + 4000, 53)
        for config in (basic8, gain8):
            live = amplitude_live(config, X)
            assert live.sum() > _BATCH  # the packed rows cross a batch boundary
            ci, si, er = assign_many(config, code8, X)
            ci_l, si_l, er_l = assign_many(config, code8, X[live])
            assert np.array_equal(ci[live], ci_l)
            assert np.array_equal(si[live], si_l)
            assert np.array_equal(er[live], er_l)


class TestTileEdges:
    """assign_many and query_many work _TILE live rows at a time; every
    answer must be that of one computation on the whole block."""

    def block(self, seed):
        # live rows, except an out-of-range (E), a zero (Z), a NaN (N) and an
        # infinite (I) row around each edge of the packed live rows' tiles:
        # the 2 * _TILE + 1 live rows end in a one-row tile
        kinds = (["L"] * (_TILE - 1) + ["E", "L", "Z"] + ["L"] * (_TILE - 1)
                 + ["N", "L", "I", "L"])
        assert len(kinds) == 2 * _TILE + 5
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((len(kinds), 8))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        X *= math.sqrt(8.0) * rng.uniform(0.97, 1.03, (len(kinds), 1))
        for row, kind in enumerate(kinds):
            if kind != "L":
                X[row] = {"E": 10.0 * X[row], "Z": 0.0, "N": np.nan, "I": np.inf}[kind]
        return X, np.array([kind == "L" for kind in kinds])

    def whole_block_assign(self, config, code, X):
        live = np.flatnonzero(amplitude_live(config, X))
        units = X[live]
        units /= np.sqrt(np.einsum("ij,ij->i", X, X)[live])[:, None]
        ci, erased = np.zeros(len(X), dtype=np.int64), np.ones(len(X), dtype=bool)
        ci[live], cos_best = _nearest(code._units, units)
        erased[live] = cos_best < code.cos_theta0
        return ci, erased

    def whole_block_query(self, config, code, ci, si, er, Y):
        live = np.flatnonzero(~er & np.isfinite(np.einsum("ij,ij->i", Y, Y)))
        inner, outer = config.shell_radii(si[live])
        dist = _cap_distances(Y[live], code._units[ci[live]], code.theta0, inner, outer)
        maybe = np.ones(len(Y), dtype=bool)
        maybe[live] = ~(dist > math.sqrt(config.n * config.d))
        return maybe, live

    def test_tiles_match_whole_block(self, basic8, gain8, code8):
        X, kept = self.block(57)
        for config in (basic8, gain8):
            assert np.array_equal(amplitude_live(config, X), kept)
            ci, si, er = assign_many(config, code8, X)
            ci_ref, er_ref = self.whole_block_assign(config, code8, X)
            assert np.array_equal(ci, ci_ref) and np.array_equal(er, er_ref)
            # a center other than 0 shows that the one-row last tile was searched
            assert not er[-1] and ci[-1] != 0
            # query points near and far; a NaN, a zero, an overflowing and an
            # infinite query row lie around the edge of the first query tile
            rng = np.random.default_rng(58)
            Y = X * rng.uniform(0.8, 1.2, (len(X), 1)) + rng.standard_normal(X.shape)
            live = np.flatnonzero(~er)
            for k, y in ((-2, np.nan), (1, 0.0), (3, 1e200 * X[live[0]]), (5, np.inf)):
                Y[live[_TILE + k]] = y
            maybe = query_many(config, code8, ci, si, er, Y)
            maybe_ref, live_q = self.whole_block_query(config, code8, ci, si, er, Y)
            assert np.array_equal(maybe, maybe_ref)
            last = live_q[live_q.size // _TILE * _TILE :]
            assert 0 < last.size < _TILE
            assert maybe[last].any() and not maybe[last].all()


class TestQuery:
    def test_self_query_is_maybe(self, basic8, gain8, code8):
        rng = np.random.default_rng(41)
        for config in (basic8, gain8):
            for _ in range(100):
                x = rng.standard_normal(8)
                sig = assign_signature(config, code8, x)
                assert query(config, code8, sig, x) is Verdict.MAYBE

    def test_erasure_always_maybe(self, basic8, code8):
        rng = np.random.default_rng(43)
        for _ in range(20):
            y = rng.standard_normal(8) * rng.uniform(0.01, 50.0)
            assert query(basic8, code8, ERASURE, y) is Verdict.MAYBE

    def test_threshold_behavior_on_axis(self, basic8, code8):
        sig = Signature(center_index=0, shell_index=0)
        cap = cell_cap(basic8, code8, sig)
        axis = cap.axis / np.linalg.norm(cap.axis)
        reach = math.sqrt(8 * basic8.d)
        for eps, want in ((1e-6, Verdict.NO), (-1e-6, Verdict.MAYBE)):
            y = axis * (cap.outer_radius + reach + eps)
            assert query(basic8, code8, sig, y) is want

    def test_no_is_sound_against_grid_oracle(self, basic8, code8):
        rng = np.random.default_rng(47)
        reach = math.sqrt(8 * basic8.d)
        checked = 0
        while checked < 60:
            x = rng.standard_normal(8)
            sig = assign_signature(basic8, code8, x)
            if sig.is_erasure:
                continue
            y = rng.standard_normal(8) * rng.uniform(0.5, 3.0)
            if query(basic8, code8, sig, y) is Verdict.NO:
                cap = cell_cap(basic8, code8, sig)
                assert grid_min_distance(y, cap) > reach
                checked += 1

    def test_monotone_in_d(self, code8):
        # enlarging d never flips maybe -> no for the same signature and y
        rng = np.random.default_rng(53)
        ds = [0.2, 0.4, 0.8, 1.2]
        configs = [
            SchemeConfig(n=8, d=d, sigma_x2=1.0, eta=0.15, mode="basic") for d in ds
        ]
        for _ in range(200):
            x = rng.standard_normal(8)
            sig = assign_signature(configs[0], code8, x)
            y = rng.standard_normal(8) * rng.uniform(0.5, 2.5)
            verdicts = [query(c, code8, sig, y) for c in configs]
            seen_maybe = False
            for v in verdicts:
                if v is Verdict.MAYBE:
                    seen_maybe = True
                else:
                    assert not seen_maybe

    def test_query_matches_geometry_reference(self, basic8, gain8, code8):
        rng = np.random.default_rng(59)
        for config in (basic8, gain8):
            for _ in range(200):
                x = rng.standard_normal(8) * rng.uniform(0.8, 1.3)
                sig = assign_signature(config, code8, x)
                if sig.is_erasure:
                    continue
                y = rng.standard_normal(8) * rng.uniform(0.3, 3.0)
                want = (
                    min_distance_to_thick_cap(y, cell_cap(config, code8, sig))
                    <= math.sqrt(config.n * config.d)
                )
                got = query(config, code8, sig, y) is Verdict.MAYBE
                assert got == want

    def test_admissibility_mini_audit(self, basic8, gain8, code8):
        rng = np.random.default_rng(61)
        for config in (basic8, gain8):
            X = rng.standard_normal((20_000, 8))
            U = rng.standard_normal((20_000, 8))
            U /= np.linalg.norm(U, axis=1, keepdims=True)
            r = math.sqrt(8 * config.d) * rng.uniform(0, 1, 20_000) ** (1 / 8)
            Y = X + r[:, None] * U
            ci, si, er = assign_many(config, code8, X)
            maybe = query_many(config, code8, ci, si, er, Y)
            dxy = ((X - Y) ** 2).sum(axis=1) / 8
            similar = dxy <= config.d
            assert not (similar & ~maybe).any()


class TestRateOf:
    def test_basic_rate(self):
        code = _dummy_code(4, 15)
        config = SchemeConfig(n=4, d=0.5, sigma_x2=1.0, eta=0.2, mode="basic")
        assert rate_of(config, code) == pytest.approx(1.0)

    def test_shape_gain_rate(self):
        code = _dummy_code(4, 15)
        # sigma_max2 = 4 * 1.0625 = 4.25 with eta = 0.25 gives exactly 17 shells
        config = SchemeConfig(
            n=4, d=0.5, sigma_x2=1.0625, eta=0.25, mode="shape_gain"
        )
        assert config.num_shells == 17
        assert rate_of(config, code) == pytest.approx(2.0)

    def test_rate_decreases_with_coarser_covering(self):
        config = SchemeConfig(n=8, d=0.4, sigma_x2=1.0, eta=0.15, mode="basic")
        rates = [
            rate_of(config, build_covering(8, 1.0, d0, seed=3, audit_samples=20_000))
            for d0 in (0.3, 0.5, 0.7)
        ]
        assert rates[0] > rates[1] > rates[2]


def _dummy_code(n, m):
    rng = np.random.default_rng(m)
    units = rng.standard_normal((m, n))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    from quadsig.covering import CoveringCode

    return CoveringCode(
        n=n, sigma2=1.0, d0=0.5, centers=units * math.sqrt(n * 0.5)
    )


class TestPlanScheme:
    def test_reference_plan(self):
        plan = plan_scheme(PAIR, 1.5, 3.0, n=16, epsilon=0.05)
        b = (2.0 - 2 * plan.config.eta - 1.5) / (
            2 * math.sqrt((1 + plan.config.eta) ** 2)
        )
        lo, hi = 0.95 * b * b, b * b
        assert lo < plan.d0 < hi
        assert plan.theta_prime < math.pi / 2
        assert plan.theta0 == math.asin(math.sqrt(plan.d0))
        assert plan.theta1 == pytest.approx(math.acos(b), abs=1e-12)

    def test_small_epsilon_limit_approaches_id_rate(self):
        plan = plan_scheme(PAIR, 1.5, 3.0, n=16, epsilon=1e-6)
        assert plan.d0 == pytest.approx(0.0625, rel=1e-3)
        assert plan.predicted_rate == pytest.approx(2.0, abs=2e-3)

    def test_eta_caps_at_quarter_variance(self):
        # small d keeps the bracket positive all the way to eta = sigma_x2/4
        plan = plan_scheme(PAIR, 0.1, 8.0, n=16, epsilon=0.9)
        assert plan.config.eta == pytest.approx(0.25, abs=1e-9)

    def test_eta_from_bisection_when_bracket_collapses(self):
        plan = plan_scheme(PAIR, 1.5, 8.0, n=16, epsilon=0.9)
        eta = plan.config.eta
        b = (0.5 - 2 * eta) / (2 * (1 + eta))
        assert b * b == pytest.approx(0.1 * 0.25**2, rel=1e-6)

    def test_refusals(self):
        with pytest.raises(PreconditionError):
            plan_scheme(PAIR, 1.5, 2.0, n=16, epsilon=0.05)
        with pytest.raises(PreconditionError):
            # epsilon so large the predicted rate overshoots the target
            plan_scheme(PAIR, 1.5, 2.01, n=16, epsilon=0.9)
        with pytest.raises(DomainError):
            plan_scheme(PAIR, 2.5, 9.0, n=16, epsilon=0.1)
        with pytest.raises(ValueError):
            plan_scheme(PAIR, 1.5, 3.0, n=16, epsilon=1.5)

    def test_shape_gain_plan_counts_shell_rate(self):
        plan = plan_scheme(PAIR, 1.5, 3.0, n=16, epsilon=0.05, mode="shape_gain")
        base = 0.5 * math.log2(1.0 / plan.d0)
        assert plan.predicted_rate == pytest.approx(
            base + math.log2(plan.config.num_shells) / 16
        )
        assert plan.config.sigma_max2 == 16.0


class TestSerialization:
    def test_round_trip(self, tmp_path, basic8, code8):
        path = tmp_path / "scheme.json"
        save_scheme(basic8, code8, path)
        config, code = load_scheme(path)
        assert config == basic8
        assert np.array_equal(code.centers, code8.centers)
        payload = json.loads(path.read_text())
        assert set(payload) == {"scheme", "covering"}
        assert set(payload["scheme"]) == {
            "n", "d", "sigma_x2", "eta", "mode", "sigma_max2", "d0",
        }

    def test_mismatched_covering_rejected(self, tmp_path, basic8, code8):
        path = tmp_path / "scheme.json"
        save_scheme(basic8, code8, path)
        for key, value in (("n", 16), ("d0", 0.25)):
            payload = json.loads(path.read_text())
            payload["scheme"][key] = value
            edited = tmp_path / f"edited_{key}.json"
            edited.write_text(json.dumps(payload))
            with pytest.raises(ValueError) as exc:
                load_scheme(edited)
            assert f"{key}={value}" in str(exc.value)
            assert f"{key}={getattr(code8, key)}" in str(exc.value)

    def test_invalid_field_rejected(self, tmp_path, basic8, code8):
        path = tmp_path / "scheme.json"
        save_scheme(basic8, code8, path)
        edits = (
            (lambda p: p["scheme"].pop("eta"), "'eta'"),
            (lambda p: p["scheme"].update(mode=1), "'mode'"),
            (lambda p: p["covering"].update(sigma2=None), "'sigma2'"),
            (lambda p: p.pop("covering"), "'covering'"),
        )
        for edit, name in edits:
            payload = json.loads(path.read_text())
            edit(payload)
            edited = tmp_path / "edited.json"
            edited.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match=name):
                load_scheme(edited)

    def test_non_finite_field_rejected(self, tmp_path, gain8, code8):
        # JSON's Infinity and NaN parse as floats, so the type check passes them
        path = tmp_path / "scheme.json"
        save_scheme(gain8, code8, path)
        for key, value in (("eta", math.inf), ("sigma_max2", math.nan)):
            payload = json.loads(path.read_text())
            payload["scheme"][key] = value
            edited = tmp_path / f"edited_{key}.json"
            edited.write_text(json.dumps(payload))
            assert f'"{key}": {json.dumps(value)}' in edited.read_text()
            with pytest.raises(ValueError, match=f"^{key} must be a finite real number"):
                load_scheme(edited)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteInput:
    """A non-finite query point never gets "no"; a non-finite x is erased."""

    def live_signature(self, config, code):
        x = code.centers[0] * (math.sqrt(8.0) / np.linalg.norm(code.centers[0]))
        sig = assign_signature(config, code, x)
        assert not sig.is_erasure
        return sig, x

    def bad_points(self):
        one_nan = np.ones(8)
        one_nan[3] = np.nan
        return np.vstack([np.full(8, np.nan), np.full(8, np.inf), one_nan])

    def test_batch_query_answers_maybe(self, basic8, gain8, code8):
        for config in (basic8, gain8):
            sig, x = self.live_signature(config, code8)
            Y = np.vstack([self.bad_points(), -x])
            m = Y.shape[0]
            maybe = query_many(
                config,
                code8,
                np.full(m, sig.center_index),
                np.full(m, sig.shell_index),
                np.zeros(m, dtype=bool),
                Y,
            )
            # the finite antipodal point shows the rows are live
            assert maybe.tolist() == [True, True, True, False]
            # with that row erased, no row is left to reach the cap distance
            erased = np.arange(m) == m - 1
            assert query_many(config, code8, np.full(m, sig.center_index),
                              np.full(m, sig.shell_index), erased, Y).all()
        # a zero query row lies its cell's inner radius away: sqrt(8 * 0.85),
        # beyond sqrt(8 * 0.4), in basic mode; 0 in shape_gain shell 0
        zero = np.zeros((1, 8))
        assert query_many(basic8, code8, [0], [0], [False], zero).tolist() == [False]
        assert query_many(gain8, code8, [0], [0], [False], zero).tolist() == [True]

    def test_overflowing_query_answers_maybe(self, basic8, code8):
        sig, x = self.live_signature(basic8, code8)
        maybe = query_many(
            basic8,
            code8,
            np.full(2, sig.center_index),
            np.full(2, sig.shell_index),
            np.zeros(2, dtype=bool),
            np.vstack([1e200 * x, -x]),  # the first squared norm overflows
        )
        assert maybe.tolist() == [True, False]

    def test_scalar_query_rejects(self, basic8, code8):
        sig, _ = self.live_signature(basic8, code8)
        for y in self.bad_points():
            with pytest.raises(ValueError, match="non-finite"):
                query(basic8, code8, sig, y)

    def test_nan_x_is_erased(self, basic8, gain8, code8):
        for config in (basic8, gain8):
            for x in self.bad_points():
                assert assign_signature(config, code8, x) is ERASURE


class TestSeededAssignment:
    """assign_many's outputs on seeded rows, pinned by SHA-256 so that a
    change to the nearest-center kernel cannot move one row unnoticed.

    The n = 40 plan's covering (seed 4001) has 1,398 centers, more than
    2 * _CENTER_CHUNK, so the search crosses two chunk boundaries and ends in
    a partial chunk; 16,384 rows cross fifteen row-tile boundaries."""

    FINGERPRINTS = {
        ("basic", "gaussian", 71):
            "994e75577a7dff1ef7e01279cc7cc371c553892b00486430599586cd39b4da1e",
        ("shape_gain", "laplace", 72):
            "d79ac9c5e0be69ad59ba0449ff3150aeda0ea776ea969dc93556cd2a3d4a6f2e",
    }

    @pytest.mark.parametrize("mode, family, seed", list(FINGERPRINTS))
    def test_fingerprint(self, code40, mode, family, seed):
        assert code40.size == 1398
        plan = plan_scheme(PAIR, 0.02, id_rate(PAIR, 0.02) + 0.5, 40, 0.1, mode=mode)
        assert plan.d0 == code40.d0
        X = SourceSpec(family, 1.0).draw(np.random.default_rng(seed), (16_384, 40))
        ci, _, er = assign_many(plan.config, code40, X)
        assert (~er).sum() > 1000
        digest = hashlib.sha256(ci.tobytes() + er.tobytes()).hexdigest()
        assert digest == self.FINGERPRINTS[mode, family, seed]


class TestBatchShapes:
    """The batch calls refuse rows of the wrong width with a ValueError that
    names the expected shape, whether or not some row survives amplitude."""

    def test_assign_many_rejects_wrong_width(self, basic8, gain8, code8):
        for config in (basic8, gain8):
            for X in (np.ones((5, 7)), np.ones((5, 9)), np.zeros((5, 9)),
                      np.ones(8), np.ones((2, 5, 8))):
                with pytest.raises(ValueError, match=r"\(rows, 8\)"):
                    assign_many(config, code8, X)

    def test_query_many_rejects_wrong_shape(self, basic8, code8):
        ci = si = np.zeros(3, dtype=np.int64)
        er = np.zeros(3, dtype=bool)
        for Y in (np.ones((3, 7)), np.ones((3, 9)), np.ones((2, 8)), np.ones(8)):
            with pytest.raises(ValueError, match=r"\(3, 8\)"):
                query_many(basic8, code8, ci, si, er, Y)
        with pytest.raises(ValueError, match=r"\(3, 8\)"):
            query_many(basic8, code8, ci, si, np.ones(3, dtype=bool), np.ones((3, 9)))

    def test_empty_batches_pass(self, basic8, code8):
        ci, si, er = assign_many(basic8, code8, np.empty((0, 8)))
        assert ci.shape == si.shape == er.shape == (0,)
        assert query_many(basic8, code8, ci, si, er, np.empty((0, 8))).shape == (0,)


class TestDimensionMismatch:
    """A scheme and a covering of different n are refused with both n named,
    not deep inside numpy: here SchemeConfig(n=8) against a covering of
    n = 4."""

    MESSAGE = "^scheme has n=8 but its covering has n=4$"

    def test_batch_calls(self, basic8, gain8):
        code4 = _dummy_code(4, 17)
        ci = si = np.zeros(3, dtype=np.int64)
        er = np.zeros(3, dtype=bool)
        for config in (basic8, gain8):
            with pytest.raises(ValueError, match=self.MESSAGE):
                assign_many(config, code4, np.ones((3, 8)))
            with pytest.raises(ValueError, match=self.MESSAGE):
                query_many(config, code4, ci, si, er, np.ones((3, 8)))

    def test_cell_cap(self, basic8, gain8):
        # the cap came back with a 4-dimensional axis and n = 8 radii
        code4 = _dummy_code(4, 17)
        for config in (basic8, gain8):
            with pytest.raises(ValueError, match=self.MESSAGE):
                cell_cap(config, code4, Signature(0, 0))

    def test_monte_carlo_entry_points(self, basic8):
        code4 = _dummy_code(4, 17)
        g = SourceSpec("gaussian", 1.0)
        with pytest.raises(ValueError, match=self.MESSAGE):
            estimate_maybe_probability(basic8, code4, g, g, 100, 1)
        with pytest.raises(ValueError, match=self.MESSAGE):
            audit_admissibility(basic8, code4, g, 100, 1)


class TestQueryIndexValidation:
    """query_many refuses index arrays it cannot trust: the wrong shape or
    dtype, a misshapen erased, or a live row naming a center outside
    [0, code.size)."""

    @pytest.fixture
    def six(self, basic8, code8):
        # six center directions at the typical radius: all live, all maybe
        X = code8._units[:6] * math.sqrt(8.0)
        ci, si, er = assign_many(basic8, code8, X)
        assert not er.any()
        assert query_many(basic8, code8, ci, si, er, X + 0.01).all()
        return ci, si, er, X + 0.01

    @pytest.mark.parametrize("index", [-1, -6, "size"])
    def test_out_of_range_center_on_live_rows(self, basic8, code8, six, index):
        ci, si, er, Y = six
        index = code8.size if index == "size" else index
        with pytest.raises(ValueError, match=rf"6 center indices .* the first {index}$"):
            query_many(basic8, code8, np.full(6, index), si, er, Y)

    def test_out_of_range_center_on_erased_rows_ignored(self, basic8, code8, six):
        ci, si, er, Y = six
        er = er.copy()
        er[2] = True
        ci = ci.copy()
        ci[2] = -1
        assert query_many(basic8, code8, ci, si, er, Y).all()

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("length", [5, 7, (6, 1)])
    def test_index_shape(self, basic8, code8, six, which, length):
        arrays = list(six[:2])
        arrays[which] = np.zeros(length, dtype=np.int64)
        name = ("centers_idx", "shells_idx")[which]
        with pytest.raises(ValueError, match=rf"{name} of shape \(6,\)"):
            query_many(basic8, code8, *arrays, six[2], six[3])

    @pytest.mark.parametrize("which, dtype", [(0, float), (0, bool), (1, float), (1, bool)])
    def test_index_dtype(self, basic8, code8, six, which, dtype):
        # a float or bool centers_idx raised IndexError, and a shells_idx of
        # 0.5, or of True in shape_gain mode, was used to build a cap
        arrays = list(six[:2])
        arrays[which] = np.full(6, 0.5 if dtype is float else True, dtype=dtype)
        name = ("centers_idx", "shells_idx")[which]
        with pytest.raises(ValueError, match=rf"{name} .* integer dtype"):
            query_many(basic8, code8, *arrays, six[2], six[3])

    @pytest.mark.parametrize("shape", [(), (6, 1), (1, 6)])
    def test_erased_must_be_1d(self, basic8, code8, six, shape):
        # a 0-d erased raised TypeError, a 2-D one numpy's axis-remapping error
        ci, si, er, Y = six
        with pytest.raises(ValueError, match="1-D erased"):
            query_many(basic8, code8, ci, si, np.zeros(shape, dtype=bool), Y)

    def test_basic_shell_index_summarized(self, basic8):
        with pytest.raises(ValueError) as exc:
            basic8.shell_radii(np.array([0, 1, 0, -2]))
        assert str(exc.value) == "2 shell indices outside [0, 1), the first 1"

    @pytest.mark.parametrize("index", [-1, "size"])
    def test_cell_cap_refuses_out_of_range_center(self, basic8, code8, index):
        # -1 once wrapped to the last center's cap, and code.size raised an
        # IndexError
        index = code8.size if index == "size" else index
        with pytest.raises(ValueError, match="^center_index must be an integer"):
            cell_cap(basic8, code8, Signature(index, 0))


def _knife_edge_pairs(n, pairs, rng):
    """ROADMAP item 1's knife-edge construction for a one-center code (sigma2
    = 1, d0 = 0.5, center on e1): x just inside the cap's edge and just inside
    one face of the basic shell (d = 0.02, eta = 0.2), and y at distance
    sqrt(n d)(1 + U(-4e-16, 4e-16)) from x, pointing out of the cell."""
    config = SchemeConfig(n=n, d=0.02, sigma_x2=1.0, eta=0.2)
    center = np.zeros(n)
    center[0] = math.sqrt(n * 0.5)
    code = CoveringCode(n=n, sigma2=1.0, d0=0.5, centers=center[None, :])
    # a random plane through e1: e1 and a unit v orthogonal to it
    v = rng.standard_normal((pairs, n))
    v[:, 0] = 0.0
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    e1 = np.eye(n)[0]
    angle = code.theta0 * (1.0 - rng.uniform(0.0, 1e-13, pairs))
    unit = np.cos(angle)[:, None] * e1 + np.sin(angle)[:, None] * v
    outward = -np.sin(angle)[:, None] * e1 + np.cos(angle)[:, None] * v
    inner, outer = config.shell_radii(0)
    on_outer = rng.random(pairs) < 0.5
    radius = np.where(on_outer, outer * (1.0 - 1e-15), inner * (1.0 + 1e-15))
    X = radius[:, None] * unit
    w = rng.uniform(0.05, 0.95, pairs)[:, None]
    U = w * np.where(on_outer, 1.0, -1.0)[:, None] * unit + (1.0 - w) * outward
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    step = math.sqrt(n * config.d) * (1.0 + rng.uniform(-4e-16, 4e-16, pairs))
    return config, code, X, X + step[:, None] * U


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the cap-distance query has no outward margin for "
    "its own rounding, so float-similar pairs on a cell's edge can get 'no'",
)
@pytest.mark.parametrize("n", [8, 16, 64])
def test_knife_edge_pairs_get_no_false_negative(n):
    config, code, X, Y = _knife_edge_pairs(n, 20_000, np.random.default_rng(n))
    ci, si, er = assign_many(config, code, X)
    assert er.mean() < 0.01  # the few x that round out of the cell answer maybe
    no = ~query_many(config, code, ci, si, er, Y)
    diff = X - Y
    similar = np.einsum("ij,ij->i", diff, diff) / n <= config.d
    assert np.count_nonzero(no & similar) == 0
