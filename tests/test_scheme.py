import json
import math

import numpy as np
import pytest

from oracles import grid_min_distance
import quadsig.scheme as scheme_module
from quadsig.analysis import GaussianPair, id_rate
from quadsig.covering import _BATCH, _nearest, build_covering
from quadsig.errors import DomainError, PreconditionError
from quadsig.geometry import min_distance_to_thick_cap
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

PAIR = GaussianPair(1.0, 1.0)


@pytest.fixture(scope="module")
def code8():
    return build_covering(8, 1.0, 0.3, seed=5, audit_samples=50_000)


@pytest.fixture(scope="module")
def basic8():
    return SchemeConfig(n=8, d=0.4, sigma_x2=1.0, eta=0.15, mode="basic")


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
        with pytest.raises(ValueError, match=f"^'{name}' must be finite"):
            SchemeConfig(**{**good, name: value})

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

        def counting(units, m, block):
            searched.append(block.shape[0])
            return _nearest(units, m, block)

        monkeypatch.setattr(scheme_module, "_nearest", counting)
        X = self.mixed_rows(3000, 51)
        for config in (basic8, gain8):
            searched.clear()
            live = amplitude_live(config, X)
            assert 0 < live.sum() < len(X)
            ci, _, er = assign_many(config, code8, X)
            assert sum(searched) == live.sum()
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
            with pytest.raises(ValueError, match=f"'{key}' must be finite"):
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
