import math

import numpy as np
import pytest

from quadsig.analysis import (
    GaussianPair,
    _chi_square_exponents,
    angle_probability_exponent,
    chi_square_exponent,
    gaussian_test_channel,
    id_exponent,
    id_exponent_symmetric,
    id_rate,
    id_rate_symmetric,
    similarity_exponent,
)
from quadsig.analysis import test_channel_constraint_gap as channel_constraint_gap
from quadsig.analysis import test_channel_moments as channel_moments
from quadsig.analysis import test_channel_rate_bound as channel_rate_bound
from quadsig.errors import DomainError, PreconditionError

EZ_075 = 0.0271818695283015  # chi_square_exponent(0.75), 30-digit evaluation


class TestIdRate:
    def test_reference_point(self):
        assert id_rate(GaussianPair(1.0, 1.0), 1.5) == pytest.approx(2.0, abs=1e-12)

    def test_zero_at_variance_mismatch_floor(self):
        assert id_rate(GaussianPair(1.0, 0.25), 0.25) == pytest.approx(0.0, abs=1e-12)
        assert id_rate(GaussianPair(1.0, 0.25), 0.1) == 0.0

    def test_infinite_when_similarity_typical(self):
        assert id_rate(GaussianPair(1.0, 1.0), 2.0) == math.inf
        assert id_rate(GaussianPair(1.0, 1.0), 5.0) == math.inf

    def test_frozen_asymmetric_value(self):
        assert id_rate(GaussianPair(1.0, 0.6), 0.4) == pytest.approx(
            0.3684827970831031, abs=1e-13
        )

    def test_symmetric_in_variances(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a, b = rng.uniform(0.1, 4.0, 2)
            d = rng.uniform(0.0, a + b + 1.0)
            assert id_rate(GaussianPair(a, b), d) == pytest.approx(
                id_rate(GaussianPair(b, a), d), abs=1e-12
            )

    def test_nondecreasing_and_continuous_in_d(self):
        pair = GaussianPair(1.0, 0.49)
        ds = np.linspace(0.0, 1.48, 300)
        vals = [id_rate(pair, d) for d in ds]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        floor = (1.0 - 0.7) ** 2
        assert id_rate(pair, floor) == pytest.approx(0.0, abs=1e-12)
        # no discontinuity on a fine grid away from the pole at 1.49
        smooth = np.diff([id_rate(pair, d) for d in np.linspace(0.0, 1.2, 300)])
        assert smooth.max() < 0.05

    def test_maximized_at_sigma_y2_equal_sigma_x2_minus_d(self):
        d = 0.4
        grid = np.linspace(0.01, 2.0, 400)
        vals = [id_rate(GaussianPair(1.0, s), d) for s in grid]
        best = grid[int(np.argmax(vals))]
        assert best == pytest.approx(0.6, abs=grid[1] - grid[0])

    def test_symmetric_helper_matches(self):
        for d in (0.0, 0.3, 1.5, 1.99, 2.0, 3.0):
            assert id_rate_symmetric(1.0, d) == id_rate(GaussianPair(1.0, 1.0), d)

    def test_symmetric_values(self):
        assert id_rate_symmetric(1.0, 1.5) == pytest.approx(2.0, abs=1e-12)
        assert id_rate_symmetric(1.0, 0.0) == 0.0
        assert id_rate_symmetric(1.0, 2.0) == math.inf

    def test_negative_d_rejected(self):
        with pytest.raises(ValueError):
            id_rate(GaussianPair(1.0, 1.0), -0.1)

    def test_nan_d_rejected(self):
        with pytest.raises(ValueError, match="d must be nonnegative"):
            id_rate(GaussianPair(1.0, 1.0), math.nan)


class TestChiSquareExponent:
    def test_zero_only_at_one(self):
        assert chi_square_exponent(1.0) == 0.0
        for rho in (0.2, 0.8, 1.3, 4.0):
            assert chi_square_exponent(rho) > 0.0

    def test_frozen_values(self):
        assert chi_square_exponent(2.0) == pytest.approx(0.2213475204444817, abs=1e-14)
        assert chi_square_exponent(0.5) == pytest.approx(0.1393262397777591, abs=1e-14)
        assert chi_square_exponent(0.75) == pytest.approx(EZ_075, abs=1e-14)

    def test_convexity_by_random_chords(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a, b = sorted(rng.uniform(0.05, 5.0, 2))
            lam = rng.uniform(0.0, 1.0)
            mid = chi_square_exponent(lam * a + (1 - lam) * b)
            chord = lam * chi_square_exponent(a) + (1 - lam) * chi_square_exponent(b)
            assert mid <= chord + 1e-12

    def test_vectorized_grid_matches_scalar(self):
        # the scans evaluate E_Z on whole grids; np.log may round an array
        # element and a scalar differently
        rho = np.arange(1, 401) * (4.0 / 400)
        want = [chi_square_exponent(float(r)) for r in rho]
        assert _chi_square_exponents(rho) == pytest.approx(want, rel=1e-14, abs=1e-16)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            chi_square_exponent(0.0)
        with pytest.raises(ValueError):
            chi_square_exponent(-1.0)


class TestAngleProbabilityExponent:
    def test_zero_when_clamped(self):
        # z1 + z2 = d makes the law-of-cosines angle pi/2, so the sum clamps
        assert angle_probability_exponent(2.0, 2.0, 1.0, 1.0) == 0.0

    def test_infinite_rate_limit(self):
        # at infinite rate only the law-of-cosines angle remains
        c = (1.0 + 1.0 - 1.5) / 2.0
        want = -math.log2(math.sin(math.acos(c)))
        assert angle_probability_exponent(math.inf, 1.5, 1.0, 1.0) == pytest.approx(
            want, abs=1e-14
        )

    def test_frozen_value(self):
        assert angle_probability_exponent(3.0, 1.5, 1.0, 1.0) == pytest.approx(
            0.0117310375124978, abs=1e-13
        )

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            angle_probability_exponent(3.0, 10.0, 1.0, 1.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            z1, z2 = rng.uniform(0.2, 3.0, 2)
            lo = (math.sqrt(z1) - math.sqrt(z2)) ** 2
            d = rng.uniform(lo, z1 + z2)
            assert angle_probability_exponent(rng.uniform(0.5, 8.0), d, z1, z2) >= 0.0


def brute_symmetric_exponent(sigma2, d, rate, points=1_000_000):
    """Independent oracle: dense 1-D scan of the symmetric objective."""
    rho = np.linspace(d / (2 * sigma2), 1.0, points)
    z = rho * sigma2
    c = np.clip((2 * z - d) / (2 * z), -1.0, 1.0)
    ang = np.minimum(math.pi / 2, math.asin(2.0 ** (-rate)) + np.arccos(c))
    ez = (rho - 1 - np.log(rho)) / (2 * math.log(2))
    return float((2 * ez - np.log2(np.sin(ang))).min())


class TestIdExponent:
    def test_vanishes_at_identification_rate(self):
        sol = id_exponent(GaussianPair(1.0, 1.0), 1.5, 2.0 + 1e-9)
        assert 0.0 <= sol.value <= 1e-4

    def test_two_d_matches_one_d_on_symmetric_inputs(self):
        for sigma2, d, rate in ((1.0, 1.5, 3.0), (1.0, 1.5, 2.5), (2.0, 2.5, 2.0)):
            a = id_exponent(GaussianPair(sigma2, sigma2), d, rate)
            b = id_exponent_symmetric(sigma2, d, rate)
            assert a.value == pytest.approx(b.value, abs=1e-6)

    def test_against_brute_grid_oracle(self):
        got = id_exponent_symmetric(1.0, 1.5, 3.0)
        want = brute_symmetric_exponent(1.0, 1.5, 3.0)
        assert got.value <= want + 1e-9  # optimizer refines past the grid
        assert got.value == pytest.approx(want, abs=1e-7)
        assert 0.0 < got.value < EZ_075

    def test_asymmetric_against_brute_2d_grid(self):
        pair = GaussianPair(1.3, 0.7)
        d, rate = 1.1, 2.5
        g = np.linspace(0.001, 4.0, 2500)
        z1 = g[:, None] * pair.sigma_x2
        z2 = g[None, :] * pair.sigma_y2
        feas = (np.abs(np.sqrt(z1) - np.sqrt(z2)) <= math.sqrt(d)) & (z1 + z2 >= d)
        c = np.clip((z1 + z2 - d) / (2 * np.sqrt(z1 * z2)), -1, 1)
        ang = np.minimum(math.pi / 2, math.asin(2.0**-rate) + np.arccos(c))
        ez = (g - 1 - np.log(g)) / (2 * math.log(2))
        obj = np.where(feas, ez[:, None] + ez[None, :] - np.log2(np.sin(ang)), np.inf)
        brute = float(obj.min())
        sol = id_exponent(pair, d, rate)
        assert sol.value <= brute + 1e-9
        assert sol.value == pytest.approx(brute, abs=1e-6)

    def test_symmetric_minimizer_range(self):
        sol = id_exponent_symmetric(1.0, 1.5, 3.0)
        assert 0.75 <= sol.rho_x <= 1.0
        assert sol.rho_x == sol.rho_y

    def test_nondecreasing_in_rate_and_strictly_positive(self):
        pair = GaussianPair(1.0, 0.8)
        prev = -1.0
        for rate in np.linspace(2.2, 6.0, 9):
            v = id_exponent(pair, 1.2, rate).value
            assert v > 0.0
            assert v >= prev - 1e-9
            prev = v

    def test_below_similarity_exponent_with_substitution_witness(self):
        # the closed-form substitution point is feasible and already beats
        # the similarity exponent at moderate rates
        for sx2, sy2, d, rate in (
            (1.0, 1.0, 1.5, 3.0),
            (1.0, 0.6, 0.9, 2.0),
            (1.5, 0.9, 1.1, 4.0),
        ):
            pair = GaussianPair(sx2, sy2)
            total = sx2 + sy2
            ceiling = similarity_exponent(pair, d)
            rho_x = (sx2 * d + sy2 * total) / total**2
            rho_y = (sy2 * d + sx2 * total) / total**2
            z1, z2 = rho_x * sx2, rho_y * sy2
            assert abs(math.sqrt(z1) - math.sqrt(z2)) < math.sqrt(d)
            assert z1 + z2 >= d
            witness = (
                chi_square_exponent(rho_x)
                + chi_square_exponent(rho_y)
                + angle_probability_exponent(rate, d, z1, z2)
            )
            assert witness < ceiling
            sol = id_exponent(pair, d, rate)
            assert sol.value <= witness + 1e-9
            assert sol.value < ceiling

    def test_large_rate_limit_close_to_similarity_exponent(self):
        sol = id_exponent_symmetric(1.0, 1.5, 30.0)
        assert abs(sol.value - EZ_075) < 1e-3

    def test_sum_boundary_flag(self):
        # with d just below 2 sigma^2 the feasible interval pins rho near its
        # lower end, where the sum constraint binds
        sol = id_exponent_symmetric(1.0, 1.98, 8.0)
        assert sol.rho_x == pytest.approx(0.99, abs=2e-2)

    def test_rate_below_id_rate_refused(self):
        with pytest.raises(PreconditionError):
            id_exponent(GaussianPair(1.0, 1.0), 1.5, 1.9)
        with pytest.raises(PreconditionError):
            id_exponent_symmetric(1.0, 1.5, 2.0)

    def test_domain_check(self):
        with pytest.raises(DomainError):
            id_exponent(GaussianPair(1.0, 0.25), 0.2, 5.0)  # below mismatch floor
        with pytest.raises(DomainError):
            id_exponent(GaussianPair(1.0, 1.0), 2.5, 5.0)


# perfbench's EXPONENT_GRID with sigma_x2 = 1 and rate = id_rate + above, and
# the recorded solution: (sigma_y2, d, above, value, rho_x, rho_y, on the
# difference boundary, on the sum boundary).
PINNED_2D = (
    (1.0, 1.5, 1.0, 0.007114748731107979, 0.9376818275451662, 0.9376818275451662, False, False),
    (1.0, 0.02, 0.5, 0.33098991081139706, 0.9445773887634277, 0.9445773887634277, False, False),
    (1.0, 1.98, 6.0, 3.518566565201183e-05, 0.9950781249999999, 0.995078125, False, False),
    (0.5, 0.5, 0.5, 0.033941122752697526, 0.8408506965637208, 0.9728812599182131, False, False),
    (2.0, 1.0, 2.0, 0.18647734179419867, 0.8644880867004393, 0.6519861412048338, False, False),
    (0.25, 0.2501, 0.1, 0.0046393280855945625, 0.9077327919006347, 1.0408511543273926, False, False),
    (0.01, 0.8101, 0.01, 8.399672366009831e-07, 0.9984821891784665, 1.0001482772827248, False, False),
    (4.0, 4.9995, 1.0, 9.017595426152238e-10, 0.9999900054931641, 0.9999600028991698, False, False),
    (1.0, 0.5, 0.5, 0.052566957881296034, 0.8984883880615235, 0.8984883880615235, False, False),
    (0.25, 1.2, 4.0, 0.0005215784618067855, 0.9699716186523438, 0.9925288391113282, False, False),
    (4.0, 1.05, 0.5, 0.06540653418319022, 1.0740335464477546, 0.717069854736328, False, False),
    (0.5, 0.09, 2.0, 0.7976259500329094, 0.5265678024291992, 0.9233173751831055, False, False),
)

# (sigma2, d, rate, value, on the sum boundary)
PINNED_1D = (
    (1.0, 1.5, 3.0, 0.007114748731107862, False),
    (1.0, 1.98, 8.0, 1.3500768723296308e-05, False),
    (2.0, 2.5, 2.0, 0.008427211344525752, False),
    (1.0, 0.5, 0.5, 0.0024736226968115576, False),
    (0.5, 0.02, 1.0, 0.5842893643966403, False),
    (4.0, 7.9, 9.321928094887367, 4.353268234351248e-05, False),
)


class TestPinnedSolutions:
    """Both solvers reproduce their recorded solutions, so a rewrite of the
    objective or the refiner that moves a result shows here."""

    @pytest.mark.parametrize(
        "sy2, d, above, value, rho_x, rho_y, diff, tot",
        PINNED_2D,
        ids=[f"{p[0]}/{p[1]}/{p[2]}" for p in PINNED_2D],
    )
    def test_id_exponent(self, sy2, d, above, value, rho_x, rho_y, diff, tot):
        pair = GaussianPair(1.0, sy2)
        sol = id_exponent(pair, d, id_rate(pair, d) + above)
        assert sol.value == pytest.approx(value, abs=1e-12)
        assert sol.rho_x == pytest.approx(rho_x, abs=1e-9)
        assert sol.rho_y == pytest.approx(rho_y, abs=1e-9)
        assert sol.on_difference_boundary == diff
        assert sol.on_sum_boundary == tot

    @pytest.mark.parametrize(
        "sigma2, d, rate, value, tot",
        PINNED_1D,
        ids=[f"{p[0]}/{p[1]}/{p[2]:.6g}" for p in PINNED_1D],
    )
    def test_id_exponent_symmetric(self, sigma2, d, rate, value, tot):
        sol = id_exponent_symmetric(sigma2, d, rate)
        assert sol.value == pytest.approx(value, abs=1e-12)
        assert sol.on_sum_boundary == tot


class TestSimilarityExponent:
    def test_zero_at_total_variance(self):
        assert similarity_exponent(GaussianPair(1.0, 1.0), 2.0) == 0.0

    def test_reference_value(self):
        assert similarity_exponent(GaussianPair(1.0, 1.0), 1.5) == pytest.approx(
            EZ_075, abs=1e-14
        )

    def test_monotone_decreasing_in_d(self):
        pair = GaussianPair(1.0, 1.0)
        vals = [similarity_exponent(pair, d) for d in np.linspace(0.1, 2.0, 30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            similarity_exponent(GaussianPair(1.0, 1.0), 0.0)
        with pytest.raises(DomainError):
            similarity_exponent(GaussianPair(1.0, 1.0), 2.5)


class TestGaussianTestChannel:
    def test_reference_point(self):
        ch = gaussian_test_channel(1.0, 1.0, 1.0)
        assert ch.gain == pytest.approx(1.5, abs=1e-15)
        assert ch.noise_var == pytest.approx(0.75, abs=1e-15)
        cross, own = channel_moments(ch, 1.0, 1.0)
        assert cross == pytest.approx(2.0, abs=1e-12)
        assert own == pytest.approx(1.0, abs=1e-12)
        assert cross - own == pytest.approx(1.0, abs=1e-12)  # sqrt(d) here
        assert channel_rate_bound(ch, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_identities_on_random_feasible_triples(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            sx, sy = rng.uniform(0.5, 2.0, 2)
            lo, hi = (sx - sy) ** 2, sx**2 + sy**2
            d = rng.uniform(lo + 0.02 * (hi - lo), hi)
            ch = gaussian_test_channel(sx, sy, d)
            cross, own = channel_moments(ch, sx, sy)
            root = math.sqrt(d - (sx - sy) ** 2)
            assert cross == pytest.approx(2 * sx * sy / root, rel=1e-10)
            assert own == pytest.approx((sx**2 + sy**2 - d) / root, rel=1e-10)
            rate = id_rate(GaussianPair(sx**2, sy**2), d)
            assert channel_rate_bound(ch, sx, sy) == pytest.approx(
                rate, rel=1e-10, abs=1e-10
            )

    def test_constraint_gap_zero_for_the_channel(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            sx, sy = rng.uniform(0.5, 2.0, 2)
            lo, hi = (sx - sy) ** 2, sx**2 + sy**2
            d = rng.uniform(lo + 0.05 * (hi - lo), hi)
            ch = gaussian_test_channel(sx, sy, d)
            cross, own = channel_moments(ch, sx, sy)
            assert channel_constraint_gap(sx, sy, d, cross, own) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_gap_affine_in_lhs(self):
        base = channel_constraint_gap(1.0, 1.0, 1.0, 2.0, 1.0)
        assert channel_constraint_gap(1.0, 1.0, 1.0, 3.0, 1.0) == pytest.approx(
            base + 1.0, abs=1e-12
        )

    def test_gap_zero_slack_case(self):
        assert channel_constraint_gap(2.0, 1.0, 1.0, 0.7, 0.7) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_noise_pole_rejected(self):
        with pytest.raises(DomainError):
            gaussian_test_channel(2.0, 1.0, 1.0)  # d == (sx-sy)^2
        with pytest.raises(DomainError):
            gaussian_test_channel(2.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            channel_constraint_gap(2.0, 1.0, 0.5, 1.0, 1.0)
