import hashlib
import math

import numpy as np
import pytest

import quadsig.analysis as analysis
from quadsig.analysis import (
    GaussianPair,
    _angle_exponents,
    _angle_floor,
    _chi_square_exponents,
    _program,
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

    def test_never_negative(self):
        # 2 sx sy rounds below sx2 + sy2 - d there, so the log was -1.6e-16
        assert id_rate(GaussianPair(1e300, 1e300), 1.0) == 0.0

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
        with pytest.raises(ValueError, match="^d must be a finite real number"):
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

    def test_scale_invariant_down_to_tiny_radii(self):
        # z1 z2 = 1e-400 underflows to 0; sqrt(z1) sqrt(z2) does not.  At
        # rate 1 the angle clamps at pi/2, at rate 3 it does not.
        assert angle_probability_exponent(3.0, 1.0, 1.0, 1.0) > 0.0
        for rate in (1.0, 3.0):
            want = angle_probability_exponent(rate, 1.0, 1.0, 1.0)
            for scale in (1e-200, 1e-300, 5e-324):
                assert angle_probability_exponent(rate, scale, scale, scale) == want

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

    @pytest.mark.parametrize(
        "kwargs, field",
        [({"grid": 0}, "grid"), ({"grid": -3}, "grid"), ({"grid": 2.5}, "grid"),
         ({"grid": True}, "grid"), ({"rho_max": -1.0}, "rho_max"),
         ({"rho_max": math.nan}, "rho_max"), ({"rho_max": math.inf}, "rho_max")],
    )
    def test_grid_and_rho_max_checked(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            id_exponent(GaussianPair(1.0, 1.0), 0.5, 1.0, **kwargs)

    def test_last_grid_cell_rounding_past_rho_max(self):
        # 25 * (0.4375 / 25) rounds above 0.4375; a solve that started there
        # was stuck outside the refiner's box and returned inf
        sol = id_exponent(GaussianPair(1.0, 1.0), 0.1, 8.0, rho_max=0.4375, grid=25)
        assert math.isfinite(sol.value) and sol.rho_x <= 0.4375

    def test_grid_without_a_feasible_cell_refused(self):
        with pytest.raises(DomainError, match="no feasible grid cell"):
            id_exponent(GaussianPair(1.0, 1.0), 0.5, 1.0, rho_max=0.1)


class TestPrunedScan:
    """`_minimize` evaluates the program once on the coarse grid and once on
    the rows and columns where its lower bound, the chi-square sum plus
    `_angle_floor`, can still win; it must start the compass search from the
    cell an exhaustive scan of `_program` picks, first in C order among ties."""

    @pytest.fixture(autouse=True)
    def no_refine(self, monkeypatch):
        # without the compass search a solve returns its grid start
        monkeypatch.setattr(analysis, "_refine", lambda f, x, *_: (f(*x), x))

    def test_2d_start_is_the_full_grid_argmin(self):
        rng = np.random.default_rng(1201)
        for trial in range(100):
            sx2, sy2 = rng.uniform(0.05, 3.0, 2)
            if trial % 3 == 0:
                sy2 = sx2  # a symmetric grid: its minimum ties across the diagonal
            pair = GaussianPair(float(sx2), float(sy2))
            lo, hi = (math.sqrt(sx2) - math.sqrt(sy2)) ** 2, sx2 + sy2
            d = float(rng.uniform(lo, hi))
            rate = id_rate(pair, d) + float(rng.choice([0.01, 0.1, 0.5, 2.0, 6.0]))
            grid = int(rng.choice([400, 97, 250]))
            rho_max = float(rng.choice([4.0, 1.5, 7.0]))
            rhos = np.arange(1, grid + 1) * (rho_max / grid)
            rx, ry = rhos[:, None], rhos[None, :]
            full = _program(pair, d, rate, rx, ry)
            z1, z2 = rx * pair.sigma_x2, ry * pair.sigma_y2
            assert (_angle_exponents(rate, d, z1, z2) >= 0.0).all()
            i, j = np.unravel_index(int(np.argmin(full)), full.shape)
            sol = id_exponent(pair, d, rate, rho_max, grid)
            assert (sol.rho_x, sol.rho_y) == (rhos[i], rhos[j])

    def test_1d_start_is_the_full_grid_argmin(self):
        rng = np.random.default_rng(1202)
        for _ in range(100):
            sigma2 = float(rng.uniform(0.05, 3.0))
            d = float(rng.uniform(0.001, 1.999)) * sigma2
            pair = GaussianPair(sigma2, sigma2)
            rate = id_rate(pair, d) + float(rng.choice([0.01, 0.1, 0.5, 2.0, 6.0]))
            rhos = np.linspace(d / (2.0 * sigma2), 1.0, 4001)
            full = _program(pair, d, rate, rhos, rhos)
            z = rhos * sigma2
            assert (_angle_exponents(rate, d, z, z) >= 0.0).all()
            k = int(np.argmin(full))
            sol = id_exponent_symmetric(sigma2, d, rate)
            assert (sol.rho_x, sol.rho_y) == (rhos[k], rhos[k])

    @staticmethod
    def _start_is_the_full_grid_argmin(pair, d, rate, rho_max, grid):
        """Solve on id_exponent's grid and check its start against np.argmin of
        `_program` over every cell, or its refusal where no cell is feasible;
        returns that full program."""
        rhos = np.minimum(np.arange(1, grid + 1) * (rho_max / grid), rho_max)
        full = _program(pair, d, rate, rhos[:, None], rhos[None, :])
        if np.isinf(full).all():
            with pytest.raises(DomainError, match="no feasible grid cell"):
                id_exponent(pair, d, rate, rho_max, grid)
        else:
            i, j = np.unravel_index(int(np.argmin(full)), full.shape)
            sol = id_exponent(pair, d, rate, rho_max, grid)
            assert (sol.rho_x, sol.rho_y) == (rhos[i], rhos[j])
        return full

    @pytest.mark.parametrize("grid", range(1, 8))
    def test_grid_below_the_coarse_stride(self, grid):
        # the scan's coarse grid, every 8th row and column, is then one cell
        refused = 0
        for pair, d, rate, rho_max, _ in _random_2d(40, 1210 + grid):
            full = self._start_is_the_full_grid_argmin(pair, d, rate, rho_max, grid)
            refused += bool(np.isinf(full).all())
        assert refused < 40

    def test_thin_difference_band_the_coarse_grid_misses(self):
        # d just above (sqrt(sx2) - sqrt(sy2))^2 leaves a band of feasible
        # cells that every 8th row and column can miss; the threshold is then inf
        rng = np.random.default_rng(1211)
        missed = 0
        for _ in range(60):
            sx2 = float(rng.uniform(0.2, 3.0))
            sy2 = sx2 * float(rng.uniform(0.5, 2.0))
            floor = (math.sqrt(sx2) - math.sqrt(sy2)) ** 2
            d = floor * (1.0 + float(rng.choice([1e-9, 1e-6, 1e-3])))
            grid = int(rng.integers(8, 60))
            rho_max = grid * float(rng.uniform(1.0, 3.0))
            pair = GaussianPair(sx2, sy2)
            full = self._start_is_the_full_grid_argmin(
                pair, d, id_rate(pair, d) + 0.1, rho_max, grid)
            missed += bool(np.isinf(full[::8, ::8]).all() and np.isfinite(full).any())
        assert missed >= 10

    def test_no_pass_covers_the_whole_perfbench_grid(self, monkeypatch):
        # the scan's speed: a perfbench solve makes two `_program` calls, the
        # coarse grid and the kept sub-grid, and neither sees all 400 x 400
        # cells, nor more than 5,000 at (0.5, 0.09, 2.0), whose minimum is
        # mostly angle term (0.67 of 0.798 bits): the chi-square sum alone
        # keeps 100,489 cells there
        sizes = []
        program = analysis._program

        def counted(pair, d, rate, rx, ry):
            sizes.append(np.broadcast(rx, ry).size)
            return program(pair, d, rate, rx, ry)

        monkeypatch.setattr(analysis, "_program", counted)
        for pair, d, rate, rho_max, grid in _perfbench_2d():
            sizes.clear()
            id_exponent(pair, d, rate, rho_max, grid)
            assert len(sizes) == 2 and max(sizes) < grid * grid, (pair, d, sizes)
            assert max(sizes) <= 5000 or (pair.sigma_y2, d) != (0.5, 0.09)

    def test_angle_floor_never_exceeds_the_float_term(self):
        # `_angle_floor` of a row or column must not exceed the float angle
        # term of any feasible cell in it, or the scan could drop the minimum
        problems = [(p, rho_max, grid)
                    for *p, rho_max, grid in _perfbench_2d() + _random_2d(200, 1701)]
        problems += [((GaussianPair(s, s), d, rate), 1.0, None)
                     for s, d, rate in [p[:3] for p in PINNED_1D] + _random_1d(200, 1702)]
        floor_zero = c_near_one = 0
        for (pair, d, rate), rho_max, grid in problems:
            if grid is None:  # id_exponent_symmetric's diagonal
                rx = ry = np.linspace(d / (2.0 * pair.sigma_x2), 1.0, 4001)
            else:
                rhos = np.minimum(np.arange(1, grid + 1) * (rho_max / grid), rho_max)
                rx, ry = rhos[:, None], rhos[None, :]
            z1, z2 = rx * pair.sigma_x2, ry * pair.sigma_y2
            ax, ay = _angle_floor(rate, d, z1), _angle_floor(rate, d, z2)
            feasible = np.isfinite(_program(pair, d, rate, rx, ry))
            term = _angle_exponents(rate, d, z1, z2)
            assert (np.maximum(ax, ay) <= term)[feasible].all(), (pair, d, rate)
            assert (ax[z1 <= d] == 0.0).all() and (ay[z2 <= d] == 0.0).all()
            floor_zero += int(np.sum(z1 <= d) + np.sum(z2 <= d))
            c_near_one += int(np.sum(z1 >= 100.0 * d) + np.sum(z2 >= 100.0 * d))
        # both ends of c's range: rows where z1 <= d and the floor is 0, and
        # rows where z1 >> d, c -> 1 and arccos is most sensitive to c's rounding
        assert floor_zero > 1000 and c_near_one > 1000


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


def _random_2d(count, seed):
    """Seeded id_exponent arguments (pair, d, rate, rho_max, grid); every
    third pair has equal variances, whose grid minimum ties across the
    diagonal."""
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(count):
        sx2, sy2 = (float(v) for v in rng.uniform(0.05, 3.0, 2))
        if trial % 3 == 0:
            sy2 = sx2
        pair = GaussianPair(sx2, sy2)
        lo, hi = (math.sqrt(sx2) - math.sqrt(sy2)) ** 2, sx2 + sy2
        d = float(rng.uniform(lo, hi))
        rate = id_rate(pair, d) + float(rng.choice([0.01, 0.1, 0.5, 2.0, 6.0]))
        rho_max = float(rng.choice([4.0, 1.5, 7.0]))
        out.append((pair, d, rate, rho_max, int(rng.choice([400, 97, 250]))))
    return out


def _random_1d(count, seed):
    """Seeded id_exponent_symmetric arguments (sigma2, d, rate)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        sigma2 = float(rng.uniform(0.05, 3.0))
        d = float(rng.uniform(0.001, 1.999)) * sigma2
        rate = id_rate_symmetric(sigma2, d) + float(rng.choice([0.01, 0.1, 0.5, 2.0, 6.0]))
        out.append((sigma2, d, rate))
    return out


# equal variances at which z1 z2 underflows to 0 or overflows to inf on the
# whole grid, which the solvers refuse
EXTREME_VARIANCES = (1e-200, 1e300)


def _perfbench_2d():
    """id_exponent arguments (pair, d, rate, rho_max, grid) at the PINNED_2D points."""
    pairs = [(GaussianPair(1.0, sy2), d, above) for sy2, d, above, *_ in PINNED_2D]
    return [(pair, d, id_rate(pair, d) + above, 4.0, 400) for pair, d, above in pairs]


class TestSolutionBits:
    """Every bit of both solvers' solutions, and the refiner's objective at
    every point its compass search visits, on the perfbench points, the
    pinned symmetric set and 200 seeded instances of each solver.

    The refiner's objective must equal the array program `_program` at each
    visited point inside its box (0, rho_max]^2, and be inf outside it, bit
    for bit: then its compass path, and so every solution bit, is the one the
    array program would take."""

    FINGERPRINTS = {
        "perfbench":
            "3dc2bc608c866454b2a3b96701db715dcb9de3bf87a90b95fb67111170178dca",
        "pinned_1d":
            "c332f0a5d1cf7cbdc292dc801130e4a86486c569505df24e844f796ac0b20ce8",
        "random_2d":
            "87049bca48e3c2da13a022596d4096c511bfd7960ddfc337d560626df3481429",
        "random_1d":
            "fb0d34ab51349949f772eaa579f3b2d60ad9a9fd25c024ac33ceba85eb6018a4",
    }

    @pytest.fixture(scope="class")
    def solves(self):
        """{set: [(solution, problem, rho_max, [(point, value), ...]), ...]}"""
        visits = []
        refine = analysis._refine

        def recording(f, *rest):
            def g(rx, ry):
                v = f(rx, ry)
                visits.append(((rx, ry), v))
                return v
            return refine(g, *rest)

        sets = {
            "perfbench": [(id_exponent, p) for p in _perfbench_2d()],
            "pinned_1d": [(id_exponent_symmetric, p[:3]) for p in PINNED_1D],
            "random_2d": [(id_exponent, p) for p in _random_2d(200, 1701)],
            "random_1d": [(id_exponent_symmetric, p) for p in _random_1d(200, 1702)],
        }
        out = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_refine", recording)
            for name, problems in sets.items():
                out[name] = []
                for solve, args in problems:
                    visits.clear()
                    sol = solve(*args)
                    if solve is id_exponent:
                        pair, d, rate, rho_max = (*args, 4.0)[:4]
                    else:
                        pair, d, rate, rho_max = GaussianPair(args[0], args[0]), *args[1:], 1.0
                    out[name].append((sol, (pair, d, rate), rho_max, list(visits)))
        return out

    @pytest.mark.parametrize("name", list(FINGERPRINTS))
    def test_fingerprint(self, solves, name):
        bits = "\n".join(
            f"{s.value.hex()} {s.rho_x.hex()} {s.rho_y.hex()} "
            f"{s.on_difference_boundary:d} {s.on_sum_boundary:d}"
            for s, *_ in solves[name]
        )
        assert hashlib.sha256(bits.encode()).hexdigest() == self.FINGERPRINTS[name]

    @pytest.mark.parametrize("name", list(FINGERPRINTS))
    def test_objective_is_the_array_program(self, solves, name):
        infinite = 0
        for _, (pair, d, rate), rho_max, visits in solves[name]:
            assert len(visits) >= 20
            for (rx, ry), got in visits:
                inside = 0.0 < rx <= rho_max and 0.0 < ry <= rho_max
                want = float(_program(pair, d, rate, rx, ry)) if inside else math.inf
                assert got.hex() == want.hex(), (pair, d, rate, rx, ry)
                infinite += got == math.inf
        # the 2-D searches step off the feasible set or the box, so inf is
        # checked too; the 1-D ones stay on both
        assert (infinite > 0) == (name not in ("pinned_1d", "random_1d"))

    def test_tail_point_evaluation_count(self, solves):
        # perfbench's slowest point, (0.01, 0.8101, 0.01): its compass path
        tail = solves["perfbench"][6]
        assert tail[1][0].sigma_y2 == 0.01
        assert len(tail[3]) == 3297

    def test_tail_point_evaluates_each_point_once(self, monkeypatch):
        # the compass path above revisits points; each distinct one is evaluated once
        calls = []
        program_at = analysis._program_at

        def counted(*args):
            program = program_at(*args)
            return lambda rx, ry: calls.append((rx, ry)) or program(rx, ry)

        monkeypatch.setattr(analysis, "_program_at", counted)
        id_exponent(*_perfbench_2d()[6][:3])
        assert len(calls) == len(set(calls)) <= 2378

    @pytest.mark.parametrize("v", EXTREME_VARIANCES)
    def test_extreme_variances_refused(self, v):
        # z1 z2 under- or overflows on every grid cell; the solvers returned
        # value nan at (0.03, 0.97) for 1e-200 and 0.0 at (1, 1) for 1e300
        rate = id_rate_symmetric(v, v) + 1.0
        with pytest.raises(DomainError, match="normal double range"):
            id_exponent(GaussianPair(v, v), v, rate)
        with pytest.raises(DomainError, match="normal double range"):
            id_exponent_symmetric(v, v, rate)


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
