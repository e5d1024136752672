import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quadsig
from quadsig.errors import DomainError
from quadsig.geometry import (
    CapFractionBounds,
    CapSpec,
    angle_between,
    cap_fraction_bounds,
    cap_fraction_exact,
    expansion_cone_angle,
    law_of_cosines_angle,
    min_distance_to_thick_cap,
)


from oracles import grid_min_distance, plane_distances


class TestAngleBetween:
    def test_identical_directions(self):
        x = np.array([1.0, 2.0, -3.0])
        assert angle_between(x, x) == 0.0
        assert angle_between(x, 2.5 * x) == 0.0

    def test_orthogonal_axes(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        assert angle_between(e1, e2) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_antipodal(self):
        e1 = np.array([1.0, 0.0, 0.0])
        assert angle_between(e1, -e1) == pytest.approx(math.pi, abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, y = rng.standard_normal((2, 5))
            assert angle_between(x, y) == angle_between(y, x)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            angle_between(np.zeros(3), np.ones(3))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            angle_between(np.ones(3), np.ones(4))

    def test_cosine_clamped_against_rounding(self):
        # nearly identical unit vectors can give dot products above 1
        x = np.full(64, 1.0) / 8.0
        y = x * (1.0 + 1e-16)
        assert angle_between(x, y) >= 0.0

    def test_power_of_two_scaling_keeps_the_bits(self):
        # scaling is exact, also where |x|^2 or <x, y> leaves the double range
        # (once pi for parallel vectors of 1e200, and a refusal at 1e-200)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y = rng.standard_normal((2, 4))
            want = angle_between(x, y)
            for j, k in itertools.product((-600, 0, 600), repeat=2):
                assert angle_between(np.ldexp(x, j), np.ldexp(y, k)) == want

    def test_triangle_inequality_for_angles(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = rng.integers(2, 9)
            u, x, y = rng.standard_normal((3, n))
            assert angle_between(u, y) <= (
                angle_between(u, x) + angle_between(x, y) + 1e-12
            )


class TestCapFractionBounds:
    def test_sandwiches_exact_and_monte_carlo(self):
        theta, n = 0.8, 10
        b = cap_fraction_bounds(theta, n)
        exact = cap_fraction_exact(theta, n)
        assert b.lower < exact < b.upper
        rng = np.random.default_rng(42)
        pts = rng.standard_normal((1_000_000, n))
        cosines = pts[:, 0] / np.linalg.norm(pts, axis=1)
        p_hat = float((cosines >= math.cos(theta)).mean())
        assert b.lower < p_hat < b.upper

    def test_hypothesis_boundary_rejected(self):
        with pytest.raises(DomainError):
            cap_fraction_bounds(math.acos(1.0 / math.sqrt(4)), 4)
        with pytest.raises(DomainError):
            cap_fraction_bounds(0.0, 8)
        with pytest.raises(DomainError):
            cap_fraction_bounds(1.5, 1)

    def test_ratio_independent_of_theta(self):
        rng = np.random.default_rng(3)
        for n in (4, 10, 33):
            limit = math.acos(1.0 / math.sqrt(n))
            want = math.sqrt((n - 1) / n) / 3.0
            for _ in range(20):
                theta = rng.uniform(0.05, limit * 0.99)
                b = cap_fraction_bounds(theta, n)
                assert b.lower / b.upper == pytest.approx(want, rel=1e-12)

    def test_bounds_ordered(self):
        b = cap_fraction_bounds(0.5, 12)
        assert isinstance(b, CapFractionBounds)
        assert 0.0 <= b.lower < b.upper <= 1.0


class TestCapFractionExact:
    def test_hemisphere_is_half(self):
        for n in (2, 3, 7, 24, 111):
            assert cap_fraction_exact(math.pi / 2, n) == pytest.approx(0.5, abs=1e-12)

    def test_full_sphere_is_one(self):
        for n in (2, 5, 50):
            assert cap_fraction_exact(math.pi, n) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_value(self):
        # independently computed with 30-digit quadrature
        assert cap_fraction_exact(0.8, 10) == pytest.approx(
            0.00860444589027897, abs=1e-10
        )

    def test_matches_monte_carlo(self):
        theta, n = 0.8, 10
        p = cap_fraction_exact(theta, n)
        rng = np.random.default_rng(2024)
        pts = rng.standard_normal((1_000_000, n))
        cosines = pts[:, 0] / np.linalg.norm(pts, axis=1)
        p_hat = float((cosines >= math.cos(theta)).mean())
        se = math.sqrt(p * (1 - p) / 1_000_000)
        assert abs(p_hat - p) <= 3 * se

    def test_strictly_increasing(self):
        # strict growth where increments are resolvable in float64; at high n
        # the fraction saturates at 1 within rounding as theta approaches pi
        for n in (2, 6, 20):
            thetas = np.linspace(0.05, 2.4, 40)
            vals = [cap_fraction_exact(t, n) for t in thetas]
            assert all(a < b for a, b in zip(vals, vals[1:]))
        tail = [cap_fraction_exact(t, 20) for t in np.linspace(2.4, math.pi, 10)]
        assert all(a <= b for a, b in zip(tail, tail[1:]))

    def test_exact_inside_two_sided_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(2, 40))
            limit = math.acos(1.0 / math.sqrt(n))
            theta = rng.uniform(0.02, limit * 0.999)
            b = cap_fraction_bounds(theta, n)
            x = cap_fraction_exact(theta, n)
            assert b.lower < x < b.upper

    @pytest.mark.parametrize("n", [2, 3, 40, 512])
    def test_matches_40_digit_quadrature(self, n):
        # mpmath integrates the colatitude density sin^(n-2) piecewise at
        # pi/2, where it peaks for large n; angles straddle pi/2, including
        # 1e-6 either side, where sin^2 theta rounds to within 1e-12 of 1
        import mpmath

        def density(phi):
            return mpmath.sin(phi) ** (n - 2)

        with mpmath.workdps(40):
            half_pi = mpmath.pi / 2
            total = mpmath.quad(density, [0, half_pi, mpmath.pi])
            for theta in (1e-6, 0.3, 1.0, math.pi / 2 - 1e-6, math.pi / 2,
                          math.pi / 2 + 1e-6, 2.0, 2.5, 3.0, math.pi - 1e-6):
                t = mpmath.mpf(theta)
                cuts = [0, half_pi, t] if t > half_pi else [0, t]
                want = mpmath.quad(density, cuts) / total
                got = cap_fraction_exact(theta, n)
                assert abs(got - want) <= 1e-13, (theta, got, want)

    def test_circle_case_is_linear(self):
        # n = 2 density is flat, so the fraction is theta / pi
        assert cap_fraction_exact(0.3, 2) == pytest.approx(0.3 / math.pi, abs=1e-12)

    def test_import_quadsig_leaves_scipy_unloaded(self):
        # scipy.integrate would be most of the package's import time, and
        # only this function needs it, so it is imported on the first call
        src = str(Path(quadsig.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", "import sys, quadsig; print('scipy' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"


class TestLawOfCosinesAngle:
    def test_right_angle(self):
        assert law_of_cosines_angle(1.0, 1.0, 2.0) == pytest.approx(
            math.pi / 2, abs=1e-15
        )

    def test_coincident(self):
        assert law_of_cosines_angle(1.0, 1.0, 0.0) == 0.0

    def test_frozen_value(self):
        assert law_of_cosines_angle(1.0, 0.6, 0.4) == pytest.approx(
            0.6847192030022827, abs=1e-14
        )

    def test_against_planar_triangle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = rng.uniform(0.2, 2.0, 2)
            qq = rng.uniform(0.2, 2.0, 2)
            z1 = float(np.dot(p, p))
            z2 = float(np.dot(qq, qq))
            d = float(np.dot(p - qq, p - qq))
            got = law_of_cosines_angle(z1, z2, d)
            assert got == pytest.approx(angle_between(p, qq), abs=1e-9)

    def test_scale_invariant_down_to_tiny_sides(self):
        # z1 z2 = 1e-400 underflows to 0; sqrt(z1) sqrt(z2) does not
        want = law_of_cosines_angle(1.0, 1.0, 1.0)
        assert want == pytest.approx(math.pi / 3, abs=1e-15)
        for scale in (1e-200, 1e-300, 5e-324):
            assert law_of_cosines_angle(scale, scale, scale) == want

    def test_infeasible_triangle_rejected(self):
        with pytest.raises(DomainError):
            law_of_cosines_angle(1.0, 1.0, 10.0)
        with pytest.raises(DomainError):
            law_of_cosines_angle(4.0, 0.25, 0.3)


class TestExpansionConeAngle:
    def test_right_angle_degeneration(self):
        # vanishing shell width with d at the sum of variances
        res = expansion_cone_angle(2.0, 1.0, 1.0, 1e-12, 0.3)
        assert res.theta1 == pytest.approx(math.pi / 2, abs=1e-9)
        assert res.theta_prime == pytest.approx(0.3 + math.pi / 2, abs=1e-9)
        assert not res.acute

    def test_frozen_value(self):
        res = expansion_cone_angle(1.5, 1.0, 1.0, 0.01, 0.25)
        assert res.theta_prime == pytest.approx(1.5808775171422038, abs=1e-12)
        assert not res.acute

    def test_recheck_with_law_of_cosines(self):
        # the shrunken bracket is the law-of-cosines angle with inflated sides
        d, sx2, sy2, eta = 0.7, 1.2, 0.9, 0.03
        res = expansion_cone_angle(d, sx2, sy2, eta, 0.4)
        via_triangle = law_of_cosines_angle(sx2 + eta, sy2 + eta, d + 4 * eta)
        assert res.theta1 == pytest.approx(via_triangle, abs=1e-12)

    def test_monotone_in_d(self):
        prev = None
        for d in np.linspace(0.3, 1.9, 15):
            t1 = expansion_cone_angle(d, 1.0, 1.0, 0.01, 0.25).theta1
            if prev is not None:
                assert t1 > prev
            prev = t1

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            expansion_cone_angle(10.0, 1.0, 1.0, 0.01, 0.25)
        with pytest.raises(DomainError):
            expansion_cone_angle(1.5, 1.0, 1.0, -0.1, 0.25)
        with pytest.raises(DomainError):
            expansion_cone_angle(1.5, 1.0, 1.0, 0.01, 1.6)


class TestMinDistanceToThickCap:
    def cap(self, n=6, half=0.6, inner=2.0, outer=3.0):
        axis = np.zeros(n)
        axis[0] = 1.0
        return CapSpec(axis=axis, half_angle=half, inner_radius=inner, outer_radius=outer)

    def test_on_axis_beyond_outer(self):
        cap = self.cap()
        y = np.zeros(6)
        y[0] = 5.0
        assert min_distance_to_thick_cap(y, cap) == pytest.approx(2.0, abs=1e-12)

    def test_inside_is_zero(self):
        cap = self.cap()
        y = np.zeros(6)
        y[0] = 2.5 * math.cos(0.3)
        y[1] = 2.5 * math.sin(0.3)
        assert min_distance_to_thick_cap(y, cap) == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            min_distance_to_thick_cap(np.zeros(6), self.cap())

    def test_wide_cap_rejected(self):
        axis = np.array([1.0, 0.0])
        cap = CapSpec(axis=axis, half_angle=2.0, inner_radius=1.0, outer_radius=2.0)
        with pytest.raises(ValueError):
            min_distance_to_thick_cap(np.array([0.0, 1.0]), cap)

    def test_membership_iff_zero(self):
        rng = np.random.default_rng(13)
        cap = self.cap()
        for _ in range(300):
            y = rng.standard_normal(6) * rng.uniform(0.3, 2.0)
            d = min_distance_to_thick_cap(y, cap)
            if cap.contains(y):
                assert d == 0.0
            else:
                assert d > 0.0

    def test_plane_reduction_matches_nd_points(self):
        # the grid oracle's plane formula against explicit n-D cap points,
        # with y off the axis, along it and opposite it
        rng = np.random.default_rng(21)
        phis, rs = np.linspace(0.0, 1.5, 9), np.linspace(0.5, 2.5, 7)
        for n in (2, 3, 8):
            axis = rng.standard_normal(n)
            a = axis / np.linalg.norm(axis)
            off = 2.0 * rng.standard_normal(n)
            # b is y's part orthogonal to a; for y on the axis line, any
            # direction orthogonal to a
            for y, w in ((off, off), (1.7 * a, rng.standard_normal(n)),
                         (-1.7 * a, rng.standard_normal(n))):
                b = w - np.dot(w, a) * a
                b /= np.linalg.norm(b)
                pts = rs[:, None, None] * (
                    np.cos(phis)[:, None] * a + np.sin(phis)[:, None] * b
                )
                want = np.linalg.norm(pts - y, axis=2)
                got = plane_distances(y, axis, phis, rs)
                np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(120):
            n = int(rng.integers(2, 8))
            axis = rng.standard_normal(n)
            while np.linalg.norm(axis) < 1e-6:
                axis = rng.standard_normal(n)
            inner = rng.uniform(0.5, 2.0)
            cap = CapSpec(
                axis=axis,
                half_angle=rng.uniform(0.05, math.pi / 2),
                inner_radius=inner,
                outer_radius=inner + rng.uniform(0.0, 1.5),
            )
            y = rng.standard_normal(n) * rng.uniform(0.2, 4.0)
            if np.linalg.norm(y) == 0.0:
                continue
            got = min_distance_to_thick_cap(y, cap)
            want = grid_min_distance(y, cap)
            assert got == pytest.approx(want, abs=1e-6)

    def test_degenerate_inner_zero(self):
        axis = np.array([1.0, 0.0, 0.0])
        cap = CapSpec(axis=axis, half_angle=0.5, inner_radius=0.0, outer_radius=1.0)
        y = np.array([-2.0, 0.0, 0.0])
        # nearest point is the origin corner of the sector
        assert min_distance_to_thick_cap(y, cap) == pytest.approx(2.0, abs=1e-12)

    def test_origin_in_cap_only_with_inner_radius_zero(self):
        # the origin is the apex of an inner-radius-0 sector, where the angle
        # to the axis is undefined
        axis = np.array([1.0, 0.0, 0.0])
        assert CapSpec(axis, 0.5, 0.0, 1.0).contains(np.zeros(3))
        assert not CapSpec(axis, 0.5, 0.5, 1.0).contains(np.zeros(3))

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: _cap_distances squares |y|, which underflows "
        "to 0 for a y below about 2^-511 of the outer radius; item 1's "
        "hypot-form distance replaces it",
    )
    def test_tiny_y_outside_the_cap_is_not_at_distance_zero(self):
        cap = CapSpec(np.array([1.0, 0.0, 0.0]), 0.5, 0.0, 1.0)
        y = np.array([1e-170, 1e-170, 0.0])
        assert not cap.contains(y)
        assert min_distance_to_thick_cap(y, cap) > 0.0

    @staticmethod
    def scaled(cap, j):
        return CapSpec(np.ldexp(cap.axis, j), cap.half_angle,
                       math.ldexp(cap.inner_radius, j), math.ldexp(cap.outer_radius, j))

    def test_membership_is_scale_free(self):
        # |y| once overflowed to inf (no point of norm 2^600 was inside) and
        # underflowed to 0 (a nonzero axis or y of norm 2^-600 was refused)
        rng = np.random.default_rng(5)
        cap = CapSpec(np.array([1.0, 0.5, -0.25]), 0.7, 1.0, 2.0)
        seen = set()
        for _ in range(200):
            y = rng.standard_normal(3) * rng.uniform(0.5, 2.5)
            want = cap.contains(y)
            seen.add(want)
            for j in (600, -600):
                assert self.scaled(cap, j).contains(np.ldexp(y, j)) == want
        assert seen == {False, True}

    def test_distance_scales_exactly(self):
        # once NaN at norm 2^600, and a refusal of a nonzero y at 2^-600
        rng = np.random.default_rng(8)
        cap = CapSpec(np.array([1.0, 0.5, -0.25]), 0.7, 1.0, 2.0)
        for _ in range(100):
            y = rng.standard_normal(3) * rng.uniform(0.5, 4.0)
            want = min_distance_to_thick_cap(y, cap)
            for j in (600, -600):
                got = min_distance_to_thick_cap(np.ldexp(y, j), self.scaled(cap, j))
                assert math.isfinite(got) and got == math.ldexp(want, j)
