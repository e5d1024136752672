"""Independent brute-force oracles shared by the unit and acceptance suites.

These deliberately avoid the library's algebra.  The cap-distance oracle
searches (phi, r) grids, not the clamped closed form under test, and it
evaluates each grid point in the plane of the cap axis a and y: with
y = h a + v b (b a unit vector orthogonal to a, v >= 0), the cap point
r (cos phi a + sin phi b) lies hypot(r cos phi - h, r sin phi - v) from y.
The covering reference tests one sample at a time where the builder
searches blocks of samples against chunks of centers.
"""

import math

import numpy as np


def plane_distances(y, axis, phis, rs):
    """Distances from y to the points r (cos phi a + sin phi b), one row per
    r and one column per phi, evaluated in the plane of a and y (module
    docstring)."""
    a = axis / np.linalg.norm(axis)
    h = float(np.dot(y, a))
    v = float(np.linalg.norm(y - h * a))
    return np.hypot(rs[:, None] * np.cos(phis) - h, rs[:, None] * np.sin(phis) - v)


def grid_min_distance(y, cap, stage_pts=400, stages=3):
    """Multi-stage (phi, r) grid search for the distance from y to a thick cap.

    Each stage re-grids a +/- 2-cell window around the previous argmin, so the
    effective resolution after three 400-point stages is ~400^3 per axis,
    comfortably below 1e-6 absolute for unit-scale caps.
    """
    y = np.asarray(y, dtype=float)
    phi_lo, phi_hi = 0.0, cap.half_angle
    r_lo, r_hi = cap.inner_radius, cap.outer_radius
    best = np.inf
    for _ in range(stages):
        phis = np.linspace(phi_lo, phi_hi, stage_pts)
        rs = np.linspace(r_lo, r_hi, stage_pts)
        d = plane_distances(y, cap.axis, phis, rs)
        i, j = np.unravel_index(int(np.argmin(d)), d.shape)
        best = min(best, float(d[i, j]))
        dphi = (phis[1] - phis[0]) if stage_pts > 1 else 0.0
        dr = (rs[1] - rs[0]) if stage_pts > 1 else 0.0
        phi_lo = max(0.0, phis[j] - 2 * dphi)
        phi_hi = min(cap.half_angle, phis[j] + 2 * dphi)
        r_lo = max(cap.inner_radius, rs[i] - 2 * dr)
        r_hi = min(cap.outer_radius, rs[i] + 2 * dr)
    return best


def greedy_covering_units(n, sigma2, d0, seed, audit_samples, batch):
    """Sample-at-a-time greedy covering: the unit center directions, in order.

    Draws the builder's stream (`batch`-row standard-normal blocks from one
    SeedSequence generator, each row normalized) and walks it one sample at a
    time.  A sample becomes a center when no earlier center reaches
    cos theta0; the walk stops once `audit_samples` samples in a row were
    covered.  Also returns how many samples, after the first block, were
    covered only by centers added earlier in their own block.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cos_thr = math.sqrt((sigma2 - d0) / sigma2)
    units = np.empty((0, n))
    in_block = 0
    run = 0
    first = True
    while True:
        block = rng.standard_normal((batch, n))
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        start = len(units)
        for s in block:
            cos = units @ s
            if len(cos) and cos.max() >= cos_thr:
                run += 1
                if run == audit_samples:
                    return units, in_block
                if not first and (start == 0 or cos[:start].max() < cos_thr):
                    in_block += 1
            else:
                units = np.vstack([units, s])
                run = 0
        first = False
