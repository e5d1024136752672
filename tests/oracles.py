"""Independent brute-force oracles shared by the unit and acceptance suites.

These deliberately avoid the library's algebra: distances come from explicit
n-D points on (phi, r) grids, not from the clamped closed form under test,
and the covering reference tests one sample at a time where the builder
searches blocks of samples against chunks of centers.
"""

import math

import numpy as np


def grid_min_distance(y, cap, stage_pts=400, stages=3):
    """Multi-stage (phi, r) grid search for the distance from y to a thick cap.

    Each stage re-grids a +/- 2-cell window around the previous argmin, so the
    effective resolution after three 400-point stages is ~400^3 per axis,
    comfortably below 1e-6 absolute for unit-scale caps.
    """
    y = np.asarray(y, dtype=float)
    a = cap.axis / np.linalg.norm(cap.axis)
    perp = y - np.dot(y, a) * a
    pn = np.linalg.norm(perp)
    if pn > 1e-30:
        b = perp / pn
    else:  # y parallel to the axis; any orthogonal direction works
        probe = np.zeros_like(a)
        probe[int(np.argmin(np.abs(a)))] = 1.0
        b = probe - np.dot(probe, a) * a
        b /= np.linalg.norm(b)

    def scan(phis, rs):
        pts = rs[:, None, None] * (
            np.cos(phis)[None, :, None] * a[None, None, :]
            + np.sin(phis)[None, :, None] * b[None, None, :]
        )
        d = np.linalg.norm(pts - y[None, None, :], axis=2)
        k = np.unravel_index(int(np.argmin(d)), d.shape)
        return float(d[k]), phis[k[1]], rs[k[0]]

    phi_lo, phi_hi = 0.0, cap.half_angle
    r_lo, r_hi = cap.inner_radius, cap.outer_radius
    best = np.inf
    for _ in range(stages):
        phis = np.linspace(phi_lo, phi_hi, stage_pts)
        rs = np.linspace(r_lo, r_hi, stage_pts)
        val, phi0, r0 = scan(phis, rs)
        best = min(best, val)
        dphi = (phis[1] - phis[0]) if stage_pts > 1 else 0.0
        dr = (rs[1] - rs[0]) if stage_pts > 1 else 0.0
        phi_lo = max(0.0, phi0 - 2 * dphi)
        phi_hi = min(cap.half_angle, phi0 + 2 * dphi)
        r_lo = max(cap.inner_radius, r0 - 2 * dr)
        r_hi = min(cap.outer_radius, r0 + 2 * dr)
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
