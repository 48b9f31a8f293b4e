"""Shared in-test oracles, kept independent of the code paths they check."""

import math

import numpy as np

from toral_nodal.curve import phase


def analytic_crossing_count(curve, mu, phase_shift):
    """Oracle for single-pair restrictions: f = sqrt(2) cos(u(t)) with
    u = <mu, gamma(t)> + shift.  The direction phase has at most one
    stationary point; count strict crossings of u through pi/2 + j*pi on
    each monotone piece.
    """
    lam = math.hypot(*mu)

    def u_of(t):
        return lam * phase(curve, mu, np.asarray(t)).phi + phase_shift

    def dphi(t):
        return float(phase(curve, mu, np.asarray(t)).dphi)

    grid = np.linspace(0.0, curve.length, 513)
    dvals = phase(curve, mu, grid).dphi
    breakpoints = [0.0]
    flips = np.flatnonzero(dvals[:-1] * dvals[1:] < 0.0)
    assert len(flips) <= 1
    for i in flips:
        lo, hi = grid[i], grid[i + 1]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if dphi(lo) * dphi(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        breakpoints.append(0.5 * (lo + hi))
    breakpoints.append(curve.length)

    total = 0
    for a, b in zip(breakpoints, breakpoints[1:]):
        ua, ub = float(u_of(a)), float(u_of(b))
        lo, hi = min(ua, ub), max(ua, ub)
        j_lo = math.ceil((lo - math.pi / 2) / math.pi + 1e-15)
        j_hi = math.floor((hi - math.pi / 2) / math.pi - 1e-15)
        total += max(0, j_hi - j_lo + 1)
    return total


def block_matrix(zs, ws, locality):
    """Dense oracle for the Schur kernel: the (rows x cols) matrix of
    1/|z-w|_+^(1/2) between medians ws (rows) and zs (columns), zeroed
    outside |z - w| < locality, and the count of cells inside the window.
    Memory is rows * cols; pass row slices of large shells."""
    z2 = np.array([m.z2 for m in zs], dtype=np.int64).reshape(-1, 2)
    w2 = np.array([m.z2 for m in ws], dtype=np.int64).reshape(-1, 2)
    diff = w2[:, None, :] - z2[None, :, :]
    d2 = np.sum(diff * diff, axis=-1)
    dist = 0.5 * np.sqrt(d2.astype(float))
    mask = dist < locality
    mat = np.where(mask, 1.0 / np.sqrt(np.maximum(1.0, dist)), 0.0)
    return mat, int(np.count_nonzero(mask))
