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


def validate_brackets(rep, fn):
    """Re-evaluate every bracket of a sign-change report independently:
    each must still hold a strict sign change of fn."""
    for lo, hi in rep.brackets:
        assert float(fn(lo)) * float(fn(hi)) < 0.0, f"bracket ({lo}, {hi}) lost its sign change"


def median_dist(z, w):
    """|z - w| of two medians, from their doubled coordinates."""
    d2 = (z.z2[0] - w.z2[0]) ** 2 + (z.z2[1] - w.z2[1]) ** 2
    return 0.5 * math.sqrt(d2)


def shell_window_count(decomp, z, L):
    """#{w in S_L : |w - z| < lambda^epsilon}, by exact scan."""
    shell = decomp.shells.get(L, ())
    # |w - z| < lambda^eps  <=>  |w2 - z2|^2 < 4 n^eps (integer left side)
    thr = 4.0 * decomp.mset.n**decomp.epsilon
    count = 0
    for w in shell:
        d2 = (w.z2[0] - z.z2[0]) ** 2 + (w.z2[1] - z.z2[1]) ** 2
        if d2 < thr:
            count += 1
    return count


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


def reference_norms(F, spec, scan=64):
    """Oracle for the L1, L2 and L4 restriction norms of f = F(p(u)) along a
    curve spec, in its own parameter u (ds = |p'(u)| du).

    The field is summed here from the coefficients.  Zeros of f come from a
    uniform scan of ``scan`` points per radian of phase and 60 rounds of
    plain bisection per sign change; between zeros f is smooth, so each
    segment is split into panels of at most one radian of phase and
    integrated by composite 16-point Gauss-Legendre.  Returns (l1, l2, l4).
    """
    mus = np.array(list(F.coeffs), dtype=float)
    a = np.array(list(F.coeffs.values()), dtype=complex)

    def f(u):
        out = np.empty(len(u))
        for lo in range(0, len(u), 4096):
            ph = spec.point(u[lo:lo + 4096]) @ mus.T
            out[lo:lo + 4096] = np.cos(ph) @ a.real - np.sin(ph) @ a.imag
        return out

    u0, u1 = spec.angle0, spec.angle1
    rate = math.sqrt(F.circle.n) * float(
        np.max(np.linalg.norm(spec.d1(np.linspace(u0, u1, 1001)), axis=-1)))
    u = np.linspace(u0, u1, math.ceil(scan * rate * (u1 - u0)) + 1)
    fu = f(u)
    cells = np.flatnonzero(fu[:-1] * fu[1:] < 0.0)
    lo, hi, flo = u[cells], u[cells + 1], fu[cells]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        left = flo * fm <= 0.0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)
    breaks = np.concatenate([[u0], 0.5 * (lo + hi), [u1]])

    x16, w16 = np.polynomial.legendre.leggauss(16)
    l1 = l2sq = l4q = 0.0
    for a_, b_ in zip(breaks[:-1], breaks[1:]):
        edges = np.linspace(a_, b_, math.ceil(rate * (b_ - a_)) + 1)
        half = 0.5 * np.diff(edges)
        uu = ((edges[:-1] + half)[:, None] + half[:, None] * x16).ravel()
        w = (half[:, None] * w16).ravel() * np.linalg.norm(spec.d1(uu), axis=-1)
        fv = f(uu)
        l1 += abs(float(np.sum(w * fv)))
        l2sq += float(np.sum(w * fv**2))
        l4q += float(np.sum(w * fv**4))
    return l1, math.sqrt(l2sq), l4q**0.25


# -- scalar lattice oracles: the per-circle loops the block kernels replaced --

def scalar_max_window_count(angles, width, tie_tol=1e-12):
    """Max number of angles inside a closed circular window of the given
    angular width, and the index of the first window's leading point, by a
    two-pointer sweep over the angles and their copies shifted by 2*pi."""
    m = len(angles)
    if width >= 2.0 * math.pi:
        return m, 0
    ext = list(angles) + [a + 2.0 * math.pi for a in angles]
    best, best_i = 0, 0
    j = 0
    for i in range(m):
        if j < i:
            j = i
        while j < i + m and ext[j] - ext[i] <= width + tie_tol:
            j += 1
        if j - i > best:
            best, best_i = j - i, i
    return best, best_i


def scalar_arclog_run(circle):
    """Longest angularly contiguous run of points of diameter < sqrt(lambda)/2
    (exactly: 16*d2^2 < n between its extremes, with a 1-radian guard)."""
    m_pts, n = circle.count, circle.n
    ext_pts = list(circle.points) * 2
    ext_ang = list(circle.angles) + [a + 2.0 * math.pi for a in circle.angles]
    best = 1
    j = 0
    for i in range(m_pts):
        if j < i:
            j = i
        while j + 1 < i + m_pts:
            p, q = ext_pts[i], ext_pts[j + 1]
            d2 = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
            if 16 * d2 * d2 < n and ext_ang[j + 1] - ext_ang[i] < 1.0:
                j += 1
            else:
                break
        best = max(best, j - i + 1)
    return best


def scalar_pair_product_log(points):
    """log prod_{i<j} |P_i - P_j|, one pair at a time."""
    total = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d2 = (points[i][0] - points[j][0]) ** 2 + (points[i][1] - points[j][1]) ** 2
            total += 0.5 * math.log(d2)
    return total
