"""Oscillation-aware quadrature, restriction norms, and the dyadic Schur
machinery over median shells.

Oscillatory integrals are composite Simpson over the shared dyadic cascade
(:func:`wavefield.dyadic_levels`) until two successive estimates agree; the
initial spacing resolves the oscillation rate (at least four nodes per
radian of phase).

The restriction norms are Gauss-Legendre sums between the certified zeros
of f: the arc is cut at the sign-change brackets of the zero count, each
segment into panels of at most two radians of phase, and f, f^2 and f^4
are integrated in the curve's own parameter on the same nodes.  f keeps
one sign on a segment, so int |f| is the sum of |int f| over segments and
every integrand is smooth: the sums converge spectrally, where a uniform
grid converges only quadratically at the kinks of |f|.

The Schur blocks are sparse: one cell-list pair finder over the medians'
integer doubled coordinates yields the pairs inside the lambda^epsilon
locality window in row-major COO form, and every block, norm and
bilinear sum is computed from those triplets in O(M + nnz) memory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from .curve import ArcLengthCurve
from .errors import InvariantViolation, QuadratureError
from .lattice import Point, chord_arc_max
from .medians import DyadicShellDecomposition, Median
from .wavefield import (RestrictedWave, _simpson_weights, dyadic_levels,
                        first_level)

if TYPE_CHECKING:
    from .nodal import SignChangeReport

NODE_CAP_OSC = 1 << 22
# Gauss-Legendre nodes of one restriction-norm level; the first level
# always runs, and the cascade stops before a level would exceed the cap.
NODE_CAP_NORM = (1 << 20) + 1

_GL_ORDER = 16
_SIGN_NOISE = 1e-12  # |f| below this times sum |a| carries no sign
_POLISH_ROUNDS = 40  # bisection halvings of a sup bracket


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    nodes_used: int


def osc_integral(
    curve: ArcLengthCurve,
    amplitude: Callable[[np.ndarray], np.ndarray] | None,
    xi: tuple[float, float],
    k: float,
    tol: float = 1e-9,
    node_cap: int = NODE_CAP_OSC,
) -> QuadratureResult:
    """I(k) = int_0^L A(t) e^{i k phi_xi(t)} dt along the curve.

    Reuses the curve's cached uniform grids, which makes sweeps over many
    directions xi cheap.
    """
    nx = math.hypot(xi[0], xi[1])
    if nx == 0.0:
        raise ValueError("xi must be nonzero")
    e = np.array([xi[0] / nx, xi[1] / nx])
    L = curve.length
    est, err, total_nodes = None, math.inf, 0
    for n in dyadic_levels(first_level(4.0 * abs(k) * L), node_cap):
        t, g, _ = curve.grid(n)
        vals = np.exp(1j * k * (g @ e))
        if amplitude is not None:
            vals = vals * amplitude(t)
        cur = complex(_simpson_weights(n, L / n) @ vals)
        if est is not None:
            err = abs(cur - est)
        est = cur
        total_nodes += n + 1
        if err < tol:
            break
    else:
        raise QuadratureError(
            f"no convergence below {tol} within {node_cap} nodes",
            best=QuadratureResult(value=est, error_estimate=err, nodes_used=total_nodes))
    return QuadratureResult(value=est, error_estimate=err, nodes_used=total_nodes)


@dataclass(frozen=True)
class VdcAudit:
    rows: tuple[tuple[float, float], ...]  # (k, sqrt(k) * |I(k)|)
    slope: float


VDC_ONSET = 32.0  # fit the trend only once k * L >= this (a few oscillations)


def vdc_audit(
    curve: ArcLengthCurve,
    xi: tuple[float, float],
    k_grid: Sequence[float] | None = None,
    amplitude: Callable[[np.ndarray], np.ndarray] | None = None,
    tol: float = 1e-9,
) -> VdcAudit:
    """sqrt(k)-normalized decay table of I(k) over a dyadic k-grid.

    The square-root decay is proven with a curve-dependent constant, so the
    audit asserts only the trend: the fitted slope of log(sqrt(k)|I(k)|)
    against log k must not exceed 0.05.  The fit skips rows with
    k * L < 32: below a handful of oscillations per arc, |I(k)| is still
    near the plain length integral and sqrt(k)|I(k)| provably *rises*
    toward its constant, which is approach to the bound, not violation.
    The full table is always reported.
    """
    if k_grid is None:
        k_grid = [float(1 << j) for j in range(15)]
    if any(k < 1.0 for k in k_grid):
        raise ValueError("audit needs k >= 1")
    rows = []
    for k in k_grid:
        val = abs(osc_integral(curve, amplitude, xi, k, tol=tol).value)
        rows.append((float(k), math.sqrt(k) * val))
    fit_rows = [r for r in rows if r[0] * curve.length >= VDC_ONSET]
    if len(fit_rows) < 4:
        fit_rows = rows[-4:] if len(rows) >= 4 else rows
    logk = np.log([r[0] for r in fit_rows])
    logy = np.log([max(r[1], 1e-300) for r in fit_rows])
    slope = float(np.polyfit(logk, logy, 1)[0]) if len(fit_rows) > 1 else 0.0
    if slope > 0.05:
        raise InvariantViolation(
            f"sqrt(k) decay trend violated: fitted slope {slope:.4f} > 0.05")
    return VdcAudit(rows=tuple(rows), slope=slope)


# -- restriction norms ---------------------------------------------------------

@dataclass(frozen=True)
class NormReport:
    l1: float
    l2: float
    l4: float
    lsup: float
    length: float
    lam: float
    arc_max: int
    nodes: int  # Gauss-Legendre nodes evaluated, over all levels
    levels: int
    error_estimate: float  # largest relative move of l1, l2^2, l4^4 in the last level

    @property
    def l2_sq(self) -> float:
        return self.l2**2

    @property
    def l4_4(self) -> float:
        return self.l4**4


def _holder_audit(l1, l2sq, l4q, lsup, L):
    m1 = l1 / L
    m2 = math.sqrt(l2sq / L)
    m4 = (l4q / L) ** 0.25
    if m1 > m2 + 1e-9 or m2 > m4 + 1e-9 or m4 > lsup + 1e-9:
        raise InvariantViolation(
            f"Holder chain violated: {m1} <= {m2} <= {m4} <= {lsup}")
    l2 = math.sqrt(l2sq)
    l4 = l4q**0.25
    if l2 > l1 ** (1.0 / 3.0) * l4 ** (2.0 / 3.0) + 1e-9:
        raise InvariantViolation("L2 <= L1^(1/3) L4^(2/3) interpolation violated")


def _panel_counts(lam: float, tb: np.ndarray) -> np.ndarray:
    """Panels per segment between arc-length breakpoints tb: lambda * h <= 2."""
    return np.maximum(1, np.ceil(0.5 * lam * np.diff(tb))).astype(np.int64)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], built on first use: the eigenvalue
    solve behind them would cost every command that never integrates."""
    return np.polynomial.legendre.leggauss(_GL_ORDER)


def _gl_nodes(rw: RestrictedWave, ub: np.ndarray, panels: np.ndarray):
    """Weights and values of f on panels[j] equal u-panels of 16-point
    Gauss-Legendre over each segment [ub[j], ub[j+1]], shaped (panels, 16);
    the weights carry the speed |p'(u)|, so they integrate in arc length."""
    x, wx = _gauss_legendre()
    seg = np.repeat(np.arange(len(panels)), panels)
    k = np.arange(len(seg)) - np.repeat(np.cumsum(panels) - panels, panels)
    du = (np.diff(ub) / panels)[seg]
    u = (ub[seg] + (k + 0.5) * du)[:, None] + (0.5 * du)[:, None] * x
    speed = np.linalg.norm(rw.curve.spec.d1(u), axis=-1)
    return (0.5 * du)[:, None] * wx * speed, rw.value_at_param(u)


def _split_mixed(rw, tb, mixed, split, intervals):
    """Cut every mixed segment at the brackets of a sign-change run on a
    grid twice as fine as the count's; a segment already cut out of a
    mixed one may not be mixed again."""
    from . import nodal  # nodal imports this module

    if np.any(mixed & split):
        j = int(np.flatnonzero(mixed & split)[0])
        raise InvariantViolation(
            f"f changes sign inside [{tb[j]}, {tb[j + 1]}] between certified zeros")
    rate = intervals / (4.0 * rw.curve.length)
    cuts = [0.5 * (lo + hi)
            for j in np.flatnonzero(mixed)
            for lo, hi in nodal.certified_sign_changes(
                rw.value, tb[j], tb[j + 1], rate=rate).brackets]
    new_tb = np.union1d(tb, cuts)
    parent = np.searchsorted(tb, new_tb[:-1], side="right") - 1
    return new_tb, (mixed | split)[parent]


def _sup(rw: RestrictedWave, intervals: int, node_max: float) -> float:
    """sup |f|: the count's finest grid, each grid-local max within the
    certified margin 1/2 (lambda^2 + lambda kappa_max) sum|a| h^2 of the
    grid max polished by bisecting the sign of d/du |f| in u, and the
    Gauss-Legendre nodes' max."""
    t, f = rw.grid_values(intervals)
    af = np.abs(f)
    top = float(af.max())
    h = rw.curve.length / intervals
    lam = rw.lam
    margin = 0.5 * (lam * lam + lam * rw.curve.kmax) * rw.F.sum_abs * h * h
    pad = np.pad(af, 1, constant_values=-np.inf)
    cand = np.flatnonzero((af >= top - margin) & (af >= pad[:-2]) & (af >= pad[2:]))
    ends = np.concatenate([np.maximum(cand - 1, 0), np.minimum(cand + 1, intervals)])
    u = rw.curve.u_of_t(t[ends])
    sgn = np.sign(f[cand])
    slope = np.tile(sgn, 2) * rw.derivative_at_param(u)
    k = len(cand)
    live = (slope[:k] > 0.0) & (slope[k:] < 0.0)  # |f| rises into the bracket, then falls
    lo, hi, sgn = u[:k][live], u[k:][live], sgn[live]
    polished = 0.0
    if len(lo):
        for _ in range(_POLISH_ROUNDS):
            mid = 0.5 * (lo + hi)
            up = sgn * rw.derivative_at_param(mid) > 0.0
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
        polished = float(np.max(np.abs(rw.value_at_param(0.5 * (lo + hi)))))
    return max(top, polished, node_max)


def restriction_norms(
    rw: RestrictedWave,
    fourier_check: bool = False,
    tol: float = 1e-9,
    signs: SignChangeReport | None = None,
) -> NormReport:
    """L1, L2, L4 and sup of |f| along the curve, by Gauss-Legendre between
    certified zeros.

    signs is ``nodal.count_sign_changes(rw)``, computed here when not
    given.  The breakpoints 0, its bracket midpoints and L split the arc
    into segments on which f keeps one sign; each segment gets
    ceil(lambda * s / 2) equal panels in the curve parameter u (about two
    radians of phase each, s its arc length) of 16-point Gauss-Legendre,
    and int |f| = sum over segments of |int f|, with int f^2 and int f^4
    from the same nodes.  The panel counts double on the dyadic cascade
    until l1, l2^2 and l4^4 all move by less than tol relatively; the
    breakpoints are mapped to u once, so no node needs arc-length
    inversion.  A segment whose nodes disagree in sign beyond rounding
    hides a zero pair inside one cell of the count's grid: it is cut again
    at the zeros of a finer sign-change run, and InvariantViolation is
    raised if its pieces are still mixed.  The sup is described in
    :func:`_sup`.  With fourier_check=True, the L2 mass is re-derived from
    the frequency side as sum a_mu conj(a_nu) I(mu - nu) and must agree to
    1e-6 relative.
    """
    from . import nodal  # nodal imports this module

    L = rw.curve.length
    lam = rw.lam
    if signs is None:
        signs = nodal.count_sign_changes(rw)
    tb = np.array([0.0, *(0.5 * (lo + hi) for lo, hi in signs.brackets), L])
    ub = rw.curve.u_of_t(tb)
    split = np.zeros(len(tb) - 1, dtype=bool)
    noise = _SIGN_NOISE * rw.F.sum_abs
    n0 = _GL_ORDER * int(_panel_counts(lam, tb).sum())
    prev, nodes, levels, err = None, 0, 0, math.inf
    for n in dyadic_levels(n0, NODE_CAP_NORM):
        while True:
            panels = (n // n0) * _panel_counts(lam, tb)
            w, f = _gl_nodes(rw, ub, panels)
            nodes += f.size
            starts = np.cumsum(panels) - panels
            mixed = ((np.maximum.reduceat(f.max(axis=1), starts) > noise)
                     & (np.minimum.reduceat(f.min(axis=1), starts) < -noise))
            if not mixed.any():
                break
            tb, split = _split_mixed(rw, tb, mixed, split, signs.intervals)
            ub = rw.curve.u_of_t(tb)
            prev = None
        wf2 = w * f * f
        cur = np.array([np.sum(np.abs(np.add.reduceat(np.sum(w * f, axis=1), starts))),
                        np.sum(wf2), np.sum(wf2 * f * f)])
        levels += 1
        if prev is not None:
            err = float(np.max(np.abs(cur - prev) / cur))
            if err <= tol:
                break
        prev = cur
    else:
        raise QuadratureError(
            f"restriction norms did not stabilize within {NODE_CAP_NORM} nodes")

    l1, l2sq, l4q = (float(v) for v in cur)
    lsup = _sup(rw, signs.intervals, float(np.max(np.abs(f))))
    _holder_audit(l1, l2sq, l4q, lsup, L)

    if fourier_check:
        side = fourier_l2_sq(rw, tol=min(tol, 1e-9))
        if abs(side - l2sq) > 1e-6 * max(abs(l2sq), 1e-12):
            raise InvariantViolation(
                f"frequency-side L2 mass {side:.12g} disagrees with "
                f"quadrature {l2sq:.12g}")

    return NormReport(
        l1=l1, l2=math.sqrt(l2sq), l4=l4q**0.25, lsup=lsup,
        length=L, lam=lam, arc_max=chord_arc_max(rw.F.circle), nodes=nodes,
        levels=levels, error_estimate=err)


def fourier_l2_sq(rw: RestrictedWave, tol: float = 1e-9) -> float:
    """int |f|^2 assembled from pair integrals I(mu - nu), one oscillatory
    integral per distinct frequency difference (conjugate pairs shared)."""
    keys = sorted(rw.F.coeffs)
    a = {p: rw.F.coeffs[p] for p in keys}
    L = rw.curve.length
    cache: dict[Point, complex] = {(0, 0): complex(L)}

    def pair_integral(d: Point) -> complex:
        if d in cache:
            return cache[d]
        nd = (-d[0], -d[1])
        if nd in cache:
            val = cache[nd].conjugate()
        else:
            val = osc_integral(rw.curve, None, d, math.hypot(*d), tol=tol).value
        cache[d] = val
        return val

    total = 0.0 + 0.0j
    for p in keys:
        for q in keys:
            d = (p[0] - q[0], p[1] - q[1])
            total += a[p] * a[q].conjugate() * pair_integral(d)
    if abs(total.imag) > 1e-8:
        raise InvariantViolation(
            f"frequency-side L2 mass has imaginary residue {total.imag:.3e}")
    return float(total.real)


def l2_ratio(rw: RestrictedWave, report: NormReport | None = None) -> float:
    """Restriction L2 mass per unit length, normalized by sum |a|^2.

    rho lies in (0, #E]: the cap follows from the sup bound and is asserted.
    """
    if report is None:
        report = restriction_norms(rw)
    rho = report.l2_sq / (report.length * rw.F.sum_sq)
    if rho > rw.F.circle.count + 1e-9:
        raise InvariantViolation(f"L2 ratio {rho} exceeds #E cap")
    return rho


def l4_vs_B(rw: RestrictedWave, report: NormReport | None = None) -> tuple[float, int, float]:
    """(fourth-power restriction mass, arc-crowding max, their ratio)."""
    if report is None:
        report = restriction_norms(rw)
    b = report.arc_max
    l44 = report.l4_4
    ratio = l44 / b
    if not math.isfinite(ratio):
        raise InvariantViolation("l4^4 / arc max is not finite")
    return l44, b, ratio


# -- Schur blocks over dyadic shells -------------------------------------------

@dataclass(frozen=True)
class SchurBlock:
    """The kernel 1/|z-w|_+^(1/2) between two shells, kept only on the
    pairs inside the lambda^epsilon locality window, in row-major COO
    form: entry i is ``val[i]`` at row ``row[i]`` (an index into ws) and
    column ``col[i]`` (an index into zs)."""

    K: int
    L: int
    zs: tuple[Median, ...]  # columns, in S_K
    ws: tuple[Median, ...]  # rows, in S_L
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.val)


@dataclass(frozen=True)
class SchurFamily:
    blocks: Mapping[tuple[int, int], SchurBlock]
    lam: float
    locality: float
    arc_max: int


# the 3 x 3 neighbourhood of a cell, as offsets of _cell_keys values
_NEIGHBOURS = tuple((dx << 32) + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1))


def _coords(meds: Sequence[Median]) -> np.ndarray:
    return np.array([m.z2 for m in meds], dtype=np.int64).reshape(-1, 2)


def _cell_keys(cells: np.ndarray) -> np.ndarray:
    return (cells[:, 0] << 32) + cells[:, 1]


def _window_pairs(z2: np.ndarray, w2: np.ndarray, locality: float):
    """Row-major COO (row, col, val) of 1/|z-w|_+^(1/2) over the pairs of
    rows w2 and columns z2 (doubled coordinates) with |z - w| < locality.

    A cell list: the columns are sorted by their cell of side
    ceil(2 * locality) in doubled coordinates, so every pair in the window
    lies in one of the 3 x 3 cells around its row's cell.  The candidates
    from those cells are cut with the float test 0.5*sqrt(d2) < locality
    on the exact integer d2, so the window is the dense kernel's, bit for
    bit.  Cost is O(M log M) plus the candidates, which do not grow with
    the number of lattice offsets inside the window.
    """
    side = max(1, math.ceil(2.0 * locality))
    zk = _cell_keys(z2 // side)
    order = np.argsort(zk, kind="stable")
    zk = zk[order]
    wk = _cell_keys(w2 // side)
    rows, cols, dists = [], [], []
    for offset in _NEIGHBOURS:
        target = wk + offset
        lo = np.searchsorted(zk, target, "left")
        cnt = np.searchsorted(zk, target, "right") - lo
        row = np.repeat(np.arange(len(w2)), cnt)
        # row i's candidates are the sorted columns lo[i] .. lo[i] + cnt[i] - 1
        col = order[np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())]
        diff = w2[row] - z2[col]
        dist = 0.5 * np.sqrt(np.sum(diff * diff, axis=1).astype(float))
        keep = dist < locality
        rows.append(row[keep])
        cols.append(col[keep])
        dists.append(dist[keep])
    row, col, dist = np.concatenate(rows), np.concatenate(cols), np.concatenate(dists)
    rank = np.lexsort((col, row))
    return row[rank], col[rank], 1.0 / np.sqrt(np.maximum(1.0, dist[rank]))


def schur_family(decomp: DyadicShellDecomposition) -> SchurFamily:
    """The sparse shell-pair kernels (1/|z-w|_+^(1/2)) restricted to the
    lambda^epsilon locality window, one :class:`SchurBlock` per K <= L.

    The (L, K) block is the transpose and is not stored.  Memory and time
    are O(M + nnz) up to a sort, M being the number of starred medians;
    no dense shell-pair array is built.
    """
    keys = sorted(decomp.shells)
    z2 = {K: _coords(decomp.shells[K]) for K in keys}
    blocks: dict[tuple[int, int], SchurBlock] = {}
    for i, K in enumerate(keys):
        for L in keys[i:]:
            row, col, val = _window_pairs(z2[K], z2[L], decomp.locality)
            blocks[(K, L)] = SchurBlock(K=K, L=L, zs=decomp.shells[K], ws=decomp.shells[L],
                                        row=row, col=col, val=val)
    return SchurFamily(
        blocks=blocks,
        lam=decomp.mset.radius,
        locality=decomp.locality,
        arc_max=chord_arc_max(decomp.mset.circle),
    )


@dataclass(frozen=True)
class SchurNormReport:
    K: int
    L: int
    norm_1to1: float
    norm_adj_1to1: float
    bound_2to2: float
    bound_2to2_sq: float
    ratio_col: float  # norm_1to1 / arc max
    ratio_row: float  # norm_adj_1to1 * L / (K * arc max)
    nnz: int


def schur_norms(fam: SchurFamily) -> dict[tuple[int, int], SchurNormReport]:
    """Induced 1-norms per block (exact column/row sums: entries are
    nonnegative) and the Schur-test 2->2 bound, their geometric mean.

    Each sum adds its entries in row-major order (``np.bincount``)."""
    out: dict[tuple[int, int], SchurNormReport] = {}
    for (K, L), blk in sorted(fam.blocks.items()):
        col_sums = np.bincount(blk.col, blk.val, len(blk.zs))
        row_sums = np.bincount(blk.row, blk.val, len(blk.ws))
        col = float(col_sums.max()) if col_sums.size else 0.0
        row = float(row_sums.max()) if row_sums.size else 0.0
        prod = col * row
        out[(K, L)] = SchurNormReport(
            K=K, L=L,
            norm_1to1=col,
            norm_adj_1to1=row,
            bound_2to2=math.sqrt(prod),
            bound_2to2_sq=prod,
            ratio_col=col / fam.arc_max,
            ratio_row=row * L / (K * fam.arc_max),
            nnz=blk.nnz,
        )
    return out


@dataclass(frozen=True)
class BilinearBoundReport:
    lhs_starred: float
    lhs_starred_blocked: float
    lhs_small_gap: float
    rhs: float
    ratio_starred: float
    ratio_small_gap: float
    # size of what the lambda^epsilon locality cutoff may discard:
    # lambda^(-eps/2) * ||b||^2 * #medians, reported rather than dropped
    truncation_term: float


def _abs_weights(meds: Sequence[Median], bz: Mapping[Point, complex]) -> np.ndarray:
    return np.array([abs(bz.get(m.z2, 0.0)) for m in meds], dtype=float)


def _quadratic(vw: np.ndarray, row, col, val, vz: np.ndarray) -> float:
    """sum over COO entries of vw[row] * val * vz[col]."""
    return float(np.sum(vw[row] * val * vz[col]))


def _flat_quadratic(meds: Sequence[Median], bz, locality) -> float:
    v = _abs_weights(meds, bz)
    z2 = _coords(meds)
    return _quadratic(v, *_window_pairs(z2, z2, locality), v)


def bilinear_form_bound(
    bz: Mapping[Point, complex],
    decomp: DyadicShellDecomposition,
    fam: SchurFamily | None = None,
) -> BilinearBoundReport:
    """Both sides of the locality-restricted bilinear bound
    sum |b_z||b_w| / |z-w|_+^(1/2) <= C * (arc max) * ||b||^2,
    over the starred shells and over the small-gap set (0 < Delta <= sqrt(lambda)).

    The starred sum is evaluated twice: a flat sum over all windowed
    pairs of starred medians, and the shell-blocked form (K <= L blocks,
    off-diagonal blocks doubled); both run over ordered pairs (diagonal
    included, where |.|_+ floors the denominator at 1) and must agree to
    rounding.  Both sides take their pairs from the same sparse pair
    finder, so their agreement checks the shell partition, that the
    K <= L blocks with doubled off-diagonals cover every ordered pair
    exactly once, not the pair finder itself.
    """
    if fam is None:
        fam = schur_family(decomp)
    starred = decomp.starred()
    lhs_flat = _flat_quadratic(starred, bz, decomp.locality)
    shell_v = {K: _abs_weights(blk.zs, bz) for (K, L), blk in fam.blocks.items() if K == L}
    blocked = 0.0
    for (K, L), blk in sorted(fam.blocks.items()):
        term = _quadratic(shell_v[L], blk.row, blk.col, blk.val, shell_v[K])
        blocked += term if K == L else 2.0 * term
    lhs_small = _flat_quadratic(decomp.small_gap, bz, decomp.locality)
    b_sq = float(sum(abs(v) ** 2 for v in bz.values()))
    rhs = fam.arc_max * b_sq
    n_medians = len(decomp.mset.by_z2)
    truncation = decomp.mset.radius ** (-0.5 * decomp.epsilon) * b_sq * n_medians
    return BilinearBoundReport(
        lhs_starred=lhs_flat,
        lhs_starred_blocked=blocked,
        lhs_small_gap=lhs_small,
        rhs=rhs,
        ratio_starred=lhs_flat / rhs if rhs > 0 else 0.0,
        ratio_small_gap=lhs_small / rhs if rhs > 0 else 0.0,
        truncation_term=truncation,
    )
