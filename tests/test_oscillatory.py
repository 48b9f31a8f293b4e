import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import block_matrix, median_dist, reference_norms, shell_window_count

from toral_nodal.errors import InvariantViolation, QuadratureError
from toral_nodal.lattice import enumerate_circle
from toral_nodal.medians import build_median_set, dyadic_decompose
from toral_nodal.nodal import count_sign_changes
from toral_nodal.oscillatory import (_coords, _window_pairs, bilinear_form_bound,
                                     fourier_l2_sq, osc_integral, restriction_norms,
                                     schur_family, schur_norms, vdc_audit)
from toral_nodal.wavefield import (SinglePair, UniformRandom,
                                   make_eigenfunction, restrict)

# Bessel J0(10), frozen from the alternating power series
# sum_m (-(x/2)^2)^m / (m!)^2 evaluated in extended precision.
J0_AT_10 = -0.24593576445134832


def j0_series(x: float) -> float:
    """Independent J0 oracle: the defining power series."""
    term, total = 1.0, 1.0
    for m in range(1, 60):
        term *= -(x * x / 4.0) / (m * m)
        total += term
    return total


def test_zero_frequency_gives_length(circ):
    res = osc_integral(circ, (1.0, 0.0), 0.0)
    assert res == pytest.approx(circ.length, abs=1e-12)


def gl_reference(curve, xi, k: float, panels: int = 8) -> complex:
    """Independent oracle for osc_integral: composite 16-point Gauss-Legendre
    of e^{ik<gamma(u), e>} |gamma'(u)| du in the curve spec's own parameter u,
    with no arc-length inversion and no uniform grid."""
    spec = curve.spec
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(spec.angle0, spec.angle1, panels + 1)
    e = np.asarray(xi, dtype=float) / math.hypot(*xi)
    total = 0.0 + 0.0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        u = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        speed = np.linalg.norm(spec.d1(u), axis=-1)
        total += 0.5 * (hi - lo) * np.sum(w * speed * np.exp(1j * k * (spec.point(u) @ e)))
    return complex(total)


XI = (0.6, 0.8)


def test_full_period_bessel(circ):
    assert j0_series(10.0) == pytest.approx(J0_AT_10, abs=1e-13)
    ref = gl_reference(circ, XI, 10.0)
    res = osc_integral(circ, XI, 10.0, tol=1e-10)
    assert abs(res - ref) < 1e-9


def test_quadrature_node_cap(circ):
    with pytest.raises(QuadratureError) as err:
        osc_integral(circ, XI, 10.0, tol=1e-30, node_cap=1 << 10)
    best = err.value.best
    assert best is not None
    assert abs(best - gl_reference(circ, XI, 10.0)) < 1e-6


def test_vdc_audit_stationary_direction(circ):
    # normal direction at mid-arc: stationary phase saturates sqrt(k) decay,
    # so the trend over the full dyadic range is flat but not rising
    nrm = circ.frame(np.asarray(circ.length / 2)).normal
    audit = vdc_audit(circ, tuple(nrm))
    assert -0.05 <= audit.slope <= 0.05
    assert audit.rows[0][0] == 1.0
    plain = abs(osc_integral(circ, tuple(nrm), 1.0))
    assert audit.rows[0][1] == pytest.approx(plain, rel=1e-9)


def test_vdc_audit_nonstationary_direction(circ):
    audit = vdc_audit(circ, (1.0, -1.0), [float(1 << j) for j in range(11)])
    assert audit.slope < -0.2  # boundary-dominated decay is faster


def test_vdc_audit_validates_k(circ):
    with pytest.raises(ValueError):
        vdc_audit(circ, (1.0, 0.0), [0.5, 1.0])


# -- restriction norms -----------------------------------------------------------

class ConstantWave:
    """f = 1 probe (outside the eigenfunction setting)."""

    def __init__(self, curve):
        self.curve = curve
        self.lam = 2.0
        circle = enumerate_circle(25)
        self.F = make_eigenfunction(circle, SinglePair(mu=(5, 0)))

    def grid_values(self, n):
        u = np.linspace(self.curve.spec.angle0, self.curve.spec.angle1, n + 1)
        return u, self.value_at_param(u)

    def value_at_param(self, u):
        return np.ones_like(np.asarray(u, dtype=float))

    def derivative_at_param(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))


def test_norms_constant_probe(circ):
    rep = restriction_norms(ConstantWave(circ))
    L = circ.length
    assert rep.l1 == pytest.approx(L, rel=1e-12)
    assert rep.l2 == pytest.approx(math.sqrt(L), rel=1e-12)
    assert rep.l4 == pytest.approx(L**0.25, rel=1e-12)
    assert rep.lsup == pytest.approx(1.0, abs=1e-12)


def test_norms_single_pair_closed_form(circle25, circ):
    # f = sqrt(2) cos(u): f^2 = 1 + cos(2u); the remainder integral comes
    # from an independent trapezoid evaluation of the closed form
    F = make_eigenfunction(circle25, SinglePair(mu=(3, 4), phase=0.3))
    rw = restrict(F, circ)
    rep = restriction_norms(rw)
    t = np.linspace(0.0, circ.length, 2_000_001)
    g = circ.frame(t).point
    u = 3 * g[:, 0] + 4 * g[:, 1] + 0.3
    remainder = np.trapezoid(np.cos(2 * u), t)
    assert rep.l2_sq == pytest.approx(circ.length + remainder, abs=1e-8)


def test_norms_holder_chain(circle1105, circ):
    F = make_eigenfunction(circle1105, UniformRandom(seed=21))
    rep = restriction_norms(restrict(F, circ))
    L = rep.length
    assert rep.l1 / L <= math.sqrt(rep.l2_sq / L) + 1e-9
    assert math.sqrt(rep.l2_sq / L) <= (rep.l4_4 / L) ** 0.25 + 1e-9
    assert (rep.l4_4 / L) ** 0.25 <= rep.lsup + 1e-9
    assert rep.l2 <= rep.l1 ** (1 / 3) * rep.l4 ** (2 / 3) + 1e-9


def test_fourier_side_l2(circle25, circ):
    F = make_eigenfunction(circle25, UniformRandom(seed=5))
    rw = restrict(F, circ)
    rep = restriction_norms(rw, fourier_check=True)  # raises on disagreement
    side = fourier_l2_sq(rw)
    assert side == pytest.approx(rep.l2_sq, rel=1e-6)


NORM_CASES = ([(fx, 27625, seed) for fx in ("circ", "ell", "cub") for seed in (0, 1, 2)]
              + [("circ", 160225, seed) for seed in (0, 1)])


@pytest.mark.parametrize("fixture,n,seed", NORM_CASES)
def test_norms_match_zero_split_reference(fixture, n, seed, request):
    curve = request.getfixturevalue(fixture)
    F = make_eigenfunction(enumerate_circle(n), UniformRandom(seed=seed))
    rep = restriction_norms(restrict(F, curve))
    l1, l2, l4 = reference_norms(F, curve.spec)
    assert rep.l1 == pytest.approx(l1, rel=1e-10)
    assert rep.l2 == pytest.approx(l2, rel=1e-10)
    assert rep.l4 == pytest.approx(l4, rel=1e-10)
    assert rep.levels >= 2


@pytest.mark.parametrize("shift", np.linspace(0.0, math.pi, 7))
def test_norms_single_pair_sup_closed_form(circle25, circ, shift):
    # f = sqrt(2) cos(psi(u)), psi = <(3, 4), p(u)> + shift = 21 + 5 cos(u - theta0)
    # + shift on the unit circle about (3, 3): sup |f| is sqrt(2) if psi
    # crosses a multiple of pi, else sqrt(2) |cos| at an end of psi's range
    F = make_eigenfunction(circle25, SinglePair(mu=(3, 4), phase=float(shift)))
    rep = restriction_norms(restrict(F, circ))
    spec = circ.spec
    theta0 = math.atan2(4.0, 3.0)
    assert spec.angle0 < theta0 < spec.angle1
    psi_max = 26.0 + shift
    psi_min = 21.0 + 5.0 * min(math.cos(spec.angle0 - theta0),
                               math.cos(spec.angle1 - theta0)) + shift
    if math.floor(psi_max / math.pi) * math.pi >= psi_min:
        sup = math.sqrt(2.0)
    else:
        sup = math.sqrt(2.0) * max(abs(math.cos(psi_min)), abs(math.cos(psi_max)))
    assert abs(rep.lsup - sup) <= 1e-12


@pytest.mark.parametrize("fixture", ["ell", "cub"])
def test_norms_sup_on_curved_arcs(fixture, request):
    # the u-grid sup with its margin in u, against |f| on 2^20 u-intervals,
    # summed here as f = sum over upper-half mu of 2 Re(a_mu e^{i<mu, p(u)>})
    curve = request.getfixturevalue(fixture)
    circle = enumerate_circle(27625)
    fields = [make_eigenfunction(circle, UniformRandom(seed=seed)) for seed in (0, 1, 2)]
    mus = [p for p in circle.points if p[1] > 0 or (p[1] == 0 and p[0] > 0)]
    a = np.array([[F.coeffs[p] for p in mus] for F in fields]).T
    freqs = np.array(mus, dtype=float).T
    spec = curve.spec
    dense = np.zeros(len(fields))
    for part in np.array_split(np.linspace(spec.angle0, spec.angle1, (1 << 20) + 1), 64):
        ph = spec.point(part) @ freqs
        f = 2.0 * (np.cos(ph) @ a.real - np.sin(ph) @ a.imag)
        dense = np.maximum(dense, np.max(np.abs(f), axis=0))
    for F, top in zip(fields, dense):
        lsup = restriction_norms(restrict(F, curve)).lsup
        assert lsup >= top - 1e-12
        assert abs(lsup - top) <= 1e-7


class ZeroPairProbe:
    """f = K ((t - c)^2 - d^2) on the unit-radius circle fixture, in its
    arc length t = u - angle0: two zeros c -+ d, which the caller places
    inside one cell of the zero count's finest grid, around a node of the
    first Gauss-Legendre level."""

    def __init__(self, curve, lam, c, d, scale=1.0):
        assert curve.spec.radius == 1.0
        self.curve, self.lam, self.c, self.d, self.scale = curve, lam, c, d, scale
        self.F = make_eigenfunction(enumerate_circle(25), SinglePair(mu=(5, 0)))
        self.u0 = curve.spec.angle0

    def grid_values(self, n):
        u = np.linspace(self.u0, self.curve.spec.angle1, n + 1)
        return u, self.value_at_param(u)

    def value_at_param(self, u):
        return self.scale * ((np.asarray(u, dtype=float) - self.u0 - self.c) ** 2 - self.d**2)

    def derivative_at_param(self, u):
        return 2.0 * self.scale * (np.asarray(u, dtype=float) - self.u0 - self.c)

    def l1(self):
        c, d, L = self.c, self.d, self.curve.length

        def prim(t):
            return (t - c) ** 3 / 3.0 - d * d * t

        inner = prim(c + d) - prim(c - d)
        return self.scale * (prim(L) - prim(0.0) - 2.0 * inner)


def _hidden_pair(curve, lam, spacing):
    """A first-level Gauss-Legendre node of a zero-free arc (ceil(lam L / 2)
    equal panels) as far as possible from the grid of the given spacing,
    and that distance."""
    L = curve.length
    panels = math.ceil(0.5 * lam * L)
    x, _ = np.polynomial.legendre.leggauss(16)
    h = L / panels
    nodes = ((np.arange(panels) + 0.5) * h)[:, None] + 0.5 * h * x
    gap = np.abs(nodes - spacing * np.round(nodes / spacing)).ravel()
    i = int(np.argmax(gap))
    return float(nodes.ravel()[i]), float(gap[i])


def test_norms_split_zero_pair_hidden_in_one_cell(circ):
    lam = 20.0
    probe = ZeroPairProbe(circ, lam, 0.0, 0.0)
    h = circ.length / count_sign_changes(probe).intervals
    c, gap = _hidden_pair(circ, lam, h)
    probe = ZeroPairProbe(circ, lam, c, 0.9 * gap)
    assert probe.d > h / 4  # a grid twice as fine as the count's sees the pair
    rep = count_sign_changes(probe)
    assert rep.count == 0 and circ.length / rep.intervals == h
    norms = restriction_norms(probe, signs=rep)
    assert norms.l1 == pytest.approx(probe.l1(), rel=1e-12)


def test_norms_refuse_unresolved_zero_pair(circ):
    lam = 20.0
    probe = ZeroPairProbe(circ, lam, 0.0, 0.0)
    h = circ.length / count_sign_changes(probe).intervals
    c, gap = _hidden_pair(circ, lam, h / 8)  # off every grid a finer run walks
    d = min(0.5 * gap, 1e-5)
    assert d < h / 16
    probe = ZeroPairProbe(circ, lam, c, d, scale=100.0)
    with pytest.raises(InvariantViolation, match="changes sign"):
        restriction_norms(probe)


# -- Schur machinery ---------------------------------------------------------------

@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=10**6))
def test_induced_one_norms_against_enumeration(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.0, 1.0, size=(rows, cols))
    col = float(np.max(m.sum(axis=0)))
    # oracle: ||M||_{1->1} = max over coordinate vectors of ||M e_j||_1
    oracle = max(float(np.abs(m @ e).sum())
                 for e in np.eye(cols))
    assert col == pytest.approx(oracle, rel=1e-12)


@functools.lru_cache(maxsize=None)
def _family(n, epsilon=0.45):
    decomp = dyadic_decompose(build_median_set(enumerate_circle(n)), epsilon)
    return decomp, schur_family(decomp)


def test_schur_entries_bounded(circle1105):
    decomp, fam = _family(1105)
    for blk in fam.blocks.values():
        assert np.all(blk.val <= 1.0) and np.all(blk.val > 0.0)
        if blk.K == blk.L:
            diag = blk.row == blk.col
            assert np.count_nonzero(diag) == len(blk.zs)  # every z is its own neighbour
            assert np.all(blk.val[diag] == 1.0)  # |.|_+ floors at 1


def test_schur_norm_reports(circle1105):
    decomp, fam = _family(1105)
    reports = schur_norms(fam)
    for (K, L), rep in reports.items():
        blk = fam.blocks[(K, L)]
        col_sums, row_sums = [0.0] * len(blk.zs), [0.0] * len(blk.ws)
        for r, c, v in zip(blk.row.tolist(), blk.col.tolist(), blk.val.tolist()):
            col_sums[c] += v
            row_sums[r] += v
        assert rep.norm_1to1 == max(col_sums)
        assert rep.norm_adj_1to1 == max(row_sums)
        assert rep.nnz == blk.nnz == len(blk.row) == len(blk.col)
        assert rep.bound_2to2 == math.sqrt(rep.norm_1to1 * rep.norm_adj_1to1)
        assert rep.bound_2to2_sq == rep.norm_1to1 * rep.norm_adj_1to1


def _pair_lists(decomp, fam):
    """(zs, ws, (row, col, val)) for every block and both flat pair lists."""
    out = [(blk.zs, blk.ws, (blk.row, blk.col, blk.val)) for blk in fam.blocks.values()]
    for meds in (decomp.starred(), decomp.small_gap):
        z2 = _coords(meds)
        out.append((meds, meds, _window_pairs(z2, z2, decomp.locality)))
    return out


@pytest.mark.parametrize("epsilon", [0.1, 0.45])
@pytest.mark.parametrize("n", [25, 97, 1105, 5525, 160225])
def test_schur_pairs_match_dense_oracle(n, epsilon):
    """Every COO pair list equals the dense kernel entry by entry: the same
    (row, col) set in row-major order and bitwise-equal values."""
    decomp, fam = _family(n, epsilon)
    for zs, ws, (row, col, val) in _pair_lists(decomp, fam):
        flat = row * len(zs) + col
        assert np.all(np.diff(flat) > 0)  # row-major, no repeated pair
        step = 256  # bounds the oracle's rows x cols arrays
        for lo in range(0, max(len(ws), 1), step):
            mat, nnz = block_matrix(zs, ws[lo:lo + step], decomp.locality)
            r, c = np.nonzero(mat)
            sel = (row >= lo) & (row < lo + step)
            assert len(r) == nnz == np.count_nonzero(sel)
            assert np.array_equal(row[sel] - lo, r) and np.array_equal(col[sel], c)
            assert np.array_equal(val[sel].view(np.uint64), mat[r, c].view(np.uint64))


def test_schur_empty_pair_sets():
    """An empty small-gap set and blocks with no pair in the window give
    empty COO arrays, zero norms and a zero quadratic form."""
    decomp, fam = _family(97, 0.1)
    assert decomp.small_gap == ()
    row, col, val = _window_pairs(_coords(()), _coords(()), decomp.locality)
    assert row.size == col.size == val.size == 0
    bz = {m.z2: 1.0 + 0j for m in decomp.starred()}
    assert bilinear_form_bound(bz, decomp, fam).lhs_small_gap == 0.0
    decomp, fam = _family(160225, 0.1)
    empty = [key for key, blk in fam.blocks.items() if blk.nnz == 0]
    assert empty
    reports = schur_norms(fam)
    for key in empty:
        assert reports[key].norm_1to1 == reports[key].norm_adj_1to1 == 0.0


@pytest.mark.parametrize("epsilon", [0.1, 0.25, 0.45])
@pytest.mark.parametrize("n", [1105, 5525, 160225])
def test_schur_columns_match_window_scan(n, epsilon):
    """Column z of block (K, L) holds exactly the w in S_L with
    |w - z| < lambda^epsilon, counted by an independent integer scan."""
    decomp, fam = _family(n, epsilon)
    for (K, L), blk in fam.blocks.items():
        counts = np.bincount(blk.col, minlength=len(blk.zs))
        assert counts.tolist() == [shell_window_count(decomp, z, L) for z in blk.zs]


@pytest.mark.parametrize("n", [160225, 48612265])  # #E = 96 and 256
def test_schur_memory_is_bounded(n):
    """The Schur family, its norms and the bilinear bound stay within
    16 MiB of traced allocations: no (rows x cols) or (M x M) array."""
    decomp = dyadic_decompose(build_median_set(enumerate_circle(n)))
    bz = {m.z2: 1.0 + 0j for m in decomp.starred() + decomp.small_gap}
    tracemalloc.start()
    try:
        fam = schur_family(decomp)
        schur_norms(fam)
        rep = bilinear_form_bound(bz, decomp, fam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert abs(rep.lhs_starred - rep.lhs_starred_blocked) <= 1e-12 * rep.lhs_starred


def test_bilinear_single_median():
    decomp, fam = _family(1105)
    z = decomp.starred()[0]
    rep = bilinear_form_bound({z.z2: 1.0 + 0j}, decomp, fam)
    assert rep.lhs_starred == pytest.approx(1.0)  # diagonal |.|_+ = 1
    assert rep.rhs == fam.arc_max
    assert rep.lhs_starred_blocked == pytest.approx(rep.lhs_starred)


def test_bilinear_distant_pair_excluded():
    decomp, fam = _family(1105, epsilon=0.1)
    starred = decomp.starred()
    z = starred[0]
    w = max(starred, key=lambda m: median_dist(z, m))
    assert median_dist(z, w) >= decomp.locality
    rep = bilinear_form_bound({z.z2: 1.0 + 0j, w.z2: 1.0 + 0j}, decomp, fam)
    assert rep.lhs_starred == pytest.approx(2.0)  # only the two diagonals


def test_bilinear_blocked_equals_flat(circle1105):
    decomp, fam = _family(1105)
    rng = np.random.default_rng(3)
    bz = {m.z2: complex(rng.standard_normal(), rng.standard_normal())
          for m in decomp.starred()}
    rep = bilinear_form_bound(bz, decomp, fam)
    assert rep.lhs_starred_blocked == pytest.approx(rep.lhs_starred, rel=1e-12)
    assert rep.ratio_starred > 0.0
