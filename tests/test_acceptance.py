"""Acceptance gate: the thirteen exit criteria, one test each, one printed
pass line each.  Run with `pytest tests/test_acceptance.py -v -s`.

Everything proven is asserted with zero tolerance for violations; everything
merely asymptotic is aggregated and checked for cross-ensemble stability,
never for a constant.
"""

import itertools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import analytic_crossing_count

from toral_nodal.cli import main as cli_main
from toral_nodal.counterexamples import (irrational_geodesic_witness,
                                         legendre_eval, legendre_eval_exact,
                                         legendre_recurrence_exact,
                                         legendre_zeros,
                                         rational_geodesic_eigenfunction)
from toral_nodal.errors import AntipodalMedianError
from toral_nodal.fixtures import circular_fixture
from toral_nodal.lattice import (arclog_bound_audit, cc_exponent,
                                 enumerate_circle, jarnik_audit,
                                 representable_up_to)
from toral_nodal.medians import build_median_set, dyadic_decompose, invert_median, median_map
from toral_nodal.nodal import count_sign_changes, theorem_harness
from toral_nodal.oscillatory import (bilinear_form_bound, restriction_norms,
                                     schur_family, schur_norms, vdc_audit)
from toral_nodal.wavefield import SinglePair, UniformRandom, make_eigenfunction, restrict

N_LIMIT_ARCS = 100_000
N_LIMIT_CC = 5_000
N_LIMIT_MEDIANS = 10_000
SCHUR_N = (1105, 4225, 5525, 160225, 1185665)  # the last two: #E 96 and 128
ENSEMBLE_N = (1105, 4225, 5525)

FOURIER_POOL = (25, 65, 325, 1105, 4225, 8125)


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


# -- shared heavy computations ---------------------------------------------------

@pytest.fixture(scope="module")
def fourier_reports(all_curves):
    """Criterion 5 runs; their NormReports feed criterion 6."""
    reports = []
    for i in range(50):
        n = FOURIER_POOL[i % len(FOURIER_POOL)]
        curve = all_curves[i % 3]
        F = make_eigenfunction(enumerate_circle(n), UniformRandom(seed=1000 + i))
        rw = restrict(F, curve)
        reports.append(restriction_norms(rw, fourier_check=True))
    return reports


def _harness_row(args):
    n, seed, curve = args
    F = make_eigenfunction(enumerate_circle(n), UniformRandom(seed=seed))
    return theorem_harness(restrict(F, curve), seed=seed)


@pytest.fixture(scope="module")
def ensembles():
    """Criterion 12: two disjoint 50-seed ensembles over three circles."""
    curve = circular_fixture()
    tasks_a = [(n, s, curve) for n in ENSEMBLE_N for s in range(50)]
    tasks_b = [(n, s, curve) for n in ENSEMBLE_N for s in range(50, 100)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        rows_a = list(pool.map(_harness_row, tasks_a))
        rows_b = list(pool.map(_harness_row, tasks_b))
    return rows_a, rows_b


# -- criteria ----------------------------------------------------------------------

def test_criterion_01_jarnik_all_n():
    start = time.perf_counter()
    circles = 0
    worst = 0
    for circle in representable_up_to(N_LIMIT_ARCS):
        count, _ = jarnik_audit(circle)  # raises on any violation
        worst = max(worst, count)
        circles += 1
    elapsed = time.perf_counter() - start
    assert worst <= 2
    assert elapsed < 120.0
    _report(1, f"jarnik max count {worst} over {circles} circles "
               f"(n <= {N_LIMIT_ARCS}) in {elapsed:.1f}s")


def test_criterion_02_arclog_bound():
    circles = 0
    worst = 0
    for circle in representable_up_to(N_LIMIT_ARCS):
        if circle.n < 4:
            continue
        m, _, ok = arclog_bound_audit(circle)  # raises on any violation
        assert ok
        worst = max(worst, m)
        circles += 1
    _report(2, f"window count <= log bound on {circles} circles, max m = {worst}")


def test_criterion_03_pair_product_subsets():
    """prod |P_i - P_j| >= lambda^e(m) for every subset of size 2..6,
    checked in the log domain with 1e-9 slack, vectorized per circle."""
    combo_cache: dict[tuple[int, int], np.ndarray] = {}

    def combos(npts, m):
        key = (npts, m)
        if key not in combo_cache:
            combo_cache[key] = np.array(
                list(itertools.combinations(range(npts), m)), dtype=np.int32)
        return combo_cache[key]

    checked = 0
    worst_margin = math.inf
    for circle in representable_up_to(N_LIMIT_CC):
        e_count = circle.count
        if e_count < 2 or e_count > 24:
            continue
        pts = np.array(circle.points, dtype=np.int64)
        diff = pts[:, None, :] - pts[None, :, :]
        d2 = np.sum(diff * diff, axis=-1)
        logd = np.zeros_like(d2, dtype=float)
        off = d2 > 0
        logd[off] = 0.5 * np.log(d2[off].astype(float))
        log_lam = 0.5 * math.log(circle.n)
        for m in range(2, min(6, e_count) + 1):
            idx = combos(e_count, m)
            total = np.zeros(len(idx))
            for a, b in itertools.combinations(range(m), 2):
                total += logd[idx[:, a], idx[:, b]]
            margin = float(np.min(total - cc_exponent(m) * log_lam))
            worst_margin = min(worst_margin, margin)
            assert margin >= -1e-9
            checked += len(idx)
    _report(3, f"{checked} subsets checked, worst log margin {worst_margin:.3e}")


def test_criterion_04_median_round_trip():
    pairs = 0
    antipodal = 0
    for circle in representable_up_to(N_LIMIT_MEDIANS):
        n = circle.n
        pts = circle.points
        for i in range(len(pts)):
            for j in range(i, len(pts)):
                med = median_map(pts[i], pts[j], n)
                if med.z2 == (0, 0):
                    with pytest.raises(AntipodalMedianError):
                        invert_median(med.z2, n)
                    antipodal += 1
                    continue
                back = invert_median(med.z2, n)
                assert back is not None
                assert set(back) == {pts[i], pts[j]}
                pairs += 1
    _report(4, f"{pairs} pairs inverted exactly "
               f"({antipodal} antipodal pairs correctly refused)")


def test_criterion_05_fourier_side_l2(fourier_reports):
    # restriction_norms(fourier_check=True) raises unless the frequency-side
    # assembly agrees with quadrature to 1e-6 relative; reaching here is the pass
    assert len(fourier_reports) == 50
    _report(5, "50 eigenfunctions: frequency-side and quadrature L2 agree "
               "to 1e-6 relative")


def test_criterion_06_holder_interpolation(fourier_reports):
    worst = 0.0
    for rep in fourier_reports:
        L = rep.length
        m1, m2 = rep.l1 / L, math.sqrt(rep.l2_sq / L)
        m4 = (rep.l4_4 / L) ** 0.25
        assert m1 <= m2 + 1e-9 and m2 <= m4 + 1e-9 and m4 <= rep.lsup + 1e-9
        assert rep.l2 <= rep.l1 ** (1 / 3) * rep.l4 ** (2 / 3) + 1e-9
        worst = max(worst, m1 - m2, m2 - m4, m4 - rep.lsup,
                    rep.l2 - rep.l1 ** (1 / 3) * rep.l4 ** (2 / 3))
    _report(6, f"Holder chain and interpolation hold on 50 reports "
               f"(worst slack used {worst:.3e})")


def test_criterion_07_vdc_trend(all_curves):
    """Five stationary directions (interior normals) and five clearly
    nonstationary ones (mid-tangent rotations, which stay at least
    (pi - total curvature)/2 - 0.24 > 0.4 rad from both normal cones)
    per fixture."""
    slopes = []
    for curve in all_curves:
        normals = [tuple(curve.normal(np.asarray(f * curve.length)))
                   for f in (0.3, 0.4, 0.5, 0.6, 0.7)]
        tang = curve.tangent(np.asarray(0.5 * curve.length))
        mid = math.atan2(tang[1], tang[0])
        away = [(math.cos(mid + d), math.sin(mid + d))
                for d in (-0.24, -0.12, 0.0, 0.12, 0.24)]
        for xi in normals + away:
            audit = vdc_audit(curve, xi)  # raises if the trend is violated
            slopes.append(audit.slope)
    assert len(slopes) == 30
    assert max(slopes) <= 0.05
    _report(7, f"30 direction audits, max fitted slope {max(slopes):.4f}")


def test_criterion_08_nodal_oracle(all_curves):
    rng = np.random.default_rng(20240814)
    pool = (25, 65, 325, 1105, 4225)
    checked = 0
    for i in range(100):
        n = pool[i % len(pool)]
        curve = all_curves[i % 3]
        pts = enumerate_circle(n).points
        mu = pts[rng.integers(len(pts))]
        shift = float(rng.uniform(0.0, 2.0 * math.pi))
        F = make_eigenfunction(enumerate_circle(n), SinglePair(mu=mu, phase=shift))
        rep = count_sign_changes(restrict(F, curve))
        expected = analytic_crossing_count(curve, mu, shift)
        assert rep.count == expected, (n, mu, shift)
        checked += 1
    _report(8, f"{checked} single-pair configurations counted exactly")


def test_criterion_09_counterexample_certificates():
    family = [(1, 0, 0.0, 1), (0, 1, 0.0, 1), (1, 1, 0.0, 2), (1, 2, 0.7, 2),
              (2, 3, 1.3, 2), (3, 4, 0.0, 2), (3, 4, 0.5, 3), (1, 2, 0.0, 5)]
    worst = 0.0
    for p, q, c, n in family:
        _, residue = rational_geodesic_eigenfunction(p, q, c, n)
        assert residue <= 1e-12
        worst = max(worst, residue)
    for k in range(1, 9):
        w = irrational_geodesic_witness(math.sqrt(2.0), (0.3, 0.4), k)
        assert w.min_on_segment >= math.cos(1.0 / w.q)
        assert w.sign_changes == 0
    _report(9, f"rational family residue <= {worst:.2e}; witnesses k<=8 "
               "certified zero-free")


def test_criterion_10_legendre():
    for ell in range(0, 201):
        assert abs(float(legendre_eval(ell, np.asarray(1.0))) - 1.0) <= 1e-12
    for ell in range(1, 201):
        zeros = legendre_zeros(ell)
        assert len(zeros) == ell
        if ell > 1:
            inner = legendre_zeros(ell - 1)
            for i, z in enumerate(inner):
                assert zeros[i] < z < zeros[i + 1]
    points = (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1))
    for ell in range(0, 31):
        for x in points:
            assert legendre_eval_exact(ell, x) == legendre_recurrence_exact(ell, x)
    _report(10, "degrees <= 200: normalization, zero counts, interlacing; "
                "exact-rational routes identical for degree <= 30")


def test_criterion_11_schur_machinery():
    worst_gap = 0.0
    for n in SCHUR_N:
        decomp = dyadic_decompose(build_median_set(enumerate_circle(n)))
        fam = schur_family(decomp)
        for rep in schur_norms(fam).values():
            assert rep.bound_2to2_sq == rep.norm_1to1 * rep.norm_adj_1to1
            assert rep.bound_2to2 == math.sqrt(rep.norm_1to1 * rep.norm_adj_1to1)
        rng = np.random.default_rng(n)
        bz = {m.z2: complex(rng.standard_normal(), rng.standard_normal())
              for m in decomp.starred()}
        rep = bilinear_form_bound(bz, decomp, fam)
        gap = abs(rep.lhs_starred - rep.lhs_starred_blocked)
        rel = gap / max(rep.lhs_starred, 1e-300)
        assert rel <= 1e-12
        worst_gap = max(worst_gap, rel)
    _report(11, f"Schur-test identity exact; blocked vs flat relative gap "
                f"<= {worst_gap:.2e} on n = {SCHUR_N}")


def test_criterion_12_theorem_ratio_stability(ensembles):
    rows_a, rows_b = ensembles
    assert len(rows_a) == len(rows_b) == 150

    def stats(rows):
        return {
            "min_ratio_zeros_arcmax": min(r.ratio_zeros_arcmax for r in rows),
            "min_ratio_zeros_l1mass": min(r.ratio_zeros_l1mass for r in rows),
            "max_ratio_l4_arcmax": max(r.ratio_l4_arcmax for r in rows),
        }

    sa, sb = stats(rows_a), stats(rows_b)
    for key in sa:
        va, vb = sa[key], sb[key]
        assert va > 0.0 and vb > 0.0
        assert math.isfinite(va) and math.isfinite(vb)
        assert max(va, vb) / min(va, vb) <= 3.0, (key, va, vb)
    _report(12, "; ".join(f"{k}: {sa[k]:.4g} vs {sb[k]:.4g}" for k in sa))


def test_criterion_13_replay_determinism(tmp_path):
    outs = []
    for tag, jobs in (("a", "1"), ("b", "4"), ("c", "1")):
        out = tmp_path / f"{tag}.jsonl"
        code = cli_main(["sweep", "--n", "1105,4225", "--seeds", "3",
                         "--seed", "77", "--out", str(out), "--jobs", jobs,
                         "--no-csv"])
        assert code == 0
        outs.append(Path(out).read_text().splitlines())
    assert outs[0][1:] == outs[1][1:] == outs[2][1:]
    header = json.loads(outs[0][0])
    assert header["schema_version"] == "1"
    _report(13, f"{len(outs[0]) - 1} rows byte-identical across reruns and "
                "parallelism degrees")
