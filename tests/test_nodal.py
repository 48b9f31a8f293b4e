import math
import tracemalloc

import numpy as np
import pytest

from helpers import analytic_crossing_count

from toral_nodal.curve import CircularArc, make_arclength, phase
from toral_nodal.fixtures import circular_fixture
from toral_nodal.lattice import enumerate_circle
from toral_nodal.nodal import (build_partition, certified_sign_changes,
                               count_sign_changes, partition_experiment,
                               theorem_harness)
from toral_nodal.wavefield import SinglePair, UniformRandom, make_eigenfunction, restrict


SINGLE_PAIR_CASES = []
_rng = np.random.default_rng(20240814)
for _n in (25, 65, 325, 1105):
    _pts = enumerate_circle(_n).points
    for _ in range(6):
        _mu = _pts[_rng.integers(len(_pts))]
        SINGLE_PAIR_CASES.append((_n, _mu, float(_rng.uniform(0, 2 * math.pi))))


@pytest.mark.parametrize("n,mu,shift", SINGLE_PAIR_CASES)
def test_count_matches_analytic_oracle(n, mu, shift, circ):
    F = make_eigenfunction(enumerate_circle(n), SinglePair(mu=mu, phase=shift))
    rw = restrict(F, circ)
    rep = count_sign_changes(rw)
    assert rep.stable
    assert rep.count == analytic_crossing_count(circ, mu, shift)
    rep.validate(rw.value)


def test_counts_monotone_across_levels(circ):
    F = make_eigenfunction(enumerate_circle(1105), UniformRandom(seed=5))
    rep = count_sign_changes(restrict(F, circ))
    levels = rep.counts_per_level
    assert all(b >= a for a, b in zip(levels, levels[1:]))
    assert rep.stable


def test_brackets_disjoint_and_tight(circ):
    F = make_eigenfunction(enumerate_circle(325), UniformRandom(seed=2))
    rw = restrict(F, circ)
    rep = count_sign_changes(rw, tol=1e-10)
    assert len(rep.brackets) == rep.count
    for (a1, b1), (a2, b2) in zip(rep.brackets, rep.brackets[1:]):
        assert b1 <= a2
    assert all(b - a <= 1e-10 for a, b in rep.brackets)


def test_tangential_zero_not_counted():
    # a double zero has no sign change and must be invisible to the counter
    rep = certified_sign_changes(lambda t: (t - 0.5) ** 2, 0.0, 1.0, rate=2.0)
    assert rep.count == 0
    rep2 = certified_sign_changes(lambda t: (t - 0.5) ** 2 * (t - 0.8), 0.0, 1.0,
                                  rate=2.0)
    assert rep2.count == 1


def test_zero_function_rejected():
    with pytest.raises(ValueError):
        certified_sign_changes(lambda t: np.zeros_like(t), 0.0, 1.0, rate=1.0)


@pytest.mark.parametrize("c", [0.25 + 2.0**-19, 0.3203125 + 2.0**-30, 1.0 / 3.0])
def test_bracket_invariant_survives_dyadic_zeros(c):
    # zeros at dyadic depths hit bisection split points exactly; the
    # brackets must keep strict sign changes at their endpoints regardless
    fn = lambda t: np.asarray(t) - c
    rep = certified_sign_changes(fn, 0.0, 1.0, rate=1.0)
    assert rep.count == 1
    rep.validate(fn)
    lo, hi = rep.brackets[0]
    assert lo < c < hi


# -- partition of unity ------------------------------------------------------

def test_partition_examples():
    part = build_partition(1.2, 100.0, 10.0)
    assert part.count == 12  # ceil(L * lambda / C1)
    audit = part.audit(10_000)
    assert audit["sum_err"] <= 1e-10
    assert audit["overlap"] <= 2


def test_partition_supports_and_derivatives():
    part = build_partition(1.0, 64.0, 4.0)
    t = np.linspace(0.0, 1.0, 3000)
    for j in range(part.count):
        a, b = part.support(j)
        vals = part.tau(j, t)
        assert np.all(vals[(t < a - 1e-12) | (t > b + 1e-12)] == 0.0)
        assert b - a <= 2 * part.h + 1e-12
    audit = part.audit()
    assert audit["d1_max_ratio"] < 3.0
    assert audit["d2_max_ratio"] < 25.0


def test_partition_parameter_validation():
    with pytest.raises(ValueError):
        build_partition(1.0, 100.0, 0.5)
    with pytest.raises(ValueError):
        build_partition(1.0, 100.0, 26.0)


class OneSignWave:
    """Strictly positive fixture: no bump can detect a sign change."""

    def __init__(self, rw):
        self.curve = rw.curve
        self.lam = rw.lam
        self.F = rw.F

    def value(self, t):
        return 2.0 + np.cos(np.asarray(t, dtype=float))

    def grid_values(self, n):
        t = np.linspace(0.0, self.curve.length, n + 1)
        return t, self.value(t)


def test_partition_experiment_no_sign_changes(circ):
    F = make_eigenfunction(enumerate_circle(25), UniformRandom(seed=1))
    rw = OneSignWave(restrict(F, circ))
    record = partition_experiment(rw, c1=1.0, sigma=0.25)
    assert record["detected_bumps"] == 0
    assert record["lhs_detected_mass"] == 0.0


def test_partition_experiment_single_pair(circ):
    n, mu, shift = 325, (18, 1), 0.9
    F = make_eigenfunction(enumerate_circle(n), SinglePair(mu=mu, phase=shift))
    rw = restrict(F, circ)
    record = partition_experiment(rw, c1=2.0, sigma=0.2, check_coupling=True)
    oracle = analytic_crossing_count(circ, mu, shift)
    assert record["sign_changes"] == oracle
    # overlap <= 2: each sign change can mark at most two bumps
    assert record["detected_bumps"] <= 2 * oracle
    assert record["coupling_c1_sigma"] == pytest.approx(2.0 * 0.2**1.5)
    for key in ("ratio_detected_mass", "ratio_undetected",
                "f2_norm_times_sigma_sq", "f3_norm_times_sigma"):
        assert math.isfinite(record[key])


def test_partition_experiment_random_row(circ):
    F = make_eigenfunction(enumerate_circle(1105), UniformRandom(seed=9))
    record = partition_experiment(restrict(F, circ), c1=3.0, sigma=0.25)
    assert record["bumps"] >= 2
    assert record["detected_bumps"] >= 1
    assert record["lhs_detected_mass"] > 0.0
    assert record["detected_over_freq_l1_fifth"] > 0.0


# -- theorem harness -----------------------------------------------------------

def test_theorem_harness_single_pair(circ):
    n, mu, shift = 25, (3, 4), 0.4
    F = make_eigenfunction(enumerate_circle(n), SinglePair(mu=mu, phase=shift))
    rw = restrict(F, circ)
    rec = theorem_harness(rw, seed=123)
    assert rec.zeros == analytic_crossing_count(circ, mu, shift)
    assert rec.arc_max == 2
    assert rec.seed == 123
    assert rec.ratio_zeros_arcmax == pytest.approx(rec.zeros * 2**2.5 / 5.0)
    assert rec.zeros_over_freq == pytest.approx(rec.zeros / 5.0)
    row = rec.as_row()
    assert row["n"] == 25 and row["npoints"] == 12


def test_theorem_harness_zero_free_restriction():
    # short arc, phase centered between crossings: a degenerate N = 0 row
    curve = make_arclength(CircularArc(center=(3.0, 3.0), radius=1.0,
                                       angle0=0.78, angle1=0.82))
    n, mu = 25, (0, 5)
    u_mid = 5.0 * float(phase(curve, mu, np.asarray(curve.length / 2)).phi)
    shift = -u_mid  # u(t) stays near 0 mod 2pi: cos > 0 on the whole arc
    F = make_eigenfunction(enumerate_circle(n), SinglePair(mu=mu, phase=shift))
    rw = restrict(F, curve)
    assert np.min(rw.value(np.linspace(0, curve.length, 2000))) > 0.0
    rec = theorem_harness(rw)
    assert rec.zeros == 0
    assert rec.ratio_zeros_arcmax == 0.0
    assert rec.ratio_zeros_l1mass == 0.0
    assert rec.l1 > 0.0


def test_theorem_harness_random_row(circ):
    F = make_eigenfunction(enumerate_circle(1105), UniformRandom(seed=4))
    rec = theorem_harness(restrict(F, circ))
    assert rec.seed == 4
    assert rec.zeros > 0 and rec.stable
    assert rec.ratio_zeros_arcmax > 0.0
    assert rec.ratio_zeros_l1mass > 0.0
    assert math.isfinite(rec.ratio_l4_arcmax)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_theorem_harness_memory_bounded(seed):
    # a fresh curve, so its grid cache is allocated inside the traced run
    F = make_eigenfunction(enumerate_circle(160225), UniformRandom(seed=seed))
    rw = restrict(F, circular_fixture())
    tracemalloc.start()
    try:
        rec = theorem_harness(rw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.zeros > 0
    assert peak < 8 * 2**20
