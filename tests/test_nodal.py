import math
import tracemalloc

import numpy as np
import pytest

from helpers import analytic_crossing_count, validate_brackets

from toral_nodal.curve import ArcLengthCurve, CircularArc, make_arclength, phase
from toral_nodal.fixtures import circular_fixture
from toral_nodal.lattice import enumerate_circle
from toral_nodal.nodal import certified_sign_changes, count_sign_changes, theorem_harness
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
    validate_brackets(rep, rw.value_at_param)


def test_counts_monotone_across_levels(circ):
    F = make_eigenfunction(enumerate_circle(1105), UniformRandom(seed=5))
    rw = restrict(F, circ)
    rep = count_sign_changes(rw)
    sizes = [rep.intervals >> k for k in reversed(range(rep.grid_levels))]
    levels = []
    for n in sizes:
        f = rw.grid_values(n)[1]
        levels.append(int(np.sum(f[:-1] * f[1:] < 0.0)))
    assert len(levels) >= 3 and levels[-1] == rep.count
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
    validate_brackets(rep, fn)
    lo, hi = rep.brackets[0]
    assert lo < c < hi


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
    assert np.min(rw.value_at_param(np.linspace(0.78, 0.82, 2000))) > 0.0
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


@pytest.mark.parametrize("name", ["ell", "cub"])
def test_theorem_harness_never_inverts_arc_length(request, monkeypatch, name):
    # the whole row runs in the curve's own parameter u
    curve = request.getfixturevalue(name)
    inner = ArcLengthCurve.u_of_t
    calls = []

    def counted(self, t):
        calls.append(t)
        return inner(self, t)

    monkeypatch.setattr(ArcLengthCurve, "u_of_t", counted)
    F = make_eigenfunction(enumerate_circle(1105), UniformRandom(seed=3))
    rec = theorem_harness(restrict(F, curve))
    assert rec.zeros > 0
    assert calls == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_theorem_harness_memory_bounded(seed):
    # a fresh curve and wave, so every grid is allocated inside the traced run
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
