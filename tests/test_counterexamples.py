import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from toral_nodal.counterexamples import (Approximant,
                                         continued_fraction_approximants,
                                         irrational_geodesic_witness,
                                         legendre_eval, legendre_eval_exact,
                                         legendre_recurrence_exact,
                                         legendre_zeros,
                                         parallel_exception_search,
                                         rational_geodesic_eigenfunction)
from toral_nodal.errors import InvariantViolation

SQRT2_CONVERGENTS = [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (99, 70),
                     (239, 169), (577, 408)]


# -- rational geodesics ----------------------------------------------------------

def test_axis_geodesic():
    wave, worst = rational_geodesic_eigenfunction(1, 0, 0.0, 1)
    assert wave.eigenvalue == 1
    assert worst <= 1e-12
    # F = sin(-y), which vanishes on the x-axis (the direction-(1,0) geodesic)
    assert wave.value(0.7, 0.0) == 0.0
    assert wave.value(0.0, 0.5) == pytest.approx(math.sin(-0.5))


def test_eigenvalue_formula():
    wave, _ = rational_geodesic_eigenfunction(3, 4, 0.0, 2)
    assert wave.eigenvalue == 4 * 25


def test_family_vanishes_on_geodesic():
    for p, q, c, n in [(1, 2, 0.7, 3), (2, 3, 1.3, 2), (1, 1, 0.0, 5)]:
        wave, worst = rational_geodesic_eigenfunction(p, q, c, n)
        assert worst <= 1e-12
        # spot check off the geodesic: the wave is not identically zero
        assert abs(wave.value(0.1234, 4.321)) > 1e-6 or n > 5


def test_laplacian_audit():
    wave, _ = rational_geodesic_eigenfunction(2, 3, 0.4, 3)
    xs = np.linspace(0.1, 6.0, 40)
    ratios = wave.laplacian_ratio(xs, xs**0.5)
    assert np.max(np.abs(ratios - wave.eigenvalue)) / wave.eigenvalue < 1e-9


def test_rational_geodesic_validation():
    with pytest.raises(ValueError):
        rational_geodesic_eigenfunction(0, 0, 0.0, 1)
    with pytest.raises(ValueError):
        rational_geodesic_eigenfunction(2, 4, 0.0, 1)
    with pytest.raises(ValueError):
        rational_geodesic_eigenfunction(1, 2, 0.0, 0)


# -- continued fractions ------------------------------------------------------------

def test_sqrt2_convergents():
    conv = continued_fraction_approximants(math.sqrt(2), 8)
    assert [(a.p, a.q) for a in conv] == SQRT2_CONVERGENTS
    for a in conv:
        assert a.error < 1.0 / a.q**2


def test_golden_ratio_fibonacci():
    conv = continued_fraction_approximants((1 + math.sqrt(5)) / 2, 8)
    fib = [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5), (13, 8), (21, 13), (34, 21)]
    assert [(a.p, a.q) for a in conv] == fib


def test_rational_beta_warns():
    with pytest.warns(UserWarning, match="terminated"):
        conv = continued_fraction_approximants(0.5, 10)
    assert conv[-1].q == 2


def test_approximant_invariant_enforced():
    with pytest.raises(InvariantViolation):
        Approximant(p=1, q=1, error=1.5)


@given(st.floats(min_value=0.01, max_value=10.0))
def test_convergents_always_satisfy_quality(beta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        conv = continued_fraction_approximants(beta, 6)
    for a in conv:
        assert abs(beta - a.p / a.q) < 1.0 / a.q**2


# -- irrational geodesic witnesses ----------------------------------------------------

def test_witness_min_and_zero_count():
    for k in range(1, 9):
        w = irrational_geodesic_witness(math.sqrt(2), (0.3, 0.4), k)
        assert w.sign_changes == 0
        assert w.min_on_segment >= math.cos(1.0 / w.q)
    w4 = irrational_geodesic_witness(math.sqrt(2), (0.0, 0.0), 4)
    assert (w4.p, w4.q) == (17, 12)
    assert w4.min_on_segment >= math.cos(1.0 / 12.0)  # ~0.99653
    assert w4.eigenvalue == 17**2 + 12**2


def test_witness_center_value_is_one():
    # t = 0 sits at v0; the restricted wave equals cos(0) = 1 exactly
    w = irrational_geodesic_witness(math.sqrt(2), (0.3, 0.4), 3)
    assert w.min_on_segment <= 1.0


# -- Legendre polynomials ----------------------------------------------------------

def test_odd_degree_vanishes_at_zero():
    assert legendre_eval(3, np.asarray(0.0)) == 0.0
    assert legendre_eval(7, np.asarray(0.0)) == 0.0


def test_small_values():
    assert float(legendre_eval(2, np.asarray(0.5))) == pytest.approx(-0.125)
    assert float(legendre_eval(0, np.asarray(0.3))) == 1.0


def test_domain_validation():
    with pytest.raises(ValueError):
        legendre_eval(3, np.asarray(1.5))
    with pytest.raises(ValueError):
        legendre_eval(-1, np.asarray(0.0))


@given(st.integers(min_value=0, max_value=60),
       st.floats(min_value=-1.0, max_value=1.0))
def test_parity(ell, x):
    left = float(legendre_eval(ell, np.asarray(-x)))
    right = (-1.0) ** ell * float(legendre_eval(ell, np.asarray(x)))
    assert left == pytest.approx(right, abs=1e-12)


def test_normalization_at_one():
    for ell in range(0, 201, 17):
        assert float(legendre_eval(ell, np.asarray(1.0))) == 1.0


def test_exact_routes_agree():
    for ell in range(0, 31):
        for x in (Fraction(0), Fraction(1, 2), Fraction(-1, 2),
                  Fraction(1), Fraction(-1)):
            assert legendre_eval_exact(ell, x) == legendre_recurrence_exact(ell, x)


def test_zero_sets():
    assert legendre_zeros(1) == (0.0,)
    z2 = legendre_zeros(2)
    assert z2[1] == pytest.approx(1 / math.sqrt(3), abs=1e-14)
    z5 = np.array(legendre_zeros(5))
    assert len(z5) == 5
    assert np.max(np.abs(z5 + z5[::-1])) < 1e-12  # symmetric about 0
    assert np.max(np.abs(legendre_eval(5, z5))) <= 1e-12


def test_zero_interlacing_small():
    for ell in range(2, 40):
        inner = legendre_zeros(ell - 1)
        outer = legendre_zeros(ell)
        for i, z in enumerate(inner):
            assert outer[i] < z < outer[i + 1]


# -- sphere parallels ----------------------------------------------------------------

def test_equator_branch():
    rep = parallel_exception_search(math.pi / 2)
    assert rep.kind == "equator"


def test_exceptional_parallel():
    rep = parallel_exception_search(math.acos(1 / math.sqrt(3)), prime_cap=101)
    assert rep.kind == "exceptional-degree"
    assert rep.exceptional_degree == 2
    assert rep.min_prime_value > 1e-10
    assert rep.primes_checked == 24  # primes in (3, 101]


def test_generic_parallel():
    rep = parallel_exception_search(1.234, degree_cap=60)
    assert rep.kind == "generic"


def test_theta_range_validation():
    with pytest.raises(ValueError):
        parallel_exception_search(0.0)
    with pytest.raises(ValueError):
        parallel_exception_search(2.0)
    with pytest.raises(ValueError):
        parallel_exception_search(1.0, prime_cap=20_000)
