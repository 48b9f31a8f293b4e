import cmath
import math
import tracemalloc

import numpy as np
import pytest

from toral_nodal import wavefield
from toral_nodal.errors import InvariantViolation
from toral_nodal.lattice import enumerate_circle
from toral_nodal.wavefield import (ArcLocalized, Eigenfunction, GaussianRandom,
                                   SinglePair, UniformRandom, evaluate,
                                   make_eigenfunction, restrict)


def reference_sum(F, x):
    """Independent term-by-term evaluation in plain Python."""
    total = 0 + 0j
    for mu, a in sorted(F.coeffs.items()):
        total += a * cmath.exp(1j * (mu[0] * x[0] + mu[1] * x[1]))
    return total.real


# -- coefficient models -------------------------------------------------------

def test_single_pair_coefficients(circle25):
    F = make_eigenfunction(circle25, SinglePair(mu=(5, 0)))
    assert F.coeffs[(5, 0)] == pytest.approx(2**-0.5)
    assert F.coeffs[(-5, 0)] == pytest.approx(2**-0.5)
    assert F.sum_sq == pytest.approx(1.0, abs=1e-12)


def test_random_models_normalized(circle25):
    for model in (UniformRandom(seed=7), GaussianRandom(seed=7)):
        F = make_eigenfunction(circle25, model)
        assert abs(F.sum_sq - 1.0) <= 1e-12
        for p, a in F.coeffs.items():
            assert F.coeffs[(-p[0], -p[1])] == a.conjugate()


def test_random_models_deterministic(circle25):
    a = make_eigenfunction(circle25, UniformRandom(seed=3)).coeffs
    b = make_eigenfunction(circle25, UniformRandom(seed=3)).coeffs
    assert a == b


def test_arc_localized_support(circle1105):
    model = ArcLocalized(center_angle=0.4, seed=1, fraction=0.02)
    F = make_eigenfunction(circle1105, model)
    half = math.pi * 0.02
    for p in F.coeffs:
        ang = math.atan2(p[1], p[0]) % (2 * math.pi)
        d_center = abs((ang - 0.4 + math.pi) % (2 * math.pi) - math.pi)
        d_mirror = abs((ang - 0.4 - math.pi + math.pi) % (2 * math.pi) - math.pi)
        assert min(d_center, d_mirror) <= half + 1e-12


def test_arc_localized_empty_arc(circle25):
    with pytest.raises(ValueError):
        make_eigenfunction(circle25, ArcLocalized(center_angle=0.3, seed=0,
                                                  fraction=0.001))


def test_eigenfunction_validation(circle25):
    with pytest.raises(ValueError, match="Hermitian"):
        Eigenfunction(circle25, {(5, 0): 1.0 + 0j, (-5, 0): 0.5 + 0j})
    with pytest.raises(ValueError, match="circle"):
        Eigenfunction(circle25, {(1, 0): 1.0 + 0j, (-1, 0): 1.0 + 0j})
    with pytest.raises(ValueError, match="normalized"):
        Eigenfunction(circle25, {(5, 0): 0.5 + 0j, (-5, 0): 0.5 + 0j})


# -- evaluation ----------------------------------------------------------------

def test_cosine_pair_fixture(circle25):
    F = Eigenfunction(circle25, {(5, 0): 0.5 + 0j, (-5, 0): 0.5 + 0j},
                      check_norm=False)
    assert evaluate(F, np.array([0.0, 0.0])) == pytest.approx(1.0)
    xs = np.random.default_rng(0).uniform(0, 2 * math.pi, size=(50, 2))
    assert np.allclose(evaluate(F, xs), np.cos(5 * xs[:, 0]), atol=1e-12)


def test_value_at_origin_is_coefficient_sum(circle25):
    F = make_eigenfunction(circle25, UniformRandom(seed=11))
    total = sum(F.coeffs.values())
    assert abs(total.imag) < 1e-12
    assert evaluate(F, np.zeros(2)) == pytest.approx(total.real, abs=1e-12)


def test_evaluate_matches_reference_sum(circle1105):
    F = make_eigenfunction(circle1105, GaussianRandom(seed=5))
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(0, 2 * math.pi, 2)
        assert evaluate(F, x) == pytest.approx(reference_sum(F, x), abs=1e-12)


def test_sup_bound(circle25):
    F = make_eigenfunction(circle25, UniformRandom(seed=2))
    grid = np.stack(np.meshgrid(np.linspace(0, 2 * math.pi, 101),
                                np.linspace(0, 2 * math.pi, 101)), axis=-1)
    vals = evaluate(F, grid)
    assert np.max(np.abs(vals)) <= F.sum_abs + 1e-12


def test_parseval_on_uniform_grid(circle25):
    F = make_eigenfunction(circle25, UniformRandom(seed=4))
    m = 4 * math.ceil(circle25.radius) + 1  # > 2 * diameter of the spectrum
    ax = np.arange(m) * 2 * math.pi / m
    grid = np.stack(np.meshgrid(ax, ax), axis=-1)
    mean_sq = float(np.mean(evaluate(F, grid) ** 2))
    assert abs(mean_sq - F.sum_sq) <= 1e-3 * F.sum_sq


CHUNK = wavefield._EVAL_CHUNK


@pytest.mark.parametrize(
    "shape", [(CHUNK - 1,), (CHUNK,), (CHUNK + 1,), (2 * CHUNK + 3,), (3, 5)])
def test_evaluate_chunk_boundaries(circle1105, shape):
    F = make_eigenfunction(circle1105, UniformRandom(seed=6))
    x = np.random.default_rng(len(shape)).uniform(0, 2 * math.pi, (*shape, 2))
    vals = evaluate(F, x)
    assert vals.shape == shape
    ref = np.array([reference_sum(F, p) for p in x.reshape(-1, 2)])
    assert np.max(np.abs(vals.reshape(-1) - ref)) <= 1e-12


def test_evaluate_memory_is_bounded():
    F = make_eigenfunction(enumerate_circle(160225), GaussianRandom(seed=1))
    assert len(F.coeffs) == 96
    rng = np.random.default_rng(0)
    extra = []
    for npts in (1 << 16, 1 << 18):
        x = rng.uniform(0, 2 * math.pi, (npts, 2))
        tracemalloc.start()
        try:
            out = evaluate(F, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - out.nbytes)
    one_chunk = CHUNK * len(F.coeffs) // 2 * 8
    assert abs(extra[1] - extra[0]) <= one_chunk
    assert max(extra) < 16 * 2**20


@pytest.mark.parametrize("model", [
    SinglePair(mu=(31, 12), phase=0.4), UniformRandom(seed=1),
    GaussianRandom(seed=2), ArcLocalized(center_angle=0.3, seed=3, fraction=0.1)])
def test_imaginary_bound_is_zero_for_models(circle1105, model):
    assert make_eigenfunction(circle1105, model).imag_bound == 0.0


def test_imaginary_bound_enforced(circle25, monkeypatch):
    # real pairs with a 1e-12 imaginary defect on the upper member, which
    # the import's Hermitian tolerance (1e-12) still admits
    upper = {p for p in circle25.points if p[1] > 0 or (p[1] == 0 and p[0] > 0)}
    coeffs = {p: complex(0.2, 1e-12 if p in upper else 0.0) for p in circle25.points}
    F = Eigenfunction(circle=circle25, coeffs=coeffs, check_norm=False)
    pairs = len(F.coeffs) // 2
    assert F.imag_bound == pytest.approx(pairs * 1e-12, rel=1e-3)
    x = np.zeros((4, 2))
    evaluate(F, x)
    monkeypatch.setattr(wavefield, "IMAG_TOL", 0.5 * F.imag_bound)
    with pytest.raises(InvariantViolation, match="imaginary"):
        evaluate(F, x)


# -- restriction ----------------------------------------------------------------

def test_restriction_consistency(circle25, circ):
    F = make_eigenfunction(circle25, UniformRandom(seed=7))
    rw = restrict(F, circ)
    t = np.linspace(0.0, circ.length, 1000)
    u = circ.spec.angle0 + t / circ.spec.radius  # the same points, in u
    assert np.max(np.abs(rw.value_at_param(u) - evaluate(F, circ.frame(t).point))) <= 1e-12


def test_restriction_derivative(circle25, circ):
    F = make_eigenfunction(circle25, UniformRandom(seed=8))
    rw = restrict(F, circ)
    u = np.linspace(circ.spec.angle0 + 0.01, circ.spec.angle1 - 0.01, 77)
    h = 1e-6
    fd = (rw.value_at_param(u + h) - rw.value_at_param(u - h)) / (2 * h)
    assert np.max(np.abs(fd - rw.derivative_at_param(u))) < 1e-5


def test_single_pair_restriction_closed_form(circle25, circ):
    F = make_eigenfunction(circle25, SinglePair(mu=(3, 4), phase=0.7))
    rw = restrict(F, circ)
    spec = circ.spec
    u = np.linspace(spec.angle0, spec.angle1, 200)
    x = spec.center[0] + spec.radius * np.cos(u)
    y = spec.center[1] + spec.radius * np.sin(u)
    expect = math.sqrt(2.0) * np.cos(3 * x + 4 * y + 0.7)
    assert np.allclose(rw.value_at_param(u), expect, atol=1e-12)


def test_grid_values_cache(circle25, circ):
    F = make_eigenfunction(circle25, UniformRandom(seed=1))
    rw = restrict(F, circ)
    u1, f1 = rw.grid_values(64)
    u2, f2 = rw.grid_values(128)
    assert np.array_equal(f2[::2], f1)
    assert np.array_equal(u2, np.linspace(circ.spec.angle0, circ.spec.angle1, 129))
    assert np.max(np.abs(f2 - evaluate(F, circ.spec.point(u2)))) < 1e-12
