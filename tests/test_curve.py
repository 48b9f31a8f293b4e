import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from toral_nodal.curve import (ArcLengthCurve, CircularArc, CubicArc, EllipseArc,
                               make_arclength, phase)
from toral_nodal.errors import InvariantViolation


def reference_arclength(spec, u0, u1, n=200_000):
    """Independent fine-grid Simpson of |gamma'_spec|."""
    u = np.linspace(u0, u1, n + 1)
    speed = np.linalg.norm(spec.d1(u), axis=-1)
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return float((u1 - u0) / n / 3.0 * (w @ speed))


def test_circular_closed_form():
    c = make_arclength(CircularArc(center=(0.0, 0.0), radius=1.0,
                                   angle0=0.0, angle1=math.pi / 4))
    assert c.length == math.pi / 4
    assert c.speed_max == c.accel_max == 1.0


def test_scaled_circle_curvature():
    c = make_arclength(CircularArc(center=(1.0, 2.0), radius=2.5,
                                   angle0=0.1, angle1=0.6))
    assert c.length == pytest.approx(2.5 * 0.5, abs=1e-15)
    assert c.speed_max == c.accel_max == 2.5
    assert c.accel_max / c.speed_max**2 == pytest.approx(0.4)  # curvature 1/R


def test_ellipse_derivative_bounds(ell):
    # |p'|^2 = 1 + 3 sin^2 u rises and |p''|^2 = 1 + 3 cos^2 u falls on
    # [0.2, 0.9] (a = 2, b = 1): both maxima sit at an end of the range
    assert ell.speed_max == pytest.approx(math.sqrt(1 + 3 * math.sin(0.9) ** 2), rel=1e-15)
    assert ell.accel_max == pytest.approx(math.sqrt(1 + 3 * math.cos(0.2) ** 2), rel=1e-15)


def test_ellipse_length_matches_reference(ell):
    ref = reference_arclength(ell.spec, 0.2, 0.9)
    assert abs(ell.length - ref) < 1e-9


def test_cubic_length_matches_reference(cub):
    ref = reference_arclength(cub.spec, 0.0, 0.8)
    assert abs(cub.length - ref) < 1e-9


def test_cubic_cached_derivatives_match_polyder(cub):
    spec = cub.spec
    u = np.linspace(spec.angle0, spec.angle1, 1000)
    P = np.polynomial.polynomial
    for k, d in ((1, spec.d1), (2, spec.d2)):
        fresh = np.stack([P.polyval(u, P.polyder(spec.x_coeffs, k)),
                          P.polyval(u, P.polyder(spec.y_coeffs, k))], axis=-1)
        assert np.array_equal(d(u), fresh)


def test_full_circle_rejected():
    with pytest.raises(ValueError, match="curvature"):
        make_arclength(CircularArc(center=(0, 0), radius=1.0,
                                   angle0=0.0, angle1=2 * math.pi))


def test_zero_curvature_rejected():
    with pytest.raises(ValueError):
        make_arclength(CubicArc(x_coeffs=(0, 1, 0, 0), y_coeffs=(0, 0, 0, 0),
                                angle0=0.0, angle1=1.0))


def test_inflection_rejected():
    # y = u^3 has a curvature sign change through u = 0
    with pytest.raises(ValueError):
        make_arclength(CubicArc(x_coeffs=(0, 1, 0, 0), y_coeffs=(0, 0, 0, 0.2),
                                angle0=-0.5, angle1=0.5))


def test_unit_speed_and_frenet(all_curves):
    h = 1e-5
    for curve in all_curves:
        t = np.linspace(h, curve.length - h, 2001)
        fr = curve.frame(t)
        # the speed by central differences of the points, not from the tangent
        step = curve.frame(t + h).point - curve.frame(t - h).point
        assert np.max(np.abs(np.linalg.norm(step, axis=-1) / (2 * h) - 1.0)) <= 1e-9
        tang = fr.tangent
        assert np.max(np.abs(np.linalg.norm(tang, axis=-1) - 1.0)) <= 1e-9
        assert np.max(np.abs(np.einsum("ij,ij->i", tang, fr.normal))) <= 1e-9


@pytest.mark.parametrize("spec", [
    CircularArc(center=(3.0, 3.0), radius=1.0, angle0=0.3, angle1=1.5),
    EllipseArc(center=(2.0, 2.0), a=2.0, b=1.0, angle0=0.2, angle1=0.9)])
def test_inversion_audit_catches_offset(monkeypatch, spec):
    # an inversion off by 1e-3 in u still yields unit tangents; the audit
    # must see that s(u(t)) misses t
    inner = ArcLengthCurve.u_of_t
    monkeypatch.setattr(ArcLengthCurve, "u_of_t", lambda self, t: inner(self, t) + 1e-3)
    with pytest.raises(InvariantViolation, match="inversion"):
        make_arclength(spec)


@pytest.mark.parametrize("name", ["ell", "cub"])
def test_frame_and_phase_invert_once(request, monkeypatch, name):
    curve = request.getfixturevalue(name)
    inner = ArcLengthCurve.u_of_t
    calls = []

    def counted(self, t):
        calls.append(t)
        return inner(self, t)

    monkeypatch.setattr(ArcLengthCurve, "u_of_t", counted)
    t = np.linspace(0.0, curve.length, 9)
    for i, call in enumerate([lambda: curve.frame(t),
                              lambda: curve.frame(np.asarray(t[3])),
                              lambda: phase(curve, (0.6, 0.8), t),
                              lambda: phase(curve, (-1.0, 0.5), np.asarray(t[5]))]):
        call()
        assert len(calls) == i + 1


def test_arclength_parametrization_consistency(ell):
    # walking the curve accumulates exactly the arc length
    t = np.linspace(0.0, ell.length, 5)
    for a, b in zip(t, t[1:]):
        seg = reference_arclength(ell.spec, float(ell.u_of_t(a)), float(ell.u_of_t(b)))
        assert abs(seg - (b - a)) < 1e-9


def test_phase_circular_closed_form(circ):
    # for a circular arc, the phase in direction (1,0) is the x coordinate
    t = np.linspace(0.0, circ.length, 33)
    pe = phase(circ, (1.0, 0.0), t)
    assert np.allclose(pe.phi, circ.frame(t).point[:, 0], atol=1e-12)
    u = 0.3 + t  # R = 1
    assert np.allclose(pe.phi, 3.0 + np.cos(u), atol=1e-12)
    assert np.allclose(pe.dphi, -np.sin(u), atol=1e-12)


def test_phase_derivatives_match_finite_differences(all_curves):
    h = 1e-5
    for curve in all_curves:
        for ang in (0.0, 0.8, 2.1, 4.0):
            xi = (math.cos(ang), math.sin(ang))
            t = np.linspace(4 * h, curve.length - 4 * h, 41)
            pe = phase(curve, xi, t)
            fd1 = (phase(curve, xi, t + h).phi - phase(curve, xi, t - h).phi) / (2 * h)
            rel = np.max(np.abs(pe.dphi - fd1) / np.maximum(np.abs(fd1), 1e-3))
            assert rel < 1e-6


def test_phase_one_sided_at_endpoints(circ):
    h = 1e-5
    for t0, sign in ((0.0, 1.0), (circ.length, -1.0)):
        pe = phase(circ, (0.0, 1.0), np.asarray(t0))
        fd = sign * (phase(circ, (0.0, 1.0), np.asarray(t0 + sign * h)).phi
                     - pe.phi) / h
        assert abs(fd - pe.dphi) < 1e-4


@given(st.floats(min_value=0.0, max_value=2 * math.pi),
       st.floats(min_value=0.0, max_value=1.0))
def test_phase_derivative_bounds(ang, frac):
    curve = make_arclength(EllipseArc(center=(2.0, 2.0), a=2.0, b=1.0,
                                      angle0=0.2, angle1=0.9))
    xi = (math.cos(ang), math.sin(ang))
    pe = phase(curve, xi, np.asarray(frac * curve.length))
    assert abs(pe.dphi) <= 1.0 + 1e-12


def test_second_derivative_single_sign_change(all_curves):
    # total curvature < pi/2 forces phi'' to change sign at most once
    for curve in all_curves:
        t = np.linspace(0.0, curve.length, 4096)
        for ang in np.linspace(0.0, 2 * math.pi, 17):
            d2 = np.diff(phase(curve, (math.cos(ang), math.sin(ang)), t).dphi)
            signs = np.sign(d2[np.abs(d2) > 1e-12])
            changes = int(np.sum(signs[:-1] != signs[1:]))
            assert changes <= 1


def test_stationary_direction_values(circ):
    t0 = 0.5 * circ.length
    fr = circ.frame(np.asarray(t0))
    tang, nrm = fr.tangent, fr.normal
    pe_t = phase(circ, tuple(tang), np.asarray(t0))
    assert abs(abs(pe_t.dphi) - 1.0) < 1e-12
    pe_n = phase(circ, tuple(nrm), np.asarray(t0))
    assert abs(pe_n.dphi) < 1e-9


def test_grid_cache_consistency(ell):
    u8, g8 = ell.grid(8)
    u16, g16 = ell.grid(16)
    assert np.array_equal(u16[::2], u8)
    assert np.array_equal(g16[::2], g8)
    spec = ell.spec
    assert u16[0] == spec.angle0 and u16[-1] == spec.angle1
    assert np.max(np.abs(np.diff(u16) - (spec.angle1 - spec.angle0) / 16)) < 1e-15
    assert np.max(np.abs(spec.point(u16) - g16)) < 1e-12
