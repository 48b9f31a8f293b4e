"""Curves with pinched positive curvature, in their own parameter u and by
arc length t, and their direction phase functions.

Construction rejects curvature sign changes, zero curvature, and total
curvature >= pi/2 (the regime every downstream bound assumes).  Nodal rows
work in u on [angle0, angle1], with max |p'| and max |p''| turning rates in
arc length into rates in u.  Arc length t on [0, L] is reached by
``u_of_t``: closed form for circular arcs, else Newton iteration on a
Gauss-Legendre arc-length table, audited at construction.  ``frame(t)``
gives the point, unit tangent and normal at t from one inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import InvariantViolation

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_X01 = 0.5 * (_GL_NODES + 1.0)  # nodes mapped to [0, 1]
_GL_W01 = 0.5 * _GL_WEIGHTS

_TABLE_N = 2048
_VALIDATE_N = 4097


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


@dataclass(frozen=True)
class CircularArc:
    center: tuple[float, float]
    radius: float
    angle0: float
    angle1: float

    def point(self, u):
        u = np.asarray(u, dtype=float)
        return np.stack(
            [self.center[0] + self.radius * np.cos(u),
             self.center[1] + self.radius * np.sin(u)], axis=-1)

    def d1(self, u):
        u = np.asarray(u, dtype=float)
        return np.stack([-self.radius * np.sin(u), self.radius * np.cos(u)], axis=-1)

    def d2(self, u):
        u = np.asarray(u, dtype=float)
        return np.stack([-self.radius * np.cos(u), -self.radius * np.sin(u)], axis=-1)


@dataclass(frozen=True)
class EllipseArc:
    center: tuple[float, float]
    a: float
    b: float
    angle0: float
    angle1: float

    def point(self, u):
        u = np.asarray(u, dtype=float)
        return np.stack(
            [self.center[0] + self.a * np.cos(u),
             self.center[1] + self.b * np.sin(u)], axis=-1)

    def d1(self, u):
        u = np.asarray(u, dtype=float)
        return np.stack([-self.a * np.sin(u), self.b * np.cos(u)], axis=-1)

    def d2(self, u):
        u = np.asarray(u, dtype=float)
        return np.stack([-self.a * np.cos(u), -self.b * np.sin(u)], axis=-1)


@dataclass(frozen=True)
class CubicArc:
    """x(u), y(u) polynomials of degree <= 3, coefficients in ascending order."""

    x_coeffs: tuple[float, float, float, float]
    y_coeffs: tuple[float, float, float, float]
    angle0: float  # parameter range; named for config uniformity
    angle1: float
    # (x, y) coefficients of the k-th derivative at index k - 1, k = 1, 2
    _ders: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        der = np.polynomial.polynomial.polyder
        object.__setattr__(self, "_ders", tuple(
            (der(self.x_coeffs, k), der(self.y_coeffs, k)) for k in (1, 2)))

    def _eval(self, u, cx, cy):
        u = np.asarray(u, dtype=float)
        px = np.polynomial.polynomial.polyval(u, cx)
        py = np.polynomial.polynomial.polyval(u, cy)
        return np.stack([px, py], axis=-1)

    def point(self, u):
        return self._eval(u, self.x_coeffs, self.y_coeffs)

    def d1(self, u):
        return self._eval(u, *self._ders[0])

    def d2(self, u):
        return self._eval(u, *self._ders[1])


CurveSpec = Union[CircularArc, EllipseArc, CubicArc]


@dataclass(frozen=True)
class Frame:
    """Point, unit tangent and unit normal at arc length t; the normal
    points to the curvature side."""

    point: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray


@dataclass(frozen=True)
class ArcLengthCurve:
    """A curvature-pinched arc: its spec's parameter u on [angle0, angle1],
    max |p'(u)| and max |p''(u)| there, and the unit-speed parametrization
    on [0, L] by arc length t.  Immutable; nothing is cached.
    """

    spec: CurveSpec
    length: float
    speed_max: float
    accel_max: float
    _orient: float  # sign of the signed curvature of the parametrization
    _u_nodes: np.ndarray = field(repr=False)
    _s_nodes: np.ndarray = field(repr=False)

    # -- parameter <-> arc length ------------------------------------------

    def _speed(self, u):
        return np.linalg.norm(self.spec.d1(u), axis=-1)

    def _arclen(self, u):
        """Cumulative arc length s(u), via the table plus one partial panel."""
        u = np.asarray(u, dtype=float)
        idx = np.clip(np.searchsorted(self._u_nodes, u, side="right") - 1,
                      0, len(self._u_nodes) - 2)
        a = self._u_nodes[idx]
        du = u - a
        partial = np.zeros_like(du)
        for x, w in zip(_GL_X01, _GL_W01):
            partial += w * self._speed(a + x * du)
        return self._s_nodes[idx] + partial * du

    def u_of_t(self, t):
        t = np.clip(np.asarray(t, dtype=float), 0.0, self.length)
        if isinstance(self.spec, CircularArc):
            return self.spec.angle0 + t / self.spec.radius
        u = np.interp(t, self._s_nodes, self._u_nodes)
        for _ in range(5):
            u = u - (self._arclen(u) - t) / self._speed(u)
            u = np.clip(u, self.spec.angle0, self.spec.angle1)
        return u

    def frame(self, t) -> Frame:
        """The point, unit tangent and normal at arc length t, from one
        arc-length inversion."""
        u = self.u_of_t(t)
        d1 = self.spec.d1(u)
        tangent = d1 / np.linalg.norm(d1, axis=-1)[..., None]
        return Frame(
            point=self.spec.point(u),
            tangent=tangent,
            normal=self._orient * np.stack([-tangent[..., 1], tangent[..., 0]], axis=-1),
        )

    def grid(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(u, p(u)) on the uniform n+1-node grid over [angle0, angle1]."""
        u = np.linspace(self.spec.angle0, self.spec.angle1, n + 1)
        return u, self.spec.point(u)


def make_arclength(spec: CurveSpec) -> ArcLengthCurve:
    """Build the unit-speed curve, enforcing the curvature contract.

    Rejects (ValueError): curvature of inconsistent sign, a zero-curvature
    point, or total curvature >= pi/2.
    """
    u0, u1 = spec.angle0, spec.angle1
    if not u1 > u0:
        raise ValueError("parameter range must have angle1 > angle0")
    uu = np.linspace(u0, u1, _VALIDATE_N)
    d1 = spec.d1(uu)
    d2 = spec.d2(uu)
    v = np.linalg.norm(d1, axis=-1)
    if np.min(v) <= 0.0:
        raise ValueError("spec has a singular point (|p'| = 0)")
    ks = _cross(d1, d2) / v**3
    if np.min(np.abs(ks)) <= 0.0 or np.min(ks) * np.max(ks) < 0.0:
        raise ValueError("curvature must be nonzero of constant sign")
    orient = 1.0 if ks[0] > 0 else -1.0

    # arc-length table and total curvature on the same panels
    u_nodes = np.linspace(u0, u1, _TABLE_N + 1)
    du = (u1 - u0) / _TABLE_N
    panel_s = np.zeros(_TABLE_N)
    panel_k = np.zeros(_TABLE_N)
    for x, w in zip(_GL_X01, _GL_W01):
        um = u_nodes[:-1] + x * du
        d1m = spec.d1(um)
        d2m = spec.d2(um)
        vm = np.linalg.norm(d1m, axis=-1)
        panel_s += w * vm
        panel_k += w * np.abs(_cross(d1m, d2m)) / vm**2  # kappa * v
    s_nodes = np.concatenate([[0.0], np.cumsum(panel_s * du)])
    total_curv = float(np.sum(panel_k * du))
    if total_curv >= 0.5 * math.pi:
        raise ValueError(
            f"total curvature {total_curv:.6f} >= pi/2; supply a shorter arc")

    if isinstance(spec, CircularArc):  # closed form, no table error
        length = spec.radius * (u1 - u0)
        speed_max = accel_max = spec.radius
        if u1 - u0 >= 0.5 * math.pi:
            raise ValueError("total curvature >= pi/2; supply a shorter arc")
    else:
        length = float(s_nodes[-1])
        speed_max = float(np.max(v))
        accel_max = float(np.max(np.linalg.norm(d2, axis=-1)))
    curve = ArcLengthCurve(
        spec=spec,
        length=length,
        speed_max=speed_max,
        accel_max=accel_max,
        _orient=orient,
        _u_nodes=u_nodes,
        _s_nodes=s_nodes,
    )
    # arc-length inversion audit (construction-time, dense): s(u(t)) = t
    t = np.linspace(0.0, length, 1025)
    err = float(np.max(np.abs(curve._arclen(curve.u_of_t(t)) - t)))
    if err > 1e-9 * length:
        raise InvariantViolation(f"arc-length inversion audit failed: {err:.3e}")
    return curve


@dataclass(frozen=True)
class PhaseEval:
    phi: np.ndarray
    dphi: np.ndarray


def phase(curve: ArcLengthCurve, xi: tuple[float, float], t) -> PhaseEval:
    """The direction phase <xi/|xi|, point at arc length t> and its
    t-derivative."""
    nx = math.hypot(xi[0], xi[1])
    if nx == 0.0:
        raise ValueError("xi must be nonzero")
    e = np.array([xi[0] / nx, xi[1] / nx])
    fr = curve.frame(np.asarray(t, dtype=float))
    return PhaseEval(phi=fr.point @ e, dphi=fr.tangent @ e)
