"""Real toral eigenfunctions and their restriction to a curve, in the
curve's own parameter u.

The canonical normalization is sum |a_mu|^2 = 1, so the full-torus L2 norm
(with respect to Lebesgue measure on [0, 2pi)^2) is 1/(2pi).  Coefficients
always come in Hermitian pairs a_{-mu} = conj(a_mu), which keeps every field
real-valued.  Evaluation sums the upper half plane only, in real arithmetic
and in fixed chunks of points (so memory stays bounded): with
b_mu = a_mu + conj(a_{-mu}), Re F(x) = sum_upper Re b cos<mu,x> - Im b sin<mu,x>.
The dropped imaginary part is certified once, at construction: |Im F(x)| <=
D = sum_upper |a_mu - conj(a_{-mu})| at every x, and evaluation refuses a
field whose D exceeds IMAG_TOL.

Every refinement in the package (oscillatory integrals, restriction norms,
sign-change counts) walks the same dyadic cascade: it doubles through
:func:`dyadic_levels`, from :func:`first_level` for the uniform grids,
until its own stopping test passes or the next level would exceed its node
cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .curve import ArcLengthCurve
from .errors import InvariantViolation
from .lattice import LatticeCircle, Point, _angle

IMAG_TOL = 1e-10

# Points per block of the evaluation kernel, whose temporaries are then
# 3 * _EVAL_CHUNK * #E/2 floats however many points are evaluated.
_EVAL_CHUNK = 4096


# -- coefficient models ------------------------------------------------------

def _upper_half(p: Point) -> bool:
    return p[1] > 0 or (p[1] == 0 and p[0] > 0)


def _neg(p: Point) -> Point:
    return (-p[0], -p[1])


def arc_points(circle: LatticeCircle, center_angle: float, fraction: float) -> list[Point]:
    """Circle points within the arc of angular width 2*pi*fraction at center_angle."""
    half = math.pi * fraction
    out = []
    for p in circle.points:
        d = abs((_angle(p) - center_angle + math.pi) % (2.0 * math.pi) - math.pi)
        if d <= half:
            out.append(p)
    return out


@dataclass(frozen=True)
class SinglePair:
    mu: Point
    amplitude: float = 2.0**-0.5
    phase: float = 0.0
    kind: str = "single-pair"

    def build(self, circle: LatticeCircle) -> dict[Point, complex]:
        if self.mu not in circle.points:
            raise ValueError(f"{self.mu} is not on circle n={circle.n}")
        a = self.amplitude * complex(math.cos(self.phase), math.sin(self.phase))
        return {self.mu: a, _neg(self.mu): a.conjugate()}


@dataclass(frozen=True)
class UniformRandom:
    seed: int
    kind: str = "uniform-random"

    def build(self, circle: LatticeCircle) -> dict[Point, complex]:
        rng = np.random.default_rng(self.seed)
        out: dict[Point, complex] = {}
        for p in circle.points:
            if _upper_half(p):
                a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                out[p] = a
                out[_neg(p)] = a.conjugate()
        return out


@dataclass(frozen=True)
class GaussianRandom:
    seed: int
    kind: str = "gaussian-random"

    def build(self, circle: LatticeCircle) -> dict[Point, complex]:
        rng = np.random.default_rng(self.seed)
        out: dict[Point, complex] = {}
        for p in circle.points:
            if _upper_half(p):
                a = complex(rng.standard_normal(), rng.standard_normal())
                out[p] = a
                out[_neg(p)] = a.conjugate()
        return out


@dataclass(frozen=True)
class ArcLocalized:
    """Support confined to one short arc (plus the mirrored antipodal arc)."""

    center_angle: float
    seed: int
    fraction: float = 0.01
    kind: str = "arc-localized"

    def side_points(self, circle: LatticeCircle) -> list[Point]:
        return arc_points(circle, self.center_angle, self.fraction)

    def build(self, circle: LatticeCircle) -> dict[Point, complex]:
        side = self.side_points(circle)
        if not side:
            raise ValueError(
                f"no lattice points of n={circle.n} in the prescribed arc")
        rng = np.random.default_rng(self.seed)
        out: dict[Point, complex] = {}
        for p in side:
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            out[p] = a
            out[_neg(p)] = a.conjugate()
        return out


CoefficientModel = SinglePair | UniformRandom | GaussianRandom | ArcLocalized


# -- eigenfunctions ----------------------------------------------------------

@dataclass(frozen=True)
class Eigenfunction:
    """F(x) = sum a_mu e^{i<mu,x>} over lattice points of one circle."""

    circle: LatticeCircle
    coeffs: Mapping[Point, complex]
    model: CoefficientModel | None = None
    check_norm: bool = True
    # evaluation kernel: upper-half frequencies and the real weights
    # Re b_mu and -Im b_mu, b_mu = a_mu + conj(a_{-mu})
    _upper: np.ndarray = field(init=False, repr=False, compare=False)
    _re_b: np.ndarray = field(init=False, repr=False, compare=False)
    _neg_im_b: np.ndarray = field(init=False, repr=False, compare=False)
    sum_abs: float = field(init=False, repr=False, compare=False)
    imag_bound: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        support = set(self.coeffs)
        pts = set(self.circle.points)
        if not support <= pts:
            raise ValueError("coefficient support is not on the circle")
        for p, a in self.coeffs.items():
            q = _neg(p)
            if q not in self.coeffs or abs(self.coeffs[q] - a.conjugate()) > 1e-12:
                raise ValueError(f"coefficients not Hermitian at {p}")
        if self.check_norm and abs(self.sum_sq - 1.0) > 1e-12:
            raise ValueError(f"coefficients not normalized: sum={self.sum_sq}")
        upper = sorted(k for k in self.coeffs if _upper_half(k))
        b = np.array([self.coeffs[k] + self.coeffs[_neg(k)].conjugate()
                      for k in upper], dtype=complex)
        object.__setattr__(self, "_upper", np.array(upper, dtype=float).reshape(-1, 2))
        object.__setattr__(self, "_re_b", b.real)
        object.__setattr__(self, "_neg_im_b", -b.imag)
        object.__setattr__(
            self, "sum_abs", float(sum(abs(a) for a in self.coeffs.values())))
        object.__setattr__(self, "imag_bound", float(sum(
            abs(self.coeffs[k] - self.coeffs[_neg(k)].conjugate()) for k in upper)))

    @property
    def sum_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.coeffs.values()))


def make_eigenfunction(circle: LatticeCircle, model: CoefficientModel) -> Eigenfunction:
    """Build, normalize to sum |a|^2 = 1 exactly, and validate."""
    if circle.count == 0:
        raise ValueError("empty circle")
    raw = model.build(circle)
    norm = math.sqrt(sum(abs(a) ** 2 for a in raw.values()))
    if norm == 0.0:
        raise ValueError("model produced all-zero coefficients")
    coeffs = {p: a / norm for p, a in raw.items()}
    return Eigenfunction(circle=circle, coeffs=coeffs, model=model)


def _half_plane_sum(F: Eigenfunction, x, rate=None) -> np.ndarray:
    """Re F at points x (shape (..., 2)) as the upper-half-plane sum, or with
    rate (shape of x, e.g. a curve's tangent) its derivative along rate.
    Points go in blocks of _EVAL_CHUNK rows through three reused buffers."""
    x = np.asarray(x, dtype=float)
    shape = x.shape[:-1]
    x = x.reshape(-1, 2)
    if rate is not None:
        rate = np.asarray(rate, dtype=float).reshape(-1, 2)
    n = len(x)
    out = np.empty(n)
    buf = np.empty((3, min(n, _EVAL_CHUNK), len(F._re_b)))
    for s in range(0, n, _EVAL_CHUNK):
        e = min(n, s + _EVAL_CHUNK)
        ph, c, sn = buf[:, :e - s]
        np.matmul(x[s:e], F._upper.T, out=ph)
        np.cos(ph, out=c)
        np.sin(ph, out=sn)
        if rate is None:
            out[s:e] = c @ F._re_b + sn @ F._neg_im_b
        else:
            np.matmul(rate[s:e], F._upper.T, out=ph)
            out[s:e] = (c * ph) @ F._neg_im_b - (sn * ph) @ F._re_b
    return out.reshape(shape)


def evaluate(F: Eigenfunction, x) -> np.ndarray:
    """F at torus points x (shape (..., 2)); refuses a field whose certified
    imaginary bound exceeds IMAG_TOL and audits the coefficient sup bound."""
    if F.imag_bound > IMAG_TOL:
        raise InvariantViolation(
            f"imaginary part bounded only by {F.imag_bound:.3e} > {IMAG_TOL:.0e}")
    out = _half_plane_sum(F, x)
    if out.size and np.max(np.abs(out)) > F.sum_abs + 1e-12:
        raise InvariantViolation("evaluation exceeded the coefficient sup bound")
    return out


# -- restriction to a curve --------------------------------------------------

@dataclass
class RestrictedWave:
    """f(u) = F(p(u)) in the curve's own parameter u, with vectorized
    evaluation and per-grid caching."""

    F: Eigenfunction
    curve: ArcLengthCurve
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def lam(self) -> float:
        return self.F.circle.radius

    def value_at_param(self, u) -> np.ndarray:
        """F(p(u)) at curve parameters u."""
        return evaluate(self.F, self.curve.spec.point(np.asarray(u, dtype=float)))

    def derivative_at_param(self, u) -> np.ndarray:
        """d/du F(p(u)), the gradient of F along p'(u)."""
        u = np.asarray(u, dtype=float)
        spec = self.curve.spec
        return _half_plane_sum(self.F, spec.point(u), spec.d1(u))

    def grid_values(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(u, f) on the cached uniform n+1-node grid over [angle0, angle1].

        Refining a cached grid by doubling evaluates only the new odd
        nodes, so a full doubling cascade costs what its finest level
        would alone.
        """
        hit = self._cache.get(n)
        if hit is not None:
            return hit
        u, g = self.curve.grid(n)
        prev = self._cache.get(n // 2) if n % 2 == 0 else None
        if prev is None:
            f = evaluate(self.F, g)
        else:
            f = np.empty(n + 1)
            f[::2] = prev[1]
            f[1::2] = evaluate(self.F, g[1::2])
        hit = (u, f)
        self._cache[n] = hit
        return hit


def restrict(F: Eigenfunction, curve: ArcLengthCurve) -> RestrictedWave:
    return RestrictedWave(F=F, curve=curve)


def first_level(x: float, floor: int = 64) -> int:
    """Smallest power of two >= max(x, floor): the first interval count of
    a dyadic cascade that needs at least x intervals."""
    return 1 << math.ceil(math.log2(max(x, floor)))


def dyadic_levels(n0: int, node_cap: int) -> Iterator[int]:
    """Sizes n0, 2*n0, 4*n0, ... of a doubling refinement: the interval
    counts of a uniform grid, or the node counts of a panel quadrature.

    The first level always runs; the cascade ends once the next level's
    size plus one would exceed node_cap.  Callers break out on their own
    stopping test, so running off the end means the cap was hit.
    """
    n = n0
    while True:
        yield n
        if 2 * n + 1 > node_cap:
            return
        n *= 2
