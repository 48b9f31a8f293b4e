"""Real toral eigenfunctions, their restriction to a curve, and the cutoff
machinery built on top of the restriction.

The canonical normalization is sum |a_mu|^2 = 1, so the full-torus L2 norm
(with respect to Lebesgue measure on [0, 2pi)^2) is 1/(2pi).  Coefficients
always come in Hermitian pairs a_{-mu} = conj(a_mu), which keeps every field
real-valued.  Evaluation sums the upper half plane only, in real arithmetic
and in fixed chunks of points (so memory stays bounded): with
b_mu = a_mu + conj(a_{-mu}), Re F(x) = sum_upper Re b cos<mu,x> - Im b sin<mu,x>.
The dropped imaginary part is certified once, at construction: |Im F(x)| <=
D = sum_upper |a_mu - conj(a_{-mu})| at every x, and evaluation refuses a
field whose D exceeds IMAG_TOL.

The smooth cutoff used everywhere (coefficient splits here, partitions of
unity in the sign-change module) is pinned to one profile so independent
runs are bit-comparable: theta(x) = 1 on |x| <= 1, 0 on |x| >= 2, and
b(|x| - 1) on the ramp, with b the bump of :func:`_bump`.

Every refinement in the package (oscillatory integrals, restriction norms,
sign-change counts) walks the same dyadic cascade: it doubles through
:func:`dyadic_levels`, from :func:`first_level` for the uniform grids,
until its own stopping test passes or the next level would exceed its node
cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Protocol

import numpy as np

from .curve import ArcLengthCurve, Frame
from .errors import InvariantViolation
from .lattice import LatticeCircle, Point, _angle

IMAG_TOL = 1e-10

# Points per block of the evaluation kernel, whose temporaries are then
# 3 * _EVAL_CHUNK * #E/2 floats however many points are evaluated.
_EVAL_CHUNK = 4096


# -- pinned smooth cutoff ----------------------------------------------------

def _bump(r, order: int = 0) -> np.ndarray:
    """b(r) = exp(1 - 1/(1 - r^2)) on 0 < r < 1 (order 0), or its first or
    second r-derivative (order 1 or 2); 0 elsewhere.

    Where r * r rounds to 1 the value is taken as 0, which it is to double
    precision, so no division by zero can occur.
    """
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    live = (r > 0.0) & (r * r < 1.0)
    rl = r[live]
    g = 1.0 / (1.0 - rl * rl)
    b = np.exp(1.0 - g)
    if order == 1:
        b = -b * 2.0 * rl * g * g
    elif order == 2:
        gp = 2.0 * rl * g * g
        b = b * (gp * gp - (2.0 * g * g + 8.0 * rl * rl * g**3))
    out[live] = b
    return out


def smooth_cutoff(x) -> np.ndarray:
    """theta: even, 1 on |x|<=1, 0 on |x|>=2, exp ramp between."""
    r = np.abs(np.asarray(x, dtype=float)) - 1.0
    return np.where(r <= 0.0, 1.0, _bump(r))


def smooth_cutoff_d1(x) -> np.ndarray:
    """Derivative of the pinned cutoff (analytic on the ramp, 0 elsewhere)."""
    xx = np.asarray(x, dtype=float)
    return _bump(np.abs(xx) - 1.0, 1) * np.sign(xx)


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


def arc_cover_count(circle: LatticeCircle, fraction: float = 0.01) -> int:
    """Number of arcs of angular width 2*pi*fraction covering the points up
    to the antipodal identification (greedy sweep over [0, pi); wrap-around
    can cost one extra arc).

    A general spectrum splits into this many arc-localized pieces; the
    recombination constant is left unquantified, only the cardinality is
    reported.
    """
    angles = sorted(_angle(p) % math.pi for p in circle.points)
    if not angles:
        return 0
    width = 2.0 * math.pi * fraction
    count, covered_to = 0, -math.inf
    for a in angles:
        if a > covered_to:
            count += 1
            covered_to = a + width
    return count


# -- eigenfunctions ----------------------------------------------------------

@dataclass(frozen=True)
class Eigenfunction:
    """F(x) = sum a_mu e^{i<mu,x>} over lattice points of one circle."""

    circle: LatticeCircle
    coeffs: Mapping[Point, complex]
    model: CoefficientModel | None = None
    check_norm: bool = True
    _mus: np.ndarray = field(init=False, repr=False, compare=False)
    _a: np.ndarray = field(init=False, repr=False, compare=False)
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
        keys = sorted(self.coeffs)
        object.__setattr__(self, "_mus", np.array(keys, dtype=float))
        object.__setattr__(
            self, "_a", np.array([self.coeffs[k] for k in keys], dtype=complex))
        upper = [k for k in keys if _upper_half(k)]
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


def eigenfunction_to_json(F: Eigenfunction) -> dict:
    return {
        "n": F.circle.n,
        "coeffs": [[p[0], p[1], F.coeffs[p].real, F.coeffs[p].imag]
                   for p in sorted(F.coeffs)],
    }


def eigenfunction_from_json(data: dict, circle: LatticeCircle) -> Eigenfunction:
    """Hermitian symmetry is enforced on import; normalization is not (the
    wire format also carries fixtures like the unit-amplitude witnesses)."""
    if circle.n != data["n"]:
        raise ValueError("circle does not match serialized eigenvalue")
    coeffs = {(int(x), int(y)): complex(re, im) for x, y, re, im in data["coeffs"]}
    return Eigenfunction(circle=circle, coeffs=coeffs, check_norm=False)


# -- restriction to a curve --------------------------------------------------

@dataclass
class RestrictedWave:
    """f(t) = F(gamma(t)) with vectorized evaluation and per-grid caching."""

    F: Eigenfunction
    curve: ArcLengthCurve
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def lam(self) -> float:
        return self.F.circle.radius

    def value(self, t) -> np.ndarray:
        g = self.curve.gamma(np.asarray(t, dtype=float))
        return evaluate(self.F, g)

    def derivative(self, t) -> np.ndarray:
        fr = self.curve.frame(np.asarray(t, dtype=float))
        return _half_plane_sum(self.F, fr.point, fr.tangent)

    def value_at_param(self, u) -> np.ndarray:
        """F(p(u)) in the curve's own parameter u: no arc-length inversion."""
        return evaluate(self.F, self.curve.spec.point(np.asarray(u, dtype=float)))

    def derivative_at_param(self, u) -> np.ndarray:
        """d/du F(p(u)), the gradient of F along p'(u)."""
        u = np.asarray(u, dtype=float)
        spec = self.curve.spec
        return _half_plane_sum(self.F, spec.point(u), spec.d1(u))

    def grid_values(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(t, f) on the cached uniform n+1-node grid over [0, L].

        Shares the curve's incremental grids: refining evaluates only the
        new odd nodes, so a full doubling cascade costs what its finest
        level would alone.
        """
        hit = self._cache.get(n)
        if hit is not None:
            return hit
        t, g = self.curve.grid(n)
        prev = self._cache.get(n // 2) if n % 2 == 0 else None
        if prev is None:
            f = evaluate(self.F, g)
        else:
            f = np.empty(n + 1)
            f[::2] = prev[1]
            f[1::2] = evaluate(self.F, g[1::2])
        hit = (t, f)
        self._cache[n] = hit
        return hit


def restrict(F: Eigenfunction, curve: ArcLengthCurve) -> RestrictedWave:
    return RestrictedWave(F=F, curve=curve)


# -- cutoff splits along the curve -------------------------------------------

def _phase_tables(rw: RestrictedWave, fr: Frame):
    """<mu, gamma(t)> and phi'_mu(t) = <mu/|mu|, gamma'(t)> for all mu, from
    the frame at t."""
    full = fr.point @ rw.F._mus.T          # lambda * phi_mu
    d1 = (fr.tangent @ rw.F._mus.T) / rw.lam
    return full, d1


def split_f0_f1(rw: RestrictedWave, sigma: float):
    """f = f0 + f1: f0 keeps each frequency only near its stationary set
    (|phi'_mu| < 2 sigma, via the pinned cutoff at scale sigma); every term
    of f1 is supported where |phi'_mu| >= sigma.
    """
    if not 0.0 < sigma <= 0.25:
        raise ValueError("sigma must lie in (0, 1/4]")

    def split_pair(t):
        full, d1 = _phase_tables(rw, rw.curve.frame(np.asarray(t, dtype=float)))
        th = smooth_cutoff(d1 / sigma)
        osc = np.exp(1j * full)
        f0 = (osc * th) @ rw.F._a
        f1 = (osc * (1.0 - th)) @ rw.F._a
        return f0, f1

    return (lambda t: split_pair(t)[0]), (lambda t: split_pair(t)[1])


def f1_parts(rw: RestrictedWave, sigma: float):
    """The two integration-by-parts pieces of f1.

    With g_mu = (1 - theta_sigma(phi'_mu)) / phi'_mu:
      f2 = sum a_mu g_mu'(t) e^{i lambda phi_mu},
      f3 = sum a_mu g_mu(t)  e^{i lambda phi_mu},
    and for any window tau compactly supported in (0, L),
      int f1 tau = -(1/(i lambda)) * (int f2 tau + int f3 tau').
    Returns (f2, f3) as complex-valued callables.
    """
    if not 0.0 < sigma <= 0.25:
        raise ValueError("sigma must lie in (0, 1/4]")

    def tables(t):
        fr = rw.curve.frame(np.asarray(t, dtype=float))
        full, d1 = _phase_tables(rw, fr)
        d2 = (fr.second @ rw.F._mus.T) / rw.lam  # phi''_mu
        th = smooth_cutoff(d1 / sigma)
        thp = smooth_cutoff_d1(d1 / sigma) / sigma
        live = np.abs(d1) >= sigma  # support of 1 - theta_sigma
        den = np.where(live, d1, 1.0)
        g = np.where(live, (1.0 - th) / den, 0.0)
        gp_of_u = np.where(live, (-thp * den - (1.0 - th)) / den**2, 0.0)
        return full, g, gp_of_u * d2

    def f2(t):
        full, _, gprime = tables(t)
        return (np.exp(1j * full) * gprime) @ rw.F._a

    def f3(t):
        full, g, _ = tables(t)
        return (np.exp(1j * full) * g) @ rw.F._a

    return f2, f3


def parts_identity_residual(
    rw: RestrictedWave, sigma: float, tau, n: int = 65536
) -> float:
    """Relative residual of int f1 tau = -(1/(i lambda)) (int f2 tau + int f3 tau').

    Composite Simpson on n intervals; the pieces are smooth but carry the
    cutoff's large high-order derivatives, so n defaults high.
    """
    _, f1 = split_f0_f1(rw, sigma)
    f2, f3 = f1_parts(rw, sigma)
    L = rw.curve.length
    t = np.linspace(0.0, L, n + 1)
    w = _simpson_weights(n, L / n)
    lhs = w @ (f1(t) * tau.value(t))
    rhs = -(1.0 / (1j * rw.lam)) * (
        w @ (f2(t) * tau.value(t)) + w @ (f3(t) * tau.derivative(t)))
    return abs(lhs - rhs) / max(abs(lhs), 1e-300)


@dataclass(frozen=True)
class CompactBump:
    """Pinned-cutoff test window: plateau |t-c| <= w/2, support |t-c| <= w."""

    center: float
    width: float

    def value(self, t):
        return smooth_cutoff(2.0 * (np.asarray(t, dtype=float) - self.center) / self.width)

    def derivative(self, t):
        return smooth_cutoff_d1(
            2.0 * (np.asarray(t, dtype=float) - self.center) / self.width
        ) * (2.0 / self.width)


# -- bilinear sum over enveloped frequencies -----------------------------------

class Envelope(Protocol):
    def value(self, t) -> np.ndarray: ...
    def derivative(self, t) -> np.ndarray: ...


@dataclass(frozen=True)
class CutoffEnvelope:
    """h_mu(t) = theta_sigma(phi'_mu(t)), the stationary-set indicator."""

    curve: ArcLengthCurve
    mu: Point
    sigma: float

    def _frame(self, t):
        """The curve's frame at t and the unit direction of mu."""
        e = np.array(self.mu, dtype=float)
        e /= np.linalg.norm(e)
        return self.curve.frame(np.asarray(t, dtype=float)), e

    def value(self, t):
        fr, e = self._frame(t)
        return smooth_cutoff((fr.tangent @ e) / self.sigma)

    def derivative(self, t):
        fr, e = self._frame(t)
        return smooth_cutoff_d1((fr.tangent @ e) / self.sigma) / self.sigma * (fr.second @ e)


@dataclass(frozen=True)
class BilinearReport:
    norm_h_sq: float
    close_term: float
    distant_term: float
    excess_const: float


def bilinear_H(
    circle: LatticeCircle,
    curve: ArcLengthCurve,
    coeffs: Mapping[Point, complex],
    envelopes: Mapping[Point, Envelope],
) -> BilinearReport:
    """Quadrature of ||H||_2^2 for H = sum a_mu h_mu e^{i<mu,gamma>}, against
    the close-pair term 2 max ||h_mu||_2^2 and the distant-pair remainder
    (#E / lambda^(1/6)) (max ||h||_inf^2 + max ||h||_inf max ||h'||_1).

    The proven inequality has an unspecified constant on the remainder;
    excess_const reports the smallest C making normHsq <= close + C*distant.
    """
    ssq = sum(abs(a) ** 2 for a in coeffs.values())
    if abs(ssq - 1.0) > 1e-9:
        raise ValueError("coefficients must satisfy sum |a|^2 = 1")
    lam = circle.radius
    n_nodes = first_level(16.0 * lam * curve.length, 256)
    t = np.linspace(0.0, curve.length, n_nodes + 1)
    w = _simpson_weights(n_nodes, curve.length / n_nodes)
    g = curve.gamma(t)
    keys = sorted(coeffs)
    h_vals = np.stack([np.asarray(envelopes[k].value(t), dtype=float) for k in keys])
    h_der = np.stack([np.asarray(envelopes[k].derivative(t), dtype=float) for k in keys])
    a = np.array([coeffs[k] for k in keys])
    phases = g @ np.array(keys, dtype=float).T
    H = (np.exp(1j * phases) * h_vals.T) @ a
    norm_h_sq = float(w @ (np.abs(H) ** 2))
    h2 = np.max(h_vals**2 @ w)
    close = 2.0 * float(h2)
    hinf = float(np.max(np.abs(h_vals))) if h_vals.size else 0.0
    hp1 = float(np.max(np.abs(h_der) @ w)) if h_der.size else 0.0
    distant = circle.count / lam ** (1.0 / 6.0) * (hinf**2 + hinf * hp1)
    excess = max(0.0, (norm_h_sq - close) / distant) if distant > 0 else 0.0
    return BilinearReport(
        norm_h_sq=norm_h_sq, close_term=close, distant_term=distant,
        excess_const=excess)


def _simpson_weights(n: int, h: float) -> np.ndarray:
    if n % 2:
        raise ValueError("Simpson needs an even interval count")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


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


# -- squared restriction, expanded over medians --------------------------------

@dataclass(frozen=True)
class MedianExpansion:
    """p(t)^2 = constant + sum b_z e^{2 i <z, gamma(t)>} for the one-sided
    (single-arc) piece p of an arc-localized eigenfunction.

    Keys are doubled median coordinates z2 = mu + nu.  double_keys are the
    pure double frequencies (Delta = 0, z = mu); small_gap_keys the medians
    with 0 < Delta <= sqrt(lambda); starred_keys those with |z| >= lambda/2
    and Delta > sqrt(lambda).
    """

    constant_term: complex
    bz: Mapping[Point, complex]
    double_keys: tuple[Point, ...]
    small_gap_keys: tuple[Point, ...]
    starred_keys: tuple[Point, ...]
    side_sum_sq: float


def square_expand(rw: RestrictedWave) -> MedianExpansion:
    """Expand the square of the one-sided arc piece over its medians.

    Requires an arc-localized eigenfunction: the Hermitian mirror arc is
    dropped and p = sum over the single arc, so no antipodal pair survives,
    the constant term vanishes, and every median satisfies |z| > lambda/2.
    """
    model = rw.F.model
    if not isinstance(model, ArcLocalized):
        raise ValueError("square expansion requires an arc-localized eigenfunction")
    circle = rw.F.circle
    n = circle.n
    side = model.side_points(circle)
    a = {p: rw.F.coeffs[p] for p in side}

    bz: dict[Point, complex] = {}
    parent_of: dict[Point, tuple[Point, Point]] = {}
    constant = 0.0 + 0.0j
    for i, p in enumerate(side):
        for q in side[i:]:
            z2 = (p[0] + q[0], p[1] + q[1])
            if z2 == (0, 0):
                constant += a[p] * a[q] * (2.0 if p != q else 1.0)
                continue
            coeff = a[p] * a[q] * (2.0 if p != q else 1.0)
            if z2 in parent_of and parent_of[z2] != (p, q):
                raise InvariantViolation(
                    f"median {z2} has two parent pairs inside one arc")
            parent_of[z2] = (p, q)
            bz[z2] = bz.get(z2, 0.0) + coeff

    side_sum = float(sum(abs(v) ** 2 for v in a.values()))
    b_sum = float(sum(abs(v) ** 2 for v in bz.values()))
    if b_sum > 2.0 * side_sum**2 + 1e-12:
        raise InvariantViolation("sum |b_z|^2 exceeds 2 (sum |a|^2)^2")

    doubles, small, starred = [], [], []
    for z2 in sorted(bz):
        fds = 4 * n - (z2[0] ** 2 + z2[1] ** 2)
        if fds == 0:
            doubles.append(z2)
        elif fds > 0 and fds * fds <= 16 * n:
            small.append(z2)
        elif z2[0] ** 2 + z2[1] ** 2 >= n and fds * fds > 16 * n:
            starred.append(z2)

    # pointwise audit of the expansion identity at 200 samples
    t = np.linspace(0.0, rw.curve.length, 200)
    g = rw.curve.gamma(t)
    side_arr = np.array(side, dtype=float)
    a_arr = np.array([a[p] for p in side])
    p_vals = np.exp(1j * (g @ side_arr.T)) @ a_arr
    keys = sorted(bz)
    z_arr = np.array(keys, dtype=float)
    b_arr = np.array([bz[k] for k in keys])
    recon = constant + np.exp(1j * (g @ z_arr.T)) @ b_arr
    err = float(np.max(np.abs(p_vals**2 - recon)))
    if err > 1e-8:
        raise InvariantViolation(f"median expansion identity residual {err:.3e}")

    return MedianExpansion(
        constant_term=complex(constant),
        bz=bz,
        double_keys=tuple(doubles),
        small_gap_keys=tuple(small),
        starred_keys=tuple(starred),
        side_sum_sq=side_sum,
    )
