"""Zero-curvature and sphere counterexamples: eigenfunctions that defeat any
nodal-count lower bound once the curvature assumption is dropped.

Torus side: along a closed rational geodesic there are eigenfunctions of
arbitrarily large eigenvalue vanishing identically; along an irrational
geodesic segment, continued-fraction approximants give eigenfunctions with
certified zero-free restrictions.  Sphere side: zonal harmonics restricted
to parallels, through Legendre polynomials; the prime-degree non-vanishing
check rests on irreducibility of P_p(x)/x.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InvariantViolation
from .nodal import certified_sign_changes

TWO_PI = 2.0 * math.pi


# -- rational geodesics --------------------------------------------------------

@dataclass(frozen=True)
class RationalGeodesicWave:
    """F(x, y) = sin(n (q x - p y - c)), vanishing on the closed geodesic
    q x - p y = c of direction (p, q)."""

    p: int
    q: int
    c: float
    n: int

    @property
    def eigenvalue(self) -> int:
        return self.n**2 * (self.p**2 + self.q**2)

    def value(self, x, y):
        return np.sin(self.n * (self.q * np.asarray(x) - self.p * np.asarray(y) - self.c))

    def laplacian_ratio(self, x, y):
        """(-Delta F) / F from the analytic second derivatives; constant
        n^2 (p^2 + q^2) wherever F != 0."""
        u = self.n * (self.q * np.asarray(x) - self.p * np.asarray(y) - self.c)
        fxx = -(self.n * self.q) ** 2 * np.sin(u)
        fyy = -(self.n * self.p) ** 2 * np.sin(u)
        return -(fxx + fyy) / np.sin(u)

    def geodesic_point(self, t):
        """Arc-length point on the geodesic; t in [0, 2*pi*hyp) covers it."""
        hyp2 = self.p**2 + self.q**2
        base = (self.q * self.c / hyp2, -self.p * self.c / hyp2)
        d = math.sqrt(hyp2)
        t = np.asarray(t, dtype=float)
        return base[0] + t * self.p / d, base[1] + t * self.q / d

    @property
    def geodesic_length(self) -> float:
        return TWO_PI * math.sqrt(self.p**2 + self.q**2)


def rational_geodesic_eigenfunction(
    p: int, q: int, c: float, n: int, samples: int = 1000
) -> tuple[RationalGeodesicWave, float]:
    """Build the vanishing eigenfunction and certify max |F| on the geodesic.

    The returned audit value is the max of |F| over the sample points; the
    construction makes it rounding-level and it is asserted <= 1e-12.
    """
    if (p, q) == (0, 0):
        raise ValueError("direction (p, q) must be nonzero")
    if math.gcd(p, q) != 1:
        raise ValueError("need gcd(p, q) = 1 for a primitive closed geodesic")
    if n < 1:
        raise ValueError("n must be a positive integer")
    wave = RationalGeodesicWave(p=p, q=q, c=c, n=n)
    t = np.linspace(0.0, wave.geodesic_length, samples, endpoint=False)
    x, y = wave.geodesic_point(t)
    worst = float(np.max(np.abs(wave.value(x, y))))
    if worst > 1e-12:
        raise InvariantViolation(
            f"rational geodesic residue {worst:.3e} > 1e-12 for "
            f"(p,q,c,n)=({p},{q},{c},{n})")
    # eigenvalue audit at generic sample points
    rng = np.random.default_rng(0)
    xs = rng.uniform(0.0, TWO_PI, 64)
    ys = rng.uniform(0.0, TWO_PI, 64)
    ratio = wave.laplacian_ratio(xs, ys)
    rel = np.max(np.abs(ratio - wave.eigenvalue)) / wave.eigenvalue
    if rel > 1e-9:
        raise InvariantViolation(f"Laplacian eigenvalue audit failed: rel {rel:.3e}")
    return wave, worst


# -- continued fractions and the irrational geodesic ----------------------------

@dataclass(frozen=True)
class Approximant:
    p: int
    q: int
    error: float

    def __post_init__(self):
        if self.error >= 1.0 / self.q**2:
            raise InvariantViolation(
                f"convergent {self.p}/{self.q} misses the 1/q^2 bound")


def continued_fraction_approximants(beta: float, count: int) -> list[Approximant]:
    """The first ``count`` continued-fraction convergents p_k/q_k of beta.

    Every convergent satisfies |beta - p/q| < 1/q^2 (checked by
    :class:`Approximant`).  The list stops before the first q with
    1/q^2 <= ulp(beta): past that precision limit p/q equals beta in
    floats, and the float expansion no longer gives beta's convergents.
    Irrationality is the caller's contract: if the expansion terminates
    (beta within 1e-15 of a low-denominator rational) a warning is issued
    and the list is cut short.  Denominators increase strictly from the
    second convergent on (the first step can repeat q=1, e.g. for the
    golden ratio).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    out: list[Approximant] = []
    h_prev, h = 1, 0  # p_{-1}, p_{-2} seeds
    k_prev, k = 0, 1
    x = float(beta)
    for _ in range(count):
        a = math.floor(x)
        h_prev, h = a * h_prev + h, h_prev
        k_prev, k = a * k_prev + k, k_prev
        if 1.0 / k_prev**2 <= math.ulp(beta):
            break
        out.append(Approximant(p=h_prev, q=k_prev, error=abs(beta - h_prev / k_prev)))
        frac = x - a
        if frac < 1e-15:
            warnings.warn(
                f"continued fraction of {beta!r} terminated after {len(out)} "
                "convergents (rational to machine precision)")
            break
        x = 1.0 / frac
    for prev, cur in zip(out[1:], out[2:]):
        if cur.q <= prev.q:
            raise InvariantViolation("convergent denominators failed to increase")
    return out


@dataclass(frozen=True)
class WitnessReport:
    p: int
    q: int
    eigenvalue: int
    min_on_segment: float
    sign_changes: int


def irrational_geodesic_witness(
    beta: float, v0: tuple[float, float], k: int
) -> WitnessReport:
    """The k-th zero-free witness along the segment v0 + t (1, -beta), |t| < 1.

    F(x) = cos(<(p_k, q_k), x - v0>) restricts to cos(t (p_k - q_k beta)),
    which stays above cos(1/q_k) > 0 on the segment; both the minimum and
    the zero count N = 0 are certified.
    """
    conv = continued_fraction_approximants(beta, k)
    if len(conv) < k:
        raise ValueError(f"only {len(conv)} convergents available")
    p, q = conv[k - 1].p, conv[k - 1].q

    def along(t):
        t = np.asarray(t, dtype=float)
        return np.cos(t * (p - q * beta))

    t = np.linspace(-1.0, 1.0, 4001)
    min_val = float(np.min(along(t)))
    floor = math.cos(1.0 / q)
    if min_val < floor:
        raise InvariantViolation(
            f"witness k={k}: min {min_val:.12f} below cos(1/q) = {floor:.12f}")
    rep = certified_sign_changes(along, -1.0, 1.0, rate=abs(p - q * beta) + 1.0)
    if rep.count != 0:
        raise InvariantViolation(f"witness k={k} has {rep.count} sign changes")
    return WitnessReport(
        p=p, q=q, eigenvalue=p * p + q * q,
        min_on_segment=min_val, sign_changes=rep.count)


# -- Legendre polynomials and the sphere ----------------------------------------

def legendre_eval(ell: int, x):
    """P_ell(x) by the three-term recurrence (stable on [-1, 1])."""
    if ell < 0:
        raise ValueError("degree must be >= 0")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0):
        raise ValueError("|x| <= 1 required")
    p_prev = np.ones_like(x)
    if ell == 0:
        return p_prev
    p = x.copy()
    for j in range(1, ell):
        p, p_prev = ((2 * j + 1) * x * p - j * p_prev) / (j + 1), p
    return p


def legendre_eval_exact(ell: int, x: Fraction) -> Fraction:
    """P_ell at a rational point via the explicit binomial sum, exactly."""
    if ell < 0:
        raise ValueError("degree must be >= 0")
    total = Fraction(0)
    for j in range(ell // 2 + 1):
        term = (
            (-1) ** j
            * math.comb(ell, j)
            * math.comb(2 * ell - 2 * j, ell - 2 * j)
            * x ** (ell - 2 * j)
        )
        total += term
    return total / 2**ell


def legendre_recurrence_exact(ell: int, x: Fraction) -> Fraction:
    """P_ell at a rational point via the recurrence in exact rationals."""
    p_prev, p = Fraction(1), x
    if ell == 0:
        return p_prev
    for j in range(1, ell):
        p, p_prev = ((2 * j + 1) * x * p - j * p_prev) / (j + 1), p
    return p


def _legendre_d1(ell: int, x: np.ndarray, p_ell: np.ndarray) -> np.ndarray:
    p_lower = legendre_eval(ell - 1, x)
    return ell * (p_lower - x * p_ell) / (1.0 - x * x)


@lru_cache(maxsize=None)
def legendre_zeros(ell: int) -> tuple[float, ...]:
    """The ell zeros of P_ell in (-1, 1): the Golub-Welsch nodes of numpy's
    Gauss-Legendre rule, polished by two Newton steps on the recurrence.

    Residuals |P_ell(root)| are kept below 1e-12.
    """
    if ell < 1:
        raise ValueError("degree must be >= 1")
    roots = np.polynomial.legendre.leggauss(ell)[0]
    for _ in range(2):
        val = legendre_eval(ell, roots)
        roots = roots - val / _legendre_d1(ell, roots, val)
    resid = float(np.max(np.abs(legendre_eval(ell, roots))))
    if resid > 1e-12:
        raise InvariantViolation(f"degree {ell} zero residual {resid:.3e}")
    return tuple(float(r) for r in np.sort(roots))


def _primes_up_to(cap: int) -> list[int]:
    if cap > 10_000:
        raise ValueError("prime cap limited to 10^4 (trial division)")
    out = []
    for m in range(2, cap + 1):
        if all(m % d for d in range(2, math.isqrt(m) + 1)):
            out.append(m)
    return out


@dataclass(frozen=True)
class ParallelSearchReport:
    kind: str  # "equator", "exceptional-degree", "generic"
    theta0: float
    exceptional_degree: int | None
    min_prime_value: float | None
    primes_checked: int


def parallel_exception_search(
    theta0: float, prime_cap: int = 200, degree_cap: int = 200
) -> ParallelSearchReport:
    """Zonal-harmonic vanishing survey on the parallel theta = theta0.

    At the equator the odd-degree family vanishes identically (infinite
    nodal intersection).  Off the equator, if cos(theta0) is a zero of some
    P_L (L <= degree_cap), every prime degree p > L+1 must avoid it --
    P_p(x)/x is irreducible, so it shares no root with P_L -- and the scan
    asserts |P_p(cos theta0)| > 1e-10 for primes p <= prime_cap.
    """
    if not 0.0 < theta0 <= 0.5 * math.pi:
        raise ValueError("theta0 must lie in (0, pi/2]")
    if prime_cap > 10_000:
        raise ValueError("prime cap limited to 10^4 (trial division)")
    if abs(theta0 - 0.5 * math.pi) < 1e-12:
        return ParallelSearchReport(
            kind="equator", theta0=theta0, exceptional_degree=None,
            min_prime_value=None, primes_checked=0)
    x0 = math.cos(theta0)
    found: int | None = None
    for ell in range(1, degree_cap + 1):
        if min(abs(x0 - z) for z in legendre_zeros(ell)) < 1e-11:
            found = ell
            break
    if found is None:
        return ParallelSearchReport(
            kind="generic", theta0=theta0, exceptional_degree=None,
            min_prime_value=None, primes_checked=0)
    primes = [p for p in _primes_up_to(prime_cap) if p > found + 1]
    vals = [abs(float(legendre_eval(p, np.asarray(x0)))) for p in primes]
    worst = min(vals) if vals else None
    if worst is not None and worst <= 1e-10:
        raise InvariantViolation(
            f"prime degree hit the zero cos({theta0}) of degree {found}: {worst:.3e}")
    return ParallelSearchReport(
        kind="exceptional-degree", theta0=theta0, exceptional_degree=found,
        min_prime_value=worst, primes_checked=len(primes))
