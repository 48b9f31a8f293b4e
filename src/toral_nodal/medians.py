"""The median map on pairs of circle lattice points, with exact arithmetic.

Medians z = (mu + nu)/2 are half-integer points; everything is stored via
doubled coordinates z2 = mu + nu so that all membership and separation tests
between medians reduce to integer comparisons.  The chord-gap quantity
Delta(z) = sqrt(lambda^2 - |z|^2) is carried as the exact integer
4*Delta^2 = 4n - |z2|^2; square roots are taken only at reporting boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import AntipodalMedianError, InvariantViolation
from .lattice import LatticeCircle, Point

Vec = tuple[float, float]


@dataclass(frozen=True)
class Median:
    """Midpoint of a chord of the circle x^2 + y^2 = n, in doubled coordinates."""

    z2: Point
    parents: tuple[Point, Point]
    four_delta_sq: int
    n: int

    def __post_init__(self):
        a, b = self.z2
        if a * a + b * b + self.four_delta_sq != 4 * self.n:
            raise InvariantViolation(f"median {self.z2}: |2z|^2 + 4Delta^2 != 4n")
        if self.four_delta_sq < 0:
            raise InvariantViolation(f"median {self.z2}: negative 4Delta^2")

    @property
    def point(self) -> Vec:
        return (self.z2[0] / 2.0, self.z2[1] / 2.0)

    @property
    def delta(self) -> float:
        return 0.5 * math.sqrt(self.four_delta_sq)


def median_map(mu: Point, nu: Point, n: int) -> Median:
    """Exact median of two lattice points on the circle x^2 + y^2 = n."""
    for x, y in (mu, nu):
        if x * x + y * y != n:
            raise ValueError(f"({x},{y}) not on circle n={n}")
    z2 = (mu[0] + nu[0], mu[1] + nu[1])
    fds = 4 * n - (z2[0] ** 2 + z2[1] ** 2)
    parents = tuple(sorted((mu, nu)))
    return Median(z2=z2, parents=parents, four_delta_sq=fds, n=n)


def invert_median(z2: Point, n: int) -> tuple[Point, Point] | None:
    """Recover the unique lattice parents {mu+, mu-} of a nonzero median.

    The closed form mu+- = z +- Delta(z) z_perp/|z_perp| is evaluated in
    floats, snapped to the nearest integer point, and verified exactly;
    a failed verification means z is not the median of a lattice chord and
    returns None (distinct from an error).  The zero median is refused as
    ambiguous (every antipodal pair produces it) and points outside the
    closed disk |z2|^2 <= 4n are rejected.
    """
    a, b = z2
    s2 = a * a + b * b
    if s2 == 0:
        raise AntipodalMedianError("the zero median has no unique parent pair")
    if s2 > 4 * n:
        raise ValueError(f"median {z2} lies outside the disk of radius 2*lambda")
    fds = 4 * n - s2
    delta = 0.5 * math.sqrt(fds)
    norm = math.sqrt(s2)
    ux, uy = -b / norm, a / norm  # unit perpendicular to z
    px = 0.5 * a + delta * ux
    py = 0.5 * b + delta * uy
    mu_p = (round(px), round(py))
    mu_m = (a - mu_p[0], b - mu_p[1])  # mu- = 2z - mu+, exactly
    for x, y in (mu_p, mu_m):
        if x * x + y * y != n:
            return None
    # orient: (2*mu+ - z2) . z2_perp > 0
    t = (2 * mu_p[0] - a) * (-b) + (2 * mu_p[1] - b) * a
    if t < 0:
        mu_p, mu_m = mu_m, mu_p
    return mu_p, mu_m


@dataclass(frozen=True)
class MedianSet:
    """All medians of unordered pairs (including mu = nu) of one circle."""

    circle: LatticeCircle
    medians: tuple[Median, ...]
    by_z2: Mapping[Point, Median] = field(repr=False)

    @property
    def n(self) -> int:
        return self.circle.n

    @property
    def radius(self) -> float:
        return self.circle.radius


def build_median_set(circle: LatticeCircle) -> MedianSet:
    """Materialize the median set; verifies nonzero medians have unique parents."""
    pts = circle.points
    medians: list[Median] = []
    by_z2: dict[Point, Median] = {}
    for i in range(len(pts)):
        for j in range(i, len(pts)):
            med = median_map(pts[i], pts[j], circle.n)
            medians.append(med)
            if med.z2 != (0, 0):
                prev = by_z2.get(med.z2)
                if prev is not None and prev.parents != med.parents:
                    raise InvariantViolation(
                        f"median {med.z2} on n={circle.n} has two parent pairs"
                    )
                by_z2[med.z2] = med
    return MedianSet(circle=circle, medians=tuple(medians), by_z2=by_z2)


def _is_starred(med: Median) -> bool:
    """|z| >= lambda/2 and Delta(z) > sqrt(lambda), both exact in integers."""
    a, b = med.z2
    if a * a + b * b < med.n:  # |z2| >= lambda  <=>  |z2|^2 >= n
        return False
    return med.four_delta_sq**2 > 16 * med.n  # Delta > sqrt(lambda)


def _is_small_gap(med: Median) -> bool:
    """0 < Delta(z) <= sqrt(lambda), exact."""
    return med.four_delta_sq > 0 and med.four_delta_sq**2 <= 16 * med.n


@dataclass(frozen=True)
class DyadicShellDecomposition:
    """Starred medians sliced into dyadic shells K*sqrt(lambda) <= Delta < 2K*sqrt(lambda).

    ``shells`` maps dyadic K to its shell; ``sub_shells`` maps (L, l) to the
    unit-sqrt(lambda) slice (L+l)*sqrt(lambda) <= Delta < (L+l+1)*sqrt(lambda).
    ``small_gap`` collects the non-starred medians with 0 < Delta <= sqrt(lambda)
    (the other half of the bilinear bound).  ``locality`` is lambda^epsilon.
    """

    mset: MedianSet
    epsilon: float
    shells: Mapping[int, tuple[Median, ...]]
    sub_shells: Mapping[tuple[int, int], tuple[Median, ...]]
    small_gap: tuple[Median, ...]

    @property
    def locality(self) -> float:
        return self.mset.radius**self.epsilon

    def starred(self) -> tuple[Median, ...]:
        out: list[Median] = []
        for key in sorted(self.shells):
            out.extend(self.shells[key])
        return tuple(out)

    def shell_of(self, med: Median) -> tuple[int, int]:
        """(K, k) with med in sub-shell S_{K,k}; requires med starred."""
        if not _is_starred(med):
            raise ValueError("median is not in the starred set")
        fds, n = med.four_delta_sq, med.n
        k_exp = 0
        while True:
            K = 1 << k_exp
            if fds * fds < 256 * K**4 * n:  # Delta < 2K sqrt(lambda)
                break
            k_exp += 1
        K = 1 << k_exp
        for sub in range(K):
            # Delta < (K+sub+1) sqrt(lambda)
            if fds * fds < 16 * (K + sub + 1) ** 4 * n:
                return K, sub
        raise InvariantViolation(f"median {med.z2}: no sub-shell found")


def dyadic_decompose(mset: MedianSet, epsilon: float = 0.1) -> DyadicShellDecomposition:
    """Slice the starred medians into dyadic shells and their unit sub-shells."""
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    shells: dict[int, list[Median]] = {}
    sub_shells: dict[tuple[int, int], list[Median]] = {}
    small: list[Median] = []
    seen: set[Point] = set()
    decomp = DyadicShellDecomposition(
        mset=mset, epsilon=epsilon, shells={}, sub_shells={}, small_gap=()
    )
    for med in mset.medians:
        if med.z2 in seen:
            continue  # antipodal duplicates share z2=(0,0) only; others unique
        seen.add(med.z2)
        if _is_small_gap(med) and not _is_starred(med):
            small.append(med)
            continue
        if not _is_starred(med):
            continue
        K, sub = decomp.shell_of(med)
        shells.setdefault(K, []).append(med)
        sub_shells.setdefault((K, sub), []).append(med)
    return DyadicShellDecomposition(
        mset=mset,
        epsilon=epsilon,
        shells={k: tuple(v) for k, v in sorted(shells.items())},
        sub_shells={k: tuple(v) for k, v in sorted(sub_shells.items())},
        small_gap=tuple(small),
    )
