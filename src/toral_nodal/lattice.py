"""Integer points on circles x^2 + y^2 = n and their short-arc statistics.

All set membership and distance comparisons between lattice points are done
in exact integer arithmetic; floating point enters only through angles and
through window widths that are irrational by nature.  Window-boundary ties
are resolved toward inclusion with a fixed 1e-12 angular tolerance, matching
the closed-window convention (points at chord distance exactly sqrt(lambda)
count as inside).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import InvariantViolation

ANGLE_TIE_TOL = 1e-12

Point = tuple[int, int]


def _angle(p: Point) -> float:
    a = math.atan2(p[1], p[0])
    return a + 2.0 * math.pi if a < 0.0 else a


@dataclass(frozen=True)
class LatticeCircle:
    """All integer points on x^2 + y^2 = n, sorted by angle in [0, 2*pi)."""

    n: int
    radius: float
    points: tuple[Point, ...]

    @property
    def count(self) -> int:
        return len(self.points)

    @cached_property
    def angles(self) -> tuple[float, ...]:
        return tuple(_angle(p) for p in self.points)

    def __post_init__(self):
        for x, y in self.points:
            if x * x + y * y != self.n:
                raise InvariantViolation(f"({x},{y}) not on circle n={self.n}")


@dataclass(frozen=True)
class ArcWindow:
    """An arc on the circle |x| = lambda, described by its center angle.

    kind "chord": points within chord distance sqrt(lambda) of a center on
    the circle (the scale c is ignored; this window is always sqrt(lambda)).
    kind "length": an arc of length c*sqrt(lambda).
    """

    center_angle: float
    kind: str
    c: float = 1.0

    def half_width(self, radius: float) -> float:
        """Angular half-width of the window on a circle of the given radius."""
        if self.kind == "chord":
            return 2.0 * math.asin(min(1.0, 0.5 / math.sqrt(radius)))
        if self.kind == "length":
            return 0.5 * self.c / math.sqrt(radius)
        raise ValueError(f"unknown window kind {self.kind!r}")


def window_half_width(kind: str, radius: float, c: float = 1.0) -> float:
    return ArcWindow(0.0, kind, c).half_width(radius)


def _orbit_circle(n: int, reps: Iterable[Point]) -> LatticeCircle:
    """The circle x^2 + y^2 = n filled from representatives (x, y) by the
    orbit under (x,y) -> (+-x, +-y) and (x,y) -> (y,x)."""
    pts: set[Point] = set()
    for x, y in reps:
        for a in (x, -x):
            for b in (y, -y):
                pts.add((a, b))
                pts.add((b, a))
    ordered = tuple(sorted(pts, key=_angle))
    return LatticeCircle(n=n, radius=math.sqrt(n), points=ordered)


def enumerate_circle(n: int) -> LatticeCircle:
    """All integer solutions of x^2 + y^2 = n, angle-sorted and verified.

    Direct scan over x in [0, isqrt(n)] with an integer square-root test;
    the orbit of the solutions found fills the circle.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    reps = []
    for x in range(math.isqrt(n) + 1):
        rem = n - x * x
        y = math.isqrt(rem)
        if y * y == rem:
            reps.append((x, y))
    return _orbit_circle(n, reps)


def representable_up_to(n_max: int) -> Iterator[LatticeCircle]:
    """Yield every nonempty circle with 1 <= n <= n_max, in increasing n.

    Sieve form of :func:`enumerate_circle`: one pass over the octant
    0 <= x <= y fills all circles at once, which is what the large audits
    need (per-n scans would cost sum(sqrt(n)) ~ n_max^1.5 / 1.5).
    """
    if n_max < 1:
        return
    reps: dict[int, list[Point]] = defaultdict(list)
    r = math.isqrt(n_max)
    for x in range(r + 1):
        for y in range(x, math.isqrt(n_max - x * x) + 1):
            n = x * x + y * y
            if n >= 1:
                reps[n].append((x, y))
    for n in sorted(reps):
        yield _orbit_circle(n, reps[n])


def _max_window_count(angles: Sequence[float], width: float) -> tuple[int, int]:
    """Max number of angles inside a closed circular window of the given
    angular width, and the index of the window's leading point.

    The maximum over continuous window positions is attained by a window
    whose leading (counterclockwise-first) edge touches a point, so only
    those candidates are swept.
    """
    m = len(angles)
    if m == 0:
        raise ValueError("empty circle")
    if width >= 2.0 * math.pi:
        return m, 0
    ext = list(angles) + [a + 2.0 * math.pi for a in angles]
    best, best_i = 0, 0
    j = 0
    for i in range(m):
        if j < i:
            j = i
        while j < i + m and ext[j] - ext[i] <= width + ANGLE_TIE_TOL:
            j += 1
        if j - i > best:
            best, best_i = j - i, i
    return best, best_i


def max_arc_count(
    circle: LatticeCircle, kind: str = "chord", c: float = 1.0
) -> tuple[int, ArcWindow]:
    """Exact maximum number of circle points in one window, with a witness.

    For kind "chord" this is the arc-crowding count: the largest number of
    lattice points within chord distance sqrt(lambda) of any point of the
    circle |x| = lambda.
    """
    if circle.count == 0:
        raise ValueError("empty circle has no windows")
    half = window_half_width(kind, circle.radius, c)
    count, i = _max_window_count(circle.angles, 2.0 * half)
    center = (circle.angles[i] + half) % (2.0 * math.pi)
    return count, ArcWindow(center_angle=center, kind=kind, c=c)


def jarnik_audit(circle: LatticeCircle) -> tuple[int, ArcWindow]:
    """Max points in any arc of length lambda^(1/3); must be <= 2 (proven).

    Raises InvariantViolation when the proven bound fails.
    """
    lam = circle.radius
    c = lam ** (-1.0 / 6.0)  # arc length c*sqrt(lambda) = lambda^(1/3)
    count, witness = max_arc_count(circle, kind="length", c=c)
    if count > 2:
        raise InvariantViolation(
            f"n={circle.n}: {count} points in an arc of length lambda^(1/3)"
        )
    return count, witness


def cc_exponent(m: int) -> int:
    """Exponent e(m) in the pair-product lower bound lambda^e(m).

    e(m) = (m/2)(m/2 - 1) for even m and ((m-1)/2)^2 for odd m; always an
    integer, returned exactly.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if m % 2 == 0:
        return (m // 2) * (m // 2 - 1)
    return ((m - 1) // 2) ** 2


@dataclass(frozen=True)
class PairProductCheck:
    log_lhs: float
    log_rhs: float
    ok: bool

    @property
    def lhs(self) -> float:
        return math.exp(self.log_lhs)

    @property
    def rhs(self) -> float:
        return math.exp(self.log_rhs)


def cc_product_check(points: Sequence[Point], n: int | None = None) -> PairProductCheck:
    """Check prod_{i<j} |P_i - P_j| >= lambda^e(m) for distinct circle points.

    The product is accumulated in the log domain (it overflows floats well
    before m reaches a full circle).  Squared distances are exact integers.
    Raises InvariantViolation on failure: this inequality is proven.
    """
    pts = list(points)
    m = len(pts)
    if m < 2:
        raise ValueError("need at least two points")
    if len(set(pts)) != m:
        raise ValueError("points must be pairwise distinct")
    if n is None:
        n = pts[0][0] ** 2 + pts[0][1] ** 2
    for x, y in pts:
        if x * x + y * y != n:
            raise ValueError(f"({x},{y}) not on circle n={n}")
    log_lhs = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            d2 = (pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2
            log_lhs += 0.5 * math.log(d2)
    log_rhs = cc_exponent(m) * 0.5 * math.log(n)
    ok = log_lhs >= log_rhs - 1e-9
    if not ok:
        raise InvariantViolation(
            f"pair-product bound failed on n={n}, m={m}: "
            f"log lhs {log_lhs:.12g} < log rhs {log_rhs:.12g}"
        )
    return PairProductCheck(log_lhs=log_lhs, log_rhs=log_rhs, ok=ok)


def arclog_bound_audit(circle: LatticeCircle) -> tuple[int, float, bool]:
    """Max points in any window of diameter < sqrt(lambda)/2, against the
    proven bound m <= log(lambda)/(2 log 2) + 1.

    The comparison is exact: m <= log(lambda)/(2 log 2) + 1 iff
    16^(m-1) <= n in integers.  Returns (m, float bound, ok) and raises
    InvariantViolation if the bound fails.
    """
    if circle.radius < 2.0:
        raise ValueError("audit needs lambda >= 2 (n >= 4)")
    m_pts = circle.count
    n = circle.n
    ext_pts = list(circle.points) * 2
    ext_ang = list(circle.angles) + [a + 2.0 * math.pi for a in circle.angles]
    best = 1
    j = 0
    # Diameter of an angularly contiguous run is the chord between its
    # extremes once the angular span is < pi; sqrt(lambda)/2 windows span
    # at most 2*asin(1/4), so a 1-radian guard is safe.
    for i in range(m_pts):
        if j < i:
            j = i
        while j + 1 < i + m_pts:
            p, q = ext_pts[i], ext_pts[j + 1]
            d2 = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
            # chord < sqrt(lambda)/2  iff  16*d2^2 < n, exactly
            if 16 * d2 * d2 < n and ext_ang[j + 1] - ext_ang[i] < 1.0:
                j += 1
            else:
                break
        if j - i + 1 > best:
            best = j - i + 1
    bound = math.log(circle.radius) / (2.0 * math.log(2.0)) + 1.0
    ok = 16 ** (best - 1) <= n
    if not ok:
        raise InvariantViolation(
            f"n={n}: {best} points in a window of diameter < sqrt(lambda)/2, "
            f"bound {bound:.4f}"
        )
    return best, bound, ok


@lru_cache(maxsize=4096)
def chord_arc_max(circle: LatticeCircle) -> int:
    """Cached chord-window arc-crowding count for a circle."""
    return max_arc_count(circle, kind="chord")[0]
