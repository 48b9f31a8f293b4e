"""Integer points on circles x^2 + y^2 = n and their short-arc statistics.

All set membership and distance comparisons between lattice points are done
in exact integer arithmetic; floating point enters only through angles and
through window widths that are irrational by nature.  Window-boundary ties
are resolved toward inclusion with a fixed 1e-12 angular tolerance, matching
the closed-window convention (points at chord distance exactly sqrt(lambda)
count as inside).

The circles come from a block sieve: :func:`representable_up_to` fills
``SIEVE_BLOCK`` consecutive values of n at a time from the octant
0 <= x <= y with numpy (the 8-fold orbit, deduplicated int64 keys, one sort
by (n, angle)), so its memory is bounded by the block width and not by
n_max.  A sieved circle holds int64 points and makes Python tuples only when
asked.  Angles are always ``math.atan2`` (``np.arctan2`` can differ in the
last bit, which would move window witnesses).

The audits run on a :class:`CircleBlock`, a packed run of circles: each
kernel steps one offset k = 1, 2, ... over every point of the block at once
(each circle's points are laid out twice in a row, so the k-th successor of
a point is k places on) and returns per-circle arrays.  A single
:class:`LatticeCircle` is the one-circle block, unpacked to plain Python
values.

The pair-product bound is decided exactly: a log-domain margin above
``CC_LOG_MARGIN`` accepts a subset, and any subset at or below it is rechecked
in Python integers as prod d^2 >= n^e(m).

The integer kernels stay exact in int64 while 256 n^2 < 2^63 (the largest
intermediate is 16 d2^2 with d2 <= 4n), that is n <= ``INT64_N_MAX``; above
it the sieve, the arclog audit and the pair-product check raise ValueError
instead of wrapping.  The window counts compare angles only and hold points
in int64 just to carry them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import InvariantViolation

ANGLE_TIE_TOL = 1e-12

# A float log-sum margin above this decides the pair-product bound by itself.
# Below INT64_N_MAX a circle has at most 320 points, so a subset has at most
# 51,040 pair terms of size <= 10.3 each: even naive summation errs by less
# than 3e-6 in the log sum.
CC_LOG_MARGIN = 1e-4

# Values of n per sieve block.
SIEVE_BLOCK = 4096

INT64_N_MAX = math.isqrt((2**63 - 1) // 256)

_TWO_PI = 2.0 * math.pi

_set = object.__setattr__

Point = tuple[int, int]


def _angle(p: Point) -> float:
    a = math.atan2(p[1], p[0])
    return a + _TWO_PI if a < 0.0 else a


def _check_int64(n_max: int) -> None:
    if n_max > INT64_N_MAX:
        raise ValueError(
            f"n={n_max} exceeds the exact int64 range n <= {INT64_N_MAX}")


class LatticeCircle:
    """All integer points on x^2 + y^2 = n, sorted by angle in [0, 2*pi).

    Immutable.  ``points`` and ``angles`` are tuples; a circle from the sieve
    holds its points as an int64 array and builds the tuples on first use,
    so audits that read only the arrays never make them.
    """

    __slots__ = ("n", "radius", "_points", "_xy", "_angles", "_ang")

    def __init__(self, n: int, radius: float, points: tuple[Point, ...]):
        for x, y in points:
            if x * x + y * y != n:
                raise InvariantViolation(f"({x},{y}) not on circle n={n}")
        self._fill(n, radius, tuple(points), None)

    @classmethod
    def _sieved(cls, n: int, xy: np.ndarray) -> LatticeCircle:
        """A circle from the sieve's angle-ordered int64 points.  The sieve
        reads n off the points' own norms, so the on-circle check holds by
        construction."""
        circle = object.__new__(cls)
        circle._fill(n, math.sqrt(n), None, xy)
        return circle

    def _fill(self, n, radius, points, xy) -> None:
        _set(self, "n", n)
        _set(self, "radius", radius)
        _set(self, "_points", points)  # tuples, or None until first use
        _set(self, "_xy", xy)          # int64 array, or None until first use
        _set(self, "_angles", None)
        _set(self, "_ang", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"LatticeCircle is immutable (setting {name!r})")

    def __reduce__(self):
        return LatticeCircle, (self.n, self.radius, self.points)

    def __eq__(self, other):
        if not isinstance(other, LatticeCircle):
            return NotImplemented
        return (self.n, self.radius, self.points) == (other.n, other.radius, other.points)

    def __hash__(self) -> int:
        return hash((self.n, self.radius, self.points))

    def __repr__(self) -> str:
        return f"LatticeCircle(n={self.n!r}, radius={self.radius!r}, points={self.points!r})"

    @property
    def count(self) -> int:
        return len(self._xy if self._points is None else self._points)

    @property
    def points(self) -> tuple[Point, ...]:
        if self._points is None:
            x, y = self._xy.T.tolist()
            _set(self, "_points", tuple(zip(x, y)))
        return self._points

    @property
    def angles(self) -> tuple[float, ...]:
        if self._angles is None:
            if self._points is None:
                x, y = self._xy.T.tolist()
            else:
                x, y = [p[0] for p in self._points], [p[1] for p in self._points]
            _set(self, "_angles",
                 tuple(a + _TWO_PI if a < 0.0 else a for a in map(math.atan2, y, x)))
        return self._angles

    @property
    def _packed(self) -> tuple[np.ndarray, np.ndarray]:
        """Points as an int64 (count, 2) array and their angles as float64."""
        if self._ang is None:
            if self._xy is None:
                _set(self, "_xy", np.array(self._points, dtype=np.int64).reshape(-1, 2))
            _set(self, "_ang", np.array(self.angles, dtype=float))
        return self._xy, self._ang


class CircleBlock:
    """A run of one or more nonempty circles packed into flat arrays.

    Circle i has norm n[i], radius radii[i] = sqrt(n[i]) and owns
    points[start[i] : start[i] + count[i]], in angle order.  Built by
    :meth:`of`.  Per point: ``owner`` (its circle), ``m`` (its circle's
    count) and ``home``, its position in the doubled layout ``ext_angles`` /
    ``ext_points``, where each circle's points appear twice in a row (angles
    + 2*pi the second time), so that the point k places counterclockwise of
    point i sits at home[i] + k for every k < m[i].
    """

    def __init__(self, n: list[int], count: list[int], points: np.ndarray,
                 angles: np.ndarray):
        self.n = np.array(n, dtype=np.int64)
        self.count = np.array(count, dtype=np.int64)
        self.points, self.angles = points, angles
        self.radii = [math.sqrt(v) for v in n]
        self.count_range = (min(count), max(count))
        if len(count) == 1:  # every call on a LatticeCircle: skip the segment sums
            self.start = np.zeros(1, dtype=np.int64)
            self.owner = np.zeros(len(angles), dtype=np.int64)
            self.home = np.arange(len(angles))
        else:
            self.start = np.cumsum(self.count) - self.count
            self.owner = np.repeat(np.arange(len(count)), self.count)
            self.home = self.start[self.owner] + np.arange(len(angles))
        self.m = self.count[self.owner]
        self.ext_angles = self._doubled(angles, _TWO_PI)
        self._ext_points = None

    @classmethod
    def of(cls, circles: Iterable[LatticeCircle]) -> CircleBlock:
        circles = list(circles)
        count = [c.count for c in circles]
        if not circles or 0 in count:
            raise ValueError("a block needs one or more nonempty circles")
        n = [c.n for c in circles]
        if len(circles) == 1:
            points, angles = circles[0]._packed
        else:
            packed = [c._packed for c in circles]
            points = np.concatenate([p[0] for p in packed])
            angles = np.concatenate([p[1] for p in packed])
        return cls(n, count, points, angles)

    def __len__(self) -> int:
        return len(self.n)

    def _doubled(self, values: np.ndarray, shift) -> np.ndarray:
        """Per-point ``values`` in the doubled layout, zero-padded at the end
        so that every offset up to the largest count stays in range."""
        if len(self.n) == 1:  # one circle: offsets k < m stay below 2m
            return np.concatenate((values, values + shift))
        out = np.zeros((2 * len(values) + self.count_range[1] + 1,) + values.shape[1:],
                       values.dtype)
        out[self.home] = values
        out[self.home + self.m] = values + shift
        return out

    @property
    def ext_points(self) -> np.ndarray:
        if self._ext_points is None:
            self._ext_points = self._doubled(self.points, 0)
        return self._ext_points

    def windows(self, size: int, select: np.ndarray | None = None):
        """Every run of ``size`` consecutive points, one starting at each point
        of the selected circles (all by default), wrapping around its circle.

        Returns (points of shape (W, size, 2), n of shape (W,)).
        """
        i = np.arange(len(self.owner)) if select is None else np.flatnonzero(select[self.owner])
        if np.any(self.m[i] < size):
            raise ValueError(f"window size {size} exceeds a circle's count")
        start = self.start[self.owner[i]]
        offs = ((i - start)[:, None] + np.arange(size)) % self.m[i][:, None]
        return self.points[start[:, None] + offs], self.n[self.owner[i]]


def _as_block(circles) -> tuple[CircleBlock, bool]:
    if isinstance(circles, LatticeCircle):
        return CircleBlock.of([circles]), True
    return circles, False


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


def window_half_width(kind: str, radius: float, c: float = 1.0) -> float:
    if kind == "chord":
        return 2.0 * math.asin(min(1.0, 0.5 / math.sqrt(radius)))
    if kind == "length":
        return 0.5 * c / math.sqrt(radius)
    raise ValueError(f"unknown window kind {kind!r}")


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


def _isqrt(v: np.ndarray) -> np.ndarray:
    """Exact floor(sqrt(v)) of nonnegative int64 values below 2^52."""
    s = np.sqrt(v.astype(float)).astype(np.int64)
    s -= s * s > v
    s += (s + 1) * (s + 1) <= v
    return s


def _sieve_block(lo: int, hi: int) -> Iterator[LatticeCircle]:
    """Every nonempty circle with lo <= n < hi, in increasing n."""
    # the octant 0 <= x <= y: for each x, the y with lo <= x^2 + y^2 < hi
    x = np.arange(math.isqrt((hi - 1) // 2) + 1, dtype=np.int64)
    below = lo - x * x
    y_lo = np.maximum(x, np.where(below > 0, _isqrt(np.maximum(below - 1, 0)) + 1, 0))
    lens = np.maximum(_isqrt(hi - 1 - x * x) - y_lo + 1, 0)
    total = int(lens.sum())
    if total == 0:
        return
    x, y = np.repeat(x, lens), np.repeat(y_lo - np.cumsum(lens) + lens, lens) + np.arange(total)
    # the 8-fold orbit of the octant, deduplicated on one sorted int64 key
    # per point (the orbits of x = 0 and x = y repeat each point twice)
    ox = np.concatenate([x, y, -x, -y, x, y, -x, -y])
    oy = np.concatenate([y, x, y, x, -y, -x, -y, -x])
    r = math.isqrt(hi - 1)
    keys = np.sort((ox + r) * (2 * r + 1) + (oy + r))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    ox, oy = keys // (2 * r + 1) - r, keys % (2 * r + 1) - r
    nn = ox * ox + oy * oy
    # Order by (n, angle).  np.arctan2 only orders: two points of one circle
    # are far more than an ulp apart; the stored angles are math.atan2.
    approx = np.arctan2(oy, ox)
    order = np.lexsort((np.where(approx < 0.0, approx + _TWO_PI, approx), nn))
    xy = np.stack([ox[order], oy[order]], axis=1)
    nn = nn[order]
    starts = np.flatnonzero(np.diff(nn, prepend=0))
    bounds = [*starts.tolist(), len(nn)]
    sieved = LatticeCircle._sieved
    for s, e, n in zip(bounds, bounds[1:], nn[starts].tolist()):
        yield sieved(n, xy[s:e])


def representable_up_to(n_max: int) -> Iterator[LatticeCircle]:
    """Yield every nonempty circle with 1 <= n <= n_max, in increasing n.

    Sieve form of :func:`enumerate_circle`, one block of ``SIEVE_BLOCK``
    values of n at a time (per-n scans would cost sum(sqrt(n)) ~
    n_max^1.5 / 1.5).  Raises ValueError above ``INT64_N_MAX``.
    """
    if n_max < 1:
        return
    _check_int64(n_max)
    for lo in range(1, n_max + 1, SIEVE_BLOCK):
        yield from _sieve_block(lo, min(lo + SIEVE_BLOCK, n_max + 1))


def _run_lengths(block: CircleBlock, accept) -> np.ndarray:
    """For every point i, 1 + the number of offsets k = 1, 2, ... < m[i] at
    which accept(positions) has held at every offset so far.  ``positions``
    holds, for every point of the block, where its k-th counterclockwise
    successor sits in the doubled layout (``ext_angles``, ``ext_points``)."""
    lo, hi = block.count_range
    runs = np.zeros(len(block.m), dtype=np.int64)
    alive = block.m > 1
    for k in range(1, hi):
        alive &= accept(block.home + k)
        if k >= lo:  # circles with at most k points have no k-th successor
            alive &= k < block.m
        if not np.count_nonzero(alive):
            break
        runs += alive
    return runs + 1


def _best_runs(block: CircleBlock, runs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per circle: the longest run and the local index of its first start."""
    if len(block) == 1:
        return runs.max(keepdims=True), runs.argmax(keepdims=True)
    best = np.maximum.reduceat(runs, block.start)
    first = np.minimum.reduceat(
        np.where(runs == best[block.owner], block.home, len(block.ext_angles)),
        block.start) - 2 * block.start
    return best, first


def max_arc_count(circles, kind: str = "chord", c=1.0):
    """Exact maximum number of circle points in one window, with a witness.

    For kind "chord" this is the arc-crowding count: the largest number of
    lattice points within chord distance sqrt(lambda) of any point of the
    circle |x| = lambda.  The maximum over continuous window positions is
    attained by a window whose leading (counterclockwise-first) edge touches
    a point, so only those candidates are swept; the witness is the first
    maximising one.

    On a :class:`CircleBlock` (c a scalar or one value per circle) returns
    (counts, witness center angles) as per-circle arrays; on a
    :class:`LatticeCircle` returns (count, ArcWindow).
    """
    block, single = _as_block(circles)
    cs = c if isinstance(c, (list, tuple, np.ndarray)) else [c] * len(block)
    half = np.array([window_half_width(kind, r, ci) for r, ci in zip(block.radii, cs)])
    width = 2.0 * half
    limit = (width + ANGLE_TIE_TOL)[block.owner]
    ext, angles = block.ext_angles, block.angles
    # a window of width >= 2*pi passes every offset, so it counts all m
    # points from the first start on
    best, first = _best_runs(
        block, _run_lengths(block, lambda pos: ext[pos] - angles <= limit))
    centers = (block.angles[block.start + first] + half) % _TWO_PI
    if single:
        return int(best[0]), ArcWindow(center_angle=float(centers[0]), kind=kind, c=c)
    return best, centers


def jarnik_audit(circles):
    """Max points in any arc of length lambda^(1/3); must be <= 2 (proven).

    Per-circle (counts, witness centers) on a block, (count, ArcWindow) on
    one circle.  Raises InvariantViolation when the proven bound fails.
    """
    block, single = _as_block(circles)
    # arc length c*sqrt(lambda) = lambda^(1/3)
    c = [lam ** (-1.0 / 6.0) for lam in block.radii]
    counts, centers = max_arc_count(block, kind="length", c=c)
    if np.count_nonzero(counts > 2):
        at = int(np.argmax(counts))
        raise InvariantViolation(
            f"n={block.n[at]}: {counts[at]} points in an arc of length lambda^(1/3)")
    if single:
        return int(counts[0]), ArcWindow(float(centers[0]), "length", c[0])
    return counts, centers


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
    log_lhs: float | np.ndarray
    log_rhs: float | np.ndarray
    ok: bool | np.ndarray

    @property
    def lhs(self):
        return np.exp(self.log_lhs)

    @property
    def rhs(self):
        return np.exp(self.log_rhs)


def cc_product_check(points, n=None) -> PairProductCheck:
    """Check prod_{i<j} |P_i - P_j| >= lambda^e(m) for distinct circle points.

    ``points`` has shape (..., m, 2): one subset of m points, or a batch of
    them with ``n`` one value per subset (or one for all; by default the
    norm of each subset's first point).  Squared distances are exact int64.
    The verdict is exact: a log-domain margin above ``CC_LOG_MARGIN`` accepts
    a subset, and every other subset is rechecked in Python integers as
    prod d^2 >= n^e(m).  Raises InvariantViolation on failure: this
    inequality is proven.
    """
    try:
        pts = np.asarray(points, dtype=np.int64)
        nn = None if n is None else np.asarray(n, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"input exceeds the exact int64 range n <= {INT64_N_MAX}") from None
    if pts.ndim < 2 or pts.shape[-1] != 2:
        raise ValueError(f"points must have shape (..., m, 2), got {pts.shape}")
    m = pts.shape[-2]
    if m < 2:
        raise ValueError("need at least two points")
    if pts.size and np.abs(pts).max() > math.isqrt(INT64_N_MAX):
        raise ValueError(f"coordinates exceed the exact int64 range n <= {INT64_N_MAX}")
    if nn is None:
        nn = pts[..., 0, 0] ** 2 + pts[..., 0, 1] ** 2
    nn = np.broadcast_to(nn, pts.shape[:-2])
    if nn.size:
        _check_int64(int(nn.max()))
    iu, ju = np.triu_indices(m, 1)
    diff = pts[..., iu, :] - pts[..., ju, :]
    d2 = np.einsum("...k,...k->...", diff, diff)
    if np.any(d2 == 0):
        raise ValueError("points must be pairwise distinct")
    off = pts[..., 0] ** 2 + pts[..., 1] ** 2 != nn[..., None]
    if np.any(off):
        at = np.argwhere(off)[0]
        x, y = pts[tuple(at)].tolist()
        raise ValueError(f"({x},{y}) not on circle n={int(nn[tuple(at[:-1])])}")
    e = cc_exponent(m)
    log_lhs = 0.5 * np.log(d2.astype(float)).sum(axis=-1)
    log_rhs = e * 0.5 * np.log(nn.astype(float))
    flat_d2, flat_n = d2.reshape(-1, len(iu)), nn.reshape(-1)
    for w in np.flatnonzero(~(log_lhs - log_rhs > CC_LOG_MARGIN)):
        lhs, rhs = math.prod(flat_d2[w].tolist()), int(flat_n[w]) ** e
        if lhs < rhs:
            raise InvariantViolation(
                f"pair-product bound failed on n={flat_n[w]}, m={m}: "
                f"prod d^2 = {lhs} < n^{e} = {rhs}")
    if pts.ndim == 2:
        return PairProductCheck(log_lhs=float(log_lhs), log_rhs=float(log_rhs), ok=True)
    return PairProductCheck(log_lhs=log_lhs, log_rhs=log_rhs,
                            ok=np.ones(log_lhs.shape, dtype=bool))


def arclog_bound_audit(circles):
    """Max points in any window of diameter < sqrt(lambda)/2, against the
    proven bound m <= log(lambda)/(2 log 2) + 1.

    The comparison is exact: m <= log(lambda)/(2 log 2) + 1 iff
    16^(m-1) <= n in integers.  Returns (m, float bound, ok) per circle as
    arrays on a block, as plain values on one circle.  Needs lambda >= 2
    (n >= 4) on every circle; raises InvariantViolation if the bound fails.
    """
    block, single = _as_block(circles)
    if min(block.radii) < 2.0:
        raise ValueError("audit needs lambda >= 2 (n >= 4)")
    _check_int64(max(block.n.tolist()))
    n_pt = block.n[block.owner]
    ext_xy, xy = block.ext_points, block.points
    ext, angles = block.ext_angles, block.angles

    # Diameter of an angularly contiguous run is the chord between its
    # extremes once the angular span is < pi; sqrt(lambda)/2 windows span
    # at most 2*asin(1/4), so a 1-radian guard is safe.
    def accept(pos):
        d = ext_xy[pos] - xy
        d2 = np.add.reduce(d * d, axis=1)
        # chord < sqrt(lambda)/2  iff  16*d2^2 < n, exactly
        return (16 * d2 * d2 < n_pt) & (ext[pos] - angles < 1.0)

    best, _ = _best_runs(block, _run_lengths(block, accept))
    best_l, n_l = best.tolist(), block.n.tolist()
    bound = [math.log(r) / (2.0 * math.log(2.0)) + 1.0 for r in block.radii]
    ok = [16 ** (b - 1) <= n for b, n in zip(best_l, n_l)]
    if not all(ok):
        at = ok.index(False)
        raise InvariantViolation(
            f"n={n_l[at]}: {best_l[at]} points in a window of diameter "
            f"< sqrt(lambda)/2, bound {bound[at]:.4f}")
    if single:
        return best_l[0], bound[0], True
    return best, np.array(bound), np.array(ok)


@lru_cache(maxsize=4096)
def chord_arc_max(circle: LatticeCircle) -> int:
    """Cached chord-window arc-crowding count for a circle."""
    return max_arc_count(circle, kind="chord")[0]
