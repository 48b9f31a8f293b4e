"""Certified sign-change counting along the curve, and the assembled
per-run record of all theorem-shaped ratios.

Counts run in the curve's own parameter u: zeros do not depend on the
parametrization.  They are certified lower bounds: every reported bracket
[u-, u+] has f(u-) f(u+) < 0, so it contains a zero.  Tangential zeros
are invisible to this counter by design.  The grid walks the shared
dyadic cascade until the count is unchanged through two consecutive
doublings; refining never loses a bracket (a sign-change cell keeps a sign
change after splitting), so counts are monotone across levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .oscillatory import NormReport, restriction_norms
from .wavefield import RestrictedWave, dyadic_levels, first_level

NODE_CAP_COUNT = 1 << 24


@dataclass(frozen=True)
class SignChangeReport:
    count: int
    brackets: tuple[tuple[float, float], ...]
    grid_levels: int
    stable: bool
    intervals: int = 0  # interval count of the finest grid walked


def certified_sign_changes(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rate: float,
    tol: float | None = None,
    node_cap: int = NODE_CAP_COUNT,
    grid_fn: Callable[[int], tuple[np.ndarray, np.ndarray]] | None = None,
) -> SignChangeReport:
    """Count strict sign changes of fn on [a, b].

    rate is the fastest oscillation rate of fn (radians per unit of its
    argument); the initial spacing is min((b-a)/64, 1/(8*rate)).  grid_fn,
    when given, supplies cached (x, f) arrays for the full-interval
    doubling stage.
    """
    if tol is None:
        tol = 1e-12 * (b - a)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    counts: list[int] = []
    for n in dyadic_levels(first_level(8.0 * rate * (b - a)), node_cap):
        if grid_fn is not None:
            t, f = grid_fn(n)
        else:
            t = np.linspace(a, b, n + 1)
            f = np.asarray(fn(t), dtype=float)
        if not np.any(f):
            raise ValueError("function is identically zero on the grid")
        cells = np.flatnonzero(f[:-1] * f[1:] < 0.0)
        counts.append(len(cells))
        if len(counts) >= 3 and counts[-1] == counts[-2] == counts[-3]:
            stable = True
            break
    else:
        stable = False

    lo = t[cells].copy()
    hi = t[cells + 1].copy()
    flo = f[cells].copy()
    # Only brackets wider than tol are split, so none is narrowed into the
    # rounding noise of fn.  Ratio cycling keeps the strict-sign invariant
    # f(lo) f(hi) < 0 even if a split point lands exactly on a zero: such
    # entries stall one round and get a different split next time.
    ratios = (0.5, 0.381966011, 0.618033989)
    rounds = 0
    while (act := np.flatnonzero(hi - lo > tol)).size and rounds < 200:
        x0, x1, f0 = lo[act], hi[act], flo[act]
        mid = x0 + ratios[rounds % 3] * (x1 - x0)
        fm = np.asarray(fn(mid), dtype=float)
        left = f0 * fm < 0.0  # the zero is in [x0, mid]
        right = (fm != 0.0) & ~left
        hi[act] = np.where(left, mid, x1)
        lo[act] = np.where(right, mid, x0)
        flo[act] = np.where(right, fm, f0)
        rounds += 1
    return SignChangeReport(
        count=len(cells),
        brackets=tuple(zip(lo.tolist(), hi.tolist())),
        grid_levels=len(counts),
        stable=stable,
        intervals=n,
    )


def count_sign_changes(rw: RestrictedWave, tol: float | None = None) -> SignChangeReport:
    """Certified sign changes of the restricted eigenfunction in u on
    [angle0, angle1], where its phase moves at most lambda max |p'| per
    unit u; the brackets are in u."""
    spec = rw.curve.spec
    return certified_sign_changes(
        rw.value_at_param, spec.angle0, spec.angle1,
        rate=rw.lam * rw.curve.speed_max, tol=tol, grid_fn=rw.grid_values)


# -- assembled per-run record ----------------------------------------------------

@dataclass(frozen=True)
class TheoremRecord:
    n: int
    lam: float
    npoints: int
    arc_max: int
    zeros: int
    stable: bool
    l1: float
    l2: float
    l4: float
    lsup: float
    ratio_zeros_arcmax: float
    ratio_zeros_l1mass: float
    ratio_l4_arcmax: float
    zeros_over_freq: float
    seed: int | None

    def as_row(self) -> dict:
        return {
            "n": self.n,
            "lambda": self.lam,
            "npoints": self.npoints,
            "arc_max": self.arc_max,
            "zeros": self.zeros,
            "stable": self.stable,
            "l1": self.l1,
            "l2": self.l2,
            "l4": self.l4,
            "lsup": self.lsup,
            "ratio_zeros_arcmax": self.ratio_zeros_arcmax,
            "ratio_zeros_l1mass": self.ratio_zeros_l1mass,
            "ratio_l4_arcmax": self.ratio_l4_arcmax,
            "zeros_over_freq": self.zeros_over_freq,
            "seed": self.seed,
        }


def theorem_harness(
    rw: RestrictedWave,
    seed: int | None = None,
    norms: NormReport | None = None,
) -> TheoremRecord:
    """One sweep row: certified zero count, arc-crowding max, restriction
    norms, and the three theorem-shaped ratios (constants are never
    asserted; the ratios exist to be aggregated across ensembles)."""
    circle = rw.F.circle
    lam = circle.radius
    rep = count_sign_changes(rw)
    if norms is None:
        norms = restriction_norms(rw, signs=rep)
    b = norms.arc_max
    n_zeros = rep.count
    l1_mass = 2.0 * math.pi * norms.l1 / math.sqrt(rw.F.sum_sq)  # l1 / ||F||_2
    if seed is None:
        seed = getattr(rw.F.model, "seed", None)
    return TheoremRecord(
        n=circle.n,
        lam=lam,
        npoints=circle.count,
        arc_max=b,
        zeros=n_zeros,
        stable=rep.stable,
        l1=norms.l1,
        l2=norms.l2,
        l4=norms.l4,
        lsup=norms.lsup,
        ratio_zeros_arcmax=n_zeros * b**2.5 / lam,
        ratio_zeros_l1mass=n_zeros / (lam * l1_mass**5),
        ratio_l4_arcmax=norms.l4_4 / b,
        zeros_over_freq=n_zeros / lam,
        seed=seed,
    )
