"""Certified sign-change counting along the curve, the partition-of-unity
experiment, and the assembled per-run record of all theorem-shaped ratios.

Counts are certified lower bounds: every reported bracket [t-, t+] has
f(t-) f(t+) < 0, so it contains a zero.  Tangential zeros are invisible to
this counter by design.  The grid walks the shared dyadic cascade until
the count is unchanged through two consecutive doublings; refining never
loses a bracket (a sign-change cell keeps a sign change after splitting),
so counts are monotone across levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvariantViolation
from .oscillatory import NormReport, _gl_panels, _panel_counts, restriction_norms
from .wavefield import (RestrictedWave, _bump, dyadic_levels, f1_parts,
                        first_level, split_f0_f1)

NODE_CAP_COUNT = 1 << 24

# Extrema of the pinned ramp derivatives on (0, 1), frozen from a 2e6-point
# scan; the partition audit scales these by 1/h^r.
RAMP_D1_MAX = 2.1703570858
RAMP_D2_MAX = 21.0658821189


@dataclass(frozen=True)
class SignChangeReport:
    count: int
    brackets: tuple[tuple[float, float], ...]
    grid_levels: int
    stable: bool
    counts_per_level: tuple[int, ...] = ()
    intervals: int = 0  # interval count of the finest grid walked

    def validate(self, fn) -> bool:
        """Re-evaluate every bracket independently."""
        for lo, hi in self.brackets:
            if not float(fn(lo)) * float(fn(hi)) < 0.0:
                raise InvariantViolation(f"bracket ({lo}, {hi}) lost its sign change")
        return True


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

    rate is the fastest oscillation rate of fn (radians per unit t); the
    initial spacing is min((b-a)/64, 1/(8*rate)).  grid_fn, when given,
    supplies cached (t, f) arrays for the full-interval doubling stage.
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
    # Ratio cycling keeps the strict-sign invariant f(lo) f(hi) < 0 even if a
    # split point lands exactly on a zero: such entries stall one round and
    # get a different split next time.
    ratios = (0.5, 0.381966011, 0.618033989)
    rounds = 0
    while len(lo) and np.max(hi - lo) > tol and rounds < 200:
        mid = lo + ratios[rounds % 3] * (hi - lo)
        fm = np.asarray(fn(mid), dtype=float)
        crosses = flo * fm < 0.0
        hit_zero = fm == 0.0
        hi = np.where(hit_zero, hi, np.where(crosses, mid, hi))
        lo = np.where(hit_zero, lo, np.where(crosses, lo, mid))
        flo = np.where(hit_zero | crosses, flo, fm)
        rounds += 1
    return SignChangeReport(
        count=len(cells),
        brackets=tuple(zip(lo.tolist(), hi.tolist())),
        grid_levels=len(counts),
        stable=stable,
        counts_per_level=tuple(counts),
        intervals=n,
    )


def count_sign_changes(rw: RestrictedWave, tol: float | None = None) -> SignChangeReport:
    """Certified sign changes of the restricted eigenfunction on [0, L]."""
    return certified_sign_changes(
        rw.value, 0.0, rw.curve.length, rate=rw.lam, tol=tol,
        grid_fn=rw.grid_values)


# -- partition of unity ---------------------------------------------------------

def _ramp(x: np.ndarray) -> np.ndarray:
    """Monotone step 0 -> 1 over [0, 1], from the pinned cutoff profile:
    1 - b(x) for x > 0 and 0 otherwise, which is 1 - theta(1 + x) on x > -2."""
    x = np.asarray(x, dtype=float)
    return np.where(x > 0.0, 1.0 - _bump(x), 0.0)


@dataclass(frozen=True)
class PartitionOfUnity:
    """Telescoped ramp bumps tau_j on [0, L]: widths 2h, overlap at most 2,
    sum exactly 1 (telescoping is algebraic, not approximate)."""

    length: float
    lam: float
    c1: float
    count: int  # number of bumps J
    h: float

    def _chi(self, j: int, t: np.ndarray) -> np.ndarray:
        if j <= 0:
            return np.ones_like(t)
        if j >= self.count:
            return np.zeros_like(t)
        return _ramp((t - j * self.h) / self.h)

    def tau(self, j: int, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self._chi(j, t) - self._chi(j + 1, t)

    def tau_matrix(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        chi = np.stack([self._chi(j, t) for j in range(self.count + 1)])
        return chi[:-1] - chi[1:]

    def _d_chi(self, j: int, t: np.ndarray, order: int) -> np.ndarray:
        if not 1 <= j <= self.count - 1:
            return np.zeros_like(t)
        return -_bump((t - j * self.h) / self.h, order) / self.h**order

    def d_tau(self, j: int, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self._d_chi(j, t, 1) - self._d_chi(j + 1, t, 1)

    def d2_tau(self, j: int, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self._d_chi(j, t, 2) - self._d_chi(j + 1, t, 2)

    def support(self, j: int) -> tuple[float, float]:
        return max(0.0, j * self.h), min(self.length, (j + 2) * self.h)

    def audit(self, samples: int = 4096) -> dict:
        """Check the four construction properties on a dense grid."""
        t = np.linspace(0.0, self.length, samples)
        taus = self.tau_matrix(t)
        sum_err = float(np.max(np.abs(taus.sum(axis=0) - 1.0)))
        if sum_err > 1e-10:
            raise InvariantViolation(f"partition does not sum to 1: {sum_err:.3e}")
        overlap = int(np.max(np.count_nonzero(taus > 0.0, axis=0)))
        if overlap > 2:
            raise InvariantViolation(f"partition overlap {overlap} > 2")
        d1max = max(float(np.max(np.abs(self.d_tau(j, t)))) for j in range(self.count))
        d2max = max(float(np.max(np.abs(self.d2_tau(j, t)))) for j in range(self.count))
        scale = 1.0 / self.h
        if d1max > RAMP_D1_MAX * scale * (1.0 + 1e-9):
            raise InvariantViolation("first-derivative bound violated")
        if d2max > RAMP_D2_MAX * scale**2 * (1.0 + 1e-9):
            raise InvariantViolation("second-derivative bound violated")
        return {
            "sum_err": sum_err,
            "overlap": overlap,
            "d1_max_ratio": d1max / (self.lam / self.c1),
            "d2_max_ratio": d2max / (self.lam / self.c1) ** 2,
        }


def build_partition(length: float, lam: float, c1: float) -> PartitionOfUnity:
    """Partition of unity with about lam/c1 bumps of width about 2*c1/lam."""
    if not 1.0 <= c1 <= lam / 4.0:
        raise ValueError(f"need 1 <= C1 <= lambda/4, got C1={c1}, lambda={lam}")
    count = max(2, math.ceil(length * lam / c1))
    return PartitionOfUnity(
        length=length, lam=lam, c1=c1, count=count, h=length / count)


def partition_experiment(
    rw: RestrictedWave,
    c1: float,
    sigma: float,
    check_coupling: bool = False,
) -> dict:
    """Run the sign-change detection experiment behind the zero-count bound.

    Per bump: certify sign changes on its support; J0 collects the bumps
    that carry one.  Both sides of the two mass inequalities are evaluated
    (the detected-mass bound sqrt(#J0 * C1 / lambda) and the undetected-sum
    bound C1^(-1/3)), along with the L2 sizes of the two
    integration-by-parts pieces against their sigma powers.  The L1 norm
    is the one :func:`restriction_norms` certifies; the other integrals run
    on 16-point Gauss-Legendre panels cut at the zero-bracket midpoints and
    the bump edges j*h, so |f| and the ramps are smooth on every panel.
    Constants are reported, never asserted: the statements are asymptotic.
    """
    lam = rw.lam
    L = rw.curve.length
    part = build_partition(L, lam, c1)
    part.audit(2048)

    per_bump = []
    detected = []
    for j in range(part.count):
        a, b = part.support(j)
        rep = certified_sign_changes(rw.value, a, b, rate=lam)
        per_bump.append(rep.count)
        if rep.count >= 1:
            detected.append(j)

    total = count_sign_changes(rw)
    l1 = restriction_norms(rw, signs=total).l1
    tb = np.union1d([0.0, L, *(0.5 * (lo + hi) for lo, hi in total.brackets)],
                    part.h * np.arange(1, part.count))
    t, w = (a.ravel() for a in _gl_panels(tb, _panel_counts(lam, tb)))
    f = rw.value(t)
    taus = part.tau_matrix(t)

    in_mask = np.zeros(part.count, dtype=bool)
    in_mask[detected] = True
    lhs_detected = float(w @ (np.abs(f) * taus[in_mask].sum(axis=0))) if detected else 0.0
    rhs_detected = math.sqrt(len(detected) * c1 / lam)
    undetected_sum = float(sum(
        abs(w @ (f * taus[j])) for j in range(part.count) if not in_mask[j]))
    rhs_undetected = c1 ** (-1.0 / 3.0)

    f0, _ = split_f0_f1(rw, sigma)
    f0n_sq = float(w @ np.abs(f0(t)) ** 2)
    f2, f3 = f1_parts(rw, sigma)
    f2n = math.sqrt(float(w @ np.abs(f2(t)) ** 2))
    f3n = math.sqrt(float(w @ np.abs(f3(t)) ** 2))

    record = {
        "n": rw.F.circle.n,
        "lambda": lam,
        "c1": c1,
        "sigma": sigma,
        "bumps": part.count,
        "detected_bumps": len(detected),
        "sign_changes": total.count,
        "lhs_detected_mass": lhs_detected,
        "rhs_detected_mass": rhs_detected,
        "ratio_detected_mass": lhs_detected / rhs_detected if rhs_detected > 0 else 0.0,
        "undetected_sum": undetected_sum,
        "rhs_undetected": rhs_undetected,
        "ratio_undetected": undetected_sum / rhs_undetected,
        "f0_norm_sq_over_sigma": f0n_sq / sigma,
        "f2_norm_times_sigma_sq": f2n * sigma**2,
        "f3_norm_times_sigma": f3n * sigma,
        "detected_over_freq_l1_fifth": float(
            len(detected) / (lam * max(l1, 1e-300) ** 5)),
    }
    if check_coupling:
        record["coupling_c1_sigma"] = c1 * sigma**1.5  # 1.0 when C1 = sigma^(-3/2)
    return record


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
