"""The four benchmark workloads and the checks on their output rows.

Each workload is a sequence of CLI calls made from the benchmark seed: call
``i`` gets its own master seed, so a closed loop that runs calls one after
another sees the same inputs for the same seed.  Checks read a fixed list of
row fields and ignore the rest, and do not depend on the seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Seeds per n in one sweep command.  A row's norm grid, and so its memory,
# doubles with the seed (2^16 to 2^19 nodes at n=160225): with four seeds
# per n nearly every circle command reaches the common 2^18 level, so the
# median peak RSS over commands is stable.
NODAL_CIRCLE_N = (27625, 160225)
NODAL_CIRCLE_SEEDS = 4
NODAL_CURVED_N = (1105, 5525)
NODAL_CURVED_SEEDS = 8
SCHUR_N = (160225, 1185665)
SCHUR_EPSILON = 0.1
LATTICE_RANGE = (1, 100000)  # half-open, as in the CLI's "a..b" form

L2_REL_TOL = 1e-8
CONSISTENCY_REL_TOL = 1e-12
HOLDER_REL_TOL = 1e-9
BLOCK_FLAT_REL_TOL = 1e-12


def pinned_seed(master: int, index: int) -> int:
    """The CLI's documented per-run seed: the first 8 bytes of
    SHA-256("<master>:<index>"), big endian."""
    digest = hashlib.sha256(f"{master}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Call:
    """One CLI command: its config file contents and the operations it owes."""

    command: str
    config: dict
    ops: tuple  # (n, seed) for nodal rows, n for schur and lattice


@dataclass(frozen=True)
class Workload:
    name: str
    fixtures: tuple[str, ...]  # fixture curves built during set-up
    make_call: Callable[[int, int], Call]  # (benchmark seed, call index) -> Call
    batch: int  # calls in the traced run's fixed batch
    check: Callable[[Call, list[dict]], dict]  # -> {op: failure, or None if it passed}


def _master(seed: int, name: str, index: int) -> int:
    return pinned_seed(seed, index) ^ int.from_bytes(
        hashlib.sha256(name.encode()).digest()[:8], "big")


def _sweep_call(seed: int, name: str, index: int, fixture: str,
                n_values, count: int) -> Call:
    master = _master(seed, name, index)
    config = {
        "n": list(n_values),
        "seeds": {"master": master, "count": count},
        "curve": {"fixture": fixture},
        "model": {"kind": "uniform-random"},
    }
    ops = []
    for n in n_values:
        for _ in range(count):
            ops.append((n, pinned_seed(master, len(ops))))
    return Call("sweep", config, tuple(ops))


def nodal_circle_call(seed: int, index: int) -> Call:
    return _sweep_call(seed, "nodal-circle", index, "circular", NODAL_CIRCLE_N,
                       NODAL_CIRCLE_SEEDS)


def nodal_curved_call(seed: int, index: int) -> Call:
    fixture = ("ellipse", "cubic")[index % 2]
    return _sweep_call(seed, "nodal-curved", index, fixture, NODAL_CURVED_N,
                       NODAL_CURVED_SEEDS)


def schur_call(seed: int, index: int) -> Call:
    config = {"n": list(SCHUR_N), "epsilon": SCHUR_EPSILON,
              "seeds": {"master": _master(seed, "schur", index)}}
    return Call("schur", config, SCHUR_N)


def lattice_call(seed: int, index: int) -> Call:
    lo, hi = LATTICE_RANGE
    config = {"n": f"{lo}..{hi}", "seeds": {"master": _master(seed, "lattice", index)}}
    return Call("lattice", config, tuple(representable(lo, hi)))


def representable(lo: int, hi: int) -> list[int]:
    """n in [lo, hi) that are sums of two squares, by direct enumeration."""
    found = set()
    x = 0
    while x * x < hi:
        y = x
        while x * x + y * y < hi:
            found.add(x * x + y * y)
            y += 1
        x += 1
    return sorted(n for n in found if n >= lo)


# -- checks ------------------------------------------------------------------

def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _gl_l2_sq(F, spec, lam: float, length: float) -> float:
    """Integral of f^2 along the curve by composite 16-point Gauss-Legendre
    in the curve's own parameter u (ds = |p'(u)| du): independent of the
    arc-length inversion, the field evaluation and the norm code."""
    x16, w16 = np.polynomial.legendre.leggauss(16)
    u0, u1 = spec.angle0, spec.angle1
    panels = max(16, math.ceil(2.0 * lam * length))
    edges = np.linspace(u0, u1, panels + 1)
    half = 0.5 * np.diff(edges)
    u = (edges[:-1, None] + half[:, None] * (x16[None, :] + 1.0)).ravel()
    w = (half[:, None] * w16[None, :]).ravel()
    mus = np.array(list(F.coeffs), dtype=float)
    a = np.array(list(F.coeffs.values()), dtype=complex)
    total = 0.0
    for lo in range(0, len(u), 4096):
        uu = u[lo:lo + 4096]
        pts = spec.point(uu)
        speed = np.linalg.norm(spec.d1(uu), axis=-1)
        ph = pts @ mus.T
        f = np.cos(ph) @ a.real - np.sin(ph) @ a.imag
        total += float(np.sum(w[lo:lo + 4096] * speed * f * f))
    return total


def check_nodal(call: Call, rows: list[dict]) -> dict:
    from toral_nodal.fixtures import curve_from_config, model_from_config
    from toral_nodal.lattice import chord_arc_max, enumerate_circle
    from toral_nodal.wavefield import make_eigenfunction

    curve = curve_from_config(call.config["curve"])
    by_op = {(r.get("n"), r.get("seed")): r for r in rows if r.get("kind") == "nodal"}
    circles = {}
    out = {}
    for op in call.ops:
        row = by_op.get(op)
        if row is None:
            out[op] = "row missing"
            continue
        n, seed = op
        if n not in circles:
            circle = enumerate_circle(n)
            circles[n] = (circle, chord_arc_max(circle))
        circle, arc_max = circles[n]
        F = make_eigenfunction(circle, model_from_config(call.config["model"], seed))
        out[op] = _nodal_row_failure(row, circle, arc_max, curve, F)
    return out


def _nodal_row_failure(row, circle, arc_max, curve, F):
    lam = math.sqrt(circle.n)
    if row["npoints"] != circle.count:
        return f"npoints {row['npoints']} != {circle.count}"
    if row["arc_max"] != arc_max:
        return f"arc_max {row['arc_max']} != {arc_max}"
    zeros, l4 = row["zeros"], row["l4"]
    expected = {
        "ratio_zeros_arcmax": zeros * arc_max**2.5 / lam,
        "zeros_over_freq": zeros / lam,
        "ratio_l4_arcmax": l4**4 / arc_max,
    }
    for name, value in expected.items():
        if not _close(row[name], value, CONSISTENCY_REL_TOL):
            return f"{name} {row[name]!r} inconsistent with row ({value!r})"
    length = curve.length
    chain = (row["l1"] / length, math.sqrt(row["l2"] ** 2 / length),
             (l4**4 / length) ** 0.25, row["lsup"])
    if any(a > b * (1.0 + HOLDER_REL_TOL) for a, b in zip(chain, chain[1:])):
        return f"Holder chain fails: {chain}"
    l2_sq = _gl_l2_sq(F, curve.spec, lam, length)
    if not _close(row["l2"], math.sqrt(l2_sq), L2_REL_TOL):
        return f"l2 {row['l2']!r} != quadrature {math.sqrt(l2_sq)!r}"
    return None


def check_schur(call: Call, rows: list[dict]) -> dict:
    out = {}
    for n in call.ops:
        bil = [r for r in rows if r.get("kind") == "schur-bilinear" and r.get("n") == n]
        blocks = [r for r in rows if r.get("kind") == "schur-block" and r.get("n") == n]
        if len(bil) != 1 or not blocks:
            out[n] = "rows missing"
            continue
        gap, lhs = bil[0]["block_flat_gap"], bil[0]["lhs_starred"]
        if not gap <= BLOCK_FLAT_REL_TOL * abs(lhs):
            out[n] = f"block_flat_gap {gap!r} > 1e-12 * {lhs!r}"
            continue
        bad = [r for r in blocks if not r["nnz"] <= r["rows"] * r["cols"]]
        out[n] = f"nnz > rows*cols in block {bad[0]['K']},{bad[0]['L']}" if bad else None
    return out


def check_lattice(call: Call, rows: list[dict]) -> dict:
    by_n = {r.get("n"): r for r in rows if r.get("kind") == "lattice"}
    out = {}
    for n in call.ops:
        row = by_n.pop(n, None)
        if row is None:
            out[n] = "row missing"
        elif not row["jarnik_max"] <= 2:
            out[n] = f"jarnik_max {row['jarnik_max']} > 2"
        elif row["arclog_m"] is not None and not 16 ** (row["arclog_m"] - 1) <= n:
            out[n] = f"16^(arclog_m-1) > n with arclog_m={row['arclog_m']}"
        else:
            out[n] = None
    for n in by_n:  # a row for an n that is not a sum of two squares
        out[("extra", n)] = "row for a non-representable n"
    return out


WORKLOADS = {
    "nodal-circle": Workload("nodal-circle", ("circular",), nodal_circle_call, 1, check_nodal),
    "nodal-curved": Workload("nodal-curved", ("ellipse", "cubic"), nodal_curved_call, 2,
                             check_nodal),
    "schur": Workload("schur", (), schur_call, 1, check_schur),
    "lattice": Workload("lattice", (), lattice_call, 1, check_lattice),
}
