"""Batch driver: experiment configuration, deterministic sweeps, and
JSONL/CSV/SVG persistence.

Replay contract: one config plus one master seed reproduces byte-identical
row output at any parallelism degree (only the header line carries a
timestamp).  Per-run seeds derive from the master seed by a pinned counter
construction: seed_i = first 8 bytes of SHA-256("<master>:<index>"), big
endian, so nothing depends on scheduling order.

Exit codes: 0 success, 2 a proven invariant failed somewhere, 3 config
or usage error, 4 I/O error, 5 numerical refinement hit its node cap.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .counterexamples import (continued_fraction_approximants,
                              irrational_geodesic_witness,
                              parallel_exception_search,
                              rational_geodesic_eigenfunction)
from .errors import ConfigError, InvariantViolation, QuadratureError
from .fixtures import config_value, curve_from_config, model_from_config
from .lattice import (INT64_N_MAX, CircleBlock, LatticeCircle,
                      arclog_bound_audit, cc_product_check, enumerate_circle,
                      jarnik_audit, max_arc_count, representable_up_to)
from .medians import build_median_set, dyadic_decompose
from .nodal import theorem_harness
from .oscillatory import bilinear_form_bound, schur_family, schur_norms
from .wavefield import ArcLocalized, SinglePair, make_eigenfunction, restrict

SCHEMA_VERSION = "1"

ENV_OUTDIR = "TORAL_NODAL_OUTDIR"

SCHEMAS: dict[tuple[str, str], dict[str, type]] = {
    ("lattice", "lattice"): {
        "kind": str, "n": int, "lambda": float, "npoints": int, "arc_max": int,
        "witness_center": float, "jarnik_max": int, "jarnik_ok": bool,
        "arclog_m": int, "arclog_bound": float, "arclog_ok": bool,
        "cc_ok": bool, "arcmax_over_log": float,
    },
    ("schur", "schur-block"): {
        "kind": str, "n": int, "epsilon": float, "K": int, "L": int,
        "rows": int, "cols": int, "nnz": int, "norm_1to1": float,
        "norm_adj_1to1": float, "bound_2to2": float, "ratio_col": float,
        "ratio_row": float,
    },
    ("schur", "schur-bilinear"): {
        "kind": str, "n": int, "epsilon": float, "seed": int,
        "lhs_starred": float, "lhs_starred_blocked": float,
        "lhs_small_gap": float, "rhs": float, "ratio_starred": float,
        "ratio_small_gap": float, "block_flat_gap": float,
        "truncation_term": float,
    },
    ("sweep", "nodal"): {
        "kind": str, "n": int, "lambda": float, "npoints": int, "arc_max": int,
        "zeros": int, "stable": bool, "l1": float, "l2": float, "l4": float,
        "lsup": float, "ratio_zeros_arcmax": float, "ratio_zeros_l1mass": float,
        "ratio_l4_arcmax": float, "zeros_over_freq": float, "seed": int,
    },
    ("exceptions", "rational-geodesic"): {
        "kind": str, "p": int, "q": int, "c": float, "n": int,
        "eigenvalue": int, "max_on_geodesic": float,
    },
    ("exceptions", "convergent"): {
        "kind": str, "beta": float, "k": int, "p": int, "q": int,
        "error": float, "inv_q_sq": float,
    },
    ("exceptions", "witness"): {
        "kind": str, "beta": float, "k": int, "p": int, "q": int,
        "eigenvalue": int, "min_on_segment": float, "zeros": int,
    },
    ("exceptions", "sphere"): {
        "kind": str, "theta0": float, "branch": str, "exceptional_degree": int,
        "min_prime_value": float, "primes_checked": int,
    },
}


def validate_row(command: str, row: dict) -> None:
    """Strict schema check: exact field set, type-compatible values."""
    kind = row.get("kind")
    schema = SCHEMAS.get((command, kind))
    if schema is None:
        raise ConfigError(f"no schema for command {command!r} row kind {kind!r}")
    unknown = set(row) - set(schema)
    if unknown:
        raise ConfigError(f"unknown fields {sorted(unknown)} in {kind!r} row")
    missing = set(schema) - set(row)
    if missing:
        raise ConfigError(f"missing fields {sorted(missing)} in {kind!r} row")
    for name, typ in schema.items():
        val = row[name]
        if val is None:
            continue
        if typ is float and isinstance(val, (int, float)) and not isinstance(val, bool):
            continue
        if typ is int and isinstance(val, bool):
            raise ConfigError(f"field {name} must be {typ.__name__}")
        if not isinstance(val, typ):
            raise ConfigError(f"field {name} must be {typ.__name__}, "
                              f"got {type(val).__name__}")


def derive_seed(master: int, index: int) -> int:
    digest = hashlib.sha256(f"{master}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class ExperimentConfig:
    command: str
    n_values: list[int] | range
    curve: dict = field(default_factory=lambda: {"fixture": "circular"})
    model: dict = field(default_factory=lambda: {"kind": "uniform-random"})
    master_seed: int = 0
    seed_count: int = 1
    epsilon: float = 0.1
    cc_max_subset: int = 4
    beta: float = math.sqrt(2.0)
    v0: tuple[float, float] = (0.3, 0.4)
    k_max: int = 8
    theta0: list[float] = field(default_factory=lambda: [math.pi / 2])
    prime_cap: int = 101
    rational: list = field(default_factory=lambda: [[1, 0, 0.0, 1], [3, 4, 0.0, 2]])
    out: str | None = None
    csv_mirror: bool = True
    svg: bool = False
    jobs: int = 1


def parse_n_spec(spec) -> list[int] | range:
    """n values from a list, an 'a..b' half-open range string, or a dict
    {"range": [a, b]}; the two range forms stay ranges.  Every n must be a
    positive integer."""
    try:
        if isinstance(spec, dict) and "range" in spec:
            lo, hi = spec["range"]
            values = range(int(lo), int(hi))
        elif isinstance(spec, str) and ".." in spec:
            lo, hi = spec.split("..", 1)
            values = range(int(lo), int(hi))
        elif isinstance(spec, str):
            values = [int(v) for v in spec.split(",") if v]
        elif isinstance(spec, list):
            values = [int(v) for v in spec]
        elif isinstance(spec, int):
            values = [spec]
        else:
            raise ConfigError(f"cannot parse n specification {spec!r}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse n specification {spec!r}") from exc
    low = values.start if isinstance(values, range) else min(values, default=1)
    if values and low < 1:
        raise ConfigError(f"n must be a positive integer, got {low}")
    return values


def _rational_entry(entry) -> list:
    """A [p, q, c, n] vanishing-family entry: a primitive direction (p, q),
    a real shift c and a positive integer n."""
    if not (isinstance(entry, list) and len(entry) == 4):
        raise ConfigError(f"rational entries must be [p, q, c, n], got {entry!r}")
    p, q, c, n = entry
    config_value("rational p", p, int)
    config_value("rational q", q, int)
    config_value("rational c", c, float)
    config_value("rational n", n, int, lambda x: x >= 1, "a positive integer")
    if math.gcd(p, q) != 1:
        raise ConfigError(f"rational direction ({p}, {q}) must have gcd(p, q) = 1")
    return entry


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    raw: dict = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    known = {
        "command", "n", "curve", "model", "seeds", "epsilon",
        "cc_max_subset", "beta", "v0", "k_max", "theta0", "prime_cap",
        "rational", "out", "csv", "svg", "jobs",
    }
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    config_value("command", raw.get("command", ""), str)

    cfg = ExperimentConfig(command=args.command, n_values=[])
    if "n" in raw:
        cfg.n_values = parse_n_spec(raw["n"])
    if args.n is not None:
        cfg.n_values = parse_n_spec(args.n)
    cfg.curve = config_value("curve", raw.get("curve", cfg.curve), dict, None, "an object")
    cfg.model = config_value("model", raw.get("model", cfg.model), dict, None, "an object")
    seeds = config_value("seeds", raw.get("seeds", {}), dict,
                         lambda s: set(s) <= {"master", "count"}, "an object of master, count")
    cfg.master_seed = config_value(
        "seeds.master", seeds.get("master", 0) if args.seed is None else args.seed, int)
    cfg.seed_count = config_value(
        "seeds.count", seeds.get("count", 1) if args.seeds is None else args.seeds, int,
        lambda x: x >= 1, "a positive integer")
    for name, kind, ok, what in (
            ("epsilon", float, lambda x: 0.0 < x < 0.5, "a number in (0, 1/2)"),
            ("cc_max_subset", int, lambda x: x >= 2, "an integer >= 2"),
            ("beta", float, None, ""),
            ("k_max", int, lambda x: x >= 1, "a positive integer"),
            ("prime_cap", int, lambda x: 2 <= x <= 10_000, "an integer in [2, 10^4]")):
        if name in raw:
            setattr(cfg, name, config_value(name, raw[name], kind, ok, what))
    if "v0" in raw:
        v0 = config_value("v0", raw["v0"], list, lambda v: len(v) == 2, "a point [x, y]")
        cfg.v0 = tuple(config_value("v0", v, float) for v in v0)
    if "theta0" in raw:
        t = raw["theta0"]
        cfg.theta0 = [float(config_value("theta0", v, float,
                                         lambda x: 0.0 < x <= 0.5 * math.pi, "in (0, pi/2]"))
                      for v in (t if isinstance(t, list) else [t])]
    if "rational" in raw:
        cfg.rational = [_rational_entry(e)
                        for e in config_value("rational", raw["rational"], list)]
    cfg.out = raw.get("out")
    if cfg.out is not None:
        config_value("out", cfg.out, str)
    if args.out is not None:
        cfg.out = args.out
    cfg.csv_mirror = config_value("csv", raw.get("csv", True) if args.csv is None else args.csv,
                                  bool)
    cfg.svg = config_value("svg", raw.get("svg", False) if args.svg is None else args.svg, bool)
    cfg.jobs = config_value("jobs", raw.get("jobs", 1) if args.jobs is None else args.jobs,
                            int, lambda x: x >= 1, "a positive integer")
    if not cfg.n_values and cfg.command in ("lattice", "schur", "sweep"):
        raise ConfigError("no n values configured (use --n or the config file)")
    return cfg


def _config_digest(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.__dict__, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- row builders -----------------------------------------------------------------

LATTICE_CHUNK = 512  # circles per audit call


def lattice_rows(cfg: ExperimentConfig) -> list[dict]:
    wanted = cfg.n_values if isinstance(cfg.n_values, range) else set(cfg.n_values)
    top = max(wanted)
    if top > INT64_N_MAX:
        raise ConfigError(f"lattice audits are exact in int64 only for n <= {INT64_N_MAX}")
    rows: list[dict] = []
    chunk: list[LatticeCircle] = []
    for circle in representable_up_to(top):
        if circle.n in wanted:
            chunk.append(circle)
        if len(chunk) == LATTICE_CHUNK:
            rows += _lattice_chunk_rows(cfg, chunk)
            chunk = []
    if chunk:
        rows += _lattice_chunk_rows(cfg, chunk)
    return rows


def _lattice_chunk_rows(cfg: ExperimentConfig, chunk: list[LatticeCircle]) -> list[dict]:
    """Rows for a run of circles in increasing n, one audit call per kernel."""
    block = CircleBlock.of(chunk)
    b, centers = max_arc_count(block)
    jmax, _ = jarnik_audit(block)
    # the arclog audit needs lambda >= 2, which only n = 1, 2 (first) lack
    small = sum(c.n < 4 for c in chunk)
    arclog = [(None, None, None)] * small
    if small < len(chunk):
        m, bound, ok = arclog_bound_audit(CircleBlock.of(chunk[small:]) if small else block)
        arclog += zip(m.tolist(), bound.tolist(), ok.tolist())
    sizes = np.minimum(cfg.cc_max_subset, block.count)
    for size in np.unique(sizes[sizes >= 2]).tolist():
        cc_product_check(*block.windows(size, sizes == size))
    rows = []
    for circle, bi, center, ji, (m, bound, ok) in zip(
            chunk, b.tolist(), centers.tolist(), jmax.tolist(), arclog):
        rows.append({
            "kind": "lattice",
            "n": circle.n,
            "lambda": circle.radius,
            "npoints": circle.count,
            "arc_max": bi,
            "witness_center": center,
            "jarnik_max": ji,
            "jarnik_ok": ji <= 2,
            "arclog_m": m,
            "arclog_bound": bound,
            "arclog_ok": ok,
            "cc_ok": True,
            "arcmax_over_log": bi / max(math.log(circle.radius), 1.0),
        })
    return rows


def _one_nodal_row(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    circle = enumerate_circle(n)
    if circle.count == 0:
        raise ConfigError(f"n={n} is not a sum of two squares")
    curve = curve_from_config(cfg.curve)
    model = model_from_config(cfg.model, seed)
    if isinstance(model, SinglePair) and model.mu not in circle.points:
        raise ConfigError(f"single-pair mu {list(model.mu)} is not on the circle n={n}")
    if isinstance(model, ArcLocalized) and not model.side_points(circle):
        raise ConfigError(f"the arc-localized model's arc holds no point of n={n}")
    rw = restrict(make_eigenfunction(circle, model), curve)
    row = theorem_harness(rw, seed=seed).as_row()
    row["kind"] = "nodal"
    return row


def nodal_tasks(cfg: ExperimentConfig) -> list[tuple[int, int]]:
    tasks = []
    idx = 0
    for n in cfg.n_values:
        for _ in range(cfg.seed_count):
            tasks.append((n, derive_seed(cfg.master_seed, idx)))
            idx += 1
    return tasks


def _witness_rows(cfg: ExperimentConfig) -> list[dict]:
    rows = []
    for k in range(1, cfg.k_max + 1):
        w = irrational_geodesic_witness(cfg.beta, cfg.v0, k)
        rows.append({
            "kind": "witness", "beta": cfg.beta, "k": k, "p": w.p, "q": w.q,
            "eigenvalue": w.eigenvalue, "min_on_segment": w.min_on_segment,
            "zeros": w.sign_changes,
        })
    return rows


def schur_rows(cfg: ExperimentConfig) -> list[dict]:
    rows = []
    for idx, n in enumerate(cfg.n_values):
        circle = enumerate_circle(n)
        if circle.count == 0:
            raise ConfigError(f"n={n} is not a sum of two squares")
        decomp = dyadic_decompose(build_median_set(circle), cfg.epsilon)
        fam = schur_family(decomp)
        for (K, L), rep in sorted(schur_norms(fam).items()):
            blk = fam.blocks[(K, L)]
            rows.append({
                "kind": "schur-block", "n": n, "epsilon": cfg.epsilon,
                "K": K, "L": L, "rows": len(blk.ws), "cols": len(blk.zs),
                "nnz": rep.nnz, "norm_1to1": rep.norm_1to1,
                "norm_adj_1to1": rep.norm_adj_1to1, "bound_2to2": rep.bound_2to2,
                "ratio_col": rep.ratio_col, "ratio_row": rep.ratio_row,
            })
        seed = derive_seed(cfg.master_seed, idx)
        rng = np.random.default_rng(seed)
        keys = [m.z2 for m in decomp.starred()] + [m.z2 for m in decomp.small_gap]
        bz = {z2: complex(rng.standard_normal(), rng.standard_normal())
              for z2 in keys}
        rep = bilinear_form_bound(bz, decomp, fam)
        rows.append({
            "kind": "schur-bilinear", "n": n, "epsilon": cfg.epsilon, "seed": seed,
            "lhs_starred": rep.lhs_starred,
            "lhs_starred_blocked": rep.lhs_starred_blocked,
            "lhs_small_gap": rep.lhs_small_gap, "rhs": rep.rhs,
            "ratio_starred": rep.ratio_starred,
            "ratio_small_gap": rep.ratio_small_gap,
            "block_flat_gap": abs(rep.lhs_starred - rep.lhs_starred_blocked),
            "truncation_term": rep.truncation_term,
        })
    return rows


def sweep_rows(cfg: ExperimentConfig) -> tuple[list[dict], dict]:
    tasks = nodal_tasks(cfg)
    rows = _parallel_map(
        lambda task: _one_nodal_row(cfg, task[0], task[1]), tasks, cfg.jobs)
    summary = {"runs": len(rows), "schema_version": SCHEMA_VERSION}
    for name in ("ratio_zeros_arcmax", "ratio_zeros_l1mass", "ratio_l4_arcmax",
                 "zeros_over_freq"):
        vals = sorted(r[name] for r in rows)
        if vals:
            summary[name] = {
                "min": vals[0],
                "p25": vals[len(vals) // 4],
                "p50": vals[len(vals) // 2],
                "p75": vals[(3 * len(vals)) // 4],
                "max": vals[-1],
            }
    return rows, summary


def exceptions_rows(cfg: ExperimentConfig) -> list[dict]:
    rows = []
    for p, q, c, n in cfg.rational:
        wave, worst = rational_geodesic_eigenfunction(int(p), int(q), float(c), int(n))
        rows.append({
            "kind": "rational-geodesic", "p": int(p), "q": int(q), "c": float(c),
            "n": int(n), "eigenvalue": wave.eigenvalue, "max_on_geodesic": worst,
        })
    convergents = continued_fraction_approximants(cfg.beta, cfg.k_max)
    if len(convergents) < cfg.k_max:
        raise ConfigError(f"beta {cfg.beta!r} has only {len(convergents)} convergents "
                          "before its expansion ends or 1/q^2 reaches float precision "
                          f"ulp(beta); k_max {cfg.k_max} is too large")
    for k, approx in enumerate(convergents, start=1):
        rows.append({
            "kind": "convergent", "beta": cfg.beta, "k": k, "p": approx.p,
            "q": approx.q, "error": approx.error, "inv_q_sq": 1.0 / approx.q**2,
        })
    rows += _witness_rows(cfg)
    for theta in cfg.theta0:
        rep = parallel_exception_search(theta, prime_cap=cfg.prime_cap)
        rows.append({
            "kind": "sphere", "theta0": theta, "branch": rep.kind,
            "exceptional_degree": rep.exceptional_degree,
            "min_prime_value": rep.min_prime_value,
            "primes_checked": rep.primes_checked,
        })
    return rows


def _parallel_map(fn, tasks, jobs: int) -> list:
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


# -- persistence ------------------------------------------------------------------

def _resolve_out(cfg: ExperimentConfig) -> Path:
    if cfg.out:
        return Path(cfg.out)
    outdir = Path(os.environ.get(ENV_OUTDIR, "out"))
    return outdir / f"{cfg.command}.jsonl"


def _jsonable(row: dict) -> None:
    """Replace numpy scalars in a row by Python values, in place."""
    for k, v in row.items():
        if isinstance(v, (np.integer, np.floating, np.bool_)):
            row[k] = v.item()


def write_rows(cfg: ExperimentConfig, rows: list[dict],
               summary: dict | None = None) -> Path:
    for row in rows:
        _jsonable(row)
        validate_row(cfg.command, row)
    out = _resolve_out(cfg)
    out.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "schema_version": SCHEMA_VERSION,
        "tool": f"toral-nodal {__version__}",
        "command": cfg.command,
        "config_digest": _config_digest(cfg),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    with out.open("w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    if cfg.csv_mirror:
        _write_csv(out.with_suffix(".csv"), rows)
    if summary is not None:
        out.with_suffix(".summary.json").write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n")
    if cfg.svg and rows:
        _write_svg(out.with_suffix(".svg"), rows)
    return out


def _write_csv(path: Path, rows: list[dict]) -> None:
    fields = sorted({k for row in rows for k in row})
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _write_svg(path: Path, rows: list[dict]) -> None:
    """Scatter of the theorem ratios against lambda, self-contained SVG."""
    series = [("ratio_zeros_arcmax", "#1f77b4"), ("ratio_zeros_l1mass", "#d62728"),
              ("ratio_l4_arcmax", "#2ca02c")]
    pts = [(r["lambda"], name, r[name]) for r in rows
           for name, _ in series if name in r and r.get("kind") == "nodal"]
    if not pts:
        path.write_text("<svg xmlns='http://www.w3.org/2000/svg'/>\n")
        return
    xs = [p[0] for p in pts]
    ys = [max(p[2], 1e-12) for p in pts]
    x0, x1 = min(xs), max(xs) or 1.0
    ly = [math.log10(y) for y in ys]
    y0, y1 = min(ly), max(ly)
    if y1 - y0 < 1e-9:
        y0, y1 = y0 - 1.0, y1 + 1.0
    if x1 - x0 < 1e-9:
        x0, x1 = x0 - 1.0, x1 + 1.0
    w, h, pad = 640, 400, 50

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (w - 2 * pad)

    def sy(y):
        return h - pad - (math.log10(max(y, 1e-12)) - y0) / (y1 - y0) * (h - 2 * pad)

    parts = [f"<svg xmlns='http://www.w3.org/2000/svg' width='{w}' height='{h}'>",
             f"<rect width='{w}' height='{h}' fill='white'/>",
             f"<line x1='{pad}' y1='{h-pad}' x2='{w-pad}' y2='{h-pad}' stroke='black'/>",
             f"<line x1='{pad}' y1='{pad}' x2='{pad}' y2='{h-pad}' stroke='black'/>",
             f"<text x='{w//2}' y='{h-10}' font-size='12'>lambda</text>",
             f"<text x='10' y='{pad-10}' font-size='12'>ratio (log10)</text>"]
    for i, (name, color) in enumerate(series):
        parts.append(f"<text x='{pad + 180*i}' y='20' font-size='11' "
                     f"fill='{color}'>{name}</text>")
    for r in rows:
        if r.get("kind") != "nodal":
            continue
        for name, color in series:
            parts.append(
                f"<circle cx='{sx(r['lambda']):.2f}' cy='{sy(r[name]):.2f}' "
                f"r='3' fill='{color}' fill-opacity='0.6'/>")
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# -- entry point ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors are config errors (exit 3); --help still exits 0."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toral-nodal",
        description="Audits and experiments for nodal intersections of toral "
                    "eigenfunctions with curved arcs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("lattice", "circle enumeration and short-arc audits"),
        ("schur", "median shells, block norms, bilinear bound"),
        ("sweep", "cross product of n and seeds, with summary"),
        ("exceptions", "geodesic and sphere counterexample demos"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--n", help="n list '1105,4225' or half-open range '1..100'")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--seeds", type=int, help="seeds per n")
        p.add_argument("--out", help="output JSONL path")
        p.add_argument("--jobs", type=int, help="parallel workers")
        p.add_argument("--csv", action=argparse.BooleanOptionalAction,
                       help="write CSV mirror")
        p.add_argument("--svg", action=argparse.BooleanOptionalAction,
                       help="write SVG scatter")
    return parser


def run(cfg: ExperimentConfig) -> Path:
    if cfg.command == "lattice":
        rows, summary = lattice_rows(cfg), None
    elif cfg.command == "schur":
        rows, summary = schur_rows(cfg), None
    elif cfg.command == "sweep":
        rows, summary = sweep_rows(cfg)
    elif cfg.command == "exceptions":
        rows, summary = exceptions_rows(cfg), None
    else:
        raise ConfigError(f"unknown command {cfg.command!r}")
    return write_rows(cfg, rows, summary)


def main(argv: list[str] | None = None) -> int:
    try:
        out = run(load_config(build_parser().parse_args(argv)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except QuadratureError as exc:
        print(f"numerical refinement hit its node cap: {exc}", file=sys.stderr)
        return 5
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
