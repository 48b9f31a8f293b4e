"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of ``toral_nodal`` where their caller
looks them up (a module global or a class attribute), so the program under
``src/`` is not modified.  Each call of a wrapped function records one span
``(span_id, parent_id, op, name, start_ns, end_ns)``; spans are kept in
memory and written out by :meth:`Tracer.write` when the run ends.  Counts
are taken at the same boundaries, from arguments and results.

A layer is the module a span's name starts with.  Its self time is the
time of its spans minus the time their child spans cover, so the self
times of all layers add up to the time spent inside traced calls.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "fixtures", "lattice", "medians", "oscillatory", "curve",
          "wavefield", "nodal")

# Per-layer metrics: name -> (unit, better, what it should move).  Times are
# self times summed over one traced pass of the workload's fixed batch;
# counts are totals over the same pass and repeat exactly for one seed.
METRICS = {
    "curve.build_s": ("s", "lower", "setup_s on every workload that builds curves"),
    "curve.inversion_s": ("s", "lower", "ops_per_s on nodal-curved; no change on nodal-circle"),
    "curve.inversion_points": ("count", "lower", "ops_per_s on nodal-curved"),
    "curve.grid_s": ("s", "lower", "ops_per_s on nodal-curved"),
    "curve.grid_hit_ratio": ("ratio", "higher", "ops_per_s on nodal-curved"),
    "wavefield.build_s": ("s", "lower", "ops_per_s on nodal-circle and nodal-curved"),
    "wavefield.evaluate_s": ("s", "lower", "ops_per_s on nodal-circle, and on nodal-curved through the call count"),
    "wavefield.evaluate_calls": ("count", "lower", "ops_per_s on nodal-curved"),
    "wavefield.evaluate_points": ("count", "lower", "ops_per_s on nodal-circle"),
    "wavefield.evaluate_terms": ("count", "lower", "ops_per_s on nodal-circle"),
    "wavefield.evaluate_bytes_computed": ("B", "lower", "peak_rss_mb on nodal-circle"),
    "wavefield.grid_hit_ratio": ("ratio", "higher", "ops_per_s on nodal-circle"),
    "oscillatory.norms_s": ("s", "lower", "ops_per_s on nodal-circle"),
    "oscillatory.norm_calls": ("count", "lower", "ops_per_s on nodal-circle"),
    "oscillatory.norm_levels": ("count", "lower", "ops_per_s on nodal-circle"),
    "oscillatory.norm_nodes": ("count", "lower", "ops_per_s and peak_rss_mb on nodal-circle"),
    "oscillatory.schur_family_s": ("s", "lower", "ops_per_s on schur"),
    "oscillatory.schur_cells": ("count", "lower", "ops_per_s and peak_rss_mb on schur"),
    "oscillatory.schur_nnz": ("count", "lower", "ops_per_s on schur"),
    "oscillatory.schur_density": ("ratio", "higher", "ops_per_s and peak_rss_mb on schur"),
    "oscillatory.schur_norms_s": ("s", "lower", "ops_per_s on schur"),
    "oscillatory.bilinear_s": ("s", "lower", "ops_per_s on schur"),
    "oscillatory.bilinear_cells": ("count", "lower", "ops_per_s and peak_rss_mb on schur"),
    "medians.build_s": ("s", "lower", "ops_per_s on schur"),
    "medians.medians": ("count", "lower", "ops_per_s on schur"),
    "medians.decompose_s": ("s", "lower", "ops_per_s on schur"),
    "medians.starred": ("count", "lower", "ops_per_s on schur"),
    "nodal.harness_s": ("s", "lower", "ops_per_s on nodal-circle and nodal-curved"),
    "nodal.sign_changes_s": ("s", "lower", "ops_per_s on nodal-circle and nodal-curved"),
    "nodal.grid_levels": ("count", "lower", "ops_per_s on nodal-circle and nodal-curved"),
    "nodal.bisection_rounds": ("count", "lower", "ops_per_s on nodal-curved"),
    "nodal.bisection_points": ("count", "lower", "ops_per_s on nodal-curved, through curve.inversion_points"),
    "nodal.brackets": ("count", "higher", "nothing: rows must keep their zero counts"),
    "nodal.stable_ratio": ("ratio", "higher", "nothing: rows must keep their stable flags"),
    "lattice.sieve_s": ("s", "lower", "ops_per_s on lattice"),
    "lattice.circles": ("count", "higher", "nothing: the sieve must keep every circle"),
    "lattice.audit_s": ("s", "lower", "ops_per_s on lattice"),
    "lattice.cc_s": ("s", "lower", "ops_per_s on lattice"),
    "lattice.cc_checks": ("count", "lower", "ops_per_s on lattice"),
    "lattice.enumerate_s": ("s", "lower", "ops_per_s on schur, nodal-circle and nodal-curved"),
    "cli.config_s": ("s", "lower", "ops_per_s on lattice; no change elsewhere"),
    "cli.write_s": ("s", "lower", "ops_per_s on lattice; no change elsewhere"),
    "cli.rows_written": ("count", "higher", "nothing: rows are the output"),
    "cli.bytes_written": ("B", "lower", "ops_per_s on lattice"),
    **{f"{layer}.self_s": ("s", "lower", f"ops_per_s on every workload that runs the {layer} layer")
       for layer in LAYERS},
    "trace.wall_s": ("s", "lower", "ops_per_s on the traced workload"),
    "trace.remainder_s": ("s", "lower", "nothing: time outside every layer span"),
    "trace.overhead": ("ratio", "lower", "nothing: traced over untraced wall time, minus one"),
    "trace.ops": ("count", "higher", "nothing: operations in one traced pass"),
}

# Which spans each time metric sums (self time).
TIME_SPANS = {
    "curve.build_s": ("curve.make_arclength",),
    "curve.inversion_s": ("curve.u_of_t",),
    "curve.grid_s": ("curve.grid",),
    "wavefield.build_s": ("wavefield.make_eigenfunction", "wavefield.restrict"),
    "wavefield.evaluate_s": ("wavefield.evaluate",),
    "oscillatory.norms_s": ("oscillatory.restriction_norms",),
    "oscillatory.schur_family_s": ("oscillatory.schur_family",),
    "oscillatory.schur_norms_s": ("oscillatory.schur_norms",),
    "oscillatory.bilinear_s": ("oscillatory.bilinear_form_bound",),
    "medians.build_s": ("medians.build_median_set",),
    "medians.decompose_s": ("medians.dyadic_decompose",),
    "nodal.harness_s": ("nodal.theorem_harness",),
    "nodal.sign_changes_s": ("nodal.count_sign_changes", "nodal.certified_sign_changes"),
    "lattice.sieve_s": ("lattice.representable_up_to",),
    "lattice.audit_s": ("lattice.max_arc_count", "lattice.jarnik_audit",
                        "lattice.arclog_bound_audit", "lattice.chord_arc_max"),
    "lattice.cc_s": ("lattice.cc_product_check",),
    "lattice.enumerate_s": ("lattice.enumerate_circle",),
    "cli.config_s": ("cli.load_config",),
    "cli.write_s": ("cli.write_rows",),
}

# Spans whose start begins a new operation: one n (lattice, schur) or one
# (n, seed) row (nodal).  Spans before the first one belong to op -1.
_OP_STARTS = ("lattice.enumerate_circle", "lattice.representable_up_to")

# Bytes of the (points x #E) float64 phase matrix and complex128
# exponential matrix that one evaluation materializes: computed from array
# sizes, not measured.
_EVAL_BYTES_PER_TERM = 8 + 16


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    n = 1
    for dim in shape[:-1]:
        n *= dim
    return n


class _SeenGrids:
    """Grid sizes already requested per live object: a repeat request is
    served by the object's append-only grid cache."""

    def __init__(self):
        self._seen: dict[int, tuple[weakref.ref, set]] = {}

    def request(self, obj, n) -> bool:
        key = id(obj)
        entry = self._seen.get(key)
        if entry is None or entry[0]() is not obj:
            entry = (weakref.ref(obj), set())
            self._seen[key] = entry
        hit = n in entry[1]
        entry[1].add(n)
        return hit

    def clear(self):
        self._seen.clear()


class Tracer:
    """Wraps the program's public functions between :meth:`install` and
    :meth:`uninstall`, recording spans and counts."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []
        self._curve_grids = _SeenGrids()
        self._wave_grids = _SeenGrids()

    # -- recording ------------------------------------------------------------

    def reset(self):
        """Forget recorded spans and counts, as at the start of a command."""
        self.spans, self.counts = [], Counter()
        self._op = -1
        self._curve_grids.clear()
        self._wave_grids.clear()

    def _wrap(self, name, fn, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            if name in _OP_STARTS:
                tracer._op += 1
            op = tracer._op
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else (None, None)
            if hook is not None:
                args, kwargs, after = hook(parent[1], args, kwargs)
            tracer._stack.append((sid, name))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append((sid, parent[0], op, name, start, end))
            if hook is not None and after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_generator(self, name, fn):
        """Each step of the generator is one span (lattice sieve)."""
        tracer = self
        step = self._wrap(name, next)

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = step(gen)
                except StopIteration:
                    return
                tracer.counts["lattice.circles"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- counting hooks: (parent_name, args, kwargs) -> (args, kwargs, after) --

    def _count(self, key, amount=1):
        self.counts[key] += amount

    def _hook_evaluate(self, parent, args, kwargs):
        F, x = args[0], args[1]
        pts = _size(x)
        terms = pts * len(F.coeffs)
        self._count("wavefield.evaluate_calls")
        self._count("wavefield.evaluate_points", pts)
        self._count("wavefield.evaluate_terms", terms)
        self._count("wavefield.evaluate_bytes_computed", terms * _EVAL_BYTES_PER_TERM)
        return args, kwargs, None

    def _hook_u_of_t(self, parent, args, kwargs):
        self._count("curve.inversion_points", max(1, int(getattr(args[1], "size", 1))))
        return args, kwargs, None

    def _hook_curve_grid(self, parent, args, kwargs):
        self._count("curve.grid_calls")
        if self._curve_grids.request(args[0], args[1]):
            self._count("curve.grid_hits")
        return args, kwargs, None

    def _hook_wave_grid(self, parent, args, kwargs):
        self._count("wavefield.grid_calls")
        if self._wave_grids.request(args[0], args[1]):
            self._count("wavefield.grid_hits")
        if parent == "oscillatory.restriction_norms":
            self._count("oscillatory.norm_levels")
        return args, kwargs, None

    def _hook_norms(self, parent, args, kwargs):
        self._count("oscillatory.norm_calls")
        return args, kwargs, lambda rep: self._count("oscillatory.norm_nodes", rep.nodes)

    def _hook_sign_changes(self, parent, args, kwargs):
        """Count the evaluations of fn: with grid_fn given, those are the
        bisection rounds after the grid stage."""
        fn = args[0] if args else kwargs["fn"]

        def counted(t):
            self._count("nodal.bisection_rounds")
            self._count("nodal.bisection_points", max(1, int(getattr(t, "size", 1))))
            return fn(t)

        if args:
            args = (counted,) + tuple(args[1:])
        else:
            kwargs = dict(kwargs, fn=counted)

        def after(rep):
            self._count("nodal.reports")
            self._count("nodal.grid_levels", rep.grid_levels)
            self._count("nodal.brackets", rep.count)
            self._count("nodal.stable", int(bool(rep.stable)))

        return args, kwargs, after

    def _hook_schur_family(self, parent, args, kwargs):
        def after(fam):
            for blk in fam.blocks.values():
                self._count("oscillatory.schur_cells", len(blk.ws) * len(blk.zs))
                self._count("oscillatory.schur_nnz", blk.nnz)
        return args, kwargs, after

    def _hook_bilinear(self, parent, args, kwargs):
        decomp = args[1]
        fam = args[2] if len(args) > 2 else kwargs.get("fam")
        cells = len(decomp.starred()) ** 2 + len(decomp.small_gap) ** 2
        if fam is not None:
            cells += sum(len(b.ws) * len(b.zs) for b in fam.blocks.values())
        self._count("oscillatory.bilinear_cells", cells)
        return args, kwargs, None

    def _hook_medians(self, parent, args, kwargs):
        return args, kwargs, lambda mset: self._count("medians.medians", len(mset.medians))

    def _hook_decompose(self, parent, args, kwargs):
        return args, kwargs, lambda d: self._count("medians.starred", len(d.starred()))

    def _hook_cc(self, parent, args, kwargs):
        self._count("lattice.cc_checks")
        return args, kwargs, None

    def _hook_write(self, parent, args, kwargs):
        self._count("cli.rows_written", len(args[1]))

        def after(out):
            out = Path(out)
            for path in (out, out.with_suffix(".csv"), out.with_suffix(".summary.json"),
                         out.with_suffix(".svg")):
                if path.exists():
                    self._count("cli.bytes_written", path.stat().st_size)
        return args, kwargs, after

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, name, hook=None):
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(name, orig, hook))

    def install(self):
        from toral_nodal import cli, curve, fixtures, nodal, oscillatory, wavefield

        p = self._patch
        # cli: the row builders and persistence, looked up by cli.run / cli.main
        p(cli, "load_config", "cli.load_config")
        p(cli, "write_rows", "cli.write_rows", self._hook_write)
        for attr in ("lattice_rows", "schur_rows", "sweep_rows"):
            p(cli, attr, f"cli.{attr}")
        # fixtures, as the CLI looks them up
        p(cli, "curve_from_config", "fixtures.curve_from_config")
        p(cli, "model_from_config", "fixtures.model_from_config")
        p(fixtures, "make_arclength", "curve.make_arclength")
        # lattice
        p(cli, "enumerate_circle", "lattice.enumerate_circle")
        orig = cli.representable_up_to
        self._patches.append((cli, "representable_up_to", orig))
        cli.representable_up_to = self._wrap_generator("lattice.representable_up_to", orig)
        for attr in ("max_arc_count", "jarnik_audit", "arclog_bound_audit"):
            p(cli, attr, f"lattice.{attr}")
        p(cli, "cc_product_check", "lattice.cc_product_check", self._hook_cc)
        p(oscillatory, "chord_arc_max", "lattice.chord_arc_max")
        # medians and Schur
        p(cli, "build_median_set", "medians.build_median_set", self._hook_medians)
        p(cli, "dyadic_decompose", "medians.dyadic_decompose", self._hook_decompose)
        p(cli, "schur_family", "oscillatory.schur_family", self._hook_schur_family)
        p(cli, "schur_norms", "oscillatory.schur_norms")
        p(cli, "bilinear_form_bound", "oscillatory.bilinear_form_bound", self._hook_bilinear)
        # restriction stack
        p(cli, "make_eigenfunction", "wavefield.make_eigenfunction")
        p(cli, "restrict", "wavefield.restrict")
        p(cli, "theorem_harness", "nodal.theorem_harness")
        p(nodal, "count_sign_changes", "nodal.count_sign_changes")
        p(nodal, "certified_sign_changes", "nodal.certified_sign_changes",
          self._hook_sign_changes)
        p(nodal, "restriction_norms", "oscillatory.restriction_norms", self._hook_norms)
        p(wavefield, "evaluate", "wavefield.evaluate", self._hook_evaluate)
        p(wavefield.RestrictedWave, "grid_values", "wavefield.grid_values", self._hook_wave_grid)
        p(curve.ArcLengthCurve, "u_of_t", "curve.u_of_t", self._hook_u_of_t)
        p(curve.ArcLengthCurve, "grid", "curve.grid", self._hook_curve_grid)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- aggregation ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time in seconds per span name."""
        child = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            out[name] += (end - start - child[sid]) * 1e-9
        return dict(out)

    def write(self, path: Path):
        """One JSON array per line: [span_id, parent_id, op, name, start_ns, end_ns]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(self_s: dict[str, float], counts: Counter, wall_s: float,
                  untraced_s: float, ops: int) -> dict[str, float]:
    """Every per-layer metric for one traced pass, 0 where its layer did not run."""
    out: dict[str, float] = {}
    for metric, names in TIME_SPANS.items():
        out[metric] = sum(self_s.get(name, 0.0) for name in names)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    for metric, (unit, _, _) in METRICS.items():
        if unit in ("count", "B") and metric != "trace.ops":
            out[metric] = counts.get(metric, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out["curve.grid_hit_ratio"] = ratio(counts["curve.grid_hits"], counts["curve.grid_calls"])
    out["wavefield.grid_hit_ratio"] = ratio(counts["wavefield.grid_hits"],
                                            counts["wavefield.grid_calls"])
    out["oscillatory.schur_density"] = ratio(counts["oscillatory.schur_nnz"],
                                             counts["oscillatory.schur_cells"])
    out["nodal.stable_ratio"] = ratio(counts["nodal.stable"], counts["nodal.reports"])
    out["trace.wall_s"] = wall_s
    out["trace.remainder_s"] = wall_s - sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.overhead"] = ratio(wall_s, untraced_s) - 1.0
    out["trace.ops"] = ops
    return out
