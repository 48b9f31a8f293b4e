"""Tests of the benchmark itself: replay, traced-versus-untraced rows,
per-layer coverage, the output checks, and the metric declarations.

Run from the root of a checkout with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

assert run.use_checkout_source()

from workloads import (WORKLOADS, check_lattice, check_nodal,  # noqa: E402
                       check_schur, representable)

ROOT = Path(__file__).resolve().parent.parent

# Per-layer metrics that must be nonzero on each workload, because the
# layer they measure runs there.
_NODAL = {
    *(f"curve.{m}" for m in ("build_s", "inversion_s", "inversion_points", "grid_s",
                             "grid_hit_ratio")),
    *(f"wavefield.{m}" for m in ("build_s", "evaluate_s", "evaluate_calls",
                                 "evaluate_points", "evaluate_terms",
                                 "evaluate_bytes_computed", "grid_hit_ratio")),
    "oscillatory.norms_s", "oscillatory.norm_calls", "oscillatory.norm_levels",
    "oscillatory.norm_nodes",
    *(f"nodal.{m}" for m in ("harness_s", "sign_changes_s", "grid_levels",
                             "bisection_rounds", "bisection_points", "brackets",
                             "stable_ratio")),
    "lattice.enumerate_s",
}
_CLI = {"cli.config_s", "cli.write_s", "cli.rows_written", "cli.bytes_written"}
RUNS_LAYER = {
    "nodal-circle": _NODAL | _CLI,
    "nodal-curved": _NODAL | _CLI,
    "schur": {
        *(f"oscillatory.{m}" for m in ("schur_family_s", "schur_cells", "schur_nnz",
                                       "schur_density", "schur_norms_s", "bilinear_s",
                                       "bilinear_cells")),
        "medians.build_s", "medians.medians", "medians.decompose_s", "medians.starred",
        "lattice.enumerate_s",
    } | _CLI,
    "lattice": {"lattice.sieve_s", "lattice.circles", "lattice.audit_s", "lattice.cc_s",
                "lattice.cc_checks"} | _CLI,
}


@pytest.fixture(scope="module")
def traced():
    """One traced pass of every workload."""
    return {name: run.traced_run(wl, seed=5, seconds=0.0) for name, wl in WORKLOADS.items()}


def _rows(workload, seed, index=0):
    wl = WORKLOADS[workload]
    call = wl.make_call(seed, index)
    workdir = run.OUT_DIR / "test"
    res = run.run_call(wl, call, workdir)
    assert all(v is None for v in res.verdicts.values()), res.verdicts
    lines = (workdir / "rows.jsonl").read_text().splitlines()[1:]
    return call, [json.loads(line) for line in lines]


@pytest.mark.parametrize("workload", ["nodal-circle", "nodal-curved", "schur"])
def test_same_seed_replays_identical_rows(workload):
    call_a, rows_a = _rows(workload, seed=3)
    call_b, rows_b = _rows(workload, seed=3)
    assert call_a == call_b
    assert rows_a == rows_b
    assert rows_a != _rows(workload, seed=4)[1]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_rows_equal_untraced_and_pass_checks(traced, workload):
    result = traced[workload]
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_layer_metric_reported_where_its_layer_runs(traced, workload):
    metrics = traced[workload]["metrics"]
    assert set(metrics) == set(spans.METRICS)
    for name in RUNS_LAYER[workload]:
        assert metrics[name]["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_self_times_account_for_traced_wall(traced, workload):
    m = {k: v["value"] for k, v in traced[workload]["metrics"].items()}
    layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + m["trace.remainder_s"] == pytest.approx(m["trace.wall_s"])
    assert abs(m["trace.remainder_s"]) < 0.05 * m["trace.wall_s"]


def test_nodal_checks_reject_altered_rows():
    call, rows = _rows("nodal-curved", seed=7)
    assert all(v is None for v in check_nodal(call, rows).values())
    for field, factor in (("l2", 1 + 1e-7), ("zeros_over_freq", 1 + 1e-9),
                          ("npoints", 2), ("lsup", 0.5)):
        bad = [dict(r) for r in rows]
        bad[0][field] = bad[0][field] * factor
        verdicts = check_nodal(call, bad)
        assert sum(v is not None for v in verdicts.values()) == 1, field
    verdicts = check_nodal(call, rows[1:])
    assert list(verdicts.values()).count("row missing") == 1
    # l1 is not pinned tighter than the Holder chain needs
    loose = [dict(rows[0], l1=rows[0]["l1"] * (1 - 1e-6))] + rows[1:]
    assert all(v is None for v in check_nodal(call, loose).values())


def test_schur_and_lattice_checks_reject_altered_rows():
    wl = WORKLOADS["schur"]
    call = wl.make_call(0, 0)
    rows = [{"kind": "schur-bilinear", "n": n, "block_flat_gap": 0.0, "lhs_starred": 1.0}
            for n in call.ops]
    rows += [{"kind": "schur-block", "n": n, "K": 1, "L": 1, "rows": 2, "cols": 2, "nnz": 4}
             for n in call.ops]
    assert all(v is None for v in check_schur(call, rows).values())
    rows[0]["block_flat_gap"] = 1e-11
    rows[-1]["nnz"] = 5
    assert all(v is not None for v in check_schur(call, rows).values())

    from workloads import Call
    call = Call("lattice", {}, (1, 2, 5))
    good = [{"kind": "lattice", "n": n, "jarnik_max": 1, "arclog_m": None} for n in (1, 2, 5)]
    assert all(v is None for v in check_lattice(call, good).values())
    bad = good[:2] + [{"kind": "lattice", "n": 3, "jarnik_max": 3, "arclog_m": 1}]
    verdicts = check_lattice(call, bad)
    assert verdicts[5] == "row missing" and verdicts[("extra", 3)] is not None


def test_representable_matches_brute_force():
    brute = [n for n in range(1, 200)
             if any(a * a + b * b == n for a in range(15) for b in range(15))]
    assert representable(1, 200) == brute


def test_declared_metrics_match_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert declared == {k: v[:2] for k, v in spans.METRICS.items()}
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
