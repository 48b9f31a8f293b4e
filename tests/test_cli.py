import json
import math
from pathlib import Path

import pytest

from toral_nodal.cli import (SCHEMAS, derive_seed, main, parse_n_spec,
                             validate_row)
from toral_nodal.errors import ConfigError


def read_jsonl(path):
    lines = Path(path).read_text().splitlines()
    return json.loads(lines[0]), [json.loads(x) for x in lines[1:]]


def test_parse_n_spec():
    assert parse_n_spec("1..5") == [1, 2, 3, 4]
    assert parse_n_spec("25,50") == [25, 50]
    assert parse_n_spec([25]) == [25]
    assert parse_n_spec({"range": [3, 6]}) == [3, 4, 5]
    with pytest.raises(ConfigError):
        parse_n_spec(1.5)


def test_seed_derivation_is_pinned():
    # sha256("7:0")[:8] big endian; replay depends on this staying fixed
    assert derive_seed(7, 0) == 0xF5FF61D7B533CD73
    assert derive_seed(7, 1) != derive_seed(7, 0)


def test_lattice_range_row_count(tmp_path):
    out = tmp_path / "lat.jsonl"
    assert main(["lattice", "--n", "1..100", "--out", str(out)]) == 0
    header, rows = read_jsonl(out)
    assert header["schema_version"] == "1"
    assert len(rows) == 42  # representable n in the half-open range [1, 100)
    assert all(r["jarnik_ok"] and r["cc_ok"] for r in rows)
    assert out.with_suffix(".csv").exists()


def test_lattice_empty_range(tmp_path):
    out = tmp_path / "none.jsonl"
    assert main(["lattice", "--n", "3,7", "--out", str(out)]) == 0
    header, rows = read_jsonl(out)
    assert rows == []  # header only


@pytest.mark.parametrize("fixture", ["circular", "ellipse", "cubic"])
def test_replay_determinism(tmp_path, fixture):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"curve": {"fixture": fixture}}))
    for path, jobs in ((a, "1"), (b, "2")):
        code = main(["sweep", "--config", str(cfg), "--n", "1105", "--seeds", "3",
                     "--seed", "11", "--out", str(path), "--jobs", jobs, "--no-csv"])
        assert code == 0
    la = Path(a).read_text().splitlines()
    lb = Path(b).read_text().splitlines()
    assert la[1:] == lb[1:]  # byte-identical rows at any parallelism


def test_sweep_summary_and_svg(tmp_path):
    out = tmp_path / "s.jsonl"
    assert main(["sweep", "--n", "325", "--seeds", "4", "--seed", "2",
                 "--out", str(out), "--svg"]) == 0
    summary = json.loads(out.with_suffix(".summary.json").read_text())
    assert summary["runs"] == 4
    assert set(summary["ratio_zeros_arcmax"]) == {"min", "p25", "p50", "p75", "max"}
    svg = out.with_suffix(".svg").read_text()
    assert svg.startswith("<svg") and "circle" in svg


def test_nodal_with_witness_rows(tmp_path):
    out = tmp_path / "n.jsonl"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": [25], "seeds": {"master": 5, "count": 2},
        "witness_demo": True, "k_max": 3,
    }))
    assert main(["nodal", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_jsonl(out)
    kinds = [r["kind"] for r in rows]
    assert kinds.count("nodal") == 2
    assert kinds.count("witness") == 3
    assert all(r["zeros"] == 0 for r in rows if r["kind"] == "witness")


def test_schur_rows(tmp_path):
    out = tmp_path / "sch.jsonl"
    assert main(["schur", "--n", "1105", "--out", str(out)]) == 0
    _, rows = read_jsonl(out)
    blocks = [r for r in rows if r["kind"] == "schur-block"]
    bil = [r for r in rows if r["kind"] == "schur-bilinear"]
    assert blocks and len(bil) == 1
    for r in blocks:
        assert r["bound_2to2"] == pytest.approx(
            math.sqrt(r["norm_1to1"] * r["norm_adj_1to1"]))
    assert bil[0]["block_flat_gap"] <= 1e-9 * max(1.0, bil[0]["lhs_starred"])


def test_exceptions_rows(tmp_path):
    out = tmp_path / "exc.jsonl"
    assert main(["exceptions", "--out", str(out)]) == 0
    _, rows = read_jsonl(out)
    kinds = {r["kind"] for r in rows}
    assert kinds == {"rational-geodesic", "convergent", "witness", "sphere"}
    sphere = [r for r in rows if r["kind"] == "sphere"]
    assert sphere[0]["branch"] == "equator"


def test_exit_code_config_error(tmp_path):
    assert main(["nodal", "--n", "7", "--out", str(tmp_path / "x.jsonl")]) == 3
    assert main(["nodal", "--out", str(tmp_path / "y.jsonl")]) == 3


def test_exit_code_io_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub" / "z.jsonl"  # parent is a file: mkdir fails
    assert main(["lattice", "--n", "1..10", "--out", str(out)]) == 4


def test_exit_code_node_cap(tmp_path, monkeypatch, capsys):
    # a 65-node cap admits only the first Gauss-Legendre level (16 nodes per
    # panel, several panels), so no norm has a second level to settle against
    monkeypatch.setattr("toral_nodal.oscillatory.NODE_CAP_NORM", 65)
    out = tmp_path / "cap.jsonl"
    assert main(["sweep", "--n", "25", "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("numerical refinement hit its node cap")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("TORAL_NODAL_OUTDIR", str(tmp_path / "envout"))
    assert main(["lattice", "--n", "1..10"]) == 0
    assert (tmp_path / "envout" / "lattice.jsonl").exists()


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"n": [25], "bogus": 1}))
    assert main(["nodal", "--config", str(cfg),
                 "--out", str(tmp_path / "o.jsonl")]) == 3


def test_explicit_curve_config(tmp_path):
    out = tmp_path / "ell.jsonl"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": [325], "seeds": {"master": 1, "count": 1},
        "curve": {"kind": "ellipse-arc", "center": [2.0, 2.0], "a": 2.0,
                  "b": 1.0, "angles": [0.2, 0.9]},
    }))
    assert main(["nodal", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_jsonl(out)
    assert rows[0]["zeros"] > 0


def test_bad_curve_config_is_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": [25], "curve": {"kind": "circular-arc", "center": [0, 0]},
    }))
    assert main(["nodal", "--config", str(cfg),
                 "--out", str(tmp_path / "o.jsonl")]) == 3


def test_row_schema_strictness():
    row = {"kind": "lattice", "n": 25, "lambda": 5.0, "npoints": 12,
           "arc_max": 2, "witness_center": 0.1, "jarnik_max": 2,
           "jarnik_ok": True, "arclog_m": 1, "arclog_bound": 2.2,
           "arclog_ok": True, "cc_ok": True, "arcmax_over_log": 1.2}
    validate_row("lattice", row)
    with pytest.raises(ConfigError, match="unknown fields"):
        validate_row("lattice", {**row, "extra": 1})
    smaller = dict(row)
    del smaller["cc_ok"]
    with pytest.raises(ConfigError, match="missing"):
        validate_row("lattice", smaller)
    with pytest.raises(ConfigError, match="must be"):
        validate_row("lattice", {**row, "npoints": "12"})
    with pytest.raises(ConfigError, match="no schema"):
        validate_row("lattice", {**row, "kind": "mystery"})


def test_every_schema_has_kind_field():
    for (command, kind), schema in SCHEMAS.items():
        assert schema["kind"] is str
