"""Benchmark of the toral-nodal CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload nodal-circle --seed 1 --seconds 20 --trace 0

One client runs CLI commands one after another (a closed loop), each
through ``toral_nodal.cli.main`` with a config file and ``--out``, until
``--seconds`` of command time is measured.  Each command runs in a forked
child of this set-up process, so it starts with imports done and fixture
curves built, but with none of the caches a command fills for itself.
Rows are checked after each command, outside the timed region.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``.  The
program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60

# Set-up as a fresh process pays it: interpreter start, imports, and the
# workload's fixture curves.  Prints "ready <ru_maxrss KiB after import>".
_SETUP_CHILD = """\
import resource, sys
sys.path.insert(0, sys.argv[1])
import numpy
import toral_nodal.cli
bare = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
from toral_nodal.fixtures import curve_from_config
for name in sys.argv[2:]:
    curve_from_config({"fixture": name})
print("ready", bare, flush=True)
"""


def use_checkout_source(root: Path = ROOT) -> bool:
    """Put the checkout's src/ first on sys.path; False if it is missing."""
    src = root / "src"
    if not (src / "toral_nodal" / "cli.py").is_file():
        return False
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return True


def measure_setup(fixtures) -> tuple[list[float], float]:
    """Set-up times of fresh processes, and the RSS (MiB) of a bare import."""
    times, bare = [], []
    cmd = [sys.executable, "-c", _SETUP_CHILD, str(ROOT / "src"), *fixtures]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not line.startswith("ready"):
            raise RuntimeError(f"set-up process failed with code {proc.returncode}")
        bare.append(int(line.split()[1]) / 1024.0)
    return times, statistics.median(bare)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    env = os.environ.get("OPENBLAS_NUM_THREADS")
    return int(env) if env else None


def environment(bare_import_mb: float | None) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": blas_threads(),
        "bare_import_rss_mb": bare_import_mb,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class CallResult:
    seconds: float
    peak_rss_mb: float
    verdicts: dict  # op -> failure, or None if it passed
    rows_digest: str
    self_s: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def _command(workload, call, workdir: Path, tracer, keep_spans: bool) -> CallResult:
    """Body of the forked child: time one CLI command, then check its rows."""
    from toral_nodal import cli

    config, out = workdir / "config.json", workdir / "rows.jsonl"
    config.write_text(json.dumps(call.config))
    # Each command writes into an empty directory, as a first run does:
    # truncating an old file costs a filesystem flush of tens of ms on ext4.
    for old in workdir.glob("rows.*"):
        old.unlink()
    argv = [call.command, "--config", str(config), "--out", str(out)]
    if tracer is not None:
        tracer.reset()
        tracer.install()
    sink = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(argv)
        if code != 0:
            error = f"exit code {code}: {sink.getvalue().strip()}"
    except Exception:  # a traceback is a failed command, not a benchmark crash
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    peak = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    lines = [] if error else out.read_text().splitlines()[1:]  # line 0: header
    if error:
        verdicts = {op: error for op in call.ops}
    else:
        verdicts = workload.check(call, [json.loads(line) for line in lines])
    result = CallResult(seconds, peak, verdicts,
                        hashlib.sha256("\n".join(lines).encode()).hexdigest())
    if tracer is not None:
        result.self_s, result.counts = tracer.self_times(), dict(tracer.counts)
        result.spans = tracer.spans if keep_spans else []
    return result


def run_call(workload, call, workdir: Path, tracer=None, keep_spans=False) -> CallResult:
    """Run one command in a forked child of this set-up process.

    Every command starts from the same state: set-up done, no cache a
    command fills, and its own peak RSS.  The child reports over a pipe.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    sys.stdout.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(_command(workload, call, workdir, tracer, keep_spans), fh)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        why = f"command process ended with wait status {status}"
        return CallResult(time.perf_counter() - start, 0.0, {op: why for op in call.ops}, "")
    return pickle.loads(data)  # written by the child above


def build_curves(workload):
    from toral_nodal.fixtures import curve_from_config

    return [curve_from_config({"fixture": name}) for name in workload.fixtures]


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def add(self, verdicts: dict) -> int:
        bad = [f"{op}: {why}" for op, why in verdicts.items() if why is not None]
        self.attempted += len(verdicts)
        self.failed += len(bad)
        self.failures.extend(bad[:10 - len(self.failures)])
        return len(verdicts) - len(bad)


def timed_run(workload, seed: int, seconds: float) -> dict:
    setups, bare_mb = measure_setup(workload.fixtures)
    build_curves(workload)
    workdir = OUT_DIR / workload.name
    tally = Tally()
    busy = 0.0
    done = index = 0
    peaks, call_s = [], []
    while busy < seconds:
        res = run_call(workload, workload.make_call(seed, index), workdir)
        index += 1
        busy += res.seconds
        call_s.append(res.seconds)
        peaks.append(res.peak_rss_mb)
        done += tally.add(res.verdicts)
    metrics = {
        "ops_per_s": {"value": done / busy, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MiB"},
    }
    return {"attempted": tally.attempted, "failed": tally.failed, "metrics": metrics,
            "env": environment(bare_mb), "setup_samples_s": setups,
            "call_seconds": call_s, "peak_rss_samples_mb": peaks,
            "failures": tally.failures}


def traced_run(workload, seed: int, seconds: float) -> dict:
    """The workload's first calls as a fixed batch, run in passes: each
    call untraced, then traced, and the two must give the same rows.
    Times are medians over passes; counts come from the first pass."""
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        build_curves(workload)
    finally:
        tracer.uninstall()
    build_s = tracer.self_times().get("curve.make_arclength", 0.0)
    kept = list(tracer.spans)
    workdir = OUT_DIR / workload.name
    batch = [workload.make_call(seed, i) for i in range(workload.batch)]
    ops = sum(len(call.ops) for call in batch)
    digests = [None] * len(batch)
    tally = Tally()
    passes: list[dict] = []
    busy = 0.0
    while busy < seconds or not passes:
        self_s: Counter = Counter()
        counts: Counter = Counter()
        wall = untraced = 0.0
        for i, call in enumerate(batch):
            plain = run_call(workload, call, workdir)
            res = run_call(workload, call, workdir, tracer, keep_spans=not passes)
            untraced += plain.seconds
            wall += res.seconds
            self_s.update(res.self_s)
            counts.update(res.counts)
            kept.extend(res.spans)
            digests[i] = digests[i] or plain.rows_digest
            verdicts = res.verdicts
            if not res.rows_digest or not plain.rows_digest == res.rows_digest == digests[i]:
                verdicts = {op: "traced and untraced rows differ" for op in call.ops}
            tally.add(verdicts)
        busy += wall + untraced
        passes.append(spans.layer_metrics(self_s, counts, wall, untraced, ops))
    tracer.spans = kept
    tracer.write(OUT_DIR / f"trace-{workload.name}.jsonl")

    metrics = {}
    for name, (unit, _, _) in spans.METRICS.items():
        timed = unit == "s" or name == "trace.overhead"
        value = statistics.median(p[name] for p in passes) if timed else passes[0][name]
        metrics[name] = {"value": value, "unit": unit}
    metrics["curve.build_s"]["value"] = build_s
    return {"attempted": tally.attempted, "failed": tally.failed, "metrics": metrics,
            "env": environment(None), "passes": len(passes), "failures": tally.failures}


def summary_line(name: str, seed: int, result: dict) -> str:
    parts = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()
             if "." not in k or k.startswith("trace.")]
    ratio = result["failed"] / result["attempted"]
    parts.append(f"fail_ratio={ratio:.6g} ({result['failed']}/{result['attempted']})")
    return f"# {name} seed={seed}: " + "  ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout_source():
        print(f"no toral_nodal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    result = run(workload, args.seed, args.seconds)
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1) + "\n")
    print("# env " + json.dumps(result["env"]))
    for failure in result["failures"]:
        print(f"# failed {failure}")
    print(summary_line(workload.name, args.seed, result))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
