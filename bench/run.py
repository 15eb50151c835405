#!/usr/bin/env python3
"""Benchmark for monobound: one workload, one seed, one line of metrics.

    python3 bench/run.py --workload bound-large --seed 1 --seconds 55 --trace 0

The package is imported from the ``src/`` beside this directory, never from
an installed copy; without it the script exits 2 and prints no result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run measures
the same untraced loop and then traces a fixed number of ops, and the
metrics are the per-layer ones.  The line before it is the full report:
environment, tail percentile and sample count, error rate, digest of the
rendered outputs and, when traced, the tracing overhead.  The report, plus
the spans of a traced run, is also written to
``bench/out/<workload>-seed<seed>-trace<t>.json``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median.  A process imports a
#: module once, so each set-up times the import in a fresh interpreter.
SETUP_REPEATS = 5
#: The tail percentile needs more than ten samples.
MIN_OPS = 11
#: Untimed ops before the timed loop: they grow the heap and warm the
#: caches.  They are checked and counted like every other op.
WARMUP_OPS = 1
WORKLOADS = ("bound-large", "cli-small", "refine-oracles")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer busy time per traced op: metric -> span name.
BUSY_METRICS = {
    "partitions.from_weights.busy_s": "partitions.from_weights",
    "partitions.cumulative.busy_s": "partitions.cumulative",
    "partitions.bisect_all.busy_s": "partitions.bisect_all",
    "functions.eval.busy_s": "functions.eval",
    "bounds.riemann_right.busy_s": "bounds.riemann_right",
    "bounds.riemann_left.busy_s": "bounds.riemann_left",
    "bounds.abel.busy_s": "bounds.abel",
    "bounds.bound_report.busy_s": "bounds.bound_report",
    "bounds.refinement_chain.busy_s": "bounds.refinement_chain",
    "quadrature.busy_s": "quadrature",
    "transform.density.busy_s": "transform.density",
    "transform.pit.busy_s": "transform.pit",
    "majorization.generate.busy_s": "majorization.generate",
    "majorization.is_majorized.busy_s": "majorization.is_majorized",
    "majorization.karamata.busy_s": "majorization.karamata",
    "jsonio.render.busy_s": "jsonio.render",
    "cli.main.busy_s": "cli.main",
    "baseline.numpy_tn_s": "baseline.numpy_tn",
}
#: Per-layer counts per traced op, with their units.
COUNT_METRICS = {
    "partitions.points": "count",
    "functions.eval.calls": "count",
    "functions.eval.points": "count",
    "quadrature.evaluations": "count",
    "jsonio.bytes": "B",
}
LAYERS = ("partitions", "functions", "bounds", "quadrature", "transform",
          "majorization", "jsonio", "cli", "baseline")

PER_LAYER_UNITS = {
    **{name: "s" for name in BUSY_METRICS},
    **COUNT_METRICS,
    "bounds.evals_per_point": "eval/point",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    **{f"{layer}.failed": "count" for layer in LAYERS},
    "error_rate": "fraction",
    "trace.overhead_ms": "ms",
}


def single_threaded() -> None:
    """One process with no extra threads: keep BLAS from starting a pool.

    Must run before numpy is imported; CLI children inherit it.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


@dataclass
class Measurement:
    """One closed loop: per-op latency (s) and outcome, in op order."""

    latencies: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    points: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def execute(wl, i: int, tr):
    """One run of op i: (seconds in ``wl.core``, its result or None, problems)."""
    tr.op_id = i
    start = perf_counter()
    try:
        with tr.span("op"):
            done = wl.core(i, tr)
    except Exception as exc:
        return perf_counter() - start, None, [("op", f"{type(exc).__name__}: {exc}")]
    elapsed = perf_counter() - start
    try:
        with tr.span("check"):
            found = wl.check(i, done, tr)
            if tr.enabled:
                found += wl.beside(i, done, tr)
    except Exception as exc:
        found = [("check", f"{type(exc).__name__}: {exc}")]
    return elapsed, done, found


def measure(wl, tr, seconds: float, min_ops: int) -> Measurement:
    """Run ops 0, 1, ... until ``seconds`` have passed and ``min_ops`` are done.

    Only ``wl.core`` is timed.  The first ``wl.trace_ops`` ops' outputs are
    hashed, so the digest is the same for every run of one seed.
    """
    m = Measurement()
    digest = hashlib.sha256()
    start = perf_counter()
    i = 0
    while i < min_ops or perf_counter() - start < seconds:
        elapsed, done, found = execute(wl, i, tr)
        m.latencies.append(elapsed)
        if done is not None and i < wl.trace_ops:
            for text in done.outputs:
                digest.update(text.encode())
                digest.update(b"\0")
        for layer, msg in found:
            tr.fail(layer)
            if len(m.problems) < 20:
                m.problems.append(f"op {i} [{layer}] {msg}")
        m.ok.append(not found)
        if not found:
            m.points += done.points
        done = None  # free the op's data before the next op
        i += 1
    m.digest = digest.hexdigest()
    return m


def tail_latency(ordered: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With ten or fewer samples no percentile qualifies and the maximum is
    returned with percentile 100.
    """
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(m: Measurement, warm: Measurement, setup_s: float,
               peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics from the timed loop ``m``, and the details beside them.

    ``error_rate`` also counts the warm-up ops.
    """
    good = sorted(t for t, ok in zip(m.latencies, m.ok) if ok)
    busy = sum(m.latencies)
    if good:
        p50 = statistics.median(good)
        tail, pct = tail_latency(good)
    else:
        p50 = tail = pct = 0.0
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(good) / busy,
        "latency_p50_ms": 1e3 * p50,
        "latency_tail_ms": 1e3 * tail,
        "points_per_s": m.points / busy,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "latency_tail_percentile": pct,
        "latency_samples": len(good),
        "samples_beyond_tail": 10 if len(good) > 10 else 0,
        "error_rate": (m.failed + warm.failed) / (m.attempted + warm.attempted),
        "attempted": m.attempted + warm.attempted,
        "failed": m.failed + warm.failed,
        "warmup_ops": warm.attempted,
        "timed_s": busy,
        "points": m.points,
        "outputs_sha256": m.digest,
        "problems": m.problems,
    }
    return metrics, details


def per_layer(tr, ops: int, probes: dict, untraced: Measurement, traced: Measurement,
              warm: Measurement) -> dict:
    """Per-layer metrics: busy time and counts per traced op, failures in total."""
    metrics = {name: tr.busy.get(span, 0.0) / ops for name, span in BUSY_METRICS.items()}
    metrics.update({name: tr.counts.get(name, 0) / ops for name in COUNT_METRICS})
    n = tr.counts.get("bounds.n", 0)
    metrics["bounds.evals_per_point"] = tr.counts.get("bounds.evaluations", 0) / n if n else 0.0
    metrics.update(probes)
    metrics.update({f"{layer}.failed": tr.failed.get(layer, 0) for layer in LAYERS})
    runs = (warm, untraced, traced)
    metrics["error_rate"] = sum(r.failed for r in runs) / sum(r.attempted for r in runs)
    paired = [t - u for t, u in zip(traced.latencies, untraced.latencies)]
    metrics["trace.overhead_ms"] = 1e3 * statistics.median(paired)
    return metrics


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 2**10, "M": 2**20}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(np, largest_n: int) -> dict:
    status = git("status", "--porcelain")
    l3 = l3_bytes()
    array_bytes = 8 * largest_n
    env = {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3,
        "largest_array_bytes_computed": array_bytes,
    }
    if l3 is not None:
        env["note"] = (
            f"the largest weight array (n = {largest_n}) is {array_bytes} bytes, computed from "
            f"its size, against a {l3 // 2**20} MB L3: "
            + ("it fits, so this is not a memory-bandwidth measurement" if array_bytes < l3
               else "it does not fit")
        )
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float,
                 scale: str = "full", min_ops: int = MIN_OPS) -> tuple[dict, dict]:
    """Set up, measure and (optionally) trace one workload: (result, report)."""
    import numpy as np
    import workloads
    from tracing import NullTracer, Tracer

    workdir = BENCH / ".work" / f"{name}-{os.getpid()}"
    wl = workloads.make(name, seed, scale, workdir, SRC)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            imported = workloads.import_seconds(SRC)
            start = perf_counter()
            wl.setup()
            setups.append([imported, perf_counter() - start])
        setup_s = statistics.median(a + b for a, b in setups)

        warm = measure(wl, NullTracer(), 0.0, WARMUP_OPS)
        untraced = measure(wl, NullTracer(), seconds, max(min_ops, wl.trace_ops))
        e2e, details = end_to_end(untraced, warm, setup_s, peak_rss_mb(name == "cli-small"))
        details.update(own_import_s=import_s, setups_import_build_s=setups)
        report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "scale": scale, "environment": environment(np, wl.largest_n),
                  "end_to_end": {**e2e, **details}}
        attempted, failed = details["attempted"], details["failed"]
        correct = failed == 0
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
        spans = None
        if trace:
            tr = Tracer()
            traced = measure(wl, tr, 0.0, wl.trace_ops)
            probes = workloads.cli_probes(SRC)
            layer = per_layer(tr, wl.trace_ops, probes, untraced, traced, warm)
            same_bits = traced.digest == untraced.digest
            report["traced"] = {"ops": wl.trace_ops, "outputs_sha256": traced.digest,
                                "same_outputs_as_untraced": same_bits,
                                "problems": traced.problems, "per_layer": layer,
                                "spans": len(tr.spans)}
            attempted += traced.attempted
            failed += traced.failed
            correct = correct and traced.failed == 0 and same_bits
            metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layer.items()}
            spans = tr.span_records()
    finally:
        wl.close()

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    suffix = "" if scale == "full" else f"-{scale}"
    path = out / f"{name}-seed{seed}-trace{int(trace)}{suffix}.json"
    path.write_text(json.dumps({**report, "span_records": spans}, indent=1) + "\n")
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "monobound" / "__init__.py").is_file():
        print(f"error: no monobound sources at {SRC}", file=sys.stderr)
        return 2
    single_threaded()
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import monobound
    import_s = perf_counter() - start
    if Path(monobound.__file__).resolve().parent != (SRC / "monobound").resolve():
        print(f"error: imported monobound from {monobound.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
