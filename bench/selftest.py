#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that

1. every metric that BENCHMARK.json names is emitted, with its unit, by
   every workload of ``run.WORKLOADS``, untraced and traced, and the tiny
   runs are correct;
2. another seed changes the inputs but not the set of metrics;
3. corrupted values fed to the checker count as failures, both checker by
   checker and through the measuring loop.

Exits 0 when all hold, 1 otherwise.  Takes well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import run

SEEDS = (1, 2)


def main() -> int:
    run.single_threaded()
    sys.path.insert(0, str(run.SRC))
    import numpy as np
    import checks
    import workloads
    from monobound import cli
    from tracing import NullTracer

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    # 1 and 2: metrics, units and correctness on every workload and seed,
    # cli-small included although BENCHMARK.json does not list it.
    for name in run.WORKLOADS:
        seen = {}
        for seed in SEEDS:
            for trace in (0, 1):
                result, _ = run.run_workload(name, seed, 0.0, bool(trace), 0.0,
                                             scale="tiny", min_ops=1)
                got = {metric: m["unit"] for metric, m in result["metrics"].items()}
                expect(got == expected[trace], f"{name} seed {seed} trace {trace}: metrics and units")
                expect(result["correct"] and result["failed"] == 0,
                       f"{name} seed {seed} trace {trace}: correct, {result['failed']} failed")
                seen.setdefault(trace, []).append(set(got))
        expect(all(s[0] == s[1] for s in seen.values()), f"{name}: same metrics for both seeds")
        digests = []
        for seed in SEEDS:
            wl = workloads.make(name, seed, "tiny", run.BENCH / ".work" / f"selftest-{name}", run.SRC)
            try:
                wl.setup()
                digests.append(wl.inputs_digest())
            finally:
                wl.close()
        expect(digests[0] != digests[1], f"{name}: another seed changes the inputs")

    # 3: corrupted values are caught, checker by checker ...
    g = cli.parse_fn_spec("recip")
    arr = np.linspace(1.0, 2.0, 1000)
    ref = checks.numpy_tn(g, arr)
    expect(not checks.check_tn(g, arr, ref, ref), "exact t_n passes the numpy reference")
    expect(bool(checks.check_tn(g, arr, ref + 1e-7, ref)), "t_n off by 1e-7 fails the numpy reference")
    expect(bool(checks.check_enclosure("decreasing", 0.6, 0.7, 0.75)), "integral outside the enclosure fails")
    expect(bool(checks.check_cli_payload("catalog", {}, {"rows": 11})), "CLI output missing a key fails")
    expect(bool(checks.check_cli_payload("karamata", {"g": "t^2", "sum_x": 1.0, "sum_y": 0.5,
                                                      "margin": -0.5, "pass": False}, {})),
           "karamata output with pass=false fails")
    expect(bool(checks.check_chain(g, arr, [0.69, 0.68], 1, 0.69)), "a decreasing refinement chain fails")

    # ... and through the measuring loop, where every corrupted op counts.
    class Corrupted(workloads.BoundLarge):
        def core(self, i, tr):
            done = super().core(i, tr)
            c = done.data["certified"]
            bad = dataclasses.replace(c.report, t_n=c.report.t_n * (1.0 + 1e-6))
            done.data["certified"] = dataclasses.replace(c, report=bad)
            return done

    wl = Corrupted(SEEDS[0], "tiny", Path("."))
    wl.setup()
    m = run.measure(wl, NullTracer(), 0.0, 4)
    expect(m.attempted == 4 and m.failed == 4, f"corrupted t_n: {m.failed} of {m.attempted} ops failed")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
