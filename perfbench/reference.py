"""Regenerate the reference figures of perfbench/README.md.

Runs the benchmark ``--runs`` times per workload, with seeds 1 to ``--runs``,
and prints for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread
as a share of the median; then one traced run per workload with its
per-layer split.  A full pass over the four workloads at ten runs each
takes about twenty minutes on a 2-core host::

    python3 perfbench/reference.py --runs 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in WORKLOADS:
        values, shares, walls = {}, set(), []
        for seed in range(1, args.runs + 1):
            started = time.monotonic()
            result = bench(workload, seed, spec["run_seconds"], 0)
            walls.append(time.monotonic() - started)
            shares.add(result["failed"] / result["attempted"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct=false", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {args.runs} runs, failed share {sorted(shares)}, "
              f"wall per run {statistics.median(walls):.1f}s (max {max(walls):.1f}s)")
        print(f"  {'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            print(f"  {name:<20}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{(q3 - q1) / median:>9.3f}{bounds[name]:>7}")
        traced = bench(workload, 1, spec["run_seconds"], 1)
        print(f"  traced run: correct={traced['correct']} attempted={traced['attempted']} "
              f"failed={traced['failed']}; nonzero per-layer metrics:")
        for name, metric in traced["metrics"].items():
            if metric["value"]:
                print(f"    {name:<30}{metric['value']:>14.6g} {metric['unit']}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
