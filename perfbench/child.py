"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py`` (never by hand): sets the workload up
``setup_repeats`` times (keeping the last), times the call, reads the
peak resident memory, digests the outputs and, with ``--check``, verifies
them.  With ``--trace`` the
layer wrappers are installed before set-up and record only during the
timed call.  Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true",
                        help="verify the outputs (else only digest them)")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload](args.seed, args.quick)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))

    setup_samples = []
    state = None
    for _ in range(workload.setup_repeats):
        if state is not None:
            workload.teardown(state)
            state = None
        started = time.perf_counter()
        state = workload.setup(workdir)
        setup_samples.append(time.perf_counter() - started)

    try:
        if recorder is not None:
            recorder.start()
        started = time.perf_counter()
        outcome = workload.run(state)
        run_s = time.perf_counter() - started
        if recorder is not None:
            recorder.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        output_digest = digest(workload.outputs(state, outcome))
        checks = workload.check(state, outcome) if args.check else []
    finally:
        workload.teardown(state)

    failed = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    report = {
        "workload": args.workload,
        "setup_s": statistics.median(setup_samples),
        "run_s": run_s,
        "rows": outcome.rows,
        "activations": outcome.activations,
        "peak_rss_mb": peak_rss_mb,
        "attempted": outcome.rows + len(checks),
        "failed": len(failed),
        "failures": failed[:20],
        "digest": output_digest,
        "extra": outcome.extra,
    }
    if recorder is not None:
        report["layers"] = recorder.layer_metrics()
        report["fired"] = sorted(recorder.fired_layers())
        report["missing_targets"] = recorder.missing
        if args.spans:
            recorder.save(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
