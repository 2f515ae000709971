"""Benchmark of the point-convergence simulator: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload planar_round --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload kasync_service --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --selftest        # every workload, tiny sizes, seconds

Each repetition of a workload runs in a fresh interpreter
(``perfbench/child.py``) with the BLAS thread count fixed to one, so no
memo, cache or ``ru_maxrss`` high-water mark carries over between
repetitions.  A run makes a fixed minimum of repetitions of identical
inputs per workload (``REPETITIONS``), more while their timed parts add
up to less than ``--seconds``, and each end-to-end metric is the median
over them.  ``--trace 1`` makes the same untraced repetitions, then one
traced repetition, checks that it produces the untraced outputs, and
reports the per-layer metrics of the traced one (spans are written to
``.perfbench_out/``).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
host the numbers came from.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("planar_round", "kasync_service", "replicate_sweep", "lattice3d")

#: Repetitions a run makes at least (more while ``--seconds`` is not yet
#: reached): with one repetition lasting 3-27 s on a 2-core host, enough
#: timed work per run that host noise averages out in the median.
#: ``lattice3d`` has the shortest repetition (3-6 s), and at four of them
#: its spread across runs reached the 0.25 bound.
REPETITIONS = {"planar_round": 2, "kasync_service": 1, "replicate_sweep": 2, "lattice3d": 6}

#: BLAS/OpenMP thread settings every repetition runs under.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: A run must end within this many seconds; no repetition starts that
#: would be expected to cross it.
DEADLINE_S = 165.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "activations_per_s": "1/s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run, in the order BENCHMARK.json lists them.
PER_LAYER = (
    "schedulers.next_batch_s", "schedulers.activations",
    "spatial_index.build_s", "spatial_index.builds",
    "spatial_index.query_s", "spatial_index.queries",
    "snapshot.build_s", "snapshot.builds",
    "algorithms.decide_s", "algorithms.decide_calls", "algorithms.decide_rows",
    "algorithms.batched_rows", "algorithms.batched_share",
    "geometry.hull_s", "geometry.hull_calls",
    "geometry.sec_s", "geometry.sec_calls", "geometry.sec_cache_hits",
    "geometry.pointloc_s", "geometry.pointloc_queries",
    "errors.perceive_s", "errors.realize_s",
    "metrics.bind_s", "metrics.observe_s", "metrics.observes",
    "engine.run_s", "engine.unattributed_s",
    "replicate.lanes", "replicate.vector_lanes", "fanout.pool_calls",
    "sweeps.setup_s", "sweeps.row_s", "sweeps.rows_executed", "sweeps.bundles",
    "sweeps.rows_bundled",
    "store.read_s", "store.lookups", "store.hits", "store.write_s", "store.writes",
    "store.claim_s", "store.claims",
    "analysis.aggregate_s",
    "service.request_s", "service.requests", "service.queue_s",
    "spatial3d.config_geometry_s", "spatial3d.decide_s", "spatial3d.decide_calls",
    "spatial3d.halfspace_s", "spatial3d.halfspace_calls",
    "spatial3d.frames_s", "spatial3d.frames",
    "trace.overhead_s",
)

#: Layers each workload is known to use: a traced run in which one of
#: them never fires fails (the wrapper missed its target).
EXPECTED_LAYERS = {
    "planar_round": (
        "engine.run", "schedulers.next_batch", "spatial_index.build", "spatial_index.query",
        "algorithms.decide", "geometry.hull", "geometry.sec", "metrics.bind", "metrics.observe",
    ),
    "kasync_service": (
        "engine.run", "schedulers.next_batch", "snapshot.build", "algorithms.decide",
        "geometry.hull", "geometry.sec", "errors.perceive",
        "errors.realize", "metrics.bind", "metrics.observe", "sweeps.setup", "sweeps.row",
        "sweeps.execute", "store.read", "store.write", "store.claim", "analysis.aggregate",
        "service.request",
    ),
    "replicate_sweep": (
        "engine.run", "schedulers.next_batch", "spatial_index.build", "spatial_index.query",
        "algorithms.decide", "metrics.bind", "replicate.eligible", "sweeps.setup", "sweeps.row",
        "sweeps.execute", "store.read", "store.write", "store.claim", "analysis.aggregate",
    ),
    "lattice3d": (
        "engine.run", "schedulers.next_batch", "spatial3d.config_geometry", "spatial3d.decide",
        "spatial3d.halfspace", "spatial3d.frames", "sweeps.execute",
    ),
}


class BenchError(RuntimeError):
    """A repetition crashed or could not start; the run prints no result."""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def host_fingerprint() -> dict:
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else ref
        else:
            commit = ref
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode())
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "commit": commit,
        "src_sha256": source.hexdigest()[:16],
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def repetition(workload: str, seed: int, *, quick: bool, trace: bool, check: bool,
               workdir: Path, timeout: float, spans: Path = None) -> dict:
    """Run one repetition in a fresh interpreter and return its report."""
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--workdir", str(workdir)]
    for flag, on in (("--quick", quick), ("--trace", trace), ("--check", check)):
        if on:
            command.append(flag)
    if spans is not None:
        command += ["--spans", str(spans)]
    try:
        proc = subprocess.run(command, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload} repetition exceeded {timeout:.0f}s") from error
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} repetition exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced(workload: str, seed: int, seconds: float, *, quick: bool, workdir: Path,
             started: float, deadline: float = DEADLINE_S) -> dict:
    """Repeat the workload untraced; no repetition starts that would be
    expected to end past ``deadline`` seconds after ``started``."""
    minimum = 1 if quick else REPETITIONS[workload]
    reps = []
    timed = 0.0
    while True:
        rep_started = time.monotonic()
        reps.append(repetition(workload, seed, quick=quick, trace=False, check=not reps,
                               workdir=workdir, timeout=deadline - (rep_started - started)))
        timed += reps[-1]["run_s"]
        rep_wall = time.monotonic() - rep_started
        if (len(reps) >= minimum and timed >= seconds) or (
            time.monotonic() - started + rep_wall > deadline
        ):
            break

    def median(key):
        return statistics.median(key(rep) for rep in reps)

    metrics = {
        "setup_s": median(lambda r: r["setup_s"]),
        "run_s": median(lambda r: r["run_s"]),
        "activations_per_s": median(lambda r: r["activations"] / r["run_s"]),
        "rows_per_s": median(lambda r: r["rows"] / r["run_s"]),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
    }
    # The first repetition verifies the outputs; every later one must
    # reproduce them exactly (same inputs, deterministic program).
    differing = sum(1 for rep in reps[1:] if rep["digest"] != reps[0]["digest"])
    failures = [f for rep in reps for f in rep["failures"]]
    if differing:
        failures.append(f"{differing} repetition(s) produced different outputs")
    failed = sum(rep["failed"] for rep in reps) + differing
    return {
        "correct": failed == 0,
        "attempted": sum(rep["attempted"] for rep in reps) + len(reps) - 1,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END.items()},
        "failures": failures,
        "repetitions": len(reps),
        "digest": reps[0]["digest"],
    }


def traced(workload: str, seed: int, seconds: float, *, quick: bool, workdir: Path,
           started: float) -> dict:
    # The untraced repetitions get at most half the deadline, so the
    # traced one (slower by the wrappers' cost) still fits in the rest.
    plain = untraced(workload, seed, seconds, quick=quick, workdir=workdir, started=started,
                     deadline=DEADLINE_S / 2)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}{'-quick' if quick else ''}.npz"
    rep = repetition(workload, seed, quick=quick, trace=True, check=False, workdir=workdir,
                     timeout=DEADLINE_S - (time.monotonic() - started), spans=spans)
    layers = dict(rep["layers"])
    layers.update(rep["extra"])
    decided = layers.get("algorithms.decide_rows", 0)
    layers["algorithms.batched_share"] = (
        layers.get("algorithms.batched_rows", 0) / decided if decided else 0.0
    )
    layers["trace.overhead_s"] = rep["run_s"] - plain["metrics"]["run_s"]["value"]
    failures = list(plain["failures"]) + list(rep["failures"])
    if rep["digest"] != plain["digest"]:
        failures.append("traced outputs differ from the untraced run's")
    silent = [layer for layer in EXPECTED_LAYERS[workload] if layer not in rep["fired"]]
    if silent:
        failures.append(f"wrappers never fired for layers this workload uses: {silent}")
    # A target that no longer exists (renamed or moved) would otherwise
    # read as a layer doing no work.
    missing = rep["missing_targets"]
    failures += [f"wrapper target not found: {target}" for target in missing]
    extra_failed = int(rep["digest"] != plain["digest"]) + len(silent) + len(missing)
    return {
        "correct": plain["failed"] == 0 and rep["failed"] == 0 and extra_failed == 0,
        "attempted": (plain["attempted"] + rep["attempted"] + 1
                      + len(EXPECTED_LAYERS[workload]) + len(TARGETS)),
        "failed": plain["failed"] + rep["failed"] + extra_failed,
        "metrics": {name: {"value": layers.get(name, 0), "unit": layer_unit(name)}
                    for name in PER_LAYER},
        "failures": failures,
        "spans": str(spans.relative_to(ROOT)),
        "repetitions": plain["repetitions"] + 1,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if trace:
            return traced(workload, seed, seconds, quick=quick, workdir=workdir,
                          started=started)
        return untraced(workload, seed, seconds, quick=quick, workdir=workdir, started=started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(result: dict) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


def selftest(seed: int) -> int:
    """Every workload at tiny sizes, untraced and traced, schema-checked."""
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_one(workload, seed, 0.0, trace, quick=True)
            expected = set(PER_LAYER) if trace else set(END_TO_END)
            label = f"{workload} trace={int(trace)}"
            if set(result["metrics"]) != expected:
                problems.append(f"{label}: metric names differ from the schema")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failures']}")
            if not trace and any(m["value"] <= 0 for m in result["metrics"].values()):
                problems.append(f"{label}: an end-to-end metric is not positive")
            print(f"{label}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in spec["per_layer"]] != list(PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from PER_LAYER")
    if [m["name"] for m in spec["end_to_end"]] != list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from END_TO_END")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from WORKLOADS")
    for problem in problems:
        print(f"SELFTEST FAILURE: {problem}", file=sys.stderr)
    print(json.dumps({"selftest": "fail" if problems else "pass"}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload at tiny sizes, untraced and traced")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return selftest(args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"host": host_fingerprint(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace,
                      "repetitions": result["repetitions"],
                      "spans": result.get("spans")}))
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
