"""The four benchmark workloads: inputs, set-up, timed part and checks.

Every workload derives its inputs from the benchmark seed alone and hands
the program only those inputs, through its public entry points
(``Simulator.run``, ``execute_run``, ``SweepRunner``, ``ResultsStore`` and
the job service).  ``setup`` builds everything the timed call needs,
``run`` is the timed part, and ``check`` verifies the outputs afterwards
against computations made here, apart from the program, or against
properties the method must have.  No checking work happens in ``run``.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
from scipy.spatial import ConvexHull, cKDTree

#: Slack of the cohesion checks: an initial edge may end at most this far
#: beyond the visibility range (the program's own tolerance is 1e-9 too).
EPS = 1e-9
#: Relative tolerance when comparing a float the benchmark recomputes in
#: its own arithmetic with the one the program reports.
REL_TOL = 1e-12

Check = Tuple[str, bool, str]


def digest(payload) -> str:
    """A short content hash of JSON-serialisable outputs."""
    text = json.dumps(payload, sort_keys=True, default=float)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def hull_diameter(points: np.ndarray) -> float:
    """Largest pairwise distance, through the convex hull's vertices."""
    if len(points) > 3:
        points = points[ConvexHull(points).vertices]
    diff = points[:, None, :] - points[None, :, :]
    return float(np.sqrt((diff * diff).sum(axis=-1)).max())


def edge_lengths(points: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    diff = points[pairs[:, 0]] - points[pairs[:, 1]]
    return np.sqrt((diff * diff).sum(axis=1))


def strip_timing(row: Dict[str, object]) -> Dict[str, object]:
    from repro.sweeps.runner import TIMING_FIELDS

    return {k: v for k, v in row.items() if k not in TIMING_FIELDS}


class Outcome:
    """What one timed call produced."""

    def __init__(self, rows: int, activations: int, value, extra=None) -> None:
        self.rows = rows
        self.activations = activations
        self.value = value
        self.extra = extra or {}


class Workload:
    name = ""
    #: How many times one repetition sets up (the median is ``setup_s``).
    setup_repeats = 3

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick

    def setup(self, workdir: Path):
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass

    def run(self, state) -> Outcome:
        raise NotImplementedError

    def outputs(self, state, outcome: Outcome):
        """The run's outputs, JSON-serialisable: equal runs have equal outputs."""
        raise NotImplementedError

    def check(self, state, outcome: Outcome) -> List[Check]:
        """Verify the outputs; every check is ``(name, passed, detail)``."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# planar_round: one Simulator.run on the round fast path at n = 10^5
# ---------------------------------------------------------------------------


class PlanarRound(Workload):
    """kknps x ssync on a truncated grid, a fixed activation budget."""

    name = "planar_round"
    setup_repeats = 2
    visibility = 1.0
    spacing = 0.7

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.n = 2_000 if quick else 100_000
        self.budget = self.n

    def positions(self) -> np.ndarray:
        """The truncated grid under a seeded rotation and translation.

        A rigid motion keeps every distance (so the visibility graph and
        the work per round) while the coordinates depend on the seed.
        """
        cols = math.ceil(math.sqrt(self.n))
        index = np.arange(self.n)
        grid = np.stack([(index % cols) * self.spacing, (index // cols) * self.spacing], axis=1)
        rng = np.random.default_rng(self.seed)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        rotation = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        return grid @ rotation.T + rng.uniform(-50.0, 50.0, size=2)

    def setup(self, workdir: Path):
        # Input generation (the seeded grid) and Simulator construction.
        from repro.algorithms import KKNPSAlgorithm
        from repro.engine import SimulationConfig, Simulator
        from repro.schedulers import SSyncScheduler

        positions = self.positions()
        config = SimulationConfig(
            visibility_range=self.visibility,
            seed=self.seed,
            max_activations=self.budget,
            stop_at_convergence=False,
        )
        simulator = Simulator(positions.tolist(), KKNPSAlgorithm(k=1), SSyncScheduler(), config)
        return {"positions": positions, "simulator": simulator}

    def run(self, state) -> Outcome:
        result = state["simulator"].run()
        return Outcome(rows=1, activations=result.activations_processed, value=result)

    @staticmethod
    def final_positions(result) -> np.ndarray:
        return np.array([(p.x, p.y) for p in result.final_configuration.positions])

    def outputs(self, state, outcome: Outcome):
        result = outcome.value
        return [self.final_positions(result).tobytes().hex(), result.activations_processed]

    def check(self, state, outcome: Outcome):
        result = outcome.value
        initial = state["positions"]
        final = self.final_positions(result)
        pairs = cKDTree(initial).query_pairs(self.visibility + EPS, output_type="ndarray")
        stretch = float(edge_lengths(final, pairs).max())
        d0, d1 = hull_diameter(initial), hull_diameter(final)
        checks = [
            ("activations == budget", result.activations_processed == self.budget,
             f"{result.activations_processed} vs {self.budget}"),
            ("initial edges recomputed", len(pairs) > 0, f"{len(pairs)} edges"),
            ("cohesion: every initial edge <= V + EPS", stretch <= self.visibility + EPS,
             f"max stretch {stretch!r}"),
            ("program reports cohesion", bool(result.cohesion_maintained), ""),
            ("hull diameter does not grow", d1 <= d0 + EPS, f"{d0!r} -> {d1!r}"),
        ]
        return checks


# ---------------------------------------------------------------------------
# kasync_service: the paper's k-async setting through the HTTP job service
# ---------------------------------------------------------------------------


class KAsyncService(Workload):
    """kknps x {k-async, k-nesta} x k x error model x n, run to convergence."""

    name = "kasync_service"
    setup_repeats = 9
    poll_s = 0.05

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.ks = (1, 2) if quick else (1, 2, 4)
        self.sizes = (6, 8) if quick else (8, 12, 16)
        self.error_models = ("exact", "distance-5-nonrigid")
        self.schedulers = ("k-async", "k-nesta")

    def specs(self):
        """First submission (one job per k) and the overlapping re-submission."""
        from repro.sweeps.spec import SweepSpec

        def grid(k, seeds):
            return SweepSpec(
                algorithms=("kknps",),
                schedulers=self.schedulers,
                workloads=("grid",),
                n_robots=self.sizes,
                error_models=self.error_models,
                seeds=seeds,
                scheduler_k=k,
            )

        first = [grid(k, (self.seed,)) for k in self.ks]
        overlap = grid(self.ks[0], (self.seed, self.seed + 1))
        return first, overlap

    def setup(self, workdir: Path):
        # Service start only: the job service generates each row's inputs
        # itself, inside the timed part.
        from repro.service import JobManager, ServiceClient, make_server

        root = Path(tempfile.mkdtemp(prefix="service-", dir=workdir))
        manager = JobManager(root / "store.sqlite", root / "jobs", backend="serial", workers=1)
        manager.start()
        server = make_server(manager, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
        thread.start()
        client = ServiceClient("127.0.0.1", server.server_address[1])
        client.health()
        first, overlap = self.specs()
        return {"manager": manager, "server": server, "thread": thread, "client": client,
                "first": first, "overlap": overlap}

    def teardown(self, state) -> None:
        state["server"].shutdown()
        state["server"].server_close()
        state["thread"].join()
        state["manager"].shutdown()

    def _wait(self, client, job_id: str) -> Dict[str, object]:
        while True:
            status = client.status(job_id)
            if status["state"] not in ("queued", "running"):
                return status
            time.sleep(self.poll_s)

    def run(self, state) -> Outcome:
        client = state["client"]
        first_ids = [client.submit(spec)["job_id"] for spec in state["first"]]
        first_status = [self._wait(client, job_id) for job_id in first_ids]
        first_rows = [client.results(job_id, include_rows=True)["rows"] for job_id in first_ids]
        overlap_id = client.submit(state["overlap"])["job_id"]
        overlap_status = self._wait(client, overlap_id)
        overlap_rows = client.results(overlap_id, include_rows=True)["rows"]
        statuses = first_status + [overlap_status]
        first_flat = [row for batch in first_rows for row in batch]
        first_keys = {row["run_key"] for row in first_flat}
        executed = first_flat + [row for row in overlap_rows if row["run_key"] not in first_keys]
        return Outcome(
            rows=len(first_flat) + len(overlap_rows),
            activations=sum(int(row["activations"]) for row in executed),
            value={"statuses": statuses, "first_rows": first_rows, "overlap_rows": overlap_rows},
            extra={"service.queue_s": sum(s["started_at"] - s["submitted_at"] for s in statuses)},
        )

    def check(self, state, outcome: Outcome):
        from repro.engine import Simulator
        from repro.sweeps.runner import execute_run, planar_setup

        value = outcome.value
        statuses = value["statuses"]
        first_rows, overlap_rows = value["first_rows"], value["overlap_rows"]
        all_rows = [row for batch in first_rows for row in batch] + overlap_rows
        first_specs, overlap_spec = state["first"], state["overlap"]
        checks: List[Check] = []
        checks.append(("every job done", all(s["state"] == "done" for s in statuses),
                       str([s["state"] for s in statuses])))
        expected = [spec.size() for spec in first_specs] + [overlap_spec.size()]
        delivered = [len(batch) for batch in first_rows] + [len(overlap_rows)]
        checks.append(("row counts", delivered == expected, f"{delivered} vs {expected}"))
        for row in all_rows:
            checks.append((f"converged and cohesive: {row['run_key']}",
                           bool(row["converged"]) and bool(row["cohesion"]), ""))

        # The re-submission executes exactly the keys the store lacks.
        stored = {row["run_key"]: row for batch in first_rows for row in batch}
        overlap_keys = [spec.run_key for spec in overlap_spec.expand()]
        missing = sum(1 for key in overlap_keys if key not in stored)
        status = statuses[-1]
        checks.append(("re-submission executes only missing keys",
                       status["executed"] == missing and status["store_hits"] == len(overlap_keys) - missing,
                       f"executed {status['executed']} hits {status['store_hits']} missing {missing}"))
        served = [row for row in overlap_rows if row["run_key"] in stored]
        checks.append(("served rows equal the first job's rows",
                       all(row == stored[row["run_key"]] for row in served), ""))

        # Service rows equal direct execute_run rows outside TIMING_FIELDS.
        by_key = {row["run_key"]: row for row in all_rows}
        for index, spec in enumerate(first_specs):
            spec = spec.expand()[index]
            direct = execute_run(spec)
            checks.append((f"service row == execute_run: {spec.run_key}",
                           strip_timing(direct) == strip_timing(by_key[spec.run_key]), ""))

        # Re-run a sample through the engine API and recompute the row's
        # final diameter and cohesion from the positions.
        for spec in (first_specs[0].expand()[-1], overlap_spec.expand()[-1]):
            configuration, algorithm, scheduler, config = planar_setup(spec)
            result = Simulator(configuration.positions, algorithm, scheduler, config).run()
            initial = np.array([(p.x, p.y) for p in configuration.positions])
            final = np.array([(p.x, p.y) for p in result.final_configuration.positions])
            row = by_key[spec.run_key]
            diff = final[:, None, :] - final[None, :, :]
            diameter = float(np.sqrt((diff * diff).sum(axis=-1)).max())
            pairs = cKDTree(initial).query_pairs(configuration.visibility_range + EPS,
                                                  output_type="ndarray")
            stretch = float(edge_lengths(final, pairs).max())
            checks.append((f"engine re-run diameter: {spec.run_key}",
                           _close(diameter, float(row["final_diameter"])),
                           f"{diameter!r} vs {row['final_diameter']!r}"))
            checks.append((f"engine re-run cohesion: {spec.run_key}",
                           stretch <= configuration.visibility_range + EPS and bool(row["cohesion"]),
                           f"max stretch {stretch!r}"))
        return checks

    def outputs(self, state, outcome: Outcome):
        value = outcome.value
        rows = [row for batch in value["first_rows"] for row in batch] + value["overlap_rows"]
        return [strip_timing(row) for row in rows]


# ---------------------------------------------------------------------------
# replicate_sweep: seed-replicate bundles through SweepRunner with a store
# ---------------------------------------------------------------------------


class ReplicateSweep(Workload):
    """kknps x {ssync, fsync} x {grid, random} x n = 10^3 x 8 seeds, bundled."""

    name = "replicate_sweep"
    setup_repeats = 9

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.n = 600 if quick else 1_000
        self.replicates = 2 if quick else 8
        self.budget = 600 if quick else 1_500

    def setup(self, workdir: Path):
        # Store and runner construction only: SweepRunner generates the
        # inputs (planar_setup) inside the timed part.
        from repro.store import ResultsStore
        from repro.sweeps.runner import SweepRunner
        from repro.sweeps.spec import SweepSpec

        root = Path(tempfile.mkdtemp(prefix="sweep-", dir=workdir))
        spec = SweepSpec(
            algorithms=("kknps",),
            schedulers=("ssync", "fsync"),
            workloads=("grid", "random"),
            n_robots=(self.n,),
            seeds=tuple(range(self.seed * self.replicates, (self.seed + 1) * self.replicates)),
            max_activations=self.budget,
        )
        store = ResultsStore(root / "store.sqlite")
        runner = SweepRunner(spec, store=store, backend="serial", replicate_batch=True)
        return {"spec": spec, "store": store, "runner": runner}

    def teardown(self, state) -> None:
        state["store"].close()

    def run(self, state) -> Outcome:
        from repro.sweeps.runner import SweepRunner

        first = state["runner"].run()
        again = SweepRunner(state["spec"], store=state["store"], backend="serial",
                            replicate_batch=True).run()
        return Outcome(
            rows=len(first.rows) + len(again.rows),
            activations=sum(int(row["activations"]) for row in first.rows),
            value=(first, again),
        )

    def check(self, state, outcome: Outcome):
        from repro.sweeps.runner import execute_run

        first, again = outcome.value
        runs = state["spec"].expand()
        checks: List[Check] = [
            ("every run executed once", first.executed == len(runs) and len(first.rows) == len(runs),
             f"executed {first.executed} of {len(runs)}"),
            ("re-run executes nothing", again.executed == 0 and again.store_hits == len(runs),
             f"executed {again.executed} hits {again.store_hits}"),
            ("re-run returns identical rows", again.rows == first.rows, ""),
        ]
        for row in first.rows:
            checks.append((f"bundled, budget spent, cohesive: {row['run_key']}",
                           row.get("batched_replicates", 0) >= 2
                           and row["activations"] == self.budget and bool(row["cohesion"]), ""))
        by_key = {row["run_key"]: row for row in first.rows}
        # Lane == solo run: one grid lane and one random lane.
        for spec in (runs[self.replicates - 1], runs[-1]):
            solo = execute_run(spec)
            checks.append((f"bundled lane == solo execute_run: {spec.run_key}",
                           strip_timing(solo) == strip_timing(by_key[spec.run_key]), ""))
        return checks

    def outputs(self, state, outcome: Outcome):
        first, again = outcome.value
        return [strip_timing(row) for row in first.rows + again.rows]


# ---------------------------------------------------------------------------
# lattice3d: the 3D round engine on a cubic lattice
# ---------------------------------------------------------------------------


class Lattice3D(Workload):
    """kknps3 x ssync3 on a 10^3 cubic lattice3, a fixed round budget."""

    name = "lattice3d"
    setup_repeats = 25
    visibility = 1.0
    spacing = 0.6

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.side = 4 if quick else 10
        self.rounds = 3 if quick else 10

    def setup(self, workdir: Path):
        # RunSpec construction only: execute_run generates the lattice
        # inside the timed part.
        from repro.sweeps.spec import SweepSpec

        spec = SweepSpec(
            algorithms=("kknps3",),
            schedulers=("ssync3",),
            workloads=("lattice3",),
            n_robots=(self.side ** 3,),
            seeds=(self.seed,),
            max_activations=self.rounds,
            visibility_range=self.visibility,
        ).expand()[0]
        return {"spec": spec}

    def run(self, state) -> Outcome:
        from repro.sweeps.runner import execute_run

        row = execute_run(state["spec"])
        return Outcome(rows=1, activations=int(row["activations"]), value=row)

    def check(self, state, outcome: Outcome):
        row = outcome.value
        # The lattice the benchmark expects: side^3 points at 0.6 V spacing;
        # its diameter is the main diagonal.
        corner = (self.side - 1) * self.spacing * self.visibility
        diameter = math.sqrt(3.0) * corner
        checks: List[Check] = [
            ("initial diameter recomputed", _close(diameter, float(row["initial_diameter"])),
             f"{diameter!r} vs {row['initial_diameter']!r}"),
            ("final diameter <= initial", row["final_diameter"] <= row["initial_diameter"] + EPS,
             f"{row['initial_diameter']!r} -> {row['final_diameter']!r}"),
            ("cohesion", bool(row["cohesion"]), ""),
            ("max_edge_stretch <= V", row["max_edge_stretch"] <= self.visibility + EPS,
             f"{row['max_edge_stretch']!r}"),
            ("round budget spent", row["rounds"] == self.rounds and row["activations"] > 0,
             f"{row['rounds']} rounds, {row['activations']} activations"),
        ]
        return checks

    def outputs(self, state, outcome: Outcome):
        return strip_timing(outcome.value)


WORKLOADS = {cls.name: cls for cls in (PlanarRound, KAsyncService, ReplicateSweep, Lattice3D)}
