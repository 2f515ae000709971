"""Span recorder for the traced benchmark run.

The recorder wraps public functions of each layer of ``repro`` from the
outside: a module-level function is replaced in *every* loaded module that
holds a reference to it (``build_snapshot`` is imported by name into
``repro.engine.simulator``, so patching ``repro.model.snapshot`` alone
would miss the engine's calls), and a method is replaced on each class
that defines it.  Each call records a span ``(layer, start, end, parent)``
on a per-thread list; counters tied to a target (rows decided, cache hits,
store hits, ...) are bumped only by the outermost call of a layer, so a
wrapped function calling another wrapped function of the same layer is
counted once.

A layer's self time is the duration of its spans minus the time covered
by their child spans.  ``engine.run_s`` is the *total* duration of the
outermost engine spans and ``engine.unattributed_s`` their self time —
the part of a run no other traced layer accounts for.

Recording is switched on only around the timed part of a repetition
(``start``/``stop``); the wrappers stay installed but pass straight
through while it is off.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Modules imported before patching, so that every module holding a
#: reference to a wrapped function is loaded when the identity scan runs.
MODULES = (
    "repro.engine.simulator",
    "repro.engine.kernel",
    "repro.engine.metrics",
    "repro.engine.replicate",
    "repro.engine.fanout",
    "repro.engine.spatial_index",
    "repro.engine.decide_batch",
    "repro.model",
    "repro.model.snapshot",
    "repro.model.errors",
    "repro.geometry",
    "repro.geometry.hull",
    "repro.geometry.sec",
    "repro.geometry.pointloc",
    "repro.algorithms",
    "repro.algorithms.kknps",
    "repro.schedulers",
    "repro.sweeps.runner",
    "repro.sweeps.replicate",
    "repro.sweeps.backends",
    "repro.store",
    "repro.store.results_store",
    "repro.service",
    "repro.service.client",
    "repro.analysis.streaming",
    "repro.spatial3d",
    "repro.spatial3d.engine3",
    "repro.spatial3d.kernel3",
    "repro.spatial3d.kknps3",
    "repro.spatial3d.halfspace",
    "repro.spatial3d.model3",
)

Counter = Callable[[tuple, dict, object], Dict[str, int]]

#: Marks the target whose memo hits are counted from the ``_SEC_CACHE``
#: dict itself: a miss appends its key to the insertion-ordered memo, a
#: hit leaves size and newest key untouched.
SEC_MEMO_PROBE = object()


def _one(name: str) -> Counter:
    return lambda args, kwargs, result: {name: 1}


def _rows_of_round(position: int) -> Counter:
    def count(args, kwargs, result):
        starts = args[position] if len(args) > position else kwargs["starts"]
        return {"algorithms.decide_rows": len(starts), "algorithms.batched_rows": len(starts)}

    return count


def _len_result(name: str) -> Counter:
    return lambda args, kwargs, result: {name: len(result)}


def _pointloc_queries(args, kwargs, result):
    return {"geometry.pointloc_queries": len(result)}


def _get_one(args, kwargs, result):
    return {"store.lookups": 1, "store.hits": int(result is not None)}


def _get_many(args, kwargs, result):
    keys = args[1] if len(args) > 1 else kwargs["run_keys"]
    return {"store.lookups": len(keys), "store.hits": len(result)}


def _put_many(args, kwargs, result):
    return {"store.writes": int(result)}


def _vector_lane(args, kwargs, result):
    return {"replicate.lanes": 1, "replicate.vector_lanes": int(bool(result))}


def _bundle(args, kwargs, result):
    return {"sweeps.bundles": 1, "sweeps.rows_bundled": len(result), "sweeps.rows_executed": len(result)}


#: (module, qualified attribute, layer, counter).  The layer is the
#: ``<module>.<what>`` prefix of the per-layer metrics the spans feed.
TARGETS: Tuple[Tuple[str, str, str, Optional[Counter]], ...] = (
    ("repro.engine.simulator", "Simulator.run", "engine.run", None),
    ("repro.engine.kernel", "ContinuousKernel.run_kernel", "engine.run", None),
    ("repro.engine.replicate", "run_replicated_simulations", "engine.run", None),
    ("repro.schedulers.base", "Scheduler.next_batch*", "schedulers.next_batch",
     _len_result("schedulers.activations")),
    ("repro.engine.spatial_index", "ShardedGridIndex.__init__", "spatial_index.build",
     _one("spatial_index.builds")),
    ("repro.engine.spatial_index", "ShardedGridIndex.from_replicates", "spatial_index.build",
     _one("spatial_index.builds")),
    ("repro.engine.spatial_index", "ShardedGridIndex.candidates", "spatial_index.query",
     _one("spatial_index.queries")),
    ("repro.engine.spatial_index", "ShardedGridIndex.warm_candidates", "spatial_index.query",
     _one("spatial_index.queries")),
    ("repro.engine.spatial_index", "ShardedGridIndex.neighbour_pairs", "spatial_index.query",
     _one("spatial_index.queries")),
    ("repro.engine.spatial_index", "UniformGridIndex.candidates", "spatial_index.query",
     _one("spatial_index.queries")),
    ("repro.model.snapshot", "build_snapshot", "snapshot.build", _one("snapshot.builds")),
    ("repro.algorithms.kknps", "KKNPSAlgorithm.compute", "algorithms.decide",
     _one("algorithms.decide_rows")),
    ("repro.algorithms.kknps", "KKNPSAlgorithm.compute_relative", "algorithms.decide",
     _one("algorithms.decide_rows")),
    ("repro.algorithms.kknps", "KKNPSAlgorithm.compute_array_rounds", "algorithms.decide",
     _rows_of_round(3)),
    ("repro.engine.fanout", "kknps_destinations_all", "algorithms.decide", _rows_of_round(2)),
    ("repro.geometry.hull", "convex_hull_array", "geometry.hull", None),
    ("repro.geometry.sec", "smallest_enclosing_circle", "geometry.sec", None),
    ("repro.geometry.sec", "sec_center_array", "geometry.sec", SEC_MEMO_PROBE),
    ("repro.geometry.pointloc", "DiskIntersectionLocator.contains_array", "geometry.pointloc",
     _pointloc_queries),
    ("repro.geometry.pointloc", "DiskUnionLocator.contains_array", "geometry.pointloc",
     _pointloc_queries),
    ("repro.geometry.pointloc", "HalfplaneFan.contains_array", "geometry.pointloc",
     _pointloc_queries),
    ("repro.model.errors", "PerceptionModel.perceive_array", "errors.perceive", None),
    ("repro.model.errors", "MotionModel.realize", "errors.realize", None),
    ("repro.model.errors", "MotionModel.realize_array", "errors.realize", None),
    ("repro.engine.metrics", "MetricsCollector.bind_initial", "metrics.bind", None),
    ("repro.engine.metrics", "MetricsCollector.observe", "metrics.observe",
     _one("metrics.observes")),
    ("repro.spatial3d.kernel3", "Metrics3Collector.bind_initial", "metrics.bind", None),
    ("repro.spatial3d.kernel3", "Metrics3Collector.observe", "metrics.observe",
     _one("metrics.observes")),
    ("repro.engine.replicate", "replicate_vector_eligible", "replicate.eligible", _vector_lane),
    ("repro.engine.fanout", "FanoutPool.compute", "fanout.compute", _one("fanout.pool_calls")),
    ("repro.sweeps.runner", "planar_setup", "sweeps.setup", None),
    ("repro.sweeps.runner", "planar_row", "sweeps.row", None),
    ("repro.sweeps.runner", "execute_run", "sweeps.execute", _one("sweeps.rows_executed")),
    ("repro.sweeps.replicate", "execute_bundle", "sweeps.execute", _bundle),
    ("repro.store.results_store", "ResultsStore.get", "store.read", _get_one),
    ("repro.store.results_store", "ResultsStore.get_many", "store.read", _get_many),
    ("repro.store.results_store", "ResultsStore.put", "store.write", _one("store.writes")),
    ("repro.store.results_store", "ResultsStore.put_many", "store.write", _put_many),
    ("repro.store.results_store", "ResultsStore.claim", "store.claim", _one("store.claims")),
    ("repro.store.results_store", "ResultsStore.release", "store.claim", None),
    ("repro.analysis.streaming", "StreamingAggregator.add_row", "analysis.aggregate", None),
    ("repro.analysis.streaming", "StreamingAggregator.to_table", "analysis.aggregate", None),
    ("repro.service.client", "ServiceClient.health", "service.request", _one("service.requests")),
    ("repro.service.client", "ServiceClient.jobs", "service.request", _one("service.requests")),
    ("repro.service.client", "ServiceClient.submit", "service.request", _one("service.requests")),
    ("repro.service.client", "ServiceClient.status", "service.request", _one("service.requests")),
    ("repro.service.client", "ServiceClient.results", "service.request", _one("service.requests")),
    ("repro.spatial3d.model3", "Configuration3.edges", "spatial3d.config_geometry", None),
    ("repro.spatial3d.model3", "Configuration3.diameter", "spatial3d.config_geometry", None),
    ("repro.spatial3d.kknps3", "KKNPS3Algorithm.compute_array", "spatial3d.decide",
     _one("spatial3d.decide_calls")),
    ("repro.spatial3d.kknps3", "KKNPS3Algorithm.compute_array_rounds", "spatial3d.decide",
     _one("spatial3d.decide_calls")),
    ("repro.spatial3d.halfspace", "fits_in_open_halfspace_array", "spatial3d.halfspace",
     _one("spatial3d.halfspace_calls")),
    ("repro.spatial3d.halfspace", "fits_in_open_halfspace_segments", "spatial3d.halfspace",
     _one("spatial3d.halfspace_calls")),
    ("repro.spatial3d.engine3", "random_rotation3", "spatial3d.frames", _one("spatial3d.frames")),
)

#: Per-layer metrics read from span self time: metric -> layer.
SELF_TIME_METRICS = {
    "schedulers.next_batch_s": "schedulers.next_batch",
    "spatial_index.build_s": "spatial_index.build",
    "spatial_index.query_s": "spatial_index.query",
    "snapshot.build_s": "snapshot.build",
    "algorithms.decide_s": "algorithms.decide",
    "geometry.hull_s": "geometry.hull",
    "geometry.sec_s": "geometry.sec",
    "geometry.pointloc_s": "geometry.pointloc",
    "errors.perceive_s": "errors.perceive",
    "errors.realize_s": "errors.realize",
    "metrics.bind_s": "metrics.bind",
    "metrics.observe_s": "metrics.observe",
    "engine.unattributed_s": "engine.run",
    "sweeps.setup_s": "sweeps.setup",
    "sweeps.row_s": "sweeps.row",
    "store.read_s": "store.read",
    "store.write_s": "store.write",
    "store.claim_s": "store.claim",
    "analysis.aggregate_s": "analysis.aggregate",
    "service.request_s": "service.request",
    "spatial3d.config_geometry_s": "spatial3d.config_geometry",
    "spatial3d.decide_s": "spatial3d.decide",
    "spatial3d.halfspace_s": "spatial3d.halfspace",
    "spatial3d.frames_s": "spatial3d.frames",
}

#: Per-layer metrics that count outermost calls of a layer: metric -> layer.
CALL_COUNT_METRICS = {
    "algorithms.decide_calls": "algorithms.decide",
    "geometry.hull_calls": "geometry.hull",
    "geometry.sec_calls": "geometry.sec",
}


class _ThreadSpans:
    """The spans one thread recorded (parents index this thread's lists)."""

    def __init__(self) -> None:
        self.layers: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.outer: List[bool] = []
        self.stack: List[int] = []
        self.depth: Dict[int, int] = {}
        self.counts: Dict[str, int] = {}


def _memo_state(cache) -> tuple:
    return len(cache), next(reversed(cache)) if cache else None


class SpanRecorder:
    """Wraps the layer functions of ``repro`` and records their spans."""

    def __init__(self) -> None:
        self.recording = False
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._threads_lock = threading.Lock()
        self.missing: List[str] = []
        self._sec_cache = None

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        for name in MODULES:
            importlib.import_module(name)
        sec = sys.modules["repro.geometry.sec"]
        self._sec_cache = getattr(sec, "_SEC_CACHE", None)
        for module_name, attr, layer, counter in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                self.missing.append(f"{module_name}:{attr}")
                continue
            if "." in attr:
                self._patch_method(module, attr, layer, counter)
            else:
                self._patch_function(module, attr, layer, counter)

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def _patch_function(self, module, attr: str, layer: str, counter) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}:{attr}")
            return
        wrapped = self._wrap(original, layer, counter)
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if not namespace or not getattr(other, "__name__", "").startswith("repro"):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(other, key, wrapped)

    def _patch_method(self, module, attr: str, layer: str, counter) -> None:
        class_name, method = attr.split(".")
        every_subclass = method.endswith("*")
        method = method.rstrip("*")
        base = getattr(module, class_name, None)
        if base is None:
            self.missing.append(f"{module.__name__}:{attr}")
            return
        classes = [base]
        if every_subclass:
            pending = list(base.__subclasses__())
            while pending:
                cls = pending.pop()
                classes.append(cls)
                pending.extend(cls.__subclasses__())
        found = False
        for cls in classes:
            raw = cls.__dict__.get(method)
            if raw is None:
                continue
            found = True
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(self._wrap(raw.__func__, layer, counter)))
            elif isinstance(raw, staticmethod):
                setattr(cls, method, staticmethod(self._wrap(raw.__func__, layer, counter)))
            else:
                setattr(cls, method, self._wrap(raw, layer, counter))
        if not found:
            self.missing.append(f"{module.__name__}:{attr}")

    def _wrap(self, function, layer: str, counter):
        layer_id = self._layer_id(layer)
        recorder = self
        local = self._local
        cache = self._sec_cache if counter is SEC_MEMO_PROBE else None
        perf = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not recorder.recording:
                return function(*args, **kwargs)
            spans = getattr(local, "spans", None) or recorder._register()
            depth = spans.depth.get(layer_id, 0)
            index = len(spans.starts)
            spans.layers.append(layer_id)
            spans.parents.append(spans.stack[-1] if spans.stack else -1)
            spans.outer.append(depth == 0)
            spans.ends.append(0.0)
            spans.stack.append(index)
            spans.depth[layer_id] = depth + 1
            memo_before = _memo_state(cache) if cache is not None else None
            spans.starts.append(perf())
            try:
                result = function(*args, **kwargs)
            finally:
                spans.ends[index] = perf()
                spans.stack.pop()
                spans.depth[layer_id] = depth
            if depth == 0 and counter is not None:
                if counter is SEC_MEMO_PROBE:
                    hit = cache is not None and memo_before == _memo_state(cache)
                    increments = {"geometry.sec_cache_hits": int(hit)}
                else:
                    increments = counter(args, kwargs, result)
                counts = spans.counts
                for key, value in increments.items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return wrapper

    def _register(self) -> _ThreadSpans:
        spans = self._local.spans = _ThreadSpans()
        with self._threads_lock:
            self._threads.append(spans)
        return spans

    # ------------------------------------------------------------------
    # recording

    def start(self) -> None:
        self.recording = True

    def stop(self) -> None:
        self.recording = False

    def arrays(self) -> Dict[str, np.ndarray]:
        """Every recorded span as flat arrays (parents index the same arrays)."""
        layers, starts, ends, parents, outer = [], [], [], [], []
        offset = 0
        for spans in self._threads:
            layers.extend(spans.layers)
            starts.extend(spans.starts)
            ends.extend(spans.ends)
            outer.extend(spans.outer)
            parents.extend(p + offset if p >= 0 else -1 for p in spans.parents)
            offset += len(spans.starts)
        return {
            "layer": np.asarray(layers, dtype=np.int32),
            "start": np.asarray(starts, dtype=np.float64),
            "end": np.asarray(ends, dtype=np.float64),
            "parent": np.asarray(parents, dtype=np.int64),
            "outer": np.asarray(outer, dtype=bool),
        }

    def save(self, path) -> None:
        """Write the spans out (numpy ``.npz``; ``layers`` names the ids)."""
        np.savez(path, layers=np.asarray(self.layers), **self.arrays())

    def layer_metrics(self) -> Dict[str, float]:
        """Self times, call counts and counters per layer."""
        spans = self.arrays()
        n_layers = len(self.layers)
        duration = spans["end"] - spans["start"]
        child_time = np.zeros(len(duration))
        has_parent = spans["parent"] >= 0
        np.add.at(child_time, spans["parent"][has_parent], duration[has_parent])
        self_time = duration - child_time
        per_layer_self = np.bincount(spans["layer"], weights=self_time, minlength=n_layers)
        outer = spans["outer"]
        per_layer_total = np.bincount(
            spans["layer"][outer], weights=duration[outer], minlength=n_layers
        )
        per_layer_calls = np.bincount(spans["layer"][outer], minlength=n_layers)

        def layer_value(table, layer):
            layer_id = self._layer_ids.get(layer)
            return float(table[layer_id]) if layer_id is not None else 0.0

        out: Dict[str, float] = {}
        for metric, layer in SELF_TIME_METRICS.items():
            out[metric] = layer_value(per_layer_self, layer)
        for metric, layer in CALL_COUNT_METRICS.items():
            out[metric] = int(layer_value(per_layer_calls, layer))
        out["engine.run_s"] = layer_value(per_layer_total, "engine.run")
        for spans_of_thread in self._threads:
            for key, value in spans_of_thread.counts.items():
                out[key] = out.get(key, 0) + int(value)
        return out

    def fired_layers(self) -> Sequence[str]:
        """Layers with at least one recorded span."""
        return [self.layers[i] for i in np.unique(self.arrays()["layer"])]
