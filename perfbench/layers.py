"""Outside-in per-layer tracing of one serve.

The traced pass wraps public class attributes of each layer (the table
:data:`LAYERS`) from the benchmark's own code; nothing in the program
changes.  Every wrapped call becomes one span -- method, parent span,
host start and end -- kept in flat in-memory arrays and turned into
per-layer numbers once the run has ended.  A span's *self* time is its
duration minus the durations of the wrapped calls made inside it, so a
layer's self time is host time spent in that layer's own code.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Set, Tuple

import numpy as np

#: ``(layer, module, wrapped class attributes)``, outermost layer first.
LAYERS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("modeling", "repro.scheduler.modeling",
     ("ProfilingCampaign.run", "ProfilingCampaign.fit")),
    ("gateway", "repro.serving.gateway",
     ("RequestGateway.offer", "RequestGateway.drain")),
    ("batching", "repro.serving.batching",
     ("Batcher.add", "Batcher.flush_ready", "Batcher.flush_all")),
    ("loop", "repro.serving.loop", ("ServingLoop.run",)),
    ("simulation", "repro.scheduler.simulation", ("ClusterSimulator.run",)),
    ("cluster", "repro.scheduler.cluster",
     ("Cluster.feasible_node_names", "Cluster.feasible_nodes",
      "Cluster.feasible_shape_matrix", "Cluster.feasible_shape_mask")),
    ("heats", "repro.scheduler.heats",
     ("HeatsScheduler.place", "HeatsScheduler.reschedule",
      "HeatsScheduler.score_candidates")),
    ("placement", "repro.scheduler.placement",
     ("PlacementEngine.instantiate", "PlacementEngine.complete",
      "PlacementEngine.migrate")),
    ("cache", "repro.serving.cache",
     ("PredictionScoreCache.key_for", "PredictionScoreCache.get",
      "PredictionScoreCache.put")),
    ("federation", "repro.federation.federation",
     ("FederatedScheduler.place", "FederatedScheduler.reschedule")),
    ("autoscale", "repro.autoscale.controller", ("Autoscaler.control",)),
    ("chaos", "repro.scenarios.chaos",
     ("ChaosScheduler.place", "ChaosScheduler.reschedule", "ChaosEngine.step")),
    ("trace", "repro.telemetry.trace",
     ("Tracer.start_span", "Tracer.event", "Span.end")),
)

#: wrapped attributes whose receivers are kept, to read their counters
#: after the run (cache evictions live on each cache instance).
_KEEP_RECEIVER = frozenset({"PredictionScoreCache.put"})

#: per-layer metrics: ``(name, unit, better, exact)``.  ``exact`` marks
#: values that repeat bit for bit for a seed; the rest are host times.
PER_LAYER: Tuple[Tuple[str, str, str, bool], ...] = (
    ("modeling.self_s", "s", "lower", False),
    ("modeling.calls", "count", "lower", True),
    ("gateway.self_s", "s", "lower", False),
    ("gateway.calls", "count", "lower", True),
    ("gateway.rejected_ratio", "fraction", "lower", True),
    ("batching.self_s", "s", "lower", False),
    ("batching.calls", "count", "lower", True),
    ("batching.mean_batch_size", "requests", "higher", True),
    ("loop.self_s", "s", "lower", False),
    ("simulation.self_s", "s", "lower", False),
    ("simulation.migrations", "count", "lower", True),
    ("simulation.sim_mean_wait_s", "s", "lower", True),
    ("cluster.self_s", "s", "lower", False),
    ("cluster.calls", "count", "lower", True),
    ("heats.self_s", "s", "lower", False),
    ("heats.place_calls", "count", "lower", True),
    ("heats.place_success_ratio", "fraction", "higher", True),
    ("heats.place_p50_us", "us", "lower", False),
    ("heats.place_p99_us", "us", "lower", False),
    ("heats.reschedule_calls", "count", "lower", True),
    ("heats.reschedule_self_s", "s", "lower", False),
    ("placement.self_s", "s", "lower", False),
    ("placement.calls", "count", "lower", True),
    ("cache.self_s", "s", "lower", False),
    ("cache.hit_ratio", "fraction", "higher", True),
    ("cache.evictions", "count", "lower", True),
    ("federation.self_s", "s", "lower", False),
    ("federation.place_p99_us", "us", "lower", False),
    ("federation.affinity_hit_rate", "fraction", "higher", True),
    ("autoscale.self_s", "s", "lower", False),
    ("autoscale.control_calls", "count", "lower", True),
    ("autoscale.actions", "count", "lower", True),
    ("autoscale.final_shards", "count", "higher", True),
    ("chaos.self_s", "s", "lower", False),
    ("chaos.injections_applied", "count", "higher", True),
    ("chaos.partition_removals", "count", "lower", True),
    ("trace.self_s", "s", "lower", False),
    ("trace.spans", "count", "lower", True),
    ("bench.trace_overhead", "ratio", "lower", False),
)


class SpanRecorder:
    """In-memory spans of every wrapped call, one row per call.

    Rows live in flat typed arrays (method id, parent row, start, end,
    whether the call returned a value) so millions of calls stay cheap
    to record and hold.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: ``(layer, qualified attribute)`` per method id.
        self.methods: List[Tuple[str, str]] = []
        self.method = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.returned = array("b")
        #: receivers kept per qualified attribute (see ``_KEEP_RECEIVER``).
        self.receivers: Dict[str, Set[object]] = {}
        self._stack: List[int] = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, layer: str, qualname: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so each call records one span.

        Args:
            layer: the layer the method belongs to.
            qualname: ``Class.attribute`` of the wrapped method.
            fn: the original function.

        Returns:
            The recording wrapper.
        """
        method_id = len(self.methods)
        self.methods.append((layer, qualname))
        method, parent, start, end = self.method, self.parent, self.start, self.end
        returned, stack, clock = self.returned, self._stack, self.clock
        keep = self.receivers.setdefault(qualname, set()).add if (
            qualname in _KEEP_RECEIVER
        ) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = len(start)
            method.append(method_id)
            parent.append(stack[-1])
            end.append(0.0)
            returned.append(0)
            stack.append(row)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[row] = clock()
                stack.pop()
            if result is not None:
                returned[row] = 1
            if keep is not None:
                keep(args[0])
            return result

        return traced

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as numpy columns (copies, safe to keep).

        Returns:
            ``method``, ``parent``, ``start``, ``duration``, ``self``
            and ``returned`` columns, one row per span.
        """
        start = np.array(self.start, dtype=np.float64)
        duration = np.array(self.end, dtype=np.float64) - start
        parent = np.array(self.parent, dtype=np.int64)
        return {
            "method": np.array(self.method, dtype=np.int64),
            "parent": parent,
            "start": start,
            "duration": duration,
            "self": self_times(parent, duration),
            "returned": np.array(self.returned, dtype=bool),
        }

    def write_csv(self, path) -> None:
        """Write every span as CSV (row, parent, layer, method, times).

        Args:
            path: the file to write.
        """
        columns = self.arrays()
        with open(path, "w", encoding="utf-8") as out:
            out.write("row,parent,layer,method,start_s,duration_s,self_s\n")
            for row in range(len(self)):
                layer, qualname = self.methods[int(columns["method"][row])]
                out.write(
                    f"{row},{int(columns['parent'][row])},{layer},{qualname},"
                    f"{columns['start'][row]!r},{columns['duration'][row]!r},"
                    f"{columns['self'][row]!r}\n"
                )


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Args:
        parent: parent row per span (-1 for a root).
        duration: duration per span.

    Returns:
        Self time per span.
    """
    nested = parent >= 0
    children = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    return duration - children


@contextmanager
def traced_layers(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every attribute in :data:`LAYERS` for the ``with`` body.

    The original class attributes are put back on exit, however the body
    ends.

    Args:
        recorder: receives the spans.

    Yields:
        The recorder.
    """
    originals: List[Tuple[type, str, object]] = []
    try:
        for layer, module_name, qualnames in LAYERS:
            module = importlib.import_module(module_name)
            for qualname in qualnames:
                class_name, attribute = qualname.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                if not callable(original):
                    raise TypeError(f"{module_name}.{qualname} is not a plain method")
                originals.append((owner, attribute, original))
                setattr(owner, attribute, recorder.wrap(layer, qualname, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def _percentile_us(durations: np.ndarray, q: float) -> float:
    return float(np.percentile(durations, q) * 1e6) if len(durations) else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    report,
    chaos,
) -> Dict[str, float]:
    """Per-layer numbers of one traced run (``bench.*`` excluded).

    Args:
        recorder: the run's spans.
        report: the run's :class:`~repro.serving.loop.ServingReport`.
        chaos: the run's :class:`~repro.scenarios.chaos.ChaosReport`.

    Returns:
        Metric name -> value for every :data:`PER_LAYER` entry except
        those named ``bench.*``.
    """
    columns = recorder.arrays()
    ids = {qualname: index for index, (_, qualname) in enumerate(recorder.methods)}
    method = columns["method"]
    span_layer = np.array([layer for layer, _ in recorder.methods])[method]
    self_s = columns["self"]
    duration = columns["duration"]

    def of(qualname: str) -> np.ndarray:
        return method == ids[qualname]

    metrics: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for layer, _, _ in LAYERS:
        in_layer = span_layer == layer
        metrics[f"{layer}.self_s"] = float(self_s[in_layer].sum())
        calls[layer] = int(np.count_nonzero(in_layer))
    metrics["modeling.calls"] = calls["modeling"]
    metrics["gateway.calls"] = calls["gateway"]
    metrics["gateway.rejected_ratio"] = report.rejection_rate
    metrics["batching.calls"] = calls["batching"]
    metrics["batching.mean_batch_size"] = (
        report.admitted / report.batches if report.batches else 0.0
    )
    metrics["simulation.migrations"] = report.simulation.num_migrations
    metrics["simulation.sim_mean_wait_s"] = report.simulation.mean_waiting_s
    metrics["cluster.calls"] = calls["cluster"]

    place = of("HeatsScheduler.place")
    reschedule = of("HeatsScheduler.reschedule")
    metrics["heats.place_calls"] = int(np.count_nonzero(place))
    metrics["heats.place_success_ratio"] = (
        float(columns["returned"][place].mean()) if place.any() else 0.0
    )
    metrics["heats.place_p50_us"] = _percentile_us(duration[place], 50)
    metrics["heats.place_p99_us"] = _percentile_us(duration[place], 99)
    metrics["heats.reschedule_calls"] = int(np.count_nonzero(reschedule))
    # Heats self time spent on behalf of rescheduling: the reschedule
    # pass plus the candidate scoring it calls.
    parent = columns["parent"]
    parent_method = np.where(parent >= 0, method[np.maximum(parent, 0)], -1)
    scored_for_reschedule = of("HeatsScheduler.score_candidates") & (
        parent_method == ids["HeatsScheduler.reschedule"]
    )
    metrics["heats.reschedule_self_s"] = float(
        self_s[reschedule].sum() + self_s[scored_for_reschedule].sum()
    )
    metrics["placement.calls"] = calls["placement"]

    lookups = of("PredictionScoreCache.get")
    metrics["cache.hit_ratio"] = (
        float(columns["returned"][lookups].mean()) if lookups.any() else 0.0
    )
    metrics["cache.evictions"] = sum(
        cache.stats.evictions
        for cache in recorder.receivers.get("PredictionScoreCache.put", ())
    )

    metrics["federation.place_p99_us"] = _percentile_us(
        duration[of("FederatedScheduler.place")], 99
    )
    federation = report.federation_stats
    metrics["federation.affinity_hit_rate"] = (
        federation.affinity_hit_rate if federation is not None else 0.0
    )

    autoscale = report.autoscale_report
    metrics["autoscale.control_calls"] = calls["autoscale"]
    metrics["autoscale.actions"] = len(autoscale.decisions) if autoscale else 0
    metrics["autoscale.final_shards"] = autoscale.final_shards if autoscale else 0

    metrics["chaos.injections_applied"] = len(chaos.applied())
    metrics["chaos.partition_removals"] = partition_removals(report, chaos)
    metrics["trace.spans"] = len(report.trace_spans) if report.trace_spans else 0
    return metrics


def partition_removals(report, chaos) -> int:
    """Shards chaos partitioned that the autoscaler then removed.

    A partition is meant to drain a shard without removing it; each
    count here is a partitioned shard that did not survive the run.

    Args:
        report: the run's serving report.
        chaos: the run's chaos report.

    Returns:
        The number of such removals.
    """
    autoscale = report.autoscale_report
    if autoscale is None:
        return 0
    partitioned = {record.target for record in chaos.applied("partition")}
    return sum(
        1
        for decision in autoscale.decisions
        if decision.action.value == "remove_shard" and decision.target in partitioned
    )


def layer_shares(metrics: Dict[str, float]) -> List[Tuple[str, float, float]]:
    """Each layer's self time and its share of all traced self time.

    Args:
        metrics: per-layer metrics of one run.

    Returns:
        ``(layer, self seconds, share)`` rows, largest first.
    """
    selves = [(layer, metrics[f"{layer}.self_s"]) for layer, _, _ in LAYERS]
    total = sum(seconds for _, seconds in selves) or 1.0
    return sorted(
        ((layer, seconds, seconds / total) for layer, seconds in selves),
        key=lambda row: -row[1],
    )

