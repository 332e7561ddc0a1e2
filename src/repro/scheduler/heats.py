"""The HEATS scheduling algorithm (paper Section V).

For every pending task HEATS:

1. identifies the task's resource requirements (cores, memory) and the nodes
   with enough availability (reported by monitoring),
2. uses the learned models to estimate the task's performance and energy on
   each candidate node (the profiling/estimation phase),
3. computes a score per node by normalising the predictions and weighting
   them by the customer's energy/performance ratio,
4. deploys the task on the best-fitting node.

Every ``rescheduling_interval_s`` the same evaluation re-runs for all running
tasks; when a better fit than the current host is found (by more than a
hysteresis margin, so marginal improvements do not cause migration churn),
the task is migrated to the new host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.registry import MetricsRegistry

from repro.hardware.microserver import WorkloadKind
from repro.scheduler.cluster import Cluster, ClusterNode
from repro.scheduler.modeling import PredictionModelSet, ProfilingCampaign
from repro.scheduler.placement import Placement
from repro.scheduler.workload import TaskRequest


@dataclass(frozen=True)
class HeatsConfig:
    """Tunables of the HEATS policy."""

    rescheduling_interval_s: float = 60.0
    migration_improvement_threshold: float = 0.15
    default_energy_weight: float = 0.5

    def __post_init__(self) -> None:
        if self.rescheduling_interval_s <= 0:
            raise ValueError("rescheduling interval must be positive")
        if not (0.0 <= self.migration_improvement_threshold < 1.0):
            raise ValueError("migration threshold must be in [0, 1)")
        if not (0.0 <= self.default_energy_weight <= 1.0):
            raise ValueError("energy weight must be in [0, 1]")


class NodeScore(NamedTuple):
    """Score breakdown for one candidate node (lower is better)."""

    node: str
    predicted_time_s: float
    predicted_energy_j: float
    normalised_time: float
    normalised_energy: float
    score: float


#: per-row coefficient status: usable; no learned model (skipped); a model
#: lacking the workload (``KeyError``).
_USABLE, _NO_MODEL, _NO_WORKLOAD = 0, 1, 2
#: row of each workload in the coefficient tensor.
_KIND_INDEX = {kind: index for index, kind in enumerate(WorkloadKind)}


def _no_workload(name: str, workload: WorkloadKind) -> KeyError:
    return KeyError(f"node {name} has no learned model for workload {workload.value}")


def _predict(coef: Sequence[np.ndarray], gops, cores) -> Tuple[np.ndarray, np.ndarray]:
    """Predicted (time_s, energy_j) per node.

    ``coef`` holds the four coefficient arrays over the same nodes;
    ``gops`` and ``cores`` are scalars or (tasks, 1) columns.  Each
    expression keeps the operation order of ``NodeModel.predict_time_s``
    and ``predict_energy_j``, so every element is the float a scalar loop
    gives.
    """
    per_gop, slope, intercept, node_cores = coef
    share = cores / node_cores
    np.minimum(share, 1.0, out=share)
    time_s = per_gop * gops / share
    energy_j = slope * gops
    energy_j += intercept
    np.maximum(energy_j, 0.0, out=energy_j)
    return time_s, energy_j


def _blend(time_s, energy_j, weight, feasible: Optional[np.ndarray] = None):
    """(normalised time, normalised energy, weighted score).

    Each row normalises by its candidate-set maximum; with ``feasible``
    (tasks x nodes) infeasible cells count as 0.0, as the scalar loop's
    maxima also start from 0.0.  A zero maximum divides by 1.0.
    """
    if feasible is None:
        peaks = (np.maximum.reduce(time_s) or 1.0, np.maximum.reduce(energy_j) or 1.0)
    else:
        peaks = np.where(feasible, (time_s, energy_j), 0.0).max(axis=2, keepdims=True)
        peaks[peaks == 0.0] = 1.0
    normalised_time = time_s / peaks[0]
    normalised_energy = energy_j / peaks[1]
    score = (1.0 - weight) * normalised_time + weight * normalised_energy
    return normalised_time, normalised_energy, score


class HeatsScheduler:
    """Heterogeneity- and energy-aware scheduler with exact array scoring.

    Every float keeps the scalar formula's operation order, so decisions
    are bit-identical to scoring the candidates one by one.
    """

    name = "heats"
    supports_rescheduling = True

    def __init__(
        self,
        models: PredictionModelSet,
        config: Optional[HeatsConfig] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.models = models
        self.config = config if config is not None else HeatsConfig()
        # (key, coef, status): coefficient columns valid for one
        # (cluster, layout version, model-set version) key.
        self._columns_memo: Optional[tuple] = None
        # Placement instruments are bound once; shard schedulers sharing a
        # registry aggregate into the same pair of instruments.
        if metrics is not None:
            self._m_place_calls = metrics.counter("heats.place_calls")
            self._m_candidates = metrics.histogram("heats.candidates")
        else:
            self._m_place_calls = None
            self._m_candidates = None

    def _columns(self, cluster: Cluster) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(coef, status)`` of every workload, aligned to ``cluster``'s rows.

        ``coef`` is (workloads, 4, rows): time_s_per_gop, energy_slope,
        energy_intercept, node_cores, with ones on unusable and tombstoned
        rows.  ``status`` holds each (workload, row)'s ``_USABLE`` /
        ``_NO_MODEL`` / ``_NO_WORKLOAD``, or is None when all are usable.
        """
        key = (cluster, cluster.layout_version, self.models.version)
        if self._columns_memo is None or self._columns_memo[0] != key:
            flats = [self.models.flat_for(kind) for kind in WorkloadKind]
            names = cluster.row_names()
            coef = np.array(
                [[flat.get(n, (1.0, 1.0, 1.0, 1)) for n in names] for flat in flats],
                dtype=np.float64,
            )
            status = np.array(
                [
                    [
                        _USABLE if n is None or n in flat
                        else _NO_MODEL if self.models.get(n) is None
                        else _NO_WORKLOAD
                        for n in names
                    ]
                    for flat in flats
                ],
                dtype=np.int8,
            )
            self._columns_memo = (
                key,
                np.ascontiguousarray(coef.transpose(0, 2, 1)),
                status if status.any() else None,
            )
        return self._columns_memo[1:]

    def score_candidates(
        self,
        request: TaskRequest,
        candidates: Sequence[ClusterNode],
        energy_weight: Optional[float] = None,
    ) -> List[NodeScore]:
        """Score candidate nodes for one request, best (lowest) first.

        The full breakdown behind a decision, for callers holding node
        objects (the federation's cross-shard migration, tools, tests).
        Nodes without a learned model are skipped; a model lacking the
        request's workload raises ``KeyError``.

        Args:
            request: the task to score.
            candidates: the nodes to score it on, in any order.
            energy_weight: overrides ``request.energy_weight``.

        Returns:
            One :class:`NodeScore` per scored node, sorted by
            ``(score, node)`` -- the same tie-break as :meth:`place`.
        """
        flat = self.models.flat_for(request.workload)
        names: List[str] = []
        entries = []
        for node in candidates:
            entry = flat.get(node.name)
            if entry is None:
                if self.models.get(node.name) is None:
                    continue
                raise _no_workload(node.name, request.workload)
            names.append(node.name)
            entries.append(entry)
        if not names:
            return []
        weight = request.energy_weight if energy_weight is None else energy_weight
        coef = np.array(entries, dtype=np.float64).T
        time_s, energy_j = _predict(coef, request.gops, request.cores)
        blended = _blend(time_s, energy_j, weight)
        scored = sorted(
            zip(names, time_s.tolist(), energy_j.tolist(), *(a.tolist() for a in blended)),
            key=lambda entry: (entry[5], entry[0]),  # (score, node)
        )
        return [NodeScore(*entry) for entry in scored]

    # ------------------------------------------------------------------ #
    # Scheduler interface used by the cluster simulator
    # ------------------------------------------------------------------ #
    def place(self, request: TaskRequest, cluster: Cluster, time_s: float) -> Optional[str]:
        """Pick a node for a new request; None when nothing can host it now.

        Zero or one feasible candidate returns at once.  Otherwise the
        candidates' coefficients are gathered in node-name order and
        scored in one pass; ``argmin``'s first occurrence is exactly the
        ``(score, name)`` tie-break.

        Args:
            request: the task to place.
            cluster: the cluster to place into.
            time_s: simulation time of the placement attempt.

        Returns:
            The best-scoring feasible node's name, or None.
        """
        # Inline hit on the cluster's per-shape feasibility memo (the
        # dominant case on serving traffic: a handful of distinct request
        # shapes between capacity changes); misses fall through to the
        # vectorised pass, which populates it.
        names = cluster._shape_feasibility.get((request.cores, request.memory_gib))
        if names is None:
            names = cluster.feasible_node_names(request.cores, request.memory_gib)
        if self._m_place_calls is not None:
            self._m_place_calls.inc()
            self._m_candidates.record(float(len(names)))
        if not names:
            return None
        workload = request.workload
        if len(names) == 1:
            name = names[0]
            if name in self.models.flat_for(workload):
                return name
            if self.models.get(name) is None:
                return None
            raise _no_workload(name, workload)
        coef, status = self._columns(cluster)
        kind = _KIND_INDEX[workload]
        rows = cluster.candidate_rows(names)
        if status is not None:
            status = status[kind, rows]
            wrong = rows[status == _NO_WORKLOAD]
            if len(wrong):
                # The first in row order, as a scan of ``names`` meets it.
                raise _no_workload(cluster.row_names()[wrong.min()], workload)
            rows = rows[status == _USABLE]
            if not len(rows):
                return None
        time_s, energy_j = _predict(
            [column[rows] for column in coef[kind]], request.gops, request.cores
        )
        score = _blend(time_s, energy_j, request.energy_weight)[2]
        return cluster.row_names()[rows[score.argmin()]]

    def reschedule(
        self,
        running: Sequence[Placement],
        cluster: Cluster,
        time_s: float,
    ) -> List[Tuple[str, str]]:
        """Return (task_id, target_node) migrations that improve the fit.

        Each task is scored against the nodes that can host it now plus
        its current host (even when full), every one of them on the
        task's full ``request.gops`` -- not its remaining work.  A task
        migrates when the best node (ties to the smaller name) beats its
        host by more than the migration threshold; a task whose host has
        no learned model stays.  All tasks are scored in one masked
        tasks x nodes pass (host columns forced on).

        Returns:
            Migrations in ``running`` order.
        """
        if not running:
            return []
        requests = [placement.request for placement in running]
        order = cluster.name_order()
        row_names = cluster.row_names()
        column_of = np.empty(len(row_names), dtype=np.intp)
        column_of[order] = np.arange(len(order))
        # An unknown host raises KeyError here.
        hosts = column_of[[cluster._row_of[placement.node] for placement in running]]
        tasks = np.arange(len(running))
        feasible = cluster.feasible_shape_matrix(
            np.array([r.cores for r in requests], dtype=np.int64),
            np.array([r.memory_gib for r in requests], dtype=np.float64),
        )[:, order]
        feasible[tasks, hosts] = True
        coef, status = self._columns(cluster)
        kinds = np.array([_KIND_INDEX[r.workload] for r in requests])
        if status is not None:
            status = status[kinds][:, order]
            wrong = feasible & (status == _NO_WORKLOAD)
            if wrong.any():
                task, column = np.argwhere(wrong)[0]
                raise _no_workload(row_names[order[column]], requests[task].workload)
            feasible &= status == _USABLE  # a model-less host stays
        time_s, energy_j = _predict(
            coef[kinds][:, :, order].transpose(1, 0, 2),
            np.array([[r.gops] for r in requests]),
            np.array([[float(r.cores)] for r in requests]),
        )
        weight = np.array([[r.energy_weight] for r in requests])
        score = _blend(time_s, energy_j, weight, feasible)[2]
        score[~feasible] = np.inf
        best = score.argmin(axis=1)
        movers = np.flatnonzero((best != hosts) & feasible[tasks, hosts])
        improvement = score[movers, hosts[movers]] - score[movers, best[movers]]
        threshold = self.config.migration_improvement_threshold
        return [
            (requests[task].task_id, row_names[order[best[task]]])
            for task in movers[improvement > threshold]
        ]

    @classmethod
    def with_learned_models(
        cls,
        cluster: Cluster,
        config: Optional[HeatsConfig] = None,
        noise_fraction: float = 0.05,
        seed: int = 7,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> "HeatsScheduler":
        """Run the profiling campaign on the cluster and build the scheduler."""
        campaign = ProfilingCampaign(cluster, noise_fraction=noise_fraction, seed=seed).run()
        return cls(models=campaign.fit(), config=config, metrics=metrics)

