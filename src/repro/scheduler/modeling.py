"""HEATS modeling component: learn per-node performance and energy models.

Fig. 7's *Modeling* box runs "software probing (workloads)" followed by a
"learning phase".  The reproduction does the same thing with an explicit
two-step campaign:

1. **Probing** -- run small probe tasks of each workload kind, at several
   sizes, on every node of the cluster, recording the observed run time and
   energy (with measurement noise, because real probes are noisy).
2. **Learning** -- fit, per (node, workload kind), a linear model
   ``time ≈ a * gops / cores_share`` and ``energy ≈ b * gops + c`` by least
   squares over the probe observations.

The learned :class:`PredictionModelSet` is what the scheduler queries when
scoring candidate nodes; it never reads the ground-truth profile directly,
so prediction error is part of the simulated behaviour, as it is in the real
system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.microserver import WorkloadKind
from repro.scheduler.cluster import Cluster, ClusterNode
from repro.scheduler.workload import TaskRequest


@dataclass(frozen=True)
class ProbeObservation:
    """One probe run on one node."""

    node: str
    workload: WorkloadKind
    gops: float
    cores: int
    observed_time_s: float
    observed_energy_j: float


@dataclass
class NodeModel:
    """Learned per-node linear predictors, one pair per workload kind."""

    node: str
    time_seconds_per_gop: Dict[WorkloadKind, float] = field(default_factory=dict)
    energy_joules_per_gop: Dict[WorkloadKind, float] = field(default_factory=dict)
    energy_intercept_j: Dict[WorkloadKind, float] = field(default_factory=dict)
    node_cores: int = 1

    def predict_time_s(self, request: TaskRequest) -> float:
        """Predicted run time of a request on this node."""
        if request.workload not in self.time_seconds_per_gop:
            raise KeyError(
                f"node {self.node} has no learned model for workload {request.workload.value}"
            )
        per_gop = self.time_seconds_per_gop[request.workload]
        share = min(1.0, request.cores / self.node_cores)
        if share <= 0:
            raise ValueError("core share must be positive")
        return per_gop * request.gops / share

    def predict_energy_j(self, request: TaskRequest) -> float:
        if request.workload not in self.energy_joules_per_gop:
            raise KeyError(
                f"node {self.node} has no learned model for workload {request.workload.value}"
            )
        slope = self.energy_joules_per_gop[request.workload]
        intercept = self.energy_intercept_j[request.workload]
        return max(0.0, slope * request.gops + intercept)


class PredictionModelSet:
    """All learned node models, keyed by node name."""

    def __init__(self, models: Mapping[str, NodeModel]) -> None:
        if not models:
            raise ValueError("model set must not be empty")
        self._models = dict(models)
        #: lazily built per-workload scoring parameters (see
        #: :meth:`flat_for`); cleared whenever membership changes.
        self._flat: Dict[WorkloadKind, Dict[str, Tuple[float, float, float, int]]] = {}
        self._version = 0

    def model(self, node_name: str) -> NodeModel:
        if node_name not in self._models:
            raise KeyError(f"no learned model for node {node_name!r}")
        return self._models[node_name]

    def get(self, node_name: str) -> Optional[NodeModel]:
        """The node's model, or None when none was learned (hot-path
        alternative to a ``in`` check followed by :meth:`model`)."""
        return self._models.get(node_name)

    @property
    def version(self) -> int:
        """Counter bumped by every :meth:`add` / :meth:`remove`."""
        return self._version

    def flat_for(self, workload: WorkloadKind) -> Dict[str, Tuple[float, float, float, int]]:
        """Scoring parameters for one workload, flattened per node.

        Maps ``node -> (time_s_per_gop, energy_slope_j_per_gop,
        energy_intercept_j, node_cores)`` for exactly the nodes holding a
        learned model of ``workload`` -- what HEATS builds its coefficient
        columns from.
        Built lazily and invalidated on :meth:`add`/:meth:`remove`; the
        per-model parameter maps themselves are written only when models
        are (re)learned, which always goes through those methods.
        """
        flat = self._flat.get(workload)
        if flat is None:
            flat = {
                name: (
                    model.time_seconds_per_gop[workload],
                    model.energy_joules_per_gop[workload],
                    model.energy_intercept_j[workload],
                    model.node_cores,
                )
                for name, model in self._models.items()
                if workload in model.time_seconds_per_gop
            }
            self._flat[workload] = flat
        return flat

    def add(self, model: NodeModel) -> None:
        """Merge a newly learned node model (elastic scale-up).

        Args:
            model: the model for a node joining the cluster; replaces any
                stale model recorded under the same node name.
        """
        self._models[model.node] = model
        self._flat.clear()
        self._version += 1

    def remove(self, node_name: str) -> None:
        """Drop a node's model (elastic scale-down).

        Args:
            node_name: the departing node; unknown names are ignored so
                removal is idempotent.
        """
        self._models.pop(node_name, None)
        self._flat.clear()
        self._version += 1

    def __contains__(self, node_name: str) -> bool:
        return node_name in self._models

    def nodes(self) -> List[str]:
        return list(self._models)

    def predict(self, node_name: str, request: TaskRequest) -> Tuple[float, float]:
        """(time_s, energy_j) prediction for placing ``request`` on a node."""
        model = self.model(node_name)
        return model.predict_time_s(request), model.predict_energy_j(request)


#: process-wide count of probing campaigns run; deployment sessions record
#: deltas of it so warm-model reuse ("no re-profiling") is assertable.
_campaign_runs = 0


def profiling_run_count() -> int:
    """How many probing campaigns have run in this process.

    Returns:
        The process-wide :meth:`ProfilingCampaign.run` invocation count.
    """
    return _campaign_runs


class ProfilingCampaign:
    """Runs the probing phase and fits the prediction models."""

    #: probe sizes in Gop used for every (node, workload) pair.
    PROBE_SIZES = (10.0, 50.0, 200.0, 800.0)

    def __init__(
        self,
        cluster: "Cluster | Sequence[ClusterNode]",
        noise_fraction: float = 0.05,
        seed: int = 7,
        probe_cores: int = 1,
    ) -> None:
        # ``cluster`` may be a Cluster or any iterable of nodes: probing a
        # single node joining an elastic shard must not require wrapping it
        # in a throwaway Cluster (which would subscribe a stray listener).
        if not (0.0 <= noise_fraction < 1.0):
            raise ValueError("noise fraction must be in [0, 1)")
        if probe_cores <= 0:
            raise ValueError("probes need at least one core")
        self.cluster = cluster
        self.noise_fraction = noise_fraction
        self.probe_cores = probe_cores
        self.rng = np.random.default_rng(seed)
        self.observations: List[ProbeObservation] = []

    # ------------------------------------------------------------------ #
    # Probing
    # ------------------------------------------------------------------ #
    def probe_node(self, node: ClusterNode, workload: WorkloadKind) -> List[ProbeObservation]:
        """Run the probe battery for one workload kind on one node."""
        observations: List[ProbeObservation] = []
        cores = min(self.probe_cores, node.spec.cores)
        for gops in self.PROBE_SIZES:
            true_time = node.execution_time_s(workload, gops, cores)
            true_energy = node.energy_for(workload, gops, cores)
            time_noise = 1.0 + self.rng.normal(0.0, self.noise_fraction)
            energy_noise = 1.0 + self.rng.normal(0.0, self.noise_fraction)
            observations.append(
                ProbeObservation(
                    node=node.name,
                    workload=workload,
                    gops=gops,
                    cores=cores,
                    observed_time_s=max(1e-9, true_time * time_noise),
                    observed_energy_j=max(0.0, true_energy * energy_noise),
                )
            )
        self.observations.extend(observations)
        return observations

    def run(self, workloads: Optional[Sequence[WorkloadKind]] = None) -> "ProfilingCampaign":
        """Probe every node for every workload kind."""
        global _campaign_runs
        _campaign_runs += 1
        workloads = list(workloads) if workloads is not None else list(WorkloadKind)
        for node in self.cluster:
            for workload in workloads:
                self.probe_node(node, workload)
        return self

    # ------------------------------------------------------------------ #
    # Learning
    # ------------------------------------------------------------------ #
    def fit(self) -> PredictionModelSet:
        """Least-squares fit of the per-(node, workload) linear predictors."""
        if not self.observations:
            raise RuntimeError("run the probing phase before fitting models")
        models: Dict[str, NodeModel] = {}
        for node in self.cluster:
            models[node.name] = NodeModel(node=node.name, node_cores=node.spec.cores)
        grouped: Dict[Tuple[str, WorkloadKind], List[ProbeObservation]] = {}
        for observation in self.observations:
            grouped.setdefault((observation.node, observation.workload), []).append(observation)
        for (node_name, workload), group in grouped.items():
            gops = np.array([o.gops for o in group])
            cores = np.array([o.cores for o in group], dtype=float)
            node_cores = models[node_name].node_cores
            share = np.minimum(1.0, cores / node_cores)
            times = np.array([o.observed_time_s for o in group])
            energies = np.array([o.observed_energy_j for o in group])
            # time = a * gops / share  ->  a by least squares through origin.
            predictor = gops / share
            a = float(np.dot(predictor, times) / np.dot(predictor, predictor))
            # energy = b * gops + c  ->  ordinary least squares.
            design = np.vstack([gops, np.ones_like(gops)]).T
            (b, c), *_ = np.linalg.lstsq(design, energies, rcond=None)
            model = models[node_name]
            model.time_seconds_per_gop[workload] = max(a, 1e-12)
            model.energy_joules_per_gop[workload] = float(b)
            model.energy_intercept_j[workload] = float(c)
        return PredictionModelSet(models)

    def prediction_error(self, models: PredictionModelSet) -> Dict[str, float]:
        """Mean absolute percentage error of the time model per node."""
        errors: Dict[str, List[float]] = {}
        for observation in self.observations:
            request = TaskRequest(
                task_id="probe",
                arrival_s=0.0,
                workload=observation.workload,
                gops=observation.gops,
                cores=observation.cores,
                memory_gib=0.1,
            )
            predicted, _ = models.predict(observation.node, request)
            errors.setdefault(observation.node, []).append(
                abs(predicted - observation.observed_time_s) / observation.observed_time_s
            )
        return {node: float(np.mean(values)) for node, values in errors.items()}
