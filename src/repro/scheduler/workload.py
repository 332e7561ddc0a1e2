"""Task requests and workload generation for the scheduler experiments.

A :class:`TaskRequest` is what a HEATS customer submits: resource demands
(cores, memory), the work to do (a workload kind and amount), and the
energy/performance trade-off weight the customer asks for (0 = pure
performance, 1 = pure energy saving).  The :class:`WorkloadGenerator`
produces reproducible synthetic arrival streams mixing the application
classes the paper's use cases represent (ML inference, analytics, streaming,
crypto for the secure IoT gateway, and scalar service tasks).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.microserver import WorkloadKind


@dataclass(frozen=True)
class TaskRequest:
    """One schedulable request submitted to the cluster.

    ``tenant`` identifies the serving customer the request belongs to (None
    for anonymous benchmark streams); the federation layer uses it to keep
    a tenant's traffic on its affinity shard.
    """

    task_id: str
    arrival_s: float
    workload: WorkloadKind
    gops: float
    cores: int
    memory_gib: float
    energy_weight: float = 0.5
    deadline_s: Optional[float] = None
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival time must be non-negative")
        if self.gops <= 0:
            raise ValueError("work must be positive")
        if self.cores <= 0 or self.memory_gib <= 0:
            raise ValueError("resource demands must be positive")
        if not (0.0 <= self.energy_weight <= 1.0):
            raise ValueError("energy weight must be within [0, 1]")
        if self.deadline_s is not None and self.deadline_s <= self.arrival_s:
            raise ValueError("deadline must be after arrival")


@dataclass(frozen=True)
class WorkloadMix:
    """Relative frequency of each workload kind in a generated stream."""

    weights: Mapping[WorkloadKind, float]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("workload mix must contain at least one kind")
        if any(weight < 0 for weight in self.weights.values()):
            raise ValueError("mix weights must be non-negative")
        if sum(self.weights.values()) <= 0:
            raise ValueError("mix weights must not all be zero")

    @staticmethod
    def cloud_default() -> "WorkloadMix":
        """A cloud-style blend: mostly scalar services plus analytics and ML."""
        return WorkloadMix(
            {
                WorkloadKind.SCALAR: 0.35,
                WorkloadKind.DATA_PARALLEL: 0.25,
                WorkloadKind.DNN_INFERENCE: 0.2,
                WorkloadKind.STREAMING: 0.1,
                WorkloadKind.CRYPTO: 0.05,
                WorkloadKind.MEMORY_BOUND: 0.05,
            }
        )

    @staticmethod
    def ml_heavy() -> "WorkloadMix":
        return WorkloadMix(
            {
                WorkloadKind.DNN_INFERENCE: 0.6,
                WorkloadKind.DATA_PARALLEL: 0.3,
                WorkloadKind.SCALAR: 0.1,
            }
        )

    def kinds_and_probabilities(self) -> Tuple[List[WorkloadKind], np.ndarray]:
        kinds = list(self.weights.keys())
        probabilities = np.array([self.weights[k] for k in kinds], dtype=float)
        return kinds, probabilities / probabilities.sum()


#: per-workload (gops_low, gops_high, cores_low, cores_high, mem_low, mem_high)
_TASK_SHAPES: Dict[WorkloadKind, Tuple[float, float, int, int, float, float]] = {
    WorkloadKind.SCALAR: (20.0, 200.0, 1, 2, 0.5, 2.0),
    WorkloadKind.DATA_PARALLEL: (200.0, 2000.0, 2, 8, 1.0, 8.0),
    WorkloadKind.DNN_INFERENCE: (300.0, 3000.0, 2, 4, 1.0, 6.0),
    WorkloadKind.STREAMING: (100.0, 1500.0, 1, 4, 0.5, 4.0),
    WorkloadKind.CRYPTO: (50.0, 500.0, 1, 2, 0.5, 1.0),
    WorkloadKind.MEMORY_BOUND: (50.0, 600.0, 1, 4, 2.0, 12.0),
}


class WorkloadGenerator:
    """Reproducible synthetic arrival streams."""

    def __init__(
        self,
        mix: Optional[WorkloadMix] = None,
        mean_interarrival_s: float = 5.0,
        energy_weight: float = 0.5,
        seed: int = 2020,
    ) -> None:
        if mean_interarrival_s <= 0:
            raise ValueError("mean inter-arrival time must be positive")
        if not (0.0 <= energy_weight <= 1.0):
            raise ValueError("energy weight must be within [0, 1]")
        self.mix = mix if mix is not None else WorkloadMix.cloud_default()
        self.mean_interarrival_s = mean_interarrival_s
        self.energy_weight = energy_weight
        self.rng = np.random.default_rng(seed)
        self._ids = itertools.count()

    def generate(self, count: int) -> List[TaskRequest]:
        """Generate ``count`` requests with Poisson arrivals."""
        if count <= 0:
            raise ValueError("request count must be positive")
        kinds, probabilities = self.mix.kinds_and_probabilities()
        requests: List[TaskRequest] = []
        time_s = 0.0
        for _ in range(count):
            time_s += float(self.rng.exponential(self.mean_interarrival_s))
            kind = kinds[int(self.rng.choice(len(kinds), p=probabilities))]
            gops_low, gops_high, cores_low, cores_high, mem_low, mem_high = _TASK_SHAPES[kind]
            gops = float(self.rng.uniform(gops_low, gops_high))
            cores = int(self.rng.integers(cores_low, cores_high + 1))
            memory = float(self.rng.uniform(mem_low, mem_high))
            requests.append(
                TaskRequest(
                    task_id=f"task-{next(self._ids)}",
                    arrival_s=time_s,
                    workload=kind,
                    gops=gops,
                    cores=cores,
                    memory_gib=round(memory, 2),
                    energy_weight=self.energy_weight,
                )
            )
        return requests

    def generate_batch_at(self, count: int, arrival_s: float = 0.0) -> List[TaskRequest]:
        """Generate ``count`` requests all arriving at the same instant."""
        requests = self.generate(count)
        return [
            TaskRequest(
                task_id=request.task_id,
                arrival_s=arrival_s,
                workload=request.workload,
                gops=request.gops,
                cores=request.cores,
                memory_gib=request.memory_gib,
                energy_weight=request.energy_weight,
                tenant=request.tenant,
            )
            for request in requests
        ]
