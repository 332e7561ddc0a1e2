"""The three named serving workloads the benchmark replays.

Each workload pairs a fixed :class:`~repro.api.DeploymentSpec` (its
deployment seed never changes, so only the generated inputs vary with
``--seed``) with a request generator driven by the workload seed, and
one serve step that goes through the public ``repro.api`` entry points.

* ``flash_crowd_64`` -- memory-bound flash crowd on 64 nodes: memory
  saturates while cores stay free, so batches queue and the event loop,
  the pending-retry gate and placement dominate host time.
* ``wide_512`` -- Poisson traffic below capacity on 512 nodes: nearly
  every batch places on its first attempt over hundreds of candidates,
  so HEATS scoring dominates and the retry gate idles.
* ``federated_chaos`` -- an autoscaled 4-shard federation under a
  rate-limited flash crowd, a diurnal tenant and five chaos injections:
  the only workload that drives the router, the autoscaler, the chaos
  layer, gateway rejections and the program's own request tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.api import Deployment, DeploymentSpec
from repro.api.spec import (
    AutoscaleSpec,
    ServingSpec,
    TelemetrySpec,
    TopologySpec,
)
from repro.core.seeding import SeedPolicy
from repro.hardware.microserver import WorkloadKind
from repro.scenarios import (
    ArrivalSpec,
    ChaosEventSpec,
    ChaosSchedule,
    ParetoSpec,
    ScenarioSpec,
    TenantTrafficSpec,
    build_workload,
)
from repro.scenarios.chaos import ChaosReport
from repro.scenarios.runner import chaos_session
from repro.serving import ServingReport, ServingWorkload, Tenant
from repro.serving.gateway import ServingRequest

#: flash_crowd_64 size: 100 requests per simulated second, the rate of
#: the core-speed benchmark's 10k-request point, over ten times as long.
FLASH_REQUESTS, FLASH_DURATION_S = 100_000, 1000.0
#: wide_512 size: Poisson arrivals below the 512-node cluster's capacity,
#: long enough that the last tasks' run times (tens of seconds) move the
#: horizon, and so the idle energy, by only a few percent between seeds.
WIDE_REQUESTS, WIDE_RATE_RPS = 6000, 20.0
#: every request carries a deadline, so each completion is an SLA hit or
#: miss; these are long enough never to force an early batch flush.
FLASH_DEADLINE_S, WIDE_DEADLINE_S = 600.0, 60.0
#: federated_chaos arrival window (about 120k offered requests).
CHAOS_DURATION_S = 2400.0


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs (made once per seed, untimed)."""

    workload: ServingWorkload
    #: the scenario whose chaos schedule wraps the serve, if any.
    scenario: Optional[ScenarioSpec] = None


@dataclass(frozen=True)
class Workload:
    """A named workload: deployment spec, generator and why it exists."""

    name: str
    why: str
    spec: DeploymentSpec
    generate: Callable[[int], Inputs]


def _flash_tenants() -> Tuple[Tenant, ...]:
    # Admission wide open: every offered request reaches placement.
    return (
        Tenant(name="analytics", rate_limit_rps=10000.0, burst=8000,
               energy_weight=0.3),
        Tenant(name="training", rate_limit_rps=10000.0, burst=8000,
               energy_weight=0.6),
    )


def flash_crowd_inputs(
    seed: int, count: int = FLASH_REQUESTS, duration_s: float = FLASH_DURATION_S
) -> Inputs:
    """Memory-bound flash crowd: 2-7 GiB demands on 4-8 GiB SoC nodes.

    Args:
        seed: the workload seed.
        count: number of requests.
        duration_s: arrival window (uniform arrivals).

    Returns:
        The generated inputs.
    """
    tenants = _flash_tenants()
    rng = np.random.default_rng(seed)
    kinds = (WorkloadKind.MEMORY_BOUND, WorkloadKind.SCALAR, WorkloadKind.STREAMING)
    arrivals = np.sort(rng.uniform(0.0, duration_s, count))
    gops = rng.uniform(20.0, 80.0, count)
    cores = rng.choice([1, 2, 4], count)
    memory = rng.choice([2.0, 3.0, 5.0, 7.0], count)
    requests = [
        ServingRequest(
            request_id=f"r{index:06d}",
            tenant=tenants[index % len(tenants)].name,
            use_case=f"uc{index % 6}",
            arrival_s=float(arrivals[index]),
            workload=kinds[index % len(kinds)],
            gops=float(gops[index]),
            cores=int(cores[index]),
            memory_gib=float(memory[index]),
            deadline_s=float(arrivals[index]) + FLASH_DEADLINE_S,
        )
        for index in range(count)
    ]
    return Inputs(ServingWorkload(tenants=tenants, requests=requests))


def wide_inputs(seed: int) -> Inputs:
    """Poisson arrivals mixed over every workload kind and shape.

    Args:
        seed: the workload seed.

    Returns:
        The generated inputs.
    """
    tenants = tuple(
        Tenant(name=name, rate_limit_rps=1000.0, burst=1000, energy_weight=weight)
        for name, weight in (("interactive", 0.2), ("mixed", 0.4), ("batch", 0.6))
    )
    rng = np.random.default_rng(seed)
    kinds = tuple(WorkloadKind)
    count = WIDE_REQUESTS
    arrivals = np.cumsum(rng.exponential(1.0 / WIDE_RATE_RPS, count))
    kind_index = rng.integers(len(kinds), size=count)
    gops = rng.uniform(5.0, 60.0, count)
    cores = rng.choice([1, 2, 4], count)
    memory = rng.choice([0.5, 1.0, 2.0], count)
    requests = [
        ServingRequest(
            request_id=f"w{index:06d}",
            tenant=tenants[index % len(tenants)].name,
            use_case=f"uc{index % 5}",
            arrival_s=float(arrivals[index]),
            workload=kinds[int(kind_index[index])],
            gops=float(gops[index]),
            cores=int(cores[index]),
            memory_gib=float(memory[index]),
            deadline_s=float(arrivals[index]) + WIDE_DEADLINE_S,
        )
        for index in range(count)
    ]
    return Inputs(ServingWorkload(tenants=tenants, requests=requests))


def chaos_scenario(seed: int) -> ScenarioSpec:
    """Flash crowd plus diurnal tenant, Pareto sizes, five injections.

    The seed drives arrivals and request attributes.

    Args:
        seed: the workload seed.

    Returns:
        The validated scenario.
    """
    return ScenarioSpec(
        name="federated_chaos",
        duration_s=CHAOS_DURATION_S,
        traffic=(
            # Rate-limited: the spike outruns the token bucket, so the
            # gateway rejects part of it by design.
            TenantTrafficSpec(
                name="crowd",
                arrival=ArrivalSpec(
                    kind="flash_crowd", rate_rps=20.0, spike_rps=120.0,
                    spike_start_s=900.0, spike_duration_s=120.0,
                ),
                endpoint_mix=(("ml_inference", 0.6), ("smartmirror", 0.4)),
                rate_limit_rps=60.0,
                burst=200,
                energy_weight=0.3,
            ),
            TenantTrafficSpec(
                name="diurnal",
                arrival=ArrivalSpec(
                    kind="diurnal", rate_rps=25.0, amplitude=0.6, period_s=800.0
                ),
                endpoint_mix=(("iot_gateway", 0.5), ("ml_inference", 0.5)),
                rate_limit_rps=100.0,
                burst=200,
                energy_weight=0.7,
            ),
        ),
        # Fixed victims, one shard after another in schedule order, so a
        # seed changes the traffic but never what chaos hits.
        chaos=ChaosSchedule(events=(
            ChaosEventSpec(kind="node_failure", at_s=600.0,
                           target="shard0-1-xeon-d-x86"),
            ChaosEventSpec(kind="thermal_throttle", at_s=700.0, duration_s=300.0,
                           target="shard1-1-xeon-d-x86"),
            ChaosEventSpec(kind="node_failure", at_s=1000.0,
                           target="shard2-1-xeon-d-x86"),
            ChaosEventSpec(kind="price_spike", at_s=1200.0, duration_s=400.0,
                           target="shard-3-apac-east"),
            # The autoscaler finalises this drain as a shard removal (a
            # known defect): the run ends below min_shards, and the heal at
            # 1700 s finds no shard to reinstate.
            ChaosEventSpec(kind="partition", at_s=1500.0, duration_s=200.0,
                           target="shard-0-eu-north"),
        )),
        sizes=ParetoSpec(alpha=1.6, lower=0.5, upper=3.0),
        deadlines=ParetoSpec(alpha=2.0, lower=0.8, upper=2.5),
        seed=SeedPolicy(base=seed),
    ).check()


def chaos_inputs(seed: int) -> Inputs:
    """Materialise the chaos scenario's request stream.

    Args:
        seed: the workload seed.

    Returns:
        The generated inputs, carrying the scenario for the serve step.
    """
    scenario = chaos_scenario(seed)
    return Inputs(build_workload(scenario), scenario)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="flash_crowd_64",
            why="memory saturates while cores stay free, so batches queue "
                "and the event loop, retry gate and placement dominate",
            spec=DeploymentSpec(
                name="flash_crowd_64",
                topology=TopologySpec(cluster_scale=16),
                serving=ServingSpec(
                    max_batch_size=4, max_delay_s=1.0, memory_bucket_gib=1.0
                ),
            ),
            generate=flash_crowd_inputs,
        ),
        Workload(
            name="wide_512",
            why="nearly every batch places on its first attempt over "
                "hundreds of candidates, so HEATS scoring dominates",
            spec=DeploymentSpec(
                name="wide_512",
                # The default scheduler section: the score cache is on.
                topology=TopologySpec(cluster_scale=128),
            ),
            generate=wide_inputs,
        ),
        Workload(
            name="federated_chaos",
            why="the only workload driving the federation router, autoscaler, "
                "chaos layer, gateway rejections and request tracer",
            spec=DeploymentSpec(
                name="federated_chaos",
                topology=TopologySpec(cluster_scale=16, shards=4),
                autoscale=AutoscaleSpec(
                    enabled=True,
                    control_interval_s=5.0,
                    scale_up_cooldown_s=10.0,
                    min_shards=4,
                    max_shards=4,
                ),
                telemetry=TelemetrySpec(enabled=True, tracing=True),
            ),
            generate=chaos_inputs,
        ),
    )
}


def serve(
    deployment: Deployment, inputs: Inputs, clock: Callable[[], float]
) -> Tuple[ServingReport, ChaosReport, float]:
    """The one timed serve of a run.

    Args:
        deployment: a freshly built deployment.
        inputs: the generated inputs.
        clock: the host clock the serve is timed with.

    Returns:
        The serving report, what chaos did (empty without a scenario),
        and the host seconds of the serve call alone.
    """
    if inputs.scenario is None:
        start = clock()
        report = deployment.serve(inputs.workload)
        return report, ChaosReport(), clock() - start
    with chaos_session(deployment, inputs.scenario) as engine:
        start = clock()
        report = deployment.serve(inputs.workload)
        seconds = clock() - start
    return report, engine.report(), seconds
