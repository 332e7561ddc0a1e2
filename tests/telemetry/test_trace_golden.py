"""Golden span streams: the recorded trace of two small serves, pinned.

Each test serves a small traced workload and hashes the full span stream
-- ``[span.to_dict() for span in report.trace_spans]``, so names,
span/parent/trace ids, start and end times, and annotations in their key
order -- and compares it with the digest the per-``Span``-object tracer
produced before spans became table rows.  The summary the report embeds
is pinned the same way.

The single-cluster serve runs twice on one deployment (span ids keep
counting across drains) and covers gateway rejections, a request no node
can host (a ``dropped`` request and an ``unplaced`` task).
The federated serve runs a chaos scenario under an autoscaler and
covers migrations, chaos and autoscale events.
"""

from __future__ import annotations

import hashlib
from typing import List

from repro.api import (
    AutoscaleSpec,
    Deployment,
    DeploymentSpec,
    SchedulerSpec,
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
)
from repro.serving import Tenant
from repro.serving.gateway import ServingRequest
from repro.serving.loop import ServingReport, ServingWorkload

SINGLE_SPANS_SHA256 = "d96a5b4e666a70883917c5100e9776d7f35f2bd9e001473d3aa68fcab365f256"
SINGLE_SUMMARY_SHA256 = "b1bf92cd03b122887a52339675b7c1572f157d1aebbdc9853e22aabec8823183"
FEDERATED_SPANS_SHA256 = "e3ac5eeeb03f57c83b6792afd60b236af2fb57808113225d4a016c70f846c193"
FEDERATED_SUMMARY_SHA256 = "037fa50041ed0f7b04ab85074ac68de6d8b99b8c535e91241219213730bc4899"

TENANTS = (
    Tenant(name="acme", rate_limit_rps=8.0, burst=8, energy_weight=0.2, latency_slo_s=60.0),
    Tenant(name="globex", rate_limit_rps=20.0, burst=20, energy_weight=0.8),
)
MIX = {
    "acme": {"ml_inference": 0.7, "smartmirror": 0.3},
    "globex": {"iot_gateway": 0.8, "ml_inference": 0.2},
}


def _sha256(payload: object) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _spans_digest(reports: List[ServingReport]) -> str:
    return _sha256([[span.to_dict() for span in report.trace_spans] for report in reports])


def _summary_digest(reports: List[ServingReport]) -> str:
    return _sha256([report.summary()["trace"] for report in reports])


def _spec(name: str, shards: int, **sections: object) -> DeploymentSpec:
    return DeploymentSpec(
        name=name,
        topology=TopologySpec(cluster_scale=shards, shards=shards),
        serving=ServingSpec(max_batch_size=2, max_delay_s=0.5),
        scheduler=SchedulerSpec(rescheduling_interval_s=1.0),
        telemetry=TelemetrySpec(enabled=True, tracing=True),
        **sections,
    )


def _workload(seed: int) -> ServingWorkload:
    base = ServingWorkload.synthetic(TENANTS, MIX, offered_rps=30.0, duration_s=20.0, seed=seed)
    oversized = ServingRequest(
        request_id=f"huge-{seed}",
        tenant="globex",
        use_case="huge",
        arrival_s=5.0,
        workload=WorkloadKind.SCALAR,
        gops=10.0,
        cores=4096,
        memory_gib=1.0,
    )
    return ServingWorkload(tenants=TENANTS, requests=base.requests + (oversized,))


def single_cluster_reports() -> List[ServingReport]:
    """Two traced serves on one single-cluster deployment."""
    deployment = Deployment.from_spec(_spec("golden-single", 1))
    try:
        return [deployment.serve(_workload(seed)) for seed in (3, 4)]
    finally:
        deployment.close()


def federated_reports() -> List[ServingReport]:
    """One traced chaos scenario on an autoscaled two-shard federation."""
    scenario = ScenarioSpec(
        name="golden-federated",
        duration_s=30.0,
        traffic=(
            TenantTrafficSpec(
                name="burst",
                arrival=ArrivalSpec(
                    kind="flash_crowd", rate_rps=10.0, spike_rps=40.0,
                    spike_start_s=10.0, spike_duration_s=8.0,
                ),
                endpoint_mix=(("ml_inference", 0.6), ("iot_gateway", 0.4)),
                rate_limit_rps=15.0,
                burst=15,
            ),
        ),
        chaos=ChaosSchedule(events=(
            ChaosEventSpec(kind="node_failure", at_s=12.0),
            ChaosEventSpec(kind="partition", at_s=15.0, duration_s=8.0),
        )),
        sizes=ParetoSpec(alpha=1.6, lower=0.5, upper=3.0),
        deadlines=ParetoSpec(alpha=2.0, lower=0.8, upper=2.5),
        seed=SeedPolicy(base=11),
    )
    deployment = Deployment.from_spec(
        _spec("golden-federated", 2, autoscale=AutoscaleSpec(enabled=True, control_interval_s=2.0))
    )
    try:
        return [deployment.run_scenario(scenario).report]
    finally:
        deployment.close()


def test_single_cluster_span_stream_is_pinned():
    reports = single_cluster_reports()
    names = {span.name for report in reports for span in report.trace_spans}
    verdicts = {
        span.annotations.get("verdict")
        for report in reports
        for span in report.trace_spans
        if span.name in ("request", "task")
    }
    assert {"request.gateway", "task.pending", "task.execute"} <= names
    assert {"completed", "dropped", "unplaced", "rejected_rate_limit"} <= verdicts
    # The second serve's ids continue where the first serve's stopped.
    assert reports[1].trace_spans[0].span_id == len(reports[0].trace_spans)
    assert _spans_digest(reports) == SINGLE_SPANS_SHA256
    assert _summary_digest(reports) == SINGLE_SUMMARY_SHA256


def test_federated_span_stream_is_pinned():
    reports = federated_reports()
    names = {span.name for span in reports[0].trace_spans}
    assert "task.migrate" in names
    assert any(name.startswith("chaos.") for name in names)
    assert any(name.startswith("autoscale.") for name in names)
    assert _spans_digest(reports) == FEDERATED_SPANS_SHA256
    assert _summary_digest(reports) == FEDERATED_SUMMARY_SHA256
