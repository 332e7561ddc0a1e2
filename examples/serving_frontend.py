#!/usr/bin/env python3
"""Serving front-end demo: two tenants with different SLAs on one cluster.

A latency-sensitive tenant (energy weight 0.1, p99 SLO) and an
energy-frugal tenant (energy weight 0.9, tight rate limit) share the same
HEATS-scheduled cluster through the multi-tenant front-end: requests flow
through admission control (token buckets, bounded queues), are coalesced
into batches, placed by HEATS (exact array-native scoring), and reported
per tenant as p50/p95/p99 latency, throughput, rejection rate, and
energy per request.

The deployment is declared as a :class:`DeploymentSpec` and served
through a reusable :class:`Deployment` session: the cluster is profiled
once, then *two* workloads (the evening rush, then an overnight lull)
run against the same warm models -- the second serve
pays no cold start, which the session's telemetry counters prove.

Run with:  PYTHONPATH=src python examples/serving_frontend.py
"""

from __future__ import annotations

from repro import LegatoSystem, ServingWorkload
from repro.api import DeploymentSpec, ServingSpec, TopologySpec
from repro.serving import Tenant


def make_workload(offered_rps: float, seed: int) -> ServingWorkload:
    tenants = [
        Tenant(
            name="video-analytics",  # pays for performance, enforces a p99 SLO
            rate_limit_rps=40.0,
            burst=40,
            energy_weight=0.1,
            latency_slo_s=30.0,
        ),
        Tenant(
            name="sensor-fleet",  # trades latency for energy, tightly rate-limited
            rate_limit_rps=8.0,
            burst=8,
            energy_weight=0.9,
        ),
    ]
    return ServingWorkload.synthetic(
        tenants,
        endpoint_mix={
            "video-analytics": {"smartmirror": 0.6, "ml_inference": 0.4},
            "sensor-fleet": {"iot_gateway": 0.7, "ml_inference": 0.3},
        },
        offered_rps=offered_rps,
        duration_s=45.0,
        seed=seed,
    )


def print_report(report) -> None:
    print(f"overall: {report.completed}/{report.offered} served in "
          f"{report.batches} batches, {report.ops_per_sec:.1f} ops/sec, "
          f"p99 {report.p99_latency_s:.1f} s, "
          f"rejection rate {report.rejection_rate:.1%}, "
          f"{report.energy_per_request_j:.2f} J/request")

    print(f"\n{'tenant':<16s} {'served':>7s} {'reject':>7s} {'p50 (s)':>8s} "
          f"{'p95 (s)':>8s} {'p99 (s)':>8s} {'rps':>6s} {'J/req':>7s} {'SLO':>5s}")
    for name, tenant_report in report.tenant_reports.items():
        print(
            f"{name:<16s} {tenant_report.completed:>7d} "
            f"{tenant_report.rejection_rate:>6.1%} "
            f"{tenant_report.p50_latency_s:>8.2f} {tenant_report.p95_latency_s:>8.2f} "
            f"{tenant_report.p99_latency_s:>8.2f} {tenant_report.throughput_rps:>6.2f} "
            f"{tenant_report.energy_per_request_j:>7.2f} "
            f"{'met' if tenant_report.slo_met else 'MISS':>5s}"
        )


def main() -> None:
    spec = DeploymentSpec(
        name="frontend-demo",
        topology=TopologySpec(cluster_scale=2),
        serving=ServingSpec(max_batch_size=8, max_delay_s=1.5),
    )
    print("=== Deployment spec (overrides vs defaults) ===")
    for path, change in spec.diff().items():
        print(f"  {path}: {change['baseline']} -> {change['value']}")

    with LegatoSystem().deploy(spec) as deployment:
        rush = make_workload(offered_rps=30.0, seed=33)
        print(f"\n=== Evening rush: {len(rush.requests)} requests ===")
        print_report(deployment.serve(rush))

        lull = make_workload(offered_rps=6.0, seed=34)
        print(f"\n=== Overnight lull: {len(lull.requests)} requests "
              f"(same warm deployment) ===")
        print_report(deployment.serve(lull))

        metrics = deployment.metrics()
        print(f"\nsession: {metrics.counter('deployment.serve_runs'):.0f} serves, "
              f"{metrics.counter('deployment.profiling_campaigns'):.0f} profiling "
              f"campaign(s) -- the second serve reused the warm models")

    print(
        "\nThe performance tenant gets fast nodes and low latency; the eco "
        "tenant's energy-leaning weight routes its batches to efficient nodes "
        "(lower J/request, higher latency) and its token bucket sheds the "
        "traffic burst above 8 rps."
    )


if __name__ == "__main__":
    main()
