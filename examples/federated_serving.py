#!/usr/bin/env python3
"""Federated serving demo: one spec, a sharded fleet, regional pricing.

Three tenants share a 4-shard federation (16 nodes total): a
latency-sensitive tenant, an energy-frugal tenant pinned by contract to
the cheap hydro-powered eu-north region, and a bursty batch tenant.
Requests are routed in two levels -- a cheap aggregate shard pick
(free CPU/memory, thermal headroom, energy price), then HEATS node
placement inside the chosen shard -- while tenant affinity keeps each
tenant's traffic on one shard.

The whole fleet is declared as one ``DeploymentSpec`` (the ``federated``
preset, re-batched) and the run streams through
``Deployment.serve_iter`` -- the per-tick report stream a live dashboard
would consume.

Run with:  PYTHONPATH=src python examples/federated_serving.py
"""

from __future__ import annotations

from dataclasses import replace

from repro import LegatoSystem, ServingWorkload
from repro.api import DeploymentSpec, ServingSpec
from repro.serving import Tenant


def main() -> None:
    tenants = [
        Tenant(name="video-analytics", rate_limit_rps=40.0, burst=40,
               energy_weight=0.1, latency_slo_s=60.0),
        Tenant(name="sensor-fleet", rate_limit_rps=15.0, burst=15,
               energy_weight=0.9, region="eu-north"),
        Tenant(name="batch-reports", rate_limit_rps=25.0, burst=50,
               energy_weight=0.6),
    ]
    workload = ServingWorkload.synthetic(
        tenants,
        endpoint_mix={
            "video-analytics": {"smartmirror": 0.6, "ml_inference": 0.4},
            "sensor-fleet": {"iot_gateway": 0.8, "ml_inference": 0.2},
            "batch-reports": {"ml_inference": 0.5, "iot_gateway": 0.5},
        },
        offered_rps=110.0,
        duration_s=40.0,
        seed=41,
    )

    spec = replace(
        DeploymentSpec.preset("federated"),
        serving=ServingSpec(max_batch_size=8, max_delay_s=1.5),
    )
    deployment = LegatoSystem().deploy(spec)
    topology = deployment.snapshot()["topology"]
    print(f"=== {len(workload.requests)} requests from {len(tenants)} tenants "
          f"across {len(topology['shards'])} shards ===")
    for shard in topology["shards"]:
        print(f"  {shard['name']:<22s} {shard['nodes']} nodes, "
              f"{shard['energy_price_per_kwh']:.2f} $/kWh "
              f"(profiling seed {shard['seed']})")

    print("\ndashboard stream (10 s ticks):")
    print(f"  {'window':>12s} {'arrived':>8s} {'done':>6s} {'total':>6s} "
          f"{'p95 (s)':>8s}")
    for tick in deployment.serve_iter(workload, tick_s=10.0):
        start, end = tick.start_s, tick.end_s
        print(f"  {start:5.0f}-{end:<5.0f}s {tick.arrivals:>8d} "
              f"{tick.completed:>6d} {tick.cumulative_completed:>6d} "
              f"{tick.p95_latency_s:>8.2f}")

    report = deployment.last_report
    print(f"\noverall: {report.completed}/{report.offered} served, "
          f"{report.ops_per_sec:.1f} ops/sec, p99 {report.p99_latency_s:.1f} s, "
          f"{report.energy_per_request_j:.2f} J/request")

    stats = report.federation_stats
    print("\nrouting:")
    for shard_name, count in sorted(stats.placements_by_shard.items()):
        print(f"  {shard_name:<22s} {count:>4d} batch placements")
    print(f"  affinity hit rate      {stats.affinity_hit_rate:.0%} "
          f"({stats.affinity_hits} hits / {stats.affinity_misses} misses)")
    print(f"  region-seeded tenants  {stats.region_seeded}")
    print(f"  cross-shard migrations {stats.cross_shard_migrations}")

    federation = deployment.backend.federation
    print(f"\n{'tenant':<16s} {'shard pin':>22s} {'served':>7s} "
          f"{'p99 (s)':>8s} {'J/req':>7s}")
    for name, tenant_report in report.tenant_reports.items():
        pin = federation.scheduler.affinity_shard(name) or "-"
        print(f"{name:<16s} {pin:>22s} {tenant_report.completed:>7d} "
              f"{tenant_report.p99_latency_s:>8.2f} "
              f"{tenant_report.energy_per_request_j:>7.2f}")

    print(
        "\nThe eco tenant lands on its contracted cheap-energy region, the "
        "others spread by load and price; every tenant sticks to one shard."
    )


if __name__ == "__main__":
    main()
