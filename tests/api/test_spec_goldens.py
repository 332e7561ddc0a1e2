"""Spec goldens: pinned report digests for the three backend shapes.

``LegatoSystem.deploy(spec)`` is the one serving entry point.  These
tests pin, for one spec per backend shape (single cluster, federation,
autoscaled federation), the SHA-256 of everything a run reports --
``(summary(), latencies_s, completions_s, simulation.summary())`` plus
the federation's routing stats or the autoscaler's report -- so any
change to what a seeded spec serves shows up as a digest mismatch.
Floats ``repr`` exactly, so equal digests mean bit-identical runs.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import DeploymentSpec, LegatoSystem, ServingWorkload
from repro.api import (
    AutoscaleSpec,
    SchedulerSpec,
    ServingSpec,
    TelemetrySpec,
    TopologySpec,
)
from repro.core.seeding import SeedPolicy
from repro.scheduler.heats import HeatsConfig
from repro.serving import BatchPolicy, Tenant

SINGLE_REPORT = "afb611e11661144229c5a41431ed8e2f68bd4f85f081cc1d91e4c7c557bc4cc0"
FEDERATED_REPORT = "f4fbd877281262313a0828e1e51e6cb9246a469b4bc9212aa04a34ace5f7288e"
FEDERATION_STATS = "9167f997917355d9c94b9b01cb728c3fe00236fe512abe4f68968581b23137c0"
AUTOSCALED_REPORT = "b032a87efbd5281b2d0cdc6b7ad57f1e94ad00d7078fac11a39efc436c57f6de"
AUTOSCALE_REPORT = "ebe0fcaa71e2057906d57488e22582df0c53b854ba7742acc96cdd68035147d1"


def _tenants():
    return [
        Tenant(name="video", rate_limit_rps=30.0, burst=30, energy_weight=0.1,
               latency_slo_s=120.0),
        Tenant(name="sensors", rate_limit_rps=12.0, burst=12, energy_weight=0.9,
               region="eu-north"),
    ]


def _workload(seed: int = 21) -> ServingWorkload:
    return ServingWorkload.synthetic(
        _tenants(),
        {
            "video": {"smartmirror": 0.5, "ml_inference": 0.5},
            "sensors": {"iot_gateway": 0.7, "ml_inference": 0.3},
        },
        offered_rps=14.0,
        duration_s=15.0,
        seed=seed,
    )


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _report_digest(report) -> str:
    return _digest(
        (
            report.summary(),
            report.latencies_s,
            report.completions_s,
            report.simulation.summary(),
        )
    )


def _single_spec() -> DeploymentSpec:
    return DeploymentSpec(
        name="legato",
        topology=TopologySpec(cluster_scale=2, seed=SeedPolicy(base=11)),
        serving=ServingSpec.from_batch_policy(
            BatchPolicy(max_batch_size=8, max_delay_s=1.5)
        ),
    )


def _federated_spec() -> DeploymentSpec:
    return DeploymentSpec(
        topology=TopologySpec(cluster_scale=4, shards=2, seed=SeedPolicy(base=13)),
        scheduler=SchedulerSpec.from_heats_config(
            HeatsConfig(migration_improvement_threshold=0.1)
        ),
    )


def _autoscaled_spec() -> DeploymentSpec:
    return DeploymentSpec(
        topology=TopologySpec(cluster_scale=1, seed=SeedPolicy(base=17)),
        autoscale=AutoscaleSpec(enabled=True),
        telemetry=TelemetrySpec(enabled=True),
    )


#: shape -> (spec builder, workload seed, pinned report digest).
GOLDENS = {
    "single": (_single_spec, 21, SINGLE_REPORT),
    "federated": (_federated_spec, 22, FEDERATED_REPORT),
    "autoscaled": (_autoscaled_spec, 23, AUTOSCALED_REPORT),
}


class TestSpecGoldens:
    def test_single_cluster_golden(self):
        report = LegatoSystem().deploy(_single_spec()).serve(_workload())
        assert report.federation_stats is None
        assert _report_digest(report) == SINGLE_REPORT

    def test_federated_golden(self):
        report = LegatoSystem().deploy(_federated_spec()).serve(_workload(seed=22))
        assert _report_digest(report) == FEDERATED_REPORT
        assert _digest(report.federation_stats.summary()) == FEDERATION_STATS

    def test_autoscaled_golden(self):
        report = LegatoSystem().deploy(_autoscaled_spec()).serve(_workload(seed=23))
        assert _report_digest(report) == AUTOSCALED_REPORT
        assert _digest(report.autoscale_report.summary()) == AUTOSCALE_REPORT

    @pytest.mark.parametrize("shape", sorted(GOLDENS))
    def test_golden_survives_a_toml_round_trip(self, shape):
        build, seed, digest = GOLDENS[shape]
        spec = DeploymentSpec.from_toml(build().to_toml())
        assert spec == build()
        report = LegatoSystem().deploy(spec).serve(_workload(seed=seed))
        assert _report_digest(report) == digest

    def test_non_divisible_topology_is_rejected(self):
        spec = DeploymentSpec(topology=TopologySpec(cluster_scale=3, shards=2))
        with pytest.raises(ValueError, match="divisible"):
            LegatoSystem().deploy(spec)

    def test_federated_shards_profile_with_policy_seeds(self):
        spec = DeploymentSpec(
            topology=TopologySpec(cluster_scale=3, shards=3, seed=SeedPolicy(base=31))
        )
        deployment = LegatoSystem().deploy(spec)
        federation = deployment.backend.federation
        policy = SeedPolicy(base=31)
        assert [shard.seed for shard in federation.shards] == [
            policy.shard_seed(index) for index in range(3)
        ]
        report = deployment.serve(_workload(seed=25))
        assert report.completed > 0
        assert report.federation_stats.placements > 0

    def test_autoscaled_backend_attaches_its_controller(self):
        spec = DeploymentSpec(
            topology=TopologySpec(cluster_scale=2, shards=2),
            autoscale=AutoscaleSpec(enabled=True),
            telemetry=TelemetrySpec(enabled=True),
        )
        deployment = LegatoSystem().deploy(spec)
        scaler = deployment.backend.autoscaler
        assert scaler.federation.scheduler.autoscaler is scaler
        assert [shard.seed for shard in scaler.federation.shards] == [
            SeedPolicy().shard_seed(index) for index in range(2)
        ]
        report = deployment.serve(_workload(seed=26))
        assert report.autoscale_report is not None


class TestSeedPolicyCentralisation:
    def test_shard_seeds_match_the_historic_rule(self):
        policy = SeedPolicy()
        # The documented, centralised rules reproduce the magic numbers
        # they replaced: base 7, shard stride 101, probe stride 1009.
        assert [policy.shard_seed(index) for index in range(4)] == [7, 108, 209, 310]
        assert policy.probe_seed(policy.shard_seed(1), 0) == 108 + 1009

    def test_grow_node_probes_with_the_policy_seed(self):
        deployment = LegatoSystem().deploy(DeploymentSpec.preset("federated"))
        federation = deployment.backend.federation
        shard = federation.shards[0]
        node = shard.grow_node("xeon-d-x86")
        assert node.name.endswith("auto0-xeon-d-x86")
        assert shard.grown_nodes == 1
