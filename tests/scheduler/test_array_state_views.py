"""Array/object-view consistency for the structured-array state tables.

The array-native core keeps node capacity in one numpy structured array
(the cluster's ``NODE_DTYPE`` table) and task progress in another (the
placement engine's ``TASK_DTYPE`` table), with the historical ``Node`` /
``Placement`` objects reduced to thin views.  Two suites pin the
contract:

* the feasibility oracle (``has_feasible_node``) can never go stale
  across elastic topology changes -- ``add_node`` / ``remove_node`` /
  ``grow_node`` must be visible to the very next query (the regression
  the retired per-bucket max-free-memory cache was at risk of);
* every view field round-trips through the arrays bit-for-bit after
  placement, progress, migration, throttle-style blocking windows, and
  node removal (including chaos-driven removals via the
  ``repro.scenarios`` actuator).
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.microserver import MICROSERVER_CATALOG, WorkloadKind
from repro.scenarios.chaos import ClusterActuator
from repro.scheduler.cluster import Cluster, ClusterNode
from repro.scheduler.placement import PlacementEngine
from repro.scheduler.workload import TaskRequest


def _request(index: int, cores: int = 1, memory_gib: float = 1.0, gops: float = 50.0):
    return TaskRequest(
        task_id=f"task-{index}",
        arrival_s=float(index),
        workload=WorkloadKind.SCALAR,
        gops=gops,
        cores=cores,
        memory_gib=memory_gib,
    )


def _oracle_agrees(cluster: Cluster, cores: int, memory_gib: float) -> None:
    """The three feasibility surfaces must answer identically."""
    oracle = cluster.has_feasible_node(cores, memory_gib)
    names = cluster.feasible_node_names(cores, memory_gib)
    nodes = cluster.feasible_nodes(cores, memory_gib)
    assert oracle == bool(names) == bool(nodes)
    assert [node.name for node in nodes] == list(names)
    # Ground truth: the per-node object check.
    expected = sorted(
        node.name for node in cluster if node.can_host(cores, memory_gib)
    )
    assert sorted(names) == expected


class TestFeasibilityOracleInvalidation:
    """Elastic topology changes must invalidate feasibility immediately."""

    def test_add_node_is_visible_to_the_next_query(self):
        cluster = Cluster.from_models({"apalis-arm-soc": 1})
        big = (64, 128.0)
        assert not cluster.has_feasible_node(*big)
        cluster.add_node(
            ClusterNode(name="fat-node", spec=MICROSERVER_CATALOG["xeon-d-x86"])
        )
        _oracle_agrees(cluster, *big)
        # The Xeon has what the SoC lacks; the oracle must see it now.
        small = (1, 0.5)
        _oracle_agrees(cluster, *small)

    def test_remove_node_is_visible_to_the_next_query(self):
        cluster = Cluster.from_models({"apalis-arm-soc": 1, "xeon-d-x86": 1})
        xeon = next(n for n in cluster if n.spec.model == "xeon-d-x86")
        shape = (xeon.total.cores, xeon.total.memory_gib)
        assert cluster.has_feasible_node(*shape)
        cluster.remove_node(xeon.name)
        assert not cluster.has_feasible_node(*shape)
        _oracle_agrees(cluster, *shape)

    def test_chaos_removal_through_the_scenarios_actuator(self):
        cluster = Cluster.from_models({"apalis-arm-soc": 2})
        actuator = ClusterActuator(cluster)
        victim = actuator.failure_candidates()[0]
        assert actuator.remove_node(victim)
        _oracle_agrees(cluster, 1, 0.5)
        assert victim not in [node.name for node in cluster]

    def test_grow_node_is_visible_to_the_next_query(self):
        from repro.federation.policy import ShardProfile
        from repro.federation.shard import ClusterShard

        shard = ClusterShard.build(0, ShardProfile("eu-north", 0.08), scale=1)
        cluster = shard.cluster
        # Saturate every node so nothing can host a 1-core request.
        requests = []
        for index, node in enumerate(cluster):
            request = _request(
                index, cores=node.available.cores,
                memory_gib=node.available.memory_gib,
            )
            node.reserve(request.task_id, request.cores, request.memory_gib)
            requests.append((node, request))
        assert not cluster.has_feasible_node(1, 0.25)
        grown = shard.grow_node("xeon-d-x86")
        # The autoscaler's grow path must be feasible immediately.
        assert cluster.has_feasible_node(1, 0.25)
        _oracle_agrees(cluster, 1, 0.25)
        assert grown.name in [n for n in cluster.feasible_node_names(1, 0.25)]
        for node, request in requests:
            node.release(request.task_id)
        _oracle_agrees(cluster, 1, 0.25)

    def test_reserve_and_release_keep_the_oracle_exact(self):
        cluster = Cluster.from_models({"apalis-arm-soc": 2})
        node = cluster.nodes[0]
        shape = (node.available.cores, node.available.memory_gib)
        node.reserve("t0", *shape)
        _oracle_agrees(cluster, *shape)
        node.release("t0")
        _oracle_agrees(cluster, *shape)


def _assert_node_views(cluster: Cluster) -> None:
    for node in cluster:
        row = cluster.node_row(node.name)
        assert int(row["free_cores"]) == node.available.cores
        assert float(row["free_memory"]) == node.available.memory_gib
        assert int(row["total_cores"]) == node.total.cores
        assert float(row["total_memory"]) == node.total.memory_gib
        assert float(row["idle_power"]) == node.spec.idle_power_w
        assert float(row["dynamic_power"]) == (
            node.spec.peak_power_w - node.spec.idle_power_w
        )
        assert bool(row["active"])
    snapshot = cluster.capacity()
    assert snapshot.free_cores == sum(node.available.cores for node in cluster)
    assert snapshot.total_cores == sum(node.total.cores for node in cluster)
    assert snapshot.free_memory_gib == pytest.approx(
        sum(node.available.memory_gib for node in cluster)
    )


def _assert_task_views(engine: PlacementEngine) -> None:
    for placement in engine.running:
        rec = placement.row_record()
        assert float(rec["start_s"]) == placement.start_s
        assert float(rec["expected_finish_s"]) == placement.expected_finish_s
        assert float(rec["work_done_gops"]) == placement.work_done_gops
        assert float(rec["segment_base_gops"]) == placement.segment_base_gops
        assert int(rec["migrations"]) == placement.migrations
        assert float(rec["energy_j"]) == placement.energy_j
        assert float(rec["segment_start_s"]) == placement.segment_start_s
        assert float(rec["first_start_s"]) == placement.first_start_s
        assert int(rec["completion_version"]) == placement.completion_version
        assert bool(rec["active"])
        assert placement.node in [node.name for node in engine.cluster]


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(
            ["place", "migrate", "complete", "chaos_remove", "add", "throttle"]
        ),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=4,
    max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(ops=ops_strategy)
def test_view_fields_round_trip_through_the_arrays(ops):
    """Drive random placement/migration/removal churn; after every op the
    object views and the structured-array rows must agree exactly."""
    cluster = Cluster.from_models({"apalis-arm-soc": 2, "xeon-d-x86": 1})
    engine = PlacementEngine(cluster)
    actuator = ClusterActuator(cluster)
    time_s = 0.0
    next_task = 0
    added = 0
    #: nodes inside a simulated thermal-throttle window -- placement skips
    #: them exactly as the chaos engine's ``is_blocked`` filter does.
    throttled: List[str] = []

    for op, pick in ops:
        time_s += 1.0
        if op == "place":
            request = _request(next_task, cores=1 + pick % 2,
                               memory_gib=[0.5, 1.0, 2.0][pick % 3])
            next_task += 1
            names = [
                name
                for name in cluster.feasible_node_names(
                    request.cores, request.memory_gib
                )
                if name not in throttled
            ]
            if names:
                placement = engine.instantiate(
                    request, names[pick % len(names)], time_s
                )
                placement.set_segment(time_s, placement.node)
        elif op == "migrate":
            running = engine.running
            if running:
                placement = running[pick % len(running)]
                request = placement.request
                targets = [
                    name
                    for name in cluster.feasible_node_names(
                        request.cores, request.memory_gib
                    )
                    if name != placement.node
                ]
                if targets:
                    event = engine.migrate(
                        request.task_id, targets[pick % len(targets)], time_s
                    )
                    placement.set_segment(
                        event.time_s + event.downtime_s, event.target
                    )
        elif op == "complete":
            running = engine.running
            if running:
                placement = running[pick % len(running)]
                detached = engine.complete(placement.request.task_id, time_s)
                # Detached views must survive row recycling untouched.
                assert detached.work_done_gops == detached.request.gops
        elif op == "chaos_remove":
            idle = [n.name for n in cluster.idle_nodes()]
            candidates = [n for n in actuator.failure_candidates() if n in idle]
            if candidates:
                assert actuator.remove_node(candidates[pick % len(candidates)])
        elif op == "add":
            model = ["apalis-arm-soc", "xeon-d-x86"][pick % 2]
            cluster.add_node(
                ClusterNode(
                    name=f"grown-{added}", spec=MICROSERVER_CATALOG[model]
                )
            )
            added += 1
        elif op == "throttle":
            names = [node.name for node in cluster]
            if pick % 2 and throttled:
                throttled.pop()  # window closes
            else:
                throttled.append(names[pick % len(names)])

        _assert_node_views(cluster)
        _assert_task_views(engine)
        _oracle_agrees(cluster, 1, 0.5)
        _oracle_agrees(cluster, 2, 2.0)
