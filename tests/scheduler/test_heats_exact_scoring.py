"""Differential tests: array-native HEATS scoring against a scalar oracle.

The oracle below is the per-candidate Python loop HEATS scored with
before scoring went array-native.  It lives only here.  The vectorised
``place`` and ``reschedule`` must return exactly what it returns --
the same node, the same migrations, the same exception -- over score
ties, single candidates, nodes without learned models, all-zero clipped
energies, full hosts, and elastic membership changes followed by table
compaction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.microserver import MICROSERVER_CATALOG, WorkloadKind
from repro.scheduler.cluster import Cluster, ClusterNode
from repro.scheduler.heats import HeatsConfig, HeatsScheduler, NodeScore
from repro.scheduler.modeling import PredictionModelSet, ProfilingCampaign
from repro.scheduler.placement import Placement
from repro.scheduler.workload import TaskRequest

MODELS = ("xeon-d-x86", "arm64-server", "jetson-gpu-soc", "apalis-arm-soc")


# ---------------------------------------------------------------------- #
# The scalar oracle
# ---------------------------------------------------------------------- #
def oracle_scores(
    models: PredictionModelSet,
    request: TaskRequest,
    names: Sequence[str],
    energy_weight: Optional[float] = None,
) -> List[NodeScore]:
    """Score candidate names one by one, best (lowest) first."""
    weight = request.energy_weight if energy_weight is None else energy_weight
    flat = models.flat_for(request.workload)
    predictions: List[Tuple[str, float, float]] = []
    max_time = 0.0
    max_energy = 0.0
    for name in names:
        entry = flat.get(name)
        if entry is None:
            if models.get(name) is None:
                continue
            raise KeyError(name)
        per_gop, slope, intercept, node_cores = entry
        share = request.cores / node_cores
        if share > 1.0:
            share = 1.0
        time_s = per_gop * request.gops / share
        energy_j = slope * request.gops + intercept
        if energy_j < 0.0:
            energy_j = 0.0
        if time_s > max_time:
            max_time = time_s
        if energy_j > max_energy:
            max_energy = energy_j
        predictions.append((name, time_s, energy_j))
    max_time = max_time or 1.0
    max_energy = max_energy or 1.0
    scores = [
        NodeScore(
            name,
            time_s,
            energy_j,
            time_s / max_time,
            energy_j / max_energy,
            (1.0 - weight) * (time_s / max_time) + weight * (energy_j / max_energy),
        )
        for name, time_s, energy_j in predictions
    ]
    scores.sort(key=lambda s: (s.score, s.node))
    return scores


def oracle_place(
    models: PredictionModelSet, request: TaskRequest, cluster: Cluster
) -> Optional[str]:
    names = [n.name for n in cluster.feasible_nodes(request.cores, request.memory_gib)]
    scored = oracle_scores(models, request, names)
    return scored[0].node if scored else None


def oracle_reschedule(
    models: PredictionModelSet,
    config: HeatsConfig,
    running: Sequence[Placement],
    cluster: Cluster,
) -> List[Tuple[str, str]]:
    migrations = []
    for placement in running:
        request = placement.request
        current = cluster.node(placement.node)
        candidates = cluster.feasible_nodes(request.cores, request.memory_gib)
        if current not in candidates:
            candidates = list(candidates) + [current]
        scored = oracle_scores(models, request, [n.name for n in candidates])
        if not scored:
            continue
        current_score = next((s for s in scored if s.node == placement.node), None)
        best = scored[0]
        if current_score is None or best.node == placement.node:
            continue
        if current_score.score - best.score > config.migration_improvement_threshold:
            migrations.append((request.task_id, best.node))
    return migrations


def outcome(call):
    """``("ok", value)`` or ``("KeyError", None)``: what a call did."""
    try:
        return ("ok", call())
    except KeyError:
        return ("KeyError", None)


# ---------------------------------------------------------------------- #
# Scenario generation
# ---------------------------------------------------------------------- #
requests = st.builds(
    lambda i, kind, gops, cores, memory, weight: TaskRequest(
        task_id=f"t{i}",
        arrival_s=0.0,
        workload=kind,
        gops=gops,
        cores=cores,
        memory_gib=memory,
        energy_weight=weight,
    ),
    st.integers(0, 10**6),
    st.sampled_from(list(WorkloadKind)),
    st.floats(0.5, 2000.0),
    st.sampled_from([1, 2, 4, 8]),
    st.sampled_from([0.25, 1.0, 2.0, 6.0]),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
)


@st.composite
def clusters(draw):
    """A cluster, its learned models, and random background occupancy.

    Zero profiling noise makes same-model nodes learn identical
    coefficients, so their scores tie exactly; with more than ten nodes,
    name order (``node-10-*`` < ``node-2-*``) differs from insertion order.
    """
    counts = draw(st.lists(st.integers(0, 4), min_size=4, max_size=4))
    if not any(counts):
        counts[0] = 1
    cluster = Cluster.from_models(dict(zip(MODELS, counts)))
    noise = draw(st.sampled_from([0.0, 0.05]))
    models = ProfilingCampaign(
        cluster, noise_fraction=noise, seed=draw(st.integers(0, 99))
    ).run().fit()
    for node in cluster:
        cores = draw(st.integers(0, node.total.cores))
        memory = draw(st.sampled_from([0.0, 0.5, 1.0])) * node.total.memory_gib
        if cores or memory:
            node.reserve(f"background-{node.name}", cores, memory)
    return cluster, models


def perturb_models(draw, cluster: Cluster, models: PredictionModelSet) -> None:
    """Drop some nodes' models, strip a workload, or zero every energy."""
    names = [node.name for node in cluster]
    for name in draw(st.lists(st.sampled_from(names), max_size=2, unique=True)):
        models.remove(name)
    if draw(st.booleans()):
        name = draw(st.sampled_from(names))
        model = models.get(name)
        if model is not None:
            kind = draw(st.sampled_from(list(WorkloadKind)))
            for table in (
                model.time_seconds_per_gop,
                model.energy_joules_per_gop,
                model.energy_intercept_j,
            ):
                table.pop(kind, None)
            models.add(model)
    if draw(st.booleans()):
        kind = draw(st.sampled_from(list(WorkloadKind)))
        for name in models.nodes():
            model = models.model(name)
            if kind in model.energy_joules_per_gop:
                model.energy_joules_per_gop[kind] = -1.0
                model.energy_intercept_j[kind] = -1.0
            models.add(model)


def place_tasks(draw, cluster: Cluster, count: int) -> List[Placement]:
    """Reserve ``count`` requests on random nodes that can host them."""
    running = []
    for index in range(count):
        request = draw(requests)
        request = TaskRequest(
            task_id=f"run{index}",
            arrival_s=0.0,
            workload=request.workload,
            gops=request.gops,
            cores=request.cores,
            memory_gib=request.memory_gib,
            energy_weight=request.energy_weight,
        )
        hosts = cluster.feasible_nodes(request.cores, request.memory_gib)
        if not hosts:
            continue
        host = draw(st.sampled_from(hosts))
        host.reserve(request.task_id, request.cores, request.memory_gib)
        running.append(Placement(request, host.name, 0.0, 1.0))
    return running


def grow_and_shrink(draw, cluster: Cluster, models: PredictionModelSet, warm) -> None:
    """Elastic churn: remove idle nodes, add fresh ones, then compact.

    ``warm`` runs after each step, so a memo that missed an invalidation
    would carry rows of the previous layout into the next one.
    """
    idle = [node.name for node in cluster.idle_nodes()]
    for name in draw(st.lists(st.sampled_from(idle), max_size=4, unique=True)) if idle else []:
        if len(cluster) > 1:
            cluster.remove_node(name)
            models.remove(name)
    warm()
    for index in range(draw(st.integers(0, 3))):
        model = draw(st.sampled_from(MODELS))
        node = ClusterNode(name=f"grown-{index}-{model}", spec=MICROSERVER_CATALOG[model])
        fitted = ProfilingCampaign([node], noise_fraction=0.0, seed=index).run().fit()
        models.add(fitted.model(node.name))
        cluster.add_node(node)
    warm()
    cluster._compact_table()


# ---------------------------------------------------------------------- #
# Properties
# ---------------------------------------------------------------------- #
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_place_matches_oracle(data):
    cluster, models = data.draw(clusters())
    perturb_models(data.draw, cluster, models)
    scheduler = HeatsScheduler(models)
    for request in data.draw(st.lists(requests, min_size=1, max_size=6)):
        expected = outcome(lambda: oracle_place(models, request, cluster))
        assert outcome(lambda: scheduler.place(request, cluster, 0.0)) == expected


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_reschedule_matches_oracle(data):
    cluster, models = data.draw(clusters())
    running = place_tasks(data.draw, cluster, data.draw(st.integers(0, 12)))
    perturb_models(data.draw, cluster, models)
    threshold = data.draw(st.sampled_from([0.0, 0.05, 0.15]))
    config = HeatsConfig(migration_improvement_threshold=threshold)
    scheduler = HeatsScheduler(models, config=config)
    expected = outcome(lambda: oracle_reschedule(models, config, running, cluster))
    assert outcome(lambda: scheduler.reschedule(running, cluster, 0.0)) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_warm_scheduler_tracks_elastic_churn_and_compaction(data):
    cluster, models = data.draw(clusters())
    scheduler = HeatsScheduler(models)
    running = place_tasks(data.draw, cluster, data.draw(st.integers(0, 6)))

    def warm():
        # Build the coefficient columns on the current layout.
        scheduler._columns(cluster)

    warm()
    grow_and_shrink(data.draw, cluster, models, warm)
    for request in data.draw(st.lists(requests, min_size=1, max_size=5)):
        assert scheduler.place(request, cluster, 1.0) == oracle_place(models, request, cluster)
    expected = oracle_reschedule(models, scheduler.config, running, cluster)
    assert scheduler.reschedule(running, cluster, 1.0) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_score_candidates_matches_oracle(data):
    cluster, models = data.draw(clusters())
    perturb_models(data.draw, cluster, models)
    nodes = data.draw(st.lists(st.sampled_from(cluster.nodes), unique_by=lambda n: n.name))
    request = data.draw(requests)
    weight = data.draw(st.one_of(st.none(), st.floats(0.0, 1.0)))
    scheduler = HeatsScheduler(models)
    expected = outcome(
        lambda: oracle_scores(models, request, [n.name for n in nodes], weight)
    )
    assert outcome(lambda: scheduler.score_candidates(request, nodes, weight)) == expected


# ---------------------------------------------------------------------- #
# Pinned cases
# ---------------------------------------------------------------------- #
def identical_nodes(names: Sequence[str]) -> Tuple[Cluster, PredictionModelSet]:
    spec = MICROSERVER_CATALOG["arm64-server"]
    cluster = Cluster(ClusterNode(name=name, spec=spec) for name in names)
    models = ProfilingCampaign(cluster, noise_fraction=0.0, seed=1).run().fit()
    return cluster, models


def make_request(task_id="t", gops=100.0, cores=1, memory=1.0, weight=0.5):
    return TaskRequest(
        task_id=task_id,
        arrival_s=0.0,
        workload=WorkloadKind.SCALAR,
        gops=gops,
        cores=cores,
        memory_gib=memory,
        energy_weight=weight,
    )


def test_exact_tie_resolves_to_smallest_name():
    cluster, models = identical_nodes(["node-b", "node-c", "node-a"])
    assert HeatsScheduler(models).place(make_request(), cluster, 0.0) == "node-a"


def test_single_candidate_returns_without_scoring():
    cluster, models = identical_nodes(["x", "y"])
    cluster.node("x").reserve("fill", cluster.node("x").total.cores, 0.0)
    assert HeatsScheduler(models).place(make_request(), cluster, 0.0) == "y"
    models.remove("y")
    assert HeatsScheduler(models).place(make_request(), cluster, 0.0) is None


def test_model_lacking_the_workload_raises():
    cluster, models = identical_nodes(["x", "y", "z"])
    model = models.model("y")
    for table in (
        model.time_seconds_per_gop,
        model.energy_joules_per_gop,
        model.energy_intercept_j,
    ):
        del table[WorkloadKind.SCALAR]
    models.add(model)
    with pytest.raises(KeyError, match="y"):
        HeatsScheduler(models).place(make_request(), cluster, 0.0)


def test_host_is_scored_on_the_full_request_gops():
    """Progress never shields a task: the host is scored on all its work.

    A task that is almost done migrates exactly as if it had just
    started, because every candidate, the host included, is scored on
    ``request.gops``.
    """
    cluster = Cluster.heats_testbed(scale=1)
    models = ProfilingCampaign(cluster, noise_fraction=0.0, seed=2).run().fit()
    scheduler = HeatsScheduler(models, HeatsConfig(migration_improvement_threshold=0.0))
    request = make_request(gops=400.0, weight=0.0)
    slowest = max(
        oracle_scores(models, request, [n.name for n in cluster]),
        key=lambda s: s.score,
    ).node
    cluster.node(slowest).reserve(request.task_id, request.cores, request.memory_gib)
    fresh = Placement(request, slowest, 0.0, 1.0, work_done_gops=0.0)
    nearly_done = Placement(request, slowest, 0.0, 1.0, work_done_gops=399.9)
    moved = scheduler.reschedule([fresh], cluster, 0.0)
    assert moved and moved[0][1] != slowest
    assert scheduler.reschedule([nearly_done], cluster, 0.0) == moved
    docstring = " ".join(HeatsScheduler.reschedule.__doc__.split())
    assert "full ``request.gops`` -- not its remaining work" in docstring


def test_compaction_invalidates_the_coefficient_columns():
    # Removing the first node leaves a tombstone; the grown fast node is
    # appended after it and moves down a row when the table compacts.
    cluster, models = identical_nodes(["a", "b", "c", "d"])
    scheduler = HeatsScheduler(models)
    cluster.remove_node("a")
    models.remove("a")
    fast = ClusterNode(name="fast", spec=MICROSERVER_CATALOG["xeon-d-x86"])
    models.add(ProfilingCampaign([fast], noise_fraction=0.0, seed=1).run().fit().model("fast"))
    cluster.add_node(fast)
    request = make_request(weight=0.0)
    assert scheduler.place(request, cluster, 0.0) == "fast"
    cluster._compact_table()
    assert scheduler.place(request, cluster, 0.0) == oracle_place(models, request, cluster) == "fast"
