"""Cluster-level chaos injection through the existing scheduler seams.

Nothing in the simulator or federation knows about chaos.  The whole
layer rides on two seams that already exist:

* :class:`ChaosScheduler` wraps the real scheduler.  The simulator's
  reschedule heartbeat becomes the chaos clock -- every heartbeat first
  lets the :class:`ChaosEngine` trigger due injections and propose
  evacuation migrations, then runs the wrapped scheduler's own
  rescheduling pass (filtered so nothing lands on a blocked node).
  Placement of new requests is vetoed on blocked nodes the same way.
* An *actuator* adapts topology mutations to the backend at hand:
  :class:`ClusterActuator` speaks to a bare
  :class:`~repro.scheduler.cluster.Cluster`,
  :class:`FederationActuator` to a
  :class:`~repro.federation.federation.Federation` (which adds the
  shard-scoped injections: price spikes and partitions).

Injection kinds (see :data:`repro.scenarios.spec.CHAOS_KINDS`):

``node_failure``
    Permanent.  The victim is blocked, its tasks are evacuated over the
    following heartbeats, and the node is removed once idle -- so no
    completion is ever attributed to a dead node (an invariant the test
    suite checks).
``thermal_throttle``
    A window.  The victim accepts no new placements or migrations until
    the window closes; running tasks are untouched (heat slows intake,
    it does not kill work).
``price_spike``
    A window (federation only).  The shard's energy price is multiplied
    by ``magnitude`` and the scheduler's price normalisation rebuilt, so
    routing drifts away from the expensive region until restore.
``partition``
    A window (federation only).  The shard is drained (unreachable for
    routing, tasks evacuated) and reinstated at heal.

Every applied/skipped injection emits a ``chaos.<kind>`` trace event, so
the PR 8 live console and PR 6 trace summaries show faults inline with
the serving timeline.  Probabilistic events draw from the same seeded
:class:`~repro.runtime.fault_tolerance.FaultModel` the task-level
:class:`~repro.runtime.fault_tolerance.FaultInjector` uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.fault_tolerance import FaultModel
from repro.scenarios.spec import ChaosEventSpec, ChaosSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.federation import Federation
    from repro.scheduler.cluster import Cluster
    from repro.scheduler.placement import Placement
    from repro.telemetry.trace import Tracer

__all__ = [
    "ChaosEngine",
    "ChaosInjectionRecord",
    "ChaosReport",
    "ChaosScheduler",
    "ClusterActuator",
    "FederationActuator",
]


@dataclass(frozen=True)
class ChaosInjectionRecord:
    """What actually happened to one scheduled injection.

    Args:
        kind: the injection kind.
        scheduled_s: the spec's trigger instant.
        time_s: the heartbeat instant the engine acted.
        target: the resolved victim (node or shard), if any.
        status: ``applied``, ``healed``, ``removed``, ``suppressed``
            (probability draw said no), or ``skipped`` (not applicable
            on this backend / no eligible victim).
        detail: human-readable explanation for skips and heals.
    """

    kind: str
    scheduled_s: float
    time_s: float
    target: Optional[str]
    status: str
    detail: str = ""


@dataclass(frozen=True)
class ChaosReport:
    """Everything the chaos engine did during one scenario run.

    Args:
        records: per-injection outcomes in action order.
        dead_nodes: ``(node name, removal instant)`` for every node a
            ``node_failure`` actually removed.
    """

    records: Tuple[ChaosInjectionRecord, ...] = ()
    dead_nodes: Tuple[Tuple[str, float], ...] = ()

    def applied(self, kind: Optional[str] = None) -> Tuple[ChaosInjectionRecord, ...]:
        """The injections that actually fired.

        Args:
            kind: restrict to one injection kind (None = all kinds).

        Returns:
            Records with status ``applied``, filtered by kind.
        """
        return tuple(
            r
            for r in self.records
            if r.status == "applied" and (kind is None or r.kind == kind)
        )


class ClusterActuator:
    """Topology mutations against a bare single cluster.

    Shard-scoped injections (price spikes, partitions) have no meaning
    here and report themselves unsupported, which the engine records as
    a skipped injection rather than an error.

    Args:
        cluster: the cluster the scenario runs on.
    """

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster

    def failure_candidates(self) -> List[str]:
        """Nodes that may be killed without emptying the cluster.

        Returns:
            Node names, in cluster insertion order; empty when the
            cluster is at its one-node floor.
        """
        if len(self.cluster) <= 1:
            return []
        return [node.name for node in self.cluster]

    def remove_node(self, name: str) -> bool:
        """Try to remove an (evacuated) node.

        Args:
            name: the node to remove.

        Returns:
            True on removal; False while the node is still busy or the
            cluster refuses the shrink.
        """
        try:
            self.cluster.remove_node(name)
        except (ValueError, KeyError):
            return False
        return True

    def shard_names(self) -> List[str]:
        """Shards visible to shard-scoped injections (none here)."""
        return []

    def reprice(self, shard_name: str, multiplier: float) -> Optional[float]:
        """Unsupported on a single cluster.

        Args:
            shard_name: ignored.
            multiplier: ignored.

        Returns:
            None, signalling the injection should be skipped.
        """
        return None

    def restore_price(self, shard_name: str, price: float) -> None:
        """No-op counterpart of :meth:`reprice`."""

    def partition(self, shard_name: str) -> bool:
        """Unsupported on a single cluster.

        Args:
            shard_name: ignored.

        Returns:
            False, signalling the injection should be skipped.
        """
        return False

    def heal(self, shard_name: str) -> None:
        """No-op counterpart of :meth:`partition`."""


class FederationActuator:
    """Topology mutations against a federation (union of shards).

    Args:
        federation: the federation the scenario runs on.
    """

    def __init__(self, federation: "Federation") -> None:
        self.federation = federation

    def failure_candidates(self) -> List[str]:
        """Nodes whose shard stays above its one-node floor if they die.

        Returns:
            Node names across all shards with more than one node.
        """
        out: List[str] = []
        for shard in self.federation.shards:
            if len(shard.cluster) > 1:
                out.extend(node.name for node in shard.cluster)
        return out

    def remove_node(self, name: str) -> bool:
        """Try to shrink the owning shard by the (evacuated) node.

        Args:
            name: the node to remove.

        Returns:
            True on removal; False while the node is busy, unknown, or
            its shard is at the one-node floor.
        """
        try:
            shard_name = self.federation.scheduler.shard_of_node(name)
            return self.federation.shrink_node(shard_name, name) is not None
        except (ValueError, KeyError):
            return False

    def shard_names(self) -> List[str]:
        """All member shard names, in admission order."""
        return [shard.name for shard in self.federation.shards]

    def reprice(self, shard_name: str, multiplier: float) -> Optional[float]:
        """Multiply one shard's energy price.

        Args:
            shard_name: the shard whose region spikes.
            multiplier: factor applied to the current price.

        Returns:
            The pre-spike price (for restore), or None if the shard is
            unknown.
        """
        try:
            shard = self.federation.scheduler.shard(shard_name)
        except (ValueError, KeyError):
            return None
        previous = shard.profile.energy_price_per_kwh
        self.federation.reprice_shard(shard_name, previous * multiplier)
        return previous

    def restore_price(self, shard_name: str, price: float) -> None:
        """Put a shard's energy price back after a spike window.

        Args:
            shard_name: the shard to restore.
            price: the pre-spike price.
        """
        try:
            self.federation.reprice_shard(shard_name, price)
        except (ValueError, KeyError):
            pass

    def partition(self, shard_name: str) -> bool:
        """Cut a shard off from routing (drain without removal).

        Args:
            shard_name: the shard to partition.

        Returns:
            True when the drain began; False when the federation refuses
            (sole shard, already draining, unknown name).
        """
        if len(self.federation.shards) <= 1:
            return False
        try:
            self.federation.begin_drain(shard_name)
        except (ValueError, KeyError):
            return False
        return True

    def heal(self, shard_name: str) -> None:
        """Reinstate a partitioned shard into routing.

        Args:
            shard_name: the shard to heal.
        """
        try:
            self.federation.cancel_drain(shard_name)
        except (ValueError, KeyError):
            pass


class ChaosEngine:
    """Applies a :class:`~repro.scenarios.spec.ChaosSchedule` over a run.

    The engine is clocked by the simulator's reschedule heartbeat (via
    :class:`ChaosScheduler`), so injections land at the first heartbeat
    at or after their trigger instant -- the same granularity at which
    the wrapped scheduler itself observes the cluster.

    Args:
        schedule: the timed injections to apply.
        actuator: backend adapter (:class:`ClusterActuator` or
            :class:`FederationActuator`).
        rng: seeded generator for victim picks and probability draws.
        tracer: emits ``chaos.<event>`` spans (None = silent).
    """

    def __init__(
        self,
        schedule: ChaosSchedule,
        actuator,
        rng: np.random.Generator,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.actuator = actuator
        self.rng = rng
        self.tracer = tracer
        self._pending: List[ChaosEventSpec] = list(schedule.ordered())
        self._records: List[ChaosInjectionRecord] = []
        self._dead: List[Tuple[str, float]] = []
        # Node name -> reason; blocked nodes accept no placements and no
        # inbound migrations.
        self._blocked: Dict[str, str] = {}
        # Open windows, each (end_s, event, resolved target, restore payload).
        self._failing: Dict[str, ChaosEventSpec] = {}
        self._throttles: List[Tuple[float, str]] = []
        self._prices: List[Tuple[float, str, float]] = []
        self._partitions: List[Tuple[float, str]] = []
        self._seq = 0

    # ------------------------------------------------------------------ #
    # Queries used by the scheduler proxy
    # ------------------------------------------------------------------ #
    def is_blocked(self, node_name: str) -> bool:
        """Whether a node currently refuses placements and migrations.

        Args:
            node_name: the node to test.

        Returns:
            True while the node is failing or thermally throttled.
        """
        return node_name in self._blocked

    # ------------------------------------------------------------------ #
    # Heartbeat
    # ------------------------------------------------------------------ #
    def step(
        self,
        running: Sequence["Placement"],
        cluster: "Cluster",
        time_s: float,
    ) -> List[Tuple[str, str]]:
        """Advance chaos to ``time_s``; propose evacuation migrations.

        Called once per reschedule heartbeat, before the wrapped
        scheduler's own pass.

        Args:
            running: every live placement, as the simulator sees them.
            cluster: the cluster (or federation union) being served.
            time_s: the heartbeat instant.

        Returns:
            ``(task_id, target node)`` migrations evacuating failing
            nodes; applied by the simulator like any rescheduling
            decision.
        """
        self._close_windows(time_s)
        while self._pending and self._pending[0].at_s <= time_s:
            self._activate(self._pending.pop(0), running, cluster, time_s)
        decisions = self._evacuations(running, cluster)
        self._reap_idle_failures(running, time_s)
        return decisions

    def finish(self, time_s: float) -> None:
        """Close every still-open window so the backend stays reusable.

        Restores spiked prices, heals partitions, lifts throttles, and
        makes one last removal attempt for failing nodes (a node still
        busy at scenario end stays alive and is recorded as such).

        Args:
            time_s: the scenario end instant, used for heal records.
        """
        # The serving loop has already drained the tracer by the time the
        # session finishes; emitting here would bleed spans into the next
        # run's report, so end-of-run heals are recorded without spans.
        tracer, self.tracer = self.tracer, None
        try:
            self._finish(time_s)
        finally:
            self.tracer = tracer

    def _finish(self, time_s: float) -> None:
        for _, node in self._throttles:
            self._blocked.pop(node, None)
            self._record("thermal_throttle", time_s, time_s, node, "healed",
                         "window closed at scenario end")
        self._throttles.clear()
        for _, shard, price in self._prices:
            self.actuator.restore_price(shard, price)
            self._record("price_spike", time_s, time_s, shard, "healed",
                         "price restored at scenario end")
        self._prices.clear()
        for _, shard in self._partitions:
            self.actuator.heal(shard)
            self._record("partition", time_s, time_s, shard, "healed",
                         "healed at scenario end")
        self._partitions.clear()
        for node, event in list(self._failing.items()):
            if self.actuator.remove_node(node):
                self._dead.append((node, time_s))
                self._record(event.kind, event.at_s, time_s, node, "removed")
            else:
                self._record(event.kind, event.at_s, time_s, node, "skipped",
                             "victim still busy at scenario end; left alive")
            self._failing.pop(node, None)
            self._blocked.pop(node, None)

    def report(self) -> ChaosReport:
        """The run's injection outcomes.

        Returns:
            A frozen :class:`ChaosReport`.
        """
        return ChaosReport(
            records=tuple(self._records), dead_nodes=tuple(self._dead)
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _record(
        self,
        kind: str,
        scheduled_s: float,
        time_s: float,
        target: Optional[str],
        status: str,
        detail: str = "",
    ) -> None:
        self._records.append(
            ChaosInjectionRecord(kind, scheduled_s, time_s, target, status, detail)
        )
        if self.tracer is not None:
            suffix = {"applied": "", "removed": ".node_removed"}.get(status)
            if suffix is None:
                suffix = f".{status}"
            name = f"chaos.{kind}{suffix}" if status != "applied" else f"chaos.{kind}"
            self._seq += 1
            self.tracer.event(
                name,
                time_s,
                trace_id=f"chaos-{self._seq}",
                target=target or "",
                status=status,
                detail=detail,
            )

    def _fires(self, event: ChaosEventSpec) -> bool:
        """One seeded probability draw through the shared fault model."""
        fired, _ = FaultModel(
            fault_probability=event.probability, systematic_fraction=0.0
        ).draw(self.rng)
        return fired

    def _pick(self, candidates: List[str]) -> Optional[str]:
        if not candidates:
            return None
        ordered = sorted(candidates)
        return ordered[int(self.rng.integers(len(ordered)))]

    def _activate(
        self,
        event: ChaosEventSpec,
        running: Sequence["Placement"],
        cluster: "Cluster",
        time_s: float,
    ) -> None:
        if not self._fires(event):
            self._record(event.kind, event.at_s, time_s, event.target,
                         "suppressed", "probability draw said no")
            return
        if event.kind in ("node_failure", "thermal_throttle"):
            candidates = [
                name
                for name in self.actuator.failure_candidates()
                if name not in self._blocked
            ]
            if event.target is not None:
                candidates = [n for n in candidates if n == event.target]
            victim = self._pick(candidates)
            if victim is None:
                self._record(event.kind, event.at_s, time_s, event.target,
                             "skipped", "no eligible victim node")
                return
            self._blocked[victim] = event.kind
            if event.kind == "node_failure":
                self._failing[victim] = event
            else:
                self._throttles.append((time_s + event.duration_s, victim))
            self._record(event.kind, event.at_s, time_s, victim, "applied")
            return
        # Shard-scoped injections.
        shards = self.actuator.shard_names()
        if event.target is not None:
            shards = [s for s in shards if s == event.target]
        partitioned = {shard for _, shard in self._partitions}
        shards = [s for s in shards if s not in partitioned]
        victim = self._pick(shards)
        if victim is None:
            self._record(event.kind, event.at_s, time_s, event.target, "skipped",
                         "no eligible shard on this backend")
            return
        if event.kind == "price_spike":
            previous = self.actuator.reprice(victim, event.magnitude)
            if previous is None:
                self._record(event.kind, event.at_s, time_s, victim, "skipped",
                             "backend has no regional pricing")
                return
            self._prices.append((time_s + event.duration_s, victim, previous))
            self._record(event.kind, event.at_s, time_s, victim, "applied")
            return
        if not self.actuator.partition(victim):
            self._record(event.kind, event.at_s, time_s, victim, "skipped",
                         "shard cannot be partitioned")
            return
        self._partitions.append((time_s + event.duration_s, victim))
        self._record(event.kind, event.at_s, time_s, victim, "applied")

    def _close_windows(self, time_s: float) -> None:
        open_throttles: List[Tuple[float, str]] = []
        for end_s, node in self._throttles:
            if time_s >= end_s:
                self._blocked.pop(node, None)
                self._record("thermal_throttle", end_s, time_s, node, "healed")
            else:
                open_throttles.append((end_s, node))
        self._throttles = open_throttles
        open_prices: List[Tuple[float, str, float]] = []
        for end_s, shard, price in self._prices:
            if time_s >= end_s:
                self.actuator.restore_price(shard, price)
                self._record("price_spike", end_s, time_s, shard, "healed")
            else:
                open_prices.append((end_s, shard, price))
        self._prices = open_prices
        open_partitions: List[Tuple[float, str]] = []
        for end_s, shard in self._partitions:
            if time_s >= end_s:
                self.actuator.heal(shard)
                self._record("partition", end_s, time_s, shard, "healed")
            else:
                open_partitions.append((end_s, shard))
        self._partitions = open_partitions

    def _evacuations(
        self, running: Sequence["Placement"], cluster: "Cluster"
    ) -> List[Tuple[str, str]]:
        decisions: List[Tuple[str, str]] = []
        planned: Dict[str, int] = {}
        for placement in running:
            if placement.node not in self._failing:
                continue
            request = placement.request
            candidates = [
                node
                for node in cluster.feasible_nodes(request.cores, request.memory_gib)
                if node.name not in self._blocked
            ]
            if not candidates:
                continue
            # Spread this heartbeat's evacuations: fewest planned inbound
            # migrations wins, feasibility order breaks ties.
            target = min(candidates, key=lambda node: planned.get(node.name, 0))
            planned[target.name] = planned.get(target.name, 0) + 1
            decisions.append((request.task_id, target.name))
        return decisions

    def _reap_idle_failures(
        self, running: Sequence["Placement"], time_s: float
    ) -> None:
        occupied = {placement.node for placement in running}
        for node in list(self._failing):
            if node in occupied:
                continue
            event = self._failing[node]
            if self.actuator.remove_node(node):
                self._dead.append((node, time_s))
                self._failing.pop(node)
                self._blocked.pop(node, None)
                self._record(event.kind, event.at_s, time_s, node, "removed")


class ChaosScheduler:
    """Transparent scheduler wrapper that injects chaos at the seams.

    Placement and rescheduling pass through the wrapped scheduler;
    everything else (config, federation stats, autoscaler
    attachment, shard lookups) is delegated via ``__getattr__`` /
    ``__setattr__``, so the simulator, federation, and autoscaler all
    see the object they expect.

    Args:
        inner: the real scheduler to wrap.
        engine: the chaos engine clocking off this scheduler's
            heartbeats.
    """

    def __init__(self, inner, engine: ChaosEngine) -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_engine", engine)

    @property
    def supports_rescheduling(self) -> bool:
        """Always True: the heartbeat is the chaos clock."""
        return True

    @property
    def inner(self):
        """The wrapped scheduler (for restore after a scenario run)."""
        return self._inner

    @property
    def name(self) -> str:
        """The wrapped scheduler's name with a ``chaos+`` prefix."""
        return "chaos+" + getattr(self._inner, "name", type(self._inner).__name__)

    def place(
        self, request, cluster: "Cluster", time_s: float
    ) -> Optional[str]:
        """Place through the wrapped scheduler, vetoing blocked nodes.

        Args:
            request: the task to place.
            cluster: the cluster to place into.
            time_s: simulation time of the placement attempt.

        Returns:
            The wrapped scheduler's choice, or None when that choice is
            currently blocked (the request queues and retries).
        """
        node = self._inner.place(request, cluster, time_s)
        if node is not None and self._engine.is_blocked(node):
            return None
        return node

    def reschedule(
        self,
        running: Sequence["Placement"],
        cluster: "Cluster",
        time_s: float,
    ) -> List[Tuple[str, str]]:
        """Chaos first, then the wrapped scheduler's own pass.

        Args:
            running: every live placement.
            cluster: the cluster being served.
            time_s: the heartbeat instant.

        Returns:
            Evacuation migrations plus the wrapped scheduler's
            migrations, minus any that target a blocked node, touch a
            task chaos already claimed this heartbeat, or touch a task
            still inside a previous migration's downtime window (its
            checkpoint is mid-transfer; moving it again is meaningless
            and breaks span accounting).
        """
        restarting = {
            placement.request.task_id
            for placement in running
            if placement.start_s > time_s
        }
        decisions = [
            decision
            for decision in self._engine.step(running, cluster, time_s)
            if decision[0] not in restarting
        ]
        claimed = {task_id for task_id, _ in decisions}
        if getattr(self._inner, "supports_rescheduling", False):
            for task_id, target in self._inner.reschedule(running, cluster, time_s):
                if (
                    task_id in claimed
                    or task_id in restarting
                    or self._engine.is_blocked(target)
                ):
                    continue
                decisions.append((task_id, target))
        return decisions

    def __getattr__(self, item):
        return getattr(object.__getattribute__(self, "_inner"), item)

    def __setattr__(self, key, value) -> None:
        setattr(object.__getattribute__(self, "_inner"), key, value)
