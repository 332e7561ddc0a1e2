"""Backend protocol: one polymorphic build step for the three serve paths.

A deployment serves on one of three shapes -- single cluster,
federation, autoscaled federation.  The choice is made *once*, from the
validated spec, into a :class:`Backend`: an object that owns the warm
state (profiled prediction models, tenant affinity, telemetry registry,
elastically grown topology) and serves any number of workloads against
it.  :class:`~repro.api.deployment.Deployment` holds exactly one backend
for its whole lifetime.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, runtime_checkable

from repro.api.spec import DeploymentSpec
from repro.federation.federation import Federation
from repro.federation.policy import FederationConfig
from repro.scheduler.cluster import Cluster
from repro.scheduler.heats import HeatsScheduler
from repro.serving.gateway import RequestGateway
from repro.serving.loop import ServingLoop, ServingReport, ServingWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.autoscale.controller import Autoscaler
    from repro.serving.batching import BatchPolicy
    from repro.telemetry.profile import PhaseProfiler
    from repro.telemetry.registry import MetricsRegistry
    from repro.telemetry.trace import Tracer


@runtime_checkable
class Backend(Protocol):
    """What a deployment session needs from its placement backend."""

    #: backend shape name shown in snapshots (``single`` / ``federated``
    #: / ``autoscaled``).
    name: str

    def serve(
        self, workload: ServingWorkload, batch_policy: Optional["BatchPolicy"] = None
    ) -> ServingReport:
        """Serve one workload against the backend's warm state.

        Args:
            workload: tenants plus their request stream.
            batch_policy: optional override of the spec's batching knobs.

        Returns:
            The :class:`~repro.serving.loop.ServingReport` for this run.
        """
        ...

    def topology(self) -> Dict[str, object]:
        """The backend's *current* topology (elastic changes included).

        Returns:
            A dict safe to embed in ``Deployment.snapshot()``.
        """
        ...


def _ensure_idle(cluster: Cluster, backend_name: str) -> None:
    """Refuse to serve over leftovers of an interleaved run.

    A completed simulation releases every reservation, so a non-idle
    cluster at serve time means two runs are being interleaved on shared
    state -- the exact corruption the old one-shot guards existed for.
    """
    capacity = cluster.capacity()
    if capacity.free_cores != capacity.total_cores:
        raise RuntimeError(
            f"the {backend_name} backend still hosts running tasks from a "
            "previous run; serve runs back-to-back, not interleaved"
        )


class SingleClusterBackend:
    """One HEATS cluster, profiled once, serving many workloads."""

    name = "single"

    def __init__(
        self,
        spec: DeploymentSpec,
        metrics: Optional["MetricsRegistry"] = None,
        tracer: Optional["Tracer"] = None,
        profiler: Optional["PhaseProfiler"] = None,
    ) -> None:
        """Build the cluster and learn its prediction models (once).

        Args:
            spec: a validated deployment spec with ``topology.shards == 1``.
            metrics: optional telemetry bus wired through the placement
                and (per-run) admission/batching hot paths.
            tracer: optional request-scoped tracer threaded into every
                serving run (None or disabled costs nothing).
            profiler: optional host-time phase profiler threaded into
                every serving run (None or disabled costs nothing).
        """
        self.spec = spec
        self.metrics = metrics
        self.tracer = tracer
        self.profiler = profiler
        self.cluster = Cluster.heats_testbed(scale=spec.topology.cluster_scale)
        self.scheduler = HeatsScheduler.with_learned_models(
            self.cluster,
            config=spec.scheduler.to_heats_config(),
            noise_fraction=spec.scheduler.profiling_noise_fraction,
            seed=spec.topology.seed.shard_seed(0),
            metrics=metrics,
        )

    def serve(
        self, workload: ServingWorkload, batch_policy: Optional["BatchPolicy"] = None
    ) -> ServingReport:
        """Serve one workload; the learned models stay warm between calls.

        Args:
            workload: tenants plus their request stream.
            batch_policy: optional override of the spec's batching knobs.

        Returns:
            The :class:`~repro.serving.loop.ServingReport` for this run.
        """
        _ensure_idle(self.cluster, self.name)
        gateway = RequestGateway(workload.tenants, metrics=self.metrics)
        loop = ServingLoop(
            self.cluster,
            self.scheduler,
            gateway,
            batch_policy=(
                batch_policy
                if batch_policy is not None
                else self.spec.serving.to_batch_policy()
            ),
            flush_tick_s=self.spec.serving.flush_tick_s,
            metrics=self.metrics,
            tracer=self.tracer,
            profiler=self.profiler,
        )
        return loop.run(workload.requests)

    def topology(self) -> Dict[str, object]:
        """The single cluster's node inventory.

        Returns:
            Backend shape, node count, and cluster scale.
        """
        return {
            "backend": self.name,
            "total_nodes": len(self.cluster),
            "cluster_scale": self.spec.topology.cluster_scale,
        }


class FederatedBackend:
    """A federation of HEATS shards behind the two-level router."""

    name = "federated"

    def __init__(
        self,
        spec: DeploymentSpec,
        metrics: Optional["MetricsRegistry"] = None,
        tracer: Optional["Tracer"] = None,
        profiler: Optional["PhaseProfiler"] = None,
    ) -> None:
        """Build all shards (one profiling campaign each) and the router.

        Args:
            spec: a validated deployment spec with ``topology.shards > 1``
                (a 1-shard federation is legal, if pointless without
                autoscaling).
            metrics: optional telemetry bus shared by the routing,
                admission, and batching hot paths.
            tracer: optional request-scoped tracer threaded into every
                serving run (None or disabled costs nothing).
            profiler: optional host-time phase profiler; the router's
                ``place`` and the serving loop record phases on it (None
                or disabled costs nothing).
        """
        self.spec = spec
        self.metrics = metrics
        self.tracer = tracer
        self.profiler = profiler
        self.federation = Federation.build(
            num_shards=spec.topology.shards,
            shard_scale=spec.topology.scale_per_shard,
            heats_config=spec.scheduler.to_heats_config(),
            federation_config=FederationConfig(
                rescheduling_interval_s=self._heartbeat_s(spec)
            ),
            metrics=metrics,
            seed_policy=spec.topology.seed,
        )
        if profiler is not None and profiler.enabled:
            # The router records its routing phase directly; attached the
            # same way the autoscaler attaches itself to the scheduler.
            self.federation.scheduler.attach_profiler(profiler)

    @staticmethod
    def _heartbeat_s(spec: DeploymentSpec) -> float:
        """The federation's rescheduling heartbeat: the scheduler cadence."""
        return spec.scheduler.rescheduling_interval_s

    def serve(
        self, workload: ServingWorkload, batch_policy: Optional["BatchPolicy"] = None
    ) -> ServingReport:
        """Serve one workload; shard models and pins stay warm.

        Args:
            workload: tenants plus their request stream.
            batch_policy: optional override of the spec's batching knobs.

        Returns:
            The :class:`~repro.serving.loop.ServingReport` for this run,
            with per-run routing telemetry in ``federation_stats``.
        """
        return self.federation.run_workload(
            workload,
            batch_policy=(
                batch_policy
                if batch_policy is not None
                else self.spec.serving.to_batch_policy()
            ),
            flush_tick_s=self.spec.serving.flush_tick_s,
            tracer=self.tracer,
            profiler=self.profiler,
        )

    def topology(self) -> Dict[str, object]:
        """The current shard membership and per-shard node counts.

        Returns:
            Backend shape, total nodes, and one entry per member shard.
        """
        return {
            "backend": self.name,
            "total_nodes": self.federation.total_nodes,
            "shards": [
                {
                    "name": shard.name,
                    "nodes": len(shard.cluster),
                    "region": shard.profile.region,
                    "energy_price_per_kwh": shard.profile.energy_price_per_kwh,
                    "seed": shard.seed,
                }
                for shard in self.federation.shards
            ],
        }


class AutoscaledBackend(FederatedBackend):
    """An elastic federation plus its per-run control loop.

    The *topology* is session-warm: shards grown through one workload's
    spike are still there for the next workload.  The *controller* is
    per-run state (cooldown clocks, node-second accounting, decision
    audit trail all restart at simulation time zero), so each serve
    attaches a fresh :class:`~repro.autoscale.controller.Autoscaler`,
    rebased onto the shared telemetry bus's running counter totals.
    """

    name = "autoscaled"

    def __init__(
        self,
        spec: DeploymentSpec,
        metrics: "MetricsRegistry",
        tracer: Optional["Tracer"] = None,
        profiler: Optional["PhaseProfiler"] = None,
    ) -> None:
        """Build the initial federation and attach the first controller.

        Args:
            spec: a validated deployment spec with
                ``autoscale.enabled == True``.
            metrics: the telemetry bus (mandatory: every signal the
                controller acts on flows through it).
            tracer: optional request-scoped tracer threaded into every
                serving run and the controller's actuation events.
            profiler: optional host-time phase profiler; control steps
                record an ``autoscale`` phase on it.
        """
        from repro.autoscale.controller import Autoscaler

        self._autoscale_config = spec.autoscale.to_config()
        super().__init__(spec, metrics=metrics, tracer=tracer, profiler=profiler)
        self.autoscaler: "Autoscaler" = Autoscaler(
            self.federation,
            config=self._autoscale_config,
            tracer=tracer,
            profiler=profiler,
        )
        self._runs = 0

    @staticmethod
    def _heartbeat_s(spec: DeploymentSpec) -> float:
        """Control and migration share one heartbeat: the control interval."""
        return spec.autoscale.control_interval_s

    def serve(
        self, workload: ServingWorkload, batch_policy: Optional["BatchPolicy"] = None
    ) -> ServingReport:
        """Serve one workload elastically against the warm topology.

        Args:
            workload: tenants plus their request stream.
            batch_policy: optional override of the spec's batching knobs.

        Returns:
            The :class:`~repro.serving.loop.ServingReport` for this run,
            with this run's elastic history in ``autoscale_report``.
        """
        from repro.autoscale.controller import Autoscaler

        if self._runs > 0:
            # Fresh per-run controller over the warm federation; rebase so
            # the previous run's counter totals do not read as one giant
            # first-tick delta.
            self.autoscaler = Autoscaler(
                self.federation,
                config=self._autoscale_config,
                tracer=self.tracer,
                profiler=self.profiler,
            )
            self.autoscaler.rebase_counters()
        self._runs += 1
        return super().serve(workload, batch_policy=batch_policy)

    def topology(self) -> Dict[str, object]:
        """The current (elastically evolved) shard membership.

        Returns:
            The federated topology plus the autoscaler's shard/node bounds.
        """
        described = super().topology()
        described["backend"] = self.name
        described["bounds"] = {
            "min_shards": self._autoscale_config.min_shards,
            "max_shards": self._autoscale_config.max_shards,
            "min_nodes_per_shard": self._autoscale_config.min_nodes_per_shard,
            "max_nodes_per_shard": self._autoscale_config.max_nodes_per_shard,
        }
        return described


def build_backend(
    spec: DeploymentSpec,
    metrics: Optional["MetricsRegistry"],
    tracer: Optional["Tracer"] = None,
    profiler: Optional["PhaseProfiler"] = None,
) -> Backend:
    """The one polymorphic build step: spec shape -> backend instance.

    Args:
        spec: a *validated* deployment spec.
        metrics: the deployment's telemetry bus, or None when telemetry
            is disabled (autoscaled specs always carry one -- validation
            enforces it).
        tracer: the deployment's request-scoped tracer, or None when
            tracing is disabled.
        profiler: the deployment's host-time phase profiler, or None
            when profiling is disabled.

    Returns:
        The built backend, profiled and ready to serve many workloads.
    """
    if spec.autoscale.enabled:
        if metrics is None:
            raise ValueError(
                "an autoscaled deployment needs a telemetry bus; spec "
                "validation should have rejected this"
            )
        return AutoscaledBackend(spec, metrics=metrics, tracer=tracer, profiler=profiler)
    if spec.topology.shards > 1:
        return FederatedBackend(spec, metrics=metrics, tracer=tracer, profiler=profiler)
    return SingleClusterBackend(spec, metrics=metrics, tracer=tracer, profiler=profiler)
