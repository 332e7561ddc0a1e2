"""Declarative deployment API: spec in, reusable serving session out.

This package is the one serving entry point, in the shape production
schedulers are actually driven by:

* :mod:`repro.api.spec`       -- :class:`DeploymentSpec`, a frozen,
  validated, JSON/TOML-round-trippable tree of sections (topology,
  scheduler, serving, autoscale, telemetry) with preset factories and
  all-errors-at-once validation.
* :mod:`repro.api.backend`    -- the :class:`Backend` protocol and its
  three implementations (single cluster, federated, autoscaled), so the
  three serve paths are one polymorphic build step.
* :mod:`repro.api.deployment` -- :class:`Deployment`: build the backend
  once, then serve many workloads against warm state (profiled models,
  affinity pins, telemetry, elastic topology), with a
  context-manager lifecycle, an incremental per-tick report stream, and
  auditable session counters.

Entry points: ``Deployment.from_spec(spec)`` or
``LegatoSystem().deploy(spec)``.
"""

from repro.api.backend import (
    AutoscaledBackend,
    Backend,
    FederatedBackend,
    SingleClusterBackend,
    build_backend,
)
from repro.api.deployment import Deployment, ServingTick
from repro.api.spec import (
    PRESETS,
    AutoscaleSpec,
    DeploymentSpec,
    SchedulerSpec,
    ServingSpec,
    SpecIssue,
    SpecValidationError,
    TelemetrySpec,
    TopologySpec,
)
from repro.core.seeding import SeedPolicy

__all__ = [
    "AutoscaleSpec",
    "AutoscaledBackend",
    "Backend",
    "Deployment",
    "DeploymentSpec",
    "FederatedBackend",
    "PRESETS",
    "SchedulerSpec",
    "SeedPolicy",
    "ServingSpec",
    "ServingTick",
    "SingleClusterBackend",
    "SpecIssue",
    "SpecValidationError",
    "TelemetrySpec",
    "TopologySpec",
    "build_backend",
]
