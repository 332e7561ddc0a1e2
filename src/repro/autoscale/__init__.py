"""Elastic shard/node autoscaling over the federated serving stack.

A plain federation scales statically: shard and node counts are fixed
when it is built, so a traffic spike saturates shards while a lull
burns idle node energy.  This package closes the loop the telemetry bus
opens: a control loop subscribes to per-shard saturation, thermal
headroom, queueing delay, and SLA-violation signals, forecasts near-term
per-tenant demand, and actuates elastic capacity.

* :mod:`repro.autoscale.forecast`   -- EWMA and Holt-Winters demand
  forecasters (level/trend/optional seasonality).
* :mod:`repro.autoscale.policy`     -- :class:`AutoscaleConfig` knobs,
  :class:`ScalingAction` / :class:`ScalingDecision` audit records.
* :mod:`repro.autoscale.signals`    -- per-tick signal extraction from the
  telemetry bus and O(1) capacity aggregates.
* :mod:`repro.autoscale.controller` -- the :class:`Autoscaler` control
  loop and its :class:`AutoscaleReport`.

A spec with ``autoscale.enabled`` served through
``LegatoSystem.deploy(spec)`` attaches the control loop.
"""

from repro.autoscale.forecast import EwmaForecaster, HoltWintersForecaster
from repro.autoscale.policy import AutoscaleConfig, ScalingAction, ScalingDecision
from repro.autoscale.signals import FederationSignals, ShardSignals, collect_signals
from repro.autoscale.controller import Autoscaler, AutoscaleReport

__all__ = [
    "Autoscaler",
    "AutoscaleConfig",
    "AutoscaleReport",
    "EwmaForecaster",
    "FederationSignals",
    "HoltWintersForecaster",
    "ScalingAction",
    "ScalingDecision",
    "ShardSignals",
    "collect_signals",
]
