"""The serving loop: admission -> batching -> placement -> SLA report.

``ServingLoop.run`` replays a time-ordered stream of user requests through
the front-end: each request is admitted (or rejected) by the gateway at
its arrival instant, admitted requests are coalesced by the batcher, and
flushed batches become :class:`TaskRequest` tasks replayed on the existing
discrete-event :class:`~repro.scheduler.simulation.ClusterSimulator` under
whatever placement backend the loop was built with -- a single HEATS
cluster, or a :class:`~repro.federation.federation.Federation`'s union
cluster and federated scheduler (in which case the report additionally
carries the federation's routing telemetry).  Completions are mapped back
to the member requests to produce per-tenant SLA telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.registry import MetricsRegistry

from repro.scheduler.cluster import Cluster
from repro.scheduler.simulation import ClusterSimulator, SchedulerProtocol, SimulationResult
from repro.scheduler.workload import TaskRequest
from repro.serving.batching import Batch, Batcher, BatchPolicy
from repro.serving.gateway import AdmissionDecision, RequestGateway, ServingRequest, Tenant
from repro.serving.sla import SlaTracker, TenantSlaReport, percentiles
from repro.telemetry.profile import NULL_PHASE, PhaseProfiler
from repro.telemetry.trace import SpanTable, Tracer, TraceSummary, summarize_trace


@dataclass(frozen=True)
class ServingWorkload:
    """A multi-tenant request stream plus the tenants' contracts.

    Both fields accept any iterable -- a generator produced by an arrival
    process streams in as readily as a materialised list -- and are
    normalised to tuples exactly once at construction, so every later
    consumer (including ``Deployment.serve_iter``'s second pass over the
    requests) sees a stable, re-iterable sequence.
    """

    tenants: Tuple[Tenant, ...]
    requests: Tuple[ServingRequest, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        object.__setattr__(self, "requests", tuple(self.requests))
        if not self.tenants:
            raise ValueError("a serving workload needs at least one tenant")
        names = {tenant.name for tenant in self.tenants}
        if len(names) != len(self.tenants):
            raise ValueError("tenant names must be unique")
        unknown = {r.tenant for r in self.requests} - names
        if unknown:
            raise ValueError(f"requests reference unregistered tenants: {sorted(unknown)}")

    @classmethod
    def synthetic(
        cls,
        tenants: Sequence[Tenant],
        endpoint_mix: Dict[str, Dict[str, float]],
        offered_rps: float = 20.0,
        duration_s: float = 60.0,
        seed: int = 2020,
    ) -> "ServingWorkload":
        """Generate a reproducible Poisson traffic stream for the tenants.

        Args:
            tenants: the tenants offering traffic.
            endpoint_mix: per-tenant endpoint-name -> relative weight.
            offered_rps: aggregate offered request rate.
            duration_s: length of the arrival window.
            seed: RNG seed for the traffic generator.

        Returns:
            A workload pairing the tenants with the generated requests.
        """
        from repro.serving.endpoints import synthesize_traffic

        requests = synthesize_traffic(
            tenants, endpoint_mix, offered_rps=offered_rps, duration_s=duration_s, seed=seed
        )
        return cls(tenants=tuple(tenants), requests=tuple(requests))


@dataclass
class ServingReport:
    """Outcome of one serving run, per tenant and overall."""

    tenant_reports: Dict[str, TenantSlaReport]
    simulation: SimulationResult
    horizon_s: float
    batches: int
    offered: int
    admitted: int
    completed: int
    dropped: int
    latencies_s: List[float] = field(default_factory=list)
    #: per-member completion instants, index-aligned with ``latencies_s``
    #: (what ``Deployment.serve_iter`` buckets into its tick stream).
    completions_s: List[float] = field(default_factory=list)
    #: routing telemetry when the backend is a federation (a
    #: :class:`~repro.federation.federation.FederationStats`), else None.
    federation_stats: Optional[object] = None
    #: elastic-scaling telemetry when an autoscaler drove the run (an
    #: :class:`~repro.autoscale.controller.AutoscaleReport`), else None.
    autoscale_report: Optional[object] = None
    #: request-scoped spans drained from the deployment's tracer after the
    #: run, as a columnar :class:`~repro.telemetry.trace.SpanTable` (its
    #: ``len``/iteration/indexing hand out ``Span`` views on demand); None
    #: when tracing was disabled (the pay-nothing default).
    trace_spans: Optional[SpanTable] = None
    #: memoised (p50, p95, p99) over ``latencies_s`` -- the three
    #: percentile properties and ``summary()`` share one vectorised
    #: numpy pass instead of re-sorting the sample per read.
    _latency_percentiles: Optional[Tuple[float, float, float]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: memoised :func:`summarize_trace` result (the fold is O(spans)).
    _trace_summary: Optional[TraceSummary] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _percentile(self, index: int) -> float:
        if self._latency_percentiles is None:
            p50, p95, p99 = percentiles(self.latencies_s, (50.0, 95.0, 99.0))
            self._latency_percentiles = (p50, p95, p99)
        return self._latency_percentiles[index]

    @property
    def rejected(self) -> int:
        """Requests the gateway turned away at admission."""
        return self.offered - self.admitted

    @property
    def rejection_rate(self) -> float:
        """Fraction of offered requests rejected at admission."""
        return self.rejected / self.offered if self.offered else 0.0

    @property
    def ops_per_sec(self) -> float:
        """Completed requests per second over the serving horizon."""
        return self.completed / self.horizon_s if self.horizon_s > 0 else 0.0

    @property
    def p50_latency_s(self) -> float:
        """Median end-to-end request latency in seconds."""
        return self._percentile(0)

    @property
    def p95_latency_s(self) -> float:
        """95th-percentile end-to-end request latency in seconds."""
        return self._percentile(1)

    @property
    def p99_latency_s(self) -> float:
        """99th-percentile end-to-end request latency in seconds."""
        return self._percentile(2)

    @property
    def energy_per_request_j(self) -> float:
        """Task energy spent per completed request, in joules."""
        if not self.completed:
            return 0.0
        return self.simulation.task_energy_j / self.completed

    def trace_summary(self) -> Optional[TraceSummary]:
        """Fold the run's spans into a per-stage latency breakdown.

        Returns:
            The :class:`~repro.telemetry.trace.TraceSummary` (per-stage
            count/p50/p99, critical-path attribution, terminal verdict
            counts), or ``None`` when the run was not traced.
        """
        if self.trace_spans is None:
            return None
        if self._trace_summary is None:
            self._trace_summary = summarize_trace(self.trace_spans)
        return self._trace_summary

    def summary(self) -> Dict[str, object]:
        """Render the overall and per-tenant outcome as one dict.

        Returns:
            Counts, rates, latency percentiles, energy per request, the
            per-tenant sub-summaries, and -- when the backend was a
            federation -- its routing telemetry.
        """
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "dropped": self.dropped,
            "batches": self.batches,
            "rejection_rate": round(self.rejection_rate, 4),
            "ops_per_sec": round(self.ops_per_sec, 3),
            "p50_latency_s": round(self.p50_latency_s, 3),
            "p99_latency_s": round(self.p99_latency_s, 3),
            "energy_per_request_j": round(self.energy_per_request_j, 2),
            "tenants": {name: r.summary() for name, r in self.tenant_reports.items()},
            **(
                {"federation": self.federation_stats.summary()}
                if self.federation_stats is not None
                else {}
            ),
            **(
                {"autoscale": self.autoscale_report.summary()}
                if self.autoscale_report is not None
                else {}
            ),
            **(
                {"trace": self.trace_summary().to_dict()}
                if self.trace_spans is not None
                else {}
            ),
        }


class ServingLoop:
    """Drives admission, batching and cluster placement for one run."""

    def __init__(
        self,
        cluster: Cluster,
        scheduler: SchedulerProtocol,
        gateway: RequestGateway,
        batch_policy: Optional[BatchPolicy] = None,
        tracker: Optional[SlaTracker] = None,
        flush_tick_s: float = 0.5,
        metrics: Optional["MetricsRegistry"] = None,
        tracer: Optional[Tracer] = None,
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        if flush_tick_s <= 0:
            raise ValueError("flush tick must be positive")
        self.cluster = cluster
        self.scheduler = scheduler
        self.gateway = gateway
        self.batcher = Batcher(batch_policy, metrics=metrics)
        self.tracker = tracker if tracker is not None else SlaTracker()
        self.flush_tick_s = flush_tick_s
        self.tracer = tracer
        #: single cached boolean so every hot-path instrumentation site is
        #: one branch when tracing is off (pay-for-what-you-use).
        self._trace = tracer is not None and tracer.enabled
        self.profiler = profiler
        #: same cached-boolean discipline for the host-time profiler.
        self._profile = profiler is not None and profiler.enabled
        # Open span rows keyed by request id, closed as requests cross
        # seams.  A request's gateway span is opened right after its root,
        # so its row is the root's row + 1 and needs no entry of its own.
        self._request_roots: Dict[str, int] = {}
        self._batch_wait_spans: Dict[str, int] = {}
        self._consumed = False

    # ------------------------------------------------------------------ #
    # Front half: admission and batching
    # ------------------------------------------------------------------ #
    def _ingest(self, requests: Sequence[ServingRequest]) -> List[Batch]:
        """Replay arrivals through gateway + batcher; returns flushed batches.

        The gateway's queues drain into the batcher once per tick, not per
        offer, so a burst arriving within one tick genuinely fills the
        bounded tenant queues (queue-full backpressure can fire) and
        stale/deadline-bound batches flush even across arrival gaps.

        The walk is event-driven over the tick grid: ticks where nothing
        can happen (no queued admissions, no batch stale or deadline-due
        yet) are provably no-ops and are skipped wholesale, so the cost
        scales with arrivals + flushes instead of the horizon.  The
        drained tail and every flush are stamped on a monotone clock (the
        batcher enforces it), never behind a member's add time.  The
        clock is always ``index * tick`` (not repeated addition), so
        skipping ahead lands exactly on the grid a naive full scan would
        walk even when the tick is not exactly representable in binary
        floating point.
        """
        ordered = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        flushed: List[Batch] = []
        tick = self.flush_tick_s
        #: tick counter; the clock is always ``index * tick`` so skipping
        #: ahead lands exactly on the grid the legacy scan walked.
        index = 0

        def last_index_at(time_s: float) -> int:
            """Largest tick index whose instant is <= ``time_s``."""
            at = max(index, int(time_s / tick))
            while (at + 1) * tick <= time_s:
                at += 1
            while at > index and at * tick > time_s:
                at -= 1
            return at

        def run_tick() -> None:
            nonlocal index
            index += 1
            now = index * tick
            for admitted in self.gateway.drain():
                flushed.extend(self._admit_to_batcher(admitted, now))
            flushed.extend(self.batcher.flush_ready(now))

        def advance_to(time_s: float) -> None:
            nonlocal index
            while (index + 1) * tick <= time_s:
                if self.gateway.queued_count == 0:
                    due = self.batcher.next_flush_due_s()
                    if due is None or due > time_s:
                        # Every remaining tick up to the target is a no-op;
                        # jump straight to the grid position the legacy
                        # scan would have ended on.
                        index = last_index_at(time_s)
                        return
                    if due > (index + 1) * tick:
                        # Skip to just before the first tick that could
                        # flush; flush_ready stays the authority at the
                        # ticks from there on.
                        index = max(index, last_index_at(due) - 1)
                run_tick()

        for request in ordered:
            # Inline no-op guard: most arrivals land inside the current
            # tick, where advance_to would immediately fall through.
            if (index + 1) * tick <= request.arrival_s:
                advance_to(request.arrival_s)
            decision = self.gateway.offer(request)
            self.tracker.record_offered(request.tenant, decision.admitted)
            if self._trace:
                self._trace_admission(request, decision)
        end = ordered[-1].arrival_s if ordered else 0.0
        advance_to(end)
        # Drain the post-last-arrival admissions on the monotone clock:
        # the batcher stamps them at ``end`` (>= the last processed tick).
        for admitted in self.gateway.drain():
            flushed.extend(self._admit_to_batcher(admitted, end))
        # Keep walking the grid past the last arrival so the tail still
        # flushes through the deadline-/staleness-aware path rather than
        # being stamped wholesale at end + max_delay.
        advance_to(end + self.batcher.policy.max_delay_s + tick)
        flushed.extend(self.batcher.flush_all(max(index * tick, end)))
        return flushed

    # ------------------------------------------------------------------ #
    # Tracing seams (only reached when ``self._trace`` is set)
    # ------------------------------------------------------------------ #
    def _trace_admission(self, request: ServingRequest, decision: AdmissionDecision) -> None:
        """Open the request root span; rejections terminate immediately."""
        spans = self.tracer.table
        request_id = request.request_id
        root = spans.open(
            "request", request.arrival_s, request_id, None, {"tenant": request.tenant}
        )
        if decision.admitted:
            self._request_roots[request_id] = root
            spans.open("request.gateway", request.arrival_s, request_id, root)
        else:
            spans.close(
                root, request.arrival_s, {"terminal": True, "verdict": decision.value}
            )

    def _admit_to_batcher(self, admitted: ServingRequest, now: float) -> List[Batch]:
        """Hand one drained admission to the batcher, crossing the trace seam.

        Args:
            admitted: the request the gateway just drained.
            now: the monotone ingest clock.

        Returns:
            Batches the add caused to flush (the batcher's return value).
        """
        if self._trace:
            spans = self.tracer.table
            request_id = admitted.request_id
            root = self._request_roots.get(request_id)
            if root is not None:
                spans.close(root + 1, now)  # the request.gateway row
            self._batch_wait_spans[request_id] = spans.open(
                "request.batch_wait", now, request_id, root
            )
        return self.batcher.add(admitted, now)

    def _trace_flushes(self, batches: Sequence[Batch]) -> None:
        """Close every member's batch-wait span at its batch's flush instant."""
        close = self.tracer.table.close
        pop = self._batch_wait_spans.pop
        for batch in batches:
            flushed_s = batch.flushed_s
            for member in batch.requests:
                row = pop(member.request_id, None)
                if row is not None:
                    close(row, flushed_s, {"batch_id": batch.batch_id})

    def _to_task_requests(self, batches: Sequence[Batch]) -> List[TaskRequest]:
        tasks: List[TaskRequest] = []
        for batch in batches:
            tenant = self.gateway.tenant(batch.requests[0].tenant)
            assert batch.flushed_s is not None
            tasks.append(batch.to_task_request(batch.flushed_s, tenant.energy_weight))
        tasks.sort(key=lambda t: (t.arrival_s, t.task_id))
        return tasks

    # ------------------------------------------------------------------ #
    # Full round trip
    # ------------------------------------------------------------------ #
    def run(self, requests: Sequence[ServingRequest]) -> ServingReport:
        """Replay a request stream through the full serving round trip.

        Args:
            requests: time-ordered user requests to offer to the gateway.

        Returns:
            The :class:`ServingReport` for the run (per-tenant SLA
            telemetry, simulation outcome, federation stats).
        """
        if self._consumed:
            # Gateway buckets, tracker accumulators, and cluster state all
            # carry the previous run; reusing them would corrupt the report.
            raise RuntimeError(
                "a ServingLoop can only run once; build a fresh loop "
                "(and cluster) per serving run"
            )
        self._consumed = True
        for tenant in self.gateway.tenants:
            self.tracker.set_latency_slo(tenant.name, tenant.latency_slo_s)
        with self.profiler.phase("ingest") if self._profile else NULL_PHASE:
            batches = self._ingest(requests)
            if self._trace:
                self._trace_flushes(batches)
            by_task_id: Dict[str, Batch] = {
                batch.batch_id: batch for batch in batches
            }
            tasks = self._to_task_requests(batches)

        simulator = ClusterSimulator(
            self.cluster,
            self.scheduler,
            tracer=self.tracer if self._trace else None,
            profiler=self.profiler if self._profile else None,
        )
        # Placement/advance/reschedule record nested under "simulate", so
        # the top-level phases (ingest/simulate/rollup) partition the run.
        with self.profiler.phase("simulate") if self._profile else NULL_PHASE:
            simulation = simulator.run(tasks)

        arrivals_end = max((r.arrival_s for r in requests), default=0.0)
        horizon = max(arrivals_end, simulation.makespan_s)
        with self.profiler.phase("rollup") if self._profile else NULL_PHASE:
            return self._rollup(simulation, by_task_id, batches, horizon)

    def _rollup(self, simulation, by_task_id, batches, horizon) -> ServingReport:
        """Map completions back to members and assemble the report."""
        latencies: List[float] = []
        completions: List[float] = []
        completed_requests = 0
        record_completion = self.tracker.record_completion
        trace = self._trace
        spans = self.tracer.table if trace else None
        pop_root = self._request_roots.pop
        for task in simulation.completed:
            batch = by_task_id[task.task_id]
            finish_s = task.finish_s
            energy_per_member = task.energy_j / batch.size
            for member in batch.requests:
                latency = finish_s - member.arrival_s
                if latency < 0.0:
                    latency = 0.0
                deadline_met = (
                    finish_s <= member.deadline_s
                    if member.deadline_s is not None
                    else None
                )
                record_completion(
                    member.tenant, latency, energy_per_member, deadline_met
                )
                if trace:
                    root = pop_root(member.request_id, None)
                    if root is not None:
                        spans.close(
                            root,
                            finish_s,
                            {
                                "terminal": True,
                                "verdict": "completed",
                                "task_id": task.task_id,
                                "deadline_met": deadline_met,
                            },
                        )
                latencies.append(latency)
                completions.append(finish_s)
                completed_requests += 1
        dropped = 0
        for task_id in simulation.unplaced:
            batch = by_task_id[task_id]
            self.tracker.record_dropped(batch.requests[0].tenant, batch.size)
            dropped += batch.size
            if trace:
                for member in batch.requests:
                    root = pop_root(member.request_id, None)
                    if root is not None:
                        spans.close(
                            root,
                            max(horizon, spans.starts[root]),
                            {"terminal": True, "verdict": "dropped", "task_id": task_id},
                        )
        # Totals come from the tracker (which saw every offer, including
        # unknown-tenant rejections the gateway keeps no stats for), so the
        # overall numbers always agree with the per-tenant reports.
        tenant_reports = self.tracker.reports(horizon)
        autoscaler = getattr(self.scheduler, "autoscaler", None)
        return ServingReport(
            tenant_reports=tenant_reports,
            simulation=simulation,
            horizon_s=horizon,
            batches=len(batches),
            offered=sum(r.offered for r in tenant_reports.values()),
            admitted=sum(r.admitted for r in tenant_reports.values()),
            completed=completed_requests,
            dropped=dropped,
            latencies_s=latencies,
            completions_s=completions,
            federation_stats=getattr(self.scheduler, "federation_stats", None),
            autoscale_report=(
                autoscaler.report(horizon) if autoscaler is not None else None
            ),
            trace_spans=self.tracer.drain() if self._trace else None,
        )
