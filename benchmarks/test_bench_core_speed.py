"""CORE SPEED: the array-native discrete-event hot path, at two scales.

Not a paper figure: this benchmark tracks the serving simulator's core
hot path -- structured-array cluster capacity, the single event heap, and
the capacity-gated retry index -- on the memory-bound flash-crowd
workload (aggregate memory demand saturates the cluster while plenty of
cores stay free, the regime that degenerated the retired pre-PR-5 scan
path to O(pending x nodes)).

Two scale points:

1. **10k requests / 64 nodes** -- the historical acceptance point, kept
   in both tiers (it IS the ``--smoke`` lane point now, so CI's harness
   gate covers the array core directly).  The serve run repeats
   ``TIMING_REPS`` times; the wall-clock is the best repetition (the
   machine is a noisy shared runner) and every repetition must produce a
   bit-identical :class:`ServingReport` -- the determinism half of the
   old two-path equivalence check, which no longer has a second path to
   compare against.
2. **100k requests / 512 nodes** (full tier only) -- the scale point the
   array rebuild targets; a single serve run with gated throughput.

Speed is judged against the PR 8 pinned full-tier baseline for the
10k/64 point, frozen below as constants because the ``fast_path=False``
scan path was deleted and cannot be re-measured: ``speedup`` compares
against the retired scan path's pinned wall-clock and must stay >= 3x
(measured ~30x); ``speedup_vs_pr8_event_path`` compares against the PR 8
event-driven path's own pinned wall-clock and is reported ungated (a
ratio of wall-clocks from different machine states is a trend signal,
not a gateable number).

Every timed repetition is followed by a *traced* one (enabled
:class:`~repro.telemetry.trace.Tracer`); ``tracing_overhead`` is the
median of the per-pair traced/untraced ratios, so host drift between
pairs cancels.  A *profiled* run (enabled
:class:`~repro.telemetry.profile.PhaseProfiler`) measures the profiler's
overhead on the 10k point; its phase breakdown must cover >= 90% of the
measured wall-clock.  Peak structured
-array bytes (cluster capacity table + placement-engine task arrays) are
reported per point as ungated memory metrics for ``benchmarks/trend.py``.
Emitted to ``BENCH_core_speed.json``; the table renders to
``benchmarks/results/core_speed.txt``.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from repro.hardware.microserver import WorkloadKind
from repro.scheduler.cluster import Cluster
from repro.scheduler.heats import HeatsScheduler
from repro.serving.batching import BatchPolicy
from repro.serving.gateway import RequestGateway, ServingRequest, Tenant
from repro.serving.loop import ServingLoop
from repro.telemetry.profile import PhaseProfiler
from repro.telemetry.trace import Tracer

#: minimum wall-clock speedup over the retired scan path's pinned wall.
REQUIRED_SPEEDUP = 3.0
#: serve-run repetitions for the timed 10k point (best-of wins).
TIMING_REPS = 5
#: PR 8 pinned full-tier walls for the 10k/64 point
#: (``benchmarks/baselines/core_speed.json`` as of PR 8).  Frozen: the
#: ``fast_path=False`` scan path they timed no longer exists to re-run.
PR8_SCAN_PATH_WALL_S = 12.861284317999889
PR8_EVENT_PATH_WALL_S = 1.0380147490004674

BATCH_POLICY = BatchPolicy(max_batch_size=4, max_delay_s=1.0, memory_bucket_gib=1.0)


def _tenants() -> List[Tenant]:
    # Admission wide open: this benchmark measures the placement hot
    # path, not the token buckets, so every offered request reaches it.
    return [
        Tenant(name="analytics", rate_limit_rps=10000.0, burst=8000,
               energy_weight=0.3),
        Tenant(name="training", rate_limit_rps=10000.0, burst=8000,
               energy_weight=0.6),
    ]


def memory_bound_flash_crowd(
    tenants: List[Tenant], count: int, duration_s: float, seed: int = 42
) -> List[ServingRequest]:
    """A request stream that saturates memory while cores stay free.

    Demands of 2-7 GiB against a testbed whose SoC nodes hold 4-8 GiB
    keep hundreds of batches queued with free cores everywhere -- the
    regime where per-completion placement retries dominate, which the
    shape-bucketed retry index must keep off the critical path.
    """
    rng = np.random.default_rng(seed)
    kinds = [WorkloadKind.MEMORY_BOUND, WorkloadKind.SCALAR, WorkloadKind.STREAMING]
    arrivals = np.sort(rng.uniform(0.0, duration_s, count))
    return [
        ServingRequest(
            request_id=f"r{index:05d}",
            tenant=tenants[index % len(tenants)].name,
            use_case=f"uc{index % 6}",
            arrival_s=float(arrival),
            workload=kinds[index % 3],
            gops=float(rng.uniform(20.0, 80.0)),
            cores=int(rng.choice([1, 2, 4])),
            memory_gib=float(rng.choice([2.0, 3.0, 5.0, 7.0])),
        )
        for index, arrival in enumerate(arrivals)
    ]


def timed_run(
    tenants: List[Tenant],
    requests: List[ServingRequest],
    scale: int,
    tracer: Optional[Tracer] = None,
    profiler: Optional[PhaseProfiler] = None,
) -> Tuple[object, float]:
    """Serve the stream on a fresh cluster; returns (report, seconds)."""
    cluster = Cluster.heats_testbed(scale=scale)
    scheduler = HeatsScheduler.with_learned_models(cluster, seed=7)
    loop = ServingLoop(
        cluster,
        scheduler,
        RequestGateway(tenants),
        batch_policy=BATCH_POLICY,
        tracer=tracer,
        profiler=profiler,
    )
    start = time.perf_counter()
    report = loop.run(requests)
    return report, time.perf_counter() - start


def _fingerprint(report) -> Tuple[object, ...]:
    """Everything two runs of the same stream must agree on, bit for bit."""
    return (
        report.summary(),
        report.latencies_s,
        report.completions_s,
        report.simulation.summary(),
        report.simulation.peak_array_bytes,
    )


def test_core_hot_path_speedup(bench, smoke):
    # The 10k/64 acceptance point runs in BOTH tiers (it is the smoke
    # point); the 100k/512 scale point rides only in the full tier.
    count, duration_s, scale = 10_000, 100.0, 16
    reps = 3 if smoke else TIMING_REPS
    tenants = _tenants()
    requests = memory_bound_flash_crowd(tenants, count, duration_s)

    # Untraced and traced repetitions alternate, so each traced run is
    # compared with the untraced run just before it.
    runs: List[Tuple[object, float]] = []
    traced_runs: List[Tuple[object, float]] = []
    for _ in range(reps):
        runs.append(timed_run(tenants, requests, scale))
        traced_runs.append(
            timed_run(tenants, requests, scale, tracer=Tracer(enabled=True))
        )
    report = runs[0][0]
    wall_s = min(seconds for _, seconds in runs)
    # Determinism gate: with the scan path deleted, equivalence is now
    # asserted across independent repetitions -- every serve of the same
    # stream must produce a bit-identical report.
    reference = _fingerprint(report)
    for repeat, _ in runs[1:]:
        assert _fingerprint(repeat) == reference
    assert report.dropped == 0 and report.rejected == 0

    traced_report = traced_runs[0][0]
    for repeat, _ in traced_runs[1:]:
        assert _fingerprint(repeat) == _fingerprint(traced_report)
    tracing_overhead = float(np.median([
        traced_s / untraced_s
        for (_, untraced_s), (_, traced_s) in zip(runs, traced_runs)
    ]))
    profiler = PhaseProfiler(enabled=True)
    profiled_report, profiled_s = timed_run(
        tenants, requests, scale, profiler=profiler
    )
    # Tracing must not perturb the simulation, only observe it: the traced
    # summary is the untraced one plus its "trace" section.
    traced_summary = traced_report.summary()
    traced_summary.pop("trace")
    assert traced_summary == report.summary()
    assert traced_report.trace_spans and report.trace_spans is None
    # The host-time profiler likewise only observes: identical report,
    # and the top-level phases (ingest/simulate/rollup) account for at
    # least 90% of the measured wall-clock.
    assert profiled_report.summary() == report.summary()
    profile_coverage = profiler.coverage(profiled_s)
    assert profile_coverage >= 0.9, (
        f"profiler phases cover only {profile_coverage:.1%} of wall-clock"
    )

    speedup = PR8_SCAN_PATH_WALL_S / wall_s if wall_s > 0 else float("inf")
    vs_event_path = PR8_EVENT_PATH_WALL_S / wall_s if wall_s > 0 else float("inf")
    profiling_overhead = profiled_s / wall_s if wall_s > 0 else float("inf")
    run = bench("core_speed")
    # Wall-clock ratios carry loose tolerances (shared-runner noise);
    # simulated quantities are deterministic and gated tightly.
    run.metric("speedup", speedup, direction="higher", tolerance=0.40)
    run.metric("speedup_vs_pr8_event_path", vs_event_path, direction="higher",
               gate=False)
    run.metric("tracing_overhead", tracing_overhead, direction="lower",
               tolerance=0.20)
    run.metric("profiling_overhead", profiling_overhead, direction="lower",
               tolerance=0.50, abs_tolerance=0.50)
    run.metric("profile_coverage", profile_coverage, direction="higher",
               tolerance=0.05)
    run.metric("wall_clock_s", wall_s, direction="lower", gate=False)
    run.metric("ops_per_sec", report.ops_per_sec, direction="higher",
               tolerance=0.02)
    run.metric("p50_latency_s", report.p50_latency_s, direction="lower",
               tolerance=0.02)
    run.metric("p99_latency_s", report.p99_latency_s, direction="lower",
               tolerance=0.02)
    run.metric("node_seconds", 4 * scale * report.horizon_s,
               direction="lower", tolerance=0.02)
    run.metric("completed", report.completed, direction="higher",
               tolerance=0.01)
    # Memory, bounded honestly: peak structured-array bytes (capacity
    # table + placement-engine task arrays), ungated trend metric.
    run.metric("peak_array_bytes", report.simulation.peak_array_bytes,
               direction="lower", gate=False)
    run.attach_trace(traced_report.trace_summary())
    run.attach_profile(profiler)

    rows = [[
        len(requests),
        4 * scale,
        report.batches,
        f"{wall_s:.2f}",
        f"{speedup:.1f}x",
        f"{vs_event_path:.2f}x",
        f"{report.simulation.peak_array_bytes / 2**20:.2f}",
        "yes",
    ]]

    scale_wall_s = None
    if not smoke:
        # The scale point the array rebuild targets: 100k requests on 512
        # nodes, heavier saturation, one serve run.  It must complete and
        # its throughput is gated like the 10k point's.
        scale_report, scale_wall_s = timed_run(
            tenants,
            memory_bound_flash_crowd(tenants, 100_000, 250.0),
            128,
        )
        assert scale_report.dropped == 0 and scale_report.rejected == 0
        run.metric("scale100k_ops_per_sec", scale_report.ops_per_sec,
                   direction="higher", tolerance=0.02)
        run.metric("scale100k_completed", scale_report.completed,
                   direction="higher", tolerance=0.01)
        run.metric("scale100k_p99_latency_s", scale_report.p99_latency_s,
                   direction="lower", tolerance=0.02)
        run.metric("scale100k_wall_clock_s", scale_wall_s, direction="lower",
                   gate=False)
        run.metric("scale100k_peak_array_bytes",
                   scale_report.simulation.peak_array_bytes,
                   direction="lower", gate=False)
        rows.append([
            100_000,
            512,
            scale_report.batches,
            f"{scale_wall_s:.2f}",
            "-",
            "-",
            f"{scale_report.simulation.peak_array_bytes / 2**20:.2f}",
            "-",
        ])

    run.table(
        "core_speed",
        "Array-native core vs the PR 8 pinned full-tier baseline "
        f"(vs_pr8_scan = retired fast_path=False scan wall {PR8_SCAN_PATH_WALL_S:.2f}s, "
        f"vs_pr8_event = PR 8 event-path wall {PR8_EVENT_PATH_WALL_S:.2f}s; "
        f"wall_s = best of {reps})" + (" (smoke)" if smoke else ""),
        ["requests", "nodes", "batches", "wall_s", "vs_pr8_scan",
         "vs_pr8_event", "peak_array_mib", "identical_reports"],
        rows,
    )
    # The acceptance bar: the 10k-request / 64-node point must hold a
    # >= 3x wall-clock improvement over the PR 8 pinned scan-path wall
    # (measured ~30x; the margin absorbs runner noise).
    assert speedup >= REQUIRED_SPEEDUP, (
        f"hot-path regressed: {speedup:.2f}x < {REQUIRED_SPEEDUP}x "
        f"vs the retired scan path's pinned wall"
    )
