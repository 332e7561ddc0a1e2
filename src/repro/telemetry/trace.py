"""Request-scoped tracing on the simulated clock.

The aggregate counters and histograms in :mod:`repro.telemetry.registry`
answer *how much* -- how many requests were admitted, what the latency
distribution looked like.  They cannot answer *where a single request's
latency went* once it crossed gateway -> batcher -> scheduler -> shard.
This module adds that causal layer: spans recorded through a
per-deployment :class:`Tracer` into a columnar :class:`SpanTable`,
stamped with simulated-clock timestamps and linked to their parents,
summarised per stage by :func:`summarize_trace`.

Design constraints (mirroring the serving hot path this instruments):

* **Pay for what you use.**  A disabled tracer never records a span;
  every instrumentation site guards on a single cached boolean, so the
  array-native hot-path numbers are unaffected when tracing is off.
* **Rows, not objects.**  A span is one row of parallel column lists
  (name, trace id, start, end, parent row, optional annotation dict),
  the same layout as the placement engine's task table.  The hot
  instrumentation sites open and close rows of the tracer's table by
  index (:meth:`SpanTable.open` / :meth:`SpanTable.close`);
  :class:`Span` objects are thin views over a row, built only on
  demand -- for the console, exports and tests -- and
  :func:`summarize_trace` folds the columns without building any.
* **Monotone within a span.**  Closing a row rejects an end time before
  its start time and a second close, which is how the property-test
  suite pins the "no span ends before it starts" invariant at the source.
* **Deterministic.**  Span ids are a per-tracer counter (a row's id is
  its table's ``first_id`` plus the row index), timestamps are simulated
  seconds; two runs of the same workload produce identical traces, which
  is what lets the benchmark gate diff them.

Stage names are the public schema (see ``docs/observability.md``):

========================  =====================================================
span name                 interval
========================  =====================================================
``request``               arrival -> terminal verdict (root, one per request)
``request.gateway``       arrival -> drained from the admission queue
``request.batch_wait``    enqueued in the batcher -> batch flush
``task``                  batch flush -> task finished / abandoned (root)
``task.pending``          batch flush -> first successful placement
``task.execute``          one contiguous execution segment on one node
``task.migrate``          migration downtime between two execute segments
``autoscale.*``           zero-length actuation events from the autoscaler
``chaos.*``               zero-length fault injections from a scenario's
                          :class:`~repro.scenarios.chaos.ChaosEngine`
                          (``chaos.node_failure``, ``chaos.partition``, ...)
========================  =====================================================
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "Span",
    "SpanTable",
    "Tracer",
    "StageStats",
    "TraceSummary",
    "summarize_trace",
    "REQUEST_STAGES",
    "TASK_STAGES",
]

#: Stage names carved out of the request's own trace (trace id = request id).
REQUEST_STAGES: Tuple[str, ...] = ("request.gateway", "request.batch_wait")

#: Stage names carved out of the linked task trace (trace id = task id).
TASK_STAGES: Tuple[str, ...] = ("task.pending", "task.execute", "task.migrate")

#: Every stage the critical-path attribution reads.
_PATH_STAGES = frozenset(REQUEST_STAGES + TASK_STAGES)


class SpanTable:
    """Recorded spans as parallel columns, one row per span.

    Row ``i`` is the span with id ``first_id + i``.  ``parents`` holds
    the parent's row (its id minus ``first_id``; None for a root),
    ``ends`` is None while a span is open, and ``notes`` holds one
    annotation dict per row -- None when the span has no annotations, so
    the common un-annotated span costs no dict.

    The table behaves like the span list it replaces: ``len``,
    iteration and indexing hand out :class:`Span` views, and it compares
    equal to a list of equal spans (an empty table ``== []``).
    """

    __slots__ = ("first_id", "names", "trace_ids", "starts", "ends", "parents", "notes")

    def __init__(self, first_id: int = 0) -> None:
        self.first_id = first_id
        self.names: List[str] = []
        self.trace_ids: List[str] = []
        self.starts: List[float] = []
        self.ends: List[Optional[float]] = []
        self.parents: List[Optional[int]] = []
        self.notes: List[Optional[Dict[str, Any]]] = []

    @classmethod
    def from_spans(cls, spans: Iterable["Span"]) -> "SpanTable":
        """Copy spans into a new table.

        Rows follow the iteration order and are numbered from the first
        span's id, so a list drained from one tracer keeps its ids.

        Args:
            spans: the spans to copy.

        Returns:
            The table.
        """
        spans = list(spans)
        table = cls(spans[0].span_id if spans else 0)
        for span in spans:
            parent = span.parent_id
            table.open(
                span.name,
                span.start_s,
                span.trace_id,
                None if parent is None else parent - table.first_id,
                span.to_dict()["annotations"] or None,
            )
            table.ends[-1] = span.end_s
        return table

    def open(
        self,
        name: str,
        start_s: float,
        trace_id: str,
        parent: Optional[int] = None,
        notes: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Append an open span.

        Args:
            name: stage name, e.g. ``"request.gateway"``.
            start_s: simulated start time in seconds (a float).
            trace_id: request id or task id the span belongs to.
            parent: the enclosing span's row, or None for a root.
            notes: initial annotations; the table keeps the dict.

        Returns:
            The new span's row.
        """
        row = len(self.ends)
        self.names.append(name)
        self.trace_ids.append(trace_id)
        self.starts.append(start_s)
        self.ends.append(None)
        self.parents.append(parent)
        self.notes.append(notes)
        return row

    def close(self, row: int, end_s: float, notes: Optional[Dict[str, Any]] = None) -> None:
        """Close an open span, optionally annotating it in the same call.

        Args:
            row: the span's row.
            end_s: simulated end time; must be >= the span's start.
            notes: annotations added after the existing ones (a repeated
                key keeps its position and takes the new value); the
                table keeps the dict when the span had none.

        Raises:
            ValueError: if the span is already closed or ``end_s``
                precedes its start (both are instrumentation bugs worth
                failing loudly on).
        """
        if self.ends[row] is not None:
            raise ValueError(
                f"span {self.names[row]!r} ({self.first_id + row}) ended twice"
            )
        start_s = self.starts[row]
        if end_s < start_s:
            raise ValueError(
                f"span {self.names[row]!r} would end at {end_s} before it "
                f"started at {start_s}"
            )
        if notes:
            existing = self.notes[row]
            if existing is None:
                self.notes[row] = notes
            else:
                existing.update(notes)
        self.ends[row] = end_s

    def __len__(self) -> int:
        return len(self.ends)

    def __iter__(self) -> Iterator["Span"]:
        view = Span._view
        return (view(self, row) for row in range(len(self.ends)))

    def __getitem__(self, index: Union[int, slice]) -> Union["Span", List["Span"]]:
        rows = range(len(self.ends))
        if isinstance(index, slice):
            return [Span._view(self, row) for row in rows[index]]
        return Span._view(self, rows[index])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SpanTable):
            return (
                self.first_id == other.first_id
                and self.names == other.names
                and self.trace_ids == other.trace_ids
                and self.starts == other.starts
                and self.ends == other.ends
                and self.parents == other.parents
                and [n or {} for n in self.notes] == [n or {} for n in other.notes]
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable, like the list it replaces

    def __repr__(self) -> str:
        return f"SpanTable({len(self)} spans, first_id={self.first_id})"


class Span:
    """One timed interval on the simulated clock: a view of a table row.

    A span has a name, a trace id tying it to the request or task it
    belongs to, start/end seconds, an optional parent link, and a
    free-form annotation dict.  It stays mutable until :meth:`end` is
    called, and every mutation writes through to the row it views.

    ``Span(name, span_id, trace_id, start_s)`` builds a free-standing
    span (a one-row table of its own); :meth:`Tracer.start_span` and
    iterating a :class:`SpanTable` hand out views of a shared table.
    """

    __slots__ = ("_table", "_row")

    def __init__(
        self,
        name: str,
        span_id: int,
        trace_id: str,
        start_s: float,
        parent_id: Optional[int] = None,
    ) -> None:
        table = SpanTable(span_id)
        table.open(
            name,
            float(start_s),
            trace_id,
            None if parent_id is None else parent_id - span_id,
        )
        self._table = table
        self._row = 0

    @staticmethod
    def _view(table: SpanTable, row: int) -> "Span":
        span = object.__new__(Span)
        span._table = table
        span._row = row
        return span

    @property
    def name(self) -> str:
        """Stage name."""
        return self._table.names[self._row]

    @property
    def span_id(self) -> int:
        """Per-tracer monotone id."""
        return self._table.first_id + self._row

    @property
    def trace_id(self) -> str:
        """Request or task id the span belongs to."""
        return self._table.trace_ids[self._row]

    @property
    def start_s(self) -> float:
        """Simulated start time in seconds."""
        return self._table.starts[self._row]

    @property
    def end_s(self) -> Optional[float]:
        """Simulated end time in seconds, None while open."""
        return self._table.ends[self._row]

    @property
    def parent_id(self) -> Optional[int]:
        """The enclosing span's id, None for a root."""
        parent = self._table.parents[self._row]
        return None if parent is None else self._table.first_id + parent

    @property
    def annotations(self) -> Dict[str, Any]:
        """The span's annotation dict (live: edits write through)."""
        notes = self._table.notes[self._row]
        if notes is None:
            notes = self._table.notes[self._row] = {}
        return notes

    def annotate(self, key: str, value: Any) -> "Span":
        """Attach one key/value annotation to the span.

        Args:
            key: Annotation name (e.g. ``"node"``, ``"verdict"``).
            value: Any JSON-representable value.

        Returns:
            This span, so annotations chain fluently.
        """
        self.annotations[key] = value
        return self

    def end(self, end_s: float, **annotations: Any) -> "Span":
        """Close the span at ``end_s``, optionally annotating in one call.

        Args:
            end_s: Simulated end time; must be >= the span's start time.
            **annotations: Extra annotations applied before closing.

        Returns:
            This span.

        Raises:
            ValueError: if ``end_s`` precedes ``start_s`` or the span is
                already ended (double-close is always an instrumentation
                bug worth failing loudly on).
        """
        self._table.close(self._row, float(end_s), annotations or None)
        return self

    @property
    def ended(self) -> bool:
        """Whether :meth:`end` has been called."""
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        """Simulated seconds covered by the span (0.0 while still open)."""
        end_s = self.end_s
        if end_s is None:
            return 0.0
        return end_s - self.start_s

    def to_dict(self) -> Dict[str, Any]:
        """Serialise the span for JSON export.

        Returns:
            A plain dict with the span's fields and annotations.
        """
        notes = self._table.notes[self._row]
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "annotations": dict(notes) if notes else {},
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash((self.span_id, self.trace_id, self.name))

    def __repr__(self) -> str:
        state = f"{self.start_s:.3f}..{self.end_s:.3f}" if self.ended else f"{self.start_s:.3f}.."
        return f"Span({self.name!r}, trace={self.trace_id!r}, {state})"


class _NullSpan(Span):
    """Shared do-nothing span handed out by a disabled tracer.

    Every mutator is a no-op so call sites that did not guard on
    ``tracer.enabled`` still cost almost nothing and never accumulate
    state.
    """

    def __init__(self) -> None:
        super().__init__("null", -1, "", 0.0)

    def annotate(self, key: str, value: Any) -> "Span":
        """Discard the annotation.

        Args:
            key: Ignored.
            value: Ignored.

        Returns:
            This shared null span.
        """
        return self

    def end(self, end_s: float, **annotations: Any) -> "Span":
        """Discard the close; a null span is never considered ended.

        Args:
            end_s: Ignored.
            **annotations: Ignored.

        Returns:
            This shared null span.
        """
        return self


#: Module-level singleton returned by every call on a disabled tracer.
NULL_SPAN = _NullSpan()


class Tracer:
    """Per-deployment span recorder with an always-on no-op mode.

    An *enabled* tracer records one row per span into :attr:`table` and
    keeps them until :meth:`drain`; a *disabled* one records nothing.
    The hot instrumentation sites work on rows of the table directly --
    ``tracer.table.open(...)`` returns a row and
    ``tracer.table.close(row, end_s, notes)`` ends it -- so their
    per-request bookkeeping holds ints rather than span objects.  They
    also cache ``tracer is not None and tracer.enabled`` into a local
    boolean, so the disabled path costs one branch and never touches the
    table.  The cold-path calls (:meth:`start_span`, :meth:`event`) hand
    out :class:`Span` views of the rows they record, or the shared
    :data:`NULL_SPAN` when disabled.
    """

    __slots__ = ("enabled", "table")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        #: the table spans are recorded into until the next :meth:`drain`
        #: replaces it; a row opened here must be closed before then.
        self.table = SpanTable()

    @classmethod
    def disabled(cls) -> "Tracer":
        """Build a no-op tracer.

        Returns:
            A tracer whose every method is a cheap no-op.
        """
        return cls(enabled=False)

    def start_span(
        self,
        name: str,
        start_s: float,
        trace_id: str,
        parent: Optional[Span] = None,
        **annotations: Any,
    ) -> Span:
        """Open a new span (or return the null span when disabled).

        Args:
            name: Stage name, e.g. ``"request.gateway"``.
            start_s: Simulated start time in seconds.
            trace_id: Request id or task id the span belongs to.
            parent: Optional enclosing span; records its id as the link.
            **annotations: Initial annotations.

        Returns:
            A view of the opened span; close it with :meth:`Span.end`.
        """
        if not self.enabled:
            return NULL_SPAN
        table = self.table
        row = table.open(
            name,
            float(start_s),
            trace_id,
            None if parent is None else parent.span_id - table.first_id,
            annotations or None,
        )
        return Span._view(table, row)

    def event(self, name: str, time_s: float, trace_id: str = "", **annotations: Any) -> Span:
        """Record a zero-length event (start == end).

        Args:
            name: Event name, e.g. ``"autoscale.add_shard"``.
            time_s: Simulated instant the event occurred.
            trace_id: Optional trace id to file the event under.
            **annotations: Annotations describing the event.

        Returns:
            The already-closed span.
        """
        if not self.enabled:
            return NULL_SPAN
        span = self.start_span(name, time_s, trace_id, **annotations)
        span.end(time_s)
        return span

    @property
    def span_count(self) -> int:
        """Number of spans recorded since the last drain."""
        return len(self.table)

    def drain(self) -> SpanTable:
        """Remove and return every recorded span.

        The serving loop calls this once per run so consecutive runs on
        one deployment do not bleed spans into each other's reports.
        Span ids keep counting across drains.

        Returns:
            The recorded spans as a table, in creation order.
        """
        table = self.table
        self.table = SpanTable(table.first_id + len(table))
        return table


@dataclass(frozen=True)
class StageStats:
    """Latency statistics for one stage (one span name)."""

    stage: str
    count: int
    total_s: float
    mean_s: float
    p50_s: float
    p99_s: float

    def to_dict(self) -> Dict[str, Any]:
        """Serialise for JSON export.

        Returns:
            A plain dict of the stage statistics.
        """
        return {
            "stage": self.stage,
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "p50_s": self.p50_s,
            "p99_s": self.p99_s,
        }


@dataclass(frozen=True)
class TraceSummary:
    """Per-stage latency breakdown with critical-path attribution.

    ``stages`` maps span name to :class:`StageStats`.  ``critical_path``
    attributes each completed request's end-to-end latency to the stages
    it actually crossed -- gateway wait, batch wait, scheduler pending
    time, execution, migration downtime, and an ``other`` remainder --
    as fractions that sum to ~1.0.  ``verdicts`` counts terminal
    outcomes (completed / dropped / rejected_*).
    """

    stages: Dict[str, StageStats]
    critical_path: Dict[str, float]
    verdicts: Dict[str, int]
    span_count: int
    open_spans: int

    def stage(self, name: str) -> Optional[StageStats]:
        """Look up one stage's statistics.

        Args:
            name: Span/stage name, e.g. ``"task.execute"``.

        Returns:
            The stats for that stage, or ``None`` if no span used it.
        """
        return self.stages.get(name)

    def to_dict(self) -> Dict[str, Any]:
        """Serialise for JSON export (the shape BENCH files embed).

        Returns:
            A plain dict with stages, critical path and verdict counts.
        """
        return {
            "stages": {name: stats.to_dict() for name, stats in sorted(self.stages.items())},
            "critical_path": dict(sorted(self.critical_path.items())),
            "verdicts": dict(sorted(self.verdicts.items())),
            "span_count": self.span_count,
            "open_spans": self.open_spans,
        }

    def format(self) -> str:
        """Render a fixed-width table of the breakdown.

        Returns:
            A human-readable multi-line summary; the single line
            ``"(no spans)"`` for an empty trace.
        """
        if not self.stages and self.span_count == 0:
            return "(no spans)"
        lines = [
            f"{'stage':<22} {'count':>7} {'p50 (s)':>10} {'p99 (s)':>10} {'total (s)':>11}"
        ]
        for name in sorted(self.stages):
            stats = self.stages[name]
            lines.append(
                f"{name:<22} {stats.count:>7d} {stats.p50_s:>10.4f} "
                f"{stats.p99_s:>10.4f} {stats.total_s:>11.2f}"
            )
        if self.critical_path:
            parts = ", ".join(
                f"{stage}={fraction:.1%}" for stage, fraction in sorted(self.critical_path.items())
            )
            lines.append(f"critical path: {parts}")
        if self.verdicts:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(self.verdicts.items()))
            lines.append(f"verdicts: {parts}")
        return "\n".join(lines)


def _stage_stats(name: str, durations: "array[float]") -> StageStats:
    values = np.frombuffer(durations, dtype=np.float64)
    p50, p99 = np.percentile(values, (50.0, 99.0))
    return StageStats(
        stage=name,
        count=int(values.size),
        total_s=float(values.sum()),
        mean_s=float(values.mean()),
        p50_s=float(p50),
        p99_s=float(p99),
    )


def summarize_trace(spans: Union[SpanTable, Iterable[Span]]) -> TraceSummary:
    """Fold a span table into per-stage stats and critical-path shares.

    Critical-path attribution walks every *completed* request root: its
    end-to-end latency decomposes into the request-trace stages
    (``request.gateway``, ``request.batch_wait``), the linked task-trace
    stages (``task.pending``, ``task.execute``, ``task.migrate`` via the
    root's ``task_id`` annotation), plus an ``other`` remainder for time
    not covered by any instrumented stage.  Shares are totals across all
    completed requests, normalised to fractions.

    The fold reads the table's columns directly and never builds a
    :class:`Span`; any other iterable of spans is copied into a table
    first.

    An empty span list (a traced run that completed zero requests) is a
    valid input: the result is a well-formed all-zeros summary -- empty
    ``stages``/``critical_path``/``verdicts``, zero counts -- so callers
    never need to guard before summarising.

    Args:
        spans: Spans from one serving run (``Tracer.drain()`` output or
            ``ServingReport.trace_spans``), or any iterable of spans.

    Returns:
        The aggregated :class:`TraceSummary`.
    """
    table = spans if isinstance(spans, SpanTable) else SpanTable.from_spans(spans)
    names, trace_ids, starts, ends, notes = (
        table.names, table.trace_ids, table.starts, table.ends, table.notes
    )
    durations_by_stage: Dict[str, "array[float]"] = {}
    verdicts: Dict[str, int] = {}
    open_spans = 0
    #: rows of critical-path stages per trace id, in row order.
    path_rows: Dict[str, List[int]] = {}
    request_roots: List[int] = []
    for row, end_s in enumerate(ends):
        if end_s is None:
            open_spans += 1
            continue
        name = names[row]
        durations = durations_by_stage.get(name)
        if durations is None:
            durations = durations_by_stage[name] = array("d")
        durations.append(end_s - starts[row])
        if name in _PATH_STAGES:
            rows = path_rows.get(trace_ids[row])
            if rows is None:
                path_rows[trace_ids[row]] = [row]
            else:
                rows.append(row)
        elif name == "request":
            note = notes[row]
            if note and note.get("terminal"):
                request_roots.append(row)
                verdict = str(note.get("verdict", "unknown"))
                verdicts[verdict] = verdicts.get(verdict, 0) + 1

    path_totals: Dict[str, float] = {}
    grand_total = 0.0
    for root in request_roots:
        note = notes[root]
        if note.get("verdict") != "completed":
            continue
        total = ends[root] - starts[root]
        grand_total += total
        covered = 0.0
        task_id = note.get("task_id")
        for rows, stages in (
            (path_rows.get(trace_ids[root], ()), REQUEST_STAGES),
            (path_rows.get(task_id, ()) if task_id is not None else (), TASK_STAGES),
        ):
            for row in rows:
                name = names[row]
                if name in stages:
                    duration = ends[row] - starts[row]
                    path_totals[name] = path_totals.get(name, 0.0) + duration
                    covered += duration
        remainder = total - covered
        if remainder > 1e-9:
            path_totals["other"] = path_totals.get("other", 0.0) + remainder

    critical_path: Dict[str, float] = {}
    if grand_total > 0.0:
        critical_path = {
            stage: total / grand_total for stage, total in path_totals.items() if total > 0.0
        }

    stages = {
        name: _stage_stats(name, durations) for name, durations in durations_by_stage.items()
    }
    return TraceSummary(
        stages=stages,
        critical_path=critical_path,
        verdicts=verdicts,
        span_count=len(table),
        open_spans=open_spans,
    )
