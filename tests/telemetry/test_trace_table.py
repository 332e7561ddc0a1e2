"""The columnar span table against the per-``Span`` summary it replaced.

The oracle below is the loop :func:`summarize_trace` ran over ``Span``
objects before spans became table rows.  It lives only here.  The
column fold must return a bit-identical ``TraceSummary.to_dict()`` on
random tables with open spans, rejected and dropped roots, migrations,
roots without a ``task_id``, and on empty input.  The rest pins the
table's row-level contract: ``close`` refuses a second close and an end
before the start, rows keep counting across drains, and ``Span`` views
read and write through to their row.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import Span, SpanTable, StageStats, Tracer, TraceSummary, summarize_trace
from repro.telemetry.trace import REQUEST_STAGES, TASK_STAGES


# ---------------------------------------------------------------------- #
# The per-Span oracle
# ---------------------------------------------------------------------- #
def _oracle_stage_stats(name: str, durations: List[float]) -> StageStats:
    array = np.asarray(durations, dtype=np.float64)
    p50, p99 = np.percentile(array, (50.0, 99.0))
    return StageStats(
        stage=name,
        count=int(array.size),
        total_s=float(array.sum()),
        mean_s=float(array.mean()),
        p50_s=float(p50),
        p99_s=float(p99),
    )


def oracle_summary(spans: List[Span]) -> TraceSummary:
    """Fold span objects one by one, as the summary did before."""
    durations_by_stage: Dict[str, List[float]] = {}
    verdicts: Dict[str, int] = {}
    open_spans = 0

    by_trace: Dict[str, List[Span]] = {}
    request_roots: List[Span] = []
    for span in spans:
        if not span.ended:
            open_spans += 1
            continue
        durations_by_stage.setdefault(span.name, []).append(span.duration_s)
        by_trace.setdefault(span.trace_id, []).append(span)
        if span.name == "request" and span.annotations.get("terminal"):
            request_roots.append(span)
            verdict = str(span.annotations.get("verdict", "unknown"))
            verdicts[verdict] = verdicts.get(verdict, 0) + 1

    path_totals: Dict[str, float] = {}
    grand_total = 0.0
    for root in request_roots:
        if root.annotations.get("verdict") != "completed":
            continue
        total = root.duration_s
        grand_total += total
        covered = 0.0
        own = by_trace.get(root.trace_id, [])
        task_id = root.annotations.get("task_id")
        linked = by_trace.get(task_id, []) if task_id is not None else []
        for span in own:
            if span.name in REQUEST_STAGES:
                path_totals[span.name] = path_totals.get(span.name, 0.0) + span.duration_s
                covered += span.duration_s
        for span in linked:
            if span.name in TASK_STAGES:
                path_totals[span.name] = path_totals.get(span.name, 0.0) + span.duration_s
                covered += span.duration_s
        remainder = total - covered
        if remainder > 1e-9:
            path_totals["other"] = path_totals.get("other", 0.0) + remainder

    critical_path: Dict[str, float] = {}
    if grand_total > 0.0:
        critical_path = {
            stage: total / grand_total for stage, total in path_totals.items() if total > 0.0
        }
    stages = {
        name: _oracle_stage_stats(name, durations)
        for name, durations in durations_by_stage.items()
    }
    return TraceSummary(
        stages=stages,
        critical_path=critical_path,
        verdicts=verdicts,
        span_count=len(spans),
        open_spans=open_spans,
    )


# ---------------------------------------------------------------------- #
# Random span tables
# ---------------------------------------------------------------------- #
NAMES = ("request",) + REQUEST_STAGES + ("task",) + TASK_STAGES + (
    "autoscale.grow_node", "chaos.node_failure",
)
TRACES = ("r0", "r1", "r2", "t0", "t1", "t2")
VERDICTS = ("completed", "dropped", "rejected_rate_limit", "rejected_queue_full")

times = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)
#: short stage-like and long root-like durations, so completed roots
#: often outlast their stages and leave an ``other`` remainder.
durations = st.one_of(
    st.none(),  # the span stays open
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
)

#: root annotations: terminal flag, verdict and task link each optional,
#: so roots without ``task_id`` (and non-terminal ones) both occur.
root_notes = st.fixed_dictionaries(
    {},
    optional={
        "terminal": st.booleans(),
        "verdict": st.sampled_from(VERDICTS),
        "task_id": st.sampled_from(TRACES + ("missing",)),
    },
)

span_specs = st.tuples(
    st.sampled_from(NAMES),
    st.sampled_from(TRACES),
    times,  # start
    durations,
    root_notes,
    st.booleans(),  # split the annotations between open and close
)


def _table(specs) -> SpanTable:
    table = SpanTable()
    for name, trace_id, start_s, duration_s, notes, split in specs:
        notes = dict(notes) if name == "request" else {}
        at_open = {key: notes.pop(key) for key in list(notes)[:1]} if split else {}
        row = table.open(name, start_s, trace_id, None, at_open or None)
        if duration_s is not None:
            table.close(row, start_s + duration_s, notes or None)
    return table


@given(st.lists(span_specs, max_size=40))
@settings(max_examples=300, deadline=None)
def test_column_fold_matches_the_per_span_oracle(specs):
    table = _table(specs)
    expected = repr(oracle_summary(list(table)).to_dict())
    assert repr(summarize_trace(table).to_dict()) == expected
    # A plain list of spans is copied into a table first; same answer.
    assert repr(summarize_trace(list(table)).to_dict()) == expected


def test_column_fold_covers_every_verdict_path():
    table = SpanTable()
    # Completed request linked to a task that migrated once.
    root = table.open("request", 0.0, "r0", None, {"tenant": "a"})
    table.close(table.open("request.gateway", 0.0, "r0", root), 0.5)
    table.close(table.open("request.batch_wait", 0.5, "r0", root), 1.0)
    task = table.open("task", 1.0, "t0")
    table.close(table.open("task.pending", 1.0, "t0", task), 1.5)
    table.close(table.open("task.execute", 1.5, "t0", task), 3.0)
    table.close(table.open("task.migrate", 3.0, "t0", task), 3.25)
    table.close(table.open("task.execute", 3.25, "t0", task), 6.0)
    table.close(task, 6.0, {"terminal": True, "verdict": "completed", "migrations": 1})
    table.close(root, 7.0, {"terminal": True, "verdict": "completed", "task_id": "t0"})
    # Completed root with no task link, a dropped and a rejected root.
    lone = table.open("request", 2.0, "r1")
    table.close(lone, 4.0, {"terminal": True, "verdict": "completed"})
    dropped = table.open("request", 1.0, "r2")
    table.close(dropped, 9.0, {"terminal": True, "verdict": "dropped", "task_id": "t9"})
    rejected = table.open("request", 3.0, "r3", None, {"tenant": "b"})
    table.close(rejected, 3.0, {"terminal": True, "verdict": "rejected_rate_limit"})
    table.open("task.pending", 8.0, "t1")  # left open

    summary = summarize_trace(table)
    assert repr(summary.to_dict()) == repr(oracle_summary(list(table)).to_dict())
    assert summary.open_spans == 1
    assert summary.verdicts == {"completed": 2, "dropped": 1, "rejected_rate_limit": 1}
    assert set(summary.critical_path) == {
        "request.gateway", "request.batch_wait", "task.pending",
        "task.execute", "task.migrate", "other",
    }
    assert sum(summary.critical_path.values()) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "uncovered_s, other",
    [
        # Float addition is not associative: the remainder is exact only
        # when request stages are added before task stages, root by root.
        (0.7, True),
        # Remainders up to 1e-9 s are rounding, not uninstrumented time.
        (5e-10, False),
    ],
)
def test_remainder_keeps_the_summation_order(uncovered_s, other):
    table = SpanTable()
    root = table.open("request", 0.0, "r0")
    # Stages start at 0.0 so each duration is exactly its end time.
    table.close(table.open("request.gateway", 0.0, "r0", root), 0.03)
    table.close(table.open("request.batch_wait", 0.0, "r0", root), 0.84)
    table.close(table.open("task.execute", 0.0, "t0"), 0.43)
    end_s = 0.03 + 0.84 + 0.43 + uncovered_s
    table.close(root, end_s, {"terminal": True, "verdict": "completed", "task_id": "t0"})
    summary = summarize_trace(table)
    assert repr(summary.to_dict()) == repr(oracle_summary(list(table)).to_dict())
    assert ("other" in summary.critical_path) is other


def test_empty_table_matches_the_oracle():
    table = Tracer().drain()
    assert table == []
    assert repr(summarize_trace(table).to_dict()) == repr(oracle_summary([]).to_dict())


# ---------------------------------------------------------------------- #
# The row-level contract
# ---------------------------------------------------------------------- #
class TestClose:
    def test_double_close_raises(self):
        table = SpanTable()
        row = table.open("task", 1.0, "t1")
        table.close(row, 2.0)
        with pytest.raises(ValueError, match="ended twice"):
            table.close(row, 3.0)
        assert table.ends == [2.0]

    def test_end_before_start_raises_and_leaves_the_row_open(self):
        table = SpanTable()
        row = table.open("task", 5.0, "t1", None, {"tenant": "a"})
        with pytest.raises(ValueError, match="before it started"):
            table.close(row, 4.0, {"verdict": "completed"})
        assert table.ends == [None]
        assert table.notes == [{"tenant": "a"}]

    def test_close_appends_annotations_in_order(self):
        table = SpanTable()
        row = table.open("request", 0.0, "r1", None, {"tenant": "a", "terminal": False})
        table.close(row, 1.0, {"terminal": True, "verdict": "completed"})
        (span,) = table
        assert list(span.annotations.items()) == [
            ("tenant", "a"), ("terminal", True), ("verdict", "completed")
        ]

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer.disabled()
        tracer.start_span("request", 0.0, "r1").end(1.0)
        tracer.event("autoscale.grow_node", 2.0)
        assert tracer.span_count == 0
        assert tracer.drain() == []


class TestSpanTable:
    def test_rows_are_span_ids_across_drains(self):
        tracer = Tracer()
        first = [tracer.table.open("task", 0.0, f"t{i}") for i in range(3)]
        assert first == [0, 1, 2]
        drained = tracer.drain()
        assert [span.span_id for span in drained] == [0, 1, 2]
        row = tracer.table.open("task", 0.0, "t3")
        child = tracer.start_span("task.pending", 0.0, "t3", parent=tracer.drain()[row])
        assert child.span_id == 4 and child.parent_id == 3

    def test_views_index_iterate_and_write_through(self):
        tracer = Tracer()
        root = tracer.start_span("request", 0.0, "r1", tenant="a")
        child = tracer.start_span("request.gateway", 0.0, "r1", parent=root)
        child.annotate("queue", "q0").end(2.0)
        table = tracer.drain()
        assert len(table) == 2 and bool(table)
        assert [span.name for span in table] == ["request", "request.gateway"]
        assert table[-1].parent_id == table[0].span_id == 0
        assert table[1:] == [table[1]]
        assert table.notes == [{"tenant": "a"}, {"queue": "q0"}]
        # A view handed out before the drain still closes its own row.
        root.end(3.0, verdict="completed")
        assert table.ends == [3.0, 2.0]
        with pytest.raises(IndexError):
            table[2]

    def test_equality_and_list_round_trip(self):
        tracer = Tracer()
        tracer.event("autoscale.grow_node", 1.0, trace_id="autoscale", target="n1")
        tracer.start_span("task", 2.0, "t1")
        table = tracer.drain()
        copy = SpanTable.from_spans(list(table))
        assert copy == table
        assert table == list(table)
        assert [span.to_dict() for span in copy] == [span.to_dict() for span in table]
        assert table != []
        assert Tracer().drain() == []
